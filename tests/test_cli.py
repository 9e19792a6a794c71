"""CLI surface: exit codes, CSV formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dickesim
from dickesim.cli import main

GHZ_JSON = json.dumps({"n": 4, "gates": [{"kind": "GMS", "params": [np.pi / 2, 0.0]}]})
ROT_JSON = json.dumps({
    "n": 6,
    "gates": [
        {"kind": "RN", "params": [-np.pi / 2, np.pi / 4]},
        {"kind": "OAT", "params": [0.05], "axes": "z"},
    ],
})


def parse_csv(text):
    lines = [line for line in text.strip().split("\n") if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def run_cli_process(*argv):
    """The CLI in a fresh interpreter with NumPy's RuntimeWarnings as errors,
    as CI's smoke steps run it: a warning ends the run in a traceback."""
    src = str(Path(dickesim.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "dickesim.cli", *argv],
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "error::RuntimeWarning"},
        capture_output=True,
        text=True,
        timeout=120,
    )


def assert_one_error_exit_4(proc):
    assert proc.returncode == 4, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def assert_run_fails_writing_nothing(tmp_path, circuit):
    path, out = tmp_path / "circuit.json", tmp_path / "p.csv"
    path.write_text(json.dumps(circuit))
    assert_one_error_exit_4(run_cli_process("run", str(path), "--shots", "10", "--out", str(out)))
    assert not out.exists() and not (tmp_path / "p.csv.counts.csv").exists()


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text(ROT_JSON)
    return str(path)


class TestRun:
    def test_stdout_csv(self, circuit_file, capsys):
        assert main(["run", circuit_file]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["j", "m", "p"]
        assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-10)

    def test_out_file_and_counts_sibling(self, circuit_file, tmp_path):
        out = tmp_path / "probs.csv"
        assert main(["run", circuit_file, "--out", str(out), "--shots", "50"]) == 0
        assert out.read_text().startswith("j,m,p\n")
        counts = (tmp_path / "probs.csv.counts.csv").read_text()
        _, rows = parse_csv(counts)
        assert sum(int(r[2]) for r in rows) == 50

    def test_shots_stdout_blank_line_separated(self, circuit_file, capsys):
        assert main(["run", circuit_file, "--shots", "10", "--seed", "3"]) == 0
        blocks = capsys.readouterr().out.split("\n\n")
        assert len(blocks) == 2
        assert blocks[1].startswith("j,m,count")

    def test_seeded_shots_deterministic(self, circuit_file, capsys):
        main(["run", circuit_file, "--shots", "100", "--seed", "9"])
        first = capsys.readouterr().out
        main(["run", circuit_file, "--shots", "100", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_oracle_reports_deviation(self, circuit_file, capsys):
        assert main(["run", circuit_file, "--oracle"]) == 0
        err = capsys.readouterr().err
        assert "oracle max deviation" in err
        dev = float(err.split(":")[1])
        assert dev < 1e-8

    def test_oracle_cap(self, tmp_path, capsys):
        # the cap is checked before the simulation: nothing is printed or written
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"n": 40, "gates": [{"kind": "RX", "params": [0.1]}]}))
        assert main(["run", str(big), "--oracle"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""
        out = tmp_path / "p.csv"
        assert main(["run", str(big), "--oracle", "--shots", "10", "--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "p.csv.counts.csv").exists()

    def test_bad_json_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_gate_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "gates": [{"kind": "HADAMARD", "params": []}]}))
        assert main(["run", str(bad)]) == 3
        assert "gate #1" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("gate", [
        '{"kind": "RX", "params": [%s]}',
        '{"kind": "RN", "params": [0.5, %s]}',
        '{"kind": "TNT", "params": [%s, 2.0], "axes": "zx"}',
    ])
    def test_non_finite_param_exit_3(self, tmp_path, capsys, bad, gate):
        # JSON readers accept NaN and Infinity; the gate rejects them
        path = tmp_path / "bad.json"
        path.write_text('{"n": 4, "gates": [{"kind": "RZ", "params": [0.1]}, %s]}' % (gate % bad))
        out = tmp_path / "p.csv"
        assert main(["run", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: gate #2: ") and "must be finite" in captured.err
        assert captured.out == "" and not out.exists()

    def test_nan_tnt_coupling_exit_3_infinite_runs(self, tmp_path, capsys):
        # an infinite coupling is N/Lambda = 0, plain one-axis twisting
        path = tmp_path / "tnt.json"
        tnt = '{"n": 4, "gates": [{"kind": "TNT", "params": [0.3, %s], "axes": "zx"}]}'
        path.write_text(tnt % "NaN")
        assert main(["run", str(path)]) == 3
        assert "gate #1: TNT parameter 2 must be finite" in capsys.readouterr().err
        path.write_text(tnt % "Infinity")
        assert main(["run", str(path)]) == 0

    @pytest.mark.parametrize("gate", [
        '{"kind": "RX", "params": [%s]}',
        '{"kind": "RX", "params": [0.1], "noise": %s}',
    ])
    def test_integer_too_large_for_a_float_exit_3(self, tmp_path, capsys, gate):
        # a 400-digit JSON integer is read as the infinity it rounds toward
        path = tmp_path / "big.json"
        gates = '{"kind": "RZ", "params": [0.1]}, ' + gate % ("9" * 400)
        path.write_text('{"n": 4, "gates": [%s]}' % gates)
        out = tmp_path / "p.csv"
        assert main(["run", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: gate #2: RX ") and "inf" in captured.err
        assert captured.out == "" and not out.exists()

    def test_integer_tnt_coupling_too_large_for_a_float_is_infinite(self, tmp_path, capsys):
        # Lambda = 10^400 is Lambda = infinity, as the JSON float 1e400 is
        path = tmp_path / "tnt.json"
        tnt = ('{"n": 4, "gates": [{"kind": "RX", "params": [0.7]},'
               ' {"kind": "TNT", "params": [0.3, %s], "axes": "zx"}]}')
        outs = []
        for value in ("1" + "0" * 400, "1e400"):
            path.write_text(tnt % value)
            assert main(["run", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_overflowing_phase_exit_4_writes_nothing(self, tmp_path):
        # RZ2's phase argument theta * m^2 overflows at m = +-2: the gate
        # fails with one error line, and no NumPy warning reaches stderr
        assert_run_fails_writing_nothing(tmp_path, {"n": 4, "gates": [
            {"kind": "RX", "params": [0.3]}, {"kind": "RZ2", "params": [1e308]},
        ]})

    @pytest.mark.parametrize("n, gates", [
        (4, [{"kind": "R_PLUS", "params": [1e300]}]),
        (8, [{"kind": "RX", "params": [0.3], "noise": 0.1}, {"kind": "R_MINUS", "params": [1e300]}]),
        (1, [{"kind": "R_PLUS", "params": [1e200]}]),
    ], ids=["R_PLUS-ket", "R_MINUS-rho", "R_PLUS-norm"])
    def test_overflowing_ladder_gate_exit_4_writes_nothing(self, tmp_path, n, gates):
        # the ladder series, K x or the ket's norm overflows: the state cannot
        # be normalized, and the gate fails before NumPy warns
        assert_run_fails_writing_nothing(tmp_path, {"n": n, "gates": gates})

    @pytest.mark.parametrize("n, coupling, axes", [(3, 1e-308, "zx"), (1000, 1e-303, "zy")])
    def test_overflowing_tnt_coupling_exit_4_writes_nothing(self, tmp_path, n, coupling, axes):
        # w = N/Lambda overflows at N = 3; at N = 1000 w is finite but w J_y
        # overflows: the recipe fails before the builder multiplies
        assert_run_fails_writing_nothing(tmp_path, {"n": n, "gates": [
            {"kind": "TNT", "params": [0.3, coupling], "axes": axes},
        ]})

    @pytest.mark.parametrize("gate", [
        '"TAT", "params": [0.1], "axes": ["x", "y"]',
        '"OAT", "params": [0.1], "axes": 5',
        '"RX", "params": [0.1], "noise": true',
        '"RX", "params": [0.1], "noise": "0.1"',
        '5, "params": [0.1]',
        '"RX", "params": 0.3',
    ])
    def test_mistyped_gate_field_exit_3(self, tmp_path, capsys, gate):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 4, "gates": [{"kind": %s}]}' % gate)
        out = tmp_path / "p.csv"
        assert main(["run", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: gate #1: ")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("n", [0, -2])
    def test_n_below_one_exit_3(self, tmp_path, capsys, n):
        path = tmp_path / "bad.json"
        path.write_text('{"n": %d, "gates": [{"kind": "RX", "params": [0.3]}]}' % n)
        out = tmp_path / "p.csv"
        assert main(["run", str(path), "--shots", "5", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f'error: "n": particle count must be >= 1, got {n}\n'
        assert captured.out == "" and not out.exists()

    def test_boolean_n_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": true, "gates": []}')
        assert main(["run", str(path)]) == 3
        assert '"n": particle count must be an integer, got True' in capsys.readouterr().err

    def test_negative_seed_exit_2(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "p.csv"
        argv = ["run", circuit_file, "--shots", "5", "--seed", "-1"]
        assert main(argv + ["--out", str(out)]) == 2
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0, got -1\n" * 2
        assert captured.out == "" and not out.exists()

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 3

    def test_stdin_circuit(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(GHZ_JSON))
        assert main(["run", "-"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        probs = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        assert probs[(2.0, 2.0)] == pytest.approx(0.5, abs=1e-10)
        assert probs[(2.0, -2.0)] == pytest.approx(0.5, abs=1e-10)


class TestSqueeze:
    def test_oat_sweep(self, capsys):
        assert main(["squeeze", "--n", "20", "--steps", "6", "--theta-max", "0.3"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["theta", "xi2_S_dB", "xi2_R_dB"]
        assert len(rows) == 6
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-6)  # untwisted: 0 dB
        s_db = [float(r[1]) for r in rows]
        assert min(s_db) < -3.0  # OAT squeezing shows up within the sweep
        for r in rows:
            assert float(r[2]) >= float(r[1]) - 1e-9  # Wineland >= Kitagawa-Ueda

    @pytest.mark.parametrize("gate", ["tnt", "tat", "gms"])
    def test_other_gates_run(self, gate, capsys):
        assert main(
            ["squeeze", "--n", "12", "--gate", gate, "--steps", "3",
             "--theta-max", "0.2"]
        ) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 3

    @pytest.mark.parametrize("argv", [
        ["--gate", "gms", "--phi", "nan"],
        ["--gate", "gms", "--phi", "inf"],
        ["--theta-max", "nan"],
        ["--gate", "tnt", "--coupling", "nan"],
    ])
    def test_non_finite_parameter_exit_2(self, capsys, argv):
        assert main(["squeeze", "--n", "4", "--steps", "2", *argv]) == 2
        captured = capsys.readouterr()
        assert "must be finite" in captured.err and captured.out == ""

    def test_bad_steps(self, capsys):
        assert main(["squeeze", "--n", "4", "--steps", "0"]) == 2

    @pytest.mark.parametrize("flag", ["--theta-min", "--theta-max", "--phi", "--coupling"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_named_before_any_gate(self, flag, value, tmp_path, capsys):
        out = tmp_path / "sq.csv"
        argv = ["squeeze", "--n", "4", "--steps", "2", "--gate", "tnt", "--out", str(out)]
        assert main(argv + [f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be finite, got {float(value)}\n"
        assert captured.out == "" and not out.exists()


def replay_squeeze(n, gate, steps, coupling=None):
    """The squeeze CSV from a fresh two-gate circuit per point, each run from
    the ground state: RN(pi/2, 0) then the twist, or GMS alone."""
    from dickesim import cli
    from dickesim.dicke import ground_state
    from dickesim.errors import DegenerateFrameError
    from dickesim.gates import Circuit, GateSpec, apply_circuit
    from dickesim.squeezing import get_xi_2_R, get_xi_2_S
    from dickesim.vqa import DEFAULT_TNT_COUPLING, tnt_coupling_value

    rows = []
    for theta in np.linspace(0.0, 0.5, steps):
        theta = float(theta)
        if gate == "gms":
            specs = (GateSpec("GMS", (theta, np.pi / 4)),)  # the --phi default
        else:
            if gate == "oat":
                twist = GateSpec("OAT", (theta,), axes="z")
            elif gate == "tat":
                twist = GateSpec("TAT", (theta,), axes="zy")
            else:
                omega = coupling if coupling is not None else n * theta
                lam = tnt_coupling_value(n, theta, omega, DEFAULT_TNT_COUPLING)
                twist = GateSpec("TNT", (theta, lam), axes="zx")
            specs = (GateSpec("RN", (np.pi / 2.0, 0.0)), twist)
        state = apply_circuit(Circuit(n, specs), ground_state(n))
        try:
            s_db = 10.0 * np.log10(get_xi_2_S(state))
            r_db = 10.0 * np.log10(get_xi_2_R(state))
        except DegenerateFrameError:
            s_db = r_db = float("nan")
        rows.append((theta, float(s_db), float(r_db)))
    return cli._rows_csv("theta,xi2_S_dB,xi2_R_dB", rows)


class TestSqueezePreparedOnce:
    """Each point applies its twist to one prepared state; the bytes are
    those of a per-point replay of the whole circuit."""

    @pytest.mark.parametrize("n", [7, 64])
    @pytest.mark.parametrize("gate, coupling", [
        ("oat", None), ("tat", None), ("tnt", None), ("tnt", 3.5), ("gms", None),
    ])
    def test_bytes_match_per_point_replay(self, n, gate, coupling, capsys):
        argv = ["squeeze", "--n", str(n), "--gate", gate, "--steps", "9"]
        if coupling is not None:
            argv += ["--coupling", str(coupling)]
        assert main(argv) == 0
        assert capsys.readouterr().out == replay_squeeze(n, gate, 9, coupling)

    @pytest.mark.parametrize("steps", [1, 2, 7])
    @pytest.mark.parametrize("gate", ["oat", "tat", "tnt", "gms"])
    def test_one_rn_per_call(self, gate, steps, capsys, monkeypatch):
        from dickesim import cli

        kinds = []
        real = cli.apply_gate
        monkeypatch.setattr(
            cli, "apply_gate", lambda state, spec: kinds.append(spec.kind) or real(state, spec)
        )
        assert main(["squeeze", "--n", "6", "--gate", gate, "--steps", str(steps)]) == 0
        prep = [] if gate == "gms" else ["RN"]
        assert kinds[:len(prep)] == prep and kinds.count("RN") == len(prep)
        assert len(kinds) == len(prep) + steps


class TestVqa:
    def test_csv_shape(self, capsys):
        assert main(
            ["vqa", "--n", "8", "--optimizer", "adam", "--lr", "0.01",
             "--max-iter", "3", "--init", "0.01,0.02,0.01"]
        ) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["iteration", "cost", "wall_seconds",
                          "theta_0", "theta_1", "theta_2"]
        assert len(rows) == 4  # initial point + 3 iterations
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        assert float(rows[0][2]) == 0.0  # no wall time charged to the init row
        np.testing.assert_allclose(
            [float(v) for v in rows[0][3:]], [0.01, 0.02, 0.01]
        )

    def test_random_init_seeded(self, capsys):
        def run():
            assert main(["vqa", "--n", "6", "--max-iter", "2", "--seed", "5"]) == 0
            _, rows = parse_csv(capsys.readouterr().out)
            # drop the wall_seconds column, it is not reproducible
            return [(r[0], r[1], *r[3:]) for r in rows]

        assert run() == run()

    def test_bad_init_exit_2(self, capsys):
        assert main(["vqa", "--n", "6", "--init", "a,b,c"]) == 2

    def test_wrong_arity_exit_2(self, capsys):
        assert main(["vqa", "--n", "6", "--init", "0.1,0.2"]) == 2

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--lr", "nan", "learning_rate"),
            ("--lr", "inf", "learning_rate"),
            ("--eps-fd", "nan", "eps_fd"),
            ("--eps-fd", "inf", "eps_fd"),
            ("--tol", "nan", "tolerance"),
            ("--tol", "-1", "tolerance"),
            ("--init", "nan,0,0", "initial"),
        ],
    )
    def test_non_finite_setting_exit_2(self, flag, value, field, tmp_path,
                                       capsys, monkeypatch):
        # rejected before any cost is evaluated, and nothing is written
        from dickesim import vqa

        def no_cost(theta, ansatz):
            raise AssertionError("cost evaluated")

        monkeypatch.setattr(vqa, "cost", no_cost)
        out = tmp_path / "vqa.csv"
        argv = ["vqa", "--n", "6", "--max-iter", "1", "--out", str(out)]
        assert main(argv + [f"{flag}={value}"]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys, monkeypatch):
        from dickesim import vqa

        def no_cost(theta, ansatz):
            raise AssertionError("cost evaluated")

        monkeypatch.setattr(vqa, "cost", no_cost)
        out = tmp_path / "vqa.csv"
        assert main(["vqa", "--n", "6", "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0, got -1\n"
        assert captured.out == "" and not out.exists()

    def test_overflowing_step_exit_4_writes_nothing(self, tmp_path):
        # the first gradient step's phases overflow: the fit stops only on a
        # degenerate frame, so this error ends the run and no CSV is written
        out = tmp_path / "vqa.csv"
        assert_one_error_exit_4(run_cli_process(
            "vqa", "--n", "20", "--optimizer", "gd", "--lr", "1e305",
            "--init", "0.1,0.1,0.1", "--max-iter", "5", "--out", str(out)))
        assert not out.exists()

    def test_table1_zero_tnt_angle(self, capsys):
        # t2 = 0 makes the TNT gate the identity under either coupling reading
        assert main(["vqa", "--n", "10", "--tnt-coupling", "table1",
                     "--init", "0.1,0.0,0.1", "--max-iter", "1"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 2


class TestQpt:
    def test_csv_shape(self, capsys):
        assert main(["qpt", "--n", "12", "--steps", "40"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["r", "jz_scaled", "jx2_scaled", "jy2_scaled"]
        assert len(rows) == 40
        assert float(rows[0][0]) == -5.0
        assert float(rows[-1][0]) == 5.0
        # deep in the paramagnetic phase the sweep starts at the ground state
        assert float(rows[0][1]) == pytest.approx(-1.0, abs=0.05)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_exit_2(self, capsys, value):
        assert main(["qpt", "--n", "4", "--steps", "3", f"--lambda={value}"]) == 2
        captured = capsys.readouterr()
        assert "must be finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag", ["--lambda", "--r-min", "--r-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_named_before_any_gate(self, flag, value, tmp_path, capsys):
        out = tmp_path / "qpt.csv"
        argv = ["qpt", "--n", "4", "--steps", "3", "--out", str(out)]
        assert main(argv + [f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be finite, got {float(value)}\n"
        assert captured.out == "" and not out.exists()

    def test_step_domain(self, capsys):
        assert main(["qpt", "--n", "4", "--steps", "1"]) == 2
        assert main(["qpt", "--n", "4", "--r-min", "2", "--r-max", "-2"]) == 2

    def test_one_tat_spec_per_call(self, capsys, monkeypatch):
        # the TAT(lambda/N; xy) gate is the same at every step, so one spec
        # is built and applied throughout; the list keeps every spec alive,
        # so no id is reused
        from dickesim import cli

        specs = []
        real = cli.apply_gate
        monkeypatch.setattr(
            cli, "apply_gate", lambda state, spec: specs.append(spec) or real(state, spec)
        )
        assert main(["qpt", "--n", "6", "--steps", "5"]) == 0
        tats = [spec for spec in specs if spec.kind == "TAT"]
        assert len(tats) == 5
        assert len({id(spec) for spec in tats}) == 1


class TestParticleCount:
    """A particle count below one is a usage error, raised before any state
    is allocated or any row is printed."""

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["squeeze", "--gate", "oat", "--steps", "2"],
        ["squeeze", "--gate", "tat", "--steps", "2"],
        ["squeeze", "--gate", "tnt", "--steps", "2"],
        ["squeeze", "--gate", "gms", "--steps", "2"],
        ["qpt", "--steps", "3"],
        ["vqa", "--max-iter", "1"],
    ])
    def test_exit_2(self, argv, n, capsys):
        assert main([*argv, f"--n={n}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: particle count must be >= 1, got {n}\n"
        assert captured.out == ""


class TestHusimi:
    def test_grid_rows(self, circuit_file, capsys):
        assert main(
            ["husimi", circuit_file, "--theta-steps", "5", "--phi-steps", "4"]
        ) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["theta", "phi", "q"]
        assert len(rows) == 20
        values = [float(r[2]) for r in rows]
        assert min(values) >= 0.0 and max(values) <= 1.0

    @pytest.mark.parametrize("flag", ["--theta-steps", "--phi-steps"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_bad_step_count_exit_2(self, circuit_file, capsys, flag, count):
        assert main(["husimi", circuit_file, flag, count]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {count}\n"


class TestBench:
    def test_small_sweep(self, capsys):
        assert main(
            ["bench", "--n-min", "10", "--n-max", "40", "--points", "4",
             "--layers", "1", "--repeats", "1"]
        ) == 0
        captured = capsys.readouterr()
        header, rows = parse_csv(captured.out)
        assert header == ["n", "seconds"]
        assert all(float(r[1]) > 0 for r in rows)
        assert "loglog slope" in captured.err

    def test_bounds_validated(self, capsys):
        assert main(["bench", "--n-min", "30", "--n-max", "20"]) == 2

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_bad_points_exit_2(self, capsys, points):
        assert main(["bench", "--points", points]) == 2
        assert capsys.readouterr().err == f"error: --points must be >= 1, got {points}\n"

    @pytest.mark.parametrize("noise", ["-0.5", "1.5", "nan", "inf"])
    def test_noise_outside_unit_interval_exit_2(self, capsys, noise):
        argv = ["bench", "--n-min", "10", "--n-max", "12", "--points", "1", f"--noise={noise}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --noise must lie in [0, 1], got {float(noise)}\n"

    @pytest.mark.parametrize("flag", ["--layers", "--repeats"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_bad_counts_exit_2(self, capsys, flag, count):
        argv = ["bench", "--n-min", "10", "--n-max", "12", "--points", "1", flag, count]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag[2:]} must be >= 1, got {count}\n"


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 2


def _valid_argv(command, circuit_file):
    """Smallest argv each subcommand accepts, so only an added flag can fail."""
    return {
        "run": ["run", circuit_file],
        "squeeze": ["squeeze", "--n", "4", "--steps", "2"],
        "vqa": ["vqa", "--n", "4", "--max-iter", "1"],
        "qpt": ["qpt", "--n", "4", "--steps", "2"],
        "husimi": ["husimi", circuit_file, "--theta-steps", "2", "--phi-steps", "2"],
        "bench": ["bench", "--n-max", "12", "--points", "1", "--layers", "1",
                  "--repeats", "1"],
    }[command]


class TestFlags:
    @pytest.mark.parametrize(
        "command", ["run", "squeeze", "vqa", "qpt", "husimi", "bench"]
    )
    def test_threads_rejected(self, command, circuit_file, capsys):
        assert main(_valid_argv(command, circuit_file)) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(_valid_argv(command, circuit_file) + ["--threads", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["squeeze", "qpt", "husimi", "bench"])
    def test_seed_rejected_where_nothing_is_random(self, command, circuit_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_valid_argv(command, circuit_file) + ["--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_seed_drives_run_and_vqa(self, circuit_file, capsys):
        from dickesim import apply_circuit, circuit_from_json, ground_state, sample
        from dickesim.measurement import shot_counts_csv

        circuit = circuit_from_json(ROT_JSON)
        state = apply_circuit(circuit, ground_state(circuit.n_particles))
        assert main(["run", circuit_file, "--shots", "200", "--seed", "11"]) == 0
        counts = capsys.readouterr().out.split("\n\n")[1]
        assert counts == shot_counts_csv(sample(state, 200, 11))

        assert main(["vqa", "--n", "4", "--max-iter", "1", "--seed", "11"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        start = np.random.default_rng(11).uniform(-0.1, 0.1, 3)
        assert [float(v) for v in rows[0][3:]] == start.tolist()


class TestUnwritableOut:
    """An --out that cannot be written is a usage error: exit 2 and one
    error line naming the path, never a traceback."""

    @pytest.mark.parametrize("where, reason", [
        ("missing/out.csv", "No such file or directory"),
        (".", "Is a directory"),
    ])
    @pytest.mark.parametrize("command", ["qpt", "run"])
    def test_exit_2_before_any_work(self, command, where, reason, circuit_file,
                                    tmp_path, capsys, monkeypatch):
        from dickesim import cli

        def refuse(*args):
            raise AssertionError("a gate ran before --out was checked")

        monkeypatch.setattr(cli, "apply_gate", refuse)
        monkeypatch.setattr(cli, "apply_circuit", refuse)
        out = str(tmp_path / where)
        argv = {
            "qpt": ["qpt", "--n", "4", "--steps", "3"],
            "run": ["run", circuit_file, "--shots", "10"],
        }[command]
        assert main(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out!r}: {reason}\n"
        assert captured.out == ""

    def test_run_counts_sibling_unwritable(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "probs.csv"
        sibling = tmp_path / "probs.csv.counts.csv"
        sibling.mkdir()
        assert main(["run", circuit_file, "--shots", "10", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {str(sibling)!r}: Is a directory\n"
        assert out.read_text().startswith("j,m,p\n")


class TestResources:
    def test_memory_error_is_clean_exit_2(self, circuit_file, capsys, monkeypatch):
        from dickesim import cli

        def exhausted(args):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(cli, "cmd_run", exhausted)
        assert main(["run", circuit_file]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 7.45 GiB\n"

    def test_bare_memory_error(self, circuit_file, capsys, monkeypatch):
        from dickesim import cli

        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_run", exhausted)
        assert main(["run", circuit_file]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"


# RN, GMS, OAT, TAT over x/y/z axes, R_PLUS and R_MINUS, each with noise.
NOISY_LADDER_JSON = json.dumps({
    "n": 5,
    "gates": [
        {"kind": "RN", "params": [0.8, 1.9], "noise": 0.05},
        {"kind": "GMS", "params": [0.4, 0.3], "noise": 0.05},
        {"kind": "OAT", "params": [0.6], "axes": "x", "noise": 0.05},
        {"kind": "TAT", "params": [0.3], "axes": "zy", "noise": 0.05},
        {"kind": "TAT", "params": [-0.5], "axes": "xy", "noise": 0.05},
        {"kind": "R_PLUS", "params": [0.7], "noise": 0.05},
        {"kind": "R_MINUS", "params": [-1.1], "noise": 0.05},
    ],
})

NO_SCIPY_SCRIPT = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import dickesim, dickesim.cli
assert not scipy_modules(), ("import", scipy_modules())
circuit, out = sys.argv[1], sys.argv[2]
for argv in (
    ["run", circuit, "--shots", "50", "--out", out + "/run.csv"],
    ["husimi", circuit, "--theta-steps", "3", "--phi-steps", "3", "--out", out + "/q.csv"],
    ["qpt", "--n", "6", "--steps", "3", "--out", out + "/qpt.csv"],
    ["vqa", "--n", "6", "--optimizer", "qng", "--max-iter", "1", "--out", out + "/vqa.csv"],
    ["squeeze", "--n", "6", "--gate", "tnt", "--steps", "2", "--out", out + "/sq.csv"],
):
    assert dickesim.cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules())
"""


def test_workload_commands_load_no_scipy(tmp_path):
    # SciPy costs about 0.35 s to import; only the 2^N oracle and the
    # non-Hermitian twists (TAT/TNT with a plus or minus axis) load it.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dickesim

    circuit = tmp_path / "noisy.json"
    circuit.write_text(NOISY_LADDER_JSON)
    src = str(Path(dickesim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(circuit), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run.csv.counts.csv").is_file()
