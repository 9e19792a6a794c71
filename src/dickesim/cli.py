"""Command-line front end.

Subcommands: run (circuit -> probabilities), squeeze (parameter sweeps of the
twisting gates), vqa (variational optimization), qpt (stepwise sweep through
the transverse-field phase transition), husimi (Q-function grid), bench (wall
time scaling).  Everything emits CSV with a header row and LF endings; floats
carry 17 significant digits so files round-trip exactly.

Exit codes: 0 success, 2 usage or resource error (out of memory included),
3 input parse error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

import numpy as np

from .bench import layer_seconds
from .dicke import _integer, ground_state
from .errors import (
    CircuitParseError,
    DegenerateFrameError,
    DomainError,
    NumericError,
    ResourceError,
    UnsupportedConfigError,
)
from .gates import Circuit, GateSpec, apply_circuit, apply_gate, circuit_from_json
from .measurement import (
    _rows_csv,
    expval,
    husimi_csv,
    husimi_grid,
    prob_table_csv,
    probabilities,
    sample,
    shot_counts_csv,
)
from .oracle import FULL_SPACE_CAP, extract_collective, full_run
from .squeezing import get_xi_2_R, get_xi_2_S
from .vqa import (
    DEFAULT_TNT_COUPLING,
    TNT_COUPLING_READINGS,
    Ansatz,
    OptimizerConfig,
    fit,
    tnt_coupling_value,
)

__all__ = ["main"]


def _emit(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, newline="\n")
    except OSError as exc:
        raise _unwritable(out, exc.errno) from None


def _unwritable(out: str, code: int) -> DomainError:
    return DomainError(f"cannot write {out!r}: {os.strerror(code)}")


def _check_out(out: str | None) -> None:
    """Reject an --out that cannot be a file before any work: a directory,
    or a file in a directory that does not exist."""
    if out is None or out == "-":
        return
    path = Path(out)
    if path.is_dir():
        raise _unwritable(out, errno.EISDIR)
    if not path.parent.is_dir():
        raise _unwritable(out, errno.ENOENT)


def _load_circuit(path: str) -> Circuit:
    try:
        text = Path(path).read_text() if path != "-" else sys.stdin.read()
    except OSError as exc:
        raise CircuitParseError(f"cannot read circuit file {path!r}: {exc}") from None
    return circuit_from_json(text)


def _check_finite(flags: dict[str, float | None]) -> None:
    """Reject a NaN or infinite float flag, by name, before any work."""
    for flag, value in flags.items():
        if value is not None and not np.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value}")


def cmd_run(args) -> int:
    _integer(args.seed, "--seed", 0)
    circuit = _load_circuit(args.circuit)
    n = circuit.n_particles
    if args.oracle and n > FULL_SPACE_CAP:
        raise ResourceError(
            f"--oracle supports N <= {FULL_SPACE_CAP}, circuit has N = {n}"
        )
    state = apply_circuit(circuit, ground_state(n))
    table = probabilities(state)
    prob_text = prob_table_csv(table)
    if args.shots is None:
        _emit(prob_text, args.out)
    else:
        counts_text = shot_counts_csv(sample(state, args.shots, args.seed))
        if args.out in (None, "-"):  # both tables on stdout, a blank line apart
            _emit(prob_text + "\n" + counts_text, args.out)
        else:
            _emit(prob_text, args.out)
            _emit(counts_text, args.out + ".counts.csv")
    if args.oracle:
        reference = extract_collective(full_run(circuit), n)
        mine = table.as_dict()
        dev = 0.0
        for jm, p_ref in reference["probs"].items():
            dev = max(dev, abs(mine.get(jm, 0.0) - p_ref))
        for name, ref_val in reference["expvals"].items():
            dev = max(dev, abs(complex(expval(state, name)) - ref_val))
        if reference["xi2_S"] is not None:
            try:
                dev = max(dev, abs(get_xi_2_S(state) - reference["xi2_S"]))
            except DegenerateFrameError:
                pass
        print(f"oracle max deviation: {dev:.3e}", file=sys.stderr)
    return 0


def _squeeze_twist(gate: str, n: int, theta: float, phi: float,
                   coupling: float | None, reading: str) -> GateSpec:
    if gate == "gms":
        return GateSpec("GMS", (theta, phi))
    if gate == "oat":
        return GateSpec("OAT", (theta,), axes="z")
    if gate == "tat":
        return GateSpec("TAT", (theta,), axes="zy")
    if gate == "tnt":
        omega = coupling if coupling is not None else n * theta
        lam = tnt_coupling_value(n, theta, omega, reading)
        return GateSpec("TNT", (theta, lam), axes="zx")
    raise DomainError(f"unknown squeeze gate {gate!r}")


def cmd_squeeze(args) -> int:
    _integer(args.steps, "--steps", 1)
    _check_finite({"--theta-min": args.theta_min, "--theta-max": args.theta_max,
                   "--phi": args.phi, "--coupling": args.coupling})
    start = ground_state(args.n)
    if args.gate != "gms":
        start = apply_gate(start, GateSpec("RN", (np.pi / 2.0, 0.0)))
    rows = []
    for theta in np.linspace(args.theta_min, args.theta_max, args.steps):
        twist = _squeeze_twist(
            args.gate, args.n, float(theta), args.phi, args.coupling, args.tnt_coupling
        )
        state = apply_gate(start, twist)
        try:
            s_db = 10.0 * np.log10(get_xi_2_S(state))
            r_db = 10.0 * np.log10(get_xi_2_R(state))
        except DegenerateFrameError:
            print(
                f"warning: degenerate mean-spin frame at theta = {theta:.6g}; row is NaN",
                file=sys.stderr,
            )
            s_db = r_db = float("nan")
        rows.append((float(theta), float(s_db), float(r_db)))
    _emit(_rows_csv("theta,xi2_S_dB,xi2_R_dB", rows), args.out)
    return 0


def cmd_vqa(args) -> int:
    _integer(args.seed, "--seed", 0)
    ansatz = Ansatz(args.n, args.tnt_coupling)
    config = OptimizerConfig(
        kind=args.optimizer,
        learning_rate=args.lr,
        max_iter=args.max_iter,
        tolerance=args.tol,
        eps_fd=args.eps_fd,
    )
    if args.init == "random":
        initial = None
    else:
        try:
            initial = [float(x) for x in args.init.split(",")]
        except ValueError:
            raise DomainError(
                f'--init must be "random" or a comma list of numbers, got {args.init!r}'
            ) from None
    result = fit(ansatz, config, initial=initial, seed=args.seed)
    rows = []
    for i, c in enumerate(result.cost_history):
        wall = 0.0 if i == 0 else result.iteration_times[i - 1]
        rows.append((i, float(c), float(wall), *map(float, result.theta_history[i])))
    header = "iteration,cost,wall_seconds," + ",".join(
        f"theta_{k}" for k in range(ansatz.n_params)
    )
    _emit(_rows_csv(header, rows), args.out)
    return 0


def cmd_qpt(args) -> int:
    _integer(args.steps, "--steps", 2)
    _check_finite({"--lambda": args.lambda_param, "--r-min": args.r_min, "--r-max": args.r_max})
    if not args.r_min < args.r_max:
        raise DomainError("--r-min must be below --r-max")
    n = args.n
    lam = args.lambda_param
    state = ground_state(n)
    twist = GateSpec("TAT", (lam / n,), axes="xy")
    rows = []
    for r in np.linspace(args.r_min, args.r_max, args.steps):
        state = apply_gate(state, GateSpec("RZ", (lam * r,)))
        state = apply_gate(state, twist)
        rows.append(
            (
                float(r),
                2.0 * expval(state, "Jz") / n,
                4.0 * expval(state, "Jx2") / n**2,
                4.0 * expval(state, "Jy2") / n**2,
            )
        )
    _emit(_rows_csv("r,jz_scaled,jx2_scaled,jy2_scaled", rows), args.out)
    return 0


def cmd_husimi(args) -> int:
    _integer(args.theta_steps, "--theta-steps", 1)
    _integer(args.phi_steps, "--phi-steps", 1)
    circuit = _load_circuit(args.circuit)
    state = apply_circuit(circuit, ground_state(circuit.n_particles))
    thetas = np.linspace(0.0, np.pi, args.theta_steps)
    phis = np.linspace(0.0, 2.0 * np.pi, args.phi_steps, endpoint=False)
    grid = husimi_grid(state, thetas, phis)
    _emit(husimi_csv(thetas, phis, grid), args.out)
    return 0


def cmd_bench(args) -> int:
    _integer(args.n_max, "--n-max", 10)
    if not 1 <= args.n_min < args.n_max:
        raise DomainError("need 1 <= --n-min < --n-max")
    _integer(args.points, "--points", 1)
    if not 0.0 <= args.noise <= 1.0:
        raise DomainError(f"--noise must lie in [0, 1], got {args.noise}")
    noise = args.noise if args.noise > 0 else None
    ns = sorted(set(np.geomspace(args.n_min, args.n_max, args.points).astype(int)))
    rows = [
        (int(n), float(layer_seconds(int(n), noise, args.layers, args.repeats)))
        for n in ns
    ]
    _emit(_rows_csv("n,seconds", rows), args.out)
    cutoff = (min(ns) + max(ns)) / 2.0
    top = [(n, t) for n, t in rows if n >= cutoff]
    if len(top) >= 2:
        slope = np.polyfit(
            np.log([n for n, _ in top]), np.log([t for _, t in top]), 1
        )[0]
        print(f"# loglog slope over N >= {cutoff:g}: {slope:.3f}", file=sys.stderr)
    return 0


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--out", default=None, help="output CSV path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickesim",
        description="Collective spin-ensemble simulator in the Dicke basis",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("run", help="run a circuit and print P(j, m)")
    p.add_argument("circuit", help="circuit JSON file (- for stdin)")
    p.add_argument("--shots", type=int, default=None, help="also sample shot counts")
    p.add_argument(
        "--oracle",
        action="store_true",
        help=f"cross-check against the full 2^N simulator (N <= {FULL_SPACE_CAP})",
    )
    p.add_argument("--seed", type=int, default=0, help="PRNG seed for --shots")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = subs.add_parser("squeeze", help="squeezing-parameter sweep over a twisting gate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gate", choices=("oat", "tnt", "tat", "gms"), default="oat")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--phi", type=float, default=np.pi / 4, help="GMS axis angle")
    p.add_argument(
        "--coupling",
        type=float,
        default=None,
        help="fixed TNT coupling value (default: N*theta per sweep point)",
    )
    p.add_argument(
        "--tnt-coupling", choices=TNT_COUPLING_READINGS, default=DEFAULT_TNT_COUPLING
    )
    _add_common(p)
    p.set_defaults(func=cmd_squeeze)

    p = subs.add_parser("vqa", help="variational minimization of xi^2_S")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--optimizer", choices=("gd", "adam", "qng"), default="gd")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-19)
    p.add_argument("--eps-fd", type=float, default=1e-3)
    p.add_argument("--init", default="random", help='"random" or comma list, e.g. 0.1,0.2,0.0')
    p.add_argument(
        "--tnt-coupling", choices=TNT_COUPLING_READINGS, default=DEFAULT_TNT_COUPLING
    )
    p.add_argument("--seed", type=int, default=0, help="PRNG seed for --init random")
    _add_common(p)
    p.set_defaults(func=cmd_vqa)

    p = subs.add_parser("qpt", help="stepwise RZ+TAT sweep through the phase transition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lambda_param", type=float, default=-0.2)
    p.add_argument("--r-min", type=float, default=-5.0)
    p.add_argument("--r-max", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=357)
    _add_common(p)
    p.set_defaults(func=cmd_qpt)

    p = subs.add_parser("husimi", help="Husimi Q grid of a circuit's final state")
    p.add_argument("circuit", help="circuit JSON file (- for stdin)")
    p.add_argument("--theta-steps", type=int, default=60)
    p.add_argument("--phi-steps", type=int, default=60)
    _add_common(p)
    p.set_defaults(func=cmd_husimi)

    p = subs.add_parser("bench", help="wall-time scaling of a rotation-layer circuit")
    p.add_argument("--n-min", type=int, default=10)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--repeats", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except CircuitParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ResourceError, UnsupportedConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
