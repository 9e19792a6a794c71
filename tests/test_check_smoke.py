"""The smoke-run checker of the CI workflow, on small synthetic files.

``.github/check_smoke.py`` is the only thing between a CI smoke run and a
pass, so each of its rules must be able to fail.  It is loaded here from its
file and its ``main`` run in process, as the workflow runs it by argv.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

CHECKER = Path(__file__).resolve().parents[1] / ".github" / "check_smoke.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_smoke", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table(header, rows):
    return "\n".join([header] + [",".join(map(str, r)) for r in rows]) + "\n"


def run_table(probs=(0.25, 0.75), counts=(3, 7)):
    rows = [(1.0, 1.0 - k, p) for k, p in enumerate(probs)]
    counted = [(j, m, c) for (j, m, _), c in zip(rows, counts)]
    return {"run.csv": table("j,m,p", rows), "run.csv.counts.csv": table("j,m,count", counted)}


def bench_lines(final=None, fraction="0 (0/12)"):
    final = {"correct": True, "attempted": 24, "failed": 0} if final is None else final
    return {"bench.out": "\n".join([
        "vqa_qng_n100  seed 0  trace 0: 12 timed calls, 2 set-ups, fail_frac 0 (0/12)",
        f"husimi_n300  seed 0  trace 0: 12 timed calls, 2 set-ups, fail_frac {fraction}",
        json.dumps(final),
    ]) + "\n"}


SQUEEZE = "theta,xi2_S_dB,xi2_R_dB"
QPT = "r,jz_scaled,jx2_scaled,jy2_scaled"
VQA = "iteration,cost,wall_seconds,theta_0,theta_1,theta_2"
HUSIMI = [(0.0, 0.0, 0.5)] * 900


def squeeze(*rows):
    return {"s.out": table(SQUEEZE, rows)}


# kind -> (argv before the file, files written; the first is checked)
CLEAN = {
    "squeeze": (["squeeze"], squeeze((0.0, 0.0, 0.0), (0.1, -1.0, -1.5), (0.2, -2.0, -2.5))),
    "qpt": (["qpt"], {"q.out": table(QPT, [(0.1, -1.0, 0.0, 0.0)] * 40)}),
    "vqa": (["vqa"], {"v.out": table(VQA, [(i, 0.5, 0.01, 0.0, 0.1, 0.0) for i in range(5)])}),
    "husimi": (["husimi"], {"h.out": table("theta,phi,q", HUSIMI)}),
    "run": (["run", "--shots", "10"], run_table()),
    "bench": (["bench"], bench_lines()),
}

BROKEN = {
    "wrong header": (["squeeze"], {"s.out": table("theta,xi2_S,xi2_R", [(0.0, 0.0, 0.0)] * 3)}),
    "wrong row count": (["squeeze"], squeeze((0.0, 0.0, 0.0), (0.1, 0.0, 0.0))),
    "non-finite value": (["squeeze"], squeeze((0.0, 0.0, 0.0), (0.1, "nan", 0.0), (0.2, 0.0, 0.0))),
    "q outside [0, 1]": (["husimi"], {"h.out": table("theta,phi,q", HUSIMI[:-1] + [(3.0, 6.0, 1.5)])}),
    "probabilities off 1": (["run", "--shots", "10"], run_table(probs=(0.25, 0.7))),
    "counts off --shots": (["run", "--shots", "10"], run_table(counts=(3, 6))),
    "bench workload failed": (["bench"], bench_lines(fraction="0.0833333 (1/12)")),
    "bench total failed": (["bench"], bench_lines(final={"correct": True, "failed": 1})),
    "bench not correct": (["bench"], bench_lines(final={"correct": False, "failed": 0})),
}


def check(checker, monkeypatch, tmp_path, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    first = str(tmp_path / next(iter(files)))
    monkeypatch.setattr(sys, "argv", ["check_smoke.py", *argv, first])
    checker.main()


@pytest.mark.parametrize("kind", sorted(CLEAN))
def test_clean_file_passes(checker, monkeypatch, tmp_path, capsys, kind):
    check(checker, monkeypatch, tmp_path, *CLEAN[kind])
    assert capsys.readouterr().out.count("\n") == 1


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_broken_file_exits_nonzero(checker, monkeypatch, tmp_path, case):
    with pytest.raises(SystemExit) as exc:
        check(checker, monkeypatch, tmp_path, *BROKEN[case])
    assert exc.value.code not in (0, None)
