"""The benchmark's four workloads: seeded inputs, output checks, oracle checks.

Each workload turns a seed into CLI inputs (an argv list, plus a circuit JSON
file where the subcommand reads one).  The program under test receives only
those.  The same module checks what a run wrote, and replays a small-N copy of
the same input on the brute-force 2^N oracle in ``dickesim.oracle``.

Checks return a list of problems; an empty list means the output is correct.
Nothing here is timed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Values the seed commit produced; later changes may move them only by roundoff.
PUBLISHED_START = (0.00195902, 0.14166777, 0.01656466)
PUBLISHED_OPTIMUM = (-0.06292, 0.07942, -0.02455)
OPTIMUM_COST = 0.022731294290683764   # cost(PUBLISHED_OPTIMUM), N = 100
QPT_ENDPOINT = 0.82388789407919882    # 2<Jz>/N at r = 5, N = 100, 357 steps
RECORDED_TOL = 1e-9

NOISELESS_TOL = 1e-10                 # oracle agreement, ROADMAP aim 3
NOISY_TOL = 1e-8

VQA_ITERS = 4
QPT_STEPS = 357
QPT_LAMBDA = -0.2
SHOTS = 5000
NOISE = 0.05
HUSIMI_STEPS = 60

# Fixed gate-kind sequence of the noisy circuit: the seed draws angles, azimuths
# and axes, never the kinds, so the work per run does not change with the seed.
NOISY_KINDS = ("RN", "GMS", "RN", "OAT", "GMS", "R_PLUS", "RN", "TAT", "GMS", "R_MINUS") * 6


def _read_rows(path: Path, header: str) -> tuple[list[list[float]], list[str]]:
    """Numeric rows of a CLI CSV, and the problems found reading it."""
    if not path.is_file():
        return [], [f"{path.name} was not written"]
    with path.open(newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines or ",".join(lines[0]) != header:
        return [], [f"{path.name}: header is not {header!r}"]
    try:
        rows = [[float(x) for x in line] for line in lines[1:]]
    except ValueError as exc:
        return [], [f"{path.name}: {exc}"]
    if not all(math.isfinite(x) for row in rows for x in row):
        return rows, [f"{path.name}: non-finite value"]
    return rows, []


def _expect_rows(rows: list, want: int, name: str) -> list[str]:
    return [] if len(rows) == want else [f"{name}: {len(rows)} rows, expected {want}"]


def _worst(pairs) -> float:
    return max((abs(a - b) for a, b in pairs), default=0.0)


# --------------------------------------------------------------------- vqa

def vqa_start(seed: int) -> tuple[float, ...]:
    if seed == 0:
        return PUBLISHED_START
    rng = np.random.default_rng(seed)
    return tuple(float(x) for x in np.add(PUBLISHED_START, rng.uniform(-1e-3, 1e-3, 3)))


def vqa_argv(seed: int, out: Path, n: int = 100, iters: int = VQA_ITERS) -> list[str]:
    init = ",".join(repr(x) for x in vqa_start(seed))
    return ["vqa", "--n", str(n), "--optimizer", "qng", "--lr", "0.03",
            f"--init={init}", "--max-iter", str(iters), "--out", str(out / "vqa.csv")]


_VQA_HEADER = "iteration,cost,wall_seconds,theta_0,theta_1,theta_2"


def vqa_check(out: Path, iters: int = VQA_ITERS) -> tuple[list[list[float]], list[str]]:
    # fit() stops silently on NumericError and still exits 0, so a short
    # history must fail here rather than read as a speed-up.
    rows, problems = _read_rows(out / "vqa.csv", _VQA_HEADER)
    problems += _expect_rows(rows, iters + 1, "vqa.csv")
    if not problems and [int(r[0]) for r in rows] != list(range(iters + 1)):
        problems.append("vqa.csv: iterations are not 0..max_iter")
    return rows, problems


def vqa_oracle(seed: int, out: Path, cli_main: Callable) -> list[str]:
    from dickesim.oracle import extract_collective, full_run
    from dickesim.vqa import Ansatz, cost

    problems = []
    value = cost(PUBLISHED_OPTIMUM, Ansatz(100))
    if abs(value - OPTIMUM_COST) > RECORDED_TOL * OPTIMUM_COST:
        problems.append(f"cost at the published optimum {value!r} != {OPTIMUM_COST!r}")
    n = 8
    if cli_main(vqa_argv(seed, out, n=n, iters=2)) != 0:
        return problems + ["small vqa copy exited nonzero"]
    rows, read = vqa_check(out, iters=2)
    if read:
        return problems + read
    ansatz = Ansatz(n)
    dev = _worst(
        (r[1], extract_collective(full_run(ansatz.build(r[3:])), n)["xi2_S"]) for r in rows
    )
    if dev > NOISELESS_TOL:
        problems.append(f"vqa N = {n}: cost deviates from the oracle by {dev:.2e}")
    return problems


# --------------------------------------------------------------------- qpt

def qpt_argv(seed: int, out: Path, n: int = 100) -> list[str]:
    del seed  # the criterion-8 sweep has no free input
    return ["qpt", "--n", str(n), "--lambda", str(QPT_LAMBDA), "--steps", str(QPT_STEPS),
            "--out", str(out / "qpt.csv")]


def qpt_check(out: Path, n: int = 100) -> tuple[list[list[float]], list[str]]:
    rows, problems = _read_rows(out / "qpt.csv", "r,jz_scaled,jx2_scaled,jy2_scaled")
    problems += _expect_rows(rows, QPT_STEPS, "qpt.csv")
    if not problems and n == 100 and abs(rows[-1][1] - QPT_ENDPOINT) > RECORDED_TOL:
        problems.append(f"qpt endpoint {rows[-1][1]!r} != {QPT_ENDPOINT!r}")
    return rows, problems


def qpt_oracle(seed: int, out: Path, cli_main: Callable) -> list[str]:
    from dickesim.gates import GateSpec
    from dickesim.oracle import full_apply_gate, full_collective_ops, ground_density

    n = 6
    if cli_main(qpt_argv(seed, out, n=n)) != 0:
        return ["small qpt copy exited nonzero"]
    rows, problems = qpt_check(out, n=n)
    if problems:
        return problems
    ops = full_collective_ops(n)
    rho = ground_density(n)
    pairs = []
    for row in rows:
        rho = full_apply_gate(rho, GateSpec("RZ", (QPT_LAMBDA * row[0],)), n)
        rho = full_apply_gate(rho, GateSpec("TAT", (QPT_LAMBDA / n,), axes="xy"), n)
        pairs += [
            (row[1], 2.0 * np.trace(rho @ ops["z"]).real / n),
            (row[2], 4.0 * np.trace(rho @ ops["x"] @ ops["x"]).real / n**2),
            (row[3], 4.0 * np.trace(rho @ ops["y"] @ ops["y"]).real / n**2),
        ]
    dev = _worst(pairs)
    return [f"qpt N = {n}: deviates from the oracle by {dev:.2e}"] if dev > NOISELESS_TOL else []


# ------------------------------------------------------------------- noisy

def noisy_circuit(seed: int, n: int) -> dict:
    rng = np.random.default_rng(seed)
    gates = []
    for kind in NOISY_KINDS:
        if kind in ("RN", "GMS"):
            theta = rng.uniform(0.3, 1.2) if kind == "RN" else rng.uniform(0.01, 0.03)
            gate = {"kind": kind, "params": [theta, rng.uniform(0.0, 2.0 * np.pi)]}
        elif kind == "OAT":
            gate = {"kind": kind, "params": [rng.uniform(0.01, 0.03)], "axes": str(rng.choice(list("xyz")))}
        elif kind == "TAT":
            gate = {"kind": kind, "params": [rng.uniform(0.01, 0.03)],
                    "axes": "".join(rng.choice(list("xyz"), 2, replace=False))}
        else:
            gate = {"kind": kind, "params": [rng.uniform(0.04, 0.06)]}
        gate["params"] = [float(p) for p in gate["params"]]
        gate["noise"] = NOISE
        gates.append(gate)
    return {"n": n, "gates": gates}


def noisy_argv(seed: int, out: Path, n: int = 80) -> list[str]:
    path = out / "circuit.json"
    path.write_text(json.dumps(noisy_circuit(seed, n)))
    return ["run", str(path), "--shots", str(SHOTS), "--seed", str(seed),
            "--out", str(out / "probs.csv")]


def noisy_check(out: Path, n: int = 80) -> tuple[list[list[float]], list[str]]:
    # Every noisy gate activates at most one more block, and there are enough
    # of them to reach j_min, so the table covers the whole collective space.
    want = (n + 2) ** 2 // 4 if n % 2 == 0 else (n + 1) * (n + 3) // 4
    rows, problems = _read_rows(out / "probs.csv", "j,m,p")
    counts, more = _read_rows(out / "probs.csv.counts.csv", "j,m,count")
    problems += more + _expect_rows(rows, want, "probs.csv") + _expect_rows(counts, want, "counts")
    if problems:
        return rows, problems
    p = np.array([r[2] for r in rows])
    if p.min() < 0.0 or abs(p.sum() - 1.0) > 1e-9:
        problems.append(f"probabilities: min {p.min():.3e}, sum {float(p.sum())!r}")
    c = np.array([r[2] for r in counts])
    if c.min() < 0 or c.sum() != SHOTS or [r[:2] for r in counts] != [r[:2] for r in rows]:
        problems.append("shot counts do not match the probability table")
    return rows, problems


def noisy_oracle(seed: int, out: Path, cli_main: Callable) -> list[str]:
    from dickesim.gates import circuit_from_json
    from dickesim.oracle import extract_collective, full_run

    n = 6
    if cli_main(noisy_argv(seed, out, n=n)) != 0:
        return ["small noisy copy exited nonzero"]
    rows, problems = noisy_check(out, n=n)
    if problems:
        return problems
    circuit = circuit_from_json((out / "circuit.json").read_text())
    reference = extract_collective(full_run(circuit), n)["probs"]
    mine = {(r[0], r[1]): r[2] for r in rows}
    dev = _worst((mine.get(jm, 0.0), p) for jm, p in reference.items())
    return [f"noisy N = {n}: P(j, m) deviates from the oracle by {dev:.2e}"] if dev > NOISY_TOL else []


# ------------------------------------------------------------------ husimi

def husimi_circuit(seed: int, n: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"n": n, "gates": [
        {"kind": "RN", "params": [np.pi / 2.0, float(rng.uniform(0.0, 2.0 * np.pi))]},
        {"kind": "OAT", "params": [float(rng.uniform(0.005, 0.02))], "axes": "z"},
    ]}


def husimi_argv(seed: int, out: Path, n: int = 300, steps: int = HUSIMI_STEPS) -> list[str]:
    path = out / "circuit.json"
    path.write_text(json.dumps(husimi_circuit(seed, n)))
    return ["husimi", str(path), "--theta-steps", str(steps), "--phi-steps", str(steps),
            "--out", str(out / "husimi.csv")]


def husimi_check(out: Path, steps: int = HUSIMI_STEPS) -> tuple[list[list[float]], list[str]]:
    rows, problems = _read_rows(out / "husimi.csv", "theta,phi,q")
    problems += _expect_rows(rows, steps * steps, "husimi.csv")
    if not problems and not all(0.0 <= r[2] <= 1.0 for r in rows):
        problems.append("husimi.csv: Q outside [0, 1]")
    return rows, problems


def _product_state(n: int, theta: float, phi: float) -> np.ndarray:
    """Full-space coherent state, one spin (up = index 0) tipped to (theta, phi)."""
    site = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    vec = np.ones(1, dtype=complex)
    for _ in range(n):
        vec = np.kron(vec, site)
    return vec


def husimi_oracle(seed: int, out: Path, cli_main: Callable) -> list[str]:
    # The circuit is noiseless and stays in j = N/2, where the spin-j coherent
    # state is the product state, so Q can be read off the oracle directly.
    from dickesim.gates import circuit_from_json
    from dickesim.oracle import full_run

    n, steps = 8, 12
    if cli_main(husimi_argv(seed, out, n=n, steps=steps)) != 0:
        return ["small husimi copy exited nonzero"]
    rows, problems = husimi_check(out, steps=steps)
    if problems:
        return problems
    rho = full_run(circuit_from_json((out / "circuit.json").read_text()))
    dev = _worst(
        (r[2], np.vdot(v, rho @ v).real)
        for r in rows
        for v in (_product_state(n, r[0], r[1]),)
    )
    return [f"husimi N = {n}: Q deviates from the oracle by {dev:.2e}"] if dev > NOISELESS_TOL else []


# ---------------------------------------------------------------- registry
# Why each workload is in the benchmark is in BENCHMARK.json and README.md.

@dataclass(frozen=True)
class Workload:
    name: str
    seed_varies: str
    argv: Callable[[int, Path], list[str]]
    check: Callable[[Path], tuple[list, list[str]]]
    oracle: Callable[[int, Path, Callable], list[str]]


WORKLOADS = {w.name: w for w in (
    Workload(
        "vqa_qng_n100",
        f"the start point: the published start at seed 0, else that start plus a "
        f"uniform offset in [-1e-3, 1e-3] per parameter; {VQA_ITERS} iterations always",
        vqa_argv, vqa_check, vqa_oracle,
    ),
    Workload(
        "qpt_sweep_n100",
        "nothing: the criterion-8 sweep has no free input, so every seed runs the same argv",
        qpt_argv, qpt_check, qpt_oracle,
    ),
    Workload(
        "noisy_circuit_n80",
        "gate angles, azimuths phi, twisting axes and the sampling seed; the kind "
        "sequence, gate count and noise strength are fixed",
        noisy_argv, noisy_check, noisy_oracle,
    ),
    Workload(
        "husimi_n300",
        "the RN azimuth phi and the OAT strength; N, grid and gate kinds are fixed",
        husimi_argv, husimi_check, husimi_oracle,
    ),
)}
