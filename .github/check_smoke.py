"""Run the tier-1 workflow's CLI smoke checks, or check one output file.

    python3 .github/check_smoke.py smoke
    python3 .github/check_smoke.py KIND [--rows N] [--shots N] FILE...

``smoke`` runs each row of SMOKE through the ``dickesim`` on PATH in a temporary
directory, RuntimeWarnings as errors.  A run must exit 0 and its output (its --out
file, else its stdout) pass its KIND's check; a failing circuit must exit with its
code, print one ``error: `` line and no more, and write no --out file or .counts.csv.

For the CSV kinds, each FILE must start with KIND's header and hold --rows
rows (KIND's default if not given), each with one finite value per header
field.  Per kind:

* squeeze, qpt, vqa: nothing more;
* husimi: every q lies in [0, 1];
* run: every p is nonnegative and they sum to 1 within 1e-9; FILE.counts.csv
  lists the same (j, m) rows with counts that sum to --shots;
* bench: FILE is the output of ``perfbench/run.py --workload all``: its
  last line, the combined result of all workloads, must read correct with
  0 failed, and every workload's summary line must report 0 failed
  operations in its ``fail_frac f (failed/attempted)``.

Exits nonzero with a message on the first row or file that fails.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

HEADERS = {
    "squeeze": "theta,xi2_S_dB,xi2_R_dB",
    "qpt": "r,jz_scaled,jx2_scaled,jy2_scaled",
    "vqa": "iteration,cost,wall_seconds,theta_0,theta_1,theta_2",
    "husimi": "theta,phi,q",
    "run": "j,m,p",
}
ROWS = {"squeeze": 3, "qpt": 40, "vqa": 5, "husimi": 900, "run": None}


class Smoke(NamedTuple):
    name: str
    command: str  # the argv after "dickesim", split at spaces; KIND is its first word
    circuit: str | None = None  # written to NAME.json first
    rows: int | None = None  # in place of KIND's row count
    code: int = 0  # the exit code of a failing circuit


def failing(name, code, circuit):
    return Smoke(name, f"run {name}.json --shots 10 --out {name}.csv", circuit, code=code)


def circuit(n, *gates):
    return json.dumps({"n": n, "gates": list(gates)})


def gate(kind, *params, **more):
    return {"kind": kind, "params": list(params), **more}


TWIST = [gate("RN", 1.5707963267948966, 0.7), gate("OAT", 0.002, axes="z")]
MIXED = [gate("RN", 1.1, 0.4), gate("GMS", 0.02, 1.3), gate("TAT", 0.02, axes="xy"),
         gate("TNT", 0.3, 2.5, axes="zx"), gate("OAT", 0.02, axes="y"),
         gate("TNT", 0.3, 2.5, axes="zy"), gate("RX", 0.3), gate("RY", -0.4), gate("RZ", 0.5),
         gate("RZ2", 0.02), gate("OAT", 0.02, axes="z"), gate("R_PLUS", 0.05),
         gate("R_MINUS", 0.05), gate("TAT", 0.01, axes="z,plus"), gate("TNT", 0.02, 2.5, axes="xy")]
RX = gate("RX", 0.3)

SMOKE = [
    # No benchmark workload reaches N = 1000: the ket path per twisting gate, OAT, TNT and GMS at a
    # small theta, as at the default 0.5 the OAT mean-spin frame degenerates and its row is NaN.
    Smoke("squeeze-tat", "squeeze --n 1000 --gate tat --steps 3"),
    *(Smoke(f"squeeze-{g}", f"squeeze --n 1000 --gate {g} --theta-max 0.02 --steps 3")
      for g in ("oat", "tnt", "gms")),
    # At N = 10^4 one K_j would take 1.6 GB: the preparation is a closed-form
    # rotation of the ground ket and OAT(z) a phase, so the run stays O(N).
    Smoke("squeeze-oat-10000", "squeeze --n 10000 --gate oat --theta-max 0.002 --steps 3"),
    # TAT(xy) on the ket takes the parity-split update, which forms no K_j.
    Smoke("qpt-1000", "qpt --n 1000 --steps 40"),
    # The ansatz's TNT(zx) takes the flip-split ket update; its eigenpairs fit the cache.
    Smoke("vqa-1000", "vqa --n 1000 --optimizer qng --lr 0.03 "
                      "--init=0.00195902,0.14166777,0.01656466 --max-iter 4"),
    # No workload runs the Husimi rows above N = 300; at N = 10^4 the grid is
    # read from the ket, as rho_j would take 1.6 GB.
    *(Smoke(f"husimi-{n}", f"husimi husimi-{n}.json --theta-steps 30 --phi-steps 30",
            circuit(n, *TWIST)) for n in (1000, 10000)),
    # A noiseless run at N = 10^4 reads P(j, m) = |psi|^2 and samples it without rho_j.
    Smoke("run-10000", "run run-10000.json --shots 1000 --seed 1 --out run-10000.csv",
          circuit(10000, *TWIST), rows=10001),
    # The noise makes rho after RN, so at N = 200, past the benchmark's N = 80, the later gates run
    # the per-block update twice per block in each kernel form: the parity and flip splits (GMS to
    # TNT(zy)), the dense complex eigh (RX, RY, TNT(xy)), the phase vector (RZ, RZ2, OAT(z)), the
    # ladder series (R_PLUS, R_MINUS) and expm (TAT(z,plus)).
    Smoke("rho-200", "run rho-200.json --shots 1000 --seed 1 --out rho-200.csv",
          circuit(200, *({**g, "noise": 0.02} for g in MIXED))),
    # Gates that overflow: RZ2(1e308)'s phase; R_PLUS, R_MINUS at 1e300 on a ket and on rho, and
    # R_PLUS(1e200) at N = 1 (K x or its norm); TNT couplings whose N/Lambda, or N/Lambda J_y, does.
    failing("overflow-4", 4, circuit(4, RX, gate("RZ2", 1e308))),
    failing("overflow-r-plus-4", 4, circuit(4, gate("R_PLUS", 1e300))),
    failing("overflow-r-minus-8", 4, circuit(8, {**RX, "noise": 0.1}, gate("R_MINUS", 1e300))),
    failing("overflow-r-plus-1", 4, circuit(1, gate("R_PLUS", 1e200))),
    failing("overflow-tnt-3", 4, circuit(3, gate("TNT", 0.3, 1e-308, axes="zx"))),
    failing("overflow-tnt-1000", 4, circuit(1000, gate("TNT", 0.3, 1e-303, axes="zy"))),
    # Values of the wrong type: a bool param or "n", a string noise, a number kind or params.
    failing("mistyped-param", 3, circuit(4, gate("RX", True))),
    failing("mistyped-noise", 3, circuit(4, {**RX, "noise": "0.1"})),
    failing("mistyped-n", 3, circuit(True, RX)),
    failing("mistyped-kind", 3, circuit(4, gate(5, 0.3))),
    failing("mistyped-params", 3, circuit(4, {**RX, "params": 0.3})),
    # An "n" past 2^53, and one past the 4300 digits json.loads reads.
    failing("mistyped-n-401-digits", 3, circuit(10**400, RX)),
    failing("mistyped-n-2-53", 3, circuit(2**53 + 1, RX)),
    failing("mistyped-n-5001-digits", 3, '{"n": 1%s, "gates": []}' % ("0" * 5000)),
]


def read_table(path, header, rows):
    """The rows of a CSV file as lists of floats, after checking its header,
    its row count (unless None) and that every value is finite."""
    first, *lines = open(path).read().splitlines()
    if first != header:
        sys.exit(f"{path}: expected the header {header!r}, got {first!r}")
    if rows is not None and len(lines) != rows:
        sys.exit(f"{path}: expected {rows} rows, got {len(lines)}")
    width = header.count(",") + 1
    table = [[float(x) for x in line.split(",")] for line in lines]
    if any(len(row) != width for row in table):
        sys.exit(f"{path}: expected {width} values in every row")
    if not all(math.isfinite(v) for row in table for v in row):
        sys.exit(f"{path}: non-finite value")
    return table


def check_run(path, table, shots):
    p = [row[2] for row in table]
    if min(p) < 0.0 or abs(math.fsum(p) - 1.0) > 1e-9:
        sys.exit(f"{path}: probabilities must be nonnegative and sum to 1, sum {math.fsum(p)}")
    counts = read_table(f"{path}.counts.csv", "j,m,count", len(table))
    if [row[:2] for row in counts] != [row[:2] for row in table]:
        sys.exit(f"{path}.counts.csv: the counts must list the probability table's rows")
    if sum(row[2] for row in counts) != shots:
        sys.exit(f"{path}.counts.csv: counts sum to {sum(row[2] for row in counts)}, not {shots}")
    return f"{len(table)} probability rows summing to {math.fsum(p)}, {shots} shots"


def check_bench(path):
    lines = open(path).read().splitlines()
    try:
        final = json.loads(lines[-1])
    except (IndexError, ValueError):
        final = {}
    if not isinstance(final, dict) or final.get("correct") is not True or final.get("failed") != 0:
        sys.exit(f"{path}: benchmark result not clean: {lines[-1] if lines else ''}")
    counts = [m for m in map(re.compile(r"fail_frac \S+ \((\d+)/(\d+)\)").search, lines) if m]
    if not counts or any(m.group(1) != "0" for m in counts):
        sys.exit(f"{path}: a workload reported failed operations")
    return f"{len(counts)} workloads, all correct with no failures"


def check_file(kind, path, rows=None, shots=None):
    """A summary of FILE's KIND check; exits with a message if it fails."""
    if kind == "bench":
        return check_bench(path)
    table = read_table(path, HEADERS[kind], rows if rows is not None else ROWS[kind])
    if kind == "husimi" and not all(0.0 <= row[2] <= 1.0 for row in table):
        sys.exit(f"{path}: a q value lies outside [0, 1]")
    if kind == "run":
        return check_run(path, table, shots)
    if kind == "husimi":
        return f"{len(table)} q values in [0, 1], max {max(row[2] for row in table)}"
    return f"{len(table)} finite rows: " + "; ".join(",".join(map(str, r)) for r in table[:5])


def smoke_row(row, work):
    """Run ROW in the directory WORK, a Path; a summary, or exit with a message."""
    if row.circuit is not None:
        (work / f"{row.name}.json").write_text(row.circuit)
    argv = row.command.split()
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
    proc = subprocess.run(["dickesim", *argv], cwd=work, capture_output=True, text=True, env=env)
    sys.stderr.write(proc.stderr)
    if proc.returncode != row.code:
        sys.exit(f"{row.name}: exit {proc.returncode}, expected {row.code}")
    out = work / (argv[argv.index("--out") + 1] if "--out" in argv else f"{row.name}.out")
    if row.code:
        if len(proc.stderr.splitlines()) != 1 or not proc.stderr.startswith("error: "):
            sys.exit(f"{row.name}: expected one stderr line, starting 'error: '")
        if out.exists() or Path(f"{out}.counts.csv").exists():
            sys.exit(f"{row.name}: wrote {out} or its counts")
        return f"exit {row.code} with one error line and no file"
    if "--out" not in argv:
        out.write_text(proc.stdout)
    shots = int(argv[argv.index("--shots") + 1]) if "--shots" in argv else None
    return check_file(argv[0], out, row.rows, shots)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=sorted(HEADERS) + ["bench", "smoke"])
    parser.add_argument("--rows", type=int)
    parser.add_argument("--shots", type=int)
    parser.add_argument("files", nargs="*")
    args = parser.parse_intermixed_args()
    if (args.kind == "smoke") == bool(args.files):
        parser.error("smoke takes no FILE, and every other kind needs one")
    if args.kind == "smoke":
        with tempfile.TemporaryDirectory() as work:
            for row in SMOKE:
                print(f"{row.name}: {smoke_row(row, Path(work))}", flush=True)
    elif args.kind == "run" and args.shots is None:
        parser.error("run needs --shots")
    for path in args.files:  # none for smoke
        print(f"{path}: {check_file(args.kind, path, args.rows, args.shots)}")


if __name__ == "__main__":
    main()
