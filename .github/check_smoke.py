"""Check the CSV output of the tier-1 workflow's smoke runs.

    python3 .github/check_smoke.py KIND [--rows N] [--shots N] FILE...

Each FILE must start with KIND's header and hold --rows rows (KIND's
default if not given), each with one finite value per header field.  Per
kind:

* squeeze, qpt, vqa: nothing more;
* husimi: every q lies in [0, 1];
* run: every p is nonnegative and they sum to 1 within 1e-9; FILE.counts.csv
  lists the same (j, m) rows with counts that sum to --shots.

Exits nonzero with a message on the first file that fails.
"""

import argparse
import math
import sys

HEADERS = {
    "squeeze": "theta,xi2_S_dB,xi2_R_dB",
    "qpt": "r,jz_scaled,jx2_scaled,jy2_scaled",
    "vqa": "iteration,cost,wall_seconds,theta_0,theta_1,theta_2",
    "husimi": "theta,phi,q",
    "run": "j,m,p",
}
ROWS = {"squeeze": 3, "qpt": 40, "vqa": 5, "husimi": 900, "run": None}


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


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=sorted(HEADERS))
    parser.add_argument("--rows", type=int)
    parser.add_argument("--shots", type=int)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()
    if args.kind == "run" and args.shots is None:
        parser.error("run needs --shots")
    rows = args.rows if args.rows is not None else ROWS[args.kind]
    for path in args.files:
        table = read_table(path, HEADERS[args.kind], rows)
        if args.kind == "husimi" and not all(0.0 <= row[2] <= 1.0 for row in table):
            sys.exit(f"{path}: a q value lies outside [0, 1]")
        if args.kind == "run":
            summary = check_run(path, table, args.shots)
        elif args.kind == "husimi":
            summary = f"{len(table)} q values in [0, 1], max {max(row[2] for row in table)}"
        else:
            summary = f"{len(table)} finite rows: " + "; ".join(",".join(map(str, r)) for r in table[:5])
        print(f"{path}: {summary}")


if __name__ == "__main__":
    main()
