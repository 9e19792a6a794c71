"""dickesim benchmark: four CLI workloads, end-to-end metrics, layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload, one table

Run from the root of a checkout; the program is imported from its ``src/``.
Each measured call is ``dickesim.cli.main(argv)`` in a fresh child process
(``child.py``), one thread, BLAS pinned to one thread, files in a temporary
directory inside the checkout.  Children are started one after another until
``--seconds`` is used up (at least MIN_CALLS of them); the metrics are medians
over the children.  Outputs are checked outside the timed region, and a
small-N copy of the input is replayed on the 2^N oracle once per run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones: traced and untraced children alternate, and the layer
figures are medians over the traced children.  The last line of stdout is the
JSON result; the lines before it are a readable summary and the run record.
"""

import os

# Pinned before numpy loads here, and inherited by every child: two BLAS
# threads were measured to double CPU time on the qpt sweep for no wall-time
# gain.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_CALLS = 3           # timed CLI calls per run, whatever --seconds says
MIN_SETUP_SAMPLES = 5   # setup-only children make up the difference
RUN_DEADLINE_S = 160.0  # a run must exit within 180 s, checks included
# On a shared VM identical work runs up to ±20% slower or faster, in phases of
# minutes.  Each child times a dickesim-free probe kernel right after its call,
# and wall_s and setup_s are scaled to a machine on which it takes PROBE_REF_S.
PROBE_REF_S = 0.6


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": BLAS_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


def run_child(workload: str, seed: int, mode: str, outdir: Path, timeout: float) -> dict:
    """Start child.py, wait for it, return its result (``error`` set on failure)."""
    outdir.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    with open(outdir / "stderr.txt", "wb") as err:
        spawn_t = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), repr(spawn_t), workload, str(seed), mode, str(outdir)],
            stdout=subprocess.DEVNULL, stderr=err, cwd=outdir, env=env,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:  # timed out, or this process is being stopped
                proc.kill()
                proc.wait()
        if code is None:
            return {"error": f"timed out after {timeout:.0f} s"}
    try:
        result = json.loads((outdir / "result.json").read_text())
    except (OSError, ValueError):
        tail = (outdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        return {"error": f"child exited {code} without a result: {' | '.join(tail)}"}
    if mode != "setup" and result.get("rc") != 0 and "error" not in result:
        result["error"] = f"dickesim exited {result.get('rc')}"
    return result


def measure(workload, seed: int, seconds: float, trace: bool, tmp: Path, started: float) -> dict:
    """Run children for one workload; return samples, failures and the oracle result."""
    calls, setups, failures = [], [], []
    durations = []
    k = 0
    loop_start = time.perf_counter()
    while True:
        mode = "traced" if trace and k % 2 == 0 else "plain"
        t = time.perf_counter()
        outdir = tmp / f"call{k}"
        result = run_child(workload.name, seed, mode, outdir, RUN_DEADLINE_S - (t - started))
        durations.append(time.perf_counter() - t)
        k += 1
        if "error" not in result:
            _, problems = workload.check(outdir)
            if problems:
                result["error"] = "; ".join(problems)
        if "error" in result:
            failures.append(f"call {k} ({mode}): {result['error']}")
            break
        result["mode"] = mode
        calls.append(result)
        setups.append((result["setup_s"], result["probe_s"]))
        shutil.rmtree(outdir)
        next_end = time.perf_counter() + statistics.median(durations)
        if next_end - started > RUN_DEADLINE_S - 10.0:
            break
        if k >= MIN_CALLS and next_end - loop_start > seconds:
            break
    attempted = k
    if not trace and not failures:
        while len(setups) < MIN_SETUP_SAMPLES and time.perf_counter() - started < RUN_DEADLINE_S - 20.0:
            outdir = tmp / f"setup{len(setups)}"
            result = run_child(workload.name, seed, "setup", outdir, 30.0)
            attempted += 1
            if "error" in result:
                failures.append(f"setup-only child: {result['error']}")
                break
            setups.append((result["setup_s"], result["probe_s"]))
            shutil.rmtree(outdir)
    oracle_dir = tmp / "oracle"
    oracle_dir.mkdir()
    attempted += 1
    problems = oracle_check(workload, seed, oracle_dir)
    if problems:
        failures.append("oracle: " + "; ".join(problems))
    return {"calls": calls, "setups": setups, "failures": failures, "attempted": attempted}


def oracle_check(workload, seed: int, outdir: Path) -> list[str]:
    try:
        import dickesim.cli

        return workload.oracle(seed, outdir, dickesim.cli.main)
    except Exception as exc:  # a crash in the program under test is a failed check
        return [f"{type(exc).__name__}: {exc}"]


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _scaled(seconds: float, probe: float) -> float:
    return seconds * PROBE_REF_S / probe


def end_to_end(samples: dict) -> dict[str, float]:
    calls = samples["calls"]
    return {
        "wall_s": _median([_scaled(c["wall_s"], c["probe_s"]) for c in calls]),
        "setup_s": _median([_scaled(s, p) for s, p in samples["setups"]]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in calls]),
    }


def per_layer(samples: dict) -> dict[str, float]:
    import tracing

    traced = [c for c in samples["calls"] if c["mode"] == "traced"]
    plain = [c for c in samples["calls"] if c["mode"] == "plain"]
    per_call = []
    for c in traced:
        metrics = tracing.layer_metrics(c["spans"])
        metrics["process.cpu_s"] = c["cpu_s"]
        metrics["process.blas_threads"] = c["blas_threads"]
        metrics["trace.coverage"] = sum(v for k, v in metrics.items() if k.endswith(".self_s")
                                        and not k.startswith("process.")) / c["wall_s"]
        per_call.append(metrics)
    names = set().union(*per_call)
    out = {name: _median([m.get(name, 0.0) for m in per_call]) for name in names}
    traced_wall = _median([c["wall_s"] for c in traced])
    out["trace.overhead_frac"] = 0.0
    if plain:
        traced_s, plain_s = ([_scaled(c["wall_s"], c["probe_s"]) for c in g] for g in (traced, plain))
        out["trace.overhead_frac"] = _median(traced_s) / _median(plain_s) - 1.0
    out["wall_s"] = traced_wall
    return out


def run_workload(workload, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, list[str]]:
    """Measure one workload; return its result object and readable summary lines."""
    started = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        samples = measure(workload, seed, seconds, trace, tmp, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = len(samples["failures"])
    attempted = samples["attempted"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    lines = [f"{workload.name}  seed {seed}  trace {int(trace)}: {len(samples['calls'])} timed "
             f"calls, {len(samples['setups'])} set-ups, fail_frac {failed / attempted:g} "
             f"({failed}/{attempted})"]
    lines += [f"  FAILED {f}" for f in samples["failures"]]
    if failed == 0:
        values = per_layer(samples) if trace else end_to_end(samples)
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        for metric in wanted:
            value = values.get(metric["name"], 0.0) if trace else values[metric["name"]]
            result["metrics"][metric["name"]] = {"value": value, "unit": metric["unit"]}
            lines.append(f"  {metric['name']:<36} {value:>14.6g} {metric['unit']}")
        if trace:
            lines.append(f"  layer self times sum to {values['trace.coverage']:.6f} of the traced wall "
                         f"{values['wall_s']:.4f} s")
    record = {
        "record": workload.name, "seed": seed, "seed_varies": workload.seed_varies,
        "trace": int(trace), "seconds": seconds,
        "argv": samples["calls"][0]["argv"] if samples["calls"] else None,
        "samples": {
            "timed_calls": len(samples["calls"]),
            "setup": len(samples["setups"]),
            "wall_s": [c["wall_s"] for c in samples["calls"]],
            "probe_s": [c["probe_s"] for c in samples["calls"]],
            "setup_s": [s for s, _ in samples["setups"]],
            "setup_probe_s": [p for _, p in samples["setups"]],
            "peak_rss_mb": [c["peak_rss_mb"] for c in samples["calls"]],
        },
        "env": dict(environment(), blas_threads_measured=[c["blas_threads"] for c in samples["calls"]]),
    }
    lines.append(json.dumps(record))
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that run_child kills its child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "dickesim" / "cli.py").is_file():
        print(f"error: no dickesim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    found = importlib.util.find_spec("dickesim")  # locates without importing
    if found is None or not Path(found.origin).resolve().is_relative_to(SRC):
        print(f"error: dickesim would not be imported from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    results = {}
    for name in names:
        result, lines = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
