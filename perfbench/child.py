"""One timed ``dickesim.cli.main(argv)`` call in a fresh process.

    python3 child.py SPAWN_T WORKLOAD SEED MODE OUTDIR

SPAWN_T is the parent's ``time.perf_counter()`` just before it started this
process (the monotonic clock is shared by processes on one machine), so
``setup_s`` covers interpreter start, ``import dickesim`` and input generation.
MODE is ``setup`` (stop before the call), ``plain`` or ``traced``.  The result
is written to OUTDIR/result.json; the CLI's own files go to OUTDIR too.

Last of all the child times ``probe_s()``, a fixed kernel that calls no
dickesim code, so the parent can take the machine's speed out of the times.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _blas_threads() -> int:
    """Largest thread count any loaded OpenBLAS reports (0 if none is found)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return 0
    best = 0
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                best = max(best, fn())
    return best


def _peak_rss_mb() -> float:
    """High-water resident memory of this process image, in MiB.

    ``ru_maxrss`` would do off Linux, but there it carries the parent's
    resident size over fork and exec, so VmHWM is read where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_s() -> float:
    """Seconds for 160 eigh-and-product rounds on a 101x101 complex matrix plus
    a Python loop (about 0.6 s): the machine's speed just after the call."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((101, 101)) + 1j * rng.standard_normal((101, 101))
    a = a + a.conj().T
    t0 = time.perf_counter()
    for _ in range(160):
        w, v = np.linalg.eigh(a)
        b = (v * np.exp(-1j * w)) @ v.conj().T
        b @ a @ b.conj().T
    x = 0
    for k in range(600_000):
        x += k * k
    return time.perf_counter() - t0


def main() -> int:
    spawn_t, workload, seed, mode, outdir = sys.argv[1:6]
    out = Path(outdir)
    src = Path(__file__).resolve().parent.parent / "src"

    import dickesim.cli

    if not Path(dickesim.cli.__file__).resolve().is_relative_to(src):
        print(f"dickesim imported from {dickesim.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    argv = WORKLOADS[workload].argv(int(seed), out)
    result = {"argv": [a.replace(str(out), "$OUTDIR") for a in argv]}
    result["setup_s"] = time.perf_counter() - float(spawn_t)
    if mode != "setup":
        if mode == "traced":
            import tracing

            tracer = tracing.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result["rc"] = dickesim.cli.main(argv)
        except (Exception, SystemExit) as exc:  # reported as a failed operation
            result["error"] = repr(exc)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = _peak_rss_mb()
        result["blas_threads"] = _blas_threads()
        if mode == "traced":
            result["spans"] = tracer.spans
    result["probe_s"] = probe_s()
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
