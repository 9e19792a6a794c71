"""Outside-in layer tracing of one dickesim CLI call.

``install()`` wraps the public functions of each layer at every dickesim module
that binds them by name (``cli`` binds ``apply_gate``, ``expval``, ``fit``, ...;
``gates`` binds the ``op_j*`` builders), so calls are seen whichever module
makes them.  Each call becomes one span ``[layer, start, end, parent, counts]``
kept in memory; the child process writes the list when the call returns.
``layer_metrics()`` turns the spans into per-layer calls, self time (a span
minus its child spans) and counts.  Nothing inside the program is changed.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# layer -> (module that defines the functions, function names)
LAYERS = {
    "cli.main": ("dickesim.cli", ("main",)),
    "cli.csv": ("dickesim.cli", ("_rows_csv", "_emit", "prob_table_csv", "shot_counts_csv", "husimi_csv")),
    "dicke.ops": ("dickesim.dicke", (
        "build_ledger", "op_jx", "op_jy", "op_jz", "op_jplus", "op_jminus",
        "ground_state", "excited_state", "ghz_state", "css_state",
    )),
    "gates.apply_gate": ("dickesim.gates", ("apply_gate",)),
    "gates.generator": ("dickesim.gates", ("generator",)),
    "gates.exponentiate": ("dickesim.gates", ("exponentiate",)),
    "noise.depolarize": ("dickesim.noise", ("depolarize",)),
    "measurement.expval": ("dickesim.measurement", ("expval",)),
    "measurement.readout": ("dickesim.measurement", ("probabilities", "sample")),
    "measurement.husimi_grid": ("dickesim.measurement", ("husimi_grid",)),
    "squeezing.xi": ("dickesim.squeezing", ("get_xi_2_S", "get_xi_2_R")),
    "squeezing.mean_spin_frame": ("dickesim.squeezing", ("mean_spin_frame",)),
    "vqa.fit": ("dickesim.vqa", ("fit",)),
    "vqa.cost": ("dickesim.vqa", ("cost",)),
    "vqa.metric": ("dickesim.vqa", ("fubini_study_metric",)),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _apply_gate_counts(args, kwargs, result):
    # The key of the exponential the gate needs: the angle is left out because
    # generators do not depend on it, so a repeated key is a possible cache hit.
    state, spec = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "spec")
    key = (state.n_particles, spec.kind, spec.axes, spec.params[1:], state.active_js)
    return {"active": len(state.active_js), "key": repr(key)}


def _exponentiate_counts(args, kwargs, result):
    operator = _arg(args, kwargs, 0, "operator")
    return {"blocks": len(result), "expm_calls": 0 if operator.hermitian else len(result)}


COUNTERS = {
    "apply_gate": _apply_gate_counts,
    "generator": lambda a, k, r: {"blocks": len(_arg(a, k, 1, "ledger").blocks)},
    "exponentiate": _exponentiate_counts,
    "depolarize": lambda a, k, r: {"blocks_in": len(a[0].active_js), "blocks_out": len(r.active_js)},
    "husimi_grid": lambda a, k, r: {"points": int(r.size)},
    "_emit": lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text").encode())},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced


def install() -> Tracer:
    """Wrap every layer function at each dickesim module that binds it."""
    import dickesim.cli  # noqa: F401  (loads every module the CLI uses)

    tracer = Tracer()
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, (module, names) in LAYERS.items():
        for name in names:
            fn = getattr(sys.modules[module], name)
            wrapped[id(fn)] = (fn, tracer.wrap(layer, fn, COUNTERS.get(name)))
    for name, module in list(sys.modules.items()):
        if name != "dickesim" and not name.startswith("dickesim."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    # expval looks the op_j* builders up in this table, not by module name;
    # the squared observables it builds there stay in expval's self time.
    observables = sys.modules["dickesim.measurement"].OBSERVABLES
    for key, builder in observables.items():
        hit = wrapped.get(id(builder))
        if hit is not None and hit[0] is builder:
            observables[key] = hit[1]
    return tracer


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer ``calls``, ``self_s`` and summed counts, plus derived ratios."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    seen: set[str] = set()
    repeats = 0
    for i, (layer, start, end, _, counts) in enumerate(spans):
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += (end - start) - child_time[i]
        for key, value in (counts or {}).items():
            if key == "key":
                repeats += value in seen
                seen.add(value)
            else:
                out[f"{layer}.{key}"] += value
    out["gates.conjugate.self_s"] = out.pop("gates.apply_gate.self_s", 0.0)
    gates = out["gates.apply_gate.calls"]
    out["gates.exponentiate.repeat_ratio"] = repeats / gates if gates else 0.0
    built = out["gates.generator.blocks"]
    out["gates.generator.active_ratio"] = out.pop("gates.apply_gate.active", 0.0) / built if built else 0.0
    return out
