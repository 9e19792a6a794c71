"""The rotation-layer timing that ``dickesim bench`` reports and the
acceptance gate's scaling criterion fits: one definition for both."""

from __future__ import annotations

import time

import numpy as np

from .dicke import _integer, ground_state
from .gates import GateSpec, apply_gate

__all__ = ["rotation_layer", "layer_seconds"]


def rotation_layer(noise: float | None = None) -> tuple[GateSpec, ...]:
    """RX, RY, RZ(pi/3), each followed by the depolarizing channel when
    ``noise`` is set."""
    return tuple(GateSpec(kind, (np.pi / 3.0,), noise=noise) for kind in ("RX", "RY", "RZ"))


def layer_seconds(n: int, noise: float | None, layers: int, repeats: int) -> float:
    """Best wall time, over ``repeats`` runs from the N-particle ground state,
    of ``layers`` rotation layers."""
    layers, repeats = _integer(layers, "layers", 1), _integer(repeats, "repeats", 1)
    specs = rotation_layer(noise)
    best = float("inf")
    for _ in range(repeats):
        state = ground_state(n)
        start = time.perf_counter()
        for _ in range(layers):
            for spec in specs:
                state = apply_gate(state, spec)
        best = min(best, time.perf_counter() - start)
    return best
