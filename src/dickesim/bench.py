"""The rotation-layer timing that ``dickesim bench`` reports and the
acceptance gate's scaling criterion fits: one definition for both."""

from __future__ import annotations

import time

import numpy as np

from .dicke import ground_state
from .errors import DomainError
from .gates import GateSpec, apply_gate

__all__ = ["rotation_layer", "layer_seconds"]


def rotation_layer(noise: float | None = None) -> tuple[GateSpec, ...]:
    """RX, RY, RZ(pi/3), each followed by the depolarizing channel when
    ``noise`` is set."""
    return tuple(GateSpec(kind, (np.pi / 3.0,), noise=noise) for kind in ("RX", "RY", "RZ"))


def layer_seconds(n: int, noise: float | None, layers: int, repeats: int) -> float:
    """Best wall time, over ``repeats`` runs from the N-particle ground state,
    of ``layers`` rotation layers."""
    if layers < 1:
        raise DomainError(f"layers must be >= 1, got {layers}")
    if repeats < 1:
        raise DomainError(f"repeats must be >= 1, got {repeats}")
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
