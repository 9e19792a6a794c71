"""Brute-force full product-space simulator (dimension 2^N).

Ground truth for the collective engine at small N: gates, noise, measurement
statistics and squeezing are all recomputed here directly on 2^N x 2^N
matrices, sharing only the gate-recipe table with the main engine (so both
agree on what each catalog gate means, while every numeric path is distinct).

Dicke-sector quantities are read off with simultaneous (J^2, J_z)
eigenprojectors; the degenerate irrep copies never need explicit labels
because every compared quantity is a trace against such a projector or a
collective operator.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericError, ResourceError
from .gates import Circuit, GateSpec, _recipe

__all__ = [
    "FULL_SPACE_CAP",
    "full_collective_ops",
    "jm_projectors",
    "ground_density",
    "full_apply_gate",
    "full_depolarize",
    "full_run",
    "extract_collective",
]

FULL_SPACE_CAP = 8

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SP = np.array([[0, 1], [0, 0]], dtype=complex)  # sigma_+ (|up><down|, up = index 0)
_SM = _SP.T.copy()


def _check_cap(n: int):
    if n > FULL_SPACE_CAP:
        raise ResourceError(
            f"full-space oracle is capped at N = {FULL_SPACE_CAP}, got N = {n}"
        )


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    mats = [np.eye(2, dtype=complex)] * n
    mats[site] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


@lru_cache(maxsize=16)
def _site_ops(n: int) -> dict[str, list[np.ndarray]]:
    """Per-particle spin operators embedded in the 2^N space."""
    _check_cap(n)
    return {
        "x": [_site_operator(_SX / 2, k, n) for k in range(n)],
        "y": [_site_operator(_SY / 2, k, n) for k in range(n)],
        "z": [_site_operator(_SZ / 2, k, n) for k in range(n)],
        "plus": [_site_operator(_SP, k, n) for k in range(n)],
        "minus": [_site_operator(_SM, k, n) for k in range(n)],
    }


@lru_cache(maxsize=16)
def full_collective_ops(n: int) -> dict[str, np.ndarray]:
    """J_alpha = sum_n (sigma_alpha / 2), plus the collective ladder pair."""
    site = _site_ops(n)
    return {axis: sum(site[axis]) for axis in ("x", "y", "z", "plus", "minus")}


def ground_density(n: int) -> np.ndarray:
    """|down...down><down...down| (index 0 of a site is spin up)."""
    _check_cap(n)
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[dim - 1, dim - 1] = 1.0
    return rho


@lru_cache(maxsize=16)
def jm_projectors(n: int) -> dict[tuple[float, float], np.ndarray]:
    """Simultaneous eigenprojectors of (J^2, J_z).

    J_z is diagonal in the product basis (m = N/2 - #down), so the space is
    split by exact m first; J^2 is then diagonalized inside each m sector and
    its eigenvalues clustered to j(j+1) within 1e-8.
    """
    _check_cap(n)
    ops = full_collective_ops(n)
    j2 = ops["x"] @ ops["x"] + ops["y"] @ ops["y"] + ops["z"] @ ops["z"]
    dim = 2**n
    m_of_index = np.array([n / 2.0 - bin(i).count("1") for i in range(dim)])
    projectors: dict[tuple[float, float], np.ndarray] = {}
    for m in np.unique(m_of_index):
        sector = np.flatnonzero(m_of_index == m)
        sub = j2[np.ix_(sector, sector)]
        evals, evecs = np.linalg.eigh(sub)
        jvals = (-1.0 + np.sqrt(1.0 + 4.0 * np.clip(evals, 0.0, None))) / 2.0
        twoj = np.rint(2.0 * jvals).astype(int)
        if np.max(np.abs(evals - (twoj / 2.0) * (twoj / 2.0 + 1.0))) > 1e-8:
            raise NumericError(f"J^2 eigenvalue clustering failed in sector m = {m}")
        for tj in np.unique(twoj):
            j = tj / 2.0
            cols = evecs[:, twoj == tj]
            proj = np.zeros((dim, dim), dtype=complex)
            proj[np.ix_(sector, sector)] = cols @ cols.conj().T
            projectors[(j, float(m))] = proj
    return projectors


def full_depolarize(rho: np.ndarray, epsilon: float, n: int) -> np.ndarray:
    """(1 - eps) rho + eps' sum_{n, a} J_a^(n) rho J_a^(n), eps' from trace 1."""
    if epsilon == 0.0:
        return rho
    site = _site_ops(n)
    mix = np.zeros_like(rho)
    for axis in ("x", "y", "z"):
        for op in site[axis]:
            mix += op @ rho @ op
    total = np.trace(mix).real
    if not total > 0.0:
        raise NumericError("depolarizing normalization vanished")
    return (1.0 - epsilon) * rho + (epsilon / total) * mix


def full_apply_gate(rho: np.ndarray, spec: GateSpec, n: int) -> np.ndarray:
    from scipy.linalg import expm  # here, so that importing the CLI loads no SciPy

    build, angle, hermitian = _recipe(spec, n)[:3]
    gen = build(full_collective_ops(n))
    k = expm(-1j * angle * gen)
    rho = k @ rho @ k.conj().T
    if not hermitian:
        total = np.trace(rho).real
        if not np.isfinite(total) or total <= 0.0:
            raise NumericError(f"{spec.kind} produced an unnormalizable state")
        rho = rho / total
    if spec.noise is not None and spec.noise > 0.0:
        rho = full_depolarize(rho, spec.noise, n)
    return rho


def full_run(circuit: Circuit) -> np.ndarray:
    """Replay a circuit from the all-down state in the full product space."""
    n = circuit.n_particles
    _check_cap(n)
    rho = ground_density(n)
    for spec in circuit.instructions:
        rho = full_apply_gate(rho, spec, n)
    return rho


def _full_xi2(rho: np.ndarray, n: int) -> tuple[float | None, float | None]:
    """Squeezing parameters from full-space expectations; None when the mean
    spin vector vanishes.  Deliberately independent of the squeezing module."""
    ops = full_collective_ops(n)
    jvec = np.array([np.trace(rho @ ops[a]).real for a in ("x", "y", "z")])
    norm = float(np.linalg.norm(jvec))
    if norm <= 1e-12:
        return None, None
    theta = np.arccos(np.clip(jvec[2] / norm, -1.0, 1.0))
    if abs(np.sin(theta)) < 1e-12:
        phi = 0.0
    else:
        c = np.clip(jvec[0] / (norm * np.sin(theta)), -1.0, 1.0)
        phi = np.arccos(c) if jvec[1] > 0 else 2.0 * np.pi - np.arccos(c)
    n2 = np.array([-np.sin(phi), np.cos(phi), 0.0])
    n3 = np.array([np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)])
    jn2 = n2[0] * ops["x"] + n2[1] * ops["y"] + n2[2] * ops["z"]
    jn3 = n3[0] * ops["x"] + n3[1] * ops["y"] + n3[2] * ops["z"]
    e2 = np.trace(rho @ jn2).real
    e3 = np.trace(rho @ jn3).real
    s22 = np.trace(rho @ jn2 @ jn2).real
    s33 = np.trace(rho @ jn3 @ jn3).real
    cross = 0.5 * np.trace(rho @ (jn2 @ jn3 + jn3 @ jn2)).real
    cov = cross - e2 * e3
    root = np.sqrt((s22 - s33) ** 2 + 4.0 * cov**2)
    xi_s = (2.0 / n) * (s22 + s33 - root)
    xi_r = (n / (2.0 * norm)) ** 2 * xi_s
    return float(xi_s), float(xi_r)


def extract_collective(rho: np.ndarray, n: int) -> dict:
    """Dicke-sector view of a full-space state: P(j,m), first and second
    moments of the collective operators, and the squeezing parameters."""
    ops = full_collective_ops(n)
    probs = {
        jm: float(np.trace(rho @ proj).real) for jm, proj in jm_projectors(n).items()
    }
    expvals: dict[str, complex] = {}
    for name, op in (("Jx", ops["x"]), ("Jy", ops["y"]), ("Jz", ops["z"])):
        expvals[name] = complex(np.trace(rho @ op))
        expvals[name + "2"] = complex(np.trace(rho @ op @ op))
    xi_s, xi_r = _full_xi2(rho, n)
    return {"probs": probs, "expvals": expvals, "xi2_S": xi_s, "xi2_R": xi_r}
