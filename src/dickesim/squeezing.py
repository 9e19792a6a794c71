"""Mean-spin frame and spin-squeezing parameters.

The frame follows the mean spin vector <J>: n1 points along it, n2 lies in
the xy plane, n3 completes the right-handed triad.  The Kitagawa-Ueda
parameter xi^2_S is the smaller principal transverse fluctuation,

    xi^2_S = (2/N) [ <J_n2^2 + J_n3^2> - sqrt(<J_n2^2 - J_n3^2>^2 + 4 cov^2) ]

with cov = <{J_n2, J_n3}>/2 - <J_n2><J_n3>; the larger (+) branch is the
anti-squeezing.  The Wineland parameter rescales by the mean spin length:
xi^2_R = (N / 2|<J>|)^2 xi^2_S, hence xi^2_R >= xi^2_S always.

States with |<J>| ~ 0 (e.g. GHZ) have no mean-spin frame; both parameters are
undefined there and a DegenerateFrameError is raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dicke import CollectiveState
from .errors import DegenerateFrameError
from .measurement import moments

__all__ = ["MeanSpinFrame", "mean_spin_frame", "get_xi_2_S", "get_xi_2_R"]

_FRAME_TOL = 1e-12


@dataclass(frozen=True)
class MeanSpinFrame:
    theta: float
    phi: float
    j_norm: float
    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray


def mean_spin_frame(state: CollectiveState) -> MeanSpinFrame:
    """Spherical angles of <J> and the orthonormal triad (n1, n2, n3).

    phi uses the two-branch arccos rule on <Jx>/(|J| sin theta) with the sign
    of <Jy> selecting the branch; at the poles (sin theta = 0) phi is set to 0
    by convention, which no observable downstream can distinguish.
    """
    return _frame(moments(state)[0].real)


def _frame(jvec: np.ndarray) -> MeanSpinFrame:
    norm = float(np.linalg.norm(jvec))
    if norm <= _FRAME_TOL:
        raise DegenerateFrameError(
            "mean spin vector vanishes; squeezing parameters are undefined"
        )
    theta = float(np.arccos(np.clip(jvec[2] / norm, -1.0, 1.0)))
    sin_theta = np.sin(theta)
    if abs(sin_theta) < _FRAME_TOL:
        phi = 0.0
    else:
        c = np.clip(jvec[0] / (norm * sin_theta), -1.0, 1.0)
        phi = float(np.arccos(c)) if jvec[1] > 0 else float(2.0 * np.pi - np.arccos(c))
        phi = phi % (2.0 * np.pi)
    n1 = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    n2 = np.array([-np.sin(phi), np.cos(phi), 0.0])
    n3 = np.array([np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)])
    return MeanSpinFrame(theta=theta, phi=phi, j_norm=norm, n1=n1, n2=n2, n3=n3)


def get_xi_2_S(state: CollectiveState, anti: bool = False) -> float:
    """Kitagawa-Ueda squeezing parameter (minimal transverse variance).

    ``anti=True`` returns the + branch (the anti-squeezed direction).
    """
    first, second = moments(state)
    frame = _frame(first.real)
    # <{J_u, J_v}>/2 = u . S . v with S the symmetrized second moment
    sym = 0.5 * (second + second.T).real
    n2, n3 = frame.n2, frame.n3
    e2 = n2 @ first.real
    e3 = n3 @ first.real
    s22 = n2 @ sym @ n2
    s33 = n3 @ sym @ n3
    cov = n2 @ sym @ n3 - e2 * e3
    root = np.sqrt((s22 - s33) ** 2 + 4.0 * cov**2)
    branch = root if anti else -root
    return float((2.0 / state.n_particles) * (s22 + s33 + branch))


def get_xi_2_R(state: CollectiveState) -> float:
    """Wineland squeezing parameter (N / 2|<J>|)^2 * xi^2_S."""
    frame = mean_spin_frame(state)
    xi_s = get_xi_2_S(state)
    return float((state.n_particles / (2.0 * frame.j_norm)) ** 2 * xi_s)
