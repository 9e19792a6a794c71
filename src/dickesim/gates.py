"""Collective gate catalog: generator construction, per-block exponentials,
and application to block-diagonal states.

Every gate is K = exp(-i * angle * G) for a generator G built from the
collective operators:

    RX/RY/RZ(t)      G = J_x / J_y / J_z
    RN(t, phi)       G = -(J_x sin phi - J_y cos phi)   (rotation about the
                     in-plane axis n = (-sin phi, cos phi, 0), so
                     RN(t - pi, -phi) turns the ground state into
                     css_state(N, t, phi), up to a global phase)
    R_PLUS/R_MINUS(t)  G = J_+ / J_-  (non-Hermitian; see apply_gate)
    RX2/RY2/RZ2(t)   G = J_x^2 / J_y^2 / J_z^2
    OAT(t, a)        G = J_a^2,                a in {x, y, z}
    TAT(t, ab)       G = J_a^2 - J_b^2,        a, b in {x, y, z, plus, minus}
    TNT(t, L, ab)    G = J_a^2 - (N/L) J_b
    GMS(t, phi)      G = (J_x cos phi + J_y sin phi)^2

``generator`` returns the recipe of G.  Run on a block's spin bands
(``dicke.spin_bands``), it builds G_j as its diagonals at O(2j) cost; every
catalog G has band offsets in -2..2, fixed by the kind and axes.  Only the
blocks a state occupies are touched, each by one per-block update
x -> K_j x along axis 0 (``_update``): a ket takes it once, rho twice, as
(K (K rho)^dag)^dag, and ``exponentiate``'s K_j is its image of the
identity.  ``_recipe`` states each G's kernel facts, and only they are
read after it: whether G is Hermitian, and its azimuth alpha when
G = D R D^dag with D = exp(-i alpha J_z) and R real; the band offsets are
read off G itself.  The update fetches the block's kernel once, in the form
these facts pick, never by the gate kind; a Hermitian G_j's eigenpairs take
one of three eigen-forms (``_eigenpairs``): the parity split, the flip
split, or the dense complex eigh:

* {0} (RZ, RZ2, OAT/TAT/TNT with all-z axes): the phase vector p of
  K_j = diag(p), applied as the product p x;
* {+1} (R_PLUS): the exact finite series of the nilpotent J_+, every term
  of every superdiagonal from one running product; {-1} (R_MINUS): the same
  series of its transpose, transposed back;
* Hermitian G with offsets {-2, 0, 2}, the parity split: a real R_j that
  never couples storage indices of different parity, so its even and odd
  indices are two real tridiagonal halves with a real eigh each.  With no
  azimuth (TAT over two of x, y, z, TNT(x|y, z)), R_j = G_j.  With one, G
  is a quadratic rotation, G = D J_x^2 D^dag with D = diag(p),
  p = e^{-i alpha m}: GMS(t, phi), RX2, RY2 and OAT with axis x or y, at
  alpha = phi, 0, pi/2, 0, pi/2.  So R_j = J_x^2, whose spectrum is exactly
  the m^2, serves them all, at every angle and azimuth, as Feng et al.
  compute Wigner's d matrix (PRE 92, 043307 (2015));
* Hermitian G with an azimuth and offsets {-1, 0, 1}, the flip split
  (TNT(z, x) at alpha = 0 and TNT(z, y) at pi/2): R_j = J_z^2 - w J_x is
  real, tridiagonal and invariant under the storage reversal m -> -m.  The
  butterfly T, which takes rows a and d-1-a to (x_a +- x_{d-1-a})/sqrt2 and
  keeps the middle row of odd d, folds R_j into two real tridiagonal halves
  (Feng et al. use the same symmetry), stored as the parity halves are;
* other Hermitian G (RX, RY, RN, TNT(x|y, x|y)): eigenpairs of the dense
  complex G_j;
* other non-Hermitian G (TAT/TNT with a plus or minus axis): scipy's Pade
  expm, imported on first use, so no other path loads SciPy.

Both splits give K_j = D T (+)_p V_p e^{-i t w_p} V_p^T T D^dag, T the
identity for the parity split and the butterfly, T = T^T = T^-1, for the
flip split.  ``_split_apply`` takes x to K_j x in place, with two real
half-size products per half on the float view of the complex x, forming
neither K_j nor a second copy of x: it pairs each half (w_p, V_p) with its
rows, the even and odd rows for the parity halves, and for the flip halves,
after T in place (``_butterfly``), the top (d + 1) // 2 rows and the
bottom d // 2 rows read upward.  Every other G's K_j is formed by
``_propagator`` and applied as the product K_j x.

A non-Hermitian G gives a non-unitary K: the conjugated state is renormalized
to unit trace (a ket to unit norm) and flagged ``conditional`` (the map is
not trace preserving).  A state held as a ket (see ``dicke``) forms no K_j,
and no (2j+1)^2 array, in two cases:

* an extreme ket, whose one nonzero entry psi_e sits at m = j or m = -j,
  under a Hermitian G with offsets exactly {-1, 1}, a rotation
  n_x J_x + n_y J_y (RX, RY, RN): the ket is every spin up (down), so the
  rotation turns each spin-1/2 by U = cos(t/2) - i sin(t/2) n.sigma, with
  n_x + i n_y = 2 G[1, 0] of the spin-1/2 block, and
  psi' = psi_e (a|up> + b|down>)^(x)2j with (a, b) = U|up> (U|down>), the
  spin coherent state of ``dicke._spinor_power`` (Arecchi et al., PRA 6,
  2211 (1972)), at O(2j) cost.  The rule reads the generator and psi only,
  and its result carries no coherent-state tag: a later rotation of it
  forms K_j as any other ket does, so only the first rotation of a fresh
  state takes the rule.  A tag would carry the O(2j) form through whole
  RX/RY/RZ layers and change the cost scaling that acceptance criterion 9
  times, which is left to its own decision (ROADMAP, D2);
* a parity- or flip-split G, by ``_split_apply``.

``_eigenpairs`` keeps the eigenpairs of all three forms in one byte-bounded
LRU cache shared by every call, reached by one ``fetch(key, decompose)``.
Every entry has one layout, a tuple of (w_p, V_p) halves, each half its
own eigenpairs: one complex half for the dense eigh, two real halves, of
sizes (d + 1) // 2 and d // 2, for a split R_j.  An entry is keyed by 2j
and by the key ``_recipe`` states, which names the matrix decomposed:
J_x^2's halves, which every parity-split G with an azimuth uses, by 2j
alone; the flip halves of J_z^2 - w J_x, which TNT(z, x) and TNT(z, y)
share, by w = N/Lambda; any other G_j by its kind, its axes and what it
depends on besides the angle: RN's azimuth, which is no gauge but changes
G itself, and TNT's w.  ``fetch`` runs ``decompose`` on a miss, outside
the cache's lock, and keeps its result on the key's second request only,
so gates whose azimuth is drawn afresh each time never fill it.  A hit
skips the generator build and the eigh, and gives K_j, or a split update,
bit for bit as a miss does.
"""

from __future__ import annotations

import json
import math
import re
import threading
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dicke import (
    Banded,
    BlockLedger,
    CollectiveState,
    _particle_count,
    _spinor_power,
    _twoj,
    spin_bands,
)
from .errors import CircuitParseError, DomainError, NumericError

__all__ = [
    "BlockGenerator",
    "GateSpec",
    "Circuit",
    "GATE_KINDS",
    "generator",
    "exponentiate",
    "apply_gate",
    "apply_circuit",
    "circuit_from_json",
    "circuit_to_json",
]

# kind -> (number of params, axes arity: 0, 1 or 2)
GATE_KINDS: dict[str, tuple[int, int]] = {
    "RX": (1, 0),
    "RY": (1, 0),
    "RZ": (1, 0),
    "RN": (2, 0),
    "R_PLUS": (1, 0),
    "R_MINUS": (1, 0),
    "RX2": (1, 0),
    "RY2": (1, 0),
    "RZ2": (1, 0),
    "OAT": (1, 1),
    "TAT": (1, 2),
    "TNT": (2, 2),
    "GMS": (2, 0),
}

_SINGLE_AXES = ("x", "y", "z")
_ALL_AXES = ("x", "y", "z", "plus", "minus")


def _parse_axes(text: str) -> tuple[str, ...]:
    """Tokenize an axis tag: 'zx', 'z,plus', 'z+', 'plusminus' all work."""
    tokens: list[str] = []
    for part in text.lower().split(","):
        found = re.findall(r"plus|minus|[xyz+-]", part.strip())
        if "".join(found) != part.strip():
            raise DomainError(f"unknown axis tag {text!r}")
        tokens += [{"+": "plus", "-": "minus"}.get(t, t) for t in found]
    return tuple(tokens)


def _as_float(value) -> float:
    """float(value), with an integer too large for a float read as the
    infinity it rounds toward, so the finiteness rules below reject it."""
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


@dataclass(frozen=True)
class GateSpec:
    """One catalog gate: kind, parameters, optional axes and noise strength."""

    kind: str
    params: tuple[float, ...]
    axes: tuple[str, ...] | None = None
    noise: float | None = None

    def __post_init__(self):
        kind = self.kind.upper()
        if kind not in GATE_KINDS:
            raise DomainError(f"unknown gate kind {self.kind!r}")
        n_params, axes_arity = GATE_KINDS[kind]
        params = tuple(_as_float(p) for p in self.params)
        if len(params) != n_params:
            raise DomainError(f"{kind} takes {n_params} parameter(s), got {len(params)}")
        for i, p in enumerate(params):  # an infinite TNT coupling is N/Lambda = 0
            if np.isnan(p) or (np.isinf(p) and (kind, i) != ("TNT", 1)):
                raise DomainError(f"{kind} parameter {i + 1} must be finite, got {p}")
        axes = self.axes
        if isinstance(axes, str):
            axes = _parse_axes(axes)
        elif isinstance(axes, (tuple, list)) and all(isinstance(a, str) for a in axes):
            axes = tuple(str(a) for a in axes)
        elif axes is not None:
            raise DomainError(f"{kind} axes must be a tag or a sequence of axis names")
        if axes_arity == 0:
            if axes:
                raise DomainError(f"{kind} takes no axes")
            axes = None
        else:
            if axes is None or len(axes) != axes_arity:
                raise DomainError(f"{kind} needs {axes_arity} axis tag(s)")
            allowed = _SINGLE_AXES if kind == "OAT" else _ALL_AXES
            for a in axes:
                if a not in allowed:
                    raise DomainError(f"{kind} axis must be one of {allowed}, got {a!r}")
        if kind == "TNT" and params[1] == 0.0:
            raise DomainError("TNT coupling must be nonzero")
        noise = self.noise
        if noise is not None:
            noise = _as_float(noise)
            if not 0.0 <= noise <= 1.0:
                raise DomainError(f"{kind} noise must lie in [0, 1], got {noise}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "noise", noise)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list acting on an N-particle register."""

    n_particles: int
    instructions: tuple[GateSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "n_particles", _particle_count(self.n_particles))
        object.__setattr__(self, "instructions", tuple(self.instructions))


def _sq(op):
    return op @ op


# the azimuth alpha of J_a = D J_x D^dag, D = exp(-i alpha J_z)
_AZIMUTHS = {"x": 0.0, "y": np.pi / 2.0}


def _recipe(
    spec: GateSpec, n_particles: int
) -> tuple[Callable, float, bool, float | None, tuple]:
    """(builder over an axis->operator map, gate angle, generator Hermitian?,
    azimuth alpha or None, eigenpair key).

    Shared by the collective engine and the full-space oracle: the builder only
    uses +, -, scalar * and @, so it composes block operators and dense
    matrices alike.  alpha is given when G = D R D^dag, D = exp(-i alpha J_z),
    for a real R built from J_x and J_z: R = J_x^2 (RX2, RY2, OAT x|y, GMS)
    or R = J_z^2 - w J_x (TNT(z, x|y)), since D J_x D^dag = J_x cos alpha +
    J_y sin alpha.  The key names the matrix whose eigenpairs the kernel
    needs, besides 2j: the empty key for J_x^2, the bit pattern of
    w = N/Lambda alone for J_z^2 - w J_x, and for any other G_j its kind, its
    axes and the bit patterns (so -0.0 != 0.0) of what it depends on besides
    the angle: RN's phi, TNT's w.  A diagonal or non-Hermitian G decomposes
    nothing, so its key is never read.
    """
    kind, params, axes = spec.kind, spec.params, spec.axes
    key = kind, axes
    if kind in ("RX", "RY", "RZ"):
        ax = kind[1].lower()
        return (lambda o: o[ax]), params[0], True, None, key
    if kind == "RN":
        theta, phi = params
        c, s = np.cos(phi), np.sin(phi)
        return (lambda o: o["y"] * c - o["x"] * s), theta, True, None, key + (phi.hex(),)
    if kind in ("R_PLUS", "R_MINUS"):
        ax = "plus" if kind == "R_PLUS" else "minus"
        return (lambda o: o[ax]), params[0], False, None, key
    if kind in ("RX2", "RY2", "RZ2", "OAT"):
        ax = axes[0] if kind == "OAT" else kind[1].lower()
        alpha = _AZIMUTHS.get(ax)
        return (lambda o: _sq(o[ax])), params[0], True, alpha, key if alpha is None else ()
    if kind in ("TAT", "TNT"):
        a, b = axes
        herm = a in _SINGLE_AXES and b in _SINGLE_AXES
        if kind == "TAT":
            return (lambda o: _sq(o[a]) - _sq(o[b])), params[0], herm, None, key
        w = n_particles / params[1]
        if not math.isfinite(w * n_particles):  # no spin band entry exceeds N
            top = spin_bands(n_particles)[b].diags.values()  # the largest on the top block
            if not math.isfinite(w * max(float(np.abs(v).max()) for v in top)):
                raise NumericError(f"TNT coupling term overflows: w = N/Lambda = {w:g}")
        azimuth = _AZIMUTHS.get(b) if a == "z" else None
        key = (w.hex(),) if azimuth is not None else key + (w.hex(),)
        return (lambda o: _sq(o[a]) - w * o[b]), params[0], herm, azimuth, key
    if kind == "GMS":
        theta, phi = params
        c, s = np.cos(phi), np.sin(phi)
        return (lambda o: _sq(o["x"] * c + o["y"] * s)), theta, True, phi, ()
    raise DomainError(f"unknown gate kind {kind!r}")


# (-i)^k for k mod 4
_MINUS_I_POWERS = np.array((1.0, -1j, -1.0, 1j))


def _ladder_exponential(lad: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i angle A) for A with the superdiagonal ``lad`` and no other
    entries, as its finite series: A is nilpotent, so K[r, r+k] =
    (-i angle)^k / k! * lad[r] ... lad[r+k-1] exactly, and K is zero below
    the diagonal.  Row r's terms are the running products of the factors
    lad[r], angle/1, lad[r+1], angle/2, ..., one accumulate for all rows."""
    d = lad.size + 1
    k_mat = np.zeros((d, d), dtype=complex)
    k_mat.reshape(-1)[:: d + 1] = 1.0
    n = d - 1
    if n == 0:
        return k_mat
    # f[r, 2k-2] = lad[r+k-1] (zero past lad's end), f[r, 2k-1] = angle/k
    f = np.empty((n, 2 * n))
    f[:, ::2] = sliding_window_view(np.concatenate([lad, np.zeros(n - 1)]), n)
    f[:, 1::2] = angle / np.arange(1, d)
    np.multiply.accumulate(f, axis=1, out=f)
    term = f[:, 1::2]  # term[r, k-1] = angle^k / k! * lad[r] ... lad[r+k-1]
    # once a whole term is zero every later one is, and K keeps +0 there
    nonzero = term.any(axis=0)
    m = n if nonzero.all() else int(np.argmin(nonzero))
    # upper[r, k-1] is K[r, r+k]; for r + k > n it would wrap to a later row
    upper = k_mat.reshape(-1)[1:].reshape(n, d + 1)[:, :m]
    inside = np.arange(n)[:, None] < n - np.arange(m)
    np.multiply(_MINUS_I_POWERS[np.arange(1, m + 1) % 4], term[:, :m], out=upper, where=inside)
    return k_mat


def _eigh(g: np.ndarray, j: float) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(g)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed in block j = {j}") from exc


# band offsets of the generators that never couple m to m +- 1
_PARITY_OFFSETS = frozenset({-2, 0, 2})


def _halves_eigh(halves, j: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpairs (w_p, V_p) of each real symmetric tridiagonal half, given
    as (diagonal, subdiagonal) pairs, each by a real eigh."""
    pairs = []
    for diag, sub in halves:
        n = diag.size
        half = np.zeros((n, n))  # eigh reads the lower triangle only
        half.reshape(-1)[:: n + 1] = diag
        half.reshape(-1)[n :: n + 1] = sub
        pairs.append(_eigh(half, j))
    return tuple(pairs)


def _parity_eigh(g: Banded, j: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpairs of a real G_j with band offsets {-2, 0, 2}: its even and
    odd storage indices are two uncoupled real tridiagonal halves, of sizes
    (d + 1) // 2 and d // 2."""
    return _halves_eigh([(g.diags[0][p::2].real, g.diags[-2][p::2][1:].real) for p in (0, 1)], j)


def _flip_eigh(r: Banded, j: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpairs of a real tridiagonal R_j that storage reversal leaves
    unchanged, as the halves of T R_j T (T = ``_butterfly``), of sizes
    (d + 1) // 2 and d // 2: the middle coupling beta = R[h, h - 1],
    h = d // 2, adds +-beta to the halves' last diagonal entries for even d
    and joins half 0 to the middle as sqrt2 beta for odd d."""
    diag, sub = r.diags[0], r.diags[-1][1:]
    h = diag.size // 2
    if diag.size % 2:
        sym = sub[:h].copy()
        sym[h - 1 :] *= np.sqrt(2.0)  # empty for d = 1
        return _halves_eigh([(diag[: h + 1], sym), (diag[:h], sub[: h - 1])], j)
    beta = np.zeros(h)
    beta[-1] = sub[h - 1]
    return _halves_eigh([(diag[:h] + beta, sub[: h - 1]), (diag[:h] - beta, sub[: h - 1])], j)


def _butterfly(x: np.ndarray) -> None:
    """x -> T x along axis 0, in place: rows a and d-1-a, a < d // 2, become
    (x_a + x_{d-1-a})/sqrt2 and (x_a - x_{d-1-a})/sqrt2, and the middle row
    of odd d stays.  T = T^T = T^-1, so a second call undoes the first."""
    h = x.shape[0] // 2
    top, bottom = x[:h], x[::-1][:h]
    total = top + bottom  # the one half-size temporary
    np.subtract(top, bottom, out=bottom)
    bottom *= np.sqrt(0.5)
    np.multiply(total, np.sqrt(0.5), out=top)


# Byte budget of the eigenpair cache.  It must hold the working set of a
# repeated noiseless layer: RX and RY at 2j + 1 = 201 take about 1.3 MB; at
# 1 MiB that layer thrashed the cache at N = 200.  At N = 1000 the ansatz's
# TNT(zx) and TAT(zy) take 3.83 MiB each, and at 4 MiB each evicted the other.
EIGENPAIR_CACHE_BYTES = 8 * 2**20
# Keys requested once and not stored yet; oldest forgotten first.
_SEEN_ONCE_KEYS = 4096


class _EigenpairCache:
    """LRU map from a block-generator key to its read-only eigenpair halves
    ((w_0, V_0), ...), bounded by bytes: one complex half for a dense eigh,
    two real ones for a split.  ``fetch`` is the one way in.  Thread safe;
    a decomposition runs outside the lock, so two threads may decompose one
    key and store it once."""

    def __init__(self, max_bytes: int, max_seen: int):
        self.max_bytes = max_bytes
        self.max_seen = max_seen
        self.nbytes = 0
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._seen: OrderedDict[tuple, bool] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def fetch(self, key: tuple, decompose: Callable[[], tuple]) -> tuple:
        """The halves stored under ``key``, or else ``decompose()``'s, kept
        only on the key's second request: the first one just enters the
        bounded seen-once set, and an entry larger than the budget is never
        kept."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                return hit
            second = self._seen.pop(key, False)  # the key's second request
            if not second:
                self._seen[key] = True
                if len(self._seen) > self.max_seen:
                    self._seen.popitem(last=False)
        halves = decompose()
        size = _nbytes(halves)
        if not second or size > self.max_bytes:
            return halves
        for w, v in halves:
            w.flags.writeable = v.flags.writeable = False
        with self._lock:
            if key not in self._entries:
                self._entries[key] = halves
                self.nbytes += size
            while self.nbytes > self.max_bytes:
                self.nbytes -= _nbytes(self._entries.popitem(last=False)[1])
        return halves

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._seen.clear()
            self.nbytes = 0


def _nbytes(halves: tuple) -> int:
    return sum(w.nbytes + v.nbytes for w, v in halves)


_EIGENPAIRS = _EigenpairCache(EIGENPAIR_CACHE_BYTES, _SEEN_ONCE_KEYS)


@lru_cache(maxsize=None)
def _band_offsets(kind: str, axes: tuple[str, ...] | None) -> frozenset[int]:
    """A generator's band offsets, fixed by kind and axes: read off a 1x1 block."""
    unit = GateSpec(kind, (1.0,) * GATE_KINDS[kind][0], axes)
    return _recipe(unit, 1)[0](spin_bands(0)).offsets


@dataclass(frozen=True, eq=False)
class BlockGenerator:
    """A generator G kept as its recipe: ``bands(j)`` builds G_j as bands.
    ``offsets`` are G's band offsets, the same on every block; ``key`` names
    the matrix whose eigenpairs G_j's kernel needs, besides 2j (see
    ``_recipe``);
    ``azimuth`` is alpha if G = D_alpha R D_alpha^dag for a real R (see
    ``_recipe``); ``js`` are the blocks it was made for.  These facts alone
    pick the kernel form of every block (see the module docstring)."""

    build: Callable
    hermitian: bool
    offsets: frozenset[int]
    key: tuple
    azimuth: float | None
    js: tuple[float, ...]

    def bands(self, j: float) -> Banded:
        return self.build(spin_bands(_twoj(j)))

    @property
    def split(self) -> bool:
        """Hermitian, not diagonal, offsets in {-2, 0, 2}: G_j's parity
        halves are uncoupled (see ``_parity_eigh``)."""
        return self.hermitian and self.offsets != {0} and self.offsets <= _PARITY_OFFSETS

    @property
    def flip(self) -> bool:
        """An azimuth and offsets +-1, so R = J_z^2 - w J_x: its halves
        under the storage reversal are uncoupled (see ``_flip_eigh``)."""
        return self.azimuth is not None and 1 in self.offsets


def generator(
    spec: GateSpec, ledger: BlockLedger, js: tuple[float, ...] | None = None
) -> tuple[BlockGenerator, float]:
    """Generator G and angle t with gate K = exp(-i t G), for blocks ``js``
    only (every ledger block if None).  No block is built here."""
    build, angle, herm, azimuth, key = _recipe(spec, ledger.n_particles)
    if js is None:
        js = ledger.js
    for j in js:
        ledger.block_index(j)
    offsets = _band_offsets(spec.kind, spec.axes)
    return BlockGenerator(build, herm, offsets, key, azimuth, tuple(js)), angle


def _eigenpairs(gen: BlockGenerator, j: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpair halves ((w_p, V_p), ...) of a Hermitian, non-diagonal G_j,
    fetched from the cache, in one of three eigen-forms: the parity split
    (``gen.split``: the halves of R_j = G_j, or of J_x^2 with its exact m^2
    spectrum for an azimuth), the flip split (``gen.flip``: the folded halves
    of R_j = J_z^2 - w J_x), or else the one half of the dense complex eigh."""
    twoj = _twoj(j)

    def decompose() -> tuple:
        if gen.flip:  # D maps J_x to J_y and fixes J_z: R_j is G_j with J_y read as J_x
            bands = spin_bands(twoj)
            return _flip_eigh(gen.build({**bands, "y": bands["x"]}), j)
        if not gen.split:
            return (_eigh(gen.bands(j).dense(), j),)
        if gen.azimuth is None:  # R_j = G_j
            return _parity_eigh(gen.bands(j), j)
        # R_j = J_x^2, whose halves' spectra are exactly the m^2: the sorted
        # m^2 at even positions for half 0, at odd ones for half 1
        m2 = np.sort(np.square(j - np.arange(twoj + 1)))
        halves = _parity_eigh(_sq(spin_bands(twoj)["x"]), j)
        return tuple((m2[p::2], v) for p, (_, v) in enumerate(halves))

    return _EIGENPAIRS.fetch((twoj,) + gen.key, decompose)


def _phases(angle: float, w: np.ndarray, j: float) -> np.ndarray:
    """e^{-i angle w}, the phases of every kernel form.  Rounding is
    monotone, so |angle| max|w| bounds every |angle w_k|: when the bound
    overflows, NumericError is raised before any phase is formed, and NumPy
    has nothing to warn about.  The cheap test comes first: angle^2 |w|^2,
    one dot product, is at least the bound's square, so max|w| is read only
    when it overflows."""
    if not math.isfinite(angle * angle * float(np.vdot(w, w).real)):
        if not math.isfinite(abs(angle) * float(np.abs(w).max())):
            raise NumericError(f"phase argument overflows in block j = {j}")
    return np.exp(-1j * angle * w)


def _propagator(gen: BlockGenerator, angle: float, j: float) -> np.ndarray:
    """K_j = exp(-i angle G_j) for a generator with no factored kernel (not
    ``gen.split`` or ``gen.flip``, see ``_split_apply``): the phase vector p
    of K_j = diag(p), or the matrix K_j, in the form G's band offsets
    select (see the module docstring)."""
    if gen.offsets == {0}:
        return _phases(angle, gen.bands(j).diags[0], j)
    if gen.offsets == {1}:
        return _ladder_exponential(gen.bands(j).diags[1][:-1], angle)
    if gen.offsets == {-1}:
        return _ladder_exponential(gen.bands(j).diags[-1][1:], angle).T
    if not gen.hermitian:
        from scipy.linalg import expm

        return expm(-1j * angle * gen.bands(j).dense())
    ((w, v),) = _eigenpairs(gen, j)
    # (V e^{-i t w}) V^dag as conj(conj(V e^{-i t w}) V^T), conjugated in
    # place: the same bits, with two (2j+1)^2 temporaries fewer
    k = v * _phases(angle, w, j)
    k = np.conjugate(k, out=k) @ v.T
    return np.conjugate(k, out=k)


def _split_apply(
    gen: BlockGenerator, halves: tuple, angle: float, j: float, x: np.ndarray
) -> np.ndarray:
    """x = K_j x along axis 0, in place, for a ``gen.split`` or ``gen.flip``
    generator with eigenpair halves ``halves`` (``_eigenpairs``), without
    forming K_j (see the module docstring; T = ``_butterfly``, in place);
    returns x.  x is a writable C-contiguous complex array of shape (d,) or
    (d, m), taken on its float view."""
    d = x.shape[0]
    x2 = x.reshape(d, -1)  # a view: x is C-contiguous
    phases = [_phases(angle, w, j)[:, None] for w, _ in halves]
    if gen.azimuth:
        gauge = _phases(gen.azimuth, j - np.arange(d), j)[:, None]  # D = diag(e^{-i alpha m})
        np.multiply(gauge.conj(), x2, out=x2)
    if gen.flip:  # half 0 on the top rows and the middle, half 1 on the bottom rows upward
        _butterfly(x2)
        rows = slice((d + 1) // 2), slice(d - 1, (d - 1) // 2, -1)
    else:
        rows = slice(0, None, 2), slice(1, None, 2)
    f = x2.view(float)
    for (_, v), phase, r in zip(halves, phases, rows):
        c = v.T @ f[r]  # the real and imaginary parts of V_p^T x_p, interleaved
        c.view(complex)[:] *= phase
        f[r] = v @ c
    if gen.flip:
        _butterfly(x2)
    if gen.azimuth:
        x2 *= gauge
    return x


def _update(gen: BlockGenerator, angle: float, j: float) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> K_j x along axis 0, for a C-contiguous complex x of shape
    (d,) or (d, m), from one fetch of block j's kernel: the split update
    ``_split_apply``, which overwrites x unless x is read-only, or the
    product with the phase vector p or the matrix K_j of ``_propagator``.
    Each returns a fresh (or the overwritten) C-contiguous array."""
    if gen.split or gen.flip:
        halves = _eigenpairs(gen, j)
        return lambda x: _split_apply(gen, halves, angle, j, x if x.flags.writeable else x.copy())
    k = _propagator(gen, angle, j)
    if k.ndim == 1:
        return lambda x: (k * x.T).T  # p x along axis 0, C-contiguous as x is
    return lambda x: k @ x


def _extreme_rotation(gen: BlockGenerator, angle: float, psi: np.ndarray) -> np.ndarray | None:
    """K psi in closed form for a Hermitian G with offsets exactly {-1, 1},
    a rotation G = n_x J_x + n_y J_y (RX, RY, RN), on a ket whose one
    nonzero entry psi_e sits at m = j or m = -j, else None.  Rotating the
    extreme state rotates each spin-1/2: psi' = psi_e (a|up> + b|down>)^(x)2j,
    with (a, b) = U|up> or U|down>, U = cos(t/2) - i sin(t/2) n.sigma, and
    n_x + i n_y = 2 G[1, 0] of the spin-1/2 block."""
    if not gen.hermitian or gen.offsets != {-1, 1}:
        return None
    nonzero = np.flatnonzero(psi)
    if nonzero.size != 1 or nonzero[0] not in (0, psi.size - 1):
        return None
    n_xy = 2.0 * complex(gen.build(spin_bands(1)).diags[-1][1])
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    if nonzero[0] == 0:  # U|up> = c|up> - i s (n_x + i n_y)|down>
        a, b = (c, 1.0), (s, -1j * n_xy)
    else:  # U|down> = -i s (n_x - i n_y)|up> + c|down>
        a, b = (s, -1j * n_xy.conjugate()), (c, 1.0)
    return psi[nonzero[0]] * _spinor_power(psi.size - 1, a, b)


def _quiet(gen: BlockGenerator):
    """The context a gate's kernels run in: NumPy's overflow and invalid
    warnings off for a non-Hermitian G, whose K may overflow (its caller
    raises NumericError on the result instead), and nothing for the rest."""
    return nullcontext() if gen.hermitian else np.errstate(over="ignore", invalid="ignore")


def exponentiate(operator: BlockGenerator, angle: float) -> dict[float, np.ndarray]:
    """Per-block matrices exp(-i * angle * G_j) on the generator's blocks:
    the per-block update ``apply_gate`` uses (``_update``), applied to the
    identity.  A K_j that is not finite raises NumericError."""
    out = {}
    with _quiet(operator):
        for j in operator.js:
            out[j] = _update(operator, angle, j)(np.eye(_twoj(j) + 1, dtype=complex))
            if not np.isfinite(out[j]).all():
                raise NumericError(f"exp(-i t G) is not finite in block j = {j}")
    return out


def _normalization(total: float, kind: str) -> float:
    if not np.isfinite(total) or total <= 0.0:
        raise NumericError(f"{kind} produced an unnormalizable state")
    return total


def apply_gate(state: CollectiveState, spec: GateSpec) -> CollectiveState:
    """rho -> K rho K^dag per active block, or psi -> K psi for a state held
    as a ket, then the optional noise channel.

    Each active block is handled on its own, by one per-block update
    x -> K_j x (``_update``): a ket takes it once, and rho takes it twice, as
    (K (K rho)^dag)^dag.  A ket forms no K_j under RX, RY or RN when its one
    nonzero entry is at m = +-j (``_extreme_rotation``).  Unitary gates
    leave the active block set unchanged; a noise step reads rho and may
    activate neighboring blocks.  A non-unitary K's result is renormalized
    (rho by its trace, psi by its norm) and flagged conditional; a ket
    stays a ket.  Such a K, its product with the state or the norm may
    overflow: NumPy stays quiet there, and the gate raises NumericError on
    the state it cannot normalize.
    """
    gen, angle = generator(spec, state.ledger, state.active_js)
    conditional = state.conditional or not gen.hermitian
    with _quiet(gen):
        if state._ket is not None:
            j, psi = state._ket
            rotated = _extreme_rotation(gen, angle, psi)
            psi = _update(gen, angle, j)(psi) if rotated is None else rotated
            if not gen.hermitian:
                psi /= _normalization(np.linalg.norm(psi), spec.kind)
            out = CollectiveState._pure(state.ledger, j, psi, conditional)
        else:
            blocks = {}
            for j, x in state.items():
                update = _update(gen, angle, j)
                for _ in range(2):  # each ^dag a fresh C-contiguous array
                    x = update(x)  # rebound first, so the old x is dropped before the ^dag
                    x = np.conjugate(x.T, order="C")
                blocks[j] = x
            if not gen.hermitian:
                total = _normalization(sum(np.trace(b).real for b in blocks.values()), spec.kind)
                blocks = {j: b / total for j, b in blocks.items()}
            out = CollectiveState._mixed(state.ledger, blocks, conditional)
    if spec.noise is not None and spec.noise > 0.0:
        from .noise import depolarize

        out = depolarize(out, spec.noise)
    return out


def apply_circuit(circuit: Circuit, initial: CollectiveState) -> CollectiveState:
    """Left fold of apply_gate over the instruction list."""
    if initial.ledger.n_particles != circuit.n_particles:
        raise DomainError(
            f"circuit is for N = {circuit.n_particles}, "
            f"state has N = {initial.ledger.n_particles}"
        )
    state = initial
    for spec in circuit.instructions:
        state = apply_gate(state, spec)
    return state


def _is_number(value) -> bool:  # a JSON number: int or float, not a bool
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def circuit_from_json(text: str) -> Circuit:
    """Parse {"n": int, "gates": [{"kind", "params", "axes"?, "noise"?}]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise CircuitParseError("top level must be an object")
    try:
        n = doc["n"]
        gates = doc["gates"]
    except KeyError as exc:
        raise CircuitParseError(f"missing required key {exc.args[0]!r}") from None
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise CircuitParseError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(gates, list):
        raise CircuitParseError('"gates" must be a list')
    specs = []
    for pos, entry in enumerate(gates, start=1):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise CircuitParseError(f'gate #{pos} must be an object with a "kind"')
        params, axes, noise = entry.get("params", []), entry.get("axes"), entry.get("noise")
        if not isinstance(params, list) or not all(_is_number(p) for p in params):
            raise CircuitParseError(f'gate #{pos}: "params" must be a list of numbers')
        if axes is not None and not isinstance(axes, str):
            raise CircuitParseError(f'gate #{pos}: "axes" must be a string, got {axes!r}')
        if noise is not None and not _is_number(noise):
            raise CircuitParseError(f'gate #{pos}: "noise" must be a number, got {noise!r}')
        try:
            specs.append(
                GateSpec(kind=str(entry["kind"]), params=tuple(params), axes=axes, noise=noise)
            )
        except DomainError as exc:
            raise CircuitParseError(f"gate #{pos}: {exc}") from None
    return Circuit(n_particles=n, instructions=tuple(specs))


def circuit_to_json(circuit: Circuit) -> str:
    gates = []
    for spec in circuit.instructions:
        entry: dict = {"kind": spec.kind, "params": list(spec.params)}
        if spec.axes:
            entry["axes"] = ",".join(spec.axes)
        if spec.noise is not None:
            entry["noise"] = spec.noise
        gates.append(entry)
    return json.dumps({"n": circuit.n_particles, "gates": gates}, indent=2)
