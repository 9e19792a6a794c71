"""Collective Hilbert space for N two-level particles.

An ensemble of N spin-1/2 particles restricted to collective (permutation
symmetric) processes decomposes into irreducible blocks labelled by the total
angular momentum j, with j running from N/2 down to 0 (even N) or 1/2 (odd N)
in unit steps.  Each block is a (2j+1)-dimensional spin-j space appearing with
multiplicity d_N^j; the multiplicity copies are never told apart by collective
dynamics, so they are folded into effective amplitudes and the counts are not
stored (``degeneracy`` computes one on demand).  A state is then a
block-diagonal density matrix rho = (+)_j rho_j of total side (N+2)^2/4
(even N) or (N+3)(N+1)/4 (odd N) instead of 2^N.  A pure state in one block,
as the state constructors below make and noiseless gates keep, is held as its
ket psi of side 2j+1 (Chase & Geremia, PRA 78, 052101 (2008)); its block
rho_j = psi psi^dagger is built only when a reader asks for it.

Conventions used throughout:

* within a block, rows/columns are ordered by m descending (j, j-1, ..., -j),
  so the fully excited state sits at the top-left of the j = N/2 block and the
  ground state at the bottom-right;
* block matrices are immutable (read-only numpy arrays); every operation
  returns fresh objects, so values are safe to share across threads;
* a block's spin operators are banded in m (J_z diagonal, J_+/J_- one step
  off it) and are held as their diagonals (``Banded``, cached per 2j by
  ``spin_bands``).  Their dense reference forms are ``spin_matrices`` (one
  block) and ``op_j*`` (every block of a ledger, as a read-only map
  j -> block); no engine path builds either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, log
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError

__all__ = [
    "Block",
    "BlockLedger",
    "CollectiveState",
    "degeneracy",
    "build_ledger",
    "collective_dimension",
    "op_jz",
    "op_jplus",
    "op_jminus",
    "op_jx",
    "op_jy",
    "Banded",
    "spin_bands",
    "spin_matrices",
    "ground_state",
    "excited_state",
    "ghz_state",
    "css_state",
    "css_amplitudes",
]


def _twoj(j: float) -> int:
    """Validate that j is a half-integer and return 2j as an exact int."""
    twoj = 2.0 * j
    if twoj < 0 or twoj != round(twoj):
        raise DomainError(f"j = {j} is not a nonnegative half-integer")
    return int(round(twoj))


def _integer(value, name: str, least: int) -> int:
    """value as an int; a bool, a non-integer or a value below ``least``
    raises DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _particle_count(n_particles: int) -> int:
    """N as an int; a bool, a non-integer or N < 1 raises DomainError."""
    if isinstance(n_particles, bool) or not isinstance(n_particles, (int, np.integer)):
        raise DomainError(f"particle count must be an integer, got {n_particles!r}")
    if n_particles < 1:
        raise DomainError(f"need at least one particle, got {n_particles}")
    return int(n_particles)


def degeneracy(n_particles: int, j: float) -> int:
    """Multiplicity d_N^j of the spin-j block for N particles.

    Computed exactly in integer arithmetic as N!(2j+1) / [(N/2-j)! (N/2+j+1)!];
    the factorial ratio overflows 64-bit floats at modest N, so no
    floating-point intermediate is ever formed.
    """
    n = _particle_count(n_particles)
    twoj = _twoj(j)
    if twoj > n or (n - twoj) % 2 != 0:
        raise DomainError(f"j = {j} is not a valid block label for N = {n}")
    a = (n - twoj) // 2          # N/2 - j
    b = (n + twoj) // 2 + 1      # N/2 + j + 1
    num = factorial(n) * (twoj + 1)
    den = factorial(a) * factorial(b)
    if num % den:
        raise DomainError(f"degeneracy({n}, {j}) is not an integer")
    return num // den


@dataclass(frozen=True)
class Block:
    """One spin-j block: side 2j+1 and offset in the concatenated
    block-diagonal ordering."""

    j: float
    dim: int
    offset: int


@dataclass(frozen=True)
class BlockLedger:
    """Ordered block structure of the collective space for N particles.

    Blocks are ordered by descending j from N/2 down to 0 or 1/2.
    """

    n_particles: int
    blocks: tuple[Block, ...]

    @property
    def j_max(self) -> float:
        return self.blocks[0].j

    @property
    def j_min(self) -> float:
        return self.blocks[-1].j

    @property
    def dim(self) -> int:
        """Total collective dimension, sum of block sides."""
        last = self.blocks[-1]
        return last.offset + last.dim

    @property
    def js(self) -> tuple[float, ...]:
        return tuple(b.j for b in self.blocks)

    def block_index(self, j: float) -> int:
        """Position of block j in the descending-j ordering."""
        idx = int(round(self.j_max - j))
        if not 0 <= idx < len(self.blocks) or self.blocks[idx].j != j:
            raise DomainError(f"no block j = {j} for N = {self.n_particles}")
        return idx

    def has_block(self, j: float) -> bool:
        idx = int(round(self.j_max - j))
        return 0 <= idx < len(self.blocks) and self.blocks[idx].j == j

    def m_values(self, j: float) -> np.ndarray:
        """m labels of block j in storage (descending) order."""
        return j - np.arange(self.blocks[self.block_index(j)].dim)


# typed: untyped, 4.0 or True would hit the entry of an equal np.int64 count
# and skip the check
@lru_cache(maxsize=64, typed=True)
def build_ledger(n_particles: int) -> BlockLedger:
    """Build the block ledger for N particles (an integer N >= 1)."""
    n = _particle_count(n_particles)
    blocks = []
    offset = 0
    for twoj in range(n, n % 2 - 1, -2):
        j = twoj / 2.0
        dim = twoj + 1
        blocks.append(Block(j=j, dim=dim, offset=offset))
        offset += dim
    return BlockLedger(n_particles=n, blocks=tuple(blocks))


def collective_dimension(n_particles: int) -> int:
    """Sum of block sides: (N+2)^2/4 for even N, (N+3)(N+1)/4 for odd N."""
    return build_ledger(n_particles).dim


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=complex)
    out.flags.writeable = False
    return out


class CollectiveState:
    """Block-diagonal density matrix with lazy block activation.

    Only blocks that carry weight are stored; absent blocks are exactly zero.
    ``conditional`` marks states that went through a non-unitary ladder gate
    (R_plus / R_minus) and were renormalized, i.e. post-selected evolution.
    The blocks are read-only, so ``_moments`` keeps the measurement layer's
    moment pair once it has been read.  The constructor rejects a non-finite
    entry and copies each block, so a caller's array is neither shared nor
    frozen; the engine hands over the fresh blocks it made through
    ``_mixed``, which freezes them in place and checks nothing.

    A state made by ``_pure`` is held as a ket: ``_ket`` is (j, psi) with psi
    read-only, and its one block rho_j = psi psi^dagger is built on the first
    ``block`` or ``items`` read only, and kept (two threads reading it first
    may both build it; the copies are equal bit for bit).  ``trace`` and the
    measurement readouts read the ket.  ``_ket`` is None for a state built
    from blocks, rank-1 ones included.
    """

    __slots__ = ("ledger", "_blocks", "_ket", "conditional", "_moments")

    def __init__(
        self,
        ledger: BlockLedger,
        blocks: Mapping[float, np.ndarray],
        conditional: bool = False,
    ):
        copies = {}
        for j, mat in blocks.items():
            mat = np.array(mat, dtype=complex, order="C")  # a copy, frozen below
            want = ledger.blocks[ledger.block_index(j)].dim
            if mat.shape != (want, want):
                raise DomainError(
                    f"block j = {j} must be {want}x{want}, got {mat.shape}"
                )
            if not np.isfinite(mat).all():
                raise DomainError(f"block j = {j} holds a non-finite entry")
            copies[j] = mat
        self._set_blocks(ledger, copies, conditional)

    @classmethod
    def _mixed(
        cls, ledger: BlockLedger, blocks: dict[float, np.ndarray], conditional: bool = False
    ) -> "CollectiveState":
        """The state with ``blocks``, complex C-contiguous arrays of the
        ledger's shapes, frozen in place and not copied, so the caller hands
        over arrays it no longer writes, as with ``_pure``."""
        state = cls.__new__(cls)
        state._set_blocks(ledger, blocks, conditional)
        return state

    def _set_blocks(self, ledger: BlockLedger, blocks: dict, conditional: bool) -> None:
        by_index = {ledger.block_index(j): _freeze(mat) for j, mat in blocks.items()}
        self.ledger = ledger
        self._blocks = {idx: by_index[idx] for idx in sorted(by_index)}
        self._ket = None
        self.conditional = bool(conditional)
        self._moments = None

    @classmethod
    def _pure(
        cls, ledger: BlockLedger, j: float, psi: np.ndarray, conditional: bool = False
    ) -> "CollectiveState":
        """The pure state psi, of side 2j + 1, of block j, held as its ket;
        psi is frozen in place, so the caller hands over an array it no
        longer writes."""
        state = cls.__new__(cls)
        state.ledger = ledger
        state._blocks = None
        state._ket = (j, _freeze(psi))
        state.conditional = bool(conditional)
        state._moments = None
        return state

    def _dense(self) -> dict[int, np.ndarray]:
        if self._blocks is None:
            j, psi = self._ket
            self._blocks = {self.ledger.block_index(j): _freeze(_ket_density(psi))}
        return self._blocks

    @property
    def n_particles(self) -> int:
        return self.ledger.n_particles

    @property
    def active_js(self) -> tuple[float, ...]:
        if self._ket is not None:
            return (self._ket[0],)
        return tuple(self.ledger.blocks[i].j for i in self._blocks)

    def block(self, j: float) -> np.ndarray | None:
        return self._dense().get(self.ledger.block_index(j))

    def items(self) -> Iterable[tuple[float, np.ndarray]]:
        """(j, rho_j) pairs in descending-j order."""
        for idx, mat in self._dense().items():
            yield self.ledger.blocks[idx].j, mat

    def trace(self) -> float:
        if self._ket is not None:
            psi = self._ket[1]
            return float(np.vdot(psi, psi).real)
        return float(sum(np.trace(m).real for m in self._dense().values()))


def _ket_density(psi: np.ndarray) -> np.ndarray:
    """psi psi^dagger, Hermitian bit for bit: with psi = x + iy its real part
    x x^T + y y^T is symmetric and its imaginary part y x^T - x y^T
    antisymmetric entry by entry, which a complex outer product is not where
    the multiply fuses."""
    x, y = psi.real, psi.imag
    rho = np.empty((psi.size, psi.size), dtype=complex)
    np.add(np.outer(x, x), np.outer(y, y), out=rho.real)
    np.subtract(np.outer(y, x), np.outer(x, y), out=rho.imag)
    return rho


@dataclass(frozen=True, eq=False)
class Banded:
    """A (2j+1)-square block operator held by its diagonals: offset k maps to
    the vector v with v[r] = A[r, r + k], zero where r + k leaves the block.
    +, -, scalar * and @ keep it banded, so a gate recipe run on
    ``spin_bands(2j)`` builds G_j at O(2j) per diagonal.  The offsets are
    structural: a diagonal that cancels to zero is kept.
    """

    diags: Mapping[int, np.ndarray]

    @property
    def offsets(self) -> frozenset[int]:
        return frozenset(self.diags)

    def __add__(self, other: "Banded") -> "Banded":
        out = dict(self.diags)
        for k, v in other.diags.items():
            out[k] = out[k] + v if k in out else v
        return Banded(out)

    def __sub__(self, other: "Banded") -> "Banded":
        return self + other * -1.0  # a + (-b) rounds as a - b

    def __mul__(self, scalar: complex) -> "Banded":
        return Banded({k: v * scalar for k, v in self.diags.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "Banded") -> "Banded":
        # (AB)[r, r+a+b] = sum_a A[r, r+a] B[r+a, r+a+b], by ascending r + a
        out: dict[int, np.ndarray] = {}
        for a in sorted(self.diags):
            u = self.diags[a]
            lo, hi = max(0, -a), min(u.size, max(0, u.size - a))
            for b, v in other.diags.items():
                prod = np.zeros(u.size, dtype=np.result_type(u, v))
                prod[lo:hi] = u[lo:hi] * v[lo + a : hi + a]
                out[a + b] = out[a + b] + prod if a + b in out else prod
        return Banded(out)

    def dense(self) -> np.ndarray:
        """The block as a fresh dense complex matrix."""
        d = next(iter(self.diags.values())).size
        out = np.zeros((d, d), dtype=complex)
        flat = out.reshape(-1)
        for k, v in self.diags.items():
            n = d - abs(k)
            if n > 0:  # row r of offset k sits at flat r (d + 1) + k
                flat[max(k, -k * d) :: d + 1][:n] = v[max(0, -k) :][:n]
        return out


@lru_cache(maxsize=1024)
def spin_bands(twoj: int) -> Mapping[str, Banded]:
    """Spin-j operators of one block as bands, keyed "x", "y", "z", "plus",
    "minus"; J_+ raises m by one with sqrt((j - m)(j + m + 1)).

    They depend on 2j only, so they are cached per 2j and read-only.  An
    entry holds 72 (2j+1) bytes of arrays; 1024 cover every block to N = 2047.
    """
    j = twoj / 2.0
    m = j - np.arange(twoj + 1)
    up = np.zeros(twoj + 1)  # J_+[r, r+1], from the source m of row r + 1
    up[:-1] = np.sqrt((j - m[1:]) * (j + m[1:] + 1))
    low = np.roll(up, 1)  # J_-[r, r-1] = J_+[r-1, r]
    ops = {"x": {1: 0.5 * up, -1: 0.5 * low}, "y": {1: -0.5j * up, -1: 0.5j * low},
           "z": {0: m}, "plus": {1: up}, "minus": {-1: low}}
    for v in [v for diags in ops.values() for v in diags.values()]:
        v.flags.writeable = False
    return MappingProxyType({a: Banded(MappingProxyType(d)) for a, d in ops.items()})


def spin_matrices(twoj: int) -> dict[str, np.ndarray]:
    """Dense spin-j matrices of one block, built afresh from ``spin_bands``."""
    return {axis: band.dense() for axis, band in spin_bands(twoj).items()}


def _collective(ledger: BlockLedger, axis: str) -> Mapping[float, np.ndarray]:
    """One spin operator over the whole ledger: j -> its dense block."""
    return MappingProxyType(
        {b.j: _freeze(spin_bands(b.dim - 1)[axis].dense()) for b in ledger.blocks}
    )


@lru_cache(maxsize=32)
def op_jz(ledger: BlockLedger) -> Mapping[float, np.ndarray]:
    """J_z: diagonal m per block (storage order is m descending)."""
    return _collective(ledger, "z")


@lru_cache(maxsize=32)
def op_jplus(ledger: BlockLedger) -> Mapping[float, np.ndarray]:
    """J_+: raises m by one, coefficient sqrt((j-m)(j+m+1))."""
    return _collective(ledger, "plus")


@lru_cache(maxsize=32)
def op_jminus(ledger: BlockLedger) -> Mapping[float, np.ndarray]:
    return _collective(ledger, "minus")


@lru_cache(maxsize=32)
def op_jx(ledger: BlockLedger) -> Mapping[float, np.ndarray]:
    return _collective(ledger, "x")


@lru_cache(maxsize=32)
def op_jy(ledger: BlockLedger) -> Mapping[float, np.ndarray]:
    return _collective(ledger, "y")


def _pure_top_block_state(ledger: BlockLedger, amplitudes: np.ndarray) -> CollectiveState:
    """The pure state ``amplitudes`` of the j = N/2 block, held as its ket."""
    return CollectiveState._pure(ledger, ledger.j_max, amplitudes)


def ground_state(n_particles: int) -> CollectiveState:
    """|N/2, -N/2>: all particles down; bottom-right of the j = N/2 block."""
    ledger = build_ledger(n_particles)  # rejects N < 1 before any allocation
    amp = np.zeros(ledger.n_particles + 1)
    amp[-1] = 1.0
    return _pure_top_block_state(ledger, amp)


def excited_state(n_particles: int) -> CollectiveState:
    """|N/2, +N/2>: all particles up."""
    ledger = build_ledger(n_particles)
    amp = np.zeros(ledger.n_particles + 1)
    amp[0] = 1.0
    return _pure_top_block_state(ledger, amp)


def ghz_state(n_particles: int) -> CollectiveState:
    """(|N/2, N/2> + |N/2, -N/2>) / sqrt(2)."""
    ledger = build_ledger(n_particles)
    amp = np.zeros(ledger.n_particles + 1)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
    return _pure_top_block_state(ledger, amp)


@lru_cache(maxsize=1024)
def _ln_binomials(twoj: int) -> np.ndarray:
    """ln C(2j, k) for k = 0..2j, read-only and cached per 2j.

    Each entry is the logarithm of the exact integer binomial, so it is good
    to about one ulp; a difference of log-factorials would cancel and lose
    up to ulp(ln (2j)!), about 1e-11 at 2j = 5000.  The row costs 6 ms at
    2j = 5000; 1024 rows cover every block of a husimi grid up to N = 2047.
    """
    out = np.empty(twoj + 1)
    c = 1
    for k in range(twoj // 2 + 1):
        out[k] = out[twoj - k] = log(c)
        c = c * (twoj - k) // (k + 1)
    out.flags.writeable = False
    return out


def _log_moduli(mod_a: list[float], mod_b: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """(ln|a|, ln|b|) for ``_coherent_rows``: ``math.log`` of each modulus,
    -inf for a zero one.  Taken once for a set of pairs, they serve every 2j."""
    return tuple(np.array([log(x) if x else -np.inf for x in mods]) for mods in (mod_a, mod_b))


def _coherent_rows(twoj: int, logs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Unit rows sqrt(C(2j, k)) |a|^(2j-k) |b|^k, k = 0..2j, one per pair of
    moduli (|a|, |b|) given by their logarithms ``logs`` (``_log_moduli``):
    the magnitudes of the spin coherent states (a|up> + b|down>)^(x)2j
    (Arecchi et al., PRA 6, 2211 (1972)).

    Log space from ``_ln_binomials`` keeps binomials finite to very large j.
    Each row's norm is its own BLAS dot (``np.vecdot`` row by row, as
    ``row @ row``), so it does not depend on the other rows.  A zero modulus
    gives the one basis row of 0^0 = 1 (|a| = 0 wins) and stays out of the
    exponential, where 0^k would overflow.
    """
    ln_a, ln_b = logs
    rows = np.zeros((ln_a.size, twoj + 1))
    zero_a, zero_b = ln_a == -np.inf, ln_b == -np.inf
    rows[zero_a, twoj] = 1.0
    rows[zero_b & ~zero_a, 0] = 1.0
    live = ~(zero_a | zero_b)
    if live.any():
        ks = np.arange(twoj + 1)
        mags = np.exp(0.5 * _ln_binomials(twoj) + ks[::-1] * ln_a[live, None] + ks * ln_b[live, None])
        rows[live] = mags / np.sqrt(np.vecdot(mags, mags))[:, None]
    return rows


def _spinor_power(twoj: int, a: tuple[float, complex], b: tuple[float, complex]) -> np.ndarray:
    """The unit ket (a|up> + b|down>)^(x)2j of the spin-j block, over
    m = j, j-1, ..., -j: entry k is sqrt(C(2j, k)) a^(2j-k) b^k, normalized.
    Each amplitude comes as a pair (r, u), meaning r u, of a real r and a
    complex u of modulus 1 up to rounding, so that its phase u is exact and
    not rounded by the product.

    The magnitudes are the row of ``_coherent_rows``.  The phase
    (2j - k) arg a + k arg b is taken as the powers of sign(r) u, one
    running product each, divided by their moduli: a rounding per factor,
    where an argument times k would carry the argument's rounding k times.
    The factors +-1, +-i of a real or imaginary amplitude multiply exactly.
    """
    (ra, ua), (rb, ub) = a, b
    mag = _coherent_rows(twoj, _log_moduli([abs(ra) * abs(ua)], [abs(rb) * abs(ub)]))[0]
    powers = np.empty((2, twoj + 1), dtype=complex)
    powers[:, 0] = 1.0
    powers[0, 1:] = np.copysign(1.0, ra) * ua
    powers[1, 1:] = np.copysign(1.0, rb) * ub
    np.cumprod(powers, axis=1, out=powers)
    phase = powers[0, ::-1] * powers[1]
    return phase * (mag / np.abs(phase))


def css_amplitudes(twoj: int, theta: float, phi: float) -> np.ndarray:
    """Spin-j coherent state amplitudes over m = j, j-1, ..., -j:
    c_m = sqrt(C(2j, j+m)) cos(theta/2)^(j+m) (sin(theta/2) e^{-i phi})^(j-m),
    the spinor power of (cos(theta/2), sin(theta/2) e^{-i phi})."""
    return _spinor_power(twoj, (np.cos(theta / 2.0), 1.0), (np.sin(theta / 2.0), np.exp(-1j * phi)))


def css_state(n_particles: int, theta: float, phi: float) -> CollectiveState:
    """Coherent spin state |theta, phi>: every spin in the state
    cos(theta/2)|up> + sin(theta/2) e^{-i phi}|down>, a binomial
    superposition in the j = N/2 block (``css_amplitudes``); its mean spin
    points along (sin theta cos phi, -sin theta sin phi, cos theta).

    The same ket, up to one global phase, is RN(theta, -phi) applied to
    ``excited_state(N)`` and RN(theta - pi, -phi) applied to
    ``ground_state(N)``; ``apply_gate`` takes both rotations in this closed
    form (see ``gates``)."""
    if not 0.0 <= theta <= np.pi:
        raise DomainError(f"theta must be in [0, pi], got {theta}")
    if not 0.0 <= phi < 2.0 * np.pi:
        raise DomainError(f"phi must be in [0, 2*pi), got {phi}")
    ledger = build_ledger(n_particles)
    return _pure_top_block_state(ledger, css_amplitudes(ledger.n_particles, theta, phi))
