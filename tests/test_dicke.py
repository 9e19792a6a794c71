"""Block ledger, degeneracies, collective operators, and reference states."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import (
    Ansatz,
    Circuit,
    CollectiveState,
    DomainError,
    build_ledger,
    collective_dimension,
    css_state,
    degeneracy,
    excited_state,
    ghz_state,
    ground_state,
)
from dickesim.dicke import css_amplitudes, op_jminus, op_jplus, op_jx, op_jy, op_jz
from tests.conftest import assert_valid_state


# ---------------------------------------------------------------- ledger

def test_ledger_even():
    led = build_ledger(4)
    assert led.js == (2.0, 1.0, 0.0)
    assert led.j_min == 0.0 and led.j_max == 2.0
    assert led.dim == 9


def test_ledger_odd():
    led = build_ledger(5)
    assert led.js == (2.5, 1.5, 0.5)
    assert led.j_min == 0.5
    assert led.dim == collective_dimension(5) == 12


def test_m_descending():
    led = build_ledger(4)
    assert list(led.m_values(1.0)) == [1.0, 0.0, -1.0]


def test_degeneracy_values():
    # N=4: one j=2 copy, three j=1 copies, two j=0 copies
    assert degeneracy(4, 2) == 1
    assert degeneracy(4, 1) == 3
    assert degeneracy(4, 0) == 2


def test_degeneracy_rejects_bad_j():
    with pytest.raises(DomainError):
        degeneracy(4, 0.5)
    with pytest.raises(DomainError):
        degeneracy(4, 3)


@pytest.mark.parametrize("j", [np.nan, np.inf, -np.inf, "1.0", True], ids=repr)
def test_j_must_be_a_finite_number(j):
    # ValueError, OverflowError or TypeError before, and True was j = 1
    with pytest.raises(DomainError, match="half-integer|must be a number"):
        degeneracy(4, j)
    with pytest.raises(DomainError, match="half-integer|must be a number"):
        ground_state(4).block(j)


def test_ledger_does_not_compute_degeneracies(monkeypatch):
    # the multiplicities are exact big-integer factorials; building the
    # ledger must not pay for them.
    import dickesim.dicke

    def refuse(n_particles, j):
        raise AssertionError("degeneracy computed")

    monkeypatch.setattr(dickesim.dicke, "degeneracy", refuse)
    led = build_ledger(4001)
    assert led.js[0] == 2000.5 and led.j_min == 0.5
    assert led.dim == collective_dimension(4001)


def test_ledger_builds_no_block_list_until_read():
    led = build_ledger(10**6)
    assert (led.j_max, led.j_min, led.dim) == (5e5, 0.0, (10**6 + 2) ** 2 // 4)
    assert led.block_index(0.0) == 5 * 10**5 and list(led.m_values(0.0)) == [0.0]
    assert "blocks" not in vars(led) and "js" not in vars(led)


HUGE_COUNTS = {"401 digits": 10**400, "2**53 + 1": 2**53 + 1}


@pytest.mark.parametrize("n", HUGE_COUNTS.values(), ids=HUGE_COUNTS)
@pytest.mark.parametrize("make", [
    build_ledger, ground_state, lambda n: css_state(n, 0.3, 0.2), Ansatz,
    lambda n: Circuit(n, ()), lambda n: degeneracy(n, 0.5),
], ids=["build_ledger", "ground_state", "css_state", "Ansatz", "Circuit", "degeneracy"])
def test_particle_count_above_2_53_rejected(make, n):
    # past 2^53 the labels j = N/2 and m are no longer exact floats
    with pytest.raises(DomainError, match=r"particle count must be <= 2\*\*53, got a \d+-bit integer$"):
        make(n)


def test_particle_count_2_53_accepted():
    # only the ledger: a state of that size would allocate 2^53 + 1 amplitudes
    assert build_ledger(2**53).dim == (2**53 + 2) ** 2 // 4


@pytest.mark.parametrize("n", range(1, 65))
def test_completeness(n):
    # sum over blocks of (2j+1) * multiplicity recovers the full 2^N space
    led = build_ledger(n)
    total = sum((int(round(2 * j)) + 1) * degeneracy(n, j) for j in led.js)
    assert total == 2**n


@pytest.mark.parametrize("n", range(1, 65))
def test_collective_dimension_closed_form(n):
    if n % 2 == 0:
        expected = (n + 2) ** 2 // 4
    else:
        expected = (n + 3) * (n + 1) // 4
    assert collective_dimension(n) == expected
    assert build_ledger(n).dim == expected


# ------------------------------------------------------------- operators

@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 30])
def test_commutators(n):
    led = build_ledger(n)
    jx, jy, jz = op_jx(led), op_jy(led), op_jz(led)
    for j in led.js:
        x, y, z = jx[j], jy[j], jz[j]
        assert np.allclose(x @ y - y @ x, 1j * z, atol=1e-12)
        assert np.allclose(y @ z - z @ y, 1j * x, atol=1e-12)
        assert np.allclose(z @ x - x @ z, 1j * y, atol=1e-12)


@pytest.mark.parametrize("n", [2, 5, 10])
def test_ladder_identities(n):
    led = build_ledger(n)
    jp, jm, jz = op_jplus(led), op_jminus(led), op_jz(led)
    for j in led.js:
        p, m, z = jp[j], jm[j], jz[j]
        assert np.allclose(p, m.conj().T)
        assert np.allclose(z @ p - p @ z, p)       # [Jz, J+] = J+
        assert np.allclose(p @ m - m @ p, 2 * z)   # [J+, J-] = 2Jz


def test_casimir():
    led = build_ledger(6)
    jx, jy, jz = op_jx(led), op_jy(led), op_jz(led)
    for j in led.js:
        j2 = jx[j] @ jx[j] + jy[j] @ jy[j] + jz[j] @ jz[j]
        assert np.allclose(j2, j * (j + 1) * np.eye(j2.shape[0]), atol=1e-12)


# ----------------------------------------------------------------- states

def test_ground_excited_ghz():
    g = ground_state(4)
    assert_valid_state(g)
    assert g.active_js == (2.0,)
    assert g.block(2.0)[4, 4] == 1.0  # m = -2 sits last in descending order

    e = excited_state(4)
    assert e.block(2.0)[0, 0] == 1.0

    z = ghz_state(4)
    rho = z.block(2.0)
    assert rho[0, 0] == pytest.approx(0.5)
    assert rho[4, 4] == pytest.approx(0.5)
    assert rho[0, 4] == pytest.approx(0.5)
    assert_valid_state(z)


@pytest.mark.parametrize("n", [0, -1, -3])
@pytest.mark.parametrize("make", [
    ground_state, excited_state, ghz_state, lambda n: css_state(n, 0.3, 0.2),
])
def test_pure_states_reject_fewer_than_one_particle(make, n):
    # the ledger's check runs before any amplitude array is allocated
    with pytest.raises(DomainError, match=f"particle count must be >= 1, got {n}"):
        make(n)


@pytest.mark.parametrize("call, shown", [
    (lambda: ground_state(3.7), "3.7"),
    (lambda: css_state(2.5, 1.0, 0.0), "2.5"),
    (lambda: degeneracy(3.9, 0.5), "3.9"),
    (lambda: build_ledger(True), "True"),
    (lambda: ground_state([3]), r"\[3\]"),
], ids=["ground_state", "css_state", "degeneracy", "build_ledger", "ground_state_list"])
def test_non_integer_particle_counts_rejected(call, shown):
    # int() would truncate these to N = 3, 2, 3 and 1
    with pytest.raises(DomainError, match=f"particle count must be an integer, got {shown}$"):
        call()


def test_numpy_integer_particle_count_accepted():
    four = np.int64(4)
    assert build_ledger(four) == build_ledger(4)
    assert type(build_ledger(four).n_particles) is int
    assert ground_state(four).active_js == (2.0,)
    assert degeneracy(four, 1) == 3
    # an equal count of another type gives an equal ledger
    assert build_ledger(np.int64(1)) == build_ledger(1)
    for bad in (4.0, True):
        with pytest.raises(DomainError, match="must be an integer"):
            build_ledger(bad)


def test_state_block_shape_validation():
    led = build_ledger(4)
    with pytest.raises(DomainError):
        CollectiveState(led, {2.0: np.eye(3, dtype=complex)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_state_rejects_a_non_finite_block(bad):
    # its trace would be NaN, and get_xi_2_S NaN without raising
    block = np.full((2, 2), bad)
    with pytest.raises(DomainError, match="block j = 0.5 holds a non-finite entry"):
        CollectiveState(build_ledger(1), {0.5: block})


def test_state_copies_the_callers_block():
    # the state keeps a frozen copy; the caller's array stays its own
    a = np.eye(2, dtype=complex) / 2
    state = CollectiveState(build_ledger(1), {0.5: a})
    assert state.block(0.5) is not a and a.flags.writeable
    a[0, 0] = 1.0
    assert state.block(0.5)[0, 0] == 0.5 and state.trace() == 1.0
    assert not state.block(0.5).flags.writeable


def test_css_limits():
    # theta = 0 puts all weight on m = +N/2, theta = pi on m = -N/2
    top = css_state(6, 0.0, 0.3)
    assert top.block(3.0)[0, 0] == pytest.approx(1.0)
    bottom = css_state(6, np.pi, 0.0)
    assert bottom.block(3.0)[6, 6] == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_css_binomial(n):
    from math import comb

    state = css_state(n, np.pi / 2, 0.7)
    rho = state.block(n / 2)
    probs = np.diag(rho).real
    expect = np.array([comb(n, n - k) for k in range(n + 1)]) * 0.5**n
    assert np.allclose(probs, expect, atol=1e-12)


def test_css_mean_jz():
    # <Jz> = (N/2) cos(theta)
    from dickesim import expval

    n = 12
    for theta in (0.3, 1.1, 2.5):
        state = css_state(n, theta, 0.4)
        assert expval(state, "Jz") == pytest.approx(n / 2 * np.cos(theta), abs=1e-10)


def test_css_large_n_pole_warns_nothing():
    # at theta = 0 every amplitude but m = j is 0^k; none may overflow on the way
    for phi in (0.0, 1.3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            amp = css_amplitudes(5000, 0.0, phi)
        assert amp[0] == 1.0 and not amp[1:].any()


def _css_reference(twoj, angles):
    """Coherent amplitudes from exact integer binomials in 40-digit decimal
    arithmetic, with the engine's float cos/sin of theta/2 taken as exact."""
    from decimal import Decimal, localcontext

    out = []
    with localcontext() as ctx:
        ctx.prec = 40
        roots, c = [], 1
        for k in range(twoj + 1):
            roots.append(Decimal(c).sqrt())
            c = c * (twoj - k) // (k + 1)
        for theta, phi in angles:
            ch, sh = Decimal(float(np.cos(theta / 2.0))), Decimal(float(np.sin(theta / 2.0)))
            pc, ps = [Decimal(1)], [Decimal(1)]
            for _ in range(twoj):
                pc.append(pc[-1] * ch)
                ps.append(ps[-1] * sh)
            mags = [roots[k] * pc[twoj - k] * ps[k] for k in range(twoj + 1)]
            norm = sum(x * x for x in mags).sqrt()
            mags = np.array([float(x / norm) for x in mags])
            out.append(mags * np.exp(-1j * phi * np.arange(twoj + 1)))
    return out


@pytest.mark.parametrize("twoj", [1, 2, 7, 40, 300, 1000, 5000])
def test_css_amplitudes_match_exact_binomials(twoj):
    # Measured: 2.6e-13 at 2j = 5000, 1.2e-14 at 300, 2.3e-16 at 1 (relative
    # to the largest amplitude).  Log-gamma binomials gave 4.9e-12 and 1.3e-13.
    angles = ((np.pi / 2, 0.7), (0.3, 5.0), (2.9, 1.0), (1.0, 0.0))
    worst = 0.0
    for (theta, phi), want in zip(angles, _css_reference(twoj, angles)):
        got = css_amplitudes(twoj, theta, phi)
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    assert worst <= 1e-16 * (twoj + 10)


def test_css_domain():
    with pytest.raises(DomainError):
        css_state(4, -0.1, 0.0)
    with pytest.raises(DomainError):
        css_state(4, 0.2, 7.0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=25),
    theta=st.floats(min_value=0.0, max_value=np.pi),
    phi=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
)
def test_css_always_valid(n, theta, phi):
    state = css_state(n, theta, phi)
    assert_valid_state(state, atol=1e-9)
    assert state.active_js == (n / 2,)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=64))
def test_ledger_roundtrip(n):
    led = build_ledger(n)
    offset = 0
    for j, b in zip(led.js, led.blocks):
        assert led.blocks[led.block_index(j)] == b
        assert led.block_index(j) == list(led.js).index(j)
        assert (b.dim, b.offset) == (int(2 * j) + 1, offset) and led.m_values(j).size == b.dim
        offset += b.dim
    assert offset == led.dim and (led.js[0], led.js[-1]) == (led.j_max, led.j_min)
    with pytest.raises(DomainError, match="no block"):
        led.block_index(led.j_max + 1)
