"""The eigenpair cache behind ``apply_gate``.

Hermitian, non-diagonal block generators keep their eigenpairs (w, V) in one
byte-bounded LRU cache keyed by 2j and the matrix decomposed, in one of three
eigen-forms:

* the parity split: every Hermitian generator with band offsets {-2, 0, 2}
  keeps the two real parity halves of one real matrix as one entry; the
  quadratic rotations (GMS, RX2, RY2, OAT x|y) share those of J_x^2, keyed
  by (2j,) alone; TAT over x/y/z pairs and TNT(x|y, z) decompose G_j itself,
  keyed by kind, axes and, for TNT, N/Lambda;
* the flip split: TNT(z, x) and TNT(z, y) share the two real halves of
  J_z^2 - w J_x folded by the storage reversal m -> -m as one real entry,
  keyed by (2j, w);
* the dense complex eigh: RX, RY, RN and TNT(x|y, x|y).

A key is stored on its second request, and a hit must give states
bit-identical to a cold cache.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from dickesim import CollectiveState, build_ledger, css_state, ground_state
from dickesim import gates
from dickesim.gates import GateSpec, apply_gate, exponentiate, generator
from dickesim.vqa import Ansatz, cost, grad_findiff

from conftest import random_full_state

CACHE = gates._EIGENPAIRS

# every Hermitian kind whose generator is not diagonal in m
CACHED_SPECS = (
    GateSpec("RX", (0.7,)),
    GateSpec("RY", (-1.3,)),
    GateSpec("RN", (0.9, 2.1)),
    GateSpec("RX2", (0.4,)),
    GateSpec("RY2", (-0.6,)),
    GateSpec("OAT", (0.3,), axes="x"),
    GateSpec("OAT", (0.3,), axes="y"),
    GateSpec("TAT", (0.2,), axes="xy"),
    GateSpec("TAT", (-0.5,), axes="zy"),
    GateSpec("TNT", (0.35, 2.5), axes="zx"),
    GateSpec("TNT", (0.35, 2.5), axes="yz"),
    GateSpec("GMS", (0.45, 0.8)),
)
UNCACHED_SPECS = (
    GateSpec("RZ", (0.7,)),
    GateSpec("RZ2", (0.7,)),
    GateSpec("OAT", (0.3,), axes="z"),
    GateSpec("TAT", (0.3,), axes="zz"),
    GateSpec("R_PLUS", (0.2,)),
    GateSpec("TAT", (0.2,), axes="x,minus"),
)


@pytest.fixture(autouse=True)
def cold_cache():
    CACHE.clear()
    yield
    CACHE.clear()


def mixed_state(n, seed=3):
    """Random PSD blocks on every block of the ledger."""
    return random_full_state(np.random.default_rng(seed), n)


def assert_states_equal(a, b):
    assert a.active_js == b.active_js
    for j, rho in a.items():
        assert np.array_equal(rho, b.block(j)), f"block j = {j} differs"


def forbid_eigh(monkeypatch):
    def refuse(g, j):
        raise AssertionError(f"eigh called for block j = {j}")

    monkeypatch.setattr(gates, "_eigh", refuse)


@pytest.mark.parametrize("spec", CACHED_SPECS, ids=lambda s: f"{s.kind}{''.join(s.axes or ())}")
def test_hit_is_bit_identical_to_cold_cache(spec, monkeypatch):
    state = mixed_state(7)
    cold = apply_gate(state, spec)
    assert len(CACHE) == 0
    stored = apply_gate(state, spec)
    assert len(CACHE) == len(state.active_js)
    forbid_eigh(monkeypatch)
    hit = apply_gate(state, spec)
    assert_states_equal(cold, stored)
    assert_states_equal(cold, hit)


def test_the_angle_is_not_part_of_the_key(monkeypatch):
    state = mixed_state(6)
    apply_gate(state, GateSpec("RN", (0.1, 0.4)))
    apply_gate(state, GateSpec("RN", (0.2, 0.4)))
    assert len(CACHE) == len(state.active_js)
    with monkeypatch.context() as patch:
        forbid_eigh(patch)
        hit = apply_gate(state, GateSpec("RN", (1.7, 0.4)))
    CACHE.clear()
    assert_states_equal(hit, apply_gate(state, GateSpec("RN", (1.7, 0.4))))


@pytest.mark.parametrize("spec", UNCACHED_SPECS, ids=lambda s: f"{s.kind}{''.join(s.axes or ())}")
def test_diagonal_and_non_hermitian_gates_are_not_cached(spec):
    state = mixed_state(5)
    for _ in range(3):
        apply_gate(state, spec)
    assert len(CACHE) == 0


def test_a_key_seen_once_is_not_stored():
    state = mixed_state(6)
    apply_gate(state, GateSpec("RX", (0.3,)))
    assert len(CACHE) == 0 and CACHE.nbytes == 0
    apply_gate(state, GateSpec("RX", (0.5,)))
    assert len(CACHE) == len(state.active_js)


def test_seen_once_set_is_bounded():
    cache = gates._EigenpairCache(max_bytes=2**20, max_seen=8)
    for k in range(50):
        assert cache.lookup((k,)) == (None, False)
    assert len(cache._seen) == 8
    # the oldest keys were forgotten, the newest ones are remembered
    assert cache.lookup((0,)) == (None, False)
    assert cache.lookup((49,)) == (None, True)


def test_two_azimuths_do_not_share_an_entry():
    state = mixed_state(6)
    blocks = len(state.active_js)
    for phi in (0.3, 0.3 + 1e-12):
        for _ in range(2):
            apply_gate(state, GateSpec("RN", (0.8, phi)))
    assert len(CACHE) == 2 * blocks
    hit = apply_gate(state, GateSpec("RN", (0.8, 0.3 + 1e-12)))
    CACHE.clear()
    assert_states_equal(hit, apply_gate(state, GateSpec("RN", (0.8, 0.3 + 1e-12))))


def test_signed_zero_azimuths_are_distinct_keys():
    ledger = build_ledger(6)
    assert generator(GateSpec("RN", (0.8, 0.0)), ledger)[0].key != generator(
        GateSpec("RN", (0.8, -0.0)), ledger
    )[0].key


def test_two_tnt_couplings_do_not_share_an_entry():
    state = mixed_state(6)
    blocks = len(state.active_js)
    for coupling in (2.0, 3.0):
        for _ in range(2):
            apply_gate(state, GateSpec("TNT", (0.4, coupling), axes="zx"))
    assert len(CACHE) == 2 * blocks
    hit = apply_gate(state, GateSpec("TNT", (0.4, 2.0), axes="zx"))
    CACHE.clear()
    assert_states_equal(hit, apply_gate(state, GateSpec("TNT", (0.4, 2.0), axes="zx")))


def test_tnt_entries_depend_on_n():
    # block j = 2 exists at N = 4 and N = 6, but N/Lambda differs
    spec = GateSpec("TNT", (0.4, 2.0), axes="zx")
    states = [
        CollectiveState(build_ledger(n), {2.0: np.eye(5, dtype=complex) / 5.0}) for n in (4, 6)
    ]
    for state in states:
        for _ in range(2):
            apply_gate(state, spec)
    assert len(CACHE) == 2
    hit = apply_gate(states[0], spec)
    CACHE.clear()
    assert_states_equal(hit, apply_gate(states[0], spec))


def test_cached_arrays_are_read_only():
    state = mixed_state(5)
    for _ in range(2):
        apply_gate(state, GateSpec("GMS", (0.3, 1.1)))
    assert len(CACHE) > 0
    for w, v in CACHE._entries.values():
        assert not w.flags.writeable and not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 0.0


def test_cached_bytes_stay_within_budget_at_n_400():
    # one 601 x 601 block: an entry takes about 5.78 MB, so RX and RY together
    # exceed the 8 MiB budget and the older one must go (the test keeps its
    # name from the 4 MiB budget, when N = 400 was enough)
    state = ground_state(600)
    for spec in (GateSpec("RX", (0.2,)), GateSpec("RY", (0.3,))) * 3:
        state = apply_gate(state, spec)
        assert 0 <= CACHE.nbytes <= gates.EIGENPAIR_CACHE_BYTES
    assert len(CACHE) == 1
    assert CACHE.nbytes == sum(w.nbytes + v.nbytes for w, v in CACHE._entries.values())


def test_an_entry_larger_than_the_budget_is_never_stored():
    cache = gates._EigenpairCache(max_bytes=1000, max_seen=8)
    w, v = np.zeros(10), np.zeros((10, 10), dtype=complex)
    assert cache.lookup(("big",)) == (None, False)
    assert cache.lookup(("big",)) == (None, True)
    cache.store(("big",), w, v)
    assert len(cache) == 0 and cache.nbytes == 0


def test_lru_evicts_least_recently_used():
    entry = 2 * np.zeros(4).nbytes
    cache = gates._EigenpairCache(max_bytes=2 * entry, max_seen=8)
    for key in ("a", "b"):
        cache.store((key,), np.zeros(4), np.zeros(4))
    cache.lookup(("a",))  # "b" is now the least recently used
    cache.store(("c",), np.zeros(4), np.zeros(4))
    assert list(cache._entries) == [("a",), ("c",)]


def test_grad_findiff_threads_match_serial_bitwise():
    # two threads evaluate the same cost probes through the shared cache
    import threading

    ansatz = Ansatz(40)
    theta = np.array([-0.03, 0.05, -0.02])

    def fn(t):
        return cost(t, ansatz)

    def in_two_threads():
        grads = [None, None]

        def work(k):
            grads[k] = grad_findiff(fn, theta, 1e-3)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        return grads

    CACHE.clear()
    serial = grad_findiff(fn, theta, 1e-3)
    CACHE.clear()
    for grad in in_two_threads() + in_two_threads():  # cold cache, then warm
        assert np.array_equal(serial, grad)


def test_concurrent_lookups_and_stores_keep_the_byte_count():
    # more threads than cores and a short switch interval, so a lost update
    # of the byte count or the LRU order would show
    import sys
    import threading

    entry = 2 * np.zeros(16).nbytes
    cache = gates._EigenpairCache(max_bytes=10 * entry, max_seen=32)
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(2000):
                key = (int(rng.integers(40)),)
                hit, admit = cache.lookup(key)
                if admit:
                    cache.store(key, np.zeros(16), np.zeros(16))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert 0 < len(cache) <= 10
    assert cache.nbytes == sum(w.nbytes + v.nbytes for w, v in cache._entries.values())
    assert len(cache._seen) <= 32


# the kinds with G = D J_x^2 D^dag, D = exp(-i alpha J_z): GMS at four
# azimuths (one past 2 pi), RX2, RY2 and OAT about x and y
QUADRATIC_SPECS = tuple(GateSpec("GMS", (1.0, phi)) for phi in (0.0, 0.7, -2.3, 7.0)) + (
    GateSpec("RX2", (1.0,)),
    GateSpec("RY2", (1.0,)),
    GateSpec("OAT", (1.0,), axes="x"),
    GateSpec("OAT", (1.0,), axes="y"),
)


@pytest.mark.parametrize("twoj", [0, 1, 2, 7, 80, 200, 400])
@pytest.mark.parametrize(
    "spec", QUADRATIC_SPECS, ids=lambda s: f"{s.kind}{''.join(s.axes or ())}{s.params[1:]}"
)
def test_shared_basis_matches_dense_eigh(spec, twoj):
    # K from the halves of J_x^2 against exp(-i t G_j) from a dense complex
    # eigh of G_j itself.  The reference's roundoff grows with |t| ||G_j||,
    # about |t| j(j+1) ulps, so the bound does too.  The entries that join the
    # two parities are zero by value (the azimuth's phases may leave -0).
    j = twoj / 2.0
    gen, _ = generator(spec, build_ledger(twoj or 2), (j,))
    w, v = np.linalg.eigh(gen.bands(j).dense())
    off_parity = np.add.outer(np.arange(twoj + 1), np.arange(twoj + 1)) % 2 == 1
    for theta in (0.02, 1.0, np.pi, -np.pi):
        want = (v * np.exp(-1j * theta * w)) @ v.conj().T
        got = exponentiate(gen, theta)[j]
        tol = 1e-14 + 4 * 2.2e-16 * abs(theta) * j * (j + 1)
        assert np.abs(got - want).max() <= tol, f"theta = {theta}"
        assert np.all(got[off_parity] == 0), f"theta = {theta}"


def test_quadratic_kinds_share_one_entry_per_block(monkeypatch):
    state = mixed_state(7)
    specs = (GateSpec("GMS", (0.45, 0.8)), GateSpec("GMS", (-0.2, 2.9))) + tuple(
        GateSpec(s.kind, (0.3,) + s.params[1:], s.axes) for s in QUADRATIC_SPECS[4:]
    )
    for spec in specs:
        apply_gate(state, spec)
    assert sorted(CACHE._entries) == sorted((int(2 * j),) for j in state.active_js)
    for w, v in CACHE._entries.values():
        assert w.dtype == v.dtype == np.float64
    with monkeypatch.context() as patch:
        forbid_eigh(patch)
        hits = [apply_gate(state, spec) for spec in specs]
    for spec, hit in zip(specs, hits):
        CACHE.clear()
        assert_states_equal(hit, apply_gate(state, spec))


def test_large_block_keeps_one_half_size_entry(monkeypatch):
    # the halves of J_x^2 at 2j = 1000 take 3.83 MiB, inside the budget, and
    # serve a GMS at any other azimuth and angle without an eigh
    j = 500.0
    ledger = build_ledger(1000)
    gen, theta = generator(GateSpec("GMS", (0.3, 0.4)), ledger, (j,))
    for _ in range(2):
        exponentiate(gen, theta)
    assert list(CACHE._entries) == [(1000,)]
    w, v = CACHE._entries[(1000,)]
    assert w.dtype == v.dtype == np.float64
    assert w.shape == (1001,) and v.shape == (1001, 501)
    assert np.array_equal(w, np.sort(np.square(j - np.arange(1001))))  # exactly the m^2
    gen, theta = generator(GateSpec("GMS", (-1.1, 2.5)), ledger, (j,))
    with monkeypatch.context() as patch:
        forbid_eigh(patch)
        hit = exponentiate(gen, theta)[j]
    CACHE.clear()
    assert hit.tobytes() == exponentiate(gen, theta)[j].tobytes()


def _hermitian_parity_specs():
    """Every catalog kind x axes whose generator is Hermitian with band
    offsets in {-2, 0, 2}, at arbitrary parameters."""
    specs = []
    for kind, (n_params, arity) in gates.GATE_KINDS.items():
        allowed = gates._SINGLE_AXES if kind == "OAT" else gates._ALL_AXES
        for axes in itertools.product(allowed, repeat=arity):
            spec = GateSpec(kind, (0.7, -1.3)[:n_params], axes or None)
            gen, _ = generator(spec, build_ledger(2))
            if gen.hermitian and gen.offsets <= gates._PARITY_OFFSETS:
                specs.append(spec)
    return specs


@pytest.mark.parametrize(
    "spec", _hermitian_parity_specs(), ids=lambda s: f"{s.kind}{''.join(s.axes or ())}"
)
def test_parity_split_decomposes_a_real_matrix(spec, monkeypatch):
    # _parity_eigh keeps the real part of the matrix it is given, so that
    # matrix (G_j, or J_x^2 for the quadratic rotations) must be real
    split, seen = gates._parity_eigh, []

    def real_only(r, j):
        for diag in r.diags.values():
            assert not np.iscomplexobj(diag) or not diag.imag.any(), f"j = {j}"
        seen.append(j)
        return split(r, j)

    monkeypatch.setattr(gates, "_parity_eigh", real_only)
    gen, theta = generator(spec, build_ledger(9))
    exponentiate(gen, theta)
    assert seen == ([] if gen.offsets == {0} else list(gen.js))


# the kinds whose real G_j keeps the parity of m: TAT over two distinct axes
# of x, y, z, and TNT(x|y, z) at two couplings
PARITY_SPECS = tuple(
    GateSpec("TAT", (1.0,), axes=a + b) for a in "xyz" for b in "xyz" if a != b
) + tuple(GateSpec("TNT", (1.0, c), axes=a + "z") for a in "xy" for c in (2.5, -0.7))


@pytest.mark.parametrize("twoj", [0, 1, 2, 7, 80, 200, 400])
@pytest.mark.parametrize(
    "spec", PARITY_SPECS, ids=lambda s: f"{s.kind}{''.join(s.axes)}{s.params[1:]}"
)
def test_parity_split_matches_dense_eigh(spec, twoj):
    # K from the two real halves against exp(-i t G_j) from a dense complex
    # eigh of G_j; the entries that join the two parities are exact zeros.
    # The bound is that of test_shared_basis_matches_dense_eigh with ||G_j||
    # for j(j+1) (TNT's N/Lambda J_z can exceed j^2) and 8 ulps for 4: against
    # a 30-digit evaluation at TAT(xz), 2j = 400, the reference is off by up
    # to 5.2 ulp |t| ||G_j|| and the split form by up to 3.0.
    j = twoj / 2.0
    gen, _ = generator(spec, build_ledger(twoj or 2), (j,))
    w, v = np.linalg.eigh(gen.bands(j).dense())
    off_parity = np.add.outer(np.arange(twoj + 1), np.arange(twoj + 1)) % 2 == 1
    for theta in (0.02, 1.0, np.pi, -np.pi):
        want = (v * np.exp(-1j * theta * w)) @ v.conj().T
        got = exponentiate(gen, theta)[j]
        tol = 1e-14 + 8 * 2.2e-16 * abs(theta) * np.abs(w).max()
        assert np.abs(got - want).max() <= tol, f"theta = {theta}"
        assert got[off_parity].tobytes() == bytes(got[off_parity].nbytes)  # +0, not -0


@pytest.mark.parametrize(
    "spec", PARITY_SPECS, ids=lambda s: f"{s.kind}{''.join(s.axes)}{s.params[1:]}"
)
def test_parity_split_keeps_one_real_entry_per_block(spec, monkeypatch):
    state = mixed_state(7)
    cold = apply_gate(state, spec)
    apply_gate(state, spec)
    assert sorted(CACHE._entries) == sorted(
        (int(2 * j),) + generator(spec, state.ledger)[0].key for j in state.active_js
    )
    for (twoj, *_), (w, v) in CACHE._entries.items():
        assert w.dtype == v.dtype == np.float64
        assert w.shape == (twoj + 1,) and v.shape == (twoj + 1, twoj // 2 + 1)
    forbid_eigh(monkeypatch)
    assert_states_equal(cold, apply_gate(state, spec))


# the kinds whose real R_j = J_z^2 - w J_x is unchanged by the storage
# reversal m -> -m: TNT(z, x), and TNT(z, y) = D R D^dag, at two couplings
FLIP_SPECS = tuple(GateSpec("TNT", (1.0, c), axes="z" + b) for b in "xy" for c in (2.5, -0.7))


def flip_id(spec):
    return f"TNT{''.join(spec.axes)}{spec.params[1:]}"


@pytest.mark.parametrize("twoj", [0, 1, 2, 7, 80, 200, 400])
@pytest.mark.parametrize("spec", FLIP_SPECS, ids=flip_id)
def test_flip_split_matches_dense_eigh(spec, twoj):
    # K from the two folded real halves, and a random ket's update, which
    # forms no K_j, against exp(-i t G_j) from a dense complex eigh of G_j,
    # in the bound of test_parity_split_matches_dense_eigh
    j = twoj / 2.0
    ledger = build_ledger(twoj or 2)
    gen, _ = generator(spec, ledger, (j,))
    w, v = np.linalg.eigh(gen.bands(j).dense())
    rng = np.random.default_rng(2200 + twoj)
    psi = rng.normal(size=twoj + 1) + 1j * rng.normal(size=twoj + 1)
    state = CollectiveState._pure(ledger, j, psi / np.linalg.norm(psi))
    for theta in (0.02, 1.0, np.pi, -np.pi):
        want = (v * np.exp(-1j * theta * w)) @ v.conj().T
        got = exponentiate(gen, theta)[j]
        ket = apply_gate(state, GateSpec("TNT", (theta,) + spec.params[1:], spec.axes))._ket[1]
        tol = 1e-14 + 8 * 2.2e-16 * abs(theta) * np.abs(w).max()
        assert np.abs(got - want).max() <= tol, f"theta = {theta}"
        assert np.abs(ket - want @ state._ket[1]).max() <= tol, f"theta = {theta}"


# every parity- or flip-split kind and axis pair once: the quadratic
# rotations, TAT over two of x, y, z, TNT(x|y, z) and TNT(z, x|y)
SPLIT_SPECS = (
    GateSpec("RX2", (1.0,)),
    GateSpec("RY2", (1.0,)),
    GateSpec("OAT", (1.0,), axes="x"),
    GateSpec("OAT", (1.0,), axes="y"),
    GateSpec("GMS", (1.0, 0.8)),
) + PARITY_SPECS[:6] + tuple(GateSpec("TNT", (1.0, 2.5), axes=a) for a in ("xz", "yz", "zx", "zy"))


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=lambda s: f"{s.kind}{''.join(s.axes or ())}")
def test_split_gate_on_rho_matches_dense_eigh(spec):
    # rho -> (K (K rho)^dag)^dag from the split kernel, which forms no K_j,
    # against V e^{-i t w} V^dag rho (.)^dag from a dense complex eigh of G_j,
    # in the bound of test_parity_split_matches_dense_eigh scaled by ||rho||
    for twoj in (0, 1, 2, 7, 80, 200):
        j = twoj / 2.0
        ledger = build_ledger(twoj or 2)
        gen, _ = generator(spec, ledger, (j,))
        assert gen.split or gen.flip
        w, v = np.linalg.eigh(gen.bands(j).dense())
        rng = np.random.default_rng(2300 + twoj)
        a = rng.normal(size=(twoj + 1, twoj + 1)) + 1j * rng.normal(size=(twoj + 1, twoj + 1))
        rho = a @ a.conj().T
        state = CollectiveState(ledger, {j: rho / np.trace(rho).real})
        rho = state.block(j)
        for theta in (0.02, 1.0, np.pi, -np.pi):
            k = (v * np.exp(-1j * theta * w)) @ v.conj().T
            got = apply_gate(state, GateSpec(spec.kind, (theta,) + spec.params[1:], spec.axes))
            assert got.active_js == (j,) and not got.conditional
            tol = (1e-14 + 8 * 2.2e-16 * abs(theta) * np.abs(w).max()) * np.linalg.norm(rho, 2)
            diff = np.abs(got.block(j) - k @ rho @ k.conj().T).max()
            assert diff <= tol, f"2j = {twoj}, theta = {theta}"


def test_split_gate_on_rho_admits_on_second_use():
    # one eigenpair fetch per block per gate, although rho takes the split
    # kernel twice: the first gate stores nothing, the second one entry per
    # active block
    state = mixed_state(7)
    for spec in (GateSpec("GMS", (0.45, 0.8)), GateSpec("TNT", (0.35, 2.5), axes="zy")):
        CACHE.clear()
        apply_gate(state, spec)
        assert len(CACHE) == 0
        apply_gate(state, spec)
        assert sorted(CACHE._entries) == sorted(
            (int(2 * j),) + generator(spec, state.ledger)[0].key for j in state.active_js
        )


def test_split_gate_on_rho_copies_no_block_again():
    # x = K rho, its conjugate transpose and the result, with each half's
    # products: with a warm cache a split gate on one block peaks at about
    # 2.2 d x d complex arrays, 2.4 for the flip split, whose butterfly runs
    # in place with one half-size temporary (a folded copy of x took 3.4, the
    # K_j checkerboard 3.0 and 3.9), so no block is copied again on its way
    # into the new state.  A formed K_j adds itself (RN: about 3.2), and a
    # phase vector peaks as the parity split does (RZ: about 2.2)
    d = 201
    ledger = build_ledger(d - 1)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    state = CollectiveState(ledger, {(d - 1) / 2: a @ a.conj().T / np.trace(a @ a.conj().T).real})
    for spec, blocks in (
        (GateSpec("GMS", (0.45, 0.8)), 3.0),
        (GateSpec("TNT", (0.3, 2.5), axes="zx"), 3.0),
        (GateSpec("TNT", (0.3, 2.5), axes="zy"), 3.0),
        (GateSpec("RN", (0.9, 2.1)), 4.0),
        (GateSpec("RZ", (2.1,)), 3.0),
    ):
        for _ in range(2):
            apply_gate(state, spec)
        tracemalloc.start()
        try:
            apply_gate(state, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < blocks * 16 * d * d, spec


def real_eigh_only(monkeypatch):
    """Patch np.linalg.eigh to refuse complex input; returns the sizes seen."""
    eigh, sizes = np.linalg.eigh, []

    def real_only(a, *args, **kwargs):
        assert not np.iscomplexobj(a), f"complex eigh of size {len(a)}"
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", real_only)
    return sizes


@pytest.mark.parametrize("spec", FLIP_SPECS, ids=flip_id)
def test_flip_split_keeps_one_real_entry_per_block(spec, monkeypatch):
    state, ket = mixed_state(7), css_state(7, 1.1, 2.3)
    with monkeypatch.context() as patch:
        sizes = real_eigh_only(patch)
        cold, cold_ket = apply_gate(state, spec), apply_gate(ket, spec)
        apply_gate(state, spec)
    # real half-size eighs only: the largest block has d = 8
    assert sizes and max(sizes) == 4
    assert sorted(CACHE._entries) == sorted(
        (int(2 * j),) + generator(spec, state.ledger)[0].key for j in state.active_js
    )
    for (twoj, *_), (w, v) in CACHE._entries.items():
        assert w.dtype == v.dtype == np.float64
        assert w.shape == (twoj + 1,) and v.shape == (twoj + 1, twoj // 2 + 1)
    forbid_eigh(monkeypatch)
    assert_states_equal(cold, apply_gate(state, spec))
    assert np.array_equal(cold_ket._ket[1], apply_gate(ket, spec)._ket[1])


def test_tnt_zx_and_zy_share_one_flip_entry(monkeypatch):
    # TNT(z, y) = D R D^dag with TNT(z, x)'s R_j = J_z^2 - w J_x: at equal
    # N/Lambda the two hold one entry per block, and TNT(z, y) on the entry
    # TNT(z, x) stored gives rho and a ket bit for bit as a cold cache does
    state, ket = mixed_state(7), css_state(7, 1.1, 2.3)
    zx, zy = (GateSpec("TNT", (0.35, 2.5), axes=axes) for axes in ("zx", "zy"))
    cold, cold_ket = apply_gate(state, zy), apply_gate(ket, zy)
    CACHE.clear()
    for _ in range(2):
        apply_gate(state, zx)
    keys = sorted(CACHE._entries)
    assert keys == sorted((int(2 * j), (7 / 2.5).hex()) for j in state.active_js)
    forbid_eigh(monkeypatch)
    assert_states_equal(cold, apply_gate(state, zy))
    assert np.array_equal(cold_ket._ket[1], apply_gate(ket, zy)._ket[1])
    assert sorted(CACHE._entries) == keys


def test_flip_split_at_2j_1000(monkeypatch):
    # the folded halves of J_z^2 - w J_x at 2j = 1000 take 3.83 MiB, inside
    # the budget.  A coherent ket's update matches K_j psi from a dense
    # complex eigh; a hit is bit-identical to the cold first request and
    # allocates a few (2j + 1)-vectors, no 16 MB K_j
    state = css_state(1000, 1.1, 2.3)
    spec = GateSpec("TNT", (0.3, 2.5), axes="zx")
    j = 500.0
    gen, theta = generator(spec, state.ledger, (j,))
    w, v = np.linalg.eigh(gen.bands(j).dense())
    psi = state._ket[1]
    want = v @ (np.exp(-1j * theta * w) * (v.conj().T @ psi))
    cold = apply_gate(state, spec)._ket[1]
    apply_gate(state, spec)
    key = (1000,) + gen.key
    assert list(CACHE._entries) == [key]
    w_half, v_half = CACHE._entries[key]
    assert w_half.dtype == v_half.dtype == np.float64
    assert w_half.shape == (1001,) and v_half.shape == (1001, 501)
    forbid_eigh(monkeypatch)
    tracemalloc.start()
    try:
        hit = apply_gate(state, spec)._ket[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.array_equal(cold, hit)
    assert np.abs(cold - want).max() <= 1e-14 + 8 * 2.2e-16 * abs(theta) * np.abs(w).max()
