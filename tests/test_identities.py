"""Group identities of the gate catalog on kets above the oracle's reach.

Each identity holds exactly in the algebra, so it needs no reference
implementation and checks whichever kernel form each side runs on.  Both
sides start from a coherent ket twisted by OAT(z) (or, for two rotations
against one, from the ground ket) at N = 100 and 1000, and must agree within

    C * eps * sum over both sides' gates of |theta| * ||G_j||,

with eps the float64 machine epsilon and the operator norms on the top
block: ||J_a|| = j, ||J_a^2|| = j^2 and ||J_z^2 - w J_x|| <= j^2 + |w| j.
C = 8 allows a few roundings per phase.  It was set before any residue was
measured, and is not fitted to them: the largest reads 1/38 of its bound.
"""

import numpy as np
import pytest

from dickesim import GateSpec, apply_gate, css_state, ground_state

C = 8
EPS = np.finfo(float).eps
LAMBDA = 2.5  # the TNT coupling of the mixed-state smoke run; w = N/Lambda


def gate(kind, *params, axes=None):
    return GateSpec(kind, params, axes)


def norm(spec, j):
    """||G_j|| of the gate's generator on the top block, by the rule above."""
    if spec.kind in ("RX", "RY", "RZ", "RN"):
        return j
    if spec.kind == "TNT":
        return j * j + abs(2.0 * j / spec.params[1]) * j
    return j * j  # RX2, RY2, RZ2, OAT, GMS


def run(state, specs):
    for spec in specs:
        state = apply_gate(state, spec)
    return state._ket[1]


def assert_same(start, left, right):
    """The ket after ``left`` equals the ket after ``right``, within the rule."""
    j = start.n_particles / 2.0
    bound = C * EPS * sum(abs(s.params[0]) * norm(s, j) for s in left + right)
    residue = np.linalg.norm(run(start, left) - run(start, right))
    assert residue <= bound, f"residue {residue:.3g} above {bound:.3g}"


def twisted(n):
    return apply_gate(css_state(n, 1.1, 0.4), gate("OAT", 0.3 / n, axes="z"))


ALPHA = 0.7
IDENTITIES = {
    # RX(0.3) RX(0.5) = RX(0.8)
    "RX group law": ([gate("RX", 0.5), gate("RX", 0.3)], [gate("RX", 0.8)]),
    # RZ(a) RX(b) RZ(-a) = RN(b, a - pi/2): the dense eigh of J_x against RN's own
    "RZ turns RX into RN": ([gate("RZ", -ALPHA), gate("RX", 0.4), gate("RZ", ALPHA)],
                            [gate("RN", 0.4, ALPHA - np.pi / 2)]),
    # RZ(a) RX2(t) RZ(-a) = GMS(t, a): the parity split's gauge
    "RZ turns RX2 into GMS": ([gate("RZ", -ALPHA), gate("RX2", 0.02), gate("RZ", ALPHA)],
                              [gate("GMS", 0.02, ALPHA)]),
    # RZ(pi/2) TNT(zx) RZ(-pi/2) = TNT(zy): the flip split's gauge
    "RZ turns TNT(zx) into TNT(zy)": (
        [gate("RZ", -np.pi / 2), gate("TNT", 0.3, LAMBDA, axes="zx"), gate("RZ", np.pi / 2)],
        [gate("TNT", 0.3, LAMBDA, axes="zy")]),
    # RY(pi/2) RZ2(t) RY(-pi/2) = RX2(t): the parity split against the phase
    # vector, which share no eigenpairs
    "RY turns RZ2 into RX2": ([gate("RY", -np.pi / 2), gate("RZ2", 0.02), gate("RY", np.pi / 2)],
                              [gate("RX2", 0.02)]),
}


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_identity_on_a_twisted_coherent_ket(name, n):
    assert_same(twisted(n), *IDENTITIES[name])


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("kind, extra", [("RX", ()), ("RY", ()), ("RN", (0.9,))])
def test_rotation_through_the_kernel_matches_the_closed_form(kind, extra, n):
    # the first rotation takes the ground ket in closed form, the second runs
    # the kernel on a ket with every entry nonzero; one rotation by the sum
    # is closed form again
    assert_same(ground_state(n), [gate(kind, 1.2, *extra), gate(kind, 0.5, *extra)],
                [gate(kind, 1.7, *extra)])
