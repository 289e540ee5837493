"""Two-graded algebras, odd-part deformations, and connectionlike pairs.

The deformation equivalence (deformed product KV iff the derivation rule
and chain symmetry both hold), the grading bookkeeping on the total
algebra, the per-condition connectionlike report including the two
genuinely different compatibility orientations, and the cocycle/pair
round trip with its rejection taxonomy.
"""

import itertools
import random
from fractions import Fraction

import pytest

from kvcohom.complexes import (
    Cochain,
    coboundary,
    coboundary_matrix,
    is_coboundary,
    is_cocycle,
)
from kvcohom.core import (
    Element,
    KVModule,
    is_kv,
    jacobi_algebra,
    jacobi_module,
    random_kv,
    random_module,
    regular_bimodule,
    semidirect,
    tensor3,
    zero3,
    zero_module,
)
from kvcohom.errors import DimensionError, InputError, PreconditionError
from kvcohom.extensions import bigrade, extend_module_to_semidirect, graded_piece
from kvcohom.fixtures import aff, flat_psi, flat_theta, graded_flat, zero_algebra
from kvcohom.graded import (
    ConnectionlikePair,
    GradedKVAlgebra,
    cocycle_from_connectionlike,
    connectionlike_from_cocycle,
    deform_graded,
    is_connectionlike,
    is_kv_chain,
    is_theta_cocycle,
)
from kvcohom.linalg import Mat, image, kernel, Subspace

F = Fraction


def strip_right(W: KVModule) -> KVModule:
    """Forget the right action; the left-module identity is untouched."""
    return KVModule(
        algebra=W.algebra,
        dim=W.dim,
        left=W.left,
        right=zero3(W.dim, W.algebra.dim, W.dim),
    )


def random_graded(seed: int) -> GradedKVAlgebra:
    A = random_kv(seed)
    W = strip_right(random_module(A, seed + 1))
    return GradedKVAlgebra(even=A, odd=W)


def random_theta(rng: random.Random, m: int) -> tuple:
    return tensor3(
        [
            [[F(rng.choice((-2, -1, 0, 0, 1, 2))) for _ in range(m)] for _ in range(m)]
            for _ in range(m)
        ]
    )


def random_psi(rng: random.Random, n: int, m: int) -> tuple:
    return tensor3(
        [
            [[F(rng.choice((-1, 0, 0, 1))) for _ in range(n)] for _ in range(m)]
            for _ in range(n)
        ]
    )


def theta_cocycle_family(c00, c01, c10, c11) -> tuple:
    """The four-parameter derivation-rule solutions over the flat fixture.

    Scaling-degree bookkeeping pins theta(w_i, w_j) to the w_{i+j} line and
    the second generator forces the two off-diagonal coefficient pairs to
    agree; the parameters below sweep that whole solution space.
    """
    data = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    data[0][0][0] = F(c00)
    data[0][1][1] = F(c01)
    data[0][2][2] = F(c01)
    data[1][0][1] = F(c10)
    data[2][0][2] = F(c10)
    data[1][1][2] = F(c11)
    return tensor3(data)


def scale_theta(theta, t) -> tuple:
    return tensor3([[[F(t) * x for x in row] for row in plane] for plane in theta])


# ---------------------------------------------------------------------------
# construction and validation


def test_flat_fixture_builds_with_expected_dimensions():
    G = graded_flat()
    assert (G.n, G.m, G.dim) == (2, 3, 5)
    total = G.total()
    assert total.dim == 5
    # e1 e2 = e2 survives in the even block, the left action fills the
    # mixed block, and both odd-argument blocks are zero.
    assert total.product[0][1][1] == 1
    assert total.product[0][3][3] == 1  # e1 . w1 = w1
    assert total.product[1][3][4] == 1  # e2 . w1 = w2
    for al in range(3):
        for y in range(5):
            assert all(x == 0 for x in total.product[2 + al][y])


def test_rejects_nonzero_right_action():
    A = aff()
    right = [[[F(0)] * 1 for _ in range(2)] for _ in range(1)]
    right[0][0][0] = F(1)
    W = KVModule(algebra=A, dim=1, left=zero3(2, 1, 1), right=tensor3(right))
    with pytest.raises(InputError):
        GradedKVAlgebra(even=A, odd=W)


def test_rejects_unverified_odd_part():
    # rho(e1) = 0 and rho(e2) = 1 contradicts (a, b, w) = (b, a, w) because
    # e1 e2 = e2 acts by 1 on the left route and by 0 on the swapped one.
    A = aff()
    W = KVModule(
        algebra=A,
        dim=1,
        left=tensor3([[[0]], [[1]]]),
        right=zero3(1, 2, 1),
    )
    with pytest.raises(PreconditionError):
        GradedKVAlgebra(even=A, odd=W)


def test_rejects_module_over_a_different_algebra():
    B = zero_algebra(2)
    W = zero_module(B, 1)
    with pytest.raises(DimensionError):
        GradedKVAlgebra(even=aff(), odd=W)


# ---------------------------------------------------------------------------
# graded components: the pieces of `bigrade` by the number of odd arguments


def test_components_sum_back_to_the_cochain():
    G = graded_flat()
    total = G.total()
    reg = regular_bimodule(total)
    rng = random.Random(11)
    f = Cochain.from_values(
        total, reg, 2, [F(rng.randrange(-3, 4)) for _ in range(5 * 5 * 5)]
    )
    acc = Cochain.zero(total, reg, 2)
    for odd, even, comp in bigrade(f, G.n):
        assert odd + even == 2
        acc = acc + comp.cochain
    assert acc == f


def test_component_slots_are_exactly_the_homogeneous_ones():
    G = graded_flat()
    theta_only = cocycle_from_connectionlike(G, ConnectionlikePair(flat_theta(), zero3(2, 3, 2)))
    psi_only = cocycle_from_connectionlike(G, ConnectionlikePair(zero3(3, 3, 3), flat_psi()))
    f = cocycle_from_connectionlike(
        G, ConnectionlikePair(theta=flat_theta(), psi=flat_psi())
    )
    # theta takes the odd-odd slots with odd values, psi both mixed slots
    # with even values, and no piece has two even arguments
    assert [(odd, comp.cochain) for odd, _, comp in bigrade(f, G.n)] == [(1, psi_only), (2, theta_only)]
    for i in range(2):
        for al in range(3):
            assert list(psi_only.value((i, 2 + al))) == list(flat_psi()[i][al]) + [0] * 3
            assert psi_only.value((i, 2 + al)) == psi_only.value((2 + al, i))
            for be in range(3):
                assert list(theta_only.value((2 + al, 2 + be))) == [0] * 2 + list(flat_theta()[al][be])


def test_pure_even_cochain_has_one_component():
    G = graded_flat()
    total = G.total()
    reg = regular_bimodule(total)

    def fn(args):
        x, y = args
        out = [F(0)] * 5
        if x < 2 and y < 2:
            out[0] = F(1 + x + 2 * y)
        return out

    f = Cochain.from_function(total, reg, 2, fn)
    assert [(odd, even, comp.cochain) for odd, even, comp in bigrade(f, G.n)] == [(0, 2, f)]


# ---------------------------------------------------------------------------
# chains


def test_flat_theta_is_a_commutative_chain():
    th = flat_theta()
    for i in range(3):
        for j in range(3):
            assert th[i][j] == th[j][i]
    assert is_kv_chain(th)


def test_zero_theta_is_a_chain():
    assert is_kv_chain(zero3(3, 3, 3))


def test_engineered_non_chain_has_a_witness():
    # theta(w1, w1) = w1 and theta(w2, w1) = w1: the associator on
    # (w1, w2, w1) is -w1 while the swap gives 0.
    data = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    data[0][0][0] = F(1)
    data[1][0][0] = F(1)
    verdict = is_kv_chain(tensor3(data))
    assert not verdict
    assert verdict.witness == (0, 1, 0)


# ---------------------------------------------------------------------------
# the derivation rule


def test_flat_theta_satisfies_the_derivation_rule():
    G = graded_flat()
    assert is_theta_cocycle(G, flat_theta())


def test_derivation_rule_violation_carries_a_witness():
    G = graded_flat()
    data = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    data[1][1][0] = F(1)  # theta(w1, w1) = w0 clashes with the scaling action
    verdict = is_theta_cocycle(G, tensor3(data))
    assert not verdict
    assert verdict.witness == (0, 1, 1)


def test_zero_action_makes_every_theta_a_cocycle():
    A = zero_algebra(2)
    G = GradedKVAlgebra(even=A, odd=zero_module(A, 2))
    rng = random.Random(5)
    for _ in range(5):
        assert is_theta_cocycle(G, random_theta(rng, 2))


def test_cocycle_family_over_the_flat_fixture():
    G = graded_flat()
    rng = random.Random(17)
    for _ in range(10):
        th = theta_cocycle_family(
            rng.randrange(-3, 4),
            rng.randrange(-3, 4),
            rng.randrange(-3, 4),
            rng.randrange(-3, 4),
        )
        assert is_theta_cocycle(G, th)


def derivation_defect(G, theta, i, al, be):
    """e_i theta(w_al, w_be) - theta(e_i w_al, w_be) - theta(w_al, e_i w_be)."""
    m, left = G.m, G.odd.left
    return [
        sum(theta[al][be][ga] * left[i][ga][k] for ga in range(m))
        - sum(left[i][al][ga] * theta[ga][be][k] for ga in range(m))
        - sum(left[i][be][ga] * theta[al][ga][k] for ga in range(m))
        for k in range(m)
    ]


def test_embedded_coboundary_places_the_derivation_defect():
    # delta of theta on the odd-odd slots is -defect on (e_i, w, w'),
    # +defect on (w, e_i, w') and zero elsewhere; is_theta_cocycle
    # witnesses its first nonzero (e_i, w, w') slot
    rng = random.Random(41)
    cases = [(graded_flat(), flat_theta()), (graded_flat(), theta_cocycle_family(1, -2, 3, 1))]
    cases += [(graded_flat(), random_theta(rng, 3)) for _ in range(3)]
    for seed in range(8):
        G = random_graded(100 + seed)
        cases += [(G, random_theta(rng, G.m)), (G, zero3(G.m, G.m, G.m))]
    verdicts = set()
    for G, th in cases:
        n, N = G.n, G.dim
        d = coboundary(cocycle_from_connectionlike(G, ConnectionlikePair(th, zero3(n, G.m, n))))
        expected = {}
        for i, al, be in itertools.product(range(n), range(G.m), range(G.m)):
            defect = derivation_defect(G, th, i, al, be)
            expected[(i, n + al, n + be)] = tuple([F(0)] * n + [-x for x in defect])
            expected[(n + al, i, n + be)] = tuple([F(0)] * n + defect)
        zero = (F(0),) * N
        for args in itertools.product(range(N), repeat=3):
            assert d.value(args) == expected.get(args, zero), args
        bad = [
            (i, al, be)
            for i, al, be in itertools.product(range(n), range(G.m), range(G.m))
            if any(d.value((i, n + al, n + be)))
        ]
        verdict = is_theta_cocycle(G, th)
        assert bool(verdict) == (not bad)
        assert verdict.witness == (bad[0] if bad else None)
        verdicts.add(bool(verdict))
    assert verdicts == {True, False}


def test_total_is_built_once_and_stays_out_of_equality_hash_and_repr():
    G = graded_flat()
    assert G.total() is G.total()
    assert G.total() == semidirect(G.even, G.odd)
    twin = GradedKVAlgebra(G.even, G.odd)
    assert twin == G and hash(twin) == hash(G)
    assert repr(G) == f"GradedKVAlgebra(even={G.even!r}, odd={G.odd!r})"


# ---------------------------------------------------------------------------
# deformations


def test_zero_theta_deforms_to_the_total_product():
    G = graded_flat()
    assert deform_graded(G, zero3(3, 3, 3)).product == G.total().product


def test_flat_deformation_is_kv_with_the_expected_products():
    G = graded_flat()
    D = deform_graded(G, flat_theta())
    assert is_kv(D)
    assert D.product[2][3][3] == 1  # w0 w1 = w1
    assert D.product[3][3][4] == 1  # w1 w1 = w2
    assert all(x == 0 for x in D.product[3][4])  # w1 w2 = 0 (truncation)
    assert D.product[0][1][1] == 1  # even block untouched
    assert D.product[0][3][3] == 1  # mixed block untouched
    assert all(x == 0 for x in D.product[3][0])  # W . A stays zero


def test_scaled_family_deforms_to_kv_at_every_sampled_t():
    G = graded_flat()
    for t in (1, -1, F(1, 2), 3):
        th = scale_theta(flat_theta(), t)
        assert is_theta_cocycle(G, th)
        assert is_kv_chain(th)
        assert is_kv(deform_graded(G, th))


def test_cocycle_without_chain_symmetry_fails_kv():
    G = graded_flat()
    th = theta_cocycle_family(0, 1, 1, 0)
    assert is_theta_cocycle(G, th)
    assert not is_kv_chain(th)
    assert not is_kv(deform_graded(G, th))


def test_chain_without_cocycle_fails_kv():
    G = graded_flat()
    data = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    data[1][1][0] = F(1)
    th = tensor3(data)
    assert is_kv_chain(th)
    assert not is_theta_cocycle(G, th)
    assert not is_kv(deform_graded(G, th))


def test_deformation_equivalence_on_random_thetas():
    G = graded_flat()
    rng = random.Random(23)
    seen = set()
    for k in range(50):
        if k % 2 == 0:
            th = theta_cocycle_family(
                rng.randrange(-2, 3),
                rng.randrange(-2, 3),
                rng.randrange(-2, 3),
                rng.randrange(-2, 3),
            )
        else:
            th = random_theta(rng, 3)
        expected = bool(is_theta_cocycle(G, th)) and bool(is_kv_chain(th))
        assert bool(is_kv(deform_graded(G, th))) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_deformation_equivalence_on_random_graded_algebras():
    for seed in range(20):
        G = random_graded(100 + seed)
        rng = random.Random(200 + seed)
        th = random_theta(rng, G.m)
        expected = bool(is_theta_cocycle(G, th)) and bool(is_kv_chain(th))
        assert bool(is_kv(deform_graded(G, th))) == expected


# ---------------------------------------------------------------------------
# grading bookkeeping on the total algebra


def test_coboundary_preserves_odd_argument_count_on_extended_coefficients():
    # Coefficients in an even-part module extended by a zero odd action:
    # the differential adds one even argument and keeps the odd count.
    G = graded_flat()
    total = G.total()
    V = extend_module_to_semidirect(total, G.n, regular_bimodule(aff()))
    rng = random.Random(31)
    for degree in (1, 2):
        f = Cochain.from_values(
            total, V, degree, [F(rng.randrange(-2, 3)) for _ in range(5**degree * 2)]
        )
        for p in range(degree + 1):
            d = coboundary(graded_piece(f, G.n, p))
            degrees = {pp for pp, _, _ in bigrade(d, G.n)}
            assert degrees <= {p}


def test_odd_valued_chains_form_a_subcomplex():
    G = graded_flat()
    total = G.total()
    reg = regular_bimodule(total)
    rng = random.Random(37)
    for _ in range(10):

        def fn(args):
            return [F(0)] * 2 + [F(rng.randrange(-2, 3)) for _ in range(3)]

        f = Cochain.from_function(total, reg, 2, fn)
        d = coboundary(f)
        for args in itertools.product(range(5), repeat=3):
            assert all(x == 0 for x in d.value(args)[:2])


def test_even_valued_chains_do_not_form_a_subcomplex():
    # An asymmetric mixed cochain: psi on (a, w) slots only.  Its
    # coboundary picks up an odd-valued term psi(a,w).w', so the
    # even-valued span is not closed under the differential.
    G = graded_flat()
    total = G.total()
    reg = regular_bimodule(total)
    psi = flat_psi()

    def fn(args):
        x, y = args
        out = [F(0)] * 5
        if x < 2 <= y:
            for k in range(2):
                out[k] = psi[x][y - 2][k]
        return out

    d = coboundary(Cochain.from_function(total, reg, 2, fn))
    leaked = any(
        any(x != 0 for x in d.value(args)[2:])
        for args in itertools.product(range(5), repeat=3)
    )
    assert leaked


def test_symmetric_mixed_coboundary_vanishes_exactly_with_the_flow_rule():
    G = graded_flat()
    rng = random.Random(41)
    cases = [flat_psi()] + [random_psi(rng, 2, 3) for _ in range(10)]
    for psi in cases:
        pair = ConnectionlikePair(theta=zero3(3, 3, 3), psi=psi)
        emb = cocycle_from_connectionlike(G, pair)
        report = is_connectionlike(G, pair)
        assert coboundary(emb).is_zero() == bool(report.flow_rule_even)


def test_jacobi_grading_of_the_flat_fixture():
    G = graded_flat()
    JA = jacobi_algebra(G.even)
    JW = jacobi_module(G.even, G.odd)
    JG = jacobi_algebra(G.total())
    assert (JA.dim, JW.dim, JG.dim) == (1, 1, 2)
    assert JG.contains([F(1), F(0), F(0), F(0), F(0)])  # e1
    assert JG.contains([F(0), F(0), F(1), F(0), F(0)])  # w0


def test_jacobi_grading_inclusions_hold_on_random_instances():
    for seed in range(15):
        G = random_graded(300 + seed)
        n, m, N = G.n, G.m, G.dim
        JG = jacobi_algebra(G.total())
        JW = jacobi_module(G.even, G.odd)
        for v in JW.basis:
            assert JG.contains([F(0)] * n + list(v))
        JA = jacobi_algebra(G.even)
        summed = Subspace.from_vectors(
            N,
            [list(v) + [F(0)] * m for v in JA.basis]
            + [[F(0)] * n + list(v) for v in JW.basis],
        )
        for v in JG.basis:
            assert summed.contains(v)


# ---------------------------------------------------------------------------
# connectionlike reports


def test_flat_pair_is_connectionlike():
    G = graded_flat()
    report = is_connectionlike(G, ConnectionlikePair(theta=flat_theta(), psi=flat_psi()))
    assert report.psi_symmetric
    assert report.theta_cocycle
    assert report.theta_psi_compat
    assert report.theta_psi_compat_alt
    assert report.flow_rule_even
    assert report.derivation_rule
    assert not report.degenerate
    assert report.holds


def test_zero_pair_holds_vacuously_but_is_degenerate():
    G = graded_flat()
    report = is_connectionlike(G, ConnectionlikePair(theta=zero3(3, 3, 3), psi=zero3(2, 3, 2)))
    assert report.holds
    assert report.degenerate


def test_pair_failing_only_the_cocycle_condition():
    G = graded_flat()
    data = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    data[1][1][0] = F(1)
    report = is_connectionlike(G, ConnectionlikePair(theta=tensor3(data), psi=zero3(2, 3, 2)))
    assert not report.theta_cocycle
    assert not report.derivation_rule
    assert report.psi_symmetric
    assert report.theta_psi_compat
    assert report.theta_psi_compat_alt
    assert report.flow_rule_even
    assert not report.holds


def test_the_two_compatibility_orientations_genuinely_differ():
    # Over a zero product every theta is a cocycle and the flow rule is
    # vacuous, so the report isolates the two orientations.  With
    # psi(e1, w0) = e1, psi(e1, w1) = e2 the double contraction
    # psi(w, psi(w', a)) is asymmetric in (w, w'), and theta is tuned to
    # match one argument order but not the other.
    A = zero_algebra(2)
    G = GradedKVAlgebra(even=A, odd=zero_module(A, 2))
    psi = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    psi[0][0][0] = F(1)
    psi[0][1][1] = F(1)
    theta = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    theta[0][0][0] = F(1)
    theta[1][0][1] = F(1)
    report = is_connectionlike(
        G, ConnectionlikePair(theta=tensor3(theta), psi=tensor3(psi))
    )
    assert report.theta_psi_compat
    assert not report.theta_psi_compat_alt
    assert report.theta_cocycle
    assert report.holds


def test_report_fields_match_a_brute_force_recomputation():
    G = graded_flat()
    n, m = 2, 3
    gamma = G.even.product
    left = G.odd.left
    rng = random.Random(47)

    def psi_of(psi, avec, wvec):
        out = [F(0)] * n
        for i in range(n):
            for al in range(m):
                c = avec[i] * wvec[al]
                if c:
                    for k in range(n):
                        out[k] += c * psi[i][al][k]
        return out

    for _ in range(5):
        th = random_theta(rng, m)
        psi = random_psi(rng, n, m)
        report = is_connectionlike(G, ConnectionlikePair(theta=th, psi=psi))

        def unit(k, d):
            return [F(1) if t == k else F(0) for t in range(d)]

        compat = all(
            psi_of(psi, unit(i, n), th[al][be])
            == psi_of(psi, psi_of(psi, unit(i, n), unit(be, m)), unit(al, m))
            for al in range(m)
            for be in range(m)
            for i in range(n)
        )
        alt = all(
            psi_of(psi, unit(i, n), th[be][ga])
            == psi_of(psi, psi_of(psi, unit(i, n), unit(be, m)), unit(ga, m))
            for i in range(n)
            for be in range(m)
            for ga in range(m)
        )
        flow = all(
            [sum(psi[j][ga][k] * gamma[i][k][t] for k in range(n)) for t in range(n)]
            == [
                sum(gamma[i][j][k] * psi[k][ga][t] for k in range(n))
                + sum(left[i][ga][de] * psi[j][de][t] for de in range(m))
                for t in range(n)
            ]
            for i in range(n)
            for j in range(n)
            for ga in range(m)
        )
        assert bool(report.theta_psi_compat) == compat
        assert bool(report.theta_psi_compat_alt) == alt
        assert bool(report.flow_rule_even) == flow


# ---------------------------------------------------------------------------
# the cocycle/pair correspondence


def test_fixture_embedding_evaluates_like_the_split_formula():
    # c((a,w),(a',w')) = (psi(a,w') + psi(w,a'), theta(w,w')).
    G = graded_flat()
    c = cocycle_from_connectionlike(
        G, ConnectionlikePair(theta=flat_theta(), psi=flat_psi())
    )
    x = Element(tuple(F(v) for v in (1, 0, 1, 0, 0)))  # e1 + w0
    y = Element(tuple(F(v) for v in (0, 1, 0, 1, 0)))  # e2 + w1
    # psi(e1, w1) + psi(w0, e2) = e2 + e2, theta(w0, w1) = w1
    assert c.evaluate([x, y]).coords == tuple(F(v) for v in (0, 2, 0, 1, 0))


def test_flat_pair_round_trips_through_its_cocycle():
    G = graded_flat()
    pair = ConnectionlikePair(theta=flat_theta(), psi=flat_psi())
    c = cocycle_from_connectionlike(G, pair)
    assert coboundary(c).is_zero()
    out = connectionlike_from_cocycle(G, c)
    assert out
    assert out.pair.theta == flat_theta()
    assert out.pair.psi == flat_psi()
    assert is_kv(deform_graded(G, out.pair.theta))


def test_zero_cocycle_extracts_the_degenerate_pair():
    G = graded_flat()
    total = G.total()
    out = connectionlike_from_cocycle(
        G, Cochain.zero(total, regular_bimodule(total), 2)
    )
    assert out
    assert out.pair.is_zero()
    assert is_connectionlike(G, out.pair).degenerate


def bump(c: Cochain, args, coord, amount=F(1)) -> Cochain:
    vals = list(c.values)
    vals[c.offset(args) + coord] += amount
    return Cochain(c.algebra, c.module, c.degree, tuple(vals))


def test_extraction_rejects_each_defect_with_a_reason():
    G = graded_flat()
    pair = ConnectionlikePair(theta=flat_theta(), psi=flat_psi())
    c = cocycle_from_connectionlike(G, pair)

    out = connectionlike_from_cocycle(G, bump(c, (0, 0), 0))
    assert not out and "even-even" in out.reason
    out = connectionlike_from_cocycle(G, bump(c, (0, 2), 3))
    assert not out and "odd-valued" in out.reason
    out = connectionlike_from_cocycle(G, bump(c, (2, 3), 0))
    assert not out and "even-valued" in out.reason
    out = connectionlike_from_cocycle(G, bump(c, (0, 2), 0))
    assert not out and "not symmetric" in out.reason

    # symmetric shape, but psi(e1, w2) = e1 breaks the flow rule: not a cocycle
    bad_psi = [[[F(0)] * 2 for _ in range(3)] for _ in range(2)]
    bad_psi[0][2][0] = F(1)
    noncocycle = cocycle_from_connectionlike(
        G, ConnectionlikePair(theta=zero3(3, 3, 3), psi=tensor3(bad_psi))
    )
    out = connectionlike_from_cocycle(G, noncocycle)
    assert not out and "not a cocycle" in out.reason

    # a genuine cocycle whose odd-odd part is not a chain
    no_chain = cocycle_from_connectionlike(
        G,
        ConnectionlikePair(theta=theta_cocycle_family(0, 1, 1, 0), psi=zero3(2, 3, 2)),
    )
    assert coboundary(no_chain).is_zero()
    out = connectionlike_from_cocycle(G, no_chain)
    assert not out and "KV-chain" in out.reason


def test_extraction_validates_the_cochain_shape():
    G = graded_flat()
    total = G.total()
    with pytest.raises(InputError):
        connectionlike_from_cocycle(
            G, Cochain.zero(total, regular_bimodule(total), 1)
        )
    with pytest.raises(InputError):
        connectionlike_from_cocycle(
            G,
            Cochain.zero(
                total, extend_module_to_semidirect(total, 2, regular_bimodule(aff())), 2
            ),
        )


# ---------------------------------------------------------------------------
# exactness: connectionlike classes are never trivial


def test_exact_shaped_cochains_have_zero_mixed_part():
    # Intersect the image of the degree-1 differential with the span of
    # admissible connectionlike coordinates (odd values on odd-odd slots,
    # symmetrized even values on mixed slots).  The mixed part of anything
    # exact vanishes — that is what keeps pairs with a nonzero psi away
    # from the trivial class.  The odd-odd part is NOT so protected: on
    # this fixture the single exact shaped class is theta(w1,w1) = w2,
    # the coboundary of eta(w1) = -e2, and we freeze it.
    G = graded_flat()
    total = G.total()
    reg = regular_bimodule(total)
    zero2 = Cochain.zero(total, reg, 2)
    n, m, N = 2, 3, 5
    axes = []
    for al in range(m):
        for be in range(m):
            for ga in range(m):
                v = [F(0)] * (N * N * N)
                v[zero2.offset((n + al, n + be)) + n + ga] = F(1)
                axes.append(v)
    for i in range(n):
        for al in range(m):
            for k in range(n):
                v = [F(0)] * (N * N * N)
                v[zero2.offset((i, n + al)) + k] = F(1)
                v[zero2.offset((n + al, i)) + k] = F(1)
                axes.append(v)
    shaped = Subspace.from_vectors(N * N * N, axes)
    exact = image(coboundary_matrix(total, reg, 1))
    inter = exact.intersect(shaped)
    assert inter.dim == 1
    witness = Cochain(total, reg, 2, tuple(inter.basis[0]))
    for i in range(n):
        for al in range(m):
            assert all(x == 0 for x in witness.value((i, n + al)))
            assert all(x == 0 for x in witness.value((n + al, i)))
    def eta_fn(args):
        out = [F(0)] * 5
        if args[0] == 3:  # w1
            out[1] = F(-1)  # -e2
        return out

    assert witness == coboundary(Cochain.from_function(total, reg, 1, eta_fn))


def test_exact_mixed_parts_are_symmetric_only_when_zero():
    # For every 1-cochain eta, the mixed even-valued part of its
    # coboundary is symmetric in the slot order exactly when it is zero:
    # solve for the symmetric kernel and evaluate the part on it.
    G = graded_flat()
    total = G.total()
    reg = regular_bimodule(total)
    n, m, N = 2, 3, 5
    sym_cols = []
    part_cols = []
    for x in range(N):
        for t in range(N):

            def fn(args, x=x, t=t):
                return [F(1) if (args[0], s) == (x, t) else F(0) for s in range(N)]

            d = coboundary(Cochain.from_function(total, reg, 1, fn))
            sym_cols.append(
                [
                    d.value((i, n + al))[k] - d.value((n + al, i))[k]
                    for i in range(n)
                    for al in range(m)
                    for k in range(n)
                ]
            )
            part_cols.append(
                [
                    d.value((i, n + al))[k]
                    for i in range(n)
                    for al in range(m)
                    for k in range(n)
                ]
            )
    K = kernel(Mat.from_cols(sym_cols, rows=n * m * n))
    P = Mat.from_cols(part_cols, rows=n * m * n)
    assert K.dim > 0
    for v in K.basis:
        assert all(x == 0 for x in P.mat_vec(list(v)))


def test_theta_family_classes_are_nontrivial():
    G = graded_flat()
    for t in (1, -1, F(1, 2)):
        pair = ConnectionlikePair(theta=scale_theta(flat_theta(), t), psi=flat_psi())
        c = cocycle_from_connectionlike(G, pair)
        assert is_cocycle(c)
        assert is_coboundary(c) is None
