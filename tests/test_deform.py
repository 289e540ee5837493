"""Formal deformation machinery: brackets, residuals, solving, curvature."""

import itertools
import random
from fractions import Fraction

import pytest

from kvcohom.complexes import (
    Cochain,
    coboundary,
    coboundary_matrix,
    cohomology,
    is_coboundary,
    is_cocycle,
)
from kvcohom.core import (
    KVAlgebra,
    _int_lists,
    _pair_terms,
    _scaled_lists,
    _sparse4,
    is_kv,
    random_kv,
    regular_bimodule,
    tensor3,
    zero3,
)
from kvcohom.deform import (
    MultiplicationJet,
    bilinear_cochain,
    curvature_check,
    jet_check,
    jet_residuals,
    kv_bracket,
    rigidity_report,
    solve_next_order,
    tensor4,
    tensor4_from_cochain,
    zero4,
)
from kvcohom.errors import DimensionError, InputError, PreconditionError
from kvcohom.fixtures import (
    aff,
    assoc1,
    obstructed_jet,
    poly2,
    rad2,
    zero_algebra,
)
from kvcohom.linalg import Mat, Subspace, image, kernel, solve

from gather_loops import reference_pushforward_jet, two_step

F = Fraction


def random_bilinear(rng, n):
    return tensor3(
        [
            [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for _ in range(n)
        ]
    )


def s_tensor(alpha, beta):
    """The symmetric two-parameter family on the affine fixture:

    S(e1,e1) = alpha e1 + beta e2, S(e1,e2) = S(e2,e1) = alpha e2,
    S(e2,e2) = 0.
    """
    a, b = F(alpha), F(beta)
    return tensor3([[[a, b], [0, a]], [[0, a], [0, 0]]])


def flatten4(t):
    return [x for q in t for p in q for r in p for x in r]


# ---------------------------------------------------------------------------
# the bracket


def test_bracket_with_the_base_product_is_the_coboundary():
    rng = random.Random("bracket-base")
    inputs = [
        (A, random_bilinear(rng, A.dim))
        for A in (aff(), poly2(), rad2(), assoc1())
        for _ in range(8)
    ]
    # the cocycle pencil on the affine fixture, where both sides vanish
    inputs += [
        (aff(), s_tensor(alpha, beta))
        for alpha, beta in ((1, 0), (2, 3), (F(-1, 2), 5), (0, 1), (F(7, 3), F(-11, 5)))
    ]
    for A, nu in inputs:
        via_bracket = kv_bracket(A.product, nu)
        via_delta = tensor4_from_cochain(coboundary(bilinear_cochain(A, nu)))
        assert via_bracket == via_delta


def test_self_bracket_is_twice_the_kv_defect():
    rng = random.Random("self-bracket")
    for n in (1, 2, 3):
        for _ in range(6):
            mu = random_bilinear(rng, n)
            d = kv_bracket(mu, mu)
            # independent route: the defect (a,b,c)_mu - (b,a,c)_mu directly
            for a, b, c in itertools.product(range(n), repeat=3):
                direct = [F(0)] * n
                for p in range(n):
                    for k in range(n):
                        direct[k] += mu[a][b][p] * mu[p][c][k]
                        direct[k] -= mu[b][c][p] * mu[a][p][k]
                        direct[k] -= mu[b][a][p] * mu[p][c][k]
                        direct[k] += mu[a][c][p] * mu[b][p][k]
                assert tuple(2 * x for x in direct) == d[a][b][c]


def test_bracket_vanishes_on_zero_arguments():
    mu = random_bilinear(random.Random("z"), 2)
    zero = zero3(2, 2, 2)
    assert kv_bracket(mu, zero) == zero4(2)
    assert kv_bracket(zero, mu) == zero4(2)


def test_self_bracket_vanishes_exactly_on_kv_products():
    for seed in range(10):
        A = random_kv(seed)
        assert kv_bracket(A.product, A.product) == zero4(A.dim)
    not_kv = tensor3([[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    assert kv_bracket(not_kv, not_kv) != zero4(2)


def test_bracket_is_symmetric_in_its_arguments():
    rng = random.Random("sym")
    for _ in range(5):
        mu = random_bilinear(rng, 2)
        nu = random_bilinear(rng, 2)
        assert kv_bracket(mu, nu) == kv_bracket(nu, mu)


# ---------------------------------------------------------------------------
# jets and residuals


def test_zero_jet_has_zero_residuals():
    for A in (aff(), poly2()):
        n = A.dim
        jet = MultiplicationJet(A, (zero3(n, n, n),) * 4)
        assert all(
            all(x == 0 for x in flatten4(E)) for E in jet_residuals(jet)
        )
        assert jet_check(jet)


def test_first_residual_is_the_coboundary_of_the_first_coefficient():
    rng = random.Random("E1")
    for A in (aff(), rad2()):
        for _ in range(6):
            mu1 = random_bilinear(rng, A.dim)
            jet = MultiplicationJet(A, (mu1,))
            E = jet_residuals(jet)
            assert all(x == 0 for x in flatten4(E[0]))
            expected = tensor4_from_cochain(coboundary(bilinear_cochain(A, mu1)))
            assert E[1] == expected


def test_residuals_obey_the_bracket_identity():
    # E_k = delta mu_k + (1/2) sum_{i+j=k, i,j>=1} d_{mu_i} mu_j for
    # k = 1..3, the right side built from the public coboundary and bracket
    rng = random.Random("E-bracket")
    jets = []
    for seed in range(8):
        A = random_kv(seed)
        n = A.dim
        for rep in rigidity_report(A).class_representatives[:1]:
            sol = solve_next_order(MultiplicationJet(A, (rep,)))
            if sol.solved:
                jets.append(sol.extended)
                jets.append(sol.extended.extend(random_bilinear(rng, n)))
        jets.append(MultiplicationJet(A, tuple(random_bilinear(rng, n) for _ in range(3))))
    nonzero = vanishing = 0
    for jet in jets:
        E = jet_residuals(jet)
        mu = jet.coefficient
        for k in range(1, jet.order + 1):
            expected = flatten4(tensor4_from_cochain(coboundary(bilinear_cochain(jet.base, mu(k)))))
            for i in range(1, k):
                bracket = flatten4(kv_bracket(mu(i), mu(k - i)))
                expected = [x + y / 2 for x, y in zip(expected, bracket)]
            assert flatten4(E[k]) == expected
            if any(expected):
                nonzero += 1
            else:
                vanishing += 1
    # both solved orders (E_k = 0) and random coefficients (E_k != 0) ran
    assert nonzero > 0 and vanishing > 0


def test_non_cocycle_first_coefficient_is_witnessed():
    A = aff()
    # delta of this cochain is nonzero: the constant map to e2 on (e1, e1).
    mu1 = tensor3([[[0, 0], [1, 0]], [[0, 0], [0, 0]]])
    d = coboundary(bilinear_cochain(A, mu1))
    assert not d.is_zero()
    verdict = jet_check(MultiplicationJet(A, (mu1,)))
    assert not verdict
    k, a, b, c = verdict.witness
    assert k == 1
    assert any(x != 0 for x in jet_residuals(MultiplicationJet(A, (mu1,)))[1][a][b][c])


def test_linear_family_through_the_symmetric_tensor_stays_kv():
    """The affine base deformed by the two-parameter symmetric family is a
    KV family to every order: the first two residuals carry the whole story."""
    A = aff()
    n = A.dim
    for alpha, beta in ((1, 0), (2, 3), (-1, 5)):
        S = s_tensor(alpha, beta)
        assert is_cocycle(bilinear_cochain(A, S))
        jet = MultiplicationJet(A, (S, zero3(n, n, n), zero3(n, n, n), zero3(n, n, n)))
        E = jet_residuals(jet)
        assert all(all(x == 0 for x in flatten4(Ek)) for Ek in E)
        assert jet_check(jet)


def test_jet_requires_a_kv_base_and_square_coefficients():
    not_kv = KVAlgebra(dim=2, product=tensor3([[[0, 1], [0, 0]], [[1, 0], [0, 0]]]))
    with pytest.raises(PreconditionError):
        MultiplicationJet(not_kv, ())
    with pytest.raises(DimensionError):
        MultiplicationJet(aff(), (zero3(3, 3, 3),))
    jet = MultiplicationJet(aff(), (s_tensor(1, 0),))
    assert jet.coefficient(0) == aff().product
    assert jet.coefficient(1) == s_tensor(1, 0)
    assert jet.coefficient(5) == zero3(2, 2, 2)
    with pytest.raises(InputError):
        jet.coefficient(-1)


# ---------------------------------------------------------------------------
# order-by-order solving


def test_next_order_of_an_unperturbed_jet_is_zero():
    A = aff()
    jet = MultiplicationJet(A, (zero3(2, 2, 2),))
    sol = solve_next_order(jet)
    assert sol.solved
    assert sol.order == 2
    assert sol.target == zero4(2)
    assert sol.target_is_cocycle
    assert sol.coefficient == zero3(2, 2, 2)
    assert sol.extended.order == 2


def test_symmetric_family_extends_with_zero_second_coefficient():
    A = aff()
    jet = MultiplicationJet(A, (s_tensor(1, 0),))
    sol = solve_next_order(jet)
    assert sol.solved
    assert sol.target == zero4(2)  # the self-bracket of the family vanishes
    assert sol.coefficient == zero3(2, 2, 2)
    assert jet_check(sol.extended)


def test_obstructed_jet_yields_a_separating_certificate():
    jet = obstructed_jet()
    assert jet_check(jet)  # valid through order 1
    sol = solve_next_order(jet)
    assert not sol.solved
    assert sol.coefficient is None and sol.extended is None
    assert sol.target != zero4(2)
    # over the zero product every cochain is a cocycle, so the obstruction
    # genuinely lives in the degree-3 classes
    assert sol.target_is_cocycle
    cert = sol.certificate
    assert cert is not None
    M = coboundary_matrix(jet.base, regular_bimodule(jet.base), 2)
    # the functional kills the coboundary image ...
    assert all(
        sum(cert[r] * M.at(r, c) for r in range(M.rows)) == 0
        for c in range(M.cols)
    )
    # ... but not the target
    assert sum(a * b for a, b in zip(cert, flatten4(sol.target))) != 0


def test_solving_requires_vanishing_lower_residuals():
    A = aff()
    mu1 = tensor3([[[0, 0], [1, 0]], [[0, 0], [0, 0]]])  # not a cocycle
    with pytest.raises(PreconditionError):
        solve_next_order(MultiplicationJet(A, (mu1,)))


# ---------------------------------------------------------------------------
# trivial deformations by basis flows (pushed forward by the reference loops)


def test_constant_flow_pushes_to_the_constant_jet():
    A = aff()
    zero_theta = Mat.from_rows([[0, 0], [0, 0]], cols=2)
    jet = reference_pushforward_jet((zero_theta,) * 3, A)
    assert all(mu == zero3(2, 2, 2) for mu in jet.coefficients)
    assert jet_check(jet)
    assert jet_residuals(jet) == (zero4(2),) * 4


def test_first_pushforward_coefficient_is_a_coboundary():
    rng = random.Random("push1")
    A = aff()
    for _ in range(8):
        theta = Mat.from_rows(
            [[F(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)], cols=2
        )
        jet = reference_pushforward_jet((theta,), A)
        theta_cochain = Cochain(
            A,
            regular_bimodule(A),
            1,
            tuple(theta.at(i, k) for i in range(2) for k in range(2)),
        )
        d_theta = coboundary(theta_cochain)
        expected = tensor3(
            [
                [list(d_theta.value((i, j))) for j in range(2)]
                for i in range(2)
            ]
        )
        assert jet.coefficients[0] == expected


def test_pushforward_satisfies_the_defining_composition_law():
    """mu_t(phi_t a, phi_t b) = phi_t(ab) through the truncation order,
    checked by independent series convolution."""
    rng = random.Random("push-law")
    for A in (aff(), rad2(), random_kv(3)):
        n = A.dim
        for _ in range(4):
            thetas = tuple(
                Mat.from_rows(
                    [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)],
                    cols=n,
                )
                for _ in range(4)
            )
            jet = reference_pushforward_jet(thetas, A)
            assert all(
                all(x == 0 for x in flatten4(E)) for E in jet_residuals(jet)
            )

            def theta_mat(k):
                if k == 0:
                    return [[F(1) if j == i else F(0) for j in range(n)] for i in range(n)]
                return [list(thetas[k - 1].row(i)) for i in range(n)]

            def apply_rows(mat, coords):
                out = [F(0)] * n
                for i, c in enumerate(coords):
                    if c != 0:
                        for j in range(n):
                            out[j] += c * mat[i][j]
                return out

            def mu_apply(mu, x, y):
                out = [F(0)] * n
                for i in range(n):
                    if x[i] == 0:
                        continue
                    for j in range(n):
                        c = x[i] * y[j]
                        if c == 0:
                            continue
                        for k in range(n):
                            out[k] += c * mu[i][j][k]
                return out

            for a in range(n):
                for b in range(n):
                    ea = [F(1) if t == a else F(0) for t in range(n)]
                    eb = [F(1) if t == b else F(0) for t in range(n)]
                    ab = mu_apply(A.product, ea, eb)
                    for k in range(5):
                        lhs = [F(0)] * n
                        for p in range(k + 1):
                            for q in range(k + 1 - p):
                                r = k - p - q
                                if p > 4 or q > 4 or r > 4:
                                    continue
                                x = apply_rows(theta_mat(q), ea)
                                y = apply_rows(theta_mat(r), eb)
                                term = mu_apply(jet.coefficient(p), x, y)
                                for t in range(n):
                                    lhs[t] += term[t]
                        rhs = apply_rows(theta_mat(k), ab) if k <= 4 else [F(0)] * n
                        if k <= 4:
                            assert lhs == rhs, (a, b, k)


# ---------------------------------------------------------------------------
# rigidity


def test_rigidity_of_the_idempotent_line():
    report = rigidity_report(assoc1())
    assert (report.dim_C2, report.dim_Z2, report.dim_B2, report.dim_H2) == (1, 1, 1, 0)
    assert report.rigid
    assert report.class_representatives == ()


def test_affine_fixture_is_not_rigid_and_the_symmetric_tensor_witnesses_it():
    A = aff()
    report = rigidity_report(A)
    assert not report.rigid
    assert report.dim_H2 >= 1
    S = s_tensor(1, 0)
    c = bilinear_cochain(A, S)
    assert is_cocycle(c)
    assert is_coboundary(c) is None
    # S lies in the span of the coboundaries and the class representatives
    flat = [x for p in S for r in p for x in r]
    reps = Subspace.from_vectors(
        8, [[x for p in z for r in p for x in r] for z in report.class_representatives]
    )
    assert reps.add(image(coboundary_matrix(A, regular_bimodule(A), 1))).contains(flat)


def test_zero_line_tangent_space_is_everything():
    report = rigidity_report(zero_algebra(1))
    assert (report.dim_C2, report.dim_Z2, report.dim_B2, report.dim_H2) == (1, 1, 0, 1)
    assert not report.rigid
    assert len(report.class_representatives) == 1


def test_rigidity_report_is_internally_consistent():
    for seed in range(6):
        A = random_kv(seed)
        report = rigidity_report(A)
        assert report.dim_H2 == report.dim_Z2 - report.dim_B2
        assert report.rigid == (report.dim_H2 == 0)
        assert len(report.class_representatives) == report.dim_H2
        for z in report.class_representatives:
            assert is_cocycle(bilinear_cochain(A, z))
            assert is_coboundary(bilinear_cochain(A, z)) is None
    with pytest.raises(PreconditionError):
        rigidity_report(
            KVAlgebra(dim=2, product=tensor3([[[0, 1], [0, 0]], [[1, 0], [0, 0]]]))
        )


def test_rigidity_report_is_degree_two_of_regular_cohomology():
    flat = lambda t: tuple(x for p in t for r in p for x in r)  # noqa: E731
    # assoc1 is rigid; random_kv(seed, n_max=4) has dimension 2, 3 or 4
    for A in [assoc1(), aff()] + [random_kv(seed, n_max=4) for seed in range(1, 13)]:
        report = rigidity_report(A)
        d2 = cohomology(A, regular_bimodule(A), 2).degree(2)
        assert (report.dim_C2, report.dim_Z2, report.dim_B2, report.dim_H2) == (
            d2.dim_C, d2.dim_Z, d2.dim_B, d2.dim_H
        )
        assert [flat(t) for t in report.class_representatives] == [
            r.values for r in d2.representatives
        ]


# ---------------------------------------------------------------------------
# curvature through the chain identity


def test_flat_connection_has_matching_curvatures():
    A = aff()
    assert curvature_check(A, zero3(2, 2, 2)) == zero4(2)


def test_symmetric_cocycles_make_the_commutation_formula_exact():
    A = aff()
    for alpha, beta in ((1, 0), (2, 3), (-1, 5)):
        assert curvature_check(A, s_tensor(alpha, beta)) == zero4(2)


def test_curvature_defect_is_the_coboundary_contraction():
    rng = random.Random("curv")
    count_nonzero = 0
    for seed in range(12):
        A = random_kv(seed)
        n = A.dim
        raw = random_bilinear(rng, n)
        S = tensor3(
            [
                [
                    [raw[i][j][k] + raw[j][i][k] for k in range(n)]
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        residual = curvature_check(A, S)
        minus_ds = tensor4_from_cochain(coboundary(bilinear_cochain(A, S)))
        expected = tuple(
            tuple(
                tuple(tuple(-x for x in r) for r in p) for p in q
            )
            for q in minus_ds
        )
        assert residual == expected
        if residual != zero4(n):
            count_nonzero += 1
    assert count_nonzero > 0  # the identity was exercised beyond cocycles


def test_curvature_rejects_asymmetric_tensors():
    A = aff()
    S = tensor3([[[0, 0], [1, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(InputError, match="symmetric"):
        curvature_check(A, S)


# ---------------------------------------------------------------------------
# the sparse kernels against the dense loops they replaced


def dense_pair_residual(mu_i, mu_j):
    n = len(mu_i)
    out = [[[[F(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a, b, c in itertools.product(range(n), repeat=3):
        acc = out[a][b][c]
        for p in range(n):
            for sign, x, row in (
                (1, mu_j[a][b][p], mu_i[p][c]),
                (-1, mu_j[b][c][p], mu_i[a][p]),
                (-1, mu_j[b][a][p], mu_i[p][c]),
                (1, mu_j[a][c][p], mu_i[b][p]),
            ):
                if x != 0:
                    for k in range(n):
                        acc[k] += sign * x * row[k]
    return tensor4(out)


def dense_kv_bracket(mu, nu):
    """The eight bracket terms, each looped over the dense tables."""
    n = len(mu)
    out = [[[[F(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a, b, c in itertools.product(range(n), repeat=3):
        acc = out[a][b][c]
        for p in range(n):
            for sign, x, row in (
                (-1, nu[b][c][p], mu[a][p]),
                (-1, mu[b][c][p], nu[a][p]),
                (1, mu[a][b][p], nu[p][c]),
                (1, nu[a][b][p], mu[p][c]),
                (1, mu[a][c][p], nu[b][p]),
                (1, nu[a][c][p], mu[b][p]),
                (-1, nu[b][a][p], mu[p][c]),
                (-1, mu[b][a][p], nu[p][c]),
            ):
                if x != 0:
                    for k in range(n):
                        acc[k] += sign * x * row[k]
    return tensor4(out)


def _t4_sum(n, terms):
    flat = [F(0)] * n**4
    for c, t in terms:
        for pos, x in enumerate(flatten4(t)):
            if x:
                flat[pos] += c * x
    rows = [flat[r * n : r * n + n] for r in range(n**3)]
    return tensor4(
        [[[rows[(a * n + b) * n + d] for d in range(n)] for b in range(n)] for a in range(n)]
    )


def dense_jet_residuals(jet, orders=None):
    mu = jet.coefficient
    return tuple(
        _t4_sum(jet.dim, [(1, dense_pair_residual(mu(i), mu(k - i))) for i in range(k + 1)])
        for k in (range(jet.order + 1) if orders is None else orders)
    )


def dense_witness(residuals):
    for k, E in enumerate(residuals):
        for a, b, c in itertools.product(range(len(E)), repeat=3):
            if any(E[a][b][c]):
                return (k, a, b, c)
    return None


def dense_solve(jet, residuals):
    """(solved, target, target_is_cocycle, coefficient, certificate), or None
    when a lower residual is nonzero."""
    if dense_witness(residuals) is not None:
        return None
    A, n, k, mu = jet.base, jet.dim, jet.order + 1, jet.coefficient
    target = _t4_sum(n, [(F(-1, 2), dense_kv_bracket(mu(i), mu(k - i))) for i in range(1, k)])
    flat = flatten4(target)
    W = regular_bimodule(A)
    cocycle = not any(coboundary_matrix(A, W, 3).mat_vec(flat))
    M = coboundary_matrix(A, W, 2)
    x = solve(M, flat)
    if x is None:
        for y in kernel(M.transpose()).basis:
            if sum(a * b for a, b in zip(y, flat)):
                return (False, target, cocycle, None, y)
        raise AssertionError("no separating functional")
    mu_k = tensor3([[list(x[(a * n + b) * n :][:n]) for b in range(n)] for a in range(n)])
    assert not any(flatten4(dense_jet_residuals(jet.extend(mu_k), [k])[0]))
    return (True, target, cocycle, mu_k, None)


def _sparse_tensor(rng, n, density):
    return tensor3(
        [
            [
                [
                    F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3, 7]))
                    if rng.random() < density
                    else 0
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def test_sparse_deform_kernels_match_dense_loops():
    rng = random.Random("sparse-deform")
    for t in range(40):
        n = 1 + t % 5
        density = (0.005, 0.03, 0.1, 0.3)[t % 4]
        mu, nu = _sparse_tensor(rng, n, density), _sparse_tensor(rng, n, density)
        assert kv_bracket(mu, nu) == dense_kv_bracket(mu, nu)
    outcomes = set()
    for s in (3, 17, 18, 13, 24, 1, 26):
        A = random_kv(s, n_max=5)
        reps = rigidity_report(A).class_representatives
        n = A.dim
        jets = [
            MultiplicationJet(A, (tensor3([[[x / 3 for x in r] for r in p] for p in rep]),))
            for rep in reps[:2]
        ]
        jets += [MultiplicationJet(A, (rep, _sparse_tensor(rng, n, 0.1))) for rep in reps[:1]]
        # a combination of classes: at s = 17 the certificate must skip
        # left-kernel vectors whose entries on the support of R_2 cancel
        for r0, r1 in zip(reps[:1], reps[1:2]):
            mixed = [[[x - 2 * y for x, y in zip(*rows)] for rows in zip(*ps)] for ps in zip(r0, r1)]
            jets.append(MultiplicationJet(A, (tensor3(mixed),)))
        jets.append(MultiplicationJet(A, (_sparse_tensor(rng, n, 0.05),)))
        while jets:
            jet = jets.pop()
            residuals = dense_jet_residuals(jet)
            assert jet_residuals(jet) == residuals
            assert jet_check(jet).witness == dense_witness(residuals)
            want = dense_solve(jet, residuals)
            if want is None:
                with pytest.raises(PreconditionError):
                    solve_next_order(jet)
                outcomes.add("precondition")
                continue
            sol = solve_next_order(jet)
            assert want == (
                sol.solved, sol.target, sol.target_is_cocycle, sol.coefficient, sol.certificate
            )
            outcomes.add("solved" if sol.solved else "obstructed")
            if sol.solved and jet.order < 2:
                jets.append(sol.extended)
    assert outcomes == {"precondition", "solved", "obstructed"}


def dense_curvature(A, S):
    """mu(x,mu(y,z)) - mu(y,mu(x,z)) - mu([x,y],z) - S(x,S(y,z)) + S(y,S(x,z))
    with mu = mu_0 + S, each product of basis vectors a row of constants."""
    n, mu0 = A.dim, A.product
    mu = [[[mu0[i][j][k] + S[i][j][k] for k in range(n)] for j in range(n)] for i in range(n)]
    out = [[[[F(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for x, y, z in itertools.product(range(n), repeat=3):
        acc = out[x][y][z]
        for p in range(n):
            for sign, c, row in (
                (1, mu[y][z][p], mu[x][p]),
                (-1, mu[x][z][p], mu[y][p]),
                (-1, mu0[x][y][p] - mu0[y][x][p], mu[p][z]),
                (-1, S[y][z][p], S[x][p]),
                (1, S[x][z][p], S[y][p]),
            ):
                for k in range(n):
                    acc[k] += sign * c * row[k]
    return tensor4(out)


def test_integer_contractions_match_fraction_references_off_the_integers():
    """kv_bracket and curvature_check sum ints over a common denominator d
    and divide by d^2 once; with the rational products of random_kv and
    tensors of denominators 2, 3 and 7 they equal plain Fraction loops
    (random pairs of tensors alone are in the test above), and they and the
    jet residuals return Fractions."""
    rng = random.Random("integer-contractions")
    seen = set()
    for s in range(1, 31):
        A = random_kv(s, n_max=4)
        n = A.dim
        nu = _sparse_tensor(rng, n, 0.3)
        raw = _sparse_tensor(rng, n, 0.4)
        S = tensor3(
            [[[raw[i][j][k] + raw[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]
        )
        seen |= {x.denominator for t in (A.product, nu, S) for p in t for r in p for x in r}
        for x, y in ((A.product, nu), (nu, A.product), (A.product, A.product)):
            assert kv_bracket(x, y) == dense_kv_bracket(x, y)
        assert curvature_check(A, S) == dense_curvature(A, S)
        for t4 in (kv_bracket(A.product, nu), *jet_residuals(MultiplicationJet(A, (nu,))), curvature_check(A, S)):
            assert all(type(v) is F for v in flatten4(t4))
    assert {2, 3, 7} <= seen


# ---------------------------------------------------------------------------
# the scatter kernel against the gather loop it replaced, keys in order


def gather_sparse4(n, terms):
    """The gather loop `_sparse4` replaced: each triple (a, b, c) in
    lexicographic order sums the two-step terms(a, b, c)."""
    rows = ((abc, two_step(*terms(*abc))) for abc in itertools.product(range(n), repeat=3))
    return {abc: row for abc, row in rows if row}


def gather_pairs(L, pairs):
    """terms(a, b, c) of the sum of A_ij over (i, j) in pairs, as the
    gather loop read them."""

    def terms(a, b, c):
        out = []
        for i, j in pairs:
            (gi, gi_t), gj = L[i], L[j][0]
            out += (
                (False, gj[a][b], gi_t[c]),
                (True, gj[b][c], gi[a]),
                (True, gj[b][a], gi_t[c]),
                (False, gj[a][c], gi[b]),
            )
        return out

    return terms


def _assert_same_sparse4(got, want):
    assert list(got) == list(want)  # lexicographic, the witness order
    assert got == want


def test_scatter_kernel_matches_the_gather_loop_for_pair_terms():
    rng = random.Random("scatter-pairs")
    partial = 0
    for t in range(30):
        n = 1 + t % 5
        tensors = [_sparse_tensor(rng, n, (0.03, 0.1, 0.3)[t % 3]) for _ in range(3)]
        _, L = _scaled_lists(*map(_int_lists, tensors))
        for pairs in (((0, 1),), ((0, 1), (1, 0)), ((0, 2), (1, 1), (2, 0)), ((1, 2), (2, 1))):
            want = gather_sparse4(n, gather_pairs(L, pairs))
            _assert_same_sparse4(_sparse4((n,) * 3, _pair_terms(L, pairs)), want)
            partial += 0 < len(want) < n**3
    assert partial > 20


def test_scatter_kernel_matches_the_gather_loop_for_curvature_terms(monkeypatch):
    import kvcohom.deform as df

    seen = []

    def recorded(dims, terms):
        seen.append(df_sparse4(dims, terms))
        return seen[-1]

    df_sparse4 = df._sparse4
    monkeypatch.setattr(df, "_sparse4", recorded)
    rng = random.Random("scatter-curvature")
    partial = 0
    for s in range(1, 21):
        A = random_kv(s, n_max=4)
        n = A.dim
        raw = _sparse_tensor(rng, n, 0.3)
        S = tensor3([[[raw[i][j][k] + raw[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)])
        mu = tensor3([[[A.product[i][j][k] + S[i][j][k] for k in range(n)] for j in range(n)] for i in range(n)])
        _, ((M, M_t), (G, _), (T, _)) = _scaled_lists(*map(_int_lists, (mu, A.product, S)))
        want = gather_sparse4(
            n,
            lambda x, y, z: (
                (False, M[y][z], M[x]),
                (True, M[x][z], M[y]),
                (True, G[x][y], M_t[z]),
                (False, G[y][x], M_t[z]),
                (True, T[y][z], T[x]),
                (False, T[x][z], T[y]),
            ),
        )
        seen.clear()
        curvature_check(A, S)
        assert len(seen) == 1
        _assert_same_sparse4(seen[0], want)
        partial += 0 < len(want) < n**3
    assert partial > 5
