"""Algebra/module containers, verifiers, and constructions.

Expected values here were derived by hand from the structure constants
before the implementation existed (see the associator expansions in the
docstrings) and are frozen as literals.
"""

import random
from fractions import Fraction

import pytest

from kvcohom.core import (
    CheckResult,
    Element,
    KVAlgebra,
    KVModule,
    associator,
    center,
    conjugate_algebra,
    direct_sum,
    is_kv,
    is_module,
    jacobi_algebra,
    jacobi_module,
    left_regular_module,
    lie_bracket,
    mixed_associators,
    module_direct_sum,
    module_morphism_space,
    random_invertible,
    random_kv,
    random_module,
    regular_bimodule,
    semidirect,
    tensor3,
    zero3,
    zero_module,
)
from kvcohom.complexes import Cochain, cohomology
from kvcohom.deform import MultiplicationJet, curvature_check, rigidity_report
from kvcohom.errors import DimensionError, PreconditionError
from kvcohom.extensions import (
    BigradedCochain,
    e11_cohomology,
    extend_module_to_semidirect,
    module_extension_from_cocycle,
)
from kvcohom.fixtures import aff, algebra_catalog, assoc1, poly2, rad2, zero_algebra
from kvcohom.geom import radiant_primitive
from kvcohom.graded import GradedKVAlgebra
from kvcohom.linalg import Mat, Subspace, kernel


def E(*coords):
    return Element.of(coords)


# A 2-dim product that is NOT KV: e1 e1 = e2, e2 e1 = e1, all else zero.
# Hand check: (e1,e2,e1) = (e1 e2)e1 - e1(e2 e1) = -e1 e1 = -e2, while
# (e2,e1,e1) = (e2 e1)e1 - e2(e1 e1) = e1 e1 - e2 e2 = e2; first lex
# violation is scanned at (i,j,k) = (0,1,0).
def non_kv_candidate():
    prod = [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]
    return KVAlgebra(dim=2, product=tensor3(prod))


def test_associator_aff_values():
    A = aff()
    e1, e2 = A.basis()
    assert associator(A, e1, e1, e2) == E(0, -1)
    assert associator(A, e2, e2, e1) == E(0, 0)


def test_associator_associative_fixture_vanishes():
    A = poly2()
    for a in A.basis():
        for b in A.basis():
            for c in A.basis():
                assert associator(A, a, b, c).is_zero()


def test_mixed_associators_left_module_trivial_sides():
    A = aff()
    W = left_regular_module(A)
    e1, e2 = A.basis()
    w = W.basis_element(1)
    abw, awb, wab = mixed_associators(A, W, e1, e2, w)
    assert awb.is_zero() and wab.is_zero()


def test_mixed_associators_regular_matches_algebra():
    A = aff()
    W = regular_bimodule(A)
    e1, e2 = A.basis()
    abw, _, _ = mixed_associators(A, W, e1, e1, e2)
    assert abw == associator(A, e1, e1, e2) == E(0, -1)


def test_mixed_associators_zero_algebra():
    A = zero_algebra(2)
    W = regular_bimodule(A)
    for a in A.basis():
        for b in A.basis():
            for w in W.basis():
                assert all(x.is_zero() for x in mixed_associators(A, W, a, b, w))


def test_is_kv_fixtures():
    assert is_kv(assoc1())
    assert is_kv(aff())
    assert is_kv(poly2())
    assert is_kv(rad2())
    assert is_kv(zero_algebra(3))


def test_is_kv_witness_lex_first():
    verdict = is_kv(non_kv_candidate())
    assert not verdict
    assert verdict.witness == (0, 1, 0)


def test_is_module_regular_bimodules():
    for A in (assoc1(), aff(), poly2(), rad2()):
        assert is_module(A, regular_bimodule(A))
        assert is_module(A, left_regular_module(A))
        assert is_module(A, zero_module(A, 2))


def test_is_module_violation_witness():
    # Left tensor of the non-KV candidate violates (a,b,w) = (b,a,w) at the
    # same place its associator symmetry breaks.
    A = aff()
    bad = non_kv_candidate()
    W = KVModule(algebra=A, dim=2, left=bad.product, right=zero3(2, 2, 2))
    verdict = is_module(A, W)
    assert not verdict
    assert verdict.witness == (0, 1, 0)
    assert "(a,b,w)" in verdict.detail


def test_right_regular_of_associative_is_module():
    A = poly2()
    W = KVModule(algebra=A, dim=2, left=zero3(2, 2, 2), right=A.product)
    assert is_module(A, W)


def test_jacobi_algebra_values():
    assert jacobi_algebra(assoc1()) == Subspace.full(1)
    assert jacobi_algebra(zero_algebra(2)) == Subspace.full(2)
    J = jacobi_algebra(aff())
    assert J == Subspace.from_vectors(2, [[1, 0]])


def test_jacobi_algebra_rejects_non_kv():
    with pytest.raises(PreconditionError):
        jacobi_algebra(non_kv_candidate())


def test_every_precondition_gate_keeps_its_text():
    """Each library gate of `core._require`, on an input that fails it, with
    its message frozen as a literal.  B fails the KV identity at (0,1,0);
    `bad` is a left action of aff that fails (a,b,w) = (b,a,w)."""
    B = non_kv_candidate()
    A = aff()
    bad = KVModule(A, 1, tensor3([[[1]], [[1]]]), zero3(1, 2, 1))
    one = zero_module(A, 1)
    G = semidirect(A, one)
    values = [Fraction(0)] * 9
    values[5] = Fraction(1)  # f(e_2, w) = v, while e_2 e_1 = 0 and e_1 e_2 = e_2
    f = BigradedCochain(
        Cochain(G, extend_module_to_semidirect(G, 2, one), 2, tuple(values)), 2, 1, 1
    )
    kv = "associator symmetry fails at basis triple (0,1,0)"
    module = "(a,b,w) = (b,a,w) fails at (e_0, e_1, w_0)"
    table = [
        (lambda: cohomology(B, zero_module(B, 1), 1), f"cohomology needs a KV product; {kv}"),
        (lambda: cohomology(A, bad, 1), f"cohomology needs a verified module; {module}"),
        (lambda: jacobi_algebra(B), f"jacobi_algebra needs a KV product; {kv}"),
        (lambda: MultiplicationJet(B, ()), "jet base is not a KV algebra: witness (0, 1, 0)"),
        (lambda: rigidity_report(B), "not a KV algebra: witness (0, 1, 0)"),
        (lambda: curvature_check(B, zero3(2, 2, 2)), "not a KV algebra: witness (0, 1, 0)"),
        (
            lambda: e11_cohomology(B, zero_module(B, 1), zero_module(B, 1), 2),
            f"A is not a KV algebra: {kv}",
        ),
        (lambda: e11_cohomology(A, bad, one, 1), f"W is not a verified module: {module}"),
        (lambda: e11_cohomology(A, one, bad, 1), f"V is not a verified module: {module}"),
        (
            lambda: module_extension_from_cocycle(A, one, one, f),
            "the (1,1) cochain is not a cocycle: the total space fails the module "
            "identities; (a,b,w) = (b,a,w) fails at (e_0, e_1, w_1)",
        ),
        (
            lambda: radiant_primitive(A, bad, [0, 1], Cochain(A, bad, 2, (Fraction(0),) * 4)),
            "the coefficients do not form a module: witness (0, 1, 0)",
        ),
        (
            lambda: GradedKVAlgebra(B, zero_module(B, 1)),
            "even part is not a KV algebra: witness (0, 1, 0)",
        ),
        (lambda: GradedKVAlgebra(A, bad), f"odd part is not a verified module: {module}"),
    ]
    for call, text in table:
        with pytest.raises(PreconditionError) as info:
            call()
        assert str(info.value) == text


def test_jacobi_module_values():
    A = aff()
    assert jacobi_module(A, regular_bimodule(A)) == Subspace.from_vectors(2, [[1, 0]])
    # Right module (left action zero): J(W) is everything.
    P = poly2()
    right_only = KVModule(algebra=P, dim=2, left=zero3(2, 2, 2), right=P.product)
    assert jacobi_module(P, right_only) == Subspace.full(2)
    assert jacobi_module(A, zero_module(A, 3)) == Subspace.full(3)


def test_center_values():
    assert center(assoc1()) == Subspace.full(1)
    assert center(zero_algebra(2)) == Subspace.full(2)
    # aff: c e1 - e1 c = -c2 e2 and c e2 - e2 c = c1 e2 force c = 0.
    assert center(aff()).dim == 0


def test_center_contained_in_jacobi():
    for A in (assoc1(), aff(), poly2(), rad2(), zero_algebra(2)):
        C = center(A)
        J = jacobi_algebra(A)
        for b in C.basis:
            assert J.contains(b)


def test_lie_bracket_aff():
    B = lie_bracket(aff())
    assert B[0][1] == (0, 1)  # [e1, e2] = e2
    assert B[1][0] == (0, -1)
    assert B[0][0] == (0, 0) and B[1][1] == (0, 0)


def test_lie_bracket_commutative_is_zero():
    B = lie_bracket(poly2())
    assert all(x == 0 for plane in B for row in plane for x in row)


def _jacobi_identity_holds(B, n):
    # sum over cyclic permutations of [[x,y],z] must vanish
    def brk(u, v):
        out = [0] * n
        for i in range(n):
            if u[i] == 0:
                continue
            for j in range(n):
                if v[j] == 0:
                    continue
                for k in range(n):
                    out[k] += u[i] * v[j] * B[i][j][k]
        return out

    basis = [[1 if t == i else 0 for t in range(n)] for i in range(n)]
    for x in basis:
        for y in basis:
            for z in basis:
                total = [0] * n
                for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
                    inner = brk(u, v)
                    outer = brk(inner, w)
                    total = [a + b for a, b in zip(total, outer)]
                if any(t != 0 for t in total):
                    return False
    return True


def test_lie_bracket_satisfies_jacobi_on_random_kv():
    for seed in range(12):
        A = random_kv(seed, n_max=3)
        assert _jacobi_identity_holds(lie_bracket(A), A.dim)


def test_semidirect_zero_module_returns_algebra():
    A = aff()
    assert semidirect(A, zero_module(A, 0)) is A


def test_semidirect_aff_regular_is_kv():
    A = aff()
    G = semidirect(A, regular_bimodule(A))
    assert G.dim == 4
    assert is_kv(G)
    # the A-block of the product is A's product
    for i in range(2):
        for j in range(2):
            assert G.product[i][j][:2] == A.product[i][j]
            assert G.product[i][j][2:] == (0, 0)


def test_semidirect_assoc1_regular():
    A = assoc1()
    G = semidirect(A, regular_bimodule(A))
    assert G.dim == 2
    assert is_kv(G)
    assert jacobi_algebra(G).dim in (0, 1, 2)  # computable without error


def test_semidirect_mixed_blocks():
    A = aff()
    W = left_regular_module(A)
    G = semidirect(A, W)
    e1 = G.basis_element(0)
    w2 = G.basis_element(3)  # second module vector
    # (e1, 0)(0, w2) = (0, e1 . w2) = (0, e2-slot)
    prod = G.mul(e1, w2)
    assert prod == Element.of([0, 0, 0, 1])
    # (0, w2)(e1, 0) = (0, w2 . e1) = 0 for the left-regular module
    assert G.mul(w2, e1).is_zero()


def test_direct_sum_blocks_and_kv():
    A, B = aff(), poly2()
    S = direct_sum(A, B)
    assert S.dim == 4
    assert is_kv(S)
    assert jacobi_algebra(S).dim == jacobi_algebra(A).dim + jacobi_algebra(B).dim


def test_module_direct_sum():
    A = aff()
    W = regular_bimodule(A)
    V = zero_module(A, 1)
    T = module_direct_sum(W, V)
    assert T.dim == 3
    assert is_module(A, T)
    assert jacobi_module(A, T).dim == jacobi_module(A, W).dim + jacobi_module(A, V).dim


def test_conjugate_algebra_preserves_kv():
    rng = random.Random(5)
    A = aff()
    for _ in range(10):
        phi = random_invertible(rng, 2)
        B = conjugate_algebra(A, phi)
        assert is_kv(B)
        assert jacobi_algebra(B).dim == jacobi_algebra(A).dim


def test_random_kv_seed0_is_aff():
    A = random_kv(0)
    assert A.name == "aff"
    assert A.product == aff().product


def test_random_kv_determinism_and_verification():
    for seed in range(25):
        A1 = random_kv(seed, n_max=3)
        A2 = random_kv(seed, n_max=3)
        assert A1.product == A2.product and A1.dim == A2.dim
        assert A1.dim <= 3
        assert is_kv(A1)


def test_random_module_determinism_and_verification():
    for seed in range(15):
        A = random_kv(seed % 7, n_max=3)
        W1 = random_module(A, seed, m_max=3)
        W2 = random_module(A, seed, m_max=3)
        assert W1.left == W2.left and W1.right == W2.right
        assert W1.dim <= 3
        assert is_module(A, W1)


def test_jacobi_subalgebra_closure():
    # J(A) is a subalgebra and associative inside: for basis vectors x, y of
    # J(A), xy stays in J(A) and (x,y,z) = 0 whenever z is also in J(A).
    for seed in range(10):
        A = random_kv(seed, n_max=3)
        J = jacobi_algebra(A)
        members = [Element(b) for b in J.basis]
        for x in members:
            for y in members:
                assert J.contains(A.mul(x, y).coords)
                for z in members:
                    assert associator(A, x, y, z).is_zero()


def test_module_morphism_space_identity_and_scalars():
    A = aff()
    W = regular_bimodule(A)
    morphs = module_morphism_space(W, W)
    # the identity map is always a morphism
    assert morphs.contains([1, 0, 0, 1])
    for b in morphs.basis:
        # verify the defining equations directly
        phi = [b[0:2], b[2:4]]
        for i in range(2):
            a = A.basis_element(i)
            for al in range(2):
                w = W.basis_element(al)
                lhs = [sum(W.left[i][al][de] * phi[de][ga] for de in range(2)) for ga in range(2)]
                aw = [sum(phi[al][be] * W.left[i][be][ga] for be in range(2)) for ga in range(2)]
                assert lhs == aw


def test_element_arithmetic_and_errors():
    a = E(1, 2)
    b = E(3, -1)
    assert a + b == E(4, 1)
    assert a - b == E(-2, 3)
    assert -a == E(-1, -2)
    assert a.scale("1/2") == E("1/2", 1)
    with pytest.raises(DimensionError):
        a + E(1, 2, 3)
    with pytest.raises(DimensionError):
        aff().mul(a, E(1, 2, 3))


def test_tensor_shape_validation():
    with pytest.raises(DimensionError):
        KVAlgebra(dim=2, product=tensor3([[[0, 0], [0, 1]]]))
    with pytest.raises(DimensionError):
        KVModule(algebra=aff(), dim=1, left=zero3(2, 1, 1), right=zero3(1, 1, 1))


# -- the Element-product identity checks, kept as the independent reference --


def reference_is_kv(A):
    """Brute-force check of (e_i,e_j,e_k) = (e_j,e_i,e_k) over all basis triples."""
    basis = A.basis()
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                lhs = associator(A, basis[i], basis[j], basis[k])
                rhs = associator(A, basis[j], basis[i], basis[k])
                if lhs != rhs:
                    return CheckResult(
                        False,
                        (i, j, k),
                        f"associator symmetry fails at basis triple ({i},{j},{k})",
                    )
    return CheckResult(True)


def reference_is_module(A, W):
    """Check (a,b,w) = (b,a,w) and (a,w,b) = (w,a,b) over all basis triples."""
    if W.algebra is not A and W.algebra != A:
        return CheckResult(False, None, "module is attached to a different algebra")
    abasis = A.basis()
    wbasis = W.basis()
    for i in range(A.dim):
        for j in range(A.dim):
            for al in range(W.dim):
                a, b, w = abasis[i], abasis[j], wbasis[al]
                abw, awb, wab = mixed_associators(A, W, a, b, w)
                baw = W.left_act(A.mul(b, a), w) - W.left_act(b, W.left_act(a, w))
                if abw != baw:
                    return CheckResult(
                        False,
                        (i, j, al),
                        f"(a,b,w) = (b,a,w) fails at (e_{i}, e_{j}, w_{al})",
                    )
                if awb != wab:
                    return CheckResult(
                        False,
                        (i, al, j),
                        f"(a,w,b) = (w,a,b) fails at (e_{i}, w_{al}, e_{j})",
                    )
    return CheckResult(True)


def _verdict(r):
    return (r.ok, r.witness, r.detail)


def _random_tensor(rng, d1, d2, d3, density):
    coeffs = (-2, -1, 1, 2, Fraction(1, 2))
    return tensor3(
        [
            [[rng.choice(coeffs) if rng.random() < density else 0 for _ in range(d3)]
             for _ in range(d2)]
            for _ in range(d1)
        ]
    )


def _perturbed(rng, t):
    cells = [[list(r) for r in p] for p in t]
    a = rng.randrange(len(cells))
    b = rng.randrange(len(cells[a]))
    c = rng.randrange(len(cells[a][b]))
    cells[a][b][c] += rng.choice((-1, 1, 2))
    return tensor3(cells)


def test_sparse_identity_checks_match_element_products():
    rng = random.Random(2024)
    algebras = list(algebra_catalog()) + [random_kv(s, 3 + s % 3) for s in range(30)]
    cases = []  # (algebra, module or None)
    for A in algebras:
        cases.append((A, None))
        cases += [(A, regular_bimodule(A)), (A, left_regular_module(A))]
        for s in range(2):
            W = random_module(A, s, 3)
            cases.append((A, W))
            if A.dim and W.dim:
                for _ in range(3):
                    cases.append((A, KVModule(A, W.dim, _perturbed(rng, W.left), W.right)))
                    cases.append((A, KVModule(A, W.dim, W.left, _perturbed(rng, W.right))))
        if A.dim:
            for _ in range(4):
                cases.append((KVAlgebra(A.dim, _perturbed(rng, A.product)), None))
            foreign = KVAlgebra(A.dim, _perturbed(rng, A.product))
            cases.append((A, regular_bimodule(foreign)))
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        density = rng.choice((0.1, 0.25, 0.5))
        A = KVAlgebra(n, _random_tensor(rng, n, n, n, density))
        cases.append((A, None))
        W = KVModule(
            A, m, _random_tensor(rng, n, m, m, density), _random_tensor(rng, m, n, m, density)
        )
        cases.append((A, W))
    details = set()
    for A, W in cases:
        if W is None:
            got, want = is_kv(A), reference_is_kv(A)
        else:
            got, want = is_module(A, W), reference_is_module(A, W)
        assert _verdict(got) == _verdict(want)
        if not got:
            details.add(got.detail.split(" fails")[0].split(" is attached")[0])
    # every kind of failure was exercised, not only passes
    assert details == {
        "associator symmetry",
        "(a,b,w) = (b,a,w)",
        "(a,w,b) = (w,a,b)",
        "module",
    }


def test_jacobi_subspaces_match_element_products():
    def reference_jacobi(n, m, assoc):
        rows = []
        for i in range(n):
            for j in range(n):
                block = [assoc(i, j, l) for l in range(m)]
                for k in range(m):
                    rows.append([block[l][k] for l in range(m)])
        return kernel(Mat.from_rows(rows, cols=m))

    for s in range(30):
        A = random_kv(s, 3 + s % 3)
        W = random_module(A, s, 3)
        e, w = A.basis(), W.basis()
        assert jacobi_algebra(A) == reference_jacobi(
            A.dim, A.dim, lambda i, j, l: associator(A, e[i], e[j], e[l]).coords
        )
        assert jacobi_module(A, W) == reference_jacobi(
            A.dim, W.dim, lambda i, j, l: mixed_associators(A, W, e[i], e[j], w[l])[0].coords
        )


# ---------------------------------------------------------------------------
# the integer view: built once per object, outside equality, hash and repr


def _fresh_copies(A, W):
    """Copies of A and of W over the copy, with tensors of their own, so
    no view exists on them yet."""
    B = KVAlgebra(A.dim, tensor3(A.product), A.name)
    return B, KVModule(B, W.dim, tensor3(W.left), tensor3(W.right))


def _nested_tuples(x):
    return isinstance(x, tuple) and all(isinstance(y, int) or _nested_tuples(y) for y in x)


def test_integer_view_is_ignored_by_equality_hash_and_repr():
    from kvcohom.core import _view

    A = random_kv(5, n_max=4)
    A, W = _fresh_copies(A, random_module(A, 5, m_max=3))
    for x in (A, W):
        before = (repr(x), hash(x))
        twin = _fresh_copies(A, W)[0 if x is A else 1]
        view = _view(x)
        assert (repr(x), hash(x)) == before
        assert x == twin and twin == x and hash(twin) == hash(x)
        assert "_int_view" not in repr(x) and not hasattr(twin, "_int_view")
        assert _view(x) is view


def test_integer_view_lists_are_tuples_of_the_scaled_constants():
    from kvcohom.core import _view

    A = _scaled_kv(random_kv(7, n_max=4), Fraction(2, 3))
    W = KVModule(A, 2, tensor3([[[Fraction(1, 5) * (i == j == k) for k in range(2)] for j in range(2)]
                                 for i in range(A.dim)]), zero3(2, A.dim, 2))
    views = (_view(A), _view(W), _view(regular_bimodule(A)))
    for view in views:
        assert all(_nested_tuples(t) for t in view[1:])
    a, w, r = views
    assert a.D > 1 and w.D % a.D == 0 and w.D % 5 == 0
    for view in views:
        for i, plane in enumerate(A.product):
            for j, row in enumerate(plane):
                want = tuple((k, int(x * view.D)) for k, x in enumerate(row) if x)
                assert view.gam[i][j] == view.gam_t[j][i] == want
    assert w.left[0][0] == w.left_t[0][0] == ((0, w.D // 5),)
    assert r.gam is a.gam and r.left is a.gam and r.right is a.gam


def _scaled_kv(A, c):
    # the KV identity is homogeneous of degree 2 in the constants
    B = KVAlgebra(A.dim, tensor3([[[c * x for x in r] for r in p] for p in A.product]))
    assert is_kv(B)
    return B


def test_each_algebra_and_module_lists_its_constants_once(monkeypatch):
    import kvcohom.core as core
    from kvcohom.complexes import coboundary_matrix, cohomology

    A = random_kv(11, n_max=4)
    A, W = _fresh_copies(A, random_module(A, 11, m_max=3))
    listed = []
    real = core._int_lists

    def counted(t):
        listed.append(id(t))
        return real(t)

    monkeypatch.setattr(core, "_int_lists", counted)
    for _ in range(3):
        assert is_kv(A) and is_module(A, W)
        jacobi_module(A, W)
        cohomology(A, W, 2)
        for q in range(3):
            coboundary_matrix(A, W, q)
        assert is_module(A, regular_bimodule(A)) == is_module(A, regular_bimodule(A))
    assert sorted(listed) == sorted({id(A.product), id(W.left), id(W.right)})


def test_solve_next_order_lists_the_base_product_once(monkeypatch):
    import kvcohom.core as core
    import kvcohom.deform as df

    B = random_kv(3, n_max=5)
    rep = df.rigidity_report(B).class_representatives[0]
    A = KVAlgebra(B.dim, tensor3(B.product))
    listed = []
    real = core._int_lists

    def counted(t):
        listed.append(t is A.product)
        return real(t)

    monkeypatch.setattr(core, "_int_lists", counted)
    monkeypatch.setattr(df, "_int_lists", counted)
    sol = df.solve_next_order(df.MultiplicationJet(A, (rep,)))
    assert sol.solved
    df.solve_next_order(sol.extended)
    df.rigidity_report(A)
    assert listed.count(True) == 1 and len(listed) > 1
