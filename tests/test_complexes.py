"""Cochain complex: coboundary formula, matrices, cohomology, comparison theory.

Frozen expectations were computed by hand from the structure constants:
the identity-cochain image, the degree-0 values on the affine fixture, the
full dimension tables for the one- and two-dimensional fixtures, and the
comparison-theory table (1, 1, 0).
"""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from kvcohom.complexes import (
    Cochain,
    _coboundary_rows,
    check_budget,
    coboundary,
    coboundary0,
    coboundary_matrix,
    cohomology,
    is_coboundary,
    is_cocycle,
    nijenhuis_cohomology,
    nijenhuis_matrices,
)
from kvcohom.core import (
    Element,
    KVAlgebra,
    KVModule,
    direct_sum,
    is_kv,
    is_module,
    jacobi_module,
    left_regular_module,
    mixed_associators,
    module_direct_sum,
    random_kv,
    random_module,
    regular_bimodule,
    semidirect,
    tensor3,
    zero3,
    zero_module,
)
from kvcohom.deform import MultiplicationJet, kv_bracket, rigidity_report, solve_next_order
from kvcohom.errors import BudgetError, PreconditionError
from kvcohom.extensions import (
    _one_w_tuples,
    e11_cohomology,
    e11_matrix,
    e11_support,
    extend_module_to_semidirect,
)
from kvcohom.fixtures import aff, assoc1, poly2, rad2, zero_algebra
from kvcohom.linalg import (
    Mat,
    Subspace,
    _image,
    _kernel,
    _rank,
    extend_basis,
    image,
    kernel,
    mat_mul,
    rank,
    solve,
    zeros,
)

from gather_loops import reference_coboundary0


def _random_cochain(rng, A, W, q, scale=4):
    vals = [
        Fraction(rng.randint(-scale, scale), rng.choice([1, 1, 2]))
        for _ in range(A.dim**q * W.dim)
    ]
    return Cochain(A, W, q, tuple(vals))


def test_identity_cochain_coboundary_is_minus_product():
    # delta(1_A)(a, b) = -ab on the regular bimodule.
    for A in (aff(), poly2(), rad2()):
        W = regular_bimodule(A)
        n = A.dim
        ident = Cochain.from_function(A, W, 1, lambda args: Element.basis(n, args[0]).coords)
        d = coboundary(ident)
        for i in range(n):
            for j in range(n):
                expect = tuple(-x for x in A.product[i][j])
                assert d.value((i, j)) == expect


def test_degree1_coboundary_matches_direct_formula():
    # delta f(a,b) = -[a f(b) - f(ab) + f(a) b] checked entrywise.
    rng = random.Random(42)
    A = aff()
    W = regular_bimodule(A)
    for _ in range(20):
        f = _random_cochain(rng, A, W, 1)
        d = coboundary(f)
        for i in range(2):
            for j in range(2):
                a, b = A.basis_element(i), A.basis_element(j)
                fb = Element(f.value((j,)))
                fa = Element(f.value((i,)))
                fab = f.evaluate([A.mul(a, b)])
                direct = -(W.left_act(a, fb) - fab + W.right_act(fa, b))
                assert d.value((i, j)) == direct.coords


def test_coboundary0_assoc1_commutative_vanishes():
    A = assoc1()
    W = regular_bimodule(A)
    d = coboundary0(W, Element.of([1]))
    assert d.is_zero()


def test_coboundary0_aff_values():
    A = aff()
    W = regular_bimodule(A)
    d = coboundary0(W, Element.of([1, 0]))  # e1 lies in J
    assert d.value((0,)) == (0, 0)
    assert d.value((1,)) == (0, 1)  # -e2 e1 + e1 e2 = e2


def test_coboundary0_right_module_is_right_action():
    P = poly2()
    W = KVModule(algebra=P, dim=2, left=zero3(2, 2, 2), right=P.product)
    w = Element.of([0, 1])
    d = coboundary0(W, w)
    for i in range(2):
        assert d.value((i,)) == W.right_act(w, P.basis_element(i)).coords


def test_coboundary0_rejects_outside_jacobi():
    A = aff()
    W = regular_bimodule(A)
    with pytest.raises(PreconditionError):
        coboundary0(W, Element.of([0, 1]))  # e2 is outside J = span{e1}


def test_coboundary0_matches_the_element_formula():
    """coboundary0 reads its one column from the degree-0 matrix; the
    Element formula -aw + wa is the reference, on J(W) with the check and
    on arbitrary elements without it."""
    rng = random.Random(29)
    cases = [(aff(), regular_bimodule(aff())), (rad2(), regular_bimodule(rad2()))]
    for seed in range(1, 41):
        A = random_kv(seed, n_max=4)
        cases.append((A, random_module(A, seed + 7)))
    empty = KVAlgebra(0, zero3(0, 0, 0))
    cases += [(empty, zero_module(empty, 2)), (aff(), zero_module(aff(), 0)), (empty, zero_module(empty, 0))]
    outside = 0
    for A, W in cases:
        J = jacobi_module(A, W)
        for b in J.basis:
            w = Element(b)
            assert coboundary0(W, w) == reference_coboundary0(W, w)
        for _ in range(3):
            w = Element(tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(W.dim)))
            outside += not J.contains(w.coords)
            assert coboundary0(W, w, check=False) == reference_coboundary0(W, w)
    assert outside >= 5


def test_coboundary_routes_degree0():
    A = aff()
    W = regular_bimodule(A)
    f0 = Cochain(A, W, 0, (Fraction(1), Fraction(0)))
    assert coboundary(f0).values == coboundary0(W, Element.of([1, 0])).values


def test_delta_delta_is_zero_on_fixtures():
    rng = random.Random(7)
    cases = [
        (aff(), regular_bimodule(aff())),
        (poly2(), regular_bimodule(poly2())),
        (rad2(), left_regular_module(rad2())),
        (zero_algebra(2), zero_module(zero_algebra(2), 2)),
    ]
    for A, W in cases:
        for q in (1, 2):
            for _ in range(5):
                f = _random_cochain(rng, A, W, q)
                assert coboundary(coboundary(f)).is_zero()


def test_degree0_bridge_on_arbitrary_elements():
    # For ANY w over a verified module: (delta delta w)(a,b) = -(a,b,w);
    # outside J(W) this is nonzero, on J(W) it vanishes.
    rng = random.Random(13)
    for seed in range(8):
        A = random_kv(seed, n_max=3)
        W = random_module(A, seed + 100, m_max=3)
        w = Element.of([rng.randint(-4, 4) for _ in range(W.dim)])
        raw = coboundary0(W, w, check=False)
        dd = coboundary(raw)
        for i in range(A.dim):
            for j in range(A.dim):
                a, b = A.basis_element(i), A.basis_element(j)
                abw = mixed_associators(A, W, a, b, w)[0]
                assert dd.value((i, j)) == tuple(-x for x in abw.coords)


def test_degree0_bridge_vanishes_on_jacobi():
    A = aff()
    W = regular_bimodule(A)
    J = jacobi_module(A, W)
    for b in J.basis:
        dd = coboundary(coboundary0(W, Element(b)))
        assert dd.is_zero()


def test_coboundary_matrix_agrees_with_coboundary():
    for A, W in ((aff(), regular_bimodule(aff())), (rad2(), left_regular_module(rad2()))):
        for q in (1, 2):
            M = coboundary_matrix(A, W, q)
            dim = A.dim**q * W.dim
            for c in range(dim):
                basis_vals = tuple(
                    Fraction(1) if t == c else Fraction(0) for t in range(dim)
                )
                f = Cochain(A, W, q, basis_vals)
                col = tuple(M.at(r, c) for r in range(M.rows))
                assert col == coboundary(f).values


def test_coboundary_matrices_compose_to_zero():
    for A in (aff(), poly2(), rad2()):
        W = regular_bimodule(A)
        M0 = coboundary_matrix(A, W, 0)
        M1 = coboundary_matrix(A, W, 1)
        M2 = coboundary_matrix(A, W, 2)
        assert mat_mul(M1, M0) == zeros(M1.rows, M0.cols)
        assert mat_mul(M2, M1) == zeros(M2.rows, M1.cols)


def test_coboundary_matrix_q0_domain_is_jacobi():
    A = aff()
    W = regular_bimodule(A)
    M0 = coboundary_matrix(A, W, 0)
    assert M0.cols == 1  # J = span{e1}
    assert M0.rows == 4
    # column = flatten of delta e1: values (0,0) on e1, (0,1) on e2
    assert tuple(M0.at(r, 0) for r in range(4)) == (0, 0, 0, 1)


def test_cohomology_assoc1_regular():
    A = assoc1()
    rep = cohomology(A, regular_bimodule(A), 2)
    d0 = rep.degree(0)
    assert (d0.dim_C, d0.dim_Z, d0.dim_B, d0.dim_H) == (1, 1, 0, 1)
    d1 = rep.degree(1)
    assert (d1.dim_C, d1.dim_Z, d1.dim_B, d1.dim_H) == (1, 0, 0, 0)
    d2 = rep.degree(2)
    assert (d2.dim_C, d2.dim_Z, d2.dim_B, d2.dim_H) == (1, 1, 1, 0)


def test_cohomology_aff_regular():
    A = aff()
    rep = cohomology(A, regular_bimodule(A), 1)
    assert rep.degree(0).dim_H == 0
    # Z_1 is spanned by e2 -> e2, which is exactly delta(e1): H^1 = 0.
    d1 = rep.degree(1)
    assert (d1.dim_Z, d1.dim_B, d1.dim_H) == (1, 1, 0)


def test_cohomology_zero_algebra_everything_survives():
    A = zero_algebra(2)
    W = regular_bimodule(A)  # both actions zero
    rep = cohomology(A, W, 2)
    assert rep.degree(0).dim_H == 2
    for q in (1, 2):
        d = rep.degree(q)
        assert d.dim_C == 2**q * 2
        assert d.dim_H == d.dim_C


def test_cohomology_representatives_are_cocycles_not_coboundaries():
    A = aff()
    W = regular_bimodule(A)
    rep = cohomology(A, W, 2)
    for d in rep.degrees:
        assert d.dim_H == d.dim_Z - d.dim_B
        assert len(d.representatives) == d.dim_H
        for r in d.representatives:
            assert is_cocycle(r)
            if d.degree >= 1:
                assert is_coboundary(r) is None


def test_cohomology_rejects_unverified_inputs():
    bad_prod = [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]
    from kvcohom.core import KVAlgebra, tensor3

    bad = KVAlgebra(dim=2, product=tensor3(bad_prod))
    with pytest.raises(PreconditionError):
        cohomology(bad, regular_bimodule(bad), 1)


def test_budget_error_names_degree():
    A = aff()
    W = regular_bimodule(A)
    with pytest.raises(BudgetError) as err:
        cohomology(A, W, 3, budget=10)
    # tables grow 2, 4, 8, 16, ...; the first to cross 10 is degree 3
    assert err.value.degree == 3
    assert err.value.cells == 16
    assert check_budget(2, 2, 1, 100) == 4


def test_is_cocycle_and_is_coboundary_roundtrip():
    rng = random.Random(3)
    A = rad2()
    W = regular_bimodule(A)
    for q in (1, 2):
        g = _random_cochain(rng, A, W, q)
        dg = coboundary(g)
        assert is_cocycle(dg)
        pre = is_coboundary(dg)
        assert pre is not None
        assert coboundary(pre).values == dg.values


def test_is_coboundary_zero_cochain():
    A = aff()
    W = regular_bimodule(A)
    z = Cochain.zero(A, W, 2)
    assert is_cocycle(z)
    pre = is_coboundary(z)
    assert pre is not None and pre.is_zero()


def test_is_cocycle_degree0():
    A = aff()
    W = regular_bimodule(A)
    # e1 is in J but delta e1 != 0: not a 0-cocycle; e2 is outside J entirely.
    assert not is_cocycle(Cochain(A, W, 0, (Fraction(1), Fraction(0))))
    assert not is_cocycle(Cochain(A, W, 0, (Fraction(0), Fraction(1))))
    Z = zero_algebra(2)
    WZ = regular_bimodule(Z)
    assert is_cocycle(Cochain(Z, WZ, 0, (Fraction(1), Fraction(1))))


def test_nijenhuis_ce_differential_squares_to_zero():
    A = aff()
    W = regular_bimodule(A)
    mats = nijenhuis_matrices(A, W, 3)
    for p in (0, 1):
        prod = mat_mul(mats[p + 1], mats[p])
        assert prod == zeros(prod.rows, prod.cols)


def test_nijenhuis_dims_aff():
    # Hand computation over the commutator Lie algebra [e1,e2] = e2 acting
    # on the four-dimensional map space: invariants are spanned by e1 -> e1,
    # first Chevalley-Eilenberg cohomology has dimension 1, second vanishes.
    A = aff()
    rep = nijenhuis_cohomology(A, regular_bimodule(A), 3)
    assert [rep.degree(q).dim_H for q in (1, 2, 3)] == [1, 1, 0]
    for d in rep.degrees:
        assert d.dim_H == d.dim_Z - d.dim_B


def test_nijenhuis_dims_are_the_kernel_and_image_of_its_differentials():
    # The table reads dim Z and dim B off one rank per differential; the
    # kernel and image of the same matrices are the independent route.
    for s in range(1, 13):
        A = random_kv(s, 4)
        for W in (regular_bimodule(A), random_module(A, s, 2)):
            mats = nijenhuis_matrices(A, W, 3)
            for d in nijenhuis_cohomology(A, W, 3).degrees:
                p = d.degree - 1
                assert d.dim_C == mats[p].cols
                assert d.dim_Z == kernel(mats[p]).dim
                assert d.dim_B == (image(mats[p - 1]).dim if p else 0)


def test_functoriality_of_coboundary():
    # For a module morphism phi: delta(phi o f) = phi o (delta f).
    from kvcohom.core import module_morphism_space

    rng = random.Random(23)
    A = aff()
    W = regular_bimodule(A)
    morphs = module_morphism_space(W, W)
    assert morphs.dim >= 1

    def compose(phi_flat, f):
        m = W.dim
        phi = [phi_flat[al * m : (al + 1) * m] for al in range(m)]

        def fn(args):
            v = f.value(args)
            return [
                sum(v[de] * phi[de][ga] for de in range(m)) for ga in range(m)
            ]

        return Cochain.from_function(A, W, f.degree, fn)

    for phi_flat in morphs.basis:
        for q in (1, 2):
            f = _random_cochain(rng, A, W, q)
            lhs = coboundary(compose(phi_flat, f))
            rhs = compose(phi_flat, coboundary(f))
            assert lhs.values == rhs.values


def test_euler_characteristic_of_split_sums():
    # For T = W + V the cohomology splits degreewise, so the alternating sum
    # of (dim H^q(T) - dim H^q(W) - dim H^q(V)) vanishes term by term.
    A = aff()
    W = regular_bimodule(A)
    V = left_regular_module(A)
    T = module_direct_sum(W, V)
    q_max = 2
    rw = cohomology(A, W, q_max)
    rv = cohomology(A, V, q_max)
    rt = cohomology(A, T, q_max)
    total = 0
    for q in range(q_max + 1):
        diff = rt.degree(q).dim_H - rw.degree(q).dim_H - rv.degree(q).dim_H
        assert diff == 0
        total += (-1) ** q * diff
    assert total == 0


def test_cochain_evaluate_multilinearity():
    rng = random.Random(31)
    A = rad2()
    W = regular_bimodule(A)
    f = _random_cochain(rng, A, W, 2)
    a = Element.of([2, -1])
    b = Element.of([1, 3])
    c = Element.of([0, 1])
    lhs = f.evaluate([a + b, c])
    rhs = f.evaluate([a, c]) + f.evaluate([b, c])
    assert lhs == rhs
    assert f.evaluate([a.scale(3), c]) == f.evaluate([a, c]).scale(3)


def dense_coboundary(f):
    """The coboundary loop over dense table rows, kept as a reference."""
    A, W, q = f.algebra, f.module, f.degree
    n, m = A.dim, W.dim
    gamma, left, right = A.product, W.left, W.right
    out = [Fraction(0)] * (n ** (q + 1) * m)
    for args in itertools.product(range(n), repeat=q + 1):
        acc = [Fraction(0)] * m
        last = args[q]
        for j in range(q):
            sign = -1 if j % 2 == 0 else 1
            ij = args[j]
            rest = args[:j] + args[j + 1 :]
            term = [Fraction(0)] * m
            fv = f.value(rest)
            for be in range(m):
                c = fv[be]
                if c == 0:
                    continue
                row = left[ij][be]
                for ga in range(m):
                    if row[ga] != 0:
                        term[ga] += c * row[ga]
            for p in range(q):
                row = gamma[ij][rest[p]]
                for k in range(n):
                    co = row[k]
                    if co == 0:
                        continue
                    fv2 = f.value(rest[:p] + (k,) + rest[p + 1 :])
                    for ga in range(m):
                        if fv2[ga] != 0:
                            term[ga] -= co * fv2[ga]
            fv3 = f.value(rest[:-1] + (ij,))
            for be in range(m):
                c = fv3[be]
                if c == 0:
                    continue
                row = right[be][last]
                for ga in range(m):
                    if row[ga] != 0:
                        term[ga] += c * row[ga]
            for ga in range(m):
                acc[ga] += sign * term[ga]
        off = f.offset(args)
        out[off : off + m] = acc
    return Cochain(A, W, q + 1, tuple(out))


def test_sparse_coboundary_matches_dense_loop():
    rng = random.Random(77)
    seen = set()
    for t in range(90):
        A = random_kv(t, 3 + t % 2)
        W = regular_bimodule(A) if t % 2 else random_module(A, t, 3)
        q = 1 + t % 3
        if A.dim ** (q + 1) * W.dim > 1500:
            q = 1
        f = _random_cochain(rng, A, W, q)
        assert coboundary(f).values == dense_coboundary(f).values
        seen.add(q)
    assert seen == {1, 2, 3}
    # The scatter's work follows the nonzeros of f: sparse cochains, and
    # degree 3 under regular coefficients at n = 4 and 5.
    seen = set()
    for t, s in enumerate((4, 8, 11, 13, 1, 2, 16, 20)):
        A = random_kv(s, 5)
        W = regular_bimodule(A) if t < 6 else random_module(A, s, 3)
        for q in (1, 2, 3):
            size = A.dim**q * W.dim
            density = (0.005, 0.02, 0.05)[(t + q) % 3]
            picks = rng.sample(range(size), max(1, round(density * size)))
            vals = [Fraction(0)] * size
            for pos in picks:
                vals[pos] = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))
            f = Cochain(A, W, q, tuple(vals))
            assert coboundary(f).values == dense_coboundary(f).values
            seen.add((A.dim, q, W == regular_bimodule(A)))
    assert {(4, 3, True), (5, 3, True)} <= seen


def test_integer_coboundary_matches_the_matrix_on_rational_cochains():
    """The cochain route sums ints over the denominator D * d of the
    constants and the values; it agrees with the matrix route on cochains
    with denominators 2, 3 and 5, on the zero cochain and on one nonzero."""
    rng = random.Random("integer-coboundary")
    denominators, constants = set(), set()
    for s in range(1, 25):
        A = random_kv(s, n_max=4)
        W = random_module(A, s)
        constants |= {x.denominator for p in A.product + W.left + W.right for r in p for x in r}
        for q in (1, 2):
            M = coboundary_matrix(A, W, q)
            size = A.dim**q * W.dim
            pos = rng.randrange(size)
            vals = [
                Fraction(rng.choice([-3, 0, 0, 1, 4]), rng.choice([1, 2, 3, 5])) for _ in range(size)
            ]
            single = [Fraction(0)] * size
            single[pos] = Fraction(-7, 3)
            denominators |= {x.denominator for x in vals}
            for f in (
                Cochain.zero(A, W, q),
                Cochain(A, W, q, tuple(single)),
                Cochain(A, W, q, tuple(vals)),
            ):
                got = coboundary(f).values
                assert got == M.mat_vec(f.values)
                assert all(type(x) is Fraction for x in got)
    assert {2, 3, 5} <= denominators
    assert len(constants) > 1


def test_cohomology_computes_the_jacobi_module_once(monkeypatch):
    import kvcohom.complexes as cx

    calls = []

    def counted(A, W):
        calls.append(1)
        return jacobi_module(A, W)

    monkeypatch.setattr(cx, "jacobi_module", counted)
    A = aff()
    W = regular_bimodule(A)
    report = cohomology(A, W, 2)
    assert len(calls) == 1
    assert report.degree(0).dim_C == jacobi_module(A, W).dim
    # the public degree-0 matrix still computes J(W) itself
    calls.clear()
    assert coboundary_matrix(A, W, 0).cols == jacobi_module(A, W).dim
    assert len(calls) == 1


def test_each_differential_is_assembled_once_and_in_order(monkeypatch):
    import kvcohom.complexes as cx
    import kvcohom.extensions as ext

    degrees = []

    def counted(A, W, q, outputs=None):
        degrees.append(q)
        return _coboundary_rows(A, W, q, outputs)

    monkeypatch.setattr(cx, "_coboundary_rows", counted)
    monkeypatch.setattr(ext, "_coboundary_rows", counted)
    A = random_kv(16, n_max=3)
    setups = [(aff(), regular_bimodule(aff()), regular_bimodule(aff()))]
    setups.append((A, random_module(A, 16, m_max=2), random_module(A, 17, m_max=2)))
    for A, W, V in setups:
        for q_max in (0, 1, 2):
            degrees.clear()
            cohomology(A, W, q_max)
            # degree 0 is delta_0 on J(W), read from the action lists
            assert degrees == list(range(1, q_max + 1))
            degrees.clear()
            e11_cohomology(A, W, V, q_max)
            # the (1, q) column's differential is delta_{q+1} over the semidirect sum
            assert degrees == list(range(1, q_max + 2))
        degrees.clear()
        rigidity_report(A)
        assert degrees == [1, 2]


def test_cohomology_of_zero_dimensional_inputs():
    empty = KVAlgebra(0, zero3(0, 0, 0))
    cases = [
        (empty, zero_module(empty, 2), (2, 2, 0, 2)),
        (aff(), zero_module(aff(), 0), (0, 0, 0, 0)),
        (empty, zero_module(empty, 0), (0, 0, 0, 0)),
    ]
    for A, W, d0 in cases:
        for q_max in (0, 1, 2):
            report = cohomology(A, W, q_max)
            assert [(d.degree, d.dim_C, d.dim_Z, d.dim_B, d.dim_H) for d in report.degrees] == [
                (0, *d0), *((q, 0, 0, 0, 0) for q in range(1, q_max + 1))
            ]
            assert [[r.values for r in d.representatives] for d in report.degrees] == [
                [tuple(Fraction(int(i == j)) for j in range(W.dim)) for i in range(d0[3])]
            ] + [[]] * q_max
    # over a zero-dimensional module every table is empty at every degree,
    # and the row assembler takes no output tuple to learn it
    report = cohomology(aff(), zero_module(aff(), 0), 12)
    assert [(d.degree, d.dim_C, d.dim_Z, d.dim_B, d.dim_H) for d in report.degrees] == [
        (q, 0, 0, 0, 0) for q in range(13)
    ]
    report = e11_cohomology(aff(), regular_bimodule(aff()), zero_module(aff(), 0), 6)
    assert [(d.degree, d.dim_C, d.dim_Z, d.dim_B, d.dim_H, d.representatives) for d in report.degrees] == [
        (q, 0, 0, 0, 0, ()) for q in range(7)
    ]


def test_row_assembler_takes_no_output_over_a_zero_dimensional_module():
    taken = []

    def outputs(n, q):
        for args in itertools.product(range(n), repeat=q + 1):
            taken.append(args)
            yield args

    for A in (aff(), random_kv(3, n_max=4)):
        for q in (1, 2, 3):
            taken.clear()
            assert _coboundary_rows(A, zero_module(A, 0), q, outputs(A.dim, q))[1] == []
            assert taken == []
            rows = _coboundary_rows(A, zero_module(A, 1), q, outputs(A.dim, q))[1]
            assert len(taken) == len(rows) == A.dim ** (q + 1)


def test_is_coboundary_computes_the_jacobi_module_once(monkeypatch):
    import kvcohom.complexes as cx

    calls = []

    def counted(A, W):
        calls.append(1)
        return jacobi_module(A, W)

    monkeypatch.setattr(cx, "jacobi_module", counted)
    rng = random.Random(5)
    for A in (random_kv(3, n_max=4), aff()):
        W = regular_bimodule(A)
        J = jacobi_module(A, W)
        w = [sum((Fraction(rng.randint(-3, 3)) * b[t] for b in J.basis), Fraction(0)) for t in range(W.dim)]
        f = coboundary0(W, Element(tuple(w)), check=False)
        for g, exact in ((f, True), (_random_cochain(rng, A, W, 1), False)):
            calls.clear()
            pre = is_coboundary(g)
            assert len(calls) == 1
            if exact:
                assert pre is not None and pre.degree == 0 and J.contains(pre.values)
                assert coboundary0(W, Element(pre.values)).values == f.values
            else:
                assert pre is None


def dense_nijenhuis_matrices(A, W, q_max):
    """The Chevalley-Eilenberg differentials as `nijenhuis_matrices` built them
    before it read nonzero constants: a dense n x (nm) x (nm) action table."""
    n, m = A.dim, W.dim
    bracket = [[[A.product[i][j][k] - A.product[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]
    nv = n * m
    act = [[[Fraction(0)] * nv for _ in range(nv)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for be in range(m):
                src = j * m + be
                for ga in range(m):
                    if W.left[i][be][ga] != 0:
                        act[i][src][j * m + ga] += W.left[i][be][ga]
                for b in range(n):
                    if bracket[i][b][j] != 0:
                        act[i][src][b * m + be] -= bracket[i][b][j]

    def nonzero(row):
        return [(t, x) for t, x in enumerate(row) if x]

    acts = [[nonzero(row) for row in act[i]] for i in range(n)]
    combos = {p: list(itertools.combinations(range(n), p)) for p in range(q_max + 1)}
    combo_pos = {p: {c: t for t, c in enumerate(combos[p])} for p in range(q_max + 1)}

    def ce_matrix(p):
        entries = {}

        def bump(r, c, val):
            entries[r, c] = entries.get((r, c), Fraction(0)) + val

        for T in combos[p + 1]:
            out_base = combo_pos[p + 1][T] * nv
            for i in range(p + 1):
                neg = i % 2 == 1
                rest = T[:i] + T[i + 1 :]
                src_base = combo_pos[p][rest] * nv
                for src in range(nv):
                    for dst, a in acts[T[i]][src]:
                        bump(out_base + dst, src_base + src, -a if neg else a)
            for i in range(p + 1):
                for j in range(i + 1, p + 1):
                    rest = tuple(T[t] for t in range(p + 1) if t not in (i, j))
                    for k, co in nonzero(bracket[T[i]][T[j]]):
                        if k in rest:
                            continue
                        pos = sum(1 for r in rest if r < k)
                        val = -co if (i + j + pos) % 2 else co
                        src_base = combo_pos[p][tuple(sorted(rest + (k,)))] * nv
                        for v in range(nv):
                            bump(out_base + v, src_base + v, val)
        return Mat.from_items(len(combos[p + 1]) * nv, len(combos[p]) * nv, entries)

    return {p: ce_matrix(p) for p in range(q_max)}


def test_nijenhuis_matrices_match_dense_action_table():
    from kvcohom.fixtures import algebra_fixture, algebra_fixture_names

    cases = [algebra_fixture(name) for name in algebra_fixture_names()]
    cases += [random_kv(s, n_max=5) for s in range(1, 9)]
    nonzero_blocks = 0
    for t, A in enumerate(cases):
        for W in (regular_bimodule(A), random_module(A, t, m_max=3), left_regular_module(A)):
            got, want = nijenhuis_matrices(A, W, 3), dense_nijenhuis_matrices(A, W, 3)
            assert got == want
            nonzero_blocks += sum(any(True for _ in mat.items()) for mat in got.values())
    assert nonzero_blocks >= 40


def fraction_coboundary_matrix(A, W, q):
    """The degree-q (q >= 1) coboundary matrix summed in Fractions from the
    dense structure constants, as the assembler built it before it moved to
    integer terms."""
    n, m = A.dim, W.dim
    entries = {}

    def bump(r, c, x):
        entries[r, c] = entries.get((r, c), Fraction(0)) + x

    def flat(args):
        idx = 0
        for a in args:
            idx = idx * n + a
        return idx * m

    for args in itertools.product(range(n), repeat=q + 1):
        out = flat(args)
        for j in range(q):
            sign = -1 if j % 2 == 0 else 1
            ij = args[j]
            rest = args[:j] + args[j + 1 :]
            for be in range(m):
                for ga in range(m):
                    if W.left[ij][be][ga]:
                        bump(out + ga, flat(rest) + be, sign * W.left[ij][be][ga])
            for p in range(q):
                for k in range(n):
                    co = A.product[ij][rest[p]][k]
                    if co:
                        for be in range(m):
                            bump(out + be, flat(rest[:p] + (k,) + rest[p + 1 :]) + be, -sign * co)
            for be in range(m):
                for ga in range(m):
                    if W.right[be][args[q]][ga]:
                        bump(out + ga, flat(rest[:-1] + (ij,)) + be, sign * W.right[be][args[q]][ga])
    return Mat.from_items(n ** (q + 1) * m, n**q * m, entries)


def _scaled(A, W, c):
    """A with its product times c and W with its actions times c over it.

    The KV and module identities are homogeneous of degree 2 in the
    constants, so both still hold."""
    def times(t):
        return tensor3([[[c * x for x in r] for r in p] for p in t])

    B = KVAlgebra(A.dim, times(A.product))
    return B, KVModule(B, W.dim, times(W.left), times(W.right))


def _mixed_setups():
    """(A, W, V) whose structure constants have mixed denominators: direct
    sums of algebras scaled by 1/2 and 1/3, and modules scaled by 3/5."""
    out = []
    for s in (9, 12, 14):
        A1, A2 = random_kv(s, n_max=2), random_kv(s + 1, n_max=2)
        A = direct_sum(_scaled(A1, zero_module(A1, 1), Fraction(1, 2))[0],
                       _scaled(A2, zero_module(A2, 1), Fraction(1, 3))[0])
        out.append((A, random_module(A, s, m_max=2), left_regular_module(A)))
    for s in (7, 15, 17):
        B = random_kv(s, n_max=3)
        B5, W5 = _scaled(B, random_module(B, s, m_max=2), Fraction(3, 5))
        _, V5 = _scaled(B, random_module(B, s + 1, m_max=2), Fraction(3, 5))
        out.append((B5, W5, V5))
    for A, W, V in out:
        assert is_kv(A) and is_module(A, W) and is_module(A, V)
    return out


def _denominators(A, *modules):
    tables = [A.product] + [t for W in modules for t in (W.left, W.right)]
    return {x.denominator for t in tables for p in t for r in p for x in r if x}


def test_integer_assembly_matches_fraction_assemblers_on_mixed_denominators():
    setups = _mixed_setups()
    mixed = [dens for A, W, V in setups for dens in [_denominators(A, W, V)] if lcm(*dens) != max(dens)]
    assert len(mixed) >= 2
    for A, W, V in setups:
        for M in (W, V, regular_bimodule(A) if is_module(A, regular_bimodule(A)) else W):
            for q in (1, 2):
                assert coboundary_matrix(A, M, q) == fraction_coboundary_matrix(A, M, q)
            assert nijenhuis_matrices(A, M, 3) == dense_nijenhuis_matrices(A, M, 3)
        G = semidirect(A, W)
        Vt = extend_module_to_semidirect(G, A.dim, V)
        for q in (0, 1):
            full = fraction_coboundary_matrix(G, Vt, q + 1)
            src, dst = e11_support(A, W, V, q), e11_support(A, W, V, q + 1)
            want = Mat.from_rows([[full.at(r, c) for c in src] for r in dst], cols=len(src))
            assert e11_matrix(A, W, V, q) == want


def _route_setups():
    """(A, coefficient modules, V): the mixed-denominator setups with their
    regular module where it is one, and seeded random_kv instances with
    random, regular and left-regular coefficients."""
    out = []
    for A, W, V in _mixed_setups():
        modules = [W, V] + [M for M in (regular_bimodule(A),) if is_module(A, M)]
        out.append((A, modules, V))
    for s in (3, 8, 19, 28):
        A = random_kv(s, n_max=4)
        modules = [random_module(A, s, m_max=2), regular_bimodule(A)]
        modules += [M for M in (left_regular_module(A),) if is_module(A, M)]
        out.append((A, modules, random_module(A, s + 1, m_max=2)))
    return out


def _public_step(d_q, d_prev):
    """Z, B and the representatives through the public kernel and image."""
    Z = kernel(d_q)
    B = Subspace.zero(d_q.cols) if d_prev is None else image(d_prev)
    return Z, B, extend_basis(B, Z)


def test_integer_rows_give_the_subspaces_of_the_public_matrices():
    for A, modules, _ in _route_setups():
        for M in modules:
            for q in (1, 2):
                mat = coboundary_matrix(A, M, q)
                D, rows = _coboundary_rows(A, M, q)
                assert (len(rows), D > 0) == (mat.rows, True)
                assert _kernel(rows, mat.cols) == kernel(mat)
                assert _image(rows, mat.cols) == image(mat)
                assert _rank(rows) == rank(mat)
            report = cohomology(A, M, 2)
            mats = [coboundary_matrix(A, M, q) for q in range(3)]
            for q in (1, 2):
                Z, B, reps = _public_step(mats[q], mats[q - 1])
                d = report.degree(q)
                assert (d.dim_Z, d.dim_B) == (Z.dim, B.dim)
                assert [r.values for r in d.representatives] == reps
            for p, d in enumerate(nijenhuis_cohomology(A, M, 3).degrees):
                ranks = [rank(m) for m in nijenhuis_matrices(A, M, 3).values()]
                assert d.dim_Z == d.dim_C - ranks[p]
                assert d.dim_B == (ranks[p - 1] if p else 0)


def test_integer_rows_give_the_rigidity_and_e11_reports_of_the_public_matrices():
    for A, modules, V in _route_setups():
        W = regular_bimodule(A)
        if is_module(A, W):
            report = rigidity_report(A)
            Z, B, reps = _public_step(coboundary_matrix(A, W, 2), coboundary_matrix(A, W, 1))
            assert (report.dim_Z2, report.dim_B2) == (Z.dim, B.dim)
            assert [sum((tuple(r) for p in t for r in p), ()) for t in report.class_representatives] == reps
        W = modules[0]
        report = e11_cohomology(A, W, V, 1)
        mats = [e11_matrix(A, W, V, q) for q in (0, 1)]
        for q in (0, 1):
            Z, B, reps = _public_step(mats[q], mats[q - 1] if q else None)
            support = e11_support(A, W, V, q)
            d = report.degree(q)
            assert (d.dim_Z, d.dim_B) == (Z.dim, B.dim)
            assert [[r.values[pos] for pos in support] for r in d.representatives] == [list(z) for z in reps]


def _public_next_order(jet):
    """(target, coefficient, certificate) of the next order through the
    public coboundary_matrix, solve and the kernel of its transpose."""
    A, n, k = jet.base, jet.dim, jet.order + 1
    target = [Fraction(0)] * n**4
    for i in range(1, k):
        for t, x in enumerate(flatten4(kv_bracket(jet.coefficient(i), jet.coefficient(k - i)))):
            target[t] -= x / 2
    M = coboundary_matrix(A, regular_bimodule(A), 2)
    x = solve(M, target)
    if x is not None:
        return target, x, None
    certificate = next(y for y in kernel(M.transpose()).basis if sum(a * b for a, b in zip(y, target)))
    return target, None, certificate


def flatten4(t):
    return [x for p in t for q in p for r in q for x in r]


def test_next_order_matches_the_public_matrix_route():
    outcomes = set()
    for A, _, _ in _route_setups():
        if not is_module(A, regular_bimodule(A)):
            continue
        for mu in rigidity_report(A).class_representatives[:3]:
            jet = MultiplicationJet(A, (mu,))
            for _ in range(2):
                sol = solve_next_order(jet)
                target, x, certificate = _public_next_order(jet)
                assert flatten4(sol.target) == target
                got = None if sol.coefficient is None else [y for p in sol.coefficient for r in p for y in r]
                assert (got, sol.certificate) == (None if x is None else list(x), certificate)
                outcomes.add(sol.solved)
                if not sol.solved:
                    break
                jet = sol.extended
    assert outcomes == {True, False}


def test_library_differentials_never_build_the_public_matrices(monkeypatch):
    import kvcohom.complexes as cx
    import kvcohom.extensions as ext

    def refuse(*args, **kwargs):
        raise AssertionError("a public differential matrix was built")

    for module, name in ((cx, "coboundary_matrix"), (ext, "e11_matrix"), (cx, "nijenhuis_matrices")):
        monkeypatch.setattr(module, name, refuse)
    A, W, V = _mixed_setups()[0]
    assert cohomology(A, W, 2).degree(2).dim_C == A.dim**2 * W.dim
    assert nijenhuis_cohomology(A, W, 3).degree(3).dim_C
    assert e11_cohomology(A, W, V, 2).degree(2).dim_C
    B = random_kv(1, n_max=4)
    report = rigidity_report(B)
    sol = solve_next_order(MultiplicationJet(B, (report.class_representatives[1],)))
    assert not sol.solved and sol.certificate is not None


# ---------------------------------------------------------------------------
# the scatter assembler against the gather assembler it replaced


def gather_coboundary_rows(A, W, q, outputs=None):
    """The gather assembler that `_coboundary_rows` replaced: each output
    tuple in turn visits every (slot, beta, p) head, over the integer
    constants times D listed straight from the dense tensors."""
    n, m = A.dim, W.dim
    tables = (A.product, W.left, W.right)
    D = lcm(*{x.denominator for t in tables for p in t for r in p for x in r if x})

    def lists(t):
        return [[[(k, x.numerator * (D // x.denominator)) for k, x in enumerate(r) if x] for r in p] for p in t]

    gammas, lefts, rights = map(lists, tables)

    def negated(t):
        return [[[(k, -x) for k, x in pairs] for pairs in row] for row in t]

    signed = [(negated(lefts), gammas, negated(rights)), (lefts, negated(gammas), rights)]
    strides = [n ** (q - 1 - p) * m for p in range(q)]
    if outputs is None:
        outputs = itertools.product(range(n), repeat=q + 1)
    rows = []
    for args in outputs:
        block = [{} for _ in range(m)]
        last = args[q]
        base = sum(a * st for a, st in zip(args[1:], strides))
        for j in range(q):
            ls, gs, rs = signed[j % 2]
            ij = args[j]
            for be in range(m):
                c = base + be
                for ga, x in ls[ij][be]:
                    r = block[ga]
                    r[c] = r.get(c, 0) + x
            for p in range(q):
                rp = args[p] if p < j else args[p + 1]
                st = strides[p]
                for k, co in gs[ij][rp]:
                    c = base + (k - rp) * st
                    for r in block:
                        r[c] = r.get(c, 0) + co
                        c += 1
            src = base + (ij - last) * m
            for be in range(m):
                c = src + be
                for ga, x in rs[be][last]:
                    r = block[ga]
                    r[c] = r.get(c, 0) + x
            if j + 1 < q:
                base += (ij - args[j + 1]) * strides[j]
        rows.extend({c: x for c, x in r.items() if x} for r in block)
    return D, rows


def _assert_same_rows(got, want):
    (D, rows), (D_want, rows_want) = got, want
    assert D == D_want and len(rows) == len(rows_want)
    for r, r_want in zip(rows, rows_want):
        assert r == r_want
        assert all(type(x) is int for x in r.values())


def test_scatter_rows_match_the_gather_assembler():
    setups = _route_setups()
    # n = 5 at q = 3 has 625 output tuples, more than one chunk
    for s in (2, 5):
        A = random_kv(s, n_max=5)
        setups.append((A, [regular_bimodule(A), random_module(A, s, m_max=3)], random_module(A, s + 1, m_max=2)))
    assert max(A.dim for A, _, _ in setups) == 5
    empty = 0
    for A, modules, V in setups:
        for M in modules:
            for q in (1, 2, 3):
                want = gather_coboundary_rows(A, M, q)
                _assert_same_rows(_coboundary_rows(A, M, q), want)
                empty += sum(1 for r in want[1] if not r)
        # the (1, q+1) output tuples of e11_cohomology, in their order
        W = modules[0]
        G = semidirect(A, W)
        Vt = extend_module_to_semidirect(G, A.dim, V)
        for q in (0, 1, 2):
            outputs = _one_w_tuples(A.dim, G.dim, q + 2)
            want = gather_coboundary_rows(G, Vt, q + 1, outputs)
            _assert_same_rows(_coboundary_rows(G, Vt, q + 1, iter(outputs)), want)
    assert empty > 0  # empty rows keep their places


def test_differentials_refuse_a_module_over_another_algebra():
    from kvcohom.errors import DimensionError

    A = aff()
    B = KVAlgebra(A.dim, tensor3([[[2 * x for x in r] for r in p] for p in A.product]))
    assert B != A
    W = regular_bimodule(A)
    for call in (
        lambda: jacobi_module(B, W),
        lambda: coboundary_matrix(B, W, 0),
        lambda: coboundary_matrix(B, W, 2),
        lambda: nijenhuis_matrices(B, W, 2),
    ):
        with pytest.raises(DimensionError, match="different algebra"):
            call()
    assert not is_module(B, W)
