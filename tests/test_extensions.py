"""Bigraded decomposition and the two extension constructions.

The semidirect-sum bidegree bookkeeping, the p = 1 column complex, module
extensions V -> T -> W classified by (1,1)-cocycles, and algebra extensions
W -> T -> A classified by 2-cocycles — including the exact residual
correspondence that makes the verifiers double as cocycle tests.
"""

import itertools
import os
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
    KVAlgebra,
    KVModule,
    is_kv,
    is_module,
    module_morphism_space,
    random_kv,
    random_module,
    regular_bimodule,
    semidirect,
    tensor3,
    zero_module,
)
from kvcohom.errors import (
    BudgetError,
    DimensionError,
    InputError,
    PreconditionError,
)
from kvcohom.extensions import (
    AlgebraExtension,
    BigradedCochain,
    ModuleExtension,
    algebra_cocycle_from_section,
    algebra_extension_from_cocycle,
    algebra_extensions_equivalent,
    bigrade,
    cocycle_from_section,
    e11_coboundary0,
    e11_cohomology,
    e11_matrix,
    e11_support,
    extend_module_to_semidirect,
    extensions_equivalent,
    graded_piece,
    module_extension_from_cocycle,
)
from kvcohom.fixtures import aff, zero_algebra
from kvcohom.linalg import Mat, kernel, mat_mul, rank, solve

from gather_loops import dense_morphism_space, reference_embed_w_map

F = Fraction


def aff_setup():
    A = aff()
    W = regular_bimodule(A)
    V = regular_bimodule(A)
    return A, W, V


def trivial_setup():
    """Two-dimensional zero algebra with one-dimensional zero-action modules."""
    A = zero_algebra(2)
    return A, zero_module(A, 1), zero_module(A, 1)


def semidirect_space(A, W, V):
    G = semidirect(A, W)
    Vt = extend_module_to_semidirect(G, A.dim, V)
    return G, Vt


def random_g_cochain(G, Vt, degree, rng):
    vals = tuple(F(rng.randint(-3, 3)) for _ in range(G.dim**degree * Vt.dim))
    return Cochain(G, Vt, degree, vals)


def random_theta(rng, m, v):
    return Mat.from_rows(
        [[F(rng.randint(-3, 3)) for _ in range(v)] for _ in range(m)], cols=v
    )


def expand_support(values, support, total):
    full = [F(0)] * total
    for val, pos in zip(values, support):
        full[pos] = val
    return tuple(full)


def cocycle_basis(A, W, V, limit=None):
    """Basis (1,1)-cocycles, expanded to full cochains over the semidirect sum."""
    G, Vt = semidirect_space(A, W, V)
    support = e11_support(A, W, V, 1)
    total = G.dim**2 * V.dim
    out = []
    for z in kernel(e11_matrix(A, W, V, 1)).basis:
        full = Cochain(G, Vt, 2, expand_support(z, support, total))
        out.append(BigradedCochain(full, A.dim, 1, 1))
        if limit is not None and len(out) >= limit:
            break
    return out


# ---------------------------------------------------------------------------
# bigrading


def test_bigrade_components_sum_back_and_are_homogeneous():
    A, W, V = aff_setup()
    G, Vt = semidirect_space(A, W, V)
    rng = random.Random("bigrade")
    for _ in range(10):
        f = random_g_cochain(G, Vt, 2, rng)
        comps = bigrade(f, A.dim)
        total = Cochain.zero(G, Vt, 2)
        seen = set()
        for p, q, comp in comps:
            assert p + q == 2
            assert comp.w_degree == p and comp.a_degree == q
            assert (p, q) not in seen
            seen.add((p, q))
            total = total + comp.cochain
        assert total == f


def test_bigrade_routes_each_tuple_to_the_graded_piece_of_its_w_degree():
    # the reference is the per-p decomposition: one graded_piece per
    # W-degree, kept when nonzero
    A, W, V = aff_setup()
    G, Vt = semidirect_space(A, W, V)
    rng = random.Random("bigrade-routing")
    seen = set()
    for degree in (0, 1, 2, 3):
        for density in (0.0, 0.1, 0.5, 1.0):
            vals = tuple(
                F(rng.randint(-3, 3), rng.choice([1, 2])) if rng.random() < density else F(0)
                for _ in range(G.dim**degree * Vt.dim)
            )
            f = Cochain(G, Vt, degree, vals)
            want = [
                (p, degree - p, graded_piece(f, A.dim, p))
                for p in range(degree + 1)
                if not graded_piece(f, A.dim, p).is_zero()
            ]
            got = bigrade(f, A.dim)
            assert [(p, q, c.cochain) for p, q, c in got] == want
            assert all(c.a_dim == A.dim for _, _, c in got)
            seen.add(len(got))
    assert {0, 1} < seen and max(seen) == 4


def test_graded_piece_keeps_only_matching_tuples():
    A, W, V = aff_setup()
    G, Vt = semidirect_space(A, W, V)
    f = Cochain.from_function(G, Vt, 2, lambda args: [F(1), F(2)])
    piece = graded_piece(f, A.dim, 1)
    for args in itertools.product(range(G.dim), repeat=2):
        expected = [F(1), F(2)] if sum(i >= A.dim for i in args) == 1 else [F(0), F(0)]
        assert list(piece.value(args)) == expected


def test_bigraded_cochain_rejects_inhomogeneous_tables():
    A, W, V = aff_setup()
    G, Vt = semidirect_space(A, W, V)
    f = Cochain.from_function(G, Vt, 2, lambda args: [F(1), F(0)])
    with pytest.raises(InputError):
        BigradedCochain(f, A.dim, 1, 1)


def test_bigraded_component_arithmetic_checks_the_component():
    A, W, V = aff_setup()
    G, Vt = semidirect_space(A, W, V)
    rng = random.Random("bigraded-arith")
    f = random_g_cochain(G, Vt, 2, rng)
    comps = dict()
    for p, q, comp in bigrade(f, A.dim):
        comps[p] = comp
    one = comps[1]
    assert (one + one).cochain == one.cochain.scale(2)
    assert (one - one).cochain.is_zero()
    if 2 in comps:
        with pytest.raises(DimensionError):
            one + comps[2]


def test_coboundary_raises_only_the_algebra_degree():
    """Each homogeneous component maps into the component one step right."""
    A, W, V = aff_setup()
    G, Vt = semidirect_space(A, W, V)
    rng = random.Random("bidegree-law")
    for _ in range(50):
        degree = rng.choice([1, 2])
        f = random_g_cochain(G, Vt, degree, rng)
        for p, q, comp in bigrade(f, A.dim):
            for p2, q2, _ in bigrade(coboundary(comp.cochain), A.dim):
                assert p2 == p
                assert q2 == q + 1


def test_filtrations_are_stable_under_coboundary():
    A, W, V = aff_setup()
    G, Vt = semidirect_space(A, W, V)
    rng = random.Random("filtration")
    for _ in range(10):
        f = random_g_cochain(G, Vt, 2, rng)
        for p in range(4):
            low = Cochain.zero(G, Vt, 2)
            high = Cochain.zero(G, Vt, 2)
            for comp_p, _, comp in bigrade(f, A.dim):
                if comp_p >= p:
                    high = high + comp.cochain
                else:
                    low = low + comp.cochain
            # F^p: every nonzero component has W-degree >= p
            assert all(comp_p >= p for comp_p, _, _ in bigrade(high, A.dim))
            assert all(comp_p >= p for comp_p, _, _ in bigrade(coboundary(high), A.dim))
            if p >= 1:
                # F_{p-1}: every nonzero component has W-degree <= p - 1
                assert all(comp_p <= p - 1 for comp_p, _, _ in bigrade(low, A.dim))
                assert all(comp_p <= p - 1 for comp_p, _, _ in bigrade(coboundary(low), A.dim))


# ---------------------------------------------------------------------------
# the p = 1 column


def test_bottom_map_agrees_with_the_general_coboundary():
    """Direct formula versus coboundary of the embedded 1-cochain."""
    rng = random.Random("bottom-map")
    for A, W, V in (aff_setup(), trivial_setup()):
        for _ in range(10):
            theta = random_theta(rng, W.dim, V.dim)
            direct = e11_coboundary0(A, W, V, theta)
            via_embed = coboundary(reference_embed_w_map(A, W, V, theta))
            assert direct.cochain == via_embed


def test_bottom_map_hand_values():
    # theta(w1) = v1 over the 2-dim algebra with e1 e2 = e2, regular actions:
    # the only surviving entry is (delta theta)(w1, e2) = -theta(w1) e2 = -e2.
    A, W, V = aff_setup()
    n = A.dim
    theta = Mat.from_rows([[1, 0], [0, 0]], cols=2)
    d = e11_coboundary0(A, W, V, theta).cochain
    for args in itertools.product(range(4), repeat=2):
        expected = (F(0), F(-1)) if args == (n + 0, 1) else (F(0), F(0))
        assert tuple(d.value(args)) == expected
    # theta(w2) = v2: the only surviving entry is (delta theta)(w1, e2) = +e2.
    theta2 = Mat.from_rows([[0, 0], [0, 1]], cols=2)
    d2 = e11_coboundary0(A, W, V, theta2).cochain
    for args in itertools.product(range(4), repeat=2):
        expected = (F(0), F(1)) if args == (n + 0, 1) else (F(0), F(0))
        assert tuple(d2.value(args)) == expected
    # the identity map is a module morphism, so it is killed exactly.
    ident = Mat.from_rows([[1, 0], [0, 1]], cols=2)
    assert e11_coboundary0(A, W, V, ident).cochain.is_zero()


def test_bottom_kernel_is_the_module_morphism_space():
    A, W, V = aff_setup()
    ker = kernel(e11_matrix(A, W, V, 0))
    morphs = module_morphism_space(W, V)
    assert ker == morphs
    # For the regular coefficients of the 2-dim algebra with e1 e2 = e2 the
    # morphisms are exactly the scalar multiples of the identity.
    assert ker.dim == 1
    assert ker.contains([F(1), F(0), F(0), F(1)])
    setups = []
    for s in range(1, 25):
        A = random_kv(s, n_max=3)
        setups.append((A, random_module(A, s), random_module(A, s + 1)))
    assert any(any(x for t in V.right for r in t for x in r) for _, _, V in setups)
    assert len({module_morphism_space(W, V).dim for _, W, V in setups}) > 2
    for A, W, V in setups:
        morphs = module_morphism_space(W, V)
        assert morphs == kernel(e11_matrix(A, W, V, 0))
        # the dense rows of the equations phi(aw) = a phi(w), phi(wa) = phi(w) a
        assert morphs == dense_morphism_space(W, V)
    # a zero-dimensional W or V leaves only the zero map, or none to choose
    for s in range(1, 7):
        A = random_kv(s, n_max=3)
        W = random_module(A, s)
        for X, Y in ((W, zero_module(A, 0)), (zero_module(A, 0), W), (zero_module(A, 0), zero_module(A, 0))):
            morphs = module_morphism_space(X, Y)
            assert morphs == dense_morphism_space(X, Y)
            assert morphs.dim == 0 and morphs == kernel(e11_matrix(A, X, Y, 0))


def test_e11_matrices_compose_to_zero():
    A, W, V = aff_setup()
    for q in (0, 1):
        prod = mat_mul(e11_matrix(A, W, V, q + 1), e11_matrix(A, W, V, q))
        assert all(x == 0 for x in prod.entries)


def test_e11_matrix_matches_direct_evaluation():
    """Scatter-assembled restriction versus per-column coboundary evaluation."""
    setups = [aff_setup()]
    # 16, 19, 25, 36 and 39 give modules with nonzero right actions
    for s in (15, 16, 19, 25, 36, 39):
        A = random_kv(s, n_max=3)
        setups.append((A, random_module(A, s, m_max=2), random_module(A, s + 1, m_max=2)))
    assert any(any(x for t in V.right for r in t for x in r) for _, _, V in setups[1:])
    for A, W, V in setups:
        G, Vt = semidirect_space(A, W, V)
        for q in (0, 1, 2):
            src = e11_support(A, W, V, q)
            dst = e11_support(A, W, V, q + 1)
            dst_set = set(dst)
            total = G.dim ** (q + 1) * V.dim
            cols = []
            for pos in src:
                vals = [F(0)] * total
                vals[pos] = F(1)
                d = coboundary(Cochain(G, Vt, q + 1, tuple(vals)))
                nonzero = {i for i, x in enumerate(d.values) if x != 0}
                assert nonzero <= dst_set
                cols.append([d.values[r] for r in dst])
            direct = Mat.from_cols(cols, rows=len(dst))
            assert direct == e11_matrix(A, W, V, q)


def test_e11_cohomology_builds_each_support_once(monkeypatch):
    import kvcohom.extensions as ext

    degrees = []

    def counted(A, W, V, q):
        degrees.append(q)
        return e11_support(A, W, V, q)

    monkeypatch.setattr(ext, "e11_support", counted)
    A = random_kv(16, n_max=3)
    setups = [aff_setup(), (A, random_module(A, 16, m_max=2), random_module(A, 17, m_max=2))]
    for A, W, V in setups:
        for q_max in (0, 1, 2):
            degrees.clear()
            report = ext.e11_cohomology(A, W, V, q_max)
            # the rows of degree q come in the order of the (1, q+1)
            # support, so the support past q_max is never needed
            assert sorted(degrees) == list(range(q_max + 1))
            assert [d.dim_C for d in report.degrees] == [
                len(e11_support(A, W, V, q)) for q in range(q_max + 1)
            ]


def test_e11_report_regular_coefficients():
    A, W, V = aff_setup()
    report = e11_cohomology(A, W, V, 2)
    d0 = report.degree(0)
    # Bottom row: 4-dim Hom space, morphisms = scalars, nothing from below.
    assert (d0.dim_C, d0.dim_Z, d0.dim_B, d0.dim_H) == (4, 1, 0, 1)
    for q in (0, 1, 2):
        data = report.degree(q)
        mat_here = e11_matrix(A, W, V, q)
        assert data.dim_C == len(e11_support(A, W, V, q))
        assert data.dim_Z == data.dim_C - rank(mat_here)
        if q >= 1:
            assert data.dim_B == rank(e11_matrix(A, W, V, q - 1))
        assert data.dim_H == data.dim_Z - data.dim_B
        assert len(data.representatives) == data.dim_H
        for rep in data.representatives:
            assert coboundary(rep).is_zero()
            comps = bigrade(rep, A.dim)
            assert all(p == 1 for p, _, _ in comps)


def test_e11_trivial_actions_make_every_cochain_a_cocycle():
    A, W, V = trivial_setup()
    report = e11_cohomology(A, W, V, 2)
    for q, want in ((0, 1), (1, 4), (2, 12)):
        data = report.degree(q)
        assert data.dim_C == (q + 1) * 2**q
        assert data.dim_C == want
        assert data.dim_Z == want
        assert data.dim_B == 0
        assert data.dim_H == want


def test_e11_rejects_unverified_coefficients():
    A, W, V = aff_setup()
    bad = KVModule(
        algebra=A,
        dim=1,
        left=tensor3([[[1]], [[0]]]),
        right=tensor3([[[0], [1]]]),
    )
    assert not is_module(A, bad)
    with pytest.raises(PreconditionError):
        e11_cohomology(A, W, bad, 1)
    # A is checked too, before W and V, so the walk never meets a product
    # whose coboundary does not square to zero
    A = KVAlgebra(2, tensor3([[[0, 0], [0, 0]], [[0, 1], [0, 0]]]))  # e2 e1 = e2 only
    W = zero_module(A, 1)
    assert is_module(A, W)
    with pytest.raises(PreconditionError) as info:
        e11_cohomology(A, W, W, 2)
    assert str(info.value) == (
        "A is not a KV algebra: associator symmetry fails at basis triple (0,1,0)"
    )


def test_e11_budget_error_names_the_offending_degree():
    A, W, V = aff_setup()
    old = os.environ.get("KVCOHOM_ENTRY_BUDGET")
    os.environ["KVCOHOM_ENTRY_BUDGET"] = "10"
    try:
        with pytest.raises(BudgetError) as exc:
            e11_cohomology(A, W, V, 2)
        # component tables grow as (q+1) 2^q * 4: 4, 16, 48, ...
        assert exc.value.degree == 1
        assert exc.value.cells == 16
        assert exc.value.budget == 10
    finally:
        if old is None:
            del os.environ["KVCOHOM_ENTRY_BUDGET"]
        else:
            os.environ["KVCOHOM_ENTRY_BUDGET"] = old


def test_zero_quotient_and_zero_kernel_degenerate_cleanly(monkeypatch):
    import kvcohom.extensions as ext

    A = aff()
    W = regular_bimodule(A)
    nothing = zero_module(A, 0)
    for args in ((A, nothing, W), (A, W, nothing)):
        report = e11_cohomology(*args, q_max=1)
        for q in (0, 1):
            data = report.degree(q)
            assert (data.dim_C, data.dim_Z, data.dim_B, data.dim_H) == (0, 0, 0, 0)
    # over a zero-dimensional V no one-W tuple is listed, at any degree
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return []

    monkeypatch.setattr(ext, "_one_w_tuples", spy)
    report = ext.e11_cohomology(A, W, nothing, 14)
    assert [(d.dim_C, d.dim_Z, d.dim_B, d.dim_H) for d in report.degrees] == [(0, 0, 0, 0)] * 15
    assert calls == []
    # nor are basis tuples listed to split a cochain with values in it
    import kvcohom.complexes as cx

    G = semidirect(A, W)
    z = Cochain.zero(G, extend_module_to_semidirect(G, A.dim, nothing), 14)
    monkeypatch.setattr(cx.itertools, "product", spy)
    assert BigradedCochain(z, A.dim, 1, 13).cochain == z
    assert bigrade(z, A.dim) == []
    assert graded_piece(z, A.dim, 1) == z
    assert calls == []


# ---------------------------------------------------------------------------
# module extensions


def test_module_extension_round_trip_through_canonical_section():
    A, W, V = aff_setup()
    for f in cocycle_basis(A, W, V, limit=4):
        ext = module_extension_from_cocycle(A, W, V, f)
        assert is_module(A, ext.total)
        back = cocycle_from_section(ext, ext.canonical_section())
        assert back.cochain == f.cochain


def test_module_extension_blocks_hold_the_input_data():
    A, W, V = trivial_setup()
    G, Vt = semidirect_space(A, W, V)
    n, v = A.dim, V.dim
    # theta(e1, w1) = 2 v1 and psi(e2, w1) = 3 v1, everything else zero.
    vals = [F(0)] * (G.dim**2 * v)
    vals[(0 * G.dim + n) * v + 0] = F(2)
    vals[(n * G.dim + 1) * v + 0] = F(3)
    f = BigradedCochain(Cochain(G, Vt, 2, tuple(vals)), n, 1, 1)
    ext = module_extension_from_cocycle(A, W, V, f)
    # theta(e_i, w_al) sits in the V block of e_i (v + al), psi(e_i, w_al)
    # in the V block of (v + al) e_i
    assert ext.total.left[0][v][:v] == (F(2),)
    assert ext.total.left[1][v][:v] == (F(0),)
    assert ext.total.right[v][1][:v] == (F(3),)
    assert ext.total.right[v][0][:v] == (F(0),)
    # kernel block acts as V, quotient block projects onto W.
    assert ext.total.left[0][0][0] == 0
    assert mat_mul(ext.injection(), ext.projection()).entries == (F(0),)
    assert mat_mul(ext.canonical_section(), ext.projection()).entries == (F(1),)


def test_module_extension_rejects_non_cocycles_with_witness():
    A, W, V = aff_setup()
    G, Vt = semidirect_space(A, W, V)
    support = e11_support(A, W, V, 1)
    M = e11_matrix(A, W, V, 1)
    total = G.dim**2 * V.dim
    bad_col = next(
        c for c in range(M.cols) if any(M.at(r, c) != 0 for r in range(M.rows))
    )
    vals = [F(0)] * total
    vals[support[bad_col]] = F(1)
    f = BigradedCochain(Cochain(G, Vt, 2, tuple(vals)), A.dim, 1, 1)
    with pytest.raises(PreconditionError, match="not a cocycle"):
        module_extension_from_cocycle(A, W, V, f)
    with pytest.raises(InputError):
        module_extension_from_cocycle(
            A, W, V, BigradedCochain(Cochain.zero(G, Vt, 1), A.dim, 1, 0)
        )


def test_module_cocycles_satisfy_the_component_equations():
    """delta f vanishes on every mixed tuple, component by component."""
    A, W, V = aff_setup()
    n = A.dim
    for f in cocycle_basis(A, W, V, limit=4):
        d = coboundary(f.cochain)
        for args in itertools.product(range(f.cochain.n), repeat=3):
            kinds = tuple(int(x >= n) for x in args)
            value = d.value(args)
            assert all(x == 0 for x in value), (kinds, args)


def test_section_shift_moves_the_cocycle_by_a_bottom_coboundary():
    A, W, V = aff_setup()
    rng = random.Random("section-shift")
    base = cocycle_basis(A, W, V, limit=1)[0]
    ext = module_extension_from_cocycle(A, W, V, base)
    v, m = V.dim, W.dim
    for _ in range(5):
        theta = random_theta(rng, m, v)
        rows = []
        for al in range(m):
            row = [theta.at(al, be) for be in range(v)]
            row += [F(1) if ga == al else F(0) for ga in range(m)]
            rows.append(row)
        sigma = Mat.from_rows(rows, cols=v + m)
        shifted = cocycle_from_section(ext, sigma)
        delta = e11_coboundary0(A, W, V, theta)
        assert shifted.cochain - base.cochain == -delta.cochain
        assert extensions_equivalent(shifted, base)


def test_extension_equivalence_matches_shear_transport():
    """The linear-solve verdict agrees with an explicit total-space isomorphism."""
    A, W, V = aff_setup()
    rng = random.Random("shear")
    base = cocycle_basis(A, W, V, limit=1)[0]
    theta = random_theta(rng, W.dim, V.dim)
    shifted = base + e11_coboundary0(A, W, V, theta)
    assert extensions_equivalent(base, shifted)
    T1 = module_extension_from_cocycle(A, W, V, base).total
    T2 = module_extension_from_cocycle(A, W, V, shifted).total
    v, m = V.dim, W.dim

    def phi(el):
        out = list(el.coords)
        for al in range(m):
            c = el.coords[v + al]
            if c != 0:
                for be in range(v):
                    out[be] += c * theta.at(al, be)
        return Element(tuple(out))

    for i in range(A.dim):
        a = A.basis_element(i)
        for t in range(v + m):
            tau = T1.basis_element(t)
            assert phi(T1.left_act(a, tau)) == T2.left_act(a, phi(tau))
            assert phi(T1.right_act(tau, a)) == T2.right_act(phi(tau), a)


def test_inequivalent_extensions_are_detected():
    A, W, V = trivial_setup()
    G, Vt = semidirect_space(A, W, V)
    support = e11_support(A, W, V, 1)
    total = G.dim**2 * V.dim
    vals = [F(0)] * total
    vals[support[0]] = F(1)
    f = BigradedCochain(Cochain(G, Vt, 2, tuple(vals)), A.dim, 1, 1)
    zero = BigradedCochain(Cochain.zero(G, Vt, 2), A.dim, 1, 1)
    # all actions vanish, so the bottom map is zero and classes are cochains.
    assert not extensions_equivalent(f, zero)
    assert extensions_equivalent(f, f)
    with pytest.raises(InputError):
        extensions_equivalent(
            BigradedCochain(Cochain.zero(G, Vt, 2), A.dim, 2, 0),
            BigradedCochain(Cochain.zero(G, Vt, 2), A.dim, 2, 0),
        )


def test_module_section_must_split_the_projection():
    A, W, V = aff_setup()
    base = cocycle_basis(A, W, V, limit=1)[0]
    ext = module_extension_from_cocycle(A, W, V, base)
    bad = Mat.from_rows(
        [[0, 0, 1, 0], [0, 0, 1, 1]], cols=4
    )  # second row hits w1 + w2
    with pytest.raises(InputError, match="section"):
        cocycle_from_section(ext, bad)


# ---------------------------------------------------------------------------
# algebra extensions


def random_omega(A, W, rng):
    """A guaranteed 2-cocycle: the coboundary of a random 1-cochain."""
    vals = tuple(F(rng.randint(-3, 3)) for _ in range(A.dim * W.dim))
    return coboundary(Cochain(A, W, 1, vals))


def test_algebra_extension_round_trip_through_canonical_section():
    A = aff()
    W = regular_bimodule(A)
    rng = random.Random("algebra-ext")
    for _ in range(5):
        omega = random_omega(A, W, rng)
        ext = algebra_extension_from_cocycle(A, W, omega)
        assert is_kv(ext.total)
        back = algebra_cocycle_from_section(ext, ext.canonical_section())
        assert back == omega
        # W sits inside as an ideal squaring to zero.
        m = W.dim
        for al in range(m):
            for be in range(m):
                w1 = ext.total.basis_element(al)
                w2 = ext.total.basis_element(be)
                assert ext.total.mul(w1, w2).is_zero()


def test_algebra_residual_equals_the_coboundary_exactly():
    """For any 2-cochain the total's KV defect on base triples is delta omega."""
    A = aff()
    W = regular_bimodule(A)
    rng = random.Random("residual")
    n, m = A.dim, W.dim
    found_non_cocycle = False
    for trial in range(6):
        vals = tuple(F(rng.randint(-2, 2)) for _ in range(n**2 * m))
        omega = Cochain(A, W, 2, vals)
        d = coboundary(omega)
        ext = algebra_extension_from_cocycle(A, W, omega)
        T = ext.total
        for i, j, k in itertools.product(range(n), repeat=3):
            x = T.basis_element(m + i)
            y = T.basis_element(m + j)
            z = T.basis_element(m + k)
            assoc_xyz = T.mul(T.mul(x, y), z) - T.mul(x, T.mul(y, z))
            assoc_yxz = T.mul(T.mul(y, x), z) - T.mul(y, T.mul(x, z))
            residual = assoc_xyz - assoc_yxz
            want = d.value((i, j, k))
            assert residual.coords[:m] == tuple(want)
            assert all(c == 0 for c in residual.coords[m:])
        if not d.is_zero():
            found_non_cocycle = True
            assert not is_kv(T)
        else:
            assert is_kv(T)
    assert found_non_cocycle


def test_algebra_section_shift_subtracts_the_coboundary():
    A = aff()
    W = regular_bimodule(A)
    rng = random.Random("algebra-shift")
    omega = random_omega(A, W, rng)
    ext = algebra_extension_from_cocycle(A, W, omega)
    n, m = A.dim, W.dim
    for _ in range(5):
        psi_vals = tuple(F(rng.randint(-3, 3)) for _ in range(n * m))
        psi = Cochain(A, W, 1, psi_vals)
        rows = []
        for i in range(n):
            row = list(psi.value((i,)))
            row += [F(1) if j == i else F(0) for j in range(n)]
            rows.append(row)
        sigma = Mat.from_rows(rows, cols=m + n)
        shifted = algebra_cocycle_from_section(ext, sigma)
        assert shifted == omega - coboundary(psi)


def test_algebra_extensions_equivalence_agrees_with_cohomology():
    A = aff()
    W = regular_bimodule(A)
    rng = random.Random("algebra-equiv")
    omega = random_omega(A, W, rng)
    psi_vals = tuple(F(rng.randint(-3, 3)) for _ in range(A.dim * W.dim))
    other = omega - coboundary(Cochain(A, W, 1, psi_vals))
    ext1 = algebra_extension_from_cocycle(A, W, omega)
    ext2 = algebra_extension_from_cocycle(A, W, other)
    shear = algebra_extensions_equivalent(ext1, ext2)
    assert shear is not None
    assert is_coboundary(omega - other) is not None
    # every cocycle here is a coboundary, so everything splits
    ext0 = algebra_extension_from_cocycle(A, W, Cochain.zero(A, W, 2))
    assert algebra_extensions_equivalent(ext1, ext0) is not None


def test_shear_is_the_solve_of_the_degree_one_coboundary_matrix():
    """The shear psi is the free-variables-zero solution of
    delta_1 psi = omega_2 - omega_1, as the public solve reads it off
    coboundary_matrix(A, W, 1), or None when there is none."""
    rng = random.Random("shear-solve")
    kinds = set()
    for s in range(1, 31):
        A = random_kv(s, n_max=3)
        W = random_module(A, s + 3, m_max=2)
        Z = kernel(coboundary_matrix(A, W, 2))
        omegas = []
        for _ in range(2):
            coeffs = [rng.choice((-1, 0, 1, 2)) for _ in Z.basis]
            vals = [sum((c * b[t] for c, b in zip(coeffs, Z.basis)), F(0)) for t in range(Z.ambient_dim)]
            omega = Cochain(A, W, 2, tuple(vals))
            phi = Cochain(A, W, 1, tuple(F(rng.randint(-2, 2)) for _ in range(A.dim * W.dim)))
            omegas += [omega, omega + coboundary(phi)]
        exts = [algebra_extension_from_cocycle(A, W, omega) for omega in omegas]
        for (o1, e1), (o2, e2) in itertools.product(zip(omegas, exts), repeat=2):
            x = solve(coboundary_matrix(A, W, 1), (o2 - o1).values)
            got = algebra_extensions_equivalent(e1, e2)
            if x is None:
                assert got is None
            else:
                assert got is not None and got.entries == x
            kinds.add(None if got is None else any(got.entries))
    assert kinds == {None, False, True}


def test_algebra_extensions_with_distinct_classes_do_not_shear():
    A, W, _ = trivial_setup()
    vals = [F(0)] * (A.dim**2 * W.dim)
    vals[0] = F(1)
    omega = Cochain(A, W, 2, tuple(vals))
    assert is_cocycle(omega)  # the differential vanishes identically here
    ext1 = algebra_extension_from_cocycle(A, W, omega)
    ext0 = algebra_extension_from_cocycle(A, W, Cochain.zero(A, W, 2))
    assert algebra_extensions_equivalent(ext1, ext0) is None
    assert is_coboundary(omega) is None


def test_algebra_section_must_split_the_projection():
    A = aff()
    W = regular_bimodule(A)
    rng = random.Random("bad-section")
    ext = algebra_extension_from_cocycle(A, W, random_omega(A, W, rng))
    bad = Mat.from_rows([[0, 0, 1, 0], [0, 0, 0, 2]], cols=4)
    with pytest.raises(InputError, match="section"):
        algebra_cocycle_from_section(ext, bad)


def _aff_extensions():
    """A module extension and an algebra extension over aff, both 2 + 2."""
    A, W, V = aff_setup()
    mext = module_extension_from_cocycle(A, W, V, cocycle_basis(A, W, V, limit=1)[0])
    aext = algebra_extension_from_cocycle(A, W, random_omega(A, W, random.Random("aff-ext")))
    return mext, aext


def test_sections_of_the_wrong_shape_are_rejected():
    mext, aext = _aff_extensions()
    for sigma in (Mat.from_rows([[0, 0, 1, 0]], cols=4), Mat.from_rows([[0, 0, 1, 0, 0]] * 2, cols=5)):
        with pytest.raises(DimensionError, match=r"^section must be 2x4$"):
            cocycle_from_section(mext, sigma)
        with pytest.raises(DimensionError, match=r"^section must be 2x4$"):
            algebra_cocycle_from_section(aext, sigma)


def test_matrices_that_do_not_split_the_projection_are_rejected():
    mext, aext = _aff_extensions()
    text = r"^sigma is not a section: proj o sigma != id$"
    # the identity block scaled, then the identity block swapped
    for rows in ([[5, 0, 1, 0], [0, 0, 0, 2]], [[0, 0, 0, 1], [0, 0, 1, 0]]):
        with pytest.raises(InputError, match=text):
            cocycle_from_section(mext, Mat.from_rows(rows, cols=4))
        with pytest.raises(InputError, match=text):
            algebra_cocycle_from_section(aext, Mat.from_rows([r[2:] + r[:2] for r in rows], cols=4))


def test_totals_outside_block_form_trip_the_kernel_guards():
    mext, aext = _aff_extensions()
    T = mext.total
    left = [[list(r) for r in p] for p in T.left]
    left[0][2][3] += 1  # e_0 w_0 picks up w_1 in the total only
    bent = ModuleExtension(mext.base, mext.kernel, mext.quotient, KVModule(T.algebra, T.dim, tensor3(left), T.right))
    with pytest.raises(AssertionError, match=r"^section defect left the kernel V$"):
        cocycle_from_section(bent, bent.canonical_section())
    prod = [[list(r) for r in p] for p in aext.total.product]
    prod[2][2][3] += 1  # e_0 e_0 picks up e_1 in the total only
    bent = AlgebraExtension(aext.base, aext.kernel, KVAlgebra(aext.total.dim, tensor3(prod)))
    with pytest.raises(AssertionError, match=r"^section defect left the kernel W$"):
        algebra_cocycle_from_section(bent, bent.canonical_section())
    with pytest.raises(AssertionError, match=r"^section defect left the kernel W$"):
        algebra_extensions_equivalent(aext, bent)


def test_a_total_the_shear_cannot_transport_trips_the_guard():
    _, aext = _aff_extensions()
    prod = [[list(r) for r in p] for p in aext.total.product]
    prod[0][0][1] += 1  # the kernel no longer squares to zero
    bent = AlgebraExtension(aext.base, aext.kernel, KVAlgebra(aext.total.dim, tensor3(prod)))
    # the canonical cocycles agree, so the solve succeeds with psi = 0
    assert algebra_cocycle_from_section(bent, bent.canonical_section()) == (
        algebra_cocycle_from_section(aext, aext.canonical_section())
    )
    assert algebra_extensions_equivalent(bent, bent) == Mat.from_rows([[0, 0], [0, 0]], cols=2)
    text = (
        r"^shear solved from the cocycle difference failed to transport the "
        r"product; the correspondence is broken$"
    )
    for ext1, ext2 in [(aext, bent), (bent, aext)]:
        with pytest.raises(AssertionError, match=text):
            algebra_extensions_equivalent(ext1, ext2)


def test_round_trips_hold_on_random_small_inputs():
    for seed in range(8):
        A = random_kv(seed)
        W = random_module(A, seed + 50)
        if A.dim + W.dim > 5 or W.dim == 0:
            continue
        rng = random.Random(f"rt:{seed}")
        omega = random_omega(A, W, rng)
        ext = algebra_extension_from_cocycle(A, W, omega)
        assert is_kv(ext.total)
        assert algebra_cocycle_from_section(ext, ext.canonical_section()) == omega
        for f in cocycle_basis(A, W, W, limit=2):
            mext = module_extension_from_cocycle(A, W, W, f)
            back = cocycle_from_section(mext, mext.canonical_section())
            assert back.cochain == f.cochain
