"""The shared table layout of multilinear maps against the loops it replaced.

`core._entries` lists the row-major entries of a nested tensor and
`core._shaped` nests values back into one: they carry every cochain reshape
of `deform`, `graded`, `geom` and the CLI, and, with `core._block`, read the
blocks of a cochain over a direct sum in `extensions` and `graded`.
`complexes._pieces` splits a cochain by how many arguments fall in the
second summand (`bigrade`, `graded_piece`); the two conjugations carry
structure constants along a change of basis.  `jacobi_algebra` is
`jacobi_module` of the regular bimodule.  Each check below runs a copy of
the loop a builder had before as a reference, on fixtures and on seeded
random inputs, and asserts equal results or the same error text.  The
extension totals, the graded 2-cochains and `radiant_primitive` are checked
against their loops in `test_blocks.py` and `test_contractions.py`.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from kvcohom import serialize as sz
from kvcohom.cli import JobSpec, run
from kvcohom.complexes import (
    Cochain,
    _coboundary_rows,
    _cohomology_step,
    _pieces,
    coboundary_matrix,
    cohomology,
)
from kvcohom.core import (
    Element,
    KVAlgebra,
    KVModule,
    _entries,
    _shaped,
    conjugate_algebra,
    conjugate_module,
    is_kv,
    jacobi_algebra,
    left_regular_module,
    random_invertible,
    random_kv,
    random_module,
    regular_bimodule,
    semidirect,
    tensor3,
    zero3,
    zero_module,
)
from kvcohom.deform import (
    MultiplicationJet,
    bilinear_cochain,
    curvature_check,
    kv_bracket,
    rigidity_report,
    solve_next_order,
    tensor4,
    tensor4_from_cochain,
)
from kvcohom.errors import DimensionError, InputError, PreconditionError
from kvcohom.extensions import (
    BigradedCochain,
    _one_w_tuples,
    bigrade,
    e11_cohomology,
    extend_module_to_semidirect,
    graded_piece,
    module_extension_from_cocycle,
)
from kvcohom.fixtures import (
    aff,
    algebra_catalog,
    flat_polynomial_module,
    flat_psi,
    flat_theta,
    graded_flat,
    rad2,
    rad2_left_module,
)
from kvcohom.geom import _s_tensor, pencil_suite
from kvcohom.graded import (
    ConnectionlikePair,
    GradedKVAlgebra,
    cocycle_from_connectionlike,
    connectionlike_from_cocycle,
    is_kv_chain,
)
from kvcohom.linalg import Mat, inverse, kernel, solve

from gather_loops import product_lists, two_step

_ZERO = Fraction(0)
_COEFFS = (-2, -1, 0, 0, 1, 3, Fraction(1, 2))


def _values(rng, k, density=0.5):
    return tuple(Fraction(rng.choice(_COEFFS)) if rng.random() < density else _ZERO for _ in range(k))


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (DimensionError, InputError, PreconditionError) as exc:
        return (type(exc).__name__, str(exc))


def _setups():
    """(A, W, V) over fixtures and seeded random algebras and modules."""
    out = [(A, regular_bimodule(A), left_regular_module(A)) for A in algebra_catalog()]
    out.append((rad2(), rad2_left_module(), zero_module(rad2(), 2)))
    for s in range(1, 25):
        A = random_kv(s, 2 + s % 3)
        out.append((A, random_module(A, s, 3), random_module(A, s + 50, 2)))
    return out


# ---------------------------------------------------------------------------
# the helpers themselves


def reference_shaped(values, dims):
    """values[(..(i_1 d_2 + i_2) d_3 + ..) + i_r] at [i_1][i_2]..[i_r]."""

    def nest(prefix, axis):
        if axis == len(dims):
            flat = 0
            for i, d in zip(prefix, dims):
                flat = flat * d + i
            return values[flat]
        return tuple(nest(prefix + (i,), axis + 1) for i in range(dims[axis]))

    return nest((), 0)


@pytest.mark.parametrize(
    "dims",
    [(3,), (2, 3), (3, 2), (2, 3, 4), (4, 3, 2), (2, 1, 3, 2), (3, 3, 3, 3), (2, 0, 3), (2, 3, 0), (0, 2, 2)],
)
def test_shaped_nests_row_major_and_entries_flattens_back(dims):
    # a zero axis keeps the axes before it: (2, 3, 0) nests as ((), (), ()) twice
    values = tuple(range(1, 1 + math.prod(dims)))
    t = _shaped(values, *dims)
    assert t == reference_shaped(values, dims)
    assert _entries(t, len(dims)) == values


def sliced_shaped(values, *dims):
    """The slicing loop `_shaped` ran before it zipped each axis."""
    out = tuple(values)
    for axis in range(len(dims) - 1, 0, -1):
        d = dims[axis]
        out = tuple(out[k * d : (k + 1) * d] for k in range(math.prod(dims[:axis])))
    return out


def test_shaped_matches_the_slicing_loop_on_every_small_shape():
    for rank in (3, 4):
        for dims in itertools.product(range(4), repeat=rank):
            values = tuple(range(1, 1 + math.prod(dims)))
            assert _shaped(values, *dims) == sliced_shaped(values, *dims), dims


def test_entries_matches_the_comprehensions():
    rng = random.Random(1)
    for _ in range(30):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        t3 = _shaped(_values(rng, n * n * m), n, n, m)
        assert _entries(t3, 3) == tuple(x for p in t3 for r in p for x in r)
        t4 = _shaped(_values(rng, n**4), n, n, n, n)
        assert _entries(t4, 4) == tuple(x for q in t4 for p in q for r in p for x in r)


# ---------------------------------------------------------------------------
# deform: the cochain reshapes


def reference_bilinear_cochain(A, mu):
    return Cochain(A, regular_bimodule(A), 2, tuple(x for p in mu for r in p for x in r))


def reference_tensor4_from_cochain(f):
    n = f.n
    if f.degree != 3 or f.m != n:
        raise DimensionError("expected a trilinear cochain with regular values")
    return tensor4(
        [[[list(f.value((a, b, c))) for c in range(n)] for b in range(n)] for a in range(n)]
    )


def reference_tensor3_of(v, n):
    rows = [v[r * n : (r + 1) * n] for r in range(n * n)]
    return tuple(tuple(rows[a * n : (a + 1) * n]) for a in range(n))


def test_deform_reshapes_match_the_copy_loops():
    rng = random.Random(2)
    for A, _, _ in _setups():
        n = A.dim
        mu = _shaped(_values(rng, n**3), n, n, n)
        assert bilinear_cochain(A, mu) == reference_bilinear_cochain(A, mu)
        f = Cochain(A, regular_bimodule(A), 3, _values(rng, n**4))
        got = tensor4_from_cochain(f)
        assert got == reference_tensor4_from_cochain(f)
        assert all(type(x) is Fraction for x in _entries(got, 4))
        v = _values(rng, n**3)
        assert _shaped(v, n, n, n) == reference_tensor3_of(v, n)
    A = algebra_catalog()[0]
    g = Cochain.zero(A, regular_bimodule(A), 2)
    assert _outcome(tensor4_from_cochain, g) == _outcome(reference_tensor4_from_cochain, g)


def reference_rigidity_tensors(A):
    """The cocycle basis and class representatives of H^2(A, A), each flat
    vector sliced into a tensor as `rigidity_report` did."""
    n = A.dim
    W = regular_bimodule(A)
    d2, d1 = (_coboundary_rows(A, W, q)[1] for q in (2, 1))
    Z, _, reps = _cohomology_step((d2, n**3), (d1, n**2))
    return (
        tuple(reference_tensor3_of(z, n) for z in Z.basis),
        tuple(reference_tensor3_of(z, n) for z in reps),
    )


def test_rigidity_and_next_order_tensors_are_the_sliced_vectors():
    solved = 0
    for s in range(1, 20):
        A = random_kv(s, 2 + s % 3)
        n = A.dim
        report = rigidity_report(A)
        assert (report.cocycle_basis, report.class_representatives) == reference_rigidity_tensors(A)
        for rep in report.class_representatives[:2]:
            sol = solve_next_order(MultiplicationJet(A, (rep,)))
            if sol.solved:
                # the solve of delta mu_2 = R_2 over the public coboundary matrix
                rhs = _entries(sol.target, 4)
                x = solve(coboundary_matrix(A, regular_bimodule(A), 2), rhs)
                assert sol.coefficient == reference_tensor3_of(x, n)
                solved += 1
    assert solved


# ---------------------------------------------------------------------------
# core: conjugations, the Jacobi subspace


def reference_conjugate_algebra(A, phi):
    n = A.dim
    if phi.rows != n or phi.cols != n:
        raise DimensionError("basis change must be square of the algebra dimension")
    phi_inv = inverse(phi)
    if phi_inv is None:
        raise InputError("basis change matrix is singular")
    prod = []
    for i in range(n):
        x = Element(tuple(phi_inv.at(l, i) for l in range(n)))
        plane = []
        for j in range(n):
            y = Element(tuple(phi_inv.at(l, j) for l in range(n)))
            z = A.mul(x, y)
            plane.append(phi.mat_vec(z.coords))
        prod.append(plane)
    return KVAlgebra(dim=n, product=tensor3(prod), name=A.name)


def reference_conjugate_module(W, psi):
    m = W.dim
    if psi.rows != m or psi.cols != m:
        raise DimensionError("basis change must be square of the module dimension")
    psi_inv = inverse(psi)
    if psi_inv is None:
        raise InputError("basis change matrix is singular")
    n = W.algebra.dim
    left = []
    for i in range(n):
        a = W.algebra.basis_element(i)
        plane = []
        for al in range(m):
            w = Element(tuple(psi_inv.at(l, al) for l in range(m)))
            plane.append(psi.mat_vec(W.left_act(a, w).coords))
        left.append(plane)
    right = []
    for al in range(m):
        w = Element(tuple(psi_inv.at(l, al) for l in range(m)))
        plane = []
        for i in range(n):
            a = W.algebra.basis_element(i)
            plane.append(psi.mat_vec(W.right_act(w, a).coords))
        right.append(plane)
    return KVModule(algebra=W.algebra, dim=m, left=tensor3(left), right=tensor3(right))


def test_conjugations_match_the_copy_loops():
    rng = random.Random(3)
    for A, W, V in _setups():
        for moves in (1, 4):
            phi = random_invertible(rng, A.dim, moves)
            got = conjugate_algebra(A, phi)
            assert got == reference_conjugate_algebra(A, phi) and got.name == A.name
            for M in (W, V):
                psi = random_invertible(rng, M.dim, moves)
                assert conjugate_module(M, psi) == reference_conjugate_module(M, psi)
    A, W = rad2(), rad2_left_module()
    singular = Mat.from_rows([[1, 2], [2, 4]])
    for fn, ref, x, phi in (
        (conjugate_algebra, reference_conjugate_algebra, A, singular),
        (conjugate_algebra, reference_conjugate_algebra, A, Mat.from_rows([[1]])),
        (conjugate_module, reference_conjugate_module, W, Mat.from_rows([[1]])),
        (conjugate_module, reference_conjugate_module, zero_module(A, 2), singular),
    ):
        assert _outcome(fn, x, phi) == _outcome(ref, x, phi)
        assert _outcome(fn, x, phi)[0] != "value"
    Z = zero_module(A, 0)
    empty = Mat.from_rows([], cols=0)
    assert conjugate_module(Z, empty) == reference_conjugate_module(Z, empty)


def test_random_module_is_unchanged_by_the_plane_products(monkeypatch):
    import kvcohom.core as core

    algebras = [random_kv(s, n_max=4) for s in range(1, 401)]
    got = [random_module(A, s) for s, A in enumerate(algebras, 1)]
    monkeypatch.setattr(core, "conjugate_module", reference_conjugate_module)
    assert got == [random_module(A, s) for s, A in enumerate(algebras, 1)]


def reference_jacobi_algebra(A):
    verdict = is_kv(A)
    if not verdict:
        raise PreconditionError(f"jacobi_algebra needs a KV product; {verdict.detail}")
    n = A.dim
    gam, gam_t = product_lists(A.product)
    items = {}
    for i in range(n):
        for j in range(n):
            base = (i * n + j) * n
            for l in range(n):
                entry = two_step((False, gam[i][j], gam_t[l]), (True, gam[j][l], gam[i]))
                for k, x in entry.items():
                    items[(base + k, l)] = x
    return kernel(Mat.from_items(n * n * n, n, items))


def test_jacobi_algebra_matches_its_own_kernel():
    for A, _, _ in _setups():
        assert jacobi_algebra(A) == reference_jacobi_algebra(A)
    bad = KVAlgebra(2, tensor3([[[0, 1], [0, 0]], [[0, 0], [1, 0]]]))
    assert not is_kv(bad)
    assert _outcome(jacobi_algebra, bad) == _outcome(reference_jacobi_algebra, bad)


# ---------------------------------------------------------------------------
# complexes and extensions: the summand split


def reference_graded_piece(f, a_dim, p):
    vals = list(f.values)
    for args in itertools.product(range(f.n), repeat=f.degree):
        if sum(i >= a_dim for i in args) != p:
            off = f.offset(args)
            for t in range(f.m):
                vals[off + t] = _ZERO
    return Cochain(f.algebra, f.module, f.degree, tuple(vals))


def reference_bigrade(f, a_dim):
    m, q = f.m, f.degree
    pieces = {}
    for s, args in enumerate(itertools.product(range(f.n), repeat=q)):
        value = f.values[s * m : (s + 1) * m]
        if any(value):
            p = sum(i >= a_dim for i in args)
            if p not in pieces:
                pieces[p] = [_ZERO] * len(f.values)
            pieces[p][s * m : (s + 1) * m] = value
    return [
        (p, q - p, BigradedCochain(Cochain(f.algebra, f.module, q, tuple(pieces[p])), a_dim, p, q - p))
        for p in sorted(pieces)
    ]


def _split_cochains(rng):
    """Cochains over G = A + W with values in V, degrees 0 to 3."""
    for A, W, V in _setups()[::2]:
        G = semidirect(A, W)
        Vt = extend_module_to_semidirect(G, A.dim, V)
        for q in (0, 1, 2, 3):
            size = G.dim**q * Vt.dim
            if size > 3000:
                continue
            for density in (0.1, 0.6):
                yield A.dim, Cochain(G, Vt, q, _values(rng, size, density))
            yield A.dim, Cochain.zero(G, Vt, q)


def test_one_w_tuples_match_the_w_count_filter():
    for n, w, length in itertools.product(range(4), range(4), range(5)):
        N = n + w
        want = [args for args in itertools.product(range(N), repeat=length) if sum(i >= n for i in args) == 1]
        assert _one_w_tuples(n, N, length) == want


def test_summand_split_matches_the_scans():
    rng = random.Random(5)
    degrees = set()
    for a_dim, f in _split_cochains(rng):
        pieces = _pieces(f, a_dim)
        assert sorted(pieces) == [p for p, _, _ in reference_bigrade(f, a_dim)]
        assert bigrade(f, a_dim) == reference_bigrade(f, a_dim)
        for p in range(f.degree + 2):
            assert graded_piece(f, a_dim, p) == reference_graded_piece(f, a_dim, p)
        degrees.add(f.degree)
    assert degrees == {0, 1, 2, 3}


def test_summand_split_of_a_zero_dimensional_module():
    A = rad2()
    Z = zero_module(A, 0)
    G = semidirect(A, rad2_left_module())
    Zt = extend_module_to_semidirect(G, A.dim, Z)
    for q in (0, 1, 2):
        for f in (Cochain.zero(A, Z, q), Cochain.zero(G, Zt, q)):
            assert _pieces(f, A.dim) == {}
            assert bigrade(f, A.dim) == reference_bigrade(f, A.dim) == []
            assert graded_piece(f, A.dim, 0) == reference_graded_piece(f, A.dim, 0)


# ---------------------------------------------------------------------------
# graded: the extraction, the zero test


def reference_connectionlike_from_cocycle(G, c):
    from kvcohom.complexes import coboundary
    from kvcohom.graded import ExtractionResult

    total = G.total()
    if c.degree != 2 or c.algebra != total or c.module != regular_bimodule(total):
        raise InputError(
            "expected a 2-cochain over the graded total algebra with regular coefficients"
        )
    n, m, N = G.n, G.m, G.dim
    for args in itertools.product(range(N), repeat=2):
        odd = sum(1 for a in args if a >= n)
        val = c.value(args)
        if odd == 2:
            if any(v != 0 for v in val[:n]):
                return ExtractionResult(None, f"even-valued component on the odd-odd slot {args}")
        elif odd == 1:
            if any(v != 0 for v in val[n:]):
                return ExtractionResult(None, f"odd-valued component on the mixed slot {args}")
        elif any(v != 0 for v in val):
            return ExtractionResult(None, f"component on the even-even slot {args}")
    for i in range(n):
        for al in range(m):
            if c.value((i, n + al))[:n] != c.value((n + al, i))[:n]:
                return ExtractionResult(None, f"mixed part is not symmetric at (e_{i+1}, w_{al+1})")
    if not coboundary(c).is_zero():
        return ExtractionResult(None, "the cochain is not a cocycle")
    theta = tensor3([[list(c.value((n + al, n + be))[n:]) for be in range(m)] for al in range(m)])
    chain = is_kv_chain(theta)
    if not chain:
        return ExtractionResult(None, f"odd-odd part is not a KV-chain: witness {chain.witness}")
    psi = tensor3([[list(c.value((i, n + al))[:n]) for al in range(m)] for i in range(n)])
    return ExtractionResult(ConnectionlikePair(theta=theta, psi=psi))


def _graded_algebras():
    out = [graded_flat(), GradedKVAlgebra(rad2(), rad2_left_module())]
    out.append(GradedKVAlgebra(flat_polynomial_module().algebra, flat_polynomial_module()))
    out.append(GradedKVAlgebra(aff(), zero_module(aff(), 0)))
    out.append(GradedKVAlgebra(KVAlgebra(0, ()), zero_module(KVAlgebra(0, ()), 0)))
    for s in range(1, 8):
        A = random_kv(s, 1 + s % 3)
        for W in (left_regular_module(A), zero_module(A, 2)):
            try:
                out.append(GradedKVAlgebra(A, W))
            except PreconditionError:
                pass
    return out


def test_connectionlike_extraction_matches_the_scan():
    rng = random.Random(7)
    reasons = set()
    for G in _graded_algebras():
        T = G.total()
        R = regular_bimodule(T)
        N = G.dim
        cs = [Cochain(T, R, 2, _values(rng, N**3, d)) for d in (0.05, 0.5)]
        theta = _shaped(_values(rng, G.m**3, 0.3), G.m, G.m, G.m)
        psi = _shaped(_values(rng, G.n * G.m * G.n, 0.3), G.n, G.m, G.n)
        pair = cocycle_from_connectionlike(G, ConnectionlikePair(theta=theta, psi=psi))
        cs += [pair, Cochain.zero(T, R, 2)]
        if G.n and G.m:
            # an asymmetric mixed part: psi(e_0, w_0) moves, psi(w_0, e_0) does not
            vals = list(pair.values)
            vals[G.n * N] += 1
            cs.append(Cochain(T, R, 2, tuple(vals)))
        if N <= 5:
            cs += list(cohomology(T, R, 2).degree(2).representatives[:3])
        for c in cs:
            got = connectionlike_from_cocycle(G, c)
            want = reference_connectionlike_from_cocycle(G, c)
            assert got == want
            reasons.add(got.reason.split(" ")[0] if got.reason else "ok")
    G = graded_flat()
    c = cocycle_from_connectionlike(G, ConnectionlikePair(flat_theta(), flat_psi()))
    assert connectionlike_from_cocycle(G, c) == reference_connectionlike_from_cocycle(G, c)
    assert connectionlike_from_cocycle(G, c).pair == ConnectionlikePair(flat_theta(), flat_psi())
    assert {"ok", "even-valued", "odd-valued", "component", "mixed"} <= reasons


def test_connectionlike_pair_zero_test_matches_the_scan():
    rng = random.Random(8)
    for G in _graded_algebras():
        for d in (0.0, 0.1, 0.6):
            theta = _shaped(_values(rng, G.m**3, d), G.m, G.m, G.m)
            psi = _shaped(_values(rng, G.n * G.m * G.n, d), G.n, G.m, G.n)
            pair = ConnectionlikePair(theta=theta, psi=psi)
            want = not any(x for p in theta for r in p for x in r) and not any(
                x for p in psi for r in p for x in r
            )
            assert pair.is_zero() == want


# ---------------------------------------------------------------------------
# extensions: theta and psi read back from the total module


def test_extension_values_match_the_entry_reads():
    seen = 0
    for A, W, V in _setups():
        if A.dim > 3 or W.dim > 2:
            continue
        for r in e11_cohomology(A, W, V, 1).degree(1).representatives[:2]:
            f = BigradedCochain(r, A.dim, 1, 1)
            ext = module_extension_from_cocycle(A, W, V, f)
            v, n, m = V.dim, A.dim, W.dim
            theta = [[ext.total.left[i][v + al][:v] for al in range(m)] for i in range(n)]
            psi = [[ext.total.right[v + al][i][:v] for al in range(m)] for i in range(n)]
            # they are the cocycle's own values
            assert theta == [[r.value((i, n + al)) for al in range(m)] for i in range(n)]
            assert psi == [[r.value((n + al, i)) for al in range(m)] for i in range(n)]
            seen += 1
    assert seen
    # a zero-dimensional quotient leaves the total acting as the kernel
    A = rad2()
    V, W = rad2_left_module(), zero_module(A, 0)
    G = semidirect(A, W)
    f = BigradedCochain(Cochain.zero(G, extend_module_to_semidirect(G, A.dim, V), 2), A.dim, 1, 1)
    ext = module_extension_from_cocycle(A, W, V, f)
    assert (ext.total.left, ext.total.right) == (V.left, V.right)


# ---------------------------------------------------------------------------
# geom and the CLI: the zero tests over rank-4 tensors


def test_pencil_square_zero_matches_the_scan():
    for a, b in ((0, 0), (1, 0), (2, 3), (Fraction(-1, 2), 5)):
        St = _s_tensor(Fraction(a), Fraction(b))
        square = kv_bracket(St, St)
        want = not any(x for plane in square for block in plane for row in block for x in row)
        assert pencil_suite(a, b).square_zero == want


def test_curvature_check_verb_matches_the_scan(tmp_path):
    A = aff()
    apath = tmp_path / "aff.json"
    apath.write_text(sz.canonical_json(sz.algebra_to_obj(A)))
    rng = random.Random(10)
    tensors = [_s_tensor(Fraction(1), Fraction(2)), zero3(2, 2, 2)]
    for _ in range(4):
        sym = [[[rng.choice((-1, 0, 2)) for _ in range(2)] for _ in range(2)] for _ in range(2)]
        for k in range(2):
            sym[1][0][k] = sym[0][1][k]
        tensors.append(tensor3(sym))
    seen = set()
    for k, S in enumerate(tensors):
        tpath = tmp_path / f"s{k}.json"
        tpath.write_text(sz.canonical_json({"tensor": sz.tensor3_to_obj(S)}))
        report = run(JobSpec("curvature-check", {"algebra": str(apath), "tensor": str(tpath)}))
        residual = curvature_check(A, S)
        flat = [x for q in residual for p in q for r in p for x in r]
        assert report.body["results"]["residual_zero"] == (not any(flat))
        seen.add(not any(flat))
    assert seen == {True, False}
