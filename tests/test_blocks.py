"""The shared block layout of `core` against the copy loops it replaced.

`core._blocks` builds every tensor on a direct sum of spaces: the products
of `semidirect` and `direct_sum`, the actions of `module_direct_sum` and
`extend_module_to_semidirect`, the extension totals, the graded deformation
and the graded 2-cochains.  `core._block` reads a block back out for the
two section cocycles, the module one out of a coboundary over the
semidirect sum, as `e11_coboundary0` forms it.  The bottom map of the
p = 1 column against the coboundary of the embedded map, the shear check of
`algebra_extensions_equivalent` and the module-extension verdict of
`extensions_equivalent` are checked against the loops they replaced too.
Each check below runs a copy of the loop it replaced as a reference, on
fixtures and on seeded random inputs (cocycles and non-cocycles alike,
zero-dimensional spaces included), and asserts equal results, names
included, or the same error text.
"""

import itertools
import random
from fractions import Fraction

import pytest

from kvcohom.complexes import Cochain, coboundary, coboundary_matrix, cohomology
from kvcohom.core import (
    Element,
    KVAlgebra,
    KVModule,
    _block,
    _blocks,
    direct_sum,
    is_module,
    left_regular_module,
    module_direct_sum,
    random_kv,
    random_module,
    regular_bimodule,
    semidirect,
    tensor3,
    zero3,
    zero_module,
)
from kvcohom.errors import DimensionError, InputError, PreconditionError
from kvcohom.extensions import (
    AlgebraExtension,
    BigradedCochain,
    ModuleExtension,
    algebra_cocycle_from_section,
    algebra_extension_from_cocycle,
    algebra_extensions_equivalent,
    cocycle_from_section,
    e11_coboundary0,
    e11_cohomology,
    e11_support,
    extend_module_to_semidirect,
    extensions_equivalent,
    module_extension_from_cocycle,
)
from kvcohom.fixtures import (
    algebra_catalog,
    flat_polynomial_module,
    flat_psi,
    flat_theta,
    graded_flat,
    rad2,
    rad2_left_module,
)
from kvcohom.graded import (
    ConnectionlikePair,
    GradedKVAlgebra,
    cocycle_from_connectionlike,
    deform_graded,
)
from kvcohom.linalg import Mat, solve

from gather_loops import reference_embed_w_map, reference_extensions_equivalent

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _random_tensor(rng, d1, d2, d3, density):
    coeffs = (-2, -1, 1, 2, Fraction(1, 2))
    return tensor3(
        [
            [[rng.choice(coeffs) if rng.random() < density else 0 for _ in range(d3)]
             for _ in range(d2)]
            for _ in range(d1)
        ]
    )


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (DimensionError, InputError, PreconditionError) as exc:
        return (type(exc).__name__, str(exc))


def _pairs():
    """(A, W, V) over fixtures and seeded random algebras and modules."""
    out = [(A, regular_bimodule(A), left_regular_module(A)) for A in algebra_catalog()]
    out.append((rad2(), rad2_left_module(), zero_module(rad2(), 2)))
    for s in range(1, 30):
        A = random_kv(s, 2 + s % 3)
        out.append((A, random_module(A, s, 3), random_module(A, s + 50, 2)))
    return out


# ---------------------------------------------------------------------------
# the helpers themselves


def test_blocks_places_each_block_and_the_later_one_wins():
    ones = tensor3([[[1, 1], [1, 1]], [[1, 1], [1, 1]]])
    twos = tensor3([[[2]]])
    t = _blocks(3, 3, 4, (ones, 0, 1, 2), (twos, 1, 2, 3))
    for i, j, k in itertools.product(range(3), range(3), range(4)):
        want = 0
        if i < 2 and 1 <= j < 3 and 2 <= k < 4:
            want = 1
        if (i, j, k) == (1, 2, 3):
            want = 2
        assert t[i][j][k] == want
    assert all(type(x) is Fraction for p in t for r in p for x in r)
    assert _block(t, 0, 1, 2, 2, 2, 2) == tensor3([[[1, 1], [1, 1]], [[1, 1], [1, 2]]])
    assert _blocks(0, 2, 2) == () and _blocks(2, 0, 3) == ((), ())


def test_block_reads_back_what_blocks_placed():
    rng = random.Random(5)
    for _ in range(100):
        dims = [rng.randint(0, 3) for _ in range(3)]
        offs = [rng.randint(0, 2) for _ in range(3)]
        t = _random_tensor(rng, *dims, 0.6)
        total = [d + o + rng.randint(0, 2) for d, o in zip(dims, offs)]
        placed = _blocks(*total, (t, *offs))
        assert _block(placed, *offs, *dims) == t
        assert sum(1 for p in placed for r in p for x in r if x) == sum(
            1 for p in t for r in p for x in r if x
        )


# ---------------------------------------------------------------------------
# core: semidirect, direct_sum, module_direct_sum


def reference_semidirect(A, W):
    if W.dim == 0:
        return A
    n, m = A.dim, W.dim
    N = n + m
    prod = [[[_ZERO] * N for _ in range(N)] for _ in range(N)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                prod[i][j][k] = A.product[i][j][k]
    for i in range(n):
        for al in range(m):
            for be in range(m):
                prod[i][n + al][n + be] = W.left[i][al][be]
                prod[n + al][i][n + be] = W.right[al][i][be]
    name = None
    if A.name:
        name = f"{A.name}+module({m})"
    return KVAlgebra(dim=N, product=tensor3(prod), name=name)


def reference_direct_sum(A, B):
    n, m = A.dim, B.dim
    N = n + m
    prod = [[[_ZERO] * N for _ in range(N)] for _ in range(N)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                prod[i][j][k] = A.product[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                prod[n + i][n + j][n + k] = B.product[i][j][k]
    return KVAlgebra(dim=N, product=tensor3(prod))


def reference_module_direct_sum(W, V):
    if W.algebra != V.algebra:
        raise DimensionError("module direct sum needs a common base algebra")
    n = W.algebra.dim
    mw, mv = W.dim, V.dim
    M = mw + mv
    left = [[[_ZERO] * M for _ in range(M)] for _ in range(n)]
    right = [[[_ZERO] * M for _ in range(n)] for _ in range(M)]
    for i in range(n):
        for al in range(mw):
            for be in range(mw):
                left[i][al][be] = W.left[i][al][be]
                right[al][i][be] = W.right[al][i][be]
        for al in range(mv):
            for be in range(mv):
                left[i][mw + al][mw + be] = V.left[i][al][be]
                right[mw + al][i][mw + be] = V.right[al][i][be]
    return KVModule(algebra=W.algebra, dim=M, left=tensor3(left), right=tensor3(right))


def test_core_sums_match_the_copy_loops():
    pairs = _pairs()
    for (A, W, V), (B, _, _) in zip(pairs, pairs[1:] + pairs[:1]):
        for M in (W, V, zero_module(A, 0)):
            G = semidirect(A, M)
            assert G == reference_semidirect(A, M)
            assert G.name == reference_semidirect(A, M).name
        assert direct_sum(A, B) == reference_direct_sum(A, B)
        assert module_direct_sum(W, V) == reference_module_direct_sum(W, V)
        assert module_direct_sum(V, zero_module(A, 0)) == reference_module_direct_sum(
            V, zero_module(A, 0)
        )
    # a named algebra keeps a name through the semidirect sum; a zero W
    # returns the algebra itself
    A = algebra_catalog()[0]
    assert A.name and semidirect(A, regular_bimodule(A)).name == f"{A.name}+module({A.dim})"
    assert semidirect(A, zero_module(A, 0)) is A
    other = random_kv(3, 3)
    assert _outcome(module_direct_sum, regular_bimodule(A), zero_module(other, 1)) == _outcome(
        reference_module_direct_sum, regular_bimodule(A), zero_module(other, 1)
    )


# ---------------------------------------------------------------------------
# extensions: the extended module, the two totals, the split, the block maps


def reference_extend_module_to_semidirect(G, a_dim, V):
    n = a_dim
    N = G.dim
    v = V.dim
    left = [[[_ZERO] * v for _ in range(v)] for _ in range(N)]
    right = [[[_ZERO] * v for _ in range(N)] for _ in range(v)]
    for i in range(n):
        for al in range(v):
            for be in range(v):
                left[i][al][be] = V.left[i][al][be]
                right[al][i][be] = V.right[al][i][be]
    return KVModule(algebra=G, dim=v, left=tensor3(left), right=tensor3(right))


def reference_module_extension_from_cocycle(A, W, V, f):
    if (f.w_degree, f.a_degree) != (1, 1):
        raise InputError("module extensions need a cocycle of bidegree (1,1)")
    n, m, v = A.dim, W.dim, V.dim
    if f.a_dim != n or f.cochain.n != n + m or f.cochain.m != v:
        raise DimensionError("cocycle does not match the given algebra and modules")
    t = v + m
    left = [[[_ZERO] * t for _ in range(t)] for _ in range(n)]
    right = [[[_ZERO] * t for _ in range(n)] for _ in range(t)]
    for i in range(n):
        for be in range(v):
            for ga in range(v):
                left[i][be][ga] = V.left[i][be][ga]
                right[be][i][ga] = V.right[be][i][ga]
        for al in range(m):
            th = f.cochain.value((i, n + al))
            ps = f.cochain.value((n + al, i))
            for ga in range(v):
                left[i][v + al][ga] = th[ga]
                right[v + al][i][ga] = ps[ga]
            for ga in range(m):
                left[i][v + al][v + ga] = W.left[i][al][ga]
                right[v + al][i][v + ga] = W.right[al][i][ga]
    T = KVModule(algebra=A, dim=t, left=tensor3(left), right=tensor3(right))
    verdict = is_module(A, T)
    if not verdict:
        raise PreconditionError(
            f"the (1,1) cochain is not a cocycle: the total space fails the "
            f"module identities; {verdict.detail}"
        )
    return ModuleExtension(base=A, kernel=V, quotient=W, total=T)


def reference_algebra_extension_from_cocycle(A, W, omega):
    if omega.degree != 2 or omega.algebra != A or omega.module != W:
        raise InputError("omega must be a 2-cochain over (A, W)")
    n, m = A.dim, W.dim
    t = m + n
    prod = [[[_ZERO] * t for _ in range(t)] for _ in range(t)]
    for i in range(n):
        for j in range(n):
            ome = omega.value((i, j))
            for k in range(m):
                prod[m + i][m + j][k] = ome[k]
            for k in range(n):
                prod[m + i][m + j][m + k] = A.product[i][j][k]
        for al in range(m):
            for be in range(m):
                prod[m + i][al][be] = W.left[i][al][be]
                prod[al][m + i][be] = W.right[al][i][be]
    total = KVAlgebra(dim=t, product=tensor3(prod))
    return AlgebraExtension(base=A, kernel=W, total=total)


def _one_one_cochains(rng, A, W, V):
    """(1,1) cochains over semidirect(A, W): coboundaries and class
    representatives, which are cocycles, and random ones, which mostly are not."""
    G = semidirect(A, W)
    Vt = extend_module_to_semidirect(G, A.dim, V)
    out = [e11_coboundary0(A, W, V, Mat.from_rows(
        [[rng.choice((-1, 0, 1, 2)) for _ in range(V.dim)] for _ in range(W.dim)], cols=V.dim
    ))]
    if A.dim <= 3 and W.dim <= 2:
        reps = e11_cohomology(A, W, V, 1).degree(1).representatives
        out += [BigradedCochain(r, A.dim, 1, 1) for r in reps[:2]]
    values = [_ZERO] * (G.dim**2 * V.dim)
    for pos in e11_support(A, W, V, 1):
        values[pos] = Fraction(rng.choice((-2, -1, 0, 1, 3)))
    out.append(BigradedCochain(Cochain(G, Vt, 2, tuple(values)), A.dim, 1, 1))
    return out


def test_extension_builders_match_the_copy_loops():
    rng = random.Random(7)
    rejected = accepted = 0
    for A, W, V in _pairs():
        G = semidirect(A, W)
        Vt = extend_module_to_semidirect(G, A.dim, V)
        assert Vt == reference_extend_module_to_semidirect(G, A.dim, V)
        for f in _one_one_cochains(rng, A, W, V):
            got = _outcome(module_extension_from_cocycle, A, W, V, f)
            assert got == _outcome(reference_module_extension_from_cocycle, A, W, V, f)
            accepted += got[0] == "value"
            rejected += got[0] == "PreconditionError"
        omegas = [Cochain.from_values(A, W, 2, [rng.choice((-1, 0, 0, 2)) for _ in range(A.dim**2 * W.dim)])]
        if A.dim <= 3 and W.dim <= 2:
            omegas += list(cohomology(A, W, 2).degree(2).representatives[:2])
        for omega in omegas:
            assert algebra_extension_from_cocycle(A, W, omega) == (
                reference_algebra_extension_from_cocycle(A, W, omega)
            )
    assert accepted and rejected
    A = algebra_catalog()[0]
    bad = Cochain.zero(A, regular_bimodule(A), 1)
    assert _outcome(algebra_extension_from_cocycle, A, regular_bimodule(A), bad) == _outcome(
        reference_algebra_extension_from_cocycle, A, regular_bimodule(A), bad
    )


def test_extension_equivalence_matches_the_bottom_matrix_solve():
    # the verdict is a preimage over the semidirect sum; the reference splits
    # the sum back into (A, W, V) and solves against the bottom map
    rng = random.Random(24)
    cases = _pairs()
    cases += [(A, zero_module(A, 0), V) for A, _, V in cases[:6]]
    cases += [(A, W, zero_module(A, 0)) for A, W, _ in cases[:6]]
    verdicts = []
    for A, W, V in cases:
        for f, g in itertools.product(_one_one_cochains(rng, A, W, V), repeat=2):
            got = extensions_equivalent(f, g)
            assert got == reference_extensions_equivalent(f, g)
            verdicts.append(got)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def reference_module_maps(v, m, t):
    injection = Mat.from_rows(
        [[_ONE if j == i else _ZERO for j in range(t)] for i in range(v)], cols=t
    )
    projection = Mat.from_rows(
        [[_ONE if i >= v and i - v == j else _ZERO for j in range(m)] for i in range(t)],
        cols=m,
    )
    section = Mat.from_rows(
        [[_ONE if j == v + i else _ZERO for j in range(t)] for i in range(m)], cols=t
    )
    return injection, projection, section


def reference_algebra_maps(m, n, t):
    injection = Mat.from_rows(
        [[_ONE if j == i else _ZERO for j in range(t)] for i in range(m)], cols=t
    )
    projection = Mat.from_rows(
        [[_ONE if i >= m and i - m == j else _ZERO for j in range(n)] for i in range(t)],
        cols=n,
    )
    section = Mat.from_rows(
        [[_ONE if j == m + i else _ZERO for j in range(t)] for i in range(n)], cols=t
    )
    return injection, projection, section


@pytest.mark.parametrize("n, v, m", [(0, 0, 0), (1, 0, 2), (2, 3, 0), (2, 1, 1), (3, 2, 3)])
def test_extension_block_maps_match_the_dense_rows(n, v, m):
    A = KVAlgebra(n, zero3(n, n, n))
    V, W = zero_module(A, v), zero_module(A, m)
    ext = ModuleExtension(base=A, kernel=V, quotient=W, total=module_direct_sum(V, W))
    got = (ext.injection(), ext.projection(), ext.canonical_section())
    assert got == reference_module_maps(v, m, v + m)
    alg = AlgebraExtension(base=A, kernel=W, total=KVAlgebra(m + n, zero3(m + n, m + n, m + n)))
    got = (alg.injection(), alg.projection(), alg.canonical_section())
    assert got == reference_algebra_maps(m, n, m + n)


# ---------------------------------------------------------------------------
# graded: the deformation and the two 2-cochains


def reference_deform_graded(G, theta):
    n, m, N = G.n, G.m, G.dim
    base = G.total().product
    prod = [[list(base[x][y]) for y in range(N)] for x in range(N)]
    for al in range(m):
        for be in range(m):
            for ga in range(m):
                prod[n + al][n + be][n + ga] = (
                    prod[n + al][n + be][n + ga] + theta[al][be][ga]
                )
    return KVAlgebra(dim=N, product=tensor3(prod))


def reference_cocycle_from_connectionlike(G, pair):
    total = G.total()
    W = regular_bimodule(total)
    n, N = G.n, G.dim

    def fn(args):
        x, y = args
        out = [_ZERO] * N
        if x >= n and y >= n:
            for ga in range(G.m):
                out[n + ga] = pair.theta[x - n][y - n][ga]
        elif x < n <= y:
            for k in range(n):
                out[k] = pair.psi[x][y - n][k]
        elif y < n <= x:
            for k in range(n):
                out[k] = pair.psi[y][x - n][k]
        return out

    return Cochain.from_function(total, W, 2, fn)


def _graded_algebras():
    out = [graded_flat(), GradedKVAlgebra(rad2(), rad2_left_module())]
    A = flat_polynomial_module().algebra
    out.append(GradedKVAlgebra(A, flat_polynomial_module()))
    for s in range(1, 16):
        A = random_kv(s, 1 + s % 3)
        for W in (left_regular_module(A), zero_module(A, 2), zero_module(A, 0)):
            try:
                out.append(GradedKVAlgebra(A, W))
            except PreconditionError:
                pass
    return out


def test_graded_builders_match_the_copy_loops():
    rng = random.Random(9)
    graded = _graded_algebras()
    assert any(G.m == 0 for G in graded)
    cases = [(graded[0], flat_theta(), flat_psi())]
    for G in graded:
        for density in (0.3, 0.8):
            cases.append((G, _random_tensor(rng, G.m, G.m, G.m, density),
                          _random_tensor(rng, G.n, G.m, G.n, density)))
    for G, theta, psi in cases:
        # random thetas are mostly not theta-cocycles; the builders do not care
        assert deform_graded(G, theta) == reference_deform_graded(G, theta)
        pair = ConnectionlikePair(theta=theta, psi=psi)
        assert cocycle_from_connectionlike(G, pair) == reference_cocycle_from_connectionlike(G, pair)


# ---------------------------------------------------------------------------
# extensions: the morphism defect and the section cocycles


def reference_e11_coboundary0(A, W, V, theta):
    G = semidirect(A, W)
    Vt = extend_module_to_semidirect(G, A.dim, V)
    n, v = A.dim, V.dim
    theta_of = theta.transpose().mat_vec

    def fn(args):
        x, y = args
        if x < n and y >= n:
            a, w = A.basis_element(x), W.basis_element(y - n)
            atw = V.left_act(a, Element(theta_of(w.coords)))
            taw = theta_of(W.left_act(a, w).coords)
            return [taw[be] - atw.coords[be] for be in range(v)]
        if x >= n and y < n:
            a, w = A.basis_element(y), W.basis_element(x - n)
            twa = theta_of(W.right_act(w, a).coords)
            twa_right = V.right_act(Element(theta_of(w.coords)), a)
            return [twa[be] - twa_right.coords[be] for be in range(v)]
        return [_ZERO] * v

    return BigradedCochain(Cochain.from_function(G, Vt, 2, fn), n, 1, 1)


def reference_cocycle_from_section(ext, sigma):
    A, V, W, T = ext.base, ext.kernel, ext.quotient, ext.total
    n, m, v = A.dim, W.dim, V.dim
    if sigma.rows != m or sigma.cols != T.dim:
        raise DimensionError(f"section must be {m}x{T.dim}")
    for al in range(m):
        row = sigma.row(al)
        for ga in range(m):
            if row[v + ga] != (_ONE if ga == al else _ZERO):
                raise InputError("sigma is not a section: proj o sigma != id")
    G = semidirect(A, W)
    Vt = extend_module_to_semidirect(G, n, V)

    def sigma_of(wcoords):
        return Element(sigma.transpose().mat_vec(wcoords))

    def fn(args):
        x, y = args
        if x < n and y >= n:
            a, w = A.basis_element(x), W.basis_element(y - n)
            val = T.left_act(a, sigma_of(w.coords)) - sigma_of(W.left_act(a, w).coords)
        elif x >= n and y < n:
            a, w = A.basis_element(y), W.basis_element(x - n)
            val = T.right_act(sigma_of(w.coords), a) - sigma_of(W.right_act(w, a).coords)
        else:
            return [_ZERO] * v
        if any(val.coords[v + ga] != 0 for ga in range(m)):
            raise AssertionError("section defect left the kernel V")
        return val.coords[:v]

    return BigradedCochain(Cochain.from_function(G, Vt, 2, fn), n, 1, 1)


def reference_algebra_cocycle_from_section(ext, sigma):
    A, W, T = ext.base, ext.kernel, ext.total
    n, m = A.dim, W.dim
    if sigma.rows != n or sigma.cols != T.dim:
        raise DimensionError(f"section must be {n}x{T.dim}")
    for i in range(n):
        row = sigma.row(i)
        for j in range(n):
            if row[m + j] != (_ONE if j == i else _ZERO):
                raise InputError("sigma is not a section: proj o sigma != id")

    def sigma_of(acoords):
        return Element(sigma.transpose().mat_vec(acoords))

    def fn(args):
        a, b = A.basis_element(args[0]), A.basis_element(args[1])
        val = T.mul(sigma_of(a.coords), sigma_of(b.coords)) - sigma_of(A.mul(a, b).coords)
        if any(val.coords[m + k] != 0 for k in range(n)):
            raise AssertionError("section defect left the kernel W")
        return val.coords[:m]

    return Cochain.from_function(A, W, 2, fn)


def reference_algebra_extensions_equivalent(ext1, ext2):
    if ext1.base != ext2.base or ext1.kernel != ext2.kernel:
        raise DimensionError("extensions live over different data")
    A, W = ext1.base, ext1.kernel
    n, m = A.dim, W.dim
    o1 = reference_algebra_cocycle_from_section(ext1, ext1.canonical_section())
    o2 = reference_algebra_cocycle_from_section(ext2, ext2.canonical_section())
    x = solve(coboundary_matrix(A, W, 1), (o2 - o1).values)
    if x is None:
        return None
    psi = Mat.from_rows([x[i * m : (i + 1) * m] for i in range(n)], cols=m)
    T1, T2 = ext1.total, ext2.total

    def phi(el):
        shift = psi.transpose().mat_vec(el.coords[m:])
        return Element(tuple(x + y for x, y in zip(el.coords, shift)) + el.coords[m:])

    for x1, y1 in itertools.product(range(T1.dim), repeat=2):
        u, v = T1.basis_element(x1), T1.basis_element(y1)
        if phi(T1.mul(u, v)) != T2.mul(phi(u), phi(v)):
            raise AssertionError(
                "shear solved from the cocycle difference failed to "
                "transport the product; the correspondence is broken"
            )
    return psi


def _checked_outcome(fn, *args):
    try:
        return _outcome(fn, *args)
    except AssertionError as exc:
        return ("AssertionError", str(exc))


def _random_mat(rng, rows, cols, density=0.6):
    coeffs = (-2, -1, 1, 2, Fraction(1, 2))
    return Mat.from_rows(
        [[rng.choice(coeffs) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)],
        cols=cols,
    )


def _sections(rng, k, t, off):
    """A section with random entries off the identity block, and two
    matrices that are not sections: one of the wrong shape, one random."""
    rows = _random_mat(rng, k, t).row_lists()
    for i in range(k):
        rows[i][off : off + k] = [_ONE if j == i else _ZERO for j in range(k)]
    return [Mat.from_rows(rows, cols=t), _random_mat(rng, k, t + 1), _random_mat(rng, k, t)]


def _zero_dimensional_triples():
    out = []
    for n, m, v in itertools.product(range(3), repeat=3):
        A = KVAlgebra(n, zero3(n, n, n)) if n != 1 else random_kv(3, 1)
        W = zero_module(A, m) if m != 1 else random_module(A, 5, 1)
        out.append((A, W, zero_module(A, v)))
    return out


def test_extension_maps_and_section_cocycles_match_the_element_loops():
    rng = random.Random(11)
    kinds = set()
    for A, W, V in _pairs() + _zero_dimensional_triples():
        theta = _random_mat(rng, W.dim, V.dim)
        assert e11_coboundary0(A, W, V, theta).cochain == coboundary(reference_embed_w_map(A, W, V, theta))
        assert e11_coboundary0(A, W, V, theta) == reference_e11_coboundary0(A, W, V, theta)
        for f in _one_one_cochains(rng, A, W, V):
            got = _outcome(module_extension_from_cocycle, A, W, V, f)
            if got[0] != "value":
                continue
            ext = got[1]
            for sigma in [ext.canonical_section()] + _sections(rng, W.dim, ext.total.dim, V.dim):
                got = _checked_outcome(cocycle_from_section, ext, sigma)
                assert got == _checked_outcome(reference_cocycle_from_section, ext, sigma)
                kinds.add(("module", got[0]))
        omegas = [Cochain.from_values(A, W, 2, [rng.choice((-1, 0, 0, 2)) for _ in range(A.dim**2 * W.dim)])]
        if A.dim <= 3 and W.dim <= 2:
            omegas += list(cohomology(A, W, 2).degree(2).representatives[:2])
        # the last one differs from the first by a coboundary: a nonzero shear
        phi = Cochain.from_values(A, W, 1, [rng.choice((-1, 0, 1)) for _ in range(A.dim * W.dim)])
        omegas.append(omegas[0] + coboundary(phi))
        exts = [algebra_extension_from_cocycle(A, W, omega) for omega in omegas]
        for ext in exts:
            for sigma in [ext.canonical_section()] + _sections(rng, A.dim, ext.total.dim, W.dim):
                got = _checked_outcome(algebra_cocycle_from_section, ext, sigma)
                assert got == _checked_outcome(reference_algebra_cocycle_from_section, ext, sigma)
                kinds.add(("algebra", got[0]))
        for ext1, ext2 in itertools.product(exts, repeat=2):
            got = _checked_outcome(algebra_extensions_equivalent, ext1, ext2)
            assert got == _checked_outcome(reference_algebra_extensions_equivalent, ext1, ext2)
            psi = got[1]
            kinds.add(("equivalent", None if psi is None else any(psi.entries)))
    assert kinds >= {
        ("module", "value"), ("module", "DimensionError"), ("module", "InputError"),
        ("algebra", "value"), ("algebra", "DimensionError"), ("algebra", "InputError"),
        ("equivalent", True), ("equivalent", False), ("equivalent", None),
    }


def test_section_cocycles_and_the_shear_match_on_totals_outside_block_form():
    A = rad2()
    W, V = rad2_left_module(), zero_module(rad2(), 1)
    m, v = W.dim, V.dim
    f = e11_coboundary0(A, W, V, Mat.from_rows([[1], [0]], cols=1))
    ext = module_extension_from_cocycle(A, W, V, f)
    # e_0 now sends the quotient vector w_0 onto w_1 in the total as well
    left = [[list(r) for r in p] for p in ext.total.left]
    left[0][v][v + 1] += 1
    bent = ModuleExtension(A, V, W, KVModule(A, v + m, tensor3(left), ext.total.right))
    assert _checked_outcome(cocycle_from_section, bent, bent.canonical_section()) == (
        _checked_outcome(reference_cocycle_from_section, bent, bent.canonical_section())
    )
    M = regular_bimodule(A)
    alg = algebra_extension_from_cocycle(A, M, Cochain.zero(A, M, 2))
    t, k = alg.total.dim, M.dim
    for x, y, z in [(k, k, k), (0, 0, 1)]:
        # a base product leaving the kernel, then a kernel that squares to w_1
        prod = [[list(r) for r in p] for p in alg.total.product]
        prod[x][y][z] += 1
        bent = AlgebraExtension(A, M, KVAlgebra(t, tensor3(prod)))
        for e1, e2 in [(bent, bent), (alg, bent)]:
            assert _checked_outcome(algebra_extensions_equivalent, e1, e2) == (
                _checked_outcome(reference_algebra_extensions_equivalent, e1, e2)
            )


# ---------------------------------------------------------------------------
# every `_blocks` call site: entries placed as they are, Fractions out


def reference_blocks(d1, d2, d3, *blocks):
    """The layout with its whole output coerced through `tensor3`, as it was built."""
    out = [[[_ZERO] * d3 for _ in range(d2)] for _ in range(d1)]
    for t, o1, o2, o3 in blocks:
        for i, plane in enumerate(t):
            for j, row in enumerate(plane):
                out[o1 + i][o2 + j][o3 : o3 + len(row)] = row
    return tensor3(out)


def test_every_blocks_call_site_returns_fractions(monkeypatch):
    import sys

    import kvcohom.core as core_mod
    import kvcohom.extensions as ext_mod
    import kvcohom.graded as graded_mod

    seen = {}

    def recording(d1, d2, d3, *blocks):
        caller = sys._getframe(1)
        out = _blocks(d1, d2, d3, *blocks)
        seen.setdefault((caller.f_code.co_name, caller.f_lineno), []).append(
            (out, reference_blocks(d1, d2, d3, *blocks))
        )
        return out

    for mod in (core_mod, ext_mod, graded_mod):
        monkeypatch.setattr(mod, "_blocks", recording)
    rng = random.Random(21)
    for s in range(1, 9):
        A = random_kv(s, n_max=3)
        W, V = random_module(A, s, 2), random_module(A, s + 1, 2)
        direct_sum(A, random_kv(s + 1, n_max=2))
        module_direct_sum(W, V)
        theta = _random_mat(rng, W.dim, V.dim, 0.5)
        f = e11_coboundary0(A, W, V, theta)  # semidirect, extend_module_to_semidirect
        module_extension_from_cocycle(A, W, V, f)
        values = [rng.choice((0, 1, Fraction(1, 2))) for _ in range(A.dim * W.dim)]
        omega = coboundary(Cochain.from_values(A, W, 1, values))
        algebra_extension_from_cocycle(A, W, omega)
        G = GradedKVAlgebra(A, left_regular_module(A))
        # graded tensors given as plain ints
        raw = [[[rng.choice((-1, 0, 1)) for _ in range(G.m)] for _ in range(G.m)] for _ in range(G.m)]
        deform_graded(G, raw)
        cocycle_from_connectionlike(G, ConnectionlikePair(raw, [[[0] * G.n for _ in range(G.m)] for _ in range(G.n)]))
    sites = {name for name, _ in seen}
    assert sites == {
        "semidirect", "direct_sum", "module_direct_sum", "extend_module_to_semidirect",
        "module_extension_from_cocycle", "algebra_extension_from_cocycle",
        "_regular_cochain", "deform_graded",
    }
    assert len(seen) == 11
    for calls in seen.values():
        for out, want in calls:
            assert out == want
            for plane in out:
                assert type(plane) is tuple
                for row in plane:
                    assert type(row) is tuple
                    assert all(type(x) is Fraction for x in row)
