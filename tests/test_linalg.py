"""Exact linear algebra: frozen examples plus seeded random cross-checks.

The library runs every elimination through one sparse row-echelon routine.
The references here are independent of it: a fraction-free (Bareiss) rank
on integer-rescaled dense rows, played against the library through
rank-nullity and consistency, and a dense rational Gauss-Jordan, whose
kernel, image, span and particular solution must equal the library's as
values on random sparse matrices as sparse as the differentials.  Dense
copies of the loops the subspace methods once ran (reduction,
coordinates, the relation-kernel intersection, representative
selection) check the methods that now read the sparse pivot table.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from kvcohom.errors import DimensionError
from kvcohom.linalg import (
    Mat,
    Subspace,
    extend_basis,
    identity,
    image,
    inverse,
    kernel,
    mat_mul,
    rank,
    rat,
    solve,
    vec,
    zeros,
)


def F(x):
    return Fraction(x)


def bareiss_rank(m):
    """Reference rank by fraction-free (Bareiss) elimination.

    Each row is first rescaled by the lcm of its denominators, so the
    elimination runs entirely in integer arithmetic; the one-step Bareiss
    update divides by the previous pivot, which is an exact division.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    work = []
    for i in range(m.rows):
        r = m.row(i)
        den = lcm(*(f.denominator for f in r))
        work.append([int(f * den) for f in r])
    nrows, ncols = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                work[i][j] = (work[r][c] * work[i][j] - work[i][c] * work[r][j]) // prev
            work[i][c] = 0
        prev = work[r][c]
        r += 1
        if r == nrows:
            break
    return r


def dense_rref(rows, ncols):
    """Reference reduced row echelon form by dense rational Gauss-Jordan.

    Returns (nonzero rows of the RREF, pivot column indices in increasing order).
    """
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    nrows = len(work)
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b if b else a for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work[:r], pivots


def dense_span(ambient_dim, vectors):
    reduced, _ = dense_rref(vectors, ambient_dim)
    return Subspace(ambient_dim, tuple(tuple(r) for r in reduced))


def dense_kernel(m):
    reduced, pivots = dense_rref([m.row(i) for i in range(m.rows)], m.cols)
    basis = []
    for j in (j for j in range(m.cols) if j not in pivots):
        v = [F(0)] * m.cols
        v[j] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][j]
        basis.append(v)
    return dense_span(m.cols, basis)


def dense_reduce(rows, v):
    """The loop Subspace.reduce and Subspace.coordinates ran on dense basis
    rows: clear each row's leading column in turn, recording the coefficient.

    The rows must vanish at the leading columns of the rows before them.
    Returns the remainder and the coefficients.
    """
    x = list(vec(v))
    coords = []
    for row in rows:
        p = next(j for j, t in enumerate(row) if t)
        coef = x[p]
        coords.append(coef)
        if coef:
            x = [a - coef * b if b else a for a, b in zip(x, row)]
    return tuple(x), tuple(coords)


def dense_intersect(s1, s2):
    """The route Subspace.intersect took: kernel vectors (x, y) of [A^T | -B^T]
    give the common vectors x.A, combined densely."""
    n = s1.ambient_dim
    if s1.dim == 0 or s2.dim == 0:
        return dense_span(n, [])
    b1 = s1.basis
    relation = Mat.from_cols(list(b1) + [[-t for t in b] for b in s2.basis], rows=n)
    combos = []
    for kv in dense_kernel(relation).basis:
        combo = [F(0)] * n
        for c, b in zip(kv, b1):
            if c:
                combo = [x + c * y for x, y in zip(combo, b)]
        combos.append(combo)
    return dense_span(n, combos)


def dense_solve(m, b):
    reduced, pivots = dense_rref([list(m.row(i)) + [b[i]] for i in range(m.rows)], m.cols + 1)
    if m.cols in pivots:
        return None
    x = [F(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = reduced[i][m.cols]
    return tuple(x)


def test_rat_coercions():
    assert rat(3) == F(3)
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == F(-2)
    assert rat(Fraction(5, 7)) == Fraction(5, 7)
    with pytest.raises(TypeError):
        rat(0.5)


def test_rank_identity_and_zero():
    assert rank(identity(2)) == 2
    assert rank(zeros(2, 2)) == 0


def test_rank_dependent_rows():
    m = Mat.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_rank_fractional_entries():
    m = Mat.from_rows([["1/2", "1/3"], ["1/4", "1/6"]])
    assert rank(m) == 1
    m2 = Mat.from_rows([["1/2", "1/3"], ["1/4", "1/5"]])
    assert rank(m2) == 2


def test_kernel_identity():
    assert kernel(identity(3)).dim == 0


def test_kernel_difference():
    k = kernel(Mat.from_rows([[1, -1]]))
    assert k.dim == 1
    assert k.contains([1, 1])


def test_kernel_dependent_rows():
    k = kernel(Mat.from_rows([[1, 2], [2, 4]]))
    assert k.dim == 1
    assert k.contains([-2, 1])


def test_solve_identity():
    assert solve(identity(2), [5, 7]) == (F(5), F(7))


def test_solve_inconsistent():
    assert solve(zeros(2, 2), [1, 0]) is None


def test_solve_underdetermined():
    m = Mat.from_rows([[1, 2], [2, 4]])
    x = solve(m, [1, 2])
    assert x is not None
    assert m.mat_vec(x) == (F(1), F(2))


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve(identity(2), [1, 2, 3])


def test_image_identity_full():
    assert image(identity(3)) == Subspace.full(3)


def test_membership():
    s = Subspace.from_vectors(2, [[1, 1]])
    assert s.contains([2, 2])
    assert not s.contains([1, 0])


def test_intersect_transverse_lines():
    s1 = Subspace.from_vectors(2, [[1, 0]])
    s2 = Subspace.from_vectors(2, [[0, 1]])
    assert s1.intersect(s2).dim == 0


def test_intersect_nontrivial():
    s1 = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    s2 = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    meet = s1.intersect(s2)
    assert meet.dim == 1
    assert meet.contains([0, 1, 0])


def test_subspace_equality_is_set_equality():
    s1 = Subspace.from_vectors(3, [[1, 1, 0], [0, 2, 0]])
    s2 = Subspace.from_vectors(3, [[1, 0, 0], [3, 5, 0]])
    assert s1 == s2


def test_subspace_coordinates_roundtrip():
    s = Subspace.from_vectors(3, [[1, 2, 0], [0, 0, 3]])
    v = [F(2), F(4), F(9)]
    coords = s.coordinates(v)
    assert coords is not None
    rebuilt = [F(0)] * 3
    for c, b in zip(coords, s.basis):
        for t in range(3):
            rebuilt[t] += c * b[t]
    assert tuple(rebuilt) == tuple(v)
    assert s.coordinates([1, 0, 0]) is None


def test_empty_shapes():
    assert rank(Mat.from_rows([], cols=3)) == 0
    assert kernel(Mat.from_rows([], cols=3)) == Subspace.full(3)
    m = Mat.from_rows([[1], [2]])
    assert m.rows == 2 and m.cols == 1


def _random_mat(rng, rows, cols, scale=6):
    entries = [
        Fraction(rng.randint(-scale, scale), rng.choice([1, 1, 1, 2, 3]))
        for _ in range(rows * cols)
    ]
    return Mat(rows, cols, tuple(entries))


def test_rank_nullity_cross_check():
    # Reference Bareiss rank against the library kernel: two elimination routes.
    rng = random.Random(20260816)
    for _ in range(200):
        rows = rng.randint(0, 5)
        cols = rng.randint(1, 5)
        m = _random_mat(rng, rows, cols)
        assert bareiss_rank(m) + kernel(m).dim == cols
        assert rank(m) == bareiss_rank(m)
        for b in kernel(m).basis:
            assert all(x == 0 for x in m.mat_vec(b))


def test_rank_row_permutation_invariance():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(2, 5)
        cols = rng.randint(1, 5)
        m = _random_mat(rng, rows, cols)
        perm = list(range(rows))
        rng.shuffle(perm)
        pm = Mat.from_rows([m.row(i) for i in perm], cols=cols)
        assert rank(m) == rank(pm) == bareiss_rank(pm)
        assert kernel(m) == kernel(pm)


def test_solve_agrees_with_consistency_rank():
    rng = random.Random(99)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = _random_mat(rng, rows, cols)
        b = [Fraction(rng.randint(-4, 4)) for _ in range(rows)]
        x = solve(m, b)
        aug = Mat.from_rows(
            [list(m.row(i)) + [b[i]] for i in range(rows)], cols=cols + 1
        )
        if x is None:
            assert bareiss_rank(aug) > bareiss_rank(m)
        else:
            assert m.mat_vec(x) == tuple(b)
            assert bareiss_rank(aug) == bareiss_rank(m)


def test_image_membership_consistency():
    rng = random.Random(3)
    for _ in range(50):
        m = _random_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        img = image(m)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(m.cols)]
        assert img.contains(m.mat_vec(x))


def test_intersect_dimension_formula():
    # dim(S1) + dim(S2) = dim(S1 + S2) + dim(S1 ^ S2)
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        s1 = Subspace.from_vectors(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        s2 = Subspace.from_vectors(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        meet = s1.intersect(s2)
        join = s1.add(s2)
        assert s1.dim + s2.dim == join.dim + meet.dim
        for b in meet.basis:
            assert s1.contains(b) and s2.contains(b)


def test_inverse_roundtrip():
    rng = random.Random(17)
    eye3 = identity(3)
    for _ in range(40):
        m = _random_mat(rng, 3, 3)
        inv = inverse(m)
        if inv is None:
            assert bareiss_rank(m) < 3
        else:
            assert mat_mul(m, inv) == eye3
            assert mat_mul(inv, m) == eye3


def test_mat_mul_known():
    a = Mat.from_rows([[1, 2], [3, 4]])
    b = Mat.from_rows([[0, 1], [1, 0]])
    assert mat_mul(a, b) == Mat.from_rows([[2, 1], [4, 3]])


def test_vec_rejects_bad_lengths_in_subspace():
    with pytest.raises(DimensionError):
        Subspace.from_vectors(2, [[1, 2, 3]])
    s = Subspace.from_vectors(2, [[1, 0]])
    with pytest.raises(DimensionError):
        s.contains([1, 2, 3])


def _sparse_mat(rng, rows, cols, density):
    """A random sparse matrix with fractional entries; rank-deficient on purpose
    when some rows are combinations of others or some columns repeat."""
    data = [
        [
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3, 5]))
            if rng.random() < density else F(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    if rng.random() < 0.5 and rows > 2:
        # Replace a few rows by combinations of two others.
        for _ in range(rng.randint(1, rows // 3 + 1)):
            a, b, t = rng.sample(range(rows), 3)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            data[t] = [x + c * y for x, y in zip(data[a], data[b])]
    if rng.random() < 0.3 and cols > 2:
        # Repeat a column, scaled.
        a, t = rng.sample(range(cols), 2)
        for r in data:
            r[t] = 2 * r[a]
    return Mat.from_rows(data, cols=cols)


def _old_selection(span, vectors):
    """Keep each vector outside the span of span and the vectors kept before."""
    rows, chosen = list(span.basis), []
    for v in vectors:
        rest = dense_reduce(rows, v)[0]
        if any(rest):
            chosen.append(v)
            lead = next(t for t in rest if t)
            rows.append([t / lead for t in rest])
    return chosen


def _check_subspace_methods(s, others, inside, outside):
    """Subspace methods on s against the dense loops they replaced.

    Returns how many of the intersections are neither 0 nor one of the two.
    """
    n, basis = s.ambient_dim, s.basis
    proper = 0
    for v in inside + outside:
        rest, coords = dense_reduce(basis, v)
        assert s.reduce(v) == rest
        assert s.contains(v) == (not any(rest))
        assert s.coordinates(v) == (None if any(rest) else coords)
    assert all(s.contains(v) for v in inside) and not any(s.contains(v) for v in outside)
    for o in others:
        join, meet = s.add(o), s.intersect(o)
        dense_join, dense_meet = dense_span(n, basis + o.basis), dense_intersect(s, o)
        assert join == dense_join and join.basis == dense_join.basis
        assert meet == dense_meet and meet.basis == dense_meet.basis
        assert hash(join) == hash(dense_join) and hash(meet) == hash(dense_meet)
        assert join == o.add(s) and meet == o.intersect(s)
        proper += meet not in (Subspace.zero(n), s, o)
    assert s.add(Subspace.zero(n)) == s == s.intersect(Subspace.full(n))
    assert s.intersect(Subspace.zero(n)) == Subspace.zero(n)
    assert s.add(Subspace.full(n)) == Subspace.full(n)
    return proper


def test_sparse_core_matches_dense_gauss_jordan():
    # Shapes and densities of the differentials: 0.3-5 % nonzero.
    rng = random.Random(20261017)
    deficient = proper = 0
    for _ in range(30):
        rows, cols = rng.randint(15, 60), rng.randint(8, 40)
        density = rng.choice([0.003, 0.01, 0.02, 0.05])
        m = _sparse_mat(rng, rows, cols, density)
        ker, dense_ker = kernel(m), dense_kernel(m)
        assert ker == dense_ker and hash(ker) == hash(dense_ker)
        img = image(m)
        dense_img = dense_span(rows, [[m.at(i, j) for i in range(rows)] for j in range(cols)])
        assert img == dense_img and hash(img) == hash(dense_img)
        row_space = Subspace.from_vectors(cols, [m.row(i) for i in range(rows)])
        dense_rows = dense_span(cols, [m.row(i) for i in range(rows)])
        assert row_space == dense_rows and hash(row_space) == hash(dense_rows)
        assert rank(m) == bareiss_rank(m) == img.dim == cols - ker.dim
        deficient += rank(m) < min(rows, cols)
        # A consistent right-hand side (the image of a random vector) and
        # a random one, which is mostly inconsistent.
        x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
        for b in (m.mat_vec(x0), [Fraction(rng.randint(-2, 2)) for _ in range(rows)]):
            x = solve(m, b)
            assert x == dense_solve(m, b)
            if x is not None:
                assert m.mat_vec(x) == tuple(b)
        # Representative selection: kernel vectors extending a subspace of it.
        part = Subspace.from_vectors(cols, [v for v in ker.basis if rng.random() < 0.4])
        assert extend_basis(part, ker) == _old_selection(part, ker.basis)
        # And the row space against the span of three rows, some of them dependent.
        vs = [m.row(i) for i in range(rows)]
        rng.shuffle(vs)
        lines = Subspace.from_vectors(cols, vs[:3])
        assert extend_basis(lines, row_space) == _old_selection(lines, row_space.basis)
        # Membership, coordinates, sums, intersections and hashes of the
        # kernel, the image and the row space.
        mixed = Subspace.from_vectors(cols, [v for v in ker.basis if rng.random() < 0.5] + vs[:2])

        def randvec(length):
            return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.3 else F(0)
                    for _ in range(length)]

        def combo(sub):
            basis = sub.basis
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in basis]
            return [sum((c * b[t] for c, b in zip(coeffs, basis)), F(0)) for t in range(sub.ambient_dim)]

        def outside(sub):
            return [v for v in (randvec(sub.ambient_dim) for _ in range(3)) if any(dense_reduce(sub.basis, v)[0])]

        seen = Subspace.from_vectors(rows, [m.mat_vec(x0), randvec(rows)])
        proper += _check_subspace_methods(ker, [mixed, part], [combo(ker), *ker.basis[:2]], outside(ker))
        proper += _check_subspace_methods(img, [seen], [combo(img), m.mat_vec(x0)], outside(img))
        proper += _check_subspace_methods(row_space, [lines], [combo(row_space), *vs[:2]], outside(row_space))
        for dim in (rows, cols):
            assert Subspace.zero(dim) == Subspace(dim, ()) and Subspace.zero(dim).basis == ()
            eye = tuple(tuple(F(int(i == j)) for j in range(dim)) for i in range(dim))
            assert Subspace.full(dim).basis == eye and Subspace.full(dim) == Subspace(dim, eye)
            assert hash(Subspace.full(dim)) == hash(Subspace(dim, eye))
            assert hash(Subspace.zero(dim)) == hash(Subspace(dim, ()))
    assert deficient >= 8 and proper >= 20


def test_extend_basis_checks_lengths():
    with pytest.raises(DimensionError):
        extend_basis(Subspace.zero(2), Subspace.full(3))
