"""Exact linear algebra: frozen examples plus seeded random cross-checks.

The library runs every elimination through one sparse, fraction-free
row-echelon routine over integers.  The references here are independent of
it: a fraction-free (Bareiss) rank on integer-rescaled dense rows, played
against the library through rank-nullity and consistency; a dense rational
Gauss-Jordan, whose kernel, image, span and particular solution must equal
the library's as values on random sparse matrices as sparse as the
differentials; and the sparse rational elimination core the library ran
before it moved to integers, against which every operation and every
pivot table is compared.  Dense copies of the loops the subspace methods
once ran (reduction, coordinates, the relation-kernel intersection,
representative selection) check the methods that now read the sparse
pivot table.
"""
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

import pytest

from kvcohom.errors import DimensionError
from kvcohom.linalg import (
    Mat,
    Subspace,
    _combine,
    _echelon,
    _integral_rows,
    _rank,
    _rref,
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


def test_subspace_constructor_spans_rows_that_are_not_echelon():
    # two rows with the same leftmost column span the plane
    assert Subspace(2, [[1, 0], [1, 1]]).dim == 2
    assert Subspace(2, [[1, 0], [1, 1]]) == Subspace.full(2)
    # a row with an entry at another row's pivot is reduced away
    assert Subspace(2, [[1, 1], [0, 1]]) == Subspace.full(2)
    assert Subspace(3, [[1, 1, 0], [0, 1, 1]]) == Subspace.from_vectors(3, [[1, 1, 0], [0, 1, 1]])
    # a zero row spans nothing
    assert Subspace(2, [[0, 0]]) == Subspace.zero(2)
    assert Subspace(2, [[0, 0], [2, 4]]) == Subspace.from_vectors(2, [[1, 2]])


def test_subspace_constructor_keeps_echelon_rows():
    s = Subspace.from_vectors(4, [[1, 2, 0, 3], [0, 0, 1, -1]])
    again = Subspace(4, s.basis)
    assert again == s and again._rows == s._rows and again.basis == s.basis


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


# The sparse rational elimination core the library ran before it moved to
# integers, kept as the reference: rows {column: Fraction}, each pivot row 1
# at its pivot.


def fraction_eliminate(row, pivots):
    """The remainder of ``row`` once every pivot column is cleared."""
    out = dict(row)
    todo = [j for j in out if j in pivots]
    heapify(todo)
    while todo:
        p = heappop(todo)
        coef = out.get(p)
        if coef is None:
            continue
        for j, x in pivots[p].items():
            y = out.get(j)
            if y is None:
                out[j] = -coef * x
                if j in pivots:
                    heappush(todo, j)
            else:
                y -= coef * x
                if y:
                    out[j] = y
                else:
                    del out[j]
    return out


def fraction_add_pivot(pivots, row):
    lead = row[min(row)]
    pivots[min(row)] = {j: x / lead for j, x in row.items()}


def fraction_rref(rows):
    """Pivot table {pivot column: row} of the reduced row echelon form."""
    pivots = {}
    for row in sorted(rows, key=len):
        rest = fraction_eliminate(row, pivots)
        if rest:
            fraction_add_pivot(pivots, rest)
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c]
        for p in [j for j in row if j != c and j in pivots]:
            coef = row[p]
            for j, x in pivots[p].items():
                y = row.get(j, F(0)) - coef * x
                if y:
                    row[j] = y
                else:
                    del row[j]
    return {c: pivots[c] for c in order}


def _sparse_row(v):
    return {j: F(x) for j, x in enumerate(v) if x}


def _dense_row(row, n):
    out = [F(0)] * n
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def _table_basis(table, n):
    return tuple(_dense_row(r, n) for r in table.values())


def fraction_kernel(m):
    reduced = fraction_rref([_sparse_row(m.row(i)) for i in range(m.rows)])
    free = {j: {j: F(1)} for j in range(m.cols) if j not in reduced}
    for c, row in reduced.items():
        for j, x in row.items():
            if j != c:
                free[j][c] = -x
    return fraction_rref(free.values())


def fraction_image(m):
    return fraction_rref([_sparse_row([m.at(i, j) for i in range(m.rows)]) for j in range(m.cols)])


def fraction_solve(m, b):
    n = m.cols
    aug = [{**_sparse_row(m.row(i)), **({n: F(y)} if y else {})} for i, y in enumerate(b)]
    reduced = fraction_rref(aug)
    if n in reduced:
        return None
    x = [F(0)] * n
    for c, row in reduced.items():
        x[c] = row.get(n, F(0))
    return tuple(x)


def fraction_inverse(m):
    n = m.rows
    reduced = fraction_rref({**_sparse_row(m.row(i)), n + i: F(1)} for i in range(n))
    if list(reduced) != list(range(n)):
        return None
    return tuple(tuple(r.get(n + j, F(0)) for j in range(n)) for r in reduced.values())


def fraction_intersect(t1, t2, n):
    doubled = [{**r, **{j + n: x for j, x in r.items()}} for r in t1.values()]
    reduced = fraction_rref(doubled + list(t2.values()))
    return {c - n: {j - n: x for j, x in r.items()} for c, r in reduced.items() if c >= n}


def fraction_extend(span, sub, n):
    pivots, kept = dict(span), []
    for row in sub.values():
        rest = fraction_eliminate(row, pivots)
        if rest:
            fraction_add_pivot(pivots, rest)
            kept.append(_dense_row(row, n))
    return kept


def _assert_integer_table(s):
    """The stored form: each row coprime, positive at its pivot, 0 at the
    other pivot columns, and its pivot its leftmost column."""
    for c, row in s._rows.items():
        assert type(row[c]) is int and row[c] > 0 and min(row) == c
        assert gcd(*row.values()) == 1
        assert all(type(x) is int and x for x in row.values())
        assert not any(p in row for p in s._rows if p != c)


def _assert_same_subspace(s, table):
    """A library subspace against a reference table, through every route."""
    n = s.ambient_dim
    _assert_integer_table(s)
    basis = _table_basis(table, n)
    assert s.basis == basis and s.dim == len(table)
    for other in (Subspace(n, basis), Subspace.from_vectors(n, basis),
                  Subspace.from_vectors(n, [[3 * x for x in b] for b in reversed(basis)])):
        assert other == s and hash(other) == hash(s)


def _rational_entry(rng, dens, scale):
    return Fraction(rng.randint(-scale, scale), rng.choice(dens))


def _integer_core_cases():
    """Sparse matrices whose denominators have an lcm above their maximum
    (4, 6, 10 and 15: lcm 60), dense rationals, and entries near 10^30,
    some rank-deficient by construction."""
    rng = random.Random(20261018)
    for t in range(60):
        kind = t % 3
        rows, cols = rng.randint(1, 14), rng.randint(1, 14)
        if kind == 0:
            data = [[_rational_entry(rng, (1, 4, 6, 10, 15), 9) if rng.random() < 0.2 else F(0)
                     for _ in range(cols)] for _ in range(rows)]
        elif kind == 1:
            dens = (1, 2, 3, 5, 7, 9)
            data = [[_rational_entry(rng, dens, 20) for _ in range(cols)] for _ in range(rows)]
        else:
            data = [[Fraction(rng.randint(-10**30, 10**30), rng.choice((1, 3, 10**30 + 1)))
                     if rng.random() < 0.5 else F(0) for _ in range(cols)] for _ in range(rows)]
        if rows > 2 and rng.random() < 0.5:
            a, b, r = rng.sample(range(rows), 3)
            c = _rational_entry(rng, (1, 4, 6), 5)
            data[r] = [x + c * y for x, y in zip(data[a], data[b])]
        yield rng, data, rows, cols


def test_integer_core_matches_the_fraction_core():
    kinds = set()
    for rng, data, rows, cols in _integer_core_cases():
        m = Mat.from_rows(data, cols=cols)
        ref_rows = fraction_rref([_sparse_row(r) for r in data])
        assert rank(m) == len(ref_rows)
        ker, img, row_space = kernel(m), image(m), Subspace.from_vectors(cols, data)
        _assert_same_subspace(ker, fraction_kernel(m))
        _assert_same_subspace(img, fraction_image(m))
        _assert_same_subspace(row_space, ref_rows)
        kinds.add((rank(m) < min(rows, cols), ker.dim > 0))
        x0 = [_rational_entry(rng, (1, 4, 6), 5) for _ in range(cols)]
        for b in (m.mat_vec(x0), [_rational_entry(rng, (1, 10, 15), 5) for _ in range(rows)]):
            assert solve(m, b) == fraction_solve(m, b)
        k = min(rows, cols)
        square = Mat.from_rows([r[:k] for r in data[:k]], cols=k)
        inv = inverse(square)
        want = fraction_inverse(square)
        assert (inv is None) == (want is None)
        if inv is not None:
            assert tuple(inv.row(i) for i in range(k)) == want
        # Subspace operations on the row space against the reference table.
        for v in (x0, [x * 7 for x in data[0]], [F(0)] * cols):
            rest = fraction_eliminate(_sparse_row(v), ref_rows)
            assert row_space.reduce(v) == _dense_row(rest, cols)
            assert row_space.contains(v) == (not rest)
            assert row_space.coordinates(v) == (None if rest else tuple(F(v[p]) for p in ref_rows))
        ker_rows = fraction_kernel(m)
        joined = fraction_rref([*ref_rows.values(), *ker_rows.values()])
        _assert_same_subspace(row_space.add(ker), joined)
        _assert_same_subspace(row_space.intersect(ker), fraction_intersect(ref_rows, ker_rows, cols))
        half = Subspace.from_vectors(cols, ker.basis[::2])
        half_rows = fraction_rref([_sparse_row(b) for b in ker.basis[::2]])
        assert extend_basis(half, ker) == fraction_extend(half_rows, ker_rows, cols)
        assert extend_basis(row_space, ker) == fraction_extend(ref_rows, ker_rows, cols)
        coeffs = [_rational_entry(rng, (1, 4, 6, 10), 5) for _ in range(ker.dim)]
        combined = [F(0)] * cols
        for c, b in zip(coeffs, ker.basis):
            combined = [y + c * x for y, x in zip(combined, b)]
        assert _combine(coeffs, ker) == tuple(combined)
    assert {(True, True), (False, True)} <= kinds


def test_integer_tables_of_the_constructors():
    n = 4
    echelon = Subspace(n, [[1, "1/2", 0, "-2/3"], [0, 0, 1, "5/6"]])
    for s in (Subspace.zero(n), Subspace.full(n), echelon):
        _assert_integer_table(s)
    assert echelon._rows == {0: {0: 6, 1: 3, 3: -4}, 2: {2: 6, 3: 5}}
    spanned = Subspace.from_vectors(n, [[0, -2, 4, 0], [0, 3, -6, 1]])
    assert spanned._rows == {1: {1: 1, 2: -2}, 3: {3: 1}}


def test_rank_reads_the_pivot_count_of_the_forward_pass():
    # the forward pass finds the pivot columns of the reduced form, each row
    # primitive, positive at its pivot and 0 at the pivots found before it
    for rng, data, rows, cols in _integer_core_cases():
        int_rows = _integral_rows(Mat.from_rows(data, cols=cols))[1]
        forward, reduced = _echelon(int_rows), _rref(int_rows)
        assert sorted(forward) == list(reduced)
        assert _rank(int_rows) == len(reduced) == len(fraction_rref([_sparse_row(r) for r in data]))
        found = []
        for c, row in forward.items():
            assert min(row) == c and row[c] > 0 and gcd(*row.values()) == 1
            assert not any(p in row for p in found)
            found.append(c)
