"""The a < b rows of the degree-2 coboundary and the sparse next-order step.

For every bilinear f and every module, (delta f)(b, a, c) = -(delta f)(a, b, c):
the formula at q = 2 has two summands, and swapping a_1 and a_2 swaps them.
So the rows of D * delta_2 at (b, a, c) are the negated rows at (a, b, c),
the rows at (a, a, c) are empty, and the rows at the a < b output tuples
(`complexes._pair_outputs`) span all of them.  Where delta_2 is only
eliminated for its kernel or solved against, those rows are used, with
the right-hand side read on them by `complexes._pair_rhs`.  The checks
below compare each use with the full rows, and the sparse helpers of the
next-order step (`complexes._coboundary_sums`, `linalg._separating`) with
the dense routes they replaced.  The cut is made in `complexes` alone
(`_rows`, `_ClassRows`), and the last check pins that `deform` and
`extensions` no longer hold the names they used to make it themselves.
"""

import itertools
import random
from fractions import Fraction

from kvcohom.complexes import (
    Cochain,
    _coboundary_rows,
    _coboundary_sums,
    _pair_outputs,
    _pair_rhs,
    coboundary,
    coboundary_matrix,
    cohomology,
    is_coboundary,
    is_cocycle,
)
from kvcohom.core import (
    is_module,
    left_regular_module,
    random_kv,
    random_module,
    regular_bimodule,
)
from kvcohom.deform import MultiplicationJet, rigidity_report, solve_next_order
from kvcohom.fixtures import algebra_catalog, rad2, rad2_left_module
from kvcohom.linalg import _kernel, _separating, _solve, _transposed


def _setups():
    """(A, W) over the catalog and seeded random algebras, with regular,
    left-regular and random modules."""
    out = [(A, M) for A in algebra_catalog() for M in (regular_bimodule(A), left_regular_module(A))]
    out.append((rad2(), rad2_left_module()))
    for s in range(1, 21):
        A = random_kv(s, n_max=2 + s % 3)
        out.append((A, random_module(A, s, m_max=3)))
        if is_module(A, regular_bimodule(A)):
            out.append((A, regular_bimodule(A)))
    return [(A, W) for A, W in out if is_module(A, W)]


def _row(rows, n, m, a, b, c, t):
    return rows[((a * n + b) * n + c) * m + t]


def _random_values(rng, size, density=0.5):
    return tuple(
        Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5))) if rng.random() < density else Fraction(0)
        for _ in range(size)
    )


def test_delta2_rows_are_antisymmetric_in_the_first_two_arguments():
    regular = empty = 0
    for A, W in _setups():
        n, m = A.dim, W.dim
        D, rows = _coboundary_rows(A, W, 2)
        for a, b, c, t in itertools.product(range(n), range(n), range(n), range(m)):
            row = _row(rows, n, m, a, b, c, t)
            if a == b:
                assert row == {}
            else:
                assert _row(rows, n, m, b, a, c, t) == {col: -x for col, x in row.items()}
        empty += sum(1 for r in rows if not r)
        regular += W == regular_bimodule(A)
        # the a < b rows come out of the one assembler in their order
        half = [_row(rows, n, m, a, b, c, t) for a, b, c in _pair_outputs(n) for t in range(m)]
        assert _coboundary_rows(A, W, 2, _pair_outputs(n)) == (D, half)
    assert regular >= 5 and empty > 0


def test_kernel_and_solve_from_pair_rows_equal_those_from_full_rows():
    rng = random.Random("pair-rows")
    solved = inconsistent = 0
    for A, W in _setups():
        n, m = A.dim, W.dim
        cols = n * n * m
        D, full = _coboundary_rows(A, W, 2)
        _, half = _coboundary_rows(A, W, 2, _pair_outputs(n))
        assert _kernel(half, cols) == _kernel(full, cols)
        g = Cochain(A, W, 2, _random_values(rng, cols))
        f = coboundary(g)
        # an antisymmetric right-hand side outside the image, where there is one
        h = coboundary(Cochain(A, W, 2, _random_values(rng, cols)))
        bump = list(h.values)
        if n >= 2 and m >= 1:
            bump[((0 * n + 1) * n) * m] += 1
            bump[((1 * n + 0) * n) * m] -= 1
        for values in (f.values, h.values, tuple(bump)):
            rhs = {i: D * y for i, y in enumerate(values) if y}
            pair = _pair_rhs(rhs, n, m)
            assert pair is not None
            x = _solve(half, cols, pair)
            assert x == _solve(full, cols, rhs)
            if x is None:
                inconsistent += 1
            else:
                solved += 1
                assert coboundary(Cochain(A, W, 2, x)).values == values
    assert solved and inconsistent


def test_a_right_hand_side_that_is_not_antisymmetric_is_no_coboundary():
    rng = random.Random("not-antisymmetric")
    seen = 0
    for A, W in _setups():
        n, m = A.dim, W.dim
        if m == 0:
            continue
        f = coboundary(Cochain(A, W, 2, _random_values(rng, n * n * m)))
        assert is_coboundary(f) is not None
        for a, b in ((0, 0), (0, n - 1)):
            vals = list(f.values)
            vals[((a * n + b) * n) * m] += Fraction(1, 3)
            g = Cochain(A, W, 3, tuple(vals))
            rhs = {i: y for i, y in enumerate(g.values) if y}
            assert _pair_rhs(rhs, n, m) is None
            assert is_coboundary(g) is None
            # the full rows agree: the system is inconsistent
            D, full = _coboundary_rows(A, W, 2)
            assert _solve(full, n * n * m, {i: D * y for i, y in rhs.items()}) is None
            seen += 1
    assert seen > 20


def test_is_coboundary_on_three_cochains_matches_the_full_rows():
    rng = random.Random("is-coboundary-3")
    for A, W in _setups()[::3]:
        n, m = A.dim, W.dim
        g = Cochain(A, W, 2, _random_values(rng, n * n * m))
        f = coboundary(g)
        x = is_coboundary(f)
        D, full = _coboundary_rows(A, W, 2)
        want = _solve(full, n * n * m, {i: D * y for i, y in enumerate(f.values) if y})
        assert x.values == want
        assert coboundary(x) == f


def test_top_degree_two_reports_match_the_full_rows(monkeypatch):
    import kvcohom.complexes as cx

    setups = _setups()[::2]
    regular = [A for A, W in setups if W == regular_bimodule(A)]
    tops = [cohomology(A, W, 2) for A, W in setups]
    rigid = [rigidity_report(A) for A in regular]
    # the same reports with every output tuple of delta_2 assembled
    real = cx._coboundary_rows
    monkeypatch.setattr(cx, "_coboundary_rows", lambda A, W, q, outputs=None: real(A, W, q))
    assert tops == [cohomology(A, W, 2) for A, W in setups]
    assert rigid == [rigidity_report(A) for A in regular]
    assert len(rigid) >= 3


def test_nonzero_sums_match_the_dense_coboundary_and_the_matrix():
    rng = random.Random("nonzero-sums")
    cocycles = others = 0
    for A, W in _setups():
        n, m = A.dim, W.dim
        for q in (1, 2, 3):
            size = n**q * m
            if size > 800:
                continue
            for f in (
                Cochain(A, W, q, _random_values(rng, size, 0.3)),
                Cochain.zero(A, W, q),
                coboundary(Cochain(A, W, q - 1, _random_values(rng, n ** (q - 1) * m)))
                if q >= 2
                else Cochain.zero(A, W, q),
            ):
                values = {i: y for i, y in enumerate(f.values) if y}
                scale, sums = _coboundary_sums(A, W, q, values)
                # the matrix route, independent of the scatter
                dense = coboundary_matrix(A, W, q).mat_vec(f.values)
                assert coboundary(f).values == dense
                assert {i: Fraction(x, scale) for i, x in sums.items()} == {
                    i: y for i, y in enumerate(dense) if y
                }
                assert all(type(x) is int and x for x in sums.values())
                assert is_cocycle(f) == (not any(dense))
                if sums:
                    others += 1
                else:
                    cocycles += 1
    assert cocycles > 20 and others > 20


def reference_separating(rows, cols, rhs):
    """The dense-basis loop `_separating` replaced."""
    for y in _kernel(_transposed(rows, cols), len(rows)).basis:
        if sum(y[i] * v for i, v in rhs.items()) != 0:
            return y
    return None


def test_separating_matches_the_dense_basis_loop():
    rng = random.Random("separating")
    found = consistent = 0
    for A, W in _setups()[::2]:
        n, m = A.dim, W.dim
        cols = n * n * m
        D, full = _coboundary_rows(A, W, 2)
        for density in (0.05, 0.3):
            rhs = {i: y for i, y in enumerate(_random_values(rng, len(full), density)) if y}
            got = _separating(full, cols, rhs)
            assert got == reference_separating(full, cols, rhs)
            found += got is not None
        image = coboundary(Cochain(A, W, 2, _random_values(rng, cols)))
        rhs = {i: D * y for i, y in enumerate(image.values) if y}
        assert _separating(full, cols, rhs) is None
        consistent += 1
    assert found > 10 and consistent > 5


def test_next_order_certificates_are_functionals_on_all_rows():
    obstructed = solved = 0
    for s in range(1, 30):
        A = random_kv(s, n_max=4)
        if A.dim < 2:
            continue
        n = A.dim
        for mu in rigidity_report(A).class_representatives[:3]:
            sol = solve_next_order(MultiplicationJet(A, (mu,)))
            target = {}
            for a, b, c, t in itertools.product(range(n), repeat=4):
                if sol.target[a][b][c][t]:
                    target[((a * n + b) * n + c) * n + t] = sol.target[a][b][c][t]
            assert sol.target_is_cocycle == is_cocycle(
                Cochain(A, regular_bimodule(A), 3, tuple(x for p in sol.target for q in p for r in q for x in r))
            )
            assert _pair_rhs(target, n, n) is not None  # R_k is antisymmetric
            if sol.solved:
                solved += 1
                continue
            obstructed += 1
            D, full = _coboundary_rows(A, regular_bimodule(A), 2)
            assert len(sol.certificate) == n**4
            rhs = {i: D * y for i, y in target.items()}
            assert sol.certificate == reference_separating(full, n**3, rhs)
    assert obstructed and solved


# ---------------------------------------------------------------------------
# the cochains that alternate in their first q - 1 arguments


def _sign(perm):
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _alternating_values(rng, n, m, q):
    """The values of a random q-cochain that alternates in its first q - 1
    arguments: a random table summed over the permutations of those
    arguments, with signs."""
    g = _random_values(rng, n**q * m)
    perms = [(p, _sign(p)) for p in itertools.permutations(range(q - 1))]
    out = []
    for args in itertools.product(range(n), repeat=q):
        for t in range(m):
            total = Fraction(0)
            for p, s in perms:
                moved = tuple(args[i] for i in p) + args[q - 1 :]
                pos = 0
                for a in moved:
                    pos = pos * n + a
                total += s * g[pos * m + t]
            out.append(total)
    return tuple(out)


def test_cochains_alternating_in_all_but_the_last_argument_form_a_subcomplex():
    """If f in C^q alternates in its first q - 1 arguments, delta f alternates
    in its first q.  No KV identity is used.  Swap a_k and a_(k+1), k + 1 <= q.
    A summand j of the coboundary formula (see `complexes`) with j not k or
    k + 1 omits neither; each of its terms then swaps two of the first q - 1
    arguments of f, or, in the middle sum, trades the terms at slots k and
    k + 1 with such a swap, so it changes sign.  The summands j = k and
    j = k + 1 omit one of the two and leave the same remaining sequence, so
    the swap exchanges them, and their signs (-1)^j differ.  At q = 2 this
    is the antisymmetry of delta_2 above.  The space of these cochains is
    Hom(Lambda^(q-1) A (x) A, W), Nijenhuis's cochain space."""
    rng = random.Random("alternating-subcomplex")
    checked = nonzero = 0
    for s in range(1, 13):
        A = random_kv(s, n_max=4)
        n = A.dim
        modules = [random_module(A, s, m_max=3), left_regular_module(A)]
        if is_module(A, regular_bimodule(A)):
            modules.append(regular_bimodule(A))
        for W in modules:
            m = W.dim
            for q in (1, 2, 3):
                df = coboundary(Cochain(A, W, q, _alternating_values(rng, n, m, q)))
                for args in itertools.product(range(n), repeat=q + 1):
                    value = df.value(args)
                    nonzero += any(value)
                    for k in range(q - 1):
                        swapped = args[:k] + (args[k + 1], args[k]) + args[k + 2 :]
                        assert df.value(swapped) == tuple(-x for x in value)
                checked += 1
    assert checked >= 80 and nonzero > 1000


def test_complexes_alone_cuts_delta2_and_answers_the_coboundary_questions():
    # `deform` and `extensions` ask `complexes` for rows or a preimage; none
    # of them assembles, cuts or solves a differential of its own
    import kvcohom.deform as df
    import kvcohom.extensions as ex

    for name in ("_coboundary_rows", "_pair_outputs", "_pair_rhs"):
        assert not hasattr(df, name), name
    for name in ("_split_semidirect", "solve"):
        assert not hasattr(ex, name), name
