"""The weight classes of the next-order solver and of `is_coboundary`.

The KV coboundary preserves the weight mu_ga - sum_i w_{a_i} of a
coordinate (a_1, ..., a_q; ga), with the weights of `core._weights`, so a
right-hand side is solved and certified against the rows of the classes it
touches alone.  These tests compare that route with the whole-matrix step
of `gather_loops.reference_next_order` and with `solve` on the public
matrix, and pin how little it assembles.
"""

import itertools
import random
from fractions import Fraction

from gather_loops import reference_next_order

import kvcohom.complexes as cx
import kvcohom.deform as df
from kvcohom.complexes import Cochain, coboundary, coboundary_matrix, cohomology, is_coboundary
from kvcohom.core import (
    KVAlgebra,
    _view,
    _weights,
    conjugate_algebra,
    is_kv,
    is_module,
    random_kv,
    random_module,
    regular_bimodule,
    tensor3,
)
from kvcohom.deform import MultiplicationJet, rigidity_report, solve_next_order
from kvcohom.errors import PreconditionError
from kvcohom.fixtures import aff, assoc1, zero_algebra
from kvcohom.linalg import Mat, inverse, solve


def _plus(x, y):
    return tuple(map(sum, zip(x, y)))


def _sum_tensor(*ts):
    return tuple(tuple(tuple(sum(xs) for xs in zip(*rs)) for rs in zip(*ps)) for ps in zip(*ts))


def _fields(sol):
    return sol.order, sol.target, sol.target_is_cocycle, sol.coefficient, sol.certificate


def _classes(A, target):
    """The weight classes of the nonzero entries of a 3-cochain of A."""
    w = _weights(A)
    n = A.dim
    return {
        tuple(x - y for x, y in zip(w[t], _plus(_plus(w[a], w[b]), w[c])))
        for a, b, c, t in itertools.product(range(n), repeat=4)
        if target[a][b][c][t]
    }


def test_weights_solve_their_equations():
    graded = 0
    for s in range(1, 41):
        A = random_kv(s, n_max=6)
        W = random_module(A, s, m_max=3)
        w = _weights(A)
        vw, mu = _weights(W)
        assert len({len(x) for x in w}) <= 1 and len({len(x) for x in vw + mu}) <= 1
        graded += len(set(w)) > 1
        for i, j, k in itertools.product(range(A.dim), repeat=3):
            if A.product[i][j][k]:
                assert _plus(w[i], w[j]) == w[k]
                assert _plus(vw[i], vw[j]) == vw[k]
        for i, be, ga in itertools.product(range(A.dim), range(W.dim), range(W.dim)):
            if W.left[i][be][ga]:
                assert _plus(vw[i], mu[be]) == mu[ga]
            if W.right[be][i][ga]:
                assert _plus(mu[be], vw[i]) == mu[ga]
    assert graded > 20


def test_the_regular_bimodule_reuses_the_algebra_weights_and_no_check_computes_them():
    A = random_kv(44, n_max=6)
    W = regular_bimodule(A)
    assert is_kv(A) and is_module(A, W)
    cohomology(A, W, 2)
    rigidity_report(A)
    assert not hasattr(A, "_int_weights") and not hasattr(W, "_int_weights")
    w = _weights(A)
    assert _weights(regular_bimodule(A)) == (w, w)
    assert _weights(regular_bimodule(A))[1] is w
    # the zero algebra: no equation, every basis vector its own weight
    Z = zero_algebra(3)
    assert _weights(Z) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_next_order_matches_the_whole_matrix_step_on_every_class_representative():
    solved = obstructed = 0
    for s in range(1, 61):
        A = random_kv(s, n_max=5)
        for rep in rigidity_report(A).class_representatives:
            jet = MultiplicationJet(A, (rep,))
            sol = solve_next_order(jet)
            assert _fields(sol) == reference_next_order(jet)
            solved += sol.solved
            obstructed += not sol.solved
    assert solved > 100 and obstructed > 20


def test_next_order_matches_the_whole_matrix_step_when_the_target_spans_classes():
    spanning = 0
    for s in range(1, 41):
        A = random_kv(s, n_max=5)
        reps = rigidity_report(A).class_representatives
        for r1, r2 in itertools.combinations(range(min(4, len(reps))), 2):
            jet = MultiplicationJet(A, (_sum_tensor(reps[r1], reps[r2]),))
            sol = solve_next_order(jet)
            assert _fields(sol) == reference_next_order(jet)
            spanning += len(_classes(A, sol.target)) > 1
    assert spanning > 5


def test_next_order_on_one_class_every_coordinate_free_and_small_dimensions():
    rng = random.Random("weight-classes")
    # a generic basis change leaves one class, which keeps every row
    B = random_kv(13, n_max=4)
    assert len(set(_weights(B))) > 1
    phi = None
    while phi is None or inverse(phi) is None:
        phi = Mat.from_rows([[rng.randint(-1, 1) for _ in range(B.dim)] for _ in range(B.dim)])
    A = conjugate_algebra(B, phi)
    assert len(set(_weights(A))) == 1
    jets = [MultiplicationJet(A, (rep,)) for rep in rigidity_report(A).class_representatives[::3]]
    # the zero algebra: delta is 0 and every target that is not 0 is obstructed
    Z = zero_algebra(3)
    jets += [MultiplicationJet(Z, (_random_bilinear(rng, 3),)) for _ in range(3)]
    # n = 1 and n = 2
    for C in (assoc1(), aff(), zero_algebra(1), zero_algebra(2)):
        jets += [MultiplicationJet(C, (rep,)) for rep in rigidity_report(C).class_representatives]
        jets.append(MultiplicationJet(C, (_random_bilinear(rng, C.dim),)))
    outcomes = set()
    for jet in jets:
        try:
            sol = solve_next_order(jet)
        except PreconditionError:  # a random jet need not be KV through order 1
            continue
        assert _fields(sol) == reference_next_order(jet)
        outcomes.add((jet.dim, sol.solved))
    assert {(4, True), (4, False), (3, False), (2, True), (1, True)} <= outcomes


def _random_bilinear(rng, n):
    return tensor3([[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for _ in range(n)])


def test_chains_of_four_orders_match_the_whole_matrix_step():
    chains = 0
    for s in (2, 9, 10, 13, 17, 26, 33):
        A = random_kv(s, n_max=5)
        reps = rigidity_report(A).class_representatives
        jets = [MultiplicationJet(A, (rep,)) for rep in reps[:3]]
        jets += [MultiplicationJet(A, (_sum_tensor(x, y),)) for x, y in itertools.combinations(reps[:4], 2)]
        for jet in jets:
            for sol in itertools.islice(df._solve_orders(jet), 4):
                assert _fields(sol) == reference_next_order(jet)
                jet = sol.extended
            chains += sol.solved
    assert chains > 10


def test_a_chain_assembles_each_row_once_and_only_where_its_targets_reach(monkeypatch):
    A = random_kv(13, n_max=5)
    n = A.dim
    reps = rigidity_report(A).class_representatives
    jet = MultiplicationJet(A, (_sum_tensor(reps[1], reps[3]),))
    built = []
    real = cx._coboundary_rows

    def counted(A, W, q, outputs=None):
        outputs = list(outputs)
        built.append([(q, args) for args in outputs])
        return real(A, W, q, outputs)

    monkeypatch.setattr(cx, "_coboundary_rows", counted)
    sols = list(itertools.islice(df._solve_orders(jet), 4))
    assert [sol.solved for sol in sols] == [True] * 4
    # order 3 reaches a class order 2 did not; orders 4 and 5 reuse both
    assert len(built) == 2
    flat = [x for call in built for x in call]
    assert len(set(flat)) == len(flat) and {q for q, _ in flat} == {2}
    assert len(flat) < n * (n - 1) // 2 * n


def test_a_graded_jet_assembles_and_eliminates_fewer_rows_than_half_of_delta2(monkeypatch):
    A = random_kv(2, n_max=5)
    n = A.dim
    rep = rigidity_report(A).class_representatives[1]
    jet = MultiplicationJet(A, (rep,))
    expected = reference_next_order(jet)
    assembled, eliminated = [], []
    rows_of, solve_of = cx._coboundary_rows, cx._solve

    def counted_rows(A, W, q, outputs=None):
        D, rows = rows_of(A, W, q, outputs)
        assembled.append(len(rows))
        return D, rows

    def counted_solve(rows, cols, rhs):
        eliminated.append(len(rows))
        return solve_of(rows, cols, rhs)

    monkeypatch.setattr(cx, "_coboundary_rows", counted_rows)
    monkeypatch.setattr(cx, "_solve", counted_solve)
    sol = solve_next_order(jet)
    assert _fields(sol) == expected and sol.solved
    half = n * (n - 1) // 2 * n * n
    assert 0 < sum(assembled) < half and 0 < sum(eliminated) < half


def test_is_coboundary_matches_the_public_matrix_at_degrees_two_and_three():
    rng = random.Random("is-coboundary-classes")
    found = missed = 0
    for s in range(1, 41):
        A = random_kv(s, n_max=4)
        W = random_module(A, s, m_max=3)
        n, m = A.dim, W.dim
        for q in (2, 3):
            if n**q * m > 300:
                continue
            size = n**q * m
            f = Cochain(A, W, q, tuple(Fraction(rng.choice([0, 0, 0, 1, -2])) for _ in range(size)))
            g = Cochain(A, W, q - 1, tuple(Fraction(rng.choice([0, 1, -1])) for _ in range(size // n)))
            M = coboundary_matrix(A, W, q - 1)
            for h in (f, coboundary(g), f + coboundary(g)):
                x = is_coboundary(h)
                expected = solve(M, h.values)
                assert (None if x is None else x.values) == expected
                found += x is not None
                missed += x is None
    assert found > 40 and missed > 20


def test_the_view_and_the_weights_stay_outside_the_fields():
    A = random_kv(9, n_max=5)
    B = KVAlgebra(A.dim, A.product)
    _view(A)
    _weights(A)
    assert A == B and hash(A) == hash(B) and repr(A) == repr(B)
