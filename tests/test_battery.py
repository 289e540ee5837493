"""The invariant battery: clean passes, determinism, and mutant detection."""

from fractions import Fraction

from kvcohom.battery import INVARIANTS, run_battery
from kvcohom.complexes import Cochain, coboundary


def test_battery_passes_on_seeded_instances():
    report = run_battery(seed=0, count=10)
    assert report.passed
    assert report.failures == ()
    assert report.invariants == INVARIANTS


def test_battery_single_instance():
    assert run_battery(seed=0, count=1).passed


def test_battery_is_deterministic():
    one = run_battery(seed=3, count=4).to_obj()
    two = run_battery(seed=3, count=4).to_obj()
    assert one == two


def test_different_seeds_draw_different_instances():
    # not a mathematical requirement, just a guard that the seed is wired in
    import json

    a = json.dumps(run_battery(seed=0, count=2).to_obj())
    b = json.dumps(run_battery(seed=1, count=2).to_obj())
    assert json.loads(a)["seed"] != json.loads(b)["seed"]


def leading_term_flipped(f: Cochain) -> Cochain:
    """The coboundary with the sign of the leading action term flipped.

    delta'f = delta f + 2 * [a_1 . f(a_2..a_{q+1})]; adding twice the term
    turns its minus into a plus, mimicking a one-sign transcription error
    in the operator.
    """
    import itertools

    good = coboundary(f)
    w = f.module
    out = list(good.values)
    for args in itertools.product(range(f.n), repeat=good.degree):
        val = w.left_act(f.algebra.basis_element(args[0]), f.value_element(args[1:]))
        off = good.offset(args)
        for be in range(w.dim):
            out[off + be] += 2 * val.coords[be]
    return Cochain(f.algebra, f.module, good.degree, tuple(out))


def test_sign_flip_mutant_is_caught_with_witness():
    report = run_battery(seed=0, count=8, coboundary_fn=leading_term_flipped)
    assert not report.passed
    names = {f.invariant for f in report.failures}
    assert "delta-squared" in names
    for failure in report.failures:
        assert failure.witness  # every failure carries a concrete witness
        assert 0 <= failure.instance < 8
    first = min(
        (f for f in report.failures if f.invariant == "delta-squared"),
        key=lambda f: f.instance,
    )
    # the witness pinpoints a basis cell, not just "failed"
    assert "coordinate" in first.witness


def test_mutant_failures_are_listed_per_instance():
    report = run_battery(seed=0, count=5, coboundary_fn=leading_term_flipped)
    delta_failures = [f for f in report.failures if f.invariant == "delta-squared"]
    # the flipped operator breaks most instances, and each is reported
    assert len(delta_failures) >= 2
    assert len({f.instance for f in delta_failures}) == len(delta_failures)


def test_report_to_obj_shape():
    obj = run_battery(seed=2, count=1).to_obj()
    assert set(obj) == {"seed", "count", "invariants", "passed", "failures"}
    assert obj["seed"] == 2
    assert obj["count"] == 1
    assert obj["passed"] is True
    assert obj["invariants"] == list(INVARIANTS)


def test_hundred_instances_pass():
    assert run_battery(seed=0, count=100).passed


def test_degree_zero_draws_compute_the_jacobi_module_once(monkeypatch):
    import kvcohom.battery as bt
    import kvcohom.complexes as cx
    from kvcohom.core import jacobi_module

    battery_dims, library_calls = [], []

    def in_battery(A, W):
        J = jacobi_module(A, W)
        battery_dims.append(J.dim)
        return J

    def in_library(A, W):
        library_calls.append(1)
        return jacobi_module(A, W)

    monkeypatch.setattr(bt, "jacobi_module", in_battery)
    monkeypatch.setattr(cx, "jacobi_module", in_library)
    for seed in range(1, 11):
        assert run_battery(seed, 1).passed
    # degree-0 draws with a nonzero J(W) happened, and the coboundary of
    # each drawn element did not compute J(W) a second time
    assert any(battery_dims)
    assert library_calls == []


def test_pair_bracket_failure_names_the_corrupted_cell(monkeypatch):
    import kvcohom.battery as bt
    from kvcohom.deform import kv_bracket

    dims = []

    def off_by_one(mu, nu):
        # d_μμ with its (e_n, e_1, e_n) coordinate n raised by 1
        n = len(mu)
        dims.append(n)
        br = [[[list(r) for r in p] for p in q] for q in kv_bracket(mu, nu)]
        br[n - 1][0][n - 1][n - 1] += 1
        return br

    monkeypatch.setattr(bt, "kv_bracket", off_by_one)
    report = run_battery(seed=4, count=6)
    failures = [f for f in report.failures if f.invariant == "pair-bracket"]
    assert [f.instance for f in failures] == list(range(6))
    assert {f.invariant for f in report.failures} == {"pair-bracket"}
    assert len(set(dims)) > 1
    for f, n in zip(failures, dims):
        assert f.witness.startswith(f"d_μμ(e_{n},e_1,e_{n}) coordinate {n}: ")


def test_mutant_witness_texts_are_pinned(monkeypatch):
    """The second routes sum integer structure constants over a common
    denominator d and print a value as Fraction(x, d * d); these texts were
    captured from the Fraction routes they replaced, on instances whose
    algebras have denominators 1, 2, 4 and 16."""
    import kvcohom.battery as bt
    from kvcohom.deform import kv_bracket

    curvature = {
        13: "curvature defect at (e_2,e_1,e_1) coordinate 1: -7/2 != -25/2",
        21: "curvature defect at (e_1,e_1,e_1) coordinate 1: 0 != -4",
        24: "curvature defect at (e_2,e_1,e_1) coordinate 1: -1 != 1",
        28: "curvature defect at (e_2,e_1,e_1) coordinate 1: 12 != 4",
    }
    for seed, text in curvature.items():
        report = run_battery(seed, 1, coboundary_fn=leading_term_flipped)
        assert [f.witness for f in report.failures if f.invariant == "curvature"] == [text]

    def off_by_a_third(mu, nu):
        n = len(mu)
        br = [[[list(r) for r in p] for p in q] for q in kv_bracket(mu, nu)]
        br[n - 1][0][n - 1][n - 1] += Fraction(1, 3)
        return br

    monkeypatch.setattr(bt, "kv_bracket", off_by_a_third)
    pair = {
        2: "d_μμ(e_2,e_1,e_2) coordinate 2: -11/3 != -4",
        3: "d_μμ(e_1,e_1,e_1) coordinate 1: 1/3 != 0",
        4: "d_μμ(e_3,e_1,e_3) coordinate 3: -59/3 != -20",
    }
    for seed, text in pair.items():
        assert [f.witness for f in run_battery(seed, 1).failures] == [text]
