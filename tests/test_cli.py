"""End-to-end checks of the command line: verbs, reports, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcohom import cli
from kvcohom import serialize as sz
from kvcohom.cli import JobSpec, fixture_names, main, run
from kvcohom.complexes import Cochain, coboundary, is_cocycle
from kvcohom.core import KVAlgebra, KVModule, is_kv, is_module, regular_bimodule, tensor3, zero3, zero_module
from kvcohom.deform import bilinear_cochain
from kvcohom.fixtures import flat_psi, flat_theta, graded_flat, rad2
from kvcohom.geom import aff_algebra, s_alpha_beta

F = Fraction


def _write(tmp_path: Path, name: str, obj) -> str:
    p = tmp_path / name
    p.write_text(obj if isinstance(obj, str) else sz.canonical_json(obj))
    return str(p)


def _aff_path(tmp_path: Path) -> str:
    return _write(tmp_path, "aff.json", sz.algebra_to_obj(aff_algebra()))


def _body(report) -> dict:
    return json.loads(report.text)


def _tensor_file(tmp_path: Path, name: str, t) -> str:
    return _write(tmp_path, name, {"tensor": sz.tensor3_to_obj(t)})


_S10_VALUES = ["1", "0", "0", "1", "0", "1", "0", "0"]


# ---------------------------------------------------------------------------
# fixtures verb


def test_every_fixture_emits_valid_json(tmp_path):
    for name in fixture_names():
        report = run(JobSpec("fixtures", {"name": name}))
        assert report.exit_code == 0, name
        json.loads(report.text)  # must parse


def test_fixture_aff_round_trips():
    report = run(JobSpec("fixtures", {"name": "aff"}))
    assert sz.algebra_from_obj(json.loads(report.text)) == aff_algebra()


def test_unknown_fixture_is_input_error():
    report = run(JobSpec("fixtures", {"name": "no-such-fixture"}))
    assert report.exit_code == 2
    assert _body(report)["error"]["kind"] == "input"


# ---------------------------------------------------------------------------
# verify / jacobi


def test_verify_aff(tmp_path):
    path = _aff_path(tmp_path)
    report = run(JobSpec("verify", {"algebra": path}))
    assert report.exit_code == 0
    body = _body(report)
    assert body["format_version"] == 1
    assert body["verdict"] is True
    assert body["results"]["is_kv"]["ok"] is True
    # the report pins down exactly which bytes were judged
    digest = body["inputs"]["algebra"]["sha256"]
    import hashlib

    assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_verify_rejects_non_kv_with_witness(tmp_path):
    z = F(0)
    product = (
        ((z, F(1)), (z, z)),
        ((z, z), (F(1), z)),
    )
    bad = KVAlgebra(dim=2, product=product)
    assert not is_kv(bad)  # guard: the sample really is non-KV
    path = _write(tmp_path, "bad.json", sz.algebra_to_obj(bad))
    report = run(JobSpec("verify", {"algebra": path}))
    assert report.exit_code == 1
    body = _body(report)
    assert body["verdict"] is False
    assert body["witness"]


def test_verify_with_module(tmp_path):
    a = aff_algebra()
    path = _aff_path(tmp_path)
    mpath = _write(tmp_path, "reg.json", sz.module_to_obj(regular_bimodule(a)))
    report = run(JobSpec("verify", {"algebra": path, "module": mpath}))
    assert report.exit_code == 0
    assert _body(report)["results"]["is_module"]["ok"] is True


def test_paths_with_a_nul_byte_are_input_errors(tmp_path):
    a = aff_algebra()
    path = _aff_path(tmp_path)
    module = dict(sz.module_to_obj(regular_bimodule(a)), algebra="aff\x00.json")
    mpath = _write(tmp_path, "nul.json", module)
    cpath = _write(tmp_path, "s10.json", sz.cochain_to_obj(s_alpha_beta(1, 0)))
    reg = _write(tmp_path, "reg.json", sz.module_to_obj(regular_bimodule(a)))
    for verb, options in (
        ("verify", {"algebra": path, "module": mpath}),  # a path inside a file
        ("verify", {"algebra": path + "\x00"}),
        ("extend-algebra", {"algebra": path, "module": reg, "cochain": cpath, "emit": "x\x00"}),
    ):
        report = run(JobSpec(verb, options))
        assert report.exit_code == 2
        assert _body(report)["error"]["kind"] == "input"


def test_jacobi_is_a_query(tmp_path):
    report = run(JobSpec("jacobi", {"algebra": _aff_path(tmp_path)}))
    assert report.exit_code == 0
    body = _body(report)
    assert "verdict" in body and body["verdict"] is None
    assert body["results"]["algebra_jacobi"] == {"dim": 1, "basis": [["1", "0"]]}


# ---------------------------------------------------------------------------
# cohomology / nijenhuis / budgets


def test_cohomology_defaults_to_regular_coefficients(tmp_path):
    report = run(JobSpec("cohomology", {"algebra": _aff_path(tmp_path)}))
    assert report.exit_code == 0
    body = _body(report)
    assert body["parameters"]["module"] == "regular"
    by_degree = {d["degree"]: d for d in body["results"]["degrees"]}
    assert by_degree[0]["dim_H"] == 0
    assert by_degree[0]["dim_H"] == by_degree[0]["dim_Z"] - by_degree[0]["dim_B"]


def test_cohomology_budget_flag(tmp_path):
    report = run(JobSpec("cohomology", {"algebra": _aff_path(tmp_path), "budget": 1}))
    assert report.exit_code == 3
    assert _body(report)["error"]["kind"] == "budget"


def test_cohomology_budget_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("KVCOHOM_ENTRY_BUDGET", "1")
    report = run(JobSpec("cohomology", {"algebra": _aff_path(tmp_path)}))
    assert report.exit_code == 3


@pytest.mark.parametrize("budget", [0, -5])
def test_cohomology_nonpositive_budget_is_input_error(tmp_path, budget):
    report = run(JobSpec("cohomology", {"algebra": _aff_path(tmp_path), "budget": budget}))
    assert report.exit_code == 2
    assert _body(report)["error"]["kind"] == "input"


def test_cohomology_zero_budget_env_var_is_input_error(tmp_path, monkeypatch):
    monkeypatch.setenv("KVCOHOM_ENTRY_BUDGET", "0")
    report = run(JobSpec("cohomology", {"algebra": _aff_path(tmp_path)}))
    assert report.exit_code == 2
    assert _body(report)["error"]["kind"] == "input"


def test_nijenhuis_starts_at_degree_one(tmp_path):
    report = run(JobSpec("nijenhuis", {"algebra": _aff_path(tmp_path)}))
    assert report.exit_code == 0
    body = _body(report)
    assert body["verdict"] is True
    assert body["results"]["rank_nullity_consistent"] is True
    assert [d["degree"] for d in body["results"]["degrees"]] == [1, 2]


# ---------------------------------------------------------------------------
# extensions


def test_extend_algebra_with_cocycle(tmp_path):
    path = _aff_path(tmp_path)
    mpath = _write(
        tmp_path, "reg.json", sz.module_to_obj(regular_bimodule(aff_algebra()))
    )
    cpath = _write(tmp_path, "s10.json", {"degree": 2, "values": _S10_VALUES})
    emitted = tmp_path / "ext.json"
    report = run(
        JobSpec(
            "extend-algebra",
            {"algebra": path, "module": mpath, "cochain": cpath, "emit": str(emitted)},
        )
    )
    assert report.exit_code == 0
    body = _body(report)
    assert body["results"]["section_cocycle_matches"] is True
    # the emitted file is a loadable, internally consistent extension
    ext_obj = json.loads(emitted.read_text())
    assert ext_obj["kind"] == "algebra"
    sz.extension_from_obj(ext_obj)


def test_extend_algebra_rejects_non_cocycle(tmp_path):
    a = aff_algebra()
    reg = regular_bimodule(a)
    values = tuple(F(1) if i == 6 else F(0) for i in range(8))  # S(e2,e2) = e1
    assert not is_cocycle(Cochain(a, reg, 2, values))  # guard the choice
    path = _aff_path(tmp_path)
    mpath = _write(tmp_path, "reg.json", sz.module_to_obj(reg))
    cpath = _write(
        tmp_path, "bad.json", {"degree": 2, "values": [sz.format_rat(v) for v in values]}
    )
    report = run(
        JobSpec("extend-algebra", {"algebra": path, "module": mpath, "cochain": cpath})
    )
    assert report.exit_code == 1
    body = _body(report)
    assert "not a cocycle" in body["witness"]
    assert body["results"]["total_is_kv"]["ok"] is False


def test_extend_module_with_zero_cochain(tmp_path):
    a = aff_algebra()
    path = _aff_path(tmp_path)
    kpath = _write(tmp_path, "ker.json", sz.module_to_obj(zero_module(a, 1)))
    qpath = _write(tmp_path, "quo.json", sz.module_to_obj(zero_module(a, 1)))
    cpath = _write(tmp_path, "zero.json", {"degree": 2, "values": ["0"] * 9})
    emitted = tmp_path / "mext.json"
    report = run(
        JobSpec(
            "extend-module",
            {
                "algebra": path,
                "kernel": kpath,
                "quotient": qpath,
                "cochain": cpath,
                "emit": str(emitted),
            },
        )
    )
    assert report.exit_code == 0
    assert _body(report)["results"]["section_cocycle_matches"] is True
    assert json.loads(emitted.read_text())["kind"] == "module"


def test_extend_module_rejects_non_homogeneous_cochain(tmp_path):
    a = aff_algebra()
    path = _aff_path(tmp_path)
    kpath = _write(tmp_path, "ker.json", sz.module_to_obj(zero_module(a, 1)))
    qpath = _write(tmp_path, "quo.json", sz.module_to_obj(zero_module(a, 1)))
    values = ["0"] * 9
    values[0] = "1"  # lands in the algebra-algebra block: wrong bidegree
    cpath = _write(tmp_path, "nh.json", {"degree": 2, "values": values})
    report = run(
        JobSpec(
            "extend-module",
            {"algebra": path, "kernel": kpath, "quotient": qpath, "cochain": cpath},
        )
    )
    _input_error(report, "cochain is not homogeneous of bidegree (1,1): nonzero at (0, 0)")


def _emit_extension(tmp_path, name, cochain):
    path = _aff_path(tmp_path)
    mpath = _write(
        tmp_path, "reg.json", sz.module_to_obj(regular_bimodule(aff_algebra()))
    )
    cpath = _write(tmp_path, f"{name}-c.json", sz.cochain_to_obj(cochain))
    emitted = tmp_path / f"{name}.json"
    report = run(
        JobSpec(
            "extend-algebra",
            {"algebra": path, "module": mpath, "cochain": cpath, "emit": str(emitted)},
        )
    )
    assert report.exit_code == 0
    return str(emitted)


def test_classify_ext_separates_classes(tmp_path):
    a = aff_algebra()
    reg = regular_bimodule(a)
    s10 = s_alpha_beta(1, 0)
    zero = Cochain(a, reg, 2, tuple(F(0) for _ in range(8)))
    e1 = _emit_extension(tmp_path, "e1", s10)
    e2 = _emit_extension(tmp_path, "e2", zero)
    report = run(JobSpec("classify-ext", {"ext1": e1, "ext2": e2}))
    assert report.exit_code == 0  # a query: the answer "no" is still success
    assert _body(report)["results"]["equivalent"] is False


def test_classify_ext_same_cocycle(tmp_path):
    e1 = _emit_extension(tmp_path, "e1", s_alpha_beta(1, 0))
    e2 = _emit_extension(tmp_path, "e2", s_alpha_beta(1, 0))
    body = _body(run(JobSpec("classify-ext", {"ext1": e1, "ext2": e2})))
    assert body["results"]["equivalent"] is True
    assert body["results"]["shear"] is not None


def test_classify_ext_cohomologous_cocycles(tmp_path):
    a = aff_algebra()
    reg = regular_bimodule(a)
    phi = Cochain(a, reg, 1, (F(1), F(-2), F(0), F(3)))
    s10 = s_alpha_beta(1, 0)
    e1 = _emit_extension(tmp_path, "e1", s10)
    e2 = _emit_extension(tmp_path, "e2", s10 + coboundary(phi))
    body = _body(run(JobSpec("classify-ext", {"ext1": e1, "ext2": e2})))
    assert body["results"]["equivalent"] is True


# ---------------------------------------------------------------------------
# deformations


def _s10_jet_path(tmp_path):
    a = aff_algebra()
    s10 = s_alpha_beta(1, 0)
    n = a.dim
    data = [
        [[s10.value_element((i, j)).coords[k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    obj = {
        "base": sz.algebra_to_obj(a),
        "coefficients": [sz.tensor3_to_obj(tensor3(data))],
    }
    return _write(tmp_path, "jet.json", obj)


def test_deform_check_accepts_first_order_cocycle(tmp_path):
    report = run(JobSpec("deform-check", {"jet": _s10_jet_path(tmp_path)}))
    assert report.exit_code == 0
    body = _body(report)
    assert body["verdict"] is True
    assert body["results"]["order"] == 1


def test_deform_check_rejects_non_cocycle_jet(tmp_path):
    a = aff_algebra()
    bad = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    bad[1][1][0] = F(1)  # S(e2,e2) = e1
    assert not is_cocycle(bilinear_cochain(a, tensor3(bad)))  # guard
    obj = {
        "base": sz.algebra_to_obj(a),
        "coefficients": [sz.tensor3_to_obj(tensor3(bad))],
    }
    path = _write(tmp_path, "badjet.json", obj)
    report = run(JobSpec("deform-check", {"jet": path}))
    assert report.exit_code == 1
    assert _body(report)["verdict"] is False


def test_deform_solve_extends_the_pencil_jet(tmp_path):
    emitted = tmp_path / "extended.json"
    report = run(
        JobSpec(
            "deform-solve",
            {"jet": _s10_jet_path(tmp_path), "orders": 2, "emit": str(emitted)},
        )
    )
    assert report.exit_code == 0
    body = _body(report)
    assert body["verdict"] is True
    assert [s["solved"] for s in body["results"]["steps"]] == [True, True]
    # the emitted jet is checkable in its own right
    follow_up = run(JobSpec("deform-check", {"jet": str(emitted)}))
    assert follow_up.exit_code == 0


def test_deform_solve_reports_obstruction(tmp_path):
    jet_path = tmp_path / "obstructed.json"
    jet_path.write_text(run(JobSpec("fixtures", {"name": "jet-obstructed"})).text)
    report = run(JobSpec("deform-solve", {"jet": str(jet_path), "orders": 3}))
    assert report.exit_code == 1
    body = _body(report)
    assert "order 2 is obstructed" in body["witness"]
    steps = body["results"]["steps"]
    assert len(steps) == 1  # the loop stops at the first obstruction
    assert steps[0]["solved"] is False
    assert steps[0]["certificate"]


def test_deform_solve_sets_up_the_chain_once_and_checks_each_order_once(tmp_path, monkeypatch):
    import kvcohom.complexes as cx
    import kvcohom.deform as df

    built, checked = [], []
    real_rows, real_residuals = cx._coboundary_rows, df._residuals

    def counted_rows(A, W, q, outputs=None):
        outputs = list(outputs)
        built.extend((q, args) for args in outputs)
        return real_rows(A, W, q, outputs)

    def counted_residuals(jet, L, orders):
        checked.extend(orders)
        return real_residuals(jet, L, orders)

    monkeypatch.setattr(cx, "_coboundary_rows", counted_rows)
    monkeypatch.setattr(df, "_residuals", counted_residuals)
    report = run(JobSpec("deform-solve", {"jet": _s10_jet_path(tmp_path), "orders": 4}))
    assert report.exit_code == 0
    assert [s["order"] for s in _body(report)["results"]["steps"]] == [2, 3, 4, 5]
    # every assembly is of delta_2, and each output tuple (all its rows
    # (output, ga) at once) is assembled at most once in the chain
    assert all(q == 2 for q, _ in built)
    assert len(set(built)) == len(built)
    # orders 0 and 1 of the input jet on entry, then each solved order
    assert checked == [0, 1, 2, 3, 4, 5]


def _module_extension_path(tmp_path):
    # the zero (1,1) cocycle with regular kernel and quotient over aff:
    # cochains on G = semidirect(aff, W), dim 4, valued in a 2-dim module
    reg = _write(tmp_path, "reg.json", sz.module_to_obj(regular_bimodule(aff_algebra())))
    cpath = _write(tmp_path, "zero32.json", {"degree": 2, "values": ["0"] * 32})
    emitted = tmp_path / "mext-reg.json"
    options = {"algebra": _aff_path(tmp_path), "kernel": reg, "quotient": reg, "cochain": cpath}
    assert run(JobSpec("extend-module", dict(options, emit=str(emitted)))).exit_code == 0
    return str(emitted)


@pytest.mark.parametrize(
    "verb, largest", [("deform-solve", 32), ("rigidity", 16), ("classify-ext", 32)]
)
def test_deform_verbs_respect_the_cell_budget(tmp_path, monkeypatch, verb, largest):
    # over the 2-dimensional base the degree-q table has 2^q * 2 cells;
    # deform-solve builds degrees 2 to 4 and rigidity degrees 1 to 3.
    # classify-ext of module extensions builds degrees up to 2 over the
    # 4-dimensional G with 2-dimensional values: 4^2 * 2 cells
    if verb == "deform-solve":
        options = {"jet": _s10_jet_path(tmp_path)}
    elif verb == "classify-ext":
        ext = _module_extension_path(tmp_path)
        options = {"ext1": ext, "ext2": ext}
    else:
        options = {"algebra": _aff_path(tmp_path)}
    monkeypatch.setenv("KVCOHOM_ENTRY_BUDGET", "10")
    report = run(JobSpec(verb, options))
    assert report.exit_code == 3
    assert _body(report)["error"]["kind"] == "budget"
    monkeypatch.setenv("KVCOHOM_ENTRY_BUDGET", str(largest - 1))
    assert run(JobSpec(verb, options)).exit_code == 3
    monkeypatch.setenv("KVCOHOM_ENTRY_BUDGET", str(largest))
    assert run(JobSpec(verb, options)).exit_code == 0


def test_classify_ext_of_algebra_extensions_respects_the_cell_budget(tmp_path, monkeypatch):
    # cochains of degree up to 2 on aff valued in the regular kernel:
    # the largest table has 2^2 * 2 cells
    e1 = _emit_extension(tmp_path, "e1", s_alpha_beta(1, 0))
    e2 = _emit_extension(tmp_path, "e2", s_alpha_beta(2, 3))
    options = {"ext1": e1, "ext2": e2}
    monkeypatch.setenv("KVCOHOM_ENTRY_BUDGET", "7")
    report = run(JobSpec("classify-ext", options))
    assert report.exit_code == 3
    assert "degree 2 needs 8 entries" in _body(report)["error"]["message"]
    monkeypatch.setenv("KVCOHOM_ENTRY_BUDGET", "8")
    assert run(JobSpec("classify-ext", options)).exit_code == 0


def test_nijenhuis_respects_the_cell_budget(tmp_path, monkeypatch):
    # over the 2-dimensional base with regular coefficients the table
    # Lambda^p (x) L(A, A) has C(2, p) * 4 cells: 4, 8 and 4 for p = 0..2
    options = {"algebra": _aff_path(tmp_path)}
    monkeypatch.setenv("KVCOHOM_ENTRY_BUDGET", "7")
    report = run(JobSpec("nijenhuis", options))
    assert report.exit_code == 3
    error = _body(report)["error"]
    assert error["kind"] == "budget"
    assert "degree 2 needs 8 entries" in error["message"]
    monkeypatch.setenv("KVCOHOM_ENTRY_BUDGET", "8")
    assert run(JobSpec("nijenhuis", options)).exit_code == 0


def test_rigidity_of_the_affine_line(tmp_path):
    report = run(JobSpec("rigidity", {"algebra": _aff_path(tmp_path)}))
    assert report.exit_code == 0
    results = _body(report)["results"]
    assert (results["dim_C2"], results["dim_Z2"], results["dim_B2"]) == (8, 5, 3)
    assert results["dim_H2"] == 2
    assert results["rigid"] is False
    assert len(results["class_representatives"]) == 2


def test_curvature_check_on_pencil_member(tmp_path):
    a = aff_algebra()
    s23 = s_alpha_beta(2, 3)
    n = a.dim
    data = [
        [[s23.value_element((i, j)).coords[k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    tpath = _tensor_file(tmp_path, "s23.json", tensor3(data))
    report = run(
        JobSpec("curvature-check", {"algebra": _aff_path(tmp_path), "tensor": tpath})
    )
    assert report.exit_code == 0
    results = _body(report)["results"]
    assert results["residual_zero"] is True
    assert results["s_is_cocycle"] is True
    assert results["flat_iff_cocycle"] is True


def test_curvature_check_rejects_asymmetric_tensor(tmp_path):
    data = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    data[0][1][0] = F(1)  # S(e1,e2) != S(e2,e1)
    tpath = _tensor_file(tmp_path, "asym.json", tensor3(data))
    report = run(
        JobSpec("curvature-check", {"algebra": _aff_path(tmp_path), "tensor": tpath})
    )
    assert report.exit_code == 2


# ---------------------------------------------------------------------------
# graded verbs


def _graded_path(tmp_path):
    return _write(tmp_path, "graded.json", sz.graded_to_obj(graded_flat()))


def test_graded_check(tmp_path):
    report = run(JobSpec("graded-check", {"graded": _graded_path(tmp_path)}))
    assert report.exit_code == 0
    results = _body(report)["results"]
    assert (results["even_dim"], results["odd_dim"]) == (2, 3)


def test_graded_check_rejects_nonzero_right_action(tmp_path):
    obj = sz.graded_to_obj(graded_flat())
    obj = json.loads(json.dumps(obj))
    obj["odd"]["right"][0][0] = ["1", "0", "0"]
    report = run(
        JobSpec("graded-check", {"graded": _write(tmp_path, "bad.json", obj)})
    )
    assert report.exit_code == 2


def test_graded_check_flags_non_kv_even_part(tmp_path):
    obj = json.loads(json.dumps(sz.graded_to_obj(graded_flat())))
    # break the even product consistently in both copies of the algebra
    for product in (obj["even"]["product"], obj["odd"]["algebra"]["product"]):
        product[0][0] = ["0", "1"]
        product[1][1] = ["1", "0"]
    report = run(
        JobSpec("graded-check", {"graded": _write(tmp_path, "nonkv.json", obj)})
    )
    assert report.exit_code == 1
    assert "even part" in _body(report)["witness"]


def test_graded_deform_with_multiplicative_theta(tmp_path):
    theta_path = _tensor_file(tmp_path, "theta.json", flat_theta())
    emitted = tmp_path / "deformed.json"
    report = run(
        JobSpec(
            "graded-deform",
            {
                "graded": _graded_path(tmp_path),
                "theta": theta_path,
                "emit": str(emitted),
            },
        )
    )
    assert report.exit_code == 0
    body = _body(report)
    assert body["results"]["theta_is_cocycle"]["ok"] is True
    assert body["results"]["theta_is_chain"]["ok"] is True
    # the emitted total algebra passes verification on its own
    follow_up = run(JobSpec("verify", {"algebra": str(emitted)}))
    assert follow_up.exit_code == 0
    assert json.loads(emitted.read_text())["dim"] == 5


def test_graded_deform_rejects_cocycle_that_is_not_a_chain(tmp_path):
    m = graded_flat().m
    data = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    data[1][0][1] = F(-1)
    data[2][0][2] = F(-1)
    theta_path = _tensor_file(tmp_path, "theta.json", tensor3(data))
    report = run(
        JobSpec(
            "graded-deform",
            {"graded": _graded_path(tmp_path), "theta": theta_path},
        )
    )
    assert report.exit_code == 1
    body = _body(report)
    assert body["results"]["theta_is_cocycle"]["ok"] is True
    assert body["results"]["theta_is_chain"]["ok"] is False


def test_connectionlike_flat_pair(tmp_path):
    report = run(
        JobSpec(
            "connectionlike",
            {
                "graded": _graded_path(tmp_path),
                "theta": _tensor_file(tmp_path, "theta.json", flat_theta()),
                "psi": _tensor_file(tmp_path, "psi.json", flat_psi()),
            },
        )
    )
    assert report.exit_code == 0
    body = _body(report)
    assert body["verdict"] is True
    assert body["results"]["degenerate"] is False


def test_connectionlike_broken_pairing(tmp_path):
    psi_obj = json.loads(json.dumps(sz.tensor3_to_obj(flat_psi())))
    psi_obj[0][0][0] = "5"
    psi_path = _write(tmp_path, "badpsi.json", {"tensor": psi_obj})
    report = run(
        JobSpec(
            "connectionlike",
            {
                "graded": _graded_path(tmp_path),
                "theta": _tensor_file(tmp_path, "theta.json", flat_theta()),
                "psi": psi_path,
            },
        )
    )
    assert report.exit_code == 1
    body = _body(report)
    assert body["verdict"] is False
    assert "fails" in body["witness"]


# ---------------------------------------------------------------------------
# the worked example and its geometry


def test_aff_suite_default_parameters():
    report = run(JobSpec("aff-suite", {}))
    assert report.exit_code == 0
    body = _body(report)
    assert body["verdict"] is True
    assert body["results"]["h0_regular"] == 0
    assert body["results"]["bracket_e1_e2"] == ["0", "1"]
    assert body["results"]["pencil"]["nontrivial"] is True


def test_aff_suite_degenerate_pencil_member():
    report = run(JobSpec("aff-suite", {"alpha": "0", "beta": "5"}))
    assert report.exit_code == 0
    body = _body(report)
    assert body["results"]["pencil"]["cocycle"] is True
    # exactness is only decided for alpha != 0
    assert body["results"]["pencil"]["nontrivial"] is None


@pytest.mark.parametrize(
    "name, fake, key, witness",
    [
        ("is_coboundary", lambda S: S, "nontrivial", "the pencil cochain is exact at alpha != 0"),
        ("kv_bracket", lambda mu, nu: ((((F(1),),),),), "square_zero", "the pencil self-bracket is nonzero"),
    ],
    ids=["exact", "square-nonzero"],
)
def test_aff_suite_reports_a_false_pencil_verdict(monkeypatch, name, fake, key, witness):
    # pencil_suite returns a false verdict instead of raising, and the verb
    # turns it into exit 1 with a witness
    import kvcohom.geom as geom

    monkeypatch.setattr(geom, name, fake)
    report = run(JobSpec("aff-suite", {}))
    assert report.exit_code == 1
    body = _body(report)
    assert body["results"]["pencil"][key] is False
    assert body["witness"] == witness


def _geodesic_job(**overrides):
    options = {
        "alpha": "2",
        "beta": "0",
        "x0": 0.0,
        "y0": 0.0,
        "vx0": 1.0,
        "vy0": 0.0,
        "t0": 0.0,
        "t1": -2.0,
        "step": 1e-3,
    }
    options.update(overrides)
    return JobSpec("geodesic", options)


def test_geodesic_blow_up_csv(tmp_path):
    report = run(_geodesic_job())
    assert report.exit_code == 0  # locating the pole is a successful answer
    lines = report.text.splitlines()
    assert lines[0] == "# termination: blow-up"
    assert lines[1].startswith("# blowup_time: ")
    blowup = float(lines[1].split(": ")[1])
    assert abs(blowup - (-1.0)) <= 1e-6
    assert lines[2] == "# blowup_time_abs_tol: 1e-06"
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,x,y,vx,vy"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert rows[0] == "0.0,0.0,0.0,1.0,0.0"
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 5
        [float(f) for f in fields]


def test_geodesic_is_byte_deterministic():
    assert run(_geodesic_job()).text == run(_geodesic_job()).text


def test_geodesic_reaches_end_without_pole():
    report = run(_geodesic_job(t1=0.5))
    assert report.exit_code == 0
    assert report.text.splitlines()[0] == "# termination: reached-end"


def test_geodesic_step_underflow_is_a_failure():
    report = run(_geodesic_job(alpha="0", t0=1e16, t1=1.5e16, step=1e-6))
    assert report.exit_code == 1
    assert "could not advance" in _body(report)["witness"]


def test_radiant_on_aff(tmp_path):
    report = run(JobSpec("radiant", {"algebra": _aff_path(tmp_path)}))
    assert report.exit_code == 0  # nonexistence is still a determination
    results = _body(report)["results"]
    assert results["exists"] is False
    assert results["particular"] is None
    assert results["homogeneous"]["dim"] == 1


def test_radiant_on_rad2(tmp_path):
    rad2 = tmp_path / "rad2.json"
    rad2.write_text(run(JobSpec("fixtures", {"name": "rad2"})).text)
    report = run(JobSpec("radiant", {"algebra": str(rad2)}))
    results = _body(report)["results"]
    assert results["exists"] is True
    assert results["unique"] is True
    assert results["particular"] == ["1", "0"]


# ---------------------------------------------------------------------------
# proptest


def test_proptest_passes_and_is_deterministic():
    one = run(JobSpec("proptest", {"seed": 1, "count": 3}))
    two = run(JobSpec("proptest", {"seed": 1, "count": 3}))
    assert one.exit_code == 0
    assert one.text == two.text
    body = _body(one)
    assert body["verdict"] is True
    assert body["results"]["passed"] is True
    assert body["results"]["failures"] == []


def test_proptest_rejects_bad_count():
    assert run(JobSpec("proptest", {"count": 0})).exit_code == 2


# ---------------------------------------------------------------------------
# dispatcher and entry point


def test_unknown_verb_is_input_error():
    report = run(JobSpec("frobnicate", {}))
    assert report.exit_code == 2
    assert "unknown verb" in _body(report)["error"]["message"]


def test_malformed_job_spec_is_input_error():
    for options in (None, [("count", 1)], "count=1"):
        report = run(JobSpec("proptest", options))
        _input_error(report, f"the options must be a dict, got {type(options).__name__}")
        assert report.verb == "proptest"
    for verb in (["x"], None, 3):
        report = run(JobSpec(verb, {}))
        _input_error(report, f"unknown verb {verb!r}")
        assert report.verb == _body(report)["verb"] == str(verb)


def test_missing_file_is_input_error():
    report = run(JobSpec("verify", {"algebra": "/no/such/file.json"}))
    assert report.exit_code == 2


@pytest.mark.parametrize("text", ["{not json", b"\xff\xfe{\x00}\x00"], ids=["bad-json", "utf-16"])
def test_algebra_named_by_a_module_file_reads_as_a_main_file(tmp_path, text):
    """A module file's algebra path goes through the one JSON reader, so a
    malformed or missing algebra file there gets the message it gets as
    --algebra."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    module = sz.module_to_obj(regular_bimodule(aff_algebra()))
    for name in ("bad.json", "missing.json"):
        module["algebra"] = name
        report = run(JobSpec("verify", {"algebra": _aff_path(tmp_path),
                                        "module": _write(tmp_path, "mod.json", module)}))
        direct = run(JobSpec("verify", {"algebra": str(tmp_path / name)}))
        _input_error(report, _body(direct)["error"]["message"])
    assert _body(report)["error"]["message"].startswith(f"cannot read {tmp_path / 'missing.json'}: ")


@pytest.mark.parametrize("text", [
    "[" * 200000 + "]" * 200000,  # nesting past the interpreter's recursion limit
    '{"dim": 1, "product": [[[' + "1" * 5000 + "]]]}",  # past the integer digit limit
    '{"dim": 1, "product": [[["' + "1" * 5000 + '"]]]}',
], ids=["deep-nesting", "long-integer", "long-rational-string"])
def test_oversized_input_is_input_error(tmp_path, text):
    report = run(JobSpec("verify", {"algebra": _write(tmp_path, "f.json", text)}))
    assert report.exit_code == 2
    assert _body(report)["error"]["kind"] == "input"


def test_reports_are_byte_deterministic(tmp_path):
    path = _aff_path(tmp_path)
    one = run(JobSpec("verify", {"algebra": path}))
    two = run(JobSpec("verify", {"algebra": path}))
    assert one.text == two.text
    assert one.text.endswith("\n")


def test_main_writes_report_to_stdout(tmp_path, capsys):
    code = main(["verify", "--algebra", _aff_path(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["verdict"] is True


def test_main_honors_output_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["verify", "--algebra", _aff_path(tmp_path), "--output", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["verdict"] is True


def test_main_rejects_unknown_verb():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    path = _aff_path(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "kvcohom.cli", "verify", "--algebra", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True


# ---------------------------------------------------------------------------
# error paths: each exits with its documented code and a JSON body


def _not_a_module():
    """A one-dimensional left action of aff that fails (a,b,w) = (b,a,w)."""
    a = aff_algebra()
    return KVModule(a, 1, tensor3([[[1]], [[1]]]), zero3(1, 2, 1))


def _input_error(report, message):
    assert report.exit_code == 2
    assert _body(report)["error"] == {"kind": "input", "message": message}
    assert "Traceback" not in report.text


def _math_failure(report, witness):
    assert report.exit_code == 1
    body = _body(report)
    assert body["verdict"] is False and body["witness"] == witness
    assert "Traceback" not in report.text
    return body


def test_verify_rejects_a_module_over_another_algebra(tmp_path):
    mpath = _write(tmp_path, "rad2.json", sz.module_to_obj(zero_module(rad2(), 1)))
    report = run(JobSpec("verify", {"algebra": _aff_path(tmp_path), "module": mpath}))
    _input_error(report, "module file is over a different algebra")


def test_verify_reports_the_witness_of_a_failing_module(tmp_path):
    w = _not_a_module()
    mpath = _write(tmp_path, "bad.json", sz.module_to_obj(w))
    report = run(JobSpec("verify", {"algebra": _aff_path(tmp_path), "module": mpath}))
    body = _math_failure(report, is_module(w.algebra, w).detail)
    assert body["results"]["is_kv"]["ok"] is True
    assert body["results"]["is_module"]["witness"] == [0, 1, 0]


def test_extend_algebra_error_paths(tmp_path):
    aff = _aff_path(tmp_path)
    w = _not_a_module()
    bad = _write(tmp_path, "bad.json", sz.module_to_obj(w))
    zero2 = _write(tmp_path, "zero2.json", {"degree": 2, "values": ["0"] * 4})
    report = run(JobSpec("extend-algebra", {"algebra": aff, "module": bad, "cochain": zero2}))
    _math_failure(report, f"coefficients are not a module: {is_module(w.algebra, w).detail}")
    zmod = _write(tmp_path, "zmod.json", sz.module_to_obj(zero_module(aff_algebra(), 1)))
    zero1 = _write(tmp_path, "zero1.json", {"degree": 1, "values": ["0"] * 2})
    report = run(JobSpec("extend-algebra", {"algebra": aff, "module": zmod, "cochain": zero1}))
    _input_error(report, "algebra extensions need a degree-2 cochain")


def test_extend_module_error_paths(tmp_path):
    a = aff_algebra()
    w = _not_a_module()
    zmod = _write(tmp_path, "zmod.json", sz.module_to_obj(zero_module(a, 1)))
    options = {"algebra": _aff_path(tmp_path), "kernel": zmod, "quotient": zmod}

    def extend(cochain=None, **files):
        if cochain is None:
            cochain = {"degree": 2, "values": ["0"] * 9}
        cpath = _write(tmp_path, "cochain.json", cochain)
        return run(JobSpec("extend-module", dict(options, cochain=cpath, **files)))

    other = _write(tmp_path, "other.json", sz.module_to_obj(zero_module(rad2(), 1)))
    _input_error(extend(kernel=other), "kernel and quotient must be modules over the algebra")
    bad = _write(tmp_path, "bad.json", sz.module_to_obj(w))
    _math_failure(extend(kernel=bad), f"kernel is not a module: {is_module(a, w).detail}")
    _input_error(
        extend({"degree": 3, "values": ["0"] * 27}), "module extensions need a degree-2 cochain"
    )
    values = ["0"] * 9
    values[5] = "1"  # f(e_2, w) = v, while e_2 e_1 = 0 and e_1 e_2 = e_2
    report = extend({"degree": 2, "values": values})
    assert report.exit_code == 1
    assert _body(report)["witness"].startswith("the (1,1) cochain is not a cocycle")


def test_classify_ext_rejects_mismatched_extensions(tmp_path):
    alg = _emit_extension(tmp_path, "alg", s_alpha_beta(1, 0))
    mod = _module_extension_path(tmp_path)
    _input_error(run(JobSpec("classify-ext", {"ext1": alg, "ext2": mod})),
                 "extensions have different kinds")
    a = aff_algebra()
    emitted = tmp_path / "zext.json"
    options = {
        "algebra": _aff_path(tmp_path),
        "module": _write(tmp_path, "zmod.json", sz.module_to_obj(zero_module(a, 1))),
        "cochain": _write(tmp_path, "zero.json", {"degree": 2, "values": ["0"] * 4}),
        "emit": str(emitted),
    }
    assert run(JobSpec("extend-algebra", options)).exit_code == 0
    _input_error(run(JobSpec("classify-ext", {"ext1": alg, "ext2": str(emitted)})),
                 "extensions live over different base data")


def test_deform_solve_error_paths(tmp_path):
    _input_error(run(JobSpec("deform-solve", {"jet": _s10_jet_path(tmp_path), "orders": 0})),
                 "--orders must be at least 1")
    a = aff_algebra()
    bad = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    bad[1][1][0] = F(1)  # S(e2,e2) = e1, not a cocycle
    obj = {"base": sz.algebra_to_obj(a), "coefficients": [sz.tensor3_to_obj(tensor3(bad))]}
    report = run(JobSpec("deform-solve", {"jet": _write(tmp_path, "badjet.json", obj)}))
    _math_failure(report, "cannot raise the order: the order-1 residual is nonzero")


def test_geodesic_number_flags():
    _input_error(run(_geodesic_job(alpha="abc")), "--alpha must be a number, got 'abc'")
    # a float literal is read as the exact rational of the float
    report = run(_geodesic_job(alpha="1e-3", t1=0.5))
    assert report.exit_code == 0
    assert report.text == run(_geodesic_job(alpha=str(Fraction(1e-3)), t1=0.5)).text
    _input_error(run(JobSpec("geodesic", {"x0": "abc"})), "--x0 must be a float, got 'abc'")
    _input_error(run(JobSpec("geodesic", {"t1": None})), "--t1 is required")


def test_proptest_reports_the_first_failure(monkeypatch):
    import kvcohom.battery as bt
    from kvcohom.deform import kv_bracket

    def off_by_one(mu, nu):
        n = len(mu)
        br = [[[list(r) for r in p] for p in q] for q in kv_bracket(mu, nu)]
        br[n - 1][0][n - 1][n - 1] += 1
        return br

    monkeypatch.setattr(bt, "kv_bracket", off_by_one)
    report = run(JobSpec("proptest", {"seed": 4, "count": 2}))
    assert report.exit_code == 1
    body = _body(report)
    first = body["results"]["failures"][0]
    assert body["witness"] == f"{first['invariant']} (instance {first['instance']}): {first['witness']}"
    assert body["witness"].startswith("pair-bracket (instance 0): d_μμ(")


def test_main_output_to_a_directory_is_an_input_error(tmp_path, capsys):
    code = main(["verify", "--algebra", _aff_path(tmp_path), "--output", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write ") and "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# fuzzing run over the verbs that read files


@pytest.fixture(scope="module")
def file_requests(tmp_path_factory):
    """Well-formed requests covering every verb that reads a file."""
    d = tmp_path_factory.mktemp("fuzz")
    a = aff_algebra()
    aff = _aff_path(d)
    reg = _write(d, "reg.json", sz.module_to_obj(regular_bimodule(a)))
    zmod = _write(d, "zmod.json", sz.module_to_obj(zero_module(a, 1)))
    s10 = _write(d, "s10.json", sz.cochain_to_obj(s_alpha_beta(1, 0)))
    zero9 = _write(d, "zero9.json", {"degree": 2, "values": ["0"] * 9})
    mext = _module_extension_path(d)
    graded = _write(d, "graded.json", sz.graded_to_obj(graded_flat()))
    theta = _tensor_file(d, "theta.json", flat_theta())
    s23 = s_alpha_beta(2, 3).values
    tensor = _tensor_file(d, "s23.json", tensor3([[s23[0:2], s23[2:4]], [s23[4:6], s23[6:8]]]))
    requests = [
        ("verify", {"algebra": aff, "module": reg}),
        ("jacobi", {"algebra": aff, "module": reg}),
        ("cohomology", {"algebra": aff, "module": zmod, "q_max": 1}),
        ("nijenhuis", {"algebra": aff, "q_max": 1}),
        ("extend-algebra", {"algebra": aff, "module": reg, "cochain": s10}),
        ("extend-module", {"algebra": aff, "kernel": zmod, "quotient": zmod, "cochain": zero9}),
        ("classify-ext", {"ext1": _emit_extension(d, "e1", s_alpha_beta(1, 0)),
                          "ext2": _emit_extension(d, "e2", s_alpha_beta(2, 3))}),
        ("classify-ext", {"ext1": mext, "ext2": mext}),
        ("deform-check", {"jet": _s10_jet_path(d)}),
        ("deform-solve", {"jet": _s10_jet_path(d), "orders": 2}),
        ("rigidity", {"algebra": aff}),
        ("curvature-check", {"algebra": aff, "tensor": tensor}),
        ("graded-check", {"graded": graded}),
        ("graded-deform", {"graded": graded, "theta": theta}),
        ("connectionlike", {"graded": graded, "theta": theta,
                            "psi": _tensor_file(d, "psi.json", flat_psi())}),
        ("radiant", {"algebra": aff}),
    ]
    for verb, options in requests:
        assert run(JobSpec(verb, options)).exit_code == 0, verb
    return requests


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from(["0", "1", "-1/2", "1/0", "01", "1e3", "", "x", "\x00", "algebra", "module"]),
    st.text(max_size=4),
)
_json = st.recursive(
    _leaves,
    lambda c: st.one_of(
        st.lists(c, max_size=3), st.dictionaries(st.text(max_size=4), c, max_size=3)
    ),
    max_leaves=8,
)


def _nodes(obj, path=()):
    """The path of every node of a JSON object, the root first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutated(obj, path, op, value, name):
    """obj with the node at path replaced, dropped or (a key) renamed."""
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if op == "drop":
        del parent[last]
    elif op == "rename" and isinstance(parent, dict):
        parent[name] = parent.pop(last)
    else:
        parent[last] = value
    return obj


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_run_on_mutated_files(file_requests, data):
    # every outcome is a documented exit code with a JSON body; an
    # exception escaping run fails the test
    verb, options = data.draw(st.sampled_from(file_requests))
    key = data.draw(st.sampled_from(sorted(k for k, v in options.items() if isinstance(v, str))))
    path = Path(options[key])
    if data.draw(st.booleans()):
        obj = data.draw(_json)
    else:
        obj = json.loads(path.read_text())
        where = data.draw(st.sampled_from(list(_nodes(obj))))
        op = data.draw(st.sampled_from(["replace", "drop", "rename"]))
        obj = _mutated(obj, where, op, data.draw(_json), data.draw(st.text(max_size=8)))
    target = path.with_name("mutated-" + path.name)
    target.write_text(json.dumps(obj))
    report = run(JobSpec(verb, dict(options, **{key: str(target)})))
    assert report.exit_code in (0, 1, 2, 3)
    json.loads(report.text)


def test_cli_verbs_reproduce_the_known_report_digests(monkeypatch):
    """Every request of the benchmark's cli-verbs pool, run in process from
    the checkout root, exits and prints exactly as its known-answer table
    records: the byte contract of the reports."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    monkeypatch.chdir(root)
    import cli_verbs
    import pool

    known = pool.load("cli_verbs")
    cli_verbs.write_inputs()
    requests = cli_verbs.request_pool()
    assert len(requests) == len(known)
    for argv in requests:
        code, out = cli_verbs.in_process(argv)
        key = " ".join(argv)
        assert (code, hashlib.sha256(out).hexdigest()) == (known[key]["exit"], known[key]["sha256"]), key


# ---------------------------------------------------------------------------
# the flag table: run checks options by the shell's flags, and the shell
# parser built from the table is the one the verbs' add_argument calls made


def _flags(verb):
    return cli._VERBS[verb][2]


def _placeholders(verb):
    """A string for every required flag, so the check under test comes first."""
    return {f.key: "unread.json" for f in _flags(verb) if f.default is cli._REQUIRED}


def test_run_checks_every_flag_of_the_table():
    nouns = {str: "a string", int: "an integer", float: "a float"}
    assert len(cli._VERBS) == 19
    for verb in cli._VERBS:
        base = _placeholders(verb)
        _input_error(run(JobSpec(verb, dict(base, bogus=1))), f"unknown option 'bogus' for {verb}")
        for flag in _flags(verb):
            def rejects(value, message):
                report = run(JobSpec(verb, dict(base, **{flag.key: value})))
                _input_error(report, f"{flag.spelling} {message}")

            if flag.default is cli._REQUIRED:
                _input_error(run(JobSpec(verb, {k: v for k, v in base.items() if k != flag.key})),
                             f"{flag.spelling} is required")
            if flag.default is not None:
                rejects(None, "is required")
            noun = nouns[flag.type]
            if flag.type is str:
                rejects(1, f"must be {noun}, got int")
                rejects(False, f"must be {noun}, got False")
            else:
                rejects("x", f"must be {noun}, got 'x'")
                rejects(True, f"must be {noun}, got True")
            if flag.type is int:
                rejects(2.5, f"must be {noun}, got 2.5")
                rejects("2.5", f"must be {noun}, got '2.5'")
            if flag.at_least is not None:
                rejects(flag.at_least - 1, f"must be at least {flag.at_least}")
                rejects(str(flag.at_least - 1), f"must be at least {flag.at_least}")
    bounded = {(verb, f.key) for verb in cli._VERBS for f in _flags(verb) if f.at_least is not None}
    assert bounded == {("deform-solve", "orders"), ("proptest", "count")}


def test_run_converts_numeric_strings_as_the_shell_does(tmp_path):
    same = [
        ("proptest", {"seed": "1", "count": "2"}, {"seed": 1, "count": 2}),
        ("cohomology", {"algebra": _aff_path(tmp_path), "q_max": "1", "budget": "99"},
         {"algebra": _aff_path(tmp_path), "q_max": 1, "budget": 99}),
        ("deform-solve", {"jet": _s10_jet_path(tmp_path), "orders": "2"},
         {"jet": _s10_jet_path(tmp_path), "orders": 2}),
        ("geodesic", {"t1": "0.5", "vx0": "2"}, {"t1": 0.5, "vx0": 2.0}),
        ("geodesic", {"t1": "0.5", "vx0": "2"}, {"t1": 0.5, "vx0": 2}),
    ]
    for verb, text, typed in same:
        report = run(JobSpec(verb, text))
        assert report.exit_code == 0, report.text
        assert report.text == run(JobSpec(verb, typed)).text
        argv = [verb] + [a for k, v in text.items() for a in ("--" + k.replace("_", "-"), v)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == report.text
    assert _body(run(JobSpec("proptest", {"count": "3"})))["parameters"] == {"seed": 0, "count": 3}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_shell_help_matches_the_reference_parser():
    from gather_loops import reference_build_parser

    built, reference = cli._build_parser(), reference_build_parser()
    assert built.format_help() == reference.format_help()
    assert list(_subparsers(built)) == list(_subparsers(reference)) == list(cli._VERBS)
    for verb, parser in _subparsers(built).items():
        assert parser.format_help() == _subparsers(reference)[verb].format_help(), verb


def test_shell_errors_and_values_match_the_reference_parser():
    from gather_loops import reference_build_parser

    def parse(parser, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                return vars(parser.parse_args(argv)), err.getvalue()
            except SystemExit as exc:
                return exc.code, err.getvalue()

    argvs = [
        ["proptest", "--count", "x"],  # a wrong type
        ["cohomology", "--algebra", "a.json", "--q-max", "1.5"],
        ["geodesic", "--x0", "abc"],
        ["verify"],  # a missing required flag
        ["extend-module", "--algebra", "a", "--kernel", "k"],
        ["verify", "--algebra", "a.json", "--bogus", "1"],  # an unknown flag
        ["frobnicate"],  # an unknown verb
        [],
        ["fixtures"],  # a missing positional
        ["fixtures", "aff", "extra"],
        ["cohomology", "--algebra", "a.json", "--q-max", "3", "--budget", "-2", "--output", "o"],
        ["geodesic", "--alpha", "1/2", "--step", "1e-2", "--t1", "-1.5"],
        ["proptest", "--seed", "-3", "--count", "0"],
        ["fixtures", "aff"],
    ]
    for argv in argvs:
        got = parse(cli._build_parser(), argv)
        assert got == parse(reference_build_parser(), argv), argv
        assert "Traceback" not in got[1]


def _shell_values(verb, flag, paths, out_dir):
    """Small argument strings for one flag, valid and not."""
    if flag.key in ("emit", "output"):
        return st.just(str(out_dir / f"{verb}-{flag.key}.out"))
    if flag.key == "name":
        return st.sampled_from(fixture_names() + ["nope"])
    if flag.key in ("alpha", "beta"):
        return st.sampled_from(["0", "2", "-1/2", "1e-3", "x", "1/0"])
    if flag.key == "step":
        return st.sampled_from(["1e-2", "0", "-1", "x", "nan"])
    if flag.type is int:  # --count, --q-max and --orders stay at most 3
        return st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["x", "1.5"]))
    if flag.type is float:
        return st.one_of(st.floats(-2, 2).map(repr), st.sampled_from(["x", "nan", "inf"]))
    return st.sampled_from(paths.get(flag.key, []) + [str(out_dir / "missing.json")])


def _run_values(verb, flag, shell):
    """Values for run: the shell's string, or a leaf of any type; numbers stay
    small wherever a large one would run instead of failing."""
    if flag.key in ("emit", "output"):  # a drawn string would be a path to write
        return st.one_of(st.just(shell), _leaves.filter(lambda v: not isinstance(v, str)))
    if flag.key == "step":
        return st.sampled_from([shell, 1e-2, 0, -1, "x", float("nan")])
    if verb == "geodesic":
        return st.one_of(st.just(shell), st.none(), st.booleans(), st.integers(-2, 2),
                         st.floats(-2, 2), st.sampled_from(["x", "nan", "", "-1/2"]))
    if flag.type is int:
        return st.one_of(st.just(shell), _leaves.filter(lambda v: not isinstance(v, str)),
                         st.sampled_from(["x", "1.5", "01", "", " 2 "]))
    return st.one_of(st.just(shell), _leaves)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzz_argument_vectors(file_requests, data):
    # a verb, a subset of its flags and a value for each: through main,
    # argparse's exit 2 counts as exit 2 and nothing prints a traceback;
    # through run, every outcome is a documented exit code
    paths: dict = {}
    for _, options in file_requests:
        for key, value in options.items():
            if isinstance(value, str) and value not in paths.setdefault(key, []):
                paths[key].append(value)
    out_dir = Path(paths["algebra"][0]).parent
    verb = data.draw(st.sampled_from(sorted(cli._VERBS)))
    flags = [f for f in _flags(verb) if data.draw(st.sampled_from([True, True, False]))]
    shell = {f: data.draw(_shell_values(verb, f, paths, out_dir)) for f in flags}
    argv = [verb]
    for flag, value in shell.items():
        argv += [value] if flag.key == "name" else [flag.spelling, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    options = {f.key: data.draw(_run_values(verb, f, v)) for f, v in shell.items()}
    report = run(JobSpec(verb, options))
    assert report.exit_code in (0, 1, 2, 3)
    assert "Traceback" not in report.text
