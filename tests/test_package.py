"""What ``import kvcohom`` executes, and the names the package re-exports."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kvcohom
from kvcohom.cli import JobSpec, run

EAGER = {"errors", "linalg", "core", "fixtures", "serialize", "cli"}
LAZY = {"complexes", "extensions", "deform", "graded", "geom", "battery"}

# The package's re-exports by home module, as they stood when every layer
# was imported eagerly, less the removed names below.
EXPORTS = {
    "core": (
        "CheckResult", "Element", "KVAlgebra", "KVModule", "associator", "center",
        "direct_sum", "is_kv", "is_module", "jacobi_algebra", "jacobi_module",
        "left_regular_module", "lie_bracket", "mixed_associators", "module_direct_sum",
        "random_kv", "random_module", "regular_bimodule", "semidirect", "zero_module",
    ),
    "complexes": (
        "Cochain", "CohomologyReport", "DegreeData", "coboundary", "coboundary0",
        "coboundary_matrix", "cohomology", "is_coboundary", "is_cocycle",
        "nijenhuis_cohomology",
    ),
    "errors": (
        "BudgetError", "DegenerateFitError", "DimensionError", "InputError",
        "KVError", "PreconditionError",
    ),
    "linalg": ("Mat", "Subspace", "image", "kernel", "rank", "rat", "solve", "vec"),
    "extensions": (
        "AlgebraExtension", "BigradedCochain", "ModuleExtension",
        "algebra_cocycle_from_section", "algebra_extension_from_cocycle",
        "algebra_extensions_equivalent", "bigrade", "cocycle_from_section",
        "e11_cohomology", "extend_module_to_semidirect", "extensions_equivalent",
        "graded_piece", "module_extension_from_cocycle",
    ),
    "deform": (
        "MultiplicationJet", "NextOrderSolution", "RigidityReport", "bilinear_cochain",
        "curvature_check", "jet_check", "jet_residuals", "kv_bracket", "rigidity_report",
        "solve_next_order",
    ),
    "graded": (
        "ConnectionlikePair", "ConnectionlikeReport", "GradedKVAlgebra",
        "cocycle_from_connectionlike", "connectionlike_from_cocycle", "deform_graded",
        "is_connectionlike", "is_kv_chain", "is_theta_cocycle",
    ),
    "geom": (
        "GeodesicProblem", "PencilReport", "RadiantSolutions", "Trajectory",
        "aff_algebra", "closed_form_x", "deformed_connection", "find_radiant",
        "integrate_geodesic", "pencil_suite", "radiant_primitive", "s_alpha_beta",
        "y_power_law_fit",
    ),
    "battery": ("BatteryReport", "run_battery"),
    "cli": ("JobSpec", "Report", "main", "run"),
}

# Public names that no verb and no other layer reached, removed with the
# tests that alone called them; the re-exported ones left EXPORTS too.
REMOVED = {
    "core": ("hom_module", "multilinear_module"),
    "deform": ("BasisFlowJet", "pair_residual", "pushforward_jet", "trilinear_cochain"),
    "graded": ("embed_theta", "graded_component"),
}

# Imports the package, runs main(argv) if argv is given, and prints the
# submodules in sys.modules and those of them that have executed (a lazy
# module is of a subclass of ModuleType until its first attribute access).
PROBE = """
import contextlib, io, json, sys, types
import kvcohom
registered = sorted(k for k in sys.modules if k.startswith("kvcohom."))
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = kvcohom.cli.main(sys.argv[1:])
executed = [k for k in registered if type(sys.modules[k]) is types.ModuleType]
print(json.dumps({"code": code, "registered": registered, "executed": executed}))
"""


def _probe(*argv: str, cwd: Path) -> dict:
    src = str(Path(kvcohom.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def _layers(names) -> set:
    return {k.removeprefix("kvcohom.") for k in names}


def test_import_registers_every_layer_and_executes_the_eager_ones(tmp_path):
    seen = _probe(cwd=tmp_path)
    assert _layers(seen["registered"]) == EAGER | LAZY
    assert _layers(seen["executed"]) == EAGER


@pytest.mark.parametrize(
    "argv, executed",
    [
        (("verify", "--algebra", "aff.json"), set()),
        (("cohomology", "--algebra", "aff.json"), {"complexes"}),
        (("deform-check", "--jet", "jet.json"), {"complexes", "deform"}),
        (("proptest", "--seed", "1", "--count", "1"), LAZY - {"geom"}),
    ],
)
def test_each_verb_executes_only_the_layers_it_uses(tmp_path, argv, executed):
    for path, name in (("aff.json", "aff"), ("jet.json", "jet-obstructed")):
        (tmp_path / path).write_text(run(JobSpec("fixtures", {"name": name})).text)
    seen = _probe(*argv, cwd=tmp_path)
    assert seen["code"] == 0
    assert _layers(seen["executed"]) == EAGER | executed


def test_reexports_resolve_to_their_home_modules():
    for layer, names in EXPORTS.items():
        home = importlib.import_module(f"kvcohom.{layer}")
        for name in names:
            assert getattr(kvcohom, name) is getattr(home, name), name
    listed = set(dir(kvcohom))
    assert {name for names in EXPORTS.values() for name in names} <= listed
    assert EAGER | LAZY <= listed
    with pytest.raises(AttributeError, match="no_such_name"):
        kvcohom.no_such_name
    assert not hasattr(kvcohom, "no_such_name")


def test_removed_names_are_gone_from_the_package_and_their_home_modules():
    for layer, names in REMOVED.items():
        home = importlib.import_module(f"kvcohom.{layer}")
        for name in names:
            assert name not in home.__all__ and name not in kvcohom.__all__
            for module in (kvcohom, home):
                with pytest.raises(AttributeError):
                    getattr(module, name)


def test_package_runs_as_a_module_without_warnings(tmp_path, capsys):
    src = str(Path(kvcohom.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "kvcohom", "fixtures", "aff"],
        cwd=tmp_path, env=env, capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert kvcohom.cli.main(["fixtures", "aff"]) == 0
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")


def _imported_names(tree: ast.Module) -> dict:
    """Names bound by the module-level imports (those under a top-level
    ``if``, such as ``TYPE_CHECKING``, included), with their line numbers."""
    out = {}
    nodes = list(tree.body)
    nodes += [n for top in tree.body if isinstance(top, ast.If) for n in top.body + top.orelse]
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _referenced_names(tree: ast.Module) -> set:
    """Every name the module reads, in code, in string annotations and in
    ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    for ann in filter(None, annotations):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                expr = ast.parse(c.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def _private_definitions(tree: ast.Module) -> dict:
    """Private names (one leading underscore, not a dunder) that the module
    binds at top level by ``def``, ``class`` or assignment, with their line
    numbers."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node.lineno) for name in names if name[:1] == "_" and name[:2] != "__")
    return out


def test_every_private_module_level_name_is_referenced():
    # a private helper that no module of the package reads any more is dead
    home = Path(kvcohom.__file__).resolve().parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(home.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [
        f"{file}:{line} {name}"
        for file, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]
    assert dead == []


def test_every_module_level_import_is_used():
    home = Path(kvcohom.__file__).resolve().parent
    dead = []
    for path in sorted(home.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _referenced_names(tree)
        dead += [
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree).items()
            if name not in used
        ]
    assert dead == []


def test_verdicts_raise_through_the_one_gate():
    """`if not verdict: raise PreconditionError(...)` is written once, in
    `core._require`; every other precondition on an is_kv or is_module
    verdict calls that gate."""
    home = Path(kvcohom.__file__).resolve().parent
    gates = []
    for path in sorted(home.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            gates += [
                f"{path.name}:{func.name}"
                for node in func.body
                for stmt in ast.walk(node)
                if isinstance(stmt, ast.If)
                and isinstance(stmt.test, ast.UnaryOp)
                and isinstance(stmt.test.op, ast.Not)
                and isinstance(stmt.test.operand, ast.Name)
                and any("PreconditionError" in ast.unparse(s) for s in stmt.body)
            ]
    assert gates == ["core.py:_require"]
