"""Verb-dispatched command line over the whole library.

Every verb reads JSON files (see serialize), computes exactly, and emits
one deterministic artifact: a canonical JSON report for algebraic verbs,
a CSV trajectory for the integrator, or a fixture file.  Identical
inputs, flags, and seeds produce byte-identical output.

Exit codes: 0 when the verb's verdict holds (or the verb is a pure
query), 1 on a mathematical failure with a witness in the report, 2 on
malformed input, 3 when a computation would exceed the cell budget.  A
mathematical failure is never reported as an input error: well-formed
files describing objects that flunk an identity exit with 1.

One table, `_VERBS`, gives each verb's handler, help text and flags, with
each flag's type, default and lower bound.  The shell parser is built from
it, and `run` checks a job's options against it by the rule its docstring
states: what the flag cannot take is exit 2 with a message naming the flag.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

# The heavier layers by module: each executes on its first use (see
# the package docstring), so a verb runs only the layers it calls.
from . import battery, complexes, deform, extensions, geom, graded
from . import serialize as sz
from .core import (
    CheckResult,
    KVAlgebra,
    KVModule,
    _entries,
    is_kv,
    is_module,
    jacobi_algebra,
    jacobi_module,
    lie_bracket,
    regular_bimodule,
    semidirect,
)
from .errors import BudgetError, DimensionError, InputError, PreconditionError
from .fixtures import (
    algebra_fixture,
    algebra_fixture_names,
    flat_polynomial_module,
    graded_flat,
    obstructed_jet,
    rad2_left_module,
)
from .linalg import Subspace

__all__ = ["FORMAT_VERSION", "JobSpec", "Report", "run", "main"]

FORMAT_VERSION = 1

_EXIT_OK = 0
_EXIT_MATH = 1
_EXIT_INPUT = 2
_EXIT_BUDGET = 3


@dataclass(frozen=True)
class JobSpec:
    """One invocation: the verb plus its flag values (paths stay strings)."""

    verb: str
    options: dict

    def opt(self, key: str, default: Any = None) -> Any:
        return self.options.get(key, default)


@dataclass(frozen=True)
class Report:
    """What a verb produced: the exact output text and the exit code."""

    verb: str
    exit_code: int
    text: str
    body: Optional[dict] = None


class _MathFailure(Exception):
    """Internal: a well-formed input flunked the identity the verb decides."""

    def __init__(self, message: str, results: Optional[dict] = None):
        super().__init__(message)
        self.results = results or {}


def _read_json_file(path: str, inputs: dict, key: str) -> Any:
    """The JSON value of the file at path, whose path and digest go to inputs."""
    data = sz._read_bytes(path)
    inputs[key] = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    return sz._decode_json(data, path)


def _load_algebra(path: str, inputs: dict, key: str = "algebra") -> KVAlgebra:
    return sz.algebra_from_obj(_read_json_file(path, inputs, key))


def _load_module(path: str, inputs: dict, key: str, over: Optional[KVAlgebra] = None) -> KVModule:
    """The module in the file; with ``over``, one over any other algebra is an input error."""
    w = sz.module_from_obj(_read_json_file(path, inputs, key), base_dir=Path(path).parent)
    if over is not None and w.algebra != over:
        raise InputError("module file is over a different algebra")
    return w


def _load_tensor3(path: str, inputs: dict, key: str, d1: int, d2: int, d3: int):
    obj = _read_json_file(path, inputs, key)
    if not isinstance(obj, dict) or set(obj) != {"tensor"}:
        raise InputError(
            f"{key} file must be an object with a single \"tensor\" key"
        )
    return sz.tensor3_from_obj(obj["tensor"], d1, d2, d3, key)


def _check_to_obj(c: CheckResult) -> dict:
    out: dict = {"ok": bool(c)}
    if c.witness is not None:
        out["witness"] = list(c.witness)
    if c.detail is not None:
        out["detail"] = c.detail
    return out


def _subspace_to_obj(s: Subspace) -> dict:
    return {"dim": s.dim, "basis": [sz.vector_to_obj(v) for v in s.basis]}


def _cohomology_to_obj(rep: complexes.CohomologyReport) -> list:
    return [
        {
            "degree": d.degree,
            "dim_C": d.dim_C,
            "dim_Z": d.dim_Z,
            "dim_B": d.dim_B,
            "dim_H": d.dim_H,
            "representatives": [sz.cochain_to_obj(r) for r in d.representatives],
        }
        for d in rep.degrees
    ]


def _module_or_regular(
    job: JobSpec, a: KVAlgebra, inputs: dict, parameters: dict
) -> KVModule:
    path = job.options["module"]
    if path is None:
        parameters["module"] = "regular"
        return regular_bimodule(a)
    return _load_module(path, inputs, "module", a)


# ---------------------------------------------------------------------------
# verb handlers: fill results/parameters, return (verdict, witness); a
# verdict of None means "pure query" and always exits 0.


def _verb_verify(job, inputs, parameters, results):
    a = _load_algebra(job.options["algebra"], inputs)
    kv = is_kv(a)
    results["is_kv"] = _check_to_obj(kv)
    verdict = bool(kv)
    witness = kv.detail if not kv else None
    if job.options["module"] is not None:
        w = _load_module(job.options["module"], inputs, "module", a)
        mod = is_module(a, w)
        results["is_module"] = _check_to_obj(mod)
        if verdict and not mod:
            witness = mod.detail
        verdict = verdict and bool(mod)
    return verdict, witness


def _verb_jacobi(job, inputs, parameters, results):
    a = _load_algebra(job.options["algebra"], inputs)
    results["algebra_jacobi"] = _subspace_to_obj(jacobi_algebra(a))
    if job.options["module"] is not None:
        w = _load_module(job.options["module"], inputs, "module", a)
        results["module_jacobi"] = _subspace_to_obj(jacobi_module(a, w))
    return None, None


def _verb_cohomology(job, inputs, parameters, results):
    a = _load_algebra(job.options["algebra"], inputs)
    w = _module_or_regular(job, a, inputs, parameters)
    q_max = job.options["q_max"]
    parameters["q_max"] = q_max
    budget = job.options["budget"]
    if budget is not None:
        parameters["budget"] = budget
    rep = complexes.cohomology(a, w, q_max, budget=budget)
    results["degrees"] = _cohomology_to_obj(rep)
    return None, None


def _verb_nijenhuis(job, inputs, parameters, results):
    a = _load_algebra(job.options["algebra"], inputs)
    w = _module_or_regular(job, a, inputs, parameters)
    q_max = job.options["q_max"]
    parameters["q_max"] = q_max
    rep = complexes.nijenhuis_cohomology(a, w, q_max)
    results["degrees"] = _cohomology_to_obj(rep)
    consistent = all(d.dim_H == d.dim_Z - d.dim_B for d in rep.degrees)
    results["rank_nullity_consistent"] = consistent
    return consistent, None if consistent else "dim_H != dim_Z - dim_B"


def _verb_extend_algebra(job, inputs, parameters, results):
    a = _load_algebra(job.options["algebra"], inputs)
    w = _load_module(job.options["module"], inputs, "module", a)
    mod = is_module(a, w)
    if not mod:
        raise _MathFailure(f"coefficients are not a module: {mod.detail}")
    omega = sz.cochain_from_obj(
        _read_json_file(job.options["cochain"], inputs, "cochain"), a, w
    )
    if omega.degree != 2:
        raise InputError("algebra extensions need a degree-2 cochain")
    ext = extensions.algebra_extension_from_cocycle(a, w, omega)
    total_kv = is_kv(ext.total)
    results["total_is_kv"] = _check_to_obj(total_kv)
    results["extension"] = body = sz.extension_to_obj(ext)
    if not total_kv:
        raise _MathFailure(
            f"the cochain is not a cocycle: total product fails at "
            f"{total_kv.witness}",
            results,
        )
    recovered = extensions.algebra_cocycle_from_section(ext, ext.canonical_section())
    results["section_cocycle_matches"] = recovered == omega
    _maybe_emit(job, body)
    return True, None


def _verb_extend_module(job, inputs, parameters, results):
    a = _load_algebra(job.options["algebra"], inputs)
    v = _load_module(job.options["kernel"], inputs, "kernel")
    w = _load_module(job.options["quotient"], inputs, "quotient")
    if v.algebra != a or w.algebra != a:
        raise InputError("kernel and quotient must be modules over the algebra")
    for name, mod in (("kernel", v), ("quotient", w)):
        verdict = is_module(a, mod)
        if not verdict:
            raise _MathFailure(f"{name} is not a module: {verdict.detail}")
    g = semidirect(a, w)
    vt = extensions.extend_module_to_semidirect(g, a.dim, v)
    raw = sz.cochain_from_obj(
        _read_json_file(job.options["cochain"], inputs, "cochain"), g, vt
    )
    if raw.degree != 2:
        raise InputError("module extensions need a degree-2 cochain")
    f = extensions.BigradedCochain(raw, a.dim, 1, 1)
    try:
        ext = extensions.module_extension_from_cocycle(a, w, v, f)
    except PreconditionError as exc:
        raise _MathFailure(str(exc)) from None
    results["extension"] = body = sz.extension_to_obj(ext)
    recovered = extensions.cocycle_from_section(ext, ext.canonical_section())
    results["section_cocycle_matches"] = recovered.cochain == raw
    _maybe_emit(job, body)
    return True, None


def _verb_classify_ext(job, inputs, parameters, results):
    obj1 = _read_json_file(job.options["ext1"], inputs, "ext1")
    obj2 = _read_json_file(job.options["ext2"], inputs, "ext2")
    e1 = sz.extension_from_obj(obj1)
    e2 = sz.extension_from_obj(obj2)
    if obj1["kind"] != obj2["kind"]:
        raise InputError("extensions have different kinds")
    results["kind"] = obj1["kind"]
    same = e1.base == e2.base and e1.kernel == e2.kernel
    if obj1["kind"] == "algebra":
        over = e1.base.dim  # cochains on A valued in the kernel
    else:
        same = same and e1.quotient == e2.quotient
        over = e1.base.dim + e1.quotient.dim  # cochains on G = semidirect(A, W)
    if not same:
        raise InputError("extensions live over different base data")
    for q in range(3):
        complexes.check_budget(over, e1.kernel.dim, q)
    if obj1["kind"] == "algebra":
        shear = extensions.algebra_extensions_equivalent(e1, e2)
        results["equivalent"] = shear is not None
        results["shear"] = None if shear is None else sz.matrix_to_obj(shear)
    else:
        f1 = extensions.cocycle_from_section(e1, e1.canonical_section())
        f2 = extensions.cocycle_from_section(e2, e2.canonical_section())
        results["equivalent"] = extensions.extensions_equivalent(f1, f2)
    return None, None


def _verb_deform_check(job, inputs, parameters, results):
    jet = sz.jet_from_obj(_read_json_file(job.options["jet"], inputs, "jet"))
    verdict = deform.jet_check(jet)
    results["order"] = jet.order
    results["residuals_zero"] = _check_to_obj(verdict)
    return bool(verdict), verdict.detail if not verdict else None


def _verb_deform_solve(job, inputs, parameters, results):
    jet = sz.jet_from_obj(_read_json_file(job.options["jet"], inputs, "jet"))
    orders = job.options["orders"]
    parameters["orders"] = orders
    steps = []
    witness = None
    chain = deform._solve_orders(jet)
    for _ in range(orders):
        try:
            sol = next(chain)
        except PreconditionError as exc:
            raise _MathFailure(str(exc), results) from None
        step = {
            "order": sol.order,
            "target_is_cocycle": sol.target_is_cocycle,
            "solved": sol.solved,
        }
        if sol.solved:
            step["coefficient"] = sz.tensor3_to_obj(sol.coefficient)
            jet = sol.extended
        else:
            step["certificate"] = sz.vector_to_obj(sol.certificate)
            witness = (
                f"order {sol.order} is obstructed: a functional vanishing on "
                f"every coboundary pairs nonzero with the target"
            )
        steps.append(step)
        if witness is not None:
            break
    results["steps"] = steps
    solved_all = witness is None
    if solved_all:
        results["jet"] = body = sz.jet_to_obj(jet)
        _maybe_emit(job, body)
    return solved_all, witness


def _verb_rigidity(job, inputs, parameters, results):
    a = _load_algebra(job.options["algebra"], inputs)
    rep = deform.rigidity_report(a)
    results.update(
        {
            "dim_C2": rep.dim_C2,
            "dim_Z2": rep.dim_Z2,
            "dim_B2": rep.dim_B2,
            "dim_H2": rep.dim_H2,
            "rigid": rep.rigid,
            "class_representatives": [
                sz.tensor3_to_obj(t) for t in rep.class_representatives
            ],
        }
    )
    return None, None


def _verb_curvature_check(job, inputs, parameters, results):
    a = _load_algebra(job.options["algebra"], inputs)
    n = a.dim
    s = _load_tensor3(job.options["tensor"], inputs, "tensor", n, n, n)
    residual = deform.curvature_check(a, s)
    residual_zero = not any(_entries(residual, 4))
    cocycle = complexes.is_cocycle(deform.bilinear_cochain(a, s))
    results["residual_zero"] = residual_zero
    results["s_is_cocycle"] = cocycle
    results["flat_iff_cocycle"] = residual_zero == cocycle
    return (
        residual_zero == cocycle,
        None if residual_zero == cocycle else "curvature and cocycle disagree",
    )


def _verb_graded_check(job, inputs, parameters, results):
    obj = _read_json_file(job.options["graded"], inputs, "graded")
    try:
        g = sz.graded_from_obj(obj)
    except PreconditionError as exc:
        raise _MathFailure(str(exc)) from None
    results["even_dim"] = g.n
    results["odd_dim"] = g.m
    results["total_is_kv"] = True
    return True, None


def _verb_graded_deform(job, inputs, parameters, results):
    g = sz.graded_from_obj(_read_json_file(job.options["graded"], inputs, "graded"))
    theta = _load_tensor3(job.options["theta"], inputs, "theta", g.m, g.m, g.m)
    cocycle = graded.is_theta_cocycle(g, theta)
    chain = graded.is_kv_chain(theta)
    results["theta_is_cocycle"] = _check_to_obj(cocycle)
    results["theta_is_chain"] = _check_to_obj(chain)
    if not (cocycle and chain):
        bad = cocycle if not cocycle else chain
        raise _MathFailure(
            f"theta does not deform: {bad.detail or 'fails the graded conditions'}",
            results,
        )
    deformed = graded.deform_graded(g, theta)
    results["deformed"] = body = sz.algebra_to_obj(deformed)
    _maybe_emit(job, body)
    return True, None


def _verb_connectionlike(job, inputs, parameters, results):
    g = sz.graded_from_obj(_read_json_file(job.options["graded"], inputs, "graded"))
    theta = _load_tensor3(job.options["theta"], inputs, "theta", g.m, g.m, g.m)
    psi = _load_tensor3(job.options["psi"], inputs, "psi", g.n, g.m, g.n)
    rep = graded.is_connectionlike(g, graded.ConnectionlikePair(theta, psi))
    results.update(
        {
            "psi_symmetric": _check_to_obj(rep.psi_symmetric),
            "theta_cocycle": _check_to_obj(rep.theta_cocycle),
            "theta_psi_compat": _check_to_obj(rep.theta_psi_compat),
            "theta_psi_compat_alt": _check_to_obj(rep.theta_psi_compat_alt),
            "flow_rule_even": _check_to_obj(rep.flow_rule_even),
            "derivation_rule": _check_to_obj(rep.derivation_rule),
            "degenerate": rep.degenerate,
            "holds": rep.holds,
        }
    )
    if not rep.holds:
        for name in ("psi_symmetric", "theta_cocycle", "theta_psi_compat"):
            check = getattr(rep, name)
            if not check:
                return False, f"{name} fails: {check.detail}"
    return rep.holds, None


def _verb_aff_suite(job, inputs, parameters, results):
    alpha = sz.parse_rat(job.options["alpha"])
    beta = sz.parse_rat(job.options["beta"])
    parameters["alpha"] = sz.format_rat(alpha)
    parameters["beta"] = sz.format_rat(beta)
    a = geom.aff_algebra()
    kv = is_kv(a)
    jac = jacobi_algebra(a)
    h0 = complexes.cohomology(a, regular_bimodule(a), 0).degree(0).dim_H
    lb = lie_bracket(a)
    bracket_e1_e2 = lb[0][1]
    results["is_kv"] = bool(kv)
    results["jacobi"] = _subspace_to_obj(jac)
    results["h0_regular"] = h0
    results["bracket_e1_e2"] = sz.vector_to_obj(bracket_e1_e2)
    suite = geom.pencil_suite(alpha, beta)
    results["pencil"] = {
        "alpha": sz.format_rat(alpha),
        "beta": sz.format_rat(beta),
        "cocycle": suite.cocycle,
        "square_zero": suite.square_zero,
        "nontrivial": suite.nontrivial,
    }
    expectations = (
        (bool(kv), "the base product is not KV"),
        (jac.dim == 1 and jac.contains((Fraction(1), Fraction(0))),
         "Jacobi space is not span{e_1}"),
        (h0 == 0, "H^0 with regular coefficients is nonzero"),
        (bracket_e1_e2 == (Fraction(0), Fraction(1)),
         "[e_1, e_2] is not e_2"),
        (suite.cocycle, "the pencil cochain is not a cocycle"),
        (suite.square_zero, "the pencil self-bracket is nonzero"),
        (suite.nontrivial is not False, "the pencil cochain is exact at alpha != 0"),
    )
    for ok, message in expectations:
        if not ok:
            return False, message
    return True, None


def _format_float(x: float) -> str:
    return repr(float(x))


def _parse_number(text: str, what: str) -> Fraction:
    """Exact when the flag looks rational, Fraction-of-float otherwise."""
    try:
        return sz.parse_rat(text)
    except InputError:
        pass
    try:
        return Fraction(float(text))
    except (ValueError, OverflowError):
        raise InputError(f"{what} must be a number, got {text!r}") from None


def _verb_geodesic(job, inputs, parameters, results):
    o = job.options
    problem = geom.GeodesicProblem(
        alpha=_parse_number(o["alpha"], "--alpha"),
        beta=_parse_number(o["beta"], "--beta"),
        **{key: o[key] for key in ("x0", "y0", "vx0", "vy0", "t0", "t1", "step")},
    )
    trajectory = geom.integrate_geodesic(problem)
    lines = [f"# termination: {trajectory.termination}"]
    if trajectory.blowup_time is not None:
        lines.append(f"# blowup_time: {_format_float(trajectory.blowup_time)}")
        lines.append("# blowup_time_abs_tol: 1e-06")
    lines.append("t,x,y,vx,vy")
    for s in trajectory.samples:
        lines.append(",".join(_format_float(c) for c in s))
    text = "\n".join(lines) + "\n"
    if trajectory.termination == geom.STEP_UNDERFLOW:
        raise _MathFailure(
            "the integrator could not advance past "
            f"t = {trajectory.final[0]!r} at the smallest resolvable step"
        )
    return text


def _verb_radiant(job, inputs, parameters, results):
    a = _load_algebra(job.options["algebra"], inputs)
    sols = geom.find_radiant(a)
    results["exists"] = bool(sols)
    results["unique"] = sols.unique
    results["particular"] = (
        None if sols.particular is None else sz.vector_to_obj(sols.particular)
    )
    results["homogeneous"] = _subspace_to_obj(sols.homogeneous)
    return None, None


def _verb_proptest(job, inputs, parameters, results):
    seed = job.options["seed"]
    count = job.options["count"]
    parameters["seed"] = seed
    parameters["count"] = count
    rep = battery.run_battery(seed, count)
    results.update(rep.to_obj())
    if not rep.passed:
        first = rep.failures[0]
        return False, f"{first.invariant} (instance {first.instance}): {first.witness}"
    return True, None


_FIXTURE_EXTRAS: dict[str, Callable[[], str]] = {
    "graded-flat": lambda: sz.canonical_json(sz.graded_to_obj(graded_flat())),
    "rad2-left": lambda: sz.canonical_json(sz.module_to_obj(rad2_left_module())),
    "flat-poly": lambda: sz.canonical_json(
        sz.module_to_obj(flat_polynomial_module())
    ),
    "jet-obstructed": lambda: sz.canonical_json(sz.jet_to_obj(obstructed_jet())),
}


def fixture_names() -> list[str]:
    return sorted(algebra_fixture_names() + list(_FIXTURE_EXTRAS))


def _verb_fixtures(job, inputs, parameters, results):
    name = job.options["name"]
    if name in _FIXTURE_EXTRAS:
        return _FIXTURE_EXTRAS[name]()
    if name in algebra_fixture_names():
        return sz.canonical_json(sz.algebra_to_obj(algebra_fixture(name)))
    raise InputError(
        f"unknown fixture {name!r}; known: {', '.join(fixture_names())}"
    )


# ---------------------------------------------------------------------------
# the flag table: each verb's handler, help text and flags, read by both the
# shell parser and run

_REQUIRED = object()  # the default of a flag that has none

_NOUNS = {str: "a string", int: "an integer", float: "a float"}


@dataclass(frozen=True)
class _Flag:
    """A flag as the shell spells it ("--q-max"; "name" is positional)."""

    spelling: str
    type: type = str
    default: Any = None
    at_least: Optional[int] = None
    help: Optional[str] = None

    @property
    def key(self) -> str:
        return self.spelling.lstrip("-").replace("-", "_")

    def read(self, options: dict) -> Any:
        """This flag's value in options, by the rule of run's docstring."""
        value = options.get(self.key, self.default)
        if value is None and self.default is None:
            return None
        if value is None or value is _REQUIRED:
            raise InputError(f"{self.spelling} is required")
        accepted = (int, float) if self.type is float else (self.type,)
        try:
            if isinstance(value, bool) or not isinstance(value, (str, *accepted)):
                raise TypeError
            value = self.type(value)  # a string converts as argparse converts it
        except (TypeError, ValueError, OverflowError):
            got = repr(value) if isinstance(value, (str, float, bool)) else type(value).__name__
            raise InputError(f"{self.spelling} must be {_NOUNS[self.type]}, got {got}") from None
        if self.at_least is not None and value < self.at_least:
            raise InputError(f"{self.spelling} must be at least {self.at_least}")
        return value


def _required(spelling: str) -> _Flag:
    return _Flag(spelling, default=_REQUIRED)


def _verb(handler: Callable, help_text: str, *flags: _Flag) -> tuple:
    output = _Flag("--output", help="write the report/artifact here instead of stdout")
    return handler, help_text, (output, *flags)


_ALGEBRA, _COCHAIN, _GRADED, _THETA, _JET = map(
    _required, ("--algebra", "--cochain", "--graded", "--theta", "--jet")
)
_MODULE = _Flag("--module")
_COEFFICIENTS = _Flag("--module", help="coefficient module file (default: regular)")
_Q_MAX = _Flag("--q-max", int, 2)
_EXTENSION_FILE = _Flag("--emit", help="also write the extension file here")

_VERBS = {
    "verify": _verb(_verb_verify, "check the KV identity (and module identities)",
                    _ALGEBRA, _MODULE),
    "jacobi": _verb(_verb_jacobi, "Jacobi elements of an algebra (and a module)",
                    _ALGEBRA, _MODULE),
    "cohomology": _verb(_verb_cohomology, "exact cohomology table through a degree",
                        _ALGEBRA, _COEFFICIENTS, _Q_MAX,
                        _Flag("--budget", int, help="table-cell budget override")),
    "nijenhuis": _verb(_verb_nijenhuis, "commutator Chevalley-Eilenberg comparison table",
                       _ALGEBRA, _COEFFICIENTS, _Q_MAX),
    "extend-algebra": _verb(_verb_extend_algebra, "build the extension classified by a 2-cocycle",
                            _ALGEBRA, _required("--module"), _COCHAIN, _EXTENSION_FILE),
    "extend-module": _verb(_verb_extend_module, "build the module extension of a (1,1) cocycle",
                           _ALGEBRA, _required("--kernel"), _required("--quotient"), _COCHAIN,
                           _EXTENSION_FILE),
    "classify-ext": _verb(_verb_classify_ext, "decide whether two extensions are equivalent",
                          _required("--ext1"), _required("--ext2")),
    "deform-check": _verb(_verb_deform_check, "verify the deformation equations of a jet", _JET),
    "deform-solve": _verb(_verb_deform_solve, "extend a jet order by order or certify obstructions",
                          _JET, _Flag("--orders", int, 1, at_least=1),
                          _Flag("--emit", help="write the extended jet file here")),
    "rigidity": _verb(_verb_rigidity, "tangent-space dimensions and the rigidity verdict",
                      _ALGEBRA),
    "curvature-check": _verb(_verb_curvature_check,
                             "two-route curvature comparison for a symmetric tensor",
                             _ALGEBRA, _required("--tensor")),
    "graded-check": _verb(_verb_graded_check, "validate a two-graded algebra file", _GRADED),
    "graded-deform": _verb(_verb_graded_deform, "deform the odd part by a square-zero product",
                           _GRADED, _THETA,
                           _Flag("--emit", help="write the deformed algebra file here")),
    "connectionlike": _verb(_verb_connectionlike,
                            "evaluate the defining conditions of a (theta, psi) pair",
                            _GRADED, _THETA, _required("--psi")),
    # --alpha and --beta stay strings that each verb parses itself, so a bad
    # value is an input-error report on the shell path too
    "aff-suite": _verb(_verb_aff_suite, "worked two-dimensional example with its cocycle pencil",
                       _Flag("--alpha", default="1"), _Flag("--beta", default="0")),
    "geodesic": _verb(_verb_geodesic, "integrate the deformed-connection geodesic system",
                      _Flag("--alpha", default="0"), _Flag("--beta", default="0"),
                      _Flag("--x0", float, 0.0), _Flag("--y0", float, 0.0),
                      _Flag("--vx0", float, 1.0), _Flag("--vy0", float, 0.0),
                      _Flag("--t0", float, 0.0), _Flag("--t1", float, 1.0),
                      _Flag("--step", float, 1e-3)),
    "radiant": _verb(_verb_radiant, "solve for right identities", _ALGEBRA),
    "proptest": _verb(_verb_proptest, "seeded random invariant battery",
                      _Flag("--seed", int, 0), _Flag("--count", int, 20, at_least=1)),
    "fixtures": _verb(_verb_fixtures, "emit a named fixture file",
                      _Flag("name", default=_REQUIRED,
                            help=f"one of: {', '.join(fixture_names())}")),
}


def _maybe_emit(job: JobSpec, obj: Any) -> None:
    """Write obj's canonical JSON to the --emit path, when one is given."""
    path = job.options["emit"]
    if path is not None:
        sz.write_text(path, sz.canonical_json(obj))


def _error_report(verb: str, kind: str, message: str, exit_code: int) -> Report:
    body = {
        "format_version": FORMAT_VERSION,
        "verb": verb,
        "error": {"kind": kind, "message": message},
    }
    return Report(verb, exit_code, sz.canonical_json(body), body)


def run(job: JobSpec) -> Report:
    """Execute one job; never raises for input or mathematical trouble.

    The options are checked against the verb's flags in `_VERBS`, keyed as
    the parser stores them ("q_max" for --q-max, "output" for every verb),
    and the handler gets every flag filled in.  Exit 2, naming the flag, for
    an unknown key; a required flag absent, or None where the default is not
    None (an absent flag takes its default); a string an int or float flag
    cannot convert as argparse would ({"count": "5"} runs as --count 5);
    any other value not of the flag's type (a bool is never a number, an int
    is a float, a float is not an int, a str flag takes strings only); and a
    value below the flag's bound.  A verb that is not a known string, or
    options that are not a dict, are exit 2 as well.
    """
    if not isinstance(job.verb, str) or job.verb not in _VERBS:
        return _error_report(str(job.verb), "input", f"unknown verb {job.verb!r}", _EXIT_INPUT)
    handler, _, flags = _VERBS[job.verb]
    inputs: dict = {}
    parameters: dict = {}
    results: dict = {}
    try:
        if not isinstance(job.options, dict):
            raise InputError(f"the options must be a dict, got {type(job.options).__name__}")
        known = {flag.key for flag in flags}
        for key in job.options:
            if key not in known:
                raise InputError(f"unknown option {key!r} for {job.verb}")
        filled = JobSpec(job.verb, {flag.key: flag.read(job.options) for flag in flags})
        outcome = handler(filled, inputs, parameters, results)
    except (_MathFailure, PreconditionError) as exc:
        # A _MathFailure may carry the results gathered before it.
        results = getattr(exc, "results", None) or results
        outcome = False, str(exc)
    except BudgetError as exc:
        return _error_report(job.verb, "budget", str(exc), _EXIT_BUDGET)
    except (InputError, DimensionError) as exc:
        return _error_report(job.verb, "input", str(exc), _EXIT_INPUT)
    if isinstance(outcome, str):
        # raw artifact (CSV trajectory or fixture file)
        return Report(job.verb, _EXIT_OK, outcome, None)
    verdict, witness = outcome
    body = {
        "format_version": FORMAT_VERSION,
        "verb": job.verb,
        "inputs": inputs,
        "parameters": parameters,
        "results": results,
        "verdict": verdict,
    }
    if witness is not None:
        body["witness"] = witness
    exit_code = _EXIT_OK if verdict in (True, None) else _EXIT_MATH
    return Report(job.verb, exit_code, sz.canonical_json(body), body)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvcohom",
        description=(
            "Exact cohomology, extensions, deformations, and flat-connection "
            "geometry of Koszul-Vinberg algebras."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (_, help_text, flags) in _VERBS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            kwargs: dict = {"help": flag.help}
            if flag.type is not str:
                kwargs["type"] = flag.type
            if flag.default is _REQUIRED and flag.spelling.startswith("-"):
                kwargs["required"] = True
            p.add_argument(flag.spelling, **kwargs)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    options = {k: v for k, v in vars(ns).items() if k != "verb" and v is not None}
    report = run(JobSpec(ns.verb, options))
    output = options.get("output")
    if output is not None:
        try:
            sz.write_text(output, report.text)
        except InputError as exc:
            sys.stderr.write(f"{exc}\n")
            return _EXIT_INPUT
    else:
        sys.stdout.write(report.text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
