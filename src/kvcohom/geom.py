"""Desk-scale geometric examples: the affine-line algebra and its cocycle
pencil, geodesics of the deformed connections, and radiant primitives.

Everything algebraic here stays in exact rational arithmetic.  The one
deliberate exception is geodesic integration, which runs in floating point:
the trajectories of the deformed connections are transcendental, so this is
the only corner of the package where answers carry tolerances instead of
being exact.

Three groups of tools live here.

* ``aff_algebra`` / ``s_alpha_beta`` / ``pencil_suite``: the 2-dimensional
  algebra of the affine line together with a two-parameter pencil of
  symmetric 2-cochains.  For every parameter choice the pencil member is a
  cocycle whose self-bracket vanishes, so the deformed products
  ``deformed_connection(alpha, beta, t)`` satisfy the KV identity at every
  evaluation point t, not just formally.

* ``GeodesicProblem`` / ``integrate_geodesic`` and friends: the geodesic
  flow of the t = 1 deformed connection, reduced to first order and driven
  by a classical fixed-step fourth-order integrator with blow-up detection.
  Solutions of the first coordinate have the closed form exposed as
  ``closed_form_x``; the second coordinate carries a power law in the
  affine clock s = (alpha/2) t + u whose exponent ``y_power_law_fit``
  recovers from samples.

* ``find_radiant`` / ``radiant_primitive``: an element H with a H = a for
  every a makes any parallel 2-cochain g exact, with explicit primitive
  theta(a) = g(H, a).  The solver returns the full affine solution set for
  H, and the primitive constructor checks every hypothesis before it
  builds theta, for which delta theta = -g.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .complexes import Cochain, coboundary, is_coboundary
from .core import (
    Element,
    KVAlgebra,
    KVModule,
    Tensor3,
    _derivation_failure,
    _product_lists,
    is_module,
    tensor3,
)
from .deform import bilinear_cochain, kv_bracket
from .errors import (
    DegenerateFitError,
    DimensionError,
    InputError,
    PreconditionError,
)
from .fixtures import aff
from .linalg import Mat, RatLike, Subspace, Vec, kernel, solve, vec

__all__ = [
    "aff_algebra",
    "s_alpha_beta",
    "PencilReport",
    "pencil_suite",
    "deformed_connection",
    "GeodesicProblem",
    "Trajectory",
    "REACHED_END",
    "BLOW_UP",
    "STEP_UNDERFLOW",
    "integrate_geodesic",
    "closed_form_x",
    "y_power_law_fit",
    "RadiantSolutions",
    "find_radiant",
    "radiant_primitive",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Width to which a blow-up time is bracketed by step halving.
_REFINE_WIDTH = 1e-6


# ---------------------------------------------------------------------------
# The affine-line algebra and its cocycle pencil.
# ---------------------------------------------------------------------------


def aff_algebra() -> KVAlgebra:
    """The 2-dim algebra with e1 e2 = e2 and every other basis product zero.

    Its commutator bracket is [e1, e2] = e2 (the affine-line Lie algebra)
    and its Jacobi subspace is span{e1}.
    """
    return aff()


def _s_tensor(alpha: Fraction, beta: Fraction) -> Tensor3:
    return tensor3(
        [
            [[alpha, beta], [_ZERO, alpha]],
            [[_ZERO, alpha], [_ZERO, _ZERO]],
        ]
    )


def s_alpha_beta(alpha: RatLike, beta: RatLike) -> Cochain:
    """The pencil member S with S(e1,e1) = alpha e1 + beta e2,
    S(e1,e2) = S(e2,e1) = alpha e2 and S(e2,e2) = 0, as a symmetric
    2-cochain on the affine-line algebra with regular coefficients."""
    return bilinear_cochain(aff(), _s_tensor(Fraction(alpha), Fraction(beta)))


@dataclass(frozen=True)
class PencilReport:
    """Verdicts for one member of the cocycle pencil.

    ``cocycle`` and ``square_zero`` hold for every parameter choice.
    ``nontrivial`` is the non-exactness verdict; it is only decided when
    alpha != 0 and is reported as None at alpha = 0, where the member is
    genuinely a coboundary and the claim is out of scope.
    """

    alpha: Fraction
    beta: Fraction
    cochain: Cochain
    cocycle: bool
    square_zero: bool
    nontrivial: Optional[bool]

    @property
    def holds(self) -> bool:
        return self.cocycle and self.square_zero and self.nontrivial is not False


def pencil_suite(alpha: RatLike, beta: RatLike) -> PencilReport:
    """Check one pencil member: closed, self-bracket zero, and (for
    alpha != 0) not exact.  All three verdicts are computed exactly and
    reported, true or false.
    """
    a = Fraction(alpha)
    b = Fraction(beta)
    S = s_alpha_beta(a, b)
    St = _s_tensor(a, b)
    cocycle = coboundary(S).is_zero()
    square = kv_bracket(St, St)
    square_zero = not any(x for plane in square for block in plane for row in block for x in row)
    nontrivial = None if a == 0 else is_coboundary(S) is None
    return PencilReport(a, b, S, cocycle, square_zero, nontrivial)


def deformed_connection(
    alpha: RatLike, beta: RatLike, t: RatLike = 1
) -> KVAlgebra:
    """The product mu + t S for the pencil member S at (alpha, beta).

    Because S is closed with vanishing self-bracket, the result satisfies
    the KV identity for every rational t.
    """
    a = Fraction(alpha)
    b = Fraction(beta)
    tt = Fraction(t)
    base = aff().product
    St = _s_tensor(a, b)
    prod = tensor3(
        [
            [
                [base[i][j][k] + tt * St[i][j][k] for k in range(2)]
                for j in range(2)
            ]
            for i in range(2)
        ]
    )
    return KVAlgebra(dim=2, product=prod)


# ---------------------------------------------------------------------------
# Geodesics of the t = 1 deformed connection.
# ---------------------------------------------------------------------------

REACHED_END = "reached-end"
BLOW_UP = "blow-up"
STEP_UNDERFLOW = "step-underflow"

_TERMINATIONS = (REACHED_END, BLOW_UP, STEP_UNDERFLOW)

Sample = tuple[float, float, float, float, float]


@dataclass(frozen=True)
class GeodesicProblem:
    """Initial value problem for the geodesic system

        2 x'' + alpha (x')^2 = 0,
        2 y'' + beta (x')^2 + (1 + 2 alpha) x' y' = 0,

    integrated from t0 to t1 (either direction).  alpha and beta are kept
    rational; the state is floating point.
    """

    alpha: Fraction
    beta: Fraction
    x0: float
    y0: float
    vx0: float
    vy0: float
    t0: float
    t1: float
    step: float = 1e-3
    blowup_threshold: float = 1e8

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        for name in ("x0", "y0", "vx0", "vy0", "t0", "t1", "step", "blowup_threshold"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.step <= 0:
            raise InputError("step size must be positive")
        if self.blowup_threshold <= 0:
            raise InputError("blow-up threshold must be positive")

    @property
    def initial_state(self) -> tuple[float, float, float, float]:
        return (self.x0, self.y0, self.vx0, self.vy0)


@dataclass(frozen=True)
class Trajectory:
    """Samples (t, x, y, x', y') in integration order, plus how the run
    ended.  ``blowup_time`` is set exactly when termination is blow-up and
    locates the threshold crossing to within the bracketing width."""

    samples: tuple[Sample, ...]
    termination: str
    blowup_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.termination not in _TERMINATIONS:
            raise InputError(f"unknown termination {self.termination!r}")
        if not self.samples:
            raise InputError("a trajectory needs at least one sample")
        times = [s[0] for s in self.samples]
        increasing = all(a < b for a, b in zip(times, times[1:]))
        decreasing = all(a > b for a, b in zip(times, times[1:]))
        if not (increasing or decreasing):
            raise InputError("sample times must be strictly monotone")
        if (self.termination == BLOW_UP) != (self.blowup_time is not None):
            raise InputError("blowup_time is set exactly for blow-up terminations")

    @property
    def final(self) -> Sample:
        return self.samples[-1]


def _rhs(
    a: float, b: float, state: tuple[float, float, float, float]
) -> tuple[float, float, float, float]:
    x, y, vx, vy = state
    return (
        vx,
        vy,
        -0.5 * a * vx * vx,
        -0.5 * b * vx * vx - 0.5 * (1.0 + 2.0 * a) * vx * vy,
    )


def _rk4_step(
    a: float, b: float, state: tuple[float, float, float, float], h: float
) -> tuple[float, float, float, float]:
    k1 = _rhs(a, b, state)
    k2 = _rhs(a, b, tuple(s + 0.5 * h * k for s, k in zip(state, k1)))
    k3 = _rhs(a, b, tuple(s + 0.5 * h * k for s, k in zip(state, k2)))
    k4 = _rhs(a, b, tuple(s + h * k for s, k in zip(state, k3)))
    return tuple(
        s + h / 6.0 * (p + 2.0 * q + 2.0 * r + w)
        for s, p, q, r, w in zip(state, k1, k2, k3, k4)
    )


def _exceeds(state: Sequence[float], threshold: float) -> bool:
    return any(not math.isfinite(c) or abs(c) > threshold for c in state)


#: A step is resolved when one full step and two half steps agree to this
#: relative tolerance; an unresolved step near a pole would otherwise be
#: able to jump across the singularity and land on a finite ghost value.
_RESOLVE_RTOL = 1e-6


def _resolved(
    a: float,
    b: float,
    state: tuple[float, float, float, float],
    h: float,
    trial: tuple[float, float, float, float],
) -> bool:
    mid = _rk4_step(a, b, state, 0.5 * h)
    twice = _rk4_step(a, b, mid, 0.5 * h)
    if any(not math.isfinite(c) for c in twice):
        return False
    err = max(abs(p - q) for p, q in zip(trial, twice))
    scale = max(1.0, max(abs(c) for c in twice))
    return err <= _RESOLVE_RTOL * scale


def integrate_geodesic(problem: GeodesicProblem) -> Trajectory:
    """March the first-order reduction with fixed steps of the requested
    size, dropping into step-halving refinement near a blow-up.

    Every step must pass two gates before it is accepted: the resulting
    state stays under the blow-up threshold, and the step is resolved
    (one full step agrees with two half steps).  The second gate is what
    makes blow-up detection trustworthy: near a pole a single step can
    jump clean across the singularity onto a finite ghost branch, and
    such a step never agrees with its halved version.

    A rejected step is halved and retried.  Blow-up is declared once a
    step of width at most 1e-6 still crosses the threshold, so the
    reported time brackets the crossing to that width.  A step that can
    no longer make floating-point progress on t is reported as step
    underflow, never silently swallowed.
    """
    a = float(problem.alpha)
    b = float(problem.beta)
    threshold = problem.blowup_threshold
    state = problem.initial_state
    if _exceeds(state, threshold):
        raise InputError("initial state already exceeds the blow-up threshold")
    t = problem.t0
    direction = 1.0 if problem.t1 >= problem.t0 else -1.0
    samples: list[Sample] = [(t, *state)]
    h = problem.step

    while (problem.t1 - t) * direction > 0:
        width = min(h, abs(problem.t1 - t))
        if t + direction * width == t:
            return Trajectory(tuple(samples), STEP_UNDERFLOW)
        trial = _rk4_step(a, b, state, direction * width)
        bad = _exceeds(trial, threshold)
        if bad and width <= _REFINE_WIDTH:
            return Trajectory(
                tuple(samples), BLOW_UP, blowup_time=t + direction * width
            )
        if bad or not _resolved(a, b, state, direction * width, trial):
            h = 0.5 * width
            continue
        t = t + direction * width
        state = trial
        samples.append((t, *state))
        if h < problem.step:
            h = min(2.0 * h, problem.step)
    return Trajectory(tuple(samples), REACHED_END)


def closed_form_x(alpha: RatLike, u: RatLike, v: RatLike, t: float) -> float:
    """x(t) = (2/alpha) ln |(alpha/2) t + u| + v, the general solution of
    2 x'' + alpha (x')^2 = 0 for alpha != 0.

    The logarithm has a pole at t = -2u/alpha, which is reported instead
    of returning an infinity.
    """
    a = float(alpha)
    if a == 0.0:
        raise InputError("the logarithmic solution needs alpha != 0")
    s = 0.5 * a * float(t) + float(u)
    if s == 0.0:
        raise InputError(f"logarithmic pole at t = {-2.0 * float(u) / a!r}")
    return (2.0 / a) * math.log(abs(s)) + float(v)


def y_power_law_fit(
    trajectory: Trajectory, alpha: RatLike, beta: RatLike = 0
) -> float:
    """Estimate the exponent of the power-law part of y along a geodesic.

    Along any solution the first coordinate's velocity is the reciprocal
    of the affine clock s = (alpha/2) t + u, so each sample carries its
    own abscissa s = 1/x'.  The velocity y' splits into a 1/s part with
    coefficient -beta/(1+alpha) and a pure power of s; subtracting the
    former (using the supplied beta) leaves the power, whose exponent is
    fitted by least squares in log-log coordinates.  The returned value is
    that exponent plus one: the exponent of the corresponding power-law
    term of the position y itself.
    """
    a = float(Fraction(alpha))
    bcoef = float(Fraction(beta))
    if a == 0.0 or a == -1.0:
        raise InputError("the power-law form needs alpha outside {0, -1}")
    points: list[tuple[float, float]] = []
    for _, _, _, vx, vy in trajectory.samples:
        if vx == 0.0:
            continue
        s = 1.0 / vx
        residual = vy + bcoef / ((1.0 + a) * s)
        if residual == 0.0:
            continue
        points.append((math.log(abs(s)), math.log(abs(residual))))
    try:
        slope, _ = statistics.linear_regression(
            [p[0] for p in points], [p[1] for p in points]
        )
    except statistics.StatisticsError as exc:
        raise DegenerateFitError(
            "the fit window is degenerate: need samples at two distinct "
            "clock values with nonzero power-law residual"
        ) from exc
    return slope + 1.0


# ---------------------------------------------------------------------------
# Radiant elements and primitives of parallel 2-cochains.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiantSolutions:
    """The affine solution set of the system a H = a for all a.

    ``particular`` is one solution (None when the system is unsolvable);
    ``homogeneous`` is the space of H0 with a H0 = 0 for all a, so the
    full solution set is particular + homogeneous.  Truthiness reports
    solvability.
    """

    particular: Optional[Vec]
    homogeneous: Subspace

    def __bool__(self) -> bool:
        return self.particular is not None

    @property
    def unique(self) -> bool:
        return self.particular is not None and self.homogeneous.dim == 0


def find_radiant(A: KVAlgebra) -> RadiantSolutions:
    """Solve e_i H = e_i for all basis elements e_i, exactly."""
    n = A.dim
    if n == 0:
        raise InputError("the radiant system needs a positive dimension")
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(n):
        for k in range(n):
            rows.append([A.product[i][j][k] for j in range(n)])
            rhs.append(_ONE if i == k else _ZERO)
    M = Mat.from_rows(rows, cols=n)
    return RadiantSolutions(solve(M, vec(rhs)), kernel(M))


def radiant_primitive(
    A: KVAlgebra,
    W: KVModule,
    H: Union[Element, Sequence[RatLike]],
    g: Cochain,
) -> Cochain:
    """The primitive theta(a) = g(H, a) of a parallel 2-cochain g, given a
    radiant element H (a H = a for all a).

    W must be a left module (zero right action) verified over A, and g a
    2-cochain with values in W satisfying the parallelism law
    a g(b, c) = g(ab, c) + g(b, ac) for all basis triples.  Under those
    hypotheses delta theta = -g is an identity.
    """
    n = A.dim
    if W.algebra != A:
        raise DimensionError("the module is over a different algebra")
    if any(x != 0 for plane in W.right for row in plane for x in row):
        raise InputError("radiant primitives need a left module (zero right action)")
    verdict = is_module(A, W)
    if not verdict:
        raise PreconditionError(
            f"the coefficients do not form a module: witness {verdict.witness}"
        )
    coords = H.coords if isinstance(H, Element) else vec(H)
    if len(coords) != n:
        raise DimensionError("the radiant candidate has the wrong dimension")
    h = Element(coords)
    for i in range(n):
        e = A.basis_element(i)
        if A.mul(e, h) != e:
            raise PreconditionError(
                f"H is not radiant: e_{i + 1} H differs from e_{i + 1}"
            )
    if g.degree != 2 or g.algebra != A or g.module != W:
        raise InputError("expected a 2-cochain with values in the given module")
    m = W.dim
    gam = _product_lists(A.product)[0]
    g_tensor = tuple(tuple(g.value((b, c)) for c in range(n)) for b in range(n))
    failure = _derivation_failure(g_tensor, gam, gam, _product_lists(W.left)[0])
    if failure is not None:
        i, bdx, cdx = failure
        raise PreconditionError(
            "the 2-cochain is not parallel: direction "
            f"e_{i + 1} fails at ({bdx + 1},{cdx + 1})"
        )
    values: list[Fraction] = []
    for adx in range(n):
        for be in range(m):
            values.append(
                sum(coords[j] * g.value((j, adx))[be] for j in range(n))
            )
    return Cochain(A, W, 1, tuple(values))
