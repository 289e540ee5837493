"""Two-graded KV-algebras with odd left-module part, and their deformations.

A graded algebra here is G = A + W with A a KV algebra, W a left module
(right action identically zero), and total product (a,w)(a',w') = (aa', aw').
Deforming the product by a bilinear map theta on the odd part,

    (a,w)(a',w') = (aa', aw' + theta(w,w')),

yields a KV algebra exactly when theta obeys the derivation rule

    a theta(w,w') = theta(aw,w') + theta(w,aw')

and the theta-associator (w,w',w'')_theta is symmetric in its first two
arguments (a "KV-chain"); `is_theta_cocycle` and `is_kv_chain` decide
the two conditions.  A connectionlike pair stores the two admissible
components of a 2-cochain on G — theta on the odd-odd slots and a
symmetric psi on the mixed slots — and `is_connectionlike` evaluates the
defining conditions together with the closedness system from the
correspondence proof, reporting every condition separately (the
compatibility condition is evaluated in both printed orientations, which
genuinely differ).

Every condition is scanned from the nonzero constants of theta, psi and
the two products, with the scans `core` shares among the layers: the
chain symmetry is the associator scan behind `is_kv`, and the derivation
rule and the even flow rule are one derivation-rule scan, with theta and
psi in the place of the bilinear map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .complexes import Cochain, coboundary
from .core import (
    CheckResult,
    KVAlgebra,
    KVModule,
    Tensor3,
    _check_shape,
    _derivation_failure,
    _product_lists,
    _symmetry_failure,
    _two_step,
    is_kv,
    is_module,
    regular_bimodule,
    semidirect,
    tensor3,
)
from .errors import DimensionError, InputError, PreconditionError

__all__ = [
    "GradedKVAlgebra",
    "ConnectionlikePair",
    "ConnectionlikeReport",
    "ExtractionResult",
    "graded_component",
    "is_kv_chain",
    "is_theta_cocycle",
    "is_connectionlike",
    "deform_graded",
    "embed_theta",
    "cocycle_from_connectionlike",
    "connectionlike_from_cocycle",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class GradedKVAlgebra:
    """G = A + W with even part A and odd left-module part W (W . A = 0)."""

    even: KVAlgebra
    odd: KVModule

    def __post_init__(self) -> None:
        if self.odd.algebra != self.even:
            raise DimensionError("odd part is not a module over the even part")
        for plane in self.odd.right:
            for row in plane:
                if any(x != 0 for x in row):
                    raise InputError(
                        "the odd part must have zero right action (W . A = 0)"
                    )
        verdict = is_kv(self.even)
        if not verdict:
            raise PreconditionError(
                f"even part is not a KV algebra: witness {verdict.witness}"
            )
        verdict = is_module(self.even, self.odd)
        if not verdict:
            raise PreconditionError(
                f"odd part is not a verified module: {verdict.detail}"
            )
        total_verdict = is_kv(self.total())
        if not total_verdict:
            raise PreconditionError(
                f"total product is not KV: witness {total_verdict.witness}"
            )

    @property
    def n(self) -> int:
        return self.even.dim

    @property
    def m(self) -> int:
        return self.odd.dim

    @property
    def dim(self) -> int:
        return self.n + self.m

    def total(self) -> KVAlgebra:
        """The underlying ungraded algebra on A + W (even block first)."""
        return semidirect(self.even, self.odd)

    def parity_of_index(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise InputError(f"basis index {i} out of range")
        return 0 if i < self.n else 1


def graded_component(G: GradedKVAlgebra, f: Cochain, r: int, s: int, p: int) -> Cochain:
    """The piece of f with r even arguments, s odd arguments, value parity p.

    f must be a cochain over the total algebra with values split the same
    way (e.g. regular coefficients).  Pieces over all (r, s, p) with
    r + s = degree sum back to f.
    """
    total = G.total()
    if f.algebra != total:
        raise DimensionError("cochain does not live over this graded algebra")
    if f.module != regular_bimodule(total):
        raise InputError(
            "graded components need regular coefficients (values in G itself)"
        )
    if r < 0 or s < 0 or p not in (0, 1):
        raise InputError("component indices must be non-negative with parity 0 or 1")
    n = G.n
    vals = list(f.values)
    if r + s != f.degree:
        return Cochain.zero(f.algebra, f.module, f.degree)
    for args in itertools.product(range(G.dim), repeat=f.degree):
        odd = sum(1 for a in args if a >= n)
        off = f.offset(args)
        if odd != s:
            for t in range(f.m):
                vals[off + t] = _ZERO
        else:
            lo, hi = (n, G.dim) if p == 0 else (0, n)
            for t in range(lo, hi):
                vals[off + t] = _ZERO
    return Cochain(f.algebra, f.module, f.degree, tuple(vals))


def is_kv_chain(theta: Tensor3) -> CheckResult:
    """Symmetry of the theta-associator in its first two arguments.

    (w,w',w'')_theta = theta(theta(w,w'),w'') - theta(w,theta(w',w''));
    the verdict carries the first failing basis triple.
    """
    m = len(theta)
    _check_shape(theta, m, m, m, "theta")
    failure = _symmetry_failure(theta)
    if failure is None:
        return CheckResult(True)
    a, b, c = failure
    return CheckResult(
        False,
        witness=failure,
        detail=f"theta-associator is not symmetric on the basis triple ({a},{b},{c})",
    )


def embed_theta(G: GradedKVAlgebra, theta: Tensor3) -> Cochain:
    """theta as a 2-cochain over the total algebra with regular coefficients."""
    _check_shape(theta, G.m, G.m, G.m, "theta")
    total = G.total()
    W = regular_bimodule(total)
    n, N = G.n, G.dim

    def fn(args):
        x, y = args
        out = [_ZERO] * N
        if x >= n and y >= n:
            for ga in range(G.m):
                out[n + ga] = theta[x - n][y - n][ga]
        return out

    return Cochain.from_function(total, W, 2, fn)


def is_theta_cocycle(G: GradedKVAlgebra, theta: Tensor3) -> CheckResult:
    """The derivation rule a theta(w,w') = theta(aw,w') + theta(w,aw').

    The rule is evaluated directly on basis triples (e_i, w_al, w_be) in
    lexicographic order; the verdict carries the first failing triple.  Its
    defect is what the coboundary of `embed_theta` places, with opposite
    signs, on the two mixed argument patterns (e_i, w, w') and (w, e_i, w'),
    and nothing anywhere else.
    """
    _check_shape(theta, G.m, G.m, G.m, "theta")
    left = _product_lists(G.odd.left)[0]
    failure = _derivation_failure(theta, left, left, left)
    if failure is None:
        return CheckResult(True)
    i, al, be = failure
    return CheckResult(
        False,
        witness=failure,
        detail=f"derivation rule fails at (e_{i+1}, w_{al+1}, w_{be+1})",
    )


@dataclass(frozen=True)
class ConnectionlikePair:
    """The two admissible components of a 2-cochain on a graded algebra.

    theta: W x W -> W on the odd-odd slots; psi: A x W -> A stored once and
    read symmetrically (psi(w,a) := psi(a,w)).
    """

    theta: Tensor3
    psi: Tensor3

    def is_zero(self) -> bool:
        return not any(x for p in self.theta for r in p for x in r) and not any(
            x for p in self.psi for r in p for x in r
        )


@dataclass(frozen=True)
class ConnectionlikeReport:
    """Per-condition verdicts; `holds` is the defining-conditions conjunction.

    The compatibility condition between theta and psi is reported in both
    printed orientations: `theta_psi_compat` reads
    psi(theta(w,w'),a) = psi(w, psi(w',a)) and `theta_psi_compat_alt` reads
    psi(a, theta(w',w'')) = psi(psi(a,w'),w'').  `flow_rule_even` is the
    closedness condition a psi(a',w) = psi(aa',w) + psi(a',aw), and
    `derivation_rule` restates the theta-cocycle rule: it is the same
    verdict as `theta_cocycle`, witness and detail included.
    """

    psi_symmetric: CheckResult
    theta_cocycle: CheckResult
    theta_psi_compat: CheckResult
    theta_psi_compat_alt: CheckResult
    flow_rule_even: CheckResult
    derivation_rule: CheckResult
    degenerate: bool

    @property
    def holds(self) -> bool:
        return bool(
            self.psi_symmetric and self.theta_cocycle and self.theta_psi_compat
        )


def is_connectionlike(G: GradedKVAlgebra, pair: ConnectionlikePair) -> ConnectionlikeReport:
    """Evaluate every defining and closedness condition of the pair, exactly.

    Each condition is scanned in lexicographic order of its basis triple
    from the nonzero constants of theta, psi and the two products.
    """
    n, m = G.n, G.m
    _check_shape(pair.theta, m, m, m, "theta")
    _check_shape(pair.psi, n, m, n, "psi")
    T = _product_lists(pair.theta)[0]
    P, P_t = _product_lists(pair.psi)

    psi_symmetric = CheckResult(
        True, detail="psi is stored once; both slot orders read the same tensor"
    )
    theta_cocycle = is_theta_cocycle(G, pair.theta)

    # (c3) as defined: psi(theta(w,w'), a) = psi(w, psi(w',a)).
    compat = CheckResult(True)
    for al, be, i in itertools.product(range(m), range(m), range(n)):
        if _two_step((False, T[al][be], P[i]), (True, P[i][be], P_t[al])):
            compat = CheckResult(
                False,
                witness=(al, be, i),
                detail=(
                    f"psi(theta(w_{al+1},w_{be+1}),e_{i+1}) != "
                    f"psi(w_{al+1},psi(w_{be+1},e_{i+1}))"
                ),
            )
            break

    # the other printed orientation: psi(a, theta(w',w'')) = psi(psi(a,w'),w'').
    compat_alt = CheckResult(True)
    for i, be, ga in itertools.product(range(n), range(m), range(m)):
        if _two_step((False, T[be][ga], P[i]), (True, P[i][be], P_t[ga])):
            compat_alt = CheckResult(
                False,
                witness=(i, be, ga),
                detail=(
                    f"psi(e_{i+1},theta(w_{be+1},w_{ga+1})) != "
                    f"psi(psi(e_{i+1},w_{be+1}),w_{ga+1})"
                ),
            )
            break

    # closedness on the even flow: a psi(a',w) = psi(aa',w) + psi(a',aw).
    gam = _product_lists(G.even.product)[0]
    failure = _derivation_failure(pair.psi, gam, _product_lists(G.odd.left)[0], gam)
    flow = CheckResult(True)
    if failure is not None:
        i, j, ga = failure
        flow = CheckResult(
            False,
            witness=failure,
            detail=(
                f"a psi(a',w) != psi(aa',w) + psi(a',aw) at "
                f"(e_{i+1},e_{j+1},w_{ga+1})"
            ),
        )

    return ConnectionlikeReport(
        psi_symmetric=psi_symmetric,
        theta_cocycle=theta_cocycle,
        theta_psi_compat=compat,
        theta_psi_compat_alt=compat_alt,
        flow_rule_even=flow,
        derivation_rule=theta_cocycle,
        degenerate=pair.is_zero(),
    )


def deform_graded(G: GradedKVAlgebra, theta: Tensor3) -> KVAlgebra:
    """The algebra with product (a,w)(a',w') = (aa', aw' + theta(w,w')).

    The returned product passes is_kv exactly when theta satisfies the
    derivation rule (`is_theta_cocycle`) and is a KV-chain (`is_kv_chain`).
    """
    _check_shape(theta, G.m, G.m, G.m, "theta")
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


def cocycle_from_connectionlike(G: GradedKVAlgebra, pair: ConnectionlikePair) -> Cochain:
    """The 2-cochain over the total algebra carrying exactly the pair.

    theta occupies the odd-odd slots with odd values; psi occupies both
    mixed slots (symmetrically) with even values.
    """
    _check_shape(pair.theta, G.m, G.m, G.m, "theta")
    _check_shape(pair.psi, G.n, G.m, G.n, "psi")
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


@dataclass(frozen=True)
class ExtractionResult:
    """Outcome of reading a connectionlike pair off a 2-cochain."""

    pair: Optional[ConnectionlikePair]
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.pair is not None


def connectionlike_from_cocycle(G: GradedKVAlgebra, c: Cochain) -> ExtractionResult:
    """Extract (theta, psi) from a 2-cochain over the total algebra.

    Succeeds when the cochain is supported on exactly the two admissible
    components, its mixed part is symmetric, it is a cocycle, and its
    odd-odd part is a KV-chain; otherwise the reason names the first
    failure.
    """
    total = G.total()
    if c.degree != 2 or c.algebra != total or c.module != regular_bimodule(total):
        raise InputError(
            "expected a 2-cochain over the graded total algebra with regular "
            "coefficients"
        )
    n, m, N = G.n, G.m, G.dim
    for args in itertools.product(range(N), repeat=2):
        x, y = args
        odd = sum(1 for a in args if a >= n)
        val = c.value(args)
        even_part = val[:n]
        odd_part = val[n:]
        if odd == 2:
            if any(v != 0 for v in even_part):
                return ExtractionResult(
                    None, f"even-valued component on the odd-odd slot {args}"
                )
        elif odd == 1:
            if any(v != 0 for v in odd_part):
                return ExtractionResult(
                    None, f"odd-valued component on the mixed slot {args}"
                )
        else:
            if any(v != 0 for v in val):
                return ExtractionResult(
                    None, f"component on the even-even slot {args}"
                )
    for i in range(n):
        for al in range(m):
            if c.value((i, n + al))[:n] != c.value((n + al, i))[:n]:
                return ExtractionResult(
                    None,
                    f"mixed part is not symmetric at (e_{i+1}, w_{al+1})",
                )
    if not coboundary(c).is_zero():
        return ExtractionResult(None, "the cochain is not a cocycle")
    theta = tensor3(
        [
            [list(c.value((n + al, n + be))[n:]) for be in range(m)]
            for al in range(m)
        ]
    )
    chain = is_kv_chain(theta)
    if not chain:
        return ExtractionResult(
            None, f"odd-odd part is not a KV-chain: witness {chain.witness}"
        )
    psi = tensor3(
        [
            [list(c.value((i, n + al))[:n]) for al in range(m)]
            for i in range(n)
        ]
    )
    return ExtractionResult(ConnectionlikePair(theta=theta, psi=psi))
