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

Every condition is a term spec for the one scatter kernel of `core`,
`_sparse4`, scattered from the nonzero constants of theta, psi and the two
products as integers, with the witness its first key: the chain symmetry
is the A_00 spec behind `is_kv`, the derivation rule and the even flow
rule are one derivation-rule scan (`core._derivation_failure`, with theta
and psi in the place of the bilinear map and the actions read from the odd
module's integer view), and the two compatibility scans read theta and psi
over one scale; `is_connectionlike` lists theta once, for those scans and
for its theta-cocycle rule.  `connectionlike_from_cocycle` reads the value
range each (x, y) slot must leave zero from one table indexed by the
number of odd arguments, and the two components from the block layout of
`core`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .complexes import Cochain, is_cocycle
from .core import (
    CheckResult,
    KVAlgebra,
    KVModule,
    Tensor3,
    _block,
    _blocks,
    _check_shape,
    _derivation_failure,
    _entries,
    _first,
    _int_lists,
    _pair_terms,
    _require,
    _scaled_lists,
    _shaped,
    _sparse4,
    _verdict,
    _view,
    is_kv,
    is_module,
    regular_bimodule,
    semidirect,
    tensor3,
)
from .errors import DimensionError, InputError

__all__ = [
    "GradedKVAlgebra",
    "ConnectionlikePair",
    "ConnectionlikeReport",
    "ExtractionResult",
    "is_kv_chain",
    "is_theta_cocycle",
    "is_connectionlike",
    "deform_graded",
    "cocycle_from_connectionlike",
    "connectionlike_from_cocycle",
]


@dataclass(frozen=True)
class GradedKVAlgebra:
    """G = A + W with even part A and odd left-module part W (W . A = 0)."""

    even: KVAlgebra
    odd: KVModule

    def __post_init__(self) -> None:
        if self.odd.algebra != self.even:
            raise DimensionError("odd part is not a module over the even part")
        if any(_entries(self.odd.right, 3)):
            raise InputError("the odd part must have zero right action (W . A = 0)")
        _require(is_kv(self.even), "even part is not a KV algebra: witness {witness}")
        _require(is_module(self.even, self.odd), "odd part is not a verified module: {detail}")
        # The total is then KV: an associator with two W arguments vanishes,
        # and the others are those of is_kv(A) and of the two module identities.
        # Not a field: equality, hash and repr stay those of (even, odd).
        object.__setattr__(self, "_total", semidirect(self.even, self.odd))

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
        """The underlying ungraded algebra on A + W (even block first), built
        once per object."""
        return self._total


def is_kv_chain(theta: Tensor3) -> CheckResult:
    """Symmetry of the theta-associator in its first two arguments.

    (w,w',w'')_theta = theta(theta(w,w'),w'') - theta(w,theta(w',w''));
    the verdict carries the first failing basis triple.
    """
    m = len(theta)
    _check_shape(theta, m, m, m, "theta")
    # A_00 of `core._pair_terms`, with theta in the place of the product
    failure = _first(_sparse4((m, m, m), _pair_terms(_scaled_lists(_int_lists(theta))[1], [(0, 0)])))
    return _verdict(failure, "theta-associator is not symmetric on the basis triple ({},{},{})".format)


def _regular_cochain(G: GradedKVAlgebra, *blocks: tuple[Tensor3, int, int, int]) -> Cochain:
    """The 2-cochain over the total algebra, with regular coefficients, whose
    value on (e_x, e_y) is row [x][y] of the block tensor `core._blocks` lays
    out on G x G x G.  The blocks are caller tensors, so they are coerced to
    Fractions first."""
    total = G.total()
    N = G.dim
    coerced = [(tensor3(t), o1, o2, o3) for t, o1, o2, o3 in blocks]
    return Cochain(total, regular_bimodule(total), 2, _entries(_blocks(N, N, N, *coerced), 3))


def is_theta_cocycle(G: GradedKVAlgebra, theta: Tensor3) -> CheckResult:
    """The derivation rule a theta(w,w') = theta(aw,w') + theta(w,aw').

    The rule is evaluated directly on basis triples (e_i, w_al, w_be) in
    lexicographic order; the verdict carries the first failing triple.  Its
    defect is what the coboundary of theta, as a 2-cochain over the total
    algebra with regular coefficients, places with opposite signs on the
    two mixed argument patterns (e_i, w, w') and (w, e_i, w'), and nothing
    anywhere else.
    """
    _check_shape(theta, G.m, G.m, G.m, "theta")
    return _theta_rule(G, _int_lists(theta)[1])


def _theta_rule(G: GradedKVAlgebra, T: tuple) -> CheckResult:
    """The verdict of `is_theta_cocycle` from the nonzero lists T of theta,
    over any one scale, as `_int_lists` or `_scaled_lists` gives them."""
    view = _view(G.odd)
    return _verdict(
        _derivation_failure(T, view.left, view.left, view.left_t),
        lambda i, al, be: f"derivation rule fails at (e_{i+1}, w_{al+1}, w_{be+1})",
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
        return not any(_entries(self.theta, 3)) and not any(_entries(self.psi, 3))


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
    # theta and psi over one scale, so both terms of a scan carry its square
    _, ((T, _), (P, P_t)) = _scaled_lists(_int_lists(pair.theta), _int_lists(pair.psi))
    # an empty even axis would lose the odd one in the transpose
    P_t = P_t or ((),) * m

    psi_symmetric = CheckResult(
        True, detail="psi is stored once; both slot orders read the same tensor"
    )
    theta_cocycle = _theta_rule(G, T)
    # (c3) as defined: psi(theta(w,w'), a) = psi(w, psi(w',a)), at (al, be, i)
    compat = _verdict(
        _first(_sparse4((m, m, n), ((False, T, P_t, (0, 1, 2)), (True, P, P, (2, 1, 0))))),
        lambda al, be, i: f"psi(theta(w_{al+1},w_{be+1}),e_{i+1}) != psi(w_{al+1},psi(w_{be+1},e_{i+1}))",
    )
    # the other printed orientation: psi(a, theta(w',w'')) = psi(psi(a,w'),w''), at (i, be, ga)
    compat_alt = _verdict(
        _first(_sparse4((n, m, m), ((False, T, P_t, (1, 2, 0)), (True, P, P, (0, 1, 2))))),
        lambda i, be, ga: f"psi(e_{i+1},theta(w_{be+1},w_{ga+1})) != psi(psi(e_{i+1},w_{be+1}),w_{ga+1})",
    )
    # closedness on the even flow: a psi(a',w) = psi(aa',w) + psi(a',aw)
    view = _view(G.odd)
    flow = _verdict(
        _derivation_failure(P, view.gam, view.left, view.gam_t),
        lambda i, j, ga: f"a psi(a',w) != psi(aa',w) + psi(a',aw) at (e_{i+1},e_{j+1},w_{ga+1})",
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
    n, N = G.n, G.dim
    # The total product vanishes on the odd-odd block, where theta, a caller
    # tensor coerced to Fractions, goes.
    return KVAlgebra(
        dim=N, product=_blocks(N, N, N, (G.total().product, 0, 0, 0), (tensor3(theta), n, n, n))
    )


def cocycle_from_connectionlike(G: GradedKVAlgebra, pair: ConnectionlikePair) -> Cochain:
    """The 2-cochain over the total algebra carrying exactly the pair.

    theta occupies the odd-odd slots with odd values; psi occupies both
    mixed slots (symmetrically) with even values.
    """
    _check_shape(pair.theta, G.m, G.m, G.m, "theta")
    _check_shape(pair.psi, G.n, G.m, G.n, "psi")
    n = G.n
    psi_swapped = tuple(zip(*pair.psi))  # psi(w, a) := psi(a, w)
    return _regular_cochain(G, (pair.theta, n, n, n), (pair.psi, 0, n, 0), (psi_swapped, n, 0, 0))


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
    table = _shaped(c.values, N, N, N)
    # by the number of odd arguments: the value coordinates that must vanish
    slots = (
        (0, N, "component on the even-even slot"),
        (n, N, "odd-valued component on the mixed slot"),
        (0, n, "even-valued component on the odd-odd slot"),
    )
    for x, y in itertools.product(range(N), repeat=2):
        lo, hi, what = slots[(x >= n) + (y >= n)]
        if any(table[x][y][lo:hi]):
            return ExtractionResult(None, f"{what} {(x, y)}")
    psi = _block(table, 0, n, 0, n, m, n)
    psi_swapped = _block(table, n, 0, 0, m, n, n)
    for i in range(n):
        for al in range(m):
            if psi[i][al] != psi_swapped[al][i]:
                return ExtractionResult(
                    None,
                    f"mixed part is not symmetric at (e_{i+1}, w_{al+1})",
                )
    if not is_cocycle(c):
        return ExtractionResult(None, "the cochain is not a cocycle")
    theta = tensor3(_block(table, n, n, n, m, m, m))
    chain = is_kv_chain(theta)
    if not chain:
        return ExtractionResult(
            None, f"odd-odd part is not a KV-chain: witness {chain.witness}"
        )
    return ExtractionResult(ConnectionlikePair(theta=theta, psi=tensor3(psi)))
