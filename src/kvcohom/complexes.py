"""The intrinsic cochain complex of a KV algebra with bimodule coefficients.

Degree-q cochains are dense q-linear maps A^q -> W.  The coboundary of a
q-cochain f evaluates, for arguments a_1, ..., a_{q+1}, to

    sum_{j=1}^{q} (-1)^j [ a_j . f(a_1,...,^a_j,...,a_{q+1})
        - sum_{s != j} f(a_1,...,^a_j,..., a_j a_s in slot s, ..., a_{q+1})
        + f(a_1,...,^a_j,...,a_q, a_j) . a_{q+1} ]

where ^a_j means that argument is omitted, the middle sum runs over every
remaining slot including the last, and the final term moves a_j into the
last argument slot before acting with a_{q+1} on the right.

Degree 0 is special: the degree-0 cochain space is the Jacobi subspace J(W)
(the elements w with (a,b,w) = 0 for all a, b), and (delta w)(a) = -aw + wa.
Outside J(W) the complex property delta(delta w) = 0 genuinely fails, which
is why admission is guarded.

Each differential is assembled from the nonzero structure constants, once,
straight into the integer rows of D times its matrix, D the lcm of the
constants' denominators: that multiple has the kernel, image and rank of
the differential, so elimination reads the rows as they are, and the
right-hand side of a solve is multiplied by D instead.  The constants come
from the module's integer view (`core._view`: the algebra's product and
both actions times D, listed once per object), and the assembler
scatters them: it groups the output tuples by the slot values a constant
reads, then adds each nonzero constant into the rows of its group, so no
work is spent on constants that are zero.  The public matrices
(`coboundary_matrix`, `nijenhuis_matrices`) are the same rows with each
entry divided by D once.

The cochain route keeps the same integer contract: `_coboundary_sums`
reads the same view and the nonzero values of its cochain times d, the lcm
of their denominators, sums Python ints and returns only the nonzero sums;
`coboundary` divides each by D * d once, and `is_cocycle` (with the
cocycle checks of `deform`, `geom` and `graded`) asks only whether any is
left.  It follows the nonzeros of the cochain and never makes a dense pass
of its own.

In degree 2 the coboundary is antisymmetric in its first two arguments,

    (delta f)(b, a, c) = -(delta f)(a, b, c)

for every bilinear f and every module, with no KV identity used: at q = 2
the formula has exactly the two summands j = 1 and j = 2, and swapping a_1
and a_2 swaps them while their signs (-1)^j differ.  So the rows of D times
delta_2 at (b, a, c) are the negated rows at (a, b, c), the rows at
(a, a, c) are empty, and the rows at the a < b output tuples
(`_pair_outputs`) have the same row space, hence the same reduced row
echelon form, kernel and free-variables-zero solutions.  This module alone
makes that cut.  Where delta_2 is only eliminated for its kernel, `_rows`
assembles those rows: the top degree of `cohomology` when q_max = 2 and
`deform.rigidity_report`.  Where it is solved against, `_ClassRows` does,
behind `is_coboundary` on a 3-cochain and the next-order solver of
`deform`; a right-hand side is first checked to be antisymmetric on its
nonzeros (`_pair_rhs`), and one that is not lies outside the image.  Where
delta_2 also serves as the previous differential, whose image is needed,
its full rows are kept.

The coboundary also preserves a weight grading read off the structure
constants.  Weights w on A's basis and mu on W's (`core._weights`) solve
w_i + w_j = w_k for every nonzero product constant and w_i + mu_be = mu_ga
for every nonzero action constant; each is an integer tuple over a basis
of those solutions, so equal tuples mean equal weights at a generic one.
The coordinate (a_1, ..., a_q; ga) has the weight mu_ga - sum_i w_{a_i},
and every term of the formula keeps it: an action adds w_i to mu_be, and a
product e_i e_s lands on basis vectors of weight w_i + w_s.  So each
differential is block diagonal over the weight classes, and a solve needs
only the rows of the classes its right-hand side touches (`_ClassRows`,
behind `is_coboundary` from degree 2 on, which the equivalence verdicts of
`extensions` ask, and the next-order solver of `deform`): the output
tuples of those classes are assembled through the `outputs` argument of
`_coboundary_rows`, the rows (output, ga) outside them are dropped, and
one `_solve` runs on the rest.  The answer is the same vector: the
free-variables-zero solution is 0 in every untouched class, and in each
touched class it is that block's own solution, since the reduced row
echelon form of a block-diagonal system is the union of its blocks'.  The left kernel splits the same way, and its vectors in an
untouched class pair to 0 with the right-hand side, so the first basis
vector that does not, the next-order certificate, is found among the
full rows of the touched classes.  An input with no grading has one
class and keeps every row.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    Element,
    KVAlgebra,
    KVModule,
    _module_view,
    _require,
    _weights,
    is_kv,
    is_module,
    jacobi_module,
)
from .errors import BudgetError, DimensionError, InputError, PreconditionError
from .linalg import (
    IntRow,
    Mat,
    RatLike,
    Subspace,
    Vec,
    _combine,
    _image,
    _kernel,
    _quotient,
    _rank,
    _separating,
    _solve,
    extend_basis,
    rat,
    vec,
)

__all__ = [
    "Cochain",
    "DegreeData",
    "CohomologyReport",
    "DEFAULT_ENTRY_BUDGET",
    "ENTRY_BUDGET_ENV",
    "entry_budget",
    "check_budget",
    "coboundary",
    "coboundary0",
    "coboundary_matrix",
    "cohomology",
    "is_cocycle",
    "is_coboundary",
    "nijenhuis_matrices",
    "nijenhuis_cohomology",
]

_ZERO = Fraction(0)

DEFAULT_ENTRY_BUDGET = 10**7
ENTRY_BUDGET_ENV = "KVCOHOM_ENTRY_BUDGET"

# Output tuples per chunk of `_coboundary_rows`: small enough that the rows
# a chunk scatters into stay close together in memory, large enough that
# the differentials of small algebras come in one chunk.
_CHUNK = 256


def entry_budget(override: Optional[int] = None) -> int:
    """The per-degree cochain-table cell budget, which must be positive.

    ``override`` wins when given; otherwise the environment variable, and
    otherwise the default.
    """
    if override is not None:
        value, source = override, "the budget"
    else:
        raw = os.environ.get(ENTRY_BUDGET_ENV)
        if raw is None:
            return DEFAULT_ENTRY_BUDGET
        try:
            value = int(raw)
        except ValueError as exc:
            raise InputError(f"{ENTRY_BUDGET_ENV} must be an integer, got {raw!r}") from exc
        source = ENTRY_BUDGET_ENV
    if value <= 0:
        raise InputError(f"{source} must be positive, got {value}")
    return value


def check_budget(n: int, m: int, q: int, budget: Optional[int] = None) -> int:
    """Cells of the degree-q table, raising BudgetError when over budget."""
    return _check_cells(q, n**q * m, budget)


def _check_cells(degree: int, cells: int, budget: Optional[int] = None) -> int:
    limit = entry_budget(budget)
    if cells > limit:
        raise BudgetError(degree, cells, limit)
    return cells


def _flat(args: Sequence[int], n: int) -> int:
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


@dataclass(frozen=True)
class Cochain:
    """A dense q-linear map A^q -> W in the flattened basis.

    values[(sum_t i_t n^(q-t)) * m + beta] is the w_beta-coordinate of the
    value on the basis tuple (e_{i_1}, ..., e_{i_q}).  A degree-0 cochain is
    just an element of W (and belongs to the complex only inside J(W)).
    """

    algebra: KVAlgebra
    module: KVModule
    degree: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise InputError("cochain degree must be non-negative")
        if self.module.algebra != self.algebra:
            raise DimensionError("cochain module is not over the cochain algebra")
        m = self.module.dim
        expected = m and self.algebra.dim**self.degree * m
        if len(self.values) != expected:
            raise DimensionError(
                f"degree-{self.degree} cochain needs {expected} values, "
                f"got {len(self.values)}"
            )

    @staticmethod
    def zero(A: KVAlgebra, W: KVModule, degree: int) -> "Cochain":
        return Cochain(A, W, degree, (_ZERO,) * (A.dim**degree * W.dim))

    @staticmethod
    def from_values(
        A: KVAlgebra, W: KVModule, degree: int, values: Sequence[RatLike]
    ) -> "Cochain":
        return Cochain(A, W, degree, vec(values))

    @staticmethod
    def from_function(
        A: KVAlgebra,
        W: KVModule,
        degree: int,
        fn: Callable[[tuple[int, ...]], Sequence[RatLike]],
    ) -> "Cochain":
        """Tabulate fn over all basis tuples; fn returns the value in W-coords."""
        out: list[Fraction] = []
        for args in itertools.product(range(A.dim), repeat=degree):
            value = vec(fn(args))
            if len(value) != W.dim:
                raise DimensionError("cochain function returned a wrong-length value")
            out.extend(value)
        return Cochain(A, W, degree, tuple(out))

    @property
    def n(self) -> int:
        return self.algebra.dim

    @property
    def m(self) -> int:
        return self.module.dim

    def offset(self, args: Sequence[int]) -> int:
        return _flat(args, self.n) * self.m

    def value(self, args: Sequence[int]) -> Vec:
        off = self.offset(args)
        return self.values[off : off + self.m]

    def value_element(self, args: Sequence[int]) -> Element:
        return Element(self.value(args))

    def is_zero(self) -> bool:
        return not any(self.values)

    def _require_same_space(self, other: "Cochain") -> None:
        if (
            self.algebra != other.algebra
            or self.module != other.module
            or self.degree != other.degree
        ):
            raise DimensionError("cochains live in different spaces")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._require_same_space(other)
        return Cochain(
            self.algebra,
            self.module,
            self.degree,
            tuple(x + y for x, y in zip(self.values, other.values)),
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._require_same_space(other)
        return Cochain(
            self.algebra,
            self.module,
            self.degree,
            tuple(x - y for x, y in zip(self.values, other.values)),
        )

    def __neg__(self) -> "Cochain":
        return Cochain(self.algebra, self.module, self.degree, tuple(-x for x in self.values))

    def scale(self, c: RatLike) -> "Cochain":
        cc = rat(c)
        return Cochain(self.algebra, self.module, self.degree, tuple(cc * x for x in self.values))


def _pieces(f: Cochain, k: int) -> dict[int, list[Fraction]]:
    """f split by summand: {count: values}, the values of f on the basis
    tuples with count arguments of index >= k and zero elsewhere.

    Only the counts at which f is nonzero appear; the pieces sum to f.
    """
    n, m = f.n, f.m
    pieces: dict[int, list[Fraction]] = {}
    for s in range(len(f.values) // m) if m else ():
        value = f.values[s * m : (s + 1) * m]
        if any(value):
            # the arguments of the basis tuple s are its base-n digits
            count = sum(s // n**r % n >= k for r in range(f.degree))
            if count not in pieces:
                pieces[count] = [_ZERO] * len(f.values)
            pieces[count][s * m : (s + 1) * m] = value
    return pieces


def coboundary0(W: KVModule, w: Element, *, check: bool = True) -> Cochain:
    """(delta w)(a) = -aw + wa as a degree-1 cochain: the one column of the
    degree-0 matrix on w.

    With check=True (the default) the element must lie in J(W); outside J(W)
    the formula still parses but delta(delta w) fails to vanish, so admission
    into the complex is refused.
    """
    A = W.algebra
    if w.dim != W.dim:
        raise DimensionError("element does not live in the coefficient module")
    if check:
        if not jacobi_module(A, W).contains(w.coords):
            raise PreconditionError(
                "degree-0 cochains live in the Jacobi subspace J(W); "
                "this element is outside it"
            )
    return Cochain(A, W, 1, _matrix(*_delta0_rows(A, W, [w.coords]), 1).entries)


def coboundary(f: Cochain) -> Cochain:
    """The coboundary of a cochain; degree 0 is routed through coboundary0.

    The nonzero outputs come from `_coboundary_sums`, each divided by its
    scale once.  This is a second route to the same map as
    `coboundary_matrix`, not a product with that matrix.
    """
    if f.degree == 0:
        return coboundary0(f.module, Element(f.values))
    A, W, q = f.algebra, f.module, f.degree
    scale, sums = _coboundary_sums(A, W, q, _nonzero_values(f))
    out = [_ZERO] * (A.dim ** (q + 1) * W.dim)
    for off, x in _quotient(sums, scale).items():
        out[off] = x
    return Cochain(A, W, q + 1, tuple(out))


def _nonzero_values(f: Cochain) -> dict[int, Fraction]:
    return {pos: v for pos, v in enumerate(f.values) if v}


def _coboundary_sums(
    A: KVAlgebra, W: KVModule, q: int, values: dict[int, Fraction]
) -> tuple[int, dict[int, int]]:
    """(D * d, the nonzero entries of D * d times the coboundary) of the
    degree-q (q >= 1) cochain with the nonzero values {position: value}.

    The formula is scattered from those values: each one is sent to every
    output that reads it, through the nonzero action constants and a table
    of the products landing on each basis vector, so the work follows the
    nonzeros of the cochain.  The sums run on integers: the constants times
    D, as `_coboundary_rows` reads them, and the values times d, the lcm of
    their denominators.  The cochain is a cocycle exactly when no sum is
    left.
    """
    n, m = A.dim, W.dim
    D, gammas, _, lefts, _, rights, _ = _module_view(A, W)
    d = math.lcm(*{v.denominator for v in values.values()})
    # landing[k]: the (i, r, -co) with co the e_k-coordinate of e_i e_r
    landing = [[] for _ in range(n)]
    for i in range(n):
        for r in range(n):
            for k, co in gammas[i][r]:
                landing[k].append((i, r, -co))
    # an output (a_1, ..., a_{q+1}) takes a_j (sign (-1)^j) into a rest tuple
    # of q arguments; strides[p] is the flat step of slot p of the rest
    strides = [n ** (q - 1 - p) for p in range(q)]
    acc: dict[int, int] = {}
    for pos, v in values.items():
        v = v.numerator * (d // v.denominator)
        s, be = divmod(pos, m)
        t = s % n
        # (rest, a_j, coordinate, value): a_j . f(rest), then
        # f(rest without its last slot, then a_j) . a_{q+1}, then
        # - f(rest with slot p replaced by a_j . rest_p)
        hits = [(s, i, ga, v * x) for i in range(n) for ga, x in lefts[i][be]]
        hits += [(s - t + l, t, ga, v * x) for l in range(n) for ga, x in rights[be][l]]
        for st in strides:
            k = s // st % n
            hits += [(s + (r - k) * st, i, be, co * v) for i, r, co in landing[k]]
        for rest, i, ga, x in hits:
            for j, st in enumerate(strides):
                hi, lo = divmod(rest, st * n)
                off = ((hi * n + i) * st * n + lo) * m + ga
                acc[off] = acc.get(off, 0) + (x if j % 2 else -x)
    return D * d, {off: x for off, x in acc.items() if x}


def _delta0_rows(
    A: KVAlgebra, W: KVModule, vectors: Sequence[Sequence[Fraction]]
) -> tuple[int, list[IntRow]]:
    """D * d and the integer rows of D * d times the degree-0 coboundary on
    the given vectors of W, one column each, with d the lcm of the vectors'
    denominators; on the echelon basis of J(W) it is delta_0.

    Column t holds (delta b)(e_i) = -e_i b + b e_i for the vector b =
    vectors[t] at rows i * m + ga, read from the action lists of W's
    integer view.
    """
    m = W.dim
    D, _, _, left, _, _, right_t = _module_view(A, W)
    d = math.lcm(*{y.denominator for b in vectors for y in b})
    rows: list[IntRow] = [{} for _ in range(A.dim * m)]
    for t, b in enumerate(vectors):
        acc: dict[int, int] = {}
        for be, y in enumerate(b):
            if y:
                y = y.numerator * (d // y.denominator)
                for i, (lefts, rights) in enumerate(zip(left, right_t)):
                    for ga, x in rights[be]:
                        acc[i * m + ga] = acc.get(i * m + ga, 0) + x * y
                    for ga, x in lefts[be]:
                        acc[i * m + ga] = acc.get(i * m + ga, 0) - x * y
        for pos, x in acc.items():
            if x:
                rows[pos][t] = x
    return D * d, rows


def coboundary_matrix(A: KVAlgebra, W: KVModule, q: int) -> Mat:
    """Matrix of the coboundary in the flattened bases.

    For q = 0 the domain is J(W) in its echelon basis, matching the
    degree-0 rule of the complex; for q >= 1 the domain is the full
    degree-q table, and the matrix is `_coboundary_rows` divided by D.
    """
    if q < 0:
        raise InputError("coboundary degree must be non-negative")
    if q == 0:
        J = jacobi_module(A, W)
        return _matrix(*_delta0_rows(A, W, J.basis), J.dim)
    return _matrix(*_coboundary_rows(A, W, q), A.dim**q * W.dim)


def _matrix(D: int, rows: list[IntRow], cols: int) -> Mat:
    """The matrix M from the integer rows of D * M: each entry divided by D once."""
    return Mat._of(len(rows), cols, tuple(_quotient(r, D) for r in rows))


def _nonzero_rows(block: list[dict]) -> list[IntRow]:
    """The accumulated rows of a block, each without the sums that cancelled."""
    return [{c: x for c, x in r.items() if x} if 0 in r.values() else r for r in block]


def _coboundary_rows(
    A: KVAlgebra, W: KVModule, q: int, outputs: Optional[Iterable[tuple[int, ...]]] = None
) -> tuple[int, list[IntRow]]:
    """D and the integer rows of D times the degree-q (q >= 1)
    `coboundary_matrix`, scattered from the nonzero constants of W's
    integer view; D is the lcm of their denominators.

    Each output tuple (all of A^(q+1) in order by default) gives its m
    rows, empty ones included, so when m = 0 no output is taken at all.
    The outputs are taken in chunks of `_CHUNK`, so the rows being written
    stay few.  A pass over a chunk groups, for each slot j, the (row,
    column) bases that each kind of constant reaches: by a_j for the left
    action (the rest tuple, the output without a_j), by a_q for the right
    action (the rest with a_j in its last slot) and by (a_j, rest_p) for
    the product in slot p of the rest (the rest with 0 in slot p); only
    groups that a nonzero constant reaches are kept.  Each nonzero constant
    is then added into the bases of its group.
    """
    n, m = A.dim, W.dim
    D, gam, _, left, _, _, right_t = _module_view(A, W)
    if not m:
        return D, []
    strides = [n ** (q - 1 - p) * m for p in range(q)]
    acting = [any(t) for t in left]
    acted = [any(t) for t in right_t]
    products = [bool(t) for row in gam for t in row]
    if outputs is None:
        outputs = itertools.product(range(n), repeat=q + 1)
    outputs = iter(outputs)
    rows: list[IntRow] = []
    while chunk := list(itertools.islice(outputs, _CHUNK)):
        acts = [[[] for _ in range(n)] for _ in range(q)]
        lasts = [[[] for _ in range(n)] for _ in range(q)]
        prods = [[[[] for _ in range(n * n)] for _ in range(q)] for _ in range(q)]
        base = 0
        for args in chunk:
            last = args[q]
            # col is the column of the rest tuple of slot j, from j = 0 on;
            # passing from slot j to slot j + 1 changes only slot j of the rest
            col = sum(map(operator.mul, args[1:], strides))
            for j in range(q):
                ij = args[j]
                if acting[ij]:
                    acts[j][ij].append((base, col))
                if acted[last]:
                    lasts[j][last].append((base, col + (ij - last) * m))
                for p, st in enumerate(strides):
                    rp = args[p] if p < j else args[p + 1]
                    if products[ij * n + rp]:
                        prods[j][p][ij * n + rp].append((base, col - rp * st))
                if j + 1 < q:
                    col += (ij - args[j + 1]) * strides[j]
            base += m
        block: list[dict] = [{} for _ in range(base)]
        for j in range(q):
            # slot j + 1 of the formula has the sign (-1)^(j+1): the action
            # terms take it and the product terms its opposite
            sign = 1 if j % 2 else -1
            for i in range(n):
                for bases, consts in ((acts[j][i], left[i]), (lasts[j][i], right_t[i])):
                    if not bases:
                        continue
                    for be, terms in enumerate(consts):
                        for ga, x in terms:
                            x *= sign
                            for r, c in bases:
                                row = block[r + ga]
                                c += be
                                row[c] = row.get(c, 0) + x
            for p, st in enumerate(strides):
                for key, bases in enumerate(prods[j][p]):
                    if not bases:
                        continue
                    for k, co in gam[key // n][key % n]:
                        co *= -sign
                        for r, c in bases:
                            c += k * st
                            for row in block[r : r + m]:
                                row[c] = row.get(c, 0) + co
                                c += 1
        rows += _nonzero_rows(block)
    return D, rows


def _pair_outputs(n: int) -> list[tuple[int, int, int]]:
    """The output tuples (a, b, c) of delta_2 with a < b, in order; their
    rows span the rows of delta_2 (see the module docstring)."""
    return [(a, b, c) for a, b in itertools.combinations(range(n), 2) for c in range(n)]


def _pair_rhs(rhs: dict[int, RatLike], n: int, m: int) -> Optional[dict[int, RatLike]]:
    """A right-hand side of delta_2, given by its nonzero entries, on the
    rows of `_pair_outputs`, or None when it is not antisymmetric in its
    first two arguments and so lies outside the image."""
    pairs = {ab: p for p, ab in enumerate(itertools.combinations(range(n), 2))}
    block = n * m
    out = {}
    for i, y in rhs.items():
        ab, ct = divmod(i, block)
        a, b = divmod(ab, n)
        # at a == b the entry would have to be its own negative
        if rhs.get((b * n + a) * block + ct) != -y:
            return None
        if a < b:
            out[pairs[a, b] * block + ct] = y
    return out


# A differential for elimination: the integer rows of a nonzero multiple of
# its matrix, and its column count.
Rows = tuple[list[IntRow], int]


def _rows(A: KVAlgebra, W: KVModule, q: int, top: int) -> Rows:
    """The rows of D times delta_q (q >= 1) for elimination in a complex
    that ends at degree top: delta_2 at the top is eliminated for its kernel
    only, so there its a < b rows (`_pair_outputs`) suffice."""
    outputs = _pair_outputs(A.dim) if q == 2 == top else None
    return _coboundary_rows(A, W, q, outputs)[1], A.dim**q * W.dim


def _minus(x: tuple, y: tuple) -> tuple:
    return tuple(map(operator.sub, x, y))


class _ClassRows:
    """The integer rows of D times delta_q (q >= 1) for solves, assembled
    one weight class at a time, as right-hand sides reach the classes, and
    kept (see the module docstring).  The output tuples are the a < b ones
    (`_pair_outputs`) at q = 2 and all of A^(q+1) otherwise.

    The row at position t * m + ga, output tuple outputs[t] and coordinate
    ga, lies in the class mu_ga - sum_i w_{a_i} of W's weights
    (`core._weights`), which are first read, with the output tuples, for a
    right-hand side that is not zero.  An output tuple that is assembled
    keeps all its m rows, so no row is assembled twice.
    """

    def __init__(self, A: KVAlgebra, W: KVModule, q: int) -> None:
        self.A, self.W, self.q = A, W, q
        self.D = _module_view(A, W).D
        self.rows: dict[int, IntRow] = {}
        self.sums: Optional[list[tuple]] = None

    def _sum(self, args: Sequence[int]) -> tuple:
        """sum_i w_{a_i} over an output tuple."""
        s = self.w[args[0]]
        for a in args[1:]:
            s = tuple(map(operator.add, s, self.w[a]))
        return s

    def _grade(self) -> None:
        """List the output tuples, read W's weights and group the tuples by
        the sums of their arguments' weights, once."""
        if self.sums is None:
            n, q = self.A.dim, self.q
            self.outputs = _pair_outputs(n) if q == 2 else list(itertools.product(range(n), repeat=q + 1))
            self.w, self.mu = _weights(self.W)
            self.sums = [self._sum(args) for args in self.outputs]
            self.by_sum: dict[tuple, list[int]] = {}
            for t, s in enumerate(self.sums):
                self.by_sum.setdefault(s, []).append(t)

    def _classes(self, rhs: Iterable[int]) -> set:
        """The classes of the rows at these positions."""
        if rhs:
            self._grade()
        m = self.W.dim
        return {_minus(self.mu[p % m], self.sums[p // m]) for p in rhs}

    def _positions(self, classes: set) -> list[int]:
        """The positions of the rows of these classes, in order; the output
        tuples among them not assembled before are assembled now."""
        m = self.W.dim
        out = sorted(
            t * m + ga for c in classes for ga, mu in enumerate(self.mu) for t in self.by_sum.get(_minus(mu, c), ())
        )
        new = sorted({p // m for p in out if p not in self.rows})
        if new:
            rows = _coboundary_rows(self.A, self.W, self.q, [self.outputs[t] for t in new])[1]
            for t, i in zip(new, range(0, len(rows), m)):
                for ga in range(m):
                    self.rows[t * m + ga] = rows[i + ga]
        return out

    def solve(self, rhs: dict[int, RatLike]) -> Optional[Vec]:
        """The free-variables-zero solution of delta_q x = b, b given by its
        nonzero entries {position: value} over every output tuple, or None
        when there is none; only the rows of the classes b touches are
        eliminated.  At q = 2, b is read on the a < b rows (`_pair_rhs`),
        and one that is not antisymmetric has no solution."""
        if self.q == 2:
            rhs = _pair_rhs(rhs, self.A.dim, self.W.dim)
            if rhs is None:
                return None
        positions = self._positions(self._classes(rhs))
        local = {p: i for i, p in enumerate(positions)}
        cols = self.A.dim**self.q * self.W.dim
        return _solve([self.rows[p] for p in positions], cols, {local[p]: self.D * y for p, y in rhs.items()})

    def separating(self, rhs: dict[int, RatLike]) -> Optional[Vec]:
        """The `linalg._separating` functional on all n^3 m rows of delta_2
        (q = 2) for b, given by its nonzero entries {position: value} over
        every output tuple.

        It is read from the full rows of the classes b touches alone, in
        order: a row at (b, a, c) is the negated row at (a, b, c) and a row
        at (a, a, c) is empty, so none is assembled again.
        """
        n, m = self.A.dim, self.W.dim
        self._grade()
        classes = {_minus(self.mu[p % m], self._sum((p // (n * n * m), p // (n * m) % n, p // m % n))) for p in rhs}
        full: dict[int, IntRow] = {}
        for p in self._positions(classes):
            (a, b, c), ga = self.outputs[p // m], p % m
            row = self.rows[p]
            full[((a * n + b) * n + c) * m + ga] = row
            full[((b * n + a) * n + c) * m + ga] = {j: -x for j, x in row.items()}
        for a, c in itertools.product(range(n), repeat=2):
            s = self._sum((a, a, c))
            for ga, mu in enumerate(self.mu):
                if _minus(mu, s) in classes:
                    full[((a * n + a) * n + c) * m + ga] = {}
        positions = sorted(full)
        local = {p: i for i, p in enumerate(positions)}
        y = _separating([full[p] for p in positions], n**2 * m, {local[p]: self.D * v for p, v in rhs.items()})
        if y is None:
            return None
        out = [_ZERO] * (n**3 * m)
        for p, x in zip(positions, y):
            out[p] = x
        return tuple(out)


@dataclass(frozen=True)
class DegreeData:
    """Exact dimensions and representatives at a single degree."""

    degree: int
    dim_C: int
    dim_Z: int
    dim_B: int
    dim_H: int
    representatives: tuple[Cochain, ...]


@dataclass(frozen=True)
class CohomologyReport:
    """Per-degree dimensions dim_C / dim_Z / dim_B / dim_H with representatives."""

    degrees: tuple[DegreeData, ...]

    def degree(self, q: int) -> DegreeData:
        for d in self.degrees:
            if d.degree == q:
                return d
        raise InputError(f"report does not cover degree {q}")


def _require_verified(A: KVAlgebra, W: KVModule) -> None:
    _require(is_kv(A), "cohomology needs a KV product; {detail}")
    _require(is_module(A, W), "cohomology needs a verified module; {detail}")


def cohomology(
    A: KVAlgebra, W: KVModule, q_max: int, *, budget: Optional[int] = None
) -> CohomologyReport:
    """Exact cohomology through degree q_max.

    H^0 = {w in J(W) : aw = wa for all a}; H^1 = ker(delta_1)/delta(J(W));
    H^q = ker(delta_q)/im(delta_{q-1}) for q >= 2.  The table-cell budget is
    checked for every degree up to q_max + 1 before any allocation.
    """
    if q_max < 0:
        raise InputError("q_max must be non-negative")
    budget = entry_budget(budget)
    _require_verified(A, W)
    n, m = A.dim, W.dim
    for q in range(q_max + 2):
        check_budget(n, m, q, budget)
    J = jacobi_module(A, W)

    def rows(q: int) -> Rows:
        if q:
            return _rows(A, W, q, q_max)
        # delta_0 on J(W), in coordinates over the echelon basis of J
        return _delta0_rows(A, W, J.basis)[1], J.dim

    return _walk(rows, lambda q, v: Cochain(A, W, q, v if q else _combine(v, J)), 0, q_max)


def _walk(
    rows: Callable[[int], Rows], cochain: Callable[[int, Vec], Cochain], first: int, last: int
) -> CohomologyReport:
    """Degrees first..last of a complex C_0 -> C_1 -> ... whose differential
    out of degree q has the rows rows(q); below degree 0 it is zero.

    Each differential is assembled once, in order of degree, from
    rows(first - 1) on, and at most two are held: d_{q-1}, whose image is
    B, and d_q, whose kernel is Z.  The representatives are the Z basis
    vectors that extend B (`extend_basis`), each placed by cochain(q, z).
    """
    d_prev = rows(first - 1) if first else None
    degrees: list[DegreeData] = []
    for q in range(first, last + 1):
        d_q = rows(q)
        B = Subspace.zero(d_q[1]) if d_prev is None else _image(*d_prev)
        Z = _kernel(*d_q)
        reps = extend_basis(B, Z)
        if len(reps) != Z.dim - B.dim:
            raise AssertionError(
                "representative selection disagrees with dim_Z - dim_B; "
                "the image is not contained in the kernel"
            )
        cochains = tuple(cochain(q, z) for z in reps)
        degrees.append(DegreeData(q, d_q[1], Z.dim, B.dim, len(reps), cochains))
        d_prev = d_q
    return CohomologyReport(tuple(degrees))


def is_cocycle(f: Cochain) -> bool:
    """Exact test of delta f = 0 (degree 0 also requires J(W) membership)."""
    if f.degree == 0:
        W = f.module
        if not jacobi_module(f.algebra, W).contains(f.values):
            return False
        return coboundary0(W, Element(f.values), check=False).is_zero()
    return not _coboundary_sums(f.algebra, f.module, f.degree, _nonzero_values(f))[1]


def is_coboundary(f: Cochain) -> Optional[Cochain]:
    """A preimage g with delta g = f, or None when f is not a coboundary.

    Degree 1 preimages are degree-0 cochains drawn from J(W).  At degree 0
    the coboundary space is {0}; the zero cochain is returned as its own
    (conventional) witness.
    """
    A, W = f.algebra, f.module
    if f.degree == 0:
        return f if f.is_zero() else None
    if f.degree == 1:
        J = jacobi_module(A, W)
        D, rows = _delta0_rows(A, W, J.basis)
        x = _solve(rows, J.dim, {i: D * y for i, y in _nonzero_values(f).items()})
        return None if x is None else Cochain(A, W, 0, _combine(x, J))
    x = _ClassRows(A, W, f.degree - 1).solve(_nonzero_values(f))
    return None if x is None else Cochain(A, W, f.degree - 1, x)


def nijenhuis_matrices(A: KVAlgebra, W: KVModule, q_max: int) -> dict[int, Mat]:
    """Chevalley-Eilenberg differentials d_p: Lambda^p -> Lambda^{p+1} for p < q_max.

    The underlying data is the commutator Lie algebra A_L acting on the
    space of linear maps L(A, W) by (x.f)(b) = x(f(b)) - f([x,b]); cochains
    are alternating with basis indexed by strictly increasing index tuples.
    The basis map of L(A, W) at j * m + be sends e_j to w_be.  Each matrix
    is `_nijenhuis_rows` divided by D.
    """
    if q_max < 1:
        raise InputError("nijenhuis_matrices needs q_max >= 1")
    nv = A.dim * W.dim
    D, rows = _nijenhuis_rows(A, W, q_max)
    return {p: _matrix(D, r, math.comb(A.dim, p) * nv) for p, r in enumerate(rows)}


def _nijenhuis_rows(A: KVAlgebra, W: KVModule, q_max: int) -> tuple[int, list[list[IntRow]]]:
    """D and, for p < q_max, the integer rows of D times the differential
    d_p of `nijenhuis_matrices`; D is W's integer view's.

    The bracket [e_x, e_b] is read from the view as gam[x][b] - gam[b][x]:
    its denominators divide those of the product, so D is theirs too.
    """
    n, m = A.dim, W.dim
    nv = n * m
    D, gam, _, lefts = _module_view(A, W)[:4]

    def bracket(x: int, b: int) -> list[tuple[int, int]]:
        acc = dict(gam[x][b])
        for k, co in gam[b][x]:
            acc[k] = acc.get(k, 0) - co
        return [(k, co) for k, co in sorted(acc.items()) if co]

    brackets = [[bracket(x, b) for b in range(n)] for x in range(n)]
    combos = {p: list(itertools.combinations(range(n), p)) for p in range(q_max + 1)}
    combo_pos = {p: {c: t for t, c in enumerate(combos[p])} for p in range(q_max + 1)}

    def rows(p: int) -> list[IntRow]:
        out: list[IntRow] = []
        for T in combos[p + 1]:
            block: list[dict] = [{} for _ in range(nv)]
            for i in range(p + 1):
                sign = -1 if i % 2 else 1
                x = T[i]
                src_base = combo_pos[p][T[:i] + T[i + 1 :]] * nv
                # x(f(e_j)) on the map e_j -> w_be for each be that x moves,
                # then -f([x, e_b]) for each b whose bracket with x has an
                # e_j component
                for be, pairs in enumerate(lefts[x]):
                    if not pairs:
                        continue
                    for j in range(n):
                        c = src_base + j * m + be
                        for ga, a in pairs:
                            r = block[j * m + ga]
                            r[c] = r.get(c, 0) + sign * a
                for b in range(n):
                    for j, co in brackets[x][b]:
                        c = src_base + j * m
                        for r in block[b * m : (b + 1) * m]:
                            r[c] = r.get(c, 0) - sign * co
                            c += 1
            for i in range(p + 1):
                for j in range(i + 1, p + 1):
                    rest = tuple(T[t] for t in range(p + 1) if t not in (i, j))
                    for k, co in brackets[T[i]][T[j]]:
                        if k in rest:
                            continue
                        pos = sum(1 for r in rest if r < k)
                        val = -co if (i + j + pos) % 2 else co
                        c = combo_pos[p][tuple(sorted(rest + (k,)))] * nv
                        for r in block:
                            r[c] = r.get(c, 0) + val
                            c += 1
            out.extend(_nonzero_rows(block))
        return out

    return D, [rows(p) for p in range(q_max)]


def nijenhuis_cohomology(A: KVAlgebra, W: KVModule, q_max: int) -> CohomologyReport:
    """The comparison theory: H_N^q = H_CE^{q-1}(A_L, L(A, W)).

    Only dimensions are reported (representatives live in a different
    complex and are omitted), and no relation between this theory and the
    intrinsic one is asserted anywhere: the two dimension tables are meant
    to be read side by side.  The cell budget is checked first, for the
    table Lambda^p (x) L(A, W) of each degree q = p + 1.
    """
    if q_max < 1:
        raise InputError("nijenhuis_cohomology needs q_max >= 1")
    n, m = A.dim, W.dim
    cells = [_check_cells(p + 1, math.comb(n, p) * n * m) for p in range(q_max + 1)]
    _require_verified(A, W)
    ranks = [_rank(rows) for rows in _nijenhuis_rows(A, W, q_max)[1]]
    degrees: list[DegreeData] = []
    for q in range(1, q_max + 1):
        p = q - 1
        # dim Z = cols - rank d_p, dim B = rank d_{p-1}
        dim_z = cells[p] - ranks[p]
        dim_b = ranks[p - 1] if p else 0
        degrees.append(DegreeData(q, cells[p], dim_z, dim_b, dim_z - dim_b, ()))
    return CohomologyReport(tuple(degrees))
