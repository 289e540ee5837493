"""Koszul-Vinberg algebras and their bimodules.

A KV-algebra is a vector space with a bilinear product whose associator
(a,b,c) = (ab)c - a(bc) is symmetric in the first two arguments.  A
KV-bimodule carries a left and a right action subject to the two mixed
associator identities (a,b,w) = (b,a,w) and (a,w,b) = (w,a,b).

The container types deliberately do NOT enforce those identities:
deformation workflows must be able to hold candidate products that fail
them, so `is_kv` and `is_module` are explicit checks that return a verdict
together with the first violating basis-index tuple in lexicographic order.
The checks and the Jacobi subspaces evaluate basis associators from the
nonzero structure constants only; `associator`, `mixed_associators` and
`Element` products are the general-purpose route for arbitrary elements.

Each contraction has one private implementation here, shared by the other
layers: `_bilinear` applies a bilinear tensor to two coordinate vectors
(the body of `mul`, `left_act` and `right_act`); `_product_lists` lists
the nonzero constants of any d1 x d2 x d3 tensor; `_two_step` sums
products of two such steps; `_symmetry_failure` scans for the first
triple where an associator is not symmetric in its first two arguments
(`is_kv`, `graded.is_kv_chain`); and `_derivation_failure` scans for the
first triple where a rule a.b(x, y) = b(ax, y) + b(x, ay) fails (the
theta-cocycle and even flow rules of `graded`, the parallelism law of
`geom.radiant_primitive`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError, InputError, PreconditionError
from .linalg import Mat, RatLike, Subspace, Vec, inverse, kernel, rat, vec

__all__ = [
    "Tensor3",
    "Element",
    "KVAlgebra",
    "KVModule",
    "CheckResult",
    "tensor3",
    "zero3",
    "associator",
    "mixed_associators",
    "is_kv",
    "is_module",
    "jacobi_algebra",
    "jacobi_module",
    "center",
    "lie_bracket",
    "regular_bimodule",
    "left_regular_module",
    "zero_module",
    "hom_module",
    "multilinear_module",
    "module_morphism_space",
    "semidirect",
    "direct_sum",
    "module_direct_sum",
    "conjugate_algebra",
    "conjugate_module",
    "random_invertible",
    "random_kv",
    "random_module",
]

Tensor3 = tuple[tuple[tuple[Fraction, ...], ...], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def tensor3(data: Sequence[Sequence[Sequence[RatLike]]]) -> Tensor3:
    """Coerce a nested sequence into an immutable rank-3 tensor of Fractions."""
    out = tuple(tuple(tuple(rat(x) for x in row) for row in plane) for plane in data)
    if out:
        if len({len(p) for p in out}) > 1:
            raise DimensionError("ragged tensor along the second axis")
        lens = {len(r) for p in out for r in p}
        if len(lens) > 1:
            raise DimensionError("ragged tensor along the third axis")
    return out


def zero3(d1: int, d2: int, d3: int) -> Tensor3:
    row = (_ZERO,) * d3
    plane = (row,) * d2
    return (plane,) * d1


def _check_shape(t: Tensor3, d1: int, d2: int, d3: int, what: str) -> None:
    if len(t) != d1:
        raise DimensionError(f"{what}: expected first axis {d1}, got {len(t)}")
    for p in t:
        if len(p) != d2:
            raise DimensionError(f"{what}: expected second axis {d2}, got {len(p)}")
        for r in p:
            if len(r) != d3:
                raise DimensionError(f"{what}: expected third axis {d3}, got {len(r)}")


@dataclass(frozen=True)
class Element:
    """A vector expressed in the basis of its parent algebra or module."""

    coords: Vec

    @staticmethod
    def of(values: Sequence[RatLike]) -> "Element":
        return Element(vec(values))

    @staticmethod
    def zero(dim: int) -> "Element":
        return Element((_ZERO,) * dim)

    @staticmethod
    def basis(dim: int, i: int) -> "Element":
        return Element(tuple(_ONE if j == i else _ZERO for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "Element") -> "Element":
        if self.dim != other.dim:
            raise DimensionError("cannot add elements of different dimensions")
        return Element(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        if self.dim != other.dim:
            raise DimensionError("cannot subtract elements of different dimensions")
        return Element(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(tuple(-x for x in self.coords))

    def scale(self, c: RatLike) -> "Element":
        cc = rat(c)
        return Element(tuple(cc * x for x in self.coords))


@dataclass(frozen=True)
class KVAlgebra:
    """Finite-dimensional algebra given by structure constants.

    The product tensor satisfies e_i . e_j = sum_k product[i][j][k] e_k.
    Whether the product actually satisfies the KV identity is a separate
    question answered by `is_kv`.
    """

    dim: int
    product: Tensor3
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise DimensionError("algebra dimension must be non-negative")
        _check_shape(self.product, self.dim, self.dim, self.dim, "algebra product tensor")

    def basis_element(self, i: int) -> Element:
        return Element.basis(self.dim, i)

    def basis(self) -> list[Element]:
        return [Element.basis(self.dim, i) for i in range(self.dim)]

    def mul(self, a: Element, b: Element) -> Element:
        if a.dim != self.dim or b.dim != self.dim:
            raise DimensionError("elements do not live in this algebra")
        return Element(tuple(_bilinear(self.product, a.coords, b.coords, self.dim)))


@dataclass(frozen=True)
class KVModule:
    """A candidate bimodule over a KVAlgebra.

    left[i][alpha][beta]:  e_i . w_alpha = sum_beta left[i][alpha][beta] w_beta
    right[alpha][i][beta]: w_alpha . e_i = sum_beta right[alpha][i][beta] w_beta

    The module identities are checked by `is_module`, never assumed.
    """

    algebra: KVAlgebra
    dim: int
    left: Tensor3
    right: Tensor3

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise DimensionError("module dimension must be non-negative")
        n = self.algebra.dim
        _check_shape(self.left, n, self.dim, self.dim, "module left-action tensor")
        _check_shape(self.right, self.dim, n, self.dim, "module right-action tensor")

    def basis_element(self, alpha: int) -> Element:
        return Element.basis(self.dim, alpha)

    def basis(self) -> list[Element]:
        return [Element.basis(self.dim, a) for a in range(self.dim)]

    def left_act(self, a: Element, w: Element) -> Element:
        if a.dim != self.algebra.dim or w.dim != self.dim:
            raise DimensionError("left action operands have wrong dimensions")
        return Element(tuple(_bilinear(self.left, a.coords, w.coords, self.dim)))

    def right_act(self, w: Element, a: Element) -> Element:
        if a.dim != self.algebra.dim or w.dim != self.dim:
            raise DimensionError("right action operands have wrong dimensions")
        return Element(tuple(_bilinear(self.right, w.coords, a.coords, self.dim)))


@dataclass(frozen=True)
class CheckResult:
    """Verdict of an identity check, with the first violation if any.

    The witness is the first violating basis-index tuple in lexicographic
    scan order, for reproducible error reports.
    """

    ok: bool
    witness: Optional[tuple[int, ...]] = None
    detail: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def associator(A: KVAlgebra, a: Element, b: Element, c: Element) -> Element:
    """(a,b,c) = (ab)c - a(bc)."""
    return A.mul(A.mul(a, b), c) - A.mul(a, A.mul(b, c))


def mixed_associators(
    A: KVAlgebra, W: KVModule, a: Element, b: Element, w: Element
) -> tuple[Element, Element, Element]:
    """The three mixed associators ((a,b,w), (a,w,b), (w,a,b)).

    (a,b,w) = (ab)w - a(bw)
    (a,w,b) = (aw)b - a(wb)
    (w,a,b) = (wa)b - w(ab)
    """
    abw = W.left_act(A.mul(a, b), w) - W.left_act(a, W.left_act(b, w))
    awb = W.right_act(W.left_act(a, w), b) - W.left_act(a, W.right_act(w, b))
    wab = W.right_act(W.right_act(w, a), b) - W.right_act(w, A.mul(a, b))
    return abw, awb, wab


def _nonzero(row: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    return [(t, x) for t, x in enumerate(row) if x]


def _bilinear(t: Tensor3, x: Sequence[Fraction], y: Sequence[Fraction], dim: int) -> list[Fraction]:
    """t(x, y) for coordinate vectors x and y; dim is the length of the value,
    the third axis of t, which an empty t does not show."""
    out = [_ZERO] * dim
    for i, xi in enumerate(x):
        if xi:
            plane = t[i]
            for j, yj in enumerate(y):
                if yj:
                    c = xi * yj
                    for k, v in enumerate(plane[j]):
                        if v:
                            out[k] += c * v
    return out


def _product_lists(t: Tensor3):
    """Nonzero entries of a d1 x d2 x d3 bilinear tensor t, indexed both ways.

    gam[i][j] is t(e_i, f_j) and gam_t[j][i] the same list, so gam_t is
    d2 x d1.
    """
    gam = [[_nonzero(r) for r in p] for p in t]
    return gam, list(zip(*gam))


def _action_lists(W: KVModule):
    """Nonzero action constants of W, each side indexed both ways.

    left[i][al] is e_i w_al and left_t[al][i] the same list; right[al][i]
    is w_al e_i and right_t[i][al] the same list.
    """
    return _product_lists(W.left) + _product_lists(W.right)


def _two_step(*terms) -> dict[int, Fraction]:
    """The sum of two-step products x(y), as {coordinate: nonzero value}.

    Each term is (negate, first, second): ``first`` lists the nonzero
    (s, c) of the first product y, and ``second[s]`` the nonzero (t, x) of
    the second product taken on the basis vector s.
    """
    acc: dict[int, Fraction] = {}
    for negate, first, second in terms:
        for s, c in first:
            if negate:
                c = -c
            for t, x in second[s]:
                acc[t] = acc.get(t, _ZERO) + c * x
    return {t: v for t, v in acc.items() if v}


def _symmetry_failure(t: Tensor3) -> Optional[tuple[int, int, int]]:
    """The first basis triple (i, j, k) at which the associator of the square
    tensor t is not symmetric in its first two arguments, or None.

    Only i < j is scanned: the identity is trivial at i = j, and a failure
    at i > j mirrors one at (j, i, k), which the scan meets first.
    """
    n = len(t)
    gam, gam_t = _product_lists(t)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                # (ij)k - i(jk) - (ji)k + j(ik)
                if _two_step(
                    (False, gam[i][j], gam_t[k]),
                    (True, gam[j][k], gam[i]),
                    (True, gam[j][i], gam_t[k]),
                    (False, gam[i][k], gam[j]),
                ):
                    return i, j, k
    return None


def _derivation_failure(beta: Tensor3, lx, ly, lz) -> Optional[tuple[int, int, int]]:
    """The first (i, x, y), in lexicographic order, at which
    e_i beta(x, y) - beta(e_i x, y) - beta(x, e_i y) is nonzero, or None.

    beta is a bilinear tensor X x Y -> Z on basis vectors; lx[i][x], ly[i][y]
    and lz[i][z] list the nonzero coordinates of e_i acting on the basis
    vectors of X, Y and Z.
    """
    B, B_t = _product_lists(beta)
    for i, (ax, ay, az) in enumerate(zip(lx, ly, lz)):
        for x, bx in enumerate(B):
            for y, by in enumerate(B_t):
                if _two_step((False, bx[y], az), (True, ax[x], by), (True, ay[y], bx)):
                    return i, x, y
    return None


def is_kv(A: KVAlgebra) -> CheckResult:
    """Check (e_i,e_j,e_k) = (e_j,e_i,e_k) from the nonzero structure constants."""
    failure = _symmetry_failure(A.product)
    if failure is None:
        return CheckResult(True)
    i, j, k = failure
    return CheckResult(False, failure, f"associator symmetry fails at basis triple ({i},{j},{k})")


def is_module(A: KVAlgebra, W: KVModule) -> CheckResult:
    """Check (a,b,w) = (b,a,w) and (a,w,b) = (w,a,b) over all basis triples.

    The scan runs over (i, j, alpha) and evaluates the associators from the
    nonzero structure constants.  The first identity is checked only for
    i < j, for the same reason as in `is_kv`.
    """
    if W.algebra is not A and W.algebra != A:
        return CheckResult(False, None, "module is attached to a different algebra")
    gam, _ = _product_lists(A.product)
    left, left_t, right, right_t = _action_lists(W)
    for i in range(A.dim):
        for j in range(A.dim):
            for al in range(W.dim):
                # (ij)w - i(jw) - (ji)w + j(iw)
                if i < j and _two_step(
                    (False, gam[i][j], left_t[al]),
                    (True, left[j][al], left[i]),
                    (True, gam[j][i], left_t[al]),
                    (False, left[i][al], left[j]),
                ):
                    return CheckResult(
                        False,
                        (i, j, al),
                        f"(a,b,w) = (b,a,w) fails at (e_{i}, e_{j}, w_{al})",
                    )
                # (iw)j - i(wj) - (wi)j + w(ij)
                if _two_step(
                    (False, left[i][al], right_t[j]),
                    (True, right[al][j], left[i]),
                    (True, right[al][i], right_t[j]),
                    (False, gam[i][j], right[al]),
                ):
                    return CheckResult(
                        False,
                        (i, al, j),
                        f"(a,w,b) = (w,a,b) fails at (e_{i}, w_{al}, e_{j})",
                    )
    return CheckResult(True)


def jacobi_algebra(A: KVAlgebra) -> Subspace:
    """J(A) = {xi : (a,b,xi) = 0 for all a,b}, as a kernel computation.

    Requires a verified KV product; a non-KV candidate is rejected.
    """
    verdict = is_kv(A)
    if not verdict:
        raise PreconditionError(
            f"jacobi_algebra needs a KV product; {verdict.detail}"
        )
    gam, gam_t = _product_lists(A.product)
    # (ij)l - i(jl)
    return _jacobi_kernel(
        A.dim,
        A.dim,
        lambda i, j, l: _two_step((False, gam[i][j], gam_t[l]), (True, gam[j][l], gam[i])),
    )


def jacobi_module(A: KVAlgebra, W: KVModule) -> Subspace:
    """J(W) = {w : (a,b,w) = 0 for all a,b}, as a kernel computation."""
    if A.dim != W.algebra.dim and A.dim and W.dim:
        raise DimensionError("left action operands have wrong dimensions")
    gam, _ = _product_lists(A.product)
    left, left_t, _, _ = _action_lists(W)
    # (ij)w - i(jw)
    return _jacobi_kernel(
        A.dim,
        W.dim,
        lambda i, j, al: _two_step((False, gam[i][j], left_t[al]), (True, left[j][al], left[i])),
    )


def _jacobi_kernel(n: int, m: int, entry) -> Subspace:
    """Kernel of xi -> ((e_i, e_j, xi))_{i,j} given the basis associators.

    entry(i, j, l) is the associator (e_i, e_j, basis_l) as {k: value}; it
    fills column l of the rows (i, j, k), one per output coordinate, so the
    kernel variable is the input vector.
    """
    items: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        for j in range(n):
            base = (i * n + j) * m
            for l in range(m):
                for k, x in entry(i, j, l).items():
                    items[(base + k, l)] = x
    return kernel(Mat.from_items(n * n * m, m, items))


def center(A: KVAlgebra) -> Subspace:
    """C(A) = {c : c x = x c for all x}, the commutative part."""
    n = A.dim
    rows: list[list[Fraction]] = []
    for i in range(n):
        for k in range(n):
            rows.append([A.product[l][i][k] - A.product[i][l][k] for l in range(n)])
    return kernel(Mat.from_rows(rows, cols=n))


def lie_bracket(A: KVAlgebra) -> Tensor3:
    """Commutator tensor B[i][j][k] = product[i][j][k] - product[j][i][k]."""
    n = A.dim
    return tuple(
        tuple(
            tuple(A.product[i][j][k] - A.product[j][i][k] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def regular_bimodule(A: KVAlgebra) -> KVModule:
    """The algebra acting on itself on both sides."""
    return KVModule(algebra=A, dim=A.dim, left=A.product, right=A.product)


def left_regular_module(A: KVAlgebra) -> KVModule:
    """Left multiplication only; the right action is zero.

    This is a valid module over any KV algebra: the left-symmetry identity is
    the KV identity itself and both mixed identities collapse to 0 = 0.
    """
    return KVModule(algebra=A, dim=A.dim, left=A.product, right=zero3(A.dim, A.dim, A.dim))


def zero_module(A: KVAlgebra, dim: int) -> KVModule:
    """Both actions zero; always a module."""
    return KVModule(
        algebra=A, dim=dim, left=zero3(A.dim, dim, dim), right=zero3(dim, A.dim, dim)
    )


def hom_module(A: KVAlgebra, W: KVModule, V: KVModule) -> KVModule:
    """The space of linear maps W -> V with the actions

        (a.f)(w) = a(f(w)) - f(aw)        (f.a)(w) = (f(w))a

    Basis maps f_(alpha,beta): w_alpha -> v_beta are flattened with index
    alpha * dim(V) + beta.
    """
    n = A.dim
    mw, mv = W.dim, V.dim
    dim = mw * mv

    def fidx(al: int, be: int) -> int:
        return al * mv + be

    left = [[[_ZERO] * dim for _ in range(dim)] for _ in range(n)]
    right = [[[_ZERO] * dim for _ in range(n)] for _ in range(dim)]
    for i in range(n):
        for al in range(mw):
            for be in range(mv):
                src = fidx(al, be)
                for ga in range(mw):
                    # (e_i . f)(w_ga) = e_i(f(w_ga)) - f(e_i w_ga)
                    if ga == al:
                        for de in range(mv):
                            left[i][src][fidx(ga, de)] += V.left[i][be][de]
                    left[i][src][fidx(ga, be)] -= W.left[i][ga][al]
                    # (f . e_i)(w_ga) = (f(w_ga)) e_i
                    if ga == al:
                        for de in range(mv):
                            right[src][i][fidx(ga, de)] += V.right[be][i][de]
    return KVModule(algebra=A, dim=dim, left=tensor3(left), right=tensor3(right))


def multilinear_module(A: KVAlgebra, W: KVModule, q: int) -> KVModule:
    """The space of q-linear maps W^q -> W with the actions

        (a.f)(w_1,...,w_q) = a(f(w_1,...,w_q)) - sum_j f(w_1,..., a w_j, ..., w_q)
        (f.a)(w_1,...,w_q) = f(w_1,...,w_q) a

    Basis maps are flattened with index (sum_t alpha_t m^(q-t)) * m + beta.
    For q = 1 this coincides with hom_module(A, W, W).
    """
    if q < 1:
        raise InputError("multilinear_module needs q >= 1")
    n = A.dim
    m = W.dim
    dim = m ** q * m

    def fidx(args: tuple[int, ...], be: int) -> int:
        idx = 0
        for a in args:
            idx = idx * m + a
        return idx * m + be

    left = [[[_ZERO] * dim for _ in range(dim)] for _ in range(n)]
    right = [[[_ZERO] * dim for _ in range(n)] for _ in range(dim)]
    for args in itertools.product(range(m), repeat=q):
        for be in range(m):
            src = fidx(args, be)
            for i in range(n):
                # a(f(...)) lands on the same argument tuple
                for de in range(m):
                    left[i][src][fidx(args, de)] += W.left[i][be][de]
                # - f(..., a w_j, ...): contributes where the evaluated tuple
                # gamma agrees with args away from slot j
                for j in range(q):
                    for ga_j in range(m):
                        coeff = W.left[i][ga_j][args[j]]
                        if coeff == 0:
                            continue
                        ga = args[:j] + (ga_j,) + args[j + 1 :]
                        left[i][src][fidx(ga, be)] -= coeff
                for de in range(m):
                    right[src][i][fidx(args, de)] += W.right[be][i][de]
    return KVModule(algebra=A, dim=dim, left=tensor3(left), right=tensor3(right))


def semidirect(A: KVAlgebra, W: KVModule) -> KVAlgebra:
    """The product (a,w)(a',w') = (aa', aw' + wa') on A + W.

    Basis layout: the n algebra vectors first, then the m module vectors;
    the block injections and the projection onto A are then the canonical
    ones.  A zero-dimensional W returns A itself.
    """
    if W.dim == 0:
        return A
    n, m = A.dim, W.dim
    N = n + m
    prod = [[[_ZERO] * N for _ in range(N)] for _ in range(N)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                prod[i][j][k] = A.product[i][j][k]
    for i in range(n):
        for al in range(m):
            for be in range(m):
                prod[i][n + al][n + be] = W.left[i][al][be]
                prod[n + al][i][n + be] = W.right[al][i][be]
    name = None
    if A.name:
        name = f"{A.name}+module({m})"
    return KVAlgebra(dim=N, product=tensor3(prod), name=name)


def direct_sum(A: KVAlgebra, B: KVAlgebra) -> KVAlgebra:
    """Block-diagonal product on A + B."""
    n, m = A.dim, B.dim
    N = n + m
    prod = [[[_ZERO] * N for _ in range(N)] for _ in range(N)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                prod[i][j][k] = A.product[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                prod[n + i][n + j][n + k] = B.product[i][j][k]
    return KVAlgebra(dim=N, product=tensor3(prod))


def module_direct_sum(W: KVModule, V: KVModule) -> KVModule:
    """Componentwise actions on W + V over the common algebra."""
    if W.algebra != V.algebra:
        raise DimensionError("module direct sum needs a common base algebra")
    n = W.algebra.dim
    mw, mv = W.dim, V.dim
    M = mw + mv
    left = [[[_ZERO] * M for _ in range(M)] for _ in range(n)]
    right = [[[_ZERO] * M for _ in range(n)] for _ in range(M)]
    for i in range(n):
        for al in range(mw):
            for be in range(mw):
                left[i][al][be] = W.left[i][al][be]
                right[al][i][be] = W.right[al][i][be]
        for al in range(mv):
            for be in range(mv):
                left[i][mw + al][mw + be] = V.left[i][al][be]
                right[mw + al][i][mw + be] = V.right[al][i][be]
    return KVModule(algebra=W.algebra, dim=M, left=tensor3(left), right=tensor3(right))


def module_morphism_space(W: KVModule, V: KVModule) -> Subspace:
    """All linear maps phi: W -> V with phi(aw) = a phi(w) and phi(wa) = phi(w) a.

    Returned as a subspace of Hom(W, V) in the flattening phi[alpha][beta]
    -> alpha * dim(V) + beta.
    """
    if W.algebra != V.algebra:
        raise DimensionError("module morphisms need a common base algebra")
    n = W.algebra.dim
    mw, mv = W.dim, V.dim
    dim = mw * mv
    rows: list[list[Fraction]] = []
    for i in range(n):
        for al in range(mw):
            for ga in range(mv):
                # phi(e_i w_al) - e_i phi(w_al) = 0, coordinate ga
                row = [_ZERO] * dim
                for de in range(mw):
                    row[de * mv + ga] += W.left[i][al][de]
                for be in range(mv):
                    row[al * mv + be] -= V.left[i][be][ga]
                rows.append(row)
                # phi(w_al e_i) - phi(w_al) e_i = 0, coordinate ga
                row = [_ZERO] * dim
                for de in range(mw):
                    row[de * mv + ga] += W.right[al][i][de]
                for be in range(mv):
                    row[al * mv + be] -= V.right[be][i][ga]
                rows.append(row)
    return kernel(Mat.from_rows(rows, cols=dim))


def conjugate_algebra(A: KVAlgebra, phi: Mat) -> KVAlgebra:
    """Transport the product along an invertible map: m'(x,y) = phi(m(phi^-1 x, phi^-1 y))."""
    n = A.dim
    if phi.rows != n or phi.cols != n:
        raise DimensionError("basis change must be square of the algebra dimension")
    phi_inv = inverse(phi)
    if phi_inv is None:
        raise InputError("basis change matrix is singular")
    prod = []
    for i in range(n):
        x = Element(tuple(phi_inv.at(l, i) for l in range(n)))
        plane = []
        for j in range(n):
            y = Element(tuple(phi_inv.at(l, j) for l in range(n)))
            z = A.mul(x, y)
            plane.append(phi.mat_vec(z.coords))
        prod.append(plane)
    return KVAlgebra(dim=n, product=tensor3(prod), name=A.name)


def conjugate_module(W: KVModule, psi: Mat) -> KVModule:
    """Transport both actions along an invertible map of the module space."""
    m = W.dim
    if psi.rows != m or psi.cols != m:
        raise DimensionError("basis change must be square of the module dimension")
    psi_inv = inverse(psi)
    if psi_inv is None:
        raise InputError("basis change matrix is singular")
    n = W.algebra.dim
    left = []
    for i in range(n):
        a = W.algebra.basis_element(i)
        plane = []
        for al in range(m):
            w = Element(tuple(psi_inv.at(l, al) for l in range(m)))
            plane.append(psi.mat_vec(W.left_act(a, w).coords))
        left.append(plane)
    right = []
    for al in range(m):
        w = Element(tuple(psi_inv.at(l, al) for l in range(m)))
        plane = []
        for i in range(n):
            a = W.algebra.basis_element(i)
            plane.append(psi.mat_vec(W.right_act(w, a).coords))
        right.append(plane)
    return KVModule(algebra=W.algebra, dim=m, left=tensor3(left), right=tensor3(right))


_SHEAR_COEFFS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
)


def random_invertible(rng: random.Random, n: int, moves: int = 3) -> Mat:
    """A small-entry invertible matrix built from elementary operations."""
    rows = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    if n >= 2:
        for _ in range(moves):
            kind = rng.choice(("shear", "swap", "scale"))
            if kind == "shear":
                i, j = rng.sample(range(n), 2)
                c = rng.choice(_SHEAR_COEFFS)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            elif kind == "swap":
                i, j = rng.sample(range(n), 2)
                rows[i], rows[j] = rows[j], rows[i]
            else:
                i = rng.randrange(n)
                c = rng.choice((Fraction(2), Fraction(1, 2), Fraction(-1)))
                rows[i] = [c * a for a in rows[i]]
    return Mat.from_rows(rows, cols=n)


def _catalog(n_max: int) -> list[KVAlgebra]:
    from . import fixtures

    return [a for a in fixtures.algebra_catalog() if a.dim <= n_max]


def random_kv(seed: int, n_max: int = 3) -> KVAlgebra:
    """A verified KV algebra, deterministic in the seed.

    Seed 0 returns a catalog fixture unchanged.  Other seeds draw a catalog
    algebra and apply a few structure-preserving moves: direct sums,
    semidirect products with a module over the current algebra, and basis
    changes with small rational entries.  The output is re-verified by
    `is_kv` before it is returned.
    """
    from . import fixtures

    if seed == 0:
        return fixtures.aff()
    if n_max < 1:
        raise InputError("random_kv needs n_max >= 1")
    rng = random.Random(f"kv:{seed}:{n_max}")
    options = _catalog(n_max)
    A = rng.choice(options)
    for _ in range(rng.randint(1, 3)):
        moves = ["basis"]
        summands = [b for b in options if A.dim + b.dim <= n_max]
        if summands:
            moves.append("sum")
        if 2 * A.dim <= n_max and A.dim >= 1:
            moves.append("semidirect")
        kind = rng.choice(moves)
        if kind == "basis":
            A = conjugate_algebra(A, random_invertible(rng, A.dim))
        elif kind == "sum":
            A = direct_sum(A, rng.choice(summands))
        else:
            module = rng.choice(
                (regular_bimodule(A), left_regular_module(A))
            )
            A = semidirect(A, module)
    verdict = is_kv(A)
    if not verdict:
        raise AssertionError(f"random_kv produced a non-KV product: {verdict.detail}")
    return A


def random_module(A: KVAlgebra, seed: int, m_max: int = 3) -> KVModule:
    """A verified module over A, deterministic in (A, seed).

    Draws from zero modules, the regular bimodule, the left-regular module,
    direct sums, and module basis changes; the result is re-verified by
    `is_module` before it is returned.
    """
    if m_max < 1:
        raise InputError("random_module needs m_max >= 1")
    rng = random.Random(f"module:{seed}:{m_max}:{A.dim}")
    options: list[KVModule] = [zero_module(A, k) for k in range(1, m_max + 1)]
    options.append(left_regular_module(A))
    if is_module(A, regular_bimodule(A)):
        options.append(regular_bimodule(A))
    options = [W for W in options if W.dim <= m_max]
    W = rng.choice(options)
    for _ in range(rng.randint(0, 2)):
        moves = ["basis"]
        summands = [V for V in options if W.dim + V.dim <= m_max]
        if summands:
            moves.append("sum")
        kind = rng.choice(moves)
        if kind == "basis" and W.dim >= 1:
            W = conjugate_module(W, random_invertible(rng, W.dim))
        elif kind == "sum":
            W = module_direct_sum(W, rng.choice(summands))
    verdict = is_module(A, W)
    if not verdict:
        raise AssertionError(f"random_module produced a non-module: {verdict.detail}")
    return W
