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
(the body of `mul`, `left_act` and `right_act`, and of the basis change
below), and `_sparse4` is the one kernel for sums of two-step products.
Its terms are specs over integer lists: each names its first and second
product and the places of their arguments, and is scattered from the
nonzero constants of its first product.  The output tuples come back in
lexicographic order, so the witness of a scan is its first key.
`_pair_terms` gives the specs of the residual terms A_ij of `deform`; A_00
is the KV defect (a,b,c) - (b,a,c), which `is_kv` and `graded.is_kv_chain`
scan.  `is_module` scans both module identities, `jacobi_module` reads its
rows from one spec, and `_derivation_failure` scans a rule
a.b(x, y) = b(ax, y) + b(x, ay) (the theta-cocycle and even flow rules of
`graded`, the parallelism law of `geom.radiant_primitive`).

The constants are integers: `_int_lists` lists the nonzero constants of a
tensor times the lcm d of their denominators, `_common` brings several
such lists to one scale D, and `_scaled_lists` indexes them both ways.  A
sum of two-step products over them is an int, and a value is divided by
its scale once, when it leaves as a Fraction.  Each `KVAlgebra` and
`KVModule` keeps its own lists as an integer view (`_view`), built on
first use and stored outside its fields; a module's view holds its
algebra's product and its two actions over one D, and reuses the
algebra's lists for an action that is the product, so a fresh
`regular_bimodule` lists nothing again.  The view backs the verdict scans
of `is_kv` and `is_module`, `jacobi_module`, the action lists of the
derivation rules, and the coboundary, the row assemblers and the
degree-0 rows of `complexes`; so the rules of `graded` and `geom` list
only the caller's tensor.  The scaled lists back the pair bracket,
residuals and curvature of `deform`.
The battery's second routes read the structure constants on their own
and do not go through `_bilinear` or `_sparse4`.

Block spaces share one layout as well: `_blocks` builds a tensor on a
direct sum of spaces that is zero outside the blocks it is given, and
`_block` reads one block back out.  They back `semidirect`, `direct_sum`,
`module_direct_sum`, the extension totals of `extensions` (whose section
cocycle is read block by block out of a coboundary over the semidirect
sum), the block checks of an extension file in `serialize` and the graded
deformations and cochains of `graded`.  `module_morphism_space` is the
kernel of the bottom matrix of the p = 1 column of `extensions`, whose
degree-0 cocycles are the module morphisms, and `center` the kernel of the
degree-0 rows of `complexes` with regular coefficients,
(delta c)(a) = -ac + ca.

Multilinear maps share one table layout: `_entries` lists the row-major
entries of a nested tensor, the values of a cochain, and `_shaped` nests
values back into a tensor.  `conjugate_algebra` carries the product along
a change of basis through `_bilinear` (and so checks the shear of an
algebra extension equivalence); `conjugate_module` moves each action
plane of structure constants by two sparse matrix products instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import DimensionError, InputError, PreconditionError
from .linalg import Mat, RatLike, Subspace, Vec, _kernel, _sparse, inverse, kernel, mat_mul, rat, vec

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


def _blocks(d1: int, d2: int, d3: int, *blocks: tuple[Tensor3, int, int, int]) -> Tensor3:
    """The d1 x d2 x d3 tensor that is zero outside the given blocks.

    Each block (t, o1, o2, o3) places t[i][j][k] at [o1 + i][o2 + j][o3 + k];
    where two blocks overlap, the later one wins.  The entries are placed
    as they are, so blocks of Fractions give a tensor of Fractions.
    """
    out = [[[_ZERO] * d3 for _ in range(d2)] for _ in range(d1)]
    for t, o1, o2, o3 in blocks:
        for i, plane in enumerate(t):
            for j, row in enumerate(plane):
                out[o1 + i][o2 + j][o3 : o3 + len(row)] = row
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def _block(t: Tensor3, o1: int, o2: int, o3: int, d1: int, d2: int, d3: int) -> Tensor3:
    """The d1 x d2 x d3 block of t at offset (o1, o2, o3), the inverse of `_blocks`."""
    return tuple(
        tuple(row[o3 : o3 + d3] for row in plane[o2 : o2 + d2]) for plane in t[o1 : o1 + d1]
    )


def _entries(t, rank: int) -> tuple:
    """The row-major entries of a nested tensor of the given rank."""
    for _ in range(rank - 1):
        t = [x for row in t for x in row]
    return tuple(t)


def _shaped(values: Sequence, *dims: int) -> tuple:
    """The nested tensor of shape dims with row-major entries values, the
    inverse of `_entries`; an axis of length 0 keeps the axes before it."""
    out = tuple(values)
    for axis in range(len(dims) - 1, 0, -1):
        d = dims[axis]
        # zip over d references to one iterator takes d entries per tuple
        out = tuple(zip(*[iter(out)] * d)) if d else ((),) * math.prod(dims[:axis])
    return out


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


def _int_lists(t: Tensor3) -> tuple[int, tuple]:
    """d and the nonzero lists of t times d, as int tuples: entry [i][j]
    lists the (k, x) of t(e_i, f_j); d is the lcm of their denominators."""
    gam = [[_nonzero(r) for r in p] for p in t]
    d = math.lcm(*{x.denominator for p in gam for pairs in p for _, x in pairs})
    return d, tuple(
        tuple(tuple((k, x.numerator * (d // x.denominator)) for k, x in pairs) for pairs in p)
        for p in gam
    )


def _common(*parts: tuple[int, tuple]) -> tuple[int, list]:
    """D, the lcm of the scales d of the given (d, lists) parts, and the
    lists of each part times D / d, as `_int_lists` gives them."""
    D = math.lcm(*(d for d, _ in parts))
    return D, [
        g if d == D else tuple(tuple(tuple((k, x * (D // d)) for k, x in pairs) for pairs in p) for p in g)
        for d, g in parts
    ]


def _scaled_lists(*parts: tuple[int, tuple]) -> tuple[int, list]:
    """D and the lists of each (d, lists) part over the common scale D
    (`_common`), each indexed both ways as (gam, gam_t).

    A sum of two-step products over these lists is D^2 times its value.
    """
    D, gams = _common(*parts)
    return D, [(g, tuple(zip(*g))) for g in gams]


class _IntView(NamedTuple):
    """The nonzero structure constants of an algebra or a module, times D,
    as int tuples; D is the lcm of their denominators.

    gam[i][j] lists the (k, x) of e_i e_j and gam_t[j][i] is the same tuple.
    A module's view holds the product of its algebra as gam, over the
    module's D, and its actions: left[i][al] lists e_i w_al and left_t[al][i]
    is the same tuple; right[al][i] lists w_al e_i and right_t[i][al] is the
    same tuple.
    """

    D: int
    gam: tuple
    gam_t: tuple
    left: tuple = ()
    left_t: tuple = ()
    right: tuple = ()
    right_t: tuple = ()


def _view(x: "KVAlgebra | KVModule") -> _IntView:
    """The integer view of an algebra or a module, built on first use and
    kept on the object outside its fields, so equality, hash and repr
    ignore it.

    A module's view reuses the lists of its algebra's view for every action
    tensor that is the algebra's product, as in the regular bimodule.
    """
    view = getattr(x, "_int_view", None)
    if view is None:
        if isinstance(x, KVModule):
            a = _view(x.algebra)
            own = (a.D, a.gam)
            D, (gam, left, right) = _common(
                own, *(own if t is x.algebra.product else _int_lists(t) for t in (x.left, x.right))
            )
            gam_t = a.gam_t if gam is a.gam else tuple(zip(*gam))
            # an empty axis would lose the other one in the transpose
            left_t = tuple(zip(*left)) or ((),) * x.dim
            right_t = tuple(zip(*right)) or ((),) * x.algebra.dim
            view = _IntView(D, gam, gam_t, left, left_t, right, right_t)
        else:
            D, gam = _int_lists(x.product)
            view = _IntView(D, gam, tuple(zip(*gam)))
        object.__setattr__(x, "_int_view", view)
    return view


def _weights(x: "KVAlgebra | KVModule") -> tuple:
    """The weights w of an algebra's basis, or (w, mu) of a module's and its
    algebra's, built on first use and kept on the object outside its fields,
    as `_view` keeps the integer view.

    The weights solve w_i + w_j = w_k for every nonzero product constant of
    e_i e_j at e_k, and w_i + mu_be = mu_ga for every nonzero action constant
    of e_i w_be or w_be e_i at w_ga.  A basis vector's weight is the tuple
    of its entries in the integer rows of the kernel of those equations, so
    two vectors share a weight at a generic solution exactly when their
    tuples are equal.  A module whose two actions are its algebra's product
    takes mu = w, the algebra's own weights.
    """
    weights = getattr(x, "_int_weights", None)
    if weights is None:
        if isinstance(x, KVModule) and x.left is x.right is x.algebra.product:
            w = _weights(x.algebra)
            weights = (w, w)
        else:
            view = _view(x)
            n = len(view.gam)
            # v_i + v_j = v_k over the variables w, then mu from index n on;
            # an algebra's view has no action lists
            eqs = {(i, j, k) for i, row in enumerate(view.gam) for j, ks in enumerate(row) for k, _ in ks}
            for acts in (view.left, view.right_t):
                eqs |= {(i, n + be, n + ga) for i, row in enumerate(acts) for be, gs in enumerate(row) for ga, _ in gs}
            rows = []
            for i, j, k in eqs:
                row = {i: 1}
                row[j] = row.get(j, 0) + 1
                row[k] = row.get(k, 0) - 1
                rows.append({v: c for v, c in row.items() if c})
            cols = n + (x.dim if isinstance(x, KVModule) else 0)
            basis = _kernel(rows, cols)._rows.values()
            weights = tuple(tuple(r.get(v, 0) for r in basis) for v in range(cols))
            if isinstance(x, KVModule):
                weights = (weights[:n], weights[n:])
        object.__setattr__(x, "_int_weights", weights)
    return weights


# The nonzero part of a rank-4 tensor: {(a, b, c): {t: value}}.
Sparse4 = dict[tuple[int, int, int], dict[int, Fraction]]


def _sparse4(dims: tuple[int, int, int], terms) -> Sparse4:
    """The nonzero rows (a, b, c) -> sum of the two-step terms, for (a, b, c)
    in a d0 x d1 x d2 box, (d0, d1, d2) = dims, with the keys in
    lexicographic order: the first key of a scan is its witness.

    Each term (negate, first, second, slots) is scattered from the nonzeros
    of its first factor: first[u][v] lists the (s, c) of the first product
    on (u, v), second[s][z] the (t, x) of the second product with s in one
    argument and z in the other, and slots gives the places of u, v and z in
    (a, b, c).  The sums start from int 0, so integer lists give integer
    sums.
    """
    _, d1, d2 = dims
    strides = (d1 * d2, d2, 1)
    acc: dict[int, dict[int, int]] = {}
    for negate, first, second, (pu, pv, pz) in terms:
        wu, wv, wz = strides[pu], strides[pv], strides[pz]
        for u, row in enumerate(first):
            for v, pairs in enumerate(row):
                if not pairs:
                    continue
                uv = u * wu + v * wv
                for s, c in pairs:
                    if negate:
                        c = -c
                    for z, lists in enumerate(second[s]):
                        if lists:
                            key = uv + z * wz
                            out = acc.get(key)
                            if out is None:
                                out = acc[key] = {}
                            for t, x in lists:
                                out[t] = out.get(t, 0) + c * x
    rows: Sparse4 = {}
    for key in sorted(acc):
        row = {t: x for t, x in acc[key].items() if x}
        if row:
            a, bc = divmod(key, d1 * d2)
            rows[(a, *divmod(bc, d2))] = row
    return rows


def _first(rows: Sparse4) -> Optional[tuple[int, int, int]]:
    """The first key of `_sparse4` rows, the witness of a scan, or None."""
    return next(iter(rows), None)


def _verdict(failure: Optional[tuple[int, ...]], detail) -> CheckResult:
    """The verdict of a scan that found the given first failure, or None:
    the failure is the witness and detail(*failure) the detail."""
    if failure is None:
        return CheckResult(True)
    return CheckResult(False, failure, detail(*failure))


def _pair_terms(L, pairs) -> list:
    """The `_sparse4` terms of the sum of A_ij over (i, j) in pairs,

        A_ij(a,b,c) = mu_i(mu_j(a,b),c) - mu_i(a,mu_j(b,c))
                      - mu_i(mu_j(b,a),c) + mu_i(b,mu_j(a,c)),

    with L[i] the nonzero lists (gam, gam_t) of mu_i.  A_00 is the defect
    (a,b,c) - (b,a,c) of the KV identity of mu_0; it is antisymmetric in
    (a, b), so its first nonzero triple has a < b.
    """
    out = []
    for i, j in pairs:
        (gi, gi_t), gj = L[i], L[j][0]
        out += (
            (False, gj, gi, (0, 1, 2)),
            (True, gj, gi_t, (1, 2, 0)),
            (True, gj, gi, (1, 0, 2)),
            (False, gj, gi_t, (0, 2, 1)),
        )
    return out


def _derivation_failure(B, lx, ly, lz_t) -> Optional[tuple[int, int, int]]:
    """The first (i, x, y), in lexicographic order, at which
    e_i beta(x, y) - beta(e_i x, y) - beta(x, e_i y) is nonzero, or None.

    beta is a bilinear map X x Y -> Z with nonzero lists B, B[x][y] the
    (z, c) of beta(x, y) as `_int_lists` gives them; lx[i][x] and ly[i][y]
    list the (s, c) of e_i on the basis vectors of X and Y, and lz_t[z][i]
    those of e_i on the basis vectors of Z, all over one scale, as one
    integer view (`_view`) holds them.
    """
    dims = (len(lx), len(B), len(ly[0]) if ly else 0)
    terms = (
        (False, B, lz_t, (1, 2, 0)),
        (True, lx, B, (0, 1, 2)),
        (True, ly, tuple(zip(*B)), (0, 2, 1)),
    )
    return _first(_sparse4(dims, terms))


def _module_view(A: KVAlgebra, W: KVModule) -> _IntView:
    """W's integer view, after checking that W is a module over A."""
    if W.algebra is not A and W.algebra != A:
        raise DimensionError("module is attached to a different algebra")
    return _view(W)


def is_kv(A: KVAlgebra) -> CheckResult:
    """Check (e_i,e_j,e_k) = (e_j,e_i,e_k) from the nonzero structure constants.

    The defect is A_00 of `_pair_terms`, the order-0 residual of `deform`.
    """
    view = _view(A)
    failure = _first(_sparse4((A.dim,) * 3, _pair_terms([(view.gam, view.gam_t)], [(0, 0)])))
    return _verdict(failure, "associator symmetry fails at basis triple ({},{},{})".format)


def is_module(A: KVAlgebra, W: KVModule) -> CheckResult:
    """Check (a,b,w) = (b,a,w) and (a,w,b) = (w,a,b) over all basis triples.

    Both defects are scattered over (i, j, alpha) from the nonzero structure
    constants.  The first is antisymmetric in (i, j), so its first failure
    has i < j, as in `is_kv`; the second is reported at (i, alpha, j), and a
    tie at one (i, j, alpha) goes to the first.
    """
    if W.algebra is not A and W.algebra != A:
        return CheckResult(False, None, "module is attached to a different algebra")
    _, gam, _, left, left_t, right, right_t = _view(W)
    dims = (A.dim, A.dim, W.dim)
    # (ij)w - i(jw) - (ji)w + j(iw)
    first = _first(_sparse4(dims, (
        (False, gam, left, (0, 1, 2)),
        (True, left, left_t, (1, 2, 0)),
        (True, gam, left, (1, 0, 2)),
        (False, left, left_t, (0, 2, 1)),
    )))
    # (iw)j - i(wj) - (wi)j + w(ij)
    second = _first(_sparse4(dims, (
        (False, left, right, (0, 2, 1)),
        (True, right, left_t, (2, 1, 0)),
        (True, right, right, (2, 0, 1)),
        (False, gam, right_t, (0, 1, 2)),
    )))
    if first is not None and (second is None or first <= second):
        i, j, al = first
        return CheckResult(False, first, f"(a,b,w) = (b,a,w) fails at (e_{i}, e_{j}, w_{al})")
    if second is not None:
        i, j, al = second
        return CheckResult(False, (i, al, j), f"(a,w,b) = (w,a,b) fails at (e_{i}, w_{al}, e_{j})")
    return CheckResult(True)


def jacobi_algebra(A: KVAlgebra) -> Subspace:
    """J(A) = {xi : (a,b,xi) = 0 for all a,b}, as a kernel computation.

    Requires a verified KV product; a non-KV candidate is rejected.  J(A)
    is the Jacobi subspace of the regular bimodule, whose left action is
    the product.
    """
    verdict = is_kv(A)
    if not verdict:
        raise PreconditionError(
            f"jacobi_algebra needs a KV product; {verdict.detail}"
        )
    return jacobi_module(A, regular_bimodule(A))


def jacobi_module(A: KVAlgebra, W: KVModule) -> Subspace:
    """J(W) = {w : (a,b,w) = 0 for all a,b}, as a kernel computation.

    The associator (e_i, e_j, w_l) fills column l of the rows (i, j, k),
    one per output coordinate, so the kernel variable is the input vector;
    the rows are D^2 times the associators, read from W's integer view.
    """
    n, m = A.dim, W.dim
    _, gam, _, left, left_t, _, _ = _module_view(A, W)
    # (ij)w_l - i(jw_l) at (i, j, l), times D^2
    assoc = _sparse4((n, n, m), ((False, gam, left, (0, 1, 2)), (True, left, left_t, (1, 2, 0))))
    rows: list[dict[int, int]] = [{} for _ in range(n * n * m)]
    for (i, j, l), row in assoc.items():
        base = (i * n + j) * m
        for k, x in row.items():
            rows[base + k][l] = x
    return _kernel(rows, m)


def center(A: KVAlgebra) -> Subspace:
    """C(A) = {c : c x = x c for all x}: the kernel of the degree-0 rows
    of `complexes`, (delta c)(a) = -ac + ca, on the unit vectors."""
    from . import complexes

    rows = complexes._delta0_rows(A, regular_bimodule(A), Subspace.full(A.dim).basis)[1]
    return _kernel(rows, A.dim)


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
    prod = _blocks(N, N, N, (A.product, 0, 0, 0), (W.left, 0, n, n), (W.right, n, 0, n))
    name = None
    if A.name:
        name = f"{A.name}+module({m})"
    return KVAlgebra(dim=N, product=prod, name=name)


def direct_sum(A: KVAlgebra, B: KVAlgebra) -> KVAlgebra:
    """Block-diagonal product on A + B."""
    n, m = A.dim, B.dim
    N = n + m
    return KVAlgebra(dim=N, product=_blocks(N, N, N, (A.product, 0, 0, 0), (B.product, n, n, n)))


def module_direct_sum(W: KVModule, V: KVModule) -> KVModule:
    """Componentwise actions on W + V over the common algebra."""
    if W.algebra != V.algebra:
        raise DimensionError("module direct sum needs a common base algebra")
    n = W.algebra.dim
    mw = W.dim
    M = mw + V.dim
    left = _blocks(n, M, M, (W.left, 0, 0, 0), (V.left, 0, mw, mw))
    right = _blocks(M, n, M, (W.right, 0, 0, 0), (V.right, mw, 0, mw))
    return KVModule(algebra=W.algebra, dim=M, left=left, right=right)


def _minus(x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
    return [p - q for p, q in zip(x, y)]


def module_morphism_space(W: KVModule, V: KVModule) -> Subspace:
    """All linear maps phi: W -> V with phi(aw) = a phi(w) and phi(wa) = phi(w) a.

    Returned as a subspace of Hom(W, V) in the flattening phi[alpha][beta]
    -> alpha * dim(V) + beta: the degree-0 cocycles of the p = 1 column of
    `extensions`, the kernel of its bottom matrix.
    """
    if W.algebra != V.algebra:
        raise DimensionError("module morphisms need a common base algebra")
    from . import extensions

    return kernel(extensions.e11_matrix(W.algebra, W, V, 0))


def _inverse_columns(phi: Mat) -> list[Vec]:
    """The columns of phi^-1, the old coordinates of the new basis vectors."""
    phi_inv = inverse(phi)
    if phi_inv is None:
        raise InputError("basis change matrix is singular")
    t = phi_inv.transpose()
    return [t.row(i) for i in range(t.rows)]


def conjugate_algebra(A: KVAlgebra, phi: Mat) -> KVAlgebra:
    """Transport the product along an invertible map: m'(x,y) = phi(m(phi^-1 x, phi^-1 y))."""
    n = A.dim
    if phi.rows != n or phi.cols != n:
        raise DimensionError("basis change must be square of the algebra dimension")
    cols = _inverse_columns(phi)
    product = tensor3([[phi.mat_vec(_bilinear(A.product, x, y, n)) for y in cols] for x in cols])
    return KVAlgebra(dim=n, product=product, name=A.name)


def conjugate_module(W: KVModule, psi: Mat) -> KVModule:
    """Transport both actions along an invertible map of the module space.

    The action of e_i on the basis of W is a plane of structure constants,
    row al the value on w_al: W.left[i] on the left and the rows
    W.right[al][i] on the right.  Each plane P becomes C P psi^T, with C
    the rows of old coordinates of the new basis vectors.
    """
    m = W.dim
    if psi.rows != m or psi.cols != m:
        raise DimensionError("basis change must be square of the module dimension")
    old = Mat.from_rows(_inverse_columns(psi), cols=m)
    psi_t = psi.transpose()

    def moved(plane) -> tuple[Vec, ...]:
        p = mat_mul(mat_mul(old, Mat._of(m, m, tuple(map(_sparse, plane)))), psi_t)
        return tuple(p.row(j) for j in range(m))

    left = tuple(moved(plane) for plane in W.left)
    # an empty algebra axis would lose the module axis in the transpose
    right = tuple(zip(*(moved(plane) for plane in zip(*W.right)))) or ((),) * m
    return KVModule(algebra=W.algebra, dim=m, left=left, right=right)


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
