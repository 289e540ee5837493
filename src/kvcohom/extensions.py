"""Bigraded cochains on a semidirect sum and extension classification.

With G = semidirect(A, W) and V a module over A, V becomes a G-module by
letting the W summand act as zero on both sides.  A (p+q)-cochain over G
with values in V is bigraded of bidegree (p, q) when it vanishes on every
basis tuple that does not contain exactly p arguments from the W summand.
The coboundary raises the A-degree only: delta maps (p, q) to (p, q+1).

The column p = 1 is the extension complex: its bottom space is L(W, V),
the bottom differential is

    (delta theta)(a, w) = -a theta(w) + theta(aw)
    (delta theta)(w, a) = theta(wa) - theta(w) a

(which is exactly the general coboundary applied to theta viewed as a
1-cochain over G supported on W), its kernel is the space of module
morphisms, and its first cohomology classifies module extensions
0 -> V -> T -> W -> 0; its differentials are assembled on their (1, q+1)
rows only.  One level up, 2-cocycles in C_2(A, W) classify algebra
extensions with abelian kernel W.

The code follows that remark.  A linear map phi: W -> X, given by its
rows phi(w_al), is written as a 1-cochain over G that is zero on A and
valued in X extended to G (`_coboundary_on_w`); its coboundary is the
defect of phi from being a module morphism, phi(aw) - a phi(w) and
phi(wa) - phi(w) a, in the (1,1) blocks.  `e11_coboundary0` is that
coboundary for theta (X = V), and `cocycle_from_section` is minus its V
block for a section sigma (X = T), read in the block layout of `core`, as
is the algebra section cocycle sigma(a) sigma(a') - sigma(aa').  The
kernel of the bottom matrix `e11_matrix(..., 0)` is
`core.module_morphism_space`.  Both equivalence verdicts ask
`complexes.is_coboundary` for a preimage of the difference of two
cocycles, and this module solves no system of its own: for modules the
preimage is a map theta: W -> V, for algebras it is the shear, checked by
`conjugate_algebra`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import (
    Cochain,
    CohomologyReport,
    _check_cells,
    _coboundary_rows,
    _flat,
    _matrix,
    _pieces,
    _walk,
    coboundary,
    is_coboundary,
)
from .core import (
    KVAlgebra,
    KVModule,
    _bilinear,
    _block,
    _blocks,
    _entries,
    _minus,
    _require,
    _shaped,
    conjugate_algebra,
    is_kv,
    is_module,
    semidirect,
)
from .errors import DimensionError, InputError
from .linalg import IntRow, Mat

__all__ = [
    "BigradedCochain",
    "ModuleExtension",
    "AlgebraExtension",
    "extend_module_to_semidirect",
    "bigrade",
    "graded_piece",
    "e11_coboundary0",
    "e11_support",
    "e11_matrix",
    "e11_cohomology",
    "module_extension_from_cocycle",
    "cocycle_from_section",
    "extensions_equivalent",
    "algebra_extension_from_cocycle",
    "algebra_cocycle_from_section",
    "algebra_extensions_equivalent",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def extend_module_to_semidirect(G: KVAlgebra, a_dim: int, V: KVModule) -> KVModule:
    """V as a G = A + W module: (a,w) v = a v and v (a,w) = v a.

    The A block of G comes first, so V's actions by the a_dim basis vectors
    of A keep their indices, and the W block acts as zero.
    """
    N, v = G.dim, V.dim
    left = _blocks(N, v, v, (V.left, 0, 0, 0))
    right = _blocks(v, N, v, (V.right, 0, 0, 0))
    return KVModule(algebra=G, dim=v, left=left, right=right)


@dataclass(frozen=True)
class BigradedCochain:
    """A homogeneous component: exactly w_degree arguments from W, a_degree from A."""

    cochain: Cochain
    a_dim: int
    w_degree: int
    a_degree: int

    def __post_init__(self) -> None:
        if self.w_degree < 0 or self.a_degree < 0:
            raise InputError("bidegrees must be non-negative")
        if self.cochain.degree != self.w_degree + self.a_degree:
            raise DimensionError(
                "cochain degree does not match the claimed bidegree"
            )
        N, q = self.cochain.n, self.cochain.degree
        if not (0 <= self.a_dim <= N):
            raise DimensionError("a_dim must split the semidirect dimension")
        offending = [
            next(t for t, x in enumerate(values) if x)
            for p, values in _pieces(self.cochain, self.a_dim).items()
            if p != self.w_degree
        ]
        if offending:
            # the first nonzero position off the summand is on the first
            # offending basis tuple in lexicographic order
            s = min(offending) // self.cochain.m
            args = tuple(s // N ** (q - 1 - r) % N for r in range(q))
            raise InputError(
                f"cochain is not homogeneous of bidegree "
                f"({self.w_degree},{self.a_degree}): nonzero at {args}"
            )

    def _check_component(self, other: "BigradedCochain") -> None:
        if (self.a_dim, self.w_degree, self.a_degree) != (other.a_dim, other.w_degree, other.a_degree):
            raise DimensionError("bigraded cochains live in different components")

    def __add__(self, other: "BigradedCochain") -> "BigradedCochain":
        self._check_component(other)
        return BigradedCochain(self.cochain + other.cochain, self.a_dim, self.w_degree, self.a_degree)

    def __sub__(self, other: "BigradedCochain") -> "BigradedCochain":
        self._check_component(other)
        return BigradedCochain(self.cochain - other.cochain, self.a_dim, self.w_degree, self.a_degree)


def graded_piece(f: Cochain, a_dim: int, p: int) -> Cochain:
    """The part of f supported on tuples with exactly p W-arguments."""
    vals = _pieces(f, a_dim).get(p)
    if vals is None:
        return Cochain.zero(f.algebra, f.module, f.degree)
    return Cochain(f.algebra, f.module, f.degree, tuple(vals))


def bigrade(f: Cochain, a_dim: int) -> list[tuple[int, int, BigradedCochain]]:
    """Decompose f into its nonzero homogeneous components; they sum to f."""
    q = f.degree
    pieces = _pieces(f, a_dim)
    return [
        (p, q - p, BigradedCochain(Cochain(f.algebra, f.module, q, tuple(pieces[p])), a_dim, p, q - p))
        for p in sorted(pieces)
    ]


def _theta_matrix(theta: Mat, mw: int, mv: int, what: str) -> Mat:
    if theta.rows != mw or theta.cols != mv:
        raise DimensionError(
            f"{what} must be a {mw}x{mv} matrix, got {theta.rows}x{theta.cols}"
        )
    return theta


def _coboundary_on_w(A: KVAlgebra, W: KVModule, X: KVModule, phi: Mat) -> Cochain:
    """The coboundary over G = A + W, valued in X extended to G, of the
    1-cochain that is zero on A and phi on W, for phi: W -> X given by its
    rows phi(w_al) in X-coordinates."""
    G = semidirect(A, W)
    values = (_ZERO,) * (A.dim * X.dim) + phi.entries
    return coboundary(Cochain(G, extend_module_to_semidirect(G, A.dim, X), 1, values))


def e11_coboundary0(A: KVAlgebra, W: KVModule, V: KVModule, theta: Mat) -> BigradedCochain:
    """The bottom differential of the p = 1 column:

    (delta theta)(a, w) = -a theta(w) + theta(aw)
    (delta theta)(w, a) = theta(wa) - theta(w) a

    the coboundary of theta as a 1-cochain over G that is zero on A.
    """
    _theta_matrix(theta, W.dim, V.dim, "theta")
    return BigradedCochain(_coboundary_on_w(A, W, V, theta), A.dim, 1, 1)


def _one_w_tuples(n: int, N: int, length: int) -> list[tuple[int, ...]]:
    """Basis tuples over G, in order, with exactly one index in the W summand:
    for each position of the W index, the product over the A indices around
    it, all sorted once."""
    return sorted(
        itertools.chain.from_iterable(
            itertools.product(*[range(n)] * p, range(n, N), *[range(n)] * (length - 1 - p))
            for p in range(length)
        )
    )


def e11_support(A: KVAlgebra, W: KVModule, V: KVModule, q: int) -> list[int]:
    """Flat indices of the (1, q) component inside C_{q+1}(G, V), in order;
    none, and no tuple listed, when V is zero-dimensional."""
    n, v = A.dim, V.dim
    if not v:
        return []
    N = n + W.dim
    return [_flat(args, N) * v + be for args in _one_w_tuples(n, N, q + 1) for be in range(v)]


def e11_matrix(A: KVAlgebra, W: KVModule, V: KVModule, q: int) -> Mat:
    """delta restricted to the (1, q) component, in the support bases.

    Only the (1, q+1) rows are assembled.  The coboundary raises only the
    A-degree, so they read only (1, q) columns; assembly verifies this and
    fails loudly if one of them reads any other column.
    """
    if q < 0:
        raise InputError("e11 degree must be non-negative")
    G = semidirect(A, W)
    Vt = extend_module_to_semidirect(G, A.dim, V)
    src_support = e11_support(A, W, V, q)
    return _matrix(*_e11_rows(G, Vt, A.dim, q, src_support), len(src_support))


def _e11_rows(
    G: KVAlgebra, Vt: KVModule, n: int, q: int, src_support: list[int]
) -> tuple[int, list[IntRow]]:
    """D and the integer rows of D times e11_matrix, from the semidirect G,
    the extended Vt and the (1, q) support; the rows come in the order of
    the (1, q+1) support.  No tuple is listed when Vt is zero-dimensional,
    since the assembler then takes no output."""
    src = {c: t for t, c in enumerate(src_support)}
    outputs = _one_w_tuples(n, G.dim, q + 2) if Vt.dim else ()
    D, rows = _coboundary_rows(G, Vt, q + 1, outputs)
    try:
        return D, [{src[c]: x for c, x in r.items()} for r in rows]
    except KeyError:
        raise AssertionError(
            "a (1, q+1) row read a column outside (1, q); the bidegree law failed"
        ) from None


def _expand_support(values: Sequence[Fraction], support: Sequence[int], total: int) -> tuple:
    full = [_ZERO] * total
    for val, pos in zip(values, support):
        full[pos] = val
    return tuple(full)


def e11_cohomology(A: KVAlgebra, W: KVModule, V: KVModule, q_max: int) -> CohomologyReport:
    """Cohomology of the p = 1 column 0 -> C_{1,0} -> C_{1,1} -> ...

    Degree q reports the space of (1, q) cochains; degree 0 carries no
    coboundaries from below, and its cocycles are exactly the module
    morphisms W -> V.  Representatives are returned as full cochains over
    the semidirect algebra.
    """
    if q_max < 0:
        raise InputError("q_max must be non-negative")
    _require(is_kv(A), "A is not a KV algebra: {detail}")
    for M, what in ((W, "W"), (V, "V")):
        _require(is_module(A, M), what + " is not a verified module: {detail}")
    n, m, v = A.dim, W.dim, V.dim
    N = n + m
    for q in range(q_max + 2):
        _check_cells(q, (q + 1) * (n**q) * m * v)
    G = semidirect(A, W)
    Vt = extend_module_to_semidirect(G, A.dim, V)
    supports = [e11_support(A, W, V, q) for q in range(q_max + 1)]
    return _walk(
        lambda q: (_e11_rows(G, Vt, n, q, supports[q])[1], len(supports[q])),
        lambda q, z: Cochain(G, Vt, q + 1, _expand_support(z, supports[q], N ** (q + 1) * v)),
        0,
        q_max,
    )


class _KernelFirst:
    """The block maps of an extension whose total space lives on the kernel
    followed by the rest: the quotient module of a module extension, the
    base algebra of an algebra extension.  With k = dim kernel and
    t = dim total the rest has r = t - k coordinates."""

    def injection(self) -> Mat:
        """kernel -> total as a k x t coordinate matrix."""
        k = self.kernel.dim
        return Mat.from_items(k, self.total.dim, {(i, i): _ONE for i in range(k)})

    def projection(self) -> Mat:
        """total -> rest as a t x r coordinate matrix."""
        k, t = self.kernel.dim, self.total.dim
        return Mat.from_items(t, t - k, {(k + i, i): _ONE for i in range(t - k)})

    def canonical_section(self) -> Mat:
        """The block injection rest -> total of the chosen splitting, r x t."""
        k, t = self.kernel.dim, self.total.dim
        return Mat.from_items(t - k, t, {(i, k + i): _ONE for i in range(t - k)})


@dataclass(frozen=True)
class ModuleExtension(_KernelFirst):
    """An extension 0 -> V -> T -> W -> 0 of modules over the base algebra.

    The total module T lives on V + W (V block first) with
    a (v, w) = (a v + theta(a, w), a w) and (v, w) a = (v a + psi(a, w), w a).
    """

    base: KVAlgebra
    kernel: KVModule
    quotient: KVModule
    total: KVModule


def module_extension_from_cocycle(
    A: KVAlgebra, W: KVModule, V: KVModule, f: BigradedCochain
) -> ModuleExtension:
    """Build T = V + W from a (1,1) cocycle; a non-cocycle is rejected.

    theta(a, w) = f(a, w) feeds the left action, psi(a, w) = f(w, a) the
    right action.  The constructed module passes is_module exactly when f
    is a cocycle, so the verifier doubles as the rejection gate.
    """
    if (f.w_degree, f.a_degree) != (1, 1):
        raise InputError("module extensions need a cocycle of bidegree (1,1)")
    n, m, v = A.dim, W.dim, V.dim
    if f.a_dim != n or f.cochain.n != n + m or f.cochain.m != v:
        raise DimensionError("cocycle does not match the given algebra and modules")
    t, N = v + m, n + m
    table = _shaped(f.cochain.values, N, N, v)
    theta = _block(table, 0, n, 0, n, m, v)
    psi = _block(table, n, 0, 0, m, n, v)
    left = _blocks(n, t, t, (V.left, 0, 0, 0), (theta, 0, v, 0), (W.left, 0, v, v))
    right = _blocks(t, n, t, (V.right, 0, 0, 0), (psi, v, 0, 0), (W.right, v, 0, v))
    T = KVModule(algebra=A, dim=t, left=left, right=right)
    _require(
        is_module(A, T),
        "the (1,1) cochain is not a cocycle: the total space fails the "
        "module identities; {detail}",
    )
    return ModuleExtension(base=A, kernel=V, quotient=W, total=T)


def _section(sigma: Mat, k: int, t: int, off: int) -> None:
    """Check that the k x t matrix sigma is a section: the k coordinates of
    each row sigma(e_i) from off on are those of e_i."""
    if sigma.rows != k or sigma.cols != t:
        raise DimensionError(f"section must be {k}x{t}")
    for i in range(k):
        row = sigma.row(i)
        if any(row[off + j] != (_ONE if j == i else _ZERO) for j in range(k)):
            raise InputError("sigma is not a section: proj o sigma != id")


def cocycle_from_section(ext: ModuleExtension, sigma: Mat) -> BigradedCochain:
    """f_sigma(a,w) = a sigma(w) - sigma(aw), f_sigma(w,a) = sigma(w) a - sigma(wa).

    sigma is a linear right inverse of the projection T -> W; its defect
    from being a module morphism, the coboundary of sigma over G, lies in
    the kernel V, and negated it is the cocycle, whose class does not
    depend on the choice of sigma.
    """
    A, V, W, T = ext.base, ext.kernel, ext.quotient, ext.total
    n, m, v = A.dim, W.dim, V.dim
    _section(sigma, m, T.dim, v)
    defect = _coboundary_on_w(A, W, T, sigma)
    G, N = defect.algebra, defect.n
    table = _shaped(defect.values, N, N, T.dim)
    if any(_entries(_block(table, 0, 0, v, N, N, m), 3)):
        raise AssertionError("section defect left the kernel V")
    values = tuple(-x for x in _entries(_block(table, 0, 0, 0, N, N, v), 3))
    return BigradedCochain(Cochain(G, extend_module_to_semidirect(G, n, V), 2, values), n, 1, 1)


def extensions_equivalent(f: BigradedCochain, g: BigradedCochain) -> bool:
    """True iff f - g is the bottom coboundary of some map theta: W -> V.

    The coboundary keeps the W-degree, so a (1,1) cochain that is a
    coboundary over G has a preimage in (1,0), the maps theta: W -> V, and
    the verdict is whether `is_coboundary` finds one.
    """
    if (f.a_dim, f.w_degree, f.a_degree) != (g.a_dim, g.w_degree, g.a_degree):
        raise DimensionError("cocycles live in different components")
    if (f.w_degree, f.a_degree) != (1, 1):
        raise InputError("extension equivalence is decided in bidegree (1,1)")
    return is_coboundary(f.cochain - g.cochain) is not None


@dataclass(frozen=True)
class AlgebraExtension(_KernelFirst):
    """An extension 0 -> W -> T -> A -> 0 with abelian kernel W.

    The total algebra lives on W + A (W block first) with the product
    (w, a)(w', a') = (a w' + w a' + omega(a, a'), a a'); W sits inside as a
    two-sided ideal squaring to zero.
    """

    base: KVAlgebra
    kernel: KVModule
    total: KVAlgebra


def algebra_extension_from_cocycle(
    A: KVAlgebra, W: KVModule, omega: Cochain
) -> AlgebraExtension:
    """Assemble the total algebra; no gate here — is_kv judges the result.

    The KV residual of the total on pure-A triples equals delta omega
    channelled into W, so the total passes is_kv exactly when omega is a
    2-cocycle (given a verified module W).
    """
    if omega.degree != 2 or omega.algebra != A or omega.module != W:
        raise InputError("omega must be a 2-cochain over (A, W)")
    n, m = A.dim, W.dim
    t = m + n
    ome = _shaped(omega.values, n, n, m)
    prod = _blocks(
        t, t, t, (ome, m, m, 0), (A.product, m, m, m), (W.left, m, 0, 0), (W.right, 0, m, 0)
    )
    total = KVAlgebra(dim=t, product=prod)
    return AlgebraExtension(base=A, kernel=W, total=total)


def algebra_cocycle_from_section(ext: AlgebraExtension, sigma: Mat) -> Cochain:
    """omega_sigma(a, a') = sigma(a) sigma(a') - sigma(a a'), valued in W."""
    A, W, T = ext.base, ext.kernel, ext.total
    n, m = A.dim, W.dim
    _section(sigma, n, T.dim, m)
    rows = [sigma.row(i) for i in range(n)]
    sigma_of = sigma.transpose().mat_vec
    defect = [
        [_minus(_bilinear(T.product, x, y, T.dim), sigma_of(A.product[i][j]))
         for j, y in enumerate(rows)]
        for i, x in enumerate(rows)
    ]
    if any(_entries(_block(defect, 0, 0, m, n, n, n), 3)):
        raise AssertionError("section defect left the kernel W")
    return Cochain(A, W, 2, _entries(_block(defect, 0, 0, 0, n, n, m), 3))


def algebra_extensions_equivalent(
    ext1: AlgebraExtension, ext2: AlgebraExtension
) -> Optional[Mat]:
    """The shear realizing an equivalence, or None when there is none.

    An equivalence is an algebra isomorphism (w, a) -> (w + psi(a), a); it
    exists exactly when omega_2 - omega_1 = delta psi, so psi is the
    preimage `is_coboundary` finds, and the candidate is then verified by
    transporting the product of the first total along the shear, as the
    basis change [[I, psi^T], [0, I]].
    """
    if ext1.base != ext2.base or ext1.kernel != ext2.kernel:
        raise DimensionError("extensions live over different data")
    A, W = ext1.base, ext1.kernel
    n, m = A.dim, W.dim
    o1 = algebra_cocycle_from_section(ext1, ext1.canonical_section())
    o2 = algebra_cocycle_from_section(ext2, ext2.canonical_section())
    pre = is_coboundary(o2 - o1)  # need delta psi = omega_2 - omega_1
    if pre is None:
        return None
    x = pre.values
    psi = Mat.from_rows([x[i * m : (i + 1) * m] for i in range(n)], cols=m)
    t = m + n
    diagonal = {(k, k): _ONE for k in range(t)}
    shear = Mat.from_items(t, t, diagonal | {(al, m + i): c for (i, al), c in psi.items()})
    if conjugate_algebra(ext1.total, shear).product != ext2.total.product:
        raise AssertionError(
            "shear solved from the cocycle difference failed to "
            "transport the product; the correspondence is broken"
        )
    return psi
