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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import (
    Cochain,
    CohomologyReport,
    DegreeData,
    _assemble,
    _check_cells,
    _cohomology_step,
    _divided,
    _flat,
    coboundary_matrix,
)
from .core import (
    Element,
    KVAlgebra,
    KVModule,
    is_module,
    semidirect,
    tensor3,
)
from .errors import DimensionError, InputError, PreconditionError
from .linalg import Mat, Vec, solve

__all__ = [
    "BigradedCochain",
    "ModuleExtension",
    "AlgebraExtension",
    "extend_module_to_semidirect",
    "w_count",
    "bigrade",
    "graded_piece",
    "in_filtration_at_least",
    "in_filtration_at_most",
    "embed_w_map",
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
    """V as a G = A + W module: (a,w) v = a v and v (a,w) = v a."""
    n = a_dim
    N = G.dim
    v = V.dim
    left = [[[_ZERO] * v for _ in range(v)] for _ in range(N)]
    right = [[[_ZERO] * v for _ in range(N)] for _ in range(v)]
    for i in range(n):
        for al in range(v):
            for be in range(v):
                left[i][al][be] = V.left[i][al][be]
                right[al][i][be] = V.right[al][i][be]
    return KVModule(algebra=G, dim=v, left=tensor3(left), right=tensor3(right))


def w_count(args: Sequence[int], a_dim: int) -> int:
    """How many of the basis indices fall in the W summand."""
    return sum(1 for i in args if i >= a_dim)


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
        N = self.cochain.n
        if not (0 <= self.a_dim <= N):
            raise DimensionError("a_dim must split the semidirect dimension")
        for args in itertools.product(range(N), repeat=self.cochain.degree):
            if w_count(args, self.a_dim) != self.w_degree:
                if any(x != 0 for x in self.cochain.value(args)):
                    raise InputError(
                        f"cochain is not homogeneous of bidegree "
                        f"({self.w_degree},{self.a_degree}): nonzero at {args}"
                    )

    def __add__(self, other: "BigradedCochain") -> "BigradedCochain":
        if (self.a_dim, self.w_degree, self.a_degree) != (
            other.a_dim,
            other.w_degree,
            other.a_degree,
        ):
            raise DimensionError("bigraded cochains live in different components")
        return BigradedCochain(
            self.cochain + other.cochain, self.a_dim, self.w_degree, self.a_degree
        )

    def __sub__(self, other: "BigradedCochain") -> "BigradedCochain":
        if (self.a_dim, self.w_degree, self.a_degree) != (
            other.a_dim,
            other.w_degree,
            other.a_degree,
        ):
            raise DimensionError("bigraded cochains live in different components")
        return BigradedCochain(
            self.cochain - other.cochain, self.a_dim, self.w_degree, self.a_degree
        )


def graded_piece(f: Cochain, a_dim: int, p: int) -> Cochain:
    """The part of f supported on tuples with exactly p W-arguments."""
    N = f.n
    m = f.m
    vals = list(f.values)
    for args in itertools.product(range(N), repeat=f.degree):
        if w_count(args, a_dim) != p:
            off = f.offset(args)
            for t in range(m):
                vals[off + t] = _ZERO
    return Cochain(f.algebra, f.module, f.degree, tuple(vals))


def bigrade(f: Cochain, a_dim: int) -> list[tuple[int, int, BigradedCochain]]:
    """Decompose f into its nonzero homogeneous components; they sum to f."""
    out = []
    for p in range(f.degree + 1):
        piece = graded_piece(f, a_dim, p)
        if not piece.is_zero():
            out.append((p, f.degree - p, BigradedCochain(piece, a_dim, p, f.degree - p)))
    return out


def in_filtration_at_least(f: Cochain, a_dim: int, p: int) -> bool:
    """Membership in F^p: every nonzero component has W-degree >= p."""
    return all(comp_p >= p for comp_p, _, _ in bigrade(f, a_dim))


def in_filtration_at_most(f: Cochain, a_dim: int, p: int) -> bool:
    """Membership in F_p: every nonzero component has W-degree <= p."""
    return all(comp_p <= p for comp_p, _, _ in bigrade(f, a_dim))


def _theta_matrix(theta: Mat, mw: int, mv: int, what: str) -> Mat:
    if theta.rows != mw or theta.cols != mv:
        raise DimensionError(
            f"{what} must be a {mw}x{mv} matrix, got {theta.rows}x{theta.cols}"
        )
    return theta


def embed_w_map(A: KVAlgebra, W: KVModule, V: KVModule, theta: Mat) -> Cochain:
    """A linear map theta: W -> V as a 1-cochain over G supported on W."""
    _theta_matrix(theta, W.dim, V.dim, "theta")
    G = semidirect(A, W)
    Vt = extend_module_to_semidirect(G, A.dim, V)
    n, v = A.dim, V.dim
    vals: list[Fraction] = []
    for i in range(G.dim):
        if i < n:
            vals.extend([_ZERO] * v)
        else:
            vals.extend(theta.row(i - n))
    return Cochain(G, Vt, 1, tuple(vals))


def e11_coboundary0(A: KVAlgebra, W: KVModule, V: KVModule, theta: Mat) -> BigradedCochain:
    """The bottom differential of the p = 1 column, assembled from its formula.

    (delta theta)(a, w) = -a theta(w) + theta(aw)
    (delta theta)(w, a) = theta(wa) - theta(w) a
    """
    _theta_matrix(theta, W.dim, V.dim, "theta")
    G = semidirect(A, W)
    Vt = extend_module_to_semidirect(G, A.dim, V)
    n, v = A.dim, V.dim
    theta_of = theta.transpose().mat_vec

    def fn(args: tuple[int, ...]) -> Sequence[Fraction]:
        x, y = args
        if x < n and y >= n:
            i, al = x, y - n
            a = A.basis_element(i)
            w = W.basis_element(al)
            atw = V.left_act(a, Element(theta_of(w.coords)))
            taw = theta_of(W.left_act(a, w).coords)
            return [taw[be] - atw.coords[be] for be in range(v)]
        if x >= n and y < n:
            al, i = x - n, y
            a = A.basis_element(i)
            w = W.basis_element(al)
            twa = theta_of(W.right_act(w, a).coords)
            twa_right = V.right_act(Element(theta_of(w.coords)), a)
            return [twa[be] - twa_right.coords[be] for be in range(v)]
        return [_ZERO] * v

    cochain = Cochain.from_function(G, Vt, 2, fn)
    return BigradedCochain(cochain, n, 1, 1)


def _one_w_tuples(n: int, N: int, length: int) -> list[tuple[int, ...]]:
    """Basis tuples over G, in order, with exactly one index in the W summand."""
    return [args for args in itertools.product(range(N), repeat=length) if w_count(args, n) == 1]


def e11_support(A: KVAlgebra, W: KVModule, V: KVModule, q: int) -> list[int]:
    """Flat indices of the (1, q) component inside C_{q+1}(G, V), in order."""
    n, v = A.dim, V.dim
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
    return _e11_matrix(G, Vt, A.dim, q, e11_support(A, W, V, q), e11_support(A, W, V, q + 1))


def _e11_matrix(
    G: KVAlgebra, Vt: KVModule, n: int, q: int, src_support: list[int], dst_support: list[int]
) -> Mat:
    """e11_matrix from the semidirect G, the extended Vt and both supports."""
    src = {c: t for t, c in enumerate(src_support)}
    dst = {r: t for t, r in enumerate(dst_support)}
    out = {}
    for (r, c), val in _divided(*_assemble(G, Vt, q + 1, _one_w_tuples(n, G.dim, q + 2))).items():
        if c not in src:
            raise AssertionError(
                "a (1, q+1) row read a column outside (1, q); the bidegree law failed"
            )
        out[dst[r], src[c]] = val
    return Mat.from_items(len(dst), len(src), out)


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
    for M, what in ((W, "W"), (V, "V")):
        verdict = is_module(A, M)
        if not verdict:
            raise PreconditionError(f"{what} is not a verified module: {verdict.detail}")
    n, m, v = A.dim, W.dim, V.dim
    N = n + m
    for q in range(q_max + 2):
        _check_cells(q, (q + 1) * (n**q) * m * v)
    G = semidirect(A, W)
    Vt = extend_module_to_semidirect(G, A.dim, V)
    supports = [e11_support(A, W, V, q) for q in range(q_max + 2)]
    mats = {q: _e11_matrix(G, Vt, n, q, supports[q], supports[q + 1]) for q in range(q_max + 1)}
    degrees: list[DegreeData] = []
    for q, support in enumerate(supports[:-1]):
        Z, B, rep_vecs = _cohomology_step(mats[q], mats.get(q - 1))
        reps = [
            Cochain(G, Vt, q + 1, _expand_support(z, support, N ** (q + 1) * v))
            for z in rep_vecs
        ]
        degrees.append(
            DegreeData(q, len(support), Z.dim, B.dim, Z.dim - B.dim, tuple(reps))
        )
    return CohomologyReport(tuple(degrees))


@dataclass(frozen=True)
class ModuleExtension:
    """An extension 0 -> V -> T -> W -> 0 of modules over the base algebra.

    The total module T lives on V + W (V block first) with
    a (v, w) = (a v + theta(a, w), a w) and (v, w) a = (v a + psi(a, w), w a).
    """

    base: KVAlgebra
    kernel: KVModule
    quotient: KVModule
    total: KVModule

    def injection(self) -> Mat:
        """V -> T as a (dim V) x (dim T) coordinate matrix."""
        v, t = self.kernel.dim, self.total.dim
        return Mat.from_rows(
            [[_ONE if j == i else _ZERO for j in range(t)] for i in range(v)], cols=t
        )

    def projection(self) -> Mat:
        """T -> W as a (dim T) x (dim W) coordinate matrix."""
        v, m, t = self.kernel.dim, self.quotient.dim, self.total.dim
        return Mat.from_rows(
            [
                [_ONE if i >= v and i - v == j else _ZERO for j in range(m)]
                for i in range(t)
            ],
            cols=m,
        )

    def canonical_section(self) -> Mat:
        """The block injection W -> T of the chosen splitting."""
        v, m, t = self.kernel.dim, self.quotient.dim, self.total.dim
        return Mat.from_rows(
            [[_ONE if j == v + i else _ZERO for j in range(t)] for i in range(m)],
            cols=t,
        )

    def theta_values(self) -> list[list[Vec]]:
        """theta(e_i, w_al) in V-coordinates, read back from the total action."""
        v = self.kernel.dim
        return [
            [self.total.left[i][v + al][:v] for al in range(self.quotient.dim)]
            for i in range(self.base.dim)
        ]

    def psi_values(self) -> list[list[Vec]]:
        """psi(e_i, w_al) in V-coordinates, read back from the total action."""
        v = self.kernel.dim
        return [
            [self.total.right[v + al][i][:v] for al in range(self.quotient.dim)]
            for i in range(self.base.dim)
        ]


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
    t = v + m
    left = [[[_ZERO] * t for _ in range(t)] for _ in range(n)]
    right = [[[_ZERO] * t for _ in range(n)] for _ in range(t)]
    for i in range(n):
        for be in range(v):
            for ga in range(v):
                left[i][be][ga] = V.left[i][be][ga]
                right[be][i][ga] = V.right[be][i][ga]
        for al in range(m):
            th = f.cochain.value((i, n + al))
            ps = f.cochain.value((n + al, i))
            for ga in range(v):
                left[i][v + al][ga] = th[ga]
                right[v + al][i][ga] = ps[ga]
            for ga in range(m):
                left[i][v + al][v + ga] = W.left[i][al][ga]
                right[v + al][i][v + ga] = W.right[al][i][ga]
    T = KVModule(algebra=A, dim=t, left=tensor3(left), right=tensor3(right))
    verdict = is_module(A, T)
    if not verdict:
        raise PreconditionError(
            f"the (1,1) cochain is not a cocycle: the total space fails the "
            f"module identities; {verdict.detail}"
        )
    return ModuleExtension(base=A, kernel=V, quotient=W, total=T)


def cocycle_from_section(ext: ModuleExtension, sigma: Mat) -> BigradedCochain:
    """f_sigma(a,w) = a sigma(w) - sigma(aw), f_sigma(w,a) = sigma(w) a - sigma(wa).

    sigma is a linear right inverse of the projection T -> W; its defect
    from being a module morphism is the cocycle, whose class does not
    depend on the choice of sigma.
    """
    A, V, W, T = ext.base, ext.kernel, ext.quotient, ext.total
    n, m, v = A.dim, W.dim, V.dim
    if sigma.rows != m or sigma.cols != T.dim:
        raise DimensionError(f"section must be {m}x{T.dim}")
    for al in range(m):
        row = sigma.row(al)
        for ga in range(m):
            want = _ONE if ga == al else _ZERO
            if row[v + ga] != want:
                raise InputError("sigma is not a section: proj o sigma != id")
    G = semidirect(A, W)
    Vt = extend_module_to_semidirect(G, n, V)
    sigma_t = sigma.transpose()

    def sigma_of(wcoords: Vec) -> Element:
        return Element(sigma_t.mat_vec(wcoords))

    def fn(args: tuple[int, ...]) -> Sequence[Fraction]:
        x, y = args
        if x < n and y >= n:
            i, al = x, y - n
            a = A.basis_element(i)
            w = W.basis_element(al)
            val = T.left_act(a, sigma_of(w.coords)) - sigma_of(W.left_act(a, w).coords)
        elif x >= n and y < n:
            al, i = x - n, y
            a = A.basis_element(i)
            w = W.basis_element(al)
            val = T.right_act(sigma_of(w.coords), a) - sigma_of(W.right_act(w, a).coords)
        else:
            return [_ZERO] * v
        if any(val.coords[v + ga] != 0 for ga in range(m)):
            raise AssertionError("section defect left the kernel V")
        return val.coords[:v]

    cochain = Cochain.from_function(G, Vt, 2, fn)
    return BigradedCochain(cochain, n, 1, 1)


def extensions_equivalent(f: BigradedCochain, g: BigradedCochain) -> bool:
    """True iff f - g is the bottom coboundary of some map theta: W -> V."""
    if (f.a_dim, f.w_degree, f.a_degree) != (g.a_dim, g.w_degree, g.a_degree):
        raise DimensionError("cocycles live in different components")
    if (f.w_degree, f.a_degree) != (1, 1):
        raise InputError("extension equivalence is decided in bidegree (1,1)")
    diff = f.cochain - g.cochain
    A, W, V = _split_semidirect(f)
    # The bottom map: its columns are the coboundaries of the Hom(W, V) basis.
    target = [diff.values[pos] for pos in e11_support(A, W, V, 1)]
    return solve(e11_matrix(A, W, V, 0), target) is not None


def _split_semidirect(f: BigradedCochain) -> tuple[KVAlgebra, KVModule, KVModule]:
    """Recover (A, W, V) from a bigraded cochain over G = semidirect(A, W)."""
    G = f.cochain.algebra
    Vt = f.cochain.module
    n = f.a_dim
    N = G.dim
    m = N - n
    aprod = tuple(
        tuple(tuple(G.product[i][j][k] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    A = KVAlgebra(dim=n, product=aprod)
    wleft = tuple(
        tuple(tuple(G.product[i][n + al][n + be] for be in range(m)) for al in range(m))
        for i in range(n)
    )
    wright = tuple(
        tuple(tuple(G.product[n + al][i][n + be] for be in range(m)) for i in range(n))
        for al in range(m)
    )
    W = KVModule(algebra=A, dim=m, left=wleft, right=wright)
    vleft = tuple(
        tuple(tuple(Vt.left[i][al][be] for be in range(Vt.dim)) for al in range(Vt.dim))
        for i in range(n)
    )
    vright = tuple(
        tuple(tuple(Vt.right[al][i][be] for be in range(Vt.dim)) for i in range(n))
        for al in range(Vt.dim)
    )
    V = KVModule(algebra=A, dim=Vt.dim, left=vleft, right=vright)
    return A, W, V


@dataclass(frozen=True)
class AlgebraExtension:
    """An extension 0 -> W -> T -> A -> 0 with abelian kernel W.

    The total algebra lives on W + A (W block first) with the product
    (w, a)(w', a') = (a w' + w a' + omega(a, a'), a a'); W sits inside as a
    two-sided ideal squaring to zero.
    """

    base: KVAlgebra
    kernel: KVModule
    total: KVAlgebra

    def injection(self) -> Mat:
        m, t = self.kernel.dim, self.total.dim
        return Mat.from_rows(
            [[_ONE if j == i else _ZERO for j in range(t)] for i in range(m)], cols=t
        )

    def projection(self) -> Mat:
        m, t = self.kernel.dim, self.total.dim
        n = self.base.dim
        return Mat.from_rows(
            [
                [_ONE if i >= m and i - m == j else _ZERO for j in range(n)]
                for i in range(t)
            ],
            cols=n,
        )

    def canonical_section(self) -> Mat:
        m, t = self.kernel.dim, self.total.dim
        n = self.base.dim
        return Mat.from_rows(
            [[_ONE if j == m + i else _ZERO for j in range(t)] for i in range(n)],
            cols=t,
        )


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
    prod = [[[_ZERO] * t for _ in range(t)] for _ in range(t)]
    for i in range(n):
        for j in range(n):
            ome = omega.value((i, j))
            for k in range(m):
                prod[m + i][m + j][k] = ome[k]
            for k in range(n):
                prod[m + i][m + j][m + k] = A.product[i][j][k]
        for al in range(m):
            for be in range(m):
                prod[m + i][al][be] = W.left[i][al][be]
                prod[al][m + i][be] = W.right[al][i][be]
    total = KVAlgebra(dim=t, product=tensor3(prod))
    return AlgebraExtension(base=A, kernel=W, total=total)


def algebra_cocycle_from_section(ext: AlgebraExtension, sigma: Mat) -> Cochain:
    """omega_sigma(a, a') = sigma(a) sigma(a') - sigma(a a'), valued in W."""
    A, W, T = ext.base, ext.kernel, ext.total
    n, m = A.dim, W.dim
    if sigma.rows != n or sigma.cols != T.dim:
        raise DimensionError(f"section must be {n}x{T.dim}")
    for i in range(n):
        row = sigma.row(i)
        for j in range(n):
            want = _ONE if j == i else _ZERO
            if row[m + j] != want:
                raise InputError("sigma is not a section: proj o sigma != id")

    sigma_t = sigma.transpose()

    def sigma_of(acoords: Vec) -> Element:
        return Element(sigma_t.mat_vec(acoords))

    def fn(args: tuple[int, ...]) -> Sequence[Fraction]:
        i, j = args
        a = A.basis_element(i)
        b = A.basis_element(j)
        val = T.mul(sigma_of(a.coords), sigma_of(b.coords)) - sigma_of(
            A.mul(a, b).coords
        )
        if any(val.coords[m + k] != 0 for k in range(n)):
            raise AssertionError("section defect left the kernel W")
        return val.coords[:m]

    return Cochain.from_function(A, W, 2, fn)


def algebra_extensions_equivalent(
    ext1: AlgebraExtension, ext2: AlgebraExtension
) -> Optional[Mat]:
    """The shear realizing an equivalence, or None when there is none.

    An equivalence is an algebra isomorphism (w, a) -> (w + psi(a), a); its
    existence is decided by an exact linear solve for psi and then the
    candidate is verified by transporting every basis product.
    """
    if ext1.base != ext2.base or ext1.kernel != ext2.kernel:
        raise DimensionError("extensions live over different data")
    A, W = ext1.base, ext1.kernel
    n, m = A.dim, W.dim
    o1 = algebra_cocycle_from_section(ext1, ext1.canonical_section())
    o2 = algebra_cocycle_from_section(ext2, ext2.canonical_section())
    diff = o2 - o1  # need delta psi = omega_2 - omega_1
    M = coboundary_matrix(A, W, 1)
    x = solve(M, diff.values)
    if x is None:
        return None
    psi = Mat.from_rows([x[i * m : (i + 1) * m] for i in range(n)], cols=m)
    # Verify: phi(u .1 v) = phi(u) .2 phi(v) on every basis pair of T.
    T1, T2 = ext1.total, ext2.total
    psi_t = psi.transpose()

    def phi(el: Element) -> Element:
        shift = psi_t.mat_vec(el.coords[m:])
        return Element(tuple(x + y for x, y in zip(el.coords, shift)) + el.coords[m:])

    for x1 in range(T1.dim):
        for y1 in range(T1.dim):
            u = T1.basis_element(x1)
            v = T1.basis_element(y1)
            lhs = phi(T1.mul(u, v))
            rhs = T2.mul(phi(u), phi(v))
            if lhs != rhs:
                raise AssertionError(
                    "shear solved from the cocycle difference failed to "
                    "transport the product; the correspondence is broken"
                )
    return psi
