"""Formal deformations of a KV multiplication.

A deformation is a jet mu(t) = mu_0 + t mu_1 + t^2 mu_2 + ... of bilinear
coefficients over a verified base product.  The family satisfies the KV
identity through order K exactly when the order-k residuals

    E_k(a,b,c) = sum_{i+j=k} [ mu_i(mu_j(a,b),c) - mu_i(a,mu_j(b,c))
                              - mu_i(mu_j(b,a),c) + mu_i(b,mu_j(a,c)) ]

vanish for k <= K.  The residuals organize through the pair bracket
d_mu nu, which satisfies d_{mu_0} nu = delta nu, so that

    E_k = delta mu_k + (1/2) sum_{i+j=k, i,j>=1} d_{mu_i} mu_j

and the order-by-order solver becomes exact linear algebra against the
degree-2 coboundary matrix: obstructions are classes in degree 3.  Trivial
deformations arise by pushing the base product through a formal basis flow;
their first coefficient is a coboundary.  The same bracket mechanics yield
the curvature identity for connections mu_0 + S with S symmetric: the
defect of the commutation formula is exactly -delta S.  All of these are
evaluated from the nonzero structure constants and kept sparse until a
public function returns a tensor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .complexes import Cochain, _cohomology_step, check_budget, coboundary, coboundary_matrix
from .core import (
    CheckResult,
    KVAlgebra,
    Tensor3,
    _bilinear,
    _check_shape,
    _product_lists,
    _two_step,
    is_kv,
    regular_bimodule,
    tensor3,
    zero3,
)
from .errors import DimensionError, InputError, PreconditionError
from .linalg import Mat, Vec, kernel, solve, vec

__all__ = [
    "Tensor4",
    "tensor4",
    "zero4",
    "MultiplicationJet",
    "BasisFlowJet",
    "NextOrderSolution",
    "RigidityReport",
    "kv_bracket",
    "pair_residual",
    "jet_residuals",
    "jet_check",
    "solve_next_order",
    "pushforward_jet",
    "rigidity_report",
    "curvature_check",
    "bilinear_cochain",
    "trilinear_cochain",
    "tensor4_from_cochain",
]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)

Tensor4 = tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]


def tensor4(data: Sequence[Sequence[Sequence[Sequence]]]) -> Tensor4:
    """Coerce nested sequences into an immutable rank-4 tensor of Fractions."""
    return tuple(tensor3(block) for block in data)


def zero4(n: int) -> Tensor4:
    return tuple(zero3(n, n, n) for _ in range(n))


# The nonzero part of a rank-4 tensor: {(a, b, c): {t: value}}.
Sparse4 = dict[tuple[int, int, int], dict[int, Fraction]]


def _sparse4(n: int, terms) -> Sparse4:
    """The rows (a, b, c) -> sum of the two-step terms(a, b, c), nonzero only."""
    rows = ((abc, _two_step(*terms(*abc))) for abc in itertools.product(range(n), repeat=3))
    return {abc: row for abc, row in rows if row}


def _pairs(L, pairs):
    """terms(a, b, c) of the sum of A_ij over (i, j) in pairs.

    L[i] holds the nonzero lists of mu_i (see pair_residual for A_ij).
    """

    def terms(a, b, c):
        out = []
        for i, j in pairs:
            (gi, gi_t), gj = L[i], L[j][0]
            # mu_i(mu_j(a,b),c) - mu_i(a,mu_j(b,c)) - mu_i(mu_j(b,a),c) + mu_i(b,mu_j(a,c))
            out += (
                (False, gj[a][b], gi_t[c]),
                (True, gj[b][c], gi[a]),
                (True, gj[b][a], gi_t[c]),
                (False, gj[a][c], gi[b]),
            )
        return out

    return terms


def _dense4(n: int, s: Sparse4) -> Tensor4:
    def row(abc):
        r = s.get(abc, {})
        return tuple(r.get(t, _ZERO) for t in range(n))

    return tuple(
        tuple(tuple(row((a, b, c)) for c in range(n)) for b in range(n))
        for a in range(n)
    )


def kv_bracket(mu: Tensor3, nu: Tensor3) -> Tensor4:
    """The symmetric pair bracket d_mu nu of two bilinear tensors.

    d_mu nu (a,b,c) = -mu(a,nu(b,c)) + nu(mu(a,b),c) + nu(b,mu(a,c))
                      -mu(nu(b,a),c) + mu(b,nu(a,c)) - nu(mu(b,a),c)
                      -nu(a,mu(b,c)) + mu(nu(a,b),c)

    With mu the base product this is exactly the coboundary of nu, and
    d_mu mu = 2[(a,b,c)_mu - (b,a,c)_mu] for any mu whatsoever.  The
    eight terms are A(mu, nu) + A(nu, mu) of `pair_residual`.
    """
    n = len(mu)
    if len(nu) != n:
        raise DimensionError("bracket arguments must share a dimension")
    _check_shape(mu, n, n, n, "mu")
    _check_shape(nu, n, n, n, "nu")
    L = [_product_lists(mu), _product_lists(nu)]
    return _dense4(n, _sparse4(n, _pairs(L, ((0, 1), (1, 0)))))


def pair_residual(mu_i: Tensor3, mu_j: Tensor3) -> Tensor4:
    """A_{ij}(a,b,c) = mu_i(mu_j(a,b),c) - mu_i(a,mu_j(b,c))
                      - mu_i(mu_j(b,a),c) + mu_i(b,mu_j(a,c)).

    The order-k residual of a jet is the sum of A_{ij} over i + j = k;
    A_{ij} + A_{ji} = d_{mu_i} mu_j.
    """
    n = len(mu_i)
    if len(mu_j) != n:
        raise DimensionError("residual arguments must share a dimension")
    _check_shape(mu_i, n, n, n, "mu_i")
    _check_shape(mu_j, n, n, n, "mu_j")
    L = [_product_lists(mu_i), _product_lists(mu_j)]
    return _dense4(n, _sparse4(n, _pairs(L, ((0, 1),))))


@dataclass(frozen=True)
class MultiplicationJet:
    """mu(t) = mu_0 + t mu_1 + ... + t^K mu_K over a verified base."""

    base: KVAlgebra
    coefficients: tuple[Tensor3, ...]

    def __post_init__(self) -> None:
        verdict = is_kv(self.base)
        if not verdict:
            raise PreconditionError(
                f"jet base is not a KV algebra: witness {verdict.witness}"
            )
        n = self.base.dim
        for k, mu in enumerate(self.coefficients, start=1):
            _check_shape(mu, n, n, n, f"jet coefficient {k}")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    @property
    def dim(self) -> int:
        return self.base.dim

    def coefficient(self, k: int) -> Tensor3:
        """mu_k, with mu_0 the base product and zero beyond the order."""
        if k < 0:
            raise InputError("jet coefficients are indexed from 0")
        if k == 0:
            return self.base.product
        if k <= self.order:
            return self.coefficients[k - 1]
        return zero3(self.dim, self.dim, self.dim)

    def extend(self, mu_next: Tensor3) -> "MultiplicationJet":
        return MultiplicationJet(self.base, self.coefficients + (tensor3(mu_next),))


@dataclass(frozen=True)
class BasisFlowJet:
    """phi_t = id + t theta_1 + ... + t^K theta_K as row-convention matrices."""

    thetas: tuple[Mat, ...]

    def __post_init__(self) -> None:
        if not self.thetas:
            raise InputError("a basis flow needs at least one coefficient")
        n = self.thetas[0].rows
        for th in self.thetas:
            if th.rows != n or th.cols != n:
                raise DimensionError("flow coefficients must be square of one size")

    @property
    def order(self) -> int:
        return len(self.thetas)

    @property
    def dim(self) -> int:
        return self.thetas[0].rows


def bilinear_cochain(A: KVAlgebra, mu: Tensor3) -> Cochain:
    """A bilinear tensor as a 2-cochain with regular coefficients."""
    n = A.dim
    _check_shape(mu, n, n, n, "mu")
    vals = tuple(x for p in mu for r in p for x in r)
    return Cochain(A, regular_bimodule(A), 2, vals)


def trilinear_cochain(A: KVAlgebra, t: Tensor4) -> Cochain:
    """A trilinear tensor as a 3-cochain with regular coefficients."""
    n = A.dim
    vals = tuple(x for q in t for p in q for r in p for x in r)
    if len(vals) != n**4:
        raise DimensionError("trilinear tensor does not match the algebra")
    return Cochain(A, regular_bimodule(A), 3, vals)


def tensor4_from_cochain(f: Cochain) -> Tensor4:
    """Reshape a 3-cochain with regular coefficients back into a tensor."""
    n = f.n
    if f.degree != 3 or f.m != n:
        raise DimensionError("expected a trilinear cochain with regular values")
    return tensor4(
        [
            [
                [list(f.value((a, b, c))) for c in range(n)]
                for b in range(n)
            ]
            for a in range(n)
        ]
    )


def _tensor3_of(v: Vec, n: int) -> Tensor3:
    """A flat degree-2 vector of Fractions, v[(a n + b) n + c], as a tensor."""
    rows = [v[r * n : (r + 1) * n] for r in range(n * n)]
    return tuple(tuple(rows[a * n : (a + 1) * n]) for a in range(n))


def _jet_lists(jet: MultiplicationJet) -> list:
    return [_product_lists(jet.coefficient(i)) for i in range(jet.order + 1)]


def _target(n: int, L, k: int) -> Sparse4:
    """R_k = -(1/2) sum_{i+j=k, i,j>=1} d_{mu_i} mu_j; L[i] holds the nonzero lists of mu_i."""
    B = _sparse4(n, _pairs(L, [p for i in range(1, k) for p in ((i, k - i), (k - i, i))]))
    return {abc: {t: -_HALF * v for t, v in row.items()} for abc, row in B.items()}


def _residuals(jet: MultiplicationJet, L, orders) -> list[Sparse4]:
    """The sparse E_k for k in orders; L[i] holds the nonzero lists of mu_i.

    Each E_k is the direct expansion sum_{i+j=k} A_ij (see pair_residual).
    """
    n = jet.dim
    return [_sparse4(n, _pairs(L, [(i, k - i) for i in range(k + 1)])) for k in orders]


def jet_residuals(jet: MultiplicationJet) -> tuple[Tensor4, ...]:
    """E_0, ..., E_K: the exact order-k coefficients of the KV identity,
    expanded directly from the coefficients (see `_residuals`)."""
    E = _residuals(jet, _jet_lists(jet), range(jet.order + 1))
    return tuple(_dense4(jet.dim, Ek) for Ek in E)


def jet_check(jet: MultiplicationJet) -> CheckResult:
    """Verdict on the KV identity through the jet's order, with a witness."""
    for k, E in enumerate(_residuals(jet, _jet_lists(jet), range(jet.order + 1))):
        if E:
            # rows are stored in lexicographic order of the basis triple
            a, b, c = next(iter(E))
            return CheckResult(
                False,
                witness=(k, a, b, c),
                detail=(
                    f"order-{k} residual is nonzero on the basis triple "
                    f"({a},{b},{c})"
                ),
            )
    return CheckResult(True)


@dataclass(frozen=True)
class NextOrderSolution:
    """Outcome of one order-raising step of the deformation equation.

    target is R_k = -(1/2) sum d_{mu_i} mu_j; a coefficient with
    delta mu_k = R_k extends the jet.  When no coefficient exists the
    certificate is a linear functional vanishing on every coboundary but
    not on R_k, exhibiting the obstruction class.
    """

    order: int
    target: Tensor4
    target_is_cocycle: bool
    coefficient: Optional[Tensor3]
    certificate: Optional[Vec]
    extended: Optional[MultiplicationJet]

    @property
    def solved(self) -> bool:
        return self.coefficient is not None


def solve_next_order(jet: MultiplicationJet) -> NextOrderSolution:
    """Solve delta mu_k = R_k for k = order + 1, or certify the obstruction.

    Orders below k are checked once, on the input jet; after a solve only
    order k of the extended jet is new, and only it is re-checked.  The
    cell budget is checked for the tables of degrees 2 to 4 first.
    """
    return next(_solve_orders(jet))


def _solve_orders(jet: MultiplicationJet) -> Iterator[NextOrderSolution]:
    """The solutions of orders order + 1, order + 2, ... in turn, each step
    extending the jet of the one before; it ends after an obstruction.

    The budget, the nonzero lists of the coefficients and the degree-2
    coboundary matrix are set up once for the chain, and each order is
    checked exactly once: the input orders on entry, then each new order
    after its solve.
    """
    A = jet.base
    n = jet.dim
    for q in (2, 3, 4):
        check_budget(n, n, q)
    L = _jet_lists(jet)
    for kk, E in enumerate(_residuals(jet, L, range(jet.order + 1))):
        if E:
            raise PreconditionError(
                f"cannot raise the order: the order-{kk} residual is nonzero"
            )
    M = coboundary_matrix(A, regular_bimodule(A), 2)
    while True:
        k = jet.order + 1
        target = _dense4(n, _target(n, L, k))
        target_flat = vec([x for q in target for p in q for r in p for x in r])
        target_is_cocycle = coboundary(trilinear_cochain(A, target)).is_zero()
        x = solve(M, target_flat)
        if x is None:
            yield NextOrderSolution(
                k, target, target_is_cocycle, None, _separating(M, target_flat), None
            )
            return
        mu_next = _tensor3_of(x, n)
        jet = jet.extend(mu_next)
        L.append(_product_lists(mu_next))
        if _residuals(jet, L, (k,))[0]:
            raise AssertionError("solved coefficient failed to kill the residual")
        yield NextOrderSolution(k, target, target_is_cocycle, mu_next, None, jet)


def _separating(M: Mat, target_flat: Vec) -> Vec:
    """A functional from the left kernel of M that pairs nonzero with the
    target, pairing over the nonzero entries of the target only."""
    support = [(i, v) for i, v in enumerate(target_flat) if v]
    for y in kernel(M.transpose()).basis:
        if sum(y[i] * v for i, v in support) != 0:
            return y
    raise AssertionError(
        "solve failed but no separating functional exists; "
        "the linear algebra is inconsistent"
    )


def pushforward_jet(flow: BasisFlowJet, A: KVAlgebra) -> MultiplicationJet:
    """The trivial deformation mu_t(a,b) = phi_t(phi_t^{-1}(a) phi_t^{-1}(b)).

    The formal inverse is computed order by order; the resulting jet has
    vanishing residuals through the flow's order and first coefficient
    delta theta_1.
    """
    n = A.dim
    if flow.dim != n:
        raise DimensionError("flow does not act on this algebra")
    K = flow.order
    ident = [[Fraction(1) if j == i else _ZERO for j in range(n)] for i in range(n)]

    def theta(k: int) -> list[list[Fraction]]:
        if k == 0:
            return ident
        return [list(flow.thetas[k - 1].row(i)) for i in range(n)]

    # psi_0 = id; psi_k = -sum_{j<k} psi_j theta_{k-j} (row convention:
    # composing phi after psi multiplies matrices as psi . theta).
    psis: list[list[list[Fraction]]] = [ident]
    for k in range(1, K + 1):
        acc = [[_ZERO] * n for _ in range(n)]
        for j in range(k):
            th = theta(k - j)
            ps = psis[j]
            for r in range(n):
                for c in range(n):
                    s = _ZERO
                    for t in range(n):
                        s += ps[r][t] * th[t][c]
                    acc[r][c] -= s
        psis.append(acc)
    coeffs: list[Tensor3] = []
    for k in range(1, K + 1):
        mu_k = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
        for p in range(k + 1):
            for q in range(k + 1 - p):
                r = k - p - q
                th = theta(p)
                for a in range(n):
                    for b in range(n):
                        prod = _bilinear(A.product, psis[q][a], psis[r][b], n)
                        for s in range(n):
                            if prod[s] == 0:
                                continue
                            for c in range(n):
                                mu_k[a][b][c] += prod[s] * th[s][c]
        coeffs.append(tensor3(mu_k))
    return MultiplicationJet(A, tuple(coeffs))


@dataclass(frozen=True)
class RigidityReport:
    """Zariski tangent data of the multiplication: 2-cocycles mod coboundaries."""

    dim_C2: int
    dim_Z2: int
    dim_B2: int
    dim_H2: int
    rigid: bool
    cocycle_basis: tuple[Tensor3, ...]
    class_representatives: tuple[Tensor3, ...]


def rigidity_report(A: KVAlgebra) -> RigidityReport:
    """Tangent cocycles and the rigidity verdict dim H^2(A, A) = 0.

    The cell budget is checked for the tables of degrees 1 to 3 first.
    """
    n = A.dim
    for q in (1, 2, 3):
        check_budget(n, n, q)
    verdict = is_kv(A)
    if not verdict:
        raise PreconditionError(f"not a KV algebra: witness {verdict.witness}")
    W = regular_bimodule(A)
    Z, B, reps = _cohomology_step(coboundary_matrix(A, W, 2), coboundary_matrix(A, W, 1))
    return RigidityReport(
        dim_C2=n**3,
        dim_Z2=Z.dim,
        dim_B2=B.dim,
        dim_H2=Z.dim - B.dim,
        rigid=(Z.dim == B.dim),
        cocycle_basis=tuple(_tensor3_of(z, n) for z in Z.basis),
        class_representatives=tuple(_tensor3_of(z, n) for z in reps),
    )


def curvature_check(A: KVAlgebra, S: Tensor3) -> Tensor4:
    """R_direct - R_comm for the connection mu_0 + S, S symmetric.

    R_direct(X,Y)Z uses the deformed product and the base Lie bracket;
    R_comm(X,Y)Z = S(X,S(Y,Z)) - S(Y,S(X,Z)).  The difference is exactly
    -delta S contracted on (X,Y,Z), so the two curvature computations agree
    precisely when S is a 2-cocycle.
    """
    verdict = is_kv(A)
    if not verdict:
        raise PreconditionError(f"not a KV algebra: witness {verdict.witness}")
    n = A.dim
    _check_shape(S, n, n, n, "S")
    for i in range(n):
        for j in range(n):
            if S[i][j] != S[j][i]:
                raise InputError(
                    f"S is not symmetric: S(e{i+1},e{j+1}) != S(e{j+1},e{i+1})"
                )
    mu0 = A.product
    mu = tensor3(
        [
            [
                [mu0[i][j][k] + S[i][j][k] for k in range(n)]
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    (M, M_t), G, T = _product_lists(mu), _product_lists(mu0)[0], _product_lists(S)[0]
    # mu(x,mu(y,z)) - mu(y,mu(x,z)) - mu([x,y],z) - S(x,S(y,z)) + S(y,S(x,z))
    residual = _sparse4(
        n,
        lambda x, y, z: (
            (False, M[y][z], M[x]),
            (True, M[x][z], M[y]),
            (True, G[x][y], M_t[z]),
            (False, G[y][x], M_t[z]),
            (True, T[y][z], T[x]),
            (False, T[x][z], T[y]),
        ),
    )
    return _dense4(n, residual)
