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
defect of the commutation formula is exactly -delta S.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import Cochain, coboundary, coboundary_matrix
from .core import (
    CheckResult,
    KVAlgebra,
    Tensor3,
    is_kv,
    regular_bimodule,
    tensor3,
    zero3,
)
from .errors import DimensionError, InputError, PreconditionError
from .linalg import Mat, Vec, extend_basis, image, kernel, solve, vec

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


def _t4_add(a: Tensor4, b: Tensor4) -> Tensor4:
    return tuple(
        tuple(
            tuple(
                tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(pa, pb)
            )
            for pa, pb in zip(qa, qb)
        )
        for qa, qb in zip(a, b)
    )


def _t4_scale(c: Fraction, a: Tensor4) -> Tensor4:
    return tuple(
        tuple(tuple(tuple(c * x for x in r) for r in p) for p in q) for q in a
    )


def _t4_is_zero(a: Tensor4) -> bool:
    return all(x == 0 for q in a for p in q for r in p for x in r)


def _shape_bilinear(mu: Tensor3, n: int, what: str) -> None:
    if len(mu) != n or any(
        len(p) != n or any(len(r) != n for r in p) for p in mu
    ):
        raise DimensionError(f"{what} must have shape {n}x{n}x{n}")


def _apply(mu: Tensor3, x: Vec, y: Vec, n: int) -> list[Fraction]:
    out = [_ZERO] * n
    for i in range(n):
        ci = x[i]
        if ci == 0:
            continue
        for j in range(n):
            c = ci * y[j]
            if c == 0:
                continue
            row = mu[i][j]
            for k in range(n):
                if row[k] != 0:
                    out[k] += c * row[k]
    return out


def kv_bracket(mu: Tensor3, nu: Tensor3) -> Tensor4:
    """The symmetric pair bracket d_mu nu of two bilinear tensors.

    d_mu nu (a,b,c) = -mu(a,nu(b,c)) + nu(mu(a,b),c) + nu(b,mu(a,c))
                      -mu(nu(b,a),c) + mu(b,nu(a,c)) - nu(mu(b,a),c)
                      -nu(a,mu(b,c)) + mu(nu(a,b),c)

    With mu the base product this is exactly the coboundary of nu, and
    d_mu mu = 2[(a,b,c)_mu - (b,a,c)_mu] for any mu whatsoever.
    """
    n = len(mu)
    if len(nu) != n:
        raise DimensionError("bracket arguments must share a dimension")
    _shape_bilinear(mu, n, "mu")
    _shape_bilinear(nu, n, "nu")
    out = [[[[_ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a, b, c in itertools.product(range(n), repeat=3):
        acc = [_ZERO] * n
        for p in range(n):
            # -mu(a, nu(b,c)) and -nu(a, mu(b,c))
            if nu[b][c][p] != 0:
                for k in range(n):
                    acc[k] -= nu[b][c][p] * mu[a][p][k]
            if mu[b][c][p] != 0:
                for k in range(n):
                    acc[k] -= mu[b][c][p] * nu[a][p][k]
            # +nu(mu(a,b),c) and +mu(nu(a,b),c)
            if mu[a][b][p] != 0:
                for k in range(n):
                    acc[k] += mu[a][b][p] * nu[p][c][k]
            if nu[a][b][p] != 0:
                for k in range(n):
                    acc[k] += nu[a][b][p] * mu[p][c][k]
            # +nu(b, mu(a,c)) and +mu(b, nu(a,c))
            if mu[a][c][p] != 0:
                for k in range(n):
                    acc[k] += mu[a][c][p] * nu[b][p][k]
            if nu[a][c][p] != 0:
                for k in range(n):
                    acc[k] += nu[a][c][p] * mu[b][p][k]
            # -mu(nu(b,a),c) and -nu(mu(b,a),c)
            if nu[b][a][p] != 0:
                for k in range(n):
                    acc[k] -= nu[b][a][p] * mu[p][c][k]
            if mu[b][a][p] != 0:
                for k in range(n):
                    acc[k] -= mu[b][a][p] * nu[p][c][k]
        out[a][b][c] = acc
    return tensor4(out)


def pair_residual(mu_i: Tensor3, mu_j: Tensor3) -> Tensor4:
    """A_{ij}(a,b,c) = mu_i(mu_j(a,b),c) - mu_i(a,mu_j(b,c))
                      - mu_i(mu_j(b,a),c) + mu_i(b,mu_j(a,c)).

    The order-k residual of a jet is the sum of A_{ij} over i + j = k;
    A_{ij} + A_{ji} = d_{mu_i} mu_j.
    """
    n = len(mu_i)
    if len(mu_j) != n:
        raise DimensionError("residual arguments must share a dimension")
    _shape_bilinear(mu_i, n, "mu_i")
    _shape_bilinear(mu_j, n, "mu_j")
    out = [[[[_ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a, b, c in itertools.product(range(n), repeat=3):
        acc = [_ZERO] * n
        for p in range(n):
            if mu_j[a][b][p] != 0:
                for k in range(n):
                    acc[k] += mu_j[a][b][p] * mu_i[p][c][k]
            if mu_j[b][c][p] != 0:
                for k in range(n):
                    acc[k] -= mu_j[b][c][p] * mu_i[a][p][k]
            if mu_j[b][a][p] != 0:
                for k in range(n):
                    acc[k] -= mu_j[b][a][p] * mu_i[p][c][k]
            if mu_j[a][c][p] != 0:
                for k in range(n):
                    acc[k] += mu_j[a][c][p] * mu_i[b][p][k]
        out[a][b][c] = acc
    return tensor4(out)


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
            _shape_bilinear(mu, n, f"jet coefficient {k}")

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
    _shape_bilinear(mu, A.dim, "mu")
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


def jet_residuals(jet: MultiplicationJet) -> tuple[Tensor4, ...]:
    """E_0, ..., E_K: the exact order-k coefficients of the KV identity.

    Internally re-derives each E_k (k >= 1) through the bracket identity
    E_k = delta mu_k + (1/2) sum_{i+j=k, i,j>=1} d_{mu_i} mu_j and insists
    the two routes agree.
    """
    n = jet.dim
    K = jet.order
    out: list[Tensor4] = []
    for k in range(K + 1):
        acc = zero4(n)
        for i in range(k + 1):
            acc = _t4_add(acc, pair_residual(jet.coefficient(i), jet.coefficient(k - i)))
        if k >= 1:
            bridge = tensor4_from_cochain(
                coboundary(bilinear_cochain(jet.base, jet.coefficient(k)))
            )
            for i in range(1, k):
                bridge = _t4_add(
                    bridge,
                    _t4_scale(
                        _HALF, kv_bracket(jet.coefficient(i), jet.coefficient(k - i))
                    ),
                )
            if bridge != acc:
                raise AssertionError(
                    "bracket route and direct expansion disagree on a residual"
                )
        out.append(acc)
    return tuple(out)


def jet_check(jet: MultiplicationJet) -> CheckResult:
    """Verdict on the KV identity through the jet's order, with a witness."""
    residuals = jet_residuals(jet)
    n = jet.dim
    for k, E in enumerate(residuals):
        for a, b, c in itertools.product(range(n), repeat=3):
            if any(x != 0 for x in E[a][b][c]):
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
    """Solve delta mu_k = R_k for k = order + 1, or certify the obstruction."""
    residuals = jet_residuals(jet)
    for kk, E in enumerate(residuals):
        if not _t4_is_zero(E):
            raise PreconditionError(
                f"cannot raise the order: the order-{kk} residual is nonzero"
            )
    A = jet.base
    n = jet.dim
    k = jet.order + 1
    target = zero4(n)
    for i in range(1, k):
        j = k - i
        if i <= jet.order and j <= jet.order:
            target = _t4_add(
                target,
                _t4_scale(
                    -_HALF, kv_bracket(jet.coefficient(i), jet.coefficient(j))
                ),
            )
    target_flat = vec([x for q in target for p in q for r in p for x in r])
    target_is_cocycle = coboundary(trilinear_cochain(A, target)).is_zero()
    M = coboundary_matrix(A, regular_bimodule(A), 2)
    x = solve(M, target_flat)
    if x is not None:
        mu_next = tensor3(
            [
                [list(x[(a * n + b) * n : (a * n + b) * n + n]) for b in range(n)]
                for a in range(n)
            ]
        )
        extended = jet.extend(mu_next)
        if not _t4_is_zero(jet_residuals(extended)[k]):
            raise AssertionError("solved coefficient failed to kill the residual")
        return NextOrderSolution(k, target, target_is_cocycle, mu_next, None, extended)
    # No solution: produce a functional from the left kernel separating R_k.
    certificate = None
    for y in kernel(M.transpose()).basis:
        pairing = sum(a * b for a, b in zip(y, target_flat))
        if pairing != 0:
            certificate = y
            break
    if certificate is None:
        raise AssertionError(
            "solve failed but no separating functional exists; "
            "the linear algebra is inconsistent"
        )
    return NextOrderSolution(k, target, target_is_cocycle, None, certificate, None)


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
                        prod = _apply(
                            A.product, vec(psis[q][a]), vec(psis[r][b]), n
                        )
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
    """Tangent cocycles and the rigidity verdict dim H^2(A, A) = 0."""
    verdict = is_kv(A)
    if not verdict:
        raise PreconditionError(f"not a KV algebra: witness {verdict.witness}")
    n = A.dim
    W = regular_bimodule(A)
    M2 = coboundary_matrix(A, W, 2)
    M1 = coboundary_matrix(A, W, 1)
    Z = kernel(M2)
    B = image(M1)

    def unflatten(v: Vec) -> Tensor3:
        return tensor3(
            [
                [list(v[(a * n + b) * n : (a * n + b) * n + n]) for b in range(n)]
                for a in range(n)
            ]
        )

    return RigidityReport(
        dim_C2=n**3,
        dim_Z2=Z.dim,
        dim_B2=B.dim,
        dim_H2=Z.dim - B.dim,
        rigid=(Z.dim == B.dim),
        cocycle_basis=tuple(unflatten(z) for z in Z.basis),
        class_representatives=tuple(unflatten(z) for z in extend_basis(B, Z.basis)),
    )


def curvature_check(A: KVAlgebra, S: Tensor3) -> Tensor4:
    """R_direct - R_comm for the connection mu_0 + S, S symmetric.

    R_direct(X,Y)Z uses the deformed product and the base Lie bracket;
    R_comm(X,Y)Z = S(X,S(Y,Z)) - S(Y,S(X,Z)).  The difference is exactly
    -delta S contracted on (X,Y,Z) — asserted — so the two curvature
    computations agree precisely when S is a 2-cocycle.
    """
    verdict = is_kv(A)
    if not verdict:
        raise PreconditionError(f"not a KV algebra: witness {verdict.witness}")
    n = A.dim
    _shape_bilinear(S, n, "S")
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
    out = [[[[_ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for x, y, z in itertools.product(range(n), repeat=3):
        ex = [Fraction(1) if t == x else _ZERO for t in range(n)]
        ey = [Fraction(1) if t == y else _ZERO for t in range(n)]
        ez = [Fraction(1) if t == z else _ZERO for t in range(n)]
        direct = _apply(mu, ex, _apply(mu, ey, ez, n), n)
        swap = _apply(mu, ey, _apply(mu, ex, ez, n), n)
        bracket = [mu0[x][y][t] - mu0[y][x][t] for t in range(n)]
        br_term = _apply(mu, bracket, ez, n)
        comm = _apply(S, ex, _apply(S, ey, ez, n), n)
        comm2 = _apply(S, ey, _apply(S, ex, ez, n), n)
        out[x][y][z] = [
            direct[t] - swap[t] - br_term[t] - comm[t] + comm2[t] for t in range(n)
        ]
    residual = tensor4(out)
    minus_ds = _t4_scale(
        Fraction(-1),
        tensor4_from_cochain(coboundary(bilinear_cochain(A, tensor3(S)))),
    )
    if residual != minus_ds:
        raise AssertionError(
            "curvature defect does not match the coboundary contraction"
        )
    return residual
