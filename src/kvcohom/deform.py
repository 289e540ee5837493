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
degree-2 coboundary matrix: obstructions are classes in degree 3.  This
module never assembles or cuts that matrix: `rigidity_report` reads
delta_1 and delta_2 from `complexes._rows`, and the solver hands R_k, on
every output position, to `complexes._ClassRows`, which reads it on the
a < b rows of delta_2 (the pair bracket is antisymmetric in (a, b), and so
is R_k) and keeps to the weight classes R_k touches; a chain keeps the
rows it has assembled for the later orders that land in the same classes.
On an obstruction the certificate, a functional on all n^4 rows, comes
from the full rows of the same classes.  The target's cocycle verdict is
read from the nonzero sums of its coboundary.  A jet keeps its integer
lists (`_jet_lists`), and `extend` extends them without verifying the base
again.  The same bracket mechanics yield the curvature identity for
connections mu_0 + S with S symmetric: the defect of the commutation
formula is exactly -delta S.  All of these are
evaluated from the nonzero structure constants, as integers over one common
denominator d (`core._scaled_lists`; the base product comes from the
algebra's integer view, `core._view`, so a jet never lists it again), and
kept sparse until a public function returns a tensor, when each entry is
divided by d^2 once.  Every such sum of two-step products is expanded by
the one scatter kernel of the package, `core._sparse4`, from term specs,
so the work follows the nonzero constants and not the n^3 basis triples.
The residuals, the targets of the solver and the pair bracket are sums of
the A_ij specs of `core._pair_terms`, whose A_00 is the KV defect that
`is_kv` scans; the curvature is a spec of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .complexes import (
    Cochain,
    _ClassRows,
    _coboundary_sums,
    _cohomology_step,
    _rows,
    check_budget,
)
from .core import (
    CheckResult,
    KVAlgebra,
    Tensor3,
    _check_shape,
    _entries,
    Sparse4,
    _int_lists,
    _pair_terms,
    _common,
    _scaled_lists,
    _shaped,
    _sparse4,
    _view,
    is_kv,
    regular_bimodule,
    tensor3,
    zero3,
)
from .errors import DimensionError, InputError, PreconditionError
from .linalg import Vec, _quotient

__all__ = [
    "Tensor4",
    "tensor4",
    "zero4",
    "MultiplicationJet",
    "NextOrderSolution",
    "RigidityReport",
    "kv_bracket",
    "jet_residuals",
    "jet_check",
    "solve_next_order",
    "rigidity_report",
    "curvature_check",
    "bilinear_cochain",
    "tensor4_from_cochain",
]

_ZERO = Fraction(0)

Tensor4 = tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]


def tensor4(data: Sequence[Sequence[Sequence[Sequence]]]) -> Tensor4:
    """Coerce nested sequences into an immutable rank-4 tensor of Fractions."""
    return tuple(tensor3(block) for block in data)


def zero4(n: int) -> Tensor4:
    return tuple(zero3(n, n, n) for _ in range(n))


def _dense4(n: int, s: Sparse4) -> Tensor4:
    flat = [_ZERO] * n**4
    for (a, b, c), row in s.items():
        base = ((a * n + b) * n + c) * n
        for t, x in row.items():
            flat[base + t] = x
    return _shaped(flat, n, n, n, n)


def _divided4(n: int, s: Sparse4, d: int) -> Tensor4:
    """The dense tensor of the integer rows s, each entry divided by d once."""
    return _dense4(n, {abc: _quotient(row, d) for abc, row in s.items()})


def kv_bracket(mu: Tensor3, nu: Tensor3) -> Tensor4:
    """The symmetric pair bracket d_mu nu of two bilinear tensors.

    d_mu nu (a,b,c) = -mu(a,nu(b,c)) + nu(mu(a,b),c) + nu(b,mu(a,c))
                      -mu(nu(b,a),c) + mu(b,nu(a,c)) - nu(mu(b,a),c)
                      -nu(a,mu(b,c)) + mu(nu(a,b),c)

    With mu the base product this is exactly the coboundary of nu, and
    d_mu mu = 2[(a,b,c)_mu - (b,a,c)_mu] for any mu whatsoever.  The
    eight terms are A(mu, nu) + A(nu, mu) of `core._pair_terms`, summed over
    the nonzero constants times their common denominator d and divided by
    d^2 once.
    """
    n = len(mu)
    if len(nu) != n:
        raise DimensionError("bracket arguments must share a dimension")
    _check_shape(mu, n, n, n, "mu")
    _check_shape(nu, n, n, n, "nu")
    d, L = _scaled_lists(_int_lists(mu), _int_lists(nu))
    return _divided4(n, _sparse4((n,) * 3, _pair_terms(L, ((0, 1), (1, 0)))), d * d)


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

    @staticmethod
    def _of(base: KVAlgebra, coefficients: tuple[Tensor3, ...]) -> "MultiplicationJet":
        """A jet over a base already verified, with coefficients of its shape."""
        jet = object.__new__(MultiplicationJet)
        object.__setattr__(jet, "base", base)
        object.__setattr__(jet, "coefficients", coefficients)
        return jet

    def extend(self, mu_next: Tensor3) -> "MultiplicationJet":
        """The jet one order longer, over the same verified base; its
        integer lists extend this jet's when it has them (`_jet_lists`)."""
        mu = tensor3(mu_next)
        n = self.dim
        _check_shape(mu, n, n, n, f"jet coefficient {self.order + 1}")
        jet = MultiplicationJet._of(self.base, self.coefficients + (mu,))
        lists = getattr(self, "_lists", None)
        if lists is not None:
            d, L = lists
            D, gams = _common(*((d, g) for g, _ in L), _int_lists(mu))
            L = [old if g is old[0] else (g, tuple(zip(*g))) for old, g in zip(L, gams)]
            object.__setattr__(jet, "_lists", (D, L + [(gams[-1], tuple(zip(*gams[-1])))]))
        return jet


def bilinear_cochain(A: KVAlgebra, mu: Tensor3) -> Cochain:
    """A bilinear tensor as a 2-cochain with regular coefficients."""
    n = A.dim
    _check_shape(mu, n, n, n, "mu")
    return Cochain(A, regular_bimodule(A), 2, _entries(mu, 3))


def tensor4_from_cochain(f: Cochain) -> Tensor4:
    """Reshape a 3-cochain with regular coefficients back into a tensor."""
    n = f.n
    if f.degree != 3 or f.m != n:
        raise DimensionError("expected a trilinear cochain with regular values")
    return tensor4(_shaped(f.values, n, n, n, n))


def _jet_lists(jet: MultiplicationJet) -> tuple[int, list]:
    """d and the nonzero lists of mu_0, ..., mu_K, each times d, as ints;
    d is the lcm of the denominators of all the coefficients.  mu_0 comes
    from the base's integer view, so it is never listed again.  The lists
    are built once per jet and kept on it outside its fields, as `_view`
    keeps an integer view.

    A sum of two-step terms over these lists is d^2 times its value.
    """
    lists = getattr(jet, "_lists", None)
    if lists is None:
        base = _view(jet.base)
        lists = _scaled_lists((base.D, base.gam), *map(_int_lists, jet.coefficients))
        object.__setattr__(jet, "_lists", lists)
    return lists


def _target(n: int, L, d: int, k: int) -> Sparse4:
    """R_k = -(1/2) sum_{i+j=k, i,j>=1} d_{mu_i} mu_j; L[i] holds the
    nonzero lists of mu_i times d, as `_jet_lists` gives them."""
    B = _sparse4((n,) * 3, _pair_terms(L, [p for i in range(1, k) for p in ((i, k - i), (k - i, i))]))
    return {abc: _quotient({t: -v for t, v in row.items()}, 2 * d * d) for abc, row in B.items()}


def _residuals(jet: MultiplicationJet, L, orders) -> list[Sparse4]:
    """The sparse E_k for k in orders, each times d^2; L[i] holds the
    nonzero lists of mu_i times d, as `_jet_lists` gives them.

    Each E_k is the direct expansion sum_{i+j=k} A_ij (see `core._pair_terms`).
    """
    n = jet.dim
    return [_sparse4((n,) * 3, _pair_terms(L, [(i, k - i) for i in range(k + 1)])) for k in orders]


def jet_residuals(jet: MultiplicationJet) -> tuple[Tensor4, ...]:
    """E_0, ..., E_K: the exact order-k coefficients of the KV identity,
    expanded directly from the coefficients (see `_residuals`)."""
    d, L = _jet_lists(jet)
    return tuple(_divided4(jet.dim, Ek, d * d) for Ek in _residuals(jet, L, range(jet.order + 1)))


def jet_check(jet: MultiplicationJet) -> CheckResult:
    """Verdict on the KV identity through the jet's order, with a witness."""
    for k, E in enumerate(_residuals(jet, _jet_lists(jet)[1], range(jet.order + 1))):
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

    The budget is checked once for the chain, and each order is checked
    exactly once: the input orders on entry, then each new order after its
    solve.  The right-hand side of order k is R_k on its nonzero entries
    only, handed as it is to `complexes._ClassRows`, which assembles and
    eliminates delta_2 only in the weight classes R_k touches and keeps the
    rows for the chain, so an order whose target lands in a class seen
    before assembles nothing.  A target that is not a coboundary takes the
    obstruction path: the certificate is read from the full rows of the
    same classes.
    """
    A = jet.base
    n = jet.dim
    for q in (2, 3, 4):
        check_budget(n, n, q)
    d, L = _jet_lists(jet)
    for kk, E in enumerate(_residuals(jet, L, range(jet.order + 1))):
        if E:
            raise PreconditionError(
                f"cannot raise the order: the order-{kk} residual is nonzero"
            )
    W = regular_bimodule(A)
    delta2 = _ClassRows(A, W, 2)
    while True:
        k = jet.order + 1
        R = _target(n, L, d, k)
        target = _dense4(n, R)
        values = {((a * n + b) * n + c) * n + t: v for (a, b, c), row in R.items() for t, v in row.items()}
        target_is_cocycle = not _coboundary_sums(A, W, 3, values)[1]
        x = delta2.solve(values)
        if x is None:
            certificate = delta2.separating(values)
            if certificate is None:
                raise AssertionError(
                    "solve failed but no separating functional exists; "
                    "the linear algebra is inconsistent"
                )
            yield NextOrderSolution(k, target, target_is_cocycle, None, certificate, None)
            return
        mu_next = _shaped(x, n, n, n)
        jet = jet.extend(mu_next)
        d, L = _jet_lists(jet)
        if _residuals(jet, L, (k,))[0]:
            raise AssertionError("solved coefficient failed to kill the residual")
        yield NextOrderSolution(k, target, target_is_cocycle, mu_next, None, jet)


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
    Z, B, reps = _cohomology_step(_rows(A, W, 2, 2), _rows(A, W, 1, 2))
    return RigidityReport(
        dim_C2=n**3,
        dim_Z2=Z.dim,
        dim_B2=B.dim,
        dim_H2=Z.dim - B.dim,
        rigid=(Z.dim == B.dim),
        cocycle_basis=tuple(_shaped(z, n, n, n) for z in Z.basis),
        class_representatives=tuple(_shaped(z, n, n, n) for z in reps),
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
    base = _view(A)
    d, ((M, M_t), (G, _), (T, T_t)) = _scaled_lists(
        _int_lists(mu), (base.D, base.gam), _int_lists(S)
    )
    # mu(x,mu(y,z)) - mu(y,mu(x,z)) - mu([x,y],z) - S(x,S(y,z)) + S(y,S(x,z)),
    # times d^2, over (a, b, c) = (x, y, z)
    residual = _sparse4(
        (n,) * 3,
        (
            (False, M, M_t, (1, 2, 0)),
            (True, M, M_t, (0, 2, 1)),
            (True, G, M, (0, 1, 2)),
            (False, G, M, (1, 0, 2)),
            (True, T, T_t, (1, 2, 0)),
            (False, T, T_t, (0, 2, 1)),
        ),
    )
    return _divided4(n, residual, d * d)
