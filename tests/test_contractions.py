"""The shared contractions of `core` against the dense loops they replaced.

`core._bilinear` backs the element products and `pushforward_jet`; the one
scatter kernel `core._sparse4` backs `is_kv_chain`, the theta-cocycle, flow
and parallelism rules (`core._derivation_failure`) and the compatibility
scans of `is_connectionlike`.  Each check below runs a copy of the dense
loop it replaced as a reference, on fixtures and on seeded random inputs
that fail as well as pass, and asserts the same verdict, witness and
detail, the same values, or the same error text.
"""

import itertools
import random
from fractions import Fraction

import pytest

from kvcohom.complexes import Cochain
from kvcohom.core import (
    CheckResult,
    Element,
    KVAlgebra,
    KVModule,
    _bilinear,
    is_kv,
    is_module,
    random_kv,
    random_module,
    tensor3,
    zero3,
    zero_module,
)
from kvcohom.deform import BasisFlowJet, MultiplicationJet, pushforward_jet
from kvcohom.errors import DimensionError, InputError, PreconditionError
from kvcohom.extensions import (
    BigradedCochain,
    e11_coboundary0,
    e11_cohomology,
    e11_matrix,
    e11_support,
    extensions_equivalent,
)
from kvcohom.fixtures import (
    aff,
    algebra_catalog,
    assoc1,
    flat_psi,
    flat_theta,
    graded_flat,
    rad2,
    rad2_left_module,
)
from kvcohom.geom import find_radiant, radiant_primitive
from kvcohom.graded import (
    ConnectionlikePair,
    ConnectionlikeReport,
    GradedKVAlgebra,
    is_connectionlike,
    is_kv_chain,
    is_theta_cocycle,
)
from kvcohom.linalg import Mat, kernel, vec

from gather_loops import product_lists

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _random_tensor(rng, d1, d2, d3, density):
    coeffs = (-2, -1, 1, 2, Fraction(1, 2))
    return tensor3(
        [
            [[rng.choice(coeffs) if rng.random() < density else 0 for _ in range(d3)]
             for _ in range(d2)]
            for _ in range(d1)
        ]
    )


def _random_vec(rng, d):
    return tuple(Fraction(rng.choice((-3, -1, 0, 0, 1, 2))) / rng.choice((1, 2)) for _ in range(d))


def _left_module(W):
    return KVModule(W.algebra, W.dim, W.left, zero3(W.dim, W.algebra.dim, W.dim))


# ---------------------------------------------------------------------------
# the dense bilinear applies


def reference_mul(A, a, b):
    if a.dim != A.dim or b.dim != A.dim:
        raise DimensionError("elements do not live in this algebra")
    out = [_ZERO] * A.dim
    for i, ai in enumerate(a.coords):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coords):
            if bj == 0:
                continue
            c = ai * bj
            row = A.product[i][j]
            for k in range(A.dim):
                if row[k] != 0:
                    out[k] += c * row[k]
    return Element(tuple(out))


def reference_left_act(W, a, w):
    if a.dim != W.algebra.dim or w.dim != W.dim:
        raise DimensionError("left action operands have wrong dimensions")
    out = [_ZERO] * W.dim
    for i, ai in enumerate(a.coords):
        if ai == 0:
            continue
        for al, wa in enumerate(w.coords):
            if wa == 0:
                continue
            c = ai * wa
            row = W.left[i][al]
            for be in range(W.dim):
                if row[be] != 0:
                    out[be] += c * row[be]
    return Element(tuple(out))


def reference_right_act(W, w, a):
    if a.dim != W.algebra.dim or w.dim != W.dim:
        raise DimensionError("right action operands have wrong dimensions")
    out = [_ZERO] * W.dim
    for al, wa in enumerate(w.coords):
        if wa == 0:
            continue
        for i, ai in enumerate(a.coords):
            if ai == 0:
                continue
            c = wa * ai
            row = W.right[al][i]
            for be in range(W.dim):
                if row[be] != 0:
                    out[be] += c * row[be]
    return Element(tuple(out))


def reference_apply(gam, x, y):
    """mu(x, y) from the nonzero lists gam of mu."""
    out = [_ZERO] * len(gam)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    c = xi * yj
                    for k, v in gam[i][j]:
                        out[k] += c * v
    return out


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (DimensionError, InputError, PreconditionError) as exc:
        return (type(exc).__name__, str(exc))


def test_element_products_match_the_dense_loops():
    rng = random.Random(11)
    cases = []
    for s in range(25):
        A = random_kv(s, 3 + s % 3)
        cases.append((A, random_module(A, s, 3)))
    for n, m in ((0, 0), (0, 2), (2, 0), (1, 1), (3, 2), (4, 3)):
        A = KVAlgebra(n, _random_tensor(rng, n, n, n, 0.5))
        cases.append((A, KVModule(A, m, _random_tensor(rng, n, m, m, 0.5),
                                  _random_tensor(rng, m, n, m, 0.5))))
    for A, W in cases:
        n, m = A.dim, W.dim
        for _ in range(3):
            a, b = Element(_random_vec(rng, n)), Element(_random_vec(rng, n))
            w = Element(_random_vec(rng, m))
            assert A.mul(a, b) == reference_mul(A, a, b)
            assert W.left_act(a, w) == reference_left_act(W, a, w)
            assert W.right_act(w, a) == reference_right_act(W, w, a)
        a, w = Element(_random_vec(rng, n + 1)), Element(_random_vec(rng, m + 1))
        b, v = Element(_random_vec(rng, n)), Element(_random_vec(rng, m))
        assert _outcome(A.mul, a, b) == _outcome(reference_mul, A, a, b)
        assert _outcome(W.left_act, b, w) == _outcome(reference_left_act, W, b, w)
        assert _outcome(W.right_act, v, a) == _outcome(reference_right_act, W, v, a)


def test_bilinear_matches_the_nonzero_list_apply():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 4)
        mu = _random_tensor(rng, n, n, n, rng.choice((0.2, 0.6)))
        gam = product_lists(mu)[0]
        x, y = _random_vec(rng, n), _random_vec(rng, n)
        assert _bilinear(mu, x, y, n) == reference_apply(gam, x, y)
    # a rectangular tensor psi: A x W -> A, read both ways by the lists
    psi = _random_tensor(rng, 3, 2, 3, 0.6)
    gam, gam_t = product_lists(psi)
    assert len(gam) == 3 and len(gam_t) == 2
    assert all(gam_t[al][i] == gam[i][al] for i in range(3) for al in range(2))


def reference_pushforward_jet(flow, A):
    n = A.dim
    K = flow.order
    ident = [[Fraction(1) if j == i else _ZERO for j in range(n)] for i in range(n)]

    def theta(k):
        if k == 0:
            return ident
        return [list(flow.thetas[k - 1].row(i)) for i in range(n)]

    psis = [ident]
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
    gam = product_lists(A.product)[0]
    coeffs = []
    for k in range(1, K + 1):
        mu_k = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
        for p in range(k + 1):
            for q in range(k + 1 - p):
                r = k - p - q
                th = theta(p)
                for a in range(n):
                    for b in range(n):
                        prod = reference_apply(gam, psis[q][a], psis[r][b])
                        for s in range(n):
                            if prod[s] == 0:
                                continue
                            for c in range(n):
                                mu_k[a][b][c] += prod[s] * th[s][c]
        coeffs.append(tensor3(mu_k))
    return MultiplicationJet(A, tuple(coeffs))


def test_pushforward_jet_matches_the_dense_apply():
    rng = random.Random(13)
    for s in range(12):
        A = random_kv(s, 3)
        thetas = tuple(
            Mat.from_rows([_random_vec(rng, A.dim) for _ in range(A.dim)], cols=A.dim)
            for _ in range(1 + s % 3)
        )
        flow = BasisFlowJet(thetas)
        assert pushforward_jet(flow, A) == reference_pushforward_jet(flow, A)


# ---------------------------------------------------------------------------
# the associator-symmetry scan


def reference_is_kv_chain(theta):
    m = len(theta)

    def assoc(a, b, c):
        out = [_ZERO] * m
        for p in range(m):
            if theta[a][b][p] != 0:
                for k in range(m):
                    out[k] += theta[a][b][p] * theta[p][c][k]
            if theta[b][c][p] != 0:
                for k in range(m):
                    out[k] -= theta[b][c][p] * theta[a][p][k]
        return out

    for a, b, c in itertools.product(range(m), repeat=3):
        if a >= b:
            continue
        if assoc(a, b, c) != assoc(b, a, c):
            return CheckResult(
                False,
                witness=(a, b, c),
                detail=(
                    f"theta-associator is not symmetric on the basis triple "
                    f"({a},{b},{c})"
                ),
            )
    return CheckResult(True)


def test_chain_symmetry_matches_the_dense_associator():
    rng = random.Random(14)
    thetas = [flat_theta(), zero3(3, 3, 3)] + [a.product for a in algebra_catalog()]
    for _ in range(600):
        m = rng.randint(1, 3)
        thetas.append(_random_tensor(rng, m, m, m, rng.choice((0.05, 0.15, 0.4))))
    verdicts = set()
    for theta in thetas:
        got = is_kv_chain(theta)
        assert got == reference_is_kv_chain(theta)
        # the chain check and is_kv run the same scan on the same tensor
        kv = is_kv(KVAlgebra(len(theta), theta))
        assert (got.ok, got.witness) == (kv.ok, kv.witness)
        verdicts.add(got.ok)
    assert verdicts == {True, False}
    with pytest.raises(DimensionError):
        is_kv_chain(_random_tensor(rng, 2, 2, 3, 0.5))


# ---------------------------------------------------------------------------
# the derivation-rule scans and the compatibility scans of graded algebras


def reference_theta_defect(G, theta, i, al, be):
    m = G.m
    left = G.odd.left
    out = [_ZERO] * m
    for ga in range(m):
        if theta[al][be][ga] != 0:
            for k in range(m):
                out[k] += theta[al][be][ga] * left[i][ga][k]
        if left[i][al][ga] != 0:
            for k in range(m):
                out[k] -= left[i][al][ga] * theta[ga][be][k]
        if left[i][be][ga] != 0:
            for k in range(m):
                out[k] -= left[i][be][ga] * theta[al][ga][k]
    return out


def reference_is_theta_cocycle(G, theta):
    for i, al, be in itertools.product(range(G.n), range(G.m), range(G.m)):
        if any(reference_theta_defect(G, theta, i, al, be)):
            return CheckResult(
                False,
                witness=(i, al, be),
                detail=f"derivation rule fails at (e_{i+1}, w_{al+1}, w_{be+1})",
            )
    return CheckResult(True)


def reference_psi_apply_aw(psi, acoords, wcoords, n, m):
    out = [_ZERO] * n
    for i in range(n):
        if acoords[i] == 0:
            continue
        for al in range(m):
            c = acoords[i] * wcoords[al]
            if c == 0:
                continue
            for k in range(n):
                out[k] += c * psi[i][al][k]
    return out


def reference_is_connectionlike(G, pair):
    n, m = G.n, G.m
    theta, psi = pair.theta, pair.psi
    gamma = G.even.product
    left = G.odd.left
    psi_symmetric = CheckResult(
        True, detail="psi is stored once; both slot orders read the same tensor"
    )
    theta_cocycle = reference_is_theta_cocycle(G, theta)

    def a_basis(i):
        return [Fraction(1) if t == i else _ZERO for t in range(n)]

    def w_basis(al):
        return [Fraction(1) if t == al else _ZERO for t in range(m)]

    compat = CheckResult(True)
    for al, be, i in itertools.product(range(m), range(m), range(n)):
        lhs = reference_psi_apply_aw(psi, a_basis(i), theta[al][be], n, m)
        inner = reference_psi_apply_aw(psi, a_basis(i), w_basis(be), n, m)
        rhs = reference_psi_apply_aw(psi, inner, w_basis(al), n, m)
        if lhs != rhs:
            compat = CheckResult(
                False,
                witness=(al, be, i),
                detail=(
                    f"psi(theta(w_{al+1},w_{be+1}),e_{i+1}) != "
                    f"psi(w_{al+1},psi(w_{be+1},e_{i+1}))"
                ),
            )
            break

    compat_alt = CheckResult(True)
    for i, be, ga in itertools.product(range(n), range(m), range(m)):
        lhs = reference_psi_apply_aw(psi, a_basis(i), theta[be][ga], n, m)
        inner = reference_psi_apply_aw(psi, a_basis(i), w_basis(be), n, m)
        rhs = reference_psi_apply_aw(psi, inner, w_basis(ga), n, m)
        if lhs != rhs:
            compat_alt = CheckResult(
                False,
                witness=(i, be, ga),
                detail=(
                    f"psi(e_{i+1},theta(w_{be+1},w_{ga+1})) != "
                    f"psi(psi(e_{i+1},w_{be+1}),w_{ga+1})"
                ),
            )
            break

    flow = CheckResult(True)
    for i, j, ga in itertools.product(range(n), range(n), range(m)):
        lhs = [_ZERO] * n
        for k in range(n):
            if psi[j][ga][k] != 0:
                for t in range(n):
                    lhs[t] += psi[j][ga][k] * gamma[i][k][t]
        rhs = [_ZERO] * n
        for k in range(n):
            if gamma[i][j][k] != 0:
                for t in range(n):
                    rhs[t] += gamma[i][j][k] * psi[k][ga][t]
        for de in range(m):
            if left[i][ga][de] != 0:
                for t in range(n):
                    rhs[t] += left[i][ga][de] * psi[j][de][t]
        if lhs != rhs:
            flow = CheckResult(
                False,
                witness=(i, j, ga),
                detail=(
                    f"a psi(a',w) != psi(aa',w) + psi(a',aw) at "
                    f"(e_{i+1},e_{j+1},w_{ga+1})"
                ),
            )
            break

    return ConnectionlikeReport(
        psi_symmetric=psi_symmetric,
        theta_cocycle=theta_cocycle,
        theta_psi_compat=compat,
        theta_psi_compat_alt=compat_alt,
        flow_rule_even=flow,
        derivation_rule=theta_cocycle,
        degenerate=pair.is_zero(),
    )


def _graded_cases():
    rng = random.Random(15)
    cases = [(graded_flat(), flat_theta(), flat_psi())]
    for s in range(40):
        A = random_kv(s)
        G = GradedKVAlgebra(even=A, odd=_left_module(random_module(A, s + 1)))
        for density in (0.0, 0.05, 0.15, 0.4):
            cases.append((G, _random_tensor(rng, G.m, G.m, G.m, density),
                          _random_tensor(rng, G.n, G.m, G.n, density)))
    G = GradedKVAlgebra(even=aff(), odd=zero_module(aff(), 2))
    for _ in range(10):
        cases.append((G, _random_tensor(rng, 2, 2, 2, 0.3), _random_tensor(rng, 2, 2, 2, 0.2)))
    return cases


def test_graded_checks_match_the_dense_loops():
    seen = {name: set() for name in ("theta_cocycle", "theta_psi_compat",
                                      "theta_psi_compat_alt", "flow_rule_even")}
    for G, theta, psi in _graded_cases():
        assert is_theta_cocycle(G, theta) == reference_is_theta_cocycle(G, theta)
        pair = ConnectionlikePair(theta, psi)
        got = is_connectionlike(G, pair)
        assert got == reference_is_connectionlike(G, pair)
        for name, verdicts in seen.items():
            verdicts.add(getattr(got, name).ok)
    # every scan met failing and passing inputs
    assert all(v == {True, False} for v in seen.values())


# ---------------------------------------------------------------------------
# the parallelism law of radiant primitives


def reference_radiant_primitive(A, W, H, g):
    n = A.dim
    if W.algebra != A:
        raise DimensionError("the module is over a different algebra")
    if any(x != 0 for plane in W.right for row in plane for x in row):
        raise InputError("radiant primitives need a left module (zero right action)")
    verdict = is_module(A, W)
    if not verdict:
        raise PreconditionError(
            f"the coefficients do not form a module: witness {verdict.witness}"
        )
    coords = H.coords if isinstance(H, Element) else vec(H)
    if len(coords) != n:
        raise DimensionError("the radiant candidate has the wrong dimension")
    for i in range(n):
        image = [
            sum(coords[j] * A.product[i][j][k] for j in range(n)) for k in range(n)
        ]
        expected = [_ONE if k == i else _ZERO for k in range(n)]
        if image != expected:
            raise PreconditionError(
                f"H is not radiant: e_{i + 1} H differs from e_{i + 1}"
            )
    if g.degree != 2 or g.algebra != A or g.module != W:
        raise InputError("expected a 2-cochain with values in the given module")
    m = W.dim
    for i in range(n):
        for bdx in range(n):
            for cdx in range(n):
                gv = g.value((bdx, cdx))
                for be in range(m):
                    lhs = sum(gv[al] * W.left[i][al][be] for al in range(m))
                    rhs = sum(
                        A.product[i][bdx][p] * g.value((p, cdx))[be]
                        for p in range(n)
                    ) + sum(
                        A.product[i][cdx][p] * g.value((bdx, p))[be]
                        for p in range(n)
                    )
                    if lhs != rhs:
                        raise PreconditionError(
                            "the 2-cochain is not parallel: direction "
                            f"e_{i + 1} fails at ({bdx + 1},{cdx + 1})"
                        )
    values = []
    for adx in range(n):
        for be in range(m):
            values.append(
                sum(coords[j] * g.value((j, adx))[be] for j in range(n))
            )
    return Cochain(A, W, 1, tuple(values))


def _parallel_space(A, W):
    n, m = A.dim, W.dim
    rows = []
    for i, b, c, be in itertools.product(range(n), range(n), range(n), range(m)):
        row = [_ZERO] * (n * n * m)
        for al in range(m):
            row[(b * n + c) * m + al] += W.left[i][al][be]
        for p in range(n):
            row[(p * n + c) * m + be] -= A.product[i][b][p]
            row[(b * n + p) * m + be] -= A.product[i][c][p]
        rows.append(row)
    return kernel(Mat.from_rows(rows, cols=n * n * m))


def _radiant_cases():
    cases = [(rad2(), rad2_left_module(), (1, 0)), (rad2(), rad2_left_module(), (0, 1)),
             (rad2(), rad2_left_module(), (1, 0, 0))]
    one = assoc1()
    cases.append((one, KVModule(one, 1, one.product, zero3(1, 1, 1)), (1,)))
    for bits in itertools.product(range(3), repeat=8):
        if len(cases) >= 30:
            break
        C = KVAlgebra(2, tensor3([[bits[0:2], bits[2:4]], [bits[4:6], bits[6:8]]]))
        solution = find_radiant(C) if is_kv(C) else None
        if solution:
            cases.append((C, KVModule(C, 2, C.product, zero3(2, 2, 2)), solution.particular))
    return cases


def test_radiant_primitive_matches_the_dense_parallelism_loop():
    rng = random.Random(16)
    outcomes = set()
    for A, W, H in _radiant_cases():
        n, m = A.dim, W.dim
        gs = [Cochain.zero(A, W, 2), Cochain(A, W, 2, _random_vec(rng, n * n * m))]
        for v in _parallel_space(A, W).basis:
            gs.append(Cochain(A, W, 2, tuple(v)))
            bumped = list(v)
            bumped[rng.randrange(len(bumped))] += 1
            gs.append(Cochain(A, W, 2, tuple(bumped)))
        for g in gs:
            got = _outcome(radiant_primitive, A, W, H, g)
            assert got == _outcome(reference_radiant_primitive, A, W, H, g)
            outcomes.add(got[0] if got[0] == "value" else got[1].split(":")[0])
    assert outcomes >= {"value", "the 2-cochain is not parallel", "H is not radiant"}


# ---------------------------------------------------------------------------
# the bottom map of the extension complex


def test_bottom_map_is_the_formula_route_column_by_column():
    for s in range(1, 16):
        A = random_kv(s, n_max=3)
        W, V = random_module(A, s, 2), random_module(A, s + 1, 2)
        support = e11_support(A, W, V, 1)
        cols = []
        for al, be in itertools.product(range(W.dim), range(V.dim)):
            theta = Mat.from_items(W.dim, V.dim, {(al, be): _ONE})
            d = e11_coboundary0(A, W, V, theta).cochain
            cols.append([d.values[pos] for pos in support])
        M = Mat.from_cols(cols, rows=len(support))
        assert e11_matrix(A, W, V, 0).entries == M.entries
        # a cocycle plus a bottom coboundary stays in its class
        reps = e11_cohomology(A, W, V, 1).degree(1).representatives
        if reps:
            theta = Mat.from_items(W.dim, V.dim, {(0, 0): Fraction(3, 2)})
            f = BigradedCochain(reps[0], A.dim, 1, 1)
            g = BigradedCochain(reps[0] + e11_coboundary0(A, W, V, theta).cochain, A.dim, 1, 1)
            assert extensions_equivalent(f, g)
            assert not extensions_equivalent(f, BigradedCochain(reps[0].scale(2), A.dim, 1, 1))
