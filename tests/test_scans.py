"""Every verdict scan of the package against the gather loop it replaced.

`core._sparse4` is the one kernel for sums of two-step products: it
scatters each term from the nonzero constants of its first product and
returns the nonzero output tuples in lexicographic order, so a scan's
witness is its first key.  The KV identity of `is_kv` and `is_kv_chain`,
both identities of `is_module`, the rows of `jacobi_module`, the derivation
rules of `core._derivation_failure` (`is_theta_cocycle`, the even flow rule
of `is_connectionlike`, the parallelism law of `geom.radiant_primitive`)
and both compatibility scans of `is_connectionlike` are term specs for it.
Each check below runs the gather loop the scan had before, which visits
every output tuple in order and stops at the first nonzero sum, on seeded
inputs that fail as well as pass, and asserts the same verdict, witness and
detail.
"""

import itertools
import random
from fractions import Fraction

import kvcohom.core as core
import kvcohom.geom as geom
import kvcohom.graded as graded
from kvcohom.complexes import Cochain
from kvcohom.core import (
    CheckResult,
    KVAlgebra,
    KVModule,
    _derivation_failure,
    _int_lists,
    _shaped,
    _view,
    is_kv,
    is_module,
    jacobi_module,
    left_regular_module,
    random_kv,
    random_module,
    regular_bimodule,
    tensor3,
    zero3,
    zero_module,
)
from kvcohom.errors import PreconditionError
from kvcohom.fixtures import aff, flat_psi, flat_theta, graded_flat, rad2, rad2_left_module
from kvcohom.geom import radiant_primitive
from kvcohom.graded import (
    ConnectionlikePair,
    GradedKVAlgebra,
    is_connectionlike,
    is_kv_chain,
    is_theta_cocycle,
)
from kvcohom.linalg import _kernel

from gather_loops import product_lists, two_step

_COEFFS = (-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 3))


def _random_tensor(rng, d1, d2, d3, density):
    return tensor3(
        [[[rng.choice(_COEFFS) if rng.random() < density else 0 for _ in range(d3)] for _ in range(d2)]
         for _ in range(d1)]
    )


def _bumped(rng, t):
    """t with one entry moved by a nonzero constant."""
    flat = [list(map(list, p)) for p in t]
    i, j, k = (rng.randrange(len(flat)), rng.randrange(len(flat[0])), rng.randrange(len(flat[0][0])))
    flat[i][j][k] += rng.choice(_COEFFS)
    return tensor3(flat)


# ---------------------------------------------------------------------------
# the gather loops


def gather_symmetry_failure(gam, gam_t):
    n = len(gam)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                # (ij)k - i(jk) - (ji)k + j(ik)
                if two_step(
                    (False, gam[i][j], gam_t[k]),
                    (True, gam[j][k], gam[i]),
                    (True, gam[j][i], gam_t[k]),
                    (False, gam[i][k], gam[j]),
                ):
                    return i, j, k
    return None


def reference_is_kv(A):
    failure = gather_symmetry_failure(*product_lists(A.product))
    if failure is None:
        return CheckResult(True)
    i, j, k = failure
    return CheckResult(False, failure, f"associator symmetry fails at basis triple ({i},{j},{k})")


def reference_is_kv_chain(theta):
    failure = gather_symmetry_failure(*product_lists(theta))
    if failure is None:
        return CheckResult(True)
    a, b, c = failure
    return CheckResult(
        False, failure, f"theta-associator is not symmetric on the basis triple ({a},{b},{c})"
    )


def reference_is_module(A, W):
    if W.algebra is not A and W.algebra != A:
        return CheckResult(False, None, "module is attached to a different algebra")
    gam = product_lists(A.product)[0]
    left, left_t = product_lists(W.left)
    right, right_t = product_lists(W.right)
    for i in range(A.dim):
        for j in range(A.dim):
            for al in range(W.dim):
                # (ij)w - i(jw) - (ji)w + j(iw)
                if i < j and two_step(
                    (False, gam[i][j], left_t[al]),
                    (True, left[j][al], left[i]),
                    (True, gam[j][i], left_t[al]),
                    (False, left[i][al], left[j]),
                ):
                    detail = f"(a,b,w) = (b,a,w) fails at (e_{i}, e_{j}, w_{al})"
                    return CheckResult(False, (i, j, al), detail)
                # (iw)j - i(wj) - (wi)j + w(ij)
                if two_step(
                    (False, left[i][al], right_t[j]),
                    (True, right[al][j], left[i]),
                    (True, right[al][i], right_t[j]),
                    (False, gam[i][j], right[al]),
                ):
                    detail = f"(a,w,b) = (w,a,b) fails at (e_{i}, w_{al}, e_{j})"
                    return CheckResult(False, (i, al, j), detail)
    return CheckResult(True)


def gather_jacobi_rows(A, W):
    """The integer rows of `jacobi_module`, (ij)w_l - i(jw_l) times D^2 in
    row (i, j, k) and column l, from W's integer view."""
    n, m = A.dim, W.dim
    _, gam, _, left, left_t, _, _ = _view(W)
    rows = [{} for _ in range(n * n * m)]
    for i in range(n):
        for j in range(n):
            base = (i * n + j) * m
            for l in range(m):
                assoc = two_step((False, gam[i][j], left_t[l]), (True, left[j][l], left[i]))
                for k, x in assoc.items():
                    rows[base + k][l] = x
    return rows


def gather_derivation_failure(beta, lx, ly, lz):
    """The first (i, x, y) at which e_i beta(x, y) - beta(e_i x, y) - beta(x, e_i y)
    is nonzero; lx[i][x], ly[i][y] and lz[i][z] list e_i on X, Y and Z."""
    B, B_t = product_lists(beta)
    for i, (ax, ay, az) in enumerate(zip(lx, ly, lz)):
        for x, bx in enumerate(B):
            for y, by in enumerate(B_t):
                if two_step((False, bx[y], az), (True, ax[x], by), (True, ay[y], bx)):
                    return i, x, y
    return None


def reference_is_theta_cocycle(G, theta):
    left = product_lists(G.odd.left)[0]
    failure = gather_derivation_failure(theta, left, left, left)
    if failure is None:
        return CheckResult(True)
    i, al, be = failure
    return CheckResult(False, failure, f"derivation rule fails at (e_{i+1}, w_{al+1}, w_{be+1})")


def reference_scans(G, pair):
    """(theta_psi_compat, theta_psi_compat_alt, flow_rule_even) of
    `is_connectionlike`, by the gather loops."""
    n, m = G.n, G.m
    T = product_lists(pair.theta)[0]
    P, P_t = product_lists(pair.psi)
    compat = CheckResult(True)
    for al, be, i in itertools.product(range(m), range(m), range(n)):
        if two_step((False, T[al][be], P[i]), (True, P[i][be], P_t[al])):
            compat = CheckResult(
                False,
                (al, be, i),
                f"psi(theta(w_{al+1},w_{be+1}),e_{i+1}) != psi(w_{al+1},psi(w_{be+1},e_{i+1}))",
            )
            break
    compat_alt = CheckResult(True)
    for i, be, ga in itertools.product(range(n), range(m), range(m)):
        if two_step((False, T[be][ga], P[i]), (True, P[i][be], P_t[ga])):
            compat_alt = CheckResult(
                False,
                (i, be, ga),
                f"psi(e_{i+1},theta(w_{be+1},w_{ga+1})) != psi(psi(e_{i+1},w_{be+1}),w_{ga+1})",
            )
            break
    gam = product_lists(G.even.product)[0]
    failure = gather_derivation_failure(pair.psi, gam, product_lists(G.odd.left)[0], gam)
    flow = CheckResult(True)
    if failure is not None:
        i, j, ga = failure
        flow = CheckResult(
            False, failure, f"a psi(a',w) != psi(aa',w) + psi(a',aw) at (e_{i+1},e_{j+1},w_{ga+1})"
        )
    return compat, compat_alt, flow


# ---------------------------------------------------------------------------
# the inputs


def _algebras(rng):
    """Verified KV algebras, the same products with one constant moved, and
    random products, dimensions 0 to 4."""
    out = []
    for s in range(1, 41):
        A = random_kv(s, n_max=2 + s % 3)
        out.append(A)
        out.append(KVAlgebra(A.dim, _bumped(rng, A.product)))
    for n in range(5):
        for density in (0.0, 0.1, 0.3, 0.7):
            out.append(KVAlgebra(n, _random_tensor(rng, n, n, n, density)))
    return out


def _modules(rng):
    """(A, W): verified modules, the same actions with one constant moved
    (left, right or both), random actions, and left parts of modules."""
    out = []
    for s in range(1, 41):
        A = random_kv(s, n_max=2 + s % 3)
        n = A.dim
        W = random_module(A, s, m_max=3)
        m = W.dim
        out += [(A, W), (A, left_regular_module(A)), (A, regular_bimodule(A))]
        out.append((A, KVModule(A, m, _bumped(rng, W.left), W.right)))
        out.append((A, KVModule(A, m, W.left, _bumped(rng, W.right))))
        out.append((A, KVModule(A, m, _bumped(rng, W.left), _bumped(rng, W.right))))
        out.append((A, KVModule(A, m, W.left, zero3(m, n, m))))
        density = (0.1, 0.3, 0.6)[s % 3]
        left, right = _random_tensor(rng, n, m, m, density), _random_tensor(rng, m, n, m, density)
        out.append((A, KVModule(A, m, left, right)))
    A = random_kv(3, n_max=3)
    out.append((A, zero_module(A, 0)))
    out.append((A, regular_bimodule(aff())))  # attached to a different algebra
    return out


def _graded_cases(rng):
    cases = [(graded_flat(), flat_theta(), flat_psi())]
    for s in range(30):
        A = random_kv(s)
        W = random_module(A, s + 1)
        G = GradedKVAlgebra(even=A, odd=KVModule(A, W.dim, W.left, zero3(W.dim, A.dim, W.dim)))
        for density in (0.0, 0.05, 0.15, 0.4):
            cases.append((G, _random_tensor(rng, G.m, G.m, G.m, density),
                          _random_tensor(rng, G.n, G.m, G.n, density)))
    G = GradedKVAlgebra(even=aff(), odd=zero_module(aff(), 2))
    for _ in range(10):
        cases.append((G, _random_tensor(rng, 2, 2, 2, 0.3), _random_tensor(rng, 2, 2, 2, 0.2)))
    return cases


# ---------------------------------------------------------------------------
# the checks


def test_kv_and_chain_scans_match_the_gather_loop():
    rng = random.Random("scan-kv")
    verdicts = set()
    for A in _algebras(rng):
        got = is_kv(A)
        assert got == reference_is_kv(A)
        assert is_kv_chain(A.product) == reference_is_kv_chain(A.product)
        verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_module_scans_match_the_gather_loop():
    rng = random.Random("scan-module")
    seen = set()
    for A, W in _modules(rng):
        got = is_module(A, W)
        assert got == reference_is_module(A, W)
        seen.add(got.detail.split(" fails")[0] if got.detail else got.ok)
    assert seen == {
        True, "(a,b,w) = (b,a,w)", "(a,w,b) = (w,a,b)", "module is attached to a different algebra"
    }


def test_module_scan_tie_goes_to_the_first_identity():
    A = KVAlgebra(2, zero3(2, 2, 2))
    left = tensor3([[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    W = KVModule(A, 2, left, tensor3([[[0, 0], [0, 0]], [[0, 0], [0, 1]]]))
    gam = product_lists(A.product)[0]
    left, left_t = product_lists(W.left)
    right, right_t = product_lists(W.right)
    # both identities fail first at (i, j, al) = (0, 1, 0)
    assert two_step((True, left[1][0], left[0]), (False, left[0][0], left[1]))
    assert two_step((False, left[0][0], right_t[1]), (True, right[0][0], right_t[1]))
    got = is_module(A, W)
    assert got == reference_is_module(A, W)
    assert got.witness == (0, 1, 0) and got.detail.startswith("(a,b,w)")


def test_jacobi_rows_match_the_gather_loop(monkeypatch):
    rng = random.Random("scan-jacobi")
    seen = []

    def recorded(rows, cols):
        seen.append(rows)
        return real(rows, cols)

    real = core._kernel
    monkeypatch.setattr(core, "_kernel", recorded)
    nonzero = 0
    for A, W in _modules(rng):
        if W.algebra != A:
            continue
        seen.clear()
        J = jacobi_module(A, W)
        want = gather_jacobi_rows(A, W)
        # the same rows, each with its columns in the same order
        assert [list(r.items()) for r in seen[0]] == [list(r.items()) for r in want]
        assert J == real(want, W.dim)
        nonzero += any(want)
    assert nonzero > 100


def test_derivation_rules_match_the_gather_loop():
    rng = random.Random("scan-derivation")
    verdicts = set()
    for A, W in _modules(rng):
        if W.algebra != A:
            continue
        n, m = A.dim, W.dim
        view = _view(W)
        gam, left = product_lists(A.product)[0], product_lists(W.left)[0]
        for density in (0.0, 0.1, 0.4):
            theta = _random_tensor(rng, m, m, m, density)
            psi = _random_tensor(rng, n, m, n, density)
            g = _random_tensor(rng, n, n, m, density)
            for beta, lists, ref in (
                (theta, (view.left, view.left, view.left_t), (left, left, left)),
                (psi, (view.gam, view.left, view.gam_t), (gam, left, gam)),
                (g, (view.gam, view.gam, view.left_t), (gam, gam, left)),
            ):
                got = _derivation_failure(_int_lists(beta)[1], *lists)
                assert got == gather_derivation_failure(beta, *ref)
                verdicts.add(got is None)
    assert verdicts == {True, False}


def test_graded_scans_match_the_gather_loop():
    rng = random.Random("scan-graded")
    names = ("theta_cocycle", "theta_psi_compat", "theta_psi_compat_alt", "flow_rule_even")
    seen = {name: set() for name in names}
    for G, theta, psi in _graded_cases(rng):
        assert is_theta_cocycle(G, theta) == reference_is_theta_cocycle(G, theta)
        got = is_connectionlike(G, ConnectionlikePair(theta, psi))
        assert got.theta_cocycle == reference_is_theta_cocycle(G, theta)
        want = reference_scans(G, ConnectionlikePair(theta, psi))
        assert (got.theta_psi_compat, got.theta_psi_compat_alt, got.flow_rule_even) == want
        for name, verdicts in seen.items():
            verdicts.add(getattr(got, name).ok)
    assert all(v == {True, False} for v in seen.values())


def test_graded_and_parallelism_rules_list_no_module_constants_again(monkeypatch):
    G, theta, psi = graded_flat(), flat_theta(), flat_psi()
    A, W = rad2(), rad2_left_module()
    assert is_module(A, W)  # W's view, as the radiant check's own is_module builds it
    n, m = A.dim, W.dim
    rng = random.Random("scan-lists")
    random_values = tuple(Fraction(rng.choice(_COEFFS)) for _ in range(n * n * m))
    gs = [Cochain.zero(A, W, 2), Cochain(A, W, 2, random_values)]
    listed = []
    real = core._int_lists

    def counted(t):
        listed.append(t)
        return real(t)

    for module in (core, graded, geom):
        monkeypatch.setattr(module, "_int_lists", counted)
    is_theta_cocycle(G, theta)
    assert len(listed) == 1 and listed[0] is theta
    listed.clear()
    is_connectionlike(G, ConnectionlikePair(theta, psi))
    assert len(listed) == 2 and listed[0] is theta and listed[1] is psi
    for g in gs:
        listed.clear()
        try:
            radiant_primitive(A, W, (1, 0), g)
        except PreconditionError as exc:  # a random g is not parallel
            assert "not parallel" in str(exc)
        assert listed == [_shaped(g.values, n, n, m)]
