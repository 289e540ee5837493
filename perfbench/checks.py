"""Correctness checks that do not reuse the routine under test.

Each check returns None when the answer holds and a one-line reason when
it does not.  Cocycle conditions go through the cochain-level
``coboundary`` (a loop over basis tuples) rather than through the
assembled differential matrices that the cohomology routines eliminate.
A batch of vectors is tested through two seeded random combinations:
``delta`` is linear, so a combination with nonzero coboundary exposes a
bad member, and a bad member hides only when the random coefficients fall
on a hyperplane.
"""

from __future__ import annotations

import random
from fractions import Fraction

from kvcohom import complexes, core

_ZERO = Fraction(0)
# Random combinations a batch of vectors is tested through.
DRAWS = 2


def _combinations(vectors, tag: str):
    rng = random.Random(f"check:{tag}")
    for _ in range(DRAWS):
        coeffs = [rng.randint(1, 2**31) for _ in vectors]
        out = [_ZERO] * len(vectors[0])
        for c, v in zip(coeffs, vectors):
            for t, x in enumerate(v):
                if x:
                    out[t] += c * x
        yield tuple(out)


def cocycles(A, W, degree: int, vectors, tag: str):
    """Every vector, read as a degree-q cochain, has zero coboundary."""
    if not vectors:
        return None
    for combo in _combinations(vectors, tag):
        if degree == 0:
            image = complexes.coboundary0(W, core.Element(combo), check=False)
        else:
            image = complexes.coboundary(complexes.Cochain(A, W, degree, combo))
        if not image.is_zero():
            return f"a degree-{degree} representative has nonzero coboundary"
    return None


def table(report) -> list:
    return [[d.dim_C, d.dim_Z, d.dim_B, d.dim_H] for d in report.degrees]


def rank_nullity(rows) -> str | None:
    """dim_H = dim_Z - dim_B, and dim_B(q) = dim_C(q-1) - dim_Z(q-1)."""
    for i, (c, z, b, h) in enumerate(rows):
        if h != z - b or not 0 <= b <= z <= c:
            return f"degree row {i} breaks dim_H = dim_Z - dim_B <= dim_C"
        if i > 0 and b != rows[i - 1][0] - rows[i - 1][1]:
            return f"degree row {i}: dim_B is not the rank of the previous differential"
    return None


def zero_algebra_closed_form(n: int, rows) -> str | None:
    """Regular coefficients over the n-dim zero product: Z^q = n^(q+1), B = 0."""
    for q, (c, z, b, h) in enumerate(rows):
        if (c, z, b, h) != (n ** (q + 1),) * 2 + (0, n ** (q + 1)):
            return f"zero algebra degree {q}: got {(c, z, b, h)}"
    return None


def _apply(mu, x, y, n):
    out = [_ZERO] * n
    for i in range(n):
        if x[i]:
            for j in range(n):
                c = x[i] * y[j]
                if c:
                    row = mu[i][j]
                    for k in range(n):
                        if row[k]:
                            out[k] += c * row[k]
    return out


def kv_residual(coeffs, k: int):
    """Order-k coefficient of (a,b,c) - (b,a,c) for mu_t = sum t^i coeffs[i].

    Expands the associator of the jet directly from structure constants,
    independently of the library's pair-residual and bracket routines.
    """
    n = len(coeffs[0])
    basis = [[Fraction(int(t == i)) for t in range(n)] for i in range(n)]
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                acc = [_ZERO] * n
                for i in range(k + 1):
                    j = k - i
                    if i >= len(coeffs) or j >= len(coeffs):
                        continue
                    mi, mj = coeffs[i], coeffs[j]
                    ea, eb, ec = basis[a], basis[b], basis[c]
                    terms = (
                        (1, _apply(mj, _apply(mi, ea, eb, n), ec, n)),
                        (-1, _apply(mi, ea, _apply(mj, eb, ec, n), n)),
                        (-1, _apply(mj, _apply(mi, eb, ea, n), ec, n)),
                        (1, _apply(mi, eb, _apply(mj, ea, ec, n), n)),
                    )
                    for sign, vec in terms:
                        for t in range(n):
                            acc[t] += sign * vec[t]
                out.extend(acc)
    return out


def next_order(jet, solution, tag: str) -> str | None:
    """A solved step kills the order-k residual; an obstruction is certified."""
    k = solution.order
    coeffs = [jet.base.product] + list(jet.coefficients)
    target = [-x for x in kv_residual(coeffs, k)]
    reported = [x for p in solution.target for q in p for r in q for x in r]
    if target != reported:
        return "the reported target differs from the directly expanded residual"
    if solution.solved:
        extended = coeffs + [solution.coefficient]
        if any(kv_residual(extended, k)):
            return f"the solved coefficient leaves a nonzero order-{k} residual"
        return None
    y = solution.certificate
    if sum(a * b for a, b in zip(y, target)) == 0:
        return "the certificate pairs to zero with the target"
    A = jet.base
    W = core.regular_bimodule(A)
    n = A.dim
    rng = random.Random(f"certificate:{tag}")
    for _ in range(2):
        f = complexes.Cochain(
            A, W, 2, tuple(Fraction(rng.randint(-2**31, 2**31)) for _ in range(n**3))
        )
        if sum(a * b for a, b in zip(y, complexes.coboundary(f).values)) != 0:
            return "the certificate does not annihilate the coboundaries"
    return None
