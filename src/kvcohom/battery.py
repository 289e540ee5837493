"""Deterministic invariant battery behind the property-test verb.

Seven exact invariants run over seeded random instances: the square of
the coboundary, the bidegree behaviour of the semidirect complex, the
self-bracket/associator identity for arbitrary bilinear products, the
center sitting inside the Jacobi elements, file-format round trips, the
two-route curvature comparison, and the cocycle-and-chain
characterization of odd deformations of graded algebras.

Every check computes both sides of its identity here and compares them,
so a broken identity produces a failure record with a witness instead of
a crash; the graded check reads one side, the derivation rule, from
``is_theta_cocycle``.  The coboundary used by the delta-related checks is
injectable, which is how the test suite demonstrates that a deliberately
corrupted operator is caught and witnessed rather than waved through.

A witness is the lexicographically first violating cell of the first
failing comparison: the smallest concrete evaluation that exhibits the
bug, reported in basis coordinates.

Each instance is built once: the algebra ``random_kv(base)`` and the
modules ``random_module(a, base + 1)`` and ``random_module(a, base + 2)``
are drawn (and verified) a single time and handed to every check that
uses them.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .complexes import Cochain, coboundary, coboundary0
from .core import (
    Element,
    KVAlgebra,
    KVModule,
    Tensor3,
    center,
    is_kv,
    jacobi_algebra,
    jacobi_module,
    random_kv,
    random_module,
    regular_bimodule,
    semidirect,
    tensor3,
    zero3,
)
from .deform import bilinear_cochain, kv_bracket, tensor4_from_cochain
from .extensions import bigrade, extend_module_to_semidirect, graded_piece
from .graded import GradedKVAlgebra, is_kv_chain, is_theta_cocycle
from . import serialize as sz

__all__ = [
    "INVARIANTS",
    "BatteryFailure",
    "BatteryReport",
    "run_battery",
]

_ZERO = Fraction(0)

INVARIANTS = (
    "delta-squared",
    "bidegree-law",
    "pair-bracket",
    "center-in-jacobi",
    "round-trip",
    "curvature",
    "graded-deformation",
)

CoboundaryFn = Callable[[Cochain], Cochain]


@dataclass(frozen=True)
class BatteryFailure:
    invariant: str
    instance: int
    witness: str


@dataclass(frozen=True)
class BatteryReport:
    seed: int
    count: int
    invariants: tuple[str, ...]
    failures: tuple[BatteryFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "invariants": list(self.invariants),
            "passed": self.passed,
            "failures": [
                {
                    "invariant": f.invariant,
                    "instance": f.instance,
                    "witness": f.witness,
                }
                for f in self.failures
            ],
        }


def _instance_base(seed: int, i: int) -> int:
    return seed * 1_000_003 + 17 * i


def _random_cochain(
    rng: random.Random, a: KVAlgebra, w: KVModule, degree: int
) -> Cochain:
    size = a.dim**degree * w.dim
    values = tuple(
        Fraction(rng.choice((-2, -1, 0, 0, 1, 2))) for _ in range(size)
    )
    return Cochain(a, w, degree, values)


def _first_nonzero_cell(f: Cochain) -> str:
    for args in itertools.product(range(f.n), repeat=f.degree):
        val = f.value(args)
        for be in range(f.m):
            if val[be] != 0:
                slots = ", ".join(f"e_{i + 1}" for i in args)
                return (
                    f"({slots}) has w_{be + 1} coordinate {val[be]}"
                )
    raise AssertionError("asked for a violating cell of a zero cochain")


def _check_delta_squared(
    base: int, a: KVAlgebra, w1: KVModule, delta: CoboundaryFn
) -> Optional[str]:
    rng = random.Random(base + 2)
    # The random module is often one with zero actions, which silences the
    # action terms of the operator; the regular bimodule keeps them alive,
    # so both coefficient choices are exercised on every instance.
    for label, w in (
        ("random module", w1),
        ("regular bimodule", regular_bimodule(a)),
    ):
        degree = rng.choice((0, 1, 2))
        if degree == 0:
            j = jacobi_module(a, w)
            if j.dim == 0:
                degree = 1
            else:
                coords = [_ZERO] * w.dim
                for bvec in j.basis:
                    c = Fraction(rng.choice((-2, -1, 1, 2)))
                    for t in range(w.dim):
                        coords[t] += c * bvec[t]
                if not j.contains(coords):
                    return f"{label}, degree 0: a combination of J(W) is outside J(W)"
                first = coboundary0(w, Element(tuple(coords)), check=False)
                dd = delta(first)
                if not dd.is_zero():
                    return f"{label}, degree 0: (δδw){_first_nonzero_cell(dd)}"
                continue
        f = _random_cochain(rng, a, w, degree)
        dd = delta(delta(f))
        if not dd.is_zero():
            return f"{label}, degree {degree}: (δδf){_first_nonzero_cell(dd)}"
    return None


def _check_bidegree(
    base: int, a: KVAlgebra, w: KVModule, v: KVModule, delta: CoboundaryFn
) -> Optional[str]:
    g = semidirect(a, w)
    vt = extend_module_to_semidirect(g, a.dim, v)
    rng = random.Random(base + 3)
    f = _random_cochain(rng, g, vt, 2)
    p = rng.choice((0, 1, 2))
    piece = graded_piece(f, a.dim, p)
    df = delta(piece)
    for pp, qq, comp in bigrade(df, a.dim):
        if not comp.cochain.is_zero() and pp not in (p, p + 1):
            return (
                f"a w-degree-{p} cochain has coboundary component in "
                f"bidegree ({pp},{qq})"
            )
    return None


def _integer_planes(*tensors: Tensor3) -> tuple[int, list]:
    """d and each tensor times d as nested int lists, d the lcm of the
    denominators of all their entries.

    A product of two basis vectors is a row of structure constants, so a
    two-step product of basis vectors sums ints from these planes; the sum
    is d^2 times its value.
    """
    d = math.lcm(*{x.denominator for t in tensors for p in t for r in p for x in r})
    scaled = [[[[x.numerator * (d // x.denominator) for x in r] for r in p] for p in t] for t in tensors]
    return d, scaled


def _check_pair_bracket(base: int) -> Optional[str]:
    rng = random.Random(base)
    n = rng.choice((1, 2, 3))
    mu = tensor3(
        [
            [[Fraction(rng.choice((-2, -1, 0, 1, 2))) for _ in range(n)] for _ in range(n)]
            for _ in range(n)
        ]
    )
    br = kv_bracket(mu, mu)
    d, (M,) = _integer_planes(mu)
    dd = d * d
    for x, y, z in itertools.product(range(n), repeat=3):
        for k in range(n):
            # 2 [(xy)z - x(yz) - (yx)z + y(xz)], times d^2
            want = 2 * sum(
                M[x][y][s] * M[s][z][k] - M[y][z][s] * M[x][s][k]
                - M[y][x][s] * M[s][z][k] + M[x][z][s] * M[y][s][k]
                for s in range(n)
            )
            got = br[x][y][z][k]
            if got.numerator * dd != want * got.denominator:
                return (
                    f"d_μμ(e_{x + 1},e_{y + 1},e_{z + 1}) coordinate {k + 1}: "
                    f"{got} != {Fraction(want, dd)}"
                )
    return None


def _check_center(a: KVAlgebra) -> Optional[str]:
    j = jacobi_algebra(a)
    for idx, zvec in enumerate(center(a).basis):
        if not j.contains(zvec):
            return f"center basis vector {idx + 1} is outside the Jacobi space"
    return None


def _check_round_trip(base: int, a: KVAlgebra, w: KVModule) -> Optional[str]:
    rng = random.Random(base + 2)
    f = _random_cochain(rng, a, w, rng.choice((1, 2)))

    back_a = sz.algebra_from_obj(json.loads(sz.canonical_json(sz.algebra_to_obj(a))))
    if back_a != a:
        return "algebra file did not round-trip"
    back_w = sz.module_from_obj(json.loads(sz.canonical_json(sz.module_to_obj(w))))
    if back_w != w:
        return "module file did not round-trip"
    back_f = sz.cochain_from_obj(
        json.loads(sz.canonical_json(sz.cochain_to_obj(f))), a, w
    )
    if back_f != f:
        return "cochain file did not round-trip"
    for _ in range(20):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if sz.parse_rat(sz.format_rat(x)) != x:
            return f"rational {x} did not round-trip through \"p/q\""
    return None


def _check_curvature(base: int, a: KVAlgebra, delta: CoboundaryFn) -> Optional[str]:
    n = a.dim
    rng = random.Random(base + 1)
    raw = [
        [[Fraction(rng.choice((-2, -1, 0, 1, 2))) for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ]
    s = tensor3(
        [
            [[raw[i][j][k] + raw[j][i][k] for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    )
    mu0 = a.product
    mu = tensor3(
        [
            [[mu0[i][j][k] + s[i][j][k] for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    )
    ds = tensor4_from_cochain(delta(bilinear_cochain(a, s)))
    d, (M, G, T) = _integer_planes(mu, mu0, s)
    dd = d * d
    for x, y, z in itertools.product(range(n), repeat=3):
        for k in range(n):
            # mu(x,mu(y,z)) - mu(y,mu(x,z)) - mu([x,y],z) - s(x,s(y,z)) + s(y,s(x,z)),
            # times d^2
            residual = sum(
                M[y][z][t] * M[x][t][k] - M[x][z][t] * M[y][t][k]
                - (G[x][y][t] - G[y][x][t]) * M[t][z][k]
                - T[y][z][t] * T[x][t][k] + T[x][z][t] * T[y][t][k]
                for t in range(n)
            )
            want = -ds[x][y][z][k]
            if residual * want.denominator != want.numerator * dd:
                return (
                    f"curvature defect at (e_{x + 1},e_{y + 1},e_{z + 1}) "
                    f"coordinate {k + 1}: {Fraction(residual, dd)} != {want}"
                )
    return None


def _strip_right(w: KVModule) -> KVModule:
    return KVModule(
        algebra=w.algebra,
        dim=w.dim,
        left=w.left,
        right=zero3(w.dim, w.algebra.dim, w.dim),
    )


def _check_graded_deformation(base: int, a: KVAlgebra, w1: KVModule) -> Optional[str]:
    w = _strip_right(w1)
    g = GradedKVAlgebra(even=a, odd=w)
    n, m, total_dim = g.n, g.m, g.dim
    rng = random.Random(base + 2)
    theta = tensor3(
        [
            [[Fraction(rng.choice((-1, 0, 0, 1))) for _ in range(m)] for _ in range(m)]
            for _ in range(m)
        ]
    )
    cocycle = bool(is_theta_cocycle(g, theta))
    chain = bool(is_kv_chain(theta))
    base_prod = g.total().product
    prod = [[list(base_prod[x][y]) for y in range(total_dim)] for x in range(total_dim)]
    for al in range(m):
        for be in range(m):
            for ga in range(m):
                prod[n + al][n + be][n + ga] += theta[al][be][ga]
    verdict = is_kv(KVAlgebra(dim=total_dim, product=tensor3(prod)))
    if bool(verdict) != (cocycle and chain):
        return (
            f"deformed product is_kv={bool(verdict)} but cocycle={cocycle} "
            f"and chain={chain}; witness {verdict.witness}"
        )
    return None


def run_battery(
    seed: int = 0,
    count: int = 20,
    *,
    coboundary_fn: Optional[CoboundaryFn] = None,
) -> BatteryReport:
    """Run every invariant over count seeded instances; list all failures."""
    delta = coboundary_fn if coboundary_fn is not None else coboundary
    failures: list[BatteryFailure] = []
    for i in range(count):
        base = _instance_base(seed, i)
        a = random_kv(base)
        w1 = random_module(a, base + 1)
        w2 = random_module(a, base + 2)
        outcomes = (
            ("delta-squared", _check_delta_squared(base, a, w1, delta)),
            ("bidegree-law", _check_bidegree(base, a, w1, w2, delta)),
            ("pair-bracket", _check_pair_bracket(base)),
            ("center-in-jacobi", _check_center(a)),
            ("round-trip", _check_round_trip(base, a, w1)),
            ("curvature", _check_curvature(base, a, delta)),
            ("graded-deformation", _check_graded_deformation(base, a, w1)),
        )
        for name, witness in outcomes:
            if witness is not None:
                failures.append(BatteryFailure(name, i, witness))
    return BatteryReport(
        seed=seed, count=count, invariants=INVARIANTS, failures=tuple(failures)
    )
