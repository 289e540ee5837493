"""The center, the radiant system, the bidegree check and the extension
block maps against the routes that computed each on its own
(`gather_loops`), on seeded sets that include dimensions 0 and 1 and
zero-dimensional kernels and quotients."""

import random
from fractions import Fraction

from kvcohom import complexes, extensions
from kvcohom.complexes import Cochain
from kvcohom.core import center, random_kv, random_module, semidirect, zero_module
from kvcohom.errors import InputError
from kvcohom.extensions import (
    AlgebraExtension,
    BigradedCochain,
    ModuleExtension,
    algebra_extension_from_cocycle,
    cocycle_from_section,
    e11_coboundary0,
    extend_module_to_semidirect,
    module_extension_from_cocycle,
)
from kvcohom.fixtures import aff, algebra_catalog, flat_polynomial_module, zero_algebra
from kvcohom.geom import find_radiant
from kvcohom.linalg import Mat

from gather_loops import dense_center, dense_radiant, per_class_block_maps, scanned_homogeneity


def _algebras():
    out = [zero_algebra(0), zero_algebra(1), *algebra_catalog()]
    out += [random_kv(seed, n_max) for seed in range(25) for n_max in (1, 2, 3, 4, 5)]
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return ("InputError", str(exc))


def test_center_is_the_dense_commutator_kernel():
    dims = set()
    for A in _algebras():
        assert center(A) == dense_center(A)
        dims.add((A.dim, center(A).dim))
    assert {(0, 0), (1, 1)} <= dims and any(c == 0 for n, c in dims if n > 0)


def test_radiant_system_matches_the_dense_system():
    kinds = set()
    for A in _algebras():
        got, want = _outcome(find_radiant, A), _outcome(dense_radiant, A)
        assert got == want
        kinds.add("error" if isinstance(got, tuple) else (bool(got), got.unique))
    assert {"error", (True, True), (False, False)} <= kinds


def _extension_inputs():
    """(A, kernel, quotient) with module dimensions 0 to 3."""
    for seed, A in enumerate([zero_algebra(0), zero_algebra(1), aff(), *_algebras()[::9]]):
        picks = [zero_module(A, 0), random_module(A, seed), random_module(A, seed + 1, m_max=2)]
        yield A, picks[seed % 3], picks[(seed + 1) % 3]
        yield A, picks[(seed + 1) % 3], picks[seed % 3]
    A = flat_polynomial_module().algebra
    yield A, flat_polynomial_module(), zero_module(A, 0)


def test_block_maps_match_the_per_class_maps():
    shapes = set()
    for A, V, W in _extension_inputs():
        G = semidirect(A, W)
        Vt = extend_module_to_semidirect(G, A.dim, V)
        zero = BigradedCochain(Cochain.zero(G, Vt, 2), A.dim, 1, 1)
        for ext in (
            module_extension_from_cocycle(A, W, V, zero),
            algebra_extension_from_cocycle(A, V, Cochain.zero(A, V, 2)),
        ):
            maps = (ext.injection(), ext.projection(), ext.canonical_section())
            assert maps == per_class_block_maps(ext)
            shapes.add((type(ext).__name__, ext.kernel.dim == 0, ext.total.dim == ext.kernel.dim))
    assert {(kind, k, r) for kind in ("ModuleExtension", "AlgebraExtension")
            for k, r in ((True, False), (False, True))} <= shapes


def _bigrading_inputs(rng):
    """Seeded cochains of degree 1 to 3 over semidirect sums, most of them
    not homogeneous."""
    for A, W, V in _extension_inputs():
        G = semidirect(A, W)
        Vt = extend_module_to_semidirect(G, A.dim, V)
        for q in (1, 2, 3):
            size = G.dim**q * Vt.dim
            if size > 2000:
                continue
            for density in (0.01, 0.05, 0.3):
                values = [
                    Fraction(rng.choice((-2, -1, 1, 3))) if rng.random() < density else Fraction(0)
                    for _ in range(size)
                ]
                yield A.dim, Cochain(G, Vt, q, tuple(values))


def test_bidegree_verdicts_and_messages_match_the_tuple_scan():
    rng = random.Random(25)
    outcomes = set()
    for a_dim, f in _bigrading_inputs(rng):
        for p in range(f.degree + 1):
            want = scanned_homogeneity(f, a_dim, p, f.degree - p)
            try:
                BigradedCochain(f, a_dim, p, f.degree - p)
                got = None
            except InputError as exc:
                got = str(exc)
            assert got == want
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_each_formula_has_one_implementation(monkeypatch):
    for name in ("injection", "projection", "canonical_section"):
        assert getattr(ModuleExtension, name) is getattr(AlgebraExtension, name)
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    monkeypatch.setattr(complexes, "_delta0_rows", counted("delta0", complexes._delta0_rows))
    monkeypatch.setattr(complexes, "_coboundary_sums", counted("sums", complexes._coboundary_sums))
    monkeypatch.setattr(extensions, "_pieces", counted("pieces", extensions._pieces))
    center(aff())
    assert calls == ["delta0"]
    G = semidirect(aff(), zero_module(aff(), 1))
    BigradedCochain(Cochain.zero(G, extend_module_to_semidirect(G, 2, zero_module(aff(), 1)), 2), 2, 1, 1)
    assert calls == ["delta0", "pieces"]
    # the bottom coboundary and the section cocycle are each one coboundary
    # over the semidirect sum, checked for its bidegree once
    W = flat_polynomial_module()
    theta = Mat.from_rows([[1, 0, 2], [0, -1, 0], [3, 0, 1]])
    calls.clear()
    f = e11_coboundary0(aff(), W, W, theta)
    assert calls == ["sums", "pieces"]
    ext = module_extension_from_cocycle(aff(), W, W, f)
    calls.clear()
    cocycle_from_section(ext, ext.canonical_section())
    assert calls == ["sums", "pieces"]
