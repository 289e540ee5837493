"""Loops that the package replaced by its shared kernels and layouts, kept
as references for the tests.

`product_lists` lists the nonzero constants of any d1 x d2 x d3 tensor as
they are, Fractions or ints, indexed both ways, and `two_step` sums the
two-step products that reach one output tuple.  A scan built on them visits
every output tuple in lexicographic order, zero constants included, and
stops at the first nonzero sum, as the package's one scatter kernel did
not replace.

`extension_defects` runs the entry-by-entry checks of an extension file's
total space with hand-written offsets, and `dense_morphism_space` builds
the module-morphism equations as dense Fraction rows; the package reads
the first from the block layout of `core` and the second as the kernel of
the bottom matrix of the p = 1 column.  `reference_coboundary0` evaluates
(delta w)(a) = -aw + wa with `Element` arithmetic, which the package reads
from the degree-0 matrix, and `reference_embed_w_map` places a map
theta: W -> V as a 1-cochain over the semidirect sum, the cochain whose
coboundary is the bottom map of the p = 1 column.
`reference_extensions_equivalent` decides module-extension equivalence by
splitting the semidirect sum back into (A, W, V)
(`reference_split_semidirect`) and solving against that bottom map, where
the package asks `complexes.is_coboundary` for a preimage over the
semidirect sum.

`reference_next_order` is the next-order step on the whole degree-2
coboundary matrix: it solves against every a < b row and, on an
obstruction, takes the certificate from the left kernel of all n^4 rows,
where the package eliminates only the rows of the weight classes the
target touches.

`dense_center`, `dense_radiant`, `scanned_homogeneity` and
`per_class_block_maps` are the degree-0 invariants, the homogeneity check
and the extension block maps as each used to compute them on its own: the
commutator rows and the radiant system as dense Fraction matrices, the
bidegree by a count of W arguments on every basis tuple, and the block
maps of each extension class from its own summand dimensions.  The
package reads the first as the kernel of the degree-0 matrix of
`complexes`, the second from the algebra's integer view, the third from
the summand split `complexes._pieces`, and the last from one kernel-first
layout shared by both classes.

`reference_build_parser` is the shell parser with each verb's flags written
out as add_argument calls, where the package builds it from the one flag
table that `cli.run` also checks options against.

Tests import this module by name; pytest puts the directory of the test
files on the import path.
"""

import argparse
import itertools
from fractions import Fraction

from kvcohom.cli import fixture_names
from kvcohom.complexes import (
    Cochain,
    _coboundary_rows,
    _coboundary_sums,
    _pair_outputs,
    _pair_rhs,
)
from kvcohom.core import KVAlgebra, KVModule, _shaped, regular_bimodule, semidirect
from kvcohom.deform import _dense4, _jet_lists, _target
from kvcohom.errors import InputError
from kvcohom.extensions import ModuleExtension, e11_matrix, e11_support, extend_module_to_semidirect
from kvcohom.geom import RadiantSolutions
from kvcohom.linalg import Mat, _separating, _solve, kernel, solve, vec


def product_lists(t):
    """Nonzero entries of a d1 x d2 x d3 bilinear tensor t, indexed both ways.

    gam[i][j] lists the (k, x) of t(e_i, f_j) and gam_t[j][i] the same list,
    so gam_t is d2 x d1.
    """
    gam = [[[(k, x) for k, x in enumerate(r) if x] for r in p] for p in t]
    return gam, list(zip(*gam))


def two_step(*terms):
    """The sum of two-step products x(y), as {coordinate: nonzero value}.

    Each term is (negate, first, second): ``first`` lists the nonzero
    (s, c) of the first product y, and ``second[s]`` the nonzero (t, x) of
    the second product taken on the basis vector s.  The sums start from
    int 0, so integer lists give integer values and Fraction lists
    Fraction values.
    """
    acc = {}
    for negate, first, second in terms:
        for s, c in first:
            if negate:
                c = -c
            for t, x in second[s]:
                acc[t] = acc.get(t, 0) + c * x
    return {t: v for t, v in acc.items() if v}


def extension_defects(kind, base, kernel_module, total, quotient=None):
    """Every defect message of the entry-by-entry checks of an extension
    file's total space, in the order the loops meet them; the first is the
    one a file used to be rejected with, and an empty list accepts it.

    An algebra total lives on W + A (kernel first), a module total on V + W.
    """
    out = []
    if kind == "algebra":
        n, m = base.dim, kernel_module.dim
        P = total.product
        for i in range(n):
            for j in range(n):
                if P[m + i][m + j][m:] != base.product[i][j]:
                    out.append("total product does not project onto the base")
            for al in range(m):
                if (
                    P[m + i][al][:m] != kernel_module.left[i][al]
                    or any(x != 0 for x in P[m + i][al][m:])
                    or P[al][m + i][:m] != kernel_module.right[al][i]
                    or any(x != 0 for x in P[al][m + i][m:])
                ):
                    out.append("total product does not restrict to the kernel actions")
        for al in range(m):
            for be in range(m):
                if any(x != 0 for x in P[al][be]):
                    out.append("the kernel must square to zero in the total")
        return out
    v = kernel_module.dim
    for i in range(base.dim):
        for ga in range(v):
            if (
                total.left[i][ga][:v] != kernel_module.left[i][ga]
                or any(x != 0 for x in total.left[i][ga][v:])
                or total.right[ga][i][:v] != kernel_module.right[ga][i]
                or any(x != 0 for x in total.right[ga][i][v:])
            ):
                out.append("total actions do not restrict to the kernel module")
        for al in range(quotient.dim):
            if (
                total.left[i][v + al][v:] != quotient.left[i][al]
                or total.right[v + al][i][v:] != quotient.right[al][i]
            ):
                out.append("total actions do not project onto the quotient module")
    return out


def dense_morphism_space(W, V):
    """The maps phi: W -> V with phi(aw) = a phi(w) and phi(wa) = phi(w) a,
    as the kernel of dense Fraction rows, one per (i, al, ga) and side, in
    the flattening phi[al][be] -> al * dim(V) + be."""
    n = W.algebra.dim
    mw, mv = W.dim, V.dim
    dim = mw * mv
    rows = []
    for i in range(n):
        for al in range(mw):
            for ga in range(mv):
                # phi(e_i w_al) - e_i phi(w_al) = 0, coordinate ga
                row = [Fraction(0)] * dim
                for de in range(mw):
                    row[de * mv + ga] += W.left[i][al][de]
                for be in range(mv):
                    row[al * mv + be] -= V.left[i][be][ga]
                rows.append(row)
                # phi(w_al e_i) - phi(w_al) e_i = 0, coordinate ga
                row = [Fraction(0)] * dim
                for de in range(mw):
                    row[de * mv + ga] += W.right[al][i][de]
                for be in range(mv):
                    row[al * mv + be] -= V.right[be][i][ga]
                rows.append(row)
    return kernel(Mat.from_rows(rows, cols=dim))


def reference_coboundary0(W, w):
    """(delta w)(a) = -aw + wa as a degree-1 cochain, for any element w of
    W, through `Element` products."""
    A = W.algebra
    out = []
    for i in range(A.dim):
        a = A.basis_element(i)
        out.extend((W.right_act(w, a) - W.left_act(a, w)).coords)
    return Cochain(A, W, 1, tuple(out))


def reference_embed_w_map(A, W, V, theta):
    """A linear map theta: W -> V, given by its rows theta(w_al), as a
    1-cochain over G = A + W that is zero on A."""
    G = semidirect(A, W)
    Vt = extend_module_to_semidirect(G, A.dim, V)
    vals = []
    for i in range(G.dim):
        if i < A.dim:
            vals.extend([Fraction(0)] * V.dim)
        else:
            vals.extend(theta.row(i - A.dim))
    return Cochain(G, Vt, 1, tuple(vals))


def reference_next_order(jet):
    """(order, target, target_is_cocycle, coefficient, certificate) of the
    next-order step of a jet, solved against all a < b rows of D times
    delta_2 and certified on all of its rows."""
    A, n = jet.base, jet.dim
    W = regular_bimodule(A)
    k = jet.order + 1
    d, L = _jet_lists(jet)
    R = _target(n, L, d, k)
    values = {((a * n + b) * n + c) * n + t: v for (a, b, c), row in R.items() for t, v in row.items()}
    target_is_cocycle = not _coboundary_sums(A, W, 3, values)[1]
    D, rows = _coboundary_rows(A, W, 2, _pair_outputs(n))
    rhs = {i: D * v for i, v in values.items()}
    pair_rhs = _pair_rhs(rhs, n, n)
    x = None if pair_rhs is None else _solve(rows, n**3, pair_rhs)
    if x is None:
        certificate = _separating(_coboundary_rows(A, W, 2)[1], n**3, rhs)
        return k, _dense4(n, R), target_is_cocycle, None, certificate
    return k, _dense4(n, R), target_is_cocycle, _shaped(x, n, n, n), None


def reference_split_semidirect(f):
    """Recover (A, W, V) from a bigraded cochain over G = semidirect(A, W),
    entry by entry."""
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


def reference_extensions_equivalent(f, g):
    """Whether two (1,1) cochains differ by the bottom coboundary of a map
    theta: W -> V, solved against the bottom matrix of the p = 1 column on
    the (1,1) support of f - g."""
    diff = f.cochain - g.cochain
    A, W, V = reference_split_semidirect(f)
    target = [diff.values[pos] for pos in e11_support(A, W, V, 1)]
    return solve(e11_matrix(A, W, V, 0), target) is not None


def dense_center(A):
    """{c : c x = x c}: the kernel of the dense rows (i, k), whose entry at
    column l is (e_l e_i - e_i e_l)_k."""
    n = A.dim
    rows = []
    for i in range(n):
        for k in range(n):
            rows.append([A.product[l][i][k] - A.product[i][l][k] for l in range(n)])
    return kernel(Mat.from_rows(rows, cols=n))


def dense_radiant(A):
    """The solutions of e_i H = e_i from the dense system: row (i, k) holds
    (e_i e_j)_k at column j and the right-hand side is 1 at (i, i)."""
    n = A.dim
    if n == 0:
        raise InputError("the radiant system needs a positive dimension")
    rows = []
    rhs = []
    for i in range(n):
        for k in range(n):
            rows.append([A.product[i][j][k] for j in range(n)])
            rhs.append(Fraction(int(i == k)))
    M = Mat.from_rows(rows, cols=n)
    return RadiantSolutions(solve(M, vec(rhs)), kernel(M))


def scanned_homogeneity(f, a_dim, w_degree, a_degree):
    """The rejection message of a cochain that is not homogeneous of
    bidegree (w_degree, a_degree), or None: every basis tuple in
    lexicographic order, its W arguments counted."""
    for args in itertools.product(range(f.n), repeat=f.degree):
        if sum(1 for i in args if i >= a_dim) != w_degree:
            if any(x != 0 for x in f.value(args)):
                return (
                    f"cochain is not homogeneous of bidegree "
                    f"({w_degree},{a_degree}): nonzero at {args}"
                )
    return None


def per_class_block_maps(ext):
    """(injection, projection, canonical section) of an extension from the
    dimensions of its own summands: the kernel, then the quotient module or
    the base algebra."""
    k, t = ext.kernel.dim, ext.total.dim
    r = ext.quotient.dim if isinstance(ext, ModuleExtension) else ext.base.dim

    def unit_block(rows, cols, count, r0, c0):
        return Mat.from_items(rows, cols, {(r0 + i, c0 + i): Fraction(1) for i in range(count)})

    return unit_block(k, t, k, 0, 0), unit_block(t, r, r, k, 0), unit_block(r, t, r, 0, k)


def reference_build_parser() -> argparse.ArgumentParser:
    """The shell parser as each verb's add_argument calls wrote it out."""
    parser = argparse.ArgumentParser(
        prog="kvcohom",
        description=(
            "Exact cohomology, extensions, deformations, and flat-connection "
            "geometry of Koszul-Vinberg algebras."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", help="write the report/artifact here instead of stdout")
        return p

    p = add("verify", "check the KV identity (and module identities)")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module")

    p = add("jacobi", "Jacobi elements of an algebra (and a module)")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module")

    p = add("cohomology", "exact cohomology table through a degree")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", help="coefficient module file (default: regular)")
    p.add_argument("--q-max", dest="q_max", type=int)
    p.add_argument("--budget", type=int, help="table-cell budget override")

    p = add("nijenhuis", "commutator Chevalley-Eilenberg comparison table")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", help="coefficient module file (default: regular)")
    p.add_argument("--q-max", dest="q_max", type=int)

    p = add("extend-algebra", "build the extension classified by a 2-cocycle")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--cochain", required=True)
    p.add_argument("--emit", help="also write the extension file here")

    p = add("extend-module", "build the module extension of a (1,1) cocycle")
    p.add_argument("--algebra", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--quotient", required=True)
    p.add_argument("--cochain", required=True)
    p.add_argument("--emit", help="also write the extension file here")

    p = add("classify-ext", "decide whether two extensions are equivalent")
    p.add_argument("--ext1", required=True)
    p.add_argument("--ext2", required=True)

    p = add("deform-check", "verify the deformation equations of a jet")
    p.add_argument("--jet", required=True)

    p = add("deform-solve", "extend a jet order by order or certify obstructions")
    p.add_argument("--jet", required=True)
    p.add_argument("--orders", type=int)
    p.add_argument("--emit", help="write the extended jet file here")

    p = add("rigidity", "tangent-space dimensions and the rigidity verdict")
    p.add_argument("--algebra", required=True)

    p = add("curvature-check", "two-route curvature comparison for a symmetric tensor")
    p.add_argument("--algebra", required=True)
    p.add_argument("--tensor", required=True)

    p = add("graded-check", "validate a two-graded algebra file")
    p.add_argument("--graded", required=True)

    p = add("graded-deform", "deform the odd part by a square-zero product")
    p.add_argument("--graded", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--emit", help="write the deformed algebra file here")

    p = add("connectionlike", "evaluate the defining conditions of a (theta, psi) pair")
    p.add_argument("--graded", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--psi", required=True)

    p = add("aff-suite", "worked two-dimensional example with its cocycle pencil")
    p.add_argument("--alpha")
    p.add_argument("--beta")

    p = add("geodesic", "integrate the deformed-connection geodesic system")
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--x0", type=float)
    p.add_argument("--y0", type=float)
    p.add_argument("--vx0", type=float)
    p.add_argument("--vy0", type=float)
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--step", type=float)

    p = add("radiant", "solve for right identities")
    p.add_argument("--algebra", required=True)

    p = add("proptest", "seeded random invariant battery")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int)

    p = add("fixtures", "emit a named fixture file")
    p.add_argument("name", help=f"one of: {', '.join(fixture_names())}")

    return parser
