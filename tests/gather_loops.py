"""The gather loops that the package's one scatter kernel replaced, kept as
references for the tests.

`product_lists` lists the nonzero constants of any d1 x d2 x d3 tensor as
they are, Fractions or ints, indexed both ways, and `two_step` sums the
two-step products that reach one output tuple.  A scan built on them visits
every output tuple in lexicographic order, zero constants included, and
stops at the first nonzero sum.  Tests import this module by name; pytest
puts the directory of the test files on the import path.
"""


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
