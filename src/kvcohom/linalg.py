"""Exact linear algebra over the rationals.

Matrices of :class:`fractions.Fraction` entries are stored sparsely, one
``{column: nonzero value}`` dict per row, and every elimination runs
through one sparse, fraction-free row-echelon routine over Python ints.
Its input is integer rows: the differentials of the complexes are
assembled straight into the integer rows of D times the matrix (D a common
denominator of their structure constants, which changes no kernel, image
or rank), and a public :class:`Mat` is read into integers once, times the
lcm of its denominators.  Rows are reduced, sparsest first, against a
pivot table ``{pivot column: integer row}`` (leftmost pivot column first):
clearing the entry c at a pivot a takes ``row * (a/g) - (c/g) * pivot``
with g = gcd(a, c), and the content of the remainder is removed once.  A
back-substitution pass in the same arithmetic then yields the reduced row
echelon form, each row scaled to coprime integers with a positive pivot
entry; a rank is the pivot count of the forward pass alone.  That form is
unique for a row space, so neither the order in which rows are taken nor a
scale on them ever shows in a result.  ``kernel``, ``image``, ``solve``
and ``rank`` are thin wrappers over private entry points that take such
integer rows and a column count, and a :class:`Subspace` is that pivot
table itself: membership, coordinates, sums, intersections and
:func:`extend_basis` reduce integer rows against it.  Fractions come back
only where an entry leaves the module (a dense ``basis``, a remainder, a
solution, an inverse, a combination), one division per entry.  Everything
is exact: no floats, no tolerances, anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import DimensionError

__all__ = [
    "RatLike",
    "Vec",
    "Mat",
    "Subspace",
    "rat",
    "vec",
    "rank",
    "kernel",
    "solve",
    "image",
    "inverse",
    "mat_mul",
    "extend_basis",
    "zeros",
    "identity",
]

RatLike = Union[Fraction, int, str]
Vec = tuple[Fraction, ...]
# A sparse row: column index -> nonzero value.
Row = dict[int, Fraction]
IntRow = dict[int, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x: RatLike) -> Fraction:
    """Coerce an int, a string like ``"3/4"`` or ``"-2"``, or a Fraction.

    Floats are rejected on purpose: every scalar in the algebraic layer is an
    exact rational, and silently admitting binary floats would poison that.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def vec(values: Iterable[RatLike]) -> Vec:
    """Build an exact vector (tuple of Fractions) from any rational-likes."""
    return tuple(rat(x) for x in values)


def _sparse(values: Sequence) -> Row:
    return {j: x for j, x in enumerate(values) if x}


def _checked(v: Sequence[RatLike], length: int) -> Row:
    """The sparse row of an exact vector that must have the given length."""
    x = vec(v)
    if len(x) != length:
        raise DimensionError(f"vector of length {len(x)} in ambient dimension {length}")
    return _sparse(x)


def _dense(row: Row, length: int) -> Vec:
    out = [_ZERO] * length
    for j, x in row.items():
        out[j] = x
    return tuple(out)


class Mat:
    """Row-major matrix of exact rationals, stored as sparse rows.

    Attributes:
        rows: number of rows (may be 0).
        cols: number of columns (may be 0).
        entries: flat tuple of ``rows * cols`` Fractions, row-major; built
            from the sparse rows on each access.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction]) -> None:
        if rows < 0 or cols < 0:
            raise DimensionError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise DimensionError(
                f"matrix claims {rows}x{cols} but carries {len(entries)} entries"
            )
        data = tuple(_sparse(entries[i * cols : (i + 1) * cols]) for i in range(rows))
        Mat._init(self, rows, cols, data)

    @staticmethod
    def _init(m: "Mat", rows: int, cols: int, data: tuple[Row, ...]) -> "Mat":
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_rows", data)
        return m

    @staticmethod
    def _of(rows: int, cols: int, data: tuple[Row, ...]) -> "Mat":
        """A matrix over sparse rows that hold no zeros and no column past ``cols``."""
        return Mat._init(object.__new__(Mat), rows, cols, data)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Mat:
            return NotImplemented
        return (self.rows, self.cols, self._rows) == (other.rows, other.cols, other._rows)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(tuple(sorted(r.items())) for r in self._rows)))

    def __repr__(self) -> str:
        return f"Mat(rows={self.rows}, cols={self.cols}, entries={self.entries!r})"

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(x for r in self._rows for x in _dense(r, self.cols))

    @staticmethod
    def from_items(rows: int, cols: int, items: Mapping[tuple[int, int], Fraction]) -> "Mat":
        """Build a matrix from ``{(row, col): value}``; absent and zero values are 0."""
        if rows < 0 or cols < 0:
            raise DimensionError("matrix dimensions must be non-negative")
        data: tuple[Row, ...] = tuple({} for _ in range(rows))
        for (r, c), x in items.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise DimensionError(f"entry ({r}, {c}) outside a {rows}x{cols} matrix")
            if x:
                data[r][c] = x
        return Mat._of(rows, cols, data)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RatLike]], *, cols: Optional[int] = None) -> "Mat":
        """Build a matrix from a sequence of equal-length rows.

        Args:
            rows: the row vectors.
            cols: required when ``rows`` is empty, to fix the column count.
        """
        data = [vec(r) for r in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimensionError("rows have unequal lengths")
            if cols is not None and cols != width:
                raise DimensionError("explicit column count contradicts the rows")
        else:
            if cols is None:
                raise DimensionError("an empty matrix needs an explicit column count")
            width = cols
        return Mat._of(len(data), width, tuple(_sparse(r) for r in data))

    @staticmethod
    def from_cols(cols: Sequence[Sequence[RatLike]], *, rows: Optional[int] = None) -> "Mat":
        """Build a matrix whose columns are the given vectors."""
        data = [vec(c) for c in cols]
        if data:
            height = len(data[0])
            if any(len(c) != height for c in data):
                raise DimensionError("columns have unequal lengths")
            if rows is not None and rows != height:
                raise DimensionError("explicit row count contradicts the columns")
        else:
            if rows is None:
                raise DimensionError("an empty matrix needs an explicit row count")
            height = rows
        return Mat._of(len(data), height, tuple(_sparse(c) for c in data)).transpose()

    def at(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        return self._rows[i].get(j, _ZERO)

    def row(self, i: int) -> Vec:
        return _dense(self._rows[i], self.cols)

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """The nonzero entries as ``((row, col), value)``, row by row."""
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                yield (i, j), x

    def row_lists(self) -> list[list[Fraction]]:
        """Mutable dense copy of the rows."""
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Mat":
        return Mat._of(self.cols, self.rows, tuple(_transposed(self._rows, self.cols)))

    def mat_vec(self, v: Sequence[RatLike]) -> Vec:
        """Matrix-vector product ``self @ v``, over the nonzero coordinates of v only."""
        x = vec(v)
        if len(x) != self.cols:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} matrix by length-{len(x)} vector"
            )
        nz = _sparse(x)
        return tuple(sum((a * nz[j] for j, a in r.items() if j in nz), _ZERO) for r in self._rows)


def zeros(rows: int, cols: int) -> Mat:
    return Mat.from_items(rows, cols, {})


def identity(n: int) -> Mat:
    return Mat.from_items(n, n, {(i, i): _ONE for i in range(n)})


def _transposed(rows: Sequence[Mapping], cols: int) -> list[dict]:
    """The sparse rows of the transpose of a matrix with ``cols`` columns."""
    out: list[dict] = [{} for _ in range(cols)]
    for i, r in enumerate(rows):
        for j, x in r.items():
            out[j][i] = x
    return out


def _integral(row: Mapping[int, Fraction | int]) -> tuple[IntRow, int]:
    """(d * row, d) with d the lcm of the denominators of ``row``'s entries."""
    d = 1
    for x in row.values():
        if d % x.denominator:
            d = lcm(d, x.denominator)
    if d == 1:
        return {j: x.numerator for j, x in row.items()}, 1
    return {j: x.numerator * (d // x.denominator) for j, x in row.items()}, d


def _read(row: Mapping[int, Fraction | int]) -> IntRow:
    """The primitive integer multiple of a rational row, positive at its
    leftmost entry: a one-entry row reads as 1 at its column, and an empty
    row as itself."""
    if len(row) <= 1:
        return dict.fromkeys(row, 1)
    return _primitive(_integral(row)[0])


def _integral_rows(m: "Mat") -> tuple[int, list[IntRow]]:
    """(d, the rows of d * m) with d the lcm of the denominators of m's entries.

    One scale on every row keeps the kernel, the image and the rank of m.
    """
    d = lcm(*{x.denominator for r in m._rows for x in r.values()})
    return d, [{j: x.numerator * (d // x.denominator) for j, x in r.items()} for r in m._rows]


def _primitive(row: IntRow) -> IntRow:
    """A nonzero integer row divided by its content, signed so that its
    leftmost entry is positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _quotient(row: Mapping, d: int) -> dict:
    """The rational entries ``row / d`` of an integer mapping, for d > 0."""
    if d == 1:
        return {j: Fraction(x) for j, x in row.items()}
    return {j: Fraction(x, d) for j, x in row.items()}


def _eliminate(row: IntRow, pivots: dict[int, IntRow]) -> tuple[IntRow, int]:
    """(rest, s) with s > 0 and rest = s * row minus a combination of pivot
    rows, 0 at every pivot column.

    ``pivots`` maps a column to an integer row whose leftmost entry, a > 0,
    sits there.  Pivot columns are cleared leftmost first, so a row
    subtracted for column p only adds entries right of p; clearing the entry
    c at p takes ``rest * (a/g) - (c/g) * pivot`` with g = gcd(a, c).  ``row``
    is not modified.
    """
    out = dict(row)
    scale = 1
    todo = [j for j in out if j in pivots]
    heapify(todo)
    while todo:
        p = heappop(todo)
        coef = out.get(p)
        if coef is None:
            continue
        pivot = pivots[p]
        a = pivot[p]
        if a != 1:
            g = gcd(a, coef)
            coef //= g
            f = a // g
            if f != 1:
                scale *= f
                for j in out:
                    out[j] *= f
        for j, x in pivot.items():
            y = out.get(j)
            if y is None:
                out[j] = -coef * x
                if j in pivots:
                    heappush(todo, j)
            else:
                y -= coef * x
                if y:
                    out[j] = y
                else:
                    del out[j]
    return out, scale


def _echelon(rows: Iterable[IntRow]) -> dict[int, IntRow]:
    """The forward pass of `_rref`: a pivot table of the span of sparse
    integer rows, in the order the pivots were found.

    Each row is primitive, positive at its pivot and 0 at every pivot column
    found before it, so the table has one row per unit of rank.  The rows
    are taken sparsest first and are not modified.
    """
    pivots: dict[int, IntRow] = {}
    for row in sorted((r for r in rows if r), key=len):
        rest = _eliminate(row, pivots)[0]
        if rest:
            pivots[min(rest)] = _primitive(rest)
    return pivots


def _rref(rows: Iterable[IntRow]) -> dict[int, IntRow]:
    """Reduced row echelon form of the span of sparse integer rows.

    Returns the pivot table ``{pivot column: row}`` of its nonzero rows by
    increasing pivot column.  Each row is the primitive integer multiple of
    a reduced row echelon row: coprime entries, positive at its pivot and 0
    at every other pivot column.  The remainder of a row is determined up
    to a scale, so the rows need not be primitive; they are not modified.
    """
    pivots = _echelon(rows)
    order = sorted(pivots)
    # Back-substitution, last pivot first: the rows below are already
    # reduced and carry no pivot column but their own, so subtracting one
    # leaves the other pivot entries of this row as they were.
    for c in reversed(order):
        row = pivots[c]
        cleared = [j for j in row if j != c and j in pivots]
        if cleared:
            row = _eliminate(row, {p: pivots[p] for p in cleared})[0]
            pivots[c] = _primitive(row)
    return {c: pivots[c] for c in order}


class Subspace:
    """A linear subspace of F^ambient_dim, held as its reduced row echelon form.

    The form is a pivot table: each pivot column, in increasing order, maps
    to the sparse integer row ``{column: nonzero int}`` whose leftmost entry
    sits there.  Each row is the primitive multiple of a reduced row echelon
    row: its entries are coprime, positive at its pivot and 0 at every other
    pivot column.  That form is unique, so two subspaces are equal as sets
    exactly when their tables are equal.  ``basis`` is the dense rational
    view of the rows, each divided by its pivot entry, built on access;
    ``Subspace(ambient_dim, basis)`` is the span of any rows, those included.
    """

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, ambient_dim: int, basis: Iterable[Sequence[RatLike]]) -> None:
        Subspace._init(self, ambient_dim, _rref([_read(_checked(b, ambient_dim)) for b in basis]))

    @staticmethod
    def _init(s: "Subspace", ambient_dim: int, rows: dict[int, IntRow]) -> "Subspace":
        object.__setattr__(s, "ambient_dim", ambient_dim)
        object.__setattr__(s, "_rows", rows)
        return s

    @staticmethod
    def _of(ambient_dim: int, rows: dict[int, IntRow]) -> "Subspace":
        """A subspace over a pivot table already in reduced row echelon form."""
        return Subspace._init(object.__new__(Subspace), ambient_dim, rows)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Subspace:
            return NotImplemented
        return (self.ambient_dim, self._rows) == (other.ambient_dim, other._rows)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(tuple(sorted(r.items())) for r in self._rows.values())))

    def __repr__(self) -> str:
        return f"Subspace(ambient_dim={self.ambient_dim}, basis={self.basis!r})"

    @property
    def basis(self) -> tuple[Vec, ...]:
        n = self.ambient_dim
        return tuple(_dense(_quotient(r, r[c]), n) for c, r in self._rows.items())

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence[RatLike]]) -> "Subspace":
        """Span of the given vectors, normalized to the canonical RREF basis."""
        return Subspace(ambient_dim, vectors)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace._of(ambient_dim, {})

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace._of(ambient_dim, {i: {i: 1} for i in range(ambient_dim)})

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, v: Sequence[RatLike]) -> Vec:
        """Remainder of ``v`` after subtracting its projection on the basis.

        The remainder is zero exactly when ``v`` lies in the subspace.
        """
        x, d = _integral(_checked(v, self.ambient_dim))
        rest, s = _eliminate(x, self._rows)
        return _dense(_quotient(rest, d * s), self.ambient_dim)

    def contains(self, v: Sequence[RatLike]) -> bool:
        return not _eliminate(_integral(_checked(v, self.ambient_dim))[0], self._rows)[0]

    def coordinates(self, v: Sequence[RatLike]) -> Optional[Vec]:
        """Coefficients of ``v`` in the canonical basis, or None if outside.

        Each basis vector is 1 at its pivot column and 0 at the other pivot
        columns, so the coefficient of a vector is the entry of ``v`` at its
        pivot column.
        """
        x = _checked(v, self.ambient_dim)
        if _eliminate(_integral(x)[0], self._rows)[0]:
            return None
        return tuple(x.get(p, _ZERO) for p in self._rows)

    def add(self, other: "Subspace") -> "Subspace":
        """Sum of subspaces (span of the union of the bases)."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace sum needs a common ambient dimension")
        return Subspace._of(self.ambient_dim, _rref([*self._rows.values(), *other._rows.values()]))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection, by Zassenhaus: the echelon form of the rows (a | a)
        for a in this basis and (b | 0) for b in the other.

        A combination of those rows is 0 on the left half exactly when it
        is (a + b | a) with a = -b, which lies in both spans; its rows with a
        pivot right of the middle are the echelon basis of the intersection.
        """
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace intersection needs a common ambient dimension")
        n = self.ambient_dim
        doubled = [{**r, **{j + n: x for j, x in r.items()}} for r in self._rows.values()]
        reduced = _rref(doubled + list(other._rows.values()))
        meet = {c - n: {j - n: x for j, x in r.items()} for c, r in reduced.items() if c >= n}
        return Subspace._of(n, meet)


def _rank(rows: Iterable[IntRow]) -> int:
    """The rank of a matrix given by integer rows: the pivot count of the
    forward pass, which needs no back-substitution."""
    return len(_echelon(rows))


def _kernel(rows: Sequence[IntRow], cols: int) -> Subspace:
    """The null space of the matrix with these integer rows and ``cols`` columns."""
    reduced = _rref(rows)
    # The free column j spans e_j - sum over pivot rows R_p of (R_p[j] / R_p[p]) e_p,
    # times the lcm d of those pivot entries.
    terms: dict[int, list[tuple[int, int, int]]] = {j: [] for j in range(cols) if j not in reduced}
    for c, row in reduced.items():
        a = row[c]
        for j, x in row.items():
            if j != c:
                terms[j].append((c, x, a))
    free = []
    for j, ts in terms.items():
        d = lcm(*[a for _, _, a in ts])
        free.append({j: d, **{c: -x * (d // a) for c, x, a in ts}})
    return Subspace._of(cols, _rref(free))


def _image(rows: Sequence[IntRow], cols: int) -> Subspace:
    """The column space of the matrix with these integer rows and ``cols`` columns.

    A scale on every row at once keeps it; a scale on one row does not.
    """
    return Subspace._of(len(rows), _rref(_transposed(rows, cols)))


def _solve(rows: Sequence[IntRow], cols: int, rhs: Mapping[int, RatLike]) -> Optional[Vec]:
    """Some particular exact solution of ``M x = b``, or None when inconsistent,
    for the matrix M with these integer rows and ``cols`` columns and b given
    by its nonzero entries ``{row: value}``.

    The solution is the one the reduced row echelon form of ``[M | b]``
    reads off: every free variable is 0.  Each equation may carry its own
    scale, so only the rows with a right-hand side are read again.
    """
    aug = list(rows)
    for i, y in rhs.items():
        aug[i] = _read({**rows[i], cols: y})
    reduced = _rref(aug)
    if cols in reduced:
        return None
    x = [_ZERO] * cols
    for c, row in reduced.items():
        y = row.get(cols)
        if y:
            x[c] = Fraction(y, row[c])
    return tuple(x)


def _separating(rows: Sequence[IntRow], cols: int, rhs: Mapping[int, RatLike]) -> Optional[Vec]:
    """The first basis vector of the left kernel of the matrix with these
    integer rows and ``cols`` columns that pairs nonzero with b, given by its
    nonzero entries ``{row: value}``, or None when every one pairs to 0, that
    is when ``M x = b`` is consistent.

    The sparse kernel rows are paired as they are; only the one returned is
    densified.
    """
    for c, y in _kernel(_transposed(rows, cols), len(rows))._rows.items():
        if sum(y[i] * v for i, v in rhs.items() if i in y):
            return _dense(_quotient(y, y[c]), len(rows))
    return None


def rank(m: Mat) -> int:
    """Exact rank over the rationals: the pivot count of the echelon form."""
    return _rank(_integral_rows(m)[1])


def kernel(m: Mat) -> Subspace:
    """Exact null space {v : m v = 0}, dimension cols - rank."""
    return _kernel(_integral_rows(m)[1], m.cols)


def solve(m: Mat, b: Sequence[RatLike]) -> Optional[Vec]:
    """Some particular exact solution of ``m x = b``, or None when inconsistent.

    The solution is the one the reduced row echelon form of ``[m | b]``
    reads off: every free variable is 0.
    """
    rhs = vec(b)
    if len(rhs) != m.rows:
        raise DimensionError(
            f"right-hand side of length {len(rhs)} for a matrix with {m.rows} rows"
        )
    d, rows = _integral_rows(m)
    return _solve(rows, m.cols, {i: d * y for i, y in enumerate(rhs) if y})


def image(m: Mat) -> Subspace:
    """Column space of ``m`` as a subspace of F^rows."""
    return _image(_integral_rows(m)[1], m.cols)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    out = []
    for arow in a._rows:
        acc: Row = {}
        for k, x in arow.items():
            for j, y in b._rows[k].items():
                acc[j] = acc.get(j, _ZERO) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return Mat._of(a.rows, b.cols, tuple(out))


def inverse(m: Mat) -> Optional[Mat]:
    """Exact inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise DimensionError("only square matrices can be inverted")
    n = m.rows
    reduced = _rref([_read({**r, n + i: _ONE}) for i, r in enumerate(m._rows)])
    if list(reduced) != list(range(n)):
        return None
    inv = (_quotient({j - n: x for j, x in r.items() if j >= n}, r[c]) for c, r in reduced.items())
    return Mat._of(n, n, tuple(inv))


def extend_basis(span: Subspace, sub: Subspace) -> list[Vec]:
    """The basis vectors of ``sub``, in order, that lie outside ``span`` and
    the ones kept before, densified.

    This is how cohomology classes are picked: kernel basis vectors that
    extend an image basis.  Each row of ``sub`` is reduced once against a
    pivot table that starts as ``span``'s and grows with every row kept.
    """
    n = span.ambient_dim
    if sub.ambient_dim != n:
        raise DimensionError(f"subspace of ambient dimension {sub.ambient_dim} extending one of {n}")
    pivots = dict(span._rows)
    kept = []
    for c, row in sub._rows.items():
        rest = _eliminate(row, pivots)[0]
        if rest:
            pivots[min(rest)] = _primitive(rest)
            kept.append(_dense(_quotient(row, row[c]), n))
    return kept


def _combine(coeffs: Sequence[Fraction], span: Subspace) -> Vec:
    """sum_t coeffs[t] span.basis[t], the vector whose ``coordinates`` are ``coeffs``.

    The sum runs in integers over the common denominator d of the
    coefficients divided by their rows' pivot entries, and is divided by d
    once per entry.
    """
    terms = [(Fraction(c, row[p]), row) for c, (p, row) in zip(coeffs, span._rows.items()) if c]
    d = lcm(*[k.denominator for k, _ in terms])
    acc: IntRow = {}
    for k, row in terms:
        f = k.numerator * (d // k.denominator)
        for t, x in row.items():
            acc[t] = acc.get(t, 0) + f * x
    return _dense(_quotient({t: x for t, x in acc.items() if x}, d), span.ambient_dim)
