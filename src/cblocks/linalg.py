"""Exact rational linear algebra by fraction-free integer elimination on sparse rows.

A row is given as a sequence of numbers or as a {column: value} dict (int and
Fraction mix freely); inside, it is a sparse integer row {column: int} that
holds its nonzero entries only.  One kernel does all elimination: each row is
scaled to integers once, then, while its leading (least) column holds a
stored pivot row, that column is cleared by cross-multiplication
(pc*row - f*stored), which touches only the stored row's columns.  A row
whose leading column is free is stored there, divided by the gcd of its
entries.  The stored rows thus have distinct leading columns; a reduced
echelon form needs a back-substitution, done over Z on the columns a row
shares with the reduced rows below it, and Fractions appear only in its final
division by the pivots.  The reduced echelon form is unique, so echelon
forms, ranks and nullspace bases are exact and deterministic, and the public
results are dense lists.  The streaming `Echelon` also skips, before any
elimination, a row that is a scalar multiple of one it was given before; the
batch functions eliminate every row they are given.
"""

from fractions import Fraction
from math import gcd, lcm


def _integer_row(raw):
    """`raw` (a sequence or a {column: value} dict) as {column: int}, scaled by
    the lcm of its denominators; only nonzero entries are kept."""
    items = [(c, x) for c, x in (raw.items() if isinstance(raw, dict)
                                 else enumerate(raw)) if x]
    den = lcm(*[x.denominator for _, x in items])
    if den == 1:
        return {c: x.numerator for c, x in items}
    return {c: x.numerator * (den // x.denominator) for c, x in items}


def _eliminate(row, stored, c):
    """Clear column c of `row` in place with the stored row pivoting there:
    row = pc*row - f*stored."""
    f = row[c]
    pc = stored[c]
    g = gcd(pc, f)
    pc, f = pc // g, f // g
    if pc != 1:
        for k in row:
            row[k] *= pc
    for k, b in stored.items():
        v = row.get(k, 0) - f * b
        if v:
            row[k] = v
        else:
            del row[k]


def _reduce(row, pivots):
    """Clear the leading column of `row` while a pivot row is stored there:
    the one elimination loop.  Returns the free leading column, or None if the
    row reduced to zero."""
    while row:
        c = min(row)
        stored = pivots.get(c)
        if stored is None:
            return c
        _eliminate(row, stored, c)
    return None


def _primitive(row, c):
    """`row` scaled to content 1 and a positive pivot at column c."""
    g = gcd(*row.values()) if row[c] > 0 else -gcd(*row.values())
    return row if g == 1 else {k: x // g for k, x in row.items()}


def _absorb(pivots, row):
    """Reduce the integer `row` in place and, if it is independent, store it
    under its leading column.  True if it was stored."""
    c = _reduce(row, pivots)
    if c is None:
        return False
    pivots[c] = _primitive(row, c)
    return True


def _echelon(rows):
    pivots = {}  # integer pivot rows
    for row in rows:
        _absorb(pivots, _integer_row(row))
    return pivots


def rref(rows, ncols=None):
    """Reduced row echelon form.

    Rows are sequences or {column: value} dicts; `ncols` (needed for dicts)
    defaults to the length of the first row.  Returns (reduced_rows,
    pivot_columns) with dense reduced rows. Zero rows are dropped, pivots are
    normalized to 1 and cleared above and below.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = _echelon(rows)
    cols = sorted(pivots)
    # back-substitution, last pivot first, against the reduced rows below:
    # these are zero at each other's pivots, so one pass over the shared
    # pivot columns clears them all
    done = {}
    for c in reversed(cols):
        row = pivots[c]
        for d in [d for d in row if d in done]:
            _eliminate(row, done[d], d)
        done[c] = _primitive(row, c)
    red = []
    for c in cols:
        row = done[c]
        pc = row[c]
        if pc == 1:
            dense = [0] * ncols
            for j, x in row.items():
                dense[j] = x
        else:
            dense = [Fraction(0)] * ncols
            for j, x in row.items():
                dense[j] = Fraction(x, pc)
        red.append(dense)
    return red, cols


def nullspace(rows, ncols):
    """Basis of {x : A x = 0}, one vector per free column of the RREF.

    The basis is deterministic: free columns in increasing order, the free
    coordinate set to 1.
    """
    red, pivots = rref(rows, ncols)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[free]
        basis.append(v)
    return basis


class Echelon:
    """Streaming row-space echelon over Q; `pivots`: leading column -> integer
    row {column: int}.

    A row added here is first scaled to its primitive integer form (content 1,
    positive leading entry), which is the same for every nonzero scalar
    multiple of it.  `seen` holds the primitive forms of every row added so
    far, and a row whose form is in it (or a zero row) is skipped before any
    elimination: it lies in the span already, so the pivots, the rank and
    the nullspace are those of the stream without it.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}
        self.seen = set()

    def add(self, row):
        """Reduce `row` and absorb it. Returns True if it increased the rank."""
        row = _integer_row(row)
        if not row:
            return False
        row = _primitive(row, min(row))
        key = frozenset(row.items())
        if key in self.seen:
            return False
        self.seen.add(key)
        return _absorb(self.pivots, row)

    @property
    def rank(self):
        return len(self.pivots)

    def rows(self):
        """The stored integer rows {column: int}, in leading column order."""
        return [self.pivots[c] for c in sorted(self.pivots)]

    def nullspace(self):
        return nullspace(self.rows(), self.ncols)


def spans_equal(rows_a, rows_b, ncols):
    """Whether two row lists span one space: the reduced echelon form is
    unique, and its int and Fraction entries compare by value."""
    return rref(rows_a, ncols)[0] == rref(rows_b, ncols)[0]

