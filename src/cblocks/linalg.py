"""Exact rational linear algebra by fraction-free integer elimination.

Rows are plain lists of numbers (int or Fraction mix freely).  One kernel does
all elimination, over Z or Z/p: each row is scaled to integers once and reduced
against the stored pivot rows by cross-multiplication; over Z it is then divided
by the gcd of its entries.  Fractions appear only in the back-substitution to
the reduced echelon form, which is unique, so echelon forms, ranks and
nullspace bases are exact and deterministic.
"""

from fractions import Fraction
from math import gcd, lcm


def _reduce(row, pivots, p=None):
    """Clear the integer `row` at every pivot column: the one elimination loop.

    Each stored row is zero at the pivot columns stored before it, so one pass
    in insertion order clears them all: row = pc*row - f*stored, mod p or not.
    """
    for c, stored in pivots.items():
        f = row[c]
        if f:
            if p:
                row = [(a - f * b) % p for a, b in zip(row, stored)]
            else:
                pc = stored[c]
                g = gcd(pc, f)
                pc, f = pc // g, f // g
                row = [pc * a - f * b for a, b in zip(row, stored)]
    return row


def _primitive(row, c, p=None):
    """`row` scaled to pivot 1 at column c mod p, or to content 1 over Z."""
    if p:
        inv = pow(row[c], -1, p)
        return [x * inv % p for x in row]
    g = gcd(*row) if row[c] > 0 else -gcd(*row)
    return row if g == 1 else [x // g for x in row]


def _absorb(pivots, raw, p=None):
    """Scale `raw` to integers (mod p), reduce it and, if it is independent,
    store it under its leftmost nonzero column.  True if it was stored."""
    den = lcm(*[x.denominator for x in raw])
    row = ([x.numerator for x in raw] if den == 1
           else [x.numerator * (den // x.denominator) for x in raw])
    if p:
        if den % p == 0:
            raise ArithmeticError("denominator divisible by modulus")
        row = [x % p for x in row]
    row = _reduce(row, pivots, p)
    if not any(row):
        return False
    c = next(j for j, x in enumerate(row) if x)
    pivots[c] = _primitive(row, c, p)
    return True


def _echelon(rows, p=None, ncols=None):
    pivots = {}  # integer pivot rows; the stream is not read past full rank
    for row in rows:
        _absorb(pivots, row, p)
        if len(pivots) == ncols:
            break
    return pivots


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns). Zero rows are dropped, pivots are
    normalized to 1 and cleared above and below.
    """
    pivots = _echelon(rows)
    cols = sorted(pivots)
    # back-substitution, last pivot first, against the reduced rows below
    done = {}
    for c in reversed(cols):
        done[c] = _primitive(_reduce(pivots[c], done), c)
    red = []
    for c in cols:
        row = done[c]
        red.append(row if row[c] == 1 else [Fraction(x, row[c]) for x in row])
    return red, cols


def rank(rows):
    return len(_echelon(rows))


def nullspace(rows, ncols):
    """Basis of {x : A x = 0}, one vector per free column of the RREF.

    The basis is deterministic: free columns in increasing order, the free
    coordinate set to 1.
    """
    red, pivots = rref(rows)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[free]
        basis.append(v)
    return basis


class Echelon:
    """Streaming row-space echelon over Q; `pivots`: column -> integer row."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}

    def add(self, row):
        """Reduce `row` and absorb it. Returns True if it increased the rank."""
        return _absorb(self.pivots, row)

    @property
    def rank(self):
        return len(self.pivots)

    def rows(self):
        """The stored integer echelon rows, in pivot column order."""
        return [self.pivots[c] for c in sorted(self.pivots)]

    def nullspace(self):
        return nullspace(self.rows(), self.ncols)


def row_space_canonical(rows, ncols):
    """RREF rows as tuples; equal spans give equal canonical forms."""
    if not rows:
        return ()
    red, _ = rref(rows)
    return tuple(tuple(Fraction(x) for x in r) for r in red)


def spans_equal(rows_a, rows_b, ncols):
    return row_space_canonical(rows_a, ncols) == row_space_canonical(rows_b, ncols)


def span_contains(rows, vector, ncols):
    """Whether `vector` lies in the row span of `rows`."""
    return not _absorb(_echelon(rows), vector)


MOD_PRIME = (1 << 31) - 1


def rank_mod_p(rows_iter, ncols, p=MOD_PRIME):
    """Rank of a rational matrix reduced mod p, consumed as a stream.

    Entries may be int or Fraction; a denominator divisible by p raises
    ArithmeticError.  The stream is not read past full column rank.  As
    rank_mod_p <= rank_Q, full column rank mod p certifies a zero nullspace.
    """
    return len(_echelon(rows_iter, p, ncols))
