"""linalg against a plain Gauss-Jordan elimination written here, on seeded
random matrices: int and Fraction entries, rank-deficient and full-rank
cases, zero rows and empty input, a wide sparse and a fill-in-heavy matrix;
rows given as lists and as {column: value} dicts agree exactly."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from cblocks import linalg
from paperchecks import span_contains


def gauss_jordan(rows):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    out, pivots = [], []
    for c in range(ncols):
        pivot = next((r for r in mat if r[c]), None)
        if pivot is None:
            continue
        mat.remove(pivot)
        pivot = [x / pivot[c] for x in pivot]

        def clear(r):
            f = r[c]
            if not f:
                return r
            return [a - f * b for a, b in zip(r, pivot)]

        mat = [clear(r) for r in mat]
        out = [clear(r) for r in out] + [pivot]
        pivots.append(c)
    return out, pivots


def random_entry(rng, fractions):
    if rng.random() < 0.4:
        return 0
    if fractions and rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-6, 6)


def random_matrix(rng, nrows, ncols, rank=None, fractions=False):
    """Random rows; with `rank`, combinations of `rank` random rows."""
    if rank is None:
        return [[random_entry(rng, fractions) for _ in range(ncols)]
                for _ in range(nrows)]
    gens = random_matrix(rng, rank, ncols, fractions=fractions)
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randint(-3, 3) for _ in gens]
        rows.append([sum((c * g[j] for c, g in zip(coeffs, gens)), 0)
                     for j in range(ncols)])
    return rows


def cases():
    rng = random.Random(20120514)
    out = [([], 0), ([], 3), ([[0, 0, 0]], 3), ([[0, 0], [0, 0]], 2),
           ([[1, 2, 3]], 3), ([[]], 0)]
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        fractions = rng.random() < 0.5
        rank = rng.choice([None, None, 0, 1, min(nrows, ncols) - 1])
        rows = random_matrix(rng, nrows, ncols, rank=rank, fractions=fractions)
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        out.append((rows, ncols))
    # square full-rank cases: identity plus a strictly upper triangle
    for n in (1, 3, 6):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if j > i
                 else int(i == j) for j in range(n)] for i in range(n)]
        rng.shuffle(rows)
        out.append((rows, n))
    return out


CASES = cases()


def wide_sparse_case():
    """About 300 columns at about 1% density, rank-deficient: 2-4 nonzeros per
    row, and some rows are combinations of earlier ones."""
    rng = random.Random(31415)
    ncols = 300
    rows = []
    for _ in range(120):
        row = [0] * ncols
        for c in rng.sample(range(ncols), rng.randint(2, 4)):
            row[c] = random_entry(rng, True) or 1
        rows.append(row)
    for _ in range(12):
        a, b = rng.sample(rows, 2)
        rows.insert(rng.randrange(len(rows)),
                    [x - 2 * y for x, y in zip(a, b)])
    return rows, ncols


def fill_in_case():
    """An arrowhead read backwards: a dense first row, then rows that share
    its leading column, so every elimination fills the whole row in."""
    rng = random.Random(2718)
    n = 40
    rows = [[random_entry(rng, True) or 1 for _ in range(n)]]
    for i in range(1, n - 5):
        row = [0] * n
        row[0] = rng.randint(1, 5)
        row[i] = Fraction(rng.randint(1, 7), rng.randint(1, 4))
        rows.append(row)
    for _ in range(5):
        a, b = rng.sample(rows[1:], 2)
        rows.append([x + 3 * y for x, y in zip(a, b)])
    return rows, n


BIG_CASES = [wide_sparse_case(), fill_in_case()]


def as_dicts(rows):
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


def mat_vec(rows, v):
    return [sum(Fraction(a) * b for a, b in zip(r, v) if a) for r in rows]


@pytest.mark.parametrize("rows,ncols", CASES)
def test_rref_rank_nullspace(rows, ncols):
    ref, ref_pivots = gauss_jordan(rows)
    red, pivots = linalg.rref(rows)
    assert pivots == ref_pivots
    assert red == ref
    assert len(linalg._echelon(rows)) == len(ref)
    basis = linalg.nullspace(rows, ncols)
    assert len(basis) == ncols - len(ref)
    for v in basis:
        assert all(x == 0 for x in mat_vec(rows, v))
    free = [c for c in range(ncols) if c not in ref_pivots]
    for v, c in zip(basis, free):
        assert v[c] == 1 and all(v[d] == 0 for d in free if d != c)


@pytest.mark.parametrize("rows,ncols", CASES)
def test_echelon_stream(rows, ncols):
    ech = linalg.Echelon(ncols)
    for i, row in enumerate(rows):
        grew = len(gauss_jordan(rows[: i + 1])[0]) > len(gauss_jordan(rows[:i])[0])
        assert ech.add(row) is grew
    assert ech.rank == len(gauss_jordan(rows)[0])
    assert ech.nullspace() == linalg.nullspace(rows, ncols)


def primitive_form(row):
    """The row scaled to integers of content 1 with a positive leading entry,
    computed over Q here: equal for the nonzero scalar multiples of a row."""
    row = [Fraction(x) for x in row]
    lead = next((x for x in row if x), None)
    if lead is None:
        return None
    row = [x / lead for x in row]
    den = lcm(*(x.denominator for x in row))
    ints = [int(x * den) for x in row]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


@pytest.mark.parametrize("rows,ncols", CASES)
def test_echelon_skips_scalar_repeats(rows, ncols, monkeypatch):
    # each row followed by its negation, a 3/7 multiple and a zero row: every
    # copy is skipped before elimination, and the results are the plain
    # stream's; Fraction entries come in as they do from non-integral points
    reduced = []
    kernel = linalg._reduce

    def counted(row, pivots):
        reduced.append(row)
        return kernel(row, pivots)

    plain = linalg.Echelon(ncols)
    for row in rows:
        plain.add(row)
    monkeypatch.setattr(linalg, "_reduce", counted)
    ech = linalg.Echelon(ncols)
    for row in rows:
        ech.add(row)
        for copy in ([-x for x in row], [Fraction(3, 7) * x for x in row],
                     [0] * ncols):
            assert ech.add(copy) is False
    distinct = {primitive_form(row) for row in rows} - {None}
    assert len(reduced) == len(distinct) == len(ech.seen)
    assert ech.rank == plain.rank
    assert ech.rows() == plain.rows()
    assert ech.nullspace() == plain.nullspace() == linalg.nullspace(rows, ncols)


@pytest.mark.parametrize("rows,ncols", CASES)
def test_spans(rows, ncols):
    rng = random.Random(len(rows) * 31 + ncols)
    ref = gauss_jordan(rows)[0]

    def combination():
        coeffs = [rng.randint(-3, 3) for _ in rows]
        return [sum((c * r[j] for c, r in zip(coeffs, rows)), 0) for j in range(ncols)]

    assert linalg.spans_equal(rows, list(reversed(rows)) + [combination()], ncols)
    assert span_contains(rows, combination())
    outside = [random_entry(rng, True) for _ in range(ncols)]
    grows = len(gauss_jordan(rows + [outside])[0]) > len(ref)
    assert span_contains(rows, outside) is not grows
    assert linalg.spans_equal(rows, rows + [outside], ncols) is not grows


@pytest.mark.parametrize("rows,ncols", CASES[:20])
def test_same_rows_same_output(rows, ncols):
    def outputs():
        ech = linalg.Echelon(ncols)
        for row in rows:
            ech.add(row)
        return repr((linalg.rref(rows), linalg.nullspace(rows, ncols),
                     ech.rows(), ech.nullspace()))

    assert outputs() == outputs()


@pytest.mark.parametrize("rows,ncols", CASES + BIG_CASES)
def test_dict_rows_same_output_as_lists(rows, ncols):
    def outputs(rows):
        ech = linalg.Echelon(ncols)
        grew = [ech.add(row) for row in rows]
        vector = rows[-1] if rows else []
        return repr((linalg.rref(rows, ncols), len(linalg._echelon(rows)),
                     linalg.nullspace(rows, ncols), grew, ech.rows(),
                     ech.nullspace(), linalg.spans_equal(rows, rows[:1], ncols),
                     span_contains(rows[:-1], vector)))

    assert outputs(as_dicts(rows)) == outputs(rows)


@pytest.mark.parametrize("rows,ncols", BIG_CASES, ids=["wide-sparse", "fill-in"])
def test_big_cases_against_gauss_jordan(rows, ncols):
    ref, ref_pivots = gauss_jordan(rows)
    assert 0 < len(ref) < min(len(rows), ncols)  # rank-deficient, not trivial
    assert linalg.rref(as_dicts(rows), ncols) == (ref, ref_pivots)
    basis = linalg.nullspace(as_dicts(rows), ncols)
    assert len(basis) == ncols - len(ref)
    for v in basis:
        assert all(x == 0 for x in mat_vec(rows, v))
