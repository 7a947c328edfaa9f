"""linalg against a plain Gauss-Jordan elimination written here, on seeded
random matrices: int and Fraction entries, rank-deficient and full-rank
cases, zero rows and empty input."""

import random
from fractions import Fraction

import pytest

from cblocks import linalg


def gauss_jordan(rows, p=None):
    """Reduced row echelon form over Q (or over Z/p): (rows, pivot columns)."""
    if p:
        mat = [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p
                for x in r] for r in rows]
    else:
        mat = [[Fraction(x) for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    out, pivots = [], []
    for c in range(ncols):
        pivot = next((r for r in mat if r[c]), None)
        if pivot is None:
            continue
        mat.remove(pivot)
        inv = pow(pivot[c], -1, p) if p else 1 / pivot[c]
        pivot = [x * inv % p if p else x * inv for x in pivot]

        def clear(r):
            f = r[c]
            return [(a - f * b) % p if p else a - f * b for a, b in zip(r, pivot)]

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


def mat_vec(rows, v):
    return [sum(Fraction(a) * b for a, b in zip(r, v)) for r in rows]


@pytest.mark.parametrize("rows,ncols", CASES)
def test_rref_rank_nullspace(rows, ncols):
    ref, ref_pivots = gauss_jordan(rows)
    red, pivots = linalg.rref(rows)
    assert pivots == ref_pivots
    assert red == ref
    assert linalg.rank(rows) == len(ref)
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


@pytest.mark.parametrize("rows,ncols", CASES)
def test_spans(rows, ncols):
    rng = random.Random(len(rows) * 31 + ncols)
    ref = gauss_jordan(rows)[0]

    def combination():
        coeffs = [rng.randint(-3, 3) for _ in rows]
        return [sum((c * r[j] for c, r in zip(coeffs, rows)), 0) for j in range(ncols)]

    assert linalg.spans_equal(rows, list(reversed(rows)) + [combination()], ncols)
    assert linalg.span_contains(rows, combination(), ncols)
    outside = [random_entry(rng, True) for _ in range(ncols)]
    grows = len(gauss_jordan(rows + [outside])[0]) > len(ref)
    assert linalg.span_contains(rows, outside, ncols) is not grows
    assert linalg.spans_equal(rows, rows + [outside], ncols) is not grows


@pytest.mark.parametrize("p", [2, 7, 101, linalg.MOD_PRIME])
def test_rank_mod_p(p):
    for rows, ncols in CASES:
        if any(Fraction(x).denominator % p == 0 for r in rows for x in r):
            continue
        rank_p = linalg.rank_mod_p(iter(rows), ncols, p)
        assert rank_p == len(gauss_jordan(rows, p)[0])
        assert rank_p <= linalg.rank(rows)


def test_rank_mod_p_rejects_denominator_divisible_by_p():
    with pytest.raises(ArithmeticError):
        linalg.rank_mod_p(iter([[1, 0], [Fraction(1, 14), 1]]), 2, 7)


def test_rank_mod_p_stops_at_full_rank():
    pulled = []

    def stream():
        for row in ([1, 2], [2, 4], [0, 3]):
            pulled.append(row)
            yield row
        raise AssertionError("read past full column rank")

    assert linalg.rank_mod_p(stream(), 2) == 2
    assert len(pulled) == 3


@pytest.mark.parametrize("rows,ncols", CASES[:20])
def test_same_rows_same_output(rows, ncols):
    def outputs():
        ech = linalg.Echelon(ncols)
        for row in rows:
            ech.add(row)
        return repr((linalg.rref(rows), linalg.nullspace(rows, ncols),
                     ech.rows(), ech.nullspace(),
                     linalg.row_space_canonical(rows, ncols),
                     linalg.rank_mod_p(iter(rows), ncols)))

    assert outputs() == outputs()
