"""Seeded generators of random log forms for the residue property suites."""

from fractions import Fraction

from cblocks.logforms import enumerate_marked_partitions, omega_basis_form
from cblocks.ratfun import form_sum

DEFAULT_POINTS = (0, 1, 3, 7)


def random_combination(rng, M, N, nterms=4):
    """Distinct random marked partitions of [M] into N parts, each with a
    nonzero rational coefficient: a dict marked partition -> coefficient."""
    mps = enumerate_marked_partitions(M, N)
    out = {}
    for mp in rng.sample(mps, min(nterms, len(mps))):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        out[mp] = c or Fraction(1)
    return out


def random_log_form(rng, M, N, points=None, nterms=4):
    """Random rational combination of marked-partition basis forms.

    `points` are exact rationals (ints or Fractions); by default the first N
    of 0, 1, 3, 7.
    """
    points = [Fraction(p) for p in (points or DEFAULT_POINTS[:N])]
    coeffs = random_combination(rng, M, N, nterms)
    return form_sum([omega_basis_form(mp, points).scale(c) for mp, c in coeffs.items()],
                    M, tuple(range(1, M + 1)), points)
