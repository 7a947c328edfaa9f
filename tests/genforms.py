"""Seeded generators of random log forms for the residue property suites, the
per-marked-partition reference for the chains of a colored class, and the
per-chain reference for the sums of chains."""

from fractions import Fraction
from itertools import permutations

from cblocks.logforms import MarkedPartition, enumerate_marked_partitions, omega_basis_form
from cblocks.ratfun import RationalForm, SparsePoly, demote, form_sum

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


def class_partitions(cls, beta):
    """The marked partitions whose chains spell the colored class `cls` under
    the coloring beta, sorted by pis: chain j runs through the permutations
    of the still free indices whose colors spell word j, in the
    lexicographic order of itertools.  The reference that the class forms
    of logforms.class_chains are checked against, one partition at a time.
    """
    out = []
    _spell(tuple(range(1, len(beta) + 1)), cls, beta, (), out)
    return out


def _spell(free, words, beta, pis, out):
    if not words:
        out.append(MarkedPartition(pis))
        return
    for chain in permutations(free, len(words[0])):
        if tuple(beta[a - 1] for a in chain) == words[0]:
            rest = tuple(a for a in free if a not in chain)
            _spell(rest, words[1:], beta, pis + (chain,), out)


def per_chain_sum(chains, nvars, variables, points):
    """The per-chain route to ratfun.chain_sum, kept as its reference: each
    (c, denom) pair becomes its own constant form c/denom, and form_sum adds
    the forms."""
    return form_sum([RationalForm(nvars, variables, SparsePoly.const(nvars, demote(c)),
                                  denom, points) for c, denom in chains if c],
                    nvars, variables, points)
