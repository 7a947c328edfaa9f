"""Seeded generators of random log forms for the residue property suites, the
per-marked-partition reference for the chains of a colored class, the
per-chain reference for the sums of chains, coefficients for the run
collapse, and the references for the residue descent and the partition
enumeration of logforms."""

from fractions import Fraction
from itertools import permutations, product

from cblocks.logforms import (MarkedPartition, classes_for, enumerate_marked_partitions,
                              omega_basis_form)
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


def random_class_coefficients(rng, beta, N, nclasses=3):
    """Coefficients over the partitions of a few random classes of beta,
    one random coefficient per class, of which about one partition in six
    takes a coefficient of its own and one in six is dropped: a mix of runs
    that the run collapse of logforms.expand_in_basis merges and runs that
    it must leave as they are."""
    classes = classes_for(beta, N)
    out = {}
    for cls in rng.sample(classes, min(nclasses, len(classes))):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3))
        for mp in class_partitions(cls, beta):
            roll = rng.randrange(6)
            if roll:
                out[mp] = c * (1 + (roll == 1))
    return out


def per_chain_sum(chains, nvars, variables, points):
    """The per-chain route to ratfun.chain_sum, kept as its reference: each
    (c, denom) pair becomes its own constant form c/denom, and form_sum adds
    the forms."""
    return form_sum([RationalForm(nvars, variables, SparsePoly.const(nvars, demote(c)),
                                  denom, points) for c, denom in chains if c],
                    nvars, variables, points)


def nested_marked_partitions(M, N):
    """The nested route to logforms.enumerate_marked_partitions, kept as its
    reference: chain j runs through the permutations of the still free
    indices of length kvec[j], each partition validated on construction."""
    out = []
    for kvec in product(range(M + 1), repeat=N):
        if sum(kvec) == M:
            _extend_chains(tuple(range(1, M + 1)), kvec, (), out)
    return out


def _extend_chains(free, kvec, pis, out):
    if not kvec:
        out.append(MarkedPartition(pis))
        return
    for chain in permutations(free, kvec[0]):
        rest = tuple(a for a in free if a not in chain)
        _extend_chains(rest, kvec[1:], pis + (chain,), out)


def form_descent_expand(form, points):
    """The form-per-residue route to logforms.expand_in_basis, kept as its
    reference: every point residue is a reduced RationalForm, and the
    reconstruction is checked by subtracting it from the form."""
    M = len(form.variables)
    if form.variables != tuple(range(1, M + 1)):
        raise ValueError("expected a top form in t_1..t_M")
    if any(m > 1 for m in form.denominator.values()):
        raise ValueError("simple poles required")
    found = []
    _form_descend(form, 1, len(points), (), (), found)
    coeffs = dict(sorted((MarkedPartition(pis), Fraction(c)) for pis, c in found))
    recon = form_sum([omega_basis_form(mp, points).scale(c) for mp, c in coeffs.items()],
                     form.nvars, form.variables, points)
    if not (form - recon).is_zero():
        raise ValueError("form is outside the marked-partition span")
    return coeffs


def _form_descend(form, j, N, done, chain, out):
    if not form.variables:
        c = form.numerator.terms.get((0,) * form.nvars, 0)
        if c:
            out.append((done + (chain,) + ((),) * (N - j), c))
        return
    for a in form.variables:
        if ("tz", a, j) in form.denominator:
            _form_descend(form.residue_at_point(a, j), j, N, done, (a,) + chain, out)
    if j < N:
        _form_descend(form, j + 1, N, done + (chain,), (), out)
