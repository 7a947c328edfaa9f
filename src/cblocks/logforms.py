"""Marked-partition bases of top-degree log forms and the Schechtman-Varchenko map.

A marked partition distributes the variable indices [M] into N injective
ordered chains, one per marked point; its basis form is the product of chain
denominators 1/((t_{pi(1)}-t_{pi(2)})...(t_{pi(k)}-z_j)) against the ascending
wedge.  Grouping chains by their color words gives the symmetrized basis,
which the SV map matches with the weight-zero dual of the free tensor space.

One generator, `class_chains`, gives a class form's chain denominators
straight from its class: each word's first run is a set of indices whose
orderings sum in closed form, and only the rest is permuted; the symmetrized
basis, the SV map and the admissibility engine all sum these chains.  Every
form here is such a sum, handed to `ratfun.chain_sum` as (constant, chain
denominator) pairs; this module builds no form itself.
`expand_in_basis` reads coefficients back by residue descent: from point j
it takes the residue at each t_a with a pole along t_a = z_j, or moves on to
point j+1; a path that uses every variable spells one marked partition and
ends in its coefficient.  The descent runs on raw (terms, denominator,
scalar) triples from `ratfun._residue` and builds no form: it reduces
only a factor that a residue raised to order 2, so integral terms stay ints.
The reconstruction from the coefficients sums them in the same closed form
(`_collapse_runs`): the orderings of a run merge into one chain where they
carry one coefficient, so a class form is rebuilt from its class_chains.
It is compared with the form as reduced (denominator, numerator terms)
pairs, which are unique.
`enumerate_marked_partitions` cuts each permutation of 1..M into chains at
the boundaries of each composition kvec.  Every form function refuses
coincident marked points.
"""

from fractions import Fraction
from itertools import accumulate, combinations, permutations, product

from .ratfun import (ResidueError, _exact, _poly, _residue, canonical_tt, chain_sum, demote,
                     divide_out)
from . import repspace


class MarkedPartition:
    """(pi_vec, k_vec): N disjoint injective chains covering [M]."""

    __slots__ = ("kvec", "pis")

    def __init__(self, pis):
        self.pis = tuple(map(tuple, pis))
        self.kvec = tuple(map(len, self.pis))
        seen = sorted(a for c in self.pis for a in c)
        if seen != list(range(1, len(seen) + 1)):
            if len(set(seen)) != len(seen):
                raise ValueError("chains must be disjoint")
            raise ValueError("chains must cover 1..M")

    @classmethod
    def _unchecked(cls, pis, kvec):
        """A marked partition from chains that are valid by construction."""
        mp = object.__new__(cls)
        mp.pis = pis
        mp.kvec = kvec
        return mp

    def __eq__(self, other):
        return self.pis == other.pis

    def __hash__(self):
        return hash(self.pis)

    def __lt__(self, other):
        return (self.kvec, self.pis) < (other.kvec, other.pis)

    def __repr__(self):
        return f"MarkedPartition({self.pis})"


def enumerate_marked_partitions(M, N):
    """All marked partitions of [M] into N parts, sorted by (kvec, pis).

    Count: M! * C(M+N-1, N-1).  The compositions kvec are the gaps between
    N-1 bars among M+N-1 slots, and bars in lexicographic order give them in
    lexicographic order.  The permutations of 1..M, listed once in the
    lexicographic order of itertools, are cut into chains of the lengths of
    each kvec; permutations cut at fixed boundaries keep their lexicographic
    order, so the chains of one kvec come sorted.
    """
    if M < 0 or N < 1:
        raise ValueError("need M >= 0, N >= 1")
    out = []
    perms = list(permutations(range(1, M + 1)))
    for bars in combinations(range(M + N - 1), N - 1):
        kvec = tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (M + N - 1,)))
        cuts = [slice(s, e) for s, e in zip(accumulate(kvec, initial=0), accumulate(kvec))]
        for perm in perms:
            out.append(MarkedPartition._unchecked(tuple(map(perm.__getitem__, cuts)), kvec))
    return out


def _check_distinct(points):
    """Refuse two marked points of one exact value, however each is spelled."""
    exact = _exact(points)
    if len(set(exact)) != len(exact):
        raise ValueError("points must be pairwise distinct")


def chain_denominator(pis):
    """(sign, denom) of the chains: chain j = (p_1, ..., p_k) contributes
    (t_{p_1} - t_{p_2}) ... (t_{p_{k-1}} - t_{p_k}) (t_{p_k} - z_j).

    `denom` holds canonical factors; `sign` is the product of the signs that
    canonicalizing the (t_x - t_y) factors took out.
    """
    sign = 1
    denom = {}
    for j, chain in enumerate(pis, start=1):
        if not chain:
            continue
        for x, y in zip(chain, chain[1:]):
            f, s = canonical_tt(x, y)
            sign *= s
            denom[f] = denom.get(f, 0) + 1
        denom[("tz", chain[-1], j)] = denom.get(("tz", chain[-1], j), 0) + 1
    return sign, denom


def class_chains(cls, beta):
    """The class form theta(cls) under the coloring beta, as [(sign, denom)]
    whose constant forms sign/denom sum to it.

    theta(cls) sums the basis forms of the marked partitions that spell cls,
    so it holds every ordering of the first run of each word (its longest
    one-color prefix); for the run's indices x_1..x_r and y the next index of
    the chain (or z_j at its end)
        sum over sigma of 1/((x_s1 - x_s2) ... (x_sr - y)) = prod_a 1/(x_a - y).
    So a word takes its run as a combination of the free indices of its first
    color and permutes only the rest, which must spell the rest of the word:
    the run factors t_a - y (canonicalized, with their sign) times the
    chain_denominator of the rests.  Every variable keeps one outgoing
    factor.  Order: (run, rest) lexicographic per word, word 1 slowest.
    Raises ValueError on a class without beta's color content.
    """
    if sorted(c for word in cls for c in word) != sorted(beta):
        raise ValueError(f"class {cls} does not have the color content of {tuple(beta)}")
    out = []
    _extend_runs(tuple(range(1, len(beta) + 1)), cls, beta, (), out)
    return out


def _runs_denominator(runs):
    """(sign, denom) of one (run, rest) pair per chain: the factors t_a - y
    for a in run, y the first index of rest (z_j for an empty rest), times
    the chain_denominator of the rests."""
    sign, denom = chain_denominator(tuple(rest for _, rest in runs))
    for j, (run, rest) in enumerate(runs, start=1):
        for a in run:
            f, s = canonical_tt(a, rest[0]) if rest else (("tz", a, j), 1)
            sign *= s
            denom[f] = 1
    return sign, denom


def _extend_runs(free, words, beta, runs, out):
    if not words:
        out.append(_runs_denominator(runs))
        return
    word = words[0]
    r = next((i for i, c in enumerate(word) if c != word[0]), len(word))
    # word[:1] is empty for an empty word, whose run is empty too
    for run in combinations([a for a in free if beta[a - 1] in word[:1]], r):
        left = [a for a in free if a not in run]
        for rest in permutations(left, len(word) - r):
            if all(beta[a - 1] == c for a, c in zip(rest, word[r:])):
                _extend_runs(tuple(a for a in left if a not in rest), words[1:], beta,
                             runs + ((run, rest),), out)


def omega_basis_form(mp, points):
    """The basis log form of a marked partition, against the ascending wedge."""
    if len(points) != len(mp.pis):
        raise ValueError("need one point per part")
    _check_distinct(points)
    M = sum(mp.kvec)
    return chain_sum([chain_denominator(mp.pis)], M, tuple(range(1, M + 1)), points)


def class_of(mp, beta):
    """The colored class (tensor monomial) of a marked partition under beta."""
    return tuple(tuple(beta[a - 1] for a in chain) for chain in mp.pis)


def classes_for(beta, N):
    """Sorted colored classes with beta's color content: the
    `repspace.cut_orderings` of its colors, which may be any integers."""
    return repspace.cut_orderings(beta, N)


def symmetrized_basis(beta, N, points):
    """Class forms theta(delta,k) = sum of compatible marked-partition forms."""
    if len(points) != N:
        raise ValueError("need one point per part")
    _check_distinct(points)
    M = len(beta)
    return [(cls, chain_sum(class_chains(cls, beta), M, tuple(range(1, M + 1)), points))
            for cls in classes_for(beta, N)]


def sv_map(psi, beta, points):
    """The form sum_{(pi,k)} <Psi|w(pi,k)> Omega(pi,k).

    Sends the dual of a basis monomial to its class form; linear in Psi.
    Only the classes where Psi is nonzero are generated; a class whose color
    content is not beta's raises ValueError.
    """
    _check_distinct(points)
    M = len(beta)
    terms = []
    for cls, c in sorted(psi.coeffs.items()):
        chains = class_chains(cls, beta)
        if len(points) != len(cls):
            raise ValueError("need one point per part")
        terms += [(c * sign, denom) for sign, denom in chains]
    return chain_sum(terms, M, tuple(range(1, M + 1)), points)


def _descend(terms, denom, scalar, variables, j, space, done, chain, out):
    """Residue descent from point j on scalar * N/D, N given by its terms on
    the space (nvars, points): record (pis, constant) for every path of
    nonzero point residues that uses every variable.

    The descent is lazy: each residue is `ratfun._residue` at a point, whose
    scalar * N'/D' is not reduced.  The value of a residue does not depend
    on reduction; only the pole orders read off D do, and a factor of D that
    divides N merely looks like a pole:
    - along a factor t_a - z_j of order 1, N' = N|_{t_a := z_j} over the
      rest of D is the residue of the reduced form as well; when the factor
      divides N, N' = 0, which is the true residue where there is no pole,
      and the path ends;
    - the input has simple poles, so an order above 1 arises only where the
      residue turned t_a - t_y into a second t_y - z_j; that factor alone is
      divided out of N' while it divides N' (`ratfun.divide_out`), which
      leaves its true order, and an order still above 1 raises
      ResidueError, as the residue along that pole would.
    """
    nvars, points = space
    if not variables:
        c = terms.get((0,) * nvars, 0)
        if c:
            out.append((done + (chain,) + ((),) * (len(points) - j), scalar * c))
        return
    for a in variables:
        pole = ("tz", a, j)
        if pole not in denom:
            continue
        rterms, rdenom, s = _residue(terms, denom, pole, points)
        if not rterms:
            continue
        for f, m in rdenom.items():
            if m > 1:
                num, rdenom[f] = divide_out(_poly(nvars, rterms), f, m, points, floor=1)
                if rdenom[f] > 1:
                    raise ResidueError(f"pole of order {rdenom[f]} along {f}")
                rterms = num.terms
        _descend(rterms, rdenom, scalar * s, tuple(v for v in variables if v != a),
                 j, space, done, (a,) + chain, out)
    if j < len(points):
        _descend(terms, denom, scalar, variables, j + 1, space, done + (chain,), (), out)


def _collapse_runs(coeffs):
    """{runs: c} over one (run, rest) pair per chain, as in `_extend_runs`,
    whose chains c * _runs_denominator(runs) sum to the chains of `coeffs`.

    Chain (p_1, ..., p_k) starts as ((p_1,), (p_2, ..., p_k)).  The terms
    are grouped by the grown pair (T, R) = (run + {rest[0]}, rest[1:]) of
    chain j; a group holding one term (T - x, (x,) + R) per x in T, all
    with one coefficient, merges into the grown term, by
        sum_{x in T} prod_{a in T - x} 1/(t_a - t_x) * 1/(t_x - y)
            = prod_{a in T} 1/(t_a - y),
    y = t_{R[0]}, or z_j for an empty R.  Proof: as a function of y the
    right side vanishes at infinity and has a simple pole at each y = t_x,
    with principal part prod_{a in T - x} 1/(t_a - t_x) * 1/(t_x - y),
    the x term of the left side; so right minus left is a polynomial in y
    vanishing at infinity, that is 0.  The factors of R and of the other
    chains are common to the group, so each merge keeps the sum exactly.
    Chain j is grouped again until none of its groups merges.
    """
    terms = {tuple((chain[:1], chain[1:]) for chain in mp.pis): c
             for mp, c in coeffs.items()}
    for j in range(len(next(iter(terms), ()))):
        merged = True
        while merged:
            groups = {}
            for runs in terms:
                run, rest = runs[j]
                if rest:
                    grown = (tuple(sorted(run + rest[:1])), rest[1:])
                    groups.setdefault(runs[:j] + (grown,) + runs[j + 1:], []).append(runs)
            merged = False
            for key, members in groups.items():
                c = terms[members[0]]
                if (len(members) == len(key[j][0])
                        and all(terms[runs] == c for runs in members)):
                    for runs in members:
                        del terms[runs]
                    terms[key] = c
                    merged = True
    return terms


def expand_in_basis(form, points):
    """Coefficients of a top log form over the marked-partition basis.

    Extraction by residue descent at the chain tails (`_descend`): chain j of
    a path's partition is its point-j steps in reverse.  Under the residue
    sign convention a basis form descends to 1 along its own path, so the
    constant at the end of a path is the coefficient.  The reconstruction
    sums the coefficients' run-collapsed chains (`_collapse_runs`), which
    is the sum over the partitions exactly, and is compared with the form as
    reduced (denominator, numerator terms) pairs, which are unique, so
    nothing is subtracted.
    Raises ValueError when `points` are not the form's points or not
    distinct, and when the reconstruction does not reproduce the form
    (outside the span).
    """
    M = len(form.variables)
    if form.variables != tuple(range(1, M + 1)):
        raise ValueError("expected a top form in t_1..t_M")
    if _exact(points) != form.points:
        raise ValueError("points must be the form's marked points")
    _check_distinct(points)
    if any(m > 1 for m in form.denominator.values()):
        raise ValueError("simple poles required")
    found = []
    _descend(form.numerator.terms, form.denominator, 1, form.variables, 1,
             (form.nvars, tuple(map(demote, form.points))), (), (), found)
    coeffs = {}
    for kvec, pis, c in sorted((tuple(map(len, pis)), pis, c) for pis, c in found):
        coeffs[MarkedPartition._unchecked(pis, kvec)] = Fraction(c)
    recon = chain_sum([(c * sign, denom) for runs, c in _collapse_runs(coeffs).items()
                       for sign, denom in [_runs_denominator(runs)]],
                      form.nvars, form.variables, points)
    if recon != form:
        raise ValueError("form is outside the marked-partition span")
    return coeffs


def correlation_function(psi, operators, base, points, nvars=None):
    """General correlator per the partition/permutation expansion.

    `operators` maps t-index a -> free-algebra element X_a; `base` is the
    tensor monomial |v_1> x ... x |v_N>.  The result is the rational form
    sum over partitions of the index set into the N factors and orderings
    inside each factor, with the chain denominator per ordered block and the
    operator words prepended to the factor words.
    """
    _check_distinct(points)
    idxs = sorted(operators)
    N = len(points)
    if nvars is None:
        nvars = max(idxs) if idxs else 0
    terms = []
    for assign in product(range(N), repeat=len(idxs)):
        blocks = [[a for a, g in zip(idxs, assign) if g == j] for j in range(N)]
        for perms in product(*(permutations(b) for b in blocks)):
            vec = {tuple(base): Fraction(1)}
            for j, chain in enumerate(perms):
                if not chain:
                    continue
                word_elem = {(): Fraction(1)}
                for a in chain:
                    word_elem = repspace.free_mul(word_elem, operators[a])
                vec = repspace.apply_free_element(vec, j, word_elem)
                if not vec:
                    break
            if not vec:
                continue
            scalar = psi.pair(vec)
            if not scalar:
                continue
            sign, denom = chain_denominator(perms)
            terms.append((sign * scalar, denom))
    return chain_sum(terms, nvars, tuple(idxs), points)
