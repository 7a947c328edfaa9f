"""Marked-partition bases of top-degree log forms and the Schechtman-Varchenko map.

A marked partition distributes the variable indices [M] into N injective
ordered chains, one per marked point; its basis form is the product of chain
denominators 1/((t_{pi(1)}-t_{pi(2)})...(t_{pi(k)}-z_j)) against the ascending
wedge.  Grouping chains by their color words gives the symmetrized basis,
which the SV map matches with the weight-zero dual of the free tensor space.
"""

from fractions import Fraction
from itertools import permutations, product

from .ratfun import RationalForm, SparsePoly, canonical_tt, demote, form_sum
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

    @property
    def size(self):
        return sum(self.kvec)

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

    Count: M! * C(M+N-1, N-1).  The chain lengths run through the
    compositions of M in lexicographic order, and each chain through the
    permutations of the indices still free, which itertools yields in
    lexicographic order; so the list comes out sorted.
    """
    if M < 0 or N < 1:
        raise ValueError("need M >= 0, N >= 1")
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


def omega_basis_form(mp, points):
    """The basis log form of a marked partition, against the ascending wedge."""
    M = mp.size
    if len(points) != len(mp.pis):
        raise ValueError("need one point per part")
    sign, denom = chain_denominator(mp.pis)
    # a constant numerator is already reduced
    return RationalForm(M, tuple(range(1, M + 1)), SparsePoly.const(M, sign),
                        denom, points, reduce=False)


def class_of(mp, beta):
    """The colored class (tensor monomial) of a marked partition under beta."""
    return tuple(tuple(beta[a - 1] for a in chain) for chain in mp.pis)


def classes_for(beta, N):
    """Sorted colored classes with color content matching beta."""
    groups = {}
    for mp in enumerate_marked_partitions(len(beta), N):
        groups.setdefault(class_of(mp, beta), []).append(mp)
    return groups


def symmetrized_basis(beta, N, points):
    """Class forms theta(delta,k) = sum of compatible marked-partition forms."""
    M = len(beta)
    variables = tuple(range(1, M + 1))
    return [(cls, form_sum([omega_basis_form(mp, points) for mp in mps],
                           M, variables, points))
            for cls, mps in sorted(classes_for(beta, N).items())]


def sv_map(psi, beta, points):
    """The form sum_{(pi,k)} <Psi|w(pi,k)> Omega(pi,k).

    Sends the dual of a basis monomial to its class form; linear in Psi.
    """
    M = len(beta)
    N = len(points)
    terms = []
    for cls, mps in sorted(classes_for(beta, N).items()):
        c = psi.coeffs.get(cls)
        if not c:
            continue
        terms +=[omega_basis_form(mp, points).scale(c) for mp in mps]
    return form_sum(terms, M, tuple(range(1, M + 1)), points)


def _peel_sequence(mp):
    seq = []
    for j, chain in enumerate(mp.pis, start=1):
        for a in reversed(chain):
            seq.append((a, j))
    return seq


def _peel(form, seq, trie):
    """Constant left after the point residues of `seq`, taken in order.

    `trie` maps a peel step to (residue, subtrie); it memoizes the residues of
    `form` along shared prefixes of the sequences peeled from it.
    """
    cur = form
    node = trie
    for step in seq:
        if cur.is_zero():
            return Fraction(0)
        hit = node.get(step)
        if hit is None:
            hit = node[step] = (cur.residue_at_point(*step), {})
        cur, node = hit
    if cur.is_zero():
        return Fraction(0)
    return cur.numerator.terms.get((0,) * cur.nvars, Fraction(0))


def expand_in_basis(form, points):
    """Coefficients of a top log form over the marked-partition basis.

    Extraction by iterated residues at the chain tails.  Under the residue
    sign convention a basis form peels to 1 along its own sequence, so the
    peeled constant is the coefficient; raises ValueError when the
    reconstruction does not reproduce the form (outside the span).
    """
    M = len(form.variables)
    if form.variables != tuple(range(1, M + 1)):
        raise ValueError("expected a top form in t_1..t_M")
    if any(m > 1 for m in form.denominator.values()):
        raise ValueError("simple poles required")
    N = len(points)
    coeffs = {}
    terms = []
    trie = {}
    for mp in enumerate_marked_partitions(M, N):
        c = _peel(form, _peel_sequence(mp), trie)
        if not c:
            continue
        coeffs[mp] = Fraction(c)
        terms.append(omega_basis_form(mp, points).scale(c))
    recon = form_sum(terms, form.nvars, form.variables, points)
    if not (form - recon).is_zero():
        raise ValueError("form is outside the marked-partition span")
    return coeffs


def form_permute(form, perm):
    """Relabel t_a -> t_perm[a] and reorder the wedge, with the permutation sign.

    `perm` is a dict or list mapping 1..M -> 1..M (active variables only).
    """
    mapping = {a: perm.get(a, a) for a in form.variables} if isinstance(perm, dict) \
        else {a: perm[a - 1] for a in form.variables}
    num = SparsePoly(form.nvars)
    for e, c in form.numerator.terms.items():
        ee = [0] * form.nvars
        for i, k in enumerate(e):
            if k:
                ee[mapping.get(i + 1, i + 1) - 1] = k
        key = tuple(ee)
        num.terms[key] = num.terms.get(key, 0) + c
    sign = 1
    denom = {}
    for f, m in form.denominator.items():
        if f[0] == "tt":
            nf, s = canonical_tt(mapping.get(f[1], f[1]), mapping.get(f[2], f[2]))
            if s < 0 and m % 2:
                sign = -sign
            denom[nf] = denom.get(nf, 0) + m
        else:
            nf = ("tz", mapping.get(f[1], f[1]), f[2])
            denom[nf] = denom.get(nf, 0) + m
    # wedge reorder sign: parity of the permutation restricted to the active set
    items = [mapping.get(a, a) for a in form.variables]
    inv = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                inv += 1
    if inv % 2:
        sign = -sign
    return RationalForm(
        form.nvars, tuple(sorted(items)), num.scale(sign), denom, form.points
    )


def correlation_function(psi, operators, base, points, nvars=None):
    """General correlator per the partition/permutation expansion.

    `operators` maps t-index a -> free-algebra element X_a; `base` is the
    tensor monomial |v_1> x ... x |v_N>.  The result is the rational form
    sum over partitions of the index set into the N factors and orderings
    inside each factor, with the chain denominator per ordered block and the
    operator words prepended to the factor words.
    """
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
            scalar = sum(
                (psi.coeffs[m] * c for m, c in vec.items() if m in psi.coeffs),
                Fraction(0),
            )
            if not scalar:
                continue
            sign, denom = chain_denominator(perms)
            terms.append(RationalForm(
                nvars, tuple(idxs), SparsePoly.const(nvars, demote(sign * scalar)),
                denom, points, reduce=False))
    return form_sum(terms, nvars, tuple(idxs), points)
