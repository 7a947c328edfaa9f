"""Marked-partition bases of top-degree log forms and the Schechtman-Varchenko map.

A marked partition distributes the variable indices [M] into N injective
ordered chains, one per marked point; its basis form is the product of chain
denominators 1/((t_{pi(1)}-t_{pi(2)})...(t_{pi(k)}-z_j)) against the ascending
wedge.  Grouping chains by their color words gives the symmetrized basis,
which the SV map matches with the weight-zero dual of the free tensor space.
"""

from fractions import Fraction
from itertools import permutations, product

from .ratfun import RationalForm, SparsePoly, canonical_tt
from . import repspace


class MarkedPartition:
    """(pi_vec, k_vec): N disjoint injective chains covering [M]."""

    __slots__ = ("kvec", "pis")

    def __init__(self, pis):
        self.pis = tuple(tuple(c) for c in pis)
        self.kvec = tuple(len(c) for c in self.pis)
        seen = [a for c in self.pis for a in c]
        if len(set(seen)) != len(seen):
            raise ValueError("chains must be disjoint")
        if seen and sorted(seen) != list(range(1, len(seen) + 1)):
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
    """All marked partitions of [M] into N parts, deterministic order.

    Count: M! * C(M+N-1, N-1).
    """
    if M < 0 or N < 1:
        raise ValueError("need M >= 0, N >= 1")
    out = []
    for assign in product(range(N), repeat=M):
        blocks = [[a + 1 for a in range(M) if assign[a] == j] for j in range(N)]
        for perms in product(*(permutations(b) for b in blocks)):
            out.append(MarkedPartition(perms))
    out.sort()
    return out


def omega_basis_form(mp, points):
    """The basis log form of a marked partition, against the ascending wedge."""
    M = mp.size
    if len(points) != len(mp.pis):
        raise ValueError("need one point per part")
    sign = 1
    denom = {}
    for j, chain in enumerate(mp.pis, start=1):
        if not chain:
            continue
        for x, y in zip(chain, chain[1:]):
            f, s = canonical_tt(x, y)
            sign *= s
            denom[f] = denom.get(f, 0) + 1
        denom[("tz", chain[-1], j)] = denom.get(("tz", chain[-1], j), 0) + 1
    return RationalForm(
        M, tuple(range(1, M + 1)), SparsePoly.const(M, sign), denom, points
    )


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
    out = []
    for cls, mps in sorted(classes_for(beta, N).items()):
        theta = None
        for mp in mps:
            f = omega_basis_form(mp, points)
            theta = f if theta is None else theta + f
        out.append((cls, theta))
    return out


def sv_map(psi, beta, points):
    """The form sum_{(pi,k)} <Psi|w(pi,k)> Omega(pi,k).

    Sends the dual of a basis monomial to its class form; linear in Psi.
    """
    M = len(beta)
    N = len(points)
    total = RationalForm.zero(M, tuple(range(1, M + 1)), points)
    for cls, mps in sorted(classes_for(beta, N).items()):
        c = psi.coeffs.get(cls)
        if not c:
            continue
        for mp in mps:
            total = total + omega_basis_form(mp, points).scale(c)
    return total


def _peel_sequence(mp):
    seq = []
    for j, chain in enumerate(mp.pis, start=1):
        for a in reversed(chain):
            seq.append((a, j))
    return seq


def _peel(form, seq):
    cur = form
    for a, j in seq:
        if cur.is_zero():
            return Fraction(0)
        cur = cur.residue_at_point(a, j)
    if cur.is_zero():
        return Fraction(0)
    return cur.numerator.terms.get((0,) * cur.nvars, Fraction(0))


def expand_in_basis(form, points):
    """Coefficients of a top log form over the marked-partition basis.

    Extraction by iterated residues at the chain tails; raises ValueError when
    the reconstruction does not reproduce the form (outside the span).
    """
    M = len(form.variables)
    if form.variables != tuple(range(1, M + 1)):
        raise ValueError("expected a top form in t_1..t_M")
    if any(m > 1 for m in form.denominator.values()):
        raise ValueError("simple poles required")
    N = len(points)
    coeffs = {}
    recon = RationalForm.zero(form.nvars, form.variables, points)
    for mp in enumerate_marked_partitions(M, N):
        seq = _peel_sequence(mp)
        c = _peel(form, seq)
        if not c:
            continue
        base = omega_basis_form(mp, points)
        unit = _peel(base, seq)
        coeff = Fraction(c) / unit
        coeffs[mp] = coeff
        recon = recon + base.scale(coeff)
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
    total = RationalForm.zero(nvars, tuple(idxs), points)
    for assign in product(range(N), repeat=len(idxs)):
        blocks = [[a for a, g in zip(idxs, assign) if g == j] for j in range(N)]
        for perms in product(*(permutations(b) for b in blocks)):
            sign = 1
            denom = {}
            vec = {tuple(base): Fraction(1)}
            ok = True
            for j, chain in enumerate(perms):
                if not chain:
                    continue
                for x, y in zip(chain, chain[1:]):
                    f, s = canonical_tt(x, y)
                    sign *= s
                    denom[f] = denom.get(f, 0) + 1
                denom[("tz", chain[-1], j + 1)] = denom.get(
                    ("tz", chain[-1], j + 1), 0) + 1
                word_elem = {(): Fraction(1)}
                for a in chain:
                    word_elem = repspace.free_mul(word_elem, operators[a])
                vec = repspace.apply_free_element(vec, j, word_elem)
                if not vec:
                    ok = False
                    break
            if not ok:
                continue
            scalar = sum(
                (psi.coeffs[m] * c for m, c in vec.items() if m in psi.coeffs),
                Fraction(0),
            )
            if not scalar:
                continue
            total = total + RationalForm(
                nvars, tuple(idxs), SparsePoly.const(nvars, sign * scalar),
                denom, points)
    return total
