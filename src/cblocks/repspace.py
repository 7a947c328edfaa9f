"""Weight spaces of tensor products of free-negative-part Verma modules.

A tensor monomial is a tuple of N color words, word j representing
f'_{c_1} ... f'_{c_k} |lambda_j>, colors being 1-based simple-root indices.
The enveloping algebra of the free negative part is the free associative
algebra on the f'_i, so words with the same letters in different orders are
distinct basis elements.

The module computes the two parts of the kernel of M' -> L at weight zero
(the Serre insertions, and the Verma-kernel monomials whose factor word ends
in a highest-weight power f'_i^(1+<lambda_j,a_i^vee>)), the f action, and
the g-invariant functionals on the weight-zero space, all over exact
rationals.  The functionals are solved for over the monomials outside the
Verma kernel only, with the Serre and f_i rows.
"""

from fractions import Fraction
from math import comb

from . import linalg


def color_counts(rs, beta):
    counts = [0] * rs.rank
    for c in beta:
        if not 1 <= c <= rs.rank:
            raise ValueError(f"color {c} out of range")
        counts[c - 1] += 1
    return tuple(counts)


def weight_matches(rs, weights, beta):
    """Whether sum(lambda_i) equals the root-lattice content of beta."""
    counts = color_counts(rs, beta)
    total = [Fraction(0)] * rs.rank
    for lam in weights:
        for q, x in enumerate(rs.weight_to_root_basis(lam)):
            total[q] += x
    return all(total[q] == counts[q] for q in range(rs.rank))


def arrangements(counts):
    """Distinct words with the given color multiset, lexicographic order."""
    if all(c == 0 for c in counts):
        yield ()
        return
    for i, c in enumerate(counts):
        if c > 0:
            rest = list(counts)
            rest[i] -= 1
            for tail in arrangements(tuple(rest)):
                yield (i + 1,) + tail


def _sub_multisets(counts):
    if not counts:
        yield ()
        return
    head = counts[0]
    for tail in _sub_multisets(counts[1:]):
        for k in range(head + 1):
            yield (k,) + tail


def distributions(counts, nslots):
    """All nslots-tuples of words whose combined multiset is `counts`;
    nslots >= 1."""
    if nslots < 1:
        raise ValueError(f"need at least one slot, got {nslots}")
    return _distributions(counts, nslots)


def _distributions(counts, nslots):
    if nslots == 1:
        for w in arrangements(counts):
            yield (w,)
        return
    for sub in _sub_multisets(counts):
        rest = tuple(c - s for c, s in zip(counts, sub))
        for w in arrangements(sub):
            for tail in _distributions(rest, nslots - 1):
                yield (w,) + tail


def monomials_with_content(counts, nfactors):
    """Sorted list of tensor monomials with the given color content, over
    nfactors >= 1 tensor factors."""
    return sorted(distributions(tuple(counts), nfactors))


def weight_zero_basis(rs, weights, beta):
    """Basis of the weight-zero space of M'(lambda_1) x ... x M'(lambda_N).

    Empty when sum(lambda_i) differs from the content of beta.
    """
    if not weight_matches(rs, weights, beta):
        return []
    return monomials_with_content(color_counts(rs, beta), len(weights))


# free associative algebra on the f'_i -----------------------------------


def free_mul(x, y):
    out = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            w = wx + wy
            c = out.get(w, 0) + cx * cy
            if c:
                out[w] = c
            elif w in out:
                del out[w]
    return out


def free_bracket(x, y):
    out = dict(free_mul(x, y))
    for w, c in free_mul(y, x).items():
        c2 = out.get(w, 0) - c
        if c2:
            out[w] = c2
        elif w in out:
            del out[w]
    return out


def serre_element(rs, i, j):
    """theta^-_{ij} = ad(f'_i)^{1-n_ij} f'_j expanded in the free algebra."""
    if i == j:
        raise ValueError("need i != j")
    m = 1 - rs.cartan[i - 1][j - 1]
    return {
        ((i,) * (m - s)) + (j,) + ((i,) * s): (-1) ** s * comb(m, s)
        for s in range(m + 1)
    }


def lower_by_pattern(rs, chain):
    """Root vector f_gamma as a nested bracket along a root pattern.

    `chain` is a dict with "steps" (simple indices, 1-based) as produced by
    roots.root_patterns; partial sums must all be positive roots.
    """
    steps = chain["steps"] if isinstance(chain, dict) else list(chain)
    posset = set(rs.positive_roots)
    partial = [0] * rs.rank
    elem = None
    for s in steps:
        partial[s - 1] += 1
        if tuple(partial) not in posset:
            raise ValueError("chain leaves the positive roots")
        elem = {(s,): 1} if elem is None else free_bracket({(s,): 1}, elem)
    return elem


# actions ------------------------------------------------------------------


def _add(vec, mono, coeff):
    c = vec.get(mono, 0) + coeff
    if c:
        vec[mono] = c
    elif mono in vec:
        del vec[mono]


def apply_free_element(vec, factor, elem):
    """Left-multiply tensor factor `factor` (0-based) by a free-algebra element."""
    out = {}
    for mono, c in vec.items():
        for word, ec in elem.items():
            new = mono[:factor] + (word + mono[factor],) + mono[factor + 1 :]
            _add(out, new, c * ec)
    return out


def apply_f(vec, i):
    """f_i acting on the full tensor: sum over factors of prepending f'_i."""
    out = {}
    for mono, c in vec.items():
        for j in range(len(mono)):
            new = mono[:j] + (((i,) + mono[j]),) + mono[j + 1 :]
            _add(out, new, c)
    return out


# kernel spans -------------------------------------------------------------


def serre_span(rs, weights, beta):
    """Weight-zero vectors carrying one theta^-_{ij} insertion.

    Spans the Serre part of the kernel of M' -> M at weight zero.
    """
    nu = color_counts(rs, beta)
    n = len(weights)
    vectors = []
    for i in range(1, rs.rank + 1):
        for j in range(1, rs.rank + 1):
            if i == j:
                continue
            elem = serre_element(rs, i, j)
            m = 1 - rs.cartan[i - 1][j - 1]
            block = [0] * rs.rank
            block[i - 1] += m
            block[j - 1] += 1
            rest = tuple(a - b for a, b in zip(nu, block))
            if any(x < 0 for x in rest):
                continue
            for jf in range(n):
                # slots: prefix and suffix inside factor jf, then the others
                for dist in distributions(rest, n + 1):
                    prefix, suffix = dist[0], dist[1]
                    others = list(dist[2:])
                    vec = {}
                    for word, ec in elem.items():
                        words = others[:jf] + [prefix + word + suffix] + others[jf:]
                        _add(vec, tuple(words), ec)
                    if vec:
                        vectors.append(vec)
    return vectors


def in_verma_kernel(weights, mono):
    """Whether some factor word j ends in f'_i^(1+<lambda_j,a_i^vee>).

    Such a monomial lies in U(n^-) f'_i^(1+<lambda_j,a_i^vee>)|lambda_j>, the
    highest-weight power part of the kernel of M' -> L(lambda_j), so every
    functional on the tensor product of the L(lambda_j) vanishes on it.
    """
    for lam, word in zip(weights, mono):
        if word:
            i = word[-1]
            e = 1 + lam[i - 1]
            if word[-e:] == (i,) * e:
                return True
    return False


def expand_row(vec, index, weights):
    """A tensor vector as a sparse row {index[monomial]: coeff}.

    Verma-kernel monomials are dropped: every functional vanishes on them.
    Any other monomial missing from `index` (outside the weight-zero basis)
    raises KeyError.
    """
    return {index[m]: c for m, c in vec.items() if not in_verma_kernel(weights, m)}


class TensorFunctional:
    """Element of the weight-zero dual, exact coefficients over the monomial basis."""

    def __init__(self, coeffs, weights, beta):
        self.coeffs = {m: Fraction(c) for m, c in coeffs.items() if c}
        self.weights = tuple(tuple(w) for w in weights)
        self.beta = tuple(beta)

    def pair(self, vec):
        return sum((self.coeffs[m] * c for m, c in vec.items() if m in self.coeffs),
                   Fraction(0))

    def vector(self, basis):
        return [self.coeffs.get(m, Fraction(0)) for m in basis]

    def __eq__(self, other):
        return (self.coeffs, self.weights, self.beta) == (
            other.coeffs, other.weights, other.beta)

    def __repr__(self):
        return f"TensorFunctional({self.coeffs!r})"


def invariant_constraint_rows(rs, weights, beta, basis=None):
    """Rows whose nullspace is the invariant dual, and the columns they index.

    A functional on the weight-zero space of M'(lambda_1) x ... x M'(lambda_N)
    is invariant when it factors through L(lambda_1) x ... x L(lambda_N) and
    is g-invariant there.  It factors through when it vanishes on the kernel
    of M' -> L in each factor: on the Serre insertions (one row each) and on
    the Verma-kernel monomials (`in_verma_kernel`), which are not solved for
    at all.  The columns are therefore the weight-zero basis monomials
    outside the Verma kernel, in basis order; a functional is 0 on the others.

    Invariance needs only the f_i rows, psi(f_i v) = 0 for v of content
    beta - alpha_i.  Such a psi is a weight-zero vector of the
    finite-dimensional dual of the tensor product of the L(lambda_j) that
    every f_i kills, a lowest weight vector of weight 0.  The submodule it
    generates is U(n^+) psi, whose weights are >= 0 and Weyl-stable, so 0 is
    the only one: the submodule is trivial and every e_i kills psi as well,
    so e_i rows would be implied by the others.  Rows left empty by the
    restriction to the columns are dropped.
    """
    if basis is None:
        basis = weight_zero_basis(rs, weights, beta)
    columns = [m for m in basis if not in_verma_kernel(weights, m)]
    if not columns:  # weight mismatch, or the whole basis in the Verma kernel
        return [], []
    index = {m: k for k, m in enumerate(columns)}
    nu = color_counts(rs, beta)
    vectors = serre_span(rs, weights, beta)
    for i in range(1, rs.rank + 1):
        down = list(nu)
        down[i - 1] -= 1
        if down[i - 1] >= 0:
            vectors += [apply_f({mono: 1}, i)
                        for mono in monomials_with_content(down, len(weights))]
    rows = [expand_row(vec, index, weights) for vec in vectors]
    return [row for row in rows if row], columns


def invariant_functionals(rs, weights, beta):
    """Basis of functionals vanishing on both kernel parts and g-invariant.

    Deterministic: reduced echelon over the lexicographic monomial order.
    """
    rows, columns = invariant_constraint_rows(rs, weights, beta)
    return [TensorFunctional(dict(zip(columns, v)), weights, beta)
            for v in linalg.nullspace(rows, len(columns))]
