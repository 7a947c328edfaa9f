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
    """Whether sum(lambda_i) equals the root-lattice content nu of beta.

    Compared in fundamental-weight coordinates, in integers: the p-th
    coordinate of nu is <nu, alpha_p^vee> = sum_q cartan[p][q] nu_q.
    """
    nu = color_counts(rs, beta)
    return all(sum(lam[p] for lam in weights) == sum(n * c for n, c in zip(row, nu))
               for p, row in enumerate(rs.cartan))


def cut_orderings(letters, nfactors):
    """The orderings of `letters` (any integers) and nfactors - 1 bars, in
    lexicographic order, each cut at its bars into nfactors words.

    The bar sorts below every letter, and the walk steps from the sorted
    sequence to its next permutation until the sequence descends.  The cut
    is a bijection onto the tuples of nfactors words holding `letters`, and
    it keeps the order.  Where two orderings first differ, their words agree
    before that position; either two letters differ there, or one ordering
    has the bar there, which ends its word as a proper prefix of the other's
    word.  Tuple comparison puts the shorter word first, as lexicographic
    order puts the bar first.  All orderings have the same length, so no
    ordering is a proper prefix of another.  The list is thus strictly
    increasing, with no sort.
    """
    if nfactors < 1:
        raise ValueError(f"need at least one slot, got {nfactors}")
    seq = sorted(letters)
    bar = (seq[0] if seq else 0) - 1
    seq[:0] = [bar] * (nfactors - 1)
    out = []
    while True:
        start, words = 0, []
        for p, x in enumerate(seq):
            if x == bar:
                words.append(tuple(seq[start:p]))
                start = p + 1
        words.append(tuple(seq[start:]))
        out.append(tuple(words))
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = seq[:i:-1]


def monomials_with_content(counts, nfactors):
    """Sorted list of tensor monomials with the given (nonnegative) color
    counts over nfactors >= 1 factors: the `cut_orderings` of the colors."""
    return cut_orderings([c for c, k in enumerate(counts, 1) for _ in range(k)], nfactors)


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
    posset = set(rs.positive_roots)
    partial = [0] * rs.rank
    elem = None
    for s in chain["steps"]:
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
            rest = list(nu)
            rest[i - 1] -= 1 - rs.cartan[i - 1][j - 1]
            rest[j - 1] -= 1
            if min(rest) < 0:
                continue
            # slots: prefix and suffix inside factor jf, then the others
            splits = monomials_with_content(rest, n + 1)
            for jf in range(n):
                for prefix, suffix, *others in splits:
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


def column_index(basis, columns):
    """The column map of `expand_row`: each basis monomial to its position
    in `columns`, the basis monomials left out of `columns` (the Verma
    kernel) to None."""
    index = dict.fromkeys(basis)
    index.update(zip(columns, range(len(columns))))
    return index


def expand_row(vec, index):
    """A tensor vector as a sparse row {index[monomial]: coeff}.

    `index` is a `column_index`: Verma-kernel monomials, mapped to None, are
    dropped, as every functional vanishes on them.  A monomial outside the
    weight-zero basis raises KeyError.
    """
    return {k: c for m, c in vec.items() if (k := index[m]) is not None}


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
    index = column_index(basis, columns)
    nu = color_counts(rs, beta)
    vectors = serre_span(rs, weights, beta)
    for i in range(1, rs.rank + 1):
        down = list(nu)
        down[i - 1] -= 1
        if down[i - 1] >= 0:
            vectors += [apply_f({mono: 1}, i)
                        for mono in monomials_with_content(down, len(weights))]
    rows = [expand_row(vec, index) for vec in vectors]
    return [row for row in rows if row], columns


def invariant_functionals(rs, weights, beta):
    """Basis of functionals vanishing on both kernel parts and g-invariant.

    Deterministic: reduced echelon over the lexicographic monomial order.
    """
    rows, columns = invariant_constraint_rows(rs, weights, beta)
    return [TensorFunctional(dict(zip(columns, v)), weights, beta)
            for v in linalg.nullspace(rows, len(columns))]
