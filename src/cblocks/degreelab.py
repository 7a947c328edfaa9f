"""Brute-force exact verifier for polynomial degree lower bounds.

A problem names variables, symmetry blocks (full symmetric group on each
block) and partial diagonals (sets of variables forced equal); the verifier
decides whether a nonzero polynomial of total degree <= bound can be
symmetric and vanish on every diagonal.  The unknowns are the coefficients of
the orbit sums of monomials; a diagonal gives one row per monomial left after
each of its variables is replaced by its first one.  EMPTY is certified by
full column rank of the constraint matrix mod p = 2^31 - 1: a nonzero
rational solution would scale to a primitive integer one, nonzero mod p, so
full rank mod p is an exact certificate.  Two exact reductions shrink that
matrix: only the orbits of degree exactly `bound` are needed (multiplying by
the power sum p1 lifts any solution to the top degree), and only one diagonal
per orbit under the block permutations (the two give the same rows).  A rank
defect triggers an exact rational nullspace computation over every orbit of
degree <= bound and a witness.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from . import linalg
from .ratfun import SparsePoly, divmod_linear

MONOMIAL_CEILING = 200_000


class CeilingExceeded(ValueError):
    """Monomial count above the configured ceiling; computation refused."""


class DegreeProblem:
    def __init__(self, variables, symmetry, vanishing, bound):
        self.variables = tuple(variables)
        if not self.variables:
            raise ValueError("a problem needs at least one variable")
        pos = {v: i for i, v in enumerate(self.variables)}
        if len(pos) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.symmetry = [tuple(b) for b in symmetry]
        flat = [v for b in self.symmetry for v in b]
        if len(set(flat)) != len(flat):
            raise ValueError("symmetry blocks must be disjoint")
        for b in self.symmetry:
            for v in b:
                if v not in pos:
                    raise ValueError(f"unknown variable {v!r}")
        for d in vanishing:
            if len(d) < 2:
                raise ValueError("a diagonal needs at least two variables")
            if len(set(d)) != len(d):
                raise ValueError("a diagonal names a variable twice")
            for v in d:
                if v not in pos:
                    raise ValueError(f"unknown variable {v!r}")
        self.vanishing = [tuple(sorted(d, key=pos.get)) for d in vanishing]
        self.bound = int(bound)
        self._pos = pos

    def __repr__(self):
        return (f"DegreeProblem(vars={self.variables}, sym={self.symmetry}, "
                f"diagonals={len(self.vanishing)}, bound={self.bound})")


def _homogeneous(nvars, degree):
    """Exponent tuples of nvars >= 1 variables with total `degree`."""
    if nvars == 1:
        yield (degree,)
        return
    for k in range(degree + 1):
        for tail in _homogeneous(nvars - 1, degree - k):
            yield (k,) + tail


def _orbit_representative(expo, blocks):
    e = list(expo)
    for block in blocks:
        vals = sorted((e[i] for i in block), reverse=True)
        for i, v in zip(block, vals):
            e[i] = v
    return tuple(e)


def _orbits(nvars, degrees, blocks):
    """The monomials of the given degrees grouped into block-permutation
    orbits, in the order of their representatives."""
    groups = {}
    for degree in degrees:
        for e in _homogeneous(nvars, degree):
            groups.setdefault(_orbit_representative(e, blocks), []).append(e)
    return [groups[r] for r in sorted(groups)]


def _orbit_count(sizes, bound):
    """Number of orbits of monomials of degree <= bound under the symmetric
    groups of blocks of the given sizes: per block, the partitions of each
    degree into at most `size` parts, convolved over the blocks."""
    total = [int(d == 0) for d in range(bound + 1)]
    for size in sizes:
        # partitions into parts <= size, conjugate to at most `size` parts
        parts = [int(d == 0) for d in range(bound + 1)]
        for k in range(1, size + 1):
            for d in range(k, bound + 1):
                parts[d] += parts[d - k]
        total = [sum(total[i] * parts[d - i] for i in range(d + 1))
                 for d in range(bound + 1)]
    return sum(total)


def _distinct_diagonals(problem):
    """One diagonal, as variable positions, per orbit under the block
    permutations: two diagonals lie in one orbit iff they meet every block in
    as many variables and name the same variables outside the blocks."""
    ids = {v: i for i, b in enumerate(problem.symmetry) for v in b}
    out = {}
    for d in problem.vanishing:
        key = tuple(sorted(ids.get(v, len(problem.symmetry) + problem._pos[v])
                           for v in d))
        out.setdefault(key, [problem._pos[v] for v in d])
    return list(out.values())


def _rows(orbits, diagonals):
    """The vanishing rows {column: value} on orbit sums: per diagonal, the
    coefficient of each monomial left after every diagonal variable is
    replaced by the first one, in monomial order."""
    for idx in diagonals:
        target = idx[0]
        rows = {}
        for col, orbit in enumerate(orbits):
            for e in orbit:
                ee = list(e)
                merged = sum(ee[i] for i in idx)
                for i in idx:
                    ee[i] = 0
                ee[target] = merged
                cur = rows.setdefault(tuple(ee), {})
                cur[col] = cur.get(col, 0) + 1
        for _, entries in sorted(rows.items()):
            yield entries


def min_degree_certify(problem, ceiling=MONOMIAL_CEILING):
    """Verdict for "no nonzero symmetric polynomial of degree <= bound vanishes
    on all diagonals": {"verdict": "EMPTY"} or a witness polynomial.

    `columns` is the number of orbits of degree <= bound.  The mod-p
    certificate needs fewer, by two exact reductions.

    Top degree only: replacing the variables of a diagonal by one of them keeps
    the total degree of a monomial, and so does permuting a block, so the
    conditions split by degree and every homogeneous part of a solution is a
    solution.  If f != 0 is a homogeneous solution of degree d < bound, then
    p1^(bound-d) * f, with p1 the sum of all n >= 1 variables, is a solution
    of degree bound: p1 is invariant under every permutation, and the product
    vanishes wherever f does.  It is nonzero, as p1 != 0 (this needs n >= 1)
    and a polynomial ring has no zero divisors.  So a solution of degree
    <= bound exists iff one of degree exactly bound does, and full column
    rank mod p on the orbits of degree bound certifies EMPTY.

    One diagonal per orbit: let a block permutation s map diagonal D to D'.
    A monomial e merges on D to m iff s(e) merges on D' to s(m) with the
    merged exponent moved to the first variable of D'.  As s maps each orbit
    onto itself, the row of D' at that key equals the row of D at m: D and D'
    give the same rows, so the same span.

    A rank defect mod p may be an artefact of the prime, so the exact
    nullspace is taken over every orbit of degree <= bound (the distinct
    diagonals span the same rows as all of them); its first vector, that of
    the first free column of the reduced echelon form, is the witness.
    """
    n = len(problem.variables)
    count = comb(problem.bound + n, n)
    if count > ceiling:
        raise CeilingExceeded(
            f"{count} monomials exceed the ceiling {ceiling}; "
            "refusing the computation")
    blocks = [[problem._pos[v] for v in b] for b in problem.symmetry]
    sizes = [len(b) for b in blocks] + [1] * (n - sum(map(len, blocks)))
    ncols = _orbit_count(sizes, problem.bound)
    empty = {"verdict": "EMPTY", "bound": problem.bound, "columns": ncols}
    diagonals = _distinct_diagonals(problem)
    top = _orbits(n, [problem.bound], blocks)
    if linalg.rank_mod_p(_rows(top, diagonals), len(top)) == len(top):
        return empty
    orbits = _orbits(n, range(problem.bound + 1), blocks)
    red, pivots = linalg.rref(_rows(orbits, diagonals), ncols)
    pivot_cols = set(pivots)
    free = next((c for c in range(ncols) if c not in pivot_cols), None)
    if free is None:
        return empty
    # the nullspace vector of the free column: 1 there, -r[free] at the pivot
    # of each reduced row r, 0 at every other free column
    coeffs = {free: 1}
    coeffs.update((pc, -r[free]) for r, pc in zip(red, pivots) if r[free])
    witness = {e: str(c) for col, c in coeffs.items() for e in orbits[col]}
    return {**empty, "verdict": "WITNESS", "witness": dict(sorted(witness.items()))}


# the built-in lemma catalog --------------------------------------------------


def _cfg_triple_sym_three_points():
    variables = ["u1", "u2", "u3", "t1", "t2", "t3"]
    diag = [("u%d" % i, "u%d" % j, "t%d" % k)
            for i, j in combinations((1, 2, 3), 2) for k in (1, 2, 3)]
    return variables, [("u1", "u2", "u3")], diag, 5


def _cfg_pair_sym_four_points():
    variables = ["u1", "u2", "t1", "t2", "t3", "t4"]
    diag = [("u1", "u2", f"t{i}") for i in range(1, 5)]
    diag += [("t1", "t2", "t3", "t4", u) for u in ("u1", "u2")]
    return variables, [("u1", "u2"), ("t1", "t2", "t3", "t4")], diag, 4


def _cfg_two_pairs_two_points():
    variables = ["u1", "u2", "v1", "v2", "t1", "t2"]
    diag = [("u1", "u2", v) for v in ("v1", "v2")]
    diag += [("v1", "v2", t) for t in ("t1", "t2")]
    diag += [("v1", "v2", u) for u in ("u1", "u2")]
    return variables, [("u1", "u2"), ("v1", "v2")], diag, 4


def _ladder(npairs):
    """Pairs (t_a, u_a), a = 1..npairs, with the neighbor-collision diagonals."""
    variables = []
    for a in range(1, npairs + 1):
        variables += [f"t{a}", f"u{a}"]

    def neighbors(a):
        return [f"{p}{b}" for b in (a - 1, a + 1) if 1 <= b <= npairs
                for p in ("t", "u")]

    return variables, neighbors


def _pair_collisions(m, neighbors):
    """Pair a = 1..m collides with its ladder neighbors, pair 1 also with t0."""
    return [(f"t{a}", f"u{a}", x)
            for a in range(1, m + 1)
            for x in neighbors(a) + (["t0"] if a == 1 else [])]


def _cfg_pair_ladder(m):
    npairs = m + 2
    variables, neighbors = _ladder(npairs)
    symmetry = [(f"t{a}", f"u{a}") for a in range(1, m + 2)]  # a < m+2
    diag = [(f"t{a}", f"u{a}", x)
            for a in range(1, m + 2) for x in neighbors(a)]
    return variables, symmetry, diag, 2 * m + 2


def _triple_head_ladder(m, pair2_diagonals):
    """t0 and pairs 1..m+1, v1 joining pair 1 in a triple; `pair2_diagonals`
    are the diagonals of pair 2 beyond its ladder collisions."""
    variables, neighbors = _ladder(m + 1)
    variables = ["t0", "v1"] + variables
    symmetry = [("t1", "u1", "v1")] + [
        (f"t{a}", f"u{a}") for a in range(2, m + 1)]
    diag = _pair_collisions(m, neighbors) + pair2_diagonals
    diag += [(w, "v1", x) for w in ("t1", "u1") for x in ("t0", "t2", "u2")]
    return variables, symmetry, diag


def _triple_tail_ladder(m, npairs):
    """t0 and pairs 1..npairs, v2 joining pair 2 in a triple, as in the m >= 2
    ranges.  Pair 3 is always present (the printed t3=u3=v2 diagonal
    references it)."""
    variables, neighbors = _ladder(npairs)
    variables = ["t0", "v2"] + variables
    symmetry = [("t2", "u2", "v2")] + [
        (f"t{a}", f"u{a}") for a in range(1, m + 1) if a != 2]
    diag = _pair_collisions(m, neighbors)
    diag += [("t1", "u1", "v2"), ("t3", "u3", "v2")]
    diag += [(w, "v2", x) for w in ("t2", "u2") for x in ("t1", "u1", "t3", "u3")]
    return variables, symmetry, diag


def _cfg_triple_head_ladder(m):
    return (*_triple_head_ladder(m, [("t2", "u2", "v1")]), 2 * m + 3)


def _cfg_triple_tail_ladder(m):
    return (*_triple_tail_ladder(m, max(m + 1, 3)), 2 * m + 4)


def _cfg_open_triple_head_ladder(m):
    # at m = 1, the boundary of the family: the pair-2 collisions with the triple
    boundary = [("t2", "u2", "t1"), ("t2", "u2", "u1")] if m == 1 else []
    return (*_triple_head_ladder(m, boundary), 2 * m + 2)


def _cfg_open_triple_tail_ladder(m):
    # at m = 1 this is the triple-tail-ladder(m=1) problem, at bound 3 not 6
    return (*_triple_tail_ladder(m, max(m, 3)), 2 * m + 1)


def _cfg_triple_with_collector():
    variables = ["t1", "u1", "u2", "u3", "v1"]
    diag = [(f"u{i}", f"u{j}", "t1") for i, j in combinations((1, 2, 3), 2)]
    diag.append(("u1", "u2", "u3", "v1"))
    return variables, [("u1", "u2", "u3")], diag, 3


def _cfg_two_pairs_chain():
    variables = ["t1", "u1", "u2", "v1", "v2"]
    diag = [("u1", "u2", "t1")]
    diag += [("v1", "v2", u) for u in ("u1", "u2")]
    return variables, [("u1", "u2"), ("v1", "v2")], diag, 3


# name -> (variables, symmetry, diagonals, claimed bound): no nonzero symmetric
# polynomial of degree < bound vanishes on the diagonals.  Seven bounds are
# sharp (a witness exists at the bound); the four m=1 triple ladders
# (triple-head-ladder, triple-tail-ladder and their open-* forms) are valid
# but not sharp: they are still EMPTY at the bound.  open-triple-tail-ladder(m=1)
# is the triple-tail-ladder(m=1) problem at bound 3, so by the top-degree
# lemma of min_degree_certify it follows from the bound-6 claim; it stays
# because the benchmark reference names it.
LEMMA_CATALOG = {
    "triple-sym-three-points": _cfg_triple_sym_three_points,
    "pair-sym-four-points": _cfg_pair_sym_four_points,
    "two-pairs-two-points": _cfg_two_pairs_two_points,
    "pair-ladder(m=1)": lambda: _cfg_pair_ladder(1),
    "pair-ladder(m=2)": lambda: _cfg_pair_ladder(2),
    "triple-head-ladder(m=1)": lambda: _cfg_triple_head_ladder(1),
    "triple-tail-ladder(m=1)": lambda: _cfg_triple_tail_ladder(1),
    "triple-with-collector": _cfg_triple_with_collector,
    "two-pairs-chain": _cfg_two_pairs_chain,
    "open-triple-head-ladder(m=1)": lambda: _cfg_open_triple_head_ladder(1),
    "open-triple-tail-ladder(m=1)": lambda: _cfg_open_triple_tail_ladder(1),
}


def lemma_problem(name):
    """The catalog lemma `name` one degree below its claimed bound."""
    variables, symmetry, diag, bound = LEMMA_CATALOG[name]()
    return DegreeProblem(variables, symmetry, diag, bound - 1)


def run_lemma_suite(ceiling=MONOMIAL_CEILING):
    """Certify every catalog lemma EMPTY one degree below its bound, and check
    the difference-square decomposition."""
    report = {}
    for name in LEMMA_CATALOG:
        problem = lemma_problem(name)
        result = min_degree_certify(problem, ceiling=ceiling)
        result["degree_checked"] = problem.bound
        result["claimed_bound"] = problem.bound + 1
        report[name] = result
    report["difference-square-decomposition"] = _decomposition_check()
    return report


# the symmetric-difference decomposition --------------------------------------


def _divide_linear_vars(p, a, b):
    """Exact division by (x_a - x_b); raises if not divisible."""
    q, r = divmod_linear(p, a, c_var=b)
    if not r.is_zero():
        raise ValueError("not divisible by the difference")
    return q


def difference_square_decompose(g, nvars):
    """Write a polynomial in x_1..x_nvars, symmetric and vanishing on the full
    diagonal, as sum (x_i - x_j)^2 A_ij.

    Verifies the preconditions and that the reconstruction is exact.
    """
    variables = range(1, nvars + 1)
    # precondition: symmetric
    for a in variables[:-1]:
        if not (g.permute({a: a + 1, a + 1: a}) - g).is_zero():
            raise ValueError("polynomial is not symmetric")
    # telescope: g = sum_j (x_j - x_1) B_j, with h_j = g at x_{j+1..n} := x_1;
    # h_1 is g on the full diagonal, where it must vanish
    parts = []
    prev = None
    for j in variables:
        h = g
        for b in variables[j:]:
            h = h.substitute_var(b, 1)
        if prev is not None:
            parts.append((j, _divide_linear_vars(h - prev, j, 1)))
        elif not h.is_zero():
            raise ValueError("polynomial does not vanish on the diagonal")
        prev = h
    # symmetrize pairing sigma with sigma.(1 j): each pair contributes
    # (x_s1 - x_sj)^2 times an exact quotient
    out = {}
    perms = list(permutations(variables))
    scale = Fraction(1, 2 * len(perms))
    for j, B in parts:
        for perm in perms:
            s1, sj = perm[0], perm[j - 1]
            Bp = B.permute(dict(zip(variables, perm)))
            Bswap = Bp.permute({s1: sj, sj: s1})
            quot = _divide_linear_vars(Bp - Bswap, sj, s1)
            key = (min(s1, sj), max(s1, sj))
            cur = out.get(key)
            out[key] = quot.scale(scale) if cur is None else cur + quot.scale(scale)
    result = [(key, A) for key, A in sorted(out.items()) if not A.is_zero()]
    # reconstruction must be exact
    recon = SparsePoly(nvars)
    for (i, j), A in result:
        d = SparsePoly.variable(nvars, i) - SparsePoly.variable(nvars, j)
        recon = recon + d * d * A
    if not (recon - g).is_zero():
        raise AssertionError("decomposition failed to reconstruct the input")
    return result


def _decomposition_check():
    """Decompose a nontrivial symmetric diagonal-vanishing example exactly."""
    n = 3
    x1 = SparsePoly.variable(n, 1)
    x2 = SparsePoly.variable(n, 2)
    x3 = SparsePoly.variable(n, 3)
    p2 = x1 * x1 + x2 * x2 + x3 * x3
    p1 = x1 + x2 + x3
    g = p2.scale(3) - p1 * p1  # 3*powersum2 - powersum1^2, vanishes on the diagonal
    try:
        parts = difference_square_decompose(g, n)
        return {"verdict": "DECOMPOSED", "terms": len(parts)}
    except (ValueError, AssertionError) as exc:
        return {"verdict": "FAILED", "error": str(exc)}
