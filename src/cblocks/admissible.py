"""Square-integrability of master-function-weighted log forms as jet constraints.

For a problem instance with exponent scale kappa = k + g*, a weight-zero
functional Psi is admissible when the logarithmic degree of R * Omega(Psi) is
strictly positive on every stratum of the catalog: mutual collapses (S1),
collapses to a marked point (S2) and escapes to infinity (SINF).  Each
stratum contributes finitely many linear conditions on Psi: the coefficients
of the low-degree jet of the pole-cleared numerator must vanish; on a
singleton stratum they are the f_c-invariance rows (SINF) or Verma unit rows
(S2), built from the classes with no jets.  The admissible subspace is the
exact nullspace of all conditions.  Once the conditions read so far leave a
one-vector nullspace psi, a stratum where the one combined jet of
sum_cls psi_cls * cls vanishes is skipped: its conditions already hold.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, floor, gcd, lcm
from operator import itemgetter

from . import linalg, repspace
from .logforms import class_chains, classes_for
from .ratfun import Stratum, demote


class MasterData:
    """Instance plus coloring, exponent scale kappa = k + g*, and the cover constant C."""

    def __init__(self, instance, beta):
        self.instance = instance
        self.rs = instance.rs
        self.beta = tuple(beta)
        for c in self.beta:
            if not 1 <= c <= self.rs.rank:
                raise ValueError("coloring index out of range")
        self.kappa = Fraction(instance.k + self.rs.dual_coxeter)

    @cached_property
    def C(self):
        """min_even_constant, computed when first read: no verdict needs it."""
        return min_even_constant(self.instance, self.beta)

    @property
    def M(self):
        return len(self.beta)


def _integrality_requirement(x, even=False):
    """Least d with d*x in Z (or in 2Z when even)."""
    f = Fraction(x)
    if not even:
        return f.denominator
    q2 = 2 * f.denominator
    return q2 // gcd(f.numerator, q2)


def min_even_constant(instance, beta):
    """The least C making all master-function exponents integral and even.

    C*(lambda_i,lambda_j), C*(beta_a,beta_b), C*(beta_a,lambda_i) must be
    integers, and C*(alpha,alpha) even for every simple root.  Each
    requirement holds exactly on the multiples of its own least d, so the
    valid constants are the multiples of the least one.
    """
    rs = instance.rs
    weights = instance.weights
    roots = [rs.simple_roots[b - 1] for b in beta]
    reqs = [rs.weight_weight_pairing(u, v) for u, v in combinations(weights, 2)]
    reqs += [rs.killing(a, b) for a, b in combinations(roots, 2)]
    reqs += [rs.weight_root_pairing(lam, a) for a in roots for lam in weights]
    return lcm(*(_integrality_requirement(x) for x in reqs),
               *(_integrality_requirement(rs.gram[i][i], even=True)
                 for i in range(rs.rank)))


def r_degree_on_stratum(md, stratum):
    """Exact order of the master function along a stratum.

    S1: sum of -(beta_a,beta_b)/kappa over internal pairs.
    S2: plus (lambda_j,beta_a)/kappa per collapsing variable.
    SINF: -(gamma,gamma)/(2 kappa) - sum_a (beta_a,beta_a)/(2 kappa) in u = 1/t,
    that is -(sum_{a<b} (beta_a,beta_b) + sum_a (beta_a,beta_a))/kappa.
    Every pairing is read off the Gram matrix: with c_a the color of variable
    a, (beta_a,beta_b) = gram[c_a][c_b] and (lambda,beta_a) =
    lambda[c_a] (alpha_{c_a},alpha_{c_a})/2.
    """
    gram = md.rs.gram
    cols = [md.beta[a - 1] - 1 for a in stratum.subset]
    total = -sum(gram[c][d] for c, d in combinations(cols, 2))
    if stratum.kind == "S2":
        lam = md.instance.weights[stratum.point - 1]
        total += sum(lam[c] * gram[c][c] for c in cols) / 2
    elif stratum.kind == "SINF":
        total -= sum(gram[c][c] for c in cols)
    return total / md.kappa


def valuation_floor(stratum):
    """Least u-degree of a jet term of Q*Delta on the stratum, L = |subset|:
    C(L-1, 2) on S1, C(L, 2) on S2 and C(L, 2) + L on SINF.

    Q is a signed sum of chain denominators (class_chains) in which every
    variable has exactly one outgoing factor, t_a - t_b or t_a - z_j;
    following them from any variable ends at a point, so the outgoing
    factors of the subset's variables that stay inside the subset form a
    forest on its L variables.  In the chart of _chart a chain contributes
    its seed times the jets of the universe factors outside its denominator,
    and:
    - S1: the C(L, 2) factors t_a - t_b inside the subset have jets of
      u-degree 1 (u_a - u_b, or -u_b at the anchor), every other jet has
      u-degree >= 0, and the forest holds at most L - 1 of them, which
      leaves C(L, 2) - (L - 1) = C(L-1, 2);
    - S2: the C(L, 2) factors inside the subset and the L factors t_a - z_j
      of its variables have u-degree 1, and the denominator holds at most
      one per variable of the subset, which leaves C(L, 2);
    - SINF: the seed takes u_a from the monomial of each variable's outgoing
      factor, and u_a*u_b from an inside factor t_a - t_b, whose jet u_b -
      u_a of u-degree 1 then leaves the product: a variable whose outgoing
      factor is inside adds 2 to the seed and drops one inside jet, one
      whose outgoing factor leaves the subset adds 1 (a factor t_x - t_a
      from outside only adds u_a more), so the degree is at least
      L + C(L, 2).
    The floor is the shift of jet_cutoff, so it says d^S(Omega) >= 0 for
    every log form; the cutoff is floor(floor - r(S)), and a stratum with
    r(S) > 0 has its cutoff below the floor and adds no rows.
    """
    L = len(stratum.subset)
    if stratum.kind == "S1":
        return comb(L - 1, 2)
    if stratum.kind == "S2":
        return comb(L, 2)
    return comb(L, 2) + L


def jet_cutoff(md, stratum):
    """Largest jet degree that must vanish for d^S(R Omega) > 0, or -1 if none.

    The engine multiplies each basis form by the universal denominator
    Delta, so d^S(Omega) is val(Q*Delta) less a shift, the valuation of that
    multiplier net of the codimension:
    - S1: val(Delta) = C(L,2), codim L-1;
    - S2: val(Delta) = C(L,2) + L, codim L;
    - SINF: in the u = 1/t chart Qhat = Q o inv times all inverted
      numerator factors (valuation C(L,2)), Jacobian u^-2 per variable,
      codim L.
    The shift is the valuation floor in each case, so d^S(R Omega) > 0 is
    val(Q*Delta) > floor - r(S).
    """
    return floor(valuation_floor(stratum) - r_degree_on_stratum(md, stratum))


# stratum catalog ------------------------------------------------------------

STRATUM_CAP = 6  # default bound on the variable count of a stratum


def stratum_catalog(md, cap=STRATUM_CAP, prune_by_color=True):
    """S1/S2/SINF strata, optionally one representative per color orbit.

    Color-preserving relabelings act on both the class basis and the strata;
    constraint sets of strata in one orbit cut out the same subspace.
    """
    M = md.M
    N = len(md.instance.points)
    out = []
    seen = set()
    for kind, least, pts in (("S1", 2, (None,)), ("S2", 1, range(1, N + 1)),
                             ("SINF", 1, (None,))):
        for size in range(least, min(M, cap) + 1):
            for subset in combinations(range(1, M + 1), size):
                colors = tuple(sorted(md.beta[a - 1] for a in subset))
                for j in pts:
                    if prune_by_color and (kind, colors, j) in seen:
                        continue
                    seen.add((kind, colors, j))
                    out.append(Stratum(kind, subset, j))
    return out


def vandermonde_floor(md, stratum):
    """Least u-degree of a jet term of Q*Delta on the stratum (0 on SINF).

    On an S1 or S2 stratum the floor is sum_c C(m_c, 2), m_c the number of
    the subset's variables of color c, that is the number of its same-color
    pairs:
    - every class form Q is symmetric under the color-preserving
      permutations of the t's, and the universal denominator Delta is
      antisymmetric under swapping two same-color variables, so Q*Delta is
      antisymmetric in each color block of the subset;
    - so the Vandermonde of each block, the product of its t_a - t_b,
      divides the polynomial Q*Delta;
    - in the S1 and S2 charts t_a - t_b is u_a - u_b (or -u_b at the S1
      anchor), homogeneous of u-degree 1, and the quotient stays a
      polynomial in the u's.
    A stratum whose jet cutoff is below its floor adds no rows.  In the SINF
    chart t_a - t_b is (u_b - u_a)/(u_a*u_b) and no floor is claimed.
    """
    if stratum.kind == "SINF":
        return 0
    return sum(md.beta[a - 1] == md.beta[b - 1]
               for a, b in combinations(stratum.subset, 2))


# the jet engine -------------------------------------------------------------


def _universe(M, N):
    factors = [("tt", a, b) for a in range(1, M + 1) for b in range(a + 1, M + 1)]
    factors += [("tz", a, j) for a in range(1, M + 1) for j in range(1, N + 1)]
    return factors


def _slot_width(M, N):
    """Bits per exponent slot of a packed key: those of 2 (C(M,2) + M*N).

    In the chart of _chart every jet term of a factor, and every monomial of
    a SINF factor, has exponent at most 1 in each slot, so a slot of a class
    polynomial is at most the number of factors in the universe, C(M,2) +
    M*N, plus as many again for the SINF seed (the product of the monomials
    of the factors a class form divides by).  So no slot carries into the
    next one, nor the last into the u-degree: keys add as the monomials
    multiply, and compare as (u, slot M, ..., slot 1) lexicographically.
    """
    return (2 * (M * (M - 1) // 2 + M * N)).bit_length()


def _u_shift(M, N):
    """The bit of a packed key where the u-degree starts, above its M slots."""
    return M * _slot_width(M, N)


def _chart(md, stratum, universe):
    """Each universe factor in the stratum's chart, as (jet, monomial).

    An exponent vector is packed into one int key (u << _u_shift(M, N)) +
    code: the code has _slot_width(M, N) bits per slot, slot a for t_a or
    u_a, and u, the total degree in the moving variables u_a, sits above
    every slot; the width leaves every product of the engine carry-free.  A
    variable becomes numerator/monomial: S1 sends t_a to t_s + u_a, t_s the
    first variable of the subset, which stays as it is; S2 sends t_a to z_j
    + u_a, SINF sends t_a to 1/u_a, and every other variable stays t_a.  The
    factor x - y is then (n_x*m_y - n_y*m_x) / (m_x*m_y): a jet {key: coeff}
    in key order over a monomial key.
    """
    M, sub, kind = md.M, stratum.subset, stratum.kind
    zs = [demote(z) for z in md.instance.points]
    moving = set(sub[1:] if kind == "S1" else sub)
    width, shift = _slot_width(M, len(zs)), _u_shift(M, len(zs))

    def slot(a):
        return (int(a in moving) << shift) + (1 << (width * (a - 1)))

    var = {a: ({slot(a): 1}, 0) for a in range(1, M + 1) if a not in moving}
    for a in moving:
        if kind == "SINF":
            var[a] = ({0: 1}, slot(a))
        else:
            anchor = {slot(sub[0]): 1} if kind == "S1" else {0: zs[stratum.point - 1]}
            var[a] = ({**anchor, slot(a): 1}, 0)
    chart = {}
    for f in universe:
        nx, mx = var[f[1]]
        ny, my = var[f[2]] if f[0] == "tt" else ({0: zs[f[2] - 1]}, 0)
        jet = {}
        for n, m, s in ((nx, my, 1), (ny, mx, -1)):
            for key, c in n.items():
                jet[key + m] = jet.get(key + m, 0) + s * c
        chart[f] = ({key: c for key, c in sorted(jet.items()) if c}, mx + my)
    return chart


def _jet_mul(a, b, limit):
    """Product a * b of packed jets without the terms whose key reaches limit.

    `b` iterates in key order, so for each key k1 of `a` the walk over `b`
    stops at the first k2 >= limit - k1.  The keys of the engine add without
    a carry (_slot_width), so a key at or past (cap + 1) << _u_shift(M, N)
    is one of u-degree past cap, and that limit drops exactly those terms.
    """
    out = {}
    get = out.get
    for k1, c1 in a.items():
        bound = limit - k1
        for k2, c2 in b.items():
            if k2 >= bound:
                break
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _class_chains(classes, beta):
    """Per class, in order, its class_chains as (sign, denom, tt factors,
    heads), heads[a-1] = j if t_a - z_j is in the denominator, else 0: the
    stratum-independent part of _jet_rows."""
    out = []
    for cls in classes:
        chains = []
        for sign, denom in class_chains(cls, beta):
            heads = [0] * len(beta)
            for f in denom:
                if f[0] == "tz":
                    heads[f[1] - 1] = f[2]
            chains.append((sign, denom,
                           frozenset(f for f in denom if f[0] == "tt"),
                           tuple(heads)))
        out.append(chains)
    return out


def _jet_rows(md, stratum, groups, d_max):
    """Jet rows {packed key: {group: coeff}} of Q*Delta below u-degree d_max,
    in key order, with no zero entry and no empty row.

    `groups` lists chain lists (_class_chains: one per class, in column
    order); row k holds at g the coefficient at k of the sum of g's chains.
    The keys of _chart kept are those below (d_max + 1) << _u_shift(M, N);
    their slots are _slot_width(M, N) bits wide, which no sum of keys here
    overflows, for any M and N, so the rows come in the same order at any
    wider width.  Delta is the product of the universe factors in the chart,
    so a chain adds its sign times the seed (the product of the monomials of
    its denominator factors, 1 on S1 and S2) times the jets of the other
    factors:
    - the tt factors outside its tt set, their product memoized per tt set;
    - the tz factors outside its heads, on a path down a prefix trie over
      the variables: path[a], the product for heads[:a], is path[a-1] times
      P(a, heads[a-1]), where P(a, j) = prod_{i != j} of the jets of
      t_a - z_i is built once per (variable, head).  The live chains of all
      groups are walked in heads order, so those under one trie node are
      adjacent: cut back to the prefix shared with the chain before, the
      path computes each node once and holds at most M+1 products.
    Every partial product is cut at d_max minus the least u-degree that the
    factors still to come in it add, and minus what the rest of the chain
    adds at least: lo_tt (lo_tz), the least over the live chains of the
    seed's degree plus the least u-degree of its tz (tt) factors.  A chain
    whose least degree passes d_max is not live.  A tz prefix owes nothing
    to the variables after it: every chart factor has least u-degree 0 or
    1, and 1 exactly on a factor internal to the stratum (a t - t factor
    with both ends in the subset, or t_a - z_j at the point of an S2
    stratum); so at most one t - z factor of a variable is internal, a head
    can take that one, and the least that a variable after it adds whatever
    its head, the sum of its lows less their maximum, is 0.  Each (group, tt
    set T) adds one product into the rows: sum_{its chains} sign * seed *
    path[M], cut, times rest_tt(T).

    Both groupings leave every term below the cut unchanged.  Keys are >= 0
    and add as the monomials multiply, so a product cut at a limit L is exact
    below L when its operands are: a term below L takes only terms below L.
    A partial product cut early only drops terms that the factors still to
    come, each of u-degree at least its `low`, push to L or past it.  So a
    chained product of t_a - z_i jets and one product by P(a, j) both give
    the exact product below the trie node's cut.  The sum over the chains of
    sign * seed * path[M] * rest_tt(T) is (sum sign * seed * path[M]) *
    rest_tt(T) by distributivity, and a term of seed * path[M] at u-degree
    past d_max only reaches terms past d_max, so dropping it first is exact.
    """
    M, N = md.M, len(md.instance.points)
    universe = _universe(M, N)
    chart = _chart(md, stratum, universe)
    shift = _u_shift(M, N)
    low = {f: min(jet) >> shift for f, (jet, _) in chart.items()}
    all_tt = sum(low[f] for f in universe if f[0] == "tt")
    all_tz = sum(low[f] for f in universe if f[0] == "tz")
    top = (d_max + 1) << shift  # the least key past u-degree d_max

    live = []
    lo_tt = lo_tz = d_max + 1
    for g, chains in enumerate(groups):
        for sign, denom, tt, heads in chains:
            seed = sum(chart[f][1] for f in denom)
            least = seed >> shift
            tt_low = all_tt - sum(low[f] for f in tt)
            tz_low = all_tz - sum(low[f] for f in denom if f[0] == "tz")
            if least + tt_low + tz_low > d_max:
                continue
            lo_tz = min(lo_tz, least + tt_low)
            lo_tt = min(lo_tt, least + tz_low)
            live.append((heads, g, sign, seed, tt))
    live.sort(key=itemgetter(0))

    def times(cur, factors, lower):
        for f in factors:
            if not cur:
                break
            lower -= low[f]
            cur = _jet_mul(cur, chart[f][0], top - (lower << shift))
        return cur

    tt_memo = {}

    def rest_tt(inside):
        if inside not in tt_memo:
            comp = [f for f in universe if f[0] == "tt" and f not in inside]
            cur = times({0: 1}, comp, lo_tt + sum(low[f] for f in comp))
            tt_memo[inside] = dict(sorted(cur.items()))  # _jet_mul's b
        return tt_memo[inside]

    head_memo = {}

    def head_product(a, j):
        if (a, j) not in head_memo:
            factors = [("tz", a, i) for i in range(1, N + 1) if i != j]
            cur = times({0: 1}, factors, lo_tz + sum(low[f] for f in factors))
            head_memo[a, j] = dict(sorted(cur.items()))  # _jet_mul's b
        return head_memo[a, j]

    sums = {}  # (group, tt set) -> sum of sign * seed * path[M] below top
    path, prev = [{0: 1}], ()  # path[a]: the tz product for heads[:a]
    for heads, g, sign, seed, tt in live:
        a = next((a for a, (h, p) in enumerate(zip(heads, prev)) if h != p), len(prev))
        del path[a + 1:]
        for b in range(a + 1, M + 1):
            path.append(_jet_mul(path[-1], head_product(b, heads[b - 1]),
                                 top - (lo_tz << shift)))
        prev = heads
        acc = sums.setdefault((g, tt), {})
        bound = top - seed
        for key, c in path[M].items():
            if key < bound:
                key += seed
                acc[key] = acc.get(key, 0) + sign * c
    rows = {}
    while sums:
        (g, tt), acc = sums.popitem()
        for key, c in _jet_mul(acc, rest_tt(tt), top).items():
            row = rows.setdefault(key, {})
            row[g] = row.get(g, 0) + c
    rows = ((key, {g: c for g, c in row.items() if c}) for key, row in sorted(rows.items()))
    return {key: row for key, row in rows if row}


def _combined_chains(chains, psi):
    """One pseudo-class whose jet is sum_cls psi_cls * (jet of cls): every
    class's chains, each sign times the class's coefficient in psi cleared
    to integers.  `_jet_rows` is linear in the chain signs."""
    den = lcm(*(x.denominator for x in psi))
    return [(sign * (x * den).numerator, denom, tt, heads)
            for group, x in zip(chains, psi) if x
            for sign, denom, tt, heads in group]


def _singleton_rows(md, stratum, d_max, column):
    """Rows of a singleton stratum {a}, c = beta_a, with no jets.

    - SINF: one f_c row per class v of content beta - c, a 1 at each of the
      N classes that prepend c to one word of v: Psi o f_c = 0 for the
      diagonal f_c.
    - S2 at z_j: one unit row per class whose word j ends with c: Psi = 0 on
      f_c v_j, the Verma kernel when lambda_j(c) = 0.

    The cutoff is the valuation floor on every singleton the floors leave,
    and the rows hold only there, so a cutoff above it raises ValueError.
    SINF: r(S) = -(alpha_c, alpha_c)/kappa with (alpha_c, alpha_c) <= 2 (the
    long roots have length 2) and kappa = k + g* >= 3 at k >= 1 (g* >= 2),
    so the cutoff floor(1 + (alpha_c, alpha_c)/kappa) is the floor 1.  S2:
    r(S) = lambda_j(c) (alpha_c, alpha_c)/(2 kappa) >= 0, so the cutoff is
    at most the floor 0, and it is 0 exactly when lambda_j(c) = 0.

    At the floor the jet rows are the coefficients, over the monomials in
    the other t's, of the u-degree-floor term of Q*Delta in the chart of
    _chart, no term lying below the floor.  Split Delta = D_a D', D_a the M+N-1 factors with t_a in them.
    Deleting t_a from a marked partition of class w that has it at the
    front (SINF) or the end (S2) of chain j leaves a marked partition of the
    class that drops the first (last) letter c of word j, in the other
    variables, and every such partition arises once.
    - SINF, t_a = 1/u: a chain has 1/(t_a - y) = u + O(u^2) for the outgoing
      factor of a, and one more factor O(u) for an incoming t_x - t_a unless
      t_a leads chain j.  So Q_w = u sum_j theta'(w minus the first
      letter of word j) + O(u^2), over the j whose word starts with c, and
      the chart's u^(M+N-1) D_a(1/u) is +-1 + O(u).
    - S2, t_a = z_j + u: a chain without t_a - z_j in its denominator is
      O(1); one with it is 1/u times the chain that heads its t_x - t_a to
      z_j instead, + O(1).  So u Q_w = theta'(w minus the last letter of
      word j) + O(u) when word j ends with c, else O(u), and D_a / u at
      u = 0 is a nonzero polynomial, the points being distinct.
    So the term is D_0 D' sum_v theta'(v) r_v(Psi), D_0 the leading part of
    D_a: r_v(Psi) = sum_j Psi(c prepended to word j of v) on SINF, Psi(v
    with c appended to word j) on S2.  The class forms theta'(v) of one
    content are linearly independent, with disjoint supports on the
    marked-partition basis (SV duality, acceptance criterion 7), and stay
    so times the nonzero polynomial D_0 D'.  So the term vanishes exactly
    when every r_v(Psi) does: the jet rows and these rows cut out one
    subspace, hence span one space.
    """
    if d_max != valuation_floor(stratum):
        raise ValueError(
            f"{stratum.kind} {stratum.subset}: cutoff {d_max} is above the valuation "
            f"floor {valuation_floor(stratum)}, where the singleton rows are proved")
    c = md.beta[stratum.subset[0] - 1]
    if stratum.kind == "S2":
        j = stratum.point - 1
        return [{i: 1} for cls, i in column.items() if cls[j][-1:] == (c,)]
    rest = list(md.beta)
    rest.remove(c)
    N = len(md.instance.points)
    return [{column[v[:j] + ((c,) + v[j],) + v[j + 1:]]: 1 for j in range(N)}
            for v in classes_for(rest, N)]


def admissible_subspace(md, stratum_cap=STRATUM_CAP, with_stats=False):
    """Exact basis of functionals with d^S(R Omega(Psi)) > 0 on the whole catalog.

    Returns the TensorFunctional list (and, when with_stats, one entry per
    stratum: its jet cutoff, constraint rows, how many of them reached
    elimination as a new primitive row (linalg.Echelon skips scalar multiples
    of a row seen before), the rank they gained, whether a floor skipped it
    and whether the nullspace test skipped it).  Classes of the weight-zero
    basis index the unknowns.  A stratum whose cutoff is below its
    valuation_floor or its vandermonde_floor is skipped before any jet is
    built.  A singleton stratum takes its rows from _singleton_rows, every
    other one the rows of _jet_rows, one per jet key in key order.

    While the rows read so far leave a nullspace of one vector psi, a
    non-singleton stratum first takes one jet, that of the pseudo-class of
    _combined_chains (psi is computed once per rank), and is skipped when
    that jet is zero.  This is exact.  The row at key k has the coefficient
    of cls's jet at k in column cls, so row_k . psi is the combined jet's
    coefficient at k: a zero combined jet makes every row of the stratum
    orthogonal to span{psi}, the orthogonal complement of the row space read
    so far, so every row lies in that row space.  The live-chain cuts of
    _jet_rows are exact on any subset of the chains, so the
    combined jet is exactly sum_cls psi_cls * (jet of cls) below the cutoff.
    Reading the stratum would leave the row space, hence the reduced echelon
    form and the nullspace basis, unchanged; a skipped stratum reports 0
    rows, 0 distinct rows and 0 rank.
    """
    instance = md.instance
    beta = md.beta
    N = len(instance.points)
    if not repspace.weight_matches(md.rs, instance.weights, beta):
        return ([], []) if with_stats else []
    basis = classes_for(beta, N)
    chains = _class_chains(basis, beta)
    column = {cls: i for i, cls in enumerate(basis)}
    ncols = len(basis)
    ech = linalg.Echelon(ncols)
    stats = []
    combined = None  # the pseudo-class of the one nullspace vector, per rank
    for stratum in stratum_catalog(md, cap=stratum_cap):
        d_max = jet_cutoff(md, stratum)
        least = max(valuation_floor(stratum), vandermonde_floor(md, stratum))
        entry = {"stratum": stratum, "rows": 0, "distinct_rows": 0, "cutoff": d_max,
                 "rank_gained": 0, "floor_skipped": 0 <= d_max < least,
                 "nullspace_passed": False}
        stats.append(entry)
        if d_max < least:
            continue
        if len(stratum.subset) == 1:
            rows = _singleton_rows(md, stratum, d_max, column)
        else:
            if ech.rank == ncols - 1:
                if combined is None:
                    combined = _combined_chains(chains, ech.nullspace()[0])
                if not _jet_rows(md, stratum, [combined], d_max):
                    entry["nullspace_passed"] = True
                    continue
            rows = list(_jet_rows(md, stratum, chains, d_max).values())
        rank, distinct = ech.rank, len(ech.seen)
        for row in rows:
            ech.add(row)
        entry["rows"] = len(rows)
        entry["distinct_rows"] = len(ech.seen) - distinct
        entry["rank_gained"] = ech.rank - rank
        if ech.rank != rank:
            combined = None
        if ech.rank == ncols:
            break
    vecs = ech.nullspace()
    out = [
        repspace.TensorFunctional(
            {m: v[i] for i, m in enumerate(basis)}, instance.weights, beta
        )
        for v in vecs
    ]
    return (out, stats) if with_stats else out
