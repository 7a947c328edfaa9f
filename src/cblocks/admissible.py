"""Square-integrability of master-function-weighted log forms as jet constraints.

For a problem instance with exponent scale kappa = k + g*, a weight-zero
functional Psi is admissible when the logarithmic degree of R * Omega(Psi) is
strictly positive on every stratum of the catalog: mutual collapses (S1),
collapses to a marked point (S2) and escapes to infinity (SINF).  Each
stratum contributes finitely many linear conditions on Psi: the coefficients
of the low-degree jet of the pole-cleared numerator must vanish.  The
admissible subspace is the exact nullspace of all conditions.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, floor

from . import linalg, repspace
from .logforms import chain_denominator, classes_for, sv_map
from .ratfun import Stratum, demote, iterated_residue, stratum_degree
from .roots import is_positive_root


class MasterData:
    """Instance plus coloring, exponent scale kappa = k + g*, and the cover constant C."""

    def __init__(self, instance, beta, C=None):
        self.instance = instance
        self.rs = instance.rs
        self.beta = tuple(beta)
        for c in self.beta:
            if not 1 <= c <= self.rs.rank:
                raise ValueError("coloring index out of range")
        self.kappa = Fraction(instance.k + self.rs.dual_coxeter)
        self.C = min_even_constant(instance, beta) if C is None else int(C)
        _check_constant(self, self.C)

    @property
    def M(self):
        return len(self.beta)

    def color_root(self, a):
        return self.rs.simple_roots[self.beta[a - 1] - 1]


def _lcm(a, b):
    from math import gcd

    return a * b // gcd(a, b)


def _integrality_requirement(x, even=False):
    """Least d with d*x in Z (or in 2Z when even)."""
    from math import gcd

    f = Fraction(x)
    if not even:
        return f.denominator
    q2 = 2 * f.denominator
    return q2 // gcd(f.numerator, q2)


def min_even_constant(instance, beta):
    """The least C making all master-function exponents integral and even.

    C*(lambda_i,lambda_j), C*(beta_a,beta_b), C*(beta_a,lambda_i) must be
    integers, and C*(alpha,alpha) even for every simple root.
    """
    rs = instance.rs
    C = 1
    weights = instance.weights
    for i in range(len(weights)):
        for j in range(i + 1, len(weights)):
            C = _lcm(C, _integrality_requirement(
                rs.weight_weight_pairing(weights[i], weights[j])))
    roots = [rs.simple_roots[b - 1] for b in beta]
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            C = _lcm(C, _integrality_requirement(rs.killing(roots[a], roots[b])))
        for lam in weights:
            C = _lcm(C, _integrality_requirement(
                rs.weight_root_pairing(lam, roots[a])))
    for i in range(rs.rank):
        C = _lcm(C, _integrality_requirement(rs.gram[i][i], even=True))
    return C


def _check_constant(md, C):
    rs = md.rs
    weights = md.instance.weights
    roots = [rs.simple_roots[b - 1] for b in md.beta]
    for i in range(len(weights)):
        for j in range(i + 1, len(weights)):
            if (C * rs.weight_weight_pairing(weights[i], weights[j])).denominator != 1:
                raise ValueError("C fails weight-weight integrality")
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            if (C * rs.killing(roots[a], roots[b])).denominator != 1:
                raise ValueError("C fails color-color integrality")
        for lam in weights:
            if (C * rs.weight_root_pairing(lam, roots[a])).denominator != 1:
                raise ValueError("C fails weight-color integrality")
    for i in range(rs.rank):
        x = C * rs.gram[i][i]
        if x.denominator != 1 or x.numerator % 2:
            raise ValueError("C fails the evenness requirement")


def r_degree_on_stratum(md, stratum):
    """Exact order of the master function along a stratum.

    S1: sum of -(beta_a,beta_b)/kappa over internal pairs.
    S2: plus (lambda_j,beta_a)/kappa per collapsing variable.
    SINF: -(gamma,gamma)/(2 kappa) - sum_a (beta_a,beta_a)/(2 kappa) in u = 1/t.
    """
    rs = md.rs
    kappa = md.kappa
    sub = stratum.subset
    if stratum.kind in ("S1", "S2"):
        total = Fraction(0)
        for a, b in combinations(sub, 2):
            total -= rs.killing(md.color_root(a), md.color_root(b)) / kappa
        if stratum.kind == "S2":
            lam = md.instance.weights[stratum.point - 1]
            for a in sub:
                total += rs.weight_root_pairing(lam, md.color_root(a)) / kappa
        return total
    gamma = [0] * rs.rank
    for a in sub:
        gamma[md.beta[a - 1] - 1] += 1
    total = -rs.killing(gamma, gamma) / (2 * kappa)
    for a in sub:
        r = md.color_root(a)
        total -= rs.killing(r, r) / (2 * kappa)
    return total


def jet_cutoff(md, stratum):
    """Largest jet degree that must vanish for d^S(R Omega) > 0, or -1 if none.

    The engine multiplies each basis form by the universal denominator; the
    cutoff accounts for the valuation of that multiplier on the stratum.
    """
    L = len(stratum.subset)
    r = r_degree_on_stratum(md, stratum)
    if stratum.kind == "S1":
        # val(Q*Delta) > C(L,2) - (L-1) - r, Delta the universal denominator
        x = Fraction(comb(L, 2) - (L - 1)) - r
    elif stratum.kind == "S2":
        # val(Delta) = C(L,2) + L on the stratum, codim L
        x = Fraction(comb(L, 2)) - r
    else:
        # u = 1/t chart: Qhat = Q o inv times all inverted numerator factors
        # (valuation C(L,2)), Jacobian u^-2 per variable, codim L
        x = Fraction(comb(L, 2) + L) - r
    return floor(x)


# stratum catalog ------------------------------------------------------------


def stratum_catalog(md, cap=6, prune_by_color=True):
    """S1/S2/SINF strata, optionally one representative per color orbit.

    Color-preserving relabelings act on both the class basis and the strata;
    constraint sets of strata in one orbit cut out the same subspace.
    """
    M = md.M
    N = len(md.instance.points)
    out = []
    seen = set()

    def _key(kind, subset, point=None):
        colors = tuple(sorted(md.beta[a - 1] for a in subset))
        return (kind, colors, point)

    for size in range(2, min(M, cap) + 1):
        for subset in combinations(range(1, M + 1), size):
            k = _key("S1", subset)
            if prune_by_color and k in seen:
                continue
            seen.add(k)
            out.append(Stratum("S1", subset))
    for size in range(1, min(M, cap) + 1):
        for subset in combinations(range(1, M + 1), size):
            for j in range(1, N + 1):
                k = _key("S2", subset, j)
                if prune_by_color and k in seen:
                    continue
                seen.add(k)
                out.append(Stratum("S2", subset, j))
    for size in range(1, min(M, cap) + 1):
        for subset in combinations(range(1, M + 1), size):
            k = _key("SINF", subset)
            if prune_by_color and k in seen:
                continue
            seen.add(k)
            out.append(Stratum("SINF", subset))
    return out


# the jet engine -------------------------------------------------------------


def _universe(M, N):
    factors = [("tt", a, b) for a in range(1, M + 1) for b in range(a + 1, M + 1)]
    factors += [("tz", a, j) for a in range(1, M + 1) for j in range(1, N + 1)]
    return factors


def _finite_substitutions(md, stratum, universe):
    """Per-factor polynomials after the stratum shift, width M+1 (slot M+1 = anchor).

    Returns subs[factor] = list of (exponent, coeff) terms.
    """
    M, N = md.M, len(md.instance.points)
    W = M + 1
    sub = set(stratum.subset)
    zs = [demote(z) for z in md.instance.points]
    anchor = stratum.subset[0] if stratum.kind == "S1" else None
    z0 = zs[stratum.point - 1] if stratum.kind == "S2" else None

    def unit(a):
        e = [0] * W
        e[a - 1] = 1
        return tuple(e)

    T = unit(M + 1)
    zero = (0,) * W
    subs = {}
    for f in universe:
        terms = []
        if f[0] == "tt":
            _, a, b = f
            for v, s in ((a, 1), (b, -1)):
                if v in sub:
                    if stratum.kind == "S1":
                        if v != anchor:
                            terms.append((unit(v), s))
                        terms.append((T, s))
                    else:
                        terms.append((unit(v), s))
                        if z0:
                            terms.append((zero, s * z0))
                else:
                    terms.append((unit(v), s))
        else:
            _, a, j = f
            if a in sub:
                if stratum.kind == "S1":
                    if a != anchor:
                        terms.append((unit(a), 1))
                    terms.append((T, 1))
                    terms.append((zero, -zs[j - 1]))
                else:
                    terms.append((unit(a), 1))
                    const = z0 - zs[j - 1]
                    if const:
                        terms.append((zero, const))
            else:
                terms.append((unit(a), 1))
                terms.append((zero, -zs[j - 1]))
        # merge duplicate exponents (anchor == one of the variables cannot collide
        # here, but S2 z0 = z_j makes the constant drop out already)
        merged = {}
        for e, c in terms:
            merged[e] = merged.get(e, 0) + c
        subs[f] = [(e, c) for e, c in merged.items() if c]
    return subs


def _infinity_substitutions(md, stratum, universe):
    """n(factor), m(factor) pairs for the u = 1/t chart; width M+1 (anchor unused)."""
    M, N = md.M, len(md.instance.points)
    W = M + 1
    sub = set(stratum.subset)
    zs = [demote(z) for z in md.instance.points]

    def unit(a):
        e = [0] * W
        e[a - 1] = 1
        return tuple(e)

    zero = (0,) * W
    n_of, m_of = {}, {}
    for f in universe:
        if f[0] == "tt":
            _, a, b = f
            if a in sub and b in sub:
                n_of[f] = [(unit(b), 1), (unit(a), -1)]
                m_of[f] = tuple(x + y for x, y in zip(unit(a), unit(b)))
            elif a in sub:
                e = tuple(x + y for x, y in zip(unit(a), unit(b)))
                n_of[f] = [(zero, 1), (e, -1)]
                m_of[f] = unit(a)
            elif b in sub:
                e = tuple(x + y for x, y in zip(unit(a), unit(b)))
                n_of[f] = [(e, 1), (zero, -1)]
                m_of[f] = unit(b)
            else:
                n_of[f] = [(unit(a), 1), (unit(b), -1)]
                m_of[f] = zero
        else:
            _, a, j = f
            if a in sub:
                n_of[f] = [(zero, 1)] + ([(unit(a), -zs[j - 1])] if zs[j - 1] else [])
                m_of[f] = unit(a)
            else:
                n_of[f] = [(unit(a), 1)] + ([(zero, -zs[j - 1])] if zs[j - 1] else [])
                m_of[f] = zero
    return n_of, m_of


def _check_exponent_packing(M, N, kind):
    """Refuse a stratum whose packed exponent slots could overflow.

    Every term of a factor substitution, and every SINF seed m(f), has
    exponent at most 1 in each slot, so a slot of a class polynomial is at
    most the number of factors in the universe, C(M,2) + M*N, plus as many
    again for the SINF seed.  A slot that reached 256 would carry into the
    next one of the 8-bit packing and silently give a wrong exact answer.
    """
    bound = M * (M - 1) // 2 + M * N
    if kind == "SINF":
        bound *= 2
    if bound >= 256:
        raise ValueError(
            f"M={M}, N={N}: {kind} exponents may reach {bound}, past the "
            "8-bit exponent packing of the jet engine")


def _stratum_class_polys(md, stratum, groups, d_max):
    """Jet polynomial (dict exponent -> coeff) of Q*Delta per class, truncated.

    Delta is the universal denominator restricted per chart; truncation keeps
    collapse-degree <= d_max.  Exponent vectors are packed into integers
    (8 bits per slot, bounded up front by _check_exponent_packing) so
    monomial products are integer additions.
    """
    M, N = md.M, len(md.instance.points)
    _check_exponent_packing(M, N, stratum.kind)
    W = M + 1
    universe = _universe(M, N)
    uslots = [a - 1 for a in stratum.subset]
    if stratum.kind == "S1":
        uslots = [a - 1 for a in stratum.subset[1:]]

    def udeg(e):
        return sum(e[i] for i in uslots)

    def pack(e):
        code = 0
        for i, x in enumerate(e):
            code |= x << (8 * i)
        return code

    if stratum.kind in ("S1", "S2"):
        subs = _finite_substitutions(md, stratum, universe)
        m_of = None
    else:
        subs, m_of = _infinity_substitutions(md, stratum, universe)

    packed = {
        f: sorted(((udeg(e), pack(e), c) for e, c in terms), key=lambda t: t[0])
        for f, terms in subs.items()
    }
    factor_udeg = {f: (t[0][0] if t else 0) for f, t in packed.items()}
    tt_all = [f for f in universe if f[0] == "tt"]
    tz_by_point = {}
    for f in universe:
        if f[0] == "tz":
            tz_by_point.setdefault(f[2], []).append(f)

    def mul_factor(cur, f, cap):
        terms = packed[f]
        nxt = {}
        for (u1, k1), c1 in cur.items():
            for u2, k2, c2 in terms:
                if u1 + u2 > cap:
                    break
                key = (u1 + u2, k1 + k2)
                v = nxt.get(key, 0) + c1 * c2
                if v:
                    nxt[key] = v
                elif key in nxt:
                    del nxt[key]
        return nxt

    def mul_parts(a, b, cap, shift=0):
        out = {}
        for (u1, k1), c1 in a.items():
            for (u2, k2), c2 in b.items():
                u = u1 + u2 + shift
                if u > cap:
                    continue
                key = (u, k1 + k2)
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return out

    one = {(0, 0): 1}

    # products of all (t_a - z_j) substitutions for one point, minus one tail
    tzj_cache = {}

    def tz_point_product(j, excluded):
        key = (j, excluded)
        if key not in tzj_cache:
            cur = one
            for f in tz_by_point.get(j, ()):
                if f[1] == excluded:
                    continue
                cur = mul_factor(cur, f, d_max)
            tzj_cache[key] = cur
        return tzj_cache[key]

    tz_cache = {}

    def tz_product(tails):
        if tails not in tz_cache:
            cur = one
            for j in range(1, N + 1):
                cur = mul_parts(cur, tz_point_product(j, dict(tails).get(j, 0)), d_max)
            tz_cache[tails] = cur
        return tz_cache[tails]

    tt_cache = {}

    def tt_product(edges):
        if edges not in tt_cache:
            comp = [f for f in tt_all if f not in edges]
            comp.sort(key=lambda f: -factor_udeg[f])
            cur = one
            lower = sum(factor_udeg[f] for f in comp)
            for f in comp:
                lower -= factor_udeg[f]
                cur = mul_factor(cur, f, d_max - lower)
                if not cur:
                    break
            tt_cache[edges] = cur
        return tt_cache[edges]

    out = {}
    for cls, mps in groups.items():
        acc = {}
        for mp in mps:
            sign, denom = chain_denominator(mp.pis)
            edges = frozenset(f for f in denom if f[0] == "tt")
            tails = frozenset((f[2], f[1]) for f in denom if f[0] == "tz")
            lower = sum(factor_udeg[f] for f in universe if f not in denom)
            seed_u, seed_code = 0, 0
            if stratum.kind == "SINF":
                for f in denom:
                    me = m_of[f]
                    seed_u += udeg(me)
                    seed_code += pack(me)
            if seed_u + lower > d_max:
                continue
            part = mul_parts(tt_product(edges), tz_product(tails), d_max, shift=seed_u)
            for (u, k), c in part.items():
                key = (u, k + seed_code) if seed_code else (u, k)
                v = acc.get(key, 0) + sign * c
                if v:
                    acc[key] = v
                elif key in acc:
                    del acc[key]
        unpacked = {}
        for (_, code), c in acc.items():
            e = tuple((code >> (8 * i)) & 0xFF for i in range(W))
            unpacked[e] = c
        out[cls] = unpacked
    return out


def admissible_subspace(md, stratum_cap=6, with_stats=False):
    """Exact basis of functionals with d^S(R Omega(Psi)) > 0 on the whole catalog.

    Returns the TensorFunctional list (and per-stratum constraint counts when
    with_stats).  Classes of the weight-zero basis index the unknowns.
    """
    rs = md.rs
    instance = md.instance
    beta = md.beta
    N = len(instance.points)
    basis = repspace.weight_zero_basis(rs, instance.weights, beta)
    if not basis:
        return ([], []) if with_stats else []
    groups = classes_for(beta, N)
    assert sorted(groups) == list(basis)
    ncols = len(basis)
    ech = linalg.Echelon(ncols)
    stats = []
    for stratum in stratum_catalog(md, cap=stratum_cap):
        d_max = jet_cutoff(md, stratum)
        if d_max < 0:
            stats.append({"stratum": stratum, "rows": 0, "cutoff": d_max})
            continue
        polys = _stratum_class_polys(md, stratum, groups, d_max)
        exponents = sorted({e for p in polys.values() for e in p})
        nrows = 0
        for e in exponents:
            row = [polys[cls].get(e, 0) for cls in basis]
            if any(row):
                ech.add(row)
                nrows += 1
        stats.append({"stratum": stratum, "rows": nrows, "cutoff": d_max})
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


# observation checks ---------------------------------------------------------


def observation_check(form, md):
    """Pole-profile battery for a candidate numerator form; violations as data."""
    rs = md.rs
    M, N = md.M, len(md.instance.points)
    violations = []
    for a in range(1, M + 1):
        for b in range(a + 1, M + 1):
            order = form.pole_order(("tt", a, b))
            if order > 1:
                violations.append(("diagonal-order", a, b, order))
            pairing = rs.killing(md.color_root(a), md.color_root(b))
            if pairing >= 0 and order > 0:
                violations.append(("nonneg-color-pole", a, b, order))
    for a in range(1, M + 1):
        if not form.regular_at_infinity(a):
            violations.append(("pole-at-infinity", a))
        for j in range(1, N + 1):
            if form.pole_order(("tz", a, j)) > 1:
                violations.append(("point-order", a, j))
    # collapse vanishing at marked points
    by_color = {}
    for a in range(1, M + 1):
        by_color.setdefault(md.beta[a - 1], []).append(a)
    for j in range(1, N + 1):
        lam = md.instance.weights[j - 1]
        for color, idxs in by_color.items():
            mstar = 1 + lam[color - 1]
            if len(idxs) < mstar:
                continue
            for subset in combinations(idxs, mstar):
                cleared = form
                for a in subset:
                    cleared = cleared.mul_poly(
                        _linear(form.nvars, a, const=md.instance.points[j - 1]))
                s = Stratum("S2", subset, j) if mstar >= 1 else None
                if s and stratum_degree(cleared, s) < 1:
                    violations.append(("point-collapse", j, color, subset))
    # collapse vanishing onto a second color
    for color, idxs in by_color.items():
        for color2, idxs2 in by_color.items():
            mstar = 1 - md.rs.cartan[color - 1][color2 - 1]
            mstar = max(mstar, 1)
            if len(idxs) < mstar:
                continue
            for p in idxs2:
                pool = [a for a in idxs if a != p]
                if len(pool) < mstar:
                    continue
                for subset in combinations(pool, mstar):
                    cleared = form
                    for a in subset:
                        cleared = cleared.mul_poly(_linear(form.nvars, a, var=p))
                    s = Stratum("S1", tuple(subset) + (p,))
                    if stratum_degree(cleared, s) < 1:
                        violations.append(("color-collision", color, color2, subset, p))
    return violations


def _linear(nvars, a, var=None, const=None):
    from .ratfun import SparsePoly

    p = SparsePoly.variable(nvars, a)
    if var is not None:
        return p - SparsePoly.variable(nvars, var)
    return p - SparsePoly.const(nvars, Fraction(const))


def control_poles_check(psi, md, T):
    """Iterated-residue pole profile: color sum a positive root, simple poles only."""
    form = sv_map(psi, md.beta, md.instance.points)
    res = iterated_residue(form, list(T))
    report = {"indices": tuple(T), "nonzero": not res.is_zero()}
    if res.is_zero():
        return report
    gamma = [0] * md.rs.rank
    for a in T:
        gamma[md.beta[a - 1] - 1] += 1
    report["color_sum_positive_root"] = is_positive_root(md.rs, tuple(gamma))
    m = min(T)
    simple = True
    for q in res.variables:
        if q == m:
            continue
        if res.pole_order(("tt", min(m, q), max(m, q))) > 1:
            simple = False
    report["simple_toward_variables"] = simple
    simple_z = all(
        res.pole_order(("tz", m, j)) <= 1
        for j in range(1, len(md.instance.points) + 1)
    )
    report["simple_toward_points"] = simple_z
    report["ok"] = (
        report["color_sum_positive_root"] and simple and simple_z
    )
    return report
