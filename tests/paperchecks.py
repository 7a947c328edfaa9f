"""The paper's checks that the tests run on forms and instances, none of them
on the verdict path: the pole profiles of a candidate form
(`observation_check`, `control_poles_check`), its lowest jet on a stratum
(`lowest_degree_term`, the anchor independence of acceptance criterion 6),
the total residue of a univariate form (`sum_residues_zero`, criterion 6),
the invariance battery of criterion 8 (`vacuum_propagation_check`,
`z_independence_check`) and row-space membership (`span_contains`, the
containment checks of criteria 1-2)."""

from fractions import Fraction
from itertools import combinations

from cblocks import linalg
from cblocks.blocks import BlockInstance, conformal_blocks
from cblocks.logforms import sv_map
from cblocks.ratfun import (ResidueError, SparsePoly, Stratum, _anchor, _by_power,
                            _check_on, _linear_parts, _shift, _u_valuation,
                            internal_factors, iterated_residue, log_degree)


def factor_poly(factor, nvars, points):
    """A denominator factor t_a - c as a SparsePoly."""
    a, c_var, c_const = _linear_parts(factor, points)
    if c_var is not None:
        return SparsePoly.variable(nvars, a) - SparsePoly.variable(nvars, c_var)
    return SparsePoly.variable(nvars, a) - SparsePoly.const(nvars, c_const)


def observation_check(form, md):
    """Pole-profile battery for a candidate numerator form; violations as data."""
    if form.is_zero():
        return []  # no poles, so no violations
    rs = md.rs
    M, N = md.M, len(md.instance.points)
    roots = [rs.simple_roots[c - 1] for c in md.beta]
    violations = []
    for a in range(1, M + 1):
        for b in range(a + 1, M + 1):
            order = form.pole_order(("tt", a, b))
            if order > 1:
                violations.append(("diagonal-order", a, b, order))
            pairing = rs.killing(roots[a - 1], roots[b - 1])
            if pairing >= 0 and order > 0:
                violations.append(("nonneg-color-pole", a, b, order))
    for a in range(1, M + 1):
        # no pole at t_a = infinity: deg_a N - (factors at t_a) <= -2, that is
        # log degree >= 1 on SINF (a,)
        if log_degree(form, Stratum("SINF", (a,))) < 1:
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
                if log_degree(form, Stratum("S2", subset, j)) < 1:
                    violations.append(("point-collapse", j, color, subset))
    # collapse vanishing onto a second color
    for color, idxs in by_color.items():
        for color2, idxs2 in by_color.items():
            mstar = max(1 - rs.cartan[color - 1][color2 - 1], 1)
            if len(idxs) < mstar:
                continue
            for p in idxs2:
                pool = [a for a in idxs if a != p]
                if len(pool) < mstar:
                    continue
                for subset in combinations(pool, mstar):
                    if log_degree(form, Stratum("S1", subset + (p,))) < 1:
                        violations.append(("color-collision", color, color2, subset, p))
    return violations


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
    report["color_sum_positive_root"] = tuple(gamma) in md.rs.positive_roots
    m = min(T)
    simple = all(res.pole_order(("tt", m, q)) <= 1 for q in res.variables if q != m)
    report["simple_toward_variables"] = simple
    simple_z = all(res.pole_order(("tz", m, j)) <= 1
                   for j in range(1, len(md.instance.points) + 1))
    report["simple_toward_points"] = simple_z
    report["ok"] = report["color_sum_positive_root"] and simple and simple_z
    return report


def lowest_degree_term(form, stratum, initial=None):
    """(d0, h_num, h_den, P): lowest jet of P*Q on the stratum.

    P is the minimal internal correction factor; d0 the valuation of P*Q in
    the collapse variables; h = h_num/h_den the lowest term written back in
    the original t variables (u_a replaced by t_a - anchor).  `initial`
    selects the S1 anchor variable (default the least); d0 and h do not
    depend on it.
    """
    _check_on(form, stratum)
    if form.is_zero():
        raise ValueError("zero form has no lowest term")
    P = internal_factors(form, stratum)
    if stratum.kind == "S1" and initial is not None:
        if initial not in stratum.subset:
            raise ValueError("initial variable must belong to the stratum")
        anchor = SparsePoly.variable(form.nvars, initial)
        u_slots = [a for a in stratum.subset if a != initial]
    else:
        anchor, u_slots = _anchor(form, stratum)
    num = _shift(form.numerator, anchor, u_slots)
    d0 = _u_valuation(num, u_slots)
    slots = [a - 1 for a in u_slots]
    low = SparsePoly(num.nvars,
                     {e: c for e, c in num.terms.items()
                      if sum(e[i] for i in slots) == d0})
    for a in u_slots:  # back out of the chart: u_a := t_a - anchor
        low = low.substitute_poly(a, SparsePoly.variable(form.nvars, a) - anchor)
    h_den = SparsePoly.const(form.nvars, 1)
    for f, m in form.denominator.items():
        if f in P:
            continue
        # degree-0 part of the factor on the stratum: t_a := anchor
        fp = factor_poly(f, form.nvars, form.points)
        for a in u_slots:
            fp = fp.substitute_poly(a, anchor)
        for _ in range(m):
            h_den = h_den * fp
    return d0, low, h_den, P


def sum_residues_zero(form):
    """Check that all residues of a univariate rational 1-form sum to zero.

    Finite residues are extracted at the simple poles t = z_j; the residue at
    infinity comes from the 1/t coefficient of the expansion there.
    """
    if form.is_zero():
        return True
    if len(form.variables) != 1:
        raise ValueError("need a 1-form in a single variable")
    (a,) = form.variables
    one = (0,) * form.nvars
    total = Fraction(0)
    for f, m in form.denominator.items():
        if f[0] != "tz" or f[1] != a:
            raise ValueError("univariate form with a foreign factor")
        if m > 1:
            raise ResidueError("higher-order pole")
        res = form.residue_at_point(a, f[2])
        total += res.numerator.terms.get(one, Fraction(0))
    # residue at infinity: -(coefficient of t^{deg D - 1} of N mod D) / lc(D)
    num = form.numerator
    den = SparsePoly.const(form.nvars, 1)
    for f, m in form.denominator.items():
        fp = factor_poly(f, form.nvars, form.points)
        for _ in range(m):
            den = den * fp
    dd = max(_by_power(den.terms, a))
    while num.terms:
        by_power = _by_power(num.terms, a)
        k = max(by_power)
        if k < dd:
            break
        shift = one[:a - 1] + (k - dd,) + one[a:]
        num = num - den * SparsePoly(form.nvars, {shift: by_power[k].get(one)})
    res_inf = -_by_power(num.terms, a).get(dd - 1, {}).get(one, Fraction(0))
    return total + res_inf == 0


def vacuum_propagation_check(instance, beta):
    """dim is unchanged by appending the vacuum weight at a fresh point."""
    rs = instance.rs
    extended = BlockInstance(rs, instance.k, list(instance.weights) + [(0,) * rs.rank],
                             list(instance.points) + [max(instance.points) + 11])
    return conformal_blocks(extended, beta).dim == conformal_blocks(instance, beta).dim


def z_independence_check(instance, beta, alt_points):
    """Equal dimensions at two generic point configurations."""
    alt = BlockInstance(instance.rs, instance.k, instance.weights, alt_points)
    return conformal_blocks(instance, beta).dim == conformal_blocks(alt, beta).dim


def span_contains(rows, vector):
    """Whether `vector` lies in the row span of `rows`."""
    return not linalg._absorb(linalg._echelon(rows), linalg._integer_row(vector))
