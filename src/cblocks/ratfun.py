"""Exact calculus of top-degree meromorphic forms with structured denominators.

Forms are N/D * dt_{v1} ^ ... ^ dt_{vm} with N a sparse polynomial in the
t-variables (marked points z_j are exact rational constants) and D a multiset
of linear factors of the two shapes (t_a - t_b), a < b, and (t_a - z_j).
The wedge is always stored in ascending variable order.

Every form is kept reduced: no factor of D divides N, which makes N/D unique.
Reduction is remainder-first: the remainder of N by (t_a - c) is N with
t_a := c, so a factor is divided out only after that substitution vanishes.
Sums go over one common denominator: each numerator is multiplied by its
cofactor, the numerators are added, and the result is reduced once.  The sum
of forms (`form_sum`) and the sum of constants over chain denominators
(`chain_sum`) share that one kernel; a chain sum builds no form per chain.
Integral constants enter the arithmetic as ints (`demote`), so integral input
never pays for Fraction arithmetic.  One residue kernel, `_residue`, takes
the residue along a diagonal or a marked point on raw terms and returns it
unreduced, with its signs and point constants in one rational scalar;
`residue_diagonal` and `residue_at_point` hand that to the constructor,
which reduces, and the residue descent of `logforms.expand_in_basis` runs
on it without building a form.  Because a reduced N/D is unique, two
reduced forms on one space are equal exactly when their (denominator,
numerator terms) pairs are.

Sign convention: a residue extracts against f = t_larger - t_smaller
(diagonals) or f = t_a - z_j (points) with a constant sign, i.e.
Res(N/((t_hi - t_lo) D)) = +(N/D)| and Res(N/((t_a - z_j) D)) = +(N/D)|;
the stored diagonal factor is t_lo - t_hi = -f.
The constant (position-independent) sign is what makes disjoint iterated
residues commute exactly; a wedge-position sign would make them alternate.
"""

from copy import copy
from fractions import Fraction


def demote(x):
    """An exact rational as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f.numerator if f.denominator == 1 else f


def _exact(points):
    """The marked points as a tuple of Fractions."""
    if type(points) is tuple and all(type(p) is Fraction for p in points):
        return points
    return tuple(Fraction(p) for p in points)


class ResidueError(ValueError):
    """Higher-order pole where a simple one is required."""


# sparse polynomials --------------------------------------------------------


class SparsePoly:
    """Sparse polynomial: exponent tuple -> nonzero coefficient (int/Fraction)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def const(cls, nvars, c):
        p = cls(nvars)
        if c:
            p.terms[(0,) * nvars] = c
        return p

    @classmethod
    def variable(cls, nvars, a):
        e = [0] * nvars
        e[a - 1] = 1
        return cls(nvars, {tuple(e): 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return SparsePoly(self.nvars, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return SparsePoly(self.nvars, out)

    def scale(self, c):
        if c == 0:
            return SparsePoly(self.nvars)
        return SparsePoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def substitute_var(self, a, b):
        """t_a := t_b."""
        p = SparsePoly(self.nvars)
        p.terms = _at_var(self.terms, a, b)
        return p

    def substitute_poly(self, a, repl):
        """t_a := repl (a SparsePoly of the same width)."""
        by_power = _by_power(self.terms, a)
        out = SparsePoly(self.nvars)
        power = SparsePoly.const(self.nvars, 1)
        for k in range(max(by_power, default=-1) + 1):
            if k in by_power:
                out = out + _poly(self.nvars, by_power[k]) * power
            power = power * repl
        return out

    def permute(self, mapping):
        """Relabel slot a -> mapping[a] (1-based; slots not in `mapping` stay)."""
        out = {}
        for e, c in self.terms.items():
            ee = [0] * self.nvars
            for i, k in enumerate(e):
                if k:
                    ee[mapping.get(i + 1, i + 1) - 1] = k
            key = tuple(ee)
            out[key] = out.get(key, 0) + c
        return _poly(self.nvars, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"t{i+1}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(bits)


def _at_const(terms, a, value):
    """The term dict with t_a := value (exact rational), zeros dropped."""
    value = demote(value)
    i = a - 1
    out = {}
    for e, c in terms.items():
        k = e[i]
        if k:
            c = c * value ** k
            e = e[:i] + (0,) + e[i + 1:]
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _at_var(terms, a, b):
    """The term dict with t_a := t_b, zeros dropped."""
    i, j = a - 1, b - 1
    out = {}
    for e, c in terms.items():
        k = e[i]
        if k:
            e = list(e)
            e[i] = 0
            e[j] += k
            e = tuple(e)
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _by_power(terms, a):
    """The term dict split by the power of t_a: power k -> the terms with t_a^k,
    their t_a exponent set to 0."""
    i = a - 1
    out = {}
    for e, c in terms.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return out


def _poly(nvars, terms):
    """A SparsePoly that takes over `terms`, its zero coefficients dropped."""
    p = SparsePoly(nvars)
    p.terms = {e: c for e, c in terms.items() if c}
    return p


def divmod_linear(p, a, c_var=None, c_const=None):
    """Synthetic division of p by (t_a - c), c a variable or a constant.

    Returns (quotient, remainder); remainder is p with t_a := c.  Works on the
    term dicts: the coefficient of t_a^k (a polynomial in the other slots) is
    carried down as q_{k-1} = p_k + c * q_k, and c * q_k only shifts the
    t_{c_var} exponent or scales by the constant.
    """
    i = a - 1
    by_power = _by_power(p.terms, a)
    if c_var is None:
        c = demote(c_const)
    else:
        j = c_var - 1
    quot = {}
    carry = {}
    for k in range(max(by_power, default=0), -1, -1):
        cur = by_power.get(k, {})
        for e, v in carry.items():
            cur[e] = cur.get(e, 0) + v
        if k == 0:
            return _poly(p.nvars, quot), _poly(p.nvars, cur)
        cur = {e: v for e, v in cur.items() if v}
        for e, v in cur.items():
            quot[e[:i] + (k - 1,) + e[i + 1:]] = v
        if c_var is not None:
            carry = {e[:j] + (e[j] + 1,) + e[j + 1:]: v for e, v in cur.items()}
        else:
            carry = {e: c * v for e, v in cur.items()} if c else {}


def _mul_linear(terms, a, c_var, c_const):
    """Term dict times (t_a - c), c the variable t_{c_var} or the constant c_const."""
    i = a - 1
    out = {}
    for e, v in terms.items():
        ea = e[:i] + (e[i] + 1,) + e[i + 1:]
        out[ea] = out.get(ea, 0) + v
    if c_var is not None:
        j = c_var - 1
        for e, v in terms.items():
            eb = e[:j] + (e[j] + 1,) + e[j + 1:]
            out[eb] = out.get(eb, 0) - v
    elif c_const:
        for e, v in terms.items():
            out[e] = out.get(e, 0) - c_const * v
    return {e: v for e, v in out.items() if v}


# linear factors -------------------------------------------------------------


def canonical_tt(x, y):
    """(t_x - t_y) as (factor, sign) with ascending indices."""
    if x == y:
        raise ValueError("degenerate factor")
    if x < y:
        return ("tt", x, y), 1
    return ("tt", y, x), -1


def _linear_parts(factor, points):
    """(a, c_var, c_const) with the factor equal to t_a - c."""
    if factor[0] == "tt":
        return factor[1], factor[2], None
    return factor[1], None, demote(points[factor[2] - 1])


def divide_out(num, factor, m, points, floor=0):
    """(num, order): the factor, of order m in the denominator, divided out
    of the numerator num while its order is above floor and the remainder
    num|_{t_a := c} vanishes.  The order left is the factor's true pole
    order when it is above floor."""
    a, c_var, c_const = _linear_parts(factor, points)
    while m > floor and num.terms:
        if c_var is not None:
            rem = _at_var(num.terms, a, c_var)
        else:
            rem = _at_const(num.terms, a, c_const)
        if rem:
            break
        num, _ = divmod_linear(num, a, c_var, c_const)
        m -= 1
    return num, m


class Stratum:
    """Coincidence pattern: S1 mutual collapse, S2 collapse to z_j, SINF escape."""

    __slots__ = ("kind", "subset", "point")

    def __init__(self, kind, subset, point=None):
        if kind not in ("S1", "S2", "SINF"):
            raise ValueError(f"bad stratum kind {kind}")
        subset = tuple(sorted(subset))
        if kind == "S1" and len(subset) < 2:
            raise ValueError("S1 needs at least two variables")
        if kind in ("S2", "SINF") and len(subset) < 1:
            raise ValueError("stratum needs a variable")
        if (kind == "S2") != (point is not None):
            raise ValueError("point index exactly for S2")
        if subset[0] < 1 or (point is not None and point < 1):
            raise ValueError("stratum indices start at 1")
        self.kind = kind
        self.subset = subset
        self.point = point

    def __repr__(self):
        if self.kind == "S2":
            return f"Stratum(S2, {self.subset}, z{self.point})"
        return f"Stratum({self.kind}, {self.subset})"

    def __eq__(self, other):
        return (self.kind, self.subset, self.point) == (
            other.kind, other.subset, other.point)

    def __hash__(self):
        return hash((self.kind, self.subset, self.point))


class RationalForm:
    """Top-degree form N/D dt_{v1}^...^dt_{vm} over exact rationals.

    `variables` is the ascending tuple of active t-indices, `denominator`
    a dict factor -> positive multiplicity.  Construction divides out of the
    numerator every denominator factor that divides it, so pole orders read
    off the multiset and N/D is unique.
    """

    def __init__(self, nvars, variables, numerator, denominator, points):
        self.nvars = nvars
        self.variables = tuple(sorted(variables))
        self.numerator = numerator
        self.denominator = {f: m for f, m in denominator.items() if m}
        self.points = _exact(points)
        self._reduce()
        if self.numerator.is_zero():
            self.denominator = {}

    @classmethod
    def zero(cls, nvars, variables, points):
        return cls(nvars, variables, SparsePoly(nvars), {}, points)

    def is_zero(self):
        return self.numerator.is_zero()

    def _reduce(self):
        """Divide out each factor while the remainder N|_{t_a := c} vanishes."""
        num = self.numerator
        for factor, m in list(self.denominator.items()):
            num, left = divide_out(num, factor, m, self.points)
            if left:
                self.denominator[factor] = left
            else:
                del self.denominator[factor]
        self.numerator = num

    # arithmetic -----------------------------------------------------------

    def scale(self, c):
        # a nonzero multiple of a reduced numerator stays reduced, so the
        # copy skips the constructor's reduction
        out = copy(self)
        out.numerator = self.numerator.scale(demote(c))
        if out.numerator.is_zero():
            out.denominator = {}
        return out

    def __add__(self, other):
        return form_sum((self, other), self.nvars, self.variables, self.points)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        # a reduced N/D is unique, so the reduced pairs decide equality
        if (other.nvars, other.variables, other.points) != (
                self.nvars, self.variables, self.points):
            raise ValueError("forms live on different spaces")
        return (self.denominator, self.numerator.terms) == (
            other.denominator, other.numerator.terms)

    def __repr__(self):
        dd = " ".join(f"{f}^{m}" for f, m in sorted(self.denominator.items()))
        return f"RationalForm(({self.numerator}) / [{dd}] d{self.variables})"

    # pole structure ---------------------------------------------------------

    def pole_order(self, factor):
        """Order of the pole along the divisor given by a canonical factor."""
        if len(factor) == 3 and factor[0] == "tt" and factor[1] > factor[2]:
            factor = ("tt", factor[2], factor[1])
        return self.denominator.get(factor, 0)

    # residues ---------------------------------------------------------------

    def residue_diagonal(self, a, b):
        """Poincare residue along t_a = t_b, keeping the smaller variable."""
        if a == b:
            raise ResidueError("a = b")
        lo, hi = min(a, b), max(a, b)
        if lo not in self.variables or hi not in self.variables:
            raise ValueError("inactive variable")
        return self._residue_along(("tt", lo, hi), hi)

    def residue_at_point(self, a, j):
        """Poincare residue along t_a = z_j."""
        if a not in self.variables:
            raise ValueError("inactive variable")
        if not 1 <= j <= len(self.points):
            raise ValueError(f"no marked point z_{j}: the form has {len(self.points)}")
        return self._residue_along(("tz", a, j), a)

    def _residue_along(self, pole, a):
        """The reduced residue along a canonical factor that eliminates t_a
        (`_residue`); zero where there is no pole."""
        mult = self.denominator.get(pole, 0)
        if mult > 1:
            raise ResidueError(f"pole of order {mult} along {pole}")
        new_vars = tuple(v for v in self.variables if v != a)
        if mult == 0:
            return RationalForm.zero(self.nvars, new_vars, self.points)
        terms, denom, scalar = _residue(self.numerator.terms, self.denominator,
                                        pole, self.points)
        num = _poly(self.nvars, terms)
        if scalar != 1:
            num = num.scale(demote(scalar))
        return RationalForm(self.nvars, new_vars, num, denom, self.points)


def _residue(terms, denominator, pole, points):
    """The residue of N/D along a simple pole, as (terms, denominator,
    scalar) with the residue equal to scalar * N'/D'.

    The pole is the canonical factor that vanishes at t_a = c: a diagonal
    ("tt", lo, hi) has a = hi, c = t_lo and the sign -1, as the residue
    extracts against t_hi - t_lo, the negative of the stored factor; a point
    ("tz", a, j) has c = z_j and the sign +1.  N' is N with t_a := c, and D' is D without the pole, with
    t_a := c in every other factor: a t - t factor is made canonical again,
    its sign going into the scalar once per odd multiplicity, and t_a - z_k
    becomes t_lo - z_k on a diagonal and the constant z_j - z_k, also put
    in the scalar, at a point.  So integral terms stay ints.  Nothing is
    reduced: D' may hold a factor twice, or a factor that divides N'.
    """
    if pole[0] == "tt":
        _, lo, a = pole
        terms, sign = _at_var(terms, a, lo), -1
    else:
        _, a, j = pole
        lo, z = None, points[j - 1]
        terms, sign = _at_const(terms, a, z), 1
    denom = {}
    const = 1
    for f, m in denominator.items():
        if f == pole:
            continue
        if f[0] == "tt":
            x, y = f[1], f[2]
            if x == a or y == a:
                if lo is None:
                    # (t_a - t_y) = -(t_y - z_j), (t_x - t_a) = (t_x - z_j)
                    f, s = ("tz", y if x == a else x, j), -1 if x == a else 1
                else:
                    f, s = canonical_tt(lo if x == a else x, lo if y == a else y)
                if s < 0 and m % 2:
                    sign = -sign
        elif f[1] == a:
            if lo is None:
                const *= (z - points[f[2] - 1]) ** m
                continue
            f = ("tz", lo, f[2])
        denom[f] = denom.get(f, 0) + m
    scalar = sign if const == 1 else Fraction(sign) / const
    return terms, denom, scalar


def form_sum(forms, nvars, variables, points):
    """Sum of forms on one space, over one common denominator (`_lcm_sum`).
    With no forms the result is the zero form."""
    forms = list(forms)
    space = (nvars, tuple(sorted(variables)), _exact(points))
    if any((form.nvars, form.variables, form.points) != space for form in forms):
        raise ValueError("forms live on different spaces")
    return _lcm_sum([(form.numerator.terms, form.denominator)
                     for form in forms if not form.is_zero()], nvars, variables, points)


def chain_sum(chains, nvars, variables, points):
    """The reduced form sum of c/denom over (c, denom) pairs: exact rational
    constants c over chain denominators (dicts factor -> multiplicity).

    No form is built per chain: the constants go straight into the common
    denominator sum (`_lcm_sum`).  Pairs with c = 0 add nothing.
    """
    one = (0,) * nvars
    return _lcm_sum([({one: demote(c)}, denom) for c, denom in chains if c],
                    nvars, variables, points)


def _lcm_sum(parts, nvars, variables, points):
    """The reduced form sum of N/D over (terms of N, D) pairs with N nonzero.

    The denominator is the lcm of the D; each N is multiplied by its
    cofactor, the numerators are added, and the sum is reduced once.  The
    cofactors are multiplied out Horner-style: each cofactor lists its
    factors in one order, most widely needed first, and summands whose lists
    share a prefix are added before that prefix is multiplied in.
    """
    denom = {}
    for _, d in parts:
        for f, m in d.items():
            if m > denom.get(f, 0):
                denom[f] = m
    need = {f: sum(d.get(f, 0) < m for _, d in parts) for f, m in denom.items()}
    order = sorted(denom, key=lambda f: (-need[f], f))
    root = ({}, {})  # (terms, factor -> child): a trie over cofactor lists
    for num, d in parts:
        terms, children = root
        for f in order:
            for _ in range(denom[f] - d.get(f, 0)):
                terms, children = children.setdefault(f, ({}, {}))
        for e, c in num.items():
            terms[e] = terms.get(e, 0) + c
    linear = {f: _linear_parts(f, points) for f in denom}
    return RationalForm(nvars, variables, _poly(nvars, _horner(root, linear)),
                        denom, points)


def _horner(node, parts):
    """Terms of a cofactor trie node: its own terms plus f * child for each child."""
    terms, children = node
    for f, child in children.items():
        for e, c in _mul_linear(_horner(child, parts), *parts[f]).items():
            terms[e] = terms.get(e, 0) + c
    return terms


def _fvars(factor):
    return (factor[1], factor[2]) if factor[0] == "tt" else (factor[1],)


def iterated_residue(form, indices):
    """Res along t_m = t_a for a in indices minus its minimum, in the given order.

    A single index leaves the form unchanged; every index must be active, and
    none may repeat.
    """
    indices = list(indices)
    if any(a not in form.variables for a in indices):
        raise ValueError("inactive variable")
    for i, a in enumerate(indices):
        if a in indices[:i]:
            raise ValueError(f"repeated index {a}")
    if len(indices) <= 1:
        return form
    m = min(indices)
    out = form
    for a in indices:
        if a == m:
            continue
        out = out.residue_diagonal(a, m)
    return out


# stratum expansions ---------------------------------------------------------


def _anchor(form, stratum):
    """(anchor, u_slots): near an S1/S2 stratum t_a = anchor + u_a for a in
    u_slots, and u_a reuses slot a.

    S1: the anchor is t_s for the least variable s, u_s = 0.
    S2: the anchor is the constant z_j, for every subset variable.
    """
    if stratum.kind == "S1":
        s = stratum.subset[0]
        return SparsePoly.variable(form.nvars, s), list(stratum.subset[1:])
    if stratum.kind == "S2":
        z = form.points[stratum.point - 1]
        return SparsePoly.const(form.nvars, z), list(stratum.subset)
    raise ValueError("S1/S2 only")


def _shift(poly, anchor, u_slots):
    """Into the chart: t_a := anchor + u_a."""
    for a in u_slots:
        poly = poly.substitute_poly(a, anchor + SparsePoly.variable(poly.nvars, a))
    return poly


def _u_valuation(poly, u_slots):
    if poly.is_zero():
        return None
    slots = [a - 1 for a in u_slots]
    return min(sum(e[i] for i in slots) for e in poly.terms)


def internal_factors(form, stratum):
    """Denominator factors vanishing identically on the stratum (the correction factor)."""
    sub = set(stratum.subset)
    out = {}
    for f, m in form.denominator.items():
        if f[0] == "tt" and f[1] in sub and f[2] in sub:
            out[f] = m
        elif (
            stratum.kind == "S2"
            and f[0] == "tz"
            and f[1] in sub
            and f[2] == stratum.point
        ):
            out[f] = m
    return out


def _check_on(form, stratum):
    """Refuse a stratum whose variables or point the form does not have."""
    if not set(stratum.subset) <= set(form.variables):
        raise ValueError(f"{stratum} has a variable outside the form's {form.variables}")
    if stratum.kind == "S2" and stratum.point > len(form.points):
        raise ValueError(f"{stratum} has a point outside the form's {len(form.points)}")


def log_degree(form, stratum):
    """Logarithmic degree d^S: stratum degree plus the stratum codimension.

    On S1/S2 the stratum degree is d0 - deg(P): d0 the valuation of the
    numerator in the collapse variables u_a (t_a = anchor + u_a), P the
    internal factors of the denominator.  S1 of size L has codimension L-1,
    S2 has L; SINF computed after u = 1/t with the Jacobian factor u^-2 per
    inverted variable.
    """
    _check_on(form, stratum)
    if form.is_zero():
        return None
    if stratum.kind in ("S1", "S2"):
        codim = len(stratum.subset) - (1 if stratum.kind == "S1" else 0)
        anchor, u_slots = _anchor(form, stratum)
        d0 = _u_valuation(_shift(form.numerator, anchor, u_slots), u_slots)
        return d0 - sum(internal_factors(form, stratum).values()) + codim
    sub = set(stratum.subset)
    m = len(sub)
    slots = [a - 1 for a in sub]
    # t^e inverts to u^-e, so val(N o inv) = -max over terms of the subset degree
    val_num = -max(sum(e[i] for i in slots) for e in form.numerator.terms)
    incident = sum(
        mult for f, mult in form.denominator.items() if sub & set(_fvars(f))
    )
    return val_num + incident - 2 * m + m
