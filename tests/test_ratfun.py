"""Residue calculus: signs, commutation, lowest-degree jets, log degrees."""

import random
from fractions import Fraction

import pytest

from cblocks.ratfun import (RationalForm, ResidueError, SparsePoly, Stratum, _at_const,
                            _by_power, _residue, canonical_tt, chain_sum, demote,
                            divmod_linear, form_sum, iterated_residue, log_degree)
from genforms import per_chain_sum, random_log_form
from paperchecks import factor_poly, lowest_degree_term, sum_residues_zero

PTS2 = (Fraction(0), Fraction(1))


def simple_form(nvars, denom, points, coeff=1):
    return RationalForm(nvars, tuple(range(1, nvars + 1)),
                        SparsePoly.const(nvars, coeff), denom, points)


def test_divmod_linear():
    # (t1 - t2) * (t1 + t2) + 3 divided by (t1 - t2)
    p = SparsePoly(2, {(2, 0): 1, (0, 2): -1, (0, 0): 3})
    q, r = divmod_linear(p, 1, c_var=2)
    assert r.terms == {(0, 0): 3}
    assert q.terms == {(1, 0): 1, (0, 1): 1}
    q, r = divmod_linear(SparsePoly(1, {(1,): 1, (0,): -5}), 1, c_const=5)
    assert r.is_zero() and q.terms == {(0,): 1}


def random_poly(rng, nvars, nterms, rational):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, 3) for _ in range(nvars))
        c = rng.randint(-9, 9)
        terms[e] = Fraction(c, rng.randint(1, 5)) if rational else c
    return SparsePoly(nvars, terms)


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("divisor", ["var", "int", "5/3"])
def test_divmod_linear_identity(rational, divisor):
    # q * (t_a - c) + r == p and r == p with t_a := c, on seeded random input
    rng = random.Random(hash((rational, divisor)) % 1000)
    for _ in range(40):
        p = random_poly(rng, 3, rng.randint(0, 8), rational)
        a = rng.randint(1, 3)
        if divisor == "var":
            b = rng.choice([x for x in (1, 2, 3) if x != a])
            q, r = divmod_linear(p, a, c_var=b)
            lin = SparsePoly.variable(3, a) - SparsePoly.variable(3, b)
            assert r == p.substitute_var(a, b)
        else:
            c = Fraction(rng.randint(-4, 4)) if divisor == "int" else Fraction(5, 3)
            q, r = divmod_linear(p, a, c_const=c)
            lin = SparsePoly.variable(3, a) - SparsePoly.const(3, c)
            assert r.terms == _at_const(p.terms, a, c)
        assert q * lin + r == p
        assert set(_by_power(r.terms, a)) <= {0}


def test_sparse_poly_permute():
    # t1^2 t2 + 3 t3 under t1 -> t3 -> t2 -> t1, and a swap is its own inverse
    p = SparsePoly(3, {(2, 1, 0): 1, (0, 0, 1): 3})
    assert p.permute({1: 3, 3: 2, 2: 1}).terms == {(1, 0, 2): 1, (0, 1, 0): 3}
    assert p.permute({1: 2, 2: 1}).permute({1: 2, 2: 1}) == p
    assert p.permute({}) == p


def test_divmod_linear_exact_quotient():
    rng = random.Random(8)
    for c in (Fraction(5, 3), Fraction(-2), Fraction(0)):
        for _ in range(20):
            q0 = random_poly(rng, 2, 5, rational=True)
            lin = SparsePoly.variable(2, 2) - SparsePoly.const(2, c)
            q, r = divmod_linear(q0 * lin, 2, c_const=c)
            assert r.is_zero() and q == q0


def evaluate(form, values):
    """Exact value of N/D at a point of t-space (a dict index -> Fraction)."""
    def at(poly):
        total = Fraction(0)
        for e, c in poly.terms.items():
            term = Fraction(c)
            for i, k in enumerate(e):
                if k:
                    term *= values[i + 1] ** k
            total += term
        return total

    den = Fraction(1)
    for f, m in form.denominator.items():
        den *= at(factor_poly(f, form.nvars, form.points)) ** m
    return at(form.numerator) / den


def random_form(rng, points, max_mult):
    factors = [("tt", 1, 2), ("tt", 1, 3), ("tt", 2, 3)]
    factors += [("tz", a, j) for a in (1, 2, 3) for j in range(1, len(points) + 1)]
    denom = {f: rng.randint(1, max_mult) for f in rng.sample(factors, rng.randint(0, 3))}
    return RationalForm(3, (1, 2, 3), random_poly(rng, 3, 3, rational=True),
                        denom, points)


def assert_sum_matches(forms, points):
    total = form_sum(forms, 3, (1, 2, 3), points)
    folded = RationalForm.zero(3, (1, 2, 3), points)
    for f in forms:
        folded = folded + f
    assert total.numerator.terms == folded.numerator.terms
    assert total.denominator == folded.denominator
    # against exact evaluation, which shares no code with the form arithmetic
    # denominators 11, 13, 17 keep the values apart from each other and the points
    rng = random.Random(len(forms))
    for _ in range(3):
        values = {a: Fraction(p * rng.randint(-5, 5) + rng.randint(1, p - 1), p)
                  for a, p in ((1, 11), (2, 13), (3, 17))}
        assert evaluate(total, values) == sum(evaluate(f, values) for f in forms)
    return total


@pytest.mark.parametrize("points", [PTS2, (Fraction(1, 2), Fraction(-5, 3))])
def test_form_sum_equals_pairwise_fold(points):
    rng = random.Random(21)
    for _ in range(30):
        forms = [random_form(rng, points, max_mult=2) for _ in range(rng.randint(0, 5))]
        assert_sum_matches(forms, points)


def test_form_sum_cancellation_disjoint_and_repeated_factors():
    pts = (Fraction(1, 2), Fraction(4))
    rng = random.Random(5)
    for _ in range(10):
        f = random_form(rng, pts, max_mult=3)
        g = random_form(rng, pts, max_mult=3)
        # cancellation to zero, in any position of the list
        zero = assert_sum_matches([f, g, f.scale(-1), g.scale(-1)], pts)
        assert zero.is_zero() and zero.denominator == {}
    # disjoint denominators: the lcm is the product
    a = simple_form(3, {("tt", 1, 2): 1}, pts)
    b = simple_form(3, {("tz", 3, 2): 2}, pts)
    total = assert_sum_matches([a, b], pts)
    assert total.denominator == {("tt", 1, 2): 1, ("tz", 3, 2): 2}
    # repeated factors: the pole order drops where the leading parts cancel,
    # 1/(t1-t2)^2 + (t1-t2-1)/(t1-t2)^2 = 1/(t1-t2)
    u = simple_form(3, {("tt", 1, 2): 2}, pts)
    t12 = SparsePoly.variable(3, 1) - SparsePoly.variable(3, 2)
    w = RationalForm(3, (1, 2, 3), t12 - SparsePoly.const(3, 1), {("tt", 1, 2): 2}, pts)
    total = assert_sum_matches([u, w], pts)
    assert total.denominator == {("tt", 1, 2): 1}
    assert total.numerator.terms == {(0, 0, 0): 1}
    v = RationalForm(3, (1, 2, 3), SparsePoly.variable(3, 3) - SparsePoly.const(3, 1),
                     {("tt", 1, 2): 2, ("tz", 3, 1): 1}, pts)
    total = assert_sum_matches([u, v, u.scale(-1)], pts)
    assert total.denominator == {("tt", 1, 2): 2, ("tz", 3, 1): 1}


def test_form_sum_rejects_mixed_spaces():
    a = simple_form(2, {("tz", 1, 1): 1}, PTS2)
    b = simple_form(2, {("tz", 1, 1): 1}, (Fraction(0), Fraction(2)))
    with pytest.raises(ValueError):
        form_sum([a, b], 2, (1, 2), PTS2)
    assert form_sum([], 2, (1, 2), PTS2).is_zero()


@pytest.mark.parametrize("points", [PTS2, (Fraction(1, 2), Fraction(-5, 3))])
def test_chain_sum_matches_per_chain_forms(points):
    # repeated factors, cancelling and zero constants included
    rng = random.Random(8)
    factors = [("tt", 1, 2), ("tt", 1, 3), ("tt", 2, 3)]
    factors += [("tz", a, j) for a in (1, 2, 3) for j in (1, 2)]
    for _ in range(40):
        chains = [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   {f: rng.randint(1, 2) for f in rng.sample(factors, rng.randint(0, 4))})
                  for _ in range(rng.randint(0, 6))]
        chains += [(-c, d) for c, d in chains[:rng.randint(0, 2)]]
        got = chain_sum(chains, 3, (1, 2, 3), points)
        want = per_chain_sum(chains, 3, (1, 2, 3), points)
        assert (got.numerator.terms, got.denominator) == (
            want.numerator.terms, want.denominator)
        assert got.points == tuple(points)
    assert chain_sum([], 2, (1, 2), PTS2).is_zero()
    assert chain_sum([(0, {("tz", 1, 1): 1})], 2, (1, 2), PTS2).denominator == {}


@pytest.mark.parametrize("points", [PTS2, (Fraction(1, 2), Fraction(-5, 3))])
def test_equality_compares_reduced_forms(points):
    rng = random.Random(13)
    factors = [("tt", 1, 2), ("tt", 1, 3), ("tt", 2, 3)]
    factors += [("tz", a, j) for a in (1, 2, 3) for j in (1, 2)]
    for _ in range(30):
        chains = [(Fraction(rng.randint(1, 3), rng.randint(1, 3)),
                   {f: rng.randint(1, 2) for f in rng.sample(factors, rng.randint(1, 4))})
                  for _ in range(rng.randint(1, 5))]
        got = chain_sum(chains, 3, (1, 2, 3), points)
        want = form_sum([simple_form(3, d, points, c) for c, d in chains],
                        3, (1, 2, 3), points)
        assert got == want and not got != want
        extra = simple_form(3, {("tz", 1, 1): 3}, points)
        assert got != form_sum([want, extra], 3, (1, 2, 3), points)
        assert (got == got.scale(2)) == got.is_zero()
    # the constructor reduces: (t1 - t2)/(t1 - t2)^2 is 1/(t1 - t2)
    t12 = SparsePoly.variable(3, 1) - SparsePoly.variable(3, 2)
    assert RationalForm(3, (1, 2, 3), t12, {("tt", 1, 2): 2}, points) == simple_form(
        3, {("tt", 1, 2): 1}, points)


def test_equality_refuses_forms_on_different_spaces():
    a = simple_form(2, {("tz", 1, 1): 1}, PTS2)
    others = [simple_form(2, {("tz", 1, 1): 1}, (Fraction(0), Fraction(2))),
              simple_form(3, {("tz", 1, 1): 1}, PTS2),
              RationalForm(2, (1,), SparsePoly.const(2, 1), {("tz", 1, 1): 1}, PTS2)]
    for b in others:
        with pytest.raises(ValueError, match="different spaces"):
            a == b
        with pytest.raises(ValueError, match="different spaces"):
            b != a


def test_scale_copies_a_reduced_form():
    pts = (Fraction(1, 2), Fraction(4))
    rng = random.Random(3)
    for _ in range(10):
        f = random_form(rng, pts, max_mult=2)
        terms, denom = dict(f.numerator.terms), dict(f.denominator)
        g = f.scale(Fraction(-3, 2))
        assert (f.numerator.terms, f.denominator) == (terms, denom)
        # already reduced: the constructor has nothing left to divide out
        again = RationalForm(3, f.variables, g.numerator, g.denominator, pts)
        assert (g.numerator.terms, g.denominator) == (again.numerator.terms,
                                                      again.denominator)
        assert g.numerator.terms == {e: Fraction(-3, 2) * c for e, c in terms.items()}
        zero = f.scale(0)
        assert zero.is_zero() and zero.denominator == {}
        assert (f.numerator.terms, f.denominator) == (terms, denom)


def test_defining_residue():
    # dt1^dt2/(t2-t1) -> dt1 along t2 = t1
    f = simple_form(2, {("tt", 1, 2): 1}, PTS2, coeff=-1)
    r = f.residue_diagonal(2, 1)
    assert r.numerator.terms == {(0, 0): 1} and not r.denominator


def test_no_pole_residue_zero():
    f = simple_form(2, {("tz", 1, 1): 1, ("tz", 2, 1): 1}, PTS2)
    assert f.residue_diagonal(2, 1).is_zero()


def test_chain_residue_sign():
    # eta_1 = dt1^dt2/((t1-t2)(t2-z1)) -> -dt1/(t1-z1)
    f = simple_form(2, {("tt", 1, 2): 1, ("tz", 2, 1): 1}, PTS2)
    r = f.residue_diagonal(2, 1)
    assert r.numerator.terms == {(0, 0): -1}
    assert r.denominator == {("tz", 1, 1): 1}


def test_point_residues():
    f = simple_form(1, {("tz", 1, 1): 1}, (Fraction(0),))
    r = f.residue_at_point(1, 1)
    assert r.numerator.terms == {(0,): 1} and r.variables == ()
    assert f.residue_at_point(1, 1).variables == ()
    g = simple_form(1, {}, (Fraction(0),))
    assert g.residue_at_point(1, 1).is_zero()


def test_higher_order_pole_errors():
    f = simple_form(2, {("tt", 1, 2): 2}, PTS2)
    with pytest.raises(ResidueError):
        f.residue_diagonal(2, 1)
    with pytest.raises(ResidueError):
        f.residue_diagonal(1, 1)
    g = simple_form(1, {("tz", 1, 1): 2}, (Fraction(0),))
    with pytest.raises(ResidueError):
        g.residue_at_point(1, 1)


# The two routes that the residue kernel ratfun._residue replaced, kept as its
# oracles: the substitution body of RationalForm.residue_diagonal, and the
# point kernel with the residue_at_point body around it.


def substitution_residue_diagonal(form, a, b):
    """Poincare residue along t_a = t_b, keeping the smaller variable.

    Extraction against f = t_hi - t_lo; the stored canonical factor is
    t_lo - t_hi = -f, hence the constant -1.
    """
    if a == b:
        raise ResidueError("a = b")
    lo, hi = min(a, b), max(a, b)
    if lo not in form.variables or hi not in form.variables:
        raise ValueError("inactive variable")
    pole = ("tt", lo, hi)
    mult = form.denominator.get(pole, 0)
    if mult > 1:
        raise ResidueError(f"pole of order {mult} along {pole}")
    new_vars = tuple(v for v in form.variables if v != hi)
    if mult == 0:
        return RationalForm.zero(form.nvars, new_vars, form.points)
    num = form.numerator.substitute_var(hi, lo).scale(-1)
    denom = {}
    for f, m in form.denominator.items():
        if f == pole:
            continue
        if f[0] == "tt":
            x, y = f[1], f[2]
            if hi in (x, y):
                x = lo if x == hi else x
                y = lo if y == hi else y
                nf, s = canonical_tt(x, y)
                if s < 0 and m % 2:
                    num = num.scale(-1)
                f = nf
        else:
            if f[1] == hi:
                f = ("tz", lo, f[2])
        denom[f] = denom.get(f, 0) + m
    return RationalForm(form.nvars, new_vars, num, denom, form.points)


def point_residue(terms, denominator, a, j, points):
    """The residue of N/D along t_a = z_j, as (terms, denominator, scalar)
    with the residue equal to scalar * N'/D'; the pole must be simple.

    N' is N with t_a := z_j.  In D' a factor (t_a - t_y) becomes
    (z_j - t_y) = -(t_y - z_j), a factor (t_x - t_a) becomes (t_x - z_j),
    and a factor (t_a - z_k) becomes the constant z_j - z_k; the signs and
    the constants go into the scalar.  Nothing is reduced.
    """
    z = points[j - 1]
    pole = ("tz", a, j)
    denom = {}
    sign, const = 1, 1
    for f, m in denominator.items():
        if f == pole:
            continue
        if f[0] == "tt":
            x, y = f[1], f[2]
            if x == a:
                # (z_j - t_y) = -(t_y - z_j)
                f = ("tz", y, j)
                if m % 2:
                    sign = -sign
            elif y == a:
                f = ("tz", x, j)
        elif f[1] == a:
            const *= (z - points[f[2] - 1]) ** m
            continue
        denom[f] = denom.get(f, 0) + m
    scalar = sign if const == 1 else Fraction(sign) / const
    return _at_const(terms, a, z), denom, scalar


def point_residue_form(form, a, j):
    """Poincare residue along t_a = z_j (`point_residue`, then reduced)."""
    if a not in form.variables:
        raise ValueError("inactive variable")
    pole = ("tz", a, j)
    mult = form.denominator.get(pole, 0)
    if mult > 1:
        raise ResidueError(f"pole of order {mult} along {pole}")
    new_vars = tuple(v for v in form.variables if v != a)
    if mult == 0:
        return RationalForm.zero(form.nvars, new_vars, form.points)
    terms, denom, scalar = point_residue(form.numerator.terms, form.denominator,
                                         a, j, form.points)
    num = SparsePoly(form.nvars, terms).scale(demote(scalar))
    return RationalForm(form.nvars, new_vars, num, denom, form.points)


def residue_outcome(residue, *args):
    """The reduced (variables, denominator, numerator terms) of a residue, or
    ResidueError."""
    try:
        form = residue(*args)
    except ResidueError:
        return ResidueError
    return form.variables, form.denominator, form.numerator.terms


@pytest.mark.parametrize("points", [(Fraction(0), Fraction(1), Fraction(3)),
                                    (Fraction(1, 2), Fraction(-5, 3), Fraction(4))])
def test_residue_kernel_matches_the_replaced_routes(points):
    # random forms in t_1..t_5 with factor multiplicities 1-3; along a
    # diagonal (lo, hi), each factor t_x - t_hi is told apart by where x
    # lies, and t_hi - z_k by itself, each with odd and even multiplicity
    rng = random.Random(17)
    variables = (1, 2, 3, 4, 5)
    factors = [("tt", x, y) for x in variables for y in variables if x < y]
    factors += [("tz", a, j) for a in variables for j in (1, 2, 3)]
    seen = {}
    for _ in range(600):
        denom = {f: rng.randint(1, 3) for f in rng.sample(factors, rng.randint(1, 7))}
        if rng.randint(0, 1):
            lo, hi = sorted(rng.sample(variables, 2))
            pole = ("tt", lo, hi)
        else:
            pole = ("tz", rng.choice(variables), rng.randint(1, 3))
        denom[pole] = rng.choice((1, 1, 1, 1, 1, 1, 2, 3))
        num = random_poly(rng, 5, rng.randint(1, 4), rational=rng.randint(0, 1))
        form = RationalForm(5, variables, num, denom, points)
        if pole[0] == "tz":
            _, a, j = pole
            got = residue_outcome(form.residue_at_point, a, j)
            assert got == residue_outcome(point_residue_form, form, a, j)
            if form.denominator.get(pole) == 1:
                raw = (form.numerator.terms, form.denominator)
                assert _residue(*raw, pole, form.points) == point_residue(
                    *raw, a, j, form.points)
            key = "point"
        else:
            args = rng.choice(((hi, lo), (lo, hi)))
            got = residue_outcome(form.residue_diagonal, *args)
            assert got == residue_outcome(substitution_residue_diagonal, form, *args)
            key = "diagonal"
        if got is ResidueError:
            seen["error", key] = seen.get(("error", key), 0) + 1
        elif not got[2]:
            seen["zero", key] = seen.get(("zero", key), 0) + 1
        elif key == "diagonal":
            for f, m in form.denominator.items():
                if f[0] == "tt" and hi in f[1:] and f != pole:
                    x = f[1] if f[2] == hi else f[2]
                    where = "below" if x < lo else "between" if x < hi else "above"
                elif f[0] == "tz" and f[1] == hi:
                    where = "tz"
                else:
                    continue
                seen[where, m % 2] = seen.get((where, m % 2), 0) + 1
    for where in ("below", "between", "above", "tz"):
        assert seen.get((where, 0), 0) >= 5 and seen.get((where, 1), 0) >= 5, where
    for key in ("point", "diagonal"):
        assert seen.get(("error", key), 0) >= 5 and seen.get(("zero", key), 0) >= 1


def test_residue_at_point_refuses_a_point_the_form_lacks():
    f = simple_form(2, {("tz", 1, 1): 1, ("tz", 2, 2): 1}, PTS2)
    for j in (0, 3, -1):
        with pytest.raises(ValueError, match=f"no marked point z_{j}"):
            f.residue_at_point(1, j)
    assert f.residue_at_point(1, 2).is_zero()
    assert f.residue_at_point(1, 1).denominator == {("tz", 2, 2): 1}


def test_pole_orders():
    f = simple_form(2, {("tt", 1, 2): 2}, PTS2)
    assert f.pole_order(("tt", 1, 2)) == 2
    assert f.pole_order(("tz", 1, 1)) == 0
    # numerator divisibility reduces the order
    num = SparsePoly(2, {(1, 0): 1, (0, 1): -1})
    g = RationalForm(2, (1, 2), num, {("tt", 1, 2): 2}, PTS2)
    assert g.pole_order(("tt", 1, 2)) == 1


def test_iterated_residue_identity_and_disjoint_commute():
    rng = random.Random(3)
    nonzero = 0
    for _ in range(40):
        form = random_log_form(rng, 4, 2)
        assert (iterated_residue(form, [2]) - form).is_zero()
        a = iterated_residue(iterated_residue(form, [1, 2]), [3, 4])
        b = iterated_residue(iterated_residue(form, [3, 4]), [1, 2])
        assert (a - b).is_zero()
        nonzero += not a.is_zero()
    assert nonzero >= 10


def test_iterated_residue_rejects_inactive_index():
    form = random_log_form(random.Random(4), 2, 2)
    assert iterated_residue(form, []) is form
    assert iterated_residue(form, [2]) is form
    for indices in ([9], [3], [1, 9], [9, 1]):
        with pytest.raises(ValueError, match="inactive variable"):
            iterated_residue(form, indices)
    one = iterated_residue(form, [1, 2])
    with pytest.raises(ValueError, match="inactive variable"):
        iterated_residue(one, [2])


def test_iterated_residue_rejects_a_repeated_index():
    form = random_log_form(random.Random(4), 3, 2)
    for indices, a in (([2, 2], 2), ([1, 1], 1), ([1, 2, 1], 1)):
        with pytest.raises(ValueError, match=f"repeated index {a}"):
            iterated_residue(form, indices)
    assert iterated_residue(form, [1]) is form


def test_residue_regular_off_pole_locus():
    from cblocks.logforms import enumerate_marked_partitions, omega_basis_form
    from cblocks.ratfun import RationalForm

    rng = random.Random(9)
    pts = (Fraction(0), Fraction(1))
    # forms whose chains avoid the 13 and 23 edges: regular on those divisors
    pool = []
    for mp in enumerate_marked_partitions(3, 2):
        edges = {frozenset(c[i:i + 2]) for c in mp.pis for i in range(len(c) - 1)}
        if frozenset((1, 3)) not in edges and frozenset((2, 3)) not in edges:
            pool.append(mp)
    checked = 0
    for _ in range(60):
        total = RationalForm.zero(3, (1, 2, 3), pts)
        for mp in rng.sample(pool, 3):
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            total = total + omega_basis_form(mp, pts).scale(c or 1)
        if total.is_zero() or total.pole_order(("tt", 1, 2)) != 1:
            continue
        assert total.pole_order(("tt", 1, 3)) == 0
        assert total.pole_order(("tt", 2, 3)) == 0
        res = total.residue_diagonal(2, 1)
        assert res.pole_order(("tt", 1, 3)) == 0
        checked += 1
    assert checked >= 20


def test_lowest_degree_example():
    f = simple_form(2, {("tt", 1, 2): 1}, PTS2)
    s = Stratum("S1", (1, 2))
    d0, hn, hd, P = lowest_degree_term(f, s)
    assert d0 == 0 and P == {("tt", 1, 2): 1}
    # the stratum degree d0 - deg(P) is the log degree less the codimension 1
    assert d0 - sum(P.values()) == log_degree(f, s) - 1 == -1
    assert log_degree(f, s) == 0


def _u_valuation_on(poly, subset):
    """Valuation of a polynomial in the difference variables of an S1 collapse."""
    if poly.is_zero():
        return None
    s = subset[0]
    work = poly
    for a in subset[1:]:
        repl = SparsePoly.variable(poly.nvars, s) + SparsePoly.variable(poly.nvars, a)
        work = work.substitute_poly(a, repl)
    slots = [a - 1 for a in subset[1:]]
    return min(sum(e[i] for i in slots) for e in work.terms)


def test_initial_variable_independence():
    # d0 never depends on the anchor; the lowest terms agree as stratum jets:
    # the cross-multiplied difference has valuation above d0
    rng = random.Random(21)
    checked = 0
    for _ in range(30):
        form = random_log_form(rng, 3, 1)
        if form.is_zero():
            continue
        s = Stratum("S1", (1, 2, 3))
        results = [lowest_degree_term(form, s, initial=a) for a in (1, 2, 3)]
        d0s = {r[0] for r in results}
        assert len(d0s) == 1
        d0 = results[0][0]
        for (_, hn1, hd1, _), (_, hn2, hd2, _) in zip(results, results[1:]):
            diff = hn1 * hd2 - hn2 * hd1
            if not diff.is_zero():
                assert _u_valuation_on(diff, (1, 2, 3)) > d0
        checked += 1
    assert checked >= 20


def test_lowest_term_symmetry():
    # if Q is symmetric in t1, t2, so is the lowest term; anchor at t3 so the
    # swap acts purely on the difference variables
    pts = (Fraction(0),)
    sym = simple_form(3, {("tz", 1, 1): 1, ("tz", 2, 1): 1, ("tt", 1, 2): 2}, pts)
    # (t1-t2)^2 denominator keeps the example symmetric with a genuine pole
    s = Stratum("S1", (1, 2, 3))
    _, hn, hd, _ = lowest_degree_term(sym, s, initial=3)

    def swap_poly(p):
        out = {}
        for e, c in p.terms.items():
            ee = list(e)
            ee[0], ee[1] = ee[1], ee[0]
            out[tuple(ee)] = c
        return SparsePoly(p.nvars, out)

    assert (swap_poly(hd) - hd).is_zero()
    assert (swap_poly(hn) - hn).is_zero()


def _lowest_term_has_pole(form, stratum, pair):
    """Whether the lowest degree term keeps the pole along the pair divisor."""
    d0, hn, hd, P = lowest_degree_term(form, stratum)
    mult = P.get(("tt",) + pair, 0)
    if mult == 0:
        return False
    q, r = divmod_linear(hn, pair[1], c_var=pair[0])
    divis = 0
    while r.is_zero() and divis < mult:
        divis += 1
        q, r = divmod_linear(q, pair[1], c_var=pair[0])
    return divis < mult


def test_log_degree_under_residues():
    # a pole in the lowest term preserves the log degree; a holomorphic
    # lowest term strictly raises it; never decreases either way
    rng = random.Random(33)
    eq_seen = strict_seen = 0
    for _ in range(200):
        form = random_log_form(rng, 3, 1, nterms=3)
        if form.is_zero() or form.pole_order(("tt", 1, 2)) != 1:
            continue
        s = Stratum("S1", (1, 2, 3))
        res = form.residue_diagonal(2, 1)
        if res.is_zero():
            continue
        sstar = Stratum("S1", (1, 3))
        d_before = log_degree(form, s)
        d_after = log_degree(res, sstar)
        if _lowest_term_has_pole(form, s, (1, 2)):
            assert d_before == d_after
            eq_seen += 1
        else:
            assert d_before < d_after
            strict_seen += 1
        assert d_before <= d_after
    assert eq_seen >= 5 and strict_seen >= 1


def test_division_lemma_spot():
    # residuating along a pole of the lowest term creates no new lowest-term
    # poles along unrelated diagonals
    pts = (Fraction(0),)
    f = simple_form(3, {("tt", 2, 3): 1, ("tz", 1, 1): 1, ("tz", 3, 1): 1}, pts)
    s = Stratum("S1", (1, 2, 3))
    assert _lowest_term_has_pole(f, s, (2, 3))
    assert not _lowest_term_has_pole(f, s, (1, 2))
    res = f.residue_diagonal(3, 2)
    sstar = Stratum("S1", (1, 2))
    assert not _lowest_term_has_pole(res, sstar, (1, 2))


def test_log_degree_s2_and_infinity():
    f = simple_form(1, {("tz", 1, 1): 1}, (Fraction(0),))
    assert log_degree(f, Stratum("S2", (1,), 1)) == 0
    assert log_degree(f, Stratum("SINF", (1,))) == 0
    g = simple_form(1, {}, (Fraction(0),))
    # dt alone: no pole at z, degree 1 at infinity chart: d = 0 - 2 + 1 = -1
    assert log_degree(g, Stratum("SINF", (1,))) == -1
    assert log_degree(g, Stratum("S2", (1,), 1)) == 1


def test_regular_form_log_degree_bound():
    # regular forms have d^S >= L - 1 on S1 strata
    rng = random.Random(4)
    for _ in range(20):
        n = SparsePoly(3, {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(1, 5)})
        f = RationalForm(3, (1, 2, 3), n, {}, (Fraction(0),))
        s = Stratum("S1", (1, 2, 3))
        assert log_degree(f, s) >= 2


def test_sum_residues_zero():
    f = simple_form(1, {("tz", 1, 1): 1}, PTS2)
    g = simple_form(1, {("tz", 1, 2): 1}, PTS2)
    assert sum_residues_zero(f - g)
    assert sum_residues_zero(f)
    rng = random.Random(77)
    for _ in range(50):
        form = random_log_form(rng, 1, 2)
        assert sum_residues_zero(form)


def test_two_point_residue_device():
    # t * Omega' mechanism: f(infty) = -sum_i Res_{t=z_i} t Omega'
    z1, z2 = Fraction(0), Fraction(1)
    # Omega' = dt/((t-z1)(t-z2)) has f(infty)-value 0; t*Omega' residues:
    # z1/(z1-z2) + z2/(z2-z1) = -... worked by hand: residues sum to 1? check:
    num = SparsePoly.variable(1, 1)
    tform = RationalForm(1, (1,), num, {("tz", 1, 1): 1, ("tz", 1, 2): 1}, (z1, z2))
    r1 = tform.residue_at_point(1, 1).numerator.terms.get((0,), Fraction(0))
    r2 = tform.residue_at_point(1, 2).numerator.terms.get((0,), Fraction(0))
    # t/( (t-0)(t-1) ) = 1/(t-1): residues: at 0: 0, at 1: 1; value at infinity
    # of f where Omega' = f du/...: -sum = -1 matches the 1/t coefficient
    assert (r1, r2) == (Fraction(0), Fraction(1))
    assert sum_residues_zero(tform)


def test_stratum_validation():
    with pytest.raises(ValueError):
        Stratum("S1", (1,))
    with pytest.raises(ValueError):
        Stratum("S2", (1, 2))
    with pytest.raises(ValueError):
        Stratum("BAD", (1, 2))
    for args in (("S1", (0, 1)), ("S2", (1,), 0), ("S2", (0, 2), 1), ("SINF", (-1,))):
        with pytest.raises(ValueError, match="stratum indices start at 1"):
            Stratum(*args)


def test_degrees_refuse_a_stratum_off_the_form():
    # f lives in t_1, t_2 with two points; g in t_1 alone, with nvars 2
    f = simple_form(2, {("tz", 1, 1): 1, ("tz", 2, 2): 1}, PTS2)
    g = RationalForm(2, (1,), SparsePoly.const(2, 1), {("tz", 1, 1): 1}, PTS2)
    cases = [(f, Stratum("S2", (1,), 3)), (f, Stratum("S1", (1, 7))),
             (f, Stratum("SINF", (3,))), (g, Stratum("SINF", (2,))),
             (g, Stratum("S1", (1, 2))), (g, Stratum("S2", (2,), 1)),
             (RationalForm.zero(2, (1,), PTS2), Stratum("S1", (1, 2)))]
    for form, stratum in cases:
        for degree in (log_degree, lowest_degree_term):
            with pytest.raises(ValueError, match="outside the form's"):
                degree(form, stratum)
    assert log_degree(g, Stratum("SINF", (1,))) == 0
    assert log_degree(f, Stratum("S2", (2,), 2)) == 0
