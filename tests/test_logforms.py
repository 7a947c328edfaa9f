"""Marked partitions, symmetrized classes, the SV map and correlators."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial

import pytest

from cblocks.logforms import (chain_denominator, class_chains, class_of,
                              classes_for, correlation_function,
                              enumerate_marked_partitions, expand_in_basis,
                              omega_basis_form, sv_map,
                              symmetrized_basis, MarkedPartition)
from cblocks.ratfun import (RationalForm, ResidueError, SparsePoly, canonical_tt, chain_sum,
                            form_sum)
from cblocks.repspace import (TensorFunctional, free_bracket,
                              invariant_functionals, weight_zero_basis)
from cblocks.roots import build_root_system
from cblocks import logforms
from genforms import (class_partitions, form_descent_expand, nested_marked_partitions,
                      per_chain_sum, random_class_coefficients, random_combination,
                      random_log_form)

SL2 = build_root_system("A", 1)
SL3 = build_root_system("A", 2)
PTS1 = (Fraction(0),)
PTS2 = (Fraction(0), Fraction(1))
PTS4 = tuple(map(Fraction, (0, 1, 3, 7)))
# non-integral points keep Fraction coefficients in the form arithmetic
PTS_Q = (Fraction(1, 2), Fraction(-5, 3), Fraction(4))


@pytest.mark.parametrize("M", range(6))
@pytest.mark.parametrize("N", range(1, 5))
def test_count_formula(M, N):
    mps = enumerate_marked_partitions(M, N)
    assert len(mps) == factorial(M) * comb(M + N - 1, N - 1)
    assert len(set(mps)) == len(mps)


@pytest.mark.parametrize("M", range(6))
@pytest.mark.parametrize("N", range(1, 5))
def test_enumeration_matches_nested_route(M, N):
    # cutting permutations at the kvec boundaries lists the same partitions,
    # in the same order, as choosing each chain from the still free indices
    got = [(mp.kvec, mp.pis) for mp in enumerate_marked_partitions(M, N)]
    assert got == [(mp.kvec, mp.pis) for mp in nested_marked_partitions(M, N)]


def test_enumeration_builds_only_the_compositions_it_lists():
    # the compositions are generated from bar positions, not filtered out of
    # all (M+1)^N tuples, which for M = 1, N = 30 would be 2^30 of them
    assert len(enumerate_marked_partitions(1, 30)) == 30
    assert len(enumerate_marked_partitions(2, 12)) == 2 * comb(13, 11)


def test_small_counts():
    assert len(enumerate_marked_partitions(1, 1)) == 1
    assert len(enumerate_marked_partitions(2, 1)) == 2
    assert len(enumerate_marked_partitions(3, 2)) == 24


def test_marked_partition_validation():
    with pytest.raises(ValueError):
        MarkedPartition([(1, 1), ()])
    with pytest.raises(ValueError):
        MarkedPartition([(1, 3)])


def test_basis_form_shapes():
    mp = MarkedPartition([(1,)])
    f = omega_basis_form(mp, PTS1)
    assert f.denominator == {("tz", 1, 1): 1}
    mp = MarkedPartition([(1, 2)])
    f = omega_basis_form(mp, PTS1)
    assert f.denominator == {("tt", 1, 2): 1, ("tz", 2, 1): 1}
    assert f.numerator.terms == {(0, 0): 1}


def test_chain_denominator():
    # (t3 - t1)(t1 - z1) and (t2 - z2): the (t3 - t1) factor is stored as
    # (t1 - t3), which takes out a sign
    sign, denom = chain_denominator(((3, 1), (2,)))
    assert sign == -1
    assert denom == {("tt", 1, 3): 1, ("tz", 1, 1): 1, ("tz", 2, 2): 1}
    assert chain_denominator(((), ())) == (1, {})
    sign, denom = chain_denominator(((1, 2, 3),))
    assert sign == 1 and denom == {("tt", 1, 2): 1, ("tt", 2, 3): 1, ("tz", 3, 1): 1}


@pytest.mark.parametrize("r", range(1, 5))
@pytest.mark.parametrize("y", ["point", "next-variable", "lower-variable"])
def test_run_orderings_sum_to_product(r, y):
    # sum over sigma of 1/((x_s1 - x_s2) ... (x_sr - y)) = prod_a 1/(x_a - y),
    # the closed form in which the admissibility engine sums the first run
    # of each word; y is the point z_2 or a variable whose chain then ends
    # at z_2, of larger or smaller index than the run's
    if y == "point":
        run, tail = range(1, r + 1), ()
    elif y == "next-variable":
        run, tail = range(1, r + 1), (r + 1,)
    else:
        run, tail = range(2, r + 2), (1,)
    M = r + len(tail)
    variables = tuple(range(1, M + 1))
    total = form_sum([omega_basis_form(MarkedPartition([(), perm + tail, ()]), PTS_Q)
                      for perm in permutations(run)], M, variables, PTS_Q)
    if tail:
        sign = (-1) ** r if y == "lower-variable" else 1
        denom = {("tt", min(a, tail[0]), max(a, tail[0])): 1 for a in run}
        denom[("tz", tail[0], 2)] = 1
    else:
        sign, denom = 1, {("tz", a, 2): 1 for a in run}
    product = RationalForm(M, variables, SparsePoly.const(M, sign), denom, PTS_Q)
    assert len(total.denominator) == M
    assert (total - product).is_zero()


def test_residue_duality():
    # a basis form survives the point residue iff the variable is the chain tail
    for mp in enumerate_marked_partitions(3, 2):
        f = omega_basis_form(mp, PTS2)
        for j, chain in enumerate(mp.pis, start=1):
            for a in (1, 2, 3):
                r = f.residue_at_point(a, j)
                expect = bool(chain) and chain[-1] == a
                assert (not r.is_zero()) == expect


def test_symmetrized_theta_example():
    sym = symmetrized_basis([1, 1], 1, PTS1)
    assert len(sym) == 1
    _, theta = sym[0]
    want = RationalForm(2, (1, 2), SparsePoly.const(2, 1),
                        {("tz", 1, 1): 1, ("tz", 2, 1): 1}, PTS1)
    assert (theta - want).is_zero()


def test_distinct_colors_classes_match_partitions():
    beta = [1, 2]
    sym = symmetrized_basis(beta, 2, PTS2)
    assert len(sym) == len(enumerate_marked_partitions(2, 2))


def test_class_count_equals_weight_basis():
    beta = [1, 1, 2]
    lams = [(1, 0), (1, 0), (1, 0)]
    sym = symmetrized_basis(beta, 3, tuple(map(Fraction, (0, 1, 3))))
    basis = weight_zero_basis(SL3, lams, beta)
    assert sorted(cls for cls, _ in sym) == basis


def test_sv_map_dual_basis_to_class_form():
    lams = [(1,), (1,)]
    beta = [1]
    basis = weight_zero_basis(SL2, lams, beta)
    sym = dict(symmetrized_basis(beta, 2, PTS2))
    for mono in basis:
        psi = TensorFunctional({mono: 1}, lams, beta)
        assert (sv_map(psi, beta, PTS2) - sym[mono]).is_zero()


def test_sv_map_zero_and_linearity():
    lams = [(1,), (1,)]
    beta = [1]
    basis = weight_zero_basis(SL2, lams, beta)
    zero = TensorFunctional({}, lams, beta)
    assert sv_map(zero, beta, PTS2).is_zero()
    a = TensorFunctional({basis[0]: Fraction(2)}, lams, beta)
    b = TensorFunctional({basis[1]: Fraction(-3)}, lams, beta)
    ab = TensorFunctional({basis[0]: Fraction(2), basis[1]: Fraction(-3)}, lams, beta)
    assert (sv_map(ab, beta, PTS2)
            - sv_map(a, beta, PTS2) - sv_map(b, beta, PTS2)).is_zero()


def test_expand_round_trip():
    lams = [(1,), (1,), (1,), (1,)]
    beta = [1, 1]
    basis = weight_zero_basis(SL2, lams, beta)
    psi = TensorFunctional(
        {m: Fraction(i - 2, 3) for i, m in enumerate(basis)}, lams, beta)
    form = sv_map(psi, beta, PTS4)
    coeffs = expand_in_basis(form, PTS4)
    # every compatible marked partition carries exactly its class coefficient
    from cblocks.logforms import enumerate_marked_partitions

    for mp in enumerate_marked_partitions(2, 4):
        want = psi.coeffs.get(class_of(mp, beta), 0)
        assert coeffs.get(mp, 0) == want


def test_expand_random_combination():
    rng = random.Random(13)
    mps = enumerate_marked_partitions(3, 2)
    chosen = {}
    total = RationalForm.zero(3, (1, 2, 3), PTS2)
    for mp in rng.sample(mps, 5):
        c = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        chosen[mp] = chosen.get(mp, 0) + c
        total = total + omega_basis_form(mp, PTS2).scale(c)
    got = expand_in_basis(total, PTS2)
    assert got == {m: c for m, c in chosen.items() if c}


@pytest.mark.parametrize("M,N", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_expand_random_combination_non_integral_points(M, N):
    pts = PTS_Q[:N]
    for seed in range(3):
        want = random_combination(random.Random(seed), M, N, nterms=5)
        form = random_log_form(random.Random(seed), M, N, points=pts, nterms=5)
        assert expand_in_basis(form, pts) == want


@pytest.mark.parametrize("M", [1, 2, 3])
def test_sv_duality_non_integral_points(M):
    # the dual of each class maps to its class form and expands with unit
    # coefficients on the class's marked partitions, which partition them all
    for N in (1, 2, 3):
        pts = PTS_Q[:N]
        colorings = [[1] * M] + ([[1 + (a % 2) for a in range(M)]] if M >= 2 else [])
        for beta in colorings:
            dummy = [(0,) * max(beta)] * N
            sym = dict(symmetrized_basis(beta, N, pts))
            supports = []
            for cls, theta in sym.items():
                image = sv_map(TensorFunctional({cls: 1}, dummy, beta), beta, pts)
                assert (image - theta).is_zero()
                coeffs = expand_in_basis(image, pts)
                assert set(coeffs.values()) == {1}
                assert {class_of(mp, beta) for mp in coeffs} == {cls}
                supports.append(set(coeffs))
            covered = set().union(*supports)
            assert len(covered) == sum(map(len, supports))
            assert covered == set(enumerate_marked_partitions(M, N))


@pytest.mark.parametrize("points", [(0, 1, 3), (Fraction(1, 2), Fraction(-5, 3), 4),
                                    (2, 5, 6)])
def test_basis_forms_peel_to_one(points):
    # expand_in_basis reads the constant at the end of each residue path as a
    # coefficient: a basis form descends to 1 along its own path and to
    # nothing along any other
    points = tuple(map(Fraction, points))
    for M in range(1, 5):
        for N in range(1, 4):
            for mp in enumerate_marked_partitions(M, N):
                form = omega_basis_form(mp, points[:N])
                assert expand_in_basis(form, points[:N]) == {mp: 1}, mp


@pytest.mark.parametrize("M", range(5))
@pytest.mark.parametrize("N", range(1, 4))
def test_class_partitions_match_grouped_enumeration(M, N):
    # the classes, the reference's partitions of each class and the class
    # forms summed from class_chains all agree with the marked partitions
    # grouped by class; the reduced forms are unique, so they are identical.
    # The last coloring has colors outside 1..rank.
    colorings = [(1,) * M, tuple(1 + (a % 2) for a in range(M)),
                 tuple(1 + (a % 3) for a in range(M)), tuple(3 * (a % 2) for a in range(M))]
    pts = PTS_Q[:N]
    for beta in colorings:
        groups = {}
        for mp in enumerate_marked_partitions(M, N):
            groups.setdefault(class_of(mp, beta), []).append(mp)
        assert classes_for(beta, N) == sorted(groups)
        for cls, theta in symmetrized_basis(beta, N, pts):
            assert class_partitions(cls, beta) == groups[cls]
            want = form_sum([omega_basis_form(mp, pts) for mp in groups[cls]],
                            M, tuple(range(1, M + 1)), pts)
            assert (theta.numerator.terms, theta.denominator) == (
                want.numerator.terms, want.denominator), cls


def same_form(got, want):
    return (got.numerator.terms, got.denominator) == (want.numerator.terms, want.denominator)


def per_chain_route(monkeypatch, fn, *args):
    """fn(*args) with logforms summing its chains one form per chain."""
    with monkeypatch.context() as m:
        m.setattr(logforms, "chain_sum", per_chain_sum)
        return fn(*args)


@pytest.mark.parametrize("M", range(1, 5))
@pytest.mark.parametrize("N", range(1, 4))
def test_chain_sums_match_per_chain_route(M, N, monkeypatch):
    # the svmap-duality sizes, at integral and at non-integral points: the
    # class forms, the SV images of every class and of a combination of all
    # of them, and the basis forms are identical to the per-chain sums
    for pts in ((2, 5, 6)[:N], PTS_Q[:N]):
        for mp in enumerate_marked_partitions(M, N):
            assert same_form(omega_basis_form(mp, pts),
                             per_chain_route(monkeypatch, omega_basis_form, mp, pts))
        colorings = [[1] * M] + ([[1 + (a % 2) for a in range(M)]] if M >= 2 else [])
        for beta in colorings:
            dummy = [(0,) * max(beta)] * N
            sym = symmetrized_basis(beta, N, pts)
            ref = per_chain_route(monkeypatch, symmetrized_basis, beta, N, pts)
            assert [cls for cls, _ in sym] == [cls for cls, _ in ref]
            assert all(same_form(a, b) for (_, a), (_, b) in zip(sym, ref))
            psis = [TensorFunctional({cls: 1}, dummy, beta) for cls, _ in sym]
            psis.append(TensorFunctional(
                {cls: Fraction(i - 3, 1 + i % 4) for i, (cls, _) in enumerate(sym)},
                dummy, beta))
            for psi in psis:
                assert same_form(sv_map(psi, beta, pts),
                                 per_chain_route(monkeypatch, sv_map, psi, beta, pts))


def test_correlation_matches_per_chain_route(monkeypatch):
    lams = [(1, 0), (1, 0), (1, 0)]
    beta = [1, 1, 2]
    basis = weight_zero_basis(SL3, lams, beta)
    psi = TensorFunctional(
        {m: Fraction(2 * i - 3, 1 + i % 3) for i, m in enumerate(basis)}, lams, beta)
    X = {1: {(1,): 1}, 2: {(2,): 1}, 3: {(1,): 1}}
    # the correlators of the residue rules: all operators, one of them moved
    # onto a point, two of them merged by a bracket
    examples = [(X, ((), (), ())), ({2: X[2], 3: X[3]}, ((), (1,), ())),
                ({1: X[1], 3: X[3]}, ((), (), (2,))),
                ({1: free_bracket(X[2], X[1]), 3: X[3]}, ((), (), ()))]
    for pts in (tuple(map(Fraction, (0, 1, 3))), PTS_Q):
        for ops, base in examples:
            args = (psi, ops, base, pts, 3)
            got = correlation_function(*args)
            assert not got.is_zero()
            assert same_form(got, per_chain_route(monkeypatch, correlation_function, *args))


def brute_force_classes(beta, N):
    """Every N-tuple of words holding beta's letters: each distinct order of
    beta cut at each weakly increasing choice of N - 1 cut points."""
    out = set()
    for order in set(permutations(beta)):
        for cuts in combinations_with_replacement(range(len(beta) + 1), N - 1):
            ends = (0,) + cuts + (len(beta),)
            out.add(tuple(order[a:b] for a, b in zip(ends, ends[1:])))
    return sorted(out)


@pytest.mark.parametrize("beta", [(2, 2, 5), (0, -1, 0), (), (7,), (3, 1, 2, 1)])
@pytest.mark.parametrize("N", range(1, 4))
def test_classes_for_takes_any_integer_colors(beta, N):
    assert classes_for(list(beta), N) == classes_for(beta, N) == brute_force_classes(beta, N)


def test_class_partitions_rejects_foreign_color_content():
    beta = [1, 1, 2]
    for cls in [((1, 1), ()), ((1, 2), (2,)), ((1, 1, 2, 2), ()), ((3, 1), (1,))]:
        with pytest.raises(ValueError, match="color content"):
            class_chains(cls, beta)
    # sv_map used to drop such a coefficient silently
    psi = TensorFunctional({((1, 2), (2,)): 1}, [(0, 0), (0, 0)], beta)
    with pytest.raises(ValueError, match=r"\(\(1, 2\), \(2,\)\)"):
        sv_map(psi, beta, PTS2)


def test_expand_rejects_double_pole():
    bad = RationalForm(2, (1, 2), SparsePoly.const(2, 1),
                       {("tz", 1, 1): 2, ("tz", 2, 1): 1}, PTS1)
    with pytest.raises(ValueError):
        expand_in_basis(bad, PTS1)


def test_expand_rejects_outside_span():
    # no marked-partition decomposition reconstructs t1 * basis form
    mp = MarkedPartition([(1,)])
    basis_form = omega_basis_form(mp, PTS1)
    f = RationalForm(1, (1,), basis_form.numerator * SparsePoly.variable(1, 1),
                     basis_form.denominator, PTS1)
    with pytest.raises(ValueError):
        expand_in_basis(f, PTS1)


def test_unit_vectors_for_basis_forms():
    for mp in enumerate_marked_partitions(2, 2):
        got = expand_in_basis(omega_basis_form(mp, PTS2), PTS2)
        assert got == {mp: 1}


def test_correlation_equals_sv_map():
    lams = [(1, 0), (0, 1)]
    beta = [1, 2]
    basis = weight_zero_basis(SL3, lams, beta)
    psi = TensorFunctional(
        {m: Fraction(i + 1) for i, m in enumerate(basis)}, lams, beta)
    ops = {1: {(1,): 1}, 2: {(2,): 1}}
    f1 = sv_map(psi, beta, PTS2)
    f2 = correlation_function(psi, ops, ((), ()), PTS2, nvars=2)
    assert (f1 - f2).is_zero()


def test_correlation_empty_index_set():
    lams = [(0,), (0,)]
    basis = weight_zero_basis(SL2, lams, [])
    psi = TensorFunctional({basis[0]: Fraction(5)}, lams, [])
    f = correlation_function(psi, {}, ((), ()), PTS2, nvars=0)
    assert f.numerator.terms == {(): Fraction(5)}


def test_correlation_residue_rules():
    lams = [(1, 0), (1, 0), (1, 0)]
    beta = [1, 1, 2]
    basis = weight_zero_basis(SL3, lams, beta)
    psi = TensorFunctional(
        {m: Fraction(2 * i - 3) for i, m in enumerate(basis)}, lams, beta)
    pts3 = tuple(map(Fraction, (0, 1, 3)))
    X = {1: {(1,): 1}, 2: {(2,): 1}, 3: {(1,): 1}}
    corr = correlation_function(psi, X, ((), (), ()), pts3, nvars=3)
    # diagonal rule: X'_b = [X_a, X_b]
    for hi, lo in [(2, 1), (3, 1), (3, 2)]:
        res = corr.residue_diagonal(hi, lo)
        Xp = {a: X[a] for a in X if a not in (hi, lo)}
        Xp[lo] = free_bracket(X[hi], X[lo])
        corr2 = correlation_function(psi, Xp, ((), (), ()), pts3, nvars=3)
        assert (res - corr2).is_zero()
    # point rule: |v'_j> = X_a |v_j>
    for a in (1, 2, 3):
        for j in (1, 2, 3):
            res = corr.residue_at_point(a, j)
            X2 = {b: X[b] for b in X if b != a}
            base = [(), (), ()]
            base[j - 1] = next(iter(X[a]))
            corr3 = correlation_function(psi, X2, tuple(base), pts3, nvars=3)
            assert (res - corr3).is_zero()


def form_permute(form, perm):
    """Relabel t_a -> t_perm[a] and reorder the wedge, with the permutation sign.

    `perm` is a dict mapping 1..M -> 1..M (active variables only).
    """
    mapping = {a: perm.get(a, a) for a in form.variables}
    num = form.numerator.permute(mapping)
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


def test_sigma_equivariance():
    lams = [(1,)] * 4
    beta = [1, 1]
    for psi in invariant_functionals(SL2, lams, beta):
        w = sv_map(psi, beta, PTS4)
        assert (form_permute(w, {1: 2, 2: 1}) + w).is_zero()
    lams = [(2,), (2,), (1,), (1,)]
    beta = [1, 1, 1]
    psi = invariant_functionals(SL2, lams, beta)[0]
    w = sv_map(psi, beta, PTS4)
    assert (form_permute(w, {1: 2, 2: 3, 3: 1}) - w).is_zero()
    assert (form_permute(w, {1: 3, 3: 1}) + w).is_zero()


def expand_outcome(expand, form, points):
    """The coefficients, or the type of the exception, of one expansion route."""
    try:
        coeffs = expand(form, points)
    except ValueError as exc:
        return type(exc)
    assert all(type(c) is Fraction for c in coeffs.values())
    return coeffs


def assert_same_expansion(form, points):
    got = expand_outcome(expand_in_basis, form, points)
    assert got == expand_outcome(form_descent_expand, form, points)
    return got


@pytest.mark.parametrize("M,N", [(M, N) for M in range(1, 5) for N in range(1, 4)
                                 if N <= 2 or M <= 3])
def test_descent_matches_form_route(M, N):
    # the svmap-duality sizes, at integral and at non-integral points: the SV
    # images of every class and of a combination of all of them expand to the
    # same coefficients as a descent that reduces a form at every residue
    for pts in ((2, 5, 6)[:N], PTS_Q[:N]):
        pts = tuple(map(Fraction, pts))
        colorings = [[1] * M] + ([[1 + (a % 2) for a in range(M)]] if M >= 2 else [])
        for beta in colorings:
            dummy = [(0,) * max(beta)] * N
            classes = classes_for(beta, N)
            psis = [TensorFunctional({cls: 1}, dummy, beta) for cls in classes]
            psis.append(TensorFunctional(
                {cls: Fraction(i - 3, 1 + i % 4) for i, cls in enumerate(classes)},
                dummy, beta))
            for psi in psis:
                assert assert_same_expansion(sv_map(psi, beta, pts), pts)


@pytest.mark.parametrize("M,N", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_descent_matches_form_route_on_random_forms(M, N):
    for pts in (None, PTS_Q[:N]):
        for seed in range(4):
            want = random_combination(random.Random(seed), M, N, nterms=5)
            form = random_log_form(random.Random(seed), M, N, points=pts, nterms=5)
            assert assert_same_expansion(form, form.points) == want


def test_descent_matches_form_route_off_the_span():
    z1 = PTS_Q[0]
    t1, t2 = SparsePoly.variable(2, 1), SparsePoly.variable(2, 2)
    one = SparsePoly.const(2, 1)
    tz1, tz2, t12 = ("tz", 1, 1), ("tz", 2, 1), ("tt", 1, 2)
    cases = [
        # a double pole in the input
        (one, {tz1: 2, tz2: 1}, ValueError),
        # the residue at t1 = z1 turns (t1 - t2) into a second (t2 - z1)
        (one, {t12: 1, tz1: 1, tz2: 1}, ResidueError),
        # ... which the numerator t1 + t2 - 2 z1 takes back at t1 = z1
        (t1 + t2 - SparsePoly.const(2, 2 * z1), {t12: 1, tz1: 1, tz2: 1}, None),
        # 1/(t1 - z1) + 1/(t2 - z1): after t1 = z1 the factor (t2 - z1)
        # divides the numerator, so the next residue is 0; off the span
        (t1 + t2 - SparsePoly.const(2, 2 * z1), {tz1: 1, tz2: 1}, ValueError),
        # no marked-partition decomposition reconstructs t1 * basis form
        (t1, {t12: 1, tz2: 1}, ValueError),
    ]
    for num, denom, error in cases:
        form = RationalForm(2, (1, 2), num, denom, (z1,))
        got = assert_same_expansion(form, (z1,))
        if error is None:
            assert isinstance(got, dict)
        else:
            assert got is error


def run_orderings(runs):
    """The chains of the partitions that one collapsed term sums: every
    ordering of each chain's run, followed by its rest."""
    return set(product(*[[order + rest for order in permutations(run)] for run, rest in runs]))


def assert_collapse_exact(coeffs, pts=None):
    """The run collapse of `coeffs` covers each partition once, with its own
    coefficient, and, given points, its chains sum to the per-partition
    chains."""
    terms = logforms._collapse_runs(coeffs)
    covered = {}
    for runs, c in terms.items():
        for pis in run_orderings(runs):
            assert pis not in covered
            covered[pis] = c
    assert covered == {mp.pis: c for mp, c in coeffs.items()}
    if pts is None:
        return terms
    M = sum(len(chain) for chain in next(iter(coeffs)).pis)
    variables = tuple(range(1, M + 1))
    got = chain_sum([(c * s, d) for runs, c in terms.items()
                     for s, d in [logforms._runs_denominator(runs)]], M, variables, pts)
    want = per_chain_sum([(c * s, d) for mp, c in coeffs.items()
                          for s, d in [chain_denominator(mp.pis)]], M, variables, pts)
    assert same_form(got, want)
    return terms


@pytest.mark.parametrize("M,N", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (3, 3)])
def test_run_collapse_matches_per_partition_sum(M, N):
    # random coefficients, equal across some runs' orderings and not across
    # others: the collapsed chains sum to the per-partition chains
    rng = random.Random(100 * M + N)
    merged = 0
    for pts in ((2, 5, 6)[:N], PTS_Q[:N]):
        for beta in ([1] * M, [1 + (a % 2) for a in range(M)]):
            for _ in range(4):
                coeffs = random_class_coefficients(rng, beta, N)
                if coeffs:
                    merged += len(coeffs) - len(assert_collapse_exact(coeffs, pts))
    assert merged > 0


@pytest.mark.parametrize("beta,N", [((1, 1, 1), 1), ((1, 1, 1, 1), 2), ((1, 2, 1, 1), 2),
                                    ((1, 1, 1), 3)])
def test_run_collapse_leaves_a_broken_group_unmerged(beta, N):
    # a class merges to its class_chains; with one member's coefficient
    # changed, or the member dropped, the member's group at its first
    # mergeable chain j (first two indices of one color) stays unmerged: the
    # term that covers its partner (those two indices swapped) does not
    # hold the member's first index in its chain-j run.  The sums are
    # compared for the first mutated member of each class.
    mutated = 0
    for cls in classes_for(beta, N):
        pts = PTS_Q[:N]
        full = {mp: Fraction(1) for mp in class_partitions(cls, beta)}
        assert len(assert_collapse_exact(full)) == len(class_chains(cls, beta))
        for mp in full:
            j = next((j for j, ch in enumerate(mp.pis)
                      if len(ch) > 1 and beta[ch[0] - 1] == beta[ch[1] - 1]), None)
            if j is None:
                continue
            first, second = mp.pis[j][:2]
            partner = (mp.pis[:j] + ((second, first) + mp.pis[j][2:],) + mp.pis[j + 1:])

            def partner_run(terms):
                runs = next(r for r in terms if partner in run_orderings(r))
                return runs[j][0]

            assert first in partner_run(logforms._collapse_runs(full))
            changed = dict(full)
            changed[mp] = Fraction(2)
            terms = assert_collapse_exact(changed, pts)
            assert terms[tuple((ch[:1], ch[1:]) for ch in mp.pis)] == 2
            assert first not in partner_run(terms)
            dropped = dict(full)
            del dropped[mp]
            assert first not in partner_run(assert_collapse_exact(dropped, pts))
            pts = None
            mutated += 1
    assert mutated


@pytest.mark.parametrize("M,N", [(M, N) for M in range(1, 5) for N in range(1, 4)
                                 if N <= 2 or M <= 3])
def test_reconstruction_sums_one_chain_per_class_chain(M, N, monkeypatch):
    # the svmap-duality sizes: expand_in_basis rebuilds the SV image of each
    # class from as many chains as class_chains gives its class form, not
    # one chain per marked partition
    pts = tuple(map(Fraction, (2, 5, 6)[:N]))
    counts = []

    def counting_chain_sum(chains, *args):
        chains = list(chains)
        counts.append(len(chains))
        return chain_sum(chains, *args)

    colorings = [[1] * M] + ([[1 + (a % 2) for a in range(M)]] if M >= 2 else [])
    for beta in colorings:
        dummy = [(0,) * max(beta)] * N
        for cls in classes_for(beta, N):
            image = sv_map(TensorFunctional({cls: 1}, dummy, beta), beta, pts)
            with monkeypatch.context() as m:
                m.setattr(logforms, "chain_sum", counting_chain_sum)
                expand_in_basis(image, pts)
            assert counts.pop() == len(class_chains(cls, beta)), (beta, cls)


@pytest.mark.parametrize("points", [PTS_Q[:1], PTS_Q, (PTS_Q[0], PTS_Q[2])])
def test_expand_refuses_points_other_than_the_forms(points):
    # a shorter, a longer and a different list of points
    form = sv_map(TensorFunctional({((1,), (1,)): 1}, [(0,), (0,)], [1, 1]), [1, 1],
                  PTS_Q[:2])
    with pytest.raises(ValueError, match="points must be the form's marked points"):
        expand_in_basis(form, points)


def test_form_layer_refuses_coincident_points():
    # at z1 = z2 the class form of ((1,), (1,)) used to expand onto
    # ((2,), (1,)) alone, with coefficient 2
    pts = (Fraction(0), Fraction(0))
    beta, cls = [1, 1], ((1,), (1,))
    psi = TensorFunctional({cls: 1}, [(0,), (0,)], beta)
    form = RationalForm(2, (1, 2), SparsePoly.const(2, 1),
                        {("tz", 1, 1): 1, ("tz", 2, 2): 1}, pts)
    calls = [
        lambda: symmetrized_basis(beta, 2, pts),
        lambda: sv_map(psi, beta, pts),
        lambda: sv_map(TensorFunctional({}, [(0,), (0,)], beta), beta, pts),
        lambda: omega_basis_form(MarkedPartition([(1,), (2,)]), pts),
        lambda: correlation_function(psi, {1: {(1,): 1}, 2: {(1,): 1}}, ((), ()), pts),
        lambda: expand_in_basis(form, pts),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="points must be pairwise distinct"):
            call()


@pytest.mark.parametrize("pts", [("1/2", "2/4"), ("1/2", Fraction(1, 2)), (2, "2")],
                         ids=["half-two-quarters", "string-fraction", "int-string"])
def test_form_layer_refuses_points_equal_when_converted(pts):
    # two spellings of one rational are one marked point: the check compares
    # the exact values, not the values as given
    beta, cls = [1, 1], ((1,), (1,))
    psi = TensorFunctional({cls: 1}, [(0,), (0,)], beta)
    calls = [
        lambda: symmetrized_basis(beta, 2, pts),
        lambda: sv_map(psi, beta, pts),
        lambda: omega_basis_form(MarkedPartition([(1,), (2,)]), pts),
        lambda: correlation_function(psi, {1: {(1,): 1}, 2: {(1,): 1}}, ((), ()), pts),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="points must be pairwise distinct"):
            call()
