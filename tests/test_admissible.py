"""Master-function exponents, observation checks, the admissible subspace."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

from cblocks import admissible, linalg, repspace
from cblocks.admissible import (MasterData, _chart, _class_chains, _combined_chains,
                                _jet_mul, _jet_rows, _singleton_rows, _slot_width,
                                _u_shift, _universe,
                                admissible_subspace, jet_cutoff, min_even_constant,
                                r_degree_on_stratum, stratum_catalog, valuation_floor,
                                vandermonde_floor)
from cblocks.blocks import BlockInstance, conformal_blocks
from cblocks.logforms import chain_denominator, class_chains, classes_for, sv_map
from cblocks.ratfun import RationalForm, SparsePoly, Stratum, canonical_tt, log_degree
from cblocks.repspace import TensorFunctional, weight_zero_basis
from cblocks.roots import build_root_system
from genforms import class_partitions
from paperchecks import control_poles_check, factor_poly, observation_check, span_contains

SL2 = build_root_system("A", 1)
SL3 = build_root_system("A", 2)
G2 = build_root_system("G2", 2)


def spans_match(instance, beta, **kw):
    space = conformal_blocks(instance, beta)
    md = MasterData(instance, beta)
    adm = admissible_subspace(md, **kw)
    basis = space.monomials
    if not basis:
        return space.dim == 0 and not adm
    rows_b = [f.vector(basis) for f in space.basis]
    rows_a = [f.vector(basis) for f in adm]
    return space.dim == len(adm) and linalg.spans_equal(rows_b, rows_a, len(basis))


def test_min_even_constant():
    inst = BlockInstance(SL2, 1, [(1,), (1,)], [0, 1])
    assert min_even_constant(inst, [1]) == 2
    inst = BlockInstance(SL2, 2, [(2,), (2,)], [0, 1])
    assert min_even_constant(inst, [1, 1]) == 1  # root-lattice weights, simply laced
    inst = BlockInstance(G2, 1, [(1, 0), (0, 0)], [0, 1])
    assert min_even_constant(inst, [1, 1, 2]) % 3 == 0


def test_master_data_validates_constant():
    inst = BlockInstance(SL2, 1, [(1,), (1,)], [0, 1])
    md = MasterData(inst, [1])
    assert md.C == 2 and md.kappa == 3
    inst = BlockInstance(G2, 1, [(1, 0), (0, 0)], [0, 1])
    assert MasterData(inst, [1, 1, 2]).C == min_even_constant(inst, [1, 1, 2])


def test_master_data_computes_constant_only_when_read(monkeypatch):
    # no verdict reads C; the verify-theorem report does, with the same value
    from cblocks import admissible

    inst = BlockInstance(G2, 1, [(1, 0), (0, 0)], [0, 1])

    def refuse(*args):
        raise AssertionError("min_even_constant called")

    with monkeypatch.context() as m:
        m.setattr(admissible, "min_even_constant", refuse)
        md = MasterData(inst, [1, 1, 2])
        assert admissible_subspace(md) == []
        with pytest.raises(ValueError, match="coloring index"):
            MasterData(inst, [1, 3])
    assert md.C == min_even_constant(inst, [1, 1, 2])


def test_r_degree_examples():
    inst = BlockInstance(SL2, 1, [(1,), (1,)], [0, 1])
    md = MasterData(inst, [1])
    assert r_degree_on_stratum(md, Stratum("S2", (1,), 1)) == Fraction(1, 3)
    inst = BlockInstance(SL2, 1, [(1,), (1,), (1,), (1,)], [0, 1, 3, 7])
    md = MasterData(inst, [1, 1])
    assert r_degree_on_stratum(md, Stratum("S1", (1, 2))) == Fraction(-2, 3)
    # infinity: -(gamma,gamma)/2k - sum (b,b)/2k with gamma = alpha
    assert r_degree_on_stratum(md, Stratum("SINF", (1,))) == Fraction(-2, 3)


@pytest.mark.parametrize("alg,k,weights,points,beta", [
    pytest.param(SL2, 2, [(2,)] * 4, [0, 1, 3, 7], [1] * 4, id="sl2-k2-2222"),
    pytest.param(SL2, 2, [(2,), (2,), (1,), (1,)],
                 [0, Fraction(1, 2), 3, Fraction(-5, 3)], [1, 1, 1],
                 id="sl2-k2-2211-nonintegral"),
    pytest.param(SL3, 1, [(1, 0), (0, 1)] * 2, [0, 1, 3, 7], [1, 2, 1, 2],
                 id="sl3-k1-1001"),
    pytest.param(SL3, 2, [(1, 1)] * 2, [0, 1], [1, 2, 1, 2], id="sl3-k2-11"),
    pytest.param(build_root_system("B", 2), 1, [(0, 1)] * 2, [0, 1], [1, 2, 2],
                 id="b2-k1"),
    pytest.param(build_root_system("C", 2), 1, [(1, 0)] * 2, [0, 1], [1, 1, 2],
                 id="c2-k1"),
    pytest.param(G2, 1, [(1, 0), (0, 0)], [0, 1], [1, 1, 2], id="g2-k1"),
])
def test_r_degree_matches_killing_pairings(alg, k, weights, points, beta):
    # the Gram-matrix reading against the pairings written out through the
    # Killing form, on every stratum of the unpruned catalog
    md = MasterData(BlockInstance(alg, k, weights, points), beta)
    kappa = md.kappa
    for s in stratum_catalog(md, prune_by_color=False):
        roots = [alg.simple_roots[md.beta[a - 1] - 1] for a in s.subset]
        if s.kind == "SINF":
            gamma = [sum(r[q] for r in roots) for q in range(alg.rank)]
            expected = -(alg.killing(gamma, gamma)
                         + sum(alg.killing(r, r) for r in roots)) / (2 * kappa)
        else:
            expected = -sum(alg.killing(r, q) for i, r in enumerate(roots)
                            for q in roots[i + 1:]) / kappa
            if s.kind == "S2":
                lam = weights[s.point - 1]
                expected += sum(alg.weight_root_pairing(lam, r)
                                for r in roots) / kappa
        assert r_degree_on_stratum(md, s) == expected, s


def test_stratum_catalog_pruning():
    inst = BlockInstance(SL2, 2, [(2,)] * 4, [0, 1, 3, 7])
    md = MasterData(inst, [1, 1, 1, 1])
    pruned = stratum_catalog(md)
    full = stratum_catalog(md, prune_by_color=False)
    assert len(pruned) < len(full)
    # same-color S1 subsets of one size collapse to a single representative
    assert sum(1 for s in pruned if s.kind == "S1") == 3


def test_jet_cutoff_signs():
    inst = BlockInstance(SL2, 1, [(1,), (1,)], [0, 1])
    md = MasterData(inst, [1])
    # single variable at a weight-w point: no constraint (simple pole allowed)
    assert jet_cutoff(md, Stratum("S2", (1,), 1)) < 0
    # infinity: constraints exist
    assert jet_cutoff(md, Stratum("SINF", (1,))) >= 0


@pytest.mark.parametrize("k,cs", [
    (1, [1, 1]), (1, [1, 1, 0]), (1, [1, 1, 1, 1]),
    (2, [2, 2]), (2, [2, 0]), (2, [1, 1, 2]), (2, [2, 2, 2, 0]),
    (2, [2, 2, 2, 2]),
])
def test_theorem_equality_sl2(k, cs):
    pts = [0, 1, 3, 7][: len(cs)]
    inst = BlockInstance(SL2, k, [(c,) for c in cs], pts)
    assert spans_match(inst, [1] * (sum(cs) // 2))


def test_theorem_equality_sl3_g2():
    inst = BlockInstance(SL3, 1, [(1, 0), (0, 1)], [0, 1])
    assert spans_match(inst, [1, 2])
    inst = BlockInstance(SL3, 1, [(1, 0)] * 3, [0, 1, 3])
    assert spans_match(inst, [1, 1, 2])
    inst = BlockInstance(G2, 1, [(1, 0), (0, 0)], [0, 1])
    assert spans_match(inst, [1, 1, 2])
    inst = BlockInstance(SL3, 2, [(1, 1), (1, 1)], [0, 1])
    assert spans_match(inst, [1, 1, 2, 2])


def test_mu_not_in_lattice_dim_zero():
    inst = BlockInstance(SL2, 1, [(1,), (0,)], [0, 1])
    md = MasterData(inst, [1])
    assert admissible_subspace(md) == []


def test_admissible_z_rescale_invariance():
    inst = BlockInstance(SL2, 1, [(1,), (1,), (0,)], [0, 1, 3])
    md = MasterData(inst, [1])
    d1 = len(admissible_subspace(md))
    scaled = BlockInstance(SL2, 1, inst.weights, [0, 7, 21])
    d2 = len(admissible_subspace(MasterData(scaled, [1])))
    assert d1 == d2 == 1


def test_observation_on_block_functional():
    inst = BlockInstance(SL2, 1, [(1,)] * 4, [0, 1, 3, 7])
    beta = [1, 1]
    md = MasterData(inst, beta)
    space = conformal_blocks(inst, beta)
    form = sv_map(space.basis[0], beta, inst.points)
    assert observation_check(form, md) == []


def test_observation_violations():
    inst = BlockInstance(SL2, 1, [(1,)] * 4, [0, 1, 3, 7])
    md = MasterData(inst, [1, 1])
    doubled = RationalForm(2, (1, 2), SparsePoly.const(2, 1),
                           {("tz", 1, 1): 2, ("tz", 2, 2): 1}, inst.points)
    kinds = {v[0] for v in observation_check(doubled, md)}
    assert "point-order" in kinds
    same_color_pole = RationalForm(2, (1, 2), SparsePoly.const(2, 1),
                                   {("tt", 1, 2): 1, ("tz", 1, 1): 1,
                                    ("tz", 2, 2): 1}, inst.points)
    violations = observation_check(same_color_pole, md)
    assert "nonneg-color-pole" in {v[0] for v in violations}
    # a pole at t1 = t2 survives clearing by one same-color factor
    assert ("color-collision", 1, 1, (2,), 1) in violations
    assert ("color-collision", 1, 1, (1,), 2) in violations
    # the pair collapsing onto z1 against its double pole there
    assert ("point-collapse", 1, 1, (1, 2)) in observation_check(doubled, md)
    # at a vacuum point (mstar = 1) a single variable must not have a pole
    inst = BlockInstance(SL2, 1, [(1,), (1,), (0,)], [0, 1, 3])
    at_vacuum = RationalForm(1, (1,), SparsePoly.const(1, 1), {("tz", 1, 3): 1},
                             inst.points)
    assert observation_check(at_vacuum, MasterData(inst, [1])) == [
        ("pole-at-infinity", 1), ("point-collapse", 3, 1, (1,))]
    # onto a color-2 variable, the two color-1 variables (mstar = 2) may
    # carry one pole toward it but not two
    inst = BlockInstance(SL3, 1, [(1, 0)] * 3, [0, 1, 3])
    md = MasterData(inst, [1, 1, 2])
    one = RationalForm(3, (1, 2, 3), SparsePoly.const(3, 1),
                       {("tt", 1, 3): 1, ("tz", 2, 1): 1, ("tz", 3, 2): 1}, inst.points)
    two = RationalForm(3, (1, 2, 3), SparsePoly.const(3, 1),
                       {("tt", 1, 3): 1, ("tt", 2, 3): 1, ("tz", 3, 1): 1}, inst.points)
    assert not any(v[0] == "color-collision" for v in observation_check(one, md))
    assert ("color-collision", 1, 2, (1, 2), 3) in observation_check(two, md)
    # a zero form has no poles, so no violations
    inst = BlockInstance(SL2, 2, [(0,), (2,), (2,)], [0, 1, 3])
    zero = RationalForm.zero(2, (1, 2), inst.points)
    assert observation_check(zero, MasterData(inst, [1, 1])) == []


def test_control_poles():
    inst = BlockInstance(SL2, 1, [(1,)] * 4, [0, 1, 3, 7])
    beta = [1, 1]
    md = MasterData(inst, beta)
    psi = conformal_blocks(inst, beta).basis[0]
    # same-color pair: 2 alpha is not a root, the residue must vanish
    rep = control_poles_check(psi, md, [1, 2])
    assert rep["nonzero"] is False

    inst3 = BlockInstance(SL3, 1, [(1, 0), (0, 1)], [0, 1])
    md3 = MasterData(inst3, [1, 2])
    psi3 = conformal_blocks(inst3, [1, 2]).basis[0]
    rep = control_poles_check(psi3, md3, [1, 2])
    assert rep["nonzero"] and rep["ok"]


def test_control_poles_g2_pattern():
    # along the unique G2 pattern the color sums stay positive roots
    inst = BlockInstance(G2, 1, [(1, 0), (0, 0)], [0, 1])
    beta = [1, 1, 2]
    md = MasterData(inst, beta)
    basis = weight_zero_basis(G2, inst.weights, beta)
    psi = TensorFunctional({m: Fraction(i + 1) for i, m in enumerate(basis)},
                           inst.weights, beta)
    # T = (alpha1, alpha2)-colored pair: sum is the root alpha1+alpha2
    rep = control_poles_check(psi, md, [1, 3])
    if rep["nonzero"]:
        assert rep["color_sum_positive_root"]
    # T = same-color alpha1 pair: 2 alpha1 is not a root
    rep = control_poles_check(psi, md, [1, 2])
    if rep["nonzero"]:
        assert not rep["color_sum_positive_root"]


def test_blocks_contained_in_admissible():
    inst = BlockInstance(SL2, 2, [(2,), (1,), (1,)], [0, 1, 3])
    beta = [1, 1]
    md = MasterData(inst, beta)
    space = conformal_blocks(inst, beta)
    adm = admissible_subspace(md)
    basis = space.monomials
    adm_rows = [f.vector(basis) for f in adm]
    for f in space.basis:
        assert span_contains(adm_rows, f.vector(basis))


def test_s2_reduction_shadow():
    # the pairwise-sum bound forces d^{S'}(Res_T Omega) > -1 with S' the residual
    # point stratum, on computed block forms
    from cblocks.ratfun import iterated_residue

    inst = BlockInstance(SL3, 1, [(1, 0), (1, 0), (1, 0)], [0, 1, 3])
    beta = [1, 1, 2]
    psi = conformal_blocks(inst, beta).basis[0]
    form = sv_map(psi, beta, inst.points)
    for T in [(1, 3), (2, 3)]:  # alpha1 + alpha2 colored pairs
        res = iterated_residue(form, list(T))
        if res.is_zero():
            continue
        m = min(T)
        for j in range(1, 4):
            assert log_degree(res, Stratum("S2", (m,), j)) > -1


# the two-way oracle instances: algebra, level, weights, points, coloring, dim
ORACLE_INSTANCES = [
    pytest.param(SL2, 1, [(1,)] * 4, [0, 1, 3, 7], [1, 1], 1, id="sl2-k1-1111"),
    pytest.param(SL2, 2, [(2,), (2,), (1,), (1,)],
                 [0, Fraction(1, 2), 3, Fraction(-5, 3)], [1, 1, 1], 1,
                 id="sl2-k2-2211-nonintegral"),
    pytest.param(SL2, 2, [(2,), (1,), (1,)], [2, 5, 6], [1, 1], 1, id="sl2-k2-211"),
    pytest.param(SL3, 1, [(1, 0)] * 3, [0, 1, 3], [1, 1, 2], 1, id="sl3-k1"),
    pytest.param(G2, 1, [(1, 0), (0, 0)], [0, 1], [1, 1, 2], 0, id="g2-k1"),
]


@pytest.mark.parametrize("alg,k,weights,points,beta,dim", ORACLE_INSTANCES)
def test_engine_agrees_with_direct_log_degrees(alg, k, weights, points, beta, dim):
    # independent cross-check of the jet engine: a functional is in the
    # admissible subspace exactly when d^S(Omega) + r(S) > 0 on every stratum
    # of the unpruned catalog, computed the direct way (valuation of the
    # materialized numerator); probed on every unit vector and every
    # admissible basis vector
    inst = BlockInstance(alg, k, weights, points)
    md = MasterData(inst, beta)
    basis = weight_zero_basis(alg, inst.weights, beta)
    adm_rows = [f.vector(basis) for f in admissible_subspace(md)]
    assert len(adm_rows) == dim
    catalog = stratum_catalog(md, prune_by_color=False)

    def strict_positive_everywhere(vec):
        psi = TensorFunctional(dict(zip(basis, vec)), inst.weights, beta)
        form = sv_map(psi, beta, inst.points)
        return form.is_zero() or all(
            log_degree(form, s) + r_degree_on_stratum(md, s) > 0 for s in catalog)

    units = [[int(j == i) for j in range(len(basis))] for i in range(len(basis))]
    for vec in units + adm_rows:
        assert strict_positive_everywhere(vec) == span_contains(adm_rows, vec), vec


def cleared_collapse_violations(form, md):
    """Reference for observation_check's collapse violations: multiply the
    form by the mstar collapsing factors and take the stratum degree of the
    product (its log degree less the codimension), which must be at least 1."""
    M = md.M

    def cleared_degree(stratum, factors):
        num = form.numerator
        for f in factors:
            num = num * factor_poly(f, form.nvars, md.instance.points)
        codim = len(stratum.subset) - (stratum.kind == "S1")
        return log_degree(RationalForm(form.nvars, form.variables, num,
                                       form.denominator, form.points), stratum) - codim

    colors = {c: [a for a in range(1, M + 1) if md.beta[a - 1] == c]
              for c in set(md.beta)}
    out = []
    for j, lam in enumerate(md.instance.weights, start=1):
        for c, idxs in colors.items():
            for sub in combinations(idxs, 1 + lam[c - 1]):
                if cleared_degree(Stratum("S2", sub, j), [("tz", a, j) for a in sub]) < 1:
                    out.append(("point-collapse", j, c, sub))
    for (c, idxs), (c2, idxs2) in product(colors.items(), repeat=2):
        m = max(1 - md.rs.cartan[c - 1][c2 - 1], 1)
        for p in idxs2:
            for sub in combinations([a for a in idxs if a != p], m):
                if cleared_degree(Stratum("S1", sub + (p,)), [("tt", a, p) for a in sub]) < 1:
                    out.append(("color-collision", c, c2, sub, p))
    return out


@pytest.mark.parametrize("alg,k,weights,points,beta,dim", ORACLE_INSTANCES)
def test_observation_collapses_match_cleared_forms(alg, k, weights, points, beta, dim):
    # the collapse checks add mstar to the stratum degree of the form itself;
    # the reference multiplies the factors in, on the block forms and on SV
    # images of random functionals
    inst = BlockInstance(alg, k, weights, points)
    md = MasterData(inst, beta)
    basis = weight_zero_basis(alg, inst.weights, beta)
    rng = random.Random(11)
    psis = conformal_blocks(inst, beta).basis + [
        TensorFunctional({m: Fraction(rng.randint(-3, 3)) for m in basis},
                         inst.weights, beta) for _ in range(3)]
    found = 0
    for psi in psis:
        form = sv_map(psi, beta, inst.points)
        if form.is_zero():
            continue
        got = [v for v in observation_check(form, md)
               if v[0] in ("point-collapse", "color-collision")]
        want = cleared_collapse_violations(form, md)
        assert sorted(got) == sorted(want), psi
        found += len(want)
    assert found


@pytest.mark.parametrize("alg,k,weights,points,beta,dim", ORACLE_INSTANCES)
def test_vandermonde_floor(alg, k, weights, points, beta, dim):
    # on every stratum of the unpruned catalog no jet term lies below the
    # valuation floor or (on S1/S2) the Vandermonde floor, so a stratum whose
    # cutoff is below either yields no terms; the jets are taken at least up
    # to the floor, so the strata the engine skips are checked too
    inst = BlockInstance(alg, k, weights, points)
    md = MasterData(inst, beta)
    chains = _class_chains(classes_for(md.beta, len(points)), md.beta)
    shift = _u_shift(md.M, len(points))
    below = {"valuation": 0, "vandermonde only": 0, "valuation only": 0}
    for s in stratum_catalog(md, prune_by_color=False):
        d_max = jet_cutoff(md, s)
        floor = valuation_floor(s)
        assert (d_max < floor) == (r_degree_on_stratum(md, s) > 0), s
        vandermonde = vandermonde_floor(md, s)
        least = max(floor, vandermonde)
        rows = _jet_rows(md, s, chains, max(d_max, least))
        assert all(key >> shift >= least for key in rows), s
        if d_max >= 0:
            below["valuation"] += d_max < floor
            below["vandermonde only"] += floor <= d_max < vandermonde
            below["valuation only"] += vandermonde <= d_max < floor
    # the engine skips exactly those strata, and the stats account for them
    adm, stats = admissible_subspace(md, with_stats=True)
    assert len(adm) == dim
    for e in stats:
        s = e["stratum"]
        least = max(valuation_floor(s), vandermonde_floor(md, s))
        assert e["floor_skipped"] == (0 <= e["cutoff"] < least)
        if e["cutoff"] < least:
            assert e["rows"] == e["rank_gained"] == 0
    ncols = len(weight_zero_basis(alg, inst.weights, beta))
    assert sum(e["rank_gained"] for e in stats) == ncols - dim
    # each floor skips strata the other does not: the same-color S1
    # collisions, and S2 strata with r(S) > 0 under mixed colorings
    assert below["vandermonde only"] > 0
    if alg is not SL2:
        assert below["valuation only"] > 0
    if alg is SL2 and k == 2:
        assert below["valuation"] > 0


@pytest.mark.parametrize("alg,k,weights,points,beta,dim", ORACLE_INSTANCES)
def test_chart_least_degree_is_one_exactly_on_internal_factors(alg, k, weights, points,
                                                               beta, dim):
    # the cut of a t - z prefix in _jet_rows takes nothing for the variables
    # after it because a chart factor has least u-degree 1 when it is
    # internal to the stratum (a t - t factor with both ends in the subset,
    # or t_a - z_j at the point of an S2 stratum) and 0 otherwise: of one
    # variable's t - z factors at most one has degree 1, and a head takes it
    md = MasterData(BlockInstance(alg, k, weights, points), beta)
    universe = _universe(md.M, len(points))
    shift = _u_shift(md.M, len(points))
    internal_seen = 0
    for s in stratum_catalog(md, prune_by_color=False):
        sub = set(s.subset)
        for f, (jet, _) in _chart(md, s, universe).items():
            if f[0] == "tt":
                internal = f[1] in sub and f[2] in sub
            else:
                internal = s.kind == "S2" and f[1] in sub and f[2] == s.point
            assert min(jet) >> shift == internal, (s, f)
            internal_seen += internal
    assert internal_seen


def decode(key, M, N):
    """A packed key as (u-degree, slots 1..M), read at the engine's width."""
    width = admissible._slot_width(M, N)
    slots = tuple((key >> (width * i)) & ((1 << width) - 1) for i in range(M))
    return key >> admissible._u_shift(M, N), slots


@pytest.mark.parametrize("alg,k,weights,points,beta,dim", ORACLE_INSTANCES)
def test_s1_chart_keys_have_one_slot_per_variable(alg, k, weights, points, beta, dim):
    # on S1 the anchor is t_s, s the first variable of the subset: a key is
    # M slots of _slot_width bits, one per variable, and right above slot M
    # the u-degree, which is the sum of the moving variables' slots; the
    # anchor's own slot carries the exponent of t_s in the jets of the moving
    # t - z factors
    md = MasterData(BlockInstance(alg, k, weights, points), beta)
    M, N = md.M, len(points)
    universe = _universe(M, N)
    for s in stratum_catalog(md, prune_by_color=False):
        if s.kind != "S1":
            continue
        anchor, moving = s.subset[0], s.subset[1:]
        anchor_seen = False
        for f, (jet, mono) in _chart(md, s, universe).items():
            assert mono == 0, (s, f)
            for key in jet:
                u, slots = decode(key, M, N)
                assert u == sum(slots[a - 1] for a in moving), (s, f)
                if f[0] == "tz" and f[1] in moving:
                    anchor_seen |= slots[anchor - 1] == 1
        assert anchor_seen, s


def assert_rows_width_free(monkeypatch, md, groups, strata):
    # keys add without a carry at _slot_width, so a wider width gives the
    # same rows in the same order once decoded; returns how many strata
    # have rows
    M, N = md.M, len(md.instance.points)

    def decoded():
        return [[(decode(key, M, N), row)
                 for key, row in _jet_rows(md, s, groups, d_max).items()]
                for s, d_max in strata]

    narrow = decoded()
    width = admissible._slot_width
    monkeypatch.setattr(admissible, "_slot_width", lambda M, N: width(M, N) + 5)
    assert decoded() == narrow
    return sum(map(bool, narrow))


@pytest.mark.parametrize("alg,k,weights,points,beta,dim", ORACLE_INSTANCES)
def test_jet_rows_do_not_depend_on_the_slot_width(monkeypatch, alg, k, weights, points,
                                                  beta, dim):
    md = MasterData(BlockInstance(alg, k, weights, points), beta)
    chains = _class_chains(classes_for(md.beta, len(points)), md.beta)
    strata = [(s, jet_cutoff(md, s)) for s in stratum_catalog(md, prune_by_color=False)
              if len(s.subset) > 1]
    assert assert_rows_width_free(monkeypatch, md, chains,
                                  [(s, d_max) for s, d_max in strata if d_max >= 0])


def test_sinf_rows_at_64_points_do_not_depend_on_the_slot_width(monkeypatch):
    # sl2 k=2 (2),(2),(0)^62: a slot could reach 2 (C(2,2) + 2*64) = 258, so
    # the slots are 9 bits wide; three of the 2080 classes, those with both
    # letters at the two points of weight 2
    points = list(range(64))
    md = MasterData(BlockInstance(SL2, 2, [(2,), (2,)] + [(0,)] * 62, points), [1, 1])
    classes = [cls for cls in classes_for(md.beta, 64) if not any(cls[2:])]
    assert len(classes) == 3 and _slot_width(2, 64) == 9
    s = Stratum("SINF", (1, 2))
    chains = _class_chains(classes, md.beta)
    assert assert_rows_width_free(monkeypatch, md, chains, [(s, jet_cutoff(md, s))])


def test_stats_count_distinct_rows():
    # the rows of a stratum are mostly scalar multiples of one another or of
    # earlier strata's rows (color-preserving swaps send the row at one key
    # to +-the row at the swapped key); distinct_rows counts those reaching
    # elimination, recomputed here from the rows each stratum hands over:
    # the class jets, and on a singleton stratum the rows of _singleton_rows
    inst = BlockInstance(SL3, 2, [(1, 1)] * 2, [0, 1])
    md = MasterData(inst, [1, 1, 2, 2])
    classes = classes_for(md.beta, 2)
    column = {cls: i for i, cls in enumerate(classes)}
    chains = _class_chains(classes, md.beta)
    adm, stats = admissible_subspace(md, with_stats=True)
    assert len(adm) == 1
    forms = set()
    for e in stats:
        if not e["rows"]:
            assert e["distinct_rows"] == 0
            continue
        s, d_max = e["stratum"], e["cutoff"]
        if len(s.subset) == 1:
            rows = _singleton_rows(md, s, d_max, column)
        else:
            rows = list(_jet_rows(md, s, chains, d_max).values())
        assert e["rows"] == len(rows), s
        for sparse in rows:
            row = [Fraction(sparse.get(i, 0)) for i in range(len(classes))]
            lead = next(x for x in row if x)
            forms.add(tuple(x / lead for x in row))
    assert any(len(e["stratum"].subset) == 1 and e["rows"] for e in stats)
    assert sum(e["distinct_rows"] for e in stats) == len(forms)
    assert len(forms) < sum(e["rows"] for e in stats)


def full_catalog_basis(md):
    """The nullspace basis of the rows of every stratum the floors leave, none
    skipped on the combined jet and none left after full rank: the rows of
    _singleton_rows on a singleton, the class jet rows on every other one."""
    if not repspace.weight_matches(md.rs, md.instance.weights, md.beta):
        return []
    classes = classes_for(md.beta, len(md.instance.points))
    column = {cls: i for i, cls in enumerate(classes)}
    chains = _class_chains(classes, md.beta)
    rows = []
    for s in stratum_catalog(md):
        d_max = jet_cutoff(md, s)
        if d_max < max(valuation_floor(s), vandermonde_floor(md, s)):
            continue
        if len(s.subset) == 1:
            rows += _singleton_rows(md, s, d_max, column)
        else:
            rows += _jet_rows(md, s, chains, d_max).values()
    return linalg.nullspace(rows, len(classes))


def assert_matches_full_catalog(md):
    """admissible_subspace against full_catalog_basis; returns the strata the
    nullspace test skipped, each of which reports no rows and no rank."""
    adm, stats = admissible_subspace(md, with_stats=True)
    classes = classes_for(md.beta, len(md.instance.points))
    assert [f.vector(classes) for f in adm] == full_catalog_basis(md)
    skipped = [e for e in stats if e["nullspace_passed"]]
    for e in skipped:
        assert len(e["stratum"].subset) > 1 and not e["floor_skipped"]
        assert e["rows"] == e["distinct_rows"] == e["rank_gained"] == 0
    return [e["stratum"] for e in skipped]


SL3_K2_11 = pytest.param(SL3, 2, [(1, 1)] * 2, [0, 1], [1, 1, 2, 2], 1, id="sl3-k2-11")


@pytest.mark.parametrize("alg,k,weights,points,beta,dim", ORACLE_INSTANCES + [
    pytest.param(SL2, 2, [(2,)] * 4, [0, 1, 3, 7], [1] * 4, 1, id="sl2-k2-2222"),
    pytest.param(SL2, 3, [(3,), (3,), (1,), (1,)], [0, 1, 3, 7], [1] * 4, 1,
                 id="sl2-k3-3311"),
    SL3_K2_11,
])
def test_nullspace_skip_keeps_the_full_catalog_basis(alg, k, weights, points, beta, dim):
    # a stratum whose combined jet vanishes on the one nullspace vector is
    # skipped; the basis is the one read from every stratum's rows, and on
    # (2)^4 and sl3 (1,1)^2 the skip happens, so the check is not vacuous
    md = MasterData(BlockInstance(alg, k, weights, points), beta)
    skipped = assert_matches_full_catalog(md)
    if weights in ([(2,)] * 4, [(1, 1)] * 2):
        assert skipped


def test_nullspace_skip_keeps_the_benchmark_theorem_bases(monkeypatch):
    # every `theorem` instance of the benchmark at seed 0
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    instances = workloads.generate("theorem", 0, None)
    skipped = 0
    for inst in instances:
        rs = build_root_system(*workloads.ALGEBRAS[inst["alg"]])
        bi = BlockInstance(rs, inst["k"], inst["weights"], inst["points"])
        skipped += len(assert_matches_full_catalog(MasterData(bi, inst["beta"])))
    assert len(instances) == 34 and skipped


def test_combined_jet_of_a_perturbed_vector_is_nonzero():
    # the combined jet has teeth: on sl3 k=2 (1,1)^2 the engine skips six
    # strata, where the admissible vector's combined jet vanishes; with one
    # of its coefficients moved by 1 the combined jet is nonzero on one of them
    md = MasterData(BlockInstance(SL3, 2, [(1, 1)] * 2, [0, 1]), [1, 1, 2, 2])
    classes = classes_for(md.beta, 2)
    chains = _class_chains(classes, md.beta)
    (psi,), stats = admissible_subspace(md, with_stats=True)
    skipped = [e for e in stats if e["nullspace_passed"]]
    assert len(skipped) == 6

    def nonzero_on(vec):
        combined = _combined_chains(chains, vec)
        return [e["stratum"] for e in skipped
                if _jet_rows(md, e["stratum"], [combined], e["cutoff"])]

    vec = psi.vector(classes)
    assert nonzero_on(vec) == []
    i = next(i for i, x in enumerate(vec) if x)
    vec[i] += 1
    assert nonzero_on(vec)


def singleton_row_sets(md):
    """(stratum, jet rows, rows of _singleton_rows, columns) for every
    singleton stratum of the unpruned catalog that the floors leave."""
    classes = classes_for(md.beta, len(md.instance.points))
    column = {cls: i for i, cls in enumerate(classes)}
    chains = _class_chains(classes, md.beta)
    for s in stratum_catalog(md, prune_by_color=False):
        d_max = jet_cutoff(md, s)
        if len(s.subset) == 1 and d_max >= max(valuation_floor(s), vandermonde_floor(md, s)):
            yield (s, list(_jet_rows(md, s, chains, d_max).values()),
                   _singleton_rows(md, s, d_max, column), column)


def first_letter_rows(md, stratum, column):
    """The S2 rule mutated to key on the first letter of word j."""
    c = md.beta[stratum.subset[0] - 1]
    return [{i: 1} for cls, i in column.items() if cls[stratum.point - 1][:1] == (c,)]


SL3_FOUR_POINT = pytest.param(SL3, 1, [(1, 0), (0, 1)] * 2, [0, 1, 3, 7], [1, 2, 1, 2], 1,
                              id="sl3-k1-1001-1001")


@pytest.mark.parametrize("alg,k,weights,points,beta,dim", ORACLE_INSTANCES + [
    pytest.param(SL2, 2, [(2,)] * 4, [0, 1, 3, 7], [1] * 4, 1, id="sl2-k2-2222"),
    pytest.param(SL2, 2, [(2,), (2,), (1,), (1,)], [0, 1, 3, 7], [1] * 3, 1,
                 id="sl2-k2-2211"),
    pytest.param(SL2, 3, [(3,), (3,), (1,), (1,)], [0, 1, 3, 7], [1] * 4, 1,
                 id="sl2-k3-3311"),
    SL3_FOUR_POINT,
    pytest.param(build_root_system("B", 2), 1, [(0, 1)] * 2, [0, 1], [1, 2, 2], 1,
                 id="b2-k1"),
    pytest.param(build_root_system("C", 3), 1, [(1, 0, 0)] * 2, [0, Fraction(-2, 3)],
                 [1, 1, 2, 2, 3], 1, id="c3-k1-fractional"),
])
def test_singleton_rows_span_the_jet_rows(alg, k, weights, points, beta, dim):
    # the jet engine is the oracle of the singleton rules: equal row spans on
    # every singleton stratum of the unpruned catalog; two mutations fail,
    # the S2 rule keyed on the first letter of word j and an f_c row set
    # short of one row
    md = MasterData(BlockInstance(alg, k, weights, points), beta)
    kinds = []
    for s, jets, rows, column in singleton_row_sets(md):
        ncols = len(column)
        assert linalg.spans_equal(jets, rows, ncols), s
        if s.kind == "SINF":
            assert not linalg.spans_equal(jets, rows[1:], ncols), s
        else:
            assert not linalg.spans_equal(jets, first_letter_rows(md, s, column), ncols), s
        kinds.append(s.kind)
    assert kinds.count("SINF") == md.M
    # an S2 singleton survives the floors exactly when lambda_j(c) = 0
    assert kinds.count("S2") == sum(w[c - 1] == 0 for w in weights for c in beta)


@pytest.mark.parametrize("alg,k,weights,points,beta,dim", [SL3_FOUR_POINT])
def test_s2_rows_key_on_the_last_letter(alg, k, weights, points, beta, dim):
    # keyed on the first letter of word j, the unit rows leave the jet span:
    # rank 60 -> 80 on each of the eight S2 singletons
    md = MasterData(BlockInstance(alg, k, weights, points), beta)
    seen = 0
    for s, jets, rows, column in singleton_row_sets(md):
        if s.kind == "S2":
            rank = len(linalg._echelon(jets))
            assert rank == len(linalg._echelon(jets + rows)) == len(rows) == 60, s
            assert len(linalg._echelon(jets + first_letter_rows(md, s, column))) == 80, s
            seen += 1
    assert seen == 8


def test_singletons_take_no_jets(monkeypatch):
    # in production a singleton stratum never reaches the jet engine
    from cblocks import admissible

    jet_strata = []
    engine = admissible._jet_rows

    def recording(md, stratum, groups, d_max):
        jet_strata.append(stratum)
        return engine(md, stratum, groups, d_max)

    monkeypatch.setattr(admissible, "_jet_rows", recording)
    md = MasterData(BlockInstance(SL3, 1, [(1, 0)] * 3, [0, 1, 3]), [1, 1, 2])
    adm, stats = admissible_subspace(md, with_stats=True)
    assert len(adm) == 1
    assert jet_strata and all(len(s.subset) > 1 for s in jet_strata)
    assert any(len(e["stratum"].subset) == 1 and e["rows"] for e in stats)


def test_singleton_cutoff_above_floor_is_refused():
    # sl2 at k = 0: kappa = g* = 2 = (alpha, alpha), so SINF (1,) has cutoff
    # floor(1 + 2/2) = 2 above its floor 1, where the f_c rows are not proved;
    # BlockInstance refuses a nonzero weight at level 0, so the instance is
    # built by hand.  The S2 singletons have r(S) = 1/2 > 0 and are skipped.
    inst = SimpleNamespace(rs=SL2, k=0, weights=((1,), (1,)), points=(0, 1))
    md = MasterData(inst, [1])
    assert jet_cutoff(md, Stratum("SINF", (1,))) == 2
    with pytest.raises(ValueError, match=r"^SINF \(1,\): cutoff 2 is above the "
                       r"valuation floor 1"):
        admissible_subspace(md)


def reference_class_polys(md, stratum, groups, d_max):
    """The rows of _jet_rows, {key: {group: coeff}} in key order, summed one
    marked partition at a time.

    Each partition contributes its sign times its seed times the jets of the
    universe factors outside its chain denominator, every partial product
    cut at d_max less the seed and the least u-degree of the factors still
    to come in it: no first run summed in closed form and no cut by what
    another product adds.
    """
    universe = _universe(md.M, len(md.instance.points))
    chart = _chart(md, stratum, universe)
    shift = _u_shift(md.M, len(md.instance.points))
    low = {f: min(jet) >> shift for f, (jet, _) in chart.items()}
    top = (d_max + 1) << shift
    rows = {}
    for g, mps in enumerate(groups):
        for mp in mps:
            sign, denom = chain_denominator(mp.pis)
            rest = sorted((f for f in universe if f not in denom), key=lambda f: -low[f])
            lower = sum(low[f] for f in rest)
            cur = {sum(chart[f][1] for f in denom): sign}
            for f in rest:
                lower -= low[f]
                cur = _jet_mul(cur, chart[f][0], top - (lower << shift))
            for key, c in cur.items():
                row = rows.setdefault(key, {})
                row[g] = row.get(g, 0) + c
    rows = ((key, {g: c for g, c in row.items() if c}) for key, row in sorted(rows.items()))
    return {key: row for key, row in rows if row}


@pytest.mark.parametrize("alg,k,weights,points,beta,dim", ORACLE_INSTANCES + [
    SL3_K2_11,
    pytest.param(SL2, 2, [(2,), (2,), (2,), (0,)],
                 [0, Fraction(1, 2), 3, Fraction(-5, 3)], [1, 1, 1], 0,
                 id="sl2-k2-2220-nonintegral"),
])
def test_engine_jets_match_per_partition_reference(alg, k, weights, points, beta, dim):
    # identical jet rows, in key order, at the cutoff of every stratum of the
    # unpruned catalog; the mixed-color words put tt factors in the collapsed
    # chains, which one-color words never have, and at N = 4 each (variable,
    # head) product of t - z jets has three factors, with Fraction
    # coefficients at non-integral points
    md = MasterData(BlockInstance(alg, k, weights, points), beta)
    classes = classes_for(md.beta, len(points))
    groups = [class_partitions(cls, md.beta) for cls in classes]
    chains = _class_chains(classes, md.beta)
    assert sum(map(len, chains)) < sum(map(len, groups))
    checked = 0
    for s in stratum_catalog(md, prune_by_color=False):
        d_max = jet_cutoff(md, s)
        if d_max >= 0:
            want = reference_class_polys(md, s, groups, d_max)
            assert list(_jet_rows(md, s, chains, d_max).items()) == list(want.items()), s
            checked += bool(want)
    assert checked


def test_jet_walk_computes_each_trie_node_once_and_keeps_one_path(monkeypatch):
    # sl2 k=2 (2)^4, every non-singleton stratum of the pruned catalog with
    # cutoff >= 0: the walk in heads order makes one _jet_mul per trie node,
    # as a memo of every prefix did, whatever the order of the chains within
    # each group; a walk in chain order, or one rebuilding the path at every
    # chain, makes more.  Only the current path is kept, so SINF (1,2,3,4)
    # peaks below 3 MiB (4.5 MiB with every prefix product kept)
    from cblocks import admissible

    md = MasterData(BlockInstance(SL2, 2, [(2,)] * 4, [1, 2, 3, 4]), [1] * 4)
    chains = _class_chains(classes_for(md.beta, 4), md.beta)
    rng = random.Random(3)
    shuffled = [rng.sample(group, len(group)) for group in chains]
    strata = [(s, jet_cutoff(md, s)) for s in stratum_catalog(md) if len(s.subset) > 1]
    strata = [(s, d_max) for s, d_max in strata if d_max >= 0]
    s, d_max = strata[-1]
    assert s == Stratum("SINF", (1, 2, 3, 4))
    tracemalloc.start()
    try:
        _jet_rows(md, s, chains, d_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20
    calls = []

    def counting(a, b, limit):
        calls.append(None)
        return _jet_mul(a, b, limit)

    monkeypatch.setattr(admissible, "_jet_mul", counting)
    results = []
    for groups in (chains, shuffled):
        counts, rows = [], []
        for s, d_max in strata:
            calls.clear()
            rows.append(_jet_rows(md, s, groups, d_max))
            counts.append(len(calls))
        assert counts == [0, 0, 429, 0, 0, 0, 0, 38, 38, 38, 38, 92, 92, 92, 92,
                          429, 429, 429]
        results.append(rows)
    assert results[0] == results[1]


def reference_class_chains(cls, beta):
    """class_chains of one class, deduplicated from its marked partitions:
    the first partition with given first-run sets and rests of the chains
    stands for all of them, with the run factors t_a - y in place of the
    run's chain factors."""
    runs = [next((i for i, c in enumerate(w) if c != w[0]), len(w)) for w in cls]
    out, seen = [], set()
    for mp in class_partitions(cls, beta):
        key = tuple((frozenset(c[:r]), c[r:]) for c, r in zip(mp.pis, runs))
        if key in seen:
            continue
        seen.add(key)
        sign, denom = chain_denominator(tuple(rest for _, rest in key))
        for j, (run, rest) in enumerate(key, start=1):
            for a in run:
                f, s = canonical_tt(a, rest[0]) if rest else (("tz", a, j), 1)
                sign *= s
                denom[f] = 1
        out.append((sign, denom))
    return out


@pytest.mark.parametrize("alg,k,weights,points,beta,dim", ORACLE_INSTANCES + [
    pytest.param(SL3, 2, [(1, 1)] * 2, [0, 1], [1, 1, 2, 2], 1, id="sl3-k2-11"),
    pytest.param(SL2, 2, [(2,)] * 5, [0, 1, 3, 7, 11], [1] * 5, 0, id="sl2-k2-2x5"),
    pytest.param(SL2, 3, [(3,)] * 4, [0, 1, 3, 7], [1] * 6, 1, id="sl2-k3-3x4"),
])
def test_class_chains_match_per_partition_dedup(alg, k, weights, points, beta, dim):
    # the same chains in the same order, class by class; at (2)^5 the 15120
    # marked partitions collapse to 3125 chains
    total = 0
    for cls in classes_for(beta, len(points)):
        chains = class_chains(cls, beta)
        assert chains == reference_class_chains(cls, beta), cls
        total += len(chains)
    if beta == [1] * 5:
        assert total == 3125


def test_jet_mul_truncates_the_full_product():
    # packed keys (u << _u_shift(M, N)) + code with M = 3, N = 4; few
    # distinct keys and coefficients of both signs make terms of the product
    # cancel, and the frequent code 0 puts keys right at the limit
    rng = random.Random(7)
    width, shift = _slot_width(3, 4), _u_shift(3, 4)
    cancelled = 0

    def jet():
        out = {}
        for _ in range(rng.randrange(1, 7)):
            key = (rng.randrange(4) << shift) + rng.choice([0] + [
                sum(rng.randrange(3) << (width * i) for i in range(3))] * 2)
            out[key] = rng.choice([-2, -1, 1, 2, Fraction(1, 2)])
        return dict(sorted(out.items()))

    for _ in range(300):
        a, b, cap = jet(), jet(), rng.randrange(-1, 8)
        full = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                full[k1 + k2] = full.get(k1 + k2, 0) + c1 * c2
        cancelled += sum(1 for c in full.values() if not c)
        want = {key: c for key, c in full.items() if c and key >> shift <= cap}
        assert _jet_mul(a, b, (cap + 1) << shift) == want
    assert cancelled > 0


def test_residue_pole_profile_on_blocks():
    # iterated residues of computed block forms keep at most simple poles
    # toward the remaining variables and the marked points
    inst = BlockInstance(SL3, 1, [(1, 0), (1, 0), (1, 0)], [0, 1, 3])
    beta = [1, 1, 2]
    md = MasterData(inst, beta)
    psi = conformal_blocks(inst, beta).basis[0]
    for size in (2, 3):
        for T in combinations(range(1, 4), size):
            rep = control_poles_check(psi, md, list(T))
            if rep["nonzero"]:
                assert rep["color_sum_positive_root"]
                assert rep["simple_toward_variables"]
                assert rep["simple_toward_points"]
