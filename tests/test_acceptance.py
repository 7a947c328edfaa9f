"""Acceptance criteria: exact desk-scale verification, one line per criterion.

Every check is exact rational arithmetic; there are no tolerances to tune.
Run with -s to see the summary lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

from cblocks import linalg
from cblocks.admissible import MasterData, admissible_subspace
from cblocks.blocks import BlockInstance, conformal_blocks
from cblocks.degreelab import run_lemma_suite
from cblocks.logforms import (class_of, enumerate_marked_partitions,
                              expand_in_basis, omega_basis_form, sv_map,
                              symmetrized_basis)
from cblocks.ratfun import RationalForm, Stratum, iterated_residue
from cblocks.repspace import TensorFunctional
from cblocks.roots import build_root_system, check_pairwise_sums
from genforms import random_log_form
from paperchecks import (lowest_degree_term, span_contains, sum_residues_zero,
                         vacuum_propagation_check, z_independence_check)

SL2 = build_root_system("A", 1)
SL3 = build_root_system("A", 2)
G2 = build_root_system("G2", 2)
POINTS = [Fraction(p) for p in (0, 1, 3, 7)]


def _spans_equal_exact(instance, beta):
    """Blocks vs admissible: dims equal and mutual containment of bases."""
    space = conformal_blocks(instance, beta)
    adm = admissible_subspace(MasterData(instance, beta))
    basis = space.monomials
    if not basis:
        return space.dim == 0 and not adm, space.dim, len(adm)
    rows_b = [f.vector(basis) for f in space.basis]
    rows_a = [f.vector(basis) for f in adm]
    both = (linalg.spans_equal(rows_b, rows_a, len(basis))
            and all(span_contains(rows_a, r) for r in rows_b)
            and all(span_contains(rows_b, r) for r in rows_a))
    return both and space.dim == len(adm), space.dim, len(adm)


def quantum_cg(a, b, c, k):
    return int((a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b
               and a + b + c <= 2 * k)


def fusion_fold(cs, k):
    """N-point sl2 dimension by folding the three-point numbers."""
    if len(cs) == 1:
        return int(cs[0] == 0)
    vec = {cs[0]: 1}
    for c in cs[1:-1]:
        nxt = {}
        for j, mult in vec.items():
            for jj in range(k + 1):
                n = quantum_cg(j, c, jj, k)
                if n:
                    nxt[jj] = nxt.get(jj, 0) + mult * n
        vec = nxt
    return sum(mult * quantum_cg(j, cs[-1], 0, k) for j, mult in vec.items())


def criterion1_instances():
    for k in (1, 2):
        for N in range(1, 5):
            for cs in combinations_with_replacement(range(k, -1, -1), N):
                total = sum(cs)
                if total % 2 or total // 2 > 4:
                    continue
                yield k, list(cs)


def test_criterion_1_sl2_theorem_equality():
    start = time.time()
    count = 0
    for k, cs in criterion1_instances():
        inst = BlockInstance(SL2, k, [(c,) for c in cs], POINTS[: len(cs)])
        beta = [1] * (sum(cs) // 2)
        ok, db, da = _spans_equal_exact(inst, beta)
        assert ok, (k, cs, db, da)
        assert db == fusion_fold(cs, k), (k, cs)
        count += 1
    elapsed = time.time() - start
    assert elapsed < 300
    print(f"criterion 1: PASS  sl2 k<=2 equality on {count} instances "
          f"({elapsed:.1f}s)")


def test_criterion_2_sl3_g2_spots():
    start = time.time()
    spots = [
        (SL3, 1, [(1, 0), (0, 1)], [1, 2]),
        (SL3, 1, [(1, 0), (1, 0), (1, 0)], [1, 1, 2]),
        (SL3, 1, [(0, 1), (0, 1), (0, 1)], [1, 2, 2]),
        (G2, 1, [(1, 0), (0, 0)], [1, 1, 2]),
        (G2, 1, [(1, 0)], [1, 1, 2]),
    ]
    dims = []
    for rs, k, weights, beta in spots:
        t0 = time.time()
        inst = BlockInstance(rs, k, weights, POINTS[: len(weights)])
        ok, db, da = _spans_equal_exact(inst, beta)
        assert ok, (rs.family, weights, db, da)
        assert time.time() - t0 < 300
        dims.append(db)
    print(f"criterion 2: PASS  sl3/G2 spot equality, dims {dims} "
          f"({time.time()-start:.1f}s)")


def test_criterion_3_fusion_oracle():
    start = time.time()
    checked = 0
    for k in range(4):
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    cs = [a, b, c]
                    if sum(cs) % 2:
                        want = 0  # mu outside the root lattice
                    else:
                        want = quantum_cg(a, b, c, k)
                    inst = BlockInstance(SL2, k, [(x,) for x in cs], POINTS[:3])
                    got = conformal_blocks(inst, [1] * (sum(cs) // 2)).dim
                    assert got == want, (k, cs, got, want)
                    checked += 1
    print(f"criterion 3: PASS  fusion oracle on {checked} triples up to k=3 "
          f"({time.time()-start:.1f}s)")


def test_criterion_4_degree_lemma_suite():
    start = time.time()
    timings = {}
    report = {}
    from cblocks.degreelab import LEMMA_CATALOG, lemma_problem, min_degree_certify
    for name in LEMMA_CATALOG:
        t0 = time.time()
        res = min_degree_certify(lemma_problem(name))
        timings[name] = time.time() - t0
        report[name] = res["verdict"]
        assert res["verdict"] == "EMPTY", name
        assert timings[name] < 60, (name, timings[name])
    suite = run_lemma_suite()
    assert suite["difference-square-decomposition"]["verdict"] == "DECOMPOSED"
    print(f"criterion 4: PASS  {len(report)} degree lemmas EMPTY one below "
          f"bound, max {max(timings.values()):.1f}s ({time.time()-start:.1f}s)")


def test_criterion_5_pairwise_sum_enumeration():
    start = time.time()
    total = 0
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, 7):
            rep = check_pairwise_sums(build_root_system(family, rank))
            assert rep["all_ok"]
            total += len(rep["entries"])
    rep = check_pairwise_sums(G2)
    assert rep["all_ok"]
    total += len(rep["entries"])
    print(f"criterion 5: PASS  pairwise-sum inequality over {total} positive roots "
          f"({time.time()-start:.1f}s)")


def test_criterion_6_residue_property_suite():
    start = time.time()
    rng = random.Random(2024)
    runs = 200

    # iter1/iter2: adjacent-pair commutation
    nonzero = 0
    for _ in range(runs):
        form = random_log_form(rng, 4, 2, nterms=3)
        a = iterated_residue(iterated_residue(form, [1, 2]), [3, 4])
        b = iterated_residue(iterated_residue(form, [3, 4]), [1, 2])
        assert (a - b).is_zero()
        nonzero += not a.is_zero()
    assert nonzero >= runs // 4

    # iter3/iter4: disjoint blocks in every order
    from itertools import permutations as perms
    nonzero = 0
    for _ in range(runs):
        form = random_log_form(rng, 5, 2, nterms=3)
        blocks = [[1, 2], [3, 4], [5]]
        results = []
        for order in perms(range(3)):
            cur = form
            for i in order:
                cur = iterated_residue(cur, blocks[i])
            results.append(cur)
        for r in results[1:]:
            assert (r - results[0]).is_zero()
        nonzero += not results[0].is_zero()
    assert nonzero >= runs // 4

    # regularity of the residue off the pole locus
    pool = []
    for mp in enumerate_marked_partitions(3, 2):
        edges = {frozenset(c[i:i + 2]) for c in mp.pis for i in range(len(c) - 1)}
        if frozenset((1, 3)) not in edges and frozenset((2, 3)) not in edges:
            pool.append(mp)
    pts2 = POINTS[:2]
    checked = 0
    while checked < runs:
        total = RationalForm.zero(3, (1, 2, 3), pts2)
        for mp in rng.sample(pool, 3):
            c = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
            total = total + omega_basis_form(mp, pts2).scale(c)
        if total.is_zero() or total.pole_order(("tt", 1, 2)) != 1:
            continue
        res = total.residue_diagonal(2, 1)
        assert res.pole_order(("tt", 1, 3)) == 0
        checked += 1

    # anchor independence of the lowest jet
    checked = 0
    while checked < runs:
        form = random_log_form(rng, 3, 1, nterms=3)
        if form.is_zero():
            continue
        s = Stratum("S1", (1, 2, 3))
        results = [lowest_degree_term(form, s, initial=a) for a in (1, 2, 3)]
        assert len({r[0] for r in results}) == 1
        d0 = results[0][0]
        from test_ratfun import _u_valuation_on
        for (_, hn1, hd1, _), (_, hn2, hd2, _) in zip(results, results[1:]):
            diff = hn1 * hd2 - hn2 * hd1
            assert diff.is_zero() or _u_valuation_on(diff, (1, 2, 3)) > d0
        checked += 1

    # total residue of univariate log forms vanishes
    for _ in range(runs):
        form = random_log_form(rng, 1, 3, nterms=3,
                               points=POINTS[:3])
        assert sum_residues_zero(form)

    elapsed = time.time() - start
    assert elapsed < 120, elapsed
    print(f"criterion 6: PASS  residue/jet property suites, {runs} instances "
          f"each ({elapsed:.1f}s)")


def test_criterion_7_sv_bijectivity():
    start = time.time()
    # counts for M <= 5, N <= 4
    for M in range(6):
        for N in range(1, 5):
            assert (len(enumerate_marked_partitions(M, N))
                    == factorial(M) * comb(M + N - 1, N - 1))
    # basis duality for all (M <= 4, N <= 3), one same-color and one mixed
    # coloring per size
    pairs = 0
    for M in range(1, 5):
        for N in range(1, 4):
            colorings = [[1] * M]
            if M >= 2:
                colorings.append([1 + (a % 2) for a in range(M)])
            for beta in colorings:
                pts = POINTS[:N]
                rank = max(beta)
                dummy = [(0,) * rank] * N
                sym = dict(symmetrized_basis(beta, N, pts))
                classes = sorted(sym)
                supports = []
                for cls in classes:
                    psi = TensorFunctional({cls: 1}, dummy, beta)
                    image = sv_map(psi, beta, pts)
                    assert (image - sym[cls]).is_zero()
                    coeffs = expand_in_basis(image, pts)
                    assert all(v == 1 for v in coeffs.values())
                    assert {class_of(mp, beta) for mp in coeffs} == {cls}
                    supports.append(frozenset(coeffs))
                # supports partition the marked partitions: a signed permutation
                assert all(s for s in supports)
                assert len(frozenset.union(*supports)) == sum(map(len, supports))
                pairs += len(classes)
    elapsed = time.time() - start
    print(f"criterion 7: PASS  SV basis duality on {pairs} classes, counts "
          f"M<=5 N<=4 ({elapsed:.1f}s)")


def test_criterion_8_invariance_battery():
    start = time.time()
    instances = []
    for k, cs in criterion1_instances():
        instances.append((SL2, k, [(c,) for c in cs], [1] * (sum(cs) // 2)))
    instances += [
        (SL3, 1, [(1, 0), (0, 1)], [1, 2]),
        (SL3, 1, [(1, 0), (1, 0), (1, 0)], [1, 1, 2]),
        (SL3, 1, [(0, 1), (0, 1), (0, 1)], [1, 2, 2]),
        (G2, 1, [(1, 0), (0, 0)], [1, 1, 2]),
        (G2, 1, [(1, 0)], [1, 1, 2]),
    ]
    for rs, k, weights, beta in instances:
        pts = POINTS[: len(weights)]
        inst = BlockInstance(rs, k, weights, pts)
        base = conformal_blocks(inst, beta).dim
        assert vacuum_propagation_check(inst, beta), (rs.family, weights)
        alt = [Fraction(0)] + [Fraction(2 * i + 5) for i in range(1, len(pts))]
        assert z_independence_check(inst, beta, alt[: len(pts)]), (rs.family, weights)
        assert conformal_blocks(inst, beta, f_theta_scale=Fraction(5, 7)).dim == base
        moved = BlockInstance(rs, k, weights, [3 * p + 2 for p in pts])
        assert conformal_blocks(moved, beta).dim == base
    elapsed = time.time() - start
    print(f"criterion 8: PASS  invariance battery on {len(instances)} "
          f"instances ({elapsed:.1f}s)")
