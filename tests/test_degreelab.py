"""Degree-lemma certification and the symmetric-difference decomposition."""

import random
from fractions import Fraction
from math import comb

import pytest

from cblocks import linalg
from cblocks.degreelab import (CeilingExceeded, DegreeProblem, LEMMA_CATALOG,
                               _orbit_count, difference_square_decompose,
                               lemma_problem, min_degree_certify,
                               run_lemma_suite)
from cblocks.ratfun import SparsePoly


def at_bound(name):
    """The catalog lemma `name` at its claimed bound, where a sharp bound has
    a witness."""
    return DegreeProblem(*LEMMA_CATALOG[name]())


def test_symmetric_vanishing_degree_one_empty():
    p = DegreeProblem(["u1", "u2"], [("u1", "u2")], [("u1", "u2")], 1)
    assert min_degree_certify(p)["verdict"] == "EMPTY"


def test_witness_found_at_degree_two():
    p = DegreeProblem(["u1", "u2"], [("u1", "u2")], [("u1", "u2")], 2)
    res = min_degree_certify(p)
    assert res["verdict"] == "WITNESS"
    w = {e: Fraction(c) for e, c in res["witness"].items()}
    # the witness must be a multiple of (u1 - u2)^2
    assert w in ({(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)},
                 {(2, 0): Fraction(-1), (1, 1): Fraction(2), (0, 2): Fraction(-1)})


def permuted(poly, perm):
    """`poly` ({exponents: coeff}) with the variables moved by perm[i] -> i."""
    return {tuple(e[perm[i]] for i in range(len(e))): c for e, c in poly.items()}


def restricted(poly, idx):
    """`poly` with every variable of idx replaced by the first one."""
    out = {}
    for e, c in poly.items():
        ee = list(e)
        ee[idx[0]] = sum(e[i] for i in idx)
        for i in idx[1:]:
            ee[i] = 0
        key = tuple(ee)
        out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("name", ["triple-sym-three-points", "pair-sym-four-points",
                                  "triple-with-collector", "two-pairs-chain"])
def test_witness_at_bound_on_catalog_rows(name):
    problem = at_bound(name)
    res = min_degree_certify(problem)
    assert res["verdict"] == "WITNESS"
    w = {e: Fraction(c) for e, c in res["witness"].items()}
    assert w and all(w.values())
    assert all(sum(e) <= problem.bound for e in w)
    pos = {v: i for i, v in enumerate(problem.variables)}
    for block in problem.symmetry:
        idx = [pos[v] for v in block]
        for a, b in zip(idx, idx[1:]):  # adjacent swaps generate the block's group
            perm = list(range(len(problem.variables)))
            perm[a], perm[b] = b, a
            assert permuted(w, perm) == w
    for diagonal in problem.vanishing:
        assert restricted(w, [pos[v] for v in diagonal]) == {}


def test_ceiling():
    p = DegreeProblem([f"x{i}" for i in range(12)], [], [("x0", "x1")], 20)
    with pytest.raises(CeilingExceeded):
        min_degree_certify(p, ceiling=1000)


def test_problem_validation():
    with pytest.raises(ValueError):
        DegreeProblem(["x", "x"], [], [("x", "x")], 1)
    with pytest.raises(ValueError, match="at least one variable"):
        DegreeProblem([], [], [], 2)
    with pytest.raises(ValueError, match="names a variable twice"):
        DegreeProblem(["x", "y"], [], [("x", "x", "y")], 1)
    with pytest.raises(ValueError):
        DegreeProblem(["x", "y"], [("x",), ("x",)], [("x", "y")], 1)
    with pytest.raises(ValueError):
        DegreeProblem(["x", "y"], [], [("x",)], 1)
    with pytest.raises(ValueError):
        DegreeProblem(["x", "y"], [], [("x", "z")], 1)


@pytest.mark.parametrize("name", sorted(LEMMA_CATALOG))
def test_each_lemma_certifies(name):
    res = min_degree_certify(lemma_problem(name))
    assert res["verdict"] == "EMPTY", name


NOT_SHARP = ("triple-head-ladder(m=1)", "triple-tail-ladder(m=1)",
             "open-triple-head-ladder(m=1)", "open-triple-tail-ladder(m=1)")


@pytest.mark.parametrize("name", sorted(LEMMA_CATALOG))
def test_bound_sharpness(name):
    # at its claimed bound a lemma has a witness, except the four m=1 triple
    # ladders, whose bounds are valid but not sharp
    res = min_degree_certify(at_bound(name))
    assert res["verdict"] == ("EMPTY" if name in NOT_SHARP else "WITNESS"), name


def test_pair_ladder_matches_two_pairs_shape():
    # the two constraint families coincide up to renaming; compare verdict and
    # system sizes
    a = min_degree_certify(lemma_problem("two-pairs-two-points"))
    b = min_degree_certify(lemma_problem("pair-ladder(m=1)"))
    assert a["verdict"] == b["verdict"] == "EMPTY"
    assert a["columns"] == b["columns"]


def test_run_lemma_suite():
    report = run_lemma_suite()
    for name, res in report.items():
        if name == "difference-square-decomposition":
            assert res["verdict"] == "DECOMPOSED"
        else:
            assert res["verdict"] == "EMPTY"
            assert res["degree_checked"] == res["claimed_bound"] - 1


def test_decomposition_identity_example():
    g = SparsePoly(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})  # (u1-u2)^2
    parts = difference_square_decompose(g, 2)
    assert len(parts) == 1
    (pair, A) = parts[0]
    assert pair == (1, 2) and A.terms == {(0, 0): 1}


def test_decomposition_three_variables():
    n = 3
    x = [SparsePoly.variable(n, i) for i in (1, 2, 3)]
    p2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    p1 = x[0] + x[1] + x[2]
    g = p2.scale(3) - p1 * p1
    parts = difference_square_decompose(g, n)
    recon = SparsePoly(n)
    for (i, j), A in parts:
        d = SparsePoly.variable(n, i) - SparsePoly.variable(n, j)
        recon = recon + d * d * A
    assert (recon - g).is_zero()


def test_decomposition_rejects_bad_input():
    n = 2
    x1 = SparsePoly.variable(n, 1)
    with pytest.raises(ValueError):
        difference_square_decompose(x1, n)  # not symmetric
    sym_not_vanishing = SparsePoly.variable(n, 1) + SparsePoly.variable(n, 2)
    with pytest.raises(ValueError):
        difference_square_decompose(sym_not_vanishing, n)


# the certifier without its reductions, as the reference ----------------------


def reference_orbits(problem):
    """Orbits of every monomial of degree <= bound, by enumeration."""
    n = len(problem.variables)
    blocks = [[problem._pos[v] for v in b] for b in problem.symmetry]

    def monomials(nvars, total):
        if nvars == 1:
            yield (total,)
            return
        for k in range(total + 1):
            for tail in monomials(nvars - 1, total - k):
                yield (k,) + tail

    groups = {}
    for total in range(problem.bound + 1):
        for e in monomials(n, total):
            rep = list(e)
            for block in blocks:
                for i, v in zip(block, sorted((e[i] for i in block), reverse=True)):
                    rep[i] = v
            groups.setdefault(tuple(rep), []).append(e)
    return [groups[r] for r in sorted(groups)]


def reference_certify(problem, ceiling=200_000):
    """The certificate on every orbit of degree <= bound and every diagonal,
    the witness from the first vector of the whole nullspace basis."""
    n = len(problem.variables)
    count = comb(problem.bound + n, n)
    if count > ceiling:
        raise CeilingExceeded(count)
    orbits = reference_orbits(problem)
    ncols = len(orbits)

    def all_rows():
        for diagonal in problem.vanishing:
            idx = [problem._pos[v] for v in diagonal]
            rows = {}
            for col, orbit in enumerate(orbits):
                for e in orbit:
                    ee = list(e)
                    for i in idx:
                        ee[i] = 0
                    ee[idx[0]] = sum(e[i] for i in idx)
                    cur = rows.setdefault(tuple(ee), {})
                    cur[col] = cur.get(col, 0) + 1
            for _, entries in sorted(rows.items()):
                yield entries

    empty = {"verdict": "EMPTY", "bound": problem.bound, "columns": ncols}
    if linalg.rank_mod_p(all_rows(), ncols) == ncols:
        return empty
    basis = linalg.nullspace(list(all_rows()), ncols)
    if not basis:
        return empty
    witness = {}
    for orbit, c in zip(orbits, basis[0]):
        if c:
            for e in orbit:
                witness[e] = c
    return {**empty, "verdict": "WITNESS",
            "witness": {e: str(c) for e, c in sorted(witness.items())}}


def catalog_problems():
    for name, build in LEMMA_CATALOG.items():
        variables, symmetry, diag, bound = build()
        for b in (bound - 1, bound):
            yield f"{name}@{b}", DegreeProblem(variables, symmetry, diag, b)


def random_problems(count=320, seed=13):
    """Up to 6 variables, some in symmetry blocks and some alone, up to 5
    diagonals, bound <= 5."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        variables = [f"x{i}" for i in range(n)]
        order = rng.sample(variables, n)
        symmetry, i = [], 0
        while i < n:
            size = rng.randint(1, 3)
            if size > 1 and i + size <= n:
                symmetry.append(tuple(order[i:i + size]))
            i += size
        diag = ([tuple(rng.sample(variables, rng.randint(2, min(n, 4))))
                 for _ in range(rng.randint(0, 5))] if n > 1 else [])
        yield DegreeProblem(variables, symmetry, diag, rng.randint(0, 5))


@pytest.mark.parametrize("label,problem", list(catalog_problems()),
                         ids=[label for label, _ in catalog_problems()])
def test_catalog_matches_reference(label, problem):
    assert min_degree_certify(problem) == reference_certify(problem), label


def test_random_problems_match_reference():
    verdicts = {"EMPTY": 0, "WITNESS": 0}
    mixed = 0  # problems with a symmetry block and a variable outside all blocks
    for problem in random_problems():
        res = min_degree_certify(problem)
        assert res == reference_certify(problem), problem
        verdicts[res["verdict"]] += 1
        mixed += bool(problem.symmetry) and (
            len(problem.variables) > sum(map(len, problem.symmetry)))
    assert sum(verdicts.values()) >= 300
    assert min(verdicts.values()) >= 50 and mixed >= 50, (verdicts, mixed)


@pytest.mark.parametrize("sizes", [(), (1,), (2,), (3,), (1, 1, 1), (2, 2),
                                   (3, 1, 1), (2, 3, 1), (4,), (1, 2, 2, 1)])
@pytest.mark.parametrize("bound", [-1, 0, 1, 3, 6])
def test_orbit_count_matches_enumeration(sizes, bound):
    n = max(sum(sizes), 1)
    variables = [f"x{i}" for i in range(n)]
    symmetry, i = [], 0
    for size in sizes:
        symmetry.append(tuple(variables[i:i + size]))
        i += size
    problem = DegreeProblem(variables, symmetry, [], bound)
    singles = [1] * (n - sum(sizes))
    assert _orbit_count(list(sizes) + singles, bound) == len(reference_orbits(problem))
