"""Degree-lemma certification and the symmetric-difference decomposition."""

import random
import re
import time
from fractions import Fraction
from math import comb

import pytest

from cblocks import linalg
from cblocks.degreelab import (CeilingExceeded, DegreeProblem, LEMMA_CATALOG,
                               _close, _distinct_diagonals, _orbits,
                               difference_square_decompose, lemma_problem,
                               min_degree_certify, run_lemma_suite)
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


def check_witness(problem, res):
    """The witness of `res` is nonzero, homogeneous of degree bound,
    symmetric and zero on every diagonal of `problem`."""
    w = {e: Fraction(c) for e, c in res["witness"].items()}
    assert w and all(w.values())
    assert all(sum(e) == problem.bound for e in w)
    pos = {v: i for i, v in enumerate(problem.variables)}
    for block in problem.symmetry:
        idx = [pos[v] for v in block]
        for a, b in zip(idx, idx[1:]):  # adjacent swaps generate the block's group
            perm = list(range(len(problem.variables)))
            perm[a], perm[b] = b, a
            assert permuted(w, perm) == w
    for diagonal in problem.vanishing:
        assert restricted(w, [pos[v] for v in diagonal]) == {}


@pytest.mark.parametrize("name", ["triple-sym-three-points", "pair-sym-four-points",
                                  "triple-with-collector", "two-pairs-chain"])
def test_witness_at_bound_on_catalog_rows(name):
    problem = at_bound(name)
    res = min_degree_certify(problem)
    assert res["verdict"] == "WITNESS"
    check_witness(problem, res)


def test_every_witness_is_valid():
    # every witness of CERTIFY_CASES and random_problems()
    witnesses = 0
    for problem in [p for _, p in CERTIFY_CASES] + list(random_problems()):
        res = min_degree_certify(problem)
        if res["verdict"] == "WITNESS":
            witnesses += 1
            check_witness(problem, res)
    assert witnesses >= 200


def test_ceiling():
    p = DegreeProblem([f"x{i}" for i in range(12)], [], [("x0", "x1")], 20)
    with pytest.raises(CeilingExceeded):
        min_degree_certify(p, ceiling=1000)
    # the count C(bound + n, n) is exact when its last partial product is the
    # first past the ceiling, here C(4, 2) = 6 past 5
    p = DegreeProblem(["x", "y"], [], [("x", "y")], 2)
    with pytest.raises(CeilingExceeded, match=r"^6 monomials exceed the ceiling 5;"):
        min_degree_certify(p, ceiling=5)


def test_ceiling_refuses_a_huge_count_without_computing_it():
    # C(16000, 8000) has 4815 digits, past Python's int-to-str limit: the
    # count stops at its first partial product past the ceiling
    p = DegreeProblem([f"x{i}" for i in range(8000)], [], [("x0", "x1")], 8000)
    start = time.perf_counter()
    with pytest.raises(CeilingExceeded, match=r"^more than 200000 monomials exceed "
                       r"the ceiling 200000;"):
        min_degree_certify(p)
    assert time.perf_counter() - start < 1


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
    # a negative bound used to answer EMPTY (-1, -2) or fail in the ceiling
    # count (-3)
    for bound in (-1, -2, -3):
        with pytest.raises(ValueError, match="nonnegative"):
            DegreeProblem(["x", "y"], [], [("x", "y")], bound)
    # a bound that is not an int used to be coerced: 2.5 certified a witness
    # at degree 2, "3" read as 3 and True as 1
    for bound in (2.5, "3", True):
        with pytest.raises(ValueError, match=re.escape(repr(bound))):
            DegreeProblem(["x", "y"], [], [("x", "y")], bound)
    assert min_degree_certify(DegreeProblem(["x", "y"], [], [("x", "y")], 0))[
        "verdict"] == "EMPTY"


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


def reference_orbits(problem, bound):
    """Orbits of every monomial of degree <= bound under the problem's
    symmetry, by enumeration."""
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
    for total in range(bound + 1):
        for e in monomials(n, total):
            rep = list(e)
            for block in blocks:
                for i, v in zip(block, sorted((e[i] for i in block), reverse=True)):
                    rep[i] = v
            groups.setdefault(tuple(rep), []).append(e)
    return [groups[r] for r in sorted(groups)]


def of_degree(orbits, bound):
    """The orbits of degree exactly bound, in their order."""
    return [orbit for orbit in orbits if sum(orbit[0]) == bound]


def reference_nullspace(problem, orbits):
    """The nullspace of every diagonal's rows on the given orbits."""
    return linalg.nullspace(list(reference_rows(problem, orbits)), len(orbits))


def reference_certify(problem, ceiling=200_000):
    """The nullspace of all rows, on every orbit of degree exactly bound and
    every diagonal: EMPTY if it is zero, else the witness from its first
    vector.  `columns` counts the orbits of degree <= bound."""
    n = len(problem.variables)
    count = comb(problem.bound + n, n)
    if count > ceiling:
        raise CeilingExceeded(count)
    every = reference_orbits(problem, problem.bound)
    top = of_degree(every, problem.bound)
    empty = {"verdict": "EMPTY", "bound": problem.bound, "columns": len(every)}
    basis = reference_nullspace(problem, top)
    if not basis:
        return empty
    witness = {}
    for orbit, c in zip(top, basis[0]):
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


def diagonal_problems():
    """Size-1 blocks, blocks out of variable order, no blocks; each with
    diagonals that meet blocks in part, in full and not at all.  Last, a
    problem that only the elimination finds EMPTY: at bound 3 the closure
    leaves 3 survivors and the exact rref gives each a pivot; at bound 4 it
    has a witness."""
    shapes = {
        "sized(1, 2, 2, 1)": ([("x0",), ("x1", "x2"), ("x3", "x4"), ("x5",)],
                              [("x0", "x1", "x3"), ("x2", "x5"), ("x1", "x2"),
                               ("x1", "x2", "x3", "x4")]),
        "out-of-order": ([("x3", "x1"), ("x4", "x0", "x2")],
                         [("x1", "x3", "x5"), ("x0", "x4"), ("x0", "x2", "x3"),
                          ("x5", "x2")]),
        "no-blocks": ([], [("x0", "x1"), ("x1", "x2", "x3"), ("x4", "x5")]),
    }
    variables = [f"x{i}" for i in range(6)]
    for name, (symmetry, diag) in shapes.items():
        for bound in (0, 1, 3, 5):
            yield f"{name}@{bound}", DegreeProblem(variables, symmetry, diag, bound)
    for bound in (3, 4):
        yield f"elimination-empty@{bound}", DegreeProblem(
            variables, [("x3", "x0"), ("x1", "x5", "x4", "x2")],
            [("x2", "x3", "x4", "x5")], bound)


CERTIFY_CASES = [*catalog_problems(), *diagonal_problems()]


def check_against_reference(problem):
    """The certificate equals the top-degree reference, and, as the top-degree
    lemma says, the nullspace over every degree <= bound is zero iff the
    top-degree one is.  Returns the certificate."""
    res = min_degree_certify(problem)
    assert res == reference_certify(problem), problem
    every = bool(reference_nullspace(problem, reference_orbits(problem, problem.bound)))
    assert every == (res["verdict"] == "WITNESS"), problem
    return res


@pytest.mark.parametrize("label,problem", CERTIFY_CASES,
                         ids=[label for label, _ in CERTIFY_CASES])
def test_catalog_matches_reference(label, problem):
    check_against_reference(problem)


def test_random_problems_match_reference():
    verdicts = {"EMPTY": 0, "WITNESS": 0}
    mixed = 0  # problems with a symmetry block and a variable outside all blocks
    for problem in random_problems():
        res = check_against_reference(problem)
        verdicts[res["verdict"]] += 1
        mixed += bool(problem.symmetry) and (
            len(problem.variables) > sum(map(len, problem.symmetry)))
    assert sum(verdicts.values()) >= 300
    assert min(verdicts.values()) >= 50 and mixed >= 50, (verdicts, mixed)


def sized_problem(sizes, bound):
    """Variables x0, x1, ... (at least one) in consecutive symmetry blocks of
    the given sizes, then alone; no diagonal."""
    n = max(sum(sizes), 1)
    variables = [f"x{i}" for i in range(n)]
    symmetry, i = [], 0
    for size in sizes:
        symmetry.append(tuple(variables[i:i + size]))
        i += size
    return DegreeProblem(variables, symmetry, [], bound)


@pytest.mark.parametrize("sizes", [(), (1,), (2,), (3,), (1, 1, 1), (2, 2),
                                   (3, 1, 1), (2, 3, 1), (4,), (1, 2, 2, 1)])
@pytest.mark.parametrize("bound", [0, 1, 3, 6])
def test_orbit_count_matches_enumeration(sizes, bound):
    problem = sized_problem(sizes, bound)
    count, _ = _orbits(len(problem.variables), bound, blocks_of(problem), [])
    assert count == len(reference_orbits(problem, bound))  # every degree <= bound


# the orbit enumeration and the unit closure, against the reference ----------


def blocks_of(problem):
    return [[problem._pos[v] for v in b] for b in problem.symmetry]


def has_unit_row(problem, orbit):
    """Some member has degree 0 on one of the problem's diagonals (all of
    them, not only the distinct ones the certifier keeps)."""
    return any(not any(e[problem._pos[v]] for v in d)
               for e in orbit for d in problem.vanishing)


def check_enumeration(problem):
    """The enumerator against reference_orbits, column by column: members
    listed for exactly the orbits of degree bound with no unit row, numbered
    by the sorted representatives, each the whole orbit.  Returns {column:
    members}."""
    n, bound = len(problem.variables), problem.bound
    every = reference_orbits(problem, bound)
    want = of_degree(every, bound)
    count, live = _orbits(n, bound, blocks_of(problem), _distinct_diagonals(problem))
    assert count == len(every)
    assert list(live) == [col for col, orbit in enumerate(want)
                          if not has_unit_row(problem, orbit)]
    assert all(sorted(members) == sorted(want[col]) for col, members in live.items())
    return live


def enumeration_problems():
    for sizes in [(), (1,), (2,), (3, 1, 1), (2, 3, 1), (1, 2, 2, 1)]:
        for bound in (0, 1, 3, 5):
            yield f"{sizes}@{bound}", sized_problem(sizes, bound)
    for label, problem in catalog_problems():
        if problem.bound <= 4:  # catalog blocks, some not in variable order
            yield label, problem
    yield from diagonal_problems()
    for k, problem in enumerate(random_problems(count=40)):
        yield f"random-{k}", problem


@pytest.mark.parametrize("label,problem", list(enumeration_problems()),
                         ids=[label for label, _ in enumeration_problems()])
def test_orbit_enumeration_matches_reference(label, problem):
    check_enumeration(problem)


def test_members_are_listed_for_live_orbits_only():
    problem = lemma_problem("pair-ladder(m=2)")
    top = of_degree(reference_orbits(problem, problem.bound), problem.bound)
    live = check_enumeration(problem)
    assert (len(top), len(live)) == (261, 56)


def test_large_block_lists_each_member_once():
    # one block of 12 variables and the diagonal over all of them: the orbit
    # of x0 has 12 members, and a walk over the 12! orderings of a block to
    # find them would not finish
    variables = [f"x{i}" for i in range(12)]
    for bound in (1, 2):
        problem = DegreeProblem(variables, [variables], [variables], bound)
        assert min_degree_certify(problem) == reference_certify(problem)
        live = check_enumeration(problem)
        # every monomial of degree bound, each listed once
        assert sum(map(len, live.values())) == comb(bound + 11, 11)


def reference_rows(problem, orbits):
    """Every diagonal's rows on the given orbits, with no reduction."""
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
        yield from rows.values()


def assert_dead_columns_in_row_span(problem):
    """Every column the unit closure kills has its unit vector in the exact
    row span of all rows on the reference orbits of degree bound.  The
    closure is complete: it kills what a unit closure over all those rows
    kills, and leaves no row with one entry.  Returns the number killed."""
    n, bound = len(problem.variables), problem.bound
    diagonals = _distinct_diagonals(problem)
    top = of_degree(reference_orbits(problem, bound), bound)
    _, live = _orbits(n, bound, blocks_of(problem), diagonals)
    live, rows = _close(live, diagonals)
    dead = [col for col in range(len(top)) if col not in live]
    every_row = list(reference_rows(problem, top))
    assert set(dead) == unit_closure(every_row), problem
    assert all(len(row) > 1 and row.keys() <= live.keys() for row in rows)
    red, pivots = linalg.rref(every_row, len(top))
    for c in dead:
        unit = [0] * len(top)
        unit[c] = 1
        assert c in pivots and red[pivots.index(c)] == unit, (problem, top[c])
    return len(dead)


@pytest.mark.parametrize("label,problem", list(catalog_problems()),
                         ids=[label for label, _ in catalog_problems()])
def test_dead_columns_are_zero_on_catalog(label, problem):
    marked = assert_dead_columns_in_row_span(problem)
    if "ladder" in label:
        assert marked, label


def test_dead_columns_are_zero_on_random_problems():
    marked = sum(map(assert_dead_columns_in_row_span, random_problems()))
    assert marked


def recorded_rref(monkeypatch):
    """(rows, ncols) of every linalg.rref call from now on."""
    calls = []
    rref = linalg.rref

    def recording(rows, ncols=None):
        calls.append((rows, ncols))
        return rref(rows, ncols)

    monkeypatch.setattr(linalg, "rref", recording)
    return calls


def unit_closure(rows):
    """The columns killed on `rows` by a row with one column left alive."""
    dead, grown = set(), True
    while grown:
        grown = False
        for row in rows:
            alive = set(row) - dead
            if len(alive) == 1:
                dead |= alive
                grown = True
    return dead


def test_suite_certificates_reach_no_elimination(monkeypatch):
    calls = recorded_rref(monkeypatch)
    report = run_lemma_suite()
    assert [res["verdict"] for res in report.values()].count("EMPTY") == len(LEMMA_CATALOG)
    assert calls == []


@pytest.mark.parametrize("label,verdict", [("pair-ladder(m=2)@6", "WITNESS"),
                                           ("elimination-empty@3", "EMPTY")])
def test_elimination_reads_no_dead_column(label, verdict, monkeypatch):
    # the closure leaves survivors here, so its rows reach one rref, and
    # none carries a column it kills on the rows of degree bound
    [problem] = [p for name, p in CERTIFY_CASES if name == label]
    calls = recorded_rref(monkeypatch)
    assert min_degree_certify(problem)["verdict"] == verdict
    top = of_degree(reference_orbits(problem, problem.bound), problem.bound)
    dead = unit_closure(list(reference_rows(problem, top)))
    [(rows, ncols)] = calls
    assert rows and dead and ncols <= len(top)
    assert not [row for row in rows if len(row) < 2 or dead.intersection(row)]
