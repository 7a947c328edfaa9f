"""Degree-lemma certification and the symmetric-difference decomposition."""

from fractions import Fraction

import pytest

from cblocks.degreelab import (CeilingExceeded, DegreeProblem, LEMMA_CATALOG,
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
