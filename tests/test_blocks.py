"""Conformal block spaces against the fusion oracle and invariance checks."""

from fractions import Fraction
from itertools import product

import pytest

from cblocks.blocks import (BlockInstance, InstanceError, conformal_blocks,
                            f_theta_element, t_condition_content, t_operator)
from cblocks.roots import build_root_system
from cblocks import linalg, repspace as rsp
from paperchecks import span_contains, vacuum_propagation_check, z_independence_check
from test_repspace import four_family_invariants

SL2 = build_root_system("A", 1)
SL3 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
C2 = build_root_system("C", 2)
G2 = build_root_system("G2", 2)
PTS = [0, 1, 3, 7, 19]


def sl2_dim(k, cs, pts=None):
    inst = BlockInstance(SL2, k, [(c,) for c in cs], (pts or PTS)[: len(cs)])
    return conformal_blocks(inst, [1] * (sum(cs) // 2)).dim


def classical_sl2_invariant_dim(cs):
    """Independent tensor-decomposition walk over sl2 weights (omega units)."""
    vec = {0: 1}
    for c in cs:
        nxt = {}
        for j, mult in vec.items():
            for jj in range(abs(j - c), j + c + 1, 2):
                nxt[jj] = nxt.get(jj, 0) + mult
        vec = nxt
    return vec.get(0, 0)


def quantum_cg(a, b, c, k):
    """The three-point oracle: classical CG plus the level-k truncation."""
    return int((a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b
               and a + b + c <= 2 * k)


def test_instance_validation():
    with pytest.raises(InstanceError):
        BlockInstance(SL2, 1, [(1,), (1,)], [0, 0])
    with pytest.raises(InstanceError):
        BlockInstance(SL2, 1, [(2,), (0,)], [0, 1])
    with pytest.raises(InstanceError):
        BlockInstance(SL2, 1, [(1,)], [0, 1])


def test_spec_examples():
    assert sl2_dim(1, [1, 1, 0]) == 1
    assert sl2_dim(1, [1, 1, 1, 1]) == 1
    # mu = 3 omega is not in the root lattice
    inst = BlockInstance(SL2, 1, [(1,), (1,), (1,)], [0, 1, 3])
    assert conformal_blocks(inst, [1]).dim == 0


def test_fusion_oracle_all_triples():
    for k in range(4):
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    if (a + b + c) % 2:
                        continue
                    assert sl2_dim(k, [a, b, c]) == quantum_cg(a, b, c, k), (k, a, b, c)


def test_classical_agreement_when_t_vacuous():
    # without the T condition the dimension is the classical invariant count
    for cs in ([1, 1], [1, 1, 0], [2, 1, 1], [2, 2, 2]):
        k = max(cs) + sum(cs) // 2  # large enough level: T condition vacuous
        inst = BlockInstance(SL2, k, [(c,) for c in cs], PTS[: len(cs)])
        beta = [1] * (sum(cs) // 2)
        assert conformal_blocks(inst, beta).dim == classical_sl2_invariant_dim(cs)


def test_t_operator_shape():
    # N=1, z=0: T = 0
    inst = BlockInstance(SL2, 1, [(0,)], [0])
    T = t_operator(inst)
    assert T({((),): 1}) == {}
    # T lowers the color content by theta per application
    inst = BlockInstance(SL2, 1, [(1,), (1,)], [0, 1])
    T = t_operator(inst)
    out = T({((), ()): 1})
    assert out and all(sum(len(w) for w in m) == 1 for m in out)
    # f placed only in the slot with z != 0
    assert out == {((), (1,)): 1}


def test_f_theta_elements():
    assert f_theta_element(SL2) == {(1,): 1}
    assert f_theta_element(SL3) == {(2, 1): 1, (1, 2): -1}
    assert len(f_theta_element(G2)) > 1


def test_vacuum_propagation():
    inst = BlockInstance(SL2, 1, [(1,), (1,)], [0, 1])
    assert vacuum_propagation_check(inst, [1])
    inst = BlockInstance(SL2, 1, [(1,), (1,), (0,)], [0, 1, 3])
    assert vacuum_propagation_check(inst, [1])
    inst = BlockInstance(SL2, 2, [(0,), (0,)], [0, 1])
    assert conformal_blocks(inst, []).dim == 1
    assert vacuum_propagation_check(inst, [])


def test_z_independence():
    inst = BlockInstance(SL2, 1, [(1,), (1,), (0,)], [0, 1, 2])
    assert z_independence_check(inst, [1], [0, 1, 5])
    g2inst = BlockInstance(G2, 1, [(1, 0), (0, 0)], [0, 1])
    assert z_independence_check(g2inst, [1, 1, 2], [2, 9])
    with pytest.raises(InstanceError):
        z_independence_check(inst, [1], [0, 0, 1])


def test_f_theta_rescaling_invariance():
    inst = BlockInstance(SL2, 1, [(1,)] * 4, [0, 1, 3, 7])
    d1 = conformal_blocks(inst, [1, 1]).dim
    d2 = conformal_blocks(inst, [1, 1], f_theta_scale=Fraction(-5, 3)).dim
    assert d1 == d2 == 1


def test_affine_z_invariance():
    inst = BlockInstance(SL2, 2, [(2,), (1,), (1,)], [0, 1, 3])
    base = conformal_blocks(inst, [1, 1]).dim
    moved = BlockInstance(inst.rs, inst.k, inst.weights,
                          [Fraction(5), Fraction(7), Fraction(11)])
    assert conformal_blocks(moved, [1, 1]).dim == base


def test_blocks_subset_of_invariants():
    inst = BlockInstance(SL2, 1, [(1,)] * 4, [0, 1, 3, 7])
    space = conformal_blocks(inst, [1, 1])
    basis = space.monomials
    inv = rsp.invariant_functionals(SL2, inst.weights, [1, 1])
    inv_rows = [f.vector(basis) for f in inv]
    for f in space.basis:
        assert span_contains(inv_rows, f.vector(basis))


def test_blocks_annihilate_serre_span():
    inst = BlockInstance(SL3, 1, [(1, 0)] * 3, [0, 1, 3])
    beta = [1, 1, 2]
    space = conformal_blocks(inst, beta)
    assert space.dim == 1
    for f in space.basis:
        for vec in rsp.serre_span(SL3, inst.weights, beta):
            assert f.pair(vec) == 0


def test_sl3_g2_small():
    inst = BlockInstance(SL3, 1, [(1, 0), (0, 1)], [0, 1])
    assert conformal_blocks(inst, [1, 2]).dim == 1
    inst = BlockInstance(G2, 1, [(1, 0), (0, 0)], [0, 1])
    assert conformal_blocks(inst, [1, 1, 2]).dim == 0


def test_sl2_four_point_verlinde():
    # dim = sum_j N(a,b,j) N(j,c,d) over level-k weights
    def verlinde4(k, a, b, c, d):
        return sum(quantum_cg(a, b, j, k) * quantum_cg(j, c, d, k)
                   for j in range(k + 1))

    for k in (1, 2):
        for cs in ([1, 1, 1, 1], [2, 1, 1, 0], [2, 2, 1, 1], [2, 2, 2, 2]):
            if max(cs) > k or sum(cs) % 2:
                continue
            assert sl2_dim(k, cs) == verlinde4(k, *cs), (k, cs)


def two_stage_blocks(instance, beta, f_theta_scale=1):
    """Reference: the invariant functionals of the four-family reference
    first, then the T^{k+1} image rows projected onto them with dense
    products, a second nullspace over the invariant combinations and the
    block functionals recombined."""
    rs = instance.rs
    basis = rsp.weight_zero_basis(rs, instance.weights, beta)
    invariants = four_family_invariants(rs, instance.weights, beta)
    target = t_condition_content(instance, beta)
    if not basis or not invariants or target is None:
        return invariants
    T = t_operator(instance, scale=f_theta_scale)
    inv_vecs = [f.vector(basis) for f in invariants]
    rows = []
    for w in rsp.monomials_with_content(target, instance.npoints):
        vec = {w: 1}
        for _ in range(instance.k + 1):
            vec = T(vec)
        if vec:
            rows.append([sum(iv[basis.index(m)] * c for m, c in vec.items())
                         for iv in inv_vecs])
    if not rows:
        return invariants
    out = []
    for y in linalg.nullspace(rows, len(invariants)):
        coeffs = {}
        for yl, f in zip(y, invariants):
            for m, c in f.coeffs.items():
                coeffs[m] = coeffs.get(m, Fraction(0)) + yl * c
        out.append(rsp.TensorFunctional(coeffs, instance.weights, beta))
    return out


SL2_FOUR_POINT_LADDER = [
    pytest.param(SL2, k, [(c,) for c in cs], PTS[:4], [1] * (sum(cs) // 2), 1,
                 id=f"sl2-k{k}-{''.join(map(str, cs))}")
    for k in range(4)
    for cs in product(range(k + 1), repeat=4)
    if sum(cs) % 2 == 0
]


@pytest.mark.parametrize("alg,k,weights,points,beta,scale", SL2_FOUR_POINT_LADDER + [
    pytest.param(SL3, 1, [(1, 0), (0, 1)] * 2, [0, 1, 3, 7], [1, 2, 1, 2], 1,
                 id="sl3-k1-1001-1001"),
    pytest.param(SL3, 2, [(1, 0), (1, 0), (0, 1), (0, 1)], [0, 1, 3, 7],
                 [1, 2, 1, 2], 1, id="sl3-k2-1010-0101"),
    pytest.param(SL3, 1, [(1, 0)] * 3, [0, 1, 3], [1, 1, 2], 1, id="sl3-k1-cubic"),
    pytest.param(B2, 1, [(0, 1)] * 2, [0, 1], [1, 2, 2], 1, id="b2-k1"),
    pytest.param(C2, 1, [(1, 0)] * 2, [0, 1], [1, 1, 2], 1, id="c2-k1"),
    pytest.param(G2, 1, [(1, 0), (0, 0)], [0, 1], [1, 1, 2], 1, id="g2-k1"),
    pytest.param(G2, 1, [(1, 0)] * 2, [0, 1], [1, 1, 1, 1, 2, 2], 1,
                 id="g2-k1-1010"),
    pytest.param(G2, 2, [(0, 0), (1, 0), (1, 0)], [0, 1, 3], [1, 1, 1, 1, 2, 2], 1,
                 id="g2-k2-001010"),
    pytest.param(SL2, 1, [(1,)] * 4, [0, 1, 3, 7], [1, 1], Fraction(-5, 3),
                 id="sl2-k1-scaled"),
    pytest.param(SL2, 2, [(2,), (2,), (1,), (1,)],
                 [0, Fraction(1, 2), 3, Fraction(-5, 3)], [1, 1, 1], 1,
                 id="sl2-k2-2211-nonintegral"),
    pytest.param(SL2, 3, [(2,), (2,), (2,), (2,)],
                 [Fraction(1, 3), Fraction(-2, 7), 5, Fraction(9, 4)], [1] * 4,
                 Fraction(3, 2), id="sl2-k3-2222-nonintegral-scaled"),
    pytest.param(SL2, 1, [(0,)], [0], [], 1, id="sl2-vacuum-no-rows"),
    pytest.param(SL2, 1, [(1,), (1,), (1,)], [0, 1, 3], [1], 1,
                 id="weight-mismatch"),
])
def test_one_nullspace_matches_two_stage_construction(alg, k, weights, points,
                                                      beta, scale):
    inst = BlockInstance(alg, k, weights, points)
    space = conformal_blocks(inst, beta, f_theta_scale=scale)
    assert space.basis == two_stage_blocks(inst, beta, f_theta_scale=scale)
