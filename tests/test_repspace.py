"""Free tensor weight spaces, kernel spans, actions, invariant functionals."""

from fractions import Fraction
from itertools import product

import pytest

from cblocks import linalg, repspace as rsp
from cblocks.blocks import BlockInstance, conformal_blocks
from cblocks.roots import build_root_system, root_patterns

SL2 = build_root_system("A", 1)
SL3 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
C2 = build_root_system("C", 2)
G2 = build_root_system("G2", 2)


def apply_e(rs, weights, vec, i):
    """e_i action via [e'_i, f'_j] = delta_ij h_i and the h-eigenvalues.

    Removing the occurrence of f'_i at position s in factor j picks up
    <lambda_j - sum_{u>s} alpha_{c_u}, alpha_i^vee>.  The invariance oracle:
    the solver needs no e_i rows (`rsp.invariant_constraint_rows`).
    """
    cartan = rs.cartan
    out = {}
    for mono, c in vec.items():
        for j, word in enumerate(mono):
            lam = weights[j]
            for s, letter in enumerate(word):
                if letter != i:
                    continue
                eig = lam[i - 1] - sum(cartan[i - 1][cu - 1] for cu in word[s + 1 :])
                if eig == 0:
                    continue
                new = mono[:j] + (word[:s] + word[s + 1 :],) + mono[j + 1 :]
                rsp._add(out, new, c * eig)
    return out


def catalan_invariant_count(m):
    """Ballot-path oracle for dim of the sl2 invariants in V_w^{2m}."""
    paths = {0: 1}
    for _ in range(2 * m):
        nxt = {}
        for j, c in paths.items():
            for jj in (j - 1, j + 1):
                if jj >= 0:
                    nxt[jj] = nxt.get(jj, 0) + c
        paths = nxt
    return paths.get(0, 0)


def test_weight_zero_basis_sl2():
    basis = rsp.weight_zero_basis(SL2, [(1,), (1,)], [1])
    assert basis == [((), (1,)), ((1,), ())]


def test_weight_zero_basis_vacuum():
    assert rsp.weight_zero_basis(SL2, [(0,)], []) == [((),)]


def test_weight_zero_basis_sl3_count():
    # free-algebra orderings are distinct words: 6, matching the
    # marked-partition count 2! * C(3,1)
    basis = rsp.weight_zero_basis(SL3, [(1, 0), (0, 1)], [1, 2])
    assert len(basis) == 6


def test_weight_mismatch_empty():
    assert rsp.weight_zero_basis(SL2, [(1,), (1,)], [1, 1]) == []
    assert not rsp.weight_matches(SL2, [(1,), (1,)], [1, 1])


@pytest.mark.parametrize("nfactors", [0, -1])
def test_monomials_refuse_fewer_than_one_factor(nfactors):
    with pytest.raises(ValueError, match="at least one slot"):
        rsp.monomials_with_content((1,), nfactors)
    with pytest.raises(ValueError, match="at least one slot"):
        rsp.distributions((0,), nfactors)
    assert rsp.monomials_with_content((1,), 1) == [((1,),)]


def test_serre_element_sl3():
    assert rsp.serre_element(SL3, 1, 2) == {
        (1, 1, 2): 1, (1, 2, 1): -2, (2, 1, 1): 1}


def test_serre_element_g2():
    # n_12 = -3: ad(f_1)^4 f_2; n_21 = -1: ad(f_2)^2 f_1
    assert len(rsp.serre_element(G2, 1, 2)) == 5
    assert rsp.serre_element(G2, 2, 1) == {
        (2, 2, 1): 1, (2, 1, 2): -2, (1, 2, 2): 1}


def test_serre_span_rank1_empty():
    assert rsp.serre_span(SL2, [(1,), (1,)], [1]) == []


def test_serre_span_sl3():
    vectors = rsp.serre_span(SL3, [(2, 1)], [1, 1, 2])
    assert vectors
    for vec in vectors:
        assert set(len(w) for mono in vec for w in mono) == {3}


def test_verma_span_examples():
    # vacuum factor: exponent 1, any color on it is in the kernel
    assert rsp.in_verma_kernel([(1,), (0,)], ((), (1,)))
    assert not rsp.in_verma_kernel([(1,), (0,)], ((1,), ()))
    # f'^2 on an omega factor
    assert rsp.in_verma_kernel([(1,), (1,)], ((1, 1), ()))
    assert rsp.in_verma_kernel([(1,), (1,)], ((), (1, 1)))
    assert not rsp.in_verma_kernel([(1,), (1,)], ((1,), (1,)))
    # only the end of the word counts: f'_1 f'_2 ends in f'_2^1, not f'_1^1
    assert rsp.in_verma_kernel([(1, 0)], ((1, 2),))
    assert not rsp.in_verma_kernel([(0, 1)], ((1, 2),))


def test_apply_examples():
    # e1 f'1 |w> = 1 * |w>
    assert apply_e(SL2, [(1,)], {((1,),): 1}, 1) == {((),): 1}
    # e1 on a highest weight vector gives nothing to remove
    assert apply_e(SL2, [(1,)], {((),): 1}, 1) == {}
    # e1 f'1 |0> = 0
    assert apply_e(SL2, [(0,)], {((1,),): 1}, 1) == {}


def test_sl2_triple_commutator():
    # [e_i, f_i] acts on a weight vector by its h-eigenvalue
    weights = [(1,), (1,)]
    for mono, eig in [((() , ()), 2), (((1,), ()), 0), (((1,), (1,)), -2)]:
        ef = apply_e(SL2, weights, rsp.apply_f({mono: 1}, 1), 1)
        fe = rsp.apply_f(apply_e(SL2, weights, {mono: 1}, 1), 1)
        comm = dict(ef)
        for m, c in fe.items():
            comm[m] = comm.get(m, 0) - c
            if not comm[m]:
                del comm[m]
        assert comm == ({mono: eig} if eig else {})


def test_lower_by_pattern():
    a1 = root_patterns(SL2, 1)[0]
    assert rsp.lower_by_pattern(SL2, a1) == {(1,): 1}
    a2 = root_patterns(SL3, 1)[0]
    assert rsp.lower_by_pattern(SL3, a2) == {(2, 1): 1, (1, 2): -1}
    with pytest.raises(ValueError):
        rsp.lower_by_pattern(SL3, {"steps": [1, 1]})


def test_f_theta_nonzero_on_quotient():
    # act on the highest weight of the adjoint-type weight and check the image
    # is outside both kernel spans
    lam = (1, 1)
    beta = [1, 2]
    basis = rsp.weight_zero_basis(SL3, [lam], beta)
    columns = [m for m in basis if not rsp.in_verma_kernel([lam], m)]
    index = {m: i for i, m in enumerate(columns)}
    ftheta = rsp.lower_by_pattern(SL3, root_patterns(SL3, 1)[0])
    image = rsp.apply_free_element({((),): 1}, 0, ftheta)
    # modulo the Verma-kernel monomials, outside the Serre span
    rows = [rsp.expand_row(v, index, [lam]) for v in rsp.serre_span(SL3, [lam], beta)]
    target = rsp.expand_row(image, index, [lam])
    assert not linalg.span_contains(rows, target)


def test_invariant_dims():
    assert len(rsp.invariant_functionals(SL2, [(1,), (1,)], [1])) == 1
    assert len(rsp.invariant_functionals(SL2, [(1,)] * 4, [1, 1])) == 2
    assert len(rsp.invariant_functionals(SL2, [(0,), (0,)], [])) == 1
    assert rsp.invariant_functionals(SL2, [(1,), (1,), (1,)], [1]) == []
    assert len(rsp.invariant_functionals(SL3, [(1, 0), (0, 1)], [1, 2])) == 1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_catalan_cross_check(m):
    dim = len(rsp.invariant_functionals(SL2, [(1,)] * (2 * m), [1] * m))
    assert dim == catalan_invariant_count(m)


def test_invariants_annihilate_kernels():
    weights = [(1, 0), (1, 0), (1, 0)]
    beta = [1, 1, 2]
    funcs = rsp.invariant_functionals(SL3, weights, beta)
    assert funcs
    kernel = [m for m in rsp.weight_zero_basis(SL3, weights, beta)
              if rsp.in_verma_kernel(weights, m)]
    assert kernel
    for f in funcs:
        for vec in rsp.serre_span(SL3, weights, beta):
            assert f.pair(vec) == 0
        for mono in kernel:
            assert f.pair({mono: 1}) == 0


def test_recoloring_invariance():
    d1 = len(rsp.invariant_functionals(SL3, [(1, 0), (0, 1)], [1, 2]))
    d2 = len(rsp.invariant_functionals(SL3, [(1, 0), (0, 1)], [2, 1]))
    assert d1 == d2


def test_invariance_under_e_f():
    # the invariant dual is solved without e_i rows; every e_i and f_i kills
    # it all the same, and the block functionals with it
    cases = [(SL2, 1, [(1,)] * 4, [0, 1, 3, 7], [1, 1]),
             (SL3, 1, [(1, 0), (0, 1)] * 2, [0, 1, 3, 7], [1, 2, 1, 2]),
             (SL3, 1, [(1, 0)] * 3, [0, 1, 3], [1, 1, 2]),
             (B2, 1, [(0, 1)] * 4, [0, 1, 3, 7], [1, 1, 2, 2, 2, 2]),
             (C2, 1, [(1, 0)] * 4, [0, 1, 3, 7], [1, 1, 1, 1, 2, 2]),
             (G2, 1, [(1, 0)] * 2, [0, 1], [1, 1, 1, 1, 2, 2]),
             (G2, 2, [(0, 1)] * 2, [0, Fraction(1, 3)], [1] * 6 + [2] * 4)]
    for rs, k, weights, points, beta in cases:
        space = conformal_blocks(BlockInstance(rs, k, weights, points), beta)
        funcs = rsp.invariant_functionals(rs, weights, beta) + space.basis
        assert space.basis
        nu = rsp.color_counts(rs, beta)
        for i in range(1, rs.rank + 1):
            down = list(nu)
            down[i - 1] -= 1
            images = [rsp.apply_f({mono: 1}, i)
                      for mono in rsp.monomials_with_content(down, len(weights))]
            up = list(nu)
            up[i - 1] += 1
            images += [apply_e(rs, weights, {mono: 1}, i)
                       for mono in rsp.monomials_with_content(up, len(weights))]
            for f in funcs:
                for vec in images:
                    assert f.pair(vec) == 0


def test_expand_row_drops_kernel_and_rejects_foreign_monomials():
    weights = [(0,), (2,)]
    _, columns = rsp.invariant_constraint_rows(SL2, weights, [1])
    assert columns == [((), (1,))]  # f'_1 on the vacuum factor is in the kernel
    index = {m: k for k, m in enumerate(columns)}
    assert rsp.expand_row({((), (1,)): 3, ((1,), ()): 5}, index, weights) == {0: 3}
    with pytest.raises(KeyError):  # content 2: outside the weight-zero basis
        rsp.expand_row({((), (1, 1)): 1}, index, weights)


def verma_kernel_units(rs, weights, beta):
    """Unit vectors on the weight-zero monomials whose factor-j word ends in
    f'_i^(1+<lambda_j,a_i^vee>): the power appended to every distribution of
    the remaining content."""
    nu = rsp.color_counts(rs, beta)
    n = len(weights)
    vectors = []
    for jf in range(n):
        for i in range(1, rs.rank + 1):
            e = 1 + weights[jf][i - 1]
            rest = list(nu)
            rest[i - 1] -= e
            if rest[i - 1] < 0:
                continue
            for dist in rsp.distributions(tuple(rest), n):
                words = list(dist)
                words[jf] += (i,) * e
                vectors.append({tuple(words): 1})
    return vectors


def four_family_invariants(rs, weights, beta):
    """Reference invariant dual, solved over the whole weight-zero basis: the
    Serre insertions, a unit row per Verma-kernel monomial, and the f_i and
    e_i images."""
    basis = rsp.weight_zero_basis(rs, weights, beta)
    if not basis:
        return []
    n = len(weights)
    nu = rsp.color_counts(rs, beta)
    vectors = rsp.serre_span(rs, weights, beta) + verma_kernel_units(rs, weights, beta)
    for i in range(1, rs.rank + 1):
        down = list(nu)
        down[i - 1] -= 1
        if down[i - 1] >= 0:
            vectors += [rsp.apply_f({mono: 1}, i)
                        for mono in rsp.monomials_with_content(down, n)]
        up = list(nu)
        up[i - 1] += 1
        vectors += [apply_e(rs, weights, {mono: 1}, i)
                    for mono in rsp.monomials_with_content(up, n)]
    index = {m: k for k, m in enumerate(basis)}
    rows = [{index[m]: c for m, c in vec.items()} for vec in vectors]
    return [rsp.TensorFunctional(dict(zip(basis, v)), weights, beta)
            for v in linalg.nullspace(rows, len(basis))]


SL2_INVARIANT_LADDER = [
    pytest.param(SL2, [(c,) for c in cs], [1] * (sum(cs) // 2),
                 id=f"sl2-{''.join(map(str, cs))}")
    for n in range(1, 5)
    for cs in product(range(4), repeat=n)
    if sum(cs) % 2 == 0
]


@pytest.mark.parametrize("rs,weights,beta", SL2_INVARIANT_LADDER + [
    pytest.param(SL3, [(1, 0), (0, 1)] * 2, [1, 2, 1, 2], id="sl3-1001-1001"),
    pytest.param(SL3, [(1, 0), (1, 0), (0, 1), (0, 1)], [1, 1, 2, 2],
                 id="sl3-1010-0101"),
    pytest.param(SL3, [(1, 1)] * 3, [1, 1, 1, 2, 2, 2], id="sl3-111111"),
    pytest.param(SL3, [(1, 0)] * 3, [1, 1, 2], id="sl3-cubic"),
    pytest.param(B2, [(0, 1)] * 4, [1, 1, 2, 2, 2, 2], id="b2-spin4"),
    pytest.param(B2, [(1, 0)] * 3, [1, 1, 1, 2, 2, 2], id="b2-vector3"),
    pytest.param(B2, [(0, 1), (0, 1), (1, 0)], [1, 1, 2, 2, 2], id="b2-0101-10"),
    pytest.param(C2, [(1, 0)] * 4, [1, 1, 1, 1, 2, 2], id="c2-vector4"),
    pytest.param(C2, [(1, 0), (1, 0), (0, 1)], [1, 1, 1, 2, 2], id="c2-1010-01"),
    pytest.param(G2, [(1, 0)] * 2, [1, 1, 1, 1, 2, 2], id="g2-1010"),
    pytest.param(G2, [(0, 1)] * 2, [1] * 6 + [2] * 4, id="g2-0101"),
    pytest.param(SL3, [(1, 0)] * 2, [1, 1, 2], id="weight-mismatch"),
])
def test_invariant_functionals_match_four_family_reference(rs, weights, beta):
    assert rsp.invariant_functionals(rs, weights, beta) == four_family_invariants(
        rs, weights, beta)
