"""Root-system data: counts, the normalized form, levels, patterns, bounds."""

import random
from fractions import Fraction

import pytest

from cblocks.repspace import weight_matches
from cblocks.roots import (build_root_system, check_pairwise_sums, level,
                           parse_algebra, root_patterns)


def weight_to_root_basis(rs, lam):
    """A weight in the simple-root basis, through the inverse Gram matrix."""
    W = rs._fundamental_in_root_basis
    return tuple(sum(Fraction(lam[p]) * W[p][q] for p in range(rs.rank))
                 for q in range(rs.rank))


COUNTS = [
    ("A", 1, 1), ("A", 2, 3), ("A", 5, 15),
    ("B", 2, 4), ("B", 3, 9), ("B", 6, 36),
    ("C", 2, 4), ("C", 3, 9), ("C", 6, 36),
    ("D", 3, 6), ("D", 4, 12), ("D", 6, 30),
    ("G2", 2, 6),
]


# every rank the closure is checked at: A1-A9, B2-B9, C2-C9, D3-D9 and G2
ALL_RANKS = ([("A", r) for r in range(1, 10)] + [("B", r) for r in range(2, 10)]
             + [("C", r) for r in range(2, 10)] + [("D", r) for r in range(3, 10)]
             + [("G2", 2)])


def root_string_closure(rs):
    """The positive roots by root strings from the simple roots, sorted by
    (height, tuple): gamma + alpha_i is a root iff p - <gamma, alpha_i^vee>
    >= 1, where p is the length of the alpha_i string below gamma."""
    roots = set(rs.simple_roots)
    frontier = set(rs.simple_roots)
    while frontier:
        nxt = set()
        for gamma in frontier:
            for i in range(rs.rank):
                if gamma == rs.simple_roots[i]:
                    continue  # 2*alpha_i is never a root
                p = 0
                down = list(gamma)
                while True:
                    down[i] -= 1
                    if any(c < 0 for c in down) or tuple(down) not in roots:
                        break
                    p += 1
                pairing = sum(rs.cartan[i][j] * gamma[j] for j in range(rs.rank))
                if p - pairing >= 1:
                    up = list(gamma)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.add(cand)
        frontier = nxt
    return sorted(roots, key=lambda r: (sum(r), r))


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_reflection_closure_matches_root_strings(family, rank):
    rs = build_root_system(family, rank)
    assert rs.positive_roots == root_string_closure(rs)


@pytest.mark.parametrize("family,rank,count", COUNTS)
def test_positive_root_counts(family, rank, count):
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == count
    assert len(set(rs.positive_roots)) == count
    for gamma in rs.positive_roots:
        assert all(c >= 0 for c in gamma) and any(c > 0 for c in gamma)


@pytest.mark.parametrize("family,rank,_", COUNTS)
def test_theta_norm(family, rank, _):
    rs = build_root_system(family, rank)
    assert rs.killing(rs.highest_root, rs.highest_root) == 2


def test_g2_roots_and_form():
    g2 = build_root_system("G2", 2)
    assert set(g2.positive_roots) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert g2.killing((1, 0), (1, 0)) == Fraction(2, 3)
    assert g2.killing((1, 0), (0, 1)) == -1
    assert g2.killing((0, 1), (0, 1)) == 2


def test_c3_off_diagonal():
    c3 = build_root_system("C", 3)
    assert c3.killing((1, 0, 0), (0, 1, 0)) == Fraction(-1, 2)
    assert c3.killing((0, 1, 0), (0, 0, 1)) == -1


def test_bn_highest_root():
    b3 = build_root_system("B", 3)
    assert b3.highest_root == (1, 2, 2)


def test_killing_bilinear_symmetric():
    rng = random.Random(5)
    for name in ("A3", "B2", "C3", "D4", "G2"):
        rs = parse_algebra(name)
        for _ in range(10):
            v = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(rs.rank)]
            w = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(rs.rank)]
            u = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(rs.rank)]
            assert rs.killing(v, w) == rs.killing(w, v)
            vu = [a + b for a, b in zip(v, u)]
            assert rs.killing(vu, w) == rs.killing(v, w) + rs.killing(u, w)


@pytest.mark.parametrize("family,rank,_", COUNTS)
def test_fundamental_weights_dual_to_simple_roots(family, rank, _):
    # (omega_p, alpha_q) = delta_pq (alpha_q, alpha_q)/2 through the inverse
    # gram matrix, and the weight pairing is symmetric
    rs = build_root_system(family, rank)
    units = [tuple(int(p == q) for q in range(rank)) for p in range(rank)]
    for p, omega in enumerate(units):
        in_roots = weight_to_root_basis(rs, omega)
        for q, alpha in enumerate(units):
            want = rs.gram[q][q] / 2 if p == q else 0
            assert rs.killing(in_roots, alpha) == want
    rng = random.Random(rank)
    for _ in range(5):
        lam, mu = (tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(2))
        assert rs.weight_weight_pairing(lam, mu) == rs.weight_weight_pairing(mu, lam)
        assert rs.weight_weight_pairing(lam, mu) == rs.killing(
            weight_to_root_basis(rs, lam), weight_to_root_basis(rs, mu))


def test_killing_dimension_mismatch():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        rs.killing((1,), (1, 0))


@pytest.mark.parametrize("name,gstar", [
    ("A1", 2), ("A4", 5), ("B3", 5), ("B6", 11), ("C3", 4), ("C6", 7),
    ("D4", 6), ("D6", 10), ("G2", 4),
])
def test_dual_coxeter_table(name, gstar):
    assert parse_algebra(name).dual_coxeter == gstar


@pytest.mark.parametrize("name,family,rank", [
    ("a3", "A", 3), (" b2 ", "B", 2), ("g2", "G2", 2), (" g2 ", "G2", 2), ("G2", "G2", 2),
])
def test_parse_algebra_ignores_case_and_spaces(name, family, rank):
    rs = parse_algebra(name)
    assert (rs.family, rs.rank) == (family, rank)


@pytest.mark.parametrize("name", ["", "E8", "g", "G3", "A", "Ax"])
def test_parse_algebra_refuses_bad_selectors(name):
    with pytest.raises(ValueError, match="bad algebra selector"):
        parse_algebra(name)


def test_levels():
    sl2 = build_root_system("A", 1)
    assert level(sl2, (1,)) == 1
    assert level(sl2, (0,)) == 0
    g2 = build_root_system("G2", 2)
    assert level(g2, (0, 1)) == 2  # fundamental weight dual to alpha_2
    assert level(g2, (1, 0)) == 1
    with pytest.raises(ValueError):
        level(sl2, (-1,))


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_level_is_the_pairing_with_theta(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(rank)
    for _ in range(10):
        lam = tuple(rng.randint(0, 4) for _ in range(rank))
        assert level(rs, lam) == rs.weight_root_pairing(lam, rs.highest_root)
    assert rs.dual_coxeter == 1 + rs.weight_root_pairing((1,) * rank, rs.highest_root)


@pytest.mark.parametrize("lam", [(1,), (0, 1, 0, 0), (1, -1, 0), (0, 0, -2)])
def test_level_refuses_wrong_length_and_non_dominant_weights(lam):
    with pytest.raises(ValueError):
        level(build_root_system("B", 3), lam)


@pytest.mark.parametrize("family,rank", [(f, r) for f, r in ALL_RANKS if r <= 6])
def test_weight_matches_the_inverse_gram_route(family, rank):
    # sum(lambda_i) against the content of beta, in root coordinates through
    # the inverse gram matrix
    rs = build_root_system(family, rank)
    rng = random.Random(10 * rank + len(family))
    seen = set()
    for _ in range(60):
        weights = [tuple(rng.randint(0, 2) for _ in range(rank))
                   for _ in range(rng.randint(1, 4))]
        total = [sum(x) for x in zip(*(weight_to_root_basis(rs, w) for w in weights))]
        content = [max(0, round(x)) for x in total]
        if rng.random() < 0.3:  # a near miss
            content[rng.randrange(rank)] += rng.choice((1, -1)) if any(content) else 1
            content = [max(0, c) for c in content]
        beta = [c for c, m in enumerate(content, 1) for _ in range(m)]
        rng.shuffle(beta)
        want = all(x == c for x, c in zip(total, content))
        assert weight_matches(rs, weights, beta) is want, (weights, beta)
        seen.add(want)
    assert seen == {True, False}


def test_level_linearity():
    rng = random.Random(11)
    for name in ("A2", "B3", "G2"):
        rs = parse_algebra(name)
        for _ in range(10):
            lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            mu = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            s = tuple(a + b for a, b in zip(lam, mu))
            assert level(rs, s) == level(rs, lam) + level(rs, mu)


def test_g2_pattern():
    g2 = build_root_system("G2", 2)
    pats = root_patterns(g2, 1)
    assert len(pats) == 1
    assert len(pats[0]["roots"]) == 5
    assert pats[0]["roots"][-1] == (3, 2)


def test_d4_two_patterns():
    d4 = build_root_system("D", 4)
    pats = root_patterns(d4, 1)
    assert len(pats) == 2
    assert all(tuple(p["roots"][-1]) == d4.highest_root for p in pats)


def test_every_pattern_from_alpha1_ends_at_theta():
    # theta is the only positive root no simple root extends, so
    # blocks.theta_pattern may take the first maximal pattern from alpha_1
    names = ([f"A{n}" for n in range(1, 6)] + [f"B{n}" for n in range(2, 6)]
             + [f"C{n}" for n in range(2, 6)] + [f"D{n}" for n in range(3, 7)] + ["G2"])
    for name in names:
        rs = parse_algebra(name)
        pats = root_patterns(rs, 1)
        assert pats and all(tuple(p["roots"][-1]) == rs.highest_root for p in pats), name


def test_a1_pattern():
    a1 = build_root_system("A", 1)
    assert root_patterns(a1, 1) == [{"roots": [(1,)], "steps": [1]}]


def test_bn_cn_single_pattern():
    for name in ("B3", "C3", "B4", "C4"):
        rs = parse_algebra(name)
        pats = root_patterns(rs, 1)
        assert len(pats) == 1
        assert tuple(pats[0]["roots"][-1]) == rs.highest_root


def test_unsupported():
    with pytest.raises(ValueError):
        build_root_system("G2", 3)
    with pytest.raises(ValueError):
        build_root_system("E", 6)
    with pytest.raises(ValueError):
        build_root_system("B", 1)
    with pytest.raises(ValueError):
        parse_algebra("X9")


def test_pairwise_sum_examples():
    a2 = build_root_system("A", 2)
    rep = check_pairwise_sums(a2)
    entry = next(e for e in rep["entries"] if e["root"] == (1, 1))
    assert entry["pair_sum"] == -1 and entry["bound"] == -3

    a1 = build_root_system("A", 1)
    entry = check_pairwise_sums(a1)["entries"][0]
    assert entry["pair_sum"] == 0 and entry["bound"] == -2

    g2 = build_root_system("G2", 2)
    entry = next(e for e in check_pairwise_sums(g2)["entries"] if e["root"] == (3, 2))
    assert entry["pair_sum"] == -2 and entry["ok"]


def test_pairwise_sums_all_families_rank6():
    for family in ("A", "B", "C", "D"):
        lo = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        for rank in range(lo, 7):
            assert check_pairwise_sums(build_root_system(family, rank))["all_ok"]
    assert check_pairwise_sums(build_root_system("G2", 2))["all_ok"]
