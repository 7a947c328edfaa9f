"""Root systems for A_n, B_n, C_n, D_n and G2 with the normalized Killing form.

Roots are integer vectors in the simple-root basis, weights are nonnegative
integer vectors in the fundamental-weight basis.  The form is normalized so
that (theta, theta) = 2 for the highest root theta; with that normalization
the comarks are a_i^vee = theta_i (alpha_i, alpha_i)/2, integers,
level(lambda) = (lambda, theta) = sum_i lambda_i a_i^vee and the dual
Coxeter number is 1 + sum_i a_i^vee (Kac, Infinite-dimensional Lie algebras,
6.1).  Everything is exact (Fraction) and immutable after construction.
"""

from fractions import Fraction
from functools import cached_property

from . import linalg

FAMILIES = ("A", "B", "C", "D", "G2")

# (alpha_i, alpha_i) values per family, normalized to (theta, theta) = 2.
# Off-diagonal values follow the connected Dynkin diagram; see _gram below.


def _gram_matrix(family, rank):
    g = [[Fraction(0) for _ in range(rank)] for _ in range(rank)]
    if family == "A":
        for i in range(rank):
            g[i][i] = Fraction(2)
        for i in range(rank - 1):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    elif family == "B":
        # alpha_n short: (alpha_n, alpha_n) = 1, the rest long.
        for i in range(rank):
            g[i][i] = Fraction(2) if i < rank - 1 else Fraction(1)
        for i in range(rank - 1):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    elif family == "C":
        # alpha_n long: (alpha_n, alpha_n) = 2, the rest short of length 1.
        for i in range(rank):
            g[i][i] = Fraction(1) if i < rank - 1 else Fraction(2)
        for i in range(rank - 2):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1, 2)
        g[rank - 2][rank - 1] = g[rank - 1][rank - 2] = Fraction(-1)
    elif family == "D":
        for i in range(rank):
            g[i][i] = Fraction(2)
        for i in range(rank - 2):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
        g[rank - 3][rank - 1] = g[rank - 1][rank - 3] = Fraction(-1)
    elif family == "G2":
        g[0][0] = Fraction(2, 3)
        g[0][1] = g[1][0] = Fraction(-1)
        g[1][1] = Fraction(2)
    return g


class RootSystem:
    """Immutable root-system data for one family/rank.

    Attributes: family, rank, gram (Killing form on simple roots),
    positive_roots (integer tuples, simple-root basis), highest_root,
    comarks, dual_coxeter, cartan (n_ij = 2(a_i,a_j)/(a_i,a_i)).
    """

    def __init__(self, family, rank):
        if family not in FAMILIES:
            raise ValueError(f"unsupported family {family!r}")
        if family == "G2":
            if rank != 2:
                raise ValueError("G2 has rank 2")
        elif family == "A":
            if rank < 1:
                raise ValueError("A_n needs rank >= 1")
        elif family in ("B", "C"):
            if rank < 2:
                raise ValueError(f"{family}_n needs rank >= 2")
        elif family == "D":
            if rank < 3:
                raise ValueError("D_n needs rank >= 3")
        self.family = family
        self.rank = rank
        self.gram = _gram_matrix(family, rank)
        self.cartan = [
            [_as_int(2 * self.gram[i][j] / self.gram[i][i]) for j in range(rank)]
            for i in range(rank)
        ]
        self.simple_roots = [
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        ]
        self.positive_roots = self._close_positive_roots()
        self.highest_root = max(self.positive_roots, key=lambda r: (sum(r), r))
        if self.killing(self.highest_root, self.highest_root) != 2:
            raise AssertionError("normalization broken: (theta,theta) != 2")
        self.comarks = tuple(_as_int(t * self.gram[i][i] / 2)
                             for i, t in enumerate(self.highest_root))
        self.dual_coxeter = 1 + sum(self.comarks)

    def __repr__(self):
        name = self.family if self.family == "G2" else f"{self.family}{self.rank}"
        return f"RootSystem({name})"

    def _close_positive_roots(self):
        """The positive roots: the simple roots closed under the simple
        reflections s_i(gamma) = gamma - <gamma, alpha_i^vee> alpha_i, with
        <gamma, alpha_i^vee> = sum_j cartan[i][j] gamma_j, keeping the images
        with no negative coordinate.  Sorted by (height, tuple).

        Every image is a root, and a root with no negative coordinate is
        positive, so the closure holds positive roots only.  It holds them
        all, by induction on the height.  Let gamma be a positive root that
        is not simple.  (gamma, gamma) = sum_i gamma_i (gamma, alpha_i) > 0
        gives an i with gamma_i > 0 and <gamma, alpha_i^vee> > 0.  The only
        positive multiple of alpha_i that is a root is alpha_i itself, so
        gamma has a positive coordinate j != i, which s_i keeps: s_i gamma is
        a positive root, of height smaller by <gamma, alpha_i^vee>.  By
        induction it is in the closure, and so is gamma = s_i(s_i gamma).
        """
        roots = set(self.simple_roots)
        frontier = list(roots)
        while frontier:
            nxt = []
            for gamma in frontier:
                for i, row in enumerate(self.cartan):
                    pairing = sum(n * g for n, g in zip(row, gamma))
                    # s_i moves coordinate i only
                    image = gamma[:i] + (gamma[i] - pairing,) + gamma[i + 1:]
                    if image[i] >= 0 and image not in roots:
                        roots.add(image)
                        nxt.append(image)
            frontier = nxt
        return sorted(roots, key=lambda r: (sum(r), r))

    # pairings ---------------------------------------------------------

    def killing(self, v, w):
        """Killing form on root-lattice vectors (simple-root basis, rational ok)."""
        if len(v) != self.rank or len(w) != self.rank:
            raise ValueError("dimension mismatch")
        total = Fraction(0)
        for i in range(self.rank):
            if v[i] == 0:
                continue
            for j in range(self.rank):
                if w[j] != 0:
                    total += Fraction(v[i]) * self.gram[i][j] * Fraction(w[j])
        return total

    def weight_root_pairing(self, lam, v):
        """(lambda, v) for lambda in the fundamental-weight basis, v in the root basis.

        Uses (omega_p, alpha_q) = delta_pq (alpha_q, alpha_q)/2; no gram inverse needed.
        """
        return sum(
            Fraction(lam[q]) * Fraction(v[q]) * self.gram[q][q] / 2
            for q in range(self.rank)
        )

    def weight_weight_pairing(self, lam, mu):
        """(lambda, mu) for two weights in the fundamental-weight basis."""
        W = self._fundamental_in_root_basis
        mu_alpha = [
            sum(Fraction(mu[p]) * W[p][q] for p in range(self.rank))
            for q in range(self.rank)
        ]
        return self.weight_root_pairing(lam, mu_alpha)

    @cached_property
    def _fundamental_in_root_basis(self):
        # the gram matrix is invertible: rref([gram | I]) = [I | gram^-1]
        n = self.rank
        red, _ = linalg.rref([row + [int(p == q) for q in range(n)]
                              for p, row in enumerate(self.gram)])
        # row p solves w_p . gram = e_p * (a_p,a_p)/2, i.e. (omega_p, alpha_q) as required
        return [[red[p][n + q] * self.gram[p][p] / 2 for q in range(n)] for p in range(n)]


def _as_int(x):
    f = Fraction(x)
    if f.denominator != 1:
        raise AssertionError(f"expected integer, got {f}")
    return int(f)


def build_root_system(family, rank):
    """Construct and validate the root system for one of A, B, C, D, G2."""
    return RootSystem(family, rank)


def parse_algebra(name):
    """Parse a selector string like "A3", "B2", "G2" into a RootSystem."""
    name = name.strip()
    fam, num = name[:1].upper(), name[1:]
    if fam + num == "G2":
        return build_root_system("G2", 2)
    if fam not in ("A", "B", "C", "D") or not num.isdigit():
        raise ValueError(f"bad algebra selector {name!r}")
    return build_root_system(fam, int(num))


def level(rs, lam):
    """(lambda, theta) = sum_i lambda_i a_i^vee; membership in P_k is level <= k."""
    if len(lam) != rs.rank:
        raise ValueError(f"weight has {len(lam)} entries, rank is {rs.rank}")
    if any(c < 0 for c in lam):
        raise ValueError("weight not dominant")
    return sum(c * a for c, a in zip(lam, rs.comarks))


def root_patterns(rs, start):
    """Maximal chains of positive roots starting at alpha_start (1-based index).

    Each step adds one simple root and stays inside the positive roots.
    """
    if not 1 <= start <= rs.rank:
        raise ValueError("start must index a simple root")
    posset = set(rs.positive_roots)
    first = rs.simple_roots[start - 1]
    patterns = []

    def extend(chain, steps):
        cur = chain[-1]
        grown = False
        for i in range(rs.rank):
            cand = tuple(c + int(i == j) for j, c in enumerate(cur))
            if cand in posset:
                grown = True
                extend(chain + [cand], steps + [i + 1])
        if not grown:
            patterns.append((tuple(chain), tuple(steps)))

    extend([first], [start])
    patterns.sort()
    return [{"roots": list(r), "steps": list(s)} for r, s in patterns]


def check_pairwise_sums(rs):
    """Pairwise-sum inequality over simple-root decompositions of positive roots.

    For gamma = sum of simple roots delta_i (with multiplicity, determined by
    the coefficients of gamma), verifies sum_{i<j} (delta_i, delta_j) > -g*.
    Returns a report with the minimum margin over all positive roots.
    """
    gstar = rs.dual_coxeter
    entries = []
    for gamma in rs.positive_roots:
        pair_sum = (
            rs.killing(gamma, gamma)
            - sum(Fraction(c) * rs.gram[i][i] for i, c in enumerate(gamma))
        ) / 2
        entries.append(
            {
                "root": gamma,
                "pair_sum": pair_sum,
                "bound": -gstar,
                "margin": pair_sum + gstar,
                "ok": pair_sum > -gstar,
            }
        )
    min_margin = min(e["margin"] for e in entries)
    return {
        "all_ok": all(e["ok"] for e in entries),
        "min_margin": min_margin,
        "entries": entries,
    }
