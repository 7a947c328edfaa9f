"""Genus-0 conformal block spaces via the algebraic T^{k+1} criterion.

A block space is the set of weight-zero functionals Psi that are g-invariant
and satisfy <Psi| T^{k+1} |v> = 0, where T = sum_i z_i f_theta^(i) and v runs
over the tensor monomials whose color content is mu - (k+1)theta.  Both are
linear conditions on Psi, so the space is one nullspace: the invariant
constraint rows and the image rows T^{k+1} v, stacked as sparse rows over the
weight-zero basis monomials outside the Verma kernel (Psi is 0 on the others,
see `repspace.invariant_constraint_rows`).  When that content is not zero or
a nonnegative combination of simple roots the T condition is vacuous and adds
no rows.
"""

from fractions import Fraction

from . import linalg, repspace
from .ratfun import demote
from .roots import level, root_patterns


class InstanceError(ValueError):
    """Invalid level/weight/point data for a block computation."""


class BlockInstance:
    """One problem instance: algebra, level, weights, marked points."""

    def __init__(self, rs, k, weights, points):
        if k < 0:
            raise InstanceError("level must be nonnegative")
        self.rs = rs
        self.k = k
        self.weights = tuple(tuple(w) for w in weights)
        self.points = tuple(Fraction(p) for p in points)
        if len(self.points) != len(self.weights):
            raise InstanceError("need one point per weight")
        if not self.points:
            raise InstanceError("need at least one marked point")
        if len(set(self.points)) != len(self.points):
            raise InstanceError("points must be pairwise distinct")
        for w in self.weights:
            if len(w) != rs.rank:
                raise InstanceError("weight rank mismatch")
            if level(rs, w) > k:
                raise InstanceError(f"weight {w} exceeds level {k}")

    @property
    def npoints(self):
        return len(self.points)


class BlockSpace:
    def __init__(self, basis, monomials):
        self.basis = list(basis)
        self.monomials = list(monomials)
        self.dim = len(self.basis)


def theta_pattern(rs):
    """The canonical root pattern from alpha_1 up to the highest root.

    theta is the only positive root that no simple root extends, so every
    maximal pattern from alpha_1 ends at theta, and the first one is taken.
    """
    return root_patterns(rs, 1)[0]


def f_theta_element(rs):
    return repspace.lower_by_pattern(rs, theta_pattern(rs))


def t_operator(instance, scale=1):
    """T = sum_i z_i f_theta^(i) acting on tensor vectors (dict monomial->coeff)."""
    elem = f_theta_element(instance.rs)
    if scale != 1:
        elem = {w: scale * c for w, c in elem.items()}
    points = [demote(z) for z in instance.points]

    def apply(vec):
        out = {}
        for i, z in enumerate(points):
            if z == 0:
                continue
            for mono, c in repspace.apply_free_element(vec, i, elem).items():
                cc = out.get(mono, 0) + z * c
                if cc:
                    out[mono] = cc
                elif mono in out:
                    del out[mono]
        return out

    return apply


def t_condition_content(instance, beta):
    """Color content mu - (k+1)theta, or None when the condition is vacuous."""
    rs = instance.rs
    nu = repspace.color_counts(rs, beta)
    theta = rs.highest_root
    target = tuple(nu[q] - (instance.k + 1) * theta[q] for q in range(rs.rank))
    if any(t < 0 for t in target):
        return None
    return target


def conformal_blocks(instance, beta, f_theta_scale=1):
    """Block space: the nullspace of one system over the invariant columns.

    Its rows are the invariant constraint rows and the image rows T^{k+1} v,
    over the columns `repspace.invariant_constraint_rows` returns; a vacuous
    T condition adds no rows.  The space keeps the whole weight-zero basis
    as its monomials.  Deterministic: reduced echelon over the lexicographic
    monomial order.
    """
    rs = instance.rs
    basis = repspace.weight_zero_basis(rs, instance.weights, beta)
    if not basis:  # weight mismatch: T image rows would leave the basis
        return BlockSpace([], [])
    rows, columns = repspace.invariant_constraint_rows(
        rs, instance.weights, beta, basis)
    target = t_condition_content(instance, beta)
    if target is not None:
        T = t_operator(instance, scale=f_theta_scale)
        index = repspace.column_index(basis, columns)
        for w in repspace.monomials_with_content(target, instance.npoints):
            vec = {w: 1}
            for _ in range(instance.k + 1):
                vec = T(vec)
            row = repspace.expand_row(vec, index)
            if row:
                rows.append(row)
    return BlockSpace(
        [repspace.TensorFunctional(dict(zip(columns, v)), instance.weights, beta)
         for v in linalg.nullspace(rows, len(columns))],
        basis)
