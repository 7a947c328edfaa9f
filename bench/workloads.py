"""The four benchmark workloads: seeded instance lists, the exact computation
behind each instance, and the reference check of every answer.

Nothing here imports `cblocks` at module import time: a pass imports it
during its timed set-up.  Program functions are called through their module
(`p.blocks.conformal_blocks`), so the tracer's wrappers are the ones called.
"""

import hashlib
import importlib
import inspect
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial
from pathlib import Path

WORKLOADS = ("theorem", "blocks-ladder", "svmap-duality", "degree-lemma")
REFERENCE_PATH = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0

# Marked points are distinct integers from this range.  Integer points are the
# fast path of the admissibility engine; 0 is left out because a zero point
# drops terms from the jet substitutions and the T operator, and would make
# the cost of an instance depend on whether the seed happened to draw it.
POINT_RANGE = range(1, 7)

# admissible_subspace's own default cap on the stratum subset size.  Every
# `theorem` instance has M <= STRATUM_CAP, so the catalog is complete and the
# benchmark never times a truncated-catalog verdict.
STRATUM_CAP = 6

ALGEBRAS = {"A1": ("A", 1), "A2": ("A", 2), "G2": ("G2", 2)}

# verdict instances beyond sl2 criterion 1: algebra, level, weights, coloring
THEOREM_EXTRA = (
    ("A2", 1, ((1, 0), (0, 1)), (1, 2)),
    ("A2", 1, ((1, 0), (1, 0), (1, 0)), (1, 1, 2)),
    ("A2", 1, ((0, 1), (0, 1), (0, 1)), (1, 2, 2)),
    ("G2", 1, ((1, 0), (0, 0)), (1, 1, 2)),
    ("G2", 1, ((1, 0),), (1, 1, 2)),
    ("A2", 2, ((1, 1), (1, 1)), (1, 1, 2, 2)),
)

# conformal_blocks-only instances beyond the three-point triples
LADDER_LARGE = (
    ("A1", 2, ((2,),) * 5, (1,) * 5),
    ("A1", 3, ((3,),) * 4, (1,) * 6),
    ("A2", 1, ((1, 0), (0, 1), (1, 0), (0, 1)), (1, 1, 2, 2)),
    ("A2", 1, ((1, 0), (1, 0), (0, 1), (0, 1)), (1, 1, 2, 2)),
)

# SV duality sizes: (M, N) with M <= 4, N <= 2 and M <= 3, N = 3
SVMAP_SIZES = tuple((M, N) for M in range(1, 5) for N in range(1, 4)
                    if N <= 2 or M <= 3)
COUNT_SIZES = tuple((M, N) for M in range(6) for N in range(1, 5))

# instance kinds whose answer carries a basis hash
HASHED_KINDS = ("theorem", "blocks-ladder", "class")


class WorkloadError(ValueError):
    """An instance list that the benchmark refuses to time."""


# the program ----------------------------------------------------------------


class Program:
    """The cblocks layer modules, imported on construction."""

    LAYERS = ("roots", "repspace", "blocks", "linalg", "ratfun", "logforms",
              "admissible", "degreelab")

    def __init__(self):
        for name in self.LAYERS:
            setattr(self, name, importlib.import_module(f"cblocks.{name}"))
        params = inspect.signature(self.admissible.admissible_subspace).parameters
        self.admissible_stats = "with_stats" in params


# seeded instance generation --------------------------------------------------


def _label(alg, k, weights, beta):
    ws = "".join("(" + ",".join(map(str, w)) + ")" for w in weights)
    return f"{alg} k={k} {ws} beta={''.join(map(str, beta))}"


def _placed(rng, alg, k, weights, beta):
    """Instance dict with the weights, as listed, at seeded distinct points.

    The seed orders the points, not the weights: the weight order changes the
    work (a (3),(2),(1) triple takes 1.8x the time of (1),(2),(3), and the
    two sl3 four-point orders differ by 1.4x), so a seeded weight order would
    make the timings depend on the seed.  The triples already hold every
    weight order.
    """
    return {"id": _label(alg, k, weights, beta), "alg": alg, "k": k,
            "weights": list(weights), "beta": list(beta),
            "points": rng.sample(POINT_RANGE, len(weights))}


# sl2 k=2 (2)^4 is left out of `theorem` (6-9 s alone), and so is sl2 k=1
# (1)^6 (about 2 s, more than half of a pass): a pass that long leaves a run
# too few passes for the median over passes to steady the millisecond
# instances that set instance_s.p50.
THEOREM_EXCLUDED = ((2, (2, 2, 2, 2)),)


def sl2_criterion1():
    """The 29 sl2 verdict instances: k <= 2, N <= 4, M <= 4."""
    out = []
    for k in (1, 2):
        for N in range(1, 5):
            for cs in combinations_with_replacement(range(k, -1, -1), N):
                if sum(cs) % 2 == 0 and sum(cs) // 2 <= 4:
                    out.append((k, cs))
    return out


def _theorem(rng):
    out = [_placed(rng, "A1", k, [(c,) for c in cs], [1] * (sum(cs) // 2))
           for k, cs in sl2_criterion1() if (k, cs) not in THEOREM_EXCLUDED]
    out += [_placed(rng, *spec) for spec in THEOREM_EXTRA]
    for inst in out:
        if len(inst["beta"]) > STRATUM_CAP:
            raise WorkloadError(
                f"{inst['id']}: M={len(inst['beta'])} exceeds the stratum cap "
                f"{STRATUM_CAP}, the catalog would be truncated")
    return out


def _blocks_ladder(rng):
    out = []
    for k in range(4):
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    out.append(_placed(rng, "A1", k, [(a,), (b,), (c,)],
                                       [1] * ((a + b + c) // 2)))
    out += [_placed(rng, *spec) for spec in LADDER_LARGE]
    return out


def _words(counts):
    """Distinct color words with the given color multiplicities."""
    if not any(counts):
        return [()]
    out = []
    for i, c in enumerate(counts):
        if c:
            rest = list(counts)
            rest[i] -= 1
            out += [(i + 1,) + w for w in _words(rest)]
    return out


def color_classes(beta, N):
    """All N-tuples of color words that together use the colors of beta."""
    counts = [beta.count(c) for c in range(1, max(beta) + 1)]
    out = [()]
    for slot in range(N):
        nxt = []
        for prefix in out:
            used = [sum(w.count(c + 1) for w in prefix) for c in range(len(counts))]
            left = [n - u for n, u in zip(counts, used)]
            if slot == N - 1:
                nxt += [prefix + (w,) for w in _words(left)]
                continue
            for sub in _sub_counts(left):
                nxt += [prefix + (w,) for w in _words(sub)]
        out = nxt
    return sorted(out)


def _sub_counts(counts):
    if not counts:
        return [()]
    return [(k,) + tail for tail in _sub_counts(counts[1:]) for k in range(counts[0] + 1)]


def _svmap(rng):
    out = [{"id": f"count M={M} N={N}", "kind": "count", "M": M, "N": N}
           for M, N in COUNT_SIZES]
    for M, N in SVMAP_SIZES:
        colorings = [[1] * M]
        if M >= 2:
            colorings.append([1 + (a % 2) for a in range(M)])
        for beta in colorings:
            group = f"M={M} N={N} beta={''.join(map(str, beta))}"
            points = rng.sample(POINT_RANGE, N)
            classes = color_classes(beta, N)
            out.append({"id": f"basis {group}", "kind": "basis", "group": group,
                        "beta": beta, "points": points})
            for cls in classes:
                out.append({"id": f"class {group} {cls}", "kind": "class",
                            "group": group, "beta": beta, "points": points,
                            "cls": cls})
    return out


def _degree_lemma(reference):
    # lemma names come from the reference, so a renamed or dropped lemma fails
    out = [{"id": name, "kind": "lemma", "name": name}
           for name in reference["degree-lemma"]["lemmas"]]
    out.append({"id": "difference-square-decomposition", "kind": "decomposition"})
    return out


def _light(workload, inst):
    """The smoke subset: the cheapest instances of each workload."""
    if workload == "theorem":
        return inst["alg"] == "A1" and len(inst["weights"]) <= 3
    if workload == "blocks-ladder":
        return inst["alg"] == "A1" and inst["k"] <= 1
    if workload == "svmap-duality":
        return inst["kind"] == "count" or inst["group"].startswith(("M=1 ", "M=2 "))
    return inst["kind"] == "decomposition" or inst["name"] in (
        "pair-sym-four-points", "triple-with-collector", "two-pairs-chain")


def generate(workload, seed, reference, smoke=False):
    """The instance list of a workload; equal seeds give equal lists."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "theorem":
        out = _theorem(rng)
    elif workload == "blocks-ladder":
        out = _blocks_ladder(rng)
    elif workload == "svmap-duality":
        out = _svmap(rng)
    elif workload == "degree-lemma":
        out = _degree_lemma(reference)
    else:
        raise WorkloadError(f"unknown workload {workload!r}")
    if smoke:
        out = [inst for inst in out if _light(workload, inst)]
    return out


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


# independent oracles ----------------------------------------------------------


def quantum_cg(a, b, c, k):
    return int((a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b
               and a + b + c <= 2 * k)


def fusion_fold(cs, k):
    """sl2 N-point block dimension by folding the quantum Clebsch-Gordan rule."""
    if len(cs) == 1:
        return int(cs[0] == 0)
    vec = {cs[0]: 1}
    for c in cs[1:-1]:
        nxt = {}
        for j, mult in vec.items():
            for jj in range(k + 1):
                if quantum_cg(j, c, jj, k):
                    nxt[jj] = nxt.get(jj, 0) + mult
        vec = nxt
    return sum(mult * quantum_cg(j, cs[-1], 0, k) for j, mult in vec.items())


def _rref(rows):
    """Reduced echelon form, kept apart from cblocks.linalg on purpose."""
    mat = [[Fraction(x) for x in r] for r in rows]
    out, col = [], 0
    ncols = len(mat[0]) if mat else 0
    while mat and col < ncols:
        pivot = next((r for r in mat if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat.remove(pivot)
        pivot = [x / pivot[col] for x in pivot]
        mat = [[a - r[col] * b for a, b in zip(r, pivot)] for r in mat]
        out = [[a - r[col] * b for a, b in zip(r, pivot)] for r in out]
        out.append(pivot)
        col += 1
    return out


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def basis_hash(functionals, monomials):
    """Hash of the canonical RREF of a functional basis over sorted monomials."""
    cols = sorted(monomials)
    red = _rref([[f.coeffs.get(m, 0) for m in cols] for f in functionals])
    return _digest((cols, [[str(x) for x in r] for r in red]))


# computing and checking one instance ----------------------------------------


class Pass:
    """One pass over an instance list: computes answers and checks them."""

    def __init__(self, program, workload, seed, reference, root_systems):
        self.p = program
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.rs = root_systems
        self.sym = {}       # svmap group -> class forms
        self.supports = {}  # svmap group -> marked partitions used so far

    def _block_instance(self, inst):
        return self.p.blocks.BlockInstance(
            self.rs[inst["alg"]], inst["k"], inst["weights"],
            [Fraction(z) for z in inst["points"]])

    def answer(self, inst):
        """The exact computation of one instance: a dict of comparable fields."""
        p = self.p
        kind = inst.get("kind", self.workload)
        if kind == "theorem":
            bi = self._block_instance(inst)
            space = p.blocks.conformal_blocks(bi, inst["beta"])
            md = p.admissible.MasterData(bi, inst["beta"])
            if p.admissible_stats:
                adm, _ = p.admissible.admissible_subspace(
                    md, stratum_cap=STRATUM_CAP, with_stats=True)
            else:
                adm = p.admissible.admissible_subspace(md, stratum_cap=STRATUM_CAP)
            basis = space.monomials
            if basis:
                equal = p.linalg.spans_equal([f.vector(basis) for f in space.basis],
                                             [f.vector(basis) for f in adm], len(basis))
            else:
                equal = not adm
            return {"dim": space.dim, "dim_admissible": len(adm),
                    "subspaces_equal": bool(equal) and space.dim == len(adm),
                    "hash": basis_hash(space.basis, basis)}
        if kind == "blocks-ladder":
            space = p.blocks.conformal_blocks(self._block_instance(inst), inst["beta"])
            return {"dim": space.dim, "hash": basis_hash(space.basis, space.monomials)}
        if kind == "count":
            return {"count": len(p.logforms.enumerate_marked_partitions(inst["M"], inst["N"]))}
        if kind == "basis":
            sym = dict(p.logforms.symmetrized_basis(inst["beta"], len(inst["points"]),
                                                    [Fraction(z) for z in inst["points"]]))
            self.sym[inst["group"]] = sym
            self.supports[inst["group"]] = set()
            return {"classes": sorted(sym)}
        if kind == "class":
            return self._duality(inst)
        if kind == "lemma":
            res = p.degreelab.min_degree_certify(p.degreelab.lemma_problem(inst["name"]))
            return {"verdict": res["verdict"], "columns": res["columns"]}
        if kind == "decomposition":
            n = 3
            x = [p.ratfun.SparsePoly.variable(n, a) for a in (1, 2, 3)]
            p1 = x[0] + x[1] + x[2]
            g = (x[0] * x[0] + x[1] * x[1] + x[2] * x[2]).scale(3) - p1 * p1
            parts = p.degreelab.difference_square_decompose(g, n)
            return {"verdict": "DECOMPOSED", "terms": len(parts)}
        raise WorkloadError(f"unknown instance kind {kind!r}")

    def _duality(self, inst):
        """SV image of the dual of one class against its class form."""
        p = self.p
        beta, cls = inst["beta"], tuple(tuple(w) for w in inst["cls"])
        points = [Fraction(z) for z in inst["points"]]
        dummy = [(0,) * max(beta)] * len(points)
        psi = p.repspace.TensorFunctional({cls: 1}, dummy, beta)
        image = p.logforms.sv_map(psi, beta, points)
        matches = (image - self.sym[inst["group"]][cls]).is_zero()
        coeffs = p.logforms.expand_in_basis(image, points)
        support = set(coeffs)
        seen = self.supports[inst["group"]]
        disjoint = bool(support) and not (support & seen)
        seen |= support
        return {
            "matches_class_form": matches,
            "unit_coefficients": all(v == 1 for v in coeffs.values()),
            "support_in_class": {p.logforms.class_of(mp, beta) for mp in coeffs} == {cls},
            "support_disjoint": disjoint,
            "hash": _digest(sorted((mp.pis, str(c)) for mp, c in coeffs.items())),
        }

    def expected(self, inst):
        """Reference fields for an instance (hashes only for the default seed)."""
        kind = inst.get("kind", self.workload)
        ref = self.reference.get(self.workload, {})
        want = {}
        if kind in ("theorem", "blocks-ladder"):
            if inst["alg"] == "A1":
                want["dim"] = fusion_fold([w[0] for w in inst["weights"]], inst["k"])
            else:
                want["dim"] = ref["dims"][inst["id"]]
            if kind == "theorem":
                want["dim_admissible"] = want["dim"]
                want["subspaces_equal"] = True
        elif kind == "count":
            M, N = inst["M"], inst["N"]
            want["count"] = factorial(M) * comb(M + N - 1, N - 1)
        elif kind == "basis":
            want["classes"] = color_classes(inst["beta"], len(inst["points"]))
        elif kind == "class":
            want.update(matches_class_form=True, unit_coefficients=True,
                        support_in_class=True, support_disjoint=True)
        elif kind == "lemma":
            want.update(verdict="EMPTY", columns=ref["lemmas"][inst["name"]])
        elif kind == "decomposition":
            want.update(ref["decomposition"])
        if self.seed == DEFAULT_SEED and kind in HASHED_KINDS:
            want["hash"] = self.reference["hashes"][self.workload][inst["id"]]
        return want

    def check(self, inst, got):
        """Mismatches between an answer and its reference, as strings."""
        want = self.expected(inst)
        return [f"{key}: got {got.get(key)!r}, want {value!r}"
                for key, value in want.items() if got.get(key) != value]
