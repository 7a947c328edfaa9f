"""Command-line entry point: exact computations, JSON reports, verification runs.

Subcommands: blocks, verify-theorem, logbasis, svmap, residue, degree-lemma,
root-info.  Configuration is a JSON file with exact rationals (ints or "p/q"
strings); reports are deterministic JSON (timing only with --timing).
Exit code 0 iff every requested verification passes; 3 when verify-theorem
ran on a truncated stratum catalog (--stratum-cap below the number of
variables), whose verdict is INCONCLUSIVE rather than PASS or FAIL.
"""

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .admissible import STRATUM_CAP, MasterData, admissible_subspace
from .blocks import BlockInstance, conformal_blocks
from .degreelab import (DegreeProblem, MONOMIAL_CEILING, CeilingExceeded, binomial_steps,
                        count_past, min_degree_certify, run_lemma_suite)
from .logforms import (MarkedPartition, enumerate_marked_partitions,
                       omega_basis_form, symmetrized_basis, sv_map)
from .ratfun import iterated_residue
from .repspace import TensorFunctional, weight_zero_basis
from .roots import check_pairwise_sums, parse_algebra, root_patterns


# the most marked partitions one logbasis report lists
LOGBASIS_CEILING = 10 ** 6


def _rat_str(x):
    return str(Fraction(x))


def _functional_entry(func, basis):
    return [_rat_str(c) for c in func.vector(basis)]


def _form_entry(form):
    return {
        "variables": list(form.variables),
        "numerator": [
            {"exponents": list(e), "coeff": _rat_str(c)}
            for e, c in sorted(form.numerator.terms.items())
        ],
        "denominator": [
            {"factor": list(f), "multiplicity": m}
            for f, m in sorted(form.denominator.items())
        ],
    }


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_rat(x):
    if not isinstance(x, str):
        return _is_int(x)
    try:
        Fraction(x)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _list_of(check):
    return lambda v: isinstance(v, list) and all(check(x) for x in v)


_INTS = (_list_of(_is_int), "a list of integers")
_RATS = (_list_of(_is_rat), 'a list of rationals (integers or "p/q" strings)')
_INT_LISTS = (_list_of(_list_of(_is_int)), "a list of integer lists")
_NAME_LISTS = (_list_of(_list_of(lambda x: isinstance(x, str))),
               "a list of variable-name lists")

# field -> (check, what it must be); a field a command reads is checked here
CONFIG_FIELDS = {
    "algebra": (lambda v: isinstance(v, str), 'a string such as "A1"'),
    "level": (_is_int, "an integer"),
    "weights": _INT_LISTS,
    "points": _RATS,
    "coloring": _INTS,
    "M": (_is_int, "an integer"),
    "N": (_is_int, "an integer"),
    "functional": _RATS,
    "marked_partition": _INT_LISTS,
    "indices": _INTS,
    "variables": (_list_of(lambda x: isinstance(x, str)), "a list of names"),
    "symmetry": _NAME_LISTS,
    "vanishing": _NAME_LISTS,
    "bound": (_is_int, "an integer"),
}


_INSTANCE = ("algebra", "level", "weights", "points", "coloring")
REQUIRED_FIELDS = {
    "blocks": _INSTANCE,
    "verify-theorem": _INSTANCE,
    "logbasis": ("M", "N"),
    "svmap": _INSTANCE + ("functional",),
    "residue": ("points", "marked_partition", "indices"),
    "degree-lemma": ("variables", "vanishing", "bound"),
    "root-info": ("algebra",),
}


def validate_config(cfg, required=()):
    """Raise ValueError naming the first config field missing or of the wrong
    shape."""
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ValueError(f"config is missing {', '.join(map(repr, missing))}")
    for key, (check, what) in CONFIG_FIELDS.items():
        if key in cfg and not check(cfg[key]):
            raise ValueError(f"config field {key!r} must be {what}")


def load_config(path):
    with open(path) as fh:
        return json.load(fh)


def instance_from_config(cfg):
    return BlockInstance(parse_algebra(cfg["algebra"]), cfg["level"], cfg["weights"],
                         cfg["points"])


def cmd_blocks(cfg, opts):
    inst = instance_from_config(cfg)
    space = conformal_blocks(inst, cfg["coloring"])
    return {
        "command": "blocks",
        "algebra": cfg["algebra"],
        "level": inst.k,
        "dim": space.dim,
        "basis_monomials": [list(map(list, m)) for m in space.monomials],
        "basis": [_functional_entry(f, space.monomials) for f in space.basis],
        "pass": True,
    }


def cmd_verify_theorem(cfg, opts):
    inst = instance_from_config(cfg)
    beta = cfg["coloring"]
    space = conformal_blocks(inst, beta)
    md = MasterData(inst, beta)
    adm, stats = admissible_subspace(
        md, stratum_cap=opts.stratum_cap, with_stats=True)
    # Both bases are the nullspace basis read off a reduced echelon form:
    # free columns in basis order, free coordinate 1.  Given the column
    # order, that basis is unique for a subspace.  The block basis is solved
    # over the columns outside the Verma kernel; extended by zeros it is the
    # basis solved over all columns, as the unit rows on the kernel columns
    # are pivot rows of the full reduced form.  So the lists are equal
    # exactly when the spans are, and equal lists have equal lengths.
    equal = adm == space.basis
    report = {
        "command": "verify-theorem",
        "algebra": cfg["algebra"],
        "level": inst.k,
        "dim_blocks": space.dim,
        "dim_admissible": len(adm),
        "subspaces_equal": equal,
        "constant_C": md.C,
        "kappa": _rat_str(md.kappa),
        "strata": [
            {
                "kind": s["stratum"].kind,
                "subset": list(s["stratum"].subset),
                "point": s["stratum"].point,
                "cutoff": s["cutoff"],
                "rows": s["rows"],
            }
            for s in stats
        ],
        "pass": equal,
    }
    if opts.stratum_cap < md.M:
        # the strata left out could only cut the admissible subspace down, so
        # neither equality nor a surplus on this catalog decides the theorem
        report["catalog_complete"] = False
        report["verdict"] = "INCONCLUSIVE"
        report["pass"] = False
    return report


def _partition_count_steps(M, N):
    """The partial products of M! * C(M + N - 1, N - 1), the marked partition
    count: 2!, ..., M!, then M! times those of the binomial."""
    fact = 1
    for i in range(2, M + 1):
        fact *= i
        yield fact
    for c in binomial_steps(M + N - 1, N - 1):
        yield fact * c


def cmd_logbasis(cfg, opts):
    M = cfg["M"]
    N = cfg["N"]
    # refused before any is built; enumerate_marked_partitions refuses M < 0, N < 1
    over = (count_past(_partition_count_steps(M, N), LOGBASIS_CEILING)
            if M >= 0 and N >= 1 else None)
    if over:
        raise ValueError(f"M={M}, N={N} has {over} marked partitions, "
                         f"above the logbasis ceiling of {LOGBASIS_CEILING}")
    mps = enumerate_marked_partitions(M, N)
    out = {
        "command": "logbasis",
        "M": M,
        "N": N,
        "count": len(mps),
        "partitions": [[list(c) for c in mp.pis] for mp in mps],
        "pass": True,
    }
    if "coloring" in cfg or "points" in cfg:
        validate_config(cfg, ("coloring", "points"))
        beta = cfg["coloring"]
        if len(beta) != M:
            raise ValueError(f"coloring has {len(beta)} colors, M is {M}")
        sym = symmetrized_basis(beta, N, cfg["points"])
        out["classes"] = [
            {"class": [list(w) for w in cls], "form": _form_entry(theta)}
            for cls, theta in sym
        ]
    return out


def cmd_svmap(cfg, opts):
    inst = instance_from_config(cfg)
    beta = cfg["coloring"]
    basis = weight_zero_basis(inst.rs, inst.weights, beta)
    coeffs = [Fraction(c) for c in cfg["functional"]]
    if len(coeffs) != len(basis):
        raise ValueError(
            f"functional needs {len(basis)} coefficients, got {len(coeffs)}")
    psi = TensorFunctional(dict(zip(basis, coeffs)), inst.weights, beta)
    form = sv_map(psi, beta, inst.points)
    return {
        "command": "svmap",
        "basis_monomials": [list(map(list, m)) for m in basis],
        "form": _form_entry(form),
        "pass": True,
    }


def cmd_residue(cfg, opts):
    form = omega_basis_form(MarkedPartition(cfg["marked_partition"]), cfg["points"])
    res = iterated_residue(form, cfg["indices"])
    return {
        "command": "residue",
        "indices": cfg["indices"],
        "form": _form_entry(form),
        "residue": _form_entry(res),
        "pass": True,
    }


def cmd_degree_lemma(cfg, opts):
    if opts.suite:
        report = run_lemma_suite(ceiling=opts.monomial_ceiling)
        ok = all(
            res.get("verdict") in ("EMPTY", "DECOMPOSED")
            for res in report.values()
        )
        return {"command": "degree-lemma", "suite": report, "pass": ok}
    problem = DegreeProblem(cfg["variables"], cfg.get("symmetry", []), cfg["vanishing"],
                            cfg["bound"])
    try:
        result = min_degree_certify(problem, ceiling=opts.monomial_ceiling)
    except CeilingExceeded as exc:
        return {"command": "degree-lemma", "error": str(exc), "pass": False}
    if "witness" in result:
        # exponent-tuple keys are not JSON: list [exponents, coefficient] pairs
        result = {**result, "witness": [[list(e), c]
                                        for e, c in result["witness"].items()]}
    return {
        "command": "degree-lemma",
        "result": result,
        "pass": result["verdict"] == "EMPTY",
    }


def cmd_root_info(cfg, opts):
    rs = parse_algebra(cfg["algebra"])
    bounds = check_pairwise_sums(rs)
    return {
        "command": "root-info",
        "algebra": cfg["algebra"],
        "rank": rs.rank,
        "gram": [[_rat_str(x) for x in row] for row in rs.gram],
        "positive_roots": [list(r) for r in rs.positive_roots],
        "highest_root": list(rs.highest_root),
        "dual_coxeter": rs.dual_coxeter,
        "patterns_from_alpha1": [p["steps"] for p in root_patterns(rs, 1)],
        "pairwise_sum_ok": bounds["all_ok"],
        "pairwise_sum_min_margin": _rat_str(bounds["min_margin"]),
        "pass": bounds["all_ok"],
    }


COMMANDS = {
    "blocks": (cmd_blocks, True),
    "verify-theorem": (cmd_verify_theorem, True),
    "logbasis": (cmd_logbasis, True),
    "svmap": (cmd_svmap, True),
    "residue": (cmd_residue, True),
    "degree-lemma": (cmd_degree_lemma, False),
    "root-info": (cmd_root_info, True),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cblocks",
        description="Exact conformal-block and log-form computations in genus 0",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_config) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file",
                       required=False)
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--timing", action="store_true",
                       help="include wall time in the report")
        if name == "verify-theorem":
            p.add_argument("--stratum-cap", type=int,
                           default=os.environ.get("CBLOCKS_STRATUM_CAP", STRATUM_CAP))
        if name == "degree-lemma":
            p.add_argument("--monomial-ceiling", type=int,
                           default=os.environ.get("CBLOCKS_MONOMIAL_CEILING",
                                                  MONOMIAL_CEILING))
            p.add_argument("--suite", action="store_true",
                           help="run the built-in lemma catalog")
    return parser


def main(argv=None):
    opts = build_parser().parse_args(argv)
    func, needs_config = COMMANDS[opts.command]
    suite = opts.command == "degree-lemma" and getattr(opts, "suite", False)
    if not suite and not opts.config:
        need = "--config" if needs_config else "--config or --suite"
        print(f"error: {need} is required", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        if suite:
            cfg = {}
        else:
            cfg = load_config(opts.config)
            validate_config(cfg, REQUIRED_FIELDS[opts.command])
        report = func(cfg, opts)
    except (OSError, ValueError, KeyError) as exc:
        report = {"command": opts.command, "error": str(exc), "pass": False}
    if opts.timing:
        report["seconds"] = round(time.monotonic() - start, 3)
    text = json.dumps(report, indent=2, sort_keys=True)
    if opts.out:
        with open(opts.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if report.get("verdict") == "INCONCLUSIVE":
        return 3
    return 0 if report.get("pass") else 1


if __name__ == "__main__":
    sys.exit(main())
