"""CLI subcommands: reports, exit codes, determinism."""

import json
import re
import time
from itertools import combinations_with_replacement
from pathlib import Path
from types import SimpleNamespace

import pytest

from cblocks import cli, linalg
from cblocks.admissible import STRATUM_CAP, MasterData, admissible_subspace
from cblocks.blocks import conformal_blocks
from cblocks.cli import main


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args, tmp_path, out="report.json"):
    outpath = tmp_path / out
    code = main(args + ["--out", str(outpath)])
    return code, json.loads(outpath.read_text())


def test_blocks_command(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "algebra": "A1", "level": 1, "weights": [[1], [1], [0]],
        "points": [0, 1, 3], "coloring": [1]})
    code, rep = run(["blocks", "--config", cfg], tmp_path)
    assert code == 0 and rep["dim"] == 1


def test_blocks_weight_mismatch_dim_zero(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "algebra": "A1", "level": 1, "weights": [[1], [1], [1]],
        "points": [0, 1, 3], "coloring": [1]})
    code, rep = run(["blocks", "--config", cfg], tmp_path)
    assert code == 0 and rep["dim"] == 0


def test_malformed_config(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "algebra": "A1", "level": 1, "weights": [[1], [1]],
        "points": [0, 0], "coloring": [1]})
    code, rep = run(["blocks", "--config", cfg], tmp_path)
    assert code == 1 and "error" in rep


def test_verify_theorem(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "algebra": "A1", "level": 1, "weights": [[1], [1], [0]],
        "points": [0, 1, 3], "coloring": [1]})
    code, rep = run(["verify-theorem", "--config", cfg], tmp_path)
    assert code == 0
    assert rep["dim_blocks"] == rep["dim_admissible"] == 1
    assert rep["subspaces_equal"] and rep["pass"]
    assert rep["strata"]


def test_verify_theorem_rows_read_zero_on_a_skipped_stratum(tmp_path):
    # sl2 k=2 (2),(2): SINF (1,) leaves a one-vector nullspace, whose combined
    # jet vanishes on SINF (1,2), so that stratum is skipped and reports 0 rows
    cfg = {"algebra": "A1", "level": 2, "weights": [[2], [2]], "points": [0, 1],
           "coloring": [1, 1]}
    code, rep = run(["verify-theorem", "--config", write(tmp_path, "c.json", cfg)], tmp_path)
    assert code == 0 and rep["pass"]
    assert rep["dim_blocks"] == rep["dim_admissible"] == 1
    inst = cli.instance_from_config(cfg)
    _, stats = admissible_subspace(MasterData(inst, cfg["coloring"]), with_stats=True)
    assert [s["rows"] for s in rep["strata"]] == [e["rows"] for e in stats]
    skipped = [(s["kind"], s["subset"], s["rows"]) for s, e in zip(rep["strata"], stats)
               if e["nullspace_passed"]]
    assert skipped == [("SINF", [1, 2], 0)]


def test_rational_points(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "algebra": "A1", "level": 1, "weights": [[1], [1]],
        "points": ["1/2", "3/4"], "coloring": [1]})
    code, rep = run(["verify-theorem", "--config", cfg], tmp_path)
    assert code == 0 and rep["pass"]


def test_logbasis(tmp_path):
    cfg = write(tmp_path, "c.json", {"M": 3, "N": 2})
    code, rep = run(["logbasis", "--config", cfg], tmp_path)
    assert code == 0 and rep["count"] == 24


def test_svmap(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "algebra": "A1", "level": 1, "weights": [[1], [1]],
        "points": [0, 1], "coloring": [1], "functional": [1, "-1"]})
    code, rep = run(["svmap", "--config", cfg], tmp_path)
    assert code == 0
    assert len(rep["form"]["denominator"]) >= 1


def test_residue_command(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "points": [0, 1], "marked_partition": [[1, 2], []], "indices": [1, 2]})
    code, rep = run(["residue", "--config", cfg], tmp_path)
    assert code == 0
    assert rep["residue"]["variables"] == [1]


@pytest.mark.parametrize("indices", [[9], [1, 9]])
def test_residue_inactive_index_errors(tmp_path, indices):
    cfg = write(tmp_path, "c.json", {
        "points": [0, 1], "marked_partition": [[1, 2], []], "indices": indices})
    code, rep = run(["residue", "--config", cfg], tmp_path)
    assert code == 1 and not rep["pass"]
    assert rep["error"] == "inactive variable"


@pytest.mark.parametrize("indices,a", [([2, 2], 2), ([1, 1], 1), ([1, 2, 1], 1)])
def test_residue_repeated_index_errors(tmp_path, indices, a):
    cfg = write(tmp_path, "c.json", {
        "points": [0, 1], "marked_partition": [[1, 2], []], "indices": indices})
    code, rep = run(["residue", "--config", cfg], tmp_path)
    assert code == 1 and not rep["pass"]
    assert rep["error"] == f"repeated index {a}"


def test_readme_examples_run(tmp_path):
    # every json block of the README goes through the commands it documents:
    # an instance config through blocks and verify-theorem, a degree problem
    # through degree-lemma; a renamed config field gives an error report
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = {"algebra": ("blocks", "verify-theorem"), "variables": ("degree-lemma",)}
    ran = []
    for i, text in enumerate(re.findall(r"```json\n(.*?)```", readme, re.S)):
        cfg = json.loads(text)
        (kind,) = [key for key in commands if key in cfg]
        path = write(tmp_path, f"readme{i}.json", cfg)
        for command in commands[kind]:
            _, rep = run([command, "--config", path], tmp_path)
            assert "error" not in rep, (command, rep["error"])
            ran.append(command)
    assert sorted(ran) == ["blocks", "degree-lemma", "verify-theorem"]


def test_verify_theorem_truncated_catalog_inconclusive(tmp_path):
    # M = 2 variables but strata of one variable only: no S1 stratum is checked
    cfg = write(tmp_path, "c.json", {
        "algebra": "A1", "level": 1, "weights": [[1], [1], [1], [1]],
        "points": [0, 1, 3, 7], "coloring": [1, 1]})
    code, rep = run(["verify-theorem", "--config", cfg, "--stratum-cap", "1"], tmp_path)
    assert code == 3
    assert rep["catalog_complete"] is False and rep["verdict"] == "INCONCLUSIVE"
    assert not rep["pass"]
    code, rep = run(["verify-theorem", "--config", cfg, "--stratum-cap", "2"], tmp_path)
    assert code == 0 and rep["pass"]
    assert "catalog_complete" not in rep and "verdict" not in rep


@pytest.mark.parametrize("command, option", [
    ("blocks", "--stratum-cap"),
    ("degree-lemma", "--stratum-cap"),
    ("blocks", "--monomial-ceiling"),
    ("verify-theorem", "--monomial-ceiling"),
])
def test_cap_only_on_the_command_that_reads_it(tmp_path, command, option):
    cfg = write(tmp_path, "c.json", {
        "algebra": "A1", "level": 1, "weights": [[1], [1]],
        "points": [0, 1], "coloring": [1]})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, option, "1"])
    assert exc.value.code == 2


def test_degree_lemma_suite(tmp_path):
    code, rep = run(["degree-lemma", "--suite"], tmp_path)
    assert code == 0 and rep["pass"]
    assert set(rep["suite"]) >= {"triple-sym-three-points",
                                 "open-triple-tail-ladder(m=1)",
                                 "difference-square-decomposition"}


def test_degree_lemma_problem(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "variables": ["u1", "u2"], "symmetry": [["u1", "u2"]],
        "vanishing": [["u1", "u2"]], "bound": 1})
    code, rep = run(["degree-lemma", "--config", cfg], tmp_path)
    assert code == 0 and rep["result"]["verdict"] == "EMPTY"


def test_degree_lemma_witness_report(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "variables": ["u1", "u2"], "symmetry": [["u1", "u2"]],
        "vanishing": [["u1", "u2"]], "bound": 2})
    code, rep = run(["degree-lemma", "--config", cfg], tmp_path)
    assert code == 1 and not rep["pass"]
    assert rep["result"]["verdict"] == "WITNESS"
    # (u1 - u2)^2 as [exponents, coefficient] pairs
    assert rep["result"]["witness"] == [[[0, 2], "1"], [[1, 1], "-2"], [[2, 0], "1"]]


def test_degree_lemma_refuses_zero_variables(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "variables": [], "symmetry": [], "vanishing": [], "bound": 2})
    code, rep = run(["degree-lemma", "--config", cfg], tmp_path)
    assert code == 1 and not rep["pass"]
    assert rep["error"] == "a problem needs at least one variable"


@pytest.mark.parametrize("bound", [-1, -3])
def test_degree_lemma_refuses_negative_bound(tmp_path, bound):
    cfg = write(tmp_path, "c.json", {
        "variables": ["x", "y"], "vanishing": [["x", "y"]], "bound": bound})
    code, rep = run(["degree-lemma", "--config", cfg], tmp_path)
    assert code == 1 and not rep["pass"] and "result" not in rep
    assert rep["error"] == "bound must be a nonnegative integer"


def test_root_info(tmp_path):
    cfg = write(tmp_path, "c.json", {"algebra": "G2"})
    code, rep = run(["root-info", "--config", cfg], tmp_path)
    assert code == 0
    assert rep["dual_coxeter"] == 4
    assert len(rep["positive_roots"]) == 6


def test_reports_byte_stable(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "algebra": "A1", "level": 1, "weights": [[1], [1], [0]],
        "points": [0, 1, 3], "coloring": [1]})
    _, _ = run(["verify-theorem", "--config", cfg], tmp_path, out="a.json")
    _, _ = run(["verify-theorem", "--config", cfg], tmp_path, out="b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_missing_config_errors(capsys):
    assert main(["blocks"]) == 2
    assert main(["degree-lemma"]) == 2


@pytest.mark.parametrize("payload,message", [
    ({"algebra": "A1", "level": 1, "weights": 3, "points": [0, 1],
      "coloring": [1]}, "'weights' must be a list of integer lists"),
    ({"algebra": "A1", "level": "1", "weights": [[1], [1]], "points": [0, 1],
      "coloring": [1]}, "'level' must be an integer"),
    ({"algebra": "A1", "weights": [[1], [1]], "points": [0, 1],
      "coloring": [1]}, "missing 'level'"),
    ([1, 2], "JSON object"),
    ({"algebra": "", "level": 1, "weights": [[1], [1]], "points": [0, 1],
      "coloring": [1]}, "bad algebra selector ''"),
    ({"algebra": "A1", "level": 1, "weights": [[1], [1]], "points": ["1/0", 1],
      "coloring": [1]}, "'points' must be a list of rationals"),
    ({"algebra": "A1", "level": 1, "weights": [], "points": [],
      "coloring": []}, "need at least one marked point"),
])
def test_structured_error_for_malformed_config(tmp_path, payload, message):
    cfg = write(tmp_path, "bad.json", payload)
    code, rep = run(["blocks", "--config", cfg], tmp_path)
    assert code == 1 and not rep["pass"]
    assert message in rep["error"]


def test_structured_error_for_unreadable_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, rep = run(["blocks", "--config", str(bad)], tmp_path)
    assert code == 1 and "error" in rep
    code, rep = run(["blocks", "--config", str(tmp_path / "none.json")], tmp_path)
    assert code == 1 and "error" in rep


def test_structured_error_for_zero_denominator_functional(tmp_path):
    cfg = write(tmp_path, "bad.json", {
        "algebra": "A1", "level": 1, "weights": [[1], [1]], "points": [0, 1],
        "coloring": [1], "functional": ["1/0"]})
    code, rep = run(["svmap", "--config", cfg], tmp_path)
    assert code == 1 and not rep["pass"]
    assert "'functional' must be a list of rationals" in rep["error"]


def test_logbasis_refuses_coloring_of_other_size(tmp_path):
    cfg = write(tmp_path, "bad.json", {
        "M": 2, "N": 2, "coloring": [1], "points": [0, 1]})
    code, rep = run(["logbasis", "--config", cfg], tmp_path)
    assert code == 1 and not rep["pass"]
    assert rep["error"] == "coloring has 1 colors, M is 2"


def test_logbasis_refuses_coloring_or_points_alone(tmp_path):
    # the class forms need both, and neither is dropped without a word
    for given, missing in (({"coloring": [1, 1]}, "points"), ({"points": [0, 1]}, "coloring")):
        cfg = write(tmp_path, "bad.json", {"M": 2, "N": 2, **given})
        code, rep = run(["logbasis", "--config", cfg], tmp_path)
        assert code == 1 and not rep["pass"]
        assert rep["error"] == f"config is missing {missing!r}"


@pytest.mark.parametrize("command, payload", [
    ("logbasis", {"M": 2, "N": 2, "coloring": [1, 1], "points": [0, 0]}),
    ("residue", {"points": [0, "0/3"], "marked_partition": [[1], [2]], "indices": [1]}),
    ("svmap", {"algebra": "A1", "level": 1, "weights": [[1], [1]], "points": [0, 0],
               "coloring": [1], "functional": [1, -1]}),
])
def test_form_commands_refuse_coincident_points(tmp_path, command, payload):
    cfg = write(tmp_path, "bad.json", payload)
    code, rep = run([command, "--config", cfg], tmp_path)
    assert code == 1 and not rep["pass"]
    assert rep["error"] == "points must be pairwise distinct"


@pytest.mark.parametrize("M, N, count", [(10, 1, 3628800), (9, 2, 3628800)])
def test_logbasis_refuses_an_oversized_basis_up_front(tmp_path, monkeypatch, M, N, count):
    def enumerate_nothing(M, N):
        raise AssertionError("enumerated an oversized basis")

    monkeypatch.setattr(cli, "enumerate_marked_partitions", enumerate_nothing)
    cfg = write(tmp_path, "big.json", {"M": M, "N": N})
    code, rep = run(["logbasis", "--config", cfg], tmp_path)
    assert code == 1 and not rep["pass"]
    assert rep["error"] == (f"M={M}, N={N} has {count} marked partitions, "
                            f"above the logbasis ceiling of 1000000")



@pytest.mark.parametrize("M", [2000, 1000000])
def test_logbasis_refuses_a_huge_count_without_computing_it(tmp_path, M):
    # M! is never formed: the count stops at the first partial product past
    # the ceiling, 10!, and the error names the ceiling (M = 2000 used to
    # fail in str() of a 5736-digit count, M = 10^6 to take 11.7 s)
    cfg = write(tmp_path, "big.json", {"M": M, "N": 1})
    start = time.perf_counter()
    code, rep = run(["logbasis", "--config", cfg], tmp_path)
    assert time.perf_counter() - start < 1
    assert code == 1 and not rep["pass"]
    assert rep["error"] == (f"M={M}, N=1 has more than 1000000 marked partitions, "
                            f"above the logbasis ceiling of 1000000")

def test_logbasis_ceiling_admits_its_own_count(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "LOGBASIS_CEILING", 24)
    cfg = write(tmp_path, "c.json", {"M": 3, "N": 2})
    code, rep = run(["logbasis", "--config", cfg], tmp_path)
    assert code == 0 and rep["count"] == 24
    cfg = write(tmp_path, "c.json", {"M": 3, "N": 3})
    code, rep = run(["logbasis", "--config", cfg], tmp_path)
    assert code == 1 and "60 marked partitions" in rep["error"]


@pytest.mark.parametrize("variable, command", [
    ("CBLOCKS_MONOMIAL_CEILING", "degree-lemma"),
    ("CBLOCKS_STRATUM_CAP", "verify-theorem"),
])
def test_malformed_env_cap_fails_only_the_command_that_reads_it(
        tmp_path, monkeypatch, variable, command):
    monkeypatch.setenv(variable, "1e3")
    cfg = write(tmp_path, "c.json", {
        "algebra": "A1", "level": 1, "weights": [[1], [1]],
        "points": [0, 1], "coloring": [1]})
    code, rep = run(["root-info", "--config", cfg], tmp_path)
    assert code == 0 and rep["pass"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg])
    assert exc.value.code == 2


def verdict_configs(points):
    """sl2 at k <= 2 with N <= 4 weights and M <= 4 colors (but (2)^4 at
    k = 2), and six A2 and G2 instances, at the given points."""
    specs = [("A1", k, [[c] for c in cs], [1] * (sum(cs) // 2))
             for k in (1, 2) for N in range(1, 5)
             for cs in combinations_with_replacement(range(k, -1, -1), N)
             if sum(cs) % 2 == 0 and sum(cs) <= 8 and (k, cs) != (2, (2, 2, 2, 2))]
    specs += [("A2", 1, [[1, 0], [0, 1]], [1, 2]),
              ("A2", 1, [[1, 0]] * 3, [1, 1, 2]),
              ("A2", 1, [[0, 1]] * 3, [1, 2, 2]),
              ("G2", 1, [[1, 0], [0, 0]], [1, 1, 2]),
              ("G2", 1, [[1, 0]], [1, 1, 2]),
              ("A2", 2, [[1, 1]] * 2, [1, 1, 2, 2])]
    return [{"algebra": alg, "level": k, "weights": ws, "points": points[:len(ws)],
             "coloring": beta} for alg, k, ws, beta in specs]


@pytest.mark.parametrize("points", [[2, 5, 1, 6], [1, 3, 6, 4]])
def test_subspaces_equal_agrees_with_the_span_comparison(points):
    # the report compares the two canonical bases; the independent decision
    # compares the reduced row spans and the dimensions
    decisions = []
    for cfg in verdict_configs(points):
        inst = cli.instance_from_config(cfg)
        space = conformal_blocks(inst, cfg["coloring"])
        basis = space.monomials
        for cap in (1, 2, STRATUM_CAP):
            adm = admissible_subspace(MasterData(inst, cfg["coloring"]), stratum_cap=cap)
            spans = (space.dim == len(adm) and linalg.spans_equal(
                [f.vector(basis) for f in space.basis], [f.vector(basis) for f in adm],
                len(basis))) if basis else not adm
            report = cli.cmd_verify_theorem(cfg, SimpleNamespace(stratum_cap=cap))
            assert report["subspaces_equal"] is spans, (cfg, cap)
            decisions.append(spans)
    assert len(decisions) == 102 and 0 < decisions.count(False) < len(decisions)
