"""CLI subcommands: reports, exit codes, determinism."""

import json

import pytest

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
