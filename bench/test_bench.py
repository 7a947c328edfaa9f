"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

The smoke configuration (`--smoke`) runs the cheapest instances of each
workload, so these tests check the report format and the reference gate in
seconds, not the timings.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def _run(script, *args):
    proc = subprocess.run([sys.executable, str(script), *args, "--seconds", "1"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    report, result = _run(BENCH / "run.py", "--workload", workload, "--smoke",
                          "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(expected)
    for name, unit in expected:
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in report), name
    if not trace:
        assert any(line.split()[:3] == ["fail_ratio", "0", "1"] for line in report)
    else:
        # smoke instances take microseconds, so the glue between them shows;
        # full passes cover 99% (RATIONALE.md)
        assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1


def test_corrupted_reference_raises_fail_ratio(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, copy)
    (tmp_path / "src").symlink_to(ROOT / "src")
    ref = workloads.load_reference()
    ref["degree-lemma"]["lemmas"]["pair-sym-four-points"] += 1
    first = next(iter(ref["hashes"]["theorem"]))
    ref["hashes"]["theorem"][first] = "0" * 16
    (copy / "reference.json").write_text(json.dumps(ref))

    for workload in ("degree-lemma", "theorem"):
        report, result = _run(copy / "run.py", "--workload", workload, "--smoke")
        assert not result["correct"] and result["failed"] > 0
        ratio = next(line.split()[1] for line in report if line.split()[:1] == ["fail_ratio"])
        assert float(ratio) > 0


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "theorem", "--seconds", "1"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_seed_fixes_the_instances():
    ref = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 3, ref) == workloads.generate(workload, 3, ref)
    a = workloads.generate("theorem", 3, ref)
    b = workloads.generate("theorem", 4, ref)
    assert [i["id"] for i in a] == [i["id"] for i in b]
    assert [i["points"] for i in a] != [i["points"] for i in b]


def test_theorem_catalog_guard(monkeypatch):
    big = ("A1", 4, ((4,), (4,), (4,), (2,)), (1,) * 7)
    monkeypatch.setattr(workloads, "THEOREM_EXTRA", workloads.THEOREM_EXTRA + (big,))
    with pytest.raises(workloads.WorkloadError, match="stratum cap"):
        workloads.generate("theorem", 0, workloads.load_reference())


def test_tracer_wraps_every_binding_site_and_reports_absent_names():
    from cblocks import admissible, degreelab, logforms, ratfun

    originals = (logforms.classes_for, ratfun.divmod_linear)
    targets = [t for t in TARGETS if t[2] in ("logforms.classes_for",
                                              "ratfun.divmod_linear")]
    targets.append(("logforms", "no_such_function", "logforms.no_such_function",
                    None, None))
    targets.append(("no_such_module", "f", "no_such_module.f", None, None))
    tracer = Tracer().install(targets)
    try:
        assert admissible.classes_for is logforms.classes_for is not originals[0]
        assert degreelab.divmod_linear is ratfun.divmod_linear is not originals[1]
        logforms.classes_for((1, 1), 2)
        assert tracer.calls["logforms.classes_for"] == 1
        assert tracer.absent == ["logforms.no_such_function", "no_such_module.f"]
    finally:
        tracer.uninstall()
    assert (logforms.classes_for, ratfun.divmod_linear) == originals
    assert admissible.classes_for is originals[0]


def test_speed_rescales_program_time_by_the_kernel_samples():
    sampler = speed.Sampler()
    sampler.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    sampler.smoothed = [speed.KERNEL_REF_S] * 2 + [2 * speed.KERNEL_REF_S] * 3
    # at half the reference speed one program second is half a reference second
    assert sampler.reference_s((1.5, 1.5), (3.5, 3.5)) == pytest.approx(1.0)
    assert sampler.reference_s((2.5, 2.0), (2.6, 2.1)) == pytest.approx(0.05)
    # an interval with no sample inside uses the nearest one on each side
    assert sampler.reference_s((1.2, 1.2), (1.3, 1.3)) == pytest.approx(0.075)


def test_sampler_excludes_its_own_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler(period=0.001).start()
    t0 = sampler.now()
    end = time.perf_counter() + 0.05
    while time.perf_counter() < end:
        pass
    t1 = sampler.now()
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    inside = [k for t, k in zip(sampler.starts, sampler.kernel_s) if t0[0] <= t <= t1[0]]
    assert len(inside) >= 3
    # wall minus program time is the handler's time, nearly all of it kernel
    handler_s = (t1[0] - t1[1]) - (t0[0] - t0[1])
    assert handler_s == pytest.approx(sum(inside), rel=0.25)
    assert sampler.reference_s(t0, t1) > 0
