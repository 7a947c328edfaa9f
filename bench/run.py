"""Benchmark of the cblocks exact verdicts.

    python3 bench/run.py --workload theorem --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all      # every workload, one after another

A single-threaded closed loop: one client sends the next exact computation
only after the previous one has returned.  A run makes passes over the
workload's seeded instance list until the next pass would not fit in
`--seconds`.  Each pass runs in a fresh worker process (this file with
`--worker`), so every instance is computed once per process, with no warm-up
over the same instances, and set-up (imports, root systems, instance
generation, reference load) is timed fresh each time.  Every answer is checked
against the reference; an exception or a mismatch is a failed operation.
Workers rescale their times to a reference machine speed sampled as they run
(speed.py); an instance's time is the median of its times over the run's
passes.

With `--trace 0` the last line of output is a JSON object with the end-to-end
metrics; with `--trace 1` the run alternates untraced and traced passes and
reports the per-layer metrics of the traced ones.  See RATIONALE.md.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402

# a run must end within this many seconds, whatever --seconds says
HARD_LIMIT_S = 150

END_TO_END = (
    ("batch_s", "s"),
    ("instance_s.p50", "s"),
    ("instance_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# metric -> unit.  `<span>.self_s` and `<span>.calls` read the tracer's
# per-span aggregates, `<span>.useful_ratio` divides the `<span>.useful`
# counter by the span's calls, `trace.*` are computed by the run and every
# other name is a counter.
PER_LAYER = (
    ("repspace.invariant_constraint_rows.self_s", "s"),
    ("repspace.basis_size", "count"),
    ("repspace.constraint_rows", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("blocks.conformal_blocks.self_s", "s"),
    ("admissible.admissible_subspace.self_s", "s"),
    ("admissible.strata", "count"),
    ("admissible.constraint_rows", "count"),
    ("admissible.empty_strata", "count"),
    ("linalg.echelon_add.self_s", "s"),
    ("linalg.echelon_add.calls", "count"),
    ("linalg.echelon_add.useful_ratio", "1"),
    ("logforms.classes_for.self_s", "s"),
    ("logforms.symmetrized_basis.self_s", "s"),
    ("logforms.sv_map.self_s", "s"),
    ("logforms.expand_in_basis.self_s", "s"),
    ("ratfun.RationalForm.init.self_s", "s"),
    ("ratfun.RationalForm.init.calls", "count"),
    ("ratfun.RationalForm.add.self_s", "s"),
    ("ratfun.RationalForm.add.calls", "count"),
    ("ratfun.residue_at_point.self_s", "s"),
    ("ratfun.residue_at_point.calls", "count"),
    ("ratfun.divmod_linear.self_s", "s"),
    ("ratfun.divmod_linear.calls", "count"),
    ("linalg.rank_mod_p.self_s", "s"),
    ("linalg.rank_mod_p.rows", "count"),
    ("degreelab.min_degree_certify.self_s", "s"),
    ("degreelab.columns", "count"),
    ("roots.build_root_system.self_s", "s"),
    ("trace.coverage", "1"),
    ("trace.overhead_ratio", "1"),
)

# counters and the span whose calls produce them
COUNTER_SPAN = {
    "repspace.basis_size": "repspace.invariant_constraint_rows",
    "repspace.constraint_rows": "repspace.invariant_constraint_rows",
    "admissible.strata": "admissible.admissible_subspace",
    "admissible.constraint_rows": "admissible.admissible_subspace",
    "admissible.empty_strata": "admissible.admissible_subspace",
    "linalg.rank_mod_p.rows": "linalg.rank_mod_p",
    "degreelab.columns": "degreelab.min_degree_certify",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# the worker: one set-up and at most one pass, in a fresh process --------------


def worker(args):
    sampler = speed.Sampler().start()
    start = sampler.now()
    sys.path.insert(0, str(ROOT / "src"))
    program = workloads.Program()
    tracer = None
    if args.trace:
        from tracer import Tracer
        # spans run on the program clock, so the sampler's time stays out
        tracer = Tracer(clock=lambda: sampler.now()[1]).install()
        if not program.admissible_stats:
            tracer.absent += ["admissible.strata", "admissible.constraint_rows",
                              "admissible.empty_strata"]
    root_systems = {name: program.roots.build_root_system(*spec)
                    for name, spec in workloads.ALGEBRAS.items()}
    reference = workloads.load_reference()
    instances = workloads.generate(args.workload, args.seed, reference, smoke=args.smoke)
    setup_end = sampler.now()

    stamps, failures, hashes = [], [], {}
    if not args.probe:
        run = workloads.Pass(program, args.workload, args.seed, reference, root_systems)
        top_before = tracer.top_s if tracer else 0.0
        for inst in instances:
            if tracer:
                tracer.request = inst["id"]
            t0 = sampler.now()
            try:
                got = run.answer(inst)
                problems = run.check(inst, got)
            except Exception as exc:  # a raising instance is a failed operation
                got, problems = {}, [f"{type(exc).__name__}: {exc}"]
            stamps.append((t0, sampler.now()))
            if problems:
                failures.append({"id": inst["id"], "problems": problems})
            if "hash" in got:
                hashes[inst["id"]] = got["hash"]
    sampler.stop()
    out = {"setup_s": sampler.reference_s(start, setup_end)}
    if args.probe:
        return out
    wall_s = stamps[-1][1][1] - stamps[0][0][1] if stamps else 0.0
    out.update({
        "wall_s": wall_s,  # program time of the pass, not rescaled
        "times": [sampler.reference_s(a, b) for a, b in stamps],
        "failures": failures,
        "hashes": hashes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer:
        tracer.uninstall()
        coverage = (tracer.top_s - top_before) / wall_s
        out["trace"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                        "counters": tracer.counters, "absent": tracer.absent,
                        "coverage": coverage}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "wall_s": wall_s, "coverage": coverage})
    return out


# the parent: passes in fresh workers, then the aggregate ----------------------------


def _spawn(args, trace, probe, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    if probe:
        cmd.append("--probe")
    # a fixed hash seed keeps set and dict iteration orders, and with them the
    # order of exact arithmetic inside the program, equal across workers
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_level(n):
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(0, math.floor(100 * (1 - 10 / n)))


def nearest_rank(values, level):
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(level / 100 * len(ordered)) - 1))]


def _hash_mismatches(passes):
    """Per-instance hashes that differ from the run's first pass (same seed)."""
    first = passes[0]["hashes"]
    return [{"id": key, "problems": [f"hash {value} differs from {first.get(key)} "
                                     "of the first pass"]}
            for p in passes[1:] for key, value in p["hashes"].items()
            if first.get(key) != value]


def _layer_metrics(traced, untraced):
    """Per-layer metrics over the traced passes, and the absent names.

    Times (program seconds, not rescaled) and counts are the least over the
    passes (counts are equal in every pass); coverage is the median, and the
    overhead compares the median rescaled pass times of traced and untraced
    passes.
    """
    docs = [p["trace"] for p in traced]
    absent = set(docs[0]["absent"])
    values, missing = {}, set()
    for name, unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name == "trace.coverage":
            value = statistics.median(d["coverage"] for d in docs)
        elif name == "trace.overhead_ratio":
            value = (statistics.median(sum(p["times"]) for p in traced)
                     / statistics.median(sum(p["times"]) for p in untraced) - 1)
        elif field in ("self_s", "calls"):
            value = min(d[field].get(span, 0) for d in docs)
        elif field == "useful_ratio":
            value = min(d["counters"].get(span + ".useful", 0) / d["calls"][span]
                        if d["calls"].get(span) else 0 for d in docs)
        else:
            value = min(d["counters"].get(name, 0) for d in docs)
        if absent & {span, name, COUNTER_SPAN.get(name)}:
            missing.add(name)
        values[name] = {"value": value, "unit": unit}
    return values, missing


def run_workload(args):
    """All passes of one workload; returns the result object and report lines."""
    if not (ROOT / "src" / "cblocks" / "__init__.py").is_file():
        raise BenchError(f"no cblocks sources under {ROOT / 'src'}")
    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    untraced, traced, probes, longest = [], [], [], 0.0
    while True:
        t0 = time.monotonic()
        untraced.append(_spawn(args, 0, False, deadline))
        if args.trace:
            traced.append(_spawn(args, 1, False, deadline))
        else:
            # one more set-up sample per pass, spread over the run
            probes.append(_spawn(args, 0, True, deadline)["setup_s"])
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic() - t_start
        if now + longest > min(args.seconds, HARD_LIMIT_S):
            break
    passes = untraced + traced
    failures = [f for p in passes for f in p["failures"]] + _hash_mismatches(passes)
    attempted = sum(len(p["times"]) for p in passes)
    n_per_pass = len(untraced[0]["times"])
    lines = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
             f"passes={len(untraced)}+{len(traced)} instances/pass={n_per_pass}"]
    if args.trace:
        metrics, absent = _layer_metrics(traced, untraced)
        for name, m in metrics.items():
            note = "  (absent)" if name in absent else ""
            lines.append(f"  {name:44s} {m['value']:.6g} {m['unit']}{note}")
        lines.append(f"  spans written to {OUT.relative_to(ROOT)}/"
                     f"trace-{args.workload}-seed{args.seed}.json")
    else:
        # Times are in reference seconds (speed.py).  An instance's time is
        # the median of its times over the run's passes; the pass time is the
        # sum of these.
        per_instance = [statistics.median(ts) for ts in zip(*(p["times"] for p in untraced))]
        level = tail_level(n_per_pass)
        setups = probes + [p["setup_s"] for p in untraced]
        values = {
            "batch_s": sum(per_instance),
            "instance_s.p50": statistics.median(per_instance),
            "instance_s.tail": nearest_rank(per_instance, level),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        notes = {
            "batch_s": "  (reference s; median pass wall "
                       f"{statistics.median(p['wall_s'] for p in untraced):.6g} s)",
            "instance_s.tail": f"  (p{level} of {n_per_pass} instances, each the median "
                               f"of {len(untraced)} passes)",
            "setup_s": f"  (median of {len(setups)} set-ups)",
        }
        for name, unit in END_TO_END:
            lines.append(f"  {name:16s} {values[name]:.6g} {unit}{notes.get(name, '')}")
        lines.append(f"  {'fail_ratio':16s} {len(failures) / attempted:.6g} 1"
                     f"  ({len(failures)} of {attempted})")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, lines, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="the cheapest instances of each workload only")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            result, lines, failures = run_workload(args)
            print("\n".join(lines), flush=True)
            for f in failures[:20]:
                print(f"FAILED {f['id']}: {'; '.join(f['problems'])}", file=sys.stderr)
            results[name] = result
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
