"""Write reference.json from the program at the current commit.

    python3 bench/record_reference.py

Records what no independent oracle in the benchmark gives: the rank-2 block
dimensions, the degree-lemma column counts and decomposition, and the basis
hashes of every instance at the default seed.  sl2 dimensions, the SV duality
assertions and the marked-partition counts are checked against oracles and
are not recorded.  Refuses to write a reference under which the default-seed
pass would fail.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def main():
    program = workloads.Program()
    rs = {name: program.roots.build_root_system(*spec)
          for name, spec in workloads.ALGEBRAS.items()}
    ref = {
        "theorem": {"dims": {}},
        "blocks-ladder": {"dims": {}},
        "degree-lemma": {"lemmas": dict.fromkeys(program.degreelab.LEMMA_CATALOG)},
        "hashes": {w: {} for w in workloads.WORKLOADS},
    }
    seed = workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        run = workloads.Pass(program, name, seed, ref, rs)
        for inst in workloads.generate(name, seed, ref):
            got = run.answer(inst)
            kind = inst.get("kind", name)
            if "hash" in got:
                ref["hashes"][name][inst["id"]] = got["hash"]
            if kind in ("theorem", "blocks-ladder") and inst["alg"] != "A1":
                ref[name]["dims"][inst["id"]] = got["dim"]
            elif kind == "lemma":
                ref[name]["lemmas"][inst["name"]] = got["columns"]
            elif kind == "decomposition":
                ref[name]["decomposition"] = got
    failures = []
    for name in workloads.WORKLOADS:
        run = workloads.Pass(program, name, seed, ref, rs)
        for inst in workloads.generate(name, seed, ref):
            failures += [(inst["id"], p) for p in run.check(inst, run.answer(inst))]
    if failures:
        for f in failures:
            print("FAILED", *f, file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
