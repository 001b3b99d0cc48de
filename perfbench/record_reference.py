"""Record the reference output digests of every workload at the reference
seed into ``reference.json``.  Run from the root of a checkout of the commit
whose outputs are the reference:

    python3 perfbench/record_reference.py

Refuses to record outputs that break the invariants the benchmark checks
at other seeds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCE_FILE, REFERENCE_SEED, WORKLOADS, Bench  # noqa: E402


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"record-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(ROOT, workload, REFERENCE_SEED, work, reference={})
        bench.prepare()
        bench.run_iteration()
        ops = bench.prep_ops + bench.ops
        problems = [f"{op.label}: {p}" for op in ops
                    if op.kind != "ingest" and (p := bench.invariant_problem(op))]
        problems += [f"{op.label}: criterion-8 ordering" for op in bench.ordering_failures(ops)]
        if problems:
            raise SystemExit(f"{name}: not recording broken outputs:\n" + "\n".join(problems))
        digests = bench.digest(ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"realizations": workload.realizations, "digests": dict(sorted(digests.items()))}


def main() -> None:
    reference = {"seed": REFERENCE_SEED, "workloads": {name: record(name) for name in WORKLOADS}}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")


if __name__ == "__main__":
    main()
