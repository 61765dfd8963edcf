"""Rewrite reference.json from the program as it is now:

    python3 perfbench/reference.py

Mining output must not change, so run this only when a change to the
output is intended, or when a workload changes. For each workload it mines
seeds 0..run.REFERENCE_SEEDS-1 once, checks that every seed gives the same
normalized digest, and stores that digest plus the raw digest of each seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import worker


def main() -> int:
    os.environ["CSMINE_WORKERS"] = "1"
    worker.import_program()
    import workloads

    refs = {}
    workdir = worker.ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, make in workloads.WORKLOADS.items():
            norms, raws = set(), {}
            for seed in range(run.REFERENCE_SEEDS):
                prepared = make(seed, workdir)
                raw, norm = workloads.digests(prepared.render(prepared.run()), prepared.inverses)
                norms.add(norm)
                raws[str(seed)] = raw
            if len(norms) != 1:
                print(f"error: {name}: seeds disagree after normalization", file=sys.stderr)
                return 1
            refs[name] = {"normalized": norms.pop(), "raw": raws}
            print(f"{name}: {refs[name]['normalized']}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    worker.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
