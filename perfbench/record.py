"""Write results.json: the machine, one untraced and one traced run of every
workload, a check on a second seed, and one attempt of the scaling probe.

    python3 perfbench/record.py

Seeds, run length and probe timeout are the RECORD_* and related constants
of run.py.

The probe mines a 10,000 x 12 continuous classification dataset once,
under its own timeout. It is a known scaling defect kept visible here, not
a timed workload: every repeated run of it would end in the timeout.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import time

import numpy

import run


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def probe(timeout: float) -> dict:
    workdir = run.ROOT / ".perfbench_work" / "probe"
    workdir.mkdir(parents=True, exist_ok=True)
    lines, err = run.spawn(
        "cont_cls_10k", 0, workdir, time.monotonic() + timeout + 120,
        "--setup-only", "--timeout", str(timeout),
    )
    shutil.rmtree(workdir, ignore_errors=True)
    ready = lines.get("ready") or {}
    return {
        "workload": "cont_cls_10k",
        "rows": 10_000,
        "attributes": 12,
        "timeout_s": timeout,
        "outcome": err or ready.get("error") or "finished",
        "wall_s": ready.get("warmup_wall_s"),
    }


def main() -> int:
    doc = {"machine": machine(), "seed": run.RECORD_SEED, "seconds": run.RECORD_SECONDS, "workloads": {}}
    ok = True
    for name in run.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            result, human = run.run_workload(name, run.RECORD_SEED, run.RECORD_SECONDS, trace)
            print("\n".join(human), flush=True)
            entry["traced" if trace else "untraced"] = result
            ok = ok and result["correct"]
        doc["workloads"][name] = entry
    second = {"seed": run.SECOND_SEED}
    for name in run.WORKLOADS:
        result, human = run.run_workload(name, run.SECOND_SEED, run.RECORD_SECONDS, 0)
        print("\n".join(human), flush=True)
        second[name] = {
            "correct": result["correct"],
            "fail_ratio": result["failed"] / result["attempted"],
            "metrics": result["metrics"],
        }
        ok = ok and result["correct"]
    doc["second_seed"] = second
    doc["scaling_probe"] = probe(run.PROBE_TIMEOUT_S)
    print(json.dumps(doc["scaling_probe"]), flush=True)
    (run.HERE / "results.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
