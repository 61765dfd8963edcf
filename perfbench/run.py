"""Benchmark of the csmine miner, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or ``all`` to run each in turn. The load is
closed-loop: one process runs one iteration at a time, with
CSMINE_WORKERS=1. Each run starts fresh worker processes (worker.py): two
that only set up, and one that sets up and then times iterations for S
seconds. ``setup_s`` is the median of the three set-ups.

With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of tracer.py. End-to-end times are in reference
seconds (see REF_CALIBRATION_S); the measured seconds are printed beside
them. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Every iteration,
warm-ups included, counts as attempted; one that raises, times out or
emits output that differs from reference.json counts as failed, and the
exit code is then 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cont_cls", "surv_logrank", "batch_mixed", "arff_pipeline")
SETUPS = 3
ITERATION_TIMEOUT_S = 35.0
# Each worker may spend up to this on start, imports, inputs and calibration.
WORKER_OVERHEAD_S = 5.0
# record.py: seed and length of its runs, the second seed (not used while
# writing the benchmark) and the timeout of the one scaling probe attempt.
# reference.py: seeds 0..REFERENCE_SEEDS-1 get a raw digest in reference.json.
RECORD_SEED = 0
RECORD_SECONDS = 15.0
SECOND_SEED = 7919
PROBE_TIMEOUT_S = 600.0
REFERENCE_SEEDS = 32
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Times are reported in reference seconds: measured seconds scaled by
# REF_CALIBRATION_S / (the time of worker.calibrate around them), i.e. as if
# the calibration loop had taken exactly REF_CALIBRATION_S.
REF_CALIBRATION_S = 0.05


def spawn(workload: str, seed: int, workdir: Path, deadline: float, *extra: str) -> tuple[dict, str | None]:
    """Run one worker process; (its parsed JSON lines, error or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
        "--timeout", str(ITERATION_TIMEOUT_S), *extra,
    ]
    # a fixed hash seed removes one per-process source of timing noise
    env = dict(os.environ, CSMINE_WORKERS="1", PYTHONHASHSEED="0")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        err = None if proc.returncode == 0 else f"worker exited with {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        err = "worker killed at the run deadline"
    lines = {}
    for line in out.splitlines():
        if line.startswith("{"):
            lines.update(json.loads(line))
    return lines, err


def run_deadline(seconds: float) -> float:
    """Seconds a run may take before its worker is killed: every warm-up and
    the last timed iteration at their timeout, plus ``seconds`` of timed
    iterations. It is 170 s for ``--seconds 15``."""
    return seconds + (SETUPS + 1) * ITERATION_TIMEOUT_S + SETUPS * WORKER_OVERHEAD_S


def median(xs: list[float]) -> float | None:
    """The median, or None when there is nothing to take it of."""
    return statistics.median(xs) if xs else None


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    k = len(values)
    if k < 11:
        return f"no percentile with 10 samples beyond ({k} samples)"
    return f"p{100 * (k - 10) // k} {sorted(values)[k - 11]:.4f} s ({k} samples, 10 beyond)"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """(result object, human-readable lines) of one benchmark run."""
    deadline = time.monotonic() + run_deadline(seconds)
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    readies, errors = [], []
    try:
        for _ in range(SETUPS - 1):
            lines, err = spawn(name, seed, workdir, deadline, "--setup-only")
            readies.append(lines.get("ready"))
            errors.append(err)
        extra = ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            extra += ["--spans-out", str(out_dir / f"spans-{name}.jsonl")]
        lines, err = spawn(name, seed, workdir, deadline, *extra)
        readies.append(lines.get("ready"))
        errors.append(err)
        result = lines.get("result") or {"samples": [], "peak_rss_mb": None}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    samples = result["samples"]
    errors += [r["error"] if r else None for r in readies] + [s["error"] for s in samples]
    # a timed worker that died after a good warm-up took an iteration with it
    lost = int(err is not None and readies[-1] is not None and not readies[-1]["error"])
    attempted = SETUPS + len(samples) + lost
    failed = sum(1 for r in readies if r is None or r["error"]) + lost
    failed += sum(1 for s in samples if s["error"])
    plain = [s for s in samples if not s["error"] and not s["traced"]]
    traced = [s for s in samples if not s["error"] and s["traced"]]
    if len({r["raw_digest"] for r in readies if r}) > 1:
        errors.append("worker processes emitted different output")
    correct = not any(errors) and bool(plain) and (bool(traced) or not trace)

    walls = [s["wall_s"] for s in plain]
    cpus = [s["cpu_s"] for s in plain]
    human = [
        f"{name} seed {seed}: {attempted} iterations attempted ({SETUPS} warm-up), "
        f"{failed} failed, fail_ratio {failed / attempted:.4f}",
    ]
    human += [f"  error: {e}" for e in dict.fromkeys(e for e in errors if e)]
    if trace:
        metrics = dict(result.get("layers", {}))
        overhead = None
        if traced and walls:
            overhead = median([s["wall_s"] for s in traced]) - median(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        good = [r for r in readies if r is not None]
        setups = [r["setup_s"] * REF_CALIBRATION_S / median([c[0] for c in r["calibrations"]]) for r in good]
        # each iteration is scaled by the calibrations on both sides of it
        cals = [readies[-1]["calibrations"] if readies[-1] else []] + [s["calibrations"] for s in samples]
        scaled_wall, scaled_cpu = [], []
        for i, s in enumerate(samples):
            if s["error"] or s["traced"]:
                continue
            around = cals[i] + cals[i + 1]
            scaled_wall.append(s["wall_s"] * REF_CALIBRATION_S / statistics.mean(c[0] for c in around))
            scaled_cpu.append(s["cpu_s"] * REF_CALIBRATION_S / statistics.mean(c[1] for c in around))
        cal_wall = median([c[0] for cs in cals for c in cs])
        cal_cpu = median([c[1] for cs in cals for c in cs])
        values = {
            "setup_s": median(setups),
            "wall_s": median(scaled_wall),
            "cpu_s": median(scaled_cpu),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in values.items()}
        human.append(
            f"  measured: setup_s {fmt(median([r['setup_s'] for r in good]))} s, wall_s {fmt(median(walls))} s, "
            f"cpu_s {fmt(median(cpus))} s; calibration loop {fmt(cal_wall, 1000)} ms wall, "
            f"{fmt(cal_cpu, 1000)} ms cpu (reference {1000 * REF_CALIBRATION_S:g} ms)"
        )
        human.append(f"  measured wall_s tail: {tail(walls)}")
        human.append(f"  measured cpu_s tail: {tail(cpus)}")
    for m, v in metrics.items():
        flag = " (missing: wrapped name not found)" if v.get("missing") else ""
        human.append(f"  {m} = {fmt(v['value'])} {v['unit']}{flag}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, human


def fmt(value: float | None, scale: float = 1.0) -> str:
    return "none (no good samples)" if value is None else f"{value * scale:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "csmine" / "__init__.py").is_file():
        print(f"error: no csmine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result, human = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(human), flush=True)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
