"""One workload in one fresh process; started by run.py.

Set-up is everything before the first timed iteration: interpreter start,
imports, input generation and one warm-up iteration. Its end is printed as
a JSON line ``{"ready": ...}`` carrying the set-up time, measured from the
parent's ``time.monotonic()`` stamp taken just before it started this
process (CLOCK_MONOTONIC is shared by all processes of a machine). Unless
``--setup-only`` is given, the process then runs timed iterations, one at a
time, until ``--seconds`` have passed, and prints ``{"result": ...}``.

Every iteration runs under a SIGALRM timeout; a timeout is recorded as a
failed iteration and the loop goes on. Every iteration's output is checked:
its normalized digest against ``reference.json``, its raw digest against
the warm-up's and, when ``reference.json`` lists the seed, against that.

After set-up and after every timed iteration the process times
``calibrate``, a fixed loop, three times; run.py scales each iteration's
times by the calibrations just before and just after it.

With ``--trace 1`` iterations alternate untraced and traced, so the run
measures its own tracing overhead and checks that traced output equals
untraced output. The tracer module is imported only then.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure ``csmine``
    comes from there, not from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import csmine

    if Path(csmine.__file__).resolve().parent != src / "csmine":
        raise ImportError(f"csmine was imported from {csmine.__file__}, not from {src}")


# The host's speed drifts by tens of percent within a minute, and the miner
# slows with it. A fixed loop, timed after set-up and after every timed
# iteration, tracks that drift. The loop keys its dict by int, so its speed
# does not depend on the hash seed.
_CAL_VALUES = np.arange(256, dtype=np.float64)[::-1].copy()
_CAL_CODES = np.arange(256) % 7


def calibrate(rounds: int = 3000) -> list[float]:
    """(wall s, cpu s) of a fixed mix of interpreter work and small numpy
    calls, the two halves of the miner's cost."""
    w0, c0 = time.perf_counter(), time.process_time()
    acc, words = 0.0, {}
    for i in range(rounds):
        for j in range(40):
            acc += (i * j) % 7 * 0.5
        key = (i % 97) * 13 + i % 13
        words[key] = words.get(key, 0) + len(f"{key},{i}".split(","))
        order = np.argsort(_CAL_VALUES, kind="stable")
        np.cumsum(_CAL_VALUES[order])
        np.bincount(_CAL_CODES, weights=_CAL_VALUES, minlength=8)
    return [time.perf_counter() - w0, time.process_time() - c0]


class IterationTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise IterationTimeout()


def timed_run(prepared, timeout: float) -> tuple[float, float, object, str | None]:
    """(wall s, cpu s, output, error) of one iteration under the timeout."""
    signal.setitimer(signal.ITIMER_REAL, timeout)
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out, err = prepared.run(), None
    except IterationTimeout:
        out, err = None, f"timeout after {timeout:g} s"
    except Exception as exc:  # any failure of the program is a failed iteration
        out, err = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - w0, time.process_time() - c0, out, err


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--timeout", type=float, default=60.0)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at start")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    import workloads

    signal.signal(signal.SIGALRM, _alarm)
    make = {**workloads.WORKLOADS, **workloads.PROBES}[args.workload]
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")).get(args.workload)
    workdir = Path(args.workdir)
    prepared = make(args.seed, workdir)

    def check(out) -> tuple[str | None, str | None]:
        """(raw digest, error) of one iteration's output."""
        try:
            raw, norm = workloads.digests(prepared.render(out), prepared.inverses)
        except (ValueError, KeyError, OSError) as exc:
            return None, f"output unreadable: {exc}"
        if refs is None:
            return raw, None if args.workload in workloads.PROBES else "no reference digest"
        if norm != refs["normalized"]:
            return raw, "normalized digest differs from reference"
        if refs["raw"].get(str(args.seed), raw) != raw:
            return raw, "raw digest differs from reference"
        return raw, None

    wall, cpu, out, err = timed_run(prepared, args.timeout)
    setup_s = time.monotonic() - args.t0
    warm_raw, check_err = check(out) if err is None else (None, None)
    ready = {
        "setup_s": setup_s,
        "calibrations": [calibrate() for _ in range(3)],
        "warmup_wall_s": wall,
        "raw_digest": warm_raw,
        "error": err or check_err,
    }
    print(json.dumps({"ready": ready}), flush=True)
    if args.setup_only or ready["error"]:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    samples, layers = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            tracer.start_iteration()
        try:
            wall, cpu, out, err = timed_run(prepared, args.timeout)
        finally:
            if traced:
                tracer.remove()
        if traced and err is None:
            layers.append(tracer.end_iteration())
        after = [calibrate() for _ in range(3)]
        if err is None:
            raw, err = check(out)
            if err is None and raw != warm_raw:
                err = "raw digest differs from the warm-up iteration"
        samples.append({
            "wall_s": wall, "cpu_s": cpu, "traced": traced, "error": err, "calibrations": after,
        })
        i += 1

    result = {
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        missing = tracer.missing_metrics()
        result["layers"] = {
            m: {
                "value": statistics.median(v[m] for v in layers) if layers else None,
                "unit": unit,
                **({"missing": True} if m in missing else {}),
            }
            for m, (unit, _) in tracer_mod.METRICS.items()
        }
        if args.spans_out:
            Path(args.spans_out).write_text(
                "\n".join(json.dumps(s) for s in tracer.kept_spans) + "\n", encoding="utf-8"
            )
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
