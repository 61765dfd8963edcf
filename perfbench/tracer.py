"""Layer spans recorded from outside the program.

The tracer replaces module attributes of ``csmine`` with wrappers while it
is installed and puts the originals back when it is removed. Mining looks
these names up at call time, so the wrappers see every call; they only
read arguments and return values. A span has a name, start, end and
parent; self time is its duration minus the time its child spans cover.
Spans of one iteration are aggregated when it ends, and the spans of the
first traced iteration are kept for writing out.

A target that no longer exists (a private name renamed by a refactor) is
skipped, and the metrics that depend on it are reported as missing.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from time import perf_counter

from csmine import cli, contrast, data, induction, quality, reports

# (module, attribute path, span name). A span name with several targets
# covers the same function reached through different modules' names.
TARGETS = (
    (cli, "run_mine", "cli"),
    (data, "parse_arff", "data.parse_arff"),
    (data, "write_arff", "data.write_arff"),
    (induction, "mine_group", "induction.mine_group"),
    (induction, "_grow", "induction.grow"),
    (induction, "_sweep_attribute", "induction.sweep"),
    (induction, "_score_candidates", "quality.score"),
    (induction, "_prune", "induction.prune"),
    (quality, "_LogRankScorer.score", "quality.logrank"),
    (induction, "condition_mask", "contrast.condition_mask"),
    (contrast, "condition_mask", "contrast.condition_mask"),
    (induction, "canonicalize", "contrast.canonicalize"),
    (contrast, "canonicalize", "contrast.canonicalize"),
    (cli, "filter_redundancy", "reports.filter_redundancy"),
    (reports, "filter_redundancy", "reports.filter_redundancy"),
    (cli, "summarize", "reports.summarize"),
    (reports, "summarize", "reports.summarize"),
    (cli, "write_csv_report", "reports.write"),
    (cli, "write_json_report", "reports.write"),
    (reports, "write_csv_report", "reports.write"),
)
# Spans whose calls also feed counters in Tracer._after.
_COUNTED = frozenset(
    ("induction.grow", "induction.sweep", "induction.prune", "data.parse_arff",
     "data.write_arff", "reports.write")
)

# metric -> (unit, span names or counters it needs)
METRICS = {
    "cli.self_s": ("s", ("cli",)),
    "data.parse_arff.s": ("s", ("data.parse_arff",)),
    "data.parse_arff.mb_per_s": ("MB/s", ("data.parse_arff",)),
    "data.write_arff.s": ("s", ("data.write_arff",)),
    "data.write_arff.mb_per_s": ("MB/s", ("data.write_arff",)),
    "induction.mine_group.self_s": ("s", ("induction.mine_group",)),
    "induction.grow.calls": ("count", ("induction.grow",)),
    "induction.grow.self_s": ("s", ("induction.grow",)),
    "induction.grow.steps": ("count", ("induction.grow", "induction.condition_mask")),
    "induction.grow.premise_len_max": ("count", ("induction.grow", "induction.condition_mask")),
    "induction.sweep.calls": ("count", ("induction.sweep",)),
    "induction.sweep.self_s": ("s", ("induction.sweep",)),
    "induction.sweep.candidates": ("count", ("induction.sweep",)),
    "induction.sweep.support_gate_pass_ratio": ("ratio", ("induction.sweep",)),
    "induction.prune.calls": ("count", ("induction.prune",)),
    "induction.prune.self_s": ("s", ("induction.prune",)),
    "induction.prune.rounds": ("count", ("induction._modified_quality_of",)),
    "induction.prune.removed": ("count", ("induction.prune",)),
    "quality.score.self_s": ("s", ("quality.score",)),
    "quality.logrank.calls": ("count", ("quality.logrank",)),
    "quality.logrank.s": ("s", ("quality.logrank",)),
    "contrast.condition_mask.calls": ("count", ("contrast.condition_mask",)),
    "contrast.condition_mask.s": ("s", ("contrast.condition_mask",)),
    "contrast.canonicalize.s": ("s", ("contrast.canonicalize",)),
    "reports.filter_redundancy.s": ("s", ("reports.filter_redundancy",)),
    "reports.summarize.s": ("s", ("reports.summarize",)),
    "reports.write.s": ("s", ("reports.write",)),
    "reports.write.bytes": ("bytes", ("reports.write",)),
}


def _source_bytes(source) -> int:
    name = getattr(source, "name", None)
    if isinstance(name, str) and os.path.isfile(name):
        return os.path.getsize(name)
    return len(source.encode("utf-8")) if isinstance(source, str) else 0


class Tracer:
    """Installs the wrappers, records spans and per-iteration aggregates."""

    def __init__(self) -> None:
        self.missing: set[str] = set()
        self.kept_spans: list[tuple] = []
        self._originals: list[tuple] = []
        self._keep = True
        self.start_iteration()

    def start_iteration(self) -> None:
        """Forget the counters of the previous iteration."""
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.premise_len_max = 0
        self._spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0

    # -- wrapping -----------------------------------------------------------

    def _after(self, name: str, args, result, mask_children: int) -> None:
        """Counters recomputed from one call's arguments and result."""
        if name == "induction.grow":
            self.counts["induction.grow.steps"] += mask_children
            self.premise_len_max = max(self.premise_len_max, mask_children)
        elif name == "induction.sweep":
            if result is None:
                return
            ctx = args[0]
            gate = (result.p / ctx.P >= ctx.minsupp_all) & (
                result.p_new_pass / ctx.P >= ctx.params.minsupp_new
            )
            self.counts["induction.sweep.candidates"] += int(result.p.size)
            self.counts["induction.sweep.gate_pass"] += int(gate.sum())
        elif name == "induction.prune":
            self.counts["induction.prune.removed"] += len(args[1].conditions) - len(result.conditions)
        elif name == "data.parse_arff":
            self.counts["data.parse_arff.bytes"] += _source_bytes(args[0])
        else:
            self.counts[f"{name}.bytes"] += len(result.encode("utf-8"))

    def _wrap(self, fn, name: str):
        tracer = self
        counted = name in _COUNTED
        is_mask = name == "contrast.condition_mask"

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0, 0]  # id, child seconds, condition_mask children
            stack = tracer._stack
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                    parent[2] += is_mask
                tracer.self_s[name] += dur - frame[1]
                tracer.calls[name] += 1
                if tracer._keep:
                    tracer._spans.append((span_id, name, start, end, parent[0] if parent else None))
            if counted:
                try:
                    tracer._after(name, args, result, frame[2])
                except (AttributeError, TypeError, IndexError):
                    tracer.missing.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_rounds(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts["induction.prune.rounds"] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module, path: str, make, missing_as: str) -> None:
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.add(missing_as)
            return
        self._originals.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def install(self) -> None:
        for module, path, name in TARGETS:
            self._patch(module, path, lambda fn, name=name: self._wrap(fn, name), name)
        # grow steps are counted through this name, so they go missing with it
        if getattr(induction, "condition_mask", None) is None:
            self.missing.add("induction.condition_mask")
        self._patch(induction, "_modified_quality_of", self._count_rounds,
                    "induction._modified_quality_of")

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    # -- per iteration ------------------------------------------------------

    def end_iteration(self) -> dict[str, float]:
        """This iteration's value of every metric in METRICS."""
        s, calls, counts = self.self_s, self.calls, self.counts

        def rate(name: str) -> float:
            return counts[f"{name}.bytes"] / 1e6 / s[name] if s[name] > 0 else 0.0

        cand = counts["induction.sweep.candidates"]
        values = {
            "cli.self_s": s["cli"],
            "data.parse_arff.s": s["data.parse_arff"],
            "data.parse_arff.mb_per_s": rate("data.parse_arff"),
            "data.write_arff.s": s["data.write_arff"],
            "data.write_arff.mb_per_s": rate("data.write_arff"),
            "induction.mine_group.self_s": s["induction.mine_group"],
            "induction.grow.calls": calls["induction.grow"],
            "induction.grow.self_s": s["induction.grow"],
            "induction.grow.steps": counts["induction.grow.steps"],
            "induction.grow.premise_len_max": self.premise_len_max,
            "induction.sweep.calls": calls["induction.sweep"],
            "induction.sweep.self_s": s["induction.sweep"],
            "induction.sweep.candidates": cand,
            "induction.sweep.support_gate_pass_ratio": (
                counts["induction.sweep.gate_pass"] / cand if cand else 0.0
            ),
            "induction.prune.calls": calls["induction.prune"],
            "induction.prune.self_s": s["induction.prune"],
            "induction.prune.rounds": counts["induction.prune.rounds"],
            "induction.prune.removed": counts["induction.prune.removed"],
            "quality.score.self_s": s["quality.score"],
            "quality.logrank.calls": calls["quality.logrank"],
            "quality.logrank.s": s["quality.logrank"],
            "contrast.condition_mask.calls": calls["contrast.condition_mask"],
            "contrast.condition_mask.s": s["contrast.condition_mask"],
            "contrast.canonicalize.s": s["contrast.canonicalize"],
            "reports.filter_redundancy.s": s["reports.filter_redundancy"],
            "reports.summarize.s": s["reports.summarize"],
            "reports.write.s": s["reports.write"],
            "reports.write.bytes": counts["reports.write.bytes"],
        }
        if self._keep:
            self.kept_spans = self._spans
            self._keep = False
        return values

    def missing_metrics(self) -> set[str]:
        return {m for m, (_, needs) in METRICS.items() if self.missing.intersection(needs)}
