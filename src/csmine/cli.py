"""Batch command line interface.

``csmine mine run.conf`` executes a mining run described by a flat
key = value config file, writes CSV and JSON reports, and prints a
summary. ``csmine summarize`` recomputes the summary of an existing
report against its dataset, and ``csmine synth`` materializes the bundled
synthetic benchmark dataset to an ARFF file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .data import ArffError, load_arff, derive_groups_regression, derive_groups_survival, write_arff
from .induction import MiningParams, _worker_count, mine_all
from .quality import MEASURES
from .reports import (
    filter_redundancy,
    read_csv_report,
    read_json_report,
    summarize,
    write_csv_report,
    write_json_report,
)
from .synthetic import default_spec, generate_synthetic

# the run's own keys, then one key per MiningParams field
CONFIG_KEYS = (
    "input",
    "synthetic",
    "seed",
    "task",
    "group_column",
    "label_column",
    "time_column",
    "status_column",
    "redundancy_threshold",
    "output_csv",
    "output_json",
) + tuple(f.name for f in fields(MiningParams))


class ConfigError(ValueError):
    """Bad run configuration; carries the source line when known."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def parse_config(text: str) -> dict[str, str]:
    """Flat ``key = value`` pairs, one per line, ``#`` comments."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", line_no)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        out[key] = value
    return out


def _parse_number(cfg: dict, key: str, default, kind=float):
    """``cfg[key]`` as a ``kind`` (float or int), or ``default`` when absent."""
    if key not in cfg:
        return default
    try:
        return kind(cfg[key])
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {cfg[key]!r}") from None


def params_from_config(cfg: dict[str, str]) -> MiningParams:
    """The ``MiningParams`` of a config: each field is read by the type of
    its default, and an absent key keeps the default."""
    measure = cfg.get("measure") or None
    if measure is not None and measure not in MEASURES:
        raise ConfigError(f"measure must be one of {', '.join(MEASURES)}, got {measure!r}")
    values = {}
    for f in fields(MiningParams):
        if f.name not in cfg:
            continue
        value = cfg[f.name]
        if isinstance(f.default, tuple):
            try:
                values[f.name] = tuple(float(v) for v in value.split(",") if v.strip())
            except ValueError:
                raise ConfigError(f"{f.name} must be comma-separated numbers, got {value!r}") from None
        elif isinstance(f.default, (float, int)):
            values[f.name] = _parse_number(cfg, f.name, f.default, type(f.default))
        elif f.default is None:  # an optional name: empty means the default
            values[f.name] = value or None
        else:
            values[f.name] = value
    try:
        return MiningParams(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_dataset(cfg: dict[str, str], input_path: str | None = None):
    """Dataset for one run: either the synthetic benchmark or an ARFF file,
    with groups derived from the label or time median when no group column
    is named for a regression or survival task."""
    if cfg.get("synthetic"):
        if cfg["synthetic"] != "default":
            raise ConfigError(f"synthetic must be 'default', got {cfg['synthetic']!r}")
        return generate_synthetic(default_spec(), seed=_parse_number(cfg, "seed", 0, int))
    path = input_path if input_path is not None else cfg.get("input")
    if not path:
        raise ConfigError("config needs either input or synthetic")
    task = cfg.get("task") or None
    try:
        ds = load_arff(
            path,
            group=cfg.get("group_column") or None,
            label=cfg.get("label_column") or None,
            time=cfg.get("time_column") or None,
            status=cfg.get("status_column") or None,
            task=task,
        )
    except ArffError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not cfg.get("group_column"):
        if ds.task == "regression":
            ds = derive_groups_regression(ds)
        elif ds.task == "survival":
            ds = derive_groups_survival(ds)
        else:
            raise ConfigError("classification task needs a group_column")
    return ds


def _suffixed(path: str, stem: str, multi: bool) -> Path:
    p = Path(path)
    if not multi:
        return p
    return p.with_name(f"{p.stem}_{stem}{p.suffix}")


def _print_metrics(results, ds, out) -> None:
    """Each group's set count, then the summary of ``results`` against ``ds``."""
    for g, sets in results.items():
        print(f"group {g}: {len(sets)} sets", file=out)
    metrics = summarize(results, ds)
    print(f"sets: {metrics.n_sets}", file=out)
    print(f"mean support: {100.0 * metrics.mean_support:.1f}%", file=out)
    print(f"mean precision: {100.0 * metrics.mean_precision:.1f}%", file=out)
    for k, v in sorted(metrics.coverage_counts.items()):
        print(f"covered by {k} sets: {v} examples", file=out)


def run_mine(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    cfg_path = Path(args.config)
    try:
        cfg = parse_config(cfg_path.read_text(encoding="utf-8"))
    except ConfigError as exc:
        raise ConfigError(f"{cfg_path}: {exc}") from None
    for override in args.set or []:
        if "=" not in override:
            raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
        key, _, value = override.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        cfg[key] = value.strip()
    params = params_from_config(cfg)
    try:
        workers = _worker_count(None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    threshold = None
    if "redundancy_threshold" in cfg and cfg["redundancy_threshold"]:
        threshold = _parse_number(cfg, "redundancy_threshold", 0.0)
    inputs: list[str | None]
    if cfg.get("synthetic"):
        inputs = [None]
    else:
        raw = cfg.get("input", "")
        inputs = [s.strip() for s in raw.split(",") if s.strip()]
        if not inputs:
            raise ConfigError("config needs either input or synthetic")
    multi = len(inputs) > 1
    for input_path in inputs:
        ds = load_dataset(cfg, input_path)
        stem = Path(input_path).stem if input_path else "synthetic"
        print(
            f"{ds.relation}: {ds.n_examples} examples, {len(ds.attributes)} attributes, "
            f"task {ds.task}, groups {', '.join(ds.groups)}",
            file=out,
        )
        results = mine_all(ds, params, workers=workers)
        kept = filter_redundancy(results, threshold) if threshold is not None else results
        _print_metrics(kept, ds, out)
        if cfg.get("output_csv"):
            target = _suffixed(cfg["output_csv"], stem, multi)
            write_csv_report(kept, ds, target)
            print(f"wrote {target}", file=out)
        if cfg.get("output_json"):
            target = _suffixed(cfg["output_json"], stem, multi)
            write_json_report(results, ds, params, target, redundancy_threshold=threshold)
            print(f"wrote {target}", file=out)
    return 0


def run_summarize(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    if args.dataset == "synthetic":
        cfg = {"synthetic": "default", "seed": str(args.seed)}
    else:
        columns = ("group_column", "label_column", "time_column", "status_column")
        cfg = {key: getattr(args, key) or "" for key in columns}
        cfg["input"] = args.dataset
    ds = load_dataset(cfg)
    report = Path(args.report)
    if report.suffix.lower() == ".json":
        results = read_json_report(report, ds)
    else:
        results = read_csv_report(report, ds)
    _print_metrics(results, ds, out)
    return 0


def run_synth(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    if args.spec != "default":
        raise ConfigError(f"only the 'default' spec is available, got {args.spec!r}")
    ds = generate_synthetic(default_spec(), seed=args.seed)
    write_arff(ds, args.out)
    print(f"wrote {args.out} ({ds.n_examples} examples)", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmine",
        description="Mine contrast sets that distinguish groups of examples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="run mining from a config file")
    mine.add_argument("config", help="path to a key = value config file")
    mine.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config entry (repeatable)",
    )
    mine.set_defaults(func=run_mine)

    summ = sub.add_parser("summarize", help="summarize an existing report")
    summ.add_argument("report", help="CSV or JSON report path")
    summ.add_argument("dataset", help="ARFF dataset path, or 'synthetic'")
    summ.add_argument("--group-column", default=None)
    summ.add_argument("--label-column", default=None)
    summ.add_argument("--time-column", default=None)
    summ.add_argument("--status-column", default=None)
    summ.add_argument("--seed", type=int, default=0, help="seed for the synthetic dataset")
    summ.set_defaults(func=run_summarize)

    synth = sub.add_parser("synth", help="write the synthetic benchmark dataset")
    synth.add_argument("spec", help="spec name; only 'default' is bundled")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output ARFF path")
    synth.set_defaults(func=run_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ArffError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
