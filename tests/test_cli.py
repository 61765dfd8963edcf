"""Config parsing, dataset resolution and the csmine entry point."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import random_regression

import csmine
from csmine import cli
from csmine.cli import (
    CONFIG_KEYS,
    ConfigError,
    load_dataset,
    main,
    params_from_config,
    parse_config,
)
from csmine.data import DataSet, load_arff, write_arff
from csmine.induction import MiningParams, mine_all
from csmine.synthetic import generate_synthetic


# ---------------------------------------------------------------------------
# config parsing

def test_parse_config_basics():
    text = """
    # a comment
    synthetic = default

    minsupps = 0.5, 0.2
    output_csv=out.csv
    """
    assert parse_config(text) == {
        "synthetic": "default",
        "minsupps": "0.5, 0.2",
        "output_csv": "out.csv",
    }


@pytest.mark.parametrize(
    "text, line, needle",
    [
        ("synthetic default", 1, "expected key = value"),
        ("color = red", 1, "unknown key 'color'"),
        ("seed = 1\nseed = 2", 2, "duplicate key 'seed'"),
        ("# ok\n\nmeasure = x\nnonsense", 4, "expected key = value"),
    ],
)
def test_parse_config_errors(text, line, needle):
    with pytest.raises(ConfigError, match=needle) as exc:
        parse_config(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ")


def test_params_from_config_defaults_and_overrides():
    assert params_from_config({}) == MiningParams()
    cfg = {
        "minsupps": "0.5,0.2",
        "minsupp_new": "0.2",
        "max_neg2pos": "1.0",
        "max_passes": "3",
        "penalty_strength": "0",
        "reward_saturation": "0.7",
        "mode": "one-vs-one",
        "negative_group": "blue",
        "measure": "regression",
    }
    # every field is overridden here, so a field the config cannot set fails below
    assert set(cfg) == {f.name for f in dataclasses.fields(MiningParams)}
    params = params_from_config(cfg)
    assert params == MiningParams(
        minsupps=(0.5, 0.2),
        minsupp_new=0.2,
        max_neg2pos=1.0,
        max_passes=3,
        penalty_strength=0.0,
        reward_saturation=0.7,
        mode="one-vs-one",
        negative_group="blue",
        measure="regression",
    )
    # empty strings fall back to defaults for the optional names
    assert params_from_config({"negative_group": "", "measure": ""}) == MiningParams()


@pytest.mark.parametrize(
    "cfg, needle",
    [
        ({"minsupp_new": "lots"}, "minsupp_new must be a number"),
        ({"max_passes": "1.5"}, "max_passes must be an integer"),
        ({"minsupps": "0.5;0.2"}, "minsupps must be comma-separated numbers"),
        ({"measure": "accuracy"}, "measure must be one of"),
        ({"mode": "both"}, "unknown mode"),
        ({"minsupps": "0.2, 0.5"}, "descending"),
    ],
)
def test_params_from_config_errors(cfg, needle):
    with pytest.raises(ConfigError, match=needle):
        params_from_config(cfg)


# ---------------------------------------------------------------------------
# dataset resolution

def group_counts(ds):
    return {g: int(np.count_nonzero(ds.group_mask(g))) for g in ds.groups}


def test_load_dataset_synthetic():
    ds = load_dataset({"synthetic": "default", "seed": "3"})
    want = generate_synthetic(seed=3)
    assert ds.relation == want.relation
    assert group_counts(ds) == group_counts(want)
    with pytest.raises(ConfigError, match="synthetic must be 'default'"):
        load_dataset({"synthetic": "small"})


def test_load_dataset_requires_source():
    with pytest.raises(ConfigError, match="needs either input or synthetic"):
        load_dataset({})


def test_load_dataset_arff_and_group_requirement(tmp_path):
    path = tmp_path / "bench.arff"
    write_arff(generate_synthetic(), path)
    ds = load_dataset({"input": str(path), "group_column": "group"})
    assert ds.groups == ("red", "blue")
    assert ds.n_examples == 420
    with pytest.raises(ConfigError, match="classification task needs a group_column"):
        load_dataset({"input": str(path)})


def test_load_dataset_derives_survival_groups(tmp_path):
    path = tmp_path / "surv.arff"
    path.write_text(
        "@relation surv\n"
        "@attribute x numeric\n"
        "@attribute t numeric\n"
        "@attribute s numeric\n"
        "@data\n"
        "1,1,1\n2,2,1\n3,3,0\n4,4,1\n",
        encoding="utf-8",
    )
    ds = load_dataset(
        {"input": str(path), "task": "survival", "time_column": "t", "status_column": "s"}
    )
    assert ds.task == "survival"
    assert set(ds.groups) == {"G1", "G2"}


def test_load_dataset_wraps_arff_errors(tmp_path):
    path = tmp_path / "bad.arff"
    path.write_text("@relation r\n@data\n1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"bad\.arff: line"):
        load_dataset({"input": str(path), "group_column": "g"})


# ---------------------------------------------------------------------------
# entry point

def write_config(tmp_path, name="run.conf", **entries):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
    return path


def test_main_synth_writes_loadable_arff(tmp_path, capsys):
    out = tmp_path / "bench.arff"
    assert main(["synth", "default", "--seed", "0", "--out", str(out)]) == 0
    assert f"wrote {out} (420 examples)" in capsys.readouterr().out
    ds = load_arff(out, group="group")
    want = generate_synthetic()
    assert group_counts(ds) == group_counts(want)
    assert [a.name for a in ds.attributes] == [a.name for a in want.attributes]


def test_main_synth_rejects_unknown_spec(tmp_path, capsys):
    assert main(["synth", "tiny", "--out", str(tmp_path / "x.arff")]) == 2
    assert "only the 'default' spec" in capsys.readouterr().err


def test_main_mine_synthetic_end_to_end(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    cfg = write_config(
        tmp_path,
        synthetic="default",
        redundancy_threshold="0.5",
        output_csv=csv_path,
        output_json=json_path,
    )
    assert main(["mine", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "synthetic: 420 examples, 3 attributes, task classification, groups red, blue" in out
    # the 0.5 filter keeps 5 of red's 7 sets and blue's single set
    assert "group red: 5 sets" in out
    assert "group blue: 1 sets" in out
    assert "sets: 6" in out
    assert f"wrote {csv_path}" in out and f"wrote {json_path}" in out

    assert csv_path.read_text(encoding="utf-8").count("\n") == 7  # header + kept sets
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    assert doc["redundancy_threshold"] == 0.5
    assert len(doc["groups"]["red"]) == 5
    assert doc["metrics"]["sets"] == 6
    assert doc["metrics_before_filter"]["sets"] == 8


def test_main_mine_set_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, synthetic="default")
    other = tmp_path / "other.csv"
    code = main(
        ["mine", str(cfg), "--set", f"output_csv={other}", "--set", "minsupps=0.1", "--set", "max_passes=1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"wrote {other}" in out
    lines = other.read_text(encoding="utf-8").splitlines()
    # single pass at the lowest level: two red sets plus the blue one
    red = [l for l in lines if l.startswith('"red"')]
    assert len(red) == 2 and all(",0.1," in l for l in red)


def test_main_mine_rejects_bad_override(tmp_path, capsys):
    cfg = write_config(tmp_path, synthetic="default")
    assert main(["mine", str(cfg), "--set", "colour=red"]) == 2
    assert "unknown key 'colour'" in capsys.readouterr().err
    assert main(["mine", str(cfg), "--set", "minsupps"]) == 2
    assert "--set expects KEY=VALUE" in capsys.readouterr().err
    # README documents s in [0, 1]
    assert main(["mine", str(cfg), "--set", "penalty_strength=3"]) == 2
    assert "penalty_strength must be in [0, 1]" in capsys.readouterr().err
    # a NaN ceiling would accept every grown premise and block every removal
    assert main(["mine", str(cfg), "--set", "max_neg2pos=nan"]) == 2
    assert "max_neg2pos must be non-negative" in capsys.readouterr().err


def test_main_mine_multi_input_suffixes_outputs(tmp_path, capsys):
    a = tmp_path / "a.arff"
    b = tmp_path / "b.arff"
    write_arff(generate_synthetic(seed=0), a)
    write_arff(generate_synthetic(seed=1), b)
    cfg = write_config(
        tmp_path,
        input=f"{a}, {b}",
        group_column="group",
        output_csv=tmp_path / "out.csv",
    )
    assert main(["mine", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "out_a.csv").exists()
    assert (tmp_path / "out_b.csv").exists()
    assert not (tmp_path / "out.csv").exists()
    assert out.count("420 examples") == 2


def test_main_mine_reruns_are_byte_identical(tmp_path):
    outs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        cfg = write_config(
            d,
            synthetic="default",
            redundancy_threshold="0.5",
            output_csv=d / "r.csv",
            output_json=d / "r.json",
        )
        assert main(["mine", str(cfg)]) == 0
        outs.append((d / "r.csv").read_bytes() + (d / "r.json").read_bytes())
    assert outs[0] == outs[1]


def test_main_summarize_matches_mine_output(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    cfg = write_config(
        tmp_path,
        synthetic="default",
        redundancy_threshold="0.5",
        output_csv=csv_path,
        output_json=json_path,
    )
    assert main(["mine", str(cfg)]) == 0
    mine_out = capsys.readouterr().out
    metrics_lines = [l for l in mine_out.splitlines() if not l.startswith(("wrote", "synthetic:"))]

    assert main(["summarize", str(csv_path), "synthetic"]) == 0
    assert capsys.readouterr().out.splitlines() == metrics_lines

    # the JSON report stores the filtered sets too, so it summarizes the same
    assert main(["summarize", str(json_path), "synthetic"]) == 0
    assert capsys.readouterr().out.splitlines() == metrics_lines


def test_main_summarize_reads_arff_dataset(tmp_path, capsys):
    arff = tmp_path / "bench.arff"
    write_arff(generate_synthetic(), arff)
    csv_path = tmp_path / "report.csv"
    cfg = write_config(
        tmp_path, input=arff, group_column="group", output_csv=csv_path
    )
    assert main(["mine", str(cfg)]) == 0
    capsys.readouterr()
    code = main(["summarize", str(csv_path), str(arff), "--group-column", "group"])
    assert code == 0
    assert "sets: 8" in capsys.readouterr().out


def test_main_summarize_loads_like_mine(tmp_path, capsys):
    arff = tmp_path / "bench.arff"
    write_arff(generate_synthetic(), arff)
    csv_path = tmp_path / "report.csv"
    cfg = write_config(tmp_path, input=arff, group_column="group", output_csv=csv_path)
    assert main(["mine", str(cfg)]) == 0
    capsys.readouterr()
    # without a group column both commands refuse the classification ARFF alike
    assert main(["mine", str(write_config(tmp_path, input=arff))]) == 2
    mine_err = capsys.readouterr().err
    assert main(["summarize", str(csv_path), str(arff)]) == 2
    assert capsys.readouterr().err == mine_err
    assert "classification task needs a group_column" in mine_err


@pytest.mark.parametrize(
    "argv, code, needle",
    [
        (["mine", "{tmp}/missing.conf"], 1, "No such file"),
        (["summarize", "{tmp}/missing.csv", "synthetic"], 1, "No such file"),
    ],
)
def test_main_missing_files(tmp_path, capsys, argv, code, needle):
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err


def test_main_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("whatever = 1\n", encoding="utf-8")
    assert main(["mine", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "run.conf: line 1: unknown key 'whatever'" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_main_bad_workers_env_exit_code(tmp_path, capsys, monkeypatch, value):
    def no_mining(*args, **kwargs):
        raise AssertionError("mining started")

    monkeypatch.setattr(cli, "mine_all", no_mining)
    monkeypatch.setenv("CSMINE_WORKERS", value)
    cfg = tmp_path / "run.conf"
    cfg.write_text("synthetic = default\n", encoding="utf-8")
    assert main(["mine", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: CSMINE_WORKERS must be an integer of at least 1, got '{value}'" in err


def test_main_mine_non_finite_label_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = [f"{x!r},{y!r}" for x, y in rng.normal(size=(40, 2)).tolist()]
    rows[17] = "0.5,inf"
    arff = tmp_path / "reg.arff"
    arff.write_text("@relation r\n@attribute a numeric\n@attribute y numeric\n@data\n"
                    + "\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, input=arff, label_column="y", output_csv=tmp_path / "out.csv")
    assert main(["mine", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "reg.arff: line 22: regression labels must be finite" in err


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_main_mine_non_utf8_input_exit_code(tmp_path, capsys, newline):
    # a 0xff byte on data line 6, after more text than one read buffer
    # holds; the line counts CRLF and CR endings as the text reader does
    text = write_arff(generate_synthetic())
    head, rows = text.split("@data\n")
    rows = rows.splitlines()
    rows[:5] = [row + " " * 3000 for row in rows[:5]]
    data = (head + "@data\n" + "\n".join(rows) + "\n").replace("\n", newline).encode("utf-8")
    line = head.count("\n") + 2 + 5
    at = data.index(rows[5].encode("utf-8")) + 3
    arff = tmp_path / "latin.arff"
    arff.write_bytes(data[:at] + b"\xff" + data[at:])
    cfg = write_config(tmp_path, input=arff, group_column="group", output_csv=tmp_path / "out.csv")
    assert main(["mine", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {arff}: line {line}: not UTF-8: byte 0xff (invalid start byte)" in err
    assert not (tmp_path / "out.csv").exists()


def test_importing_the_cli_loads_no_process_pool():
    # mine_all imports the pool only when it starts one, so a one-worker run
    # never pays for multiprocessing; a fresh interpreter shows what the import loads
    env = dict(os.environ, PYTHONPATH=str(Path(csmine.__file__).parents[1]))
    code = "import sys, csmine.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_mine_near_the_float_maximum_finishes(tmp_path):
    # (1e308 + 1.7e308) / 2 overflows to inf; a cut at inf counted the four
    # lower rows but its condition covered all eight, so growing repeated it
    # forever. The run goes to its own process so that a hang fails the test.
    xs = ("1e308", "1e308", "1.7e308", "1.7e308", "1.7e308", "1e308", "1.7e308", "1e308")
    arff = tmp_path / "max.arff"
    arff.write_text("@relation m\n@attribute x numeric\n@attribute g {A,B}\n@data\n"
                    + "".join(f"{x},{g}\n" for x, g in zip(xs, "AABBBABA")), encoding="utf-8")
    report = tmp_path / "out.csv"
    cfg = write_config(tmp_path, input=arff, group_column="g", minsupps="0.5", output_csv=report)
    env = dict(os.environ, PYTHONPATH=str(Path(csmine.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "csmine.cli", "mine", str(cfg)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = list(csv.reader(report.read_text(encoding="utf-8").splitlines()))[1:]
    assert [r[:2] for r in rows] == [["A", "x in (-inf, 1.35e+308)"], ["B", "x in [1.35e+308, inf)"]]


def test_main_bad_report_exit_code(tmp_path, capsys):
    bad = tmp_path / "report.csv"
    bad.write_text('"a","b"\n', encoding="utf-8")
    assert main(["summarize", str(bad), "synthetic"]) == 1
    assert "unrecognized report header" in capsys.readouterr().err


_CSV_HEADER = '"group","conditions","pass","minsupp_all","p","n","p_new","quality","redundancy"\n'
_SET = {"conditions": "a3 != 3", "pass": 1, "minsupp_all": 0.8, "p": 150, "n": 60, "p_new": 150,
        "P": 170, "N": 250, "quality": 0.5, "redundancy": 0.0}


@pytest.mark.parametrize(
    "name, text, needle",
    [
        ("report.json", "[]", '"groups"'),
        ("report.json", json.dumps({"groups": {"red": "x"}}), '"groups"'),
        ("report.json", json.dumps({"groups": {"red": [{k: v for k, v in _SET.items() if k != "p"}]}}),
         "group 'red': a set lacks the field 'p'"),
        ("report.json", json.dumps({"groups": {"red": [dict(_SET, conditions=5)]}}),
         "group 'red': conditions must be a string, got 5"),
        ("report.json", json.dumps({"groups": {"red": [dict(_SET, p=None)]}}), "group 'red': "),
        ("report.csv", _CSV_HEADER + '"red","a3 != 3",1\n', "line 2: expected 9 fields, got 3"),
        ("report.csv", _CSV_HEADER + '"red",5,1,0.8,150,60,150,0.5,0.0\n',
         "line 2, group 'red': conditions must be a string, got 5.0"),
        ("report.csv", _CSV_HEADER + '"red","' + "x" * 200_000 + '"\n', "line 2: field larger"),
        ("report.csv", _CSV_HEADER + '"red","a3 != 3",1,0.8,150,60,150,0.5,0.0\n'
         + '"red","a3 != 3",1,0.8,b,60,150,0.5,0.0\n', "line 3: could not convert string to float"),
        ("report.json", json.dumps({"groups": {"red": [_SET], "nope": [_SET] * 3}}),
         "group 'nope': the dataset has no such group"),
        ("report.csv", _CSV_HEADER + '"nope","a3 != 3",1,0.8,150,60,150,0.5,0.0\n',
         "line 2, group 'nope': the dataset has no such group"),
        ("report.csv", _CSV_HEADER + '"red","zz = 3",1,0.8,150,60,150,0.5,0.0\n',
         "line 2, group 'red': no attribute named 'zz'"),
        ("report.csv", _CSV_HEADER + '"red","a3 = 9",1,0.8,150,60,150,0.5,0.0\n',
         "line 2, group 'red': attribute 'a3' has no value '9'"),
    ],
    ids=["json-list", "json-group-not-list", "json-no-p", "json-numeric-conditions",
         "json-null-count", "csv-short-row", "csv-numeric-conditions", "csv-huge-field",
         "csv-bare-text", "json-unknown-group", "csv-unknown-group", "csv-unknown-attribute",
         "csv-unknown-value"],
)
def test_main_summarize_malformed_report_exits_1(tmp_path, capsys, name, text, needle):
    report = tmp_path / name
    report.write_text(text, encoding="utf-8")
    assert main(["summarize", str(report), "synthetic"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error: ")
    assert needle in err
    assert "Traceback" not in err


def test_extreme_finite_labels_mine_and_exit_0(tmp_path, capsys):
    # labels of +-1e308 overflow a covered mean, so candidates score NaN;
    # a NaN score never wins a grow step, so mining finishes
    base = random_regression(1)
    labels = np.where(np.arange(base.n_examples) % 2 == 0, 1e308, -1e308)
    ds = DataSet(base.attributes, [base.column(i) for i in range(len(base.attributes))],
                 relation=base.relation, task="regression", group_names=base.group_names,
                 group_codes=base.group_codes, labels=labels)
    with np.errstate(all="ignore"):
        assert set(mine_all(ds)) == set(ds.groups)
        arff = tmp_path / "extreme.arff"
        write_arff(ds, arff)
        cfg = write_config(tmp_path, input=arff, group_column="group", label_column="label",
                           output_json=tmp_path / "out.json")
        assert main(["mine", str(cfg)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_readme_config_table_lists_exactly_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Config keys:", 1)[1].split("\n\n", 2)[1]
    keys = [k for row in table.splitlines()[2:] for k in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(CONFIG_KEYS)


def test_config_keys_cover_documented_surface():
    # the README documents every key; keep the tuple deduplicated and stable
    assert len(set(CONFIG_KEYS)) == len(CONFIG_KEYS)
    for key in ("input", "synthetic", "minsupps", "measure", "output_csv", "output_json"):
        assert key in CONFIG_KEYS
