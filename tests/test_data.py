"""Dataset container, coverage masks, ARFF I/O, group derivation."""

import contextlib
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from csmine import data
from csmine.contrast import GE, NE, Condition, ContrastSet, condition_mask, render_conditions
from csmine.data import (
    TASKS,
    ArffError,
    Attribute,
    DataSet,
    _field_text,
    _raw_fields,
    derive_groups_regression,
    derive_groups_survival,
    load_arff,
    parse_arff,
    write_arff,
)
from csmine.diversity import redundancy, similarity
from csmine.induction import MiningParams, grow, prune
from csmine.quality import regression_consistency, survival_consistency

from conftest import (
    MISSING,
    example,
    examples,
    group_of,
    parse_arff_reference,
    random_classification,
    random_regression,
    random_survival,
    split_csv_reference,
    write_arff_reference,
)


def small_ds():
    attrs = (
        Attribute("a", "numeric"),
        Attribute("b", "nominal", ("x", "y", "z")),
    )
    cols = [
        np.array([1.0, 2.0, np.nan, 4.0]),
        np.array([0, 1, 2, -1], dtype=np.int32),
    ]
    return DataSet(
        attrs, cols,
        relation="small",
        task="classification",
        group_names=("g1", "g2"),
        group_codes=np.array([0, 0, 1, 1], dtype=np.int32),
    )


# ---------------------------------------------------------------------------
# Attribute / DataSet validation

def test_attribute_validation():
    with pytest.raises(ValueError, match="unknown attribute kind"):
        Attribute("a", "ordinal")
    with pytest.raises(ValueError, match="non-empty domain"):
        Attribute("a", "nominal", ())
    with pytest.raises(ValueError, match="duplicate domain"):
        Attribute("a", "nominal", ("x", "x"))
    with pytest.raises(ValueError, match="cannot declare a domain"):
        Attribute("a", "numeric", ("x",))


def test_dataset_validation():
    attrs = (Attribute("a", "numeric"),)
    with pytest.raises(ValueError, match="unknown task"):
        DataSet(attrs, [np.array([1.0])], task="ranking")
    with pytest.raises(ValueError, match="duplicate attribute names"):
        DataSet((Attribute("a", "numeric"), Attribute("a", "numeric")),
                [np.array([1.0]), np.array([1.0])])
    with pytest.raises(ValueError, match="one column per attribute"):
        DataSet(attrs, [np.array([1.0]), np.array([1.0])])
    with pytest.raises(ValueError, match="lengths disagree"):
        DataSet(attrs, [np.array([1.0])], group_names=("g",),
                group_codes=np.array([0, 0], dtype=np.int32))
    with pytest.raises(ValueError, match="category index"):
        DataSet((Attribute("b", "nominal", ("x",)),), [np.array([3], dtype=np.int32)])
    with pytest.raises(ValueError, match="group code out of range"):
        DataSet(attrs, [np.array([1.0])], group_names=("g",),
                group_codes=np.array([1], dtype=np.int32))
    with pytest.raises(ValueError, match="requires a bound label"):
        DataSet(attrs, [np.array([1.0])], task="regression")
    with pytest.raises(ValueError, match="time and status"):
        DataSet(attrs, [np.array([1.0])], task="survival")
    with pytest.raises(ValueError, match="must be non-negative"):
        DataSet(attrs, [np.array([1.0])], task="survival",
                times=np.array([-1.0]), status=np.array([1]))
    with pytest.raises(ValueError, match="0 or 1"):
        DataSet(attrs, [np.array([1.0])], task="survival",
                times=np.array([1.0]), status=np.array([2]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^regression labels must be finite"):
            DataSet(attrs, [np.array([1.0])], task="regression", labels=np.array([bad]))
        with pytest.raises(ValueError, match="^survival times must be finite"):
            DataSet(attrs, [np.array([1.0])], task="survival",
                    times=np.array([bad]), status=np.array([1]))
    # the status rule sees the values before the int8 cast, in any task
    for bad, task in ((0.5, "survival"), (np.nan, "survival"), (0.5, "classification")):
        with pytest.raises(ValueError, match="^survival status must be 0 or 1$"):
            DataSet(attrs, [np.array([1.0])], task=task, times=np.array([1.0]),
                    status=np.array([bad]))


def test_bound_status_column_keeps_the_dataset_rule():
    attrs = (Attribute("a", "numeric"), Attribute("t", "numeric"), Attribute("s", "numeric"))
    ds = DataSet(attrs, [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([1.0, 0.5])])
    with pytest.raises(ValueError, match="^survival status must be 0 or 1$"):
        derive_groups_survival(ds, time="t", status="s")


def test_columns_are_frozen():
    ds = small_ds()
    with pytest.raises(ValueError):
        ds.column(0)[0] = 99.0
    with pytest.raises(ValueError):
        ds.group_codes[0] = 1


def test_group_lookup():
    ds = small_ds()
    assert ds.groups == ("g1", "g2")
    assert group_of(ds, 0) == "g1"
    assert set(np.flatnonzero(ds.group_mask("g2"))) == {2, 3}
    with pytest.raises(KeyError, match="no group named"):
        ds.group_mask("nope")
    with pytest.raises(KeyError, match="no attribute named"):
        ds.attr_index("c")
    assert ds.attr_index("b") == 1


@pytest.mark.parametrize("index", [-1, 2], ids=["minus-one", "len"])
def test_attribute_position_outside_the_dataset_raises_key_error(index):
    # a position must name an attribute: -1 must not index from the end (a
    # condition on it would cover by, and print as, b), and len must fail as
    # an unknown name does, not with IndexError
    ds = small_ds()
    cond = Condition(index, GE, 15.0)
    calls = (lambda: ds.attr_index(index), lambda: ds.column(index), lambda: condition_mask(cond, ds),
             lambda: render_conditions(ContrastSet((cond,), "g1"), ds))
    for call in calls:
        with pytest.raises(KeyError, match=f"no attribute at position {index}"):
            call()


def test_attribute_position_takes_numpy_integers_and_refuses_bools():
    # a position read out of a numpy array is a position, not a name; a bool
    # is neither, so True must not name the attribute at position 1
    ds = small_ds()
    cond = Condition(0, GE, 1.5)
    want = (condition_mask(cond, ds).tolist(), render_conditions(ContrastSet((cond,), "g1"), ds))
    for index in (np.int64(0), np.int32(0), np.uint8(0)):
        assert ds.attr_index(index) == 0 and type(ds.attr_index(index)) is int
        assert ds.column(index) is ds.column(0)
        cond = Condition(index, GE, 1.5)
        assert (condition_mask(cond, ds).tolist(), render_conditions(ContrastSet((cond,), "g1"), ds)) == want
    with pytest.raises(KeyError, match="no attribute at position -1"):
        ds.attr_index(np.int64(-1))
    for index in (True, False, np.int64(2)):
        cond = Condition(index, GE, 1.5)
        calls = (lambda: ds.attr_index(index), lambda: ds.column(index), lambda: condition_mask(cond, ds),
                 lambda: render_conditions(ContrastSet((cond,), "g1"), ds))
        for call in calls:
            with pytest.raises(KeyError, match="no attribute"):
                call()


def test_example_view():
    ds = small_ds()
    ex = example(ds, 2)
    assert ex.values[0] is MISSING
    assert ex.values[1] == 2
    assert ex.group == "g2"
    ex3 = example(ds, 3)
    assert ex3.values == (4.0, MISSING)
    assert len(list(examples(ds))) == 4


_BAD_MASKS = {
    "wrong-length": lambda n: np.ones(n + 1, dtype=bool),
    "2-D": lambda n: np.ones((1, n), dtype=bool),
    "not-bool": lambda n: np.ones(n, dtype=np.int8),
}


@pytest.mark.parametrize("bad", list(_BAD_MASKS))
@pytest.mark.parametrize("function, argument", [
    ("grow", "uncovered"), ("grow", "reward_uncovered"),
    ("prune", "uncovered"), ("prune", "reward_uncovered"),
    ("regression_consistency", "coverage"), ("regression_consistency", "positives"),
    ("survival_consistency", "coverage"), ("survival_consistency", "positives"),
    ("similarity", "positives"), ("redundancy", "positives"),
])
def test_coverage_arguments_must_be_masks(function, argument, bad):
    ds = {"regression_consistency": random_regression,
          "survival_consistency": random_survival}.get(function, random_classification)(0)
    group = ds.groups[0]
    n = ds.n_examples
    masks = dict.fromkeys(("uncovered", "reward_uncovered", "coverage", "positives"), ds.group_mask(group))
    masks[argument] = _BAD_MASKS[bad](n)
    # one condition only: prune checks its arguments even with nothing to remove
    cs = ContrastSet((Condition(0, NE, 0) if ds.attributes[0].kind == "nominal" else Condition(0, GE, 0.0),), group)
    call = {
        "grow": lambda m: grow(ds, group, m["uncovered"], MiningParams(),
                               reward_uncovered=m["reward_uncovered"]),
        "prune": lambda m: prune(cs, ds, MiningParams(), uncovered=m["uncovered"],
                                 reward_uncovered=m["reward_uncovered"]),
        "regression_consistency": lambda m: regression_consistency(m["coverage"], ds, m["positives"]),
        "survival_consistency": lambda m: survival_consistency(m["coverage"], ds, m["positives"]),
        "similarity": lambda m: similarity(cs, cs, m["positives"], ds),
        "redundancy": lambda m: redundancy(cs, [cs], m["positives"], ds),
    }[function]
    with pytest.raises(ValueError, match=rf"^{argument} must be a 1-D bool mask of length {n}, got"):
        call(masks)


def test_coverage_mask_is_read_only():
    ds = small_ds()
    mask = ds.group_mask("g1")
    assert mask.dtype == bool and mask.shape == (4,)
    with pytest.raises(ValueError):
        mask[0] = False


# ---------------------------------------------------------------------------
# ARFF parsing

GOOD = """\
% generated for the parser test
@relation 'toy data'

@attribute a numeric
@attribute 'b name' {x, 'y,1', z}
@attribute cls {red, blue, green}

@data
1.5, x, red
% a comment between rows
?, 'y,1', blue
2.25, ?, red
"""


def test_parse_basics():
    ds = parse_arff(GOOD, group="cls")
    assert ds.relation == "toy data"
    assert [a.name for a in ds.attributes] == ["a", "b name"]
    assert ds.n_examples == 3
    assert ds.task == "classification"
    # green never occurs, so observed groups drop it
    assert ds.groups == ("red", "blue")
    np.testing.assert_array_equal(ds.group_codes, [0, 1, 0])
    col_a = ds.column(0)
    assert col_a[0] == 1.5 and np.isnan(col_a[1]) and col_a[2] == 2.25
    np.testing.assert_array_equal(ds.column(1), [0, 1, -1])
    assert ds.group_attr == "cls"


def test_parse_accepts_stream_and_case():
    import io
    text = GOOD.replace("@relation", "@RELATION").replace("@attribute", "@Attribute")
    ds = parse_arff(io.StringIO(text), group="cls")
    assert ds.n_examples == 3


@contextlib.contextmanager
def _one_row_chunks():
    """Inside this context every chunk of ``@data`` is one row."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_CHUNK_CHARS", 1)
        yield


_LINE_ERRORS = [
    ("@relation r\n@banana x\n@data\n", 2, "unrecognized header"),
    ("@relation r\n@data\n", 2, "@data before any @attribute"),
    ("@relation r\n@attribute a numeric\n", 1, "missing @data"),
    ("@relation r\n@attribute a numeric\n@data\n1\n2,3\n", 5, "expected 1 values, found 2"),
    ("@relation r\n@attribute a numeric\n@data\n{0 1}\n", 4, "sparse"),
    ("@relation r\n@attribute a {x,y\n@data\nx\n", 2, "unterminated nominal domain"),
    ("@relation r\n@attribute a\n@data\n1\n", 2, "needs a name and a type"),
    ("@relation r\n@attribute a date\n@data\n1\n", 2, "unsupported attribute type"),
    ("@relation r\n@attribute a {x,,y}\n@data\nx\n", 2, "empty value"),
    ("@relation r\n@attribute a {x,x}\n@data\nx\n", 2, "duplicate domain"),
    ("@relation r\n@attribute 'a b numeric\n@data\n1\n", 2, "unterminated attribute name"),
    ("@relation r\n@attribute a numeric\n@data\n'1\n", 4, "unterminated quote"),
    ("@relation r\n@attribute a numeric\n@data\noops\n", 4, "non-numeric value 'oops'"),
    ("@relation r\n@attribute a {x,y}\n@data\nz\n", 4, "not in declared domain"),
    pytest.param("@relation r\n@attribute a numeric\n@data\n?\n'?'\n", 5,
                 "non-numeric value '\\?' in column 'a'", id="quoted-question-mark-is-text"),
    ("@relation r\n@attribute a numeric\n@attribute a numeric\n@data\n1,1\n", 1,
     "duplicate attribute name"),
    pytest.param("@relation r\n@attribute a numeric\n@data\n1\n% note\n\n2\noops\n", 8,
                 "non-numeric value 'oops'", id="bad-row-after-comment-and-blank"),
    # a (text, bindings) pair binds a nominal-declared column as the label
    pytest.param(("@relation r\n@attribute a numeric\n@attribute y {1,2,x}\n@data\n"
                  "1,2\n2,x\n", {"label": "y"}), 6,
                 "non-numeric value 'x' in column 'y'", id="nominal-label-not-a-number"),
]


@pytest.mark.parametrize("text,line,fragment", _LINE_ERRORS)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    text, bindings = text if isinstance(text, tuple) else (text, {})
    with pytest.raises(ArffError, match=fragment) as exc:
        parse_arff(text, **bindings)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}:")


@pytest.mark.parametrize("text,line,fragment", _LINE_ERRORS)
def test_parse_errors_carry_line_numbers_in_one_row_chunks(text, line, fragment):
    with _one_row_chunks():
        test_parse_errors_carry_line_numbers(text, line, fragment)


def test_quoted_question_mark_is_a_value():
    text = (
        "@relation r\n"
        "@attribute a {'?', a}\n"
        "@attribute g {'?', b}\n"
        "@data\n"
        "'?', '?'\n"
        "?, b\n"
        "a, \"?\"\n"
        " ? , b\n"
    )
    ds = parse_arff(text, group="g")
    assert ds.attributes[0].domain == ("?", "a")
    # only a bare ?, whitespace around it or not, is a missing cell
    np.testing.assert_array_equal(ds.column("a"), [0, -1, 1, -1])
    assert ds.groups == ("?", "b")
    np.testing.assert_array_equal(ds.group_codes, [0, 1, 0, 1])
    with pytest.raises(ArffError, match="missing group value") as exc:
        parse_arff(text.replace('a, "?"', "a, ?"), group="g")
    assert exc.value.line == 7


def test_binding_errors():
    text = "@relation r\n@attribute a numeric\n@attribute g {u,v}\n@data\n1,u\n"
    with pytest.raises(ArffError, match="group column 'nope' not declared"):
        parse_arff(text, group="nope")
    with pytest.raises(ArffError, match="must be distinct"):
        parse_arff(text, group="g", label="g")
    with pytest.raises(ArffError, match="must be nominal"):
        parse_arff(text, group="a")
    with pytest.raises(ArffError, match="survival task needs both"):
        parse_arff(text, task="survival")
    with pytest.raises(ArffError, match="regression task needs"):
        parse_arff(text, task="regression")
    missing = "@relation r\n@attribute a numeric\n@attribute g {u,v}\n@data\n1,?\n"
    with pytest.raises(ArffError, match="missing group value") as exc:
        parse_arff(missing, group="g")
    assert exc.value.line == 5


def test_survival_bindings():
    text = (
        "@relation r\n"
        "@attribute a numeric\n"
        "@attribute t numeric\n"
        "@attribute s numeric\n"
        "@data\n"
        "1, 5, 1\n"
        "2, 7, 0\n"
    )
    ds = parse_arff(text, time="t", status="s")
    assert ds.task == "survival"
    assert len(ds.attributes) == 1
    np.testing.assert_array_equal(ds.times, [5.0, 7.0])
    np.testing.assert_array_equal(ds.status, [1, 0])

    bad_status = text.replace("2, 7, 0", "2, 7, 2")
    with pytest.raises(ArffError, match="status must be 0 or 1") as exc:
        parse_arff(bad_status, time="t", status="s")
    assert exc.value.line == 7
    missing_time = text.replace("2, 7, 0", "2, ?, 0")
    with pytest.raises(ArffError, match="missing survival time") as exc:
        parse_arff(missing_time, time="t", status="s")
    assert exc.value.line == 7


@pytest.mark.parametrize(
    "bad_rows, line, message",
    [
        ({1: "2, inf, 0"}, 7, "survival times must be finite"),
        ({2: "4, -2, 1"}, 8, "survival times must be non-negative"),
        ({2: "4, 9, 0.5"}, 8, "survival status must be 0 or 1"),
        ({1: "2, -1, 0", 2: "4, inf, 1"}, 7, "survival times must be non-negative"),
        # a column is decoded whole before its values meet the rules
        ({0: "1, -5, 1", 2: "4, x, 1"}, 8, "non-numeric value 'x'"),
    ],
    ids=["infinite-time", "negative-time", "status", "first-bad-row", "decode-before-rule"],
)
def test_survival_value_errors_name_their_row(bad_rows, line, message):
    rows = ["1, 5, 1", "2, 7, 0", "4, 9, 1"]  # lines 6-8
    for i, row in bad_rows.items():
        rows[i] = row
    text = "@relation r\n@attribute a numeric\n@attribute t numeric\n@attribute s numeric\n@data\n"
    with pytest.raises(ArffError, match=message) as exc:
        parse_arff(text + "\n".join(rows) + "\n", time="t", status="s")
    assert exc.value.line == line


def test_regression_binding_infers_task():
    text = "@relation r\n@attribute a numeric\n@attribute y numeric\n@data\n1,3\n2,9\n"
    ds = parse_arff(text, label="y")
    assert ds.task == "regression"
    np.testing.assert_array_equal(ds.labels, [3.0, 9.0])
    with pytest.raises(ArffError, match="missing label") as exc:
        parse_arff(text.replace("2,9", "2,?"), label="y")
    assert exc.value.line == 6


@settings(max_examples=1000, deadline=None)
@given(st.text() | st.text(alphabet=" ,'\"ab?\t\r{}%"))
def test_raw_fields_match_reference_splitter(text):
    try:
        want = split_csv_reference(text, 1)
    except ArffError as exc:
        assert str(exc) == "line 1: unterminated quote"
        with pytest.raises(ArffError, match="^line 1: unterminated quote$"):
            _raw_fields(text, 1)
        return
    assert [_field_text(f) for f in _raw_fields(text, 1)] == want


# ---------------------------------------------------------------------------
# the chunked @data reader against the per-line reference

def _parse_outcome(parse, text, bindings):
    """What ``parse`` makes of ``text``: a DataSet, or an ArffError's message and line."""
    try:
        return parse(text, **bindings)
    except ArffError as exc:
        return str(exc), exc.line


def _assert_same_outcome(text, **bindings):
    """parse_arff and the per-line reference return equal DataSets, every
    array the same dtype and bytes, or raise the same ArffError."""
    got = _parse_outcome(parse_arff, text, bindings)
    want = _parse_outcome(parse_arff_reference, text, bindings)
    assert isinstance(got, DataSet) == isinstance(want, DataSet), (got, want)
    if not isinstance(want, DataSet):
        assert got == want
        return
    for name in ("relation", "task", "attributes", "group_names", "group_attr", "label_attr",
                 "time_attr", "status_attr", "n_examples"):
        assert getattr(got, name) == getattr(want, name), name
    arrays = [(got.column(i), want.column(i)) for i in range(len(want.attributes))]
    arrays += [(getattr(got, name), getattr(want, name))
               for name in ("group_codes", "labels", "times", "status")]
    for a, b in arrays:
        assert (a is None) == (b is None)
        if b is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Domain values: a comma and the other quote inside either quote kind, and
# values that read bare as a comment, a sparse row or a number.
_DOMAIN = ("a", "b c", "x,'y", 'p,"q', "?", "%c", "{s}", "1.5", "it's")
_PADS = ("", " ", "\t", "\r", "\x0c", "\x85", " \x85 ")
_NUMBERS = ("1", "-2.5", "1e3", "0", "inf", "nan", " 7 ")
# lines that hold no row: blank, whitespace only, comments
_NO_ROW = ("", "   ", "\t\r", "\x85", "% a comment, with 'a quote", "  %x,y")


def _quoted(pick, value):
    if "'" in value:
        return f'"{value}"'
    if '"' in value:
        return f"'{value}'"
    quote = pick("'\"")
    return f"{quote}{value}{quote}"


def _cell(pick, domain):
    """A padded cell of a numeric (``domain`` None) or nominal column."""
    if pick(range(10)) == 0:
        text = "?"  # a missing cell
    else:
        text = pick(domain or _NUMBERS)
        # quotes are needed around a comma, a quote or the text ?; optional elsewhere
        if any(c in text for c in ",'\"") or text == "?" or pick((True, False)):
            text = _quoted(pick, text)
    return pick(_PADS) + text + pick(_PADS)


@st.composite
def arff_texts(draw):
    """An ARFF text of 1-40 numeric and nominal attributes and 0-8 rows, with
    padded and quoted cells, lines without rows anywhere in @data, LF or
    CRLF endings and a last line with or without a newline, and bindings.
    About a third are malformed: an unterminated quote, a field too many (an
    empty one after a last comma, too) or too few (or both, in two rows), a
    sparse row, or a value outside the domain. The cells come
    from a drawn seed, which keeps 500 examples of 40 columns fast."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pick(options):
        return options[int(rng.integers(len(options)))]

    k = draw(st.integers(1, 40))
    domains = [None if draw(st.booleans()) else
               tuple(draw(st.lists(st.sampled_from(_DOMAIN), min_size=1, max_size=5, unique=True)))
               for _ in range(k)]
    header = ["@relation r"]
    for i, domain in enumerate(domains):
        kind = "numeric" if domain is None else "{" + ",".join(_quoted(pick, v) for v in domain) + "}"
        header.append(f"@attribute a{i} {kind}")
    rows = [[_cell(pick, domain) for domain in domains] for _ in range(pick(range(9)))]
    if pick(range(3)) == 0:
        if not rows:
            rows.append([_cell(pick, domain) for domain in domains])
        row, at = pick(rows), pick(range(k))
        fault = pick(("quote", "more", "comma", "fewer", "shift", "sparse", "domain"))
        if fault == "quote":
            row[at] += pick("'\"")
        elif fault == "more":
            row.insert(pick(range(k + 1)), "1")
        elif fault == "comma":  # an empty last field: the text may end in a comma
            rows[-1].append("")
        elif fault == "fewer":
            del row[at]
        elif fault == "shift":  # one row's last field opens the next, so n * k fields in all
            rows.append([_cell(pick, domain) for domain in domains])
            i = pick(range(len(rows) - 1))
            rows[i + 1].insert(0, rows[i].pop())
        elif fault == "sparse":
            row[0] = pick(_PADS) + "{" + row[0]
        else:
            row[at] = "zzz"
    lines = [",".join(row) for row in rows]
    for _ in range(pick(range(5))):
        lines.insert(pick(range(len(lines) + 1)), pick(_NO_ROW))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(header + ["@data"] + lines) + draw(st.sampled_from([end, ""]))
    names = [f"a{i}" for i, domain in enumerate(domains) if domain is not None]
    numbers = [f"a{i}" for i, domain in enumerate(domains) if domain is None]
    bindings = draw(st.sampled_from(
        [{}] + [{"group": name} for name in names[:2]] + [{"label": name} for name in numbers[:2]]
    ))
    return text, bindings


@settings(max_examples=500, deadline=None)
@given(arff_texts())
def test_parse_matches_the_per_line_reference(case):
    text, bindings = case
    _assert_same_outcome(text, **bindings)


@settings(max_examples=500, deadline=None)
@given(arff_texts())
def test_parse_matches_the_per_line_reference_in_one_row_chunks(case):
    text, bindings = case
    with _one_row_chunks():
        _assert_same_outcome(text, **bindings)


_EDIT_VALUES = ("'x,1'", '"y\'2"', "plain", "'?'", "?")
# 30 rows with quoted commas, comment and blank lines between rows
_EDIT_BASE = (
    "@relation edits\n"
    "@attribute n numeric\n"
    "@attribute s {'x,1', \"y'2\", plain, '?'}\n"
    "@attribute g {A, B}\n"
    "@data\n"
    "% rows follow, 'quoted, commented'\n"
    + "".join(
        f"{i / 4}, {_EDIT_VALUES[i % 5]}, {'AB'[i % 2]}\n"
        + ("% every seventh row, then a blank line\n\n" if i % 7 == 6 else "")
        for i in range(30)
    )
)


def test_single_character_edits_parse_as_the_reference():
    # no single-character edit of a valid file makes the scan disagree with
    # the per-line reader, or raise anything but ArffError
    _assert_edits_parse_as_the_reference()


def test_single_character_edits_parse_as_the_reference_in_one_row_chunks():
    with _one_row_chunks():
        _assert_edits_parse_as_the_reference()


def _assert_edits_parse_as_the_reference():
    rng = np.random.default_rng(0)
    for _ in range(1500):
        at = int(rng.integers(0, len(_EDIT_BASE) + 1))
        char = str(rng.choice(list(",'\"\n\r?%{} a1")))
        edit = int(rng.integers(0, 3))  # insert, delete, replace
        text = _EDIT_BASE[:at] + ("" if edit == 1 else char) + _EDIT_BASE[at + (edit > 0):]
        _assert_same_outcome(text, group="g")


# 40,000 rows of four columns, three chunks at the default size
_FAULT_ROWS = [f"{i % 97 / 4}, {'uv'[i % 2]}, {i % 13}, {i % 2}" for i in range(40_000)]
_FAULT_HEADER = ("@relation faults\n@attribute a numeric\n@attribute s {u, v}\n"
                 "@attribute y numeric\n@attribute t numeric\n@data\n")  # rows on lines 7-40,006


@pytest.mark.parametrize("chunks", ["default-chunks", "one-row-chunks"])
@pytest.mark.parametrize("early, late, bindings, line, message", [
    # a malformed row anywhere wins over a bad cell
    ("1, zzz, 1, 1", "1, u, 1, 1, 1", {}, 40_006, "expected 4 values, found 5"),
    # an earlier column's bad cell wins over a later column's at an earlier row
    ("1, u, x, 1", "oops, u, 1, 1", {}, 40_006, "non-numeric value 'oops' in column 'a'"),
    # a bound column's rule error wins over a later bound column's bad cell
    ("1, u, 1, x", "1, u, inf, 1", {"label": "y", "status": "t", "task": "regression"}, 40_006,
     "regression labels must be finite"),
    # and over a binding error, which the header alone shows
    ("1, u, 1, 1", "1, u, 1, 1, 1", {"group": "nope"}, 40_006, "expected 4 values, found 5"),
], ids=["domain-then-malformed", "later-column-first", "label-rule-then-status-cell",
        "binding-then-malformed"])
def test_first_of_two_faults_is_reported_as_the_reference_does(early, late, bindings, line,
                                                                message, chunks):
    rows = [_FAULT_ROWS[0], early, *_FAULT_ROWS[2:-1], late]
    text = _FAULT_HEADER + "\n".join(rows) + "\n"
    assert len(text) > 2 * data._CHUNK_CHARS
    with _one_row_chunks() if chunks == "one-row-chunks" else contextlib.nullcontext():
        with pytest.raises(ArffError, match=message) as exc:
            parse_arff(text, **bindings)
        assert exc.value.line == line
        _assert_same_outcome(text, **bindings)


def _skipped_before_late_row(skipped, late):
    """All of _FAULT_ROWS but the last, with a % line after every row or a run
    of blank lines longer than a chunk after the second, then ``late``."""
    if skipped == "comment-after-every-row":
        rows = [row + "\n% a note, with 'a quote" for row in _FAULT_ROWS[:-1]]
    else:
        rows = [_FAULT_ROWS[0], _FAULT_ROWS[1] + "\n" * (data._CHUNK_CHARS + 1), *_FAULT_ROWS[2:-1]]
    return _FAULT_HEADER + "\n".join(rows + [late]) + "\n"


@pytest.mark.parametrize("chunks", ["default-chunks", "one-row-chunks"])
@pytest.mark.parametrize("late", ["oops, u, 1, 1", "1, u, 1, 1, 1", "1, u, 1, 1"],
                         ids=["bad-cell", "malformed", "valid"])
@pytest.mark.parametrize("skipped", ["comment-after-every-row", "blank-run-past-a-chunk"])
def test_a_late_row_after_many_skipped_lines_parses_as_the_reference(skipped, late, chunks):
    # the last row sits in a late chunk, after 39,999 comment lines or
    # 2**18 + 1 blank lines; a bad cell's line counts them all
    text = _skipped_before_late_row(skipped, late)
    assert len(text) > 2 * data._CHUNK_CHARS
    with _one_row_chunks() if chunks == "one-row-chunks" else contextlib.nullcontext():
        _assert_same_outcome(text)


def test_a_wide_file_parses_as_the_reference():
    # 5,000 attributes: the scan's cost is linear in the fields of a row
    rng = np.random.default_rng(1)
    attrs = [Attribute(f"f{i}", "nominal", ("u", "v w", "x,y")) for i in range(5000)]
    ds = DataSet(attrs, list(rng.integers(-1, 3, (5000, 200), dtype=np.int32)), relation="wide",
                 group_names=("A", "B"), group_codes=rng.integers(0, 2, 200, dtype=np.int32))
    _assert_same_outcome(write_arff(ds), group="group")


def test_valid_data_is_read_without_walking_its_lines(monkeypatch):
    # _raw_fields splits one line; on valid input only the nominal domains use it
    calls = []
    monkeypatch.setattr(data, "_raw_fields", lambda *args: calls.append(args) or _raw_fields(*args))
    text = write_arff(random_classification(3, n_min=500, n_max=500))
    parse_arff(text + "% a comment\n\n" + text[text.index("@data\n") + 6 :], group="group")
    assert len(calls) == text.count("{")


def _nominal_arff(seed, n, k):
    """n x k nominal attributes whose labels ARFF must quote, plus a group."""
    rng = np.random.default_rng(seed)
    forms = ("grade {}", "n,{}", "o'{}", "level{}")
    attrs = [Attribute(f"f{i}", "nominal", tuple(forms[i % 4].format(j) for j in range(3 + i % 4)))
             for i in range(k)]
    cols = [rng.integers(-1, len(a.domain), n, dtype=np.int32) for a in attrs]
    return write_arff(DataSet(attrs, cols, relation="memory", group_names=("neg", "pos"),
                              group_codes=rng.integers(0, 2, n, dtype=np.int32),
                              group_attr="class"))


def _traced_peak(parse, text):
    tracemalloc.start()
    try:
        parse(text, group="class")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_holds_no_more_memory_than_the_per_line_reference():
    # a copy of the @data section, or a text kept alive, shows here
    text = _nominal_arff(0, 20_000, 12)
    assert _traced_peak(parse_arff, text) <= _traced_peak(parse_arff_reference, text)


def test_parse_memory_is_the_columns_plus_one_chunk():
    # the reader's column arrays, the DataSet's copies of them and one chunk
    # of 2**18 characters, whose tokens (about six characters and 49 bytes
    # of str header each) take about 12 bytes a character; the bound allows
    # twice that. Nothing beyond the columns grows with the cell count: a
    # string per cell of this file traces about 37 MB.
    text = _nominal_arff(0, 40_000, 12)
    columns = 13 * 40_000 * np.dtype(np.int32).itemsize  # 12 attributes and the group
    assert _traced_peak(parse_arff, text) < 2 * columns + 24 * 2**18


def _commented(text):
    """``text`` with a ``%`` line after every ``@data`` row."""
    head, rows = text.split("@data\n")
    return head + "@data\n" + "".join(row + "\n% a note, with 'a quote\n" for row in rows.splitlines())


class _CountingPattern:
    """A compiled pattern that counts its ``findall`` calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def findall(self, *args):
        self.calls += 1
        return self.pattern.findall(*args)


def test_a_comment_after_every_row_costs_no_scan_of_its_own(monkeypatch):
    # one token scan per chunk of the section, not one per run of rows
    # between comments (about 40,000 here)
    text = _nominal_arff(0, 40_000, 12)
    commented = _commented(text)
    scans = _CountingPattern(data._TOKENS)
    monkeypatch.setattr(data, "_TOKENS", scans)
    got = parse_arff(commented, group="class")
    section = len(commented) - commented.index("@data\n") - len("@data\n")
    assert scans.calls <= -(-section // 2**18) + 1
    _assert_datasets_equal(got, parse_arff(text, group="class"))


def test_parse_memory_with_a_comment_after_every_row_is_the_columns_plus_one_chunk():
    # the bound of test_parse_memory_is_the_columns_plus_one_chunk: the copy
    # of a chunk's rows between its comments is no larger than the chunk
    text = _commented(_nominal_arff(0, 40_000, 12))
    columns = 13 * 40_000 * np.dtype(np.int32).itemsize
    assert _traced_peak(parse_arff, text) < 2 * columns + 24 * 2**18


# ---------------------------------------------------------------------------
# ARFF round trips

def _assert_datasets_equal(a, b):
    assert a.relation == b.relation
    assert a.task == b.task
    assert a.attributes == b.attributes
    assert a.groups == b.groups
    for i in range(len(a.attributes)):
        ca, cb = a.column(i), b.column(i)
        if a.attributes[i].is_numeric:
            np.testing.assert_array_equal(np.isnan(ca), np.isnan(cb))
            np.testing.assert_array_equal(ca[~np.isnan(ca)], cb[~np.isnan(cb)])
        else:
            np.testing.assert_array_equal(ca, cb)
    for xa, xb in ((a.group_codes, b.group_codes), (a.labels, b.labels),
                   (a.times, b.times), (a.status, b.status)):
        assert (xa is None) == (xb is None)
        if xa is not None:
            np.testing.assert_array_equal(xa, xb)


def test_round_trip_classification():
    ds = small_ds()
    text = write_arff(ds)
    again = parse_arff(text, group="group")
    _assert_datasets_equal(ds, again)


def test_round_trip_quoting_and_fractions():
    attrs = (
        Attribute("odd name", "numeric"),
        Attribute("b", "nominal", ("with, comma", "plain", "it's", " a", "b ", "?")),
    )
    # the value "?" (code 5) and a missing cell (code -1) stay apart
    cols = [np.array([0.1, 1 / 3, 2.0, 0.5, np.nan]), np.array([0, 2, 4, 5, -1], dtype=np.int32)]
    ds = DataSet(attrs, cols, relation="quote check", task="classification",
                 group_names=("only",), group_codes=np.zeros(5, dtype=np.int32))
    again = parse_arff(write_arff(ds), group="group")
    _assert_datasets_equal(ds, again)
    assert float(again.column(0)[1]) == 1 / 3
    # quoted whitespace and a quoted ? are kept; values ARFF cannot hold are refused on write
    assert again.attributes[1].domain[3:] == (" a", "b ", "?")
    for bad in ("", "x\ny", "x\ry", "'\""):
        unwritable = DataSet((Attribute("b", "nominal", ("ok", bad)),), [np.array([1], dtype=np.int32)])
        with pytest.raises(ValueError, match="cannot"):
            write_arff(unwritable)


def test_round_trip_survival_and_regression(tmp_path):
    surv = parse_arff(
        "@relation r\n@attribute a numeric\n@attribute t numeric\n@attribute s numeric\n"
        "@data\n1,5,1\n2,7,0\n?,3,1\n",
        time="t", status="s",
    )
    again = parse_arff(write_arff(surv), time="t", status="s")
    _assert_datasets_equal(surv, again)

    reg = parse_arff(
        "@relation r\n@attribute a numeric\n@attribute y numeric\n@data\n1,3\n2,9\n",
        label="y",
    )
    path = tmp_path / "reg.arff"
    write_arff(reg, out=path)
    again = load_arff(path, label="y")
    _assert_datasets_equal(reg, again)


# Text that ARFF must quote or cannot hold: separators, comment and brace
# characters, both quotes, whitespace at either end, line breaks, the
# missing-value marker, and the empty string.
_ARFF_TEXT = st.one_of(
    st.text(min_size=1, max_size=5),
    st.text(alphabet=" ,%{}'\"\t\n\r?ab", max_size=5),
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t"]), st.text(min_size=1, max_size=3),
              st.sampled_from(["", " ", "\t"])),
)
_CELL_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_ROLES = ("group", "label", "time", "status")


@st.composite
def arff_datasets(draw):
    """Any dataset the constructor accepts: mixed attributes, missing cells
    and a random set of bound group/label/time/status columns."""
    n = draw(st.integers(0, 5))
    rows = dict(min_size=n, max_size=n)
    attrs, cols = [], []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(_ARFF_TEXT)
        if draw(st.booleans()):
            attrs.append(Attribute(name, "numeric"))
            cols.append(draw(st.lists(_CELL_FLOATS, **rows)))
        else:
            domain = tuple(draw(st.lists(_ARFF_TEXT, min_size=1, max_size=3, unique=True)))
            attrs.append(Attribute(name, "nominal", domain))
            cols.append(draw(st.lists(st.integers(-1, len(domain) - 1), **rows)))
    kwargs = {"relation": draw(_ARFF_TEXT), "task": draw(st.sampled_from(TASKS))}
    for role in draw(st.sets(st.sampled_from(_ROLES))):
        kwargs[f"{role}_attr"] = draw(st.none() | _ARFF_TEXT)
        if role == "group":
            names = draw(st.lists(_ARFF_TEXT, min_size=1, max_size=3))
            kwargs["group_names"] = names
            kwargs["group_codes"] = draw(st.lists(st.integers(0, len(names) - 1), **rows))
        elif role == "status":
            kwargs["status"] = draw(st.lists(st.integers(0, 1), **rows))
        else:
            kwargs["labels" if role == "label" else "times"] = draw(st.lists(_CELL_FLOATS, **rows))
    try:
        return DataSet(attrs, cols, **kwargs)
    except ValueError:
        reject()


@settings(max_examples=400, deadline=None)
@given(arff_datasets())
def test_arff_round_trip_or_value_error(ds):
    try:
        text = write_arff(ds)
    except ValueError:
        return
    bindings = {
        role: getattr(ds, f"{role}_attr") or role
        for role, values in zip(_ROLES, (ds.group_codes, ds.labels, ds.times, ds.status))
        if values is not None
    }
    again = parse_arff(text, task=ds.task, **bindings)
    # reading keeps the observed groups only, as subset does
    _assert_datasets_equal(ds.subset(np.arange(ds.n_examples)), again)


@pytest.mark.parametrize("cells", [1, 2, 5, None], ids=["1", "2", "5", "default"])
@settings(max_examples=150, deadline=None)
@given(ds=arff_datasets())
def test_write_arff_equals_the_per_row_reference(cells, ds):
    # chunks of one cell, which still hold one row, up to the default: a
    # chunk boundary anywhere leaves the text as the per-row writer wrote it
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(data, "_WRITE_CELLS", cells)
        try:
            want = write_arff_reference(ds)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                write_arff(ds)
            return
        assert write_arff(ds) == want


def _mixed_table(n):
    """n rows: nine nominal attributes whose labels ARFF must quote, three
    numeric ones with NaN cells, a group, a label and survival columns."""
    rng = np.random.default_rng(n)
    forms = ("grade {}", "n,{}", "o'{}", "level{}")
    attrs = [Attribute(f"f{i}", "nominal", tuple(forms[i % 4].format(j) for j in range(3 + i % 4)))
             for i in range(9)] + [Attribute(f"x{i}", "numeric") for i in range(3)]
    cols = [rng.integers(-1, len(a.domain), n, dtype=np.int32) for a in attrs[:9]]
    for _ in range(3):
        x = rng.normal(size=n).round(3)
        x[rng.random(n) < 0.02] = np.nan
        cols.append(x)
    return DataSet(attrs, cols, relation="mixed", task="survival", group_names=("neg", "pos"),
                   group_codes=rng.integers(0, 2, n, dtype=np.int32), group_attr="class",
                   labels=rng.normal(size=n), times=rng.exponential(5.0, n).round(2),
                   status=rng.integers(0, 2, n))


@pytest.mark.parametrize("cells", [40, None], ids=["40", "default"])
def test_write_arff_writes_its_text_to_a_path_or_a_stream(tmp_path, monkeypatch, cells):
    # 16 columns: 1,501 chunks of two rows at 40 cells a chunk, and three of
    # 1,024 rows at the default; the last chunk is short either way
    if cells is not None:
        monkeypatch.setattr(data, "_WRITE_CELLS", cells)
    ds = _mixed_table(3001)
    text = write_arff(ds)
    assert text == write_arff_reference(ds)
    path = tmp_path / "out.arff"
    assert write_arff(ds, path) == text
    assert path.read_bytes() == text.encode("utf-8")
    stream = io.StringIO()
    assert write_arff(ds, stream) == text
    assert stream.getvalue() == text


def test_write_arff_holds_the_text_and_one_chunk(tmp_path):
    # the returned text, grown in place, plus one chunk's cells and text;
    # nothing else grows with the rows, and the file never sees the whole
    # text encoded at once. The per-row writer, with a string per cell and
    # one per row, traced 19.7 MB for the 3.2 MB text of 40,000 rows and
    # 68 MB for the 12.9 MB of 160,000; a join of all chunks, twice the text.
    for n in (40_000, 160_000):
        ds = _mixed_table(n)
        tracemalloc.start()
        try:
            text = write_arff(ds, tmp_path / "out.arff")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) + 2**20, n
        del text


# ---------------------------------------------------------------------------
# group derivation

def test_derive_groups_regression():
    attrs = (Attribute("a", "numeric"),)
    ds = DataSet(attrs, [np.array([10.0, 20.0, 30.0, 40.0])], task="regression",
                 labels=np.array([1.0, 2.0, 2.0, 3.0]))
    out = derive_groups_regression(ds)
    # median 2.0; ties at the median land in G2
    assert out.groups == ("G1", "G2")
    np.testing.assert_array_equal(out.group_codes, [0, 1, 1, 1])
    np.testing.assert_array_equal(out.column(0), ds.column(0))
    np.testing.assert_array_equal(out.labels, ds.labels)

    flat = DataSet(attrs, [np.array([1.0, 2.0])], task="regression",
                   labels=np.array([5.0, 5.0]))
    with pytest.raises(ValueError, match="one group would be empty"):
        derive_groups_regression(flat)


def test_derive_groups_survival():
    # times 1..4, first and last censored; median time 2.5
    attrs = (Attribute("a", "numeric"),)
    ds = DataSet(attrs, [np.array([10.0, 20.0, 30.0, 40.0])], task="survival",
                 times=np.array([1.0, 2.0, 3.0, 4.0]),
                 status=np.array([0, 1, 1, 0]))
    out = derive_groups_survival(ds)
    # the censored short time cannot be called an early event, so it is dropped
    assert out.n_examples == 3
    assert out.groups == ("G1", "G2")
    np.testing.assert_array_equal(out.group_codes, [0, 1, 1])
    np.testing.assert_array_equal(out.column(0), [20.0, 30.0, 40.0])
    np.testing.assert_array_equal(out.times, [2.0, 3.0, 4.0])

    events_only = DataSet(attrs, [np.array([1.0, 2.0])], task="survival",
                          times=np.array([1.0, 1.0]), status=np.array([1, 1]))
    with pytest.raises(ValueError, match="one group would be empty"):
        derive_groups_survival(events_only)


def test_derive_groups_survival_median_uses_all_times():
    # median is computed before censored-early rows are removed
    attrs = (Attribute("a", "numeric"),)
    ds = DataSet(attrs, [np.arange(6, dtype=np.float64)], task="survival",
                 times=np.array([1.0, 1.0, 2.0, 5.0, 6.0, 7.0]),
                 status=np.array([0, 1, 1, 0, 1, 1]))
    out = derive_groups_survival(ds)
    # median of all six times is 3.5: row 0 (censored, early) is dropped,
    # rows 1-2 are early events, rows 3-5 survive past the median
    assert out.n_examples == 5
    np.testing.assert_array_equal(out.group_codes, [0, 0, 1, 1, 1])


# ---------------------------------------------------------------------------
# subsetting

def test_subset_remaps_groups():
    ds = parse_arff(GOOD, group="cls")
    sub = ds.subset(np.array([False, True, False]))
    assert sub.groups == ("blue",)
    np.testing.assert_array_equal(sub.group_codes, [0])
    assert sub.n_examples == 1
    # index selector, parent group order preserved regardless of row order
    sub2 = ds.subset(np.array([2, 1, 0]))
    assert sub2.groups == ("red", "blue")
    np.testing.assert_array_equal(sub2.group_codes, [0, 1, 0])


def test_with_groups():
    ds = small_ds()
    out = ds.with_groups(("lo", "hi"), np.array([1, 0, 1, 0], dtype=np.int32))
    assert out.groups == ("lo", "hi")
    assert group_of(out, 0) == "hi"
    np.testing.assert_array_equal(out.column(0), ds.column(0))
