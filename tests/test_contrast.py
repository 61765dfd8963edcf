"""Conditions, coverage, confusion counts, canonical form, rendering."""

import math

import numpy as np
import pytest

from csmine.contrast import (
    EQ,
    GE,
    LT,
    NE,
    Condition,
    ConfusionMatrix,
    ContrastSet,
    canonicalize,
    condition_mask,
    cover,
    is_duplicate,
    parse_conditions,
    render_condition,
    render_conditions,
)
from csmine.data import Attribute, DataSet

from conftest import count_confusion, example, examples, random_classification, satisfies


def render_ds():
    attrs = (Attribute("a", "numeric"), Attribute("b", "nominal", ("yes", "no")))
    cols = [np.array([1.0, 2.0, 3.0]), np.array([0, 1, 0], dtype=np.int32)]
    return DataSet(attrs, cols, relation="r", task="classification",
                   group_names=("g",), group_codes=np.zeros(3, dtype=np.int32))


def random_premise(rng, ds, max_conditions=4):
    conds = []
    for _ in range(int(rng.integers(0, max_conditions + 1))):
        ai = int(rng.integers(0, len(ds.attributes)))
        attr = ds.attributes[ai]
        if attr.is_numeric:
            col = ds.column(ai)
            finite = col[~np.isnan(col)]
            base = float(rng.choice(finite)) if finite.size else 0.0
            value = base + float(rng.choice([-0.05, 0.0, 0.05]))
            op = LT if rng.random() < 0.5 else GE
        else:
            value = int(rng.integers(0, len(attr.domain)))
            op = EQ if rng.random() < 0.5 else NE
        conds.append(Condition(ai, op, value))
    return ContrastSet(tuple(conds), ds.groups[int(rng.integers(0, len(ds.groups)))])


# ---------------------------------------------------------------------------
# basics

def test_condition_validation_and_ordering():
    with pytest.raises(ValueError, match="unknown operator"):
        Condition(0, "gt", 1.0)
    # enumeration rank: < before >= at one threshold, = before !=
    assert Condition(0, LT, 1.0).sort_key() < Condition(0, GE, 1.0).sort_key()
    assert Condition(0, EQ, 2).sort_key() < Condition(0, NE, 2).sort_key()
    assert Condition(0, NE, 0).sort_key() < Condition(1, EQ, 0).sort_key()


def test_confusion_matrix_values():
    cm = ConfusionMatrix(p=50, n=10, P=100, N=200)
    assert cm.support == 0.5
    assert cm.precision == 50 / 60
    assert cm.neg2pos == 0.1
    assert ConfusionMatrix(0, 5, 10, 20).neg2pos == math.inf
    assert ConfusionMatrix(5, 0, 10, 0).neg2pos == 0.0
    assert ConfusionMatrix(0, 0, 0, 0).support == 0.0
    assert ConfusionMatrix(0, 0, 0, 0).precision == 0.0


def test_condition_mask_matches_satisfies():
    for seed in range(6):
        ds = random_classification(seed, n_min=30, n_max=80, missing_rate=0.1)
        rng = np.random.default_rng(seed + 50)
        for _ in range(20):
            cs = random_premise(rng, ds, max_conditions=1)
            if not cs.conditions:
                continue
            cond = cs.conditions[0]
            mask = condition_mask(cond, ds)
            for i in range(ds.n_examples):
                assert mask[i] == satisfies(example(ds, i), cond)


def test_condition_mask_missing_fails_both_sides():
    ds = render_ds()
    col = np.array([1.0, np.nan, 3.0])
    ds2 = DataSet(ds.attributes, [col, ds.column(1)], relation="r",
                  task="classification", group_names=("g",),
                  group_codes=np.zeros(3, dtype=np.int32))
    assert not condition_mask(Condition(0, LT, 100.0), ds2)[1]
    assert not condition_mask(Condition(0, GE, -100.0), ds2)[1]
    # a missing nominal fails both = and !=
    col_b = np.array([0, -1, 1], dtype=np.int32)
    ds3 = DataSet(ds.attributes, [ds.column(0), col_b], relation="r",
                  task="classification", group_names=("g",),
                  group_codes=np.zeros(3, dtype=np.int32))
    assert not condition_mask(Condition(1, EQ, 0), ds3)[1]
    assert not condition_mask(Condition(1, NE, 0), ds3)[1]


def test_condition_mask_kind_mismatch():
    ds = render_ds()
    with pytest.raises(ValueError, match="numeric test on nominal"):
        condition_mask(Condition(1, LT, 1.0), ds)
    with pytest.raises(ValueError, match="nominal test on numeric"):
        condition_mask(Condition(0, EQ, 0), ds)


# ---------------------------------------------------------------------------
# cover / confusion

def test_cover_empty_premise_and_subset():
    ds = render_ds()
    empty = ContrastSet((), "g")
    assert np.count_nonzero(cover(empty, ds)) == 3
    sub = np.array([True, False, True])
    assert np.array_equal(cover(empty, ds) & sub, sub)
    one = ContrastSet((Condition(0, GE, 2.0),), "g")
    assert set(np.flatnonzero(cover(one, ds) & sub)) == {2}
    # every call returns a fresh mask
    first = cover(one, ds)
    first[:] = False
    assert np.count_nonzero(cover(one, ds)) == 2


def test_cover_is_antitone_in_conditions():
    for seed in range(5):
        ds = random_classification(seed + 10, n_min=30, n_max=100)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            cs = random_premise(rng, ds)
            prev = cover(ContrastSet((), cs.group), ds)
            for k in range(1, len(cs.conditions) + 1):
                cur = cover(ContrastSet(cs.conditions[:k], cs.group), ds)
                assert not (cur & ~prev).any()
                prev = cur


def test_confusion_matches_per_example_counting():
    for seed in range(5):
        ds = random_classification(seed + 20, n_min=30, n_max=150, missing_rate=0.05)
        rng = np.random.default_rng(seed + 99)
        group = ds.groups[0]
        positives = ds.group_mask(group)
        groups = [ex.group for ex in examples(ds)]
        for _ in range(10):
            cs = random_premise(rng, ds)
            cm = count_confusion(cover(cs, ds), positives)
            p = n = 0
            for i, ex in enumerate(examples(ds)):
                if all(satisfies(ex, c) for c in cs.conditions):
                    if ex.group == group:
                        p += 1
                    else:
                        n += 1
            assert (cm.p, cm.n) == (p, n)
            assert (cm.P, cm.N) == (groups.count(group), len(groups) - groups.count(group))


def test_confusion_p_new():
    ds = render_ds()
    positives = ds.group_mask("g")
    unc = np.array([False, False, True])
    cs = ContrastSet((Condition(0, GE, 2.0),), "g")
    cm = count_confusion(cover(cs, ds), positives, unc)
    assert (cm.p, cm.p_new) == (2, 1)


# ---------------------------------------------------------------------------
# canonical form

def test_canonicalize_tightest_bounds_and_order():
    cs = ContrastSet((
        Condition(1, EQ, 1),
        Condition(0, GE, 1.0),
        Condition(0, LT, 7.0),
        Condition(1, EQ, 1),
        Condition(0, GE, 2.0),
        Condition(1, NE, 2),
        Condition(0, LT, 5.0),
    ), "g")
    canon = canonicalize(cs)
    assert canon.conditions == (
        Condition(0, GE, 2.0),
        Condition(0, LT, 5.0),
        Condition(1, EQ, 1),
        Condition(1, NE, 2),
    )
    assert canon.group == "g"


def test_canonicalize_preserves_contradictions():
    cs = ContrastSet((Condition(0, GE, 5.0), Condition(0, LT, 2.0)), "g")
    canon = canonicalize(cs)
    assert canon.conditions == (Condition(0, GE, 5.0), Condition(0, LT, 2.0))
    ds = render_ds()
    assert not cover(canon, ds).any()


def test_canonicalize_idempotent_and_coverage_preserving():
    for seed in range(6):
        ds = random_classification(seed + 30, n_min=30, n_max=120, missing_rate=0.05)
        rng = np.random.default_rng(seed + 7)
        for _ in range(15):
            cs = random_premise(rng, ds)
            canon = canonicalize(cs)
            assert canonicalize(canon) == canon
            assert np.array_equal(cover(canon, ds), cover(cs, ds))
            # per-example oracle, not just mask algebra
            for i, ex in enumerate(examples(ds)):
                want = all(satisfies(ex, c) for c in cs.conditions)
                assert cover(canon, ds)[i] == want


def test_is_duplicate():
    a = ContrastSet((Condition(0, GE, 1.0), Condition(1, EQ, 0)), "g")
    b = ContrastSet((Condition(1, EQ, 0), Condition(0, GE, 1.0), Condition(0, GE, 0.5)), "g")
    assert is_duplicate(a, b)
    assert not is_duplicate(a, ContrastSet(a.conditions, "other"))
    assert not is_duplicate(a, ContrastSet((Condition(0, GE, 1.0),), "g"))
    assert a.key() != b.key()  # key is raw; only canonical keys collapse


# ---------------------------------------------------------------------------
# rendering and parsing

def test_render_condition_forms():
    ds = render_ds()
    assert render_condition(Condition(0, GE, 1.5), ds) == "a in [1.5, inf)"
    assert render_condition(Condition(0, LT, 2.5), ds) == "a in (-inf, 2.5)"
    assert render_condition(Condition(1, EQ, 0), ds) == "b = yes"
    assert render_condition(Condition(1, NE, 1), ds) == "b != no"


def test_render_conditions_merges_intervals():
    ds = render_ds()
    cs = ContrastSet((Condition(1, NE, 1), Condition(0, GE, 1.5), Condition(0, LT, 2.5)), "g")
    assert render_conditions(cs, ds) == "a in [1.5, 2.5) AND b != no"
    assert render_conditions(ContrastSet((), "g"), ds) == ""
    only_hi = ContrastSet((Condition(0, LT, 2.5),), "g")
    assert render_conditions(only_hi, ds) == "a in (-inf, 2.5)"


def test_render_threshold_is_exact():
    ds = render_ds()
    v = 1.7000000000000002
    assert render_condition(Condition(0, LT, v), ds) == "a in (-inf, 1.7000000000000002)"


def test_parse_conditions_inverts_render():
    for seed in range(6):
        ds = random_classification(seed + 40, n_min=20, n_max=60)
        rng = np.random.default_rng(seed + 13)
        for _ in range(15):
            canon = canonicalize(random_premise(rng, ds))
            text = render_conditions(canon, ds)
            back = parse_conditions(text, canon.group, ds)
            assert back.conditions == canon.conditions
            assert back.group == canon.group


def test_parse_conditions_handles_awkward_names():
    attrs = (Attribute("odd name", "numeric"), Attribute("b", "nominal", ("u", "v")))
    ds = DataSet(attrs, [np.array([1.0]), np.array([0], dtype=np.int32)],
                 relation="r", task="classification",
                 group_names=("g",), group_codes=np.zeros(1, dtype=np.int32))
    cs = ContrastSet((Condition(0, GE, 1.5), Condition(1, EQ, 1)), "g")
    text = render_conditions(cs, ds)
    assert text == "odd name in [1.5, inf) AND b = v"
    assert parse_conditions(text, "g", ds).conditions == cs.conditions
    # names and values that hold a separator: the text is read as the one
    # premise the dataset accepts
    awkward = (
        (Attribute("a", "nominal", ("p AND q", "r")), Condition(0, EQ, 0)),
        (Attribute("a = b", "nominal", ("u", "v")), Condition(0, EQ, 1)),
        (Attribute("a", "nominal", ("x != y", "z")), Condition(0, EQ, 0)),
        (Attribute("a in [1", "numeric"), Condition(0, GE, 1.5)),
    )
    for attr, cond in awkward:
        col = np.array([1.0]) if attr.is_numeric else np.array([0], dtype=np.int32)
        ds = DataSet((attr,), [col], relation="r", task="classification",
                     group_names=("g",), group_codes=np.zeros(1, dtype=np.int32))
        cs = ContrastSet((cond,), "g")
        assert parse_conditions(render_conditions(cs, ds), "g", ds).conditions == cs.conditions
    # all of them in one premise, with parts that join on AND both ways
    attrs = (Attribute("a = b", "nominal", ("p AND q", "r != s AND", "AND")), Attribute("a in [1", "numeric"),
             Attribute("AND x", "nominal", ("p", "q = AND")))
    ds = DataSet(attrs, [np.array([0], dtype=np.int32), np.array([1.0]), np.array([0], dtype=np.int32)],
                 relation="r", task="classification",
                 group_names=("g",), group_codes=np.zeros(1, dtype=np.int32))
    cs = canonicalize(ContrastSet((Condition(0, EQ, 0), Condition(0, NE, 1), Condition(0, NE, 2),
                                   Condition(1, GE, 1.5), Condition(1, LT, 2.5), Condition(2, NE, 1)), "g"))
    assert parse_conditions(render_conditions(cs, ds), "g", ds).conditions == cs.conditions
    # names and values drawn from the separators' own words
    rng = np.random.default_rng(0)
    words = ("AND", "AND", "a", "=", "!=", "in", "[1", "(", "x")
    for _ in range(300):
        names = list(dict.fromkeys(" ".join(rng.choice(words, size=rng.integers(1, 4))) for _ in range(3)))
        attrs = tuple(Attribute(name, "numeric") if rng.random() < 0.3 else
                      Attribute(name, "nominal", tuple(dict.fromkeys(
                          " ".join(rng.choice(words, size=rng.integers(1, 4))) for _ in range(3))))
                      for name in names)
        cols = [np.array([1.0]) if a.is_numeric else np.array([0], dtype=np.int32) for a in attrs]
        ds = DataSet(attrs, cols, relation="r", task="classification",
                     group_names=("g",), group_codes=np.zeros(1, dtype=np.int32))
        cs = canonicalize(random_premise(rng, ds, max_conditions=5))
        assert parse_conditions(render_conditions(cs, ds), "g", ds).conditions == cs.conditions


def test_parse_conditions_rejects_garbage():
    ds = render_ds()
    with pytest.raises(ValueError, match="cannot parse"):
        parse_conditions("a near 5", "g", ds)
    with pytest.raises(ValueError, match="no attribute named 'zzz'"):
        parse_conditions("zzz = yes", "g", ds)
    with pytest.raises(ValueError, match="attribute 'b' has no value 'maybe'"):
        parse_conditions("b != maybe", "g", ds)
    assert parse_conditions("  ", "g", ds).conditions == ()
