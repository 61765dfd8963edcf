"""Growing, pruning, and the full mining driver.

The heart of this file is the equivalence suite: production growing and
pruning must reproduce, condition for condition, what the literal
per-candidate reference in conftest produces, across measures, penalty
histories, and gate settings.
"""

import concurrent.futures
import hashlib
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    render_conditions,
)
from csmine.data import Attribute, DataSet, derive_groups_survival
from csmine.diversity import PenaltyState
from csmine.induction import (
    MiningParams,
    grow,
    mine_all,
    mine_group,
    prune,
)
from csmine import induction, quality
from csmine.quality import correlation
from csmine.reports import write_csv_report
from csmine.synthetic import generate_synthetic

from conftest import (
    bimodal_survival,
    condition_tuples,
    continuous,
    count_confusion,
    midpoints,
    naive_grow,
    naive_prune,
    numeric_split_points,
    nominal_sweep_reference,
    numeric_sweep_reference,
    possible_conditions,
    prune_rounds_reference,
    random_classification,
    random_regression,
    random_survival,
    redundancy_oracle,
    survival_scores_reference,
    with_status,
)


# ---------------------------------------------------------------------------
# parameters

def test_mining_params_validation():
    MiningParams()  # defaults are valid
    with pytest.raises(ValueError, match="must not be empty"):
        MiningParams(minsupps=())
    with pytest.raises(ValueError, match=r"in \(0, 1\]"):
        MiningParams(minsupps=(0.5, 0.0))
    with pytest.raises(ValueError, match="strictly descending"):
        MiningParams(minsupps=(0.5, 0.5))
    with pytest.raises(ValueError, match="minsupp_new"):
        MiningParams(minsupp_new=0.0)
    with pytest.raises(ValueError, match="max_neg2pos"):
        MiningParams(max_neg2pos=-0.1)
    # a NaN ceiling would neither reject a grown premise nor allow a removal
    with pytest.raises(ValueError, match="max_neg2pos must be non-negative"):
        MiningParams(max_neg2pos=float("nan"))
    MiningParams(max_neg2pos=float("inf"))  # no ceiling
    with pytest.raises(ValueError, match="max_passes"):
        MiningParams(max_passes=0)
    # a float count of passes would pass the bound, then fail in range()
    with pytest.raises(ValueError, match="max_passes must be an integer of at least 1"):
        MiningParams(max_passes=2.0)
    # a bool is an int to isinstance, but no count of passes
    for flag in (True, False):
        with pytest.raises(ValueError, match="max_passes must be an integer of at least 1"):
            MiningParams(max_passes=flag)
    with pytest.raises(ValueError, match="penalty_strength"):
        MiningParams(penalty_strength=-1.0)
    with pytest.raises(ValueError, match=r"penalty_strength must be in \[0, 1\]"):
        MiningParams(penalty_strength=3)
    MiningParams(penalty_strength=1.0)  # the upper end is allowed
    with pytest.raises(ValueError, match="reward_saturation"):
        MiningParams(reward_saturation=0.0)
    with pytest.raises(ValueError, match="unknown mode"):
        MiningParams(mode="tournament")
    with pytest.raises(ValueError, match="unknown measure"):
        MiningParams(measure="gini")


# ---------------------------------------------------------------------------
# candidate enumeration

def test_numeric_split_points():
    np.testing.assert_array_equal(numeric_split_points(np.array([1.0, 2.0, 3.0])),
                                  [1.5, 2.5])
    np.testing.assert_array_equal(numeric_split_points(np.array([2.0, 1.0, 1.0, 2.0])),
                                  [1.5])
    assert numeric_split_points(np.array([np.nan, 1.0, np.nan])).size == 0
    assert numeric_split_points(np.array([])).size == 0
    # split points land strictly between their neighbours
    rng = np.random.default_rng(4)
    vals = np.round(rng.uniform(-5, 5, 200), 2)
    pts = numeric_split_points(vals)
    distinct = np.unique(vals)
    for pt in pts:
        assert (distinct < pt).any() and (distinct >= pt).any()
        assert pt > distinct[distinct < pt].max()


def test_possible_conditions_order():
    attrs = (Attribute("x", "numeric"), Attribute("c", "nominal", ("u", "v", "w")))
    cols = [np.array([1.0, 2.0, 3.0]), np.array([2, 0, 2], dtype=np.int32)]
    ds = DataSet(attrs, cols, relation="r", task="classification",
                 group_names=("g",), group_codes=np.zeros(3, dtype=np.int32))
    got = list(possible_conditions(np.ones(3, dtype=bool), ds))
    assert got == [
        Condition(0, "lt", 1.5), Condition(0, "ge", 1.5),
        Condition(0, "lt", 2.5), Condition(0, "ge", 2.5),
        Condition(1, "eq", 0), Condition(1, "ne", 0),
        Condition(1, "eq", 2), Condition(1, "ne", 2),
    ]
    # restricting coverage restricts observed values
    got = list(possible_conditions(np.array([True, False, True]), ds))
    assert got == [
        Condition(0, "lt", 2.0), Condition(0, "ge", 2.0),
        Condition(1, "eq", 2), Condition(1, "ne", 2),
    ]


# ---------------------------------------------------------------------------
# grow / prune equivalence with the literal reference

def _random_penalty(rng, n_attrs):
    state = PenaltyState(n_attrs)
    for _ in range(int(rng.integers(0, 5))):
        k = int(rng.integers(1, n_attrs + 1))
        state.update(rng.choice(n_attrs, size=k, replace=False).tolist())
    return state


def _random_pool(rng, pos_mask):
    pool = pos_mask.copy()
    pool &= rng.random(pos_mask.size) < 0.75
    if not pool.any():
        pool = pos_mask.copy()
    return pool


def _grow_cases(ds, rng):
    """Yield (params, group, uncovered, reward_uncovered, penalty, minsupp_all)."""
    for group in ds.groups[:2]:
        pos = ds.group_mask(group)
        for s in (0.0, 0.5, 1.0):
            params = MiningParams(
                minsupps=(0.5, 0.2, 0.1),
                penalty_strength=s,
                max_neg2pos=float(rng.choice([0.5, 1.0])),
            )
            unc = _random_pool(rng, pos)
            rew = _random_pool(rng, pos)
            pen = _random_penalty(rng, len(ds.attributes))
            level = float(rng.choice([0.1, 0.2, 0.5]))
            yield params, group, unc, rew, pen, level


def _check_grow_equivalence(ds, rng):
    checked = 0
    for params, group, unc, rew, pen, level in _grow_cases(ds, rng):
        got = grow(ds, group, unc, params,
                   penalty=pen, reward_uncovered=rew, minsupp_all=level)
        want = naive_grow(ds, group, params, unc, rew, pen, level)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert condition_tuples(got.conditions) == condition_tuples(want)
            checked += 1
            pruned = prune(got, ds, params, uncovered=unc,
                           penalty=pen, reward_uncovered=rew)
            want_pruned = naive_prune(ds, group, got.conditions, params,
                                      uncovered=unc, reward_uncovered=rew, penalty=pen)
            assert condition_tuples(pruned.conditions) == condition_tuples(want_pruned)
    return checked


def test_grow_prune_match_reference_classification():
    grown_any = 0
    for seed in range(8):
        ds = random_classification(seed + 100, n_min=40, n_max=200)
        grown_any += _check_grow_equivalence(ds, np.random.default_rng(seed))
    assert grown_any >= 20  # the comparison must actually exercise grown premises


def test_grow_prune_match_reference_regression():
    grown_any = 0
    for seed in range(4):
        ds = random_regression(seed, n_min=40, n_max=120)
        grown_any += _check_grow_equivalence(ds, np.random.default_rng(seed + 1))
    assert grown_any >= 8


def test_grow_prune_match_reference_survival():
    grown_any = 0
    for seed in range(3):
        ds = random_survival(seed, n_min=40, n_max=100, max_attrs=4)
        grown_any += _check_grow_equivalence(ds, np.random.default_rng(seed + 2))
    assert grown_any >= 5


def test_grow_matches_reference_where_label_sums_overflow():
    # a first side holding two 1e308 labels and its total both overflow to
    # inf; the second side, total - first, was NaN where its own sum is inf,
    # and grow returned None where the reference grew a premise
    base = random_regression(1)
    labels = np.ones(base.n_examples)
    labels[::3] = 1e308
    ds = DataSet(base.attributes, [base.column(i) for i in range(len(base.attributes))],
                 relation=base.relation, task="regression", group_names=base.group_names,
                 group_codes=base.group_codes, labels=labels)
    grown = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(10):
            for params, group, unc, rew, pen, level in _grow_cases(ds, np.random.default_rng(seed)):
                if group != "g1":
                    continue
                got = grow(ds, group, unc, params, penalty=pen, reward_uncovered=rew, minsupp_all=level)
                want = naive_grow(ds, group, params, unc, rew, pen, level)
                assert (got and condition_tuples(got.conditions)) == (want and condition_tuples(want))
                grown += want is not None
    assert grown >= 9


@pytest.mark.xfail(strict=True, reason=(
    "the regression sweep takes a nominal != side's label sum as total - the = side's "
    "sum, which rounds: x = a and x != b cover the same 7 rows, but 3.9 is summed for "
    "= and 4.6 - 0.7 = 3.8999999999999995 taken for !=, so the tie breaks the other way"))
def test_grow_matches_reference_where_a_complement_label_sum_rounds():
    ds = DataSet([Attribute("x", "nominal", ("a", "b"))],
                 [np.array([0, 0, 0, 0, 1, 0, 0, 0], dtype=np.int32)],
                 task="regression", group_names=("g0", "g1"),
                 group_codes=np.array([1, 1, 1, 1, 0, 1, 0, 1], dtype=np.int32),
                 labels=np.array([0.7, 0.6, 0.2, 0.4, 0.7, 0.4, 0.6, 1.0]))
    params = MiningParams(minsupps=(0.1,), max_neg2pos=10.0)
    unc = ds.group_mask("g1").copy()
    got = grow(ds, "g1", unc, params)
    assert condition_tuples(got.conditions) == condition_tuples(naive_grow(ds, "g1", params, unc))


def test_grow_step_that_covers_other_than_counted_raises(monkeypatch):
    # growing must shrink the coverage to what the sweep counted at every
    # step; a condition that keeps every row would repeat forever
    ds = generate_synthetic()
    steps = []

    def keeps_every_row(cond, ds):
        steps.append(cond)
        assert len(steps) < 100, "growing repeats a step that keeps every row"
        return np.ones(ds.n_examples, dtype=bool)

    monkeypatch.setattr(induction, "condition_mask", keeps_every_row)
    with pytest.raises(ValueError, match=r"covers 420 rows where its sweep counted \d+"):
        grow(ds, "red", ds.group_mask("red"), MiningParams())
    assert len(steps) == 1


def test_penalty_for_another_attribute_count_is_refused():
    # a penalty state sized for another dataset used to index past its counts
    ds = generate_synthetic()
    pen = PenaltyState(1, counts=[1], total=1)
    red = ds.group_mask("red")
    message = r"penalty tracks 1 attributes, the dataset has 3"
    with pytest.raises(ValueError, match=message):
        grow(ds, "red", red, MiningParams(), penalty=pen)
    cs = ContrastSet((Condition(0, GE, 0.0), Condition(1, GE, 0.0)), "red")
    with pytest.raises(ValueError, match=message):
        prune(cs, ds, MiningParams(), red, penalty=pen)


def test_infinite_cells_of_both_signs_split_at_zero():
    # -inf + inf is NaN, so the pair had no midpoint and no split: mining
    # warned and found nothing, though the attribute separates the groups
    ds = DataSet([Attribute("x", "numeric")], [np.array([-np.inf, np.inf] * 3)], relation="inf",
                 group_names=("A", "B"), group_codes=np.array([0, 1] * 3, dtype=np.int32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mined = mine_all(ds, MiningParams(), workers=1)
    got = {g: [condition_tuples(s.contrast_set.conditions) for s in sets] for g, sets in mined.items()}
    assert got == {"A": [[(0, LT, 0.0)]], "B": [[(0, GE, 0.0)]]}
    assert [s.p for sets in mined.values() for s in sets] == [3, 3]


@pytest.mark.parametrize("finite", [1.0, np.finfo(np.float64).min], ids=["one", "minus-dbl-max"])
def test_minus_infinity_splits_from_a_finite_value_at_minus_dbl_max(finite):
    # -inf + finite is -inf, which is not above -inf, so the pair had no split
    # and mining found nothing, though (finite, inf) split at inf
    below = np.finfo(np.float64).min
    ds = DataSet([Attribute("x", "numeric")], [np.array([-np.inf, finite] * 3)], relation="inf",
                 group_names=("A", "B"), group_codes=np.array([0, 1] * 3, dtype=np.int32))
    mined = mine_all(ds, MiningParams(), workers=1)
    got = {g: [condition_tuples(s.contrast_set.conditions) for s in sets] for g, sets in mined.items()}
    assert got == {"A": [[(0, LT, below)]], "B": [[(0, GE, below)]]}
    assert [s.p for sets in mined.values() for s in sets] == [3, 3]
    # only the -inf cells lie below -DBL_MAX
    np.testing.assert_array_equal(condition_mask(Condition(0, LT, below), ds), ds.group_mask("A"))


def test_survival_group_without_events():
    emitted = grown_any = 0
    for seed in range(3):
        base = random_survival(seed, n_min=40, n_max=100, max_attrs=4)
        ds = with_status(base, np.where(base.group_codes == 0, 0, base.status))
        group = ds.groups[0]
        assert not ds.status[ds.group_mask(group)].any()
        sets = mine_group(ds, group, MiningParams(minsupps=(0.5, 0.2)))
        assert all(math.isfinite(s.quality) for s in sets)
        emitted += len(sets)
        # both the event-free group and its contrast grow as the reference does
        grown_any += _check_grow_equivalence(ds, np.random.default_rng(seed + 7))
    assert emitted >= 1
    assert grown_any >= 5


def test_grow_keeps_an_empty_reward_baseline():
    # an empty baseline must not fall back to the pool
    ds = generate_synthetic()
    n = ds.n_examples
    params = MiningParams(penalty_strength=1.0)
    pen = PenaltyState(len(ds.attributes))
    pen.update({0})
    pen.update({0, 1})
    unc = ds.group_mask("red")
    got = grow(ds, "red", unc, params, penalty=pen, reward_uncovered=np.zeros(n, dtype=bool))
    want = naive_grow(ds, "red", params, unc, np.zeros(n, dtype=bool), pen)
    assert got is not None
    assert condition_tuples(got.conditions) == condition_tuples(want)
    # the baseline decides the premise here, so the check can tell them apart
    assert want != naive_grow(ds, "red", params, unc, unc, pen)


@pytest.mark.parametrize(
    "measure, make",
    [("survival", random_survival), ("correlation", random_classification),
     ("regression", random_regression)],
    ids=["survival", "correlation", "regression"],
)
def test_sweep_scores_exactly_the_gated_candidates(monkeypatch, measure, make):
    # a sweep only counts and gates; the step then scores the valid
    # candidates of both blocks at once, survival in one kernel call whose
    # rows are exactly those candidates
    kernel_rows = []
    kernel = quality._log_rank_rows

    def counting(n1, d1, n2, d2):
        kernel_rows.append(n1.shape[0])
        return kernel(n1, d1, n2, d2)

    monkeypatch.setattr(quality, "_log_rank_rows", counting)
    gated_out = scored = steps = 0
    for seed in range(3):
        ds = make(seed + 10, n_min=60, n_max=140, max_attrs=5)
        rng = np.random.default_rng(seed)
        reward_rng = np.random.default_rng(seed + 100)
        for group in ds.groups:
            pos = ds.group_mask(group)
            ctx = induction._Context.build(
                ds, group, MiningParams(minsupp_new=0.2), measure,
                d_u=_random_pool(rng, pos), r_u=_random_pool(reward_rng, pos), minsupp_all=0.4,
            )
            scorer = quality._LogRankScorer(ds, pos) if measure == "survival" else None
            cov = rng.random(ds.n_examples) < 0.8
            listed = list(possible_conditions(cov, ds))
            cands, wants = [], []
            for block in ctx.blocks:
                kernel_rows.clear()
                cand = induction._sweep_attribute(ctx, block, cov, np.flatnonzero(cov))
                assert kernel_rows == []
                expected = [c for c in listed if c.attr_index in block]
                if cand is None:
                    assert expected == []
                    continue
                conds = [cand.condition(i, ds) for i in range(cand.p.size)]
                assert conds == expected
                for i, cond in enumerate(conds):
                    side = cov & condition_mask(cond, ds)
                    cm = ConfusionMatrix(
                        p=int(np.count_nonzero(side & pos)),
                        n=int(np.count_nonzero(side & ~pos)),
                        P=ctx.P,
                        N=ctx.N,
                        p_new=int(np.count_nonzero(side & ctx.d_u)),
                    )
                    covc = int(np.count_nonzero(side))
                    counts = (cand.p[i], cand.n[i], cand.p_new_pass[i], cand.p_new_reward[i], cand.covc[i])
                    assert counts == (cm.p, cm.n, cm.p_new, int(np.count_nonzero(side & ctx.r_u)), covc)
                    gates = (
                        cm.p / ctx.P >= 0.4
                        and cm.p_new / ctx.P >= 0.2
                        and covc < np.count_nonzero(cov)
                    )
                    assert cand.valid[i] == gates
                    if gates:
                        if measure == "survival":
                            wants.append(-scorer.score(np.flatnonzero(side)))
                        elif measure == "correlation":
                            wants.append(correlation(cm))
                        else:
                            wants.append(-abs(float(np.mean(ds.labels[side])) - ctx.pos_label_mean))
                gated_out += int((~cand.valid).sum())
                scored += int(cand.valid.sum())
                cands.append(cand)
            kernel_rows.clear()
            q = induction._score_candidates(ctx, cands)
            assert q.tolist() == wants
            if measure == "survival" and wants:
                assert kernel_rows == [len(wants)]  # one call for the whole step
                steps += 1
            else:
                assert kernel_rows == []
    assert gated_out >= 40 and scored >= 40
    assert measure != "survival" or steps >= 4


def _step_reference_and_check(ctx, cov):
    """Sweep both blocks over ``cov``, then check the step scorer against
    the per-attribute scan and against ``score`` of each valid side, bit
    for bit. Returns the swept candidates."""
    scorer = ctx.survival_scorer
    cov_idx = np.flatnonzero(cov)
    cands = [c for c in (induction._sweep_attribute(ctx, b, cov, cov_idx) for b in ctx.blocks) if c is not None]
    got = induction._score_candidates(ctx, cands)
    reference = np.concatenate([survival_scores_reference(scorer, c) for c in cands] + [np.empty(0)])
    sides = [cov & condition_mask(c.condition(i, ctx.ds), ctx.ds) for c in cands for i in np.flatnonzero(c.valid)]
    alone = np.array([-scorer.score(np.flatnonzero(side)) for side in sides])
    assert got.dtype == np.float64
    assert got.tobytes() == reference.tobytes() == alone.tobytes()
    return cands


# times with ties, on a grid of a few values, or all distinct
_TIMES = {"ties": st.sampled_from([0.0, 1.0, 2.0, 3.5]), "distinct": st.floats(0.0, 50.0)}


@st.composite
def survival_step_cases(draw):
    """A survival DataSet of 1-5 attributes, numeric and nominal mixed:
    numeric cells from the sweep's cell pool (ties, NaN, ±0.0, ±inf) and
    nominal codes with missing cells; times with ties or mostly distinct;
    a coverage mask, pools and gates."""
    n = draw(st.integers(2, 30))
    attrs, cols = [], []
    for i in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            attrs.append(Attribute(f"x{i}", "numeric"))
            cols.append(np.array(draw(st.lists(st.sampled_from(_CELLS), min_size=n, max_size=n))))
        else:
            domain = draw(st.integers(1, 5))
            attrs.append(Attribute(f"c{i}", "nominal", tuple(f"v{v}" for v in range(domain))))
            cols.append(np.array(draw(st.lists(st.integers(-1, domain - 1), min_size=n, max_size=n)),
                                 dtype=np.int32))
    times = draw(st.lists(_TIMES[draw(st.sampled_from(sorted(_TIMES)))], min_size=n, max_size=n))
    status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    codes = np.array([0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2)),
                     dtype=np.int32)
    ds = DataSet(attrs, cols, relation="step", task="survival", group_names=("g", "rest"),
                 group_codes=codes, times=np.array(times), status=np.array(status, dtype=np.int8))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    cov = np.array(draw(bits)) | (np.arange(n) == draw(st.integers(0, n - 1)))
    pos = codes == 0
    d_u, r_u = pos & np.array(draw(bits)), pos & np.array(draw(bits))
    gates = (draw(st.sampled_from([0.05, 0.3, 0.6])), draw(st.sampled_from([0.05, 0.5])))
    return ds, cov, d_u, r_u, gates


@pytest.mark.parametrize("block_elements", [None, 1, "three-grid"])
@settings(max_examples=250, deadline=None)
@given(case=survival_step_cases())
def test_step_scorer_equals_per_attribute_scan(block_elements, case):
    # 1 puts one slot in each block, three-grid three, so rows run across
    # blocks and carry their counts; None is the default ceiling
    ds, cov, d_u, r_u, (minsupp_all, minsupp_new) = case
    ctx = induction._Context.build(ds, "g", MiningParams(minsupp_new=minsupp_new), "survival",
                                   d_u=d_u, r_u=r_u, minsupp_all=minsupp_all)
    size = {None: quality._BLOCK_ELEMENTS, 1: 1, "three-grid": 3 * ctx.survival_scorer.grid.size}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quality, "_BLOCK_ELEMENTS", size[block_elements])
        _step_reference_and_check(ctx, cov)


def _rest_slot_dataset():
    """40 rows, 20 in group g. x0 and x2 split the group off at 0.5; x1's
    only split puts half of the group on each side, so at minsupp 0.6 none
    of its sides is valid and all of its rows fall into its rest slot, while
    x0's second half, past its last needed split, fills x0's. A nominal
    attribute with missing cells and a missing x2 cell come after."""
    rng = np.random.default_rng(8)
    g = np.arange(40) < 20
    x0 = np.where(g, 0.0, 1.0) + np.round(rng.uniform(0, 0.4, 40), 2) * ~g
    x1 = (np.arange(40) % 2).astype(np.float64)
    x2 = np.where(g, rng.uniform(0, 0.4, 40), rng.uniform(0.6, 1.0, 40)).round(2)
    x2[3] = np.nan
    c = rng.integers(-1, 3, 40).astype(np.int32)
    attrs = [Attribute(f"x{i}", "numeric") for i in range(3)] + [Attribute("c", "nominal", ("a", "b", "d"))]
    return DataSet(attrs, [x0, x1, x2, c], relation="rest", task="survival", group_names=("g", "rest"),
                   group_codes=(~g).astype(np.int32), times=rng.exponential(10.0, 40) + 20.0 * ~g,
                   status=(rng.random(40) < 0.8).astype(np.int8))


@pytest.mark.parametrize("block_elements", [None, 1, "three-grid"])
def test_step_scorer_skips_a_numeric_row_with_no_needed_split(monkeypatch, block_elements):
    ds = _rest_slot_dataset()
    ctx = induction._Context.build(ds, "g", MiningParams(minsupp_new=0.05), "survival", minsupp_all=0.6)
    size = {None: quality._BLOCK_ELEMENTS, 1: 1, "three-grid": 3 * ctx.survival_scorer.grid.size}
    monkeypatch.setattr(quality, "_BLOCK_ELEMENTS", size[block_elements])
    numeric = _step_reference_and_check(ctx, np.ones(ds.n_examples, dtype=bool))[0]
    valid = numeric.valid.reshape(-1, 2).any(axis=1)
    per_attr = {a: bool(valid[numeric.attrs == a].any()) for a in (0, 1, 2)}
    assert per_attr == {0: True, 1: False, 2: True}
    assert (numeric.attrs == 1).any()  # x1 has a split; its sides fail the gate
    # x0 has rows past its last needed split
    assert numeric.last[numeric.attrs == 0][valid[numeric.attrs == 0]].max() < numeric.known[0] - 1


def test_step_scorer_memory_is_bounded_by_the_block_ceiling(monkeypatch):
    # all-distinct times: a step's wanted sides times the grid come to more
    # than ten blocks, yet every kernel input holds at most
    # max(_BLOCK_ELEMENTS, 2 g) elements, and the step's peak stays within
    # the kernel's workspace and a few such arrays
    rng = np.random.default_rng(3)
    n = 1200
    x = rng.normal(size=(n, 2)).round(3)
    stage = rng.integers(-1, 3, n).astype(np.int32)
    ds = derive_groups_survival(DataSet(
        (Attribute("x0", "numeric"), Attribute("x1", "numeric"), Attribute("stage", "nominal", ("a", "b", "c"))),
        [x[:, 0], x[:, 1], stage], relation="distinct", task="survival",
        times=rng.exponential(np.where(x[:, 0] > 0, 4.0, 12.0)), status=(rng.random(n) < 0.8).astype(np.int8),
    ))
    ctx = induction._Context.build(ds, ds.groups[0], MiningParams(minsupp_new=0.05), "survival",
                                   minsupp_all=0.05)
    g = ctx.survival_scorer.grid.size
    assert g == ds.n_examples  # every time distinct
    bound = max(quality._BLOCK_ELEMENTS, 2 * g)
    cov = np.ones(g, dtype=bool)
    cands = [induction._sweep_attribute(ctx, b, cov, np.flatnonzero(cov)) for b in ctx.blocks]
    sides = sum(int(c.valid.sum()) for c in cands)
    assert sides * g > 10 * bound
    inputs = []
    kernel = quality._log_rank_rows

    def recording(n1, d1, n2, d2):
        inputs.append(n1.size)
        return kernel(n1, d1, n2, d2)

    monkeypatch.setattr(quality, "_log_rank_rows", recording)
    induction._score_candidates(ctx, cands)  # warm up
    inputs.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        q = induction._score_candidates(ctx, cands)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert q.size == sides == sum(inputs) // g
    assert max(inputs) <= bound
    assert peak < 24 * bound * 8


def _full_sweep(ctx):
    """A first grow step's candidates: both blocks swept at full coverage,
    those with a split kept."""
    n = ctx.ds.n_examples
    swept = [induction._sweep_attribute(ctx, b, np.ones(n, dtype=bool), np.arange(n)) for b in ctx.blocks]
    return [c for c in swept if c is not None]


@pytest.mark.parametrize(
    "measure, make",
    [("survival", random_survival), ("correlation", random_classification),
     ("regression", random_regression)],
    ids=["survival", "correlation", "regression"],
)
def test_first_step_scores_equal_fresh_scores(measure, make):
    # one context per group, as mine_group keeps it: the pools shrink pass by
    # pass and the support floor steps down the ladder, then below it; at
    # every first step the cached scores must equal a fresh score of the same
    # candidates, bit for bit
    params = MiningParams(minsupps=(0.6, 0.3, 0.1), minsupp_new=0.05)
    steps = scored = 0
    for seed in range(3):
        ds = make(seed + 40, n_min=60, n_max=140, max_attrs=5)
        rng = np.random.default_rng(seed)
        for group in ds.groups[:2]:
            pos = ds.group_mask(group)
            ctx = induction._Context.build(ds, group, params, measure)
            for level in params.minsupps + (0.05,):
                ctx.minsupp_all = level
                ctx.r_u = pos.copy()
                for _ in range(3):
                    ctx.d_u = pos.copy()
                    for _ in range(2):
                        swept = _full_sweep(ctx)
                        got_q = induction._first_step_scores(ctx, swept)
                        want_q = induction._score_candidates(ctx, [c for c in swept if c.valid.any()])
                        assert got_q.dtype == want_q.dtype and got_q.tobytes() == want_q.tobytes()
                        steps += 1
                        scored += got_q.size
                        # as if a premise covering a random third of the rows was taken
                        taken = rng.random(ds.n_examples) < 0.3
                        ctx.d_u = ctx.d_u & ~taken
                        ctx.r_u = ctx.r_u & ~taken
    assert steps == 3 * 2 * 4 * 3 * 2 and scored >= 500


@pytest.mark.parametrize("make", [random_classification, random_regression, random_survival],
                         ids=["classification", "regression", "survival"])
def test_public_grow_below_the_ladder_matches_reference(make):
    # a support floor below the ladder's last level: the root scores every
    # candidate that can pass it, not only those that pass the ladder's floors
    params = MiningParams(minsupps=(0.5, 0.2, 0.1), minsupp_new=0.05)
    checked = floor_decides = 0
    for seed in range(6):
        ds = make(seed + 60, n_min=60, n_max=160)
        for group in ds.groups[:2]:
            unc = ds.group_mask(group)
            got = grow(ds, group, unc, params, minsupp_all=0.05)
            want = naive_grow(ds, group, params, unc, minsupp_all=0.05)
            if want is None:
                assert got is None
                continue
            assert got is not None and condition_tuples(got.conditions) == condition_tuples(want)
            checked += 1
            floor_decides += want != naive_grow(ds, group, params, unc, minsupp_all=0.1)
    assert checked >= 6 and floor_decides >= 1


def test_mine_group_scores_the_first_step_once(monkeypatch):
    # one survival mine_group: presort sweeps nothing; every grow that passes
    # the pool gate sweeps each block once at full coverage, over the
    # presort's own arrays; one score call takes the full-coverage
    # candidates, and every later first step reads their cached scores
    contexts, full_sweeps, full_scores, passed = [], [], [], []
    presort, sweep, score, grow_ = (induction._Context.presort, induction._sweep_attribute,
                                    induction._score_candidates, induction._grow)
    building, built_sweeps = [], []

    def presorting(ctx):
        building.append(True)
        presort(ctx)
        building.pop()
        if all(c is not ctx for c in contexts):
            contexts.append(ctx)

    def sweeping(ctx, block, cov, cov_idx, *args):
        if building:
            built_sweeps.append(block)
        cand = sweep(ctx, block, cov, cov_idx, *args)
        if cov_idx.size == ctx.ds.n_examples:
            full_sweeps.append(cand)
        return cand

    def scoring(ctx, cands):
        if any(c.rows.shape[-1] == ctx.ds.n_examples for c in cands):
            full_scores.append(id(ctx))
        return score(ctx, cands)

    def growing(ctx):
        passed.append(np.count_nonzero(ctx.d_u) / ctx.P >= ctx.params.minsupp_new)
        return grow_(ctx)

    monkeypatch.setattr(induction._Context, "presort", presorting)
    monkeypatch.setattr(induction, "_sweep_attribute", sweeping)
    monkeypatch.setattr(induction, "_score_candidates", scoring)
    monkeypatch.setattr(induction, "_grow", growing)
    ds = bimodal_survival()
    sets = mine_group(ds, ds.groups[0])
    assert sets and len(contexts) == 1
    ctx = contexts[0]
    assert len(passed) >= 10
    assert built_sweeps == []
    assert full_scores == [id(ctx)]
    assert len(ctx.blocks) == 2 and len(full_sweeps) == 2 * sum(passed)
    for numeric, nominal in zip(full_sweeps[0::2], full_sweeps[1::2]):
        assert numeric.numeric and not nominal.numeric
        assert np.shares_memory(numeric.rows, ctx.order) and np.shares_memory(numeric.keys, ctx.ranks)
        assert np.shares_memory(nominal.keys, ctx.keys)


# cells that tie, signed zeros, neighbours one ulp apart, subnormals,
# neighbours near the float maximum whose sum overflows, and infinities; the
# one-ulp neighbours: DBL_MAX and its predecessor (a halved tie), 1e-323 and
# 1.5e-323 (a subnormal tie), the last value below 2.0 (a binade edge), and
# -5e-324 next to -0.0
_DBL_MAX = np.finfo(np.float64).max
_CELLS = (np.nan, -0.0, 0.0, 0.5, 1.0, 1.0 + 2.0**-52, -3.25, 5e-324, 1e300, 1e308, 1.7e308, -1.7e308,
          -np.inf, np.inf, _DBL_MAX, np.nextafter(_DBL_MAX, 0.0), 1e-323, 1.5e-323,
          np.nextafter(2.0, 0.0), 2.0, -5e-324)
# the extremes alone, so that -inf and +inf often end up next to each other
_EXTREMES = (np.nan, -1.7e308, 1.7e308, -np.inf, np.inf)
# finite cells to pair with -inf, -DBL_MAX among them
_BESIDE_MINUS_INF = (np.finfo(np.float64).min,) + tuple(c for c in _CELLS if np.isfinite(c))


@st.composite
def numeric_sweep_cases(draw):
    """A regression DataSet of 1-5 numeric columns, a coverage mask, and the
    pass and reward pools. A column is drawn from a small pool of cells
    (ties, NaN, signed zeros, infinities), from the extremes of that pool,
    from any finite float, from -inf and one finite cell, or is constant or
    all missing; the coverage may be a single row."""
    n = draw(st.integers(2, 24))
    cols = []
    pools = {"cells": st.sampled_from(_CELLS), "extremes": st.sampled_from(_EXTREMES),
             "floats": st.floats(-1e300, 1e300)}
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["cells", "extremes", "floats", "-inf pair", "constant",
                                     "missing"]))
        if kind == "-inf pair":
            pair = (-np.inf, draw(st.sampled_from(_BESIDE_MINUS_INF)))
            col = draw(st.lists(st.sampled_from(pair), min_size=n, max_size=n))
        elif kind == "constant":
            col = [draw(st.sampled_from(_CELLS[1:]))] * n
        elif kind == "missing":
            col = [np.nan] * n
        else:
            col = draw(st.lists(pools[kind], min_size=n, max_size=n))
        cols.append(np.array(col, dtype=np.float64))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    codes = np.array([0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2)),
                     dtype=np.int32)
    labels = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    ds = DataSet([Attribute(f"x{i}", "numeric") for i in range(len(cols))], cols, relation="sweep",
                 task="regression", group_names=("g", "rest"), group_codes=codes,
                 labels=np.array(labels))
    if draw(st.booleans()):
        cov = np.array(draw(bits))
    else:
        cov = np.arange(n) == draw(st.integers(0, n - 1))
    pos = codes == 0
    d_u, r_u = pos & np.array(draw(bits)), pos & np.array(draw(bits))
    gates = (draw(st.sampled_from([0.05, 0.3, 1.0])), draw(st.sampled_from([0.05, 0.5])))
    return ds, cov, d_u, r_u, gates


@settings(max_examples=400, deadline=None)
@given(numeric_sweep_cases())
def test_numeric_block_sweep_equals_per_attribute_reference(case):
    ds, cov, d_u, r_u, (minsupp_all, minsupp_new) = case
    ctx = induction._Context.build(ds, "g", MiningParams(minsupp_new=minsupp_new), "regression",
                                   d_u=d_u, r_u=r_u, minsupp_all=minsupp_all)
    cov_idx = np.flatnonzero(cov)
    cand = induction._sweep_attribute(ctx, ctx.numeric, cov, cov_idx)
    refs = {ai: numeric_sweep_reference(ctx, ai, cov_idx) for ai in ctx.numeric}
    listed = [r for r in refs.values() if r is not None]
    if not listed:
        assert cand is None
        return
    # every split's threshold, formed as for a chosen split; by bits, since
    # == cannot tell -0.0 from 0.0
    thresholds = np.array([cand.condition(2 * j, ds).value for j in range(cand.last.size)])
    got = {
        "attrs": cand.attrs, "values": thresholds, "p": cand.p, "n": cand.n,
        "p_new_pass": cand.p_new_pass, "p_new_reward": cand.p_new_reward, "covc": cand.covc,
        "valid": cand.valid, "sums": cand.side_sums(ctx.labels[cand.rows]),
    }
    for name, value in got.items():
        want = np.concatenate([r[name] for r in listed])
        assert value.dtype == want.dtype and value.tobytes() == want.tobytes(), name
    # both sides of every split, in (attribute, split, side) order
    conds = [cand.condition(i, ds) for i in range(cand.p.size)]
    assert conds == [
        Condition(int(a), op, float(v))
        for r in listed for a, v in zip(r["attrs"], r["values"]) for op in (LT, GE)
    ]
    assert all(type(c.value) is float for c in conds)
    # each attribute's row of the layout is the reference's sorted known rows
    for r, ai in enumerate(ctx.numeric):
        if refs[ai] is not None:
            order = cov_idx[np.argsort(ds.column(ai)[cov_idx], kind="stable")]
            np.testing.assert_array_equal(cand.rows[r, : cand.known[r]], order[: cand.known[r]])
            assert np.isnan(ds.column(ai)[cand.rows[r, cand.known[r]:]]).all()


@settings(max_examples=400, deadline=None)
@given(numeric_sweep_cases())
def test_presort_ranks_are_more_than_one_apart_exactly_where_a_midpoint_splits(case):
    # for every pair of known cells of a presort row, not only neighbours,
    # since a narrowed layout puts any two of them next to each other
    ds = case[0]
    ctx = induction._Context.build(ds, "g", MiningParams(), "regression")
    ctx.presort()
    assert ctx.ranks.dtype == np.int32 and ctx.ranks.shape == ctx.order.shape
    for r, ai in enumerate(ctx.numeric):
        values, ranks = ds.column(ai)[ctx.order[r]], ctx.ranks[r]
        known = ~np.isnan(values)
        assert (ranks[~known] == -1).all()
        v, rk = values[known], ranks[known]
        i, j = np.triu_indices(v.size, 1)
        splits = (v[i] != v[j]) & (midpoints(v[i], v[j]) > v[i])
        np.testing.assert_array_equal(rk[j] - rk[i] > 1, splits)


def _one_cell_dataset(cell):
    x = np.array([cell, 1.0, 2.0, 3.0, 1.0, 2.0])
    return DataSet([Attribute("x", "numeric"), Attribute("y", "numeric")], [x, np.arange(6.0)],
                   relation="facts", task="classification", group_names=("g", "rest"),
                   group_codes=np.array([0, 1, 0, 1, 0, 1], dtype=np.int32))


@pytest.mark.parametrize("cell, missing", [
    (2.0**1022, False),
    (-(2.0**1022), False),
    (np.nextafter(2.0**1022, np.inf), False),
    (-np.nextafter(2.0**1022, np.inf), False),
    (np.inf, False),
    (-np.inf, False),
    (np.finfo(np.float64).min, False),
    (np.nan, True),
    (5e-324, False),
    (-0.0, False),
], ids=["2^1022", "-2^1022", "above-2^1022", "below--2^1022", "inf", "-inf", "-dbl-max", "nan",
        "subnormal", "minus-zero"])
def test_presort_records_missing_cells(cell, missing):
    # cells at 2**1022, above which a sum of two cells can overflow, the
    # infinities and -DBL_MAX; every threshold matches the reference's by bits
    ctx = induction._Context.build(_one_cell_dataset(cell), "g", MiningParams(), "correlation")
    ctx.presort()
    assert ctx.missing_cells == missing
    for cov in (np.ones(6, dtype=bool), np.array([1, 1, 0, 1, 1, 0], dtype=bool)):
        cov_idx = np.flatnonzero(cov)
        cand = induction._sweep_attribute(ctx, ctx.numeric, cov, cov_idx)
        want = np.concatenate([numeric_sweep_reference(ctx, ai, cov_idx)["values"] for ai in ctx.numeric])
        got = np.array([cand.condition(2 * j, ctx.ds).value for j in range(cand.last.size)])
        assert got.tobytes() == want.tobytes()


def test_numeric_sweep_enters_no_errstate(monkeypatch):
    # the sweep compares integer ranks, so it needs no float guard, wide
    # cells or not; a chosen split's threshold is formed in Python floats
    ds = continuous(5, 200, 4)
    cols = [ds.column(ai) for ai in range(len(ds.attributes))]
    cols[0] = np.where(cols[0] > 1.0, 1.7e308, np.where(cols[0] < -1.0, -np.inf, cols[0]))
    wide = DataSet(ds.attributes, cols, relation="wide", group_names=ds.group_names,
                   group_codes=ds.group_codes)
    entered = []
    errstate = np.errstate

    def counting(*args, **kwargs):
        entered.append(kwargs)
        return errstate(*args, **kwargs)

    cov = np.random.default_rng(0).random(ds.n_examples) < 0.6
    for data in (ds, wide):
        ctx = induction._Context.build(data, "A", MiningParams(minsupp_new=0.05), "correlation",
                                       minsupp_all=0.05)
        ctx.presort()
        with monkeypatch.context() as mp:
            mp.setattr(np, "errstate", counting)
            cand = induction._sweep_attribute(ctx, ctx.numeric, cov, np.flatnonzero(cov))
            conds = [cand.condition(i, data) for i in range(cand.p.size)]
        assert cand.valid.any() and entered == []
    # -inf beside a finite value splits at -DBL_MAX, and 1.7e308 beside a
    # normal value at half of 1.7e308
    assert {-np.finfo(np.float64).max, 1.7e308 / 2.0} <= {c.value for c in conds if c.attr_index == 0}


@st.composite
def nominal_sweep_cases(draw):
    """A regression DataSet of 1-4 nominal columns, maybe between numeric
    ones, a coverage mask, and the pass and reward pools. Domains run from
    one category to twelve; a column may have missing cells, be all
    missing or constant; the coverage may be a single row; labels are any
    finite floats of moderate size."""
    n = draw(st.integers(2, 30))
    attrs, cols = [], []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            attrs.append(Attribute(f"x{i}", "numeric"))
            cols.append(np.array(draw(st.lists(st.sampled_from((0.0, 1.0, np.nan)), min_size=n, max_size=n))))
        domain = draw(st.sampled_from([1, 2, 3, 8, 9, 12]))
        kind = draw(st.sampled_from(["codes", "codes", "missing", "constant"]))
        if kind == "missing":
            col = [-1] * n
        elif kind == "constant":
            col = [draw(st.integers(0, domain - 1))] * n
        else:
            col = draw(st.lists(st.integers(-1, domain - 1), min_size=n, max_size=n))
        attrs.append(Attribute(f"c{i}", "nominal", tuple(f"v{v}" for v in range(domain))))
        cols.append(np.array(col, dtype=np.int32))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    codes = np.array([0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2)),
                     dtype=np.int32)
    labels = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    ds = DataSet(attrs, cols, relation="sweep", task="regression", group_names=("g", "rest"),
                 group_codes=codes, labels=np.array(labels))
    if draw(st.booleans()):
        cov = np.array(draw(bits))
    else:
        cov = np.arange(n) == draw(st.integers(0, n - 1))
    pos = codes == 0
    d_u, r_u = pos & np.array(draw(bits)), pos & np.array(draw(bits))
    gates = (draw(st.sampled_from([0.05, 0.3, 1.0])), draw(st.sampled_from([0.05, 0.5])))
    return ds, cov, d_u, r_u, gates


@settings(max_examples=400, deadline=None)
@given(nominal_sweep_cases())
def test_nominal_block_sweep_equals_per_attribute_reference(case):
    ds, cov, d_u, r_u, (minsupp_all, minsupp_new) = case
    ctx = induction._Context.build(ds, "g", MiningParams(minsupp_new=minsupp_new), "regression",
                                   d_u=d_u, r_u=r_u, minsupp_all=minsupp_all)
    cov_idx = np.flatnonzero(cov)
    cand = induction._sweep_attribute(ctx, ctx.nominal, cov, cov_idx)
    listed = [r for r in (nominal_sweep_reference(ctx, ai, cov_idx) for ai in ctx.nominal) if r is not None]
    if not listed:
        assert cand is None
        return
    got = {
        "attrs": cand.attrs, "p": cand.p, "n": cand.n,
        "p_new_pass": cand.p_new_pass, "p_new_reward": cand.p_new_reward, "covc": cand.covc,
        "valid": cand.valid, "sums": cand.side_sums(ctx.labels[cand.rows]),
    }
    for name, value in got.items():
        want = np.concatenate([r[name] for r in listed])
        assert value.dtype == want.dtype and value.tobytes() == want.tobytes(), name
    # both sides of every split, in (attribute, category, side) order
    conds = [cand.condition(i, ds) for i in range(cand.p.size)]
    assert conds == [
        Condition(int(a), op, int(v))
        for r in listed for a, v in zip(r["attrs"], r["values"]) for op in (EQ, NE)
    ]


def test_nominal_sweep_memory_is_a_few_times_the_narrowed_keys():
    # one sweep of a 40,000 x 12 nominal block at 60% coverage holds the
    # covered rows' int32 bins, their intp count keys (twice that) and small
    # arrays per bin, about 3.1 times the bins in all; an intp copy of the
    # bins and a float64 copy of the block per counter, as a weighted count
    # per counter held, came to 4.2 times
    rng = np.random.default_rng(5)
    n, k = 40_000, 12
    attrs = [Attribute(f"c{i}", "nominal", tuple(f"v{j}" for j in range(3 + i % 4))) for i in range(k)]
    cols = [rng.integers(-1, len(a.domain), n, dtype=np.int32) for a in attrs]
    groups = rng.integers(0, 2, n, dtype=np.int32)
    ds = DataSet(attrs, cols, relation="sweep", group_names=("g", "rest"), group_codes=groups)
    pos = groups == 0
    ctx = induction._Context.build(ds, "g", MiningParams(minsupp_new=0.05), "correlation",
                                   d_u=pos & (rng.random(n) < 0.7), minsupp_all=0.05)
    cov = rng.random(n) < 0.6
    cov_idx = np.flatnonzero(cov)
    counters, codes = induction._pack_counters(ctx), induction._pack_codes(ctx)
    induction._sweep_attribute(ctx, ctx.nominal, cov, cov_idx, counters, None, codes)  # presorts
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cand = induction._sweep_attribute(ctx, ctx.nominal, cov, cov_idx, counters, None, codes)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    keys = k * cov_idx.size * np.dtype(np.int32).itemsize
    assert cand.keys.dtype == np.int32 and cand.keys.nbytes == keys
    assert cand.valid.sum() >= 10
    assert peak < 3.5 * keys


def test_numeric_presort_and_layout_hold_int32_ranks():
    # the presort holds each row's int32 index and the int32 rank of its
    # value, 8 bytes a cell, where rows and float64 values took 12; a
    # narrowed layout keeps both as int32
    ds = continuous(5, 2000, 12)
    ctx = induction._Context.build(ds, "A", MiningParams(minsupp_new=0.05), "correlation", minsupp_all=0.05)
    ctx.presort()
    k, n = len(ctx.numeric), ds.n_examples
    assert ctx.order.dtype == ctx.ranks.dtype == np.int32
    assert ctx.order.nbytes + ctx.ranks.nbytes == 8 * k * n
    cov = np.random.default_rng(1).random(n) < 0.6
    cand = induction._sweep_attribute(ctx, ctx.numeric, cov, np.flatnonzero(cov))
    assert cand.rows.dtype == cand.keys.dtype == np.int32
    assert cand.keys.shape == (k, np.count_nonzero(cov))


@pytest.mark.parametrize("n, columns", [(2**17 - 1, 1), (2**17, 2)])
def test_packed_counts_are_exact_where_the_column_count_changes(n, columns):
    # the packed fields are n.bit_length() bits wide; at 2**17 rows a field
    # needs 18 bits, and three no longer fit one column
    rng = np.random.default_rng(n)
    codes = (rng.random(n) < 0.02).astype(np.int32)
    ds = DataSet([Attribute("x", "numeric"), Attribute("c", "nominal", ("a", "b", "c"))],
                 [rng.integers(0, 4, n).astype(np.float64), rng.integers(-1, 3, n).astype(np.int32)],
                 relation="packed", task="classification", group_names=("g", "rest"), group_codes=codes)
    pos = codes == 0
    d_u, r_u = pos & (rng.random(n) < 0.99), pos.copy()
    ctx = induction._Context.build(ds, "g", MiningParams(minsupp_new=0.05), "correlation",
                                   d_u=d_u, r_u=r_u, minsupp_all=0.05)
    assert len(induction._pack_counters(ctx)) == columns
    cov = rng.random(n) < 0.99
    checked = 0
    for block in ctx.blocks:
        cand = induction._sweep_attribute(ctx, block, cov, np.flatnonzero(cov))
        for i in range(cand.p.size):
            side = cov & condition_mask(cand.condition(i, ds), ds)
            want = [int(np.count_nonzero(side & m)) for m in (pos, d_u, r_u, np.True_)]
            assert [cand.p[i], cand.p_new_pass[i], cand.p_new_reward[i], cand.covc[i]] == want
            checked += 1
    assert checked == 12


def test_extension_spi_equals_one_set_per_attribute_on_long_premises():
    # grow's s*pi of the premise plus each attribute, and prune's s*pi of
    # the premise less each condition and then of the premise itself, equal
    # the scalar s * premise_penalty of each literal attribute set bit for
    # bit, at every step of long premises: grown ones, and random attribute
    # sequences with many repeats
    ds = continuous(5, 400, 12)
    rng = np.random.default_rng(1)
    base = MiningParams(minsupps=(0.05,), max_neg2pos=1.0)
    premises = [[c.attr_index for c in grow(ds, g, ds.group_mask(g), base, minsupp_all=0.05).conditions]
                for g in ds.groups]
    assert min(map(len, premises)) >= 40
    premises += [rng.integers(0, 12, 60).tolist() for _ in range(200)]
    for premise in premises:
        s = float(rng.choice([0.5, 1.0]))
        pen = _random_penalty(rng, 12)
        ctx = induction._Context.build(ds, "A", replace(base, penalty_strength=s), "correlation", penalty=pen)
        counts = np.asarray(pen.counts)
        held = np.zeros(12, dtype=bool)
        for step, a in enumerate(premise, 1):
            got = induction._extension_spi(ctx, counts, held)
            want = [s * pen.premise_penalty(premise[: step - 1] + [b]) for b in range(12)]
            assert got.tobytes() == np.array(want).tobytes()
            held[a] = True
            attrs = premise[:step]
            got = induction._removal_spi(ctx, counts, np.array(attrs))
            want = [s * pen.premise_penalty(attrs[:i] + attrs[i + 1 :]) for i in range(step)]
            assert got.tobytes() == np.array(want + [s * pen.premise_penalty(attrs)]).tobytes()


@pytest.mark.parametrize("task", ["classification", "regression", "survival"])
def test_prune_matches_reference_on_long_premises(task):
    # premises grown at a low level by correlation run to dozens of
    # conditions over 12 attributes, each used many times; prune them with
    # the task's own measure
    ds = continuous(5, 400, 12, task)
    rng = np.random.default_rng(11)
    base = MiningParams(minsupps=(0.05,), max_neg2pos=1.0, measure="correlation")
    lengths = []
    for group in ds.groups:
        pos = ds.group_mask(group)
        grown = grow(ds, group, pos, base, minsupp_all=0.05)
        lengths.append(len(grown.conditions))
        for s in (0.0, 0.5, 1.0):
            params = replace(base, penalty_strength=s, measure=None)
            unc, rew = _random_pool(rng, pos), _random_pool(rng, pos)
            pen = _random_penalty(rng, len(ds.attributes))
            got = prune(grown, ds, params, uncovered=unc, penalty=pen, reward_uncovered=rew)
            want = naive_prune(ds, group, grown.conditions, params,
                               uncovered=unc, reward_uncovered=rew, penalty=pen)
            assert condition_tuples(got.conditions) == condition_tuples(want)
    assert min(lengths) >= 40


@pytest.mark.parametrize("task", ["classification", "regression", "survival"])
def test_prune_makes_one_modifier_call_per_round(monkeypatch, task):
    # the long premises of test_prune_matches_reference_on_long_premises;
    # each round's one multiplier call returns, last, the premise's own
    # modified quality, which a fresh call on the premise alone must match
    ds = continuous(5, 400, 12, task)
    rng = np.random.default_rng(11)
    base = MiningParams(minsupps=(0.05,), max_neg2pos=1.0, measure="correlation")
    grown = {g: grow(ds, g, ds.group_mask(g), base, minsupp_all=0.05) for g in ds.groups}
    modifier, modified, mask = induction._modified_quality_of, induction._modified, induction.condition_mask
    held: list[Condition] = []  # the premise _prune holds: the grown one, less what it removed
    masks = [0, 0]  # masks built in this prune call, and how many conditions it started with
    rounds, stray, inside = [], [], []

    def tracking_mask(cond, data):
        if masks[0] >= masks[1]:  # past one mask per condition, each mask is a removal's
            del held[next(i for i, c in enumerate(held) if c is cond)]
        masks[0] += 1
        return mask(cond, data)

    def counting_modified(*args):
        if not inside:
            stray.append(args)
        return modified(*args)

    def counting_modifier(ctx, q, p, rew, spi):
        inside.append(True)
        try:
            out = modifier(ctx, q, p, rew, spi)
            cov = np.logical_and.reduce([mask(c, ctx.ds) for c in held])
            cm = count_confusion(cov, ctx.pos, ctx.d_u)
            fresh = [np.array([v]) for v in (induction._raw_quality(ctx, cov, cm), cm.p,
                                              int(np.count_nonzero(cov & ctx.r_u)),
                                              ctx.params.penalty_strength
                                              * ctx.penalty.premise_penalty([c.attr_index for c in held]))]
            alone = modifier(ctx, *fresh)
        finally:
            inside.pop()
        for got, want in zip((q, p, rew, spi), fresh):
            assert got[-1:].dtype == want.dtype and got[-1:].tobytes() == want.tobytes()
        assert out[-1:].tobytes() == alone.tobytes()
        rounds.append(out.size)
        return out

    monkeypatch.setattr(induction, "condition_mask", tracking_mask)
    monkeypatch.setattr(induction, "_modified", counting_modified)
    monkeypatch.setattr(induction, "_modified_quality_of", counting_modifier)
    checked = 0
    for group, cs in grown.items():
        pos = ds.group_mask(group)
        for s in (0.0, 0.5, 1.0):
            params = replace(base, penalty_strength=s, measure=None)
            unc, rew = _random_pool(rng, pos), _random_pool(rng, pos)
            pen = _random_penalty(rng, len(ds.attributes))
            held[:], masks[:], rounds[:] = cs.conditions, [0, len(cs.conditions)], []
            pruned = prune(cs, ds, params, uncovered=unc, penalty=pen, reward_uncovered=rew)
            removed = len(cs.conditions) - len(pruned.conditions)
            assert len(rounds) == removed + (len(pruned.conditions) > 1)
            # a round holds every condition still held, then the premise
            assert rounds == list(range(len(cs.conditions) + 1, len(cs.conditions) - len(rounds) + 1, -1))
            assert held == list(pruned.conditions)
            checked += len(rounds)
    assert stray == []
    assert checked > 100


def test_prune_exact_pi_tie_drops_the_later_use():
    """Dropping either of two uses of an attribute keeps the premise's
    coverage and its attribute set, so both removals tie with the premise
    on the one exact pi, and the later use goes.

    Rows sit in the eight cells of x0, x1, x8 in {-1, 1}; the group is the
    all-negative cell, and the cells one step from it hold most negatives,
    so x1 and x8 cannot go. The premise uses x0 twice, and a float sum of
    count / total over {0, 1, 8} and over {1, 8, 0} can differ in the last
    bit, so a pi that depends on summation order breaks the tie.
    """
    rng = np.random.default_rng(3)
    cells = [(x0, x1, x8) for x0 in (-1.0, 1.0) for x1 in (-1.0, 1.0) for x8 in (-1.0, 1.0)]
    sizes = [20 if sum(c) == -3 else 60 if sum(c) == -1 else 5 for c in cells]
    grid = np.repeat(np.array(cells), sizes, axis=0)
    n = grid.shape[0]
    cols = [np.round(rng.normal(size=n), 2) for _ in range(12)]
    for ai, j in ((0, 0), (1, 1), (8, 2)):
        cols[ai] = grid[:, j]
    codes = (grid.sum(axis=1) != -3).astype(np.int32)
    ds = DataSet([Attribute(f"x{i}", "numeric") for i in range(12)], cols, relation="cells",
                 task="classification", group_names=("g", "rest"), group_codes=codes)
    counts = [2, 3, 3, 4, 0, 0, 0, 0, 3, 0, 0, 0]
    pen = PenaltyState(12, counts=counts, total=sum(counts))
    x0, x1, x8 = (Condition(ai, LT, 0.0) for ai in (0, 1, 8))
    cs = ContrastSet((x0, x1, x8, x0), "g")
    params = MiningParams(penalty_strength=1.0, max_neg2pos=1.0)
    empty = np.zeros(n, dtype=bool)
    got = prune(cs, ds, params, penalty=pen, reward_uncovered=empty)
    want = naive_prune(ds, "g", cs.conditions, params, reward_uncovered=empty, penalty=pen)
    assert condition_tuples(got.conditions) == condition_tuples(want)
    assert got.conditions == (x0, x1, x8)


def test_prune_drops_a_repeat_as_naive_prune_does():
    """A repeated condition's removal keeps the premise's coverage and its
    attributes, so its s*pi is the premise's and it scores as high: at s = 1
    prune drops the repeat, as ``naive_prune`` and ``prune_rounds_reference``
    do. Over [12, 13, 14, 3, 19, 7] with these counts, a float sum of
    count / total over the premise's set and over a copy of it, which
    iterates in another order, differs by one ulp, so a pi that depends on
    summation order keeps the repeat."""
    rng = np.random.default_rng(58)
    n, k = 120, 23
    codes = (rng.random(n) < 0.5).astype(np.int32)
    cols = [np.round(rng.normal(0.0, 1.0, n) + 0.8 * (codes == 0) * (i % 4 == 0), 1) for i in range(k)]
    ds = DataSet([Attribute(f"x{i}", "numeric") for i in range(k)], cols, relation="order",
                 task="classification", group_names=("A", "B"), group_codes=codes)
    counts = [3, 5, 0, 3, 5, 5, 5, 1, 5, 3, 4, 2, 3, 1, 3, 5, 0, 5, 4, 5, 5, 1, 5]
    pen = PenaltyState(k, counts=counts, total=sum(counts))
    attrs = [12, 13, 14, 3, 19, 7]
    conds = [Condition(a, GE, float(np.quantile(ds.column(a), 0.05))) for a in attrs]
    conds.append(conds[-1])
    params = MiningParams(penalty_strength=1.0, max_neg2pos=2.0)
    ctx = induction._Context.build(ds, "A", params, "correlation", penalty=pen)
    grown = induction._Grown(conds, cover(ContrastSet(tuple(conds), "A"), ds))
    got = induction._prune(ctx, grown)
    want = prune_rounds_reference(ctx, grown)
    naive = naive_prune(ds, "A", conds, params, penalty=pen)
    assert condition_tuples(got.conditions) == condition_tuples(want.conditions) == condition_tuples(naive)
    assert got.cov.tobytes() == want.cov.tobytes()
    assert len(got.conditions) < len(conds)


def test_full_penalty_floors_the_premise_multiplier(monkeypatch):
    """At s = 1 a premise over every used attribute has s*pi exactly 1, so
    its multiplier is floored: raw quality 0.5 with p = 100 and 90 reward
    rows modifies to 0.5 * MULTIPLIER_FLOOR. A float sum of ten 0.1 shares
    is 0.9999999999999999, which would skip the floor and give 0.4375."""
    n = 300
    codes = (np.arange(n) >= 200).astype(np.int32)  # P = 200, N = 100
    cols = [(np.arange(n) >= 100).astype(np.float64) for _ in range(10)]
    ds = DataSet([Attribute(f"x{i}", "numeric") for i in range(10)], cols, relation="floor",
                 task="classification", group_names=("g", "rest"), group_codes=codes)
    cs = ContrastSet(tuple(Condition(ai, LT, 0.5) for ai in range(10)), "g")  # covers rows 0-99
    pen = PenaltyState(10, counts=[1] * 10, total=10)
    params = MiningParams(penalty_strength=1.0)
    baseline = np.arange(n) < 90
    modifier, premises = induction._modified_quality_of, []

    def recording(ctx, q, p, rew, spi):
        out = modifier(ctx, q, p, rew, spi)
        premises.append((float(q[-1]), int(p[-1]), int(rew[-1]), float(spi[-1]), float(out[-1])))
        return out

    monkeypatch.setattr(induction, "_modified_quality_of", recording)
    got = prune(cs, ds, params, penalty=pen, reward_uncovered=baseline)
    assert premises[0] == (0.5, 100, 90, 1.0, 5e-07)
    want = naive_prune(ds, "g", cs.conditions, params, reward_uncovered=baseline, penalty=pen)
    assert condition_tuples(got.conditions) == condition_tuples(want)


@st.composite
def prune_cases(draw):
    """A random premise of 2-60 conditions over 12-40 numeric attributes,
    attributes repeated, with a random penalty history, pools and settings.

    Each condition drops a few percent of the rows at one end of its
    attribute, so long premises still cover rows and prune has choices.
    Some conditions repeat an earlier one, so removing either copy keeps
    the coverage and the attribute set, and the two removals tie.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    measure = draw(st.sampled_from(["correlation", "regression", "survival"]))
    k, length = draw(st.integers(12, 40)), draw(st.integers(2, 60))
    n = int(rng.integers(40, 120 if measure == "survival" else 200))
    codes = (rng.random(n) < 0.5).astype(np.int32)
    cols = [np.round(rng.normal(0.0, 1.0, n) + 0.8 * (codes == 0) * (i % 4 == 0), 1) for i in range(k)]
    extra = {}
    if measure == "regression":
        extra["labels"] = (rng.integers(0, 20, n) + 5 * (codes == 0)).astype(np.float64)
    elif measure == "survival":
        extra["times"] = np.ceil(rng.exponential(np.where(codes == 0, 10.0, 25.0)))
        extra["status"] = (rng.random(n) < 0.7).astype(np.int8)
    task = {"correlation": "classification"}.get(measure, measure)
    ds = DataSet([Attribute(f"x{i}", "numeric") for i in range(k)], cols, relation="prune",
                 task=task, group_names=("A", "B"), group_codes=codes, **extra)
    # mostly a few distinct attributes, each used many times
    pool = rng.choice(k, size=int(rng.integers(2, 9 if rng.random() < 0.7 else k + 1)), replace=False)
    conds = []
    for ai in rng.choice(pool, size=length).tolist():
        col, cut = ds.column(ai), float(rng.uniform(0.0, 0.08))
        if conds and rng.random() < 0.2:
            conds.append(conds[int(rng.integers(len(conds)))])
        elif rng.random() < 0.5:
            conds.append(Condition(ai, GE, float(np.quantile(col, cut))))
        else:
            conds.append(Condition(ai, LT, float(np.quantile(col, 1.0 - cut)) + 0.05))
    counts = (rng.integers(0, 60, k) * (rng.random(k) < 0.7)).tolist()
    penalty = PenaltyState(k, counts=counts, total=sum(counts))
    params = MiningParams(
        max_neg2pos=draw(st.sampled_from([0.5, 1.0, 2.0])),
        penalty_strength=draw(st.sampled_from([0.0, 0.5, 1.0])),
        reward_saturation=draw(st.sampled_from([0.2, 1.0])),
    )
    pos = codes == 0
    d_u, r_u = pos & (rng.random(n) < 0.75), pos & (rng.random(n) < 0.75)
    ctx = induction._Context.build(ds, "A", params, measure, d_u=d_u, r_u=r_u, penalty=penalty)
    return ctx, induction._Grown(conds, cover(ContrastSet(tuple(conds), "A"), ds))


@settings(max_examples=300, deadline=None)
@given(prune_cases())
def test_prune_equals_prune_rounds_reference(case):
    ctx, grown = case
    got = induction._prune(ctx, grown)
    want = prune_rounds_reference(ctx, grown)
    assert condition_tuples(got.conditions) == condition_tuples(want.conditions)
    assert got.cov.tobytes() == want.cov.tobytes()
    # the carried quality has the bits of a fresh score of the result
    assert got.quality == induction._raw_quality(ctx, got.cov, count_confusion(got.cov, ctx.pos, ctx.d_u))


def _distinct_time_survival():
    """400 rows over 12 continuous attributes, every time distinct."""
    base = continuous(5, 400, 12, "survival")
    rng = np.random.default_rng(17)
    ds = base._replace(times=base.times + rng.uniform(0.0, 0.5, base.n_examples))
    assert np.unique(ds.times).size == ds.n_examples
    return ds, rng


@pytest.mark.parametrize("block_elements", [None, "three-grid", 1])
def test_batched_survival_prune_matches_references_on_distinct_times(monkeypatch, block_elements):
    # long premises over all-distinct times: a round counts every removal's
    # sample in one bincount over the premise's counts; three-grid puts
    # three removals in each block of counts, and 1 one
    ds, rng = _distinct_time_survival()
    size = {None: quality._BLOCK_ELEMENTS, 1: 1, "three-grid": 3 * ds.n_examples}
    monkeypatch.setattr(quality, "_BLOCK_ELEMENTS", size[block_elements])
    grow_params = MiningParams(minsupps=(0.05,), max_neg2pos=1.0, measure="correlation")
    lengths, removed = [], 0
    for group in ds.groups:
        pos = ds.group_mask(group)
        conds = list(grow(ds, group, pos, grow_params, minsupp_all=0.05).conditions)
        lengths.append(len(conds))
        for s in (0.0, 1.0):
            params = replace(grow_params, penalty_strength=s, measure=None)
            unc, rew = _random_pool(rng, pos), _random_pool(rng, pos)
            pen = _random_penalty(rng, len(ds.attributes))
            ctx = induction._Context.build(ds, group, params, "survival", d_u=unc, r_u=rew, penalty=pen)
            grown = induction._Grown(conds, cover(ContrastSet(tuple(conds), group), ds))
            got = induction._prune(ctx, grown)
            want = prune_rounds_reference(ctx, grown)
            assert condition_tuples(got.conditions) == condition_tuples(want.conditions)
            assert got.cov.tobytes() == want.cov.tobytes()
            assert got.quality == -ctx.survival_scorer.score(np.flatnonzero(got.cov))
            naive = naive_prune(ds, group, conds, params, uncovered=unc, reward_uncovered=rew, penalty=pen)
            assert condition_tuples(got.conditions) == condition_tuples(naive)
            removed += len(conds) - len(got.conditions)
    assert min(lengths) >= 40 and removed >= 40


@pytest.mark.parametrize("block_elements", [1, "three-grid"])
def test_prune_memory_is_bounded_by_the_block_ceiling(monkeypatch, block_elements):
    # all-distinct times: a prune round's removals take several blocks of
    # counts, yet every kernel input holds at most max(_BLOCK_ELEMENTS, 2 g)
    # elements
    ds, _ = _distinct_time_survival()
    g = ds.n_examples
    monkeypatch.setattr(quality, "_BLOCK_ELEMENTS", {1: 1, "three-grid": 3 * g}[block_elements])
    bound = max(quality._BLOCK_ELEMENTS, 2 * g)
    group = ds.groups[0]
    params = MiningParams(minsupps=(0.05,), max_neg2pos=1.0)
    conds = list(grow(ds, group, ds.group_mask(group), replace(params, measure="correlation"),
                      minsupp_all=0.05).conditions)
    ctx = induction._Context.build(ds, group, params, "survival")
    inputs, rounds = [], []
    kernel, modified = quality._log_rank_rows, induction._modified_quality_of

    def recording(n1, d1, n2, d2):
        assert n1.shape == d1.shape and n1.shape[1] == g
        inputs.append(n1.size)
        return kernel(n1, d1, n2, d2)

    def counting(*args):
        rounds.append(len(inputs))
        return modified(*args)

    monkeypatch.setattr(quality, "_log_rank_rows", recording)
    monkeypatch.setattr(induction, "_modified_quality_of", counting)
    pruned = induction._prune(ctx, induction._Grown(conds, cover(ContrastSet(tuple(conds), group), ds)))
    assert len(conds) >= 40 and len(pruned.conditions) < len(conds)
    # each round's kernel calls: several blocks in the first, and in most
    calls = np.diff([0] + rounds)
    assert calls[0] > 1 and (calls > 1).sum() > len(rounds) // 2
    assert max(inputs) <= bound


@pytest.mark.parametrize("make", [random_classification, random_regression, random_survival],
                         ids=["correlation", "regression", "survival"])
def test_grown_and_pruned_premises_carry_their_fresh_quality(make):
    # grow hands on its last step's score where it has the bits of a fresh
    # score (correlation, survival); prune's result always carries one
    checked = 0
    for seed in range(4):
        ds = make(seed + 40, n_min=60, n_max=140)
        rng = np.random.default_rng(seed)
        for params, group, unc, rew, pen, level in _grow_cases(ds, rng):
            measure = induction._resolve_measure(ds, params)
            ctx = induction._Context.build(ds, group, params, measure, d_u=unc, r_u=rew, penalty=pen,
                                           minsupp_all=level)
            grown = induction._grow(ctx)
            if grown is None:
                continue
            fresh = induction._raw_quality(ctx, grown.cov, count_confusion(grown.cov, ctx.pos, ctx.d_u))
            assert grown.quality == (None if measure == "regression" else fresh)
            pruned = induction._prune(ctx, grown)
            cm = count_confusion(pruned.cov, ctx.pos, ctx.d_u)
            assert pruned.quality == induction._raw_quality(ctx, pruned.cov, cm)
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("make", [random_classification, random_regression, random_survival],
                         ids=["correlation", "regression", "survival"])
def test_grown_and_pruned_premises_carry_their_counts(monkeypatch, make):
    # grow takes a premise's counts from the sweep that chose its last
    # condition, prune adds each removal's rows to them, and mine_group
    # accepts what prune hands back: each must be the premise's covered
    # rows, group rows, pass-pool rows and reward-pool rows, counted afresh
    # when returned (mine_group shrinks the pools right after)
    returned = {"_grow": 0, "_prune": 0}
    removed = 0

    def checked(fn):
        def call(ctx, *args):
            out = fn(ctx, *args)
            if out is not None:
                cm = count_confusion(out.cov, ctx.pos, ctx.d_u)
                want = [cm.p + cm.n, cm.p, cm.p_new, int(np.count_nonzero(out.cov & ctx.r_u))]
                assert out.counts.tolist() == want
                returned[fn.__name__] += 1
            return out
        return call

    monkeypatch.setattr(induction, "_grow", checked(induction._grow))
    monkeypatch.setattr(induction, "_prune", checked(induction._prune))
    for seed in range(3):
        ds = make(seed + 40, n_min=60, n_max=140)
        rng = np.random.default_rng(seed)
        for group in ds.groups[:2]:
            mine_group(ds, group, MiningParams(minsupps=(0.5, 0.2, 0.1), penalty_strength=0.5))
        # public prune counts its premise itself, here over other pools than grow's
        for params, group, unc, rew, pen, level in _grow_cases(ds, rng):
            cs = grow(ds, group, unc, params, penalty=pen, reward_uncovered=rew, minsupp_all=level)
            if cs is None:
                continue
            pos = ds.group_mask(group)
            pruned = prune(cs, ds, params, uncovered=_random_pool(rng, pos), penalty=pen,
                           reward_uncovered=_random_pool(rng, pos))
            removed += len(cs.conditions) - len(pruned.conditions)
    assert returned["_grow"] >= 100 and returned["_prune"] >= 100 and removed >= 20


def test_prune_allows_a_removal_exactly_at_the_ratio_ceiling():
    # a < 0.5 alone covers 8 positives and 4 negatives: (4/10) / (8/10) is
    # exactly the ceiling 0.5, and its correlation beats the premise's 2 + 0;
    # b < 0.5 alone covers 2 positives and 6 negatives, far above it
    ds = _tie_dataset([0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13], [0, 1, 14, 15, 16, 17, 18, 19])
    x, y = Condition(0, LT, 0.5), Condition(1, LT, 0.5)
    assert ConfusionMatrix(8, 4, 10, 10).neg2pos == 0.5
    assert correlation(ConfusionMatrix(8, 4, 10, 10)) > correlation(ConfusionMatrix(2, 0, 10, 10))
    params = MiningParams(max_neg2pos=0.5, penalty_strength=0.0)
    cs = ContrastSet((x, y), "g")
    assert prune(cs, ds, params).conditions == (x,)
    assert naive_prune(ds, "g", cs.conditions, params) == [x]


def test_prune_of_a_premise_without_positives_is_unchanged_and_silent():
    # the premise and both removals cover negatives only, so p = 0 everywhere:
    # the ratio reads inf and the multiplier takes its guarded path
    ds = _tie_dataset(range(10, 16), range(12, 18))
    cs = ContrastSet((Condition(0, LT, 0.5), Condition(1, LT, 0.5)), "g")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (0.0, 1.0):
            assert prune(cs, ds, MiningParams(max_neg2pos=2.0, penalty_strength=s)).conditions == cs.conditions


def test_public_prune_builds_no_presort():
    # a presorted context of 20,000 x 12 numeric cells holds 2.9 MB of
    # order and sorted values; prune never sweeps, so it builds neither
    ds = continuous(1, 20_000, 12)
    cs = ContrastSet((Condition(0, GE, -1.0), Condition(1, LT, 1.5)), "A")
    params = MiningParams(max_neg2pos=1.0)
    prune(cs, ds, params)  # warm up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prune(cs, ds, params)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _tie_dataset(first_rows, second_rows):
    """20 rows, rows 0-9 in group "g"; attribute i is 0 on rows[i], else 1."""
    cols = []
    for rows in (first_rows, second_rows):
        col = np.ones(20)
        col[list(rows)] = 0.0
        cols.append(col)
    return DataSet([Attribute("a", "numeric"), Attribute("b", "numeric")], cols,
                   relation="ties", task="classification", group_names=("g", "rest"),
                   group_codes=(np.arange(20) >= 10).astype(np.int32))


@pytest.mark.parametrize(
    "first_rows, second_rows, winner",
    [
        # 6 positives and 1 negative below 0.5 on both: equal quality and
        # coverage, so the earlier attribute wins
        ([0, 1, 2, 3, 4, 5, 10], [4, 5, 6, 7, 8, 9, 19], 0),
        # 6+1 on the first against 9+4 on the second: P = N makes
        # (p - n) / sqrt(c * (20 - c)) equal, so the larger coverage wins
        ([0, 1, 2, 3, 4, 5, 10], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], 1),
    ],
    ids=["equal-coverage", "larger-coverage-later"],
)
def test_grow_breaks_ties_across_attributes(first_rows, second_rows, winner):
    ds = _tie_dataset(first_rows, second_rows)
    params = MiningParams(minsupps=(0.5,), max_neg2pos=1.0, penalty_strength=0.0)
    pos = ds.group_mask("g")
    got = grow(ds, "g", pos, params)
    want = naive_grow(ds, "g", params, pos)
    assert condition_tuples(got.conditions) == condition_tuples(want)
    assert got.conditions[0] == Condition(winner, LT, 0.5)


def _mixed_tie_dataset(numeric_at, nominal_at):
    """20 rows, rows 0-9 in group "g"; attributes alternate numeric, nominal,
    numeric, nominal. The numeric one at ``numeric_at`` is 0 on rows 0-5 and
    10, else 1; the nominal one at ``nominal_at`` is category 0 on rows 4-9
    and 19, else 1. The other two are constant, so they offer no candidate.
    """
    cols = []
    for ai in range(4):
        numeric = ai % 2 == 0
        col = np.ones(20) if numeric else np.ones(20, dtype=np.int32)
        if ai == numeric_at:
            col[[0, 1, 2, 3, 4, 5, 10]] = 0.0
        elif ai == nominal_at:
            col[[4, 5, 6, 7, 8, 9, 19]] = 0
        cols.append(col)
    attrs = [Attribute(f"a{ai}", "numeric") if ai % 2 == 0 else Attribute(f"a{ai}", "nominal", ("u", "v"))
             for ai in range(4)]
    return DataSet(attrs, cols, relation="mixed ties", task="classification",
                   group_names=("g", "rest"), group_codes=(np.arange(20) >= 10).astype(np.int32))


@pytest.mark.parametrize(
    "numeric_at, nominal_at, winner",
    # 6 positives and 1 negative on either side 0: equal quality and coverage
    [(0, 1, Condition(0, LT, 0.5)), (2, 1, Condition(1, EQ, 0))],
    ids=["numeric-first", "nominal-first"],
)
def test_grow_breaks_ties_across_attribute_kinds(numeric_at, nominal_at, winner):
    ds = _mixed_tie_dataset(numeric_at, nominal_at)
    params = MiningParams(minsupps=(0.5,), max_neg2pos=1.0, penalty_strength=0.0)
    pos = ds.group_mask("g")
    got = grow(ds, "g", pos, params)
    want = naive_grow(ds, "g", params, pos)
    assert condition_tuples(got.conditions) == condition_tuples(want)
    assert got.conditions[0] == winner


# sha256 of the CSV report of one mine_group at the single level 0.1, whose
# first premise grows past 100 conditions before prune cuts it
_LONG_PREMISE_CSV_SHA256 = "d71318341db6551e13fce3b936db245aa6f5c5c22e6c004794fa80218eb69d0f"


def test_long_premise_report_is_pinned(monkeypatch):
    lengths = []
    grow_ = induction._grow

    def recording(ctx):
        grown = grow_(ctx)
        lengths.append(0 if grown is None else len(grown.conditions))
        return grown

    monkeypatch.setattr(induction, "_grow", recording)
    ds = continuous(2204, 500, 12)
    text = write_csv_report({"A": mine_group(ds, "A", MiningParams(minsupps=(0.1,)))}, ds)
    assert lengths[0] >= 100
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _LONG_PREMISE_CSV_SHA256


# sha256 of the CSV report of mine_all on the 2,000 x 12 continuous case,
# whose first premises run to hundreds of conditions
_HEADLINE_2K_CSV_SHA256 = "b0ffefedb90d0715b45a40adf79829a67d99d1528df3b97ac680ee02628ccdca"


def test_headline_2k_report_is_pinned():
    ds = continuous(2204, 2000, 12)
    text = write_csv_report(mine_all(ds, workers=1), ds)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _HEADLINE_2K_CSV_SHA256


# sha256 of the CSV report of mine_all on 1,200 rows of bimodal survival data
# whose times are all distinct, so the log-rank grid has a column per row
_DISTINCT_TIME_SURVIVAL_CSV_SHA256 = "5c8a2d469396b8ea9d3dc1052cafe2fdd111d09f22c3e223da0d357eb256ed8d"


def test_distinct_time_survival_report_is_pinned():
    base = bimodal_survival(2204, 1200)
    n = base.n_examples
    ds = DataSet(base.attributes, [base.column(i) for i in range(len(base.attributes))],
                 relation=base.relation, task="survival", group_names=base.group_names,
                 group_codes=base.group_codes, times=base.times + np.random.default_rng(1).uniform(0, 0.01, n),
                 status=base.status)
    assert np.unique(ds.times).size == n
    text = write_csv_report(mine_all(ds, workers=1), ds)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _DISTINCT_TIME_SURVIVAL_CSV_SHA256


def test_prune_memory_does_not_grow_with_premise_length():
    # conditions that each drop a few rows; prune is handed their coverage,
    # so what it allocates on top must not scale with their number
    ds = continuous(1, 20_000, 12)
    ctx = induction._Context.build(ds, "A", MiningParams(max_neg2pos=1.0), "correlation")
    rng = np.random.default_rng(0)

    def prune_peak(k):
        conds = [
            Condition(int(ai), GE, float(np.quantile(ds.column(int(ai)), q)))
            for ai, q in zip(rng.integers(0, 12, k), rng.uniform(0.0, 0.02, k))
        ]
        grown = induction._Grown(conds, cover(ContrastSet(tuple(conds), "A"), ds))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            induction._prune(ctx, grown)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    short, long = prune_peak(15), prune_peak(150)
    assert long < 2 * short


def test_grown_premise_holds_no_mask_per_condition():
    # the first grow at level 0.1 runs to hundreds of conditions; what it
    # leaves allocated is its conditions and one coverage mask
    ds = continuous(2204, 2000, 12)
    ctx = induction._Context.build(ds, "A", MiningParams(), "correlation", minsupp_all=0.1)
    ctx.presort()  # the context's own arrays, which the first sweep would build
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grown = induction._grow(ctx)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(grown.conditions) >= 300
    assert held < len(grown.conditions) * ds.n_examples / 4


# ---------------------------------------------------------------------------
# grow gates and invariants

def test_grow_fails_when_pool_below_gate():
    ds = generate_synthetic()
    params = MiningParams()
    empty = np.zeros(ds.n_examples, dtype=bool)
    assert grow(ds, "red", empty, params) is None
    # 16 of 170 reds is just under the 10% default
    few = np.zeros(ds.n_examples, dtype=bool)
    few[np.flatnonzero(ds.group_mask("red"))[:16]] = True
    assert grow(ds, "red", few, params) is None


def test_grow_checks_neg2pos_only_after_exhaustion():
    # both split halves mix the groups 1:1, so growing succeeds on support
    # but the fully grown premise fails the negative-to-positive ceiling
    attrs = (Attribute("x", "numeric"),)
    ds = DataSet(attrs, [np.array([1.0, 1.0, 2.0, 2.0])], relation="r",
                 task="classification", group_names=("r", "b"),
                 group_codes=np.array([0, 1, 0, 1], dtype=np.int32))
    params = MiningParams(minsupps=(0.5,), max_neg2pos=0.5)
    assert grow(ds, "r", ds.group_mask("r"), params) is None
    relaxed = MiningParams(minsupps=(0.5,), max_neg2pos=1.0)
    got = grow(ds, "r", ds.group_mask("r"), relaxed)
    assert got is not None
    assert condition_tuples(got.conditions) == [(0, "lt", 1.5)]


def test_grow_coverage_strictly_shrinks():
    for seed in range(4):
        ds = random_classification(seed + 300, n_min=60, n_max=200)
        params = MiningParams(minsupps=(0.2,), max_neg2pos=1.0)
        for group in ds.groups:
            got = grow(ds, group, ds.group_mask(group), params, minsupp_all=0.2)
            if got is None:
                continue
            prev = ds.n_examples
            for k in range(1, len(got.conditions) + 1):
                cur = np.count_nonzero(cover(ContrastSet(got.conditions[:k], group), ds))
                assert cur < prev
                prev = cur


def test_grow_ignores_penalty_history_when_strength_zero():
    for seed in range(3):
        ds = random_classification(seed + 400, n_min=40, n_max=150)
        params = MiningParams(minsupps=(0.2,), penalty_strength=0.0)
        rng = np.random.default_rng(seed)
        group = ds.groups[0]
        pos = ds.group_mask(group)
        loaded = _random_penalty(rng, len(ds.attributes))
        a = grow(ds, group, pos, params, penalty=loaded, minsupp_all=0.2)
        b = grow(ds, group, pos, params, minsupp_all=0.2)
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert condition_tuples(a.conditions) == condition_tuples(b.conditions)


def test_prune_single_condition_unchanged():
    ds = generate_synthetic()
    cs = ContrastSet((Condition(2, "eq", 1),), "red")
    assert prune(cs, ds, MiningParams()) is cs


def _modified_quality_of_premise(ds, cs, params, penalty):
    from conftest import _naive_modifier, _naive_raw_quality
    pos = ds.group_mask(cs.group)
    P, N = int(pos.sum()), int((~pos).sum())
    raw_q = _naive_raw_quality(ds, params, pos, P, N)
    mask = cover(cs, ds)
    p, n = int((mask & pos).sum()), int((mask & ~pos).sum())
    q = raw_q(mask, p, n)
    pi = penalty.premise_penalty(cs.attribute_indices)
    m = _naive_modifier(params.penalty_strength, params.reward_saturation, pi,
                        p, int((mask & pos).sum()))
    return q * m if q >= 0 else q / m, q


def test_prune_never_worsens_quality():
    """Pruning maximizes the penalized quality, so that value never drops.

    The raw measure is only guaranteed without penalties: under a loaded
    penalty state, dropping a heavily penalized condition can trade raw
    quality for penalized quality (e.g. s*pi at 1 floors the multiplier,
    and shedding that attribute is the right move). So the raw assertion
    applies to the s = 0 cases only.
    """
    for seed in range(6):
        ds = random_classification(seed + 500, n_min=50, n_max=200)
        rng = np.random.default_rng(seed)
        params = MiningParams(minsupps=(0.2,), max_neg2pos=1.0,
                              penalty_strength=float(rng.choice([0.0, 0.5, 1.0])))
        group = ds.groups[0]
        pen = _random_penalty(rng, len(ds.attributes))
        got = grow(ds, group, ds.group_mask(group), params, penalty=pen, minsupp_all=0.2)
        if got is None or len(got.conditions) < 2:
            continue
        pruned = prune(got, ds, params, penalty=pen)
        before_mod, before_raw = _modified_quality_of_premise(ds, got, params, pen)
        after_mod, after_raw = _modified_quality_of_premise(ds, pruned, params, pen)
        assert after_mod >= before_mod - 1e-12
        if params.penalty_strength == 0.0:
            assert after_raw >= before_raw - 1e-12


def test_prune_never_worsens_raw_quality_without_penalties():
    for seed in range(8):
        ds = random_classification(seed + 520, n_min=50, n_max=200)
        params = MiningParams(minsupps=(0.2,), max_neg2pos=1.0, penalty_strength=0.0)
        for group in ds.groups[:2]:
            got = grow(ds, group, ds.group_mask(group), params, minsupp_all=0.2)
            if got is None or len(got.conditions) < 2:
                continue
            pen = PenaltyState(len(ds.attributes))
            pruned = prune(got, ds, params)
            _, before_raw = _modified_quality_of_premise(ds, got, params, pen)
            _, after_raw = _modified_quality_of_premise(ds, pruned, params, pen)
            assert after_raw >= before_raw - 1e-12


# ---------------------------------------------------------------------------
# mining driver on the synthetic benchmark

def test_single_pass_without_penalties():
    ds = generate_synthetic()
    params = MiningParams(minsupps=(0.1,), max_passes=1, penalty_strength=0.0)
    sets = mine_group(ds, "red", params)
    assert [render_conditions(a.contrast_set, ds) for a in sets] == ["a3 = 2", "a3 = 1"]
    assert [(a.p, a.n, a.p_new) for a in sets] == [(77, 0, 77), (85, 6, 85)]
    assert sets[0].quality == pytest.approx(0.57457, abs=5e-6)
    assert sets[1].quality == pytest.approx(0.56713, abs=5e-6)
    joint = cover(sets[0].contrast_set, ds) | cover(sets[1].contrast_set, ds)
    covered_red = np.count_nonzero(joint & ds.group_mask("red"))
    assert covered_red == 162


def test_penalties_diversify_passes():
    ds = generate_synthetic()
    from csmine.induction import MiningEvent  # noqa: F401  (re-exported check)
    events = []
    sets = mine_group(ds, "red", MiningParams(minsupps=(0.1,)), events=events)
    texts = [render_conditions(a.contrast_set, ds) for a in sets]
    assert texts == [
        "a3 = 2",
        "a3 = 1",
        "a1 in (-inf, 1.7000000000000002)",
        "a2 in [3.5999999999999996, inf)",
    ]
    assert [a.pass_index for a in sets] == [1, 1, 2, 3]
    # numeric-only sets appear once the nominal attribute is penalized
    assert all(c.attr_index != 2 for a in sets[2:] for c in a.contrast_set.conditions)

    dup = [e for e in events if e.duplicate]
    assert len(dup) == 4
    assert [(e.pass_index, render_conditions(e.contrast_set, ds)) for e in dup] == [
        (2, "a3 = 2"), (3, "a3 = 2"),
        (4, "a1 in (-inf, 1.7000000000000002)"), (4, "a3 = 2"),
    ]
    # every acceptance, duplicate or not, advances the usage counters
    assert [e.usage_total_after for e in events] == list(range(1, 9))
    assert events[-1].usage_after == (2, 1, 5)
    for e in events:
        assert e.usage_total_after == sum(e.usage_after)


LADDER_SNAPSHOT_RED = [
    ("a3 != 3 AND a3 != 4", 0.8, 1, 162, 6, 162),
    ("a3 = 1", 0.5, 1, 85, 6, 85),
    ("a1 in (-inf, 2.0) AND a2 in [2.4000000000000004, inf)", 0.5, 2, 85, 24, 85),
    ("a3 = 2", 0.2, 1, 77, 0, 77),
    ("a1 in (-inf, 1.7000000000000002)", 0.2, 2, 83, 6, 83),
    ("a2 in [3.5999999999999996, inf)", 0.2, 3, 73, 6, 73),
    ("a1 in (-inf, 2.8) AND a2 in [2.4000000000000004, inf)", 0.2, 3, 93, 54, 20),
]


def test_default_ladder_snapshot():
    ds = generate_synthetic()
    res = mine_all(ds)
    assert set(res) == {"red", "blue"}
    got = [
        (render_conditions(a.contrast_set, ds), a.minsupp_all, a.pass_index,
         a.p, a.n, a.p_new)
        for a in res["red"]
    ]
    assert got == LADDER_SNAPSHOT_RED
    assert [render_conditions(a.contrast_set, ds) for a in res["blue"]] == [
        "a3 != 1 AND a3 != 2"
    ]
    assert (res["blue"][0].p, res["blue"][0].n) == (244, 8)


# ---------------------------------------------------------------------------
# annotation invariants on randomized data

def _check_annotations(ds, params, sets, events):
    pos = ds.group_mask(sets[0].group) if sets else None
    seen = set()
    per_pass = {}
    bound = math.floor(1.0 / params.minsupp_new)
    for a in sets:
        canon = canonicalize(a.contrast_set)
        assert canon.conditions == a.contrast_set.conditions  # stored canonical
        key = canon.key()
        assert key not in seen  # duplicates never reach the pool
        seen.add(key)
        cm = count_confusion(cover(canon, ds), pos)
        assert (cm.p, cm.n) == (a.p, a.n)
        assert (cm.P, cm.N) == (a.P, a.N)
        assert a.p / a.P >= a.minsupp_all - 1e-12
        assert a.p_new / a.P >= params.minsupp_new - 1e-12
        assert (a.n * a.P) / (a.p * a.N) <= params.max_neg2pos + 1e-12 if a.N else True
        assert 0.0 <= a.redundancy <= 1.0
        if params.measure in (None, "correlation") and ds.task == "classification":
            assert a.quality == correlation(cm)
    for e in events:
        per_pass.setdefault((e.minsupp_all, e.pass_index), 0)
        per_pass[(e.minsupp_all, e.pass_index)] += 1
    for count in per_pass.values():
        assert count <= bound
    # redundancy annotations replay the literal definition
    for i, a in enumerate(sets):
        value, index = redundancy_oracle(a.contrast_set, [s.contrast_set for s in sets[:i]], pos, ds)
        assert a.redundancy == value
        assert a.redundancy_with == index


def test_mine_group_annotations_randomized():
    for seed in range(6):
        ds = random_classification(seed + 600, n_min=60, n_max=250)
        params = MiningParams(minsupps=(0.5, 0.2, 0.1))
        for group in ds.groups[:2]:
            events = []
            sets = mine_group(ds, group, params, events=events)
            if sets:
                _check_annotations(ds, params, sets, events)


def test_mine_group_is_deterministic():
    ds = random_classification(777, n_min=100, n_max=250)
    params = MiningParams()
    a = mine_group(ds, ds.groups[0], params)
    b = mine_group(ds, ds.groups[0], params)
    assert a == b


def test_mine_group_unknown_group():
    ds = generate_synthetic()
    with pytest.raises(KeyError, match="no group named"):
        mine_group(ds, "green")


# ---------------------------------------------------------------------------
# mine_all modes and workers

def test_mine_all_one_vs_one_restricts_universe():
    ds = random_classification(881, n_min=90, n_max=250, n_groups=3)
    sizes = {g: np.count_nonzero(ds.group_mask(g)) for g in ds.groups}
    params = MiningParams(mode="one-vs-one", negative_group=ds.groups[2],
                          minsupps=(0.2, 0.1))
    res = mine_all(ds, params)
    assert set(res) == set(ds.groups[:2])
    for g, sets in res.items():
        for a in sets:
            assert a.P == sizes[g]
            assert a.N == sizes[ds.groups[2]]  # the rest of the data is gone
    # one-vs-all sees every other example as negative
    res_all = mine_all(ds, MiningParams(minsupps=(0.2, 0.1)))
    for g, sets in res_all.items():
        for a in sets:
            assert a.N == ds.n_examples - sizes[g]


def test_mine_all_mode_errors():
    ds = generate_synthetic()
    with pytest.raises(ValueError, match="needs negative_group"):
        mine_all(ds, MiningParams(mode="one-vs-one"))
    with pytest.raises(KeyError, match="no group named"):
        mine_all(ds, MiningParams(mode="one-vs-one", negative_group="green"))
    with pytest.raises(ValueError, match="cannot also be"):
        mine_all(ds, MiningParams(mode="one-vs-one", negative_group="blue"),
                 groups=["red", "blue"])
    with pytest.raises(KeyError, match="no group named"):
        mine_all(ds, groups=["green"])
    single = ds.subset(ds.group_mask("red"))
    with pytest.raises(ValueError, match="at least two groups"):
        mine_all(single)


def test_mine_all_workers_match_sequential():
    ds = generate_synthetic()
    seq = mine_all(ds, workers=1)
    par = mine_all(ds, workers=2)
    assert seq == par


def test_workers_env_default(monkeypatch):
    ds = generate_synthetic()
    monkeypatch.setenv("CSMINE_WORKERS", "2")
    assert mine_all(ds) == mine_all(ds, workers=1)


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_a_pool_is_started_through_concurrent_futures(monkeypatch):
    # mine_all imports the pool when it starts one, so the tests below that
    # refuse a pool patch it where mine_all looks it up
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    with pytest.raises(AssertionError, match="a process pool was started"):
        mine_all(generate_synthetic(), workers=2)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_workers_env_rejects_bad_values(monkeypatch, value):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(induction, "mine_group", _no_pool)
    monkeypatch.setenv("CSMINE_WORKERS", value)
    with pytest.raises(ValueError, match=f"CSMINE_WORKERS .*got '{re.escape(value)}'"):
        mine_all(generate_synthetic())


def test_workers_argument_rejects_values_below_one(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(induction, "mine_group", _no_pool)
    # int() would run 2.7 as 2 processes, and 1.5, True or False as 1 or 0
    for workers in (0, -2, 2.7, 1.5, True, False, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"workers must be .* got {re.escape(repr(workers))}"):
            mine_all(generate_synthetic(), workers=workers)


# ---------------------------------------------------------------------------
# metamorphic properties: the sweep's order semantics

_MINE_PARAMS = MiningParams(minsupps=(0.5, 0.2, 0.1))


@pytest.mark.parametrize("make", [random_classification, random_regression, random_survival],
                         ids=["classification", "regression", "survival"])
def test_mining_is_invariant_under_row_permutation(make):
    emitted = 0
    for seed in range(6):
        ds = make(seed + 1100, n_min=40, n_max=120)
        perm = np.random.default_rng(seed).permutation(ds.n_examples)
        base = mine_all(ds, _MINE_PARAMS)
        assert mine_all(ds.subset(perm), _MINE_PARAMS) == base
        emitted += sum(map(len, base.values()))
    assert emitted >= 30


# Survival is left out: the log-rank statistic grows with the sample, so
# duplicating every row changes the qualities, and the premises can follow.
@pytest.mark.parametrize("make", [random_classification, random_regression],
                         ids=["classification", "regression"])
def test_duplicating_rows_doubles_counts_and_keeps_premises(make):
    emitted = 0
    for seed in range(6):
        ds = make(seed + 1200, n_min=40, n_max=120)
        twice = ds.subset(np.tile(np.arange(ds.n_examples), 2))
        base, doubled = mine_all(ds, _MINE_PARAMS), mine_all(twice, _MINE_PARAMS)
        assert list(doubled) == list(base)
        for group, sets in base.items():
            # same premises, qualities and redundancies; every count doubles
            want = [replace(s, p=2 * s.p, n=2 * s.n, p_new=2 * s.p_new, P=2 * s.P, N=2 * s.N)
                    for s in sets]
            assert doubled[group] == want
            emitted += len(sets)
    assert emitted >= 30


def _exponent_range(ds):
    """Lowest and highest j for which scaling by 2**j is exact on ``ds``: no
    numeric cell, half-sum of two cells of a column or survival time
    overflows, and none that is nonzero becomes subnormal. Sums of two cells
    may overflow; the sweep halves before adding there. The 1.0 keeps 2**j
    itself normal."""
    parts = [np.ones(1)] if ds.times is None else [np.ones(1), ds.times]
    for ai, attr in enumerate(ds.attributes):
        if attr.is_numeric:
            col = ds.column(ai)[~np.isnan(ds.column(ai))]
            parts += [col, ((col[:, None] + col[None, :]) / 2.0).ravel()]
    values = np.abs(np.concatenate(parts))
    _, exp = np.frexp(values[values > 0.0])  # value = m * 2**exp, 0.5 <= m < 1
    return -1021 - int(exp.min()), 1024 - int(exp.max())


def _scaled(ds, j):
    """``ds`` with every numeric column, and survival times, scaled by 2**j."""
    cols = [np.ldexp(ds.column(ai), j) if attr.is_numeric else ds.column(ai)
            for ai, attr in enumerate(ds.attributes)]
    return ds._replace(columns=cols, times=None if ds.times is None else np.ldexp(ds.times, j))


def _scaled_sets(mined, ds, j):
    """Mined sets with every numeric threshold scaled by 2**j, and quality and
    redundancy as their bits."""
    out = {}
    for group, sets in mined.items():
        out[group] = [
            (tuple((c.attr_index, c.op, float(np.ldexp(c.value, j))
                    if ds.attributes[c.attr_index].is_numeric else c.value)
                   for c in s.contrast_set.conditions),
             replace(s, contrast_set=None, quality=s.quality.hex(), redundancy=s.redundancy.hex()))
            for s in sets
        ]
    return out


@settings(max_examples=24, deadline=None)
@given(st.sampled_from([random_classification, random_regression, random_survival]),
       st.integers(0, 39), st.data())
def test_scaling_by_a_power_of_two_scales_only_the_thresholds(make, seed, data):
    # 2**j scaling is exact and keeps the order of every cell and time, so
    # the same conditions must be mined at scaled thresholds, with the same
    # counts, qualities and redundancies bit for bit
    ds = make(seed + 1300, n_min=40, n_max=120)
    lo, hi = _exponent_range(ds)
    j = data.draw(st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi)), label="j")
    base = mine_all(ds, _MINE_PARAMS, workers=1)
    assert _scaled_sets(mine_all(_scaled(ds, j), _MINE_PARAMS, workers=1), ds, 0) == (
        _scaled_sets(base, ds, j)
    )
