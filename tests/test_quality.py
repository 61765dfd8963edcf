"""Quality measures: correlation, regression consistency, survival statistics."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csmine.contrast import ConfusionMatrix
from csmine.data import Attribute, DataSet, derive_groups_survival
from csmine.quality import (
    _LogRankScorer,
    correlation,
    km_estimate,
    log_rank,
    measure_for_task,
    regression_consistency,
    survival_consistency,
)

from csmine import quality

from conftest import (
    bimodal_survival,
    km_oracle,
    log_rank_float_reference,
    log_rank_oracle,
    log_rank_rows_reference,
    random_survival,
    split_scores_reference,
    with_status,
)
from test_acceptance import SURVIVAL_SAMPLES


# ---------------------------------------------------------------------------
# correlation

def test_correlation_worked_value():
    cm = ConfusionMatrix(p=80, n=10, P=100, N=200)
    want = 15000 / math.sqrt(378000000)
    assert correlation(cm) == want


def test_correlation_degenerate_cases():
    assert correlation(ConfusionMatrix(0, 0, 10, 20)) == 0.0
    assert correlation(ConfusionMatrix(10, 20, 10, 20)) == 0.0
    assert correlation(ConfusionMatrix(0, 0, 0, 0)) == 0.0


def _correlation_grid(P, N):
    p = np.arange(P + 1, dtype=np.float64).reshape(-1, 1)
    n = np.arange(N + 1, dtype=np.float64).reshape(1, -1)
    num = p * N - P * n
    den = P * N * (p + n) * (P - p + N - n)
    with np.errstate(invalid="ignore", divide="ignore"):
        grid = np.where(den > 0, num / np.sqrt(den), 0.0)
    return grid, num, den


def test_correlation_grid_properties():
    """Monotonicity, negation symmetry, and the confirmation property over
    every (p, n) grid with P, N up to 50."""
    for P in range(1, 51):
        for N in range(1, 51):
            grid, num, den = _correlation_grid(P, N)
            live = den > 0
            # strictly increasing in p where neighbours are non-degenerate
            both = live[:-1, :] & live[1:, :]
            assert (np.diff(grid, axis=0) > 0)[both].all()
            # strictly decreasing in n
            both = live[:, :-1] & live[:, 1:]
            assert (np.diff(grid, axis=1) < 0)[both].all()
            # value(P-p, N-n) == -value(p, n), exactly
            assert np.array_equal(grid[::-1, ::-1], -grid)
            # sign agrees with p/(p+n) versus P/(P+N)
            assert np.array_equal(np.sign(grid[live]), np.sign(num[live]))


def test_correlation_grid_matches_scalar_function():
    rng = np.random.default_rng(0)
    for _ in range(300):
        P, N = int(rng.integers(1, 51)), int(rng.integers(1, 51))
        p, n = int(rng.integers(0, P + 1)), int(rng.integers(0, N + 1))
        grid, _, _ = _correlation_grid(P, N)
        assert correlation(ConfusionMatrix(p, n, P, N)) == grid[p, n]


def test_correlation_rounds_like_the_sweep_above_exact_products():
    # past 19,484 rows, P*N*(p+n)*(P-p+N-n) can exceed 2**53; the reported
    # quality then rounds the same float64 products as the candidate sweep
    cm = ConfusionMatrix(p=135883, n=278254, P=185454, N=278869)
    p, n, P, N = (float(x) for x in (cm.p, cm.n, cm.P, cm.N))
    want = (p * N - P * n) / math.sqrt(P * N * (p + n) * (P - p + N - n))
    assert want == -0.4181656486759722
    assert correlation(cm) == want
    assert quality._correlation(np.array([cm.p]), np.array([cm.n]), cm.P, cm.N)[0] == want


# ---------------------------------------------------------------------------
# regression consistency

def _reg_ds(values, labels, codes):
    attrs = (Attribute("a", "numeric"),)
    return DataSet(attrs, [np.asarray(values, dtype=np.float64)], task="regression",
                   labels=np.asarray(labels, dtype=np.float64),
                   group_names=("g1", "g2"),
                   group_codes=np.asarray(codes, dtype=np.int32))


def _rows(n, indices):
    mask = np.zeros(n, dtype=bool)
    mask[list(indices)] = True
    return mask


def test_regression_consistency_values():
    ds = _reg_ds([1, 2, 3, 4, 5], [1, 3, 2, 2, 2], [0, 0, 0, 0, 0])
    pos = ds.group_mask("g1")
    # covered labels {1, 3} have the same mean as the positives {1,3,2,2,2}
    assert regression_consistency(_rows(5, [0, 1]), ds, pos) == 0.0
    ds2 = _reg_ds([1, 2, 3, 4, 5], [0, 0, 2, 2, 2], [0, 0, 1, 1, 1])
    pos2 = ds2.group_mask("g2")
    # covered mean 0 vs positive mean 2
    assert regression_consistency(_rows(5, [0, 1]), ds2, pos2) == -2.0
    # the measure is never positive
    assert regression_consistency(_rows(5, [2, 3, 4]), ds2, pos2) == 0.0


def test_regression_consistency_errors():
    ds = _reg_ds([1, 2], [1, 2], [0, 1])
    with pytest.raises(ValueError, match="non-empty"):
        regression_consistency(np.zeros(2, dtype=bool), ds, ds.group_mask("g1"))
    no_labels = DataSet((Attribute("a", "numeric"),), [np.array([1.0])],
                        group_names=("g",), group_codes=np.zeros(1, dtype=np.int32))
    with pytest.raises(ValueError, match="no regression labels"):
        regression_consistency(np.ones(1, dtype=bool), no_labels, np.ones(1, dtype=bool))


# ---------------------------------------------------------------------------
# Kaplan-Meier

KM_CASES = [
    # (observations, times, probs, at_risk, events)
    ([(1, 1), (2, 1), (3, 1)],
     (1, 2, 3), (Fraction(2, 3), Fraction(1, 3), Fraction(0)), (3, 2, 1), (1, 1, 1)),
    ([(1, 1), (1, 1), (2, 0), (3, 1)],
     (1, 3), (Fraction(1, 2), Fraction(0)), (4, 1), (2, 1)),
    ([(2, 0), (2, 1), (4, 1), (5, 0)],
     (2, 4), (Fraction(3, 4), Fraction(3, 8)), (4, 2), (1, 1)),
    ([(0, 1), (1, 0), (1, 1), (1, 1), (2, 1), (2, 0), (3, 1), (3, 0), (3, 1), (7, 1)],
     (0, 1, 2, 3, 7),
     (Fraction(9, 10), Fraction(7, 10), Fraction(7, 12), Fraction(7, 24), Fraction(0)),
     (10, 9, 6, 4, 1), (1, 2, 1, 2, 1)),
    ([(5, 1)], (5,), (Fraction(0),), (1,), (1,)),
]


@pytest.mark.parametrize("obs,times,probs,at_risk,events", KM_CASES)
def test_km_hand_tables(obs, times, probs, at_risk, events):
    curve = km_estimate(obs)
    np.testing.assert_array_equal(curve.times, times)
    np.testing.assert_array_equal(curve.at_risk, at_risk)
    np.testing.assert_array_equal(curve.events, events)
    assert curve.probabilities == pytest.approx([float(f) for f in probs], rel=1e-12)
    # the counting oracle agrees row for row
    oracle = km_oracle(obs)
    assert [r[0] for r in oracle] == list(curve.times)
    assert [r[2] for r in oracle] == list(curve.at_risk)
    assert [r[3] for r in oracle] == list(curve.events)
    for r, got in zip(oracle, curve.probabilities):
        assert got == pytest.approx(float(r[1]), rel=1e-12, abs=1e-15)


def test_km_all_censored_and_lookup():
    curve = km_estimate([(1, 0), (2, 0)])
    assert len(curve.times) == 0
    assert curve.survival_at(0) == 1.0
    assert curve.survival_at(100) == 1.0
    stepped = km_estimate([(2, 0), (2, 1), (4, 1), (5, 0)])
    assert stepped.survival_at(1.9) == 1.0
    assert stepped.survival_at(2) == 0.75
    assert stepped.survival_at(3.9) == 0.75
    assert stepped.survival_at(4) == 0.375
    assert stepped.survival_at(100) == 0.375


def test_km_is_nonincreasing_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        obs = list(zip(rng.integers(0, 12, n).tolist(), rng.integers(0, 2, n).tolist()))
        curve = km_estimate(obs)
        probs = np.asarray(curve.probabilities)
        assert (np.diff(probs) <= 1e-15).all()
        assert ((probs >= -1e-15) & (probs <= 1 + 1e-15)).all()


@pytest.mark.parametrize("first", [-0.0, 0.0], ids=["negative-first", "positive-first"])
def test_km_reports_positive_zero_in_any_order(first):
    curve = km_estimate([(first, 1), (-first, 1), (1.0, 1)])
    assert curve.times == (0.0, 1.0)
    assert math.copysign(1.0, curve.times[0]) == 1.0


def test_km_validation():
    with pytest.raises(ValueError, match="0 or 1"):
        km_estimate([(1, 2)])
    with pytest.raises(ValueError, match="0 or 1"):
        km_estimate([(1.0, 1.5)])
    with pytest.raises(ValueError, match="non-negative"):
        km_estimate([(-1, 1)])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_km_rejects_non_finite_times(bad):
    with pytest.raises(ValueError, match="finite"):
        km_estimate([(bad, 1), (1.0, 1), (2.0, 0)])


# ---------------------------------------------------------------------------
# log-rank

LOG_RANK_CASES = [
    ([(1, 1), (3, 1), (5, 0)], [(2, 1), (4, 1), (6, 1)], Fraction(32, 433)),
    ([(1, 1)], [(2, 1)], Fraction(1)),
    ([(1, 1), (4, 1), (6, 0), (9, 1)], [(2, 1), (3, 0), (5, 1), (8, 0)], Fraction(2, 2413)),
    ([(1, 1), (1, 1), (2, 0)], [(1, 1), (3, 1)], Fraction(1, 9)),
    ([(1, 0)], [(2, 1)], Fraction(0)),
]


@pytest.mark.parametrize("a,b,want", LOG_RANK_CASES)
def test_log_rank_hand_values(a, b, want):
    assert log_rank(a, b) == pytest.approx(float(want), rel=1e-12, abs=1e-15)
    assert log_rank_oracle(a, b) == want  # the oracle itself is pinned too
    # symmetric in its arguments
    assert log_rank(b, a) == pytest.approx(float(want), rel=1e-12, abs=1e-15)


def test_log_rank_identical_samples_is_zero():
    sample = [(1, 1), (2, 0), (3, 1), (3, 1), (8, 0)]
    assert log_rank(sample, sample) == 0.0
    assert log_rank([], [(1, 1)]) == 0.0
    assert log_rank([(2, 0), (3, 0)], [(1, 1), (4, 1)]) >= 0.0


def test_log_rank_accepts_array_form():
    a = (np.array([1.0, 3.0, 5.0]), np.array([1, 1, 0]))
    b = (np.array([2.0, 4.0, 6.0]), np.array([1, 1, 1]))
    assert log_rank(a, b) == pytest.approx(32 / 433, rel=1e-12)
    with pytest.raises(ValueError, match="length mismatch"):
        log_rank((np.array([1.0]), np.array([1, 0])), b)


def test_log_rank_reads_a_tuple_of_pairs_as_pairs():
    b = [(1.0, 1), (1.0, 1), (3.0, 1)]
    assert log_rank(((1.0, 1), (2.0, 0)), b) == log_rank([(1.0, 1), (2.0, 0)], b)


@pytest.mark.parametrize(
    "pair, message",
    [((1.0, 2), "0 or 1"), ((-1.0, 1), "non-negative"), ((np.nan, 1), "finite")],
    ids=["status-2", "negative-time", "nan-time"],
)
def test_log_rank_applies_the_dataset_rules(pair, message):
    good = [(1.0, 1), (2.0, 0), (3.0, 1)]
    with pytest.raises(ValueError, match=message):
        log_rank(good + [pair], good)
    with pytest.raises(ValueError, match=message):
        log_rank(good, good + [pair])


@st.composite
def survival_samples(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    times = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n))
    status = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
    return list(zip(times, status))


@settings(max_examples=150, deadline=None)
@given(survival_samples(), survival_samples())
def test_log_rank_matches_fraction_oracle(a, b):
    got = log_rank(a, b)
    want = float(log_rank_oracle(a, b))
    assert got >= 0.0
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# the rank-grid scorer used inside induction

def test_scorer_matches_log_rank():
    for seed in range(6):
        ds = random_survival(seed, n_min=30, n_max=120)
        pos = ds.group_mask(ds.groups[0])
        scorer = _LogRankScorer(ds, pos)
        rng = np.random.default_rng(seed)
        pos_pairs = list(zip(ds.times[pos].tolist(), ds.status[pos].tolist()))
        for _ in range(25):
            k = int(rng.integers(0, ds.n_examples + 1))
            idx = rng.choice(ds.n_examples, size=k, replace=False)
            got = scorer.score(np.sort(idx))
            want = float(log_rank_oracle(
                list(zip(ds.times[idx].tolist(), ds.status[idx].tolist())),
                pos_pairs,
            ))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert scorer.score(np.array([], dtype=np.intp)) == 0.0


# ---------------------------------------------------------------------------
# the log-rank kernel against per-row numpy sums

def _assert_kernel_matches_reference(n1, d1, n2, d2):
    got = quality._log_rank_rows(n1, d1, n2, d2)
    want = log_rank_rows_reference(n1, d1, n2, d2)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    return got


@st.composite
def count_tables(draw):
    """(n1, d1, n2, d2) as survival scoring builds them: k samples and one
    reference sample on a grid of g times, where at-risk counts the rows at
    or after each time and events at a time are at most its rows. Small
    row counts give rows with no usable time and zero-variance rows."""
    k = draw(st.integers(1, 6))
    g = draw(st.integers(1, 40))
    top = draw(st.integers(1, 4))
    rows = draw(arrays(np.int64, (k + 1, g), elements=st.integers(0, top)))
    events = draw(arrays(np.int64, (k + 1, g), elements=st.integers(0, top)))
    n = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
    d = np.minimum(events, rows).astype(np.float64)
    return n[:-1], d[:-1], n[-1], d[-1]


@settings(max_examples=300, deadline=None)
@given(count_tables())
def test_log_rank_kernel_equals_per_row_sums(tables):
    _assert_kernel_matches_reference(*tables)


def test_log_rank_kernel_edge_rows():
    one = np.ones((1, 1), dtype=np.int64)
    # k = 1 and g = 1: one usable time with variance
    assert _assert_kernel_matches_reference(one, np.ones((1, 1)), np.ones(1, dtype=np.int64),
                                            np.zeros(1))[0] > 0.0
    # no usable time: no events anywhere, or events where nobody is at risk
    n1 = np.array([[3, 2, 0], [0, 0, 0]])
    got = _assert_kernel_matches_reference(n1, np.zeros((2, 3)), np.array([2, 1, 0]), np.zeros(3))
    assert got.tolist() == [0.0, 0.0]
    # zero variance: every usable time has n_j <= 1
    n1 = np.array([[1, 1, 0], [0, 1, 1]])
    d1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    got = _assert_kernel_matches_reference(n1, d1, np.zeros(3, dtype=np.int64), np.zeros(3))
    assert got.tolist() == [0.0, 0.0]
    # no rows at all, as a block with no wanted side gives
    empty = np.zeros((0, 3), dtype=np.int64)
    assert _assert_kernel_matches_reference(empty, empty.astype(np.float64),
                                            np.ones(3, dtype=np.int64), np.ones(3)).size == 0


def test_log_rank_kernel_long_rows():
    # numpy's pairwise sum adds fewer than 8 terms in order, up to 128 in
    # eight strided accumulators, and splits longer runs in halves; 8,192 is
    # its ufunc buffer size. Rows of usable lengths on both sides of each
    # pin every regime, alone and in one block with rows of other lengths.
    rng = np.random.default_rng(17)
    lengths = (0, 1, 7, 8, 9, 127, 128, 129, 1000, 8191, 8192, 8193, 20000)
    g = 20011
    n1 = rng.integers(1, 60, (len(lengths), g))
    n2 = rng.integers(0, 60, g)
    d1 = np.zeros((len(lengths), g))
    for i, length in enumerate(lengths):
        at = rng.choice(g, size=length, replace=False)
        d1[i, at] = rng.integers(1, n1[i, at] + 1)
    d2 = np.zeros(g)
    use = (d1 + d2 > 0) & (n1 + n2 > 0)
    assert np.count_nonzero(use, axis=1).tolist() == list(lengths)
    block = _assert_kernel_matches_reference(n1, d1, n2, d2)
    for i in range(len(lengths)):
        alone = _assert_kernel_matches_reference(n1[i:i + 1], d1[i:i + 1], n2, d2)
        assert alone.tobytes() == block[i:i + 1].tobytes()
    assert (block[1:] > 0.0).all()


def _block_datasets():
    for seed in range(3):
        ds = random_survival(seed, n_min=40, n_max=120)
        # rows low on the first attribute lose their events, so the low
        # splits of that attribute cover all-censored samples
        col = ds.column(0).astype(np.float64)
        yield with_status(ds, np.where(col <= np.nanmedian(col), 0, ds.status))
    yield bimodal_survival(seed=3, n=200)
    # distinct times: sides of the first splits have more than 128 usable
    # times, so their sums take more than one pairwise block
    rng = np.random.default_rng(11)
    n = 300
    x = np.round(rng.normal(size=n), 2)
    stage = rng.integers(0, 3, n).astype(np.int32)
    times = rng.exponential(np.where(x > 0.0, 4.0, 12.0))
    yield derive_groups_survival(DataSet(
        (Attribute("x", "numeric"), Attribute("stage", "nominal", ("I", "II", "III"))), [x, stage],
        relation="distinct", task="survival", times=times,
        status=(rng.random(n) < 0.8).astype(np.int8),
    ))


def _splits(ds, cov, ai, rng):
    """Block-scan arguments for every split of one attribute over ``cov``.

    Returns (rows, seg, want, cumulative, sides), where sides lists the row
    indices of each split's two sides. Numeric splits cut the sorted rows
    before every position, the empty prefix and the full set included;
    nominal splits take every domain value, unobserved ones included.
    """
    idx = np.flatnonzero(cov)
    col = ds.column(ai)[idx]
    if ds.attributes[ai].is_numeric:
        rows = idx[~np.isnan(col)]
        rows = rows[np.argsort(ds.column(ai)[rows], kind="stable")]
        cuts = np.arange(rows.size + 1)
        seg = np.searchsorted(cuts, np.arange(rows.size), side="right")
        sides = [(rows[:c], rows[c:]) for c in cuts]
        cumulative = True
    else:
        known = col >= 0
        order = np.argsort(col[known], kind="stable")
        rows, seg = idx[known][order], col[known][order].astype(np.int64)
        values = range(len(ds.attributes[ai].domain))
        sides = [(rows[seg == v], rows[seg != v]) for v in values]
        cumulative = False
    want = rng.random((len(sides), 2)) < 0.8
    want[0] = True
    want[-1] = True
    return rows, seg, want, cumulative, sides


@pytest.mark.parametrize("block_elements", [None, 1, "three-splits"])
def test_block_scan_matches_score_exactly(monkeypatch, block_elements):
    # the per-attribute block scan, kept as the step scorer's reference in
    # conftest, must itself score every side as score() does.
    # At the default ceiling (None) an attribute's splits take one block,
    # or two on the distinct-time data's full coverage; 1 puts one split in
    # each block, and three-splits carries counts between blocks of three
    if block_elements == 1:
        monkeypatch.setattr(quality, "_BLOCK_ELEMENTS", 1)
    rng = np.random.default_rng(5)
    seen = {"numeric": 0, "nominal": 0, "empty": 0, "censored": 0, "long": 0}
    for ds in _block_datasets():
        for group in ds.groups:
            pos = ds.group_mask(group)
            scorer = _LogRankScorer(ds, pos)
            if block_elements == "three-splits":
                monkeypatch.setattr(quality, "_BLOCK_ELEMENTS", 3 * scorer.grid.size)
            for cov in (np.ones(ds.n_examples, dtype=bool), rng.random(ds.n_examples) < 0.6):
                for ai, attr in enumerate(ds.attributes):
                    rows, seg, want, cumulative, sides = _splits(ds, cov, ai, rng)
                    got = split_scores_reference(scorer, rows, seg, want, cumulative)
                    wanted = [s for pair, w in zip(sides, want) for s, keep in zip(pair, w) if keep]
                    expect = np.array([scorer.score(s) for s in wanted])
                    assert np.array_equal(got, expect)
                    reference = np.array([
                        log_rank_float_reference(ds.times[s], ds.status[s], ds.times[pos],
                                                 ds.status[pos], scorer.grid)
                        for s in wanted
                    ])
                    assert np.array_equal(got, reference)
                    seen["numeric" if attr.is_numeric else "nominal"] += len(wanted)
                    seen["empty"] += sum(s.size == 0 for s in wanted)
                    seen["censored"] += sum(s.size > 0 and not ds.status[s].any() for s in wanted)
                    seen["long"] += sum(_usable_times(ds, s, pos) > 128 for s in wanted)
    assert min(seen.values()) >= 20, seen


def _usable_times(ds, side, pos):
    """Grid times with an event in ``side`` or ``pos`` and someone at risk."""
    events = np.concatenate((ds.times[side][ds.status[side] == 1], ds.times[pos][ds.status[pos] == 1]))
    return np.unique(events).size


def test_survival_consistency_is_negated_log_rank():
    ds = random_survival(3, n_min=30, n_max=80)
    pos = ds.group_mask(ds.groups[0])
    cov = _rows(ds.n_examples, np.arange(0, ds.n_examples, 2))
    got = survival_consistency(cov, ds, pos)
    want = -log_rank(
        (ds.times[cov], ds.status[cov]),
        (ds.times[pos], ds.status[pos]),
    )
    assert got == want
    assert survival_consistency(pos, ds, pos) == 0.0


def test_survival_consistency_requires_survival_columns():
    ds = _reg_ds([1, 2], [1, 2], [0, 1])
    with pytest.raises(ValueError, match="no survival columns"):
        survival_consistency(np.ones(2, dtype=bool), ds, ds.group_mask("g1"))


# ---------------------------------------------------------------------------
# bit pins: sha256 of the repr of every survival value below

def _pin_samples():
    """KM_CASES, the criterion-2 samples and 200 seeded random samples with
    integer, rounded and continuous times, as (time, status) pairs."""
    samples = [obs for obs, *_ in KM_CASES] + list(SURVIVAL_SAMPLES)
    rng = np.random.default_rng(20221)
    for i in range(200):
        n = int(rng.integers(1, 40))
        times = (rng.integers(0, 15, n).astype(np.float64), np.round(rng.exponential(5.0, n), 1),
                 rng.exponential(5.0, n))[i % 3]
        status = (rng.random(n) < 0.6).astype(np.int64)
        samples.append(list(zip(times.tolist(), status.tolist())))
    return samples


def _sha(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_km_and_log_rank_values_are_pinned():
    samples = _pin_samples()
    assert _sha([km_estimate(s) for s in samples]) == (
        "a4be11de12534cd54e7b0eb68b3135a3b6a64837e94b51ae25b09d0616e7f5e3"
    )
    assert _sha([log_rank(a, b) for a in samples for b in samples]) == (
        "d2a727db9f26e1b696b20ebc007a67f9fd7faffd16fec49690bece81a5f27416"
    )


def test_survival_consistency_values_are_pinned():
    values = []
    for seed in range(20):
        ds = random_survival(seed)
        rng = np.random.default_rng(seed)
        for group in ds.groups:
            pos = ds.group_mask(group)
            for cov in (rng.random(ds.n_examples) < 0.5, pos, ~pos):
                values.append(survival_consistency(cov, ds, pos))
    assert _sha(values) == (
        "6ada4fa350408e0f114284caf55042534e99579ffc63f7de4f7a60677bfa382b"
    )


def test_measure_for_task():
    assert measure_for_task("classification") == "correlation"
    assert measure_for_task("regression") == "regression"
    assert measure_for_task("survival") == "survival"
    with pytest.raises(ValueError, match="unknown task"):
        measure_for_task("ranking")
