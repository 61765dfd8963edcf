"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a one-line summary with the measured numbers (visible on
failure or under ``pytest -s``) and enforces a wall-clock budget.
"""

import dataclasses
import math
import os
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import bimodal_survival, km_oracle, log_rank_oracle, random_classification
from csmine.contrast import ConfusionMatrix, cover
from csmine.data import load_arff
from csmine.diversity import PenaltyState, reward
from csmine.induction import MiningParams, mine_all, mine_group
from csmine.quality import correlation, km_estimate, log_rank, survival_consistency
from csmine.reports import filter_redundancy, summarize
from csmine.synthetic import default_spec, generate_synthetic


def test_criterion_1_correlation_matches_brute_force():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for P in range(31):
        for N in range(31):
            for p in range(P + 1):
                for n in range(N + 1):
                    got = correlation(ConfusionMatrix(p, n, P, N))
                    den_sq = P * N * (p + n) * (P - p + N - n)
                    want = (p * N - P * n) / math.sqrt(den_sq) if den_sq > 0 else 0.0
                    err = abs(got - want)
                    if err > worst:
                        worst = err
                    if den_sq > 0:
                        # sign confirms which side over-covers
                        assert (got > 0) == (p * N > P * n)
                        assert (got < 0) == (p * N < P * n)
                    count += 1

    # monotonicity and the additive inverse on the largest grid
    P = N = 30
    live = lambda p, n: P * N * (p + n) * (P - p + N - n) > 0
    q = [[correlation(ConfusionMatrix(p, n, P, N)) for n in range(N + 1)] for p in range(P + 1)]
    for p in range(P + 1):
        for n in range(N + 1):
            assert q[p][n] == -q[P - p][N - n]
            if p < P and live(p, n) and live(p + 1, n):
                assert q[p + 1][n] > q[p][n]
            if n < N and live(p, n) and live(p, n + 1):
                assert q[p][n + 1] < q[p][n]

    dt = time.perf_counter() - t0
    print(f"criterion 1: {count} confusion tables, max |err| {worst:.2e}, {dt:.2f}s")
    assert worst <= 1e-12
    assert dt < 5.0


SURVIVAL_SAMPLES = [
    [(1, 1), (2, 0), (3, 1)],
    [(1, 1), (1, 1), (2, 0), (4, 1), (4, 0), (5, 1)],
    [(2, 0), (2, 1), (2, 1), (3, 0), (7, 1), (7, 1), (7, 0), (9, 1)],
    [(1, 0), (2, 0), (3, 0), (4, 0)],
    [(5, 1), (5, 1), (5, 1), (6, 0), (6, 0), (8, 1), (8, 0), (8, 1), (9, 1), (9, 0)],
]


def test_criterion_2_survival_estimators_match_oracles():
    t0 = time.perf_counter()
    checked = 0
    for sample in SURVIVAL_SAMPLES:
        curve = km_estimate(sample)
        rows = km_oracle(sample)
        assert curve.times == tuple(t for t, _, _, _ in rows)
        assert curve.at_risk == tuple(n for _, _, n, _ in rows)
        assert curve.events == tuple(d for _, _, _, d in rows)
        for prob, (_, surv, _, _) in zip(curve.probabilities, rows):
            assert prob == pytest.approx(float(surv), rel=1e-9)
            checked += 1
    for i, a in enumerate(SURVIVAL_SAMPLES):
        assert log_rank(a, a) == 0.0
        for b in SURVIVAL_SAMPLES[i + 1:]:
            want = float(log_rank_oracle(a, b))
            assert log_rank(a, b) == pytest.approx(want, rel=1e-9, abs=1e-12)
            checked += 1
    dt = time.perf_counter() - t0
    print(f"criterion 2: {checked} estimator values vs exact-fraction oracles, {dt:.2f}s")
    assert dt < 1.0


def test_criterion_3_penalty_and_reward_shapes():
    state = PenaltyState(4)
    state.update({0, 1})
    state.update({1})
    state.update({3})
    assert [state.attribute_penalty(i) for i in range(4)] == [0.25, 0.5, 0.0, 0.25]
    assert state.premise_penalty({1, 3}) == 0.75

    import random

    rng = random.Random(31)
    for _ in range(300):
        s = rng.uniform(0.0, 1.0)
        pi = rng.uniform(0.0, min(1.0, 0.9 / s)) if s > 0 else rng.random()
        if s * pi >= 0.9:
            pi = 0.89 / s
        b = rng.uniform(0.05, 1.0)
        p = rng.randint(1, 60)
        # flat up to the saturation point
        p_new = rng.randint(0, int(b * p))
        assert reward(p_new, p, s, pi, b) == 1.0
        # full novelty exactly cancels the penalty
        top = reward(p, p, s, pi, b)
        assert top == pytest.approx(1.0 / (1.0 - s * pi), rel=1e-12)
    print("criterion 3: penalty table exact, reward endpoints hold on 300 random shapes")


def test_criterion_4_synthetic_mining_behaviors():
    t0 = time.perf_counter()
    ds = generate_synthetic()
    red = ds.group_mask("red")
    red_count = int(np.count_nonzero(red))

    # (a) one pass without penalties: two one-condition sets on the nominal
    # attribute, together covering nearly the whole group
    plain = mine_group(ds, "red", MiningParams(minsupps=(0.1,), max_passes=1, penalty_strength=0.0))
    assert len(plain) == 2
    for a in plain:
        assert len(a.contrast_set.conditions) == 1
        assert ds.attributes[a.contrast_set.conditions[0].attr_index].name == "a3"
    joint = cover(plain[0].contrast_set, ds) | cover(plain[1].contrast_set, ds)
    covered = int(np.count_nonzero(joint & red))
    assert covered >= math.ceil((1.0 - 0.1) * red_count)

    # (b) penalties on: more and different sets, including one that avoids
    # the dominant attribute entirely
    events = []
    diverse = mine_group(ds, "red", MiningParams(minsupps=(0.1,)), events=events)
    assert len(diverse) >= 4
    keys = {a.contrast_set.conditions for a in diverse}
    assert len(keys) == len(diverse)
    numeric_only = [
        a for a in diverse
        if all(ds.attributes[c.attr_index].name in ("a1", "a2") for c in a.contrast_set.conditions)
    ]
    assert numeric_only

    # (c) duplicates are suppressed from the output but still move penalties
    dups = [e for e in events if e.duplicate]
    assert dups
    totals = [e.usage_total_after for e in events]
    assert all(b > a for a, b in zip(totals, totals[1:]))

    dt = time.perf_counter() - t0
    print(
        f"criterion 4: plain pass covers {covered}/{red_count}, penalized run "
        f"{len(diverse)} sets ({len(numeric_only)} without a3), {len(dups)} duplicates, {dt:.2f}s"
    )
    assert dt < 5.0


def test_criterion_5_randomized_runs_respect_gates():
    t0 = time.perf_counter()
    params = MiningParams()
    total_sets = 0
    for seed in range(20):
        ds = random_classification(seed, n_max=500, max_attrs=10)
        results = mine_all(ds, params)
        assert mine_all(ds, params) == results  # bitwise deterministic
        for g, sets in results.items():
            per_pass = Counter()
            for a in sets:
                assert a.p / a.P >= a.minsupp_all
                assert a.p_new / a.P >= params.minsupp_new
                assert ConfusionMatrix(a.p, a.n, a.P, a.N).neg2pos <= params.max_neg2pos
                per_pass[(a.minsupp_all, a.pass_index)] += 1
            # at most floor(1 / minsupp_new) acceptances fit in one pass
            assert all(v <= 10 for v in per_pass.values())
            total_sets += len(sets)
    dt = time.perf_counter() - t0
    print(f"criterion 5: 20 random datasets, {total_sets} sets, all gates hold, {dt:.1f}s")
    assert dt < 60.0


def _heart_path():
    env = os.environ.get("CSMINE_HEART_ARFF")
    if env:
        p = Path(env)
        if p.is_file():
            return p
    p = Path(__file__).resolve().parents[1] / "data" / "heart.arff"
    return p if p.is_file() else None


def test_criterion_6_heart_benchmark():
    path = _heart_path()
    if path is None:
        pytest.skip("heart benchmark ARFF not found (set CSMINE_HEART_ARFF or add data/heart.arff)")
    t0 = time.perf_counter()
    raw = load_arff(path)
    names = [a.name for a in raw.attributes]
    group = next((n for n in names if n.lower() == "class"), names[-1])
    ds = load_arff(path, group=group)
    assert ds.n_examples == 270
    assert len(ds.attributes) == 13
    assert sorted(np.count_nonzero(ds.group_mask(g)) for g in ds.groups) == [120, 150]

    results = mine_all(ds)
    n_before = sum(len(v) for v in results.values())
    kept = filter_redundancy(results, 0.5)
    metrics = summarize(kept, ds)
    dt = time.perf_counter() - t0
    print(
        f"criterion 6: {n_before} sets, {metrics.n_sets} after filter, "
        f"support {100 * metrics.mean_support:.1f}%, precision {100 * metrics.mean_precision:.1f}%, "
        f"cov0 {metrics.covered_by(0)}, cov1 {metrics.covered_by(1)}, {dt:.1f}s"
    )
    assert 27.2 <= n_before <= 40.8
    assert 19.2 <= metrics.n_sets <= 28.8
    assert 66.9 <= 100 * metrics.mean_support <= 76.9
    assert 72.4 <= 100 * metrics.mean_precision <= 82.4
    assert metrics.covered_by(0) <= 4
    assert 3 <= metrics.covered_by(1) <= 9
    assert dt < 30.0


def test_criterion_7_survival_measure_tracks_group_survival():
    t0 = time.perf_counter()
    ds = bimodal_survival()

    def run_stats(params):
        results = mine_all(ds, params)
        lrs, supports, precisions = [], [], []
        for g, sets in results.items():
            pos = ds.group_mask(g)
            for a in sets:
                cov = cover(a.contrast_set, ds)
                lrs.append(-survival_consistency(cov, ds, pos))
                supports.append(a.support)
                precisions.append(a.precision)
        assert lrs
        return len(lrs), statistics.mean(lrs), statistics.mean(supports), statistics.mean(precisions)

    s_n, s_lr, s_sup, s_prec = run_stats(MiningParams())  # survival task default
    c_n, c_lr, c_sup, c_prec = run_stats(MiningParams(measure="correlation"))
    dt = time.perf_counter() - t0
    print(
        f"criterion 7: survival measure {s_n} sets (log-rank {s_lr:.2f}, support {s_sup:.2f}, "
        f"precision {s_prec:.2f}) vs classical {c_n} sets ({c_lr:.2f}, {c_sup:.2f}, {c_prec:.2f}), {dt:.1f}s"
    )
    # the survival measure trades support for sets whose covered examples
    # die like their group does
    assert s_lr < c_lr
    assert s_sup < c_sup
    assert s_prec >= c_prec
    assert dt < 30.0


def test_criterion_8_scaling_smoke():
    base = default_spec()
    doubled = dataclasses.replace(
        base,
        clusters=tuple(
            dataclasses.replace(
                c,
                size=c.size * 2,
                values={a: {v: k * 2 for v, k in d.items()} for a, d in c.values.items()},
            )
            for c in base.clusters
        ),
    )
    ds1 = generate_synthetic(base)
    ds2 = generate_synthetic(doubled)
    assert ds2.n_examples == 2 * ds1.n_examples

    t0 = time.perf_counter()
    r1 = mine_all(ds1)
    t1 = time.perf_counter()
    r2 = mine_all(ds2)
    t2 = time.perf_counter()
    small, big = t1 - t0, t2 - t1
    ratio = big / small if small > 0 else float("inf")
    # informational: doubling the data should not blow up the runtime
    print(f"criterion 8: {ds1.n_examples} -> {ds2.n_examples} examples, {small:.2f}s -> {big:.2f}s (x{ratio:.1f})")
    assert sum(len(v) for v in r1.values()) > 0
    assert sum(len(v) for v in r2.values()) > 0
