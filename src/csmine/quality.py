"""Quality measures for contrast sets.

Classification uses the correlation between coverage and group membership.
Regression scores the negated absolute gap between the label mean over the
covered examples (both groups) and the label mean of the group of interest.
Survival scores the negated log-rank statistic between the covered sample
and the group of interest; both consistency measures are 0 at their best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contrast import ConfusionMatrix
from .data import CoverageSet, DataSet

__all__ = [
    "MEASURES",
    "correlation",
    "regression_consistency",
    "KMCurve",
    "km_estimate",
    "log_rank",
    "survival_consistency",
    "measure_for_task",
]

MEASURES = ("correlation", "regression", "survival")


def correlation(cm: ConfusionMatrix) -> float:
    """Point correlation of coverage with group membership, in [-1, 1].

    (p*N - P*n) / sqrt(P*N*(p+n)*(P-p+N-n)); a degenerate denominator
    (nothing or everything covered, or an empty side) scores 0.
    """
    p, n, P, N = cm.p, cm.n, cm.P, cm.N
    den_sq = P * N * (p + n) * (P - p + N - n)
    if den_sq == 0:
        return 0.0
    return (p * N - P * n) / math.sqrt(den_sq)


def regression_consistency(coverage: CoverageSet, ds: DataSet, positives: CoverageSet) -> float:
    """Negated absolute difference between the covered label mean and the
    label mean of the group of interest. The covered mean runs over every
    covered example regardless of group."""
    if ds.labels is None:
        raise ValueError("dataset has no regression labels")
    cov_idx = coverage.indices()
    pos_idx = positives.indices()
    if cov_idx.size == 0 or pos_idx.size == 0:
        raise ValueError("regression consistency needs non-empty coverage and positives")
    mean_cov = float(np.mean(ds.labels[cov_idx]))
    mean_pos = float(np.mean(ds.labels[pos_idx]))
    return -abs(mean_cov - mean_pos)


@dataclass(frozen=True)
class KMCurve:
    """Product-limit survival estimate: one step per distinct event time."""

    times: tuple[float, ...]
    probabilities: tuple[float, ...]
    at_risk: tuple[int, ...]
    events: tuple[int, ...]

    def survival_at(self, t: float) -> float:
        s = 1.0
        for ti, pi in zip(self.times, self.probabilities):
            if ti <= t:
                s = pi
            else:
                break
        return s


def km_estimate(observations) -> KMCurve:
    """Kaplan-Meier estimate from (time, status) pairs; status 1 is an event.

    Censored observations at time t stay in the at-risk set for the events
    at t and leave afterwards. An all-censored sample yields a flat curve.
    """
    pairs = [(float(t), int(s)) for t, s in observations]
    if any(s not in (0, 1) for _, s in pairs):
        raise ValueError("status values must be 0 or 1")
    if any(t < 0 for t, _ in pairs):
        raise ValueError("times must be non-negative")
    pairs.sort(key=lambda ts: ts[0])
    n_at_risk = len(pairs)
    times: list[float] = []
    probs: list[float] = []
    risks: list[int] = []
    events: list[int] = []
    s = 1.0
    i = 0
    while i < len(pairs):
        t = pairs[i][0]
        d = 0
        removed = 0
        while i < len(pairs) and pairs[i][0] == t:
            d += pairs[i][1]
            removed += 1
            i += 1
        if d > 0:
            s *= (n_at_risk - d) / n_at_risk
            times.append(t)
            probs.append(s)
            risks.append(n_at_risk)
            events.append(d)
        n_at_risk -= removed
    return KMCurve(tuple(times), tuple(probs), tuple(risks), tuple(events))


def _as_time_status(sample) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(sample, tuple) and len(sample) == 2 and not np.isscalar(sample[0]):
        t = np.asarray(sample[0], dtype=np.float64)
        s = np.asarray(sample[1], dtype=np.int8)
    else:
        pairs = [(float(t), int(st)) for t, st in sample]
        t = np.asarray([p[0] for p in pairs], dtype=np.float64)
        s = np.asarray([p[1] for p in pairs], dtype=np.int8)
    if t.size != s.size:
        raise ValueError("time/status length mismatch")
    return t, s


def log_rank(sample_a, sample_b) -> float:
    """Two-sample log-rank chi-square statistic.

    Samples are iterables of (time, status) pairs, or (times, statuses)
    array pairs. Overlapping multisets are compared exactly as given, so
    identical samples score 0. No pooled events, or zero variance, scores 0.
    """
    ta, sa = _as_time_status(sample_a)
    tb, sb = _as_time_status(sample_b)
    return _log_rank_arrays(ta, sa, tb, sb)


def _log_rank_arrays(ta, sa, tb, sb) -> float:
    """Log-rank between two (times, statuses) samples over their joint time grid."""
    grid = np.unique(np.concatenate([ta, tb]))
    ra = np.searchsorted(grid, ta)
    rb = np.searchsorted(grid, tb)
    g = grid.size
    return _log_rank_grid(
        _at_risk(np.bincount(ra, minlength=g)),
        np.bincount(ra, weights=(sa == 1), minlength=g),
        _at_risk(np.bincount(rb, minlength=g)),
        np.bincount(rb, weights=(sb == 1), minlength=g),
    )


def _at_risk(counts: np.ndarray) -> np.ndarray:
    # at-risk at grid time t = number of observations with time >= t
    return np.cumsum(counts[::-1])[::-1]


def _log_rank_grid(n1: np.ndarray, d1: np.ndarray, n2: np.ndarray, d2: np.ndarray) -> float:
    """Log-rank chi-square from per-grid at-risk counts and event counts.

    Grid times without events, or with nobody at risk, are skipped; no
    usable time, or zero variance, scores 0.
    """
    nj = n1 + n2
    d = d1 + d2
    use = (d > 0) & (nj > 0)
    if not use.any():
        return 0.0
    observed = float(d1[use].sum())
    expected = float((n1[use] * d[use] / nj[use]).sum())
    var_use = use & (nj > 1)
    variance = float(
        (
            n1[var_use]
            * n2[var_use]
            * d[var_use]
            * (nj[var_use] - d[var_use])
            / (nj[var_use] * nj[var_use] * (nj[var_use] - 1.0))
        ).sum()
    )
    if variance <= 0.0:
        return 0.0
    diff = observed - expected
    return (diff * diff) / variance


class _LogRankScorer:
    """Repeated log-rank scoring of coverage subsets against a fixed group.

    Times are mapped to ranks on a shared grid once, so each evaluation is
    a pair of bincounts plus vector arithmetic over the grid.
    """

    def __init__(self, ds: DataSet, positives_mask: np.ndarray):
        if ds.times is None or ds.status is None:
            raise ValueError("dataset has no survival columns")
        self.grid = np.unique(ds.times)
        self.rank = np.searchsorted(self.grid, ds.times)
        self.events = (ds.status == 1).astype(np.int64)
        g = self.grid.size
        pos_rank = self.rank[positives_mask]
        pos_events = self.events[positives_mask]
        self.n2 = _at_risk(np.bincount(pos_rank, minlength=g))
        self.d2 = np.bincount(pos_rank, weights=pos_events, minlength=g)

    def score(self, indices: np.ndarray) -> float:
        g = self.grid.size
        r = self.rank[indices]
        n1 = _at_risk(np.bincount(r, minlength=g))
        d1 = np.bincount(r, weights=self.events[indices], minlength=g)
        return _log_rank_grid(n1, d1, self.n2, self.d2)


def survival_consistency(coverage: CoverageSet, ds: DataSet, positives: CoverageSet) -> float:
    """Negated log-rank statistic between the covered sample and the group
    of interest, overlap included."""
    if ds.times is None or ds.status is None:
        raise ValueError("dataset has no survival columns")
    cov = coverage.indices()
    pos = positives.indices()
    return -_log_rank_arrays(
        ds.times[cov], np.asarray(ds.status[cov] == 1, dtype=np.int8),
        ds.times[pos], np.asarray(ds.status[pos] == 1, dtype=np.int8),
    )


def measure_for_task(task: str) -> str:
    if task == "classification":
        return "correlation"
    if task == "regression":
        return "regression"
    if task == "survival":
        return "survival"
    raise ValueError(f"unknown task {task!r}")
