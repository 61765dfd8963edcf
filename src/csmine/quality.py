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
from .data import TASKS, DataSet, _check_mask

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
    return float(_correlation(cm.p, cm.n, cm.P, cm.N))


def _correlation(p, n, P: int, N: int) -> np.ndarray:
    """:func:`correlation` of each count pair in ``p`` and ``n``, in float64.

    Products of counts are exact while they stay below 2**53, which holds
    for P + N below 19,484; above that they round.
    """
    p = np.asarray(p, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    P, N = float(P), float(N)
    den_sq = P * N * (p + n) * (P - p + N - n)
    return np.divide(p * N - P * n, np.sqrt(den_sq), out=np.zeros(den_sq.shape), where=den_sq > 0)


def regression_consistency(coverage: np.ndarray, ds: DataSet, positives: np.ndarray) -> float:
    """Negated absolute difference between the covered label mean and the
    label mean of the group of interest. The covered mean runs over every
    covered example regardless of group."""
    if ds.labels is None:
        raise ValueError("dataset has no regression labels")
    coverage = _check_mask(coverage, ds, "coverage")
    positives = _check_mask(positives, ds, "positives")
    if not coverage.any() or not positives.any():
        raise ValueError("regression consistency needs non-empty coverage and positives")
    mean_cov = float(np.mean(ds.labels[coverage]))
    mean_pos = float(np.mean(ds.labels[positives]))
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


def _survival_sample(sample) -> DataSet:
    """A sample as a survival DataSet with no attributes, so DataSet's time
    and status rules apply. A tuple of two numpy arrays is (times, statuses);
    anything else is read as (time, status) pairs."""
    arrays = isinstance(sample, tuple) and len(sample) == 2
    if arrays and all(isinstance(c, np.ndarray) for c in sample):
        times, status = sample
        if times.size != status.size:
            raise ValueError("time/status length mismatch")
    else:
        pairs = np.array([(t, s) for t, s in sample], dtype=np.float64).reshape(-1, 2)
        times, status = pairs[:, 0], pairs[:, 1]
    return DataSet((), (), task="survival", times=times, status=status)


def _counts(rank: np.ndarray, events: np.ndarray, shape: tuple[int, ...]):
    """At-risk and event counts, shaped ``shape`` = (..., grid size), of the
    rows at flat grid positions ``rank`` with event flags ``events``.

    At-risk at grid time t is the number of rows with time >= t.
    """
    size = math.prod(shape)
    counts = np.bincount(rank, minlength=size).reshape(shape)
    at_risk = np.cumsum(counts[..., ::-1], axis=-1)[..., ::-1]
    return at_risk, np.bincount(rank, weights=events, minlength=size).reshape(shape)


def km_estimate(observations) -> KMCurve:
    """Kaplan-Meier estimate of a sample (see :func:`log_rank`); status 1 is
    an event.

    Censored observations at time t stay in the at-risk set for the events
    at t and leave afterwards. An all-censored sample yields a flat curve.
    """
    ds = _survival_sample(observations)
    grid, rank = np.unique(ds.times + 0.0, return_inverse=True)  # -0.0 reads as 0.0
    n, d = _counts(rank, ds.status, grid.shape)
    hit = d > 0
    n, d = n[hit], d[hit]
    return KMCurve(
        tuple(grid[hit].tolist()), tuple(np.cumprod((n - d) / n).tolist()),
        tuple(n.tolist()), tuple(d.astype(np.int64).tolist()),
    )


def log_rank(sample_a, sample_b) -> float:
    """Two-sample log-rank chi-square statistic.

    A sample is an iterable of (time, status) pairs, or a tuple of two numpy
    arrays (times, statuses); its values must keep a survival DataSet's
    time and status rules. Overlapping multisets are compared exactly as
    given, so identical samples score 0. No pooled events, or zero
    variance, scores 0.
    """
    a, b = _survival_sample(sample_a), _survival_sample(sample_b)
    both = DataSet((), (), task="survival", times=np.concatenate((a.times, b.times)),
                   status=np.concatenate((a.status, b.status)))
    rows = np.arange(both.n_examples)
    return _LogRankScorer(both, rows >= a.n_examples).score(rows[: a.n_examples])


def _log_rank_rows(n1: np.ndarray, d1: np.ndarray, n2: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Log-rank chi-square of each row of ``n1``/``d1`` against ``n2``/``d2``.

    ``n1``/``d1`` are (k, g) at-risk and event counts of k samples on a
    shared grid of g times, ``n2``/``d2`` the (g,) counts of the reference
    sample. Grid times without events, or with nobody at risk, are skipped;
    no usable time, or zero variance, scores 0. Each row's sums run over
    that row's usable entries alone, in grid order, so a row scores the
    same bits whatever block it comes in.

    The float temporaries share one workspace, large enough for all of
    them, so that the allocator sees one block per call rather than a
    dozen and does not hand memory back to the system and fault it in
    again on every call. Each term is formed by the same operations, in
    the same order, as ``n1 * d / nj`` and ``n1 * n2 * d * (nj - d) /
    (nj * nj * (nj - 1.0))``.
    """
    k, g = n1.shape
    s = k * g
    work = np.empty(6 * s + 2 * k)
    d, tmp = work[:s].reshape(k, g), work[s : 2 * s].reshape(k, g)
    terms = work[2 * s : 4 * s].reshape(2 * k, g)  # k rows of expected terms, then k of variance terms
    e_terms, v_terms = terms[:k], terms[k:]
    nj = n1 + n2
    ints = n1 * n2
    np.add(d1, d2, out=d)
    mask = np.empty((2 * k, g), dtype=bool)  # usable entries of each row of terms
    use, var_use = mask[:k], mask[k:]
    np.greater(d, 0, out=use)
    use &= nj > 0
    np.greater(nj, 1, out=var_use)
    var_use &= use
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(n1, d, out=e_terms)
        np.divide(e_terms, nj, out=e_terms)
        np.multiply(ints, d, out=v_terms)
        np.subtract(nj, d, out=tmp)
        np.multiply(v_terms, tmp, out=v_terms)
        np.multiply(nj, nj, out=ints)
        np.subtract(nj, 1.0, out=tmp)
        np.multiply(ints, tmp, out=tmp)
        np.divide(v_terms, tmp, out=v_terms)
    # one call sums both halves of terms
    expected, variance = _row_sums(terms, mask, work[4 * s :]).reshape(2, -1)
    # event counts are whole numbers, so their sum is exact in any order
    np.multiply(d1, use, out=tmp)
    diff = tmp.sum(axis=1) - expected
    return np.divide(diff * diff, variance, out=np.zeros(variance.shape), where=variance > 0.0)


def _row_sums(terms: np.ndarray, mask: np.ndarray, space: np.ndarray) -> np.ndarray:
    """``terms[i][mask[i]].sum()`` of each row i, bit for bit, in one call.

    The masked terms of every row are laid out in ``space`` (room for
    every term plus one per row) one row after another, each row behind a
    +0.0. ``add.reduceat`` starts a segment from its first element and
    adds numpy's pairwise sum of the rest, so a row sums to 0.0 +
    pairwise(terms), which is what ``.sum()`` computes. The leading zero
    changes nothing else because every term here is >= 0, and an empty
    row sums to 0.0 either way.
    """
    lens = np.count_nonzero(mask, axis=1) + 1
    starts = np.cumsum(lens) - lens
    lead = space[: lens.sum()]
    at_term = np.ones(lead.size, dtype=bool)
    at_term[starts] = False
    lead[starts] = 0.0
    lead[at_term] = terms[mask]
    return np.add.reduceat(lead, starts)


# Ceiling on samples x grid times per block of counts and per kernel call.
# On a grid of g times a block takes 2**16 // g samples, 704 at g = 93, or
# at least one split's two sides, so its count arrays and the kernel's
# inputs hold at most max(this, 2 x grid size) elements (512 KB of float64
# here), whatever the number of splits, removals or rows. Larger calls run
# slower per element once the kernel's temporaries outgrow the cache.
_BLOCK_ELEMENTS = 1 << 16


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
        self.n2, self.d2 = _counts(
            self.rank[positives_mask], self.events[positives_mask], self.grid.shape
        )

    @property
    def block(self) -> int:
        """Samples per block of counts, at least one."""
        return max(1, _BLOCK_ELEMENTS // self.grid.size)

    def score(self, indices: np.ndarray) -> float:
        return float(self.side_scores(*self.counts(indices))[0])

    def counts(self, rows: np.ndarray, slot=0, size: int = 1):
        """(size, g) at-risk and event counts at each grid time of ``rows``,
        one sample per slot in 0..size-1."""
        g = self.grid.size
        return _counts(slot * g + self.rank[rows], self.events[rows], (size, g))

    def side_scores(self, at_risk: np.ndarray, events: np.ndarray) -> np.ndarray:
        """Statistics of k samples from their (k, g) at-risk and event
        counts, as ``_counts`` gives them."""
        return _log_rank_rows(at_risk, events, self.n2, self.d2)


def survival_consistency(coverage: np.ndarray, ds: DataSet, positives: np.ndarray) -> float:
    """Negated log-rank statistic between the covered sample and the group
    of interest, overlap included."""
    cov = _check_mask(coverage, ds, "coverage")
    pos = _check_mask(positives, ds, "positives")
    return -_LogRankScorer(ds, pos).score(np.flatnonzero(cov))


def measure_for_task(task: str) -> str:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    return MEASURES[TASKS.index(task)]  # MEASURES holds each task's own, in TASKS order
