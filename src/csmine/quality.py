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
    """
    nj = n1 + n2
    d = d1 + d2
    use = (d > 0) & (nj > 0)
    var_use = use & (nj > 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.concatenate((n1 * d / nj, n1 * n2 * d * (nj - d) / (nj * nj * (nj - 1.0))))
    # k rows of expected terms, then k rows of variance terms: one call sums both
    expected, variance = _row_sums(terms, np.concatenate((use, var_use))).reshape(2, -1)
    # event counts are whole numbers, so their sum is exact in any order
    diff = np.where(use, d1, 0.0).sum(axis=1) - expected
    return np.divide(diff * diff, variance, out=np.zeros(variance.shape), where=variance > 0.0)


def _row_sums(terms: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``terms[i][mask[i]].sum()`` of each row i, bit for bit, in one call.

    The masked terms of every row are laid out one row after another, each
    row behind a +0.0. ``add.reduceat`` starts a segment from its first
    element and adds numpy's pairwise sum of the rest, so a row sums to
    0.0 + pairwise(terms), which is what ``.sum()`` computes. The leading
    zero changes nothing else because every term here is >= 0, and an
    empty row sums to 0.0 either way.
    """
    lens = np.count_nonzero(mask, axis=1) + 1
    starts = np.cumsum(lens) - lens
    at_term = np.ones(lens.sum(), dtype=bool)
    at_term[starts] = False
    lead = np.zeros(at_term.size)
    lead[at_term] = terms[mask]
    return np.add.reduceat(lead, starts)


# Ceiling on splits x grid times per block of split_scores. A block's count
# and kernel arrays then hold at most 2 x max(this, grid size) elements
# (1 MB of float64 here), whatever the number of splits or rows. On a grid
# of g times a block takes 2**16 // g splits, 704 at g = 93.
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

    def score(self, indices: np.ndarray) -> float:
        n1, d1 = _counts(self.rank[indices], self.events[indices], (1, self.grid.size))
        return float(_log_rank_rows(n1, d1, self.n2, self.d2)[0])

    def split_scores(
        self, rows: np.ndarray, seg: np.ndarray, want: np.ndarray, cumulative: bool
    ) -> np.ndarray:
        """Statistics of the wanted sides of k >= 1 two-way splits of ``rows``.

        ``seg`` gives each row its segment in 0..k-1, nondecreasing; rows
        with a segment of k or more belong to none. Split j's first side is
        segment j, or with ``cumulative`` segments 0..j; its second side is
        the rest of ``rows``. ``want`` is a (k, 2) bool array; the result
        holds the statistic of every wanted side in row-major order, equal
        to ``score`` of that side's rows. Counts are built a block of splits
        at a time, with no rows x grid matrix.
        """
        g = self.grid.size
        k = want.shape[0]
        r = self.rank[rows]
        ev = self.events[rows]
        n_all, d_all = _counts(r, ev, (g,))
        carry_n = np.zeros(g, dtype=np.int64)
        carry_d = np.zeros(g, dtype=np.float64)
        step = max(1, _BLOCK_ELEMENTS // g)
        out = []
        for j0 in range(0, k, step):
            j1 = min(j0 + step, k)
            lo, hi = np.searchsorted(seg, (j0, j1))
            # at-risk counts add up over segments like any other count
            n1, d1 = _counts((seg[lo:hi] - j0) * g + r[lo:hi], ev[lo:hi], (j1 - j0, g))
            if cumulative:
                n1 = np.cumsum(n1, axis=0) + carry_n
                d1 = np.cumsum(d1, axis=0) + carry_d
                carry_n, carry_d = n1[-1], d1[-1]
            sel = want[j0:j1].ravel()
            n1 = np.stack((n1, n_all - n1), axis=1).reshape(-1, g)[sel]
            d1 = np.stack((d1, d_all - d1), axis=1).reshape(-1, g)[sel]
            out.append(_log_rank_rows(n1, d1, self.n2, self.d2))
        return np.concatenate(out)


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
