"""Separate-and-conquer induction of contrast sets.

Each group of interest is mined over a descending ladder of minimum
support levels. At every level the miner runs repeated covering passes:
grow a premise condition by condition (every candidate must keep overall
support and new-example support above the level's floors), prune it back
greedily, then mark its positives as covered and continue until growing
fails. Attribute penalties accumulate across a level and push later passes
toward unused attributes; rewards cancel the penalty for sets that still
cover fresh positives. A level ends early once a pass yields nothing new.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .contrast import (
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
)
from .data import DataSet, _check_mask
from .diversity import PenaltyState, _apply_multiplier, _max_similarity, _reward_factor
from .quality import MEASURES, _correlation, _LogRankScorer, correlation, measure_for_task

__all__ = [
    "MiningParams",
    "AnnotatedContrastSet",
    "MiningEvent",
    "grow",
    "prune",
    "mine_group",
    "mine_all",
]

WORKERS_ENV = "CSMINE_WORKERS"


@dataclass(frozen=True)
class MiningParams:
    """Induction parameters.

    ``minsupps`` is the descending ladder of minimum overall support
    fractions; ``minsupp_new`` the minimum fraction of positives a grown
    premise must take from the pass's uncovered pool; ``max_neg2pos`` the
    acceptance ceiling on (n/N)/(p/P). ``penalty_strength`` (s) and
    ``reward_saturation`` (b) steer the diversity modifier. ``measure``
    defaults to the task's own measure.
    """

    minsupps: tuple[float, ...] = (0.8, 0.5, 0.2, 0.1)
    minsupp_new: float = 0.1
    max_neg2pos: float = 0.5
    max_passes: int = 5
    penalty_strength: float = 0.5
    reward_saturation: float = 0.2
    mode: str = "one-vs-all"
    negative_group: str | None = None
    measure: str | None = None

    def __post_init__(self) -> None:
        if not self.minsupps:
            raise ValueError("minsupps must not be empty")
        for v in self.minsupps:
            if not 0 < v <= 1:
                raise ValueError("minsupp levels must be in (0, 1]")
        if any(a <= b for a, b in zip(self.minsupps, self.minsupps[1:])):
            raise ValueError("minsupp levels must be strictly descending")
        if not 0 < self.minsupp_new <= 1:
            raise ValueError("minsupp_new must be in (0, 1]")
        if not self.max_neg2pos >= 0:  # refuses NaN too; inf means no ceiling
            raise ValueError("max_neg2pos must be non-negative")
        # range() takes no float, and a bool is no count
        if not isinstance(self.max_passes, int) or isinstance(self.max_passes, bool) or self.max_passes < 1:
            raise ValueError("max_passes must be an integer of at least 1")
        if not 0 <= self.penalty_strength <= 1:
            raise ValueError("penalty_strength must be in [0, 1]")
        if not 0 < self.reward_saturation <= 1:
            raise ValueError("reward_saturation must be in (0, 1]")
        if self.mode not in ("one-vs-all", "one-vs-one"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.measure is not None and self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")


@dataclass(frozen=True)
class AnnotatedContrastSet:
    """An emitted, canonical contrast set with its acceptance statistics."""

    contrast_set: ContrastSet
    group: str
    pass_index: int
    minsupp_all: float
    p: int
    n: int
    p_new: int
    P: int
    N: int
    quality: float
    redundancy: float
    redundancy_with: int | None

    @property
    def support(self) -> float:
        return self.p / self.P if self.P else 0.0

    @property
    def precision(self) -> float:
        return self.p / (self.p + self.n) if (self.p + self.n) else 0.0


@dataclass(frozen=True)
class MiningEvent:
    """One acceptance during mining, duplicates included."""

    minsupp_all: float
    pass_index: int
    contrast_set: ContrastSet
    duplicate: bool
    p: int
    n: int
    p_new: int
    usage_after: tuple[int, ...]
    usage_total_after: int


@dataclass
class _Context:
    """Per-group mining state shared by grow and prune."""

    ds: DataSet
    params: MiningParams
    measure: str
    pos: np.ndarray           # bool mask of the group of interest
    P: int
    N: int
    penalty: PenaltyState
    d_u: np.ndarray           # pass-local uncovered positives (minsupp-new gate)
    r_u: np.ndarray           # level-local reward baseline
    minsupp_all: float
    labels: np.ndarray | None = None
    pos_label_mean: float = 0.0
    survival_scorer: _LogRankScorer | None = None
    # the presorted numeric block: its attributes, and per attribute its rows
    # stable-sorted by value with missing cells last, and the ranks of their
    # values in that order; the arrays of both blocks, and the root, are
    # built by presort() on the first sweep or grow step
    numeric: tuple[int, ...] = ()
    order: np.ndarray | None = None  # (k, n) int32
    ranks: np.ndarray | None = None  # (k, n) int32, -1 where missing
    missing_cells: bool = True       # whether a numeric cell is missing, recorded by presort()
    # the nominal block: its attributes, and per attribute each row's bin, its
    # category code plus the attribute's first bin; each attribute's last bin
    # holds its missing cells
    nominal: tuple[int, ...] = ()
    keys: np.ndarray | None = None     # (k, n) int32
    offsets: np.ndarray | None = None  # (k + 1,) first bin of each attribute, then the bin count
    root: _Root | None = None  # the full-coverage step every grow starts from

    @classmethod
    def build(
        cls,
        ds: DataSet,
        group: str,
        params: MiningParams,
        measure: str,
        d_u: np.ndarray | None = None,
        r_u: np.ndarray | None = None,
        penalty: PenaltyState | None = None,
        minsupp_all: float | None = None,
    ) -> "_Context":
        """Context for ``group``; ``measure`` comes from _resolve_measure.

        The uncovered pool defaults to the whole group, the reward baseline
        to the uncovered pool, and the support floor to the first level.
        The blocks are presorted and stacked, and the root swept, by the
        first sweep or grow step.
        """
        pos = ds.group_mask(group)
        P = int(np.count_nonzero(pos))
        N = pos.size - P
        if P == 0:
            raise ValueError(f"group {group!r} has no examples")
        if N == 0:
            raise ValueError(f"group {group!r} has no contrasting examples")
        d_u = pos.copy() if d_u is None else d_u
        ctx = cls(
            ds=ds,
            params=params,
            measure=measure,
            pos=pos,
            P=P,
            N=N,
            penalty=penalty if penalty is not None else PenaltyState(len(ds.attributes)),
            d_u=d_u,
            r_u=d_u.copy() if r_u is None else r_u,
            minsupp_all=minsupp_all if minsupp_all is not None else params.minsupps[0],
        )
        if measure == "regression":
            ctx.labels = ds.labels
            ctx.pos_label_mean = float(np.mean(ds.labels[pos]))
        elif measure == "survival":
            ctx.survival_scorer = _LogRankScorer(ds, pos)
        ctx.numeric = tuple(ai for ai, a in enumerate(ds.attributes) if a.is_numeric)
        ctx.nominal = tuple(ai for ai, a in enumerate(ds.attributes) if not a.is_numeric)
        return ctx

    def presort(self) -> None:
        """Presort the numeric block, stack the nominal block and sweep both
        at full coverage into the root, once."""
        # the root's sweeps call presort() again, which returns here
        if self.order is not None or self.keys is not None:
            return
        ds = self.ds
        if self.numeric:
            cols = np.stack([ds.column(ai) for ai in self.numeric])
            order = np.argsort(cols, axis=1, kind="stable")
            values = np.take_along_axis(cols, order, axis=1)
            self.order = order.astype(np.int32)
            # a rank steps by 0 between equal values, by 1 where their midpoint
            # rounds down onto the lower one, which only a neighbour one ulp up
            # can do, and by 2 elsewhere; hi is capped so that DBL_MAX does not
            # step onto inf, an overflow (their midpoint is inf, a split)
            lo, hi = values[:, :-1], values[:, 1:]
            steps = 2 * (hi != lo).astype(np.int32)
            for r, c in zip(*np.nonzero((np.nextafter(lo, np.minimum(hi, _DBL_MAX)) == hi) & (hi != lo))):
                steps[r, c] -= _midpoint(lo.item(r, c), hi.item(r, c)) == lo.item(r, c)
            self.ranks = np.zeros(values.shape, dtype=np.int32)
            np.cumsum(steps, axis=1, out=self.ranks[:, 1:])
            self.ranks[np.isnan(values)] = -1
            self.missing_cells = bool((self.ranks[:, -1] < 0).any())  # missing cells sort last
        if self.nominal:
            bins = [len(ds.attributes[ai].domain) + 1 for ai in self.nominal]
            self.offsets = np.cumsum([0] + bins)
            cols = [ds.column(ai) for ai in self.nominal]
            self.keys = np.stack([np.where(c < 0, hi - 1, c + lo).astype(np.int32)
                                  for c, lo, hi in zip(cols, self.offsets[:-1], self.offsets[1:])])
        everything = np.ones(ds.n_examples, dtype=bool)
        swept = (_sweep_attribute(self, block, everything, np.arange(ds.n_examples)) for block in self.blocks)
        self.root = _Root([cand for cand in swept if cand is not None])

    @property
    def blocks(self) -> list[tuple[int, ...]]:
        """What one sweep covers: the numeric block, then the nominal block."""
        return [block for block in (self.numeric, self.nominal) if block]


def _pack_counters(ctx: _Context) -> list[np.ndarray]:
    """``pos``, ``d_u`` and ``r_u`` as fields of ``w = n.bit_length()`` bits in float64 columns.

    A column holds ``53 // w`` fields: one column below 2**17 rows, two below
    2**26, three above. No count of rows needs more than ``w`` bits, so every
    sum of packed values is an integer below 2**53, exact in float64, and one
    sum of a column gives all of its fields' sums.
    """
    w = ctx.ds.n_examples.bit_length()
    per = 53 // w
    masks = (ctx.pos, ctx.d_u, ctx.r_u)
    return [
        sum(mask * 2.0 ** (w * f) for f, mask in enumerate(masks[c : c + per]))
        for c in range(0, len(masks), per)
    ]


def _pack_codes(ctx: _Context) -> np.ndarray:
    """``pos``, ``d_u`` and ``r_u`` as one int8 code per row: 4 if in the
    group, plus 2 if in the pass pool, plus 1 if in the reward pool."""
    return (ctx.pos * 4 + ctx.d_u * 2 + ctx.r_u).astype(np.int8)


# a code's (row, in the group, in the pass pool, in the reward pool) counts
_CODE_COUNTS = np.array([[1, code >> 2, code >> 1 & 1, code & 1] for code in range(8)])


def _unpack_counters(n: int, sums: list[np.ndarray]) -> list[np.ndarray]:
    """The three int64 counts from sums of ``_pack_counters`` columns over ``n`` rows."""
    w = n.bit_length()
    per = 53 // w
    ints = [s.astype(np.int64) for s in sums]
    return [(ints[i // per] >> (w * (i % per))) & ((1 << w) - 1) for i in range(3)]


@dataclass
class _Candidates:
    """Gated candidates of one block over its split layout.

    A block is every numeric attribute at once, or every nominal attribute
    at once. Its layout has one row per attribute: the covered rows in
    value order (numeric) or stable category order (nominal), missing cells
    last, the first ``known`` of them with a value. A numeric block holds
    that layout as ``rows`` and the ranks of its values as ``keys``. A
    nominal block needs no sort to count: ``rows`` are the covered rows in
    row order and ``keys`` their (k, m) int32 bins, so one bincount gives
    every category's counts. Splits run in (attribute, split) order. Split
    j cuts row ``row[j]`` of the layout: its first side ends at flat
    position ``last[j]`` and is the whole prefix (``<`` a threshold) or the
    run of the category of bin ``bins[j]``; its second side is the rest of
    the known rows. Split j yields candidates 2j and 2j + 1, one per side.
    ``valid`` marks the candidates that pass both support gates and shrink
    the coverage; only those are scored.
    """

    numeric: bool
    rows: np.ndarray
    known: np.ndarray         # per row of the layout: rows with a known value
    row: np.ndarray           # per split: its row of the layout
    attrs: np.ndarray         # attribute index, one per split
    last: np.ndarray
    keys: np.ndarray          # numeric: the layout's ranks; nominal: each covered row's bins
    bins: np.ndarray | None = None     # nominal: the bin of each split's category
    offsets: np.ndarray | None = None  # nominal: _Context.offsets
    p: np.ndarray = field(init=False)
    n: np.ndarray = field(init=False)
    p_new_pass: np.ndarray = field(init=False)
    p_new_reward: np.ndarray = field(init=False)
    covc: np.ndarray = field(init=False)
    valid: np.ndarray = field(init=False)

    def side_sums(self, x: np.ndarray) -> np.ndarray:
        """Interleaved first-side/second-side sums of ``x``, one value per ``rows`` entry.

        A numeric first side reads its row's running sum at its cut, and the
        total is that running sum at the row's last known value. A nominal
        first side reads a bincount over the block's bins, and each
        attribute's total is the sum of its own per-category array, as if it
        were swept alone. Label sums are not exact, so these forms also fix
        the order in which their floats are added. Where a first side and
        its total overflow to the same infinity, the second side is summed
        from its own rows instead of being NaN.
        """
        if self.numeric:
            m = x.shape[1]
            run = x.cumsum(axis=1).ravel()
            first, total = run[self.last], run[np.arange(self.known.size) * m + self.known - 1]
        else:
            weights = x[None].repeat(self.known.size, axis=0).ravel()
            per = np.bincount(self.keys.ravel(), weights=weights, minlength=self.offsets[-1])
            # the last bin of each attribute holds its missing cells
            spans = zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())
            first, total = per[self.bins], np.array([per[lo : hi - 1].sum() for lo, hi in spans])
        out = _sides(first, total[self.row])
        if np.isinf(total).any():
            for j in np.flatnonzero(np.isinf(first) & (total[self.row] == first)):
                r = self.row[j]
                if self.numeric:
                    rest = x[r, self.last[j] - r * x.shape[1] + 1 : self.known[r]]
                else:
                    rest = x[(self.keys[r] != self.bins[j]) & (self.keys[r] != self.offsets[r + 1] - 1)]
                out[2 * j + 1] = rest.sum()
        return out

    def condition(self, i: int, ds: DataSet) -> Condition:
        """The condition of candidate ``i`` over ``ds``: side ``i % 2`` of
        split ``i // 2``. A threshold is the ``_midpoint`` of the two cells
        its split cuts between, formed only here."""
        j, side = divmod(i, 2)
        ai = int(self.attrs[j])
        if self.numeric:
            lo, hi = ds.column(ai)[self.rows.ravel()[self.last[j] : self.last[j] + 2]].tolist()
            return Condition(ai, (LT, GE)[side], _midpoint(lo, hi))
        return Condition(ai, (EQ, NE)[side], int(self.bins[j] - self.offsets[self.row[j]]))


_DBL_MAX = float(np.finfo(np.float64).max)


def _midpoint(lo: float, hi: float) -> float:
    """The threshold between Python floats ``lo < hi``: (lo + hi) / 2, halved
    first only where two finite values' sum overflows; 0.0 between -inf and
    +inf, and -DBL_MAX, below which only -inf lies, beside -inf."""
    if lo == -np.inf:
        return 0.0 if hi == np.inf else -_DBL_MAX
    mid = (lo + hi) / 2.0
    return lo / 2.0 + hi / 2.0 if abs(mid) == np.inf and hi != np.inf else mid


def _sides(first: np.ndarray, total) -> np.ndarray:
    """Interleave each split's first side with the rest of ``total``."""
    out = np.empty(2 * first.size, dtype=first.dtype)
    out[0::2] = first
    out[1::2] = total - first
    return out


def _bin_counts(keys: np.ndarray, codes: np.ndarray, size: int) -> np.ndarray:
    """The (size, 4) counts of rows, group rows, pass-pool rows and
    reward-pool rows in each bin of ``keys``, whose (k, m) cells hold bins
    below ``size`` of m rows with the ``_pack_codes`` ``codes``: one integer
    bincount keyed by bin * 8 + code."""
    key = np.multiply(keys, 8, dtype=np.intp)
    key += codes
    return np.bincount(key.ravel(), minlength=8 * size).reshape(size, 8) @ _CODE_COUNTS


def _sweep_attribute(
    ctx: _Context, block: tuple[int, ...], cov: np.ndarray, cov_idx: np.ndarray,
    counters: list[np.ndarray] | None = None, layout: tuple[np.ndarray, np.ndarray] | None = None,
    codes: np.ndarray | None = None,
) -> _Candidates | None:
    """Gated candidates of one of ``ctx.blocks`` over the covered region.

    ``counters`` are ``_pack_counters(ctx)`` and ``codes``
    ``_pack_codes(ctx)``, each computed here when the block needs it and it
    is not given. The numeric block narrows ``layout`` to the covered rows
    in one call: the (rows, ranks) of any earlier step's numeric block, or
    by default the full presort. A stable sort of the covered rows is a
    presorted order with the other rows left out, ties included, and a
    split is a gap of more than 1 between neighbouring ranks. The
    nominal block counts every attribute's categories, in the group and
    both pools too, with one integer bincount of its bins and the codes.
    """
    ctx.presort()
    m = cov_idx.size
    if ctx.ds.attributes[block[0]].is_numeric:
        k = len(block)
        if m < 2:  # no split, and each row below has m - 1 split positions
            return None
        order, ranks = layout if layout is not None else (ctx.order, ctx.ranks)
        if m == order.shape[1]:  # the layout holds just the covered rows: the root's is the presort
            rows, key = order, ranks
        else:
            # index arrays gather faster than the boolean mask itself
            at = cov[order].ravel().nonzero()[0]
            rows = order.take(at).reshape(k, m)
            key = ranks.take(at).reshape(k, m)
        known = m - np.count_nonzero(key < 0, axis=1) if ctx.missing_cells else np.full(k, m)
        # values more than 1 rank apart are a neighbour pair whose midpoint lies
        # above the lower one, or hold a value between them; missing ranks -1
        split = (key[:, 1:] - key[:, :-1] > 1).ravel().nonzero()[0]
        if split.size == 0:
            return None
        row, cut = np.divmod(split, m - 1)
        cand = _Candidates(True, rows, known, row, np.asarray(block)[row], row * m + cut, key)
        cand.covc = _sides((cut + 1).astype(np.int64, copy=False), known[cand.row])
        return _count_and_gate(ctx, cand, counters if counters is not None else _pack_counters(ctx))
    keys = ctx.keys if m == ctx.keys.shape[1] else ctx.keys.take(cov_idx, axis=1)
    codes = codes if codes is not None else _pack_codes(ctx)
    table = _bin_counts(keys, codes[cov_idx], ctx.offsets[-1])
    size = table[:, 0].copy()
    missing = ctx.offsets[1:] - 1
    known = m - size[missing]
    # each attribute's bins count its m rows, missing bin last, so the running
    # count at a category ends its run in the block's (k, m) category order
    last = np.cumsum(size) - 1
    size[missing] = 0
    bins = size.nonzero()[0]
    if bins.size == 0:
        return None
    row = np.searchsorted(ctx.offsets, bins, side="right") - 1
    cand = _Candidates(False, cov_idx, known, row, np.asarray(block)[row], last[bins], keys, bins, ctx.offsets)
    return _count_and_gate(ctx, cand, table=table)


def _count_and_gate(
    ctx: _Context, cand: _Candidates, counters: list[np.ndarray] | None = None,
    table: np.ndarray | None = None,
) -> _Candidates:
    """Count the sides of ``cand`` in the group and both pools, then gate them.

    Sets ``p``, ``n``, ``p_new_pass``, ``p_new_reward`` and ``valid``. A
    numeric block sums ``counters``, which are ``_pack_counters(ctx)``, and
    keeps ``cand.covc``. A nominal block reads ``table``, the
    ``_bin_counts`` of its bins, and sets ``covc`` too: a first side is its
    category's bin, and an attribute's known rows are the covered rows
    less its missing bin.
    """
    if cand.numeric:
        # counts are whole numbers, exact in any float or integer form
        cand.p, cand.p_new_pass, cand.p_new_reward = _unpack_counters(
            ctx.ds.n_examples, [cand.side_sums(col[cand.rows]) for col in counters]
        )
    else:
        # the first attribute's bins hold every covered row
        known = table[: cand.offsets[1]].sum(axis=0) - table[cand.offsets[1:] - 1]
        # one interleave of the four counts' rows: each row stays a run of its own
        first, total = table[cand.bins].T.ravel(), known[cand.row].T.ravel()
        cand.covc, cand.p, cand.p_new_pass, cand.p_new_reward = _sides(first, total).reshape(4, -1)
    cand.n = cand.covc - cand.p  # every row is in the group or in its contrast
    # same division forms as the pool gate in _grow, so boundaries agree; the
    # layout's last axis runs over the covered rows
    cand.valid = (
        (cand.p / ctx.P >= ctx.minsupp_all)
        & (cand.p_new_pass / ctx.P >= ctx.params.minsupp_new)
        & (cand.covc < cand.rows.shape[-1])
    )
    return cand


@dataclass
class _Root:
    """A context's full-coverage step, which every grow starts from.

    ``cands`` are the full-coverage candidates of each block with a
    split, laid out over the presort's own arrays. Once scored, their
    ``valid`` marks the candidates whose raw score ``q`` holds, per block
    in candidate order: every one with support of at least minsupp-new
    that shrinks the coverage. That is every candidate any support floor
    and pools can pass, since a candidate's new positives are among its
    positives.
    """

    cands: list[_Candidates]
    q: list[np.ndarray] | None = None


def _root_step(
    ctx: _Context, counters: list[np.ndarray], codes: np.ndarray
) -> tuple[list[_Candidates], np.ndarray]:
    """The first step of a grow: the candidates of the root that are valid
    for the pass's pools, and their raw scores, in block order.

    A copy of each root candidate is counted and gated as a sweep would
    count it, from ``counters`` and ``codes``. The scores are taken in one
    ``_score_candidates`` call on the context's first grow step. A score
    depends only on its candidate's own counts, so a cached one has the
    bits a fresh step's would have.
    """
    ctx.presort()
    root = ctx.root
    if root.q is None:
        for cand in root.cands:
            cand.valid = (cand.p / ctx.P >= ctx.params.minsupp_new) & (cand.covc < ctx.ds.n_examples)
        q = _score_candidates(ctx, root.cands)
        root.q = np.split(q, np.cumsum([np.count_nonzero(c.valid) for c in root.cands[:-1]]))
    cands, q = [], []
    for base, scores in zip(root.cands, root.q):
        # the root covers every row, in row order
        table = None if base.numeric else _bin_counts(base.keys, codes, base.offsets[-1])
        cand = _count_and_gate(ctx, copy.copy(base), counters, table)
        if cand.valid.any():
            cands.append(cand)
            q.append(scores[cand.valid[base.valid]])
    return cands, np.concatenate(q) if q else np.empty(0)


def _score_candidates(ctx: _Context, cands: list[_Candidates]) -> np.ndarray:
    """Raw task-measure score of every valid candidate of ``cands``: the
    valid ones of the first block in candidate order, then the next
    block's.

    Correlation scores the valid candidates of a block at once, and
    regression every candidate of a block. Survival counts and scores only
    the valid ones, those of every block in one kernel call as long as
    their sides fit one block of counts.
    """
    if ctx.measure == "survival":
        return -_survival_scores(ctx.survival_scorer, cands)
    out = []
    for cand in cands:
        if ctx.measure == "correlation":
            out.append(_correlation(cand.p[cand.valid], cand.n[cand.valid], ctx.P, ctx.N))
        else:
            sums = cand.side_sums(ctx.labels[cand.rows])
            covc = cand.covc.astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                means = np.where(covc > 0, sums / covc, 0.0)
            out.append(-np.abs(means - ctx.pos_label_mean)[cand.valid])
    return np.concatenate(out) if out else np.empty(0)


def _survival_scores(scorer: _LogRankScorer, cands: list[_Candidates]) -> np.ndarray:
    """Log-rank statistic of every valid candidate of ``cands``, in order.

    Each needed split (one with a valid side) gets a slot, numeric ones
    first, in candidate order. A numeric cell goes to the first needed
    split of its layout row that ends at or after it, and a split's slot
    adds its row's earlier slots; a nominal cell goes to the split of its
    bin in ``cand.keys``, so no sort is needed. Other cells go nowhere. A
    first side is its slot; a second side is its row's known rows, the
    covered rows less the row's missing cells, less its first side.
    ``_sample_scores`` counts and scores the wanted sides.
    """
    slot, cells = [], []           # per cell: its slot and data row
    adds = []                      # per slot: whether it adds the slot before it
    want, row = [], []             # per wanted side: its slot, and its layout row or -1 for a first side
    miss_row, miss_cells = [], []  # per missing cell: its layout row and data row
    size = rows = 0                # slots and layout rows so far
    for cand in cands:
        w = cand.valid.reshape(-1, 2)  # (first side, second side) per split
        need = np.flatnonzero(w.any(axis=1))
        if need.size == 0:
            continue
        r = cand.row[need]
        k, m = cand.keys.shape
        if cand.numeric:
            pos, ends = np.arange(k * m), cand.last[need]
            at = np.minimum(np.searchsorted(ends, pos), need.size - 1)
            slot.append(np.where((r[at] == pos // m) & (pos <= ends[at]), at + size, -1))
            cells.append(cand.rows.ravel())
            missing = np.flatnonzero(cand.keys < 0)
            adds.append(np.concatenate(([False], r[1:] == r[:-1])))
        else:
            of_bin = np.full(cand.offsets[-1], -1)
            of_bin[cand.bins[need]] = np.arange(need.size) + size
            slot.append(of_bin[cand.keys].ravel())
            cells.append(np.tile(cand.rows, k))
            missing = np.flatnonzero(cand.keys == (cand.offsets[1:] - 1)[:, None])
            adds.append(np.zeros(need.size, dtype=bool))
        miss_cells.append(cells[-1][missing])
        side = np.flatnonzero(w[need].ravel())
        want.append((side >> 1) + size)
        row.append(np.where(side & 1, r[side >> 1] + rows, -1))
        miss_row.append(missing // m + rows)
        size, rows = size + need.size, rows + k
    if not size:
        return np.empty(0)
    slot, cells, adds, want, row = (np.concatenate(x) for x in (slot, cells, adds, want, row))
    covered = scorer.counts(cands[0].rows[0] if cands[0].numeric else cands[0].rows)
    less = np.concatenate(miss_row), np.concatenate(miss_cells)
    return _sample_scores(scorer, slot, cells, (want, row, np.full(row.size, -1)), covered, less, adds)


def _sample_scores(scorer: _LogRankScorer, slot, rows, samples, origin, less=None, adds=None) -> np.ndarray:
    """Log-rank statistic of each of ``samples``, in order.

    Each data row of ``rows`` is counted in its ``slot``, -1 for none.
    ``samples`` holds each sample's slot, base and sign as arrays, slots
    ascending and every slot of 0..size-1 taken. A sample is its slot's
    counts, or where its base is not -1, the base's counts plus (sign 1) or
    less (sign -1) them. A base's counts are ``origin``'s (1, g) counts
    less those of its ``less`` rows; ``less`` holds their bases, ascending,
    and their data rows. Where ``adds`` is set, a slot also adds the counts
    of the slot before it, so a run of such slots counts a running sum.

    A block takes the next slots whose samples number at most
    ``scorer.block``, or one slot. One bincount keyed by (slot, grid rank)
    counts a block; a run that goes on past it carries its running sum
    into the next, and one kernel call scores the block's samples. Counts
    are integers, so all of this is exact.
    """
    keep = slot >= 0
    slot, rows = slot[keep], rows[keep]
    s_slot, s_base, s_sign = samples
    size = int(s_slot[-1]) + 1
    ends = np.cumsum(np.bincount(s_slot, minlength=size))  # samples of the slots up to each
    bounds = [0]
    while bounds[-1] < size:
        done = ends[bounds[-1] - 1] if bounds[-1] else 0
        bounds.append(max(int(np.searchsorted(ends, done + scorer.block, side="right")), bounds[-1] + 1))
    if len(bounds) > 2:
        # the running maximum and the suffix minimum of the slots ascend, so a
        # block's rows lie in one window of each; where slots ascend, that
        # window holds the block's rows alone
        lead, trail = np.maximum.accumulate(slot), np.minimum.accumulate(slot[::-1])[::-1]
    based = s_base >= 0
    signed = (np.subtract, based & (s_sign < 0)), (np.add, based & (s_sign > 0))
    out = []
    for b0, b1 in zip(bounds, bounds[1:]):
        s, r = slot, rows
        if len(bounds) > 2:
            w0, w1 = np.searchsorted(lead, b0), np.searchsorted(trail, b1)
            inside = (slot[w0:w1] >= b0) & (slot[w0:w1] < b1)
            s, r = slot[w0:w1][inside], rows[w0:w1][inside]
        n, d = scorer.counts(r, s - b0, b1 - b0)
        at = np.flatnonzero(adds[b0:b1]) if adds is not None else ()
        if len(at):
            if at[0] == 0:
                n[0] += carry[0]
                d[0] += carry[1]
            # the slots from the one before the first that adds to the last
            # that adds; each slot among them that adds none first takes away
            # the run before it, so one running sum restarts there
            lo, hi = max(at[0] - 1, 0), at[-1] + 1
            run_n, run_d = n[lo:hi], d[lo:hi]
            at = np.flatnonzero(~adds[b0 + lo + 1 : b0 + hi]) + 1
            if at.size:
                runs = np.concatenate(([0], at))
                run_n[at] -= np.add.reduceat(run_n, runs, axis=0)[:-1]
                run_d[at] -= np.add.reduceat(run_d, runs, axis=0)[:-1]
            np.cumsum(run_n, axis=0, out=run_n)
            np.cumsum(run_d, axis=0, out=run_d)
        if adds is not None and b1 < size and adds[b1]:
            carry = n[-1].copy(), d[-1].copy()
        j0, j1 = ends[b0 - 1] if b0 else 0, ends[b1 - 1]
        if j1 - j0 > b1 - b0:  # some slot has more than one sample
            at = s_slot[j0:j1] - b0
            n, d = n[at], d[at]
        base = s_base[j0:j1]
        if based[j0:j1].any():
            base_n, base_d = origin
            if less is not None:
                # the counts of the less rows of the block's bases lo..hi-1
                lo, hi = base[based[j0:j1]].min(), base.max() + 1
                a, z = np.searchsorted(less[0], (lo, hi))
                if a < z:
                    less_n, less_d = scorer.counts(less[1][a:z], less[0][a:z] - lo, hi - lo)
                    at = np.maximum(base - lo, 0)
                    base_n, base_d = base_n - less_n[at], base_d - less_d[at]
            for ufunc, where in signed:
                if where[j0:j1].any():
                    ufunc(base_n, n, out=n, where=where[j0:j1, None])
                    ufunc(base_d, d, out=d, where=where[j0:j1, None])
        out.append(scorer.side_scores(n, d))
    return np.concatenate(out)


@dataclass
class _Grown:
    """A premise: its conditions, the rows all of them cover, its raw
    quality where it is already known, and its ``_bin_counts`` row (covered
    rows, group rows, pass-pool rows, reward-pool rows), which ``_grow`` and
    ``_prune`` always set."""

    conditions: list[Condition]
    cov: np.ndarray
    quality: float | None = None
    counts: np.ndarray | None = None


def _confusion(ctx: _Context, counts: np.ndarray) -> ConfusionMatrix:
    """The confusion matrix of a premise's ``_Grown.counts`` row."""
    covc, p, p_new, _ = counts.tolist()
    return ConfusionMatrix(p=p, n=covc - p, P=ctx.P, N=ctx.N, p_new=p_new)


def _grow(ctx: _Context) -> _Grown | None:
    """Grow a premise until no candidate passes both support gates.

    Every iteration scores each candidate extension with the diversity
    modifier applied and adds the best one; ties go to the larger coverage,
    then to the earliest candidate in enumeration order. A NaN score never
    wins, and a step whose scores are all NaN ends growing. The finished
    premise must pass the negative-to-positive ceiling or growing fails.

    The first step reads the context's root, so only later steps sweep the
    covered rows and score their candidates. The premise's counts are its
    last step's candidate's, and its raw quality is that candidate's score.
    Correlation and survival score a candidate with the bits of
    ``_raw_quality``, so they hand it on; regression's swept mean adds its
    labels in another order, so its premise is scored afresh.
    """
    params = ctx.params
    # same division form as the candidate gate in _sweep_attribute
    if np.count_nonzero(ctx.d_u) / ctx.P < params.minsupp_new:
        return None
    blocks = ctx.blocks
    # d_u and r_u stay fixed for the whole call
    counters, codes = _pack_counters(ctx), _pack_codes(ctx)
    layout = None  # the last numeric sweep's layout, which covers every later step's rows
    cov = np.ones(ctx.ds.n_examples, dtype=bool)
    conditions: list[Condition] = []
    counts = np.asarray(ctx.penalty.counts)
    held = np.zeros(counts.size, dtype=bool)  # the premise's attributes
    spi = None  # s*pi of the premise plus each attribute, until the premise gains one
    quality = None
    while True:
        if not conditions:  # full coverage: the root's layout is the presort's
            cands, q = _root_step(ctx, counters, codes)
        else:
            cov_idx = cov.nonzero()[0]
            cands = []
            for block in blocks:
                cand = _sweep_attribute(ctx, block, cov, cov_idx, counters, layout, codes)
                if cand is None:
                    continue
                if cand.numeric:
                    layout = (cand.rows, cand.keys)
                if cand.valid.any():
                    cands.append(cand)
            q = _score_candidates(ctx, cands) if cands else None
        if not cands:
            break
        # the valid candidates of every block, in block order
        valid = [c.valid.nonzero()[0] for c in cands]
        fields = [(c.p[v], c.p_new_reward[v], c.covc[v], c.attrs[v // 2]) for c, v in zip(cands, valid)]
        p, rew, covc, attrs = fields[0] if len(fields) == 1 else map(np.concatenate, zip(*fields))
        if spi is None:
            spi = _extension_spi(ctx, counts, held)
        qv = _modified(ctx, q, p, rew, spi[attrs])
        top = np.fmax.reduce(qv)  # a NaN score never wins; NaN only when all are
        if np.isnan(top):
            break
        at_top = (qv == top).nonzero()[0]
        widest = at_top[covc[at_top] == covc[at_top].max()]
        # a block holds each of its attributes' candidates in order, so the first
        # of the lowest attribute is the earliest in (attribute, split, side) order
        best = int(widest[np.argmin(attrs[widest])])
        ai, quality = int(attrs[best]), float(q[best])
        for cand, v in zip(cands, valid):
            if best < v.size:
                break
            best -= v.size
        i = int(v[best])
        row = np.array([cand.covc[i], cand.p[i], cand.p_new_pass[i], cand.p_new_reward[i]])
        best_cond = cand.condition(i, ctx.ds)
        cov = cov & condition_mask(best_cond, ctx.ds)
        # every step must shrink the coverage to what the sweep counted, so
        # growing cannot repeat a step forever
        applied = int(np.count_nonzero(cov))
        if applied != row[0]:
            raise ValueError(
                f"a grow step on attribute {ctx.ds.attributes[ai].name!r} covers {applied} rows "
                f"where its sweep counted {row[0]}"
            )
        conditions.append(best_cond)
        if not held[ai]:
            held[ai] = True
            spi = None
    if not conditions or _confusion(ctx, row).neg2pos > params.max_neg2pos:
        return None
    return _Grown(conditions, cov, None if ctx.measure == "regression" else quality, row)


def _raw_quality(ctx: _Context, cov: np.ndarray, cm: ConfusionMatrix) -> float:
    if ctx.measure == "correlation":
        return correlation(cm)
    if ctx.measure == "regression":
        idx = np.flatnonzero(cov)
        if idx.size == 0:
            return float("-inf")
        return -abs(float(np.mean(ctx.labels[idx])) - ctx.pos_label_mean)
    return -ctx.survival_scorer.score(np.flatnonzero(cov))


def _spi(ctx: _Context, sums: np.ndarray) -> np.ndarray:
    """s * pi of each premise whose distinct attributes' usage counts sum to
    ``sums``: the integer sum divided once by the total, as
    ``PenaltyState.premise_penalty`` divides it, and 0 before any usage."""
    total = ctx.penalty.total
    if total == 0:
        return np.zeros(sums.shape)
    return ctx.params.penalty_strength * (sums / total)


def _extension_spi(ctx: _Context, counts: np.ndarray, held: np.ndarray) -> np.ndarray:
    """s * pi of the premise over the attributes ``held`` (a bool mask) plus
    each attribute in turn; ``counts`` holds the usage counts as an array."""
    return _spi(ctx, counts[held].sum() + counts * ~held)


def _removal_spi(ctx: _Context, counts: np.ndarray, attrs: np.ndarray) -> np.ndarray:
    """s * pi of the premise over the attribute of each entry of ``attrs``
    less that entry, in turn, then of the whole premise.

    An entry takes its attribute's count out only when it is that
    attribute's one use.
    """
    uses = np.bincount(attrs, minlength=counts.size)
    whole = counts[uses > 0].sum()
    return _spi(ctx, np.append(whole - counts[attrs] * (uses[attrs] == 1), whole))


def _modified(ctx: _Context, q, p, p_new_reward, spi) -> np.ndarray:
    """Raw qualities times the diversity multiplier of s*pi ``spi`` (one or one each)."""
    keep = 1.0 - spi
    return _apply_multiplier(q, keep, _reward_factor(p_new_reward, p, keep, ctx.params.reward_saturation))


def _modified_quality_of(ctx: _Context, q, p, p_new_reward, spi) -> np.ndarray:
    """A prune round's one modifier call: the modified quality of each
    removal and, last, of the premise itself."""
    return _modified(ctx, q, p, p_new_reward, spi)


def _prune(ctx: _Context, grown: _Grown) -> _Grown:
    """Greedily remove conditions while the modified quality does not drop.

    Each round scores the removal of every condition. A removal must keep
    the negative-to-positive ratio within bounds and reach the premise's
    own modified quality; the last removal with the highest quality wins,
    as a running-best scan in premise order would pick (a NaN never wins).
    Stops when no removal qualifies or one condition remains. The result
    carries its raw quality and its counts.

    Each row holds how many conditions it fails and the sum of their ids
    (positions in ``grown``). The premise covers the rows that fail none;
    removing condition c adds the rows that fail only c, whose id sum is c,
    so one ``_bin_counts`` of those rows keyed by id, with the sweep's
    membership codes, gives what every removal adds to the premise's
    counts. The premise's counts and raw quality come from ``grown``, or
    are taken once where it lacks them; a round carries over the taken
    removal's. The premise rides in a round's arrays as a last entry, a
    removal of nothing: its id is held by no row, so it adds none, and it
    is never allowed. The ratio gate, correlation and the multiplier each
    run once over all entries, so the multiplier's one call also gives the
    premise's own modified quality. Regression and survival take each
    removal's added rows as a slice of the single-failure rows sorted by id.
    Survival keeps the premise's counts at each grid time and hands those
    rows to ``_sample_scores``, each in its removal's slot with the premise
    as base. Regression scores each removal that adds rows afresh on its
    exact coverage, so only it rebuilds the coverage every round; the others
    rebuild it once, at the end. Condition masks are rebuilt when needed, so
    no more than one is held at a time.
    """
    cov = grown.cov
    codes = _pack_codes(ctx)
    row = grown.counts if grown.counts is not None else _bin_counts(cov, codes, 2)[1]
    q0 = grown.quality
    if q0 is None:
        q0 = _raw_quality(ctx, cov, _confusion(ctx, row))
    if len(grown.conditions) <= 1:
        return _Grown(grown.conditions, cov, q0, row)
    conditions = list(grown.conditions)
    ids = np.arange(len(conditions) + 1)  # the last id, held by no row, is the premise's
    counts = np.asarray(ctx.penalty.counts)
    attrs = np.array([c.attr_index for c in conditions])
    fails = np.zeros(ctx.ds.n_examples, dtype=np.int32)
    # wraps past 2**31 on long premises, but a row that fails once holds its id exactly
    id_sum = np.zeros(ctx.ds.n_examples, dtype=np.int32)
    for c, cond in enumerate(conditions):
        miss = ~condition_mask(cond, ctx.ds)
        fails += miss
        id_sum += miss * np.int32(c)
    scorer = ctx.survival_scorer
    if scorer is not None:
        premise = scorer.counts(cov.nonzero()[0])
    P, N, ceiling = ctx.P, ctx.N, ctx.params.max_neg2pos
    while len(conditions) > 1:
        single = (fails == 1).nonzero()[0]
        sid = id_sum[single]
        rows = row + _bin_counts(sid, codes[single], len(grown.conditions) + 1)[ids]
        covc, p, _, rew = rows.T
        added, n = covc - row[0], covc - p
        # ConfusionMatrix.neg2pos: exact products, and p = 0 reads as inf
        ok = np.divide(n * P, p * N, out=np.full(p.size, np.inf), where=p > 0) <= ceiling
        ok[-1] = False
        if ctx.measure == "correlation":  # reads only the counts
            q_rm = _correlation(p, n, P, N)
            q_rm[-1] = q0
        else:
            # ids ascend, so with the rows sorted by id removal i adds the
            # slice single[starts[i]:ends[i]]
            by_id = np.argsort(sid, kind="stable")
            single, sid = single[by_id], sid[by_id]
            ends = np.cumsum(added)
            starts = ends - added
            q_rm = np.full(ids.size, q0)
            scored = (ok & (added > 0)).nonzero()[0]
            if scorer is None:
                for i in scored:
                    cov_i = cov.copy()
                    cov_i[single[starts[i] : ends[i]]] = True
                    q_rm[i] = _raw_quality(ctx, cov_i, _confusion(ctx, rows[i]))
            elif scored.size:
                at = np.full(ids.size, -1)
                at[scored] = np.arange(scored.size)
                k = scored.size
                q_rm[scored] = -_sample_scores(scorer, np.repeat(at, added), single,
                                               (np.arange(k), np.zeros(k, int), np.ones(k, int)), premise)
        qmod = _modified_quality_of(ctx, q_rm, p, rew, _removal_spi(ctx, counts, attrs))
        reach = ok & (qmod >= qmod[-1])
        if not reach.any():
            break
        remove = int((reach & (qmod == qmod[reach].max())).nonzero()[0][-1])
        row, q0 = rows[remove], float(q_rm[remove])
        if scorer is not None:
            more = scorer.counts(single[starts[remove] : ends[remove]])
            premise = (premise[0] + more[0], premise[1] + more[1])
        miss = ~condition_mask(conditions[remove], ctx.ds)
        fails -= miss
        id_sum -= miss * np.int32(ids[remove])
        ids = np.concatenate((ids[:remove], ids[remove + 1 :]))
        attrs = np.concatenate((attrs[:remove], attrs[remove + 1 :]))
        del conditions[remove]
        if ctx.measure == "regression":
            cov = fails == 0
    if len(conditions) < len(grown.conditions):
        cov = fails == 0
    return _Grown(conditions, cov, q0, row)


def _resolve_measure(ds: DataSet, params: MiningParams) -> str:
    measure = params.measure or measure_for_task(ds.task)
    if measure == "regression" and ds.labels is None:
        raise ValueError("regression measure needs a bound label column")
    if measure == "survival" and (ds.times is None or ds.status is None):
        raise ValueError("survival measure needs bound time and status columns")
    return measure


def _api_context(
    ds: DataSet,
    group: str,
    params: MiningParams,
    uncovered: np.ndarray | None,
    penalty: PenaltyState | None,
    reward_uncovered: np.ndarray | None,
    minsupp_all: float | None = None,
) -> _Context:
    """Context for the public grow and prune calls, from coverage masks."""
    measure = _resolve_measure(ds, params)
    if penalty is not None and penalty.n_attributes != len(ds.attributes):
        raise ValueError(
            f"penalty tracks {penalty.n_attributes} attributes, the dataset has {len(ds.attributes)}"
        )
    if uncovered is not None:
        uncovered = _check_mask(uncovered, ds, "uncovered")
    if reward_uncovered is not None:
        reward_uncovered = _check_mask(reward_uncovered, ds, "reward_uncovered")
    return _Context.build(
        ds,
        group,
        params,
        measure,
        d_u=uncovered,
        r_u=uncovered if reward_uncovered is None else reward_uncovered,
        penalty=penalty,
        minsupp_all=minsupp_all,
    )


def grow(
    ds: DataSet,
    group: str,
    uncovered: np.ndarray,
    params: MiningParams,
    penalty: PenaltyState | None = None,
    reward_uncovered: np.ndarray | None = None,
    minsupp_all: float | None = None,
) -> ContrastSet | None:
    """Grow one premise for ``group``; None when nothing satisfiable.

    ``uncovered`` is the pass's uncovered-positive pool, frozen for the
    whole call. The reward baseline defaults to the same pool.
    """
    ctx = _api_context(ds, group, params, uncovered, penalty, reward_uncovered, minsupp_all)
    grown = _grow(ctx)
    if grown is None:
        return None
    return ContrastSet(tuple(grown.conditions), group)


def prune(
    cs: ContrastSet,
    ds: DataSet,
    params: MiningParams,
    uncovered: np.ndarray | None = None,
    penalty: PenaltyState | None = None,
    reward_uncovered: np.ndarray | None = None,
) -> ContrastSet:
    """Prune a premise; single-condition input returns unchanged."""
    ctx = _api_context(ds, cs.group, params, uncovered, penalty, reward_uncovered)
    if len(cs.conditions) <= 1:
        return cs
    pruned = _prune(ctx, _Grown(list(cs.conditions), cover(cs, ds)))
    return ContrastSet(tuple(pruned.conditions), cs.group)


def mine_group(
    ds: DataSet,
    group: str,
    params: MiningParams | None = None,
    *,
    events: list[MiningEvent] | None = None,
) -> list[AnnotatedContrastSet]:
    """Mine all contrast sets for one group of interest.

    Returns the emitted sets in generation order, duplicates filtered.
    Pass ``events`` to also record every acceptance, duplicates included,
    with the penalty counters after each update.
    """
    params = params or MiningParams()
    measure = _resolve_measure(ds, params)
    if group not in ds.groups:
        raise KeyError(f"no group named {group!r}")
    ctx = _Context.build(ds, group, params, measure)
    pos_mask = ctx.pos
    penalty = ctx.penalty
    pool: list[AnnotatedContrastSet] = []
    pool_keys: set = set()
    pool_attrs: list[frozenset[int]] = []
    pool_pos_cov: list[np.ndarray] = []

    for level in params.minsupps:
        penalty.reset()
        r_u = pos_mask.copy()
        ctx.minsupp_all = level
        ctx.r_u = r_u
        for pass_index in range(1, params.max_passes + 1):
            d_u = pos_mask.copy()
            ctx.d_u = d_u
            new_in_pass = 0
            while True:
                grown = _grow(ctx)
                if grown is None:
                    break
                pruned = _prune(ctx, grown)
                cov = pruned.cov
                canon = canonicalize(ContrastSet(tuple(pruned.conditions), group))
                cm = _confusion(ctx, pruned.counts)
                quality = pruned.quality
                key = canon.key()
                duplicate = key in pool_keys
                d_u &= ~cov
                r_u &= ~cov
                penalty.update(canon.attribute_indices)
                if events is not None:
                    events.append(
                        MiningEvent(
                            minsupp_all=level,
                            pass_index=pass_index,
                            contrast_set=canon,
                            duplicate=duplicate,
                            p=cm.p,
                            n=cm.n,
                            p_new=cm.p_new,
                            usage_after=tuple(penalty.counts),
                            usage_total_after=penalty.total,
                        )
                    )
                if not duplicate:
                    attrs = canon.attribute_indices
                    pos_cov = cov & pos_mask
                    red, red_i = _max_similarity(attrs, pos_cov, pool_attrs, pool_pos_cov)
                    pool.append(
                        AnnotatedContrastSet(
                            contrast_set=canon,
                            group=group,
                            pass_index=pass_index,
                            minsupp_all=level,
                            p=cm.p,
                            n=cm.n,
                            p_new=cm.p_new,
                            P=cm.P,
                            N=cm.N,
                            quality=quality,
                            redundancy=red,
                            redundancy_with=red_i,
                        )
                    )
                    pool_keys.add(key)
                    pool_attrs.append(attrs)
                    pool_pos_cov.append(pos_cov)
                    new_in_pass += 1
            if new_in_pass == 0:
                break
    return pool


def _worker_count(workers: int | None) -> int:
    """Process count for mine_all: ``workers``, else CSMINE_WORKERS, else 1.

    A value that is not an integer of at least 1 raises ValueError naming
    its source.
    """
    name, value = "workers", workers
    if workers is None:
        name, value = WORKERS_ENV, os.environ.get(WORKERS_ENV) or "1"
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):  # inf raises OverflowError
        count = 0
    # int() truncates a fraction and reads a bool as 0 or 1
    if isinstance(value, bool) or not isinstance(value, str) and count != value:
        count = 0
    if count < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    return count


def _mine_one(args) -> tuple[str, list[AnnotatedContrastSet]]:
    ds, group, params = args
    return group, mine_group(ds, group, params)


def mine_all(
    ds: DataSet,
    params: MiningParams | None = None,
    groups: Sequence[str] | None = None,
    *,
    workers: int | None = None,
) -> dict[str, list[AnnotatedContrastSet]]:
    """Mine every requested group of interest.

    One-vs-all contrasts each group against all others; one-vs-one keeps
    only the group of interest and ``params.negative_group``, dropping the
    rest of the dataset entirely. ``workers`` (default from the
    CSMINE_WORKERS environment variable) fans groups out across processes;
    output order stays deterministic either way.
    """
    params = params or MiningParams()
    workers = _worker_count(workers)
    if len(ds.groups) < 2:
        raise ValueError("mining needs at least two groups")
    if params.mode == "one-vs-one":
        negative = params.negative_group
        if negative is None:
            raise ValueError("one-vs-one mode needs negative_group")
        if negative not in ds.groups:
            raise KeyError(f"no group named {negative!r}")
        targets = list(groups) if groups is not None else [g for g in ds.groups if g != negative]
        if negative in targets:
            raise ValueError("the negative group cannot also be a group of interest")
        jobs = []
        for g in targets:
            sel = ds.group_mask(g) | ds.group_mask(negative)
            jobs.append((ds.subset(sel), g, params))
    else:
        targets = list(groups) if groups is not None else list(ds.groups)
        for g in targets:
            if g not in ds.groups:
                raise KeyError(f"no group named {g!r}")
        jobs = [(ds, g, params) for g in targets]
    results: dict[str, list[AnnotatedContrastSet]] = {}
    if workers > 1 and len(jobs) > 1:
        # imported here, so a run that starts no pool never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for g, sets in pool.map(_mine_one, jobs):
                results[g] = sets
    else:
        for job in jobs:
            g, sets = _mine_one(job)
            results[g] = sets
    return results
