"""Attribute-usage penalties, coverage rewards, and redundancy scoring.

Sequential covering alone tends to re-derive the same strong premise over
and over. Two counterweights steer later inductions elsewhere: a penalty
that grows with how often an attribute already appears in accepted sets,
and a reward that cancels the penalty in proportion to how much genuinely
new territory a candidate covers. Redundancy measures after the fact how
much an emitted set repeats its predecessors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .contrast import ContrastSet, cover
from .data import DataSet, _check_mask

__all__ = [
    "PenaltyState",
    "attribute_penalty",
    "premise_penalty",
    "reward",
    "modified_quality",
    "similarity",
    "redundancy",
    "RedundancyRecord",
    "MULTIPLIER_FLOOR",
]

# Multiplier floor applied when s * pi reaches 1 and the modifier would
# otherwise vanish or flip sign.
MULTIPLIER_FLOOR = 1e-6


@dataclass
class PenaltyState:
    """Attribute usage history for one group and one minsupp level.

    ``counts[a]`` is the number of previously accepted contrast sets whose
    premise used attribute ``a`` (each set counts once per attribute;
    duplicates of earlier sets still count). ``total`` is the sum of all
    counts.
    """

    n_attributes: int
    counts: list[int] = field(default_factory=list)
    total: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * self.n_attributes
        if len(self.counts) != self.n_attributes:
            raise ValueError("one usage count per attribute required")
        if self.total != sum(self.counts):
            raise ValueError("total must be the sum of the usage counts")

    def reset(self) -> None:
        self.counts = [0] * self.n_attributes
        self.total = 0

    def update(self, attribute_indices: Iterable[int]) -> None:
        """Record one accepted contrast set by its distinct attributes."""
        for ai in set(attribute_indices):
            self.counts[ai] += 1
            self.total += 1

    def attribute_penalty(self, attr_index: int) -> float:
        if self.total == 0:
            return 0.0
        return self.counts[attr_index] / self.total

    def premise_penalty(self, attribute_indices: Iterable[int]) -> float:
        """pi: the counts of ``set(attribute_indices)`` summed as integers and
        divided once by total, so the one rounding makes it exact."""
        if self.total == 0:
            return 0.0
        counts = self.counts
        return sum([counts[ai] for ai in set(attribute_indices)]) / self.total


def attribute_penalty(state: PenaltyState, attr_index: int) -> float:
    """Usage share of one attribute: count / total, 0 before any usage."""
    return state.attribute_penalty(attr_index)


def premise_penalty(state: PenaltyState, cs: ContrastSet | Iterable[int]) -> float:
    """Sum of attribute penalties over the distinct attributes of a premise.

    Two bounds on the same attribute count its penalty once.
    """
    if isinstance(cs, ContrastSet):
        return state.premise_penalty(cs.attribute_indices)
    return state.premise_penalty(cs)


def reward(p_new: int, p: int, s: float, pi: float, b: float) -> float:
    """Reward factor phi >= 1 for covering new positives.

    x = p_new / p is the share of covered positives that were previously
    uncovered. Up to the saturation point b the reward stays 1; beyond it
    phi climbs linearly to 1 / (1 - s*pi) at x = 1, the value that exactly
    cancels the penalty. Requires s*pi < 1 and p > 0.
    """
    if p <= 0:
        raise ValueError("reward needs p > 0")
    if not 0 < b <= 1:
        raise ValueError("saturation b must be in (0, 1]")
    if s * pi >= 1:
        raise ValueError("reward undefined for s*pi >= 1")
    return float(_reward_factor(p_new, p, 1.0 - s * pi, b))


def modified_quality(q: float, s: float, pi: float, phi: float) -> float:
    """Apply the diversity multiplier m = (1 - s*pi) * phi to a quality.

    m never exceeds 1, so a modified quality never beats the raw one.
    Non-negative qualities are multiplied; negative ones are divided so the
    penalty still worsens them. When s*pi >= 1 the multiplier is floored at
    MULTIPLIER_FLOOR instead of vanishing.
    """
    return float(_apply_multiplier(q, 1.0 - s * pi, phi))


def _reward_factor(p_new, p, keep, b: float) -> np.ndarray:
    """phi per candidate from its new and total positive counts and ``keep = 1 - s*pi``.

    ``keep`` is one value or one per candidate. A candidate with p = 0 has
    x = 0. Where s*pi >= 1 (keep <= 0) phi is 1: the multiplier is floored
    there whatever phi is. Only when some p is 0, some keep <= 0 or b = 1
    does the formula need a masked divide and silenced float errors;
    otherwise the slope is finite, and x <= b makes phi exactly 1.
    """
    p = np.asarray(p, dtype=np.float64)
    if b < 1.0 and np.count_nonzero(p) == p.size and np.count_nonzero(keep > 0.0) == np.size(keep):
        return 1.0 + (np.maximum(p_new / p - b, 0.0) / (1.0 - b)) * (1.0 / keep - 1.0)
    x = np.divide(p_new, p, out=np.zeros(p.shape), where=p > 0)
    keep = np.asarray(keep, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        grown = 1.0 + ((x - b) / (1.0 - b)) * (1.0 / keep - 1.0)
    return np.where((keep <= 0.0) | (x <= b), 1.0, grown)


def _apply_multiplier(q, keep, phi) -> np.ndarray:
    """q times m = max(keep * phi, MULTIPLIER_FLOOR), or q / m for q < 0.

    ``keep`` is 1 - s*pi, one value or one per quality.
    """
    m = np.maximum(keep * phi, MULTIPLIER_FLOOR)
    return np.where(q >= 0, q * m, q / m)


def _jaccard(intersection: int, union: int) -> float:
    return intersection / union if union else 0.0


def _max_similarity(
    attrs: frozenset,
    pos_cov: np.ndarray,
    pool_attrs: Sequence[frozenset],
    pool_pos_cov: Sequence[np.ndarray],
) -> tuple[float, int | None]:
    """Highest similarity of one set to a pool, and the pool index holding it.

    A set is given by its attribute indices and its positive-coverage bool
    mask; similarity is the product of the two Jaccard indices. The earliest
    maximum wins; an empty pool gives (0.0, None).
    """
    best, best_i = 0.0, None
    for i, (pa, pc) in enumerate(zip(pool_attrs, pool_pos_cov)):
        sim = _jaccard(len(attrs & pa), len(attrs | pa))
        if sim > 0.0:
            sim *= _jaccard(int(np.count_nonzero(pos_cov & pc)), int(np.count_nonzero(pos_cov | pc)))
        if best_i is None or sim > best:
            best, best_i = sim, i
    return best, best_i


def similarity(
    cs_a: ContrastSet, cs_b: ContrastSet, positives: np.ndarray, ds: DataSet
) -> float:
    """Product of two Jaccard indices: attribute sets and positive coverages."""
    positives = _check_mask(positives, ds, "positives")
    return _max_similarity(
        cs_a.attribute_indices, cover(cs_a, ds) & positives,
        [cs_b.attribute_indices], [cover(cs_b, ds) & positives],
    )[0]


@dataclass(frozen=True)
class RedundancyRecord:
    """Highest similarity of a set to any predecessor, and which one."""

    value: float
    predecessor: int | None


def redundancy(
    cs: ContrastSet,
    predecessors: Sequence[ContrastSet],
    positives: np.ndarray,
    ds: DataSet,
) -> RedundancyRecord:
    """Maximum similarity of ``cs`` to the sets emitted before it.

    The first set of a group has redundancy 0 with no predecessor.
    """
    positives = _check_mask(positives, ds, "positives")
    value, index = _max_similarity(
        cs.attribute_indices, cover(cs, ds) & positives,
        [prev.attribute_indices for prev in predecessors],
        [cover(prev, ds) & positives for prev in predecessors],
    )
    return RedundancyRecord(value, index)
