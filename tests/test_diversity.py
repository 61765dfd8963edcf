"""Penalty state, reward factor, modified quality, similarity, redundancy."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmine.contrast import EQ, GE, LT, Condition, ContrastSet
from csmine.data import Attribute, DataSet
from csmine.diversity import (
    MULTIPLIER_FLOOR,
    PenaltyState,
    RedundancyRecord,
    attribute_penalty,
    modified_quality,
    premise_penalty,
    redundancy,
    reward,
    similarity,
)
from csmine.diversity import _apply_multiplier, _reward_factor

from conftest import _naive_modifier, random_classification
from test_contrast import random_premise


# ---------------------------------------------------------------------------
# penalty state

def test_penalty_state_worked_example():
    state = PenaltyState(4)
    assert state.attribute_penalty(0) == 0.0  # no usage yet
    state.update({0, 1})
    state.update({1})
    state.update({3})
    assert state.counts == [1, 2, 0, 1]
    assert state.total == 4
    assert [state.attribute_penalty(i) for i in range(4)] == [0.25, 0.5, 0.0, 0.25]
    assert state.premise_penalty({1, 3}) == 0.75
    assert state.premise_penalty({0, 1, 3}) == 1.0
    state.reset()
    assert state.counts == [0, 0, 0, 0] and state.total == 0


def test_penalty_update_counts_distinct_attributes_once():
    state = PenaltyState(3)
    state.update([2, 2, 2])
    assert state.counts == [0, 0, 1]
    assert state.total == 1


def test_penalty_state_validation():
    with pytest.raises(ValueError, match="one usage count per attribute"):
        PenaltyState(3, counts=[0, 0])
    # pi divides by total, so a total that is not the counts' sum is refused
    with pytest.raises(ValueError, match="total must be the sum"):
        PenaltyState(2, counts=[1, 1])
    with pytest.raises(ValueError, match="total must be the sum"):
        PenaltyState(2, counts=[5, 5], total=1)


def test_premise_penalty_is_exact_where_a_float_sum_is_not():
    # ten shares of 0.1 add up to 0.9999999999999999 as floats; pi is 10 / 10
    state = PenaltyState(10, counts=[1] * 10, total=10)
    assert state.premise_penalty(range(10)) == 1.0
    assert state.premise_penalty([9, 0, 9, 3, 1, 2, 8, 4, 7, 6, 5, 0]) == 1.0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_premise_penalty_is_one_exact_division(data):
    # any attribute list, repeats and any order included, gives the counts'
    # exact share rounded once
    counts = data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=60))
    k = len(counts)
    attrs = data.draw(st.lists(st.integers(0, k - 1), max_size=3 * k))
    state = PenaltyState(k, counts=counts, total=sum(counts))
    got = state.premise_penalty(attrs)
    want = float(Fraction(sum(counts[a] for a in set(attrs)), state.total)) if state.total else 0.0
    assert got.hex() == want.hex()


def test_premise_penalty_accepts_contrast_set():
    state = PenaltyState(2)
    state.update({0})
    state.update({1})
    # two bounds on one attribute count its penalty once
    cs = ContrastSet((Condition(0, GE, 1.0), Condition(0, LT, 2.0)), "g")
    assert premise_penalty(state, cs) == 0.5
    assert attribute_penalty(state, 0) == 0.5
    assert premise_penalty(state, [0, 1]) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(min_value=0, max_value=5)), max_size=8))
def test_penalties_sum_to_one(premises):
    state = PenaltyState(6)
    for attrs in premises:
        state.update(attrs)
    total = sum(state.attribute_penalty(i) for i in range(6))
    if state.total == 0:
        assert total == 0.0
    else:
        assert total == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# reward factor

def test_reward_worked_value():
    # x = 0.6 past saturation 0.2, penalty 0.5 at strength 0.5
    assert reward(6, 10, 0.5, 0.5, 0.2) == pytest.approx(7 / 6, rel=1e-15)


def test_reward_flat_until_saturation():
    assert reward(0, 10, 0.5, 0.5, 0.2) == 1.0
    assert reward(2, 10, 0.5, 0.5, 0.2) == 1.0  # exactly at b
    assert reward(3, 10, 0.0, 0.9, 0.2) == 1.0  # s = 0 kills the slope


def test_reward_endpoint_cancels_penalty():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = float(rng.uniform(0.0, 2.0))
        pi = float(rng.uniform(0.0, 1.5))
        if s * pi >= 0.9:
            continue
        got = reward(10, 10, s, pi, 0.2)
        assert got == pytest.approx(1.0 / (1.0 - s * pi), rel=1e-12)


def test_reward_errors():
    with pytest.raises(ValueError, match="p > 0"):
        reward(0, 0, 0.5, 0.5, 0.2)
    with pytest.raises(ValueError, match="saturation"):
        reward(1, 2, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="saturation"):
        reward(1, 2, 0.5, 0.5, 1.5)
    with pytest.raises(ValueError, match=r"s\*pi"):
        reward(1, 2, 2.0, 0.5, 0.2)


# ---------------------------------------------------------------------------
# modified quality

def test_modified_quality_worked_value():
    phi = reward(6, 10, 0.5, 0.5, 0.2)
    assert modified_quality(1.0, 0.5, 0.5, phi) == pytest.approx(0.875, rel=1e-15)
    assert modified_quality(-1.0, 0.5, 0.5, phi) == pytest.approx(-1 / 0.875, rel=1e-15)


def test_modified_quality_floor():
    assert modified_quality(1.0, 1.0, 1.0, 1.0) == MULTIPLIER_FLOOR
    assert modified_quality(-1.0, 1.0, 1.0, 1.0) == -1.0 / MULTIPLIER_FLOOR
    assert modified_quality(1.0, 2.0, 1.0, 1.0) == MULTIPLIER_FLOOR  # m would go negative


def test_modified_quality_never_beats_raw():
    rng = np.random.default_rng(6)
    for _ in range(300):
        q = float(rng.uniform(-2, 2))
        s = float(rng.uniform(0, 1.2))
        pi = float(rng.uniform(0, 1.2))
        if s * pi >= 1:
            phi = 1.0
        else:
            phi = reward(int(rng.integers(0, 11)), 10, s, pi, 0.2)
        got = modified_quality(q, s, pi, phi)
        if q >= 0:
            assert got <= q + 1e-12
        else:
            assert got <= q + 1e-12  # negative quality only gets worse


def test_modified_quality_identity_cases():
    # s = 0 leaves any quality untouched, bitwise
    for q in (0.0, 0.375, -0.75, 1.0):
        assert modified_quality(q, 0.0, 0.8, reward(7, 10, 0.0, 0.8, 0.2)) == q
        assert modified_quality(q, 0.7, 0.0, reward(7, 10, 0.7, 0.0, 0.2)) == q
    # full novelty cancels the penalty to within float round-off
    s, pi = 0.5, 0.6
    phi = reward(10, 10, s, pi, 0.2)
    assert modified_quality(0.625, s, pi, phi) == pytest.approx(0.625, rel=1e-12)


def test_array_spi_kernels_match_scalar_calls():
    # one kernel call over many (q, p, p_new, s*pi) equals a scalar call per
    # element and the literal modifier, bit for bit, on both sides of the floor
    rng = np.random.default_rng(9)
    b = 0.2
    spi = np.concatenate([[0.0, 1.0, 1.5, 0.5, 1.0 - 1e-12], rng.uniform(0.0, 1.2, 195)])
    p = rng.integers(0, 12, spi.size)
    p_new = np.minimum(rng.integers(0, 12, spi.size), p)
    q = rng.uniform(-1.0, 1.0, spi.size)
    q[:3] = (0.0, -0.25, 0.5)
    # the whole array takes the guarded path (some p = 0, some s*pi >= 1);
    # a scalar call with p > 0 and s*pi < 1 takes the unguarded one
    keep = 1.0 - spi
    phi = _reward_factor(p_new, p, keep, b)
    got = _apply_multiplier(q, keep, phi)
    for i in range(spi.size):
        phi_i = _reward_factor(int(p_new[i]), int(p[i]), float(keep[i]), b)
        assert phi[i].tobytes() == phi_i.tobytes()
        want = _apply_multiplier(float(q[i]), float(keep[i]), phi_i)
        assert got[i].tobytes() == want.tobytes()
        m = _naive_modifier(1.0, b, float(spi[i]), int(p[i]), int(p_new[i]))
        assert got[i] == (q[i] * m if q[i] >= 0 else q[i] / m)
        if spi[i] < 1.0 and p[i] > 0:
            assert phi[i] == reward(int(p_new[i]), int(p[i]), 1.0, float(spi[i]), b)
    assert (phi[spi >= 1.0] == 1.0).all()


# ---------------------------------------------------------------------------
# similarity / redundancy

def _sim_ds():
    attrs = (
        Attribute("x0", "numeric"),
        Attribute("x1", "nominal", ("a",)),
        Attribute("x2", "nominal", ("b",)),
    )
    cols = [
        np.array([0.0, 1.0, 2.0, 3.0]),
        np.zeros(4, dtype=np.int32),
        np.zeros(4, dtype=np.int32),
    ]
    return DataSet(attrs, cols, relation="sim", task="classification",
                   group_names=("g",), group_codes=np.zeros(4, dtype=np.int32))


def test_similarity_worked_value():
    ds = _sim_ds()
    pos = ds.group_mask("g")
    cs_a = ContrastSet((Condition(0, LT, 2.0),), "g")  # covers {0,1}, attrs {0}
    cs_b = ContrastSet((
        Condition(0, GE, 1.0), Condition(0, LT, 3.0),
        Condition(1, EQ, 0), Condition(2, EQ, 0),
    ), "g")  # covers {1,2}, attrs {0,1,2}
    got = similarity(cs_a, cs_b, pos, ds)
    assert got == (1 / 3) * (1 / 3)
    assert similarity(cs_b, cs_a, pos, ds) == got


def test_similarity_bounds_and_disjoint_attrs():
    ds = _sim_ds()
    pos = ds.group_mask("g")
    a = ContrastSet((Condition(1, EQ, 0),), "g")
    b = ContrastSet((Condition(2, EQ, 0),), "g")
    assert similarity(a, b, pos, ds) == 0.0  # no shared attribute
    assert similarity(a, a, pos, ds) == 1.0
    rng = np.random.default_rng(17)
    rds = random_classification(61, n_min=30, n_max=80)
    rpos = rds.group_mask(rds.groups[0])
    for _ in range(30):
        x, y = random_premise(rng, rds), random_premise(rng, rds)
        sim = similarity(x, y, rpos, rds)
        assert 0.0 <= sim <= 1.0
        assert similarity(y, x, rpos, rds) == sim


def test_redundancy_earliest_argmax():
    ds = _sim_ds()
    pos = ds.group_mask("g")
    target = ContrastSet((Condition(0, LT, 2.0),), "g")
    twin_a = ContrastSet((Condition(0, LT, 2.0),), "g")
    twin_b = ContrastSet((Condition(0, GE, 0.0), Condition(0, LT, 2.0)), "g")
    far = ContrastSet((Condition(1, EQ, 0),), "g")
    rec = redundancy(target, [far, twin_a, twin_b], pos, ds)
    # twins tie at similarity 1; the earlier one wins
    assert rec == RedundancyRecord(1.0, 1)
    assert redundancy(target, [], pos, ds) == RedundancyRecord(0.0, None)
    only = redundancy(target, [far], pos, ds)
    assert only.predecessor == 0 and only.value == 0.0


def test_redundancy_dominates_each_similarity():
    rng = np.random.default_rng(23)
    ds = random_classification(62, n_min=30, n_max=80)
    pos = ds.group_mask(ds.groups[0])
    prems = [random_premise(rng, ds) for _ in range(6)]
    target = random_premise(rng, ds)
    rec = redundancy(target, prems, pos, ds)
    for prev in prems:
        assert rec.value >= similarity(target, prev, pos, ds)
