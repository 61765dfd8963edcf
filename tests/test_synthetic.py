"""The built-in synthetic benchmark: exact counts, seed independence."""

import numpy as np
import pytest

from csmine.data import Attribute
from csmine.synthetic import ClusterSpec, SyntheticSpec, default_spec, generate_synthetic


def test_sizes_and_groups():
    ds = generate_synthetic()
    assert ds.n_examples == 420
    assert ds.relation == "synthetic"
    assert ds.task == "classification"
    assert ds.groups == ("red", "blue")
    assert np.count_nonzero(ds.group_mask("red")) == 170
    assert np.count_nonzero(ds.group_mask("blue")) == 250
    assert [a.name for a in ds.attributes] == ["a1", "a2", "a3"]


def test_generation_is_deterministic():
    a = generate_synthetic(seed=42)
    b = generate_synthetic(seed=42)
    for i in range(3):
        np.testing.assert_array_equal(a.column(i), b.column(i))
    np.testing.assert_array_equal(a.group_codes, b.group_codes)


def test_value_counts_do_not_depend_on_seed():
    a = generate_synthetic(seed=0)
    b = generate_synthetic(seed=99)
    red_a, red_b = a.group_mask("red"), b.group_mask("red")
    for i in range(3):
        ca, cb = a.column(i), b.column(i)
        np.testing.assert_array_equal(np.sort(ca), np.sort(cb))
        # per-group value counts are part of the design, not the seed
        np.testing.assert_array_equal(np.sort(ca[red_a]), np.sort(cb[red_b]))


def test_a3_contingency():
    ds = generate_synthetic()
    red = ds.group_mask("red")
    a3 = ds.column(2)
    dom = ds.attributes[2].domain
    counts = {
        v: (int(((a3 == k) & red).sum()), int(((a3 == k) & ~red).sum()))
        for k, v in enumerate(dom)
    }
    assert counts == {"1": (85, 6), "2": (77, 0), "3": (8, 112), "4": (0, 132)}


def test_key_single_condition_statistics():
    ds = generate_synthetic()
    red = ds.group_mask("red")
    a1, a2 = ds.column(0), ds.column(1)
    below = a1 < 1.7
    assert (int((below & red).sum()), int((below & ~red).sum())) == (83, 6)
    high = a2 >= 3.6
    assert (int((high & red).sum()), int((high & ~red).sum())) == (73, 6)
    # the a1 < 1.7 box must not swallow the whole scatter: it extends to 1.8
    assert int(((a1 == 1.8) & red).sum()) == 2


def test_custom_spec_round_trip():
    spec = SyntheticSpec(
        attributes=(Attribute("x", "numeric"), Attribute("c", "nominal", ("u", "v"))),
        groups=("g1", "g2"),
        clusters=(
            ClusterSpec("one", "g1", 3, {"x": {1.0: 2, 2.0: 1}, "c": {"u": 3}}),
            ClusterSpec("two", "g2", 2, {"x": {5.0: 2}, "c": {"v": 2}}),
        ),
        relation="tiny",
    )
    ds = generate_synthetic(spec, seed=1)
    assert ds.n_examples == 5
    assert ds.relation == "tiny"
    assert np.count_nonzero(ds.group_mask("g1")) == 3
    x = ds.column(0)
    assert sorted(x.tolist()) == [1.0, 1.0, 2.0, 5.0, 5.0]
    np.testing.assert_array_equal(np.sort(ds.column(1)), [0, 0, 0, 1, 1])


def test_spec_validation():
    with pytest.raises(ValueError, match="sum to 2, expected 3"):
        ClusterSpec("bad", "g", 3, {"x": {1.0: 2}})
    with pytest.raises(ValueError, match="positive size"):
        ClusterSpec("bad", "g", 0, {})
    attrs = (Attribute("x", "numeric"), Attribute("c", "nominal", ("u",)))
    ok = ClusterSpec("one", "g1", 1, {"x": {1.0: 1}, "c": {"u": 1}})
    with pytest.raises(ValueError, match="undeclared group"):
        SyntheticSpec(attrs, ("other",), (ok,))
    with pytest.raises(ValueError, match="lacks values"):
        SyntheticSpec(attrs, ("g1",),
                      (ClusterSpec("one", "g1", 1, {"x": {1.0: 1}}),))
    with pytest.raises(ValueError, match="outside"):
        SyntheticSpec(attrs, ("g1",),
                      (ClusterSpec("one", "g1", 1, {"x": {1.0: 1}, "c": {"z": 1}}),))
