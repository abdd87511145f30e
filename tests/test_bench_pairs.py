"""The verdict rule of scripts/bench_pairs.py, on made-up pairs of runs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from bench_pairs import verdict  # noqa: E402


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_iqr():
    assert verdict([(10.0, 9.0)] * 9 + [(10.0, 11.0)], "lower", 0.25) == "gain"
    assert verdict([(10.0, 9.0)] * 8 + [(10.0, 11.0)] * 2, "lower", 0.25) == "no change"
    # every pair won, but by less than the parent's own spread: with that
    # spread inside the bound no sign of a change, beyond it unresolved
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0]
    assert verdict([(p, p - 0.1) for p in parent], "lower", 0.5) == "no change"
    assert verdict([(p, p - 0.1) for p in parent], "lower", 0.2) == "unresolved"
    assert verdict([(100.0, 120.0)] * 10, "higher", 0.25) == "gain"


def test_worse_means_beyond_the_bound():
    assert verdict([(10.0, 13.0)] * 10, "lower", 0.25) == "worse"
    assert verdict([(10.0, 12.0)] * 10, "lower", 0.25) == "no change"
    assert verdict([(100.0, 70.0)] * 10, "higher", 0.25) == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    pairs = [(10.0, 10.0), (20.0, 20.0), (5.0, 5.0), (10.0, 10.0)]
    assert verdict(pairs, "lower", 0.25) == "unresolved"
    # unless every run of the change reads better than every run of the parent
    assert verdict([(20.0, 4.0), (30.0, 1.0), (25.0, 9.0), (40.0, 2.0)], "lower", 0.25) == "gain"
    assert verdict([(20.0, 10.0), (30.0, 19.0), (21.0, 18.0), (40.0, 19.5)], "lower", 0.25) != "unresolved"
