"""scripts/bench_pairs.summarize on hand-built pairs: wins, losses, bounds and the gain rule."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "items_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "item_ms_p50", "better": "lower", "bound": 0.25}


def _pairs(base, change, name):
    return [{"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}} for b, c in zip(base, change)]


def _summary(base, change, metric):
    return bench_pairs.summarize(_pairs(base, change, metric["name"]), [metric])[metric["name"]]


@pytest.mark.parametrize("metric, better, worse", [(HIGHER, 101.0, 99.0), (LOWER, 99.0, 101.0)])
def test_wins_and_losses_follow_the_metric_direction(metric, better, worse):
    change = [better] * 6 + [worse] * 3 + [100.0]  # the last pair is a tie: neither won nor lost
    s = _summary([100.0] * 10, change, metric)
    assert (s["wins"], s["losses"]) == (6, 3)
    assert s["base"]["median"] == 100.0 and s["change"]["median"] == better


@pytest.mark.parametrize(
    "metric, at_edge, past_edge",
    [(HIGHER, 75.0, 74.5), (LOWER, 125.0, 125.5)],
)
def test_within_bound_holds_at_the_bound_and_fails_past_it(metric, at_edge, past_edge):
    assert _summary([100.0] * 10, [at_edge] * 10, metric)["within_bound"] is True
    assert _summary([100.0] * 10, [past_edge] * 10, metric)["within_bound"] is False
    # a gain is always within the bound
    gain = 150.0 if metric is HIGHER else 50.0
    assert _summary([100.0] * 10, [gain] * 10, metric)["within_bound"] is True


@pytest.mark.parametrize("metric, sign", [(HIGHER, 1), (LOWER, -1)])
def test_gain_needs_nine_of_ten_wins(metric, sign):
    base = [100.0] * 10  # interquartile range 0
    nine = [100.0 + sign] * 9 + [100.0 - sign]
    eight = [100.0 + sign] * 8 + [100.0 - sign] * 2
    assert _summary(base, nine, metric)["gain_claimable"] is True
    s = _summary(base, eight, metric)
    assert s["wins"] == 8 and s["gain_claimable"] is False


@pytest.mark.parametrize("metric, sign", [(HIGHER, 1), (LOWER, -1)])
def test_gain_needs_the_medians_apart_by_more_than_the_base_iqr(metric, sign):
    base = [90.0 + 2 * i for i in range(10)]  # median 99, quartiles 94.5 and 103.5: IQR 9
    s = _summary(base, base, metric)
    assert (s["base"]["q1"], s["base"]["median"], s["base"]["q3"]) == (94.5, 99.0, 103.5)
    for shift, claimable in ((1.0, False), (9.0, False), (10.0, True)):
        s = _summary(base, [b + sign * shift for b in base], metric)
        assert s["wins"] == 10 and s["gain_claimable"] is claimable, shift
