"""Self-test of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py
"""

import statistics

import pytest

from measure import Meter, iqr_share, median, percentile, quartiles
from spans import per_step, roots, self_times, training_steps


def span(name, start, end, parent=-1, items=0):
    return [name, start, end, parent, items]


def test_self_time_subtracts_children_once():
    # root 0..10 with children 1..3 and 4..8; the second child has a child
    # 5..6 and a grandchild-free sibling 6.5..7.
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("b1", 5.0, 6.0, parent=2),
        span("b2", 6.5, 7.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 1.0, 0.5])
    assert roots(spans) == ["root"] * 5


def test_self_time_clips_children_to_the_parent():
    # A child that overruns its parent's end covers only the overlap, and
    # overlapping children are counted once.
    spans = [
        span("p", 0.0, 4.0),
        span("c1", 1.0, 3.0, parent=0),
        span("c2", 2.0, 5.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_training_steps_skip_validation_and_fold_starts():
    spans = [
        span("bench.train_fold", 0.0, 100.0),
        span("train.adamw", 1.0, 2.0, parent=0),
        span("train.adamw", 3.0, 4.0, parent=0),
        span("train.adamw", 5.0, 6.0, parent=0),
        span("model.forward_eval", 7.0, 8.0, parent=0),
        span("train.adamw", 9.0, 10.0, parent=0),
        span("train.adamw", 11.0, 13.0, parent=0),
    ]
    steps = training_steps(spans)
    assert steps == [(2.0, 4.0), (4.0, 6.0), (10.0, 13.0)]
    # Median over steps of the adamw time that starts inside each step.
    assert per_step(spans, steps, {"train.adamw"}) == pytest.approx(1.0)


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert median(values) == 3.5
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (1.75, 3.5, 5.25)
    assert iqr_share(values) == pytest.approx((5.25 - 1.75) / 3.5)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


class FixedReference:
    nominal = 2.0


def test_meter_scales_each_key_by_its_median():
    meter = Meter(FixedReference())
    # Two segments of one kind; the kernel took 1 s before each, nominal 2 s.
    meter.add(("steps",), 1.0, 1.0)
    meter.add(("steps",), 3.0, 1.0)
    meter.add(("val",), 0.5, 0.25)
    assert meter.raw_total() == pytest.approx(4.5)
    # 2 x median(2, 6) + 1 x 4
    assert meter.scaled_total() == pytest.approx(2 * 4.0 + 4.0)
