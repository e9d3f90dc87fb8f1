"""Self-tests of the benchmark's own helpers.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import random

import pytest

import inputs
from common import (
    MIN_BEYOND, float_digest, highest_percentile, median, percentile,
    same_bits, samples_beyond,
)
from repro.datasets.presets import load_dataset
from repro.query.canonical import canonical_key
from repro.service.session import EstimationSession
from serving import Record
from workloads import churn_offsets, latency_metrics


@pytest.fixture(scope="module")
def graph():
    return load_dataset(inputs.DATASET, inputs.SCALE)


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 9, 20, 199, 200, 999, 1000, 1316, 9999, 10000])
def test_highest_percentile_has_ten_samples_beyond(n):
    q = highest_percentile(n)
    if q is None:
        assert samples_beyond(n, 50.0) < MIN_BEYOND
        return
    assert samples_beyond(n, q) >= MIN_BEYOND
    higher = [p for p in (99.9, 99.0, 95.0, 90.0) if p > q]
    assert all(samples_beyond(n, p) < MIN_BEYOND for p in higher)


def test_p99_needs_a_thousand_samples():
    assert highest_percentile(999) == 95.0
    assert highest_percentile(1000) == 99.0
    assert highest_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_latency_metrics_state_their_sample_count():
    records = [Record(i, 0.0, i / 1000.0, True) for i in range(1, 1001)]
    metrics, notes = latency_metrics(records, elapsed=1.0)
    assert notes == {
        "samples": 1000, "highest_supported_percentile": 99.0,
        "latency_p99_ms": 990.0, "p99_windows": 1,
    }
    assert metrics["throughput_rps"] == (1000.0, "1/s")


def test_windowed_p99_is_not_moved_by_one_stalled_window():
    # 5 windows of 1000 requests at 1 ms; the third stalls 10% of its
    # requests, which moves the whole-run p99 but not the median window.
    records = []
    for i in range(5000):
        stalled = 2000 <= i < 2100
        records.append(Record(i, i, i + (0.5 if stalled else 0.001), True))
    _, notes = latency_metrics(records, elapsed=5000.0)
    assert notes["p99_windows"] == 5
    assert notes["latency_p99_ms"] == pytest.approx(1.0)
    whole = percentile(sorted(r.latency_ms for r in records), 99)
    assert whole == pytest.approx(500.0)


def test_median_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        median([])


# ----------------------------------------------------------------------
# Seeded inputs and digests
# ----------------------------------------------------------------------
def test_zipf_ranks_are_deterministic_and_skewed():
    first = inputs.zipf_ranks(random.Random("z"), 5000, 64)
    assert first == inputs.zipf_ranks(random.Random("z"), 5000, 64)
    assert first != inputs.zipf_ranks(random.Random("y"), 5000, 64)
    assert all(0 <= rank < 64 for rank in first)
    counts = [first.count(rank) for rank in range(64)]
    assert counts[0] == max(counts)
    # Zipf(1.1): rank 0 is drawn about 2^1.1 times as often as rank 1.
    assert 1.6 < counts[0] / counts[1] < 2.8


def test_estimator_mix_is_exact_per_block():
    names = inputs.estimator_sequence(random.Random("m"), 1000)
    assert names.count("max-hop-max") == 700
    assert names.count("MOLP") == 200
    assert names.count("all-hops-avg") == 100


def test_same_seed_same_requests(graph):
    for make in (inputs.warm_sequence, inputs.cold_sequence,
                 inputs.delta_sequence):
        one, two = make(graph, 5, 300), make(graph, 5, 300)
        assert one.digest() == two.digest()
        assert [one.text(i) for i in range(300)] == [
            two.text(i) for i in range(300)
        ]
        assert one.digest() != make(graph, 6, 300).digest()


def test_same_seed_same_digest(graph):
    def digest_of(seed):
        seq = inputs.warm_sequence(graph, seed, 60)
        session = EstimationSession(graph, h=2, molp_h=2)
        return float_digest(
            ((i, seq.estimator_of[i]),
             session.estimate(seq.shapes[seq.shape_of[i]], seq.estimator_of[i]))
            for i in range(60)
        )

    assert digest_of(3) == digest_of(3)
    assert digest_of(3) != digest_of(4)


def test_digest_and_comparison_see_every_bit():
    value = 1234.5
    nudged = math.nextafter(value, math.inf)
    assert float_digest([(0, value)]) != float_digest([(0, nudged)])
    assert not same_bits(value, nudged)
    assert same_bits(value, float(value))
    assert same_bits(None, None) and not same_bits(None, 0.0)


def test_renamed_requests_share_their_shape(graph):
    seq = inputs.warm_sequence(graph, 2, 200)
    for index in range(200):
        text = seq.text(index)
        assert f"r{index}v0" in text
        from repro.query.parser import parse_pattern

        shape = seq.shapes[seq.shape_of[index]]
        assert canonical_key(parse_pattern(text)) == canonical_key(shape)


def test_cold_shapes_are_unique(graph):
    seq = inputs.cold_sequence(graph, 8, 600)
    keys = [canonical_key(shape) for shape in seq.shapes]
    assert len(set(keys)) == len(keys) == 600
    assert seq.shape_of == list(range(600))
    sizes = {len(shape.edges) for shape in seq.shapes}
    assert max(sizes) == 8


def test_update_batches_do_not_depend_on_the_seed(graph):
    one = inputs.update_batches(graph, 3)
    two = inputs.update_batches(graph, 3)
    assert [b.to_payload() for b in one] == [b.to_payload() for b in two]
    assert all(len(batch) == inputs.BATCH_SIZE for batch in one)


def test_churn_schedule_leaves_time_after_the_last_apply():
    offsets = churn_offsets(10.0)
    assert offsets == pytest.approx([1.0, 2.6, 4.2, 5.8, 7.4])
    with pytest.raises(Exception):
        churn_offsets(3.0)
