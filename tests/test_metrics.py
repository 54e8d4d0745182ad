"""Unit tests for the metrics helpers and table rendering."""

import math

import pytest

from repro.metrics import (
    LatencySample,
    data_messages,
    fit_power_law,
    format_table,
)
from repro.proc import Environment


def make_delta(categories):
    """A stats snapshot after ``count`` real sends in each category."""
    network = Environment(seed=1).network
    for category, count in categories.items():
        payload = type(f"Payload_{category}", (), {"category": category})()
        for _ in range(count):
            network.send("x", "y", payload)
    return network.stats.snapshot()


def test_data_messages_sums_categories():
    delta = make_delta({"a": 3, "b": 2, "c": 9})
    assert data_messages(delta, ["a", "b"]) == 5
    assert data_messages(delta, ["missing"]) == 0


def test_latency_sample_percentiles():
    sample = LatencySample()
    for v in range(1, 101):
        sample.add(v / 100)
    assert sample.count == 100
    assert sample.p50 == 0.5
    assert sample.p99 == 0.99
    assert sample.max == 1.0
    assert abs(sample.mean - 0.505) < 1e-9


def test_latency_sample_empty():
    sample = LatencySample()
    assert sample.p50 == 0.0 and sample.mean == 0.0 and sample.max == 0.0


def test_fit_power_law_recovers_exponents():
    xs = [2, 4, 8, 16]
    assert abs(fit_power_law(xs, [x * 3 for x in xs]) - 1.0) < 1e-9
    assert abs(fit_power_law(xs, [x * x for x in xs]) - 2.0) < 1e-9
    assert abs(fit_power_law(xs, [5.0] * 4) - 0.0) < 1e-9


def test_fit_power_law_validation():
    with pytest.raises(ValueError):
        fit_power_law([1], [1])
    with pytest.raises(ValueError):
        fit_power_law([2, 2], [1, 4])  # degenerate x
    with pytest.raises(ValueError):
        fit_power_law([0, 0], [0, 0])  # no positive points


def test_format_table_alignment_and_note():
    text = format_table(
        "demo", ["col", "value"], [["aa", 1], ["b", 22.5]], note="hello"
    )
    lines = text.splitlines()
    assert lines[0] == "== demo =="
    assert "col" in lines[1] and "value" in lines[1]
    assert lines[2].startswith("---")
    assert "22.50" in text
    assert lines[-1] == "note: hello"


def test_format_table_float_formats():
    text = format_table("t", ["v"], [[0.00123], [1234.5], [3.14159], [0]])
    assert "0.0012" in text
    assert "1234" in text  # large floats keep no decimals
    assert "3.14" in text


def test_format_table_empty_rows():
    text = format_table("t", ["a", "b"], [])
    assert "== t ==" in text
