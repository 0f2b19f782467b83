"""MetricsRegistry unit tests: kinds, bucket edges, exporters, escaping."""

import json
import math
import re

import pytest

from repro.metrics.export import (
    METRICS_SCHEMA_VERSION,
    load_snapshot,
    prometheus_from_snapshot,
    prometheus_text,
    registry_snapshot,
    save_snapshot,
    snapshot_hash,
    snapshot_to_json,
)
from repro.metrics.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)


class TestCounter:
    def test_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("msgs_total", "messages")
        c.inc()
        c.inc(2.5)
        c.inc(host="a")
        c.inc(3, host="a")
        assert c.value() == 3.5
        assert c.value(host="a") == 4.0
        assert sum(c.value(**dict(key)) for key in c.label_sets()) == 7.5
        assert c.label_sets() == [(), (("host", "a"),)]

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_set_total_overwrites(self):
        c = MetricsRegistry().counter("x")
        c.inc(10)
        c.set_total(3)
        assert c.value() == 3.0

    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_is_typeerror(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered as counter"):
            reg.histogram("x")


class TestGauge:
    def test_gauge_records_value_and_time(self):
        clock = [0.0]
        reg = MetricsRegistry(clock=lambda: clock[0])
        g = reg.gauge("load")
        g.set(0.5, host="a")
        clock[0] = 2.0
        g.set(0.75, host="a")
        assert g.value(host="a") == 0.75
        assert registry_snapshot(reg)["gauges"]["load"]["values"] == {
            "host=a": [2.0, 0.75]}


def cells(histogram: Histogram):
    """The snapshot of ``histogram``'s unlabelled cell: non-cumulative
    per-bucket counts (finite edges, then +Inf), sum and count."""
    return registry_snapshot(histogram.registry)["histograms"][
        histogram.name]["values"][""]


class TestHistogramBucketEdges:
    def test_value_equal_to_edge_lands_in_that_bucket(self):
        # Prometheus le semantics: the bound is inclusive
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(5.0)
        assert cells(h)["counts"] == [1, 1, 1, 0]

    def test_values_between_edges(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        h.observe(0.5)   # <= 1.0
        h.observe(1.5)   # <= 2.0
        h.observe(4.999)  # <= 5.0
        assert cells(h)["counts"] == [1, 1, 1, 0]

    def test_value_above_last_edge_lands_in_inf(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        h.observe(2.0000001)
        h.observe(1e9)
        assert cells(h)["counts"] == [0, 0, 2]
        assert cells(h)["count"] == 2

    def test_cumulative_counts_and_sum(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 3.0):
            h.observe(v)
        # the exposition's buckets are cumulative, +Inf last
        assert [line.rsplit(" ", 1)[1] for line in prometheus_text(
            h.registry).splitlines()
            if line.startswith("h_bucket")] == ["2", "3", "4"]
        assert cells(h)["sum"] == pytest.approx(6.0)
        assert cells(h)["count"] == 4

    def test_a_snapshot_keeps_the_counts_it_was_taken_with(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        taken = cells(h)
        h.observe(0.5)
        assert taken["counts"] == [1, 0, 0] and taken["count"] == 1

    def test_buckets_must_strictly_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("bad2", buckets=())

    def test_default_buckets(self):
        h = MetricsRegistry().histogram("h")
        assert h.buckets == DEFAULT_BUCKETS


class TestSeries:
    def test_series_appends_timestamped_points(self):
        clock = [0.0]
        reg = MetricsRegistry(clock=lambda: clock[0])
        s = reg.series("load")
        s.observe(0.1, host="a")
        clock[0] = 1.5
        s.observe(0.9, host="a")
        assert registry_snapshot(reg)["series"]["load"]["values"] == {
            "host=a": [[0.0, 0.1], [1.5, 0.9]]}


class TestNullRegistry:
    def test_disabled_registry_records_nothing(self):
        reg = NullMetricsRegistry()
        assert not reg.enabled
        reg.counter("x").inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(2.0)
        reg.series("s").observe(3.0, host="a")
        assert len(NULL_METRICS) == 0
        assert registry_snapshot(reg) == {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": {}, "gauges": {}, "histograms": {}, "series": {},
        }

    def test_null_metric_is_accepted_everywhere(self):
        m = NULL_METRICS.counter("x")
        assert isinstance(m, Counter)
        assert isinstance(NULL_METRICS.histogram("h"), Histogram)
        assert m.value() == 0.0


def _populated_registry() -> MetricsRegistry:
    clock = [1.0]
    reg = MetricsRegistry(clock=lambda: clock[0])
    reg.counter("msgs_total", "messages sent").inc(3, site="s0")
    reg.counter("msgs_total").inc(1, site="s1")
    reg.gauge("temp", "temperature").set(21.5)
    h = reg.histogram("lat", "latency", buckets=(0.1, 1.0))
    h.observe(0.05, op="read")
    h.observe(0.5, op="read")
    h.observe(2.0, op="read")
    reg.series("load", "load series").observe(0.7, host="n0")
    return reg


class TestSnapshot:
    def test_snapshot_round_trips_through_file(self, tmp_path):
        reg = _populated_registry()
        path = tmp_path / "m.json"
        save_snapshot(reg, str(path))
        loaded = load_snapshot(str(path))
        assert loaded == registry_snapshot(reg)
        assert snapshot_hash(loaded) == reg.snapshot_hash()

    def test_snapshot_is_deterministic_regardless_of_insertion_order(self):
        a = MetricsRegistry()
        a.counter("c").inc(host="x")
        a.counter("c").inc(host="y")
        b = MetricsRegistry()
        b.counter("c").inc(host="y")
        b.counter("c").inc(host="x")
        assert snapshot_to_json(registry_snapshot(a)) == snapshot_to_json(
            registry_snapshot(b)
        )

    def test_snapshot_json_is_canonical(self):
        text = snapshot_to_json(registry_snapshot(_populated_registry()))
        assert text.endswith("\n")
        assert json.loads(text)  # parseable
        assert ": " not in text  # minimal separators


#: one Prometheus sample line: name{labels} value
_SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'          # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})?'
    r' (NaN|[+-]?Inf|[+-]?[0-9].*)$'
)


class TestPrometheusExposition:
    def test_every_line_is_well_formed(self):
        text = prometheus_text(_populated_registry())
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _SAMPLE_RE.match(line), f"malformed line: {line!r}"

    def test_histogram_renders_cumulative_buckets_with_inf(self):
        text = prometheus_text(_populated_registry())
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{op="read",le="0.1"} 1' in text
        assert 'lat_bucket{op="read",le="1"} 2' in text
        assert 'lat_bucket{op="read",le="+Inf"} 3' in text
        assert 'lat_count{op="read"} 3' in text
        assert 'lat_sum{op="read"} 2.55' in text

    def test_counter_and_gauge_lines(self):
        text = prometheus_text(_populated_registry())
        assert '# TYPE msgs_total counter' in text
        assert '# HELP msgs_total messages sent' in text
        assert 'msgs_total{site="s0"} 3' in text
        assert 'temp 21.5' in text
        # series exposes its latest value as a gauge
        assert 'load{host="n0"} 0.7' in text

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(path='a"b\\c\nd')
        text = prometheus_text(reg)
        assert 'c{path="a\\"b\\\\c\\nd"} 1' in text
        for line in text.splitlines():
            if not line.startswith("#"):
                assert _SAMPLE_RE.match(line), f"malformed line: {line!r}"

    def test_separators_in_a_label_value_invent_no_label(self, tmp_path):
        # an application name is user input and reaches a label value
        reg = MetricsRegistry()
        reg.counter("vdce_checkpoint_bytes").inc(
            5, application="solve,stage=2", site="a\\,b=")
        path = tmp_path / "m.json"
        save_snapshot(reg, str(path))
        text = prometheus_from_snapshot(load_snapshot(str(path)))
        assert ('vdce_checkpoint_bytes{application="solve,stage=2",'
                'site="a\\\\,b="} 5') in text.splitlines()

    def test_help_escaping_and_special_values(self):
        reg = MetricsRegistry()
        reg.gauge("g", "two\nlines").set(math.nan)
        text = prometheus_text(reg)
        assert "# HELP g two\\nlines" in text
        assert "g NaN" in text

    def test_prometheus_from_loaded_snapshot_matches_live(self, tmp_path):
        reg = _populated_registry()
        path = tmp_path / "m.json"
        save_snapshot(reg, str(path))
        assert prometheus_from_snapshot(load_snapshot(str(path))) == (
            prometheus_text(reg)
        )
