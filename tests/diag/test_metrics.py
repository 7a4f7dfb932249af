"""The typed-metrics layer: registries, snapshots, and the Prometheus
renderer."""

import pytest

from repro.diag.metrics import (
    MetricsRegistry,
    metrics_snapshot,
    prom_name,
    prom_stats,
    render_prometheus,
    stats_as_metrics,
)
from repro.diag.stats import StatsRegistry, Statistic


class TestNames:
    def test_prom_name_is_stable_and_sanitized(self):
        assert prom_name("refine", "num-checks") == \
            "repro_refine_num_checks_total"
        assert prom_name("poison-flow", "num-branch-refinements") == \
            "repro_poison_flow_num_branch_refinements_total"

    def test_registry_rejects_invalid_names(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("Bad-Name")
        with pytest.raises(ValueError):
            reg.gauge("9starts_with_digit")


class TestInstruments:
    def test_gauge_tracks_last_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_inflight")
        g.set(3)
        g.set(1)
        assert reg.snapshot()["gauges"]["repro_inflight"] == 1

    def test_histogram_buckets_are_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_span_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        snap = reg.snapshot()["histograms"]["repro_span_seconds"]
        buckets = snap["buckets"]
        assert buckets[repr(0.1)] == 1
        assert buckets[repr(1.0)] == 2  # cumulative
        assert buckets["+Inf"] == 3
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)

    def test_same_name_returns_the_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.gauge("repro_x") is reg.gauge("repro_x")
        assert reg.histogram("repro_h") is reg.histogram("repro_h")


class TestSnapshots:
    def test_stats_ride_along_under_prom_names(self):
        stats = StatsRegistry()
        Statistic("refine", "num-checks", registry=stats).inc(7)
        snap = metrics_snapshot(MetricsRegistry(), stats)
        assert snap["stats"]["repro_refine_num_checks_total"] == 7

    def test_stats_as_metrics_covers_every_counter(self):
        stats = StatsRegistry()
        Statistic("a", "num-x", registry=stats)
        Statistic("b", "num-y", registry=stats).inc()
        out = stats_as_metrics(stats)
        assert out == {"repro_a_num_x_total": 0,
                       "repro_b_num_y_total": 1}
        assert prom_stats(stats.snapshot()) == out


class TestPrometheusRender:
    def test_render_has_type_lines_and_values(self):
        reg = MetricsRegistry()
        reg.gauge("repro_inflight").set(2)
        stats = StatsRegistry()
        Statistic("refine", "num-checks", registry=stats).inc(5)
        text = render_prometheus(metrics_snapshot(reg, stats))
        assert "# TYPE repro_refine_num_checks_total counter" in text
        assert "# TYPE repro_inflight gauge" in text
        assert "repro_inflight 2" in text
        assert "repro_refine_num_checks_total 5" in text
        assert text.endswith("\n")

    def test_render_histogram_exposition(self):
        reg = MetricsRegistry()
        reg.histogram("repro_span_seconds", buckets=(1.0,)).observe(0.5)
        text = render_prometheus(metrics_snapshot(reg, StatsRegistry()))
        assert '# TYPE repro_span_seconds histogram' in text
        assert 'repro_span_seconds_bucket{le="1.0"} 1' in text
        assert "repro_span_seconds_sum" in text
        assert "repro_span_seconds_count 1" in text

    def test_help_texts_are_emitted_when_known(self):
        reg = MetricsRegistry()
        reg.gauge("repro_x", help_text="Things in flight").set(1)
        snap = metrics_snapshot(reg, StatsRegistry())
        text = render_prometheus(snap, help_texts=reg.help_texts())
        assert "# HELP repro_x Things in flight" in text

