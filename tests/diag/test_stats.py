"""The statistics registry: registration, sharing, reset, emission,
and the increment journal."""

import json

from repro.diag import (
    Statistic,
    StatsRegistry,
    default_registry,
    format_stats,
    reset_stats,
    stats_delta,
    stats_snapshot,
)


class TestRegistration:
    def test_counter_starts_at_zero(self):
        reg = StatsRegistry()
        s = Statistic("mypass", "num-things", "Things done", registry=reg)
        assert s.value == 0
        assert reg.get("mypass", "num-things") == 0
        assert reg.description("mypass", "num-things") == "Things done"

    def test_registration_is_visible_before_any_increment(self):
        reg = StatsRegistry()
        Statistic("mypass", "num-things", registry=reg)
        assert list(reg) == [("mypass", "num-things", 0)]

    def test_handles_with_same_key_share_one_value(self):
        reg = StatsRegistry()
        a = Statistic("p", "n", registry=reg)
        b = Statistic("p", "n", registry=reg)
        a.inc()
        b.inc(2)
        assert a.value == b.value == 3

    def test_increment_styles(self):
        reg = StatsRegistry()
        s = Statistic("p", "n", registry=reg)
        s.inc()
        s.inc(4)
        s += 2
        assert int(s) == 7

    def test_second_registration_keeps_description(self):
        reg = StatsRegistry()
        Statistic("p", "n", "the description", registry=reg)
        Statistic("p", "n", registry=reg)  # no description
        assert reg.description("p", "n") == "the description"


class TestReset:
    def test_reset_zeroes_but_keeps_registrations(self):
        reg = StatsRegistry()
        s = Statistic("p", "n", "desc", registry=reg)
        s.inc(5)
        reg.reset()
        assert s.value == 0
        # still registered: shows up (as zero) in full iteration
        assert ("p", "n", 0) in list(reg)
        assert reg.description("p", "n") == "desc"

    def test_reset_stats_zeroes_the_default_registry(self):
        s = Statistic("diag-test", "num-reset-check")
        s.inc(3)
        assert default_registry().get("diag-test", "num-reset-check") == 3
        reset_stats()
        assert s.value == 0


class TestSnapshotsAndJson:
    def _populated(self):
        reg = StatsRegistry()
        Statistic("alpha", "one", registry=reg).inc(1)
        Statistic("alpha", "two", registry=reg).inc(2)
        Statistic("beta", "zero", registry=reg)
        return reg

    def test_snapshot_is_nested_by_pass(self):
        reg = self._populated()
        assert reg.snapshot() == {
            "alpha": {"one": 1, "two": 2},
            "beta": {"zero": 0},
        }

    def test_snapshot_nonzero_only_drops_zero_counters(self):
        reg = self._populated()
        assert reg.snapshot(nonzero_only=True) == {
            "alpha": {"one": 1, "two": 2},
        }

    def test_json_round_trip(self):
        reg = self._populated()
        text = reg.to_json()
        restored = StatsRegistry()
        restored.load_dict(json.loads(text))
        assert restored.snapshot() == reg.snapshot()
        assert restored.get("alpha", "two") == 2

    def test_format_text_reports_values_and_descriptions(self):
        reg = StatsRegistry()
        Statistic("loop-unswitch", "num-conditions-frozen",
                  "Hoisted conditions frozen", registry=reg).inc(7)
        text = reg.format_text()
        assert "Statistics Collected" in text
        assert "7 loop-unswitch - num-conditions-frozen" in text
        assert "(Hoisted conditions frozen)" in text

    def test_format_text_with_no_counters(self):
        assert "(no statistics collected)" in StatsRegistry().format_text()


class TestJournal:
    def test_journal_delta_is_the_flattened_snapshot_delta(self):
        reg = StatsRegistry()
        checks = Statistic("refine", "num-checks", registry=reg)
        hits = Statistic("perf", "num-memo-hits", registry=reg)
        plans = Statistic("interp", "num-plans-compiled", registry=reg)
        untouched = Statistic("gvn", "num-gvn-instr", registry=reg)
        checks.inc(2)  # before the journal: in neither delta
        untouched.inc()
        reg.start_journal()
        try:
            hits.inc()  # before the mark: in neither delta
            before = reg.snapshot()
            mark = reg.journal_mark()
            checks.inc()
            plans.inc(4)
            checks.inc(2)
            hits.inc(3)
            hits.inc(-3)  # nets to zero: absent from both
            after = reg.snapshot()
            journal = reg.journal_delta(mark)
        finally:
            reg.stop_journal()
        flattened = {f"{pass_name}/{name}": value
                     for pass_name, counters in stats_delta(
                         before, after).items()
                     for name, value in counters.items()}
        assert journal == flattened == {"refine/num-checks": 3,
                                        "interp/num-plans-compiled": 4}

    def test_inactive_journal_reports_nothing(self):
        reg = StatsRegistry()
        Statistic("refine", "num-checks", registry=reg).inc()
        assert reg.journal_mark() == 0
        assert reg.journal_delta(0) == {}


class TestCompilerCounters:
    """The passes register their counters at import time, in the
    process-wide default registry."""

    def test_known_counters_are_registered(self):
        import repro.opt  # noqa: F401  (importing registers the counters)
        import repro.semantics  # noqa: F401

        snap = stats_snapshot()
        assert "num-combined" in snap["instcombine"]
        assert "num-selects-frozen" in snap["instcombine"]
        assert "num-conditions-frozen" in snap["loop-unswitch"]
        assert "num-fuel-exhausted" in snap["interp"]

    def test_format_stats_matches_default_registry(self):
        reset_stats()
        s = Statistic("diag-test", "num-format-check", "for the test")
        s.inc(2)
        assert "2 diag-test" in format_stats()
        reset_stats()
