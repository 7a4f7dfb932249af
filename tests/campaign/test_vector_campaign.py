"""Campaign-level behavior of the vector engine and sampled verdicts.

Two contracts:

* **engine invisibility** — a campaign run under ``engine="vector"``
  (or with ``cross_check=True``) produces byte-identical verdict lines
  to the scalar run; drift is a crash, never a quiet different answer;
* **sampled visibility** — a "verified" that only sampled the input
  space is flagged at every surface: worker outcome, shard record,
  summary, and the rendered report.
"""

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.checkpoint import CheckpointStore
from repro.campaign.report import CampaignSummary
from repro.semantics import numpy_available

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed ([vector] extra)")

#: the E5 smoke shape: complete 1-instruction i2 corpus through fixed
#: instcombine; memo off so every engine does real work.
SMOKE = CampaignSpec(
    mode="enumerate", num_instructions=1, opcodes=("mul", "shl"),
    pipeline="instcombine", opt_config="fixed", shard_size=32,
    use_cache=False,
)

#: i2 two-arg functions have a 25-tuple input space under NEW; capping
#: max_inputs below that forces every verified verdict to be sampled.
SAMPLED = SMOKE.with_(opcodes=("add", "sub"), max_inputs=10,
                      sample_inputs=5)


class TestEngineInvisibility:
    @requires_numpy
    def test_vector_campaign_verdicts_identical(self):
        scalar = run_campaign(SMOKE.with_(engine="scalar"), workers=1)
        vector = run_campaign(SMOKE.with_(engine="vector"), workers=1)
        assert vector.verdict_lines() == scalar.verdict_lines()
        assert vector.checked == scalar.checked
        assert not vector.crashes

    @requires_numpy
    def test_cross_check_campaign_is_clean(self):
        scalar = run_campaign(SMOKE.with_(engine="scalar"), workers=1)
        cross = run_campaign(SMOKE.with_(engine="vector",
                                         cross_check=True), workers=1)
        assert cross.verdict_lines() == scalar.verdict_lines()
        assert not [c for c in cross.crashes
                    if c.get("kind") == "cross-check-mismatch"]

    def test_scalar_engine_spec_round_trips(self):
        spec = SMOKE.with_(engine="vector", cross_check=True,
                           sample_inputs=7)
        clone = CampaignSpec.from_dict(spec.as_dict())
        assert clone.engine == "vector"
        assert clone.cross_check is True
        assert clone.sample_inputs == 7

    def test_bad_engine_rejected_at_spec(self):
        with pytest.raises(ValueError):
            SMOKE.with_(engine="warp-drive")


class TestSampledSurfacing:
    @pytest.fixture(scope="class")
    def sampled_run(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("sampled-campaign"))
        summary = run_campaign(SAMPLED, out_dir=out, workers=1)
        return out, summary

    def test_summary_counts_sampled_verified(self, sampled_run):
        _, summary = sampled_run
        assert summary.verified > 0
        # every verified verdict in this spec sampled 5 of 25 inputs
        assert summary.sampled_verified == summary.verified
        assert summary.as_dict()["sampled_verified"] == summary.verified

    def test_report_renders_sampled_count(self, sampled_run):
        out, summary = sampled_run
        report = CampaignSummary.from_records(
            SAMPLED, CheckpointStore(out).load()).render_report()
        assert (f"{summary.verified} verified "
                f"({summary.sampled_verified} sampled)") in report

    def test_exhaustive_run_reports_no_sampling(self):
        summary = run_campaign(SMOKE, workers=1)
        assert summary.sampled_verified == 0

    def test_sampled_survives_memo_replay(self, tmp_path):
        """Bugfix follow-through: a warm-cache rerun must replay the
        verdict *as sampled*, not launder it into an exhaustive
        "verified"."""
        spec = SAMPLED.with_(use_cache=True,
                             cache_dir=str(tmp_path / "memo"))
        cold = run_campaign(spec, workers=1)
        warm = run_campaign(spec, workers=1)
        assert warm.verdict_lines() == cold.verdict_lines()
        assert warm.sampled_verified == cold.sampled_verified
        assert warm.sampled_verified == warm.verified > 0
