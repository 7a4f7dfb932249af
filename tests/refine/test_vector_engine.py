"""Engine dispatch, eligibility boundaries, OLD-semantics (undef)
parity, deadlines, and the two verdict bugfixes.

The vector engine is an optimization, never an authority: on every
shape it cannot lower, and on every input the scalar oracle would not
decide, it must fall back to the scalar interpreter with an identical
verdict, and on every shape it can, ``cross_check`` holds the two
engines to byte-identical results.
"""

import functools
import time
import types

import pytest

from repro.diag import stats_snapshot
from repro.fuzz import enumerate_functions, random_functions
from repro.ir import parse_function, print_module
from repro.opt import OptConfig, o2_pipeline
from repro.refine import CheckOptions, CrossCheckMismatch, check_refinement
from repro.refine.exhaustive import RefinementResult, check_equivalence
from repro.refine.vector import check_refinement_vector
from repro.semantics import (
    NEW,
    OLD,
    OLD_GVN_VIEW,
    OLD_UNSWITCH_VIEW,
    VectorIneligible,
    numpy_available,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed ([vector] extra)")

STRAIGHT_SRC = """
define i4 @f(i4 %x, i4 %y) {
entry:
  %a = add i4 %x, %y
  %m = mul i4 %a, 2
  ret i4 %m
}
"""
# mul 2 -> shl 1: a sound strength reduction.
STRAIGHT_TGT = """
define i4 @f(i4 %x, i4 %y) {
entry:
  %a = add i4 %x, %y
  %m = shl i4 %a, 1
  ret i4 %m
}
"""
# add nsw -> add drops no information, but the reverse direction
# *introduces* poison: a refinement failure with a counterexample.
NSW_SRC = """
define i4 @f(i4 %x) {
entry:
  %r = add i4 %x, 1
  ret i4 %r
}
"""
NSW_TGT = """
define i4 @f(i4 %x) {
entry:
  %r = add nsw i4 %x, 1
  ret i4 %r
}
"""
LOOP_FN = """
define i4 @f(i4 %n) {
entry:
  br label %head
head:
  %i = phi i4 [ 0, %entry ], [ %i1, %head ]
  %i1 = add i4 %i, 1
  %c = icmp ult i4 %i1, %n
  br i1 %c, label %head, label %exit
exit:
  ret i4 %i1
}
"""


def _refine_stat(name):
    return stats_snapshot().get("refine", {}).get(name, 0)


def _key(result):
    return (result.verdict, str(result), result.reason,
            result.inputs_checked, result.sampled)


def _check(src, tgt, engine, config=NEW, **kwargs):
    return check_refinement(parse_function(src), parse_function(tgt),
                            config, options=CheckOptions(engine=engine,
                                                         **kwargs))


class TestDispatch:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown refinement engine"):
            _check(STRAIGHT_SRC, STRAIGHT_TGT, "warp-drive")

    def test_scalar_engine_never_touches_vector(self):
        before = _refine_stat("num-vector-checks")
        result = _check(STRAIGHT_SRC, STRAIGHT_TGT, "scalar")
        assert result.ok
        assert _refine_stat("num-vector-checks") == before

    @requires_numpy
    def test_vector_decides_and_matches_scalar(self):
        before = _refine_stat("num-vector-checks")
        vec = _check(STRAIGHT_SRC, STRAIGHT_TGT, "vector")
        assert _refine_stat("num-vector-checks") == before + 1
        assert _key(vec) == _key(_check(STRAIGHT_SRC, STRAIGHT_TGT,
                                        "scalar"))
        assert vec.ok and vec.inputs_checked == 17 * 17

    @requires_numpy
    def test_counterexamples_byte_identical(self):
        vec = _check(NSW_SRC, NSW_TGT, "vector")
        sca = _check(NSW_SRC, NSW_TGT, "scalar")
        assert vec.failed and sca.failed
        # str() renders the counterexample; inputs_checked tells how
        # far enumeration got.  All of it must match the oracle.
        assert _key(vec) == _key(sca)

    @requires_numpy
    def test_cross_check_passes_when_engines_agree(self):
        before = _refine_stat("num-cross-checks")
        result = _check(STRAIGHT_SRC, STRAIGHT_TGT, "auto",
                        cross_check=True)
        assert result.ok
        assert _refine_stat("num-cross-checks") == before + 1

    def test_cross_check_mismatch_is_a_runtime_error(self):
        # The exception type is part of the campaign contract (the
        # worker books it as a crash, not a verdict).
        assert issubclass(CrossCheckMismatch, RuntimeError)


class TestEligibilityBoundary:
    @requires_numpy
    def test_loop_falls_back_to_scalar_identically(self):
        before = _refine_stat("num-vector-fallbacks")
        vec = _check(LOOP_FN, LOOP_FN, "vector")
        assert _refine_stat("num-vector-fallbacks") == before + 1
        assert _refine_stat("num-vector-ineligible-cfg-loop") >= 1
        assert _key(vec) == _key(_check(LOOP_FN, LOOP_FN, "scalar"))

    @requires_numpy
    def test_undef_config_falls_back(self):
        # An undef input forks every use 16 ways; with max_paths=15 the
        # scalar oracle gives up on those inputs, so the vector engine
        # must decline rather than decide.
        before = _refine_stat("num-vector-ineligible-input-paths")
        vec = _check(STRAIGHT_SRC, STRAIGHT_TGT, "vector", config=OLD,
                     max_paths=15)
        assert _refine_stat("num-vector-ineligible-input-paths") \
            == before + 1
        sca = _check(STRAIGHT_SRC, STRAIGHT_TGT, "scalar", config=OLD,
                     max_paths=15)
        assert vec.verdict == "inconclusive"
        assert _key(vec) == _key(sca)

    @requires_numpy
    def test_large_input_space_falls_back(self):
        vec = _check(STRAIGHT_SRC, STRAIGHT_TGT, "vector", max_inputs=10)
        sca = _check(STRAIGHT_SRC, STRAIGHT_TGT, "scalar", max_inputs=10)
        assert vec.verdict == "inconclusive"
        assert _key(vec) == _key(sca)

    def test_numpy_absence_is_a_clean_fallback(self, monkeypatch):
        # Simulate the no-numpy install: the auto engine must degrade
        # to scalar without error (this is the [vector]-less CI leg).
        import repro.semantics.vector as vector_mod
        monkeypatch.setattr(vector_mod, "_np", None)
        assert not vector_mod.numpy_available()
        result = _check(STRAIGHT_SRC, STRAIGHT_TGT, "auto")
        assert result.ok
        result = _check(STRAIGHT_SRC, STRAIGHT_TGT, "vector")
        assert result.ok


class TestSampledVerdictRendering:
    """Bugfix: the ok-path ``__str__`` dropped ``reason``, so sampled
    passes printed exactly like exhaustive proofs."""

    def test_sampled_str_and_flag(self):
        src = parse_function("""
define i8 @f(i8 %a, i8 %b) {
entry:
  %r = add i8 %a, %b
  ret i8 %r
}
""")
        result = check_refinement(
            src, src, NEW,
            options=CheckOptions(max_inputs=100, sample_inputs=50))
        assert result.ok
        assert result.sampled
        assert str(result) == "verified (sampled 50 of 66049 inputs)"

    def test_exhaustive_str_unchanged(self):
        result = _check(STRAIGHT_SRC, STRAIGHT_TGT, "scalar")
        assert not result.sampled
        assert str(result) == "verified (289 inputs)"

    def test_sampled_default_false(self):
        assert RefinementResult("verified").sampled is False


class TestCrossSemanticsEquivalence:
    """Bugfix: ``check_equivalence`` hardcoded one config for both
    directions, so OLD-vs-NEW equivalence crashed feeding undef inputs
    to a NEW-semantics interpreter."""

    SRC = """
define i4 @f(i4 %x) {
entry:
  %r = add i4 %x, 0
  ret i4 %r
}
"""

    def test_cross_config_does_not_crash(self):
        a = parse_function(self.SRC)
        b = parse_function(self.SRC)
        fwd, rev = check_equivalence(a, b, OLD, tgt_config=NEW)
        assert fwd.ok and rev.ok

    def test_reverse_direction_swaps_configs(self):
        # x and freeze(x) are equivalent only when x cannot be undef:
        # OLD->NEW holds forward but the NEW->OLD reverse is the
        # direction that must be checked under OLD source semantics.
        a = parse_function(self.SRC)
        b = parse_function(self.SRC)
        fwd, rev = check_equivalence(a, b, NEW, tgt_config=OLD)
        assert fwd.verdict == rev.verdict == "verified"

    def test_same_config_default_unchanged(self):
        a = parse_function(self.SRC)
        fwd, rev = check_equivalence(a, parse_function(self.SRC), NEW)
        assert fwd.ok and rev.ok


# ---------------------------------------------------------------------------
# OLD semantics: undef lanes forked at every use.
# ---------------------------------------------------------------------------

I2 = "define i2 @f(i2 %x) {{\nentry:\n{body}\n}}\n"


def _fn(body):
    return I2.format(body=body)


#: every OLD reading; each is cross-checked on both corpora
OLD_CONFIGS = [OLD, OLD_GVN_VIEW, OLD_UNSWITCH_VIEW]
#: the migration story in both directions: undef arguments only where
#: both sides have undef, so these range over concrete and poison inputs
CROSS_SEMANTICS = [pytest.param(OLD, NEW, id="old-to-new"),
                   pytest.param(NEW, OLD, id="new-to-old")]
#: share of checks the vector engine must decide itself
MIN_VECTOR_SHARE = 0.95


def _legacy_o2_pairs(fns):
    """(source text, legacy -O2 output text) for every function."""
    pairs = []
    for fn in fns:
        src_text = print_module(fn.module)
        o2_pipeline(OptConfig.legacy()).run_on_function(fn)
        pairs.append((src_text, print_module(fn.module)))
    return pairs


@functools.lru_cache(maxsize=None)
def _one_instruction_pairs():
    return _legacy_o2_pairs(enumerate_functions(1, width=2))


@functools.lru_cache(maxsize=None)
def _random_pairs():
    return _legacy_o2_pairs(random_functions(
        1024, num_instructions=3, width=2, include_flags=True, seed=1409))


def _cross_check_all(pairs, config, tgt_config=None):
    """Cross-check every pair (a ``CrossCheckMismatch`` propagates) and
    return the verdict counts and the vector-decided share, printing
    why the engine declined the rest."""
    before = stats_snapshot().get("refine", {})
    options = CheckOptions(cross_check=True)
    verdicts = {}
    for src_text, tgt_text in pairs:
        result = check_refinement(parse_function(src_text),
                                  parse_function(tgt_text), config,
                                  tgt_config=tgt_config, options=options)
        verdicts[result.verdict] = verdicts.get(result.verdict, 0) + 1
    after = stats_snapshot().get("refine", {})
    delta = {k: v - before.get(k, 0) for k, v in after.items()
             if v != before.get(k, 0)}
    prefix = "num-vector-ineligible-"
    declines = {k[len(prefix):]: v for k, v in delta.items()
                if k.startswith(prefix)}
    decided = delta.get("num-vector-checks", 0)
    assert delta.get("num-cross-checks", 0) == decided
    name = config.name + (f"->{tgt_config.name}" if tgt_config else "")
    print(f"{name}: {decided}/{len(pairs)} vector-decided, "
          f"verdicts {verdicts}, declines {declines or 'none'}")
    return verdicts, decided / len(pairs)


@requires_numpy
class TestOldSemanticsParity:
    """``cross_check`` under every OLD reading and across semantics:
    the scalar oracle audits every vector-decided check, and any drift
    raises :class:`CrossCheckMismatch`."""

    @pytest.mark.parametrize("config", OLD_CONFIGS, ids=lambda c: c.name)
    def test_one_instruction_corpus(self, config):
        verdicts, share = _cross_check_all(_one_instruction_pairs(), config)
        assert share >= MIN_VECTOR_SHARE
        assert verdicts.get("verified") and verdicts.get("failed")

    @pytest.mark.parametrize("config", OLD_CONFIGS, ids=lambda c: c.name)
    def test_random_three_instruction_functions(self, config):
        verdicts, share = _cross_check_all(_random_pairs(), config)
        assert share >= MIN_VECTOR_SHARE
        assert verdicts.get("failed")  # the counterexample path ran

    @pytest.mark.parametrize("config,tgt_config", CROSS_SEMANTICS)
    def test_cross_semantics(self, config, tgt_config):
        pairs = _one_instruction_pairs() + _random_pairs()[:256]
        _, share = _cross_check_all(pairs, config, tgt_config)
        assert share >= MIN_VECTOR_SHARE

    def test_undef_arguments_only_when_both_sides_have_undef(self):
        # one i2 argument: 4 values, poison, and undef only under OLD
        body = _fn("  ret i2 %x")
        for tgt_config, inputs in ((OLD, 6), (NEW, 5)):
            result = check_refinement(
                parse_function(body), parse_function(body), OLD,
                tgt_config=tgt_config, options=CheckOptions(
                    engine="vector", cross_check=True))
            assert result.ok and result.inputs_checked == inputs


@requires_numpy
class TestUndefCases:
    """Targeted OLD-semantics shapes: each must be decided by the vector
    engine, byte-identically to the scalar oracle, with the expected
    verdict."""

    @pytest.mark.parametrize("src,tgt,config,verdict", [
        # a target undef is every value; one source value cannot cover it
        ("  ret i2 0", "  ret i2 undef", OLD, "failed"),
        ("  ret i2 undef", "  ret i2 0", OLD, "verified"),
        # union coverage: the source returns all four values
        ("  %r = add i2 undef, 0\n  ret i2 %r", "  ret i2 undef", OLD,
         "verified"),
        # a select passes its undef arm through unexpanded
        ("  %c = icmp eq i2 %x, 0\n"
         "  %r = select i1 %c, i2 undef, i2 %x\n  ret i2 %r",
         "  %c = icmp eq i2 %x, 0\n"
         "  %r = select i1 %c, i2 1, i2 %x\n  ret i2 %r", OLD,
         "verified"),
        ("  %c = icmp eq i2 %x, 0\n"
         "  %r = select i1 %c, i2 1, i2 %x\n  ret i2 %r",
         "  %c = icmp eq i2 %x, 0\n"
         "  %r = select i1 %c, i2 undef, i2 %x\n  ret i2 %r", OLD,
         "failed"),
        # out-of-range shift: undef under OLD, which covers 0 but not
        # poison
        ("  %r = shl i2 %x, 3\n  ret i2 %r", "  ret i2 0", OLD,
         "verified"),
        ("  %r = shl i2 %x, 3\n  ret i2 %r", "  ret i2 poison", OLD,
         "failed"),
        ("  %r = shl i2 %x, 3\n  ret i2 %r", "  ret i2 poison", NEW,
         "verified"),
        # freeze of undef picks any one value
        ("  %f = freeze i2 undef\n  ret i2 %f", "  ret i2 1", OLD,
         "verified"),
        ("  ret i2 1", "  %f = freeze i2 undef\n  ret i2 %f", OLD,
         "failed"),
        # two uses of an undef x are independent; of a frozen x, not
        # (Section 3.1)
        ("  %r = sub i2 %x, %x\n  ret i2 %r", "  ret i2 0", OLD,
         "verified"),
        ("  ret i2 0", "  %r = sub i2 %x, %x\n  ret i2 %r", OLD,
         "failed"),
        ("  ret i2 0", "  %f = freeze i2 %x\n  %r = sub i2 %f, %f\n"
         "  ret i2 %r", OLD, "verified"),
        # an undef divisor may be zero: source UB covers everything
        ("  %r = udiv i2 1, undef\n  ret i2 %r", "  ret i2 poison", OLD,
         "verified"),
    ])
    def test_decided_identically(self, src, tgt, config, verdict):
        before = _refine_stat("num-vector-fallbacks")
        vec = _check(_fn(src), _fn(tgt), "vector", config=config)
        assert _refine_stat("num-vector-fallbacks") == before
        sca = _check(_fn(src), _fn(tgt), "scalar", config=config)
        assert vec.verdict == verdict
        assert _key(vec) == _key(sca)

    @pytest.mark.parametrize("config,verdict", [
        # select is arithmetic: a poison arm poisons the source too
        (OLD, "verified"),
        # select picks the undef arm; the target's poison %y is
        # stronger than undef (Section 3.4)
        (OLD_GVN_VIEW, "failed"),
    ])
    def test_select_undef_arm_to_other_arm(self, config, verdict):
        src = """
define i2 @f(i1 %c, i2 %y) {
entry:
  %r = select i1 %c, i2 %y, i2 undef
  ret i2 %r
}
"""
        tgt = """
define i2 @f(i1 %c, i2 %y) {
entry:
  ret i2 %y
}
"""
        vec = _check(src, tgt, "vector", config=config)
        assert vec.verdict == verdict
        assert _key(vec) == _key(_check(src, tgt, "scalar",
                                        config=config))

    def test_branch_on_undef_forks_both_edges(self):
        src = """
define i2 @f(i2 %x) {
entry:
  %c = icmp ult i2 %x, 2
  br i1 %c, label %lo, label %hi
lo:
  br label %join
hi:
  %y = add i2 %x, 1
  br label %join
join:
  %r = phi i2 [ %x, %lo ], [ %y, %hi ]
  ret i2 %r
}
"""
        tgt = _fn("  ret i2 %x")
        for config in (OLD, OLD_GVN_VIEW):
            vec = _check(src, tgt, "vector", config=config)
            assert _key(vec) == _key(_check(src, tgt, "scalar",
                                            config=config))


@requires_numpy
class TestUndefDeclines:
    """Where the scalar oracle would not decide an input, the vector
    engine must fall back, and the fallback answers identically."""

    @staticmethod
    def _declines(reason, src, tgt, **kwargs):
        before = _refine_stat(f"num-vector-ineligible-{reason}")
        vec = _check(src, tgt, "vector", config=OLD, **kwargs)
        assert _refine_stat(f"num-vector-ineligible-{reason}") \
            == before + 1
        assert _key(vec) == _key(_check(src, tgt, "scalar", config=OLD,
                                        **kwargs))
        return vec

    def test_input_over_max_paths(self):
        # x + undef forks 4 ways on every input: 4 paths > max_paths=3
        body = _fn("  %r = add i2 %x, undef\n  ret i2 %r")
        vec = self._declines("input-paths", body, body, max_paths=3)
        assert vec.verdict == "inconclusive"

    def test_undef_width_over_the_expansion_cap(self):
        vec = self._declines("undef-expansion", _fn("  ret i2 0"),
                             _fn("  ret i2 undef"),
                             undef_expansion_cap=2)
        assert vec.verdict == "inconclusive"

    def test_choice_points_over_max_choices(self):
        body = _fn("  %a = add i2 %x, undef\n  %r = add i2 %a, %x\n"
                   "  ret i2 %r")
        self._declines("choice-points", body, body, max_choices=2)

    def test_lane_cap(self, monkeypatch):
        import repro.semantics.vector as vector_mod
        # 6 inputs forked 4 ways by the undef literal: 24 lanes
        monkeypatch.setattr(vector_mod, "MAX_LANES", 20)
        body = _fn("  %r = add i2 %x, undef\n  ret i2 %r")
        vec = self._declines("lane-cap", body, body)
        assert vec.ok


@requires_numpy
class TestDeadlines:
    """Deadline-carrying checks (every serve request) use the vector
    engine; only an already-expired deadline short-circuits."""

    @pytest.mark.parametrize("src,tgt,verdict", [
        (STRAIGHT_SRC, STRAIGHT_TGT, "verified"),
        (NSW_SRC, NSW_TGT, "failed"),
    ])
    def test_future_deadline_gives_the_no_deadline_verdict(self, src, tgt,
                                                           verdict):
        before = _refine_stat("num-vector-checks")
        fallbacks = _refine_stat("num-vector-fallbacks")
        vec = _check(src, tgt, "vector", deadline=time.monotonic() + 3600)
        assert _refine_stat("num-vector-checks") == before + 1
        assert _refine_stat("num-vector-fallbacks") == fallbacks
        assert vec.verdict == verdict
        assert _key(vec) == _key(_check(src, tgt, "vector"))

    def test_expired_deadline_matches_scalar(self):
        before = _refine_stat("num-deadline-aborts")
        deadline = time.monotonic() - 1.0
        vec = _check(STRAIGHT_SRC, STRAIGHT_TGT, "vector",
                     deadline=deadline)
        sca = _check(STRAIGHT_SRC, STRAIGHT_TGT, "scalar",
                     deadline=deadline)
        assert str(vec) == "inconclusive: request deadline expired " \
                           "after 0 inputs"
        assert _key(vec) == _key(sca)
        assert _refine_stat("num-deadline-aborts") == before + 2

    def test_cross_check_skips_a_deadline_aborted_scalar_run(
            self, monkeypatch):
        import repro.refine.vector as refine_vector
        # the vector engine reads a clock that has not reached the
        # deadline; the scalar run that follows finds it expired
        monkeypatch.setattr(refine_vector, "time",
                            types.SimpleNamespace(monotonic=lambda: 0.0))
        before = _refine_stat("num-cross-checks")
        result = _check(STRAIGHT_SRC, STRAIGHT_TGT, "auto",
                        cross_check=True,
                        deadline=time.monotonic() - 1.0)
        assert result.ok
        assert _refine_stat("num-cross-checks") == before
