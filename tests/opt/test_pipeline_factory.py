"""The one pipeline table and the one guard rule.

Every surface that builds a pass manager — the compile, lint and bisect
CLIs, campaign specs and the service's ``optimize`` op — goes through
:func:`repro.opt.pipelines.build_pipeline`, so each accepts the same
names under every policy and resolves ``policy="none"`` the same way.
"""

import asyncio
import json
import os
import random

import pytest

from repro.campaign import CampaignSpec
from repro.cli import _bisect_parser, _build_parser, _lint_parser
from repro.cli import main as repro_main
from repro.ir import parse_function
from repro.opt import (
    DCE,
    GVN,
    LICM,
    SCCP,
    EarlyCSE,
    FreezeOpts,
    GuardedPassError,
    GuardedPassManager,
    Inliner,
    InstCombine,
    LoopUnswitch,
    Mem2Reg,
    OptConfig,
    PassManager,
    Reassociate,
    SimplifyCFG,
)
from repro.opt.pipelines import CONFIGS, PIPELINES, build_pipeline
from repro.opt.resilience import inject_corruption
from repro.semantics import NEW, OLD
from repro.serve.service import (
    ServiceConfig,
    ServiceError,
    ValidationService,
)

EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "examples", "unswitch_gvn.ll")

SRC = """define i4 @f(i4 %a, i4 %b) {
entry:
  %t = add i4 %a, %b
  ret i4 %t
}
"""


def _optimize(payload):
    """Run the service's ``optimize`` op in-process."""

    async def scenario():
        service = ValidationService(ServiceConfig(
            workers=1, check_threads=1))
        try:
            async def emit(chunk):
                pass

            return await service.run_request("optimize", payload, emit)
        finally:
            await service.aclose()

    return asyncio.run(scenario())


def _compile(capsys, *argv):
    rc = repro_main([EXAMPLE, *argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def corrupting_dce(monkeypatch):
    """DCE breaks the IR on every function it touches."""

    def corrupt(self, fn):
        inject_corruption(fn, random.Random(0))
        return True

    monkeypatch.setattr(DCE, "run_on_function", corrupt)


class TestGuardRule:
    def test_campaign_verify_each_is_guarded_strict(self, corrupting_dce):
        pm = CampaignSpec(policy="none", verify_each=True).make_pipeline()
        assert isinstance(pm, GuardedPassManager)
        assert pm.policy == "strict" and pm.verify_each
        with pytest.raises(GuardedPassError) as err:
            pm.run_on_function(parse_function(SRC))
        assert err.value.failure.pass_name == "dce"
        assert err.value.failure.kind == "verify"

    def test_serve_optimize_verify_each_is_guarded_strict(
            self, corrupting_dce):
        with pytest.raises(ServiceError) as err:
            _optimize({"source": SRC, "policy": "none",
                       "verify_each": True})
        assert err.value.code == "crashed"
        assert "pass 'dce' failed" in str(err.value)
        assert "verify" in str(err.value)

    def test_compile_verify_each_is_guarded_strict(self, capsys,
                                                   corrupting_dce):
        rc, out, err = _compile(capsys, "--verify-each", "--json")
        assert rc == 2
        assert "pass 'dce' failed" in err and "verify" in err
        assert json.loads(out)["resilience"]["policy"] == "strict"

    def test_chaos_resolves_to_recover_everywhere(self, capsys):
        pm = CampaignSpec(policy="none", chaos_seed=3).make_pipeline()
        assert pm.policy == "recover"
        done = _optimize({"source": SRC, "policy": "none",
                          "chaos_seed": 3, "chaos_rate": 1.0})
        assert done["recoveries"] > 0  # strict would have raised
        rc, out, _ = _compile(capsys, "--chaos", "--chaos-rate", "1.0",
                              "--verify-each", "--json")
        assert rc == 0
        assert json.loads(out)["resilience"]["policy"] == "recover"

    def test_compile_chaos_implies_verify_each(self, capsys):
        # Without verify-each an injected corruption survives to the
        # final verify and the compile exits 2.
        rc, out, _ = _compile(capsys, "--chaos", "--chaos-rate", "1.0",
                              "--json")
        assert rc == 0
        resilience = json.loads(out)["resilience"]
        assert resilience["verify_each"] is True
        assert resilience["policy"] == "recover"

    def test_bisect_chaos_leaves_verify_each_off(self, monkeypatch):
        import repro.cli as cli

        built = []
        real = cli.build_pipeline

        def spy(*args, **kwargs):
            built.append(kwargs.get("verify_each", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "build_pipeline", spy)
        repro_main(["bisect", EXAMPLE, "--chaos", "--chaos-rate", "1.0"])
        assert built and not any(built)

    def test_nothing_asked_is_plain(self):
        pm = build_pipeline("o2")
        assert type(pm) is PassManager
        for asked in ({"policy": "recover"}, {"verify_each": True},
                      {"bisect_limit": 3}, {"crash_dir": "x"}):
            assert isinstance(build_pipeline("o2", **asked),
                              GuardedPassManager), asked

    def test_codegen_builds_under_policy_none(self):
        pm = CampaignSpec(pipeline="codegen", policy="none").make_pipeline()
        assert [p.name for p in pm.passes] == [
            "codegenprepare", "freeze-opts", "dce"]

    def test_one_manager_per_build(self, monkeypatch):
        built = []
        real = PassManager.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self))
            real(self, *args, **kwargs)

        monkeypatch.setattr(PassManager, "__init__", counting)
        CampaignSpec().make_pipeline()
        CampaignSpec(policy="none", chaos_seed=1).make_pipeline()
        assert built == [GuardedPassManager, GuardedPassManager]


def _choices(parser):
    action = next(a for a in parser._actions if "--pipeline" in
                  a.option_strings)
    return set(action.choices) - {"none"}


@pytest.mark.parametrize("surface", ["compile", "lint", "bisect",
                                     "campaign"])
def test_every_surface_accepts_the_table(surface):
    names = set(PIPELINES)
    if surface == "campaign":
        for name in names:
            for policy in ("none", "strict", "recover", "quarantine"):
                pm = CampaignSpec(pipeline=name,
                                  policy=policy).make_pipeline()
                assert pm.passes, (name, policy)
        return
    parser = {"compile": _build_parser, "lint": _lint_parser,
              "bisect": _bisect_parser}[surface]()
    assert _choices(parser) == names


@pytest.mark.parametrize("name", ["o2", "codegen", "gvn", "poison-flow"])
def test_cli_surfaces_run_a_name(capsys, name):
    assert repro_main([EXAMPLE, "--pipeline", name]) == 0
    assert repro_main(["lint", EXAMPLE, "--pipeline", name]) in (0, 1)
    assert repro_main(["bisect", EXAMPLE, "--pipeline", name]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("config, semantics", [("fixed", NEW),
                                               ("legacy", OLD)])
def test_default_campaign_pipeline_is_unchanged(config, semantics):
    pm = CampaignSpec(opt_config=config).make_pipeline()
    assert type(pm) is GuardedPassManager
    assert [type(p) for p in pm.passes] == [
        Mem2Reg, SimplifyCFG, InstCombine, Inliner, SCCP, SimplifyCFG,
        Reassociate, GVN, EarlyCSE, InstCombine, LICM, LoopUnswitch,
        SimplifyCFG, GVN, InstCombine, FreezeOpts, DCE]
    expected = (OptConfig.fixed(NEW) if config == "fixed"
                else OptConfig.legacy(OLD))
    assert all(p.config == expected for p in pm.passes)
    assert expected.semantics is semantics
    assert pm.max_iterations == 2
    assert pm.policy == "recover" and not pm.verify_each
    assert pm.quarantine_after == 3 and not pm.quarantined
    assert pm.bisect_limit is None and pm.crash_dir is None
    assert pm.seed is None and not pm.forbid_undef


def test_configs_are_shared_constants():
    assert CampaignSpec(opt_config="fixed").make_opt_config() \
        is CONFIGS["fixed"]
    assert CampaignSpec(opt_config="legacy").semantics() is OLD
    assert build_pipeline("o2").passes[0].config is CONFIGS["fixed"]
