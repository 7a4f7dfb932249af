"""The seed corpus every campaign kind walks (repro.campaign.corpus):
one resolution of the opcode defaults, size and position → function."""

import json

import pytest

from repro.campaign import (
    AttackSpec,
    CampaignSpec,
    Corpus,
    iter_shard_functions,
    plan_shards,
)
from repro.campaign import lint_audit
from repro.campaign.cli import campaign_main
from repro.fuzz import (
    DEFAULT_OPCODES,
    SMALL_OPCODES,
    enumeration_size,
    function_at_index,
)
from repro.ir import Opcode, print_module


def _text(fn):
    return print_module(fn.module)


def _expected(indices, num_instructions, **shape):
    return [(i, _text(function_at_index(i, num_instructions, **shape)))
            for i in indices]


class TestCorpus:
    def test_empty_opcodes_resolve_by_corpus_kind(self):
        assert Corpus.of((), num_instructions=1).opcodes == SMALL_OPCODES
        assert Corpus.of((), num_instructions=1, limit=4,
                         seed=0).opcodes == DEFAULT_OPCODES
        assert Corpus.of(("mul", "shl"), num_instructions=1).opcodes == (
            Opcode.MUL, Opcode.SHL)

    def test_bad_opcode_and_stride_are_rejected(self):
        with pytest.raises(ValueError):
            Corpus.of(("frobnicate",), num_instructions=1)
        with pytest.raises(ValueError):
            Corpus(num_instructions=1, stride=0)
        with pytest.raises(ValueError):
            CampaignSpec(opcodes=("frobnicate",))
        with pytest.raises(ValueError):
            AttackSpec(stride=0)

    def test_size_and_positions(self):
        corpus = Corpus(num_instructions=1)
        space = enumeration_size(1)
        assert corpus.space_size == space == len(corpus)
        assert Corpus(num_instructions=1, include_flags=True).space_size \
            == enumeration_size(1, include_flags=True) > space
        assert len(Corpus(num_instructions=1, start=space - 3)) == 3
        assert len(Corpus(num_instructions=1, start=space + 3)) == 0
        strided = Corpus(num_instructions=1, start=5, stride=100)
        assert len(strided) == len(range(5, strided.space_size, 100))
        assert strided.index_at(2) == 205
        assert len(Corpus(num_instructions=1, stride=100, limit=2)) == 2
        assert len(Corpus(num_instructions=3, limit=9, seed=1)) == 9

    def test_contiguous_and_strided_iteration_agree_with_random_access(self):
        for stride in (1, 7):
            corpus = Corpus(num_instructions=1, start=11, stride=stride,
                            limit=12)
            walked = [_text(fn) for fn in corpus.functions(2, 9)]
            assert walked == [_text(corpus.function_at(p))
                              for p in range(2, 9)]


class TestEveryToolWalksTheSameSpace:
    """Each tool's k-th function is ``function_at_index`` of its
    resolved space (empty opcodes = SMALL_OPCODES)."""

    def test_refine_shards(self):
        spec = CampaignSpec(num_instructions=1, start=5, limit=40,
                            shard_size=16)
        got = [(shard.start + k, _text(fn))
               for shard in plan_shards(spec)
               for k, fn in enumerate(iter_shard_functions(spec, shard))]
        assert got == _expected(range(5, 45), 1, opcodes=SMALL_OPCODES)

    def test_lint_attack_seeds(self):
        spec = AttackSpec(num_instructions=1, start=3, stride=7, limit=10,
                          shard_size=4)
        got = [(spec.corpus_index(p), _text(spec.seed_at(p)))
               for shard in plan_shards(spec)
               for p in range(shard.start, shard.stop)]
        assert got == _expected(range(3, 73, 7), 1, opcodes=SMALL_OPCODES,
                                include_flags=True)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_lint_audit_functions(self, monkeypatch, stride):
        seen = []
        audit = lint_audit.audit_function

        def recording(fn, semantics, opts=None, index=0, bundle_dir=None):
            seen.append((index, _text(fn)))
            return audit(fn, semantics, opts, index=index,
                         bundle_dir=bundle_dir)

        monkeypatch.setattr(lint_audit, "audit_function", recording)
        lint_audit.run_lint_audit(instructions=1, start=3, stride=stride,
                                  limit=10)
        assert seen == _expected(range(3, 3 + 10 * stride, stride), 1,
                                 opcodes=SMALL_OPCODES, include_flags=True)


def test_lint_audit_and_lint_attack_sample_the_same_indices(
        tmp_path, monkeypatch, capsys):
    """Identical corpus flags, the empty opcode list included, sample
    the same corpus indices under both commands' auto-stride."""
    flags = ["--instructions", "1", "--opcodes", "", "--limit", "3",
             "--json"]
    audited = []
    audit = lint_audit.audit_function

    def recording(fn, semantics, opts=None, index=0, bundle_dir=None):
        audited.append(index)
        return audit(fn, semantics, opts, index=index,
                     bundle_dir=bundle_dir)

    monkeypatch.setattr(lint_audit, "audit_function", recording)
    assert campaign_main(["lint-audit", "--out", str(tmp_path / "audit")]
                         + flags) == 0
    audit_report = json.loads(capsys.readouterr().out)
    campaign_main(["lint-attack", "--out", str(tmp_path / "attack")]
                  + flags)
    attack_report = json.loads(capsys.readouterr().out)

    spec = AttackSpec.from_dict(attack_report["spec"])
    attacked = [spec.corpus_index(p) for p in range(attack_report["seeds"])]
    assert audit_report["spec"]["stride"] == spec.stride > 1
    assert audited == attacked
    assert len(attacked) == 3
