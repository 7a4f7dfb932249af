"""Differential validation of the poison dataflow against the semantics.

The lint rules are pure functions of the fixpoint facts, so the whole
checker is sound exactly when the facts are: a ``MustNotPoison`` claim
must mean the value is *never* poison/undef in any execution, and a
``MustPoison`` claim must mean it always is.  This module checks both
against the executable semantics, exhaustively, over the opt-fuzz
corpus.

The oracle is lint-attack's (:mod:`repro.mutate.ground_truth`): a clone
of the function watches every claimed value with an observation call
anchored right after its definition, and the vector engine (or, when it
declines, the scalar interpreter) reports the value's exact bits on
every path of every input — including inputs that are themselves
poison — while conditional execution is handled for free (a value is
only observed when its definition actually runs).  A function over the
oracle's budget gets no verdict and counts as unaudited.

Any contradiction is an analyzer soundness bug: it is reduced to the
claimed value's backward slice and written as a crash bundle
(``kind: lint-audit-soundness``) for offline triage, and the audit
exits nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.poison_flow import (
    MUST_NOT_POISON,
    MUST_POISON,
    analyze_poison_flow,
)
from ..diag import Statistic, stats_delta, stats_snapshot
from ..ir.function import Function
from ..ir.instructions import BinaryInst, BranchInst, Instruction, Opcode
from ..mutate.ground_truth import (
    ClassifyOptions,
    _ground_truth,
    _instrument,
    _reduce,
)
from ..opt.resilience.bundle import make_bundle_payload, write_bundle
from .corpus import Corpus

NUM_FUNCTIONS_AUDITED = Statistic(
    "lint-audit", "num-functions-audited",
    "Corpus functions differentially audited")
NUM_CLAIMS_CHECKED = Statistic(
    "lint-audit", "num-claims-checked",
    "MustNotPoison / MustPoison claims validated against the semantics")
NUM_OBSERVATIONS = Statistic(
    "lint-audit", "num-observations",
    "Individual value observations compared against claims")
NUM_CONTRADICTIONS = Statistic(
    "lint-audit", "num-contradictions",
    "Analyzer claims contradicted by the executable semantics")
NUM_VECTOR_FUNCTIONS = Statistic(
    "lint-audit", "num-vector-functions",
    "Audited functions whose observations the vector engine decided")
NUM_VECTOR_FALLBACKS = Statistic(
    "lint-audit", "num-vector-fallbacks",
    "Audited functions whose observations fell back to the scalar "
    "interpreter")

_DIVISIONS = (Opcode.UDIV, Opcode.SDIV, Opcode.UREM, Opcode.SREM)


@dataclass
class Contradiction:
    """One refuted claim: the analyzer bug record."""

    function: str
    index: int
    claim: str           # "must-not-poison" | "must-poison"
    value_ref: str
    inputs: Tuple
    observed_bits: str
    reduced_ir: str
    bundle_path: str = ""

    def as_dict(self) -> Dict:
        return {
            "function": self.function,
            "index": self.index,
            "claim": self.claim,
            "value": self.value_ref,
            "inputs": [str(v) for v in self.inputs],
            "observed_bits": self.observed_bits,
            "reduced_ir": self.reduced_ir,
            "bundle": self.bundle_path,
        }


def _bits_str(code: int, width: int) -> str:
    """An oracle code (a value, -1 for poison, -2 for undef) as bits,
    most significant first."""
    if code < 0:
        return ("p" if code == -1 else "u") * width
    return format(code, f"0{width}b")


def _collect_claims(fn: Function, semantics) -> List[Tuple[Instruction, str]]:
    """(instruction, claim) pairs the fixpoint commits to on ``fn``."""
    flow = analyze_poison_flow(fn, semantics)
    claims: List[Tuple[Instruction, str]] = []
    for block in fn.blocks:
        for inst in block.instructions:
            if inst.type.is_void or inst.is_terminator:
                continue
            fact = flow.fact_of(inst)
            if fact.is_must_not_poison:
                claims.append((inst, MUST_NOT_POISON))
            elif fact.is_must_poison:
                claims.append((inst, MUST_POISON))
    return claims


def _after(inst: Instruction) -> Instruction:
    """The instruction that follows ``inst`` (never a terminator)."""
    insts = inst.parent.instructions
    return insts[insts.index(inst) + 1]


def audit_function(fn: Function, semantics,
                   opts: Optional[ClassifyOptions] = None, index: int = 0,
                   bundle_dir: Optional[str] = None
                   ) -> Tuple[List[Contradiction], Dict]:
    """Differentially validate every fixpoint claim on one function.

    Returns the contradictions plus a small tally (claims checked,
    observations made, silent lint verdicts validated, and whether the
    oracle gave no verdict).  ``fn`` and its module are only read.
    """
    opts = opts or ClassifyOptions()
    NUM_FUNCTIONS_AUDITED.inc()
    claims = _collect_claims(fn, semantics)
    tally = {
        "claims": len(claims),
        "must_not": sum(1 for _, c in claims if c == MUST_NOT_POISON),
        "must": sum(1 for _, c in claims if c == MUST_POISON),
        "observations": 0,
        "silent_verdicts": _count_silent_verdicts(fn, claims),
        "unaudited": 0,
    }
    if not claims:
        return [], tally
    NUM_CLAIMS_CHECKED.inc(len(claims))

    obs_fn, names = _instrument(
        fn, [(_after(inst), inst) for inst, _ in claims])
    tallies, events, failure, _, engine = _ground_truth(
        obs_fn, fn, [], semantics, opts)
    if engine == "vector":
        NUM_VECTOR_FUNCTIONS.inc()
    elif engine == "scalar":
        NUM_VECTOR_FALLBACKS.inc()
    if failure:
        tally["unaudited"] = 1
        return [], tally
    NUM_OBSERVATIONS.inc(events)
    tally["observations"] = events

    contradictions: List[Contradiction] = []
    for (inst, claim), name in zip(claims, names):
        seen = tallies.get(name)
        if seen is None:  # the definition never runs
            continue
        witness = seen.hazard if claim == MUST_NOT_POISON else seen.live
        if witness is None:
            continue
        inputs, code = witness
        NUM_CONTRADICTIONS.inc()
        found = Contradiction(
            function=fn.name, index=index, claim=claim,
            value_ref=inst.ref(), inputs=inputs,
            observed_bits=_bits_str(code, inst.type.bitwidth()),
            reduced_ir=_reduce(fn, inst, observe=True))
        found.bundle_path = _bundle(found, bundle_dir)
        contradictions.append(found)
    return contradictions, tally


def _count_silent_verdicts(fn: Function,
                           claims: List[Tuple[Instruction, str]]) -> int:
    """Claims whose validation directly justifies a *silent* lint
    verdict: a division divisor or branch condition the analysis proved
    never-poison (so ub-sink / branch-on-poison said nothing)."""
    proven = {id(inst) for inst, c in claims if c == MUST_NOT_POISON}
    count = 0
    for block in fn.blocks:
        for inst in block.instructions:
            if (isinstance(inst, BinaryInst) and inst.opcode in _DIVISIONS
                    and id(inst.rhs) in proven):
                count += 1
            if (isinstance(inst, BranchInst) and inst.is_conditional
                    and id(inst.cond) in proven):
                count += 1
    return count


def _bundle(c: Contradiction, bundle_dir: Optional[str]) -> str:
    if bundle_dir is None:
        return ""
    payload = make_bundle_payload(
        pre_ir=c.reduced_ir,
        pass_name="poison-flow",
        application=c.index,
        kind="lint-audit-soundness",
        error=(f"claim {c.claim} on {c.value_ref} refuted: observed "
               f"bits {c.observed_bits} on inputs "
               f"({', '.join(str(v) for v in c.inputs)})"),
        traceback_text="",
        function=c.function,
    )
    return write_bundle(bundle_dir, payload)


def run_lint_audit(width: int = 2, instructions: int = 2,
                   num_args: int = 2, opcodes=(),
                   include_flags: bool = True,
                   include_deferred: bool = True,
                   limit: Optional[int] = None, start: int = 0,
                   stride: int = 1,
                   semantics=None,
                   opts: Optional[ClassifyOptions] = None,
                   bundle_dir: Optional[str] = None,
                   progress=None) -> Dict:
    """Audit the analyzer over an exhaustive opt-fuzz corpus slice.

    ``stride > 1`` samples every stride-th corpus index instead of a
    contiguous window, so a bounded ``limit`` still covers the whole
    enumeration space (the space orders flag variants and operand kinds
    systematically, so contiguous windows are locally homogeneous).

    Also runs the lint rules over every corpus function, so the report
    doubles as a census of what the checker says about the space.
    """
    from ..lint import lint_function
    from ..semantics.config import NEW

    semantics = semantics if semantics is not None else NEW
    corpus = Corpus.of(
        opcodes, num_instructions=instructions, width=width,
        num_args=num_args, include_deferred=include_deferred,
        include_flags=include_flags, start=start, limit=limit,
        stride=max(1, stride))

    audited = ("claims", "must_not", "must", "observations",
               "silent_verdicts", "unaudited")
    totals = dict.fromkeys(("functions",) + audited, 0)
    stats_before = stats_snapshot()
    findings_by_rule: Dict[str, int] = {}
    contradictions: List[Contradiction] = []
    for index, fn in enumerate(corpus.functions(0, len(corpus))):
        found, tally = audit_function(fn, semantics, opts,
                                      index=corpus.index_at(index),
                                      bundle_dir=bundle_dir)
        contradictions.extend(found)
        totals["functions"] += 1
        for key in audited:
            totals[key] += tally[key]
        for diag in lint_function(fn, semantics=semantics):
            findings_by_rule[diag.rule_id] = (
                findings_by_rule.get(diag.rule_id, 0) + 1)
        if progress is not None and (index + 1) % 50 == 0:
            progress(index + 1, len(contradictions))

    return {
        "spec": {
            "width": width, "instructions": instructions,
            "num_args": num_args,
            "opcodes": [o.value for o in corpus.opcodes],
            "include_flags": include_flags,
            "include_deferred": include_deferred,
            "limit": limit, "start": start, "stride": stride,
        },
        "totals": totals,
        "lint_findings": dict(sorted(findings_by_rule.items())),
        "contradictions": [c.as_dict() for c in contradictions],
        "stats": stats_delta(stats_before, stats_snapshot()),
    }
