"""Exhaustive refinement checking over small bitwidths.

This is the paper's own validation method (Section 6): opt-fuzz
exhaustively generated all small functions over 2-bit integers, and each
optimized result was checked for refinement against its source.  At
width 2 or 4 the input space (including poison, and undef in OLD mode)
and the nondeterminism space are small enough to enumerate completely,
giving a *complete* decision procedure for these programs rather than a
sampled approximation.

Entry point: :func:`check_refinement`.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..diag import Statistic, default_registry, phase_entries, span
from ..ir.function import Function
from ..ir.types import IntType, PointerType, Type, VectorType
from ..semantics.config import NEW, SemanticsConfig
from ..semantics.domains import (
    Bits,
    PBIT,
    POISON,
    UBIT,
    RuntimeValue,
    format_value,
    full_undef,
)
from ..semantics.interp import (
    Behavior,
    PathLimitExceeded,
    PlanCache,
    enumerate_behaviors,
)
from ..semantics.vector import VectorIneligible
from .refinement import check_behavior_sets

# Bound as a module, its names read at call time: refine.vector imports
# this module in turn.
from . import vector as vector_engine

NUM_CHECKS = Statistic(
    "refine", "num-checks",
    "Refinement checks run (one per source/target function pair)")
NUM_INPUTS_CHECKED = Statistic(
    "refine", "num-inputs-checked",
    "Concrete inputs enumerated across all refinement checks")
NUM_DEADLINE_ABORTS = Statistic(
    "refine", "num-deadline-aborts",
    "Refinement checks abandoned because their request deadline expired")

#: RefinementResult reasons with this substring mean the check was cut
#: short by a *request* deadline — a property of one request's budget,
#: not of the function.  Unlike fuel exhaustion these verdicts must
#: never be memoized (see :mod:`repro.campaign.worker`).
DEADLINE_REASON = "request deadline"


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of a refinement check."""

    verdict: str  # "verified" | "failed" | "inconclusive"
    counterexample: Optional["Counterexample"] = None
    reason: str = ""
    inputs_checked: int = 0
    #: the "verified" verdict came from a deterministic sample of the
    #: input space, not exhaustive enumeration — sound for failures,
    #: evidence-only for verification.  Must stay visible everywhere a
    #: verdict is rendered (``__str__``, campaign reports, serve
    #: chunks) so a sampled pass can never masquerade as a proof.
    sampled: bool = False

    @property
    def ok(self) -> bool:
        return self.verdict == "verified"

    @property
    def failed(self) -> bool:
        return self.verdict == "failed"

    def __str__(self) -> str:
        if self.ok:
            if self.sampled:
                return f"verified ({self.reason})"
            return f"verified ({self.inputs_checked} inputs)"
        if self.failed:
            return f"FAILED\n{self.counterexample}"
        return f"inconclusive: {self.reason}"


@dataclass(frozen=True)
class Counterexample:
    args: Tuple[RuntimeValue, ...]
    arg_types: Tuple[Type, ...]
    global_init: Tuple[Tuple[str, Bits], ...]
    witness: Behavior
    src_behaviors: Tuple[Behavior, ...]

    def __str__(self) -> str:
        arg_strs = [
            format_value(v, t) for v, t in zip(self.args, self.arg_types)
        ]
        lines = [f"  input: ({', '.join(arg_strs)})"]
        if self.global_init:
            for name, bits in self.global_init:
                lines.append(f"  @{name} initially: {_fmt_bits(bits)}")
        lines.append(f"  target can produce: {self.witness}")
        trace = self.witness.trace
        if trace is not None and trace.ub_reason:
            # The interpreter's event trace names the exact UB event the
            # target executed — the divergence, not just "UB".
            lines.append(
                f"  target UB event: {trace.ub_reason} "
                f"(after {trace.steps} steps)"
            )
        lines.append("  but source only allows:")
        for b in sorted(self.src_behaviors, key=str)[:8]:
            lines.append(f"    {b}")
        if len(self.src_behaviors) > 8:
            lines.append(f"    ... ({len(self.src_behaviors) - 8} more)")
        return "\n".join(lines)


def _fmt_bits(bits: Bits) -> str:
    def one(b) -> str:
        if b is PBIT:
            return "p"
        if b is UBIT:
            return "u"
        return str(b)

    return "".join(one(b) for b in reversed(bits))


def scalar_candidates(ty: Type, config: SemanticsConfig,
                      poison_inputs: bool = True,
                      undef_inputs: bool = True) -> List[RuntimeValue]:
    """All interesting input values of a scalar type."""
    if isinstance(ty, IntType):
        values: List[RuntimeValue] = list(range(ty.num_values))
        if poison_inputs:
            values.append(POISON)
        if undef_inputs and config.has_undef:
            values.append(full_undef(ty.bits))
        return values
    raise TypeError(f"cannot enumerate inputs of type {ty}")


def input_candidates(ty: Type, config: SemanticsConfig,
                     poison_inputs: bool = True,
                     undef_inputs: bool = True) -> List[RuntimeValue]:
    if isinstance(ty, IntType):
        return scalar_candidates(ty, config, poison_inputs, undef_inputs)
    if isinstance(ty, VectorType):
        lane = scalar_candidates(ty.elem, config, poison_inputs, undef_inputs)
        return [tuple(v) for v in itertools.product(lane, repeat=ty.count)]
    raise TypeError(f"cannot enumerate inputs of type {ty}")


def _bit_patterns(nbits: int, config: SemanticsConfig,
                  exhaustive_limit: int = 4,
                  poison_in_memory: bool = True) -> List[Bits]:
    """Initial-content candidates for a memory region of ``nbits`` bits."""
    uninit = UBIT if config.uninit_is_undef else PBIT
    patterns: List[Bits] = []
    # The uninitialized pattern models "never stored to".  Under the
    # no-poison-in-memory reading an all-poison region is not a legal
    # memory state, so only include it when uninit bits are undef or
    # poison is allowed in memory.
    if uninit is UBIT or poison_in_memory:
        patterns.append((uninit,) * nbits)
    specials = [0, 1]
    if poison_in_memory:
        specials.append(PBIT)
    if config.has_undef:
        specials.append(UBIT)
    if nbits <= exhaustive_limit:
        patterns.extend(itertools.product(specials, repeat=nbits))
    else:
        patterns.append((0,) * nbits)
        patterns.append((1,) * nbits)
        patterns.append(tuple((i % 2) for i in range(nbits)))
        if poison_in_memory:
            patterns.append((PBIT,) + (0,) * (nbits - 1))
        if config.has_undef:
            # A partially-undef region must stay in the candidate set
            # even when poison is excluded from memory: OLD-mode uninit
            # bits are undef, and dropping them here silently narrowed
            # the checked state space for large regions.
            patterns.append((UBIT,) + (0,) * (nbits - 1))
    # dedupe, preserving order
    seen = set()
    out = []
    for p in patterns:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


@dataclass
class CheckOptions:
    """Budgets and toggles for the exhaustive checker."""

    max_inputs: int = 20_000
    max_paths: int = 4096
    max_choices: int = 24
    fuel: int = 10_000
    #: include poison among argument values
    poison_inputs: bool = True
    #: include undef among argument values (OLD-semantics checks only)
    undef_inputs: bool = True
    #: include poison bits among initial memory contents.  Whether
    #: memory can hold poison at all was itself ambiguous pre-paper;
    #: turning this off models the no-poison-in-memory reading.
    poison_in_memory: bool = True
    #: when the input space exceeds ``max_inputs``, check this many
    #: deterministically-sampled inputs instead of giving up (the result
    #: is then "verified (sampled)" — sound for failures, evidence-only
    #: for verification).  ``None`` keeps the strict exhaustive behavior.
    sample_inputs: Optional[int] = None
    #: maximum number of concretizations when union-expanding a target
    #: behavior's undef bits; exceeding it makes that input (and hence
    #: the check) inconclusive rather than silently deciding either way
    undef_expansion_cap: int = 4096
    #: absolute :func:`time.monotonic` instant after which the check
    #: aborts with an inconclusive ``request deadline`` verdict.  Set
    #: per request by the serve layer — never derived from the spec, so
    #: it cannot leak into memo contexts or cached verdicts.
    deadline: Optional[float] = None
    #: which evaluation engine decides the check: ``"scalar"`` is the
    #: one-input-at-a-time interpreter (the differential oracle),
    #: ``"vector"``/``"auto"`` attempt the numpy lane-parallel engine
    #: (:mod:`repro.refine.vector`) and transparently fall back to
    #: scalar for ineligible (function, config) pairs or when numpy is
    #: not installed.
    engine: str = "auto"
    #: run *both* engines on every vector-eligible check and raise
    #: :class:`CrossCheckMismatch` unless their results are
    #: byte-identical.  Differential-testing mode: slower than either
    #: engine alone, never changes a verdict.
    cross_check: bool = False


def _global_inits(src: Function, config: SemanticsConfig,
                  options: CheckOptions) -> List[Dict[str, Bits]]:
    """Every initial-contents assignment of the uninitialized globals."""
    if src.module is None or not src.module.globals:
        return [dict()]
    per_global: List[List[Tuple[str, Bits]]] = []
    for name, g in sorted(src.module.globals.items()):
        if g.initializer is not None:
            continue  # fixed contents
        nbits = g.value_type.bitwidth()
        per_global.append(
            [(name, bits)
             for bits in _bit_patterns(
                 nbits, config, poison_in_memory=options.poison_in_memory)]
        )
    if not per_global:
        return [dict()]
    inits = []
    for combo in itertools.product(*per_global):
        inits.append(dict(combo))
    return inits


class CrossCheckMismatch(RuntimeError):
    """The scalar and vector engines disagreed on a check that both
    decided — a bug in one of them.  Raised (never swallowed) so a
    campaign records the function as crashed instead of picking a
    winner."""


_ENGINES = ("auto", "scalar", "vector")


def check_refinement(src: Function, tgt: Function,
                     config: SemanticsConfig = NEW,
                     tgt_config: Optional[SemanticsConfig] = None,
                     options: Optional[CheckOptions] = None,
                     engine: Optional[str] = None) -> RefinementResult:
    """Decide whether ``tgt`` refines ``src`` under ``config``.

    ``tgt_config`` allows cross-semantics checks (e.g. validating the
    migration story: a NEW-semantics target refining an OLD-semantics
    source).  Defaults to ``config``.

    ``engine`` overrides ``options.engine`` (see
    :attr:`CheckOptions.engine`); every engine produces byte-identical
    results, so the knob only moves work between implementations.
    """
    NUM_CHECKS.inc()
    with span("refine-check", cat="refine", function=tgt.name) as sp:
        result = _dispatch_refinement(src, tgt, config, tgt_config,
                                      options, engine)
        NUM_INPUTS_CHECKED.inc(result.inputs_checked)
        sp.set(verdict=result.verdict, inputs=result.inputs_checked)
        return result


def _dispatch_refinement(src: Function, tgt: Function,
                         config: SemanticsConfig,
                         tgt_config: Optional[SemanticsConfig],
                         options: Optional[CheckOptions],
                         engine: Optional[str]) -> RefinementResult:
    options = options or CheckOptions()
    engine = engine or options.engine
    if engine not in _ENGINES:
        raise ValueError(f"unknown refinement engine {engine!r} "
                         f"(expected one of {', '.join(_ENGINES)})")
    if engine == "scalar":
        return _check_refinement(src, tgt, config, tgt_config, options)

    try:
        vector_result = vector_engine.check_refinement_vector(
            src, tgt, config, tgt_config, options)
    except VectorIneligible as e:
        vector_engine.NUM_VECTOR_FALLBACKS.inc()
        default_registry().add("refine",
                               f"num-vector-ineligible-{e.reason}")
        return _check_refinement(src, tgt, config, tgt_config, options)
    vector_engine.NUM_VECTOR_CHECKS.inc()
    if not options.cross_check:
        return vector_result
    scalar_result = _check_refinement(src, tgt, config, tgt_config, options)
    if (scalar_result.verdict == "inconclusive"
            and DEADLINE_REASON in scalar_result.reason):
        # The scalar run was cut short by the request's clock, which the
        # vector engine only consults at the start: nothing to compare.
        return vector_result
    vector_engine.NUM_CROSS_CHECKS.inc()
    if _result_key(vector_result) != _result_key(scalar_result):
        raise CrossCheckMismatch(
            f"engine disagreement on @{tgt.name}: "
            f"vector={vector_result!s} ({vector_result.inputs_checked} "
            f"inputs) vs scalar={scalar_result!s} "
            f"({scalar_result.inputs_checked} inputs)")
    return vector_result


def _result_key(result: RefinementResult) -> Tuple[str, str, str, int, bool]:
    """Byte-level identity of a result: verdict, full rendering
    (including the counterexample), reason, input count, sampled flag."""
    return (result.verdict, str(result), result.reason,
            result.inputs_checked, result.sampled)


def _check_refinement(src: Function, tgt: Function,
                      config: SemanticsConfig,
                      tgt_config: Optional[SemanticsConfig],
                      options: Optional[CheckOptions]) -> RefinementResult:
    options = options or CheckOptions()
    tgt_config = tgt_config or config

    if len(src.args) != len(tgt.args):
        return RefinementResult("inconclusive",
                                reason="argument count mismatch")
    for a, b in zip(src.args, tgt.args):
        if a.type is not b.type:
            return RefinementResult("inconclusive",
                                    reason="argument type mismatch")
    if src.return_type is not tgt.return_type:
        return RefinementResult("inconclusive",
                                reason="return type mismatch")

    # Cross-semantics checks quantify over inputs *representable on
    # both sides*: an undef argument has no NEW-semantics reading, so
    # OLD-vs-NEW comparisons range over concrete and poison inputs only
    # (the paper's migration erases undef from the language).
    undef_inputs = options.undef_inputs and tgt_config.has_undef
    try:
        arg_spaces = [
            input_candidates(a.type, config, options.poison_inputs,
                             undef_inputs)
            for a in src.args
        ]
    except TypeError as e:
        return RefinementResult("inconclusive", reason=str(e))

    global_inits = _global_inits(src, config, options)

    total = len(global_inits)
    for space in arg_spaces:
        total *= len(space)
    sampled = False
    if total > options.max_inputs:
        if options.sample_inputs is None:
            return RefinementResult(
                "inconclusive",
                reason=f"input space too large ({total} > "
                       f"{options.max_inputs})",
            )
        sampled = True

    def input_stream():
        if not sampled:
            for ginit in global_inits:
                for args in itertools.product(*arg_spaces):
                    yield ginit, args
            return
        rng = random.Random(0xC0FFEE)
        for _ in range(options.sample_inputs):
            ginit = rng.choice(global_inits)
            args = tuple(rng.choice(space) for space in arg_spaces)
            yield ginit, args

    checked = 0
    skipped = 0
    skip_reason = ""
    # Compile each function once; every input and oracle path below
    # reuses the plans (the functions are not mutated during the check).
    src_plans = PlanCache(config)
    tgt_plans = PlanCache(tgt_config)
    # Per-input timing accumulates into the enclosing refine-check
    # span's phase table — no per-input records, so tracing a campaign
    # stays cheap (the E12 overhead gate).  This is the hottest
    # instrumented loop in the stack, so it chains four perf_counter
    # timestamps across the three adjacent phases instead of nesting
    # three context managers per input.
    entries = phase_entries("enumerate-src", "enumerate-tgt", "compare")
    clock = time.perf_counter
    deadline = options.deadline
    for ginit, args in input_stream():
        if deadline is not None and time.monotonic() >= deadline:
            NUM_DEADLINE_ABORTS.inc()
            return RefinementResult(
                "inconclusive",
                reason=(f"{DEADLINE_REASON} expired after "
                        f"{checked} inputs"),
                inputs_checked=checked,
            )
        checked += 1
        t0 = clock()
        try:
            # Source UB licenses everything, so the rest of the source's
            # nondeterminism cannot change the verdict: stop there.
            src_b = enumerate_behaviors(
                src, args, config, global_init=ginit,
                max_paths=options.max_paths,
                max_choices=options.max_choices, fuel=options.fuel,
                plans=src_plans, stop_on_ub=True,
            )
            t1 = clock()
            tgt_b = enumerate_behaviors(
                tgt, args, tgt_config, global_init=ginit,
                max_paths=options.max_paths,
                max_choices=options.max_choices, fuel=options.fuel,
                plans=tgt_plans,
            )
        except PathLimitExceeded as e:
            # This input's nondeterminism is too wide to enumerate;
            # keep scanning other inputs (a counterexample elsewhere
            # is still definite).
            skipped += 1
            skip_reason = str(e)
            continue
        t2 = clock()
        result = check_behavior_sets(
            src_b, tgt_b,
            undef_cap=options.undef_expansion_cap,
            function=tgt.name,
        )
        if entries is not None:
            t3 = clock()
            e_src, e_tgt, e_cmp = entries
            e_src[0] += 1
            e_src[1] += t1 - t0
            e_tgt[0] += 1
            e_tgt[1] += t2 - t1
            e_cmp[0] += 1
            e_cmp[1] += t3 - t2
        if result.inconclusive:
            skipped += 1
            skip_reason = result.reason
            continue
        if not result.ok:
            cex = Counterexample(
                args=tuple(args),
                arg_types=tuple(a.type for a in src.args),
                global_init=tuple(sorted(ginit.items())),
                witness=result.witness,
                src_behaviors=tuple(src_b),
            )
            return RefinementResult("failed", counterexample=cex,
                                    inputs_checked=checked)
    if skipped:
        return RefinementResult(
            "inconclusive",
            reason=(f"{skipped}/{checked} inputs undecided "
                    f"(last: {skip_reason})"),
            inputs_checked=checked,
        )
    if sampled:
        return RefinementResult(
            "verified",
            reason=f"sampled {checked} of {total} inputs",
            inputs_checked=checked,
            sampled=True,
        )
    return RefinementResult("verified", inputs_checked=checked)


def check_equivalence(a: Function, b: Function,
                      config: SemanticsConfig = NEW,
                      tgt_config: Optional[SemanticsConfig] = None,
                      options: Optional[CheckOptions] = None,
                      engine: Optional[str] = None,
                      ) -> Tuple[RefinementResult, RefinementResult]:
    """Refinement in both directions (semantic equivalence when both
    verify).

    ``config`` is ``a``'s semantics and ``tgt_config`` is ``b``'s
    (defaulting to ``config``), regardless of direction: the reverse
    check swaps which function is source and target, so it must also
    swap the configs.  Passing ``config=OLD, tgt_config=NEW`` therefore
    asks the migration-story question in both directions — "does the
    NEW-semantics ``b`` refine the OLD-semantics ``a``, and vice
    versa" — which the old signature (one config for both sides of both
    directions) could not express.
    """
    b_config = tgt_config or config
    return (
        check_refinement(a, b, config, tgt_config=b_config,
                         options=options, engine=engine),
        check_refinement(b, a, b_config, tgt_config=config,
                         options=options, engine=engine),
    )
