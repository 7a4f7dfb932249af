"""Classify lint verdicts on mutants against the executable semantics.

For every mutant, every rule that declared the producing mutator in its
``attacked_by`` set is scored at every site it could speak about, and
each (mutant, rule, site) observation lands in exactly one taxonomy
bucket:

============  ======================================================
verdict       meaning
============  ======================================================
tp            the rule fired and the hazard (or claim) is real
fp            the rule fired but the exact semantics refutes it
fn            the rule stayed silent on a hazard its contract covers
tn            the rule stayed silent and silence is correct
unclassified  the oracle ran out of budget (never a disagreement)
============  ======================================================

The oracle is the observation-call trick from ``campaign lint-audit``:
``call void @__atk_obs_K(%v)`` inserted *before* each site records the
watched value's exact bits on every path of every input — including the
bits' poison/undef markers, and including inputs that are themselves
poison — so a hazard is "an execution reaches the site with poison".
For origin-gated rules silence is only a false negative when the hazard
manifests on fully *defined* inputs (then the poison was necessarily
produced inside the function, which is exactly what the gate promises
to catch).  Precision rules (``redundant-freeze``,
``dead-on-poison-flag``) never produce false negatives: their contract
is about what they *say*, not what they omit — a fire with a refuted
claim is a false positive, silence is always a true negative.

``dead-on-poison-flag`` uses a differential oracle instead of
observation calls: the flag is dead iff dropping it leaves the behavior
set of every input unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.dominators import DominatorTree
from ..analysis.loops import LoopInfo
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    BranchInst,
    CallInst,
    FreezeInst,
    Instruction,
    PhiInst,
    SwitchInst,
)
from ..ir.location import IRLocation
from ..ir.parser import parse_module
from ..ir.printer import print_function, print_instruction
from ..ir.types import FunctionType, VoidType
from ..lint.diagnostics import SEV_ERROR
from ..lint.engine import lint_function
from ..lint.rules import (
    POLARITY_PRECISION,
    RULES,
    hoist_dispatch_sites,
    iter_sinks,
)
from ..refine.exhaustive import input_candidates
from ..semantics.domains import PBIT, UBIT
from ..semantics.interp import PlanCache, enumerate_behaviors
from .mutators import Mutation

_OBS_PREFIX = "__atk_obs_"


def _is_poisoned(bits) -> bool:
    return any(b is PBIT or b is UBIT for b in bits)


def _slice_refs(inst: Instruction) -> List[Instruction]:
    """Backward slice of ``inst`` over instruction operands, in a
    deterministic def-before-use order (mirrors lint_audit)."""
    seen = {id(inst)}
    out = [inst]
    work = [inst]
    while work:
        cur = work.pop()
        for op in cur.operands:
            if isinstance(op, Instruction) and id(op) not in seen:
                seen.add(id(op))
                out.append(op)
                work.append(op)
    block = inst.parent
    order = {id(i): n for n, i in enumerate(block.instructions)}
    out.sort(key=lambda i: order.get(id(i), 0))
    return out

VERDICTS = ("tp", "fp", "fn", "tn", "unclassified")


@dataclass
class ClassifyOptions:
    max_inputs: int = 4096
    max_paths: int = 512
    max_choices: int = 16
    fuel: int = 4000


@dataclass
class Observation:
    """One scored (mutant, rule, site) triple."""

    mutator: str
    kind: str
    seed: str
    rule: str
    site: str            # "@fn:%block:#index" of the site instruction
    fired: bool
    severity: str        # of the fired diagnostic, "" when silent
    verdict: str         # one of VERDICTS
    detail: str
    reduced_ir: str = ""  # set for fp/fn disagreements only

    @property
    def is_disagreement(self) -> bool:
        return self.verdict in ("fp", "fn")

    def as_dict(self) -> Dict:
        return {
            "mutator": self.mutator,
            "kind": self.kind,
            "seed": self.seed,
            "rule": self.rule,
            "site": self.site,
            "fired": self.fired,
            "severity": self.severity,
            "verdict": self.verdict,
            "detail": self.detail,
            "reduced_ir": self.reduced_ir,
        }


@dataclass
class _Site:
    rule: str
    key: str                       # IRLocation string, pre-instrumentation
    block_index: int
    inst_index: int
    watches: List = field(default_factory=list)   # values to observe
    obs_names: List[str] = field(default_factory=list)
    diff: bool = False             # dead-flag differential site


class _ObsTally:
    __slots__ = ("executions", "hazard_any", "hazard_def", "defined_seen",
                 "example")

    def __init__(self):
        self.executions = 0
        self.hazard_any = False
        self.hazard_def = False
        self.defined_seen = False
        self.example = ""


def _parsed(mutation: Mutation) -> Function:
    module = parse_module(mutation.ir)
    fn = module.get_function(mutation.seed)
    if fn is None:  # pragma: no cover - mutator always keeps the name
        fn = module.definitions()[-1]
    return fn


def attacked_rules(mutation: Mutation, rules=None) -> List[str]:
    """Rule IDs scored against this mutant, in registration order."""
    selected = set(rules) if rules else None
    return [rule_id for rule_id, rule in RULES.items()
            if mutation.mutator in rule.attacked_by
            and (selected is None or rule_id in selected)]


def _collect_sites(fn: Function, rule_ids: List[str]) -> List[_Site]:
    """Every site each selected rule could speak about, with keys
    computed *before* any instrumentation shifts instruction indices."""
    dt = DominatorTree(fn)
    loops = LoopInfo(fn, dt)
    block_of = {id(b): i for i, b in enumerate(fn.blocks)}
    index_of = {}
    for b in fn.blocks:
        for i, inst in enumerate(b.instructions):
            index_of[id(inst)] = i

    def site(rule_id: str, inst: Instruction, watches, diff=False) -> _Site:
        return _Site(
            rule=rule_id,
            key=str(IRLocation.of(inst, function=fn.name)),
            block_index=block_of[id(inst.parent)],
            inst_index=index_of[id(inst)],
            watches=list(watches),
            diff=diff,
        )

    sites: List[_Site] = []
    for rule_id in rule_ids:
        if rule_id == "branch-on-maybe-poison":
            for block in fn.blocks:
                term = block.terminator
                if isinstance(term, BranchInst) and term.is_conditional:
                    sites.append(site(rule_id, term, [term.cond]))
                elif isinstance(term, SwitchInst):
                    sites.append(site(rule_id, term, [term.value]))
        elif rule_id == "missing-freeze-on-hoist":
            for term in hoist_dispatch_sites(fn, loops):
                sites.append(site(rule_id, term, [term.cond]))
        elif rule_id == "ub-sink-reaches-poison":
            for block in fn.blocks:
                for inst in block.instructions:
                    watches = [op for op, _role in iter_sinks(inst)]
                    if watches:
                        sites.append(site(rule_id, inst, watches))
        elif rule_id == "redundant-freeze":
            for block in fn.blocks:
                for inst in block.instructions:
                    if isinstance(inst, FreezeInst):
                        sites.append(site(rule_id, inst, [inst.value]))
        elif rule_id == "dead-on-poison-flag":
            for block in fn.blocks:
                for inst in block.instructions:
                    if (isinstance(inst, BinaryInst)
                            and (inst.nsw or inst.nuw or inst.exact)):
                        sites.append(site(rule_id, inst, [], diff=True))
    return sites


def _instrument_sites(fn: Function, sites: List[_Site]) -> Dict[str, int]:
    """Insert one observation call per watched value, *before* the site
    instruction (so the value is recorded even when the site then
    triggers immediate UB).  Returns obs-name -> watch position."""
    module = fn.module
    void = VoidType()
    obs_to_watch: Dict[str, int] = {}
    counter = 0
    for site in sites:
        if site.diff:
            continue
        anchor = fn.blocks[site.block_index].instructions[site.inst_index]
        for w, watch in enumerate(site.watches):
            name = f"{_OBS_PREFIX}{counter}"
            counter += 1
            callee = module.declare(name, FunctionType(void, (watch.type,)))
            call = CallInst(callee, [watch])
            block = anchor.parent
            spot = anchor
            while isinstance(spot, PhiInst):  # keep phis contiguous
                insts = block.instructions
                spot = insts[insts.index(spot) + 1]
            block.insert_before(spot, call)
            site.obs_names.append(name)
            obs_to_watch[name] = w
    return obs_to_watch


def _enumerate_observations(fn: Function, semantics,
                            opts: ClassifyOptions
                            ) -> Tuple[Optional[Dict[str, _ObsTally]], int, str]:
    """Run the instrumented mutant over every input combination.

    Returns (tallies, events, "") on success or (None, events, reason)
    when a budget was exceeded — the caller marks the sites
    unclassified rather than guessing."""
    pools = [input_candidates(a.type, semantics) for a in fn.args]
    total = 1
    for pool in pools:
        total *= len(pool)
    if total > opts.max_inputs:
        return None, 0, f"input budget: {total} > {opts.max_inputs}"
    tallies: Dict[str, _ObsTally] = {}
    events = 0
    # compile the mutant once for every input and oracle path
    plans = PlanCache(semantics)
    for combo in itertools.product(*pools) if pools else [()]:
        defined = all(isinstance(v, int) for v in combo)
        try:
            behaviors = enumerate_behaviors(
                fn, list(combo), config=semantics,
                max_paths=opts.max_paths, max_choices=opts.max_choices,
                fuel=opts.fuel, plans=plans)
        except Exception as exc:
            return None, events, f"enumeration failed: {exc}"
        for behavior in behaviors:
            for name, arg_bits, _ret in behavior.events:
                if not name.startswith(_OBS_PREFIX):
                    continue
                bits = arg_bits[0]
                events += 1
                tally = tallies.get(name)
                if tally is None:
                    tally = tallies[name] = _ObsTally()
                tally.executions += 1
                if _is_poisoned(bits):
                    tally.hazard_any = True
                    if defined:
                        tally.hazard_def = True
                    if not tally.example:
                        tally.example = ", ".join(str(v) for v in combo)
                else:
                    tally.defined_seen = True
    return tallies, events, ""


def _flags_dead(mutation: Mutation, site: _Site, semantics,
                opts: ClassifyOptions) -> Tuple[Optional[bool], str]:
    """Differential oracle: is dropping this site's flags behavior-
    preserving on every input?  (None, reason) when over budget."""
    base_fn = _parsed(mutation)
    twin_fn = _parsed(mutation)
    twin = twin_fn.blocks[site.block_index].instructions[site.inst_index]
    twin.drop_poison_flags()
    pools = [input_candidates(a.type, semantics) for a in base_fn.args]
    total = 1
    for pool in pools:
        total *= len(pool)
    if total > opts.max_inputs:
        return None, f"input budget: {total} > {opts.max_inputs}"
    base_plans = PlanCache(semantics)
    bare_plans = PlanCache(semantics)
    for combo in itertools.product(*pools) if pools else [()]:
        try:
            base = enumerate_behaviors(
                base_fn, list(combo), config=semantics,
                max_paths=opts.max_paths, max_choices=opts.max_choices,
                fuel=opts.fuel, plans=base_plans)
            bare = enumerate_behaviors(
                twin_fn, list(combo), config=semantics,
                max_paths=opts.max_paths, max_choices=opts.max_choices,
                fuel=opts.fuel, plans=bare_plans)
        except Exception as exc:
            return None, f"enumeration failed: {exc}"
        if base != bare:
            return False, ", ".join(str(v) for v in combo)
    return True, ""


def _reduce_site(fn: Function, site: _Site) -> str:
    """Minimal reproducer for a disagreement: the site instruction's
    backward slice (single-block mutants) or the whole function."""
    anchor = fn.blocks[site.block_index].instructions[site.inst_index]
    if len(fn.blocks) != 1 or anchor.is_terminator:
        return print_function(fn)
    sliced = _slice_refs(anchor)
    decls = {}
    for inst in sliced:
        if isinstance(inst, CallInst):
            callee = inst.callee
            params = ", ".join(str(p) for p in callee.function_type.params)
            decls[callee.name] = (
                f"declare {callee.function_type.ret} "
                f"@{callee.name}({params})")
    args = ", ".join(f"{a.type} {a.ref()}" for a in fn.args)
    lines = list(decls.values())
    if lines:
        lines.append("")
    lines += [f"define void @reduced({args}) {{", "entry:"]
    for inst in sliced:
        lines.append(f"  {print_instruction(inst)}")
    lines += ["  ret void", "}"]
    text = "\n".join(lines) + "\n"
    try:  # the reducer must never produce unparsable output
        parse_module(text)
    except Exception:
        return print_function(fn)
    return text


def classify_mutation(mutation: Mutation, semantics,
                      opts: Optional[ClassifyOptions] = None,
                      rules=None) -> Tuple[List[Observation], int]:
    """Score every attacked rule on one mutant.

    Returns the observations plus the number of raw oracle events that
    backed them.
    """
    opts = opts or ClassifyOptions()
    rule_ids = attacked_rules(mutation, rules)
    if not rule_ids:
        return [], 0

    # Lint the pristine mutant; fired verdicts are keyed by site.
    lint_fn = _parsed(mutation)
    fired: Dict[Tuple[str, str], object] = {}
    for diag in lint_function(lint_fn, semantics=semantics,
                              rules=rule_ids):
        fired.setdefault((diag.rule_id, str(diag.loc)), diag)

    # Sites + ground truth on an independent copy (instrumentation must
    # never perturb what lint saw).
    obs_fn = _parsed(mutation)
    sites = _collect_sites(obs_fn, rule_ids)
    if not sites:
        return [], 0
    _instrument_sites(obs_fn, sites)
    need_obs = any(not s.diff for s in sites)
    tallies: Dict[str, _ObsTally] = {}
    events = 0
    obs_failure = ""
    if need_obs:
        tallies_or_none, events, obs_failure = _enumerate_observations(
            obs_fn, semantics, opts)
        tallies = tallies_or_none if tallies_or_none is not None else {}

    observations: List[Observation] = []
    for site in sites:
        rule = RULES[site.rule]
        diag = fired.get((site.rule, site.key))
        did_fire = diag is not None
        severity = diag.severity if did_fire else ""
        reduced = ""

        if site.diff:
            equal, note = _flags_dead(mutation, site, semantics, opts)
            if equal is None:
                verdict, detail = "unclassified", note
            elif did_fire:
                if equal:
                    verdict = "tp"
                    detail = "flags are dead: dropping them is behavior-preserving"
                else:
                    verdict = "fp"
                    detail = (f"flags are live: behaviors differ on "
                              f"inputs ({note})")
            else:
                verdict = "tn"
                detail = ("silent; precision rule silence is always "
                          "acceptable")
        elif obs_failure:
            verdict, detail = "unclassified", obs_failure
        else:
            hazard_any = hazard_def = defined_seen = False
            executed = False
            example = ""
            for name in site.obs_names:
                tally = tallies.get(name)
                if tally is None:
                    continue
                executed = True
                hazard_any = hazard_any or tally.hazard_any
                hazard_def = hazard_def or tally.hazard_def
                defined_seen = defined_seen or tally.defined_seen
                example = example or tally.example
            if rule.polarity == POLARITY_PRECISION:
                # redundant-freeze: the claim is "operand provably not
                # poison"; any poisoned observation refutes it.
                if not did_fire:
                    verdict = "tn"
                    detail = ("silent; precision rule silence is always "
                              "acceptable")
                elif hazard_any:
                    verdict = "fp"
                    detail = (f"claimed never-poison operand observed "
                              f"poisoned on inputs ({example})")
                else:
                    verdict = "tp"
                    detail = "operand never poisoned in any execution"
            elif did_fire:
                if severity == SEV_ERROR and defined_seen:
                    verdict = "fp"
                    detail = ("must-poison claim refuted: a defined "
                              "value was observed at the site")
                elif hazard_any or not executed:
                    verdict = "tp"
                    detail = ("hazard confirmed: poison observed at the "
                              f"site on inputs ({example})" if hazard_any
                              else "site unreachable; may-claim is vacuous")
                else:
                    verdict = "fp"
                    detail = ("no execution ever brings poison to this "
                              "site")
            else:
                gate = hazard_def if rule.origin_gated else hazard_any
                if gate:
                    verdict = "fn"
                    detail = (f"silent, but poison reaches the site on "
                              f"{'defined ' if rule.origin_gated else ''}"
                              f"inputs ({example})")
                else:
                    verdict = "tn"
                    detail = ("no in-contract hazard reaches the site; "
                              "silence is correct")

        if verdict in ("fp", "fn"):
            reduced = _reduce_site(lint_fn, site)
        observations.append(Observation(
            mutator=mutation.mutator, kind=mutation.kind,
            seed=mutation.seed, rule=site.rule, site=site.key,
            fired=did_fire, severity=severity, verdict=verdict,
            detail=detail, reduced_ir=reduced))
    return observations, events


def tally_verdicts(observations: List[Observation]) -> Dict[str, Dict[str, int]]:
    """Per-rule taxonomy counts over a batch of observations."""
    out: Dict[str, Dict[str, int]] = {}
    for obs in observations:
        bucket = out.setdefault(obs.rule,
                                {v: 0 for v in VERDICTS})
        bucket[obs.verdict] += 1
    return out
