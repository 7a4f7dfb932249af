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

Each mutant is parsed once.  Lint reads that function; the
instrumented copy and every dead-flag twin are clones attached to the
same module (so the copies keep the mutant's globals, and the
observation callees are declared there).  Ground truth runs on the
vector engine when it can: each function is lowered once with
``record_calls=True`` and run over the whole input space in one
lane-parallel pass (:mod:`repro.semantics.vector`), whose event lanes
are the observation calls.  Any :class:`VectorIneligible` — a loop, an
unsupported op, an input with more oracle paths than ``max_paths``, too
many choice points, the lane cap, no numpy — sends the whole mutant to
the scalar interpreter instead, which yields the same observations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.dominators import DominatorTree
from ..analysis.loops import LoopInfo
from ..diag import Statistic
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
from ..opt.resilience.snapshot import clone_function
from ..refine.exhaustive import input_candidates
from ..refine.vector import _lane_arrays
from ..semantics.domains import PBIT, UBIT
from ..semantics.interp import PlanCache, enumerate_behaviors
from ..semantics.vector import VectorIneligible, VectorPlan
from .mutators import Mutation

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

NUM_VECTOR_MUTANTS = Statistic(
    "lint-attack", "num-vector-mutants",
    "Mutants whose ground truth the vector engine decided")
NUM_VECTOR_FALLBACKS = Statistic(
    "lint-attack", "num-vector-fallbacks",
    "Mutants whose ground truth fell back to the scalar interpreter")

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
    __slots__ = ("hazard_any", "hazard_def", "defined_seen", "example")

    def __init__(self):
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
            loops = LoopInfo(fn, DominatorTree(fn))
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


def _combo_text(pools: List[list], lane: int) -> str:
    """Input tuple ``lane`` of the ``itertools.product`` enumeration of
    ``pools``, printed as the oracle's notes print it."""
    values = []
    for pool in reversed(pools):
        lane, digit = divmod(lane, len(pool))
        values.append(pool[digit])
    return ", ".join(str(v) for v in reversed(values))


def _scalar_observations(fn: Function, pools: List[list], semantics,
                         opts: ClassifyOptions
                         ) -> Tuple[Optional[Dict[str, _ObsTally]], int, str]:
    """Run the instrumented mutant over every input combination.

    Returns (tallies, events, "") on success or (None, events, reason)
    when a budget was exceeded — the caller marks the sites
    unclassified rather than guessing."""
    tallies: Dict[str, _ObsTally] = {}
    events = 0
    # compile the mutant once for every input and oracle path
    plans = PlanCache(semantics)
    for combo in itertools.product(*pools):
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
                if _is_poisoned(bits):
                    tally.hazard_any = True
                    if defined:
                        tally.hazard_def = True
                    if not tally.example:
                        tally.example = ", ".join(str(v) for v in combo)
                else:
                    tally.defined_seen = True
    return tallies, events, ""


def _scalar_flags_dead(base_fn: Function, twin_fn: Function,
                       pools: List[list], semantics,
                       opts: ClassifyOptions) -> Tuple[Optional[bool], str]:
    """Differential oracle: is the twin (the mutant with one site's
    flags dropped) behavior-preserving on every input?  (None, reason)
    when over budget."""
    base_plans = PlanCache(semantics)
    bare_plans = PlanCache(semantics)
    for combo in itertools.product(*pools):
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


def _codes(val, pois, undef):
    """One integer per lane: the value, -1 for poison, -2 for undef."""
    code = np.where(pois, -1, val)
    return code if undef is None else np.where(undef, -2, code)


def _lower(fn: Function, semantics, opts: ClassifyOptions) -> VectorPlan:
    return VectorPlan(fn, semantics, max_choices=opts.max_choices,
                      fuel=opts.fuel, record_calls=True)


def _vector_behaviors(plan: VectorPlan, lanes, total: int,
                      opts: ClassifyOptions) -> Dict[tuple, object]:
    """The distinct behaviors of every input from one plan run, by
    shape: ``(is_ub, ((callee, arity), ...))`` -> the sorted unique rows
    ``[input, return code, argument codes...]`` (codes as in
    :func:`_codes`).  Per input, the rows are the scalar oracle's
    behavior set: paths that end alike after the same calls with the
    same arguments are one behavior."""
    out = plan.run(lanes, total)
    if len(out.idx) + len(out.ub) > opts.max_paths:
        worst = int(out.paths.max())
        if worst > opts.max_paths:
            # the scalar oracle gives up on such an input
            raise VectorIneligible(
                "input-paths",
                f"an input has {worst} oracle paths "
                f"(max_paths={opts.max_paths})")
    parts: Dict[tuple, list] = {}
    for is_ub, start, stop, events in out.events:
        n = stop - start
        if is_ub:
            cols = [out.ub[start:stop], np.zeros(n, dtype=np.int64)]
        else:
            undef = None if out.undef is None else out.undef[start:stop]
            cols = [out.idx[start:stop],
                    _codes(out.val[start:stop], out.pois[start:stop], undef)]
        shape = []
        for name, args in events:
            shape.append((name, len(args)))
            cols.extend(np.broadcast_to(_codes(*arg), (n,)) for arg in args)
        parts.setdefault((is_ub, tuple(shape)), []).append(
            np.column_stack(cols))
    return {key: _unique_rows(np.concatenate(rows))
            for key, rows in parts.items()}


def _unique_rows(rows):
    """The distinct rows, sorted (``np.unique(rows, axis=0)``, several
    times faster on arrays this small)."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _vector_observations(behaviors: Dict[tuple, object], defined,
                         pools: List[list]
                         ) -> Tuple[Dict[str, _ObsTally], int]:
    """:func:`_scalar_observations`'s tallies from distinct behaviors:
    one event per observation call of each distinct behavior of each
    input, and the first input (in enumeration order) that observed
    poison as the example."""
    tallies: Dict[str, _ObsTally] = {}
    first: Dict[str, int] = {}
    events = 0
    for (_is_ub, shape), rows in behaviors.items():
        inputs = rows[:, 0]
        col = 2
        for name, arity in shape:
            if name.startswith(_OBS_PREFIX):
                events += len(rows)
                tally = tallies.get(name)
                if tally is None:
                    tally = tallies[name] = _ObsTally()
                poisoned = rows[:, col] < 0
                hazards = np.count_nonzero(poisoned)
                if hazards:
                    tally.hazard_any = True
                    if np.count_nonzero(poisoned & defined[inputs]):
                        tally.hazard_def = True
                    lane = int(inputs[poisoned].min())
                    first[name] = min(first.get(name, lane), lane)
                if hazards < len(rows):
                    tally.defined_seen = True
            col += arity
    for name, lane in first.items():
        tallies[name].example = _combo_text(pools, lane)
    return tallies, events


def _first_difference(base: Dict[tuple, object], twin: Dict[tuple, object]
                      ) -> Optional[int]:
    """The first input whose behavior sets differ, or None."""
    if base.keys() == twin.keys() and all(
            np.array_equal(rows, twin[key]) for key, rows in base.items()):
        return None

    def keyed(behaviors):
        return {(key, *row) for key, rows in behaviors.items()
                for row in rows.tolist()}

    return min(row[1] for row in keyed(base) ^ keyed(twin))


def _vector_ground_truth(obs_fn: Optional[Function], base_fn: Function,
                         twins: List[Function], pools: List[list],
                         semantics, opts: ClassifyOptions):
    """What :func:`_scalar_observations` and :func:`_scalar_flags_dead`
    return for one mutant, from one plan run per function; raises
    :class:`VectorIneligible` wherever the scalar oracle might not
    decide an input."""
    obs_plan = _lower(obs_fn, semantics, opts) if obs_fn is not None else None
    base_plan = _lower(base_fn, semantics, opts) if twins else None
    twin_plans = [_lower(twin, semantics, opts) for twin in twins]
    # lowering has checked that every argument is a narrow integer
    total, lanes = _lane_arrays(tuple(a.type.bits for a in base_fn.args),
                                True, semantics.has_undef)
    tallies: Dict[str, _ObsTally] = {}
    events = 0
    if obs_plan is not None:
        defined = np.ones(total, dtype=bool)
        for _val, pois, undef in lanes:
            defined &= ~(pois | undef)
        tallies, events = _vector_observations(
            _vector_behaviors(obs_plan, lanes, total, opts), defined, pools)
    dead: List[Tuple[Optional[bool], str]] = []
    if twins:
        base = _vector_behaviors(base_plan, lanes, total, opts)
        for plan in twin_plans:
            lane = _first_difference(
                base, _vector_behaviors(plan, lanes, total, opts))
            dead.append((True, "") if lane is None
                        else (False, _combo_text(pools, lane)))
    return tallies, events, "", dead


def _scalar_ground_truth(obs_fn: Optional[Function], base_fn: Function,
                         twins: List[Function], pools: List[list],
                         semantics, opts: ClassifyOptions):
    """:func:`_vector_ground_truth` on the scalar interpreter, input by
    input."""
    tallies: Dict[str, _ObsTally] = {}
    events = 0
    failure = ""
    if obs_fn is not None:
        tallies_or_none, events, failure = _scalar_observations(
            obs_fn, pools, semantics, opts)
        tallies = tallies_or_none if tallies_or_none is not None else {}
    dead = [_scalar_flags_dead(base_fn, twin, pools, semantics, opts)
            for twin in twins]
    return tallies, events, failure, dead


def _ground_truth(obs_fn: Optional[Function], base_fn: Function,
                  twins: List[Function], semantics, opts: ClassifyOptions):
    """``(tallies, events, failure, dead)`` for one mutant: observation
    tallies of the instrumented ``obs_fn`` (None when no site watches a
    value), the oracle events behind them, the reason the tallies are
    missing ("" when they are not), and ``(flags dead?, note)`` for each
    twin of ``base_fn``.  The vector engine decides when it can, the
    scalar interpreter otherwise."""
    pools = [input_candidates(a.type, semantics) for a in base_fn.args]
    total = math.prod(len(pool) for pool in pools)
    if total > opts.max_inputs:
        reason = f"input budget: {total} > {opts.max_inputs}"
        return {}, 0, reason, [(None, reason)] * len(twins)
    try:
        result = _vector_ground_truth(obs_fn, base_fn, twins, pools,
                                      semantics, opts)
    except VectorIneligible:
        NUM_VECTOR_FALLBACKS.inc()
        return _scalar_ground_truth(obs_fn, base_fn, twins, pools,
                                    semantics, opts)
    NUM_VECTOR_MUTANTS.inc()
    return result


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

    # Sites + ground truth on copies in the same module (instrumentation
    # must never perturb what lint saw).
    module = lint_fn.module
    obs_fn = clone_function(lint_fn, module=module)
    sites = _collect_sites(obs_fn, rule_ids)
    if not sites:
        return [], 0
    _instrument_sites(obs_fn, sites)
    twins = []
    for site in sites:
        if site.diff:
            twin = clone_function(lint_fn, module=module)
            block = twin.blocks[site.block_index]
            block.instructions[site.inst_index].drop_poison_flags()
            twins.append(twin)
    need_obs = len(twins) < len(sites)
    tallies, events, obs_failure, dead = _ground_truth(
        obs_fn if need_obs else None, lint_fn, twins, semantics, opts)
    dead_flags = iter(dead)

    observations: List[Observation] = []
    for site in sites:
        rule = RULES[site.rule]
        diag = fired.get((site.rule, site.key))
        did_fire = diag is not None
        severity = diag.severity if did_fire else ""
        reduced = ""

        if site.diff:
            equal, note = next(dead_flags)
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
