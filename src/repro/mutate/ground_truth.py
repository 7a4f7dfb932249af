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

The oracle is the observation-call trick, shared with ``campaign
lint-audit``: ``call void @__obs_K(%v)`` inserted before an anchor
instruction records the watched value's exact bits on every path of
every input — including the bits' poison/undef markers, and including
inputs that are themselves poison — so a hazard is "an execution
reaches the site with poison".  Here the anchor is the site itself;
lint-audit anchors each claimed value right after its definition.
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

Each mutant is parsed once.  Lint and site collection read that
function; the instrumented copy and every dead-flag twin are clones
that see the mutant's module (so the copies keep its globals), and the
observation callees are declarations outside it.  Ground truth runs on
the vector engine when it can: each function is lowered once with
``record_calls=True`` and run over the whole input space in one
lane-parallel pass (:mod:`repro.semantics.vector`), whose event lanes
are the observation calls.  Any :class:`VectorIneligible` — a loop, an
unsupported op, an input with more oracle paths than ``max_paths``, too
many choice points, the lane cap, no numpy — sends the whole function
to the scalar interpreter instead, which yields the same observations.
The oracle reports which engine decided; each caller counts that in its
own statistics.
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

_OBS_PREFIX = "__obs_"


VERDICTS = ("tp", "fp", "fn", "tn", "unclassified")


@dataclass
class ClassifyOptions:
    """Budgets of the oracle, for lint-attack and lint-audit alike."""

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
    key: str                       # IRLocation string of the site
    anchor: Instruction            # the site instruction
    watches: List = field(default_factory=list)   # values to observe
    obs_names: List[str] = field(default_factory=list)
    diff: bool = False             # dead-flag differential site


class _ObsTally:
    """What the observations of one watched value showed.  ``hazard`` is
    the first observation that was poison or undef and ``live`` the
    first that was not entirely poison, each as ``(inputs, code)``: the
    first such input in enumeration order, with its lowest code (codes
    as in :func:`_codes`).  ``hazard_def`` is a hazard on fully defined
    inputs, ``defined_seen`` a defined observation."""

    __slots__ = ("hazard", "hazard_def", "defined_seen", "live")

    def __init__(self):
        self.hazard = None
        self.hazard_def = False
        self.defined_seen = False
        self.live = None


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
    """Every site each selected rule could speak about."""

    def site(rule_id: str, inst: Instruction, watches, diff=False) -> _Site:
        return _Site(
            rule=rule_id,
            key=str(IRLocation.of(inst, function=fn.name)),
            anchor=inst,
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


def _clone(fn: Function):
    """A clone of ``fn`` that sees its module's globals, and the map from
    ``fn``'s arguments and instructions to the clone's."""
    copy = clone_function(fn, module=fn.module)
    mapped = dict(zip(fn.args, copy.args))
    mapped.update(zip(fn.instructions(), copy.instructions()))
    return copy, mapped


def _instrument(fn: Function, watches) -> Tuple[Function, List[str]]:
    """A clone of ``fn`` with ``call void @__obs_K(value)`` inserted
    before the anchor of each ``(anchor, value)`` watch, both given in
    ``fn`` (an anchor that is a phi moves past the block's phis, which
    must stay contiguous).  Calling before the anchor records the
    value even when the anchor then triggers immediate UB.  Returns the
    clone and each watch's callee name, in order."""
    copy, mapped = _clone(fn)
    void = VoidType()
    names = []
    for k, (anchor, value) in enumerate(watches):
        name = f"{_OBS_PREFIX}{k}"
        value = mapped.get(value, value)
        # a declaration outside the module: instrumenting never
        # changes what the module declares
        callee = Function(FunctionType(void, (value.type,)), name)
        spot = mapped[anchor]
        insts = spot.parent.instructions
        while isinstance(spot, PhiInst):
            spot = insts[insts.index(spot) + 1]
        spot.parent.insert_before(spot, CallInst(callee, [value]))
        names.append(name)
    return copy, names


def _combo(pools: List[list], lane: int) -> tuple:
    """Input tuple ``lane`` of the ``itertools.product`` enumeration of
    ``pools``."""
    values = []
    for pool in reversed(pools):
        lane, digit = divmod(lane, len(pool))
        values.append(pool[digit])
    return tuple(reversed(values))


def _text(inputs) -> str:
    """An input tuple as the oracle's notes print it."""
    return ", ".join(str(v) for v in inputs)


def _is_poisoned(bits) -> bool:
    return any(b is PBIT or b is UBIT for b in bits)


def _code(bits) -> int:
    """Observed bits coded as the vector engine codes a lane (see
    :func:`_codes`): poison bits are all-or-nothing, and a partly undef
    value codes as undef."""
    if not _is_poisoned(bits):
        return sum(b << i for i, b in enumerate(bits))
    return -1 if bits[0] is PBIT else -2


def _first(old, new):
    return new if old is None or new < old else old


def _with_inputs(tallies: Dict[str, _ObsTally], pools: List[list]):
    """Turn the lanes of the tallies' witnesses into input tuples."""
    for tally in tallies.values():
        if tally.hazard is not None:
            tally.hazard = (_combo(pools, tally.hazard[0]), tally.hazard[1])
        if tally.live is not None:
            tally.live = (_combo(pools, tally.live[0]), tally.live[1])
    return tallies


def _scalar_observations(fn: Function, pools: List[list], semantics,
                         opts: ClassifyOptions
                         ) -> Tuple[Optional[Dict[str, _ObsTally]], int, str]:
    """Run the instrumented function over every input combination.

    Returns (tallies, events, "") on success or (None, events, reason)
    when a budget was exceeded — the caller gives no verdict rather
    than guessing."""
    tallies: Dict[str, _ObsTally] = {}
    events = 0
    codes: Dict[tuple, int] = {}  # each distinct observation coded once
    # compile the function once for every input and oracle path
    plans = PlanCache(semantics)
    for lane, combo in enumerate(itertools.product(*pools)):
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
                code = codes.get(arg_bits[0])
                if code is None:
                    code = codes[arg_bits[0]] = _code(arg_bits[0])
                events += 1
                tally = tallies.get(name)
                if tally is None:
                    tally = tallies[name] = _ObsTally()
                if code < 0:
                    tally.hazard = _first(tally.hazard, (lane, code))
                    tally.hazard_def |= defined
                else:
                    tally.defined_seen = True
                if code != -1:
                    tally.live = _first(tally.live, (lane, code))
    return _with_inputs(tallies, pools), events, ""


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
            return False, _text(combo)
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


def _earliest(inputs, codes, mask) -> Tuple[int, int]:
    """The first ``(input, code)`` among the rows ``mask`` selects: the
    lowest input, with its lowest code."""
    lane = inputs[mask].min()
    return int(lane), int(codes[mask & (inputs == lane)].min())


def _vector_observations(behaviors: Dict[tuple, object], defined,
                         pools: List[list]
                         ) -> Tuple[Dict[str, _ObsTally], int]:
    """:func:`_scalar_observations`'s tallies from distinct behaviors:
    one event per observation call of each distinct behavior of each
    input."""
    tallies: Dict[str, _ObsTally] = {}
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
                codes = rows[:, col]
                poisoned = codes < 0
                if poisoned.any():
                    tally.hazard = _first(
                        tally.hazard, _earliest(inputs, codes, poisoned))
                    if (poisoned & defined[inputs]).any():
                        tally.hazard_def = True
                if not poisoned.all():
                    tally.defined_seen = True
                live = codes != -1
                if live.any():
                    tally.live = _first(
                        tally.live, _earliest(inputs, codes, live))
            col += arity
    return _with_inputs(tallies, pools), events


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
                        else (False, _text(_combo(pools, lane))))
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
    """``(tallies, events, failure, dead, engine)`` for one function:
    observation tallies of the instrumented ``obs_fn`` (None when
    nothing is watched), the oracle events behind them, the reason the
    tallies are missing ("" when they are not), ``(flags dead?, note)``
    for each twin of ``base_fn``, and the engine that decided:
    ``"vector"`` when it can, ``"scalar"`` otherwise, ``""`` when the
    inputs are over budget."""
    pools = [input_candidates(a.type, semantics) for a in base_fn.args]
    total = math.prod(len(pool) for pool in pools)
    if total > opts.max_inputs:
        reason = f"input budget: {total} > {opts.max_inputs}"
        return {}, 0, reason, [(None, reason)] * len(twins), ""
    try:
        return (*_vector_ground_truth(obs_fn, base_fn, twins, pools,
                                      semantics, opts), "vector")
    except VectorIneligible:
        return (*_scalar_ground_truth(obs_fn, base_fn, twins, pools,
                                      semantics, opts), "scalar")


def _slice_refs(inst: Instruction) -> List[Instruction]:
    """Backward slice of ``inst`` over instruction operands, in a
    deterministic def-before-use order."""
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


def _reduce(fn: Function, inst: Instruction, observe: bool = False) -> str:
    """Minimal reproducer for a verdict at ``inst``: its backward slice
    as the single block of ``@reduced``, ending in a call that observes
    ``inst`` when ``observe``; the whole function when ``fn`` has more
    than one block or ``inst`` is a terminator."""
    if len(fn.blocks) != 1 or inst.is_terminator:
        return print_function(fn)
    sliced = _slice_refs(inst)
    decls = {}
    for sliced_inst in sliced:
        if isinstance(sliced_inst, CallInst):
            callee = sliced_inst.callee
            params = ", ".join(str(p) for p in callee.function_type.params)
            decls[callee.name] = (
                f"declare {callee.function_type.ret} "
                f"@{callee.name}({params})")
    body = [f"  {print_instruction(i)}" for i in sliced]
    if observe:
        decls["__obs"] = f"declare void @__obs({inst.type})"
        body.append(f"  call void @__obs({inst.type} {inst.ref()})")
    args = ", ".join(f"{a.type} {a.ref()}" for a in fn.args)
    lines = list(decls.values())
    if lines:
        lines.append("")
    lines += [f"define void @reduced({args}) {{", "entry:", *body,
              "  ret void", "}"]
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

    # Sites on the pristine mutant, ground truth on clones of it
    # (instrumentation must never perturb what lint saw).
    sites = _collect_sites(lint_fn, rule_ids)
    if not sites:
        return [], 0
    watches = [(site.anchor, watch) for site in sites if not site.diff
               for watch in site.watches]
    obs_fn = None
    if watches:
        obs_fn, names = _instrument(lint_fn, watches)
        names = iter(names)
        for site in sites:
            site.obs_names = [next(names) for _ in site.watches]
    twins = []
    for site in sites:
        if site.diff:
            twin, mapped = _clone(lint_fn)
            mapped[site.anchor].drop_poison_flags()
            twins.append(twin)
    tallies, events, obs_failure, dead, engine = _ground_truth(
        obs_fn, lint_fn, twins, semantics, opts)
    if engine == "vector":
        NUM_VECTOR_MUTANTS.inc()
    elif engine == "scalar":
        NUM_VECTOR_FALLBACKS.inc()
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
                if tally.hazard is not None:
                    hazard_any = True
                    example = example or _text(tally.hazard[0])
                hazard_def = hazard_def or tally.hazard_def
                defined_seen = defined_seen or tally.defined_seen
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
            reduced = _reduce(lint_fn, site.anchor)
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
