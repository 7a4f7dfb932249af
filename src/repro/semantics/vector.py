"""Numpy lowering of loop-free functions into lane-parallel array programs.

The exhaustive checker's scaling axis is raw checks/sec (Section 6: the
paper validated every small function over tiny bitwidths), and the
scalar interpreter pays Python dispatch once per (input, oracle path,
instruction).  For the corpus shapes opt-fuzz actually generates —
loop-free functions with at most a handful of acyclic paths — the whole
behavior space fits in one set of numpy arrays, so every instruction can
execute over *all* (input, oracle path) pairs at once.  One **lane** is
one such pair: an input tuple plus the choices made so far.

* **value lanes** — one ``int64`` array per SSA value;
* **poison lanes** — a parallel boolean array (poison is whole-scalar
  in this IR, so one bit per lane suffices; the bit-level ``ty↓`` view
  is recovered only when a behavior must be materialized);
* **undef lanes** — another boolean array.  In the eligible fragment
  (integers only, no memory, no bitcast) undef is always whole-value:
  the only partially-undef values come from memory and bitcasts, and
  every binop, icmp and cast expands its operands before computing.

Every binop, icmp and cast is one **gather** from the
:class:`~repro.semantics.eval.OpTable` of its opcode (or predicate),
width and flags: a lane's operand values, with poison mapped to the
table's poison index, pick its entry, and the entry gives the lane's
value, poison, undef and UB bits.  The interpreter's closures read the
same tables, so both engines run the one definition of each rule in
:mod:`repro.semantics.eval`.

Nondeterminism is **lane forking**, one mechanism for every choice point
the scalar :class:`~repro.semantics.interp.Oracle` would consult:

* each computational use of an undef lane (binop/icmp/cast operand,
  select or branch condition) replaces the lane by ``2^w`` copies, one
  per concrete value, exactly like ``_compile_use``'s per-use expansion
  (Section 3.1); the register itself stays undef for later uses, and
  select arms and phi incomings pass undef through unexpanded;
* ``freeze`` of a poison or undef lane forks it ``2^w`` ways;
* a ``NONDET`` select on a poison condition forks the lane two ways, and
  a ``NONDET`` branch on poison keeps the lane live on both edges.

Forking uses ``np.repeat``, so the copies stay next to their parent and
every lane keeps the index of its input tuple.  A lane that executes
immediate UB is recorded once and dies: it stays in the arrays, masked
out, until the next fork or branch drops it.  The lanes that are live
at the end of a path are exactly the scalar enumeration's oracle paths
that return, so the per-input count of returning and UB lanes is the
oracle's path count.

Branching functions are lowered path-at-a-time: every acyclic
entry→exit path becomes straight-line code, and a branch drops the lanes
that leave the path.  Lanes shared by several paths up to a UB point are
recorded by the first of them only.

A plan lowered with ``record_calls=True`` also executes calls to
declared ``void`` functions — the observation calls lint-attack's
ground truth inserts — as **event** steps: each records, for every lane,
the callee and its arguments' value, poison and undef lanes, exactly
the ``(callee, argument bits)`` events of a scalar
:class:`~repro.semantics.interp.Behavior`.  Events live in the lane
state next to the environment, so a fork copies them and a lane that
later executes UB keeps the events it made before; the run's
:attr:`Outcomes.events` then says which calls every row made.  Without
that flag a call is ineligible, as it is for refinement checks.

Everything outside this fragment — loops, memory, other calls, vectors,
switches, integers wider than the tables'
:data:`~repro.semantics.eval.TABLE_MAX_WIDTH` — raises
:class:`VectorIneligible`, as does a function whose
paths hold more choice points than the scalar oracle's ``max_choices``
or whose forks would hold more than :data:`MAX_LANES` lanes at once.
The caller then falls back to the scalar interpreter, which remains the
differential oracle (``repro.refine`` cross-checks the two engines).

numpy is an optional dependency (the ``[vector]`` extra): when it is
missing, :func:`numpy_available` is ``False`` and every lowering raises
``VectorIneligible("numpy-unavailable")`` — the scalar path keeps the
stack fully functional.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from ..diag import Statistic
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FreezeInst,
    IcmpInst,
    Instruction,
    Opcode,
    ReturnInst,
    SelectInst,
    UnreachableInst,
)
from ..ir.types import IntType, Type
from ..ir.values import ConstantInt, PoisonValue, UndefValue, Value
from .config import BranchOnPoison, SelectSemantics, SemanticsConfig
from .domains import POISON, PartialUndef
from .eval import (
    TABLE_MAX_WIDTH,
    UB_ENTRY,
    OpTable,
    binop_table,
    cast_table,
    icmp_table,
)

NUM_PLANS_LOWERED = Statistic(
    "vector", "num-plans-lowered",
    "Functions lowered into numpy-vectorized execution plans")
NUM_PLAN_RUNS = Statistic(
    "vector", "num-plan-runs",
    "Vector plan executions (one per side of a check)")

#: acyclic entry→exit paths beyond this are not worth lowering.
MAX_PATHS = 8
#: live lanes one path program may hold at once (input tuples times the
#: choice prefixes forked from them); past it the check falls back to
#: the scalar engine instead of growing memory.
MAX_LANES = 1 << 16


def numpy_available() -> bool:
    return _np is not None


class VectorIneligible(Exception):
    """This (function, config) pair cannot be vector-lowered.

    ``reason`` is a short stable slug (suitable as a stat suffix);
    the message carries the human detail.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


def _require_numpy() -> None:
    if _np is None:
        raise VectorIneligible(
            "numpy-unavailable",
            "numpy is not installed (pip install 'repro[vector]')")


# ---------------------------------------------------------------------------
# The gather kernel: eval.py's operation tables, read lane-wise.
#
# A kernel maps expanded operand lanes ``(aval, apois[, bval, bpois])``
# to ``(val, pois, ub, undef)``, where ``ub`` is None for a table with
# no UB entry and ``undef`` is None for one with no undef entry (all but
# out-of-range shifts under OLD).  Value lanes are table values, so they
# stay in [0, 2^w) and are 0 under poison, UB and undef.
# ---------------------------------------------------------------------------

#: (val, pois, ub, undef) lane quadruple.
KernelResult = Tuple[object, object, Optional[object], Optional[object]]


@functools.lru_cache(maxsize=None)
def _table_lanes(table: OpTable) -> tuple:
    """``(val, pois, ub, undef)`` arrays over ``table``'s entries."""
    np = _np
    entries = table.entries
    val = np.array([e if type(e) is int else 0 for e in entries],
                   dtype=np.int64)
    pois = np.array([e is POISON for e in entries])
    ub = np.array([e is UB_ENTRY for e in entries])
    undef = np.array([type(e) is PartialUndef for e in entries])
    return (val, pois, ub if ub.any() else None,
            undef if undef.any() else None)


def _gather_kernel(table: OpTable) -> Callable[..., KernelResult]:
    """The lane-parallel form of ``table``: each lane's operand indices
    (its value, or the poison index under poison) pick its entry."""
    np = _np
    val, pois, ub, undef = _table_lanes(table)
    p = table.poison_index
    stride = p + 1

    def gather(aval, apois, *b):
        k = np.where(apois, p, aval)
        if b:
            k = k * stride + np.where(b[1], p, b[0])
        return (val[k], pois[k], None if ub is None else ub[k],
                None if undef is None else undef[k])
    return gather


# ---------------------------------------------------------------------------
# Lanes: the live (input, choice prefix) pairs of one path program.
# ---------------------------------------------------------------------------

# Hot paths test masks with ``np.count_nonzero`` and gather with
# ``mask.nonzero()[0]``: on arrays this short, ``ndarray.any`` and
# ``np.flatnonzero`` cost several times as much in call overhead.

def _take(x, sel):
    """Gather lanes ``sel`` of ``x``; numpy scalars (constant operands)
    broadcast and stay as they are."""
    return x[sel] if x.ndim else x


def _take_events(events, sel) -> tuple:
    """Gather lanes ``sel`` of every ``(callee, argument lanes)`` event."""
    return tuple((name, tuple(tuple(_take(x, sel) for x in lanes)
                              for lanes in args))
                 for name, args in events)


class _LaneState:
    """Mutable execution state of one path program.

    ``idx[i]`` is the input tuple lane ``i`` runs on — an input appears
    once per choice prefix that reaches this point — ``env`` maps SSA
    values to their ``(val, pois, undef)`` lanes, ``events`` holds the
    ``(callee, argument lanes)`` of every call executed so far, and
    ``ub`` collects the input indices of lanes that executed immediate
    UB, with ``ub_events`` their events at that point.  Such lanes stay
    in the arrays as dead weight (``live`` is False there; None means
    every lane is live) until the next fork or branch compacts them
    away, so UB costs no gather of the whole environment.
    """

    __slots__ = ("idx", "env", "ub", "live", "events", "ub_events")

    def __init__(self, idx, env: Dict[Value, tuple]):
        self.idx = idx
        self.env = env
        self.ub: List = []
        self.live = None
        self.events: tuple = ()
        self.ub_events: List[tuple] = []

    def take(self, sel) -> None:
        """Keep (or repeat) lanes: lane ``i`` becomes old lane ``sel[i]``."""
        self.idx = self.idx[sel]
        self.env = {v: (_take(val, sel), _take(pois, sel), _take(undef, sel))
                    for v, (val, pois, undef) in self.env.items()}
        if self.events:
            self.events = _take_events(self.events, sel)
        self.live = None

    def kill(self, mask, record: bool) -> None:
        """Live lanes in ``mask`` execute immediate UB and die (booked in
        :attr:`ub` when ``record``)."""
        if self.live is not None:
            mask = mask & self.live
        if not _np.count_nonzero(mask):
            return
        if not mask.ndim:
            mask = _np.ones(len(self.idx), dtype=bool)
        if record:
            self.ub.append(self.idx[mask])
            self.ub_events.append(
                _take_events(self.events, mask) if self.events else ())
        self.live = ~mask if self.live is None else self.live & ~mask

    def keep(self, mask) -> None:
        """Drop dead lanes and the live ones outside ``mask``."""
        if self.live is not None:
            mask = mask & self.live
        if not mask.ndim:
            if not mask:
                self.take(_np.zeros(0, dtype=_np.int64))
        elif _np.count_nonzero(mask) < len(mask):
            self.take(mask.nonzero()[0])
        self.live = None

    def fork(self, mask, k: int):
        """Replace every live lane in ``mask`` by ``k`` adjacent copies,
        one per choice, and drop the dead lanes.  Returns ``(sel,
        choice)``: the selector the caller applies to its temporaries,
        and each new lane's choice (0 on lanes that did not fork)."""
        np = _np
        n = len(self.idx)
        counts = np.where(mask, k, 1) if mask.ndim else np.full(n, k)
        if self.live is not None:
            counts = counts * self.live
        sel = np.repeat(np.arange(n), counts)
        if len(sel) > MAX_LANES:
            raise VectorIneligible(
                "lane-cap",
                f"forking would hold {len(sel)} lanes at once "
                f"(cap {MAX_LANES})")
        choice = np.arange(len(sel)) - (np.cumsum(counts) - counts)[sel]
        self.take(sel)
        return sel, choice


class Outcomes(NamedTuple):
    """Every behavior one plan run produced, one row per oracle path.

    ``idx``/``val``/``pois``/``undef`` describe the paths that returned
    (``val`` is 0 for ``ret void``; ``undef`` is None when no path
    returned undef), ``ub`` holds the input index of every path that
    executed immediate UB, and ``paths[i]`` is the number of oracle
    paths of input ``i``.

    ``events`` is None unless the plan records calls.  Then it holds
    one ``(is_ub, start, stop, events)`` entry per run of rows that made
    the same calls: rows ``start:stop`` of the returning rows (of ``ub``
    when ``is_ub``) made ``events``, a tuple of ``(callee, argument
    lanes)`` in execution order, each argument's ``(val, pois, undef)``
    lanes aligned with those rows (numpy scalars for a constant).
    """

    idx: object
    val: object
    pois: object
    undef: object
    ub: object
    paths: object
    events: object = None


# ---------------------------------------------------------------------------
# Lowering: Function -> VectorPlan (straight-line programs per acyclic path).
# ---------------------------------------------------------------------------

def _int_width(ty: Type, what: str) -> int:
    if not isinstance(ty, IntType):
        raise VectorIneligible("non-int-type",
                               f"{what} has non-integer type {ty}")
    if ty.bits > TABLE_MAX_WIDTH:
        raise VectorIneligible("width",
                               f"{what} is {ty.bits} bits wide "
                               f"(vector cap {TABLE_MAX_WIDTH})")
    return ty.bits


def _compile_fetch(op: Value, config: SemanticsConfig):
    """``fetch(env) -> (val, pois, undef)`` for one operand, unexpanded;
    constants fold to broadcastable numpy scalars."""
    np = _np
    if isinstance(op, ConstantInt):
        # numpy scalars, not Python ints/bools: ``~`` on a Python bool
        # is integer complement (``~False == -1``), which silently
        # turns downstream masks into int64 lanes.
        lanes = (np.int64(op.value), np.False_, np.False_)
    elif isinstance(op, UndefValue) and config.has_undef:
        lanes = (np.int64(0), np.False_, np.True_)
    elif isinstance(op, (PoisonValue, UndefValue)):
        # Without undef an undef constant executes as poison (the
        # Section 4 migration story, as in the scalar interpreter).
        lanes = (np.int64(0), np.True_, np.False_)
    else:
        def fetch_reg(env):
            return env[op]
        return fetch_reg

    def fetch_const(env):
        return lanes
    return fetch_const


def _compile_use(op: Value, config: SemanticsConfig, width: int):
    """``(use, forks)``: ``use(state) -> (val, pois, sel)`` is fetch
    plus per-use undef expansion (Section 3.1), forking each undef lane
    ``2^w`` ways, and ``sel`` is the fork's lane selector, or None when
    nothing forked.  ``forks`` says whether the use is a choice point."""
    fetch = _compile_fetch(op, config)
    if not (config.has_undef
            and not isinstance(op, (ConstantInt, PoisonValue))):
        def use_plain(state):
            val, pois, _ = fetch(state.env)
            return val, pois, None
        return use_plain, False
    space = 1 << width

    def use(state):
        val, pois, undef = fetch(state.env)
        if not _np.count_nonzero(undef):
            return val, pois, None
        sel, choice = state.fork(undef, space)
        val, pois, undef = fetch(state.env)
        return _np.where(undef, choice, val), pois, sel
    return use, True


class _PathProgram:
    """One acyclic entry→exit path, compiled to closures."""

    __slots__ = ("steps", "ret_fetch", "unreachable", "choice_points")

    def __init__(self):
        #: ``step(state) -> None`` closures, in execution order.
        self.steps: List[Callable] = []
        #: fetch for the returned value; None for ``ret void`` paths.
        self.ret_fetch: Optional[Callable] = None
        #: path ends at ``unreachable`` (live lanes are UB).
        self.unreachable = False
        #: upper bound on the oracle choices one lane makes on this path
        self.choice_points = 0


class VectorPlan:
    """A function lowered for one semantics configuration, with or
    without undef.

    ``run`` executes every oracle path of every input lane-parallel —
    each choice point forks the lanes that need a choice, so one run
    covers what the scalar oracle enumerates input by input — and
    returns the resulting :class:`Outcomes`.  ``record_calls`` lowers
    calls to declared void functions into event steps (see the module
    docstring) instead of declining them.
    """

    __slots__ = ("fn", "config", "paths", "ret_width", "max_path_steps",
                 "record_calls")

    def __init__(self, fn: Function, config: SemanticsConfig,
                 max_choices: int = 24, fuel: int = 10_000,
                 record_calls: bool = False):
        _require_numpy()
        self.fn = fn
        self.config = config
        self.record_calls = record_calls
        if fn.module is not None and fn.module.globals:
            raise VectorIneligible(
                "globals", "module has global variables (memory observables)")
        self.ret_width = (None if fn.return_type.is_void
                          else _int_width(fn.return_type, "return"))
        for arg in fn.args:
            _int_width(arg.type, f"argument {arg.ref()}")

        block_paths = _enumerate_paths(fn)
        self.paths = []
        seen_prefixes = set()
        choice_points = 0
        for blocks in block_paths:
            # UB in block i is shared by every path through blocks[:i+1];
            # the first such path books it, so each oracle path that
            # ends in UB is counted once.
            owns = []
            for i in range(len(blocks)):
                prefix = tuple(blocks[:i + 1])
                owns.append(prefix not in seen_prefixes)
                seen_prefixes.add(prefix)
            path = _compile_path(blocks, config, owns, record_calls)
            choice_points = max(choice_points, path.choice_points)
            self.paths.append(path)
        if choice_points > max_choices:
            raise VectorIneligible(
                "choice-points",
                f"a path of @{fn.name} has up to {choice_points} choice "
                f"points (max_choices={max_choices})")
        self.max_path_steps = max(
            sum(len(b.instructions) - len(b.phis()) for b in p)
            for p in block_paths
        )
        if self.max_path_steps >= fuel:
            raise VectorIneligible(
                "fuel", f"longest path needs {self.max_path_steps} steps "
                        f"with fuel={fuel}")
        NUM_PLANS_LOWERED.inc()

    def run(self, arg_lanes: Sequence[tuple], n: int) -> Outcomes:
        """Execute all ``n`` input lanes; ``arg_lanes`` holds one
        ``(val, pois, undef)`` triple per argument: length-``n`` arrays,
        or a numpy scalar for a flag no input sets."""
        np = _np
        NUM_PLAN_RUNS.inc()
        base_env = dict(zip(self.fn.args, arg_lanes))
        rets: List[tuple] = []
        ub: List = []
        ret_events: List[tuple] = []
        ub_events: List[tuple] = []
        void = (np.int64(0), np.False_, np.False_)
        start = np.arange(n)
        for path in self.paths:
            state = _LaneState(start, dict(base_env))
            for step in path.steps:
                if not len(state.idx):
                    break
                step(state)
            if path.unreachable:
                state.kill(np.True_, True)
            ub.extend(state.ub)
            ub_events.extend(state.ub_events)
            idx = state.idx
            if not len(idx):
                continue
            lanes = (void if path.ret_fetch is None
                     else path.ret_fetch(state.env))
            events = state.events
            if state.live is not None:
                sel = state.live.nonzero()[0]
                idx = idx[sel]
                lanes = [_take(x, sel) for x in lanes]
                events = _take_events(events, sel)
            if len(idx):
                rets.append((idx, *lanes))
                ret_events.append(events)
        idx, val, pois = (_column(rets, k, dtype) for k, dtype
                          in enumerate((np.int64, np.int64, bool)))
        # a run in which no path returns undef (every NEW run) says so
        # with None: the verdict algebra then skips its undef terms
        undef = (None if all(not r[3].ndim and not r[3] for r in rets)
                 else _column(rets, 3, bool))
        paths = np.bincount(idx, minlength=n)
        if ub:
            ub_idx = np.concatenate(ub)
            paths += np.bincount(ub_idx, minlength=n)
        else:
            ub_idx = np.zeros(0, dtype=np.int64)
        if np.count_nonzero(paths) < n:
            # Every input must conclude on some path or be UB; a gap
            # means the lowering missed a control-flow case.  Fall
            # back rather than risk a wrong verdict.
            raise VectorIneligible(
                "lane-coverage",
                f"lowering left lanes of @{self.fn.name} unassigned")
        events = None
        if self.record_calls:
            events = (_event_runs(False, [r[0] for r in rets], ret_events)
                      + _event_runs(True, ub, ub_events))
        return Outcomes(idx, val, pois, undef, ub_idx, paths, events)


def _event_runs(is_ub: bool, rows: List, events: List[tuple]) -> tuple:
    """``(is_ub, start, stop, events)`` per block of concatenated rows."""
    runs = []
    start = 0
    for idx, evs in zip(rows, events):
        runs.append((is_ub, start, start + len(idx), evs))
        start += len(idx)
    return tuple(runs)


def _column(rets: List[tuple], k: int, dtype):
    """Column ``k`` of the per-path return rows ``(idx, val, pois,
    undef)`` as one array; scalar lanes widen to their row's length."""
    np = _np
    parts = [r[k] if r[k].ndim else np.full(len(r[0]), r[k]) for r in rets]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _enumerate_paths(fn: Function) -> List[List[BasicBlock]]:
    """All acyclic entry→exit block sequences, or raise."""
    paths: List[List[BasicBlock]] = []
    stack: List[Tuple[BasicBlock, List[BasicBlock]]] = [(fn.entry, [])]
    while stack:
        block, prefix = stack.pop()
        if block in prefix:
            raise VectorIneligible("cfg-loop",
                                   f"@{fn.name} has a CFG cycle through "
                                   f"%{block.name}")
        path = prefix + [block]
        term = block.instructions[-1] if block.instructions else None
        if isinstance(term, (ReturnInst, UnreachableInst)):
            paths.append(path)
            if len(paths) > MAX_PATHS:
                raise VectorIneligible(
                    "paths", f"@{fn.name} has more than {MAX_PATHS} "
                             f"acyclic paths")
            continue
        if isinstance(term, BranchInst):
            for succ in term.successors():
                stack.append((succ, path))
            continue
        raise VectorIneligible(
            "terminator",
            f"unsupported terminator {term.opcode.value if term else '?'}")
    return paths


def _compile_path(blocks: List[BasicBlock], config: SemanticsConfig,
                  owns: List[bool], record_calls: bool) -> _PathProgram:
    program = _PathProgram()
    for i, block in enumerate(blocks):
        pred = blocks[i - 1] if i else None
        phis = block.phis()
        if phis:
            if pred is None:
                raise VectorIneligible("phi-entry", "phi in entry block")
            fetches = []
            for phi in phis:
                incoming = phi.incoming_for_block(pred)
                if incoming is None:
                    raise VectorIneligible(
                        "phi-incoming",
                        f"phi {phi.ref()} has no incoming from "
                        f"%{pred.name}")
                _int_width(phi.type, f"phi {phi.ref()}")
                fetches.append((phi, _compile_fetch(incoming, config)))

            def run_phis(state, fetches=tuple(fetches)):
                # simultaneous reads: fetch everything before assigning
                staged = [(phi, fetch(state.env)) for phi, fetch in fetches]
                for phi, lanes in staged:
                    state.env[phi] = lanes
            program.steps.append(run_phis)

        for inst in block.instructions[len(phis):]:
            if inst.is_terminator:
                _compile_path_terminator(inst, blocks, i, config, owns[i],
                                         program)
                break
            program.steps.append(_compile_vector_instruction(
                inst, config, owns[i], program, record_calls))
    return program


def _compile_path_terminator(inst: Instruction, blocks: List[BasicBlock],
                             i: int, config: SemanticsConfig, owns: bool,
                             program: _PathProgram) -> None:
    if isinstance(inst, ReturnInst):
        if inst.value is not None:
            program.ret_fetch = _compile_fetch(inst.value, config)
        return
    if isinstance(inst, UnreachableInst):
        program.unreachable = True
        return
    if isinstance(inst, BranchInst):
        if not inst.is_conditional:
            return  # unconditional: every lane stays
        poison_is_ub = config.branch_on_poison is BranchOnPoison.UB
        use_cond, forks = _compile_use(inst.cond, config, 1)
        # an undef condition forks, a poison one picks under NONDET:
        # one choice either way
        program.choice_points += forks or not poison_is_ub
        want_true = blocks[i + 1] is inst.true_block

        def take_edge(state):
            cval, cpois, _ = use_cond(state)
            edge = (cval != 0) if want_true else (cval == 0)
            if poison_is_ub:
                state.kill(cpois, owns)
            else:
                # NONDET: a poison condition takes either edge, so the
                # lane stays live here and on the sibling path.
                edge = edge | cpois
            state.keep(edge)
        program.steps.append(take_edge)
        return
    raise VectorIneligible(
        "terminator", f"unsupported terminator {inst.opcode.value}")


def _result(kernel_out, state: _LaneState, owns: bool):
    """Book a kernel's UB lanes and return its ``(val, pois, undef)``
    lanes."""
    val, pois, ub, undef = kernel_out
    if ub is not None:
        state.kill(ub, owns)
    return val, pois, _np.False_ if undef is None else undef


def _compile_vector_instruction(inst: Instruction,
                                config: SemanticsConfig, owns: bool,
                                program: _PathProgram,
                                record_calls: bool):
    if isinstance(inst, (BinaryInst, IcmpInst)):
        if isinstance(inst, BinaryInst):
            width = _int_width(inst.type, inst.ref())
            table = binop_table(inst.opcode, width, config, nsw=inst.nsw,
                                nuw=inst.nuw, exact=inst.exact)
        else:
            width = _int_width(inst.lhs.type, inst.ref())
            table = icmp_table(inst.pred, width)
        kernel = _gather_kernel(table)
        use_a, forks_a = _compile_use(inst.lhs, config, width)
        use_b, forks_b = _compile_use(inst.rhs, config, width)
        program.choice_points += forks_a + forks_b

        def run_binop(state):
            aval, apois, _ = use_a(state)
            bval, bpois, sel = use_b(state)
            if sel is not None:
                aval, apois = _take(aval, sel), _take(apois, sel)
            state.env[inst] = _result(kernel(aval, apois, bval, bpois),
                                      state, owns)
        return run_binop

    if isinstance(inst, SelectInst):
        return _compile_vector_select(inst, config, owns, program)

    if isinstance(inst, CastInst):
        src_w = _int_width(inst.value.type, inst.ref())
        dest_w = _int_width(inst.type, inst.ref())
        if inst.opcode not in (Opcode.ZEXT, Opcode.SEXT, Opcode.TRUNC):
            raise VectorIneligible(
                "unsupported-op",
                f"no vector lowering for cast {inst.opcode.value}")
        kernel = _gather_kernel(cast_table(inst.opcode, src_w, dest_w))
        use, forks = _compile_use(inst.value, config, src_w)
        program.choice_points += forks

        def run_cast(state):
            aval, apois, _ = use(state)
            state.env[inst] = _result(kernel(aval, apois), state, owns)
        return run_cast

    if isinstance(inst, FreezeInst):
        space = 1 << _int_width(inst.type, f"freeze {inst.ref()}")
        fetch = _compile_fetch(inst.value, config)
        program.choice_points += 1
        np = _np

        def run_freeze(state):
            val, pois, undef = fetch(state.env)
            wild = pois | undef
            if np.count_nonzero(wild):
                _, choice = state.fork(wild, space)
                val, pois, undef = fetch(state.env)
                val = np.where(pois | undef, choice, val)
            state.env[inst] = (val, np.False_, np.False_)
        return run_freeze

    if record_calls and isinstance(inst, CallInst):
        return _compile_vector_call(inst, config)

    raise VectorIneligible(
        "unsupported-op",
        f"no vector lowering for {inst.opcode.value}")


def _compile_vector_call(inst: CallInst, config: SemanticsConfig):
    """An event step: a call to a declared ``void`` function records its
    callee and argument lanes, unexpanded (a scalar external call reads
    its arguments' bits, undef included, without choosing)."""
    callee = inst.callee
    if not (callee.is_declaration and callee.return_type.is_void):
        raise VectorIneligible(
            "unsupported-op",
            f"call to @{callee.name} is not a declared void function")
    for arg in inst.args:
        _int_width(arg.type, f"argument of call to @{callee.name}")
    name = callee.name
    fetches = tuple(_compile_fetch(arg, config) for arg in inst.args)

    def run_call(state):
        args = tuple(fetch(state.env) for fetch in fetches)
        state.events = state.events + ((name, args),)
    return run_call


def _compile_vector_select(inst: SelectInst, config: SemanticsConfig,
                           owns: bool, program: _PathProgram):
    mode = config.select_semantics
    _int_width(inst.type, inst.ref())
    use_c, forks = _compile_use(inst.cond, config, 1)
    fetch_t = _compile_fetch(inst.true_value, config)
    fetch_f = _compile_fetch(inst.false_value, config)
    program.choice_points += forks or mode is SelectSemantics.NONDET_COND
    has_undef = config.has_undef
    np = _np

    def run_select(state):
        cval, cpois, _ = use_c(state)
        if mode is SelectSemantics.UB_COND:
            state.kill(cpois, owns)
            cpois = np.False_
        elif (mode is SelectSemantics.NONDET_COND
              and np.count_nonzero(cpois)):
            # a poison condition picks either arm: one lane per pick
            sel, choice = state.fork(cpois, 2)
            cval = np.where(_take(cpois, sel), choice, _take(cval, sel))
            cpois = np.False_
        # arms are fetched after any fork/kill, unexpanded: undef
        # passes through the chosen arm
        tval, tpois, tundef = fetch_t(state.env)
        fval, fpois, fundef = fetch_f(state.env)
        pick_true = cval != 0
        val = np.where(pick_true, tval, fval)
        pois = np.where(pick_true, tpois, fpois)
        if mode is SelectSemantics.ARITHMETIC:
            # poison if cond or *either* arm is poison (Section 3.4's
            # select -> or/and rewrites).
            pois = cpois | tpois | fpois
        else:  # CONDITIONAL (Figure 5): poison cond poisons the result
            pois = pois | cpois
        if has_undef:
            undef = np.where(pick_true, tundef, fundef) & ~pois
            val = np.where(pois | undef, 0, val)
        else:
            undef = np.False_
            val = np.where(pois, 0, val)
        state.env[inst] = (val, pois, undef)
    return run_select
