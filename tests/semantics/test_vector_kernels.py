"""Differential tests: numpy lane kernels vs. the scalar evaluator.

Every vector kernel must agree element-wise with *both* the generic
``eval_*`` functions and the per-instruction specializers they mirror
(``binop_evaluator`` & co.), over random widths, flags, and poison
lanes.  The scalar side is the oracle; the outcome correspondence is

* ``UBError`` raised        <-> the kernel's ub lane is set,
* ``POISON`` returned       <-> the poison lane is set,
* undef returned            <-> the undef lane is set (OLD's
  out-of-range shifts),
* a concrete value returned <-> equal value lanes.

Plan runs are held to the interpreter the same way: per input, the
lanes a run ends with carry exactly the behaviors ``enumerate_behaviors``
finds, one lane per oracle path.  Forks keep copies next to their
parent in choice order, and the per-input coverage algebra (union
coverage included) is checked on hand-built outcomes.

The whole module skips when numpy is absent (the scalar engine is the
only one in play on that CI leg).
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.fuzz import enumerate_functions
from repro.ir import parse_function
from repro.ir.instructions import IcmpPred, Opcode
from repro.semantics import (
    NEW,
    OLD,
    OLD_GVN_VIEW,
    PBIT,
    POISON,
    UBIT,
    PartialUndef,
    PathLimitExceeded,
    SelectSemantics,
    enumerate_behaviors,
)
from repro.semantics.eval import (
    UBError,
    binop_evaluator,
    cast_evaluator,
    eval_binop,
    eval_cast,
    eval_icmp,
    icmp_evaluator,
)
from repro.semantics.vector import (
    MAX_WIDTH,
    VectorIneligible,
    VectorPlan,
    vector_binop_kernel,
    vector_cast_kernel,
    vector_icmp_kernel,
)

np = pytest.importorskip("numpy")

BINOPS = [
    Opcode.ADD, Opcode.SUB, Opcode.MUL,
    Opcode.UDIV, Opcode.SDIV, Opcode.UREM, Opcode.SREM,
    Opcode.SHL, Opcode.LSHR, Opcode.ASHR,
    Opcode.AND, Opcode.OR, Opcode.XOR,
]
#: opcodes where nsw/nuw are meaningful
WRAP_FLAG_OPS = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.SHL)
#: opcodes where exact is meaningful
EXACT_OPS = (Opcode.UDIV, Opcode.SDIV, Opcode.LSHR, Opcode.ASHR)


def _lane_arrays(lanes):
    """(aval, apois, bval, bpois) tuples -> numpy lane arrays."""
    aval = np.array([a for a, _, _, _ in lanes], dtype=np.int64)
    apois = np.array([ap for _, ap, _, _ in lanes], dtype=bool)
    bval = np.array([b for _, _, b, _ in lanes], dtype=np.int64)
    bpois = np.array([bp for _, _, _, bp in lanes], dtype=bool)
    return aval, apois, bval, bpois


def _scalar_outcome(fn, *args):
    """Run a scalar evaluator, normalizing to an outcome tag."""
    try:
        result = fn(*args)
    except UBError:
        return ("ub", None)
    if result is POISON:
        return ("poison", None)
    if isinstance(result, PartialUndef):
        assert result.is_fully_undef
        return ("undef", None)
    return ("val", int(result))


def _kernel_outcome(val, pois, ub, i, undef=None):
    if ub is not None and bool(ub[i]):
        return ("ub", None)
    if bool(pois[i]):
        return ("poison", None)
    if undef is not None and bool(undef[i]):
        return ("undef", None)
    return ("val", int(val[i]))


def _assert_lane_invariants(val, pois, ub, width, undef=None):
    """Value lanes stay masked into [0, 2^w) and zeroed under
    poison/UB/undef — the plan layer relies on bounded garbage."""
    mask = (1 << width) - 1
    assert bool(np.all((val >= 0) & (val <= mask)))
    dead = pois if ub is None else (pois | ub)
    if undef is not None:
        dead = dead | undef
    assert bool(np.all(val[dead] == 0))


def _check_binop_lanes(opcode, width, lanes, nsw, nuw, exact, config=NEW):
    kernel = vector_binop_kernel(opcode, width, config,
                                 nsw=nsw, nuw=nuw, exact=exact)
    specialized = binop_evaluator(opcode, width, config,
                                  nsw=nsw, nuw=nuw, exact=exact)
    aval, apois, bval, bpois = _lane_arrays(lanes)
    val, pois, ub, undef = kernel(aval, apois, bval, bpois)
    val, pois = np.broadcast_to(val, aval.shape), np.broadcast_to(
        pois, aval.shape)
    if ub is not None:
        ub = np.broadcast_to(ub, aval.shape)
    if undef is not None:
        undef = np.broadcast_to(undef, aval.shape)
    _assert_lane_invariants(val, pois, ub, width, undef)
    for i, (a, ap, b, bp) in enumerate(lanes):
        sa = POISON if ap else a
        sb = POISON if bp else b
        want_generic = _scalar_outcome(
            eval_binop, opcode, sa, sb, width, config, nsw, nuw, exact)
        want_special = _scalar_outcome(specialized, sa, sb)
        got = _kernel_outcome(val, pois, ub, i, undef)
        context = (f"{config.name} {opcode.value} w={width} nsw={nsw} "
                   f"nuw={nuw} exact={exact} lane {i}: a={sa} b={sb}")
        assert want_generic == want_special, context
        assert got == want_generic, context


@st.composite
def binop_cases(draw):
    opcode = draw(st.sampled_from(BINOPS))
    width = draw(st.integers(1, MAX_WIDTH))
    nsw = nuw = exact = False
    if opcode in WRAP_FLAG_OPS:
        nsw = draw(st.booleans())
        nuw = draw(st.booleans())
    if opcode in EXACT_OPS:
        exact = draw(st.booleans())
    maxu = (1 << width) - 1
    lanes = draw(st.lists(
        st.tuples(st.integers(0, maxu), st.booleans(),
                  st.integers(0, maxu), st.booleans()),
        min_size=1, max_size=24))
    return opcode, width, lanes, nsw, nuw, exact


class TestBinopKernels:
    @given(binop_cases())
    def test_matches_scalar_evaluators(self, case):
        _check_binop_lanes(*case)

    @pytest.mark.parametrize("opcode", BINOPS)
    def test_exhaustive_small_width(self, opcode):
        """Every (a, b) pair over i2 including poison lanes, under
        every meaningful flag combination."""
        width = 2
        flag_sets = [(False, False, False)]
        if opcode in WRAP_FLAG_OPS:
            flag_sets += [(True, False, False), (False, True, False),
                          (True, True, False)]
        if opcode in EXACT_OPS:
            flag_sets += [(False, False, True)]
        candidates = [(v, False) for v in range(4)] + [(0, True)]
        lanes = [(a, ap, b, bp)
                 for a, ap in candidates for b, bp in candidates]
        for nsw, nuw, exact in flag_sets:
            _check_binop_lanes(opcode, width, lanes, nsw, nuw, exact)

    @pytest.mark.parametrize("opcode", [Opcode.SHL, Opcode.LSHR,
                                        Opcode.ASHR])
    def test_shift_under_undef_config_matches_eval_binop(self, opcode):
        # OLD's out-of-range shifts produce undef: every (a, b) pair at
        # i3, amounts 3..7 out of range, poison lanes and all flags.
        width = 3
        candidates = [(v, False) for v in range(8)] + [(0, True)]
        lanes = [(a, ap, b, bp)
                 for a, ap in candidates for b, bp in candidates]
        for nsw, nuw, exact in [(False, False, False), (True, True, False),
                                (False, False, True)]:
            if opcode is not Opcode.SHL and (nsw or nuw):
                continue
            if opcode is Opcode.SHL and exact:
                continue
            _check_binop_lanes(opcode, width, lanes, nsw, nuw, exact,
                               config=OLD)

    @given(binop_cases())
    def test_matches_scalar_evaluators_under_old(self, case):
        _check_binop_lanes(*case, config=OLD)


class TestIcmpKernels:
    @given(st.sampled_from(list(IcmpPred)),
           st.integers(1, MAX_WIDTH),
           st.data())
    def test_matches_scalar_evaluators(self, pred, width, data):
        maxu = (1 << width) - 1
        lanes = data.draw(st.lists(
            st.tuples(st.integers(0, maxu), st.booleans(),
                      st.integers(0, maxu), st.booleans()),
            min_size=1, max_size=24))
        kernel = vector_icmp_kernel(pred, width)
        specialized = icmp_evaluator(pred, width)
        aval, apois, bval, bpois = _lane_arrays(lanes)
        val, pois, ub, undef = kernel(aval, apois, bval, bpois)
        assert ub is None and undef is None
        _assert_lane_invariants(val, pois, None, 1)
        for i, (a, ap, b, bp) in enumerate(lanes):
            sa = POISON if ap else a
            sb = POISON if bp else b
            want = _scalar_outcome(eval_icmp, pred, sa, sb, width)
            assert _scalar_outcome(specialized, sa, sb) == want
            assert _kernel_outcome(val, pois, None, i) == want, \
                f"{pred.value} w={width} lane {i}: a={sa} b={sb}"

    def test_exhaustive_small_width(self):
        width = 3
        candidates = [(v, False) for v in range(8)] + [(0, True)]
        lanes = [(a, ap, b, bp)
                 for a, ap in candidates for b, bp in candidates]
        aval, apois, bval, bpois = _lane_arrays(lanes)
        for pred in IcmpPred:
            val, pois, _, _ = vector_icmp_kernel(pred, width)(
                aval, apois, bval, bpois)
            for i, (a, ap, b, bp) in enumerate(lanes):
                sa = POISON if ap else a
                sb = POISON if bp else b
                want = _scalar_outcome(eval_icmp, pred, sa, sb, width)
                assert _kernel_outcome(val, pois, None, i) == want


CAST_OPS = [Opcode.ZEXT, Opcode.SEXT, Opcode.TRUNC]


@st.composite
def cast_cases(draw):
    opcode = draw(st.sampled_from(CAST_OPS))
    if opcode is Opcode.TRUNC:
        src_w = draw(st.integers(2, MAX_WIDTH))
        dest_w = draw(st.integers(1, src_w - 1))
    else:
        dest_w = draw(st.integers(2, MAX_WIDTH))
        src_w = draw(st.integers(1, dest_w - 1))
    maxu = (1 << src_w) - 1
    lanes = draw(st.lists(
        st.tuples(st.integers(0, maxu), st.booleans()),
        min_size=1, max_size=24))
    return opcode, src_w, dest_w, lanes


class TestCastKernels:
    @given(cast_cases())
    def test_matches_scalar_evaluators(self, case):
        opcode, src_w, dest_w, lanes = case
        kernel = vector_cast_kernel(opcode, src_w, dest_w)
        specialized = cast_evaluator(opcode, src_w, dest_w)
        aval = np.array([a for a, _ in lanes], dtype=np.int64)
        apois = np.array([ap for _, ap in lanes], dtype=bool)
        val, pois, ub, undef = kernel(aval, apois)
        assert ub is None and undef is None
        _assert_lane_invariants(val, pois, None, dest_w)
        for i, (a, ap) in enumerate(lanes):
            sa = POISON if ap else a
            want = _scalar_outcome(eval_cast, opcode, sa, src_w, dest_w)
            assert _scalar_outcome(specialized, sa) == want
            assert _kernel_outcome(val, pois, None, i) == want, \
                (f"{opcode.value} i{src_w}->i{dest_w} lane {i}: "
                 f"a={sa}")

    def test_pointer_casts_are_ineligible(self):
        with pytest.raises(VectorIneligible) as exc:
            vector_cast_kernel(Opcode.PTRTOINT, 4, 8)
        assert exc.value.reason == "unsupported-op"


# ---------------------------------------------------------------------------
# Lane forking: a plan run holds exactly the scalar oracle's paths.
# ---------------------------------------------------------------------------

#: NONDET readings of both select and branch, so every fork site of the
#: lowering is exercised (no named config selects NONDET_COND).
NONDET_EVERYWHERE = OLD.with_(name="old-nondet",
                              select_semantics=SelectSemantics.NONDET_COND)

DIAMOND = """
define i2 @f(i2 %x, i1 %c) {
entry:
  %s = select i1 %c, i2 undef, i2 %x
  br i1 %c, label %left, label %right
left:
  %f = freeze i2 %x
  %a = sub i2 %f, %s
  br label %join
right:
  %b = udiv i2 %s, %x
  br label %join
join:
  %r = phi i2 [ %a, %left ], [ %b, %right ]
  ret i2 %r
}
"""


def _behavior_class(behavior):
    if behavior.kind == "ub":
        return ("ub",)
    bits = behavior.ret
    if all(b is PBIT for b in bits):
        return ("poison",)
    if all(b is UBIT for b in bits):
        return ("undef",)
    return ("val", sum(b << i for i, b in enumerate(bits)))


def _path_count_is(fn, args, config, paths):
    """The scalar enumeration of ``fn`` on ``args`` runs exactly
    ``paths`` oracle paths (its path budget trips at ``paths - 1``)."""
    enumerate_behaviors(fn, args, config, max_paths=paths)
    if paths > 1:
        with pytest.raises(PathLimitExceeded):
            enumerate_behaviors(fn, args, config, max_paths=paths - 1)
    return True


def _assert_plan_matches_oracle(fn, config):
    from repro.refine.exhaustive import input_candidates
    from repro.refine.vector import _lane_arrays

    plan = VectorPlan(fn, config)
    widths = tuple(a.type.bits for a in fn.args)
    total, lanes = _lane_arrays(widths, True, config.has_undef)
    out = plan.run(lanes, total)
    spaces = [input_candidates(a.type, config) for a in fn.args]
    for i, args in enumerate(itertools.product(*spaces)):
        got = {("ub",)} if bool((out.ub == i).any()) else set()
        rows = out.idx == i
        undefs = (out.undef[rows] if out.undef is not None
                  else [False] * int(rows.sum()))
        for val, pois, undef in zip(out.val[rows], out.pois[rows], undefs):
            got.add(("poison",) if pois else ("undef",) if undef
                    else ("val", int(val)))
        want = {_behavior_class(b)
                for b in enumerate_behaviors(fn, args, config)}
        assert got == want, (config.name, args)
        assert _path_count_is(fn, args, config, int(out.paths[i]))


class TestLaneForking:
    def test_one_instruction_corpus_under_old(self):
        for fn in enumerate_functions(1, width=2):
            _assert_plan_matches_oracle(fn, OLD)

    @pytest.mark.parametrize("config", [OLD, OLD_GVN_VIEW, NEW,
                                        NONDET_EVERYWHERE],
                             ids=lambda c: c.name)
    def test_branches_freeze_and_select(self, config):
        _assert_plan_matches_oracle(parse_function(DIAMOND), config)

    def test_undef_use_forks_per_use(self):
        # two uses of one undef register fork independently: 4 x 4
        fn = parse_function("""
define i2 @f() {
entry:
  %u = select i1 true, i2 undef, i2 0
  %r = add i2 %u, %u
  ret i2 %r
}
""")
        out = VectorPlan(fn, OLD).run([], 1)
        assert out.paths.tolist() == [16]
        assert sorted(set(out.val.tolist())) == [0, 1, 2, 3]
        assert out.undef is None  # no path returns undef

    def test_returned_undef_is_not_expanded(self):
        fn = parse_function("""
define i2 @f(i2 %x) {
entry:
  ret i2 undef
}
""")
        from repro.refine.vector import _lane_arrays
        total, lanes = _lane_arrays((2,), True, True)
        out = VectorPlan(fn, OLD).run(lanes, total)
        assert out.paths.tolist() == [1] * total
        assert out.undef.all()

    def test_lane_cap_declines(self, monkeypatch):
        import repro.semantics.vector as vector_mod
        monkeypatch.setattr(vector_mod, "MAX_LANES", 15)
        fn = parse_function("""
define i2 @f() {
entry:
  %r = add i2 undef, undef
  ret i2 %r
}
""")
        with pytest.raises(VectorIneligible) as exc:
            VectorPlan(fn, OLD).run([], 1)
        assert exc.value.reason == "lane-cap"


class TestForkOrder:
    """Forks keep each lane's copies next to it, in choice order, so
    lanes stay grouped by input."""

    @staticmethod
    def _state(n, live=None):
        from repro.semantics.vector import _LaneState
        state = _LaneState(np.arange(n), {"v": (np.arange(n) * 10,
                                                np.zeros(n, bool),
                                                np.False_)})
        state.live = live
        return state

    def test_copies_are_adjacent_and_in_choice_order(self):
        state = self._state(3)
        sel, choice = state.fork(np.array([True, False, True]), 4)
        assert sel.tolist() == [0, 0, 0, 0, 1, 2, 2, 2, 2]
        assert choice.tolist() == [0, 1, 2, 3, 0, 0, 1, 2, 3]
        assert state.idx.tolist() == sel.tolist()
        assert state.env["v"][0].tolist() == [0, 0, 0, 0, 10,
                                              20, 20, 20, 20]

    def test_dead_lanes_are_dropped_not_forked(self):
        state = self._state(3, live=np.array([True, True, False]))
        sel, choice = state.fork(np.array([True, True, True]), 2)
        assert sel.tolist() == [0, 0, 1, 1]
        assert choice.tolist() == [0, 1, 0, 1]
        assert state.live is None

    def test_ub_lanes_are_booked_once_and_leave_on_the_next_branch(self):
        state = self._state(4)
        state.kill(np.array([False, True, False, False]), True)
        state.kill(np.array([False, True, True, False]), True)
        assert [u.tolist() for u in state.ub] == [[1], [2]]
        state.keep(np.True_)
        assert state.idx.tolist() == [0, 3]

    def test_plan_rows_stay_grouped_by_input(self):
        from repro.refine.vector import _lane_arrays
        fn = parse_function("""
define i2 @f(i2 %x) {
entry:
  %a = add i2 %x, undef
  %f = freeze i2 %a
  %r = xor i2 %f, %x
  ret i2 %r
}
""")
        total, lanes = _lane_arrays((2,), True, True)
        out = VectorPlan(fn, OLD).run(lanes, total)
        assert out.idx.tolist() == sorted(out.idx.tolist())
        # concrete x: 4 expansions of the undef operand; poison x: those
        # 4 times the freeze's 4 picks; undef x: 4 x 4 expansions of the
        # add's operands, then x expanded again by the xor
        assert out.paths.tolist() == [4, 4, 4, 4, 16, 64]
        _assert_plan_matches_oracle(fn, OLD)


# ---------------------------------------------------------------------------
# Event lanes: calls to declared void functions, recorded per lane.
# ---------------------------------------------------------------------------

#: parameter widths of the observation callees used below
_PARAM_WIDTHS = {"obs": (2,), "obs1": (1,), "obs2": (2, 2)}

OBS_DECLS = """
declare void @obs(i2)
declare void @obs1(i1)
declare void @obs2(i2, i2)
"""


def _bits(code, width):
    if code == "p":
        return (PBIT,) * width
    if code == "u":
        return (UBIT,) * width
    return tuple((code >> i) & 1 for i in range(width))


def _lane_code(val, pois, undef, i):
    """Lane ``i`` of a ``(val, pois, undef)`` triple (numpy scalars
    broadcast) as a value, "p" or "u"."""
    def at(x):
        return x[i] if x.ndim else x
    if at(pois):
        return "p"
    if at(undef):
        return "u"
    return int(at(val))


def _event_behaviors(out, fn, n):
    """Per input, the scalar-shaped behavior set ``{(kind, ret bits,
    events)}`` that the rows of a ``record_calls`` run describe."""
    ret_width = None if fn.return_type.is_void else fn.return_type.bits
    got = [set() for _ in range(n)]
    for is_ub, start, stop, events in out.events:
        for row in range(start, stop):
            evs = tuple(
                (name, tuple(_bits(_lane_code(*lanes, row - start), width)
                             for lanes, width
                             in zip(args, _PARAM_WIDTHS[name])), None)
                for name, args in events)
            if is_ub:
                got[int(out.ub[row])].add(("ub", None, evs))
                continue
            undef = out.undef[row] if out.undef is not None else False
            ret = (None if ret_width is None else _bits(
                "p" if out.pois[row] else "u" if undef
                else int(out.val[row]), ret_width))
            got[int(out.idx[row])].add(("ret", ret, evs))
    return got


def _assert_events_match_oracle(text, config):
    from repro.ir import parse_module
    from repro.refine.exhaustive import input_candidates
    from repro.refine.vector import _lane_arrays

    fn = parse_module(OBS_DECLS + text).get_function("f")
    plan = VectorPlan(fn, config, record_calls=True)
    widths = tuple(a.type.bits for a in fn.args)
    total, lanes = _lane_arrays(widths, True, config.has_undef)
    out = plan.run(lanes, total)
    got = _event_behaviors(out, fn, total)
    spaces = [input_candidates(a.type, config) for a in fn.args]
    for i, args in enumerate(itertools.product(*spaces)):
        want = {(b.kind, b.ret, b.events)
                for b in enumerate_behaviors(fn, args, config)}
        assert got[i] == want, (config.name, args)
    return out


EVENT_CONFIGS = pytest.mark.parametrize(
    "config", [NEW, OLD, NONDET_EVERYWHERE], ids=lambda c: c.name)


class TestEventLanes:
    @EVENT_CONFIGS
    def test_fork_after_an_observation_copies_it(self, config):
        out = _assert_events_match_oracle("""
define i2 @f(i2 %x) {
entry:
  call void @obs(i2 %x)
  %f = freeze i2 %x
  call void @obs(i2 %f)
  %r = add i2 %f, %x
  ret i2 %r
}
""", config)
        # the poison input forks four ways at the freeze; every copy
        # carries the first observation
        (_, start, stop, events), = out.events
        first = events[0][1][0]
        rows = out.idx[start:stop] == 4
        assert int(rows.sum()) == 4
        assert first[1][rows].all()

    @EVENT_CONFIGS
    def test_ub_after_an_observation_keeps_it(self, config):
        out = _assert_events_match_oracle("""
define i2 @f(i2 %x, i2 %y) {
entry:
  call void @obs2(i2 %x, i2 %y)
  %d = udiv i2 %x, %y
  call void @obs(i2 %d)
  ret i2 %d
}
""", config)
        ub_runs = [run for run in out.events if run[0]]
        assert ub_runs
        for _is_ub, _start, _stop, events in ub_runs:
            assert [name for name, _ in events] == ["obs2"]

    @EVENT_CONFIGS
    def test_observation_in_a_shared_entry_block(self, config):
        _assert_events_match_oracle("""
define i2 @f(i2 %x, i1 %c) {
entry:
  call void @obs1(i1 %c)
  %s = select i1 %c, i2 %x, i2 undef
  br i1 %c, label %a, label %b
a:
  call void @obs(i2 %s)
  ret i2 %x
b:
  %d = sdiv i2 1, %x
  call void @obs(i2 %d)
  ret i2 %d
}
""", config)

    def test_void_function_rows(self):
        _assert_events_match_oracle("""
define void @f(i2 %x) {
entry:
  %a = add nsw i2 %x, 1
  call void @obs(i2 %a)
  ret void
}
""", NEW)

    def test_calls_are_ineligible_unless_recorded(self):
        from repro.ir import parse_module
        fn = parse_module(OBS_DECLS + """
define i2 @f(i2 %x) {
entry:
  call void @obs(i2 %x)
  ret i2 %x
}
""").get_function("f")
        with pytest.raises(VectorIneligible) as exc:
            VectorPlan(fn, NEW)
        assert exc.value.reason == "unsupported-op"
        assert VectorPlan(fn, NEW, record_calls=True).run(
            [(np.arange(4), np.False_, np.False_)], 4).events

    def test_non_void_callee_stays_ineligible(self):
        from repro.ir import parse_module
        fn = parse_module("""
declare i2 @g(i2)

define i2 @f(i2 %x) {
entry:
  %r = call i2 @g(i2 %x)
  ret i2 %r
}
""").get_function("f")
        with pytest.raises(VectorIneligible) as exc:
            VectorPlan(fn, NEW, record_calls=True)
        assert exc.value.reason == "unsupported-op"


def _outcomes(rows=(), ub=(), n=1):
    """Outcomes from ``(input, kind, value)`` rows, kind in val/pois/undef."""
    from repro.semantics.vector import Outcomes
    idx = np.array([r[0] for r in rows], dtype=np.int64)
    val = np.array([r[2] if r[1] == "val" else 0 for r in rows],
                   dtype=np.int64)
    pois = np.array([r[1] == "pois" for r in rows], dtype=bool)
    undef = np.array([r[1] == "undef" for r in rows], dtype=bool)
    ub_idx = np.array(ub, dtype=np.int64)
    paths = np.bincount(np.concatenate((idx, ub_idx)), minlength=n)
    return Outcomes(idx, val, pois, undef, ub_idx, paths)


class TestCoverageAlgebra:
    """The per-input coverage rule on hand-built outcomes (i2 returns)."""

    @staticmethod
    def _first(src, tgt, n=1, cap=4096):
        from repro.refine.vector import _first_failing_input
        return _first_failing_input(src, tgt, n, 2, cap)

    def test_union_of_source_values_covers_a_target_undef(self):
        every = _outcomes([(0, "val", v) for v in range(4)])
        assert self._first(every, _outcomes([(0, "undef", 0)])) is None

    def test_a_missing_value_breaks_union_coverage(self):
        three = _outcomes([(0, "val", v) for v in range(3)])
        assert self._first(three, _outcomes([(0, "undef", 0)])) == 0

    def test_union_is_per_input(self):
        # input 0 returns every value, input 1 only three of them
        src = _outcomes([(0, "val", v) for v in range(4)]
                        + [(1, "val", v) for v in range(3)], n=2)
        tgt = _outcomes([(0, "undef", 0), (1, "undef", 0)], n=2)
        assert self._first(src, tgt, n=2) == 1

    def test_union_past_the_expansion_cap_declines(self):
        with pytest.raises(VectorIneligible) as exc:
            self._first(_outcomes([(0, "val", 1)]),
                        _outcomes([(0, "undef", 0)]), cap=2)
        assert exc.value.reason == "undef-expansion"

    @pytest.mark.parametrize("src_kind,tgt_kind,covered", [
        ("undef", "undef", True),
        ("undef", "val", True),
        ("undef", "pois", False),   # poison is stronger than undef
        ("pois", "pois", True),
        ("pois", "undef", True),
        ("val", "pois", False),
        ("val", "val", True),       # the same value, 2
    ])
    def test_wild_source_rows(self, src_kind, tgt_kind, covered):
        src = _outcomes([(0, src_kind, 2)])
        tgt = _outcomes([(0, tgt_kind, 2)])
        assert (self._first(src, tgt) is None) is covered

    def test_ub(self):
        ret = _outcomes([(0, "val", 1)])
        assert self._first(_outcomes(ub=[0]), ret) is None
        assert self._first(ret, _outcomes(ub=[0])) == 0
        assert self._first(_outcomes(ub=[0]), _outcomes(ub=[0])) is None
        # source poison covers every return, not target UB
        assert self._first(_outcomes([(0, "pois", 0)]),
                           _outcomes(ub=[0])) == 0
