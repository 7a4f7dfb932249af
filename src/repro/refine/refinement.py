"""The refinement relation between behaviors (Alive-style).

A transformed function ``tgt`` *refines* a source function ``src`` iff
for every input:

* if ``src`` may execute UB on some nondeterministic path, anything is
  allowed (UB is the top behavior); otherwise
* every behavior of ``tgt`` must be covered by some behavior of ``src``.

Coverage of observables is bitwise: a source poison bit covers anything
(a compiler may replace deferred UB with any value); a source undef bit
covers any non-poison bit (undef stands for every concrete value, and
poison is *strictly stronger* than undef — the mistake in the
``select %c, %x, undef -> %x`` transformation of Section 3.4 is exactly
a target poison bit where the source had undef); a concrete source bit
covers only itself.

External-call events are observable: callee and argument observables must
be covered pairwise and in order; the environment's return value is an
input, so it must be *equal* on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from ..diag import REMARK_MISSED, Statistic, emit_remark
from ..semantics.domains import Bit, Bits, PBIT, UBIT
from ..semantics.interp import RET, TIMEOUT, UB, Behavior

NUM_UNDEF_EXPANSION_OVERFLOW = Statistic(
    "refine", "num-undef-expansion-overflow",
    "Undef expansions that exceeded the concretization cap "
    "(verdict forced to inconclusive)")


def bit_covers(src: Bit, tgt: Bit) -> bool:
    if src is PBIT:
        return True
    if src is UBIT:
        return tgt is not PBIT
    return src == tgt


def bits_cover(src: Optional[Bits], tgt: Optional[Bits]) -> bool:
    if src is None or tgt is None:
        return src is None and tgt is None
    if len(src) != len(tgt):
        return False
    return all(bit_covers(s, t) for s, t in zip(src, tgt))


def behavior_covers(src: Behavior, tgt: Behavior) -> bool:
    """Does source behavior ``src`` license target behavior ``tgt``?"""
    if src.kind == UB:
        return True
    if src.kind != tgt.kind:
        return False
    if tgt.kind == TIMEOUT:
        return src.kind == TIMEOUT
    if not bits_cover(src.ret, tgt.ret):
        return False
    if len(src.events) != len(tgt.events):
        return False
    for (s_name, s_args, s_ret), (t_name, t_args, t_ret) in zip(
        src.events, tgt.events
    ):
        if s_name != t_name or len(s_args) != len(t_args):
            return False
        if not all(bits_cover(sa, ta) for sa, ta in zip(s_args, t_args)):
            return False
        if s_ret != t_ret:  # environment input: must match exactly
            return False
    if len(src.memory) != len(tgt.memory):
        return False
    # Regions are matched by *name*, never by position: two behaviors
    # whose region lists agree but were recorded in different orders
    # must compare equal.  (Behavior construction sorts regions by name,
    # so this is also cheap — but the dict lookup keeps coverage correct
    # even for hand-built behaviors that bypass the invariant.)
    src_mem = dict(src.memory)
    for t_name, t_bits in tgt.memory:
        s_bits = src_mem.get(t_name)
        if s_bits is None or not bits_cover(s_bits, t_bits):
            return False
    return True


@dataclass(frozen=True)
class BehaviorSetResult:
    """Outcome of comparing behavior sets on one input."""

    ok: bool
    #: the uncovered target behavior, when not ok
    witness: Optional[Behavior] = None
    inconclusive: bool = False
    reason: str = ""


def _expand_undef_bits(behavior: Behavior, cap: int = 4096):
    """All concretizations of the behavior's undef bits.

    A target behavior containing undef bits stands for *every*
    concretization, each of which may be licensed by a *different*
    source behavior (e.g. ``ret undef`` is covered by the union
    {ret 0, ret 1, ...}).  Per-behavior coverage alone would reject
    such refinements — ``add x, 0 -> x`` with an undef ``x`` being the
    canonical example.

    Returns ``(expansions, needed)`` where ``needed`` is the total
    number of concretizations.  ``expansions`` is ``None`` when there is
    nothing to expand (``needed == 0``) or when ``needed`` exceeds
    ``cap``.  Callers must treat the overflow case — ``expansions is
    None and needed > cap`` — as *inconclusive*: deciding either way on
    a truncated expansion is unsound (a dropped concretization could
    refute a claimed coverage, and union coverage could license a
    behavior that per-behavior coverage rejected)."""
    import itertools

    def count_ubits(bits: Optional[Bits]) -> int:
        if bits is None:
            return 0
        return sum(1 for b in bits if b is UBIT)

    total_ubits = count_ubits(behavior.ret)
    for _, args, _ in behavior.events:
        for a in args:
            total_ubits += count_ubits(a)
    for _, bits in behavior.memory:
        total_ubits += count_ubits(bits)
    if total_ubits == 0:
        return None, 0
    needed = 1 << total_ubits
    if needed > cap:
        return None, needed

    def fill(bits: Optional[Bits], values, pos: list) -> Optional[Bits]:
        if bits is None:
            return None
        out = []
        for b in bits:
            if b is UBIT:
                out.append(values[pos[0]])
                pos[0] += 1
            else:
                out.append(b)
        return tuple(out)

    expansions = []
    for values in itertools.product((0, 1), repeat=total_ubits):
        pos = [0]
        ret = fill(behavior.ret, values, pos)
        events = tuple(
            (name, tuple(fill(a, values, pos) for a in args), rbits)
            for name, args, rbits in behavior.events
        )
        memory = tuple(
            (name, fill(bits, values, pos))
            for name, bits in behavior.memory
        )
        expansions.append(Behavior(behavior.kind, ret, events, memory))
    return expansions, needed


def _fixed_order(behavior: Behavior) -> str:
    """A sort key that is the same in every process.  Behaviors hash
    through ``PBIT``/``UBIT`` (by identity) and event names (by
    ``PYTHONHASHSEED``), so set order is not; the bits' reprs are fixed
    tokens."""
    return repr((behavior.kind, behavior.ret, behavior.events,
                 behavior.memory))


def check_behavior_sets(src_behaviors: FrozenSet[Behavior],
                        tgt_behaviors: FrozenSet[Behavior],
                        undef_cap: int = 4096,
                        function: str = "") -> BehaviorSetResult:
    if any(b.kind == UB for b in src_behaviors):
        return BehaviorSetResult(ok=True)
    src_may_diverge = any(b.kind == TIMEOUT for b in src_behaviors)
    # the first target behavior (in a fixed order) that is not covered
    # decides the verdict and is the witness
    for tgt in sorted(tgt_behaviors, key=_fixed_order):
        if any(behavior_covers(src, tgt) for src in src_behaviors):
            continue
        # A target behavior with undef bits is a *set* of behaviors;
        # each concretization may be licensed by a different source
        # behavior (union coverage).
        expanded, needed = _expand_undef_bits(tgt, cap=undef_cap)
        if expanded is not None and all(
            any(behavior_covers(src, t) for src in src_behaviors)
            for t in expanded
        ):
            continue
        if expanded is None and needed > undef_cap:
            # The expansion was truncated: neither "covered" nor
            # "uncovered" can be decided soundly.  Surface an explicit
            # inconclusive verdict (never a silent pass or a spurious
            # counterexample).
            NUM_UNDEF_EXPANSION_OVERFLOW.inc()
            emit_remark(
                "refine",
                f"undef expansion needs {needed} concretizations "
                f"(cap {undef_cap}); verdict inconclusive",
                kind=REMARK_MISSED, function=function,
            )
            return BehaviorSetResult(
                ok=False, inconclusive=True,
                reason=(
                    f"undef expansion needs {needed} concretizations, "
                    f"exceeding the cap of {undef_cap}"
                ),
            )
        # Not covered.  If either side ran out of fuel, a longer run
        # might change the answer: stay conservative.
        if tgt.kind == TIMEOUT:
            return BehaviorSetResult(
                ok=False, inconclusive=True,
                reason="target execution exceeded its fuel budget",
            )
        if src_may_diverge:
            return BehaviorSetResult(
                ok=False, inconclusive=True,
                reason="source execution exceeded its fuel budget",
            )
        return BehaviorSetResult(ok=False, witness=tgt)
    return BehaviorSetResult(ok=True)
