"""Concrete evaluation of individual operations, with the poison rules.

These functions operate on *expanded* scalar operands: Python ints or
:data:`~repro.semantics.domains.POISON` (undef has already been
concretized by the interpreter's per-use expansion).  They return a
scalar result, or raise :class:`UBError` for immediate UB (division by
zero, etc.), or return an undef/poison scalar for deferred UB.

These functions are the only definition of each integer rule.  Because
behavior enumeration executes the same instruction millions of times
across inputs × oracle paths, each is also *tabulated*: an
:class:`OpTable` holds its result for every operand tuple over
``{0..2^w-1, poison}``, built lazily on first use and cached for the
life of the process, one table per (opcode or predicate, width, flags,
out-of-range shift reading).  The *specializers* —
:func:`binop_evaluator`, :func:`icmp_evaluator`, :func:`cast_evaluator`
— return closures that look the result up in the table; the
interpreter's execution plan (:mod:`repro.semantics.interp`) resolves
them at function entry, and the vector engine
(:mod:`repro.semantics.vector`) gathers from the same tables lane by
lane.  A UB entry makes the closure call the generic function, so the
:class:`UBError` text is the generic one.  Operands wider than
:data:`TABLE_MAX_WIDTH` are not tabulated: their closure is the generic
function itself.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional, Tuple

from ..ir.instructions import IcmpPred, Opcode
from .config import SemanticsConfig, ShiftOutOfRange
from .domains import POISON, Scalar, full_undef


class UBError(Exception):
    """Immediate undefined behavior was executed."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _to_signed(v: int, width: int) -> int:
    if v >= 1 << (width - 1):
        return v - (1 << width)
    return v


def _wrap(v: int, width: int) -> int:
    return v & ((1 << width) - 1)


def _signed_overflows(v: int, width: int) -> bool:
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    return not (lo <= v <= hi)


def eval_binop(opcode: Opcode, a: Scalar, b: Scalar, width: int,
               config: SemanticsConfig, nsw: bool = False, nuw: bool = False,
               exact: bool = False) -> Scalar:
    """Evaluate one binary operation on expanded scalars.

    Division-family checks come first because a zero or poison divisor is
    *immediate* UB even when the dividend is poison."""
    if opcode in (Opcode.UDIV, Opcode.SDIV, Opcode.UREM, Opcode.SREM):
        return _eval_division(opcode, a, b, width, exact)

    if a is POISON or b is POISON:
        return POISON
    assert isinstance(a, int) and isinstance(b, int)

    if opcode is Opcode.ADD:
        result = a + b
        if nuw and result >= (1 << width):
            return POISON
        if nsw and _signed_overflows(_to_signed(a, width) + _to_signed(b, width),
                                     width):
            return POISON
        return _wrap(result, width)

    if opcode is Opcode.SUB:
        result = a - b
        if nuw and result < 0:
            return POISON
        if nsw and _signed_overflows(_to_signed(a, width) - _to_signed(b, width),
                                     width):
            return POISON
        return _wrap(result, width)

    if opcode is Opcode.MUL:
        result = a * b
        if nuw and result >= (1 << width):
            return POISON
        if nsw and _signed_overflows(_to_signed(a, width) * _to_signed(b, width),
                                     width):
            return POISON
        return _wrap(result, width)

    if opcode in (Opcode.SHL, Opcode.LSHR, Opcode.ASHR):
        return _eval_shift(opcode, a, b, width, config, nsw, nuw, exact)

    if opcode is Opcode.AND:
        return a & b
    if opcode is Opcode.OR:
        return a | b
    if opcode is Opcode.XOR:
        return a ^ b

    raise NotImplementedError(f"eval_binop: {opcode}")


def _eval_division(opcode: Opcode, a: Scalar, b: Scalar, width: int,
                   exact: bool) -> Scalar:
    if b is POISON:
        raise UBError(f"{opcode.value} by poison")
    assert isinstance(b, int)
    if b == 0:
        raise UBError(f"{opcode.value} by zero")
    if a is POISON:
        return POISON
    assert isinstance(a, int)

    if opcode is Opcode.UDIV:
        q = a // b
        if exact and a % b != 0:
            return POISON
        return q
    if opcode is Opcode.UREM:
        return a % b

    sa, sb = _to_signed(a, width), _to_signed(b, width)
    if sa == -(1 << (width - 1)) and sb == -1:
        raise UBError(f"{opcode.value} overflow (INT_MIN / -1)")
    # C-style truncating division.
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    r = sa - q * sb
    if opcode is Opcode.SDIV:
        if exact and r != 0:
            return POISON
        return _wrap(q, width)
    return _wrap(r, width)


def _eval_shift(opcode: Opcode, a: int, b: int, width: int,
                config: SemanticsConfig, nsw: bool, nuw: bool,
                exact: bool) -> Scalar:
    if b >= width:
        # Section 2.3: out-of-range shifts are deferred UB because
        # hardware disagrees about them.  OLD: undef; NEW: poison.
        if config.shift_oob is ShiftOutOfRange.UNDEF:
            return full_undef(width)
        return POISON

    if opcode is Opcode.SHL:
        result = _wrap(a << b, width)
        if nuw and (a << b) >= (1 << width):
            return POISON
        if nsw:
            # Poison unless the shift preserves the signed value:
            # all shifted-out bits must equal the resulting sign bit.
            if _to_signed(result, width) >> b != _to_signed(a, width):
                return POISON
        return result
    if opcode is Opcode.LSHR:
        if exact and (a & ((1 << b) - 1)) != 0:
            return POISON
        return a >> b
    if opcode is Opcode.ASHR:
        if exact and (a & ((1 << b) - 1)) != 0:
            return POISON
        return _wrap(_to_signed(a, width) >> b, width)
    raise NotImplementedError(f"eval_shift: {opcode}")


def eval_icmp(pred: IcmpPred, a: Scalar, b: Scalar, width: int) -> Scalar:
    if a is POISON or b is POISON:
        return POISON
    assert isinstance(a, int) and isinstance(b, int)
    if pred.is_signed:
        a, b = _to_signed(a, width), _to_signed(b, width)
    table = {
        IcmpPred.EQ: a == b,
        IcmpPred.NE: a != b,
        IcmpPred.UGT: a > b,
        IcmpPred.UGE: a >= b,
        IcmpPred.ULT: a < b,
        IcmpPred.ULE: a <= b,
        IcmpPred.SGT: a > b,
        IcmpPred.SGE: a >= b,
        IcmpPred.SLT: a < b,
        IcmpPred.SLE: a <= b,
    }
    return int(table[pred])


def eval_cast(opcode: Opcode, a: Scalar, src_width: int,
              dest_width: int) -> Scalar:
    if a is POISON:
        return POISON
    assert isinstance(a, int)
    if opcode is Opcode.ZEXT:
        return a
    if opcode is Opcode.SEXT:
        return _wrap(_to_signed(a, src_width), dest_width)
    if opcode is Opcode.TRUNC:
        return _wrap(a, dest_width)
    if opcode in (Opcode.PTRTOINT, Opcode.INTTOPTR):
        return _wrap(a, dest_width)
    raise NotImplementedError(f"eval_cast: {opcode}")


# ---------------------------------------------------------------------------
# Operation tables: every rule above, tabulated once per process and read
# by both the interpreter's closures and the vector engine's gathers.
# ---------------------------------------------------------------------------

#: widest operand an operation table covers; wider operands use the
#: generic functions.  A binop table has ``(2^w + 1)^2`` entries, built
#: by calling the generic function on each: about 0.4 ms at i4, 6 ms at
#: i6, 24 ms at i7 and 130 ms at i8 per table (Python 3.11, one Xeon core).
TABLE_MAX_WIDTH = 6

#: the table entry of an operation that executes immediate UB
UB_ENTRY = object()

#: an evaluator over two expanded scalars
BinopFn = Callable[[Scalar, Scalar], Scalar]

_SHIFT_OPS = (Opcode.SHL, Opcode.LSHR, Opcode.ASHR)


class OpTable:
    """One operation tabulated over ``{0..2^w-1, poison}`` per operand.

    An operand's index is its value, or :attr:`poison_index` (``2^w``)
    for poison.  :attr:`entries` holds the result of :attr:`fn` for
    every index tuple in row-major order: entry ``i * (2^w + 1) + j``
    for a binop or icmp, entry ``i`` for a cast.  An entry is an int,
    :data:`POISON`, undef (OLD's out-of-range shifts) or
    :data:`UB_ENTRY`.  Operands wider than :data:`TABLE_MAX_WIDTH` are
    not tabulated: ``entries`` is then None.
    """

    __slots__ = ("fn", "poison_index", "entries")

    def __init__(self, fn: Callable[..., Scalar], width: int, arity: int):
        self.fn = fn
        self.poison_index = 1 << width
        self.entries: Optional[Tuple[object, ...]] = None
        if width <= TABLE_MAX_WIDTH:
            operands = (*range(self.poison_index), POISON)
            self.entries = tuple(
                _entry(fn, args)
                for args in itertools.product(operands, repeat=arity))


def _entry(fn: Callable[..., Scalar], args: tuple) -> object:
    try:
        return fn(*args)
    except UBError:
        return UB_ENTRY


#: every table built so far, by key; bounded by the (operation, width,
#: flags) combinations a process executes.  Two threads may build one
#: table twice; both copies are equal.
_TABLES: Dict[tuple, OpTable] = {}


def _table(key: tuple, fn: Callable[..., Scalar], width: int,
           arity: int) -> OpTable:
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = OpTable(fn, width, arity)
    return table


def binop_table(opcode: Opcode, width: int, config: SemanticsConfig,
                nsw: bool = False, nuw: bool = False,
                exact: bool = False) -> OpTable:
    """:func:`eval_binop` tabulated.  Of the config only ``shift_oob``
    matters, and only to shifts."""
    def fn(a: Scalar, b: Scalar) -> Scalar:
        return eval_binop(opcode, a, b, width, config,
                          nsw=nsw, nuw=nuw, exact=exact)
    oob = config.shift_oob if opcode in _SHIFT_OPS else None
    return _table((opcode, width, oob, nsw, nuw, exact), fn, width, 2)


def icmp_table(pred: IcmpPred, width: int) -> OpTable:
    """:func:`eval_icmp` tabulated."""
    def fn(a: Scalar, b: Scalar) -> Scalar:
        return eval_icmp(pred, a, b, width)
    return _table((pred, width), fn, width, 2)


def cast_table(opcode: Opcode, src_width: int, dest_width: int) -> OpTable:
    """:func:`eval_cast` tabulated over the source operand."""
    def fn(a: Scalar) -> Scalar:
        return eval_cast(opcode, a, src_width, dest_width)
    return _table((opcode, src_width, dest_width), fn, src_width, 1)


# Specializers: the interpreter's per-instruction closures.  Each looks
# its result up in the table and calls the generic function only for a
# UB entry, which raises the same UBError.

def binop_evaluator(opcode: Opcode, width: int, config: SemanticsConfig,
                    nsw: bool = False, nuw: bool = False,
                    exact: bool = False) -> BinopFn:
    """A closure computing ``eval_binop(opcode, ·, ·, width, config,
    flags)``."""
    return _binary_lookup(binop_table(opcode, width, config,
                                      nsw=nsw, nuw=nuw, exact=exact))


def icmp_evaluator(pred: IcmpPred, width: int) -> BinopFn:
    """A closure computing ``eval_icmp(pred, ·, ·, width)``."""
    return _binary_lookup(icmp_table(pred, width))


def cast_evaluator(opcode: Opcode, src_width: int,
                   dest_width: int) -> Callable[[Scalar], Scalar]:
    """A closure computing ``eval_cast(opcode, ·, src_w, dest_w)``."""
    table = cast_table(opcode, src_width, dest_width)
    entries = table.entries
    if entries is None:
        return table.fn
    p = table.poison_index

    def lookup(a):  # a cast has no UB entry
        return entries[p if a is POISON else a]
    return lookup


def _binary_lookup(table: OpTable) -> BinopFn:
    fn, entries = table.fn, table.entries
    if entries is None:
        return fn
    p = table.poison_index
    stride = p + 1

    def lookup(a, b):
        r = entries[(p if a is POISON else a) * stride
                    + (p if b is POISON else b)]
        return fn(a, b) if r is UB_ENTRY else r
    return lookup
