"""opt-fuzz: exhaustive and random generation of small IR functions.

Section 6 of the paper: "we used opt-fuzz to exhaustively generate all
LLVM functions with three instructions (over 2-bit integer arithmetic)
and then we used Alive to validate both individual passes (InstCombine,
GVN, Reassociation, and SCCP) and the collection of passes implied by
the -O2 compiler flag."

:func:`enumerate_functions` generates the same shape of corpus:
straight-line functions over ``iW`` with a configurable opcode set,
operands drawn from the two arguments, all constants, previous results,
and (optionally) ``undef``/``poison``.  The full 3-instruction space is
huge in Python terms, so the E5 harness uses exhaustive 1–2-instruction
corpora plus a seeded random sample of the 3-instruction space —
:func:`random_functions`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..diag import Statistic
from ..ir import (
    BinaryInst,
    ConstantInt,
    Function,
    FunctionType,
    IcmpInst,
    IcmpPred,
    IntType,
    Module,
    Opcode,
    PoisonValue,
    ReturnInst,
    SelectInst,
    UndefValue,
    Value,
)
from ..ir.basicblock import BasicBlock

DEFAULT_OPCODES: Tuple[Opcode, ...] = (
    Opcode.ADD, Opcode.SUB, Opcode.MUL,
    Opcode.UDIV, Opcode.SDIV,
    Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SHL, Opcode.LSHR, Opcode.ASHR,
)

#: a cheaper set for exhaustive sweeps
SMALL_OPCODES: Tuple[Opcode, ...] = (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR,
    Opcode.XOR, Opcode.SHL,
)

NUM_ENUMERATED = Statistic(
    "optfuzz", "num-functions-enumerated",
    "Functions produced by exhaustive enumeration")
NUM_RANDOM = Statistic(
    "optfuzz", "num-random-functions",
    "Functions produced by seeded random sampling")


class _Spec(NamedTuple):
    """Declarative description of one instruction to build (immutable:
    the enumeration spaces holding these are cached and shared)."""

    kind: str                     # "bin" | "icmp" | "select"
    opcode: Optional[Opcode] = None
    pred: Optional[IcmpPred] = None
    operands: Tuple[int, ...] = ()  # indices into the value pool
    flags: Tuple[str, ...] = ()     # subset of ("nsw", "nuw")


def _operand_pool_size(num_args: int, width: int, prior: int,
                       deferred: bool) -> int:
    constants = 1 << width
    return num_args + constants + (2 if deferred else 0) + prior


def _materialize(specs: Sequence[_Spec], width: int, num_args: int,
                 deferred: bool, name: str) -> Function:
    module = Module(name)
    ty = IntType(width)
    fn = Function(
        FunctionType(ty, tuple(ty for _ in range(num_args))),
        "f", module=module,
        arg_names=[chr(ord("a") + i) for i in range(num_args)],
    )
    block = BasicBlock("entry", parent=fn)

    pool: List[Value] = list(fn.args)
    for c in range(1 << width):
        pool.append(ConstantInt(ty, c))
    if deferred:
        pool.append(UndefValue(ty))
        pool.append(PoisonValue(ty))

    last_int: Optional[Value] = None
    for i, spec in enumerate(specs):
        ops = [pool[j] for j in spec.operands]
        if spec.kind == "bin":
            inst = BinaryInst(
                spec.opcode, ops[0], ops[1], f"v{i}",
                nsw="nsw" in spec.flags, nuw="nuw" in spec.flags,
            )
        elif spec.kind == "icmp":
            inst = IcmpInst(spec.pred, ops[0], ops[1], f"v{i}")
        elif spec.kind == "select":
            inst = SelectInst(ops[0], ops[1], ops[2], f"v{i}")
        else:  # pragma: no cover
            raise ValueError(spec.kind)
        block.append(inst)
        if inst.type is ty:
            last_int = inst
        pool.append(inst)

    if last_int is None:
        last_int = pool[0] if num_args else pool[num_args]
    block.append(ReturnInst(last_int))
    return fn


@functools.lru_cache(maxsize=32)
def _enum_spaces(num_instructions: int, width: int, num_args: int,
                 opcodes: Tuple[Opcode, ...], include_deferred: bool,
                 include_flags: bool) -> Tuple[Tuple[_Spec, ...], ...]:
    """The per-position spec spaces whose product is the corpus.

    Built once per distinct argument tuple (a lint-attack shard decodes
    one index per seed from the same spaces); tuples of immutable specs,
    so no caller can change the cache."""

    def spec_space(position: int) -> Iterator[_Spec]:
        pool = _operand_pool_size(num_args, width, position,
                                  include_deferred)
        for opcode in opcodes:
            flag_sets: List[Tuple[str, ...]] = [()]
            if include_flags and opcode in (Opcode.ADD, Opcode.SUB,
                                            Opcode.MUL, Opcode.SHL):
                flag_sets.append(("nsw",))
            for flags in flag_sets:
                for a, b in itertools.product(range(pool), repeat=2):
                    yield _Spec("bin", opcode=opcode, operands=(a, b),
                                flags=flags)

    return tuple(tuple(spec_space(i)) for i in range(num_instructions))


def _space_size(spaces: Sequence[Sequence[_Spec]]) -> int:
    return math.prod(len(space) for space in spaces)


def _decode_index(spaces: Sequence[Sequence[_Spec]],
                  index: int) -> Tuple[_Spec, ...]:
    """Mixed-radix decode of a corpus index into one spec per position.

    Matches the ordering of ``itertools.product(*spaces)`` (the last
    position varies fastest), so slicing by index is equivalent to
    slicing the historical enumeration stream."""
    specs: List[Optional[_Spec]] = [None] * len(spaces)
    for i in range(len(spaces) - 1, -1, -1):
        index, digit = divmod(index, len(spaces[i]))
        specs[i] = spaces[i][digit]
    return tuple(specs)  # type: ignore[arg-type]


def enumerate_functions(num_instructions: int, width: int = 2,
                        num_args: int = 2,
                        opcodes: Sequence[Opcode] = SMALL_OPCODES,
                        include_deferred: bool = True,
                        include_flags: bool = False,
                        limit: Optional[int] = None,
                        start: int = 0,
                        stop: Optional[int] = None) -> Iterator[Function]:
    """Exhaustively enumerate straight-line functions.

    Mirrors opt-fuzz's corpus: ``num_instructions`` binary operations
    over ``iW``, operands drawn from arguments, constants, undef/poison,
    and prior results.

    The enumeration order is a fixed function of the parameters, and
    ``start``/``stop`` address it by index *without* walking the prefix:
    ``enumerate_functions(n, start=a, stop=b)`` produces exactly the
    functions a full enumeration would yield at positions ``[a, b)``.
    Campaign shards rely on this to partition the space.  ``limit``
    additionally caps the number of functions yielded."""
    spaces = _enum_spaces(num_instructions, width, num_args, tuple(opcodes),
                          include_deferred, include_flags)
    total = _space_size(spaces)
    start = max(0, start)
    stop = total if stop is None else min(stop, total)
    if limit is not None:
        stop = min(stop, start + limit)
    for index in range(start, stop):
        NUM_ENUMERATED.inc()
        yield _materialize(_decode_index(spaces, index), width, num_args,
                           include_deferred, f"fuzz{index}")


def function_at_index(index: int, num_instructions: int, width: int = 2,
                      num_args: int = 2,
                      opcodes: Sequence[Opcode] = SMALL_OPCODES,
                      include_deferred: bool = True,
                      include_flags: bool = False) -> Function:
    """Random access into the enumeration space: the function a full
    ``enumerate_functions`` run would yield at position ``index``."""
    spaces = _enum_spaces(num_instructions, width, num_args, tuple(opcodes),
                          include_deferred, include_flags)
    total = _space_size(spaces)
    if not 0 <= index < total:
        raise IndexError(f"corpus index {index} out of range [0, {total})")
    return _materialize(_decode_index(spaces, index), width, num_args,
                        include_deferred, f"fuzz{index}")


def count_functions(num_instructions: int, width: int = 2,
                    num_args: int = 2,
                    opcodes: Sequence[Opcode] = SMALL_OPCODES,
                    include_deferred: bool = True) -> int:
    total = 1
    for i in range(num_instructions):
        pool = _operand_pool_size(num_args, width, i, include_deferred)
        total *= len(opcodes) * pool * pool
    return total


def enumeration_size(num_instructions: int, width: int = 2,
                     num_args: int = 2,
                     opcodes: Sequence[Opcode] = SMALL_OPCODES,
                     include_deferred: bool = True,
                     include_flags: bool = False) -> int:
    """Exact size of the :func:`enumerate_functions` space — unlike
    :func:`count_functions` this accounts for ``include_flags``."""
    return _space_size(_enum_spaces(num_instructions, width, num_args,
                                    tuple(opcodes), include_deferred,
                                    include_flags))


def random_functions(count: int, num_instructions: int = 3,
                     width: int = 2, num_args: int = 2,
                     opcodes: Sequence[Opcode] = DEFAULT_OPCODES,
                     include_deferred: bool = True,
                     include_flags: bool = True,
                     include_select: bool = True,
                     seed: int = 0,
                     rng: Optional[random.Random] = None) -> Iterator[Function]:
    """Seeded random sample of the larger spaces (3+ instructions,
    flags, icmp/select).

    **Determinism:** the stream is a pure function of the generator
    parameters and the seed.  ``random.Random`` produces identical
    sequences for a given seed across processes and supported Python
    versions, so two workers (or a run and its later resume) that
    construct the same stream draw byte-identical corpora.  Pass ``rng``
    to supply the generator state explicitly — e.g. a campaign shard's
    derived stream — in which case ``seed`` is ignored."""
    rng = rng if rng is not None else random.Random(seed)
    preds = list(IcmpPred)
    for n in range(count):
        specs: List[_Spec] = []
        bool_positions: List[int] = []  # pool indices holding i1 values
        for i in range(num_instructions):
            pool = _operand_pool_size(num_args, width, i, include_deferred)
            # pool slots holding i1 results (icmp outputs) are only
            # usable as select conditions
            int_indices = [j for j in range(pool)
                           if j not in bool_positions]
            kind = "bin"
            if include_select and bool_positions and rng.random() < 0.15:
                kind = "select"
            elif rng.random() < 0.15:
                kind = "icmp"
            if kind == "bin":
                opcode = rng.choice(list(opcodes))
                flags: Tuple[str, ...] = ()
                if include_flags and opcode in (Opcode.ADD, Opcode.SUB,
                                                Opcode.MUL, Opcode.SHL) \
                        and rng.random() < 0.3:
                    flags = ("nsw",) if rng.random() < 0.7 else ("nuw",)
                specs.append(_Spec(
                    "bin", opcode=opcode, flags=flags,
                    operands=(rng.choice(int_indices),
                              rng.choice(int_indices)),
                ))
            elif kind == "icmp":
                specs.append(_Spec(
                    "icmp", pred=rng.choice(preds),
                    operands=(rng.choice(int_indices),
                              rng.choice(int_indices)),
                ))
                bool_positions.append(
                    _operand_pool_size(num_args, width, i,
                                       include_deferred))
            else:
                specs.append(_Spec(
                    "select",
                    operands=(rng.choice(bool_positions),
                              rng.choice(int_indices),
                              rng.choice(int_indices)),
                ))
        NUM_RANDOM.inc()
        yield _materialize(specs, width, num_args, include_deferred,
                           f"rand{n}")
