"""The seed corpus every campaign kind walks.

Refine campaigns, ``campaign lint-attack`` and ``campaign lint-audit``
draw their functions from the opt-fuzz space of the paper's §6.  A
:class:`Corpus` is one walk over it, and this module alone decides how
the walk reads: an empty opcode list means ``SMALL_OPCODES`` for an
exhaustive corpus and ``DEFAULT_OPCODES`` for a random one; exhaustive
position ``p`` is corpus index ``start + p * stride``, at most ``limit``
of them; a random corpus (``seed`` set) has ``limit`` positions, drawn
in runs from streams seeded per run (a shard's derived seed).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..fuzz import (
    DEFAULT_OPCODES,
    SMALL_OPCODES,
    enumerate_functions,
    enumeration_size,
    function_at_index,
    random_functions,
)
from ..ir import Function, Opcode


@dataclass(frozen=True)
class Corpus:
    """A frozen seed corpus: shape, resolved opcodes and window."""

    num_instructions: int
    width: int = 2
    num_args: int = 2
    opcodes: Tuple[Opcode, ...] = SMALL_OPCODES
    include_deferred: bool = True
    include_flags: bool = False
    start: int = 0
    #: cap on the number of positions; required for random corpora.
    limit: Optional[int] = None
    stride: int = 1
    #: random corpora: the campaign's base seed; None = exhaustive.
    seed: Optional[int] = None

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    @classmethod
    def of(cls, opcode_names: Sequence[str] = (), **fields) -> "Corpus":
        """The corpus over the named opcodes, or its kind's default set
        when none are named; raises ValueError on an unknown name."""
        default = (SMALL_OPCODES if fields.get("seed") is None
                   else DEFAULT_OPCODES)
        return cls(opcodes=tuple(Opcode(name) for name in opcode_names)
                   or default, **fields)

    def _shape(self) -> Dict:
        return {"width": self.width, "num_args": self.num_args,
                "opcodes": self.opcodes,
                "include_deferred": self.include_deferred,
                "include_flags": self.include_flags}

    @property
    def space_size(self) -> int:
        """Size of the whole enumeration space of this shape."""
        return enumeration_size(self.num_instructions, **self._shape())

    def __len__(self) -> int:
        if self.seed is not None:
            return self.limit
        n = len(range(self.start, self.space_size, self.stride))
        return n if self.limit is None else min(n, self.limit)

    def index_at(self, position: int) -> int:
        return self.start + position * self.stride

    def function_at(self, position: int) -> Function:
        """The exhaustive corpus's function at ``position``."""
        return function_at_index(self.index_at(position),
                                 self.num_instructions, **self._shape())

    def functions(self, lo: int, hi: int,
                  stream_seed: Optional[int] = None) -> Iterator[Function]:
        """The functions at positions ``[lo, hi)``, in order.  A random
        corpus instead draws ``hi - lo`` functions from the stream that
        ``stream_seed`` seeds."""
        if self.seed is not None:
            yield from random_functions(
                hi - lo, num_instructions=self.num_instructions,
                rng=random.Random(stream_seed), **self._shape())
        elif self.stride == 1:
            yield from enumerate_functions(
                self.num_instructions, start=self.index_at(lo),
                stop=self.index_at(hi), **self._shape())
        else:
            for position in range(lo, hi):
                yield self.function_at(position)


class CorpusSpec:
    """What both campaign specs share: the :class:`Corpus` their shape
    fields and ``corpus_window()`` name, and a JSON form that writes
    tuple fields as lists."""

    @cached_property
    def corpus(self) -> Corpus:
        return Corpus.of(
            self.opcodes, num_instructions=self.num_instructions,
            width=self.width, num_args=self.num_args,
            include_deferred=self.include_deferred,
            include_flags=self.include_flags, **self.corpus_window())

    def total_functions(self) -> int:
        """Number of corpus positions the campaign covers (across all
        shards)."""
        return len(self.corpus)

    def as_dict(self) -> Dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: Dict):
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in data.items()})

    def with_(self, **changes):
        return replace(self, **changes)
