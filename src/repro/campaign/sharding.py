"""Partitioning a campaign's corpus into independent work units.

Exhaustive campaigns shard their :class:`~repro.campaign.corpus.Corpus`
by *position range*: the corpus addresses any position directly
(mixed-radix decoding, no prefix walk), so a shard's corpus is a pure
function of the spec and the shard id.  Random campaigns give
each shard its own *derived stream seed*, mixed from the campaign seed
and the shard id — shard corpora are therefore independent of worker
count, scheduling order, and how many times the campaign was resumed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

from ..ir import Function
from .spec import CampaignSpec

#: odd 32-bit mixing constant (golden-ratio hash), so consecutive shard
#: ids land on well-separated stream seeds.
_SEED_MIX = 0x9E3779B1


def shard_stream_seed(base_seed: int, shard_id: int) -> int:
    """The derived RNG seed for a random-mode shard."""
    return (base_seed ^ ((shard_id + 1) * _SEED_MIX)) & 0xFFFFFFFF


@dataclass(frozen=True)
class Shard:
    """One work unit: a contiguous corpus window ``[start, stop)`` (see
    :func:`plan_shards`) plus, in random mode, the shard's derived
    stream seed."""

    shard_id: int
    start: int
    stop: int
    seed: Optional[int] = None

    @property
    def size(self) -> int:
        return self.stop - self.start

    def as_dict(self) -> Dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: Dict) -> "Shard":
        return Shard(**data)


def plan_shards(spec) -> List[Shard]:
    """The full shard plan of a campaign of either kind — a pure
    function of the spec.

    Shards cut the spec's corpus positions into runs of ``shard_size``.
    A refine shard's ``[start, stop)`` names corpus indices (its corpus
    is contiguous), a lint-attack shard's names positions; random corpora
    start at 0, where the two agree."""
    corpus = spec.corpus
    total = len(corpus)
    origin = corpus.start if spec.index_shards else 0
    return [
        Shard(shard_id, origin + lo,
              origin + min(lo + spec.shard_size, total),
              None if corpus.seed is None
              else shard_stream_seed(corpus.seed, shard_id))
        for shard_id, lo in enumerate(range(0, total, spec.shard_size))
    ]


def iter_shard_functions(spec: CampaignSpec,
                         shard: Shard) -> Iterator[Function]:
    """Generate exactly the functions this refine shard is responsible
    for."""
    corpus = spec.corpus
    yield from corpus.functions(shard.start - corpus.start,
                                shard.stop - corpus.start, shard.seed)
