"""Campaign specifications: what to generate, how to optimize, how to check.

A :class:`CampaignSpec` is the complete, JSON-serializable description of
one validation campaign — corpus shape (exhaustive index range or seeded
random streams), the pipeline under test, the semantics configuration,
and the checker budgets.  The manifest written next to a campaign's
checkpoint stores exactly this spec, so ``campaign resume`` rebuilds the
same shard plan the interrupted run was executing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from ..opt import OptConfig
from ..opt.pipelines import CONFIGS, build_pipeline
from ..opt.resilience import CHAOS_MODES, POLICIES, ChaosEngine
from ..refine import CheckOptions
from .corpus import CorpusSpec


@dataclass(frozen=True)
class CampaignSpec(CorpusSpec):
    """Everything needed to reproduce a campaign from scratch."""

    #: campaign kind (see :func:`repro.campaign.executor._resolve_work`).
    kind: ClassVar[str] = "refine"
    #: shards address corpus indices (see
    #: :func:`repro.campaign.sharding.plan_shards`).
    index_shards: ClassVar[bool] = True

    #: "enumerate" walks an index range of the exhaustive space;
    #: "random" draws seeded streams (one derived seed per shard).
    mode: str = "enumerate"
    width: int = 2
    num_instructions: int = 1
    num_args: int = 2
    #: opcode names (e.g. ``("add", "shl")``); empty = the mode's default
    #: set (see :mod:`repro.campaign.corpus`).
    opcodes: Tuple[str, ...] = ()
    include_deferred: bool = True
    include_flags: bool = False
    #: random mode only: total functions to draw across all shards.
    count: int = 256
    #: random mode base seed; each shard derives its own stream seed.
    seed: int = 0
    #: a name in :data:`repro.opt.pipelines.PIPELINES`: "o2", "quick",
    #: "codegen", or a single-pass name ("instcombine", "gvn", ...).
    pipeline: str = "o2"
    #: "fixed" (NEW semantics, paper pipeline) or "legacy" (OLD
    #: semantics, historical pass behaviors).
    opt_config: str = "fixed"
    shard_size: int = 64
    #: exhaustive mode: cap on the number of corpus indices covered.
    limit: Optional[int] = None
    #: exhaustive mode: first corpus index to cover.
    start: int = 0
    #: refinement-checker budgets.
    max_choices: int = 20
    fuel: int = 600
    max_inputs: int = 20_000
    #: when the input space exceeds ``max_inputs``, check this many
    #: deterministically-sampled inputs instead of declaring the
    #: function inconclusive; verdicts become "verified (sampled)" —
    #: see :attr:`repro.refine.CheckOptions.sample_inputs`.
    sample_inputs: Optional[int] = None
    #: refinement engine: "auto" / "vector" attempt the numpy
    #: lane-parallel engine with transparent scalar fallback, "scalar"
    #: forces the interpreter (the differential oracle).
    engine: str = "auto"
    #: run every vector-eligible check under *both* engines and fail
    #: the function (as a crash record) on any verdict drift.
    cross_check: bool = False
    #: recovery policy for the pipeline under test: "none" runs the
    #: plain PassManager (a pass crash kills the whole shard) unless
    #: verify-each or chaos asks for the guard, which then runs strict,
    #: or recover under chaos (:func:`repro.opt.pipelines.build_pipeline`);
    #: everything else runs a GuardedPassManager, turning a pass crash
    #: into a per-function record with an attached crash bundle.
    policy: str = "recover"
    #: verify the function after every pass application (rolled back on
    #: rejection).  Forced on whenever chaos is enabled, so injected IR
    #: corruptions are caught at the faulting pass, not downstream.
    verify_each: bool = False
    #: chaos fault injection over the pipeline under test; None = off.
    chaos_seed: Optional[int] = None
    chaos_rate: float = 0.05
    chaos_mode: str = "mixed"
    #: consult/populate the behavior-set memo cache (``repro.perf``).
    #: Verdict sets are byte-identical with the cache on or off; off
    #: exists for benchmarking and distrust.
    use_cache: bool = True
    #: directory of the shared on-disk memo layer; None = in-memory
    #: only.  The runner defaults this to ``<out_dir>/memo``.
    cache_dir: Optional[str] = None
    #: span-tracing output: each shard streams spans to
    #: ``<trace_dir>/spans-shard<id>.jsonl``; None = tracing off.
    #: Deliberately absent from :meth:`memo_context` — tracing must
    #: never change a verdict.
    trace_dir: Optional[str] = None

    def __post_init__(self):
        if self.mode not in ("enumerate", "random"):
            raise ValueError(f"unknown campaign mode {self.mode!r}")
        if self.opt_config not in CONFIGS:
            raise ValueError(f"unknown opt config {self.opt_config!r}")
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.policy != "none" and self.policy not in POLICIES:
            raise ValueError(f"unknown recovery policy {self.policy!r}")
        if self.chaos_mode not in CHAOS_MODES:
            raise ValueError(f"unknown chaos mode {self.chaos_mode!r}")
        if self.engine not in ("auto", "scalar", "vector"):
            raise ValueError(f"unknown refinement engine {self.engine!r}")
        if self.sample_inputs is not None and self.sample_inputs <= 0:
            raise ValueError("sample_inputs must be positive")
        self.corpus  # raises ValueError on an unknown opcode name

    # -- derived configuration --------------------------------------------
    def corpus_window(self) -> Dict:
        if self.mode == "random":
            return {"limit": self.count, "seed": self.seed}
        return {"start": self.start, "limit": self.limit}

    def make_opt_config(self) -> OptConfig:
        return CONFIGS[self.opt_config]

    def semantics(self):
        return CONFIGS[self.opt_config].semantics

    def make_pipeline(self):
        chaos = (ChaosEngine(seed=self.chaos_seed, rate=self.chaos_rate,
                             mode=self.chaos_mode)
                 if self.chaos_seed is not None else None)
        return build_pipeline(
            self.pipeline, self.make_opt_config(), policy=self.policy,
            verify_each=self.verify_each or chaos is not None, chaos=chaos)

    def check_options(self) -> CheckOptions:
        return CheckOptions(max_choices=self.max_choices, fuel=self.fuel,
                            max_inputs=self.max_inputs,
                            sample_inputs=self.sample_inputs,
                            engine=self.engine,
                            cross_check=self.cross_check)

    def memo_context(self) -> str:
        """Hash of every non-function input the refinement verdict
        depends on — the scope key of the behavior-set memo cache.
        Two specs sharing a context may share memo entries; anything
        that could change a verdict (pipeline, semantics, budgets) must
        appear here."""
        import hashlib
        import json as json_module

        relevant = {
            "pipeline": self.pipeline,
            "opt_config": self.opt_config,
            "policy": self.policy,
            "verify_each": self.verify_each,
            "width": self.width,
            "max_choices": self.max_choices,
            "fuel": self.fuel,
            "max_inputs": self.max_inputs,
        }
        # Verdict-relevant knobs added after the cache format shipped
        # join the context only at non-default values, so default-spec
        # contexts (and every memo entry recorded under them) are
        # unchanged.  ``sample_inputs`` MUST be here: a sampled
        # "verified" is evidence, not proof, and may never be replayed
        # into a context that would have enumerated exhaustively.
        # ``engine`` is here for distrust symmetry — the engines are
        # byte-identical by construction, but if that ever breaks, the
        # cache must not launder one engine's verdicts into the other's
        # context.  ``cross_check`` is deliberately absent: it can only
        # raise, never alter a returned verdict (and memoization is
        # disabled under it, see :meth:`memo_enabled`).
        if self.sample_inputs is not None:
            relevant["sample_inputs"] = self.sample_inputs
        if self.engine != "auto":
            relevant["engine"] = self.engine
        blob = json_module.dumps(relevant, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def memo_enabled(self) -> bool:
        """Memoization is sound only for deterministic pipelines: chaos
        injection draws from an engine shared across a shard, so
        skipping one function would shift every later function's
        faults.  Cross-check mode also disables it — a memo replay
        skips both engines, which is exactly the comparison the mode
        exists to run."""
        return (self.use_cache and self.chaos_seed is None
                and not self.cross_check)
