"""Lane-parallel refinement checking over numpy array programs.

:func:`check_refinement_vector` is the vector engine behind
``check_refinement(engine="vector")``: it lowers both functions with
:mod:`repro.semantics.vector`, lays the *entire* input space out as
array lanes (one lane per input tuple, in the scalar checker's
``itertools.product`` order, with undef after poison exactly as
``scalar_candidates`` orders them), runs each side once — every undef
use, freeze and nondeterministic branch forks lanes, so one run yields
every oracle path of every input — and applies the Alive coverage rule
(`refinement.check_behavior_sets`) as per-input array algebra.

In the eligible fragment poison and undef are whole-value, so a
behavior's return bits are all concrete, all ``PBIT`` or all ``UBIT``,
and the bit-level coverage rule collapses to this, per input:

* source UB on any path covers everything;
* a target poison needs a source poison;
* a target value ``v`` needs a source poison, a source undef, or a
  source path returning ``v``;
* a target undef needs a source poison, a source undef, or source paths
  returning all ``2^w`` values (union coverage over its concretizations);
* target UB needs source UB.

The engine either returns a result **byte-identical** to the scalar
checker's (same verdict, same ``inputs_checked``, same rendered
counterexample — the first failing input in enumeration order is re-run
through the scalar interpreter to materialize the witness) or raises
:class:`~repro.semantics.vector.VectorIneligible` wherever the scalar
oracle would not decide an input: more oracle paths than ``max_paths``
on one input (``input-paths``), an uncovered target undef whose
``2^w`` concretizations exceed ``undef_expansion_cap``
(``undef-expansion``), more fork sites on one path than ``max_choices``
(``choice-points``), plus the lowering's own limits such as a fixed
cap on live lanes (``lane-cap``).  The dispatcher
then falls back to the scalar engine, which stays the differential
oracle; ``CheckOptions.cross_check`` runs both and asserts the equality
instead of assuming it.

A request deadline is honoured at the start only: a check whose deadline
has already passed returns the scalar engine's ``request deadline
expired after 0 inputs`` verdict, and any other check runs to
completion (one lane-parallel pass is short next to any deadline).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..diag import Statistic
from ..ir.function import Function
from ..semantics.config import SemanticsConfig
from ..semantics.interp import enumerate_behaviors
from ..semantics.vector import (
    VectorIneligible,
    VectorPlan,
    numpy_available,
)
from .refinement import check_behavior_sets

# Bound as a module, its names read at call time: refine.exhaustive
# imports this module in turn.
from . import exhaustive

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

NUM_VECTOR_CHECKS = Statistic(
    "refine", "num-vector-checks",
    "Refinement checks decided by the vector (numpy) engine")
NUM_VECTOR_FALLBACKS = Statistic(
    "refine", "num-vector-fallbacks",
    "Vector-engine attempts that fell back to the scalar interpreter")
NUM_CROSS_CHECKS = Statistic(
    "refine", "num-cross-checks",
    "Refinement checks run under both engines and compared")
NUM_VECTOR_LANES = Statistic(
    "refine", "num-vector-lanes",
    "Input lanes decided by vector plan executions")

#: lane-index arrays are pure functions of (arg widths, poison flag,
#: undef flag); cache them across checks of a same-shaped corpus.
_LANE_CACHE: Dict[Tuple[Tuple[int, ...], bool, bool], tuple] = {}
_LANE_CACHE_CAP = 32


def _lane_arrays(widths: Tuple[int, ...], poison_inputs: bool,
                 undef_inputs: bool):
    """``(total, args)``: per-argument ``(val, pois, undef)`` lane
    arrays covering the full input cross product, lane ``i`` being the
    ``i``-th tuple of the scalar checker's ``itertools.product``
    enumeration (last argument varies fastest).  A flag the inputs do
    not range over is the scalar ``False``."""
    key = (widths, poison_inputs, undef_inputs)
    cached = _LANE_CACHE.get(key)
    if cached is not None:
        return cached
    sizes = [(1 << w) + poison_inputs + undef_inputs for w in widths]
    total = 1
    for k in sizes:
        total *= k
    lane = np.arange(total, dtype=np.int64)
    args: List[tuple] = []
    stride = total
    for w, k in zip(widths, sizes):
        stride //= k
        idx = (lane // stride) % k
        pois = (idx == (1 << w)) if poison_inputs else np.False_
        undef = (idx == k - 1) if undef_inputs else np.False_
        args.append((np.where(pois | undef, 0, idx), pois, undef))
    if len(_LANE_CACHE) >= _LANE_CACHE_CAP:
        _LANE_CACHE.clear()
    result = (total, args)
    _LANE_CACHE[key] = result
    return result


#: per-input source levels, each licensing what the ones below it do:
#: an undef return covers any non-poison target behavior, a poison
#: return any returning one, UB everything
_UNDEF, _POISON, _UB = 1, 2, 3


def _union_covered(tgt, have, src_keys, n: int, space: int,
                   undef_cap: int):
    """Target undef rows whose input has no wild source behavior but
    source paths returning all ``space`` values (union coverage)."""
    needs_union = tgt.undef & (have == 0)
    if not np.count_nonzero(needs_union):
        return needs_union
    if space > undef_cap:
        raise VectorIneligible(
            "undef-expansion",
            f"a target undef needs {space} concretizations "
            f"(undef_expansion_cap {undef_cap})")
    distinct = src_keys[np.diff(src_keys, prepend=-1) != 0]
    values_seen = np.bincount(distinct // space, minlength=n)
    return needs_union & (values_seen[tgt.idx] == space)


def _first_failing_input(src, tgt, n: int, ret_width: Optional[int],
                         undef_cap: int) -> Optional[int]:
    """The first input the coverage algebra (see the module docstring)
    fails, or None; raises where the scalar oracle would be
    inconclusive."""
    space = 1 << ret_width if ret_width is not None else 1
    # assigned in increasing strength, so the strongest level wins
    level = np.zeros(n, dtype=np.int8)
    if src.undef is not None:
        level[src.idx[src.undef]] = _UNDEF
    level[src.idx[src.pois]] = _POISON
    level[src.ub] = _UB

    i = tgt.idx
    have = level[i]
    covered = have > tgt.pois  # a poison target needs _POISON, others _UNDEF
    # Sorted (input, value) keys of the source returns.  Poison and
    # undef rows add a key too, which never matters: their input's
    # level already covers every target value and needs no union.
    src_keys = np.sort(src.idx * space + src.val)
    keys = i * space + tgt.val
    found = (np.searchsorted(src_keys, keys, "right")
             > np.searchsorted(src_keys, keys))
    if tgt.undef is None:
        covered |= found & ~tgt.pois
    else:
        covered |= found & ~(tgt.pois | tgt.undef)
        covered |= _union_covered(tgt, have, src_keys, n, space, undef_cap)
    failing = [i[~covered]]
    if len(tgt.ub):
        failing.append(tgt.ub[level[tgt.ub] < _UB])
    first = [int(f.min()) for f in failing if len(f)]
    return min(first) if first else None


def check_refinement_vector(src: Function, tgt: Function,
                            config: SemanticsConfig,
                            tgt_config: Optional[SemanticsConfig],
                            options) -> "RefinementResult":
    """Vector-engine refinement check; byte-identical to the scalar
    engine when it returns, :class:`VectorIneligible` when it cannot
    promise that."""
    if np is None:
        raise VectorIneligible(
            "numpy-unavailable",
            "numpy is not installed (pip install 'repro[vector]')")
    tgt_config = tgt_config or config

    # The scalar engine's signature mismatches produce canonical
    # inconclusive verdicts; routing them through the fallback keeps
    # those strings byte-identical.
    if len(src.args) != len(tgt.args):
        raise VectorIneligible("signature", "argument count mismatch")
    for a, b in zip(src.args, tgt.args):
        if a.type is not b.type:
            raise VectorIneligible("signature", "argument type mismatch")
    if src.return_type is not tgt.return_type:
        raise VectorIneligible("signature", "return type mismatch")

    src_plan = VectorPlan(src, config, max_choices=options.max_choices,
                          fuel=options.fuel)
    tgt_plan = VectorPlan(tgt, tgt_config, max_choices=options.max_choices,
                          fuel=options.fuel)

    # Same input space as the scalar engine: undef arguments only when
    # both sides have undef (the cross-semantics rule in exhaustive.py).
    undef_inputs = (options.undef_inputs and config.has_undef
                    and tgt_config.has_undef)
    widths = tuple(a.type.bits for a in src.args)
    total, arg_lanes = _lane_arrays(widths, options.poison_inputs,
                                    undef_inputs)
    if total > options.max_inputs:
        # Scalar owns both the "input space too large" inconclusive and
        # the sample_inputs fallback.
        raise VectorIneligible(
            "input-space",
            f"input space {total} exceeds max_inputs={options.max_inputs}")
    if options.deadline is not None and time.monotonic() >= options.deadline:
        exhaustive.NUM_DEADLINE_ABORTS.inc()
        return exhaustive.RefinementResult(
            "inconclusive",
            reason=f"{exhaustive.DEADLINE_REASON} expired after 0 inputs")

    src_out = src_plan.run(arg_lanes, total)
    tgt_out = tgt_plan.run(arg_lanes, total)
    for side, out in (("source", src_out), ("target", tgt_out)):
        if len(out.idx) + len(out.ub) <= options.max_paths:
            continue  # no input can have more paths than all of them
        worst = int(out.paths.max())
        if worst > options.max_paths:
            # The scalar oracle gives up on such an input
            # (PathLimitExceeded) and the check turns inconclusive.
            raise VectorIneligible(
                "input-paths",
                f"a {side} input has {worst} oracle paths "
                f"(max_paths={options.max_paths})")
    lane = _first_failing_input(src_out, tgt_out, total,
                                src_plan.ret_width,
                                options.undef_expansion_cap)
    NUM_VECTOR_LANES.inc(total)
    if lane is None:
        return exhaustive.RefinementResult("verified", inputs_checked=total)

    # Materialize the exact scalar counterexample by re-running the
    # interpreter on the first failing input (witness selection,
    # behavior formatting, and the src-behavior listing all come from
    # the oracle itself).
    arg_spaces = [
        exhaustive.input_candidates(a.type, config, options.poison_inputs,
                                    undef_inputs)
        for a in src.args
    ]
    args = []
    stride = total
    for space in arg_spaces:
        stride //= len(space)
        args.append(space[(lane // stride) % len(space)])
    args = tuple(args)

    src_b = enumerate_behaviors(
        src, args, config, global_init={},
        max_paths=options.max_paths, max_choices=options.max_choices,
        fuel=options.fuel, stop_on_ub=True,
    )
    tgt_b = enumerate_behaviors(
        tgt, args, tgt_config, global_init={},
        max_paths=options.max_paths, max_choices=options.max_choices,
        fuel=options.fuel,
    )
    oracle = check_behavior_sets(
        src_b, tgt_b,
        undef_cap=options.undef_expansion_cap,
        function=tgt.name,
    )
    if oracle.ok or oracle.inconclusive:
        # The oracle disagrees with the lane algebra on this input —
        # refuse to decide and let the scalar engine rule (and surface
        # the disagreement in the fallback stats).
        raise VectorIneligible(
            "lane-disagreement",
            f"vector engine flagged lane {lane} of @{tgt.name} but the "
            f"scalar oracle does not fail it")
    cex = exhaustive.Counterexample(
        args=args,
        arg_types=tuple(a.type for a in src.args),
        global_init=(),
        witness=oracle.witness,
        src_behaviors=tuple(src_b),
    )
    return exhaustive.RefinementResult("failed", counterexample=cex,
                                       inputs_checked=lane + 1)


__all__ = [
    "check_refinement_vector",
    "numpy_available",
    "VectorIneligible",
    "NUM_VECTOR_CHECKS",
    "NUM_VECTOR_FALLBACKS",
    "NUM_CROSS_CHECKS",
    "NUM_VECTOR_LANES",
]
