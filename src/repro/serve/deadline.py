"""One deadline, end to end.

A request's time budget is set exactly once — by the client (payload
``"timeout"``) or the server default — and everything downstream
*inherits* it instead of inventing its own: the asyncio request wrapper,
the shard pool (which kills workers that outlive it), and the checker
loops (exhaustive input enumeration, the CDCL solver's conflict loop)
which treat it as a fuel-like budget.  The invariant this buys: **no
piece of work outlives the request that asked for it** — a hung SMT
query cannot pin a worker after its client has already been answered
with a ``timeout`` error.

Representation: an absolute :func:`time.monotonic` instant, a plain
float (``None`` = no deadline).  Absolute instants compose across
layers (each hop subtracts nothing, forwards the same number) where
relative timeouts would silently re-grant the full budget at every
hop.

Verdicts aborted by a deadline are a property of *this request's*
budget, not of the checked function — they must never enter the memo store
(:mod:`repro.campaign.worker` skips recording them).
"""

from __future__ import annotations

import math


def validate_timeout(value, name: str = "timeout") -> float:
    """Return ``value`` as a positive, finite float or raise ValueError.

    The wire payload field and the CLI flags funnel through here, so a
    client sending ``"timeout": "ten"`` or ``-5`` gets one structured
    ``bad-payload`` error instead of a traceback deep in ``wait_for``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"{name} must be a number of seconds, got {value!r}")
    seconds = float(value)
    if not math.isfinite(seconds):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if seconds <= 0:
        raise ValueError(
            f"{name} must be positive, got {value!r}")
    return seconds

