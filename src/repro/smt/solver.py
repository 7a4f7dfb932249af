"""Solver facade: one-shot :class:`Solver` over a fresh SAT instance
per query."""

from __future__ import annotations

from typing import List, Optional

from .bitblast import BitBlaster
from .sat import SAT, UNSAT, SatSolver
from .terms import BOOL, Term


class Solver:
    """One-shot satisfiability checking of a conjunction of terms."""

    def __init__(self, max_conflicts: Optional[int] = 200_000):
        self.sat = SatSolver()
        self.blaster = BitBlaster(self.sat)
        self.assertions: List[Term] = []
        self.max_conflicts = max_conflicts
        self._result: Optional[str] = None

    def add(self, term: Term) -> None:
        assert term.sort == BOOL
        self.assertions.append(term)
        self.blaster.assert_true(term)

    def check(self, deadline: Optional[float] = None) -> str:
        self._result = self.sat.solve(max_conflicts=self.max_conflicts,
                                      deadline=deadline)
        return self._result

    # -- model access (valid after a SAT result) ----------------------------------
    def model_bool(self, term: Term) -> bool:
        assert self._result == SAT
        if term.op == "var" and term not in self.blaster._bool_cache:
            return False  # never constrained
        return self.blaster.model_bool(term)

    def model_bv(self, term: Term) -> int:
        assert self._result == SAT
        if term.op == "var" and term not in self.blaster._bv_cache:
            return 0  # never constrained
        return self.blaster.model_bv(term)


def check_valid(term: Term,
                max_conflicts: Optional[int] = 200_000) -> str:
    """Is ``term`` valid (true under every assignment)?  Returns "valid",
    "invalid", or "unknown"."""
    from .terms import not_

    solver = Solver(max_conflicts)
    solver.add(not_(term))
    result = solver.check()
    if result == UNSAT:
        return "valid"
    if result == SAT:
        return "invalid"
    return "unknown"
