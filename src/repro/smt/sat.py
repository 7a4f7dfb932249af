"""A CDCL SAT solver.

Implements the standard modern architecture: two-watched-literal clause
propagation, first-UIP conflict analysis with clause learning, VSIDS-ish
activity-driven branching with phase saving, and Luby-sequence restarts.
Small but genuine — it decides the bit-blasted refinement queries the
symbolic checker produces (thousands of variables) in milliseconds to
seconds.

Literal convention: a literal is a nonzero int; ``v`` means variable
``v`` true, ``-v`` means false (DIMACS style).  Variables are numbered
from 1.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class Clause:
    __slots__ = ("literals", "learned", "activity")

    def __init__(self, literals: List[int], learned: bool = False):
        self.literals = literals
        self.learned = learned
        self.activity = 0.0

    def __repr__(self) -> str:
        return f"Clause({self.literals})"


class SatSolver:
    def __init__(self):
        self.num_vars = 0
        self.clauses: List[Clause] = []
        #: literal -> clauses watching it
        self.watches: Dict[int, List[Clause]] = {}
        #: variable -> None / bool
        self.assignment: List[Optional[bool]] = [None]
        self.level: List[int] = [0]
        self.reason: List[Optional[Clause]] = [None]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.activity: List[float] = [0.0]
        self.phase: List[bool] = [False]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.propagate_head = 0
        self.ok = True
        self.conflicts = 0
        #: last solve() stopped because its deadline expired
        self.deadline_hit = False

    # -- variable / clause management ---------------------------------------
    def new_var(self) -> int:
        self.num_vars += 1
        v = self.num_vars
        self.assignment.append(None)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        self.watches.setdefault(v, [])
        self.watches.setdefault(-v, [])
        return v

    def value_of(self, lit: int) -> Optional[bool]:
        v = self.assignment[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a problem clause; returns False if the formula is already
        unsatisfiable."""
        if not self.ok:
            return False
        seen = set()
        out: List[int] = []
        for lit in literals:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            value = self.value_of(lit)
            if value is True and self.level[abs(lit)] == 0:
                return True  # satisfied at top level
            if value is False and self.level[abs(lit)] == 0:
                continue  # falsified at top level: drop the literal
            out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                return False
            return True
        clause = Clause(out)
        self.clauses.append(clause)
        self._watch(clause)
        return True

    def _watch(self, clause: Clause) -> None:
        self.watches.setdefault(-clause.literals[0], []).append(clause)
        self.watches.setdefault(-clause.literals[1], []).append(clause)

    # -- trail management ---------------------------------------------------------
    def _enqueue(self, lit: int, reason: Optional[Clause]) -> bool:
        value = self.value_of(lit)
        if value is not None:
            return value
        v = abs(lit)
        self.assignment[v] = lit > 0
        self.level[v] = self.decision_level
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def _decide(self, lit: int) -> None:
        self.trail_lim.append(len(self.trail))
        self._enqueue(lit, None)

    def _backtrack(self, target_level: int) -> None:
        if target_level >= self.decision_level:
            return  # already at (or below) the target: nothing to undo
        while len(self.trail) > self.trail_lim[target_level]:
            lit = self.trail.pop()
            v = abs(lit)
            self.phase[v] = self.assignment[v]  # phase saving
            self.assignment[v] = None
            self.reason[v] = None
        del self.trail_lim[target_level:]
        self.propagate_head = min(self.propagate_head, len(self.trail))

    # -- unit propagation ---------------------------------------------------------
    def _propagate(self) -> Optional[Clause]:
        while self.propagate_head < len(self.trail):
            lit = self.trail[self.propagate_head]
            self.propagate_head += 1
            watching = self.watches.get(lit, [])
            i = 0
            while i < len(watching):
                clause = watching[i]
                lits = clause.literals
                # normalize: watched literals are positions 0 and 1
                if lits[0] == -lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self.value_of(first) is True:
                    i += 1
                    continue
                # find a new watch
                found = False
                for k in range(2, len(lits)):
                    if self.value_of(lits[k]) is not False:
                        lits[1], lits[k] = lits[k], lits[1]
                        self.watches.setdefault(-lits[1], []).append(clause)
                        watching[i] = watching[-1]
                        watching.pop()
                        found = True
                        break
                if found:
                    continue
                # clause is unit or conflicting
                if self.value_of(first) is False:
                    self.propagate_head = len(self.trail)
                    return clause
                self._enqueue(first, clause)
                i += 1
        return None

    # -- conflict analysis (first UIP) ------------------------------------------------
    def _analyze(self, conflict: Clause) -> Tuple[List[int], int]:
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = None
        clause: Optional[Clause] = conflict
        index = len(self.trail) - 1

        while True:
            assert clause is not None
            for q in clause.literals:
                if lit is not None and q == lit:
                    continue
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] == self.decision_level:
                        counter += 1
                    else:
                        learned.append(q)
            # pick the next trail literal to resolve on
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            v = abs(lit)
            seen[v] = False
            counter -= 1
            index -= 1
            if counter == 0:
                learned[0] = -lit
                break
            clause = self.reason[v]

        # backtrack level: second-highest level in the learned clause
        if len(learned) == 1:
            bt = 0
        else:
            bt = max(self.level[abs(q)] for q in learned[1:])
        return learned, bt

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.num_vars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100

    # -- main search --------------------------------------------------------------
    def solve(self, max_conflicts: Optional[int] = None,
              deadline: Optional[float] = None) -> str:
        """``deadline`` is an absolute :func:`time.monotonic` instant;
        past it the search stops with UNKNOWN (``deadline_hit`` set), so
        a hung query honors its request's budget like fuel."""
        self.deadline_hit = False
        if not self.ok:
            return UNSAT
        conflict = self._propagate()
        if conflict is not None:
            self.ok = False
            return UNSAT

        restart_idx = 0
        conflicts_until_restart = 32 * _luby(restart_idx)
        total_conflicts = 0
        steps = 0

        while True:
            if deadline is not None:
                steps += 1
                if steps % 64 == 0 and time.monotonic() >= deadline:
                    self.deadline_hit = True
                    self._backtrack(0)
                    return UNKNOWN
            conflict = self._propagate()
            if conflict is not None:
                total_conflicts += 1
                self.conflicts += 1
                if self.decision_level == 0:
                    self.ok = False
                    return UNSAT
                if max_conflicts is not None \
                        and total_conflicts > max_conflicts:
                    self._backtrack(0)
                    return UNKNOWN
                learned, bt_level = self._analyze(conflict)
                if bt_level >= self.decision_level:
                    self._backtrack(max(0, self.decision_level - 1))
                else:
                    self._backtrack(bt_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self.ok = False
                        return UNSAT
                else:
                    clause = Clause(learned, learned=True)
                    # ensure the asserting literal is watched along with
                    # a literal from the backtrack level
                    self.clauses.append(clause)
                    self._order_watches(clause)
                    self._watch(clause)
                    self._enqueue(learned[0], clause)
                self.var_inc /= self.var_decay
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_idx += 1
                    conflicts_until_restart = 32 * _luby(restart_idx)
                    self._backtrack(0)
                continue

            lit = self._pick_branch()
            if lit is None:
                return SAT
            self._decide(lit)

    def _order_watches(self, clause: Clause) -> None:
        """Put the asserting literal first and a highest-level literal
        second, as the watched-literal invariant requires."""
        lits = clause.literals
        best = 1
        for k in range(2, len(lits)):
            if self.level[abs(lits[k])] > self.level[abs(lits[best])]:
                best = k
        lits[1], lits[best] = lits[best], lits[1]

    def _pick_branch(self) -> Optional[int]:
        best_v = None
        best_a = -1.0
        for v in range(1, self.num_vars + 1):
            if self.assignment[v] is None and self.activity[v] > best_a:
                best_a = self.activity[v]
                best_v = v
        if best_v is None:
            return None
        return best_v if self.phase[best_v] else -best_v

    # -- model ---------------------------------------------------------------------
    def model_value(self, v: int) -> bool:
        value = self.assignment[v]
        return bool(value)


def _luby(i: int) -> int:
    """The Luby restart sequence 1 1 2 1 1 2 4 ..."""
    k = 1
    while (1 << (k + 1)) - 1 <= i + 1:
        k += 1
    while (1 << k) - 1 != i + 1:
        i = i - ((1 << (k - 1)) - 1) - 1
        k -= 1
        while (1 << (k + 1)) - 1 <= i + 1:
            k += 1
    return 1 << (k - 1)
