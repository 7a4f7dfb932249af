"""Bit-blasting: lower :mod:`repro.smt.terms` into CNF via Tseitin.

Each boolean term maps to a SAT literal; each bitvector term maps to a
list of literals (LSB first).  Gates are emitted through the
:class:`GateBuilder`, which implements the standard Tseitin encodings
plus ripple-carry adders, shift-and-add multipliers, a restoring
division circuit, and barrel shifters — everything the IR's arithmetic
needs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .sat import SatSolver
from .terms import BOOL, FALSE, TRUE, Term


class GateBuilder:
    """Tseitin gate encodings into a :class:`SatSolver`."""

    def __init__(self, solver: SatSolver):
        self.solver = solver
        self._true_lit = None
        self._and_cache: Dict[Tuple[int, int], int] = {}
        self._or_cache: Dict[Tuple[int, int], int] = {}
        self._xor_cache: Dict[Tuple[int, int], int] = {}

    def true_lit(self) -> int:
        if self._true_lit is None:
            self._true_lit = self.solver.new_var()
            self.solver.add_clause([self._true_lit])
        return self._true_lit

    def false_lit(self) -> int:
        return -self.true_lit()

    def fresh(self) -> int:
        return self.solver.new_var()

    # -- basic gates -----------------------------------------------------------
    def and_gate(self, a: int, b: int) -> int:
        if a == b:
            return a
        if a == -b:
            return self.false_lit()
        if a == self.true_lit():
            return b
        if b == self.true_lit():
            return a
        if a == self.false_lit() or b == self.false_lit():
            return self.false_lit()
        key = (min(a, b), max(a, b))
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        out = self.fresh()
        self.solver.add_clause([-out, a])
        self.solver.add_clause([-out, b])
        self.solver.add_clause([out, -a, -b])
        self._and_cache[key] = out
        return out

    def or_gate(self, a: int, b: int) -> int:
        return -self.and_gate(-a, -b)

    def xor_gate(self, a: int, b: int) -> int:
        if a == b:
            return self.false_lit()
        if a == -b:
            return self.true_lit()
        if a == self.false_lit():
            return b
        if b == self.false_lit():
            return a
        if a == self.true_lit():
            return -b
        if b == self.true_lit():
            return -a
        key = (min(a, b), max(a, b))
        cached = self._xor_cache.get(key)
        if cached is not None:
            return cached
        out = self.fresh()
        self.solver.add_clause([-out, a, b])
        self.solver.add_clause([-out, -a, -b])
        self.solver.add_clause([out, -a, b])
        self.solver.add_clause([out, a, -b])
        self._xor_cache[key] = out
        return out

    def ite_gate(self, c: int, a: int, b: int) -> int:
        if a == b:
            return a
        return self.or_gate(self.and_gate(c, a), self.and_gate(-c, b))

    def iff_gate(self, a: int, b: int) -> int:
        return -self.xor_gate(a, b)

    def and_many(self, lits: List[int]) -> int:
        out = self.true_lit()
        for lit in lits:
            out = self.and_gate(out, lit)
        return out

    def or_many(self, lits: List[int]) -> int:
        out = self.false_lit()
        for lit in lits:
            out = self.or_gate(out, lit)
        return out

    # -- arithmetic circuits ------------------------------------------------------
    def full_adder(self, a: int, b: int, cin: int) -> Tuple[int, int]:
        s = self.xor_gate(self.xor_gate(a, b), cin)
        cout = self.or_gate(
            self.and_gate(a, b),
            self.and_gate(cin, self.xor_gate(a, b)),
        )
        return s, cout

    def adder(self, a: List[int], b: List[int],
              cin: int = None) -> Tuple[List[int], int]:
        carry = cin if cin is not None else self.false_lit()
        out = []
        for x, y in zip(a, b):
            s, carry = self.full_adder(x, y, carry)
            out.append(s)
        return out, carry

    def negate(self, a: List[int]) -> List[int]:
        inverted = [-x for x in a]
        one = [self.true_lit()] + [self.false_lit()] * (len(a) - 1)
        out, _ = self.adder(inverted, one)
        return out

    def subtract(self, a: List[int], b: List[int]) -> Tuple[List[int], int]:
        """Returns (a - b, borrow-free flag: carry out of a + ~b + 1)."""
        inverted = [-x for x in b]
        out, carry = self.adder(a, inverted, cin=self.true_lit())
        return out, carry

    def multiplier(self, a: List[int], b: List[int]) -> List[int]:
        width = len(a)
        acc = [self.false_lit()] * width
        for i in range(width):
            partial = [self.false_lit()] * i + [
                self.and_gate(a[j], b[i]) for j in range(width - i)
            ]
            acc, _ = self.adder(acc, partial)
        return acc

    def divider(self, a: List[int], b: List[int]
                ) -> Tuple[List[int], List[int]]:
        """Restoring division: returns (quotient, remainder); when the
        divisor is zero this yields q = all-ones, r = a (matching the
        SMT-LIB convention used by the term folder)."""
        width = len(a)
        rem = [self.false_lit()] * width
        quot = [self.false_lit()] * width
        for i in range(width - 1, -1, -1):
            rem = [a[i]] + rem[:-1]  # shift left, bring down bit i
            diff, no_borrow = self.subtract(rem, b)
            quot[i] = no_borrow
            rem = [self.ite_gate(no_borrow, d, r) for d, r in zip(diff, rem)]
        b_zero = -self.or_many(b)
        quot = [self.or_gate(q, b_zero) for q in quot]
        rem = [self.ite_gate(b_zero, x, r) for x, r in zip(a, rem)]
        return quot, rem

    def shifter(self, a: List[int], amount: List[int],
                kind: str) -> List[int]:
        """Barrel shifter.  ``kind`` is 'shl', 'lshr' or 'ashr'.  Shift
        amounts >= width produce 0 (or sign for ashr), matching the term
        folder."""
        width = len(a)
        fill = a[-1] if kind == "ashr" else self.false_lit()
        result = list(a)
        for bit_idx in range(len(amount)):
            step = 1 << bit_idx
            shifted = []
            for i in range(width):
                if kind == "shl":
                    src = i - step
                else:
                    src = i + step
                if 0 <= src < width:
                    shifted.append(result[src])
                else:
                    shifted.append(fill)
            cond = amount[bit_idx]
            result = [
                self.ite_gate(cond, s, r) for s, r in zip(shifted, result)
            ]
        return result

    def equals(self, a: List[int], b: List[int]) -> int:
        return self.and_many([self.iff_gate(x, y) for x, y in zip(a, b)])

    def unsigned_less(self, a: List[int], b: List[int]) -> int:
        # a < b  <=>  borrow out of a - b
        _, no_borrow = self.subtract(a, b)
        return -no_borrow

    def signed_less(self, a: List[int], b: List[int]) -> int:
        # flip sign bits and compare unsigned
        a2 = list(a[:-1]) + [-a[-1]]
        b2 = list(b[:-1]) + [-b[-1]]
        return self.unsigned_less(a2, b2)


class BitBlaster:
    """Caches the lowering of every term."""

    def __init__(self, solver: SatSolver):
        self.gates = GateBuilder(solver)
        self._bool_cache: Dict[Term, int] = {}
        self._bv_cache: Dict[Term, List[int]] = {}
        self._vars: Dict[str, object] = {}

    # -- entry points -----------------------------------------------------------
    def assert_true(self, term: Term) -> None:
        lit = self.lower_bool(term)
        self.gates.solver.add_clause([lit])

    def var_bits(self, name: str):
        return self._vars.get(name)

    # -- lowering ----------------------------------------------------------------
    def lower_bool(self, term: Term) -> int:
        assert term.sort == BOOL
        cached = self._bool_cache.get(term)
        if cached is not None:
            return cached
        lit = self._lower_bool(term)
        self._bool_cache[term] = lit
        return lit

    def _lower_bool(self, term: Term) -> int:
        g = self.gates
        op = term.op
        if op == "const":
            return g.true_lit() if term.value else g.false_lit()
        if op == "var":
            lit = g.fresh()
            self._vars[term.payload] = lit
            return lit
        if op == "not":
            return -self.lower_bool(term.args[0])
        if op == "and":
            return g.and_gate(*[self.lower_bool(a) for a in term.args])
        if op == "or":
            return g.or_gate(*[self.lower_bool(a) for a in term.args])
        if op == "xor":
            return g.xor_gate(*[self.lower_bool(a) for a in term.args])
        if op == "ite":
            return g.ite_gate(
                self.lower_bool(term.args[0]),
                self.lower_bool(term.args[1]),
                self.lower_bool(term.args[2]),
            )
        if op == "eq":
            a, b = term.args
            if a.sort == BOOL:
                return g.iff_gate(self.lower_bool(a), self.lower_bool(b))
            return g.equals(self.lower_bv(a), self.lower_bv(b))
        if op == "ult":
            return g.unsigned_less(self.lower_bv(term.args[0]),
                                   self.lower_bv(term.args[1]))
        if op == "slt":
            return g.signed_less(self.lower_bv(term.args[0]),
                                 self.lower_bv(term.args[1]))
        raise NotImplementedError(f"lower bool {op}")

    def lower_bv(self, term: Term) -> List[int]:
        cached = self._bv_cache.get(term)
        if cached is not None:
            return cached
        bits = self._lower_bv(term)
        assert len(bits) == term.width
        self._bv_cache[term] = bits
        return bits

    def _lower_bv(self, term: Term) -> List[int]:
        g = self.gates
        op = term.op
        width = term.width
        if op == "const":
            return [
                g.true_lit() if (term.value >> i) & 1 else g.false_lit()
                for i in range(width)
            ]
        if op == "var":
            bits = [g.fresh() for _ in range(width)]
            self._vars[term.payload] = bits
            return bits
        if op in ("bvadd", "bvsub", "bvmul", "bvudiv", "bvurem",
                  "bvsdiv", "bvsrem", "bvand", "bvor", "bvxor",
                  "bvshl", "bvlshr", "bvashr"):
            a = self.lower_bv(term.args[0])
            b = self.lower_bv(term.args[1])
            if op == "bvadd":
                out, _ = g.adder(a, b)
                return out
            if op == "bvsub":
                out, _ = g.subtract(a, b)
                return out
            if op == "bvmul":
                return g.multiplier(a, b)
            if op == "bvudiv":
                return g.divider(a, b)[0]
            if op == "bvurem":
                return g.divider(a, b)[1]
            if op in ("bvsdiv", "bvsrem"):
                return self._signed_div(a, b, op)
            if op == "bvand":
                return [g.and_gate(x, y) for x, y in zip(a, b)]
            if op == "bvor":
                return [g.or_gate(x, y) for x, y in zip(a, b)]
            if op == "bvxor":
                return [g.xor_gate(x, y) for x, y in zip(a, b)]
            return g.shifter(a, b, op[2:])
        if op == "bvnot":
            return [-x for x in self.lower_bv(term.args[0])]
        if op == "zext":
            inner = self.lower_bv(term.args[0])
            return inner + [g.false_lit()] * (width - len(inner))
        if op == "sext":
            inner = self.lower_bv(term.args[0])
            return inner + [inner[-1]] * (width - len(inner))
        if op == "extract":
            hi, lo = term.payload
            inner = self.lower_bv(term.args[0])
            return inner[lo:hi + 1]
        if op == "concat":
            hi, lo = term.args
            return self.lower_bv(lo) + self.lower_bv(hi)
        if op == "ite":
            c = self.lower_bool(term.args[0])
            a = self.lower_bv(term.args[1])
            b = self.lower_bv(term.args[2])
            return [g.ite_gate(c, x, y) for x, y in zip(a, b)]
        raise NotImplementedError(f"lower bv {op}")

    def _signed_div(self, a: List[int], b: List[int], op: str) -> List[int]:
        """Signed division via unsigned division on magnitudes, matching
        C/LLVM truncation semantics."""
        g = self.gates
        a_neg = a[-1]
        b_neg = b[-1]
        abs_a = [g.ite_gate(a_neg, n, x) for n, x in zip(g.negate(a), a)]
        abs_b = [g.ite_gate(b_neg, n, x) for n, x in zip(g.negate(b), b)]
        quot, rem = g.divider(abs_a, abs_b)
        if op == "bvsdiv":
            neg_out = g.xor_gate(a_neg, b_neg)
            return [
                g.ite_gate(neg_out, n, q)
                for n, q in zip(g.negate(quot), quot)
            ]
        # remainder takes the dividend's sign
        return [g.ite_gate(a_neg, n, r) for n, r in zip(g.negate(rem), rem)]

    # -- model extraction ------------------------------------------------------------
    def model_bool(self, term: Term) -> bool:
        lit = self._bool_cache.get(term)
        if lit is None:
            raise KeyError(f"{term} was never lowered")
        return self._lit_value(lit)

    def model_bv(self, term: Term) -> int:
        bits = self._bv_cache.get(term)
        if bits is None:
            raise KeyError(f"{term} was never lowered")
        value = 0
        for i, lit in enumerate(bits):
            if self._lit_value(lit):
                value |= 1 << i
        return value

    def _lit_value(self, lit: int) -> bool:
        value = self.gates.solver.assignment[abs(lit)]
        if value is None:
            value = False  # unconstrained: any value works
        return value if lit > 0 else not value
