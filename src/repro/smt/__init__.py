"""A from-scratch SMT stack: terms, bit-blasting, CDCL SAT.

Built because the refinement checker needs symbolic reasoning over
bitvectors-with-poison and the environment has no Z3.  The stack is
small but complete for the quantifier-free bitvector fragment the
encoder emits.
"""

from . import terms
from .bitblast import BitBlaster, GateBuilder
from .sat import SAT, UNKNOWN, UNSAT, SatSolver
from .solver import Solver, check_valid

__all__ = [
    "terms", "BitBlaster", "GateBuilder",
    "SAT", "UNKNOWN", "UNSAT", "SatSolver", "Solver", "check_valid",
]
