"""Functions: argument lists plus a CFG of basic blocks."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from .basicblock import BasicBlock
from .instructions import Instruction
from .types import FunctionType, Type
from .values import Argument, Value


class Function(Value):
    """A function definition (with blocks) or declaration (without).

    Functions are values (their address), which lets ``call`` reference
    them uniformly.
    """

    __slots__ = ("function_type", "args", "blocks", "module")

    def __init__(self, function_type: FunctionType, name: str, module=None,
                 arg_names: Optional[List[str]] = None):
        super().__init__(function_type, name)
        self.function_type = function_type
        names = arg_names or [f"arg{i}" for i in range(len(function_type.params))]
        if len(names) != len(function_type.params):
            raise ValueError("argument name count mismatch")
        self.args: List[Argument] = [
            Argument(ty, nm, parent=self, index=i)
            for i, (ty, nm) in enumerate(zip(function_type.params, names))
        ]
        self.blocks: List[BasicBlock] = []
        self.module = module
        if module is not None:
            module.add_function(self)

    # -- queries -------------------------------------------------------------
    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def return_type(self) -> Type:
        return self.function_type.ret

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"@{self.name} is a declaration; no entry block")
        return self.blocks[0]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def num_instructions(self) -> int:
        return sum(len(b) for b in self.blocks)

    def local_names(self) -> Set[str]:
        """The argument and instruction names in use: the namespace in
        which the parser rejects a redefinition."""
        return ({arg.name for arg in self.args}
                | {inst.name for inst in self.instructions() if inst.name})

    def block_by_name(self, name: str) -> Optional[BasicBlock]:
        for block in self.blocks:
            if block.name == name:
                return block
        return None

    def arg_by_name(self, name: str) -> Optional[Argument]:
        for arg in self.args:
            if arg.name == name:
                return arg
        return None

    # -- mutation --------------------------------------------------------------
    def add_block(self, name: str = "") -> BasicBlock:
        return BasicBlock(name or f"bb{len(self.blocks)}", parent=self)

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None

    def rename_values(self) -> None:
        """Give every unnamed instruction/block a unique sequential name,
        keeping existing names unique by suffixing duplicates."""
        taken: Dict[str, int] = {}

        def fresh(base: str) -> str:
            if base and base not in taken:
                taken[base] = 0
                return base
            root = base or "t"
            n = taken.get(root, 0)
            while True:
                n += 1
                candidate = f"{root}{n}" if base else f"t{n}"
                if candidate not in taken:
                    taken[root] = n
                    taken[candidate] = 0
                    return candidate

        for arg in self.args:
            arg.name = fresh(arg.name)
        for block in self.blocks:
            block.name = fresh(block.name)
        for inst in self.instructions():
            if not inst.type.is_void:
                inst.name = fresh(inst.name)

    def ref(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} @{self.name}>"


def unique_name(base: str, taken: Set[str]) -> str:
    """``base``, or ``base.N`` with the smallest N, whichever is not in
    ``taken``; the name returned is added to ``taken``."""
    name, n = base, 0
    while name in taken:
        n += 1
        name = f"{base}.{n}"
    taken.add(name)
    return name
