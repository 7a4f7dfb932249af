"""Parser for the textual IR syntax produced by :mod:`repro.ir.printer`.

A hand-written lexer + recursive-descent parser.  Forward references are
legal only where SSA allows them (phi incoming values and block labels);
they are resolved with placeholder values patched at end-of-function.

Entry points: :func:`parse_module` and :func:`parse_function` (which wraps
a single ``define`` in a fresh module and returns the function).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    ExtractElementInst,
    FreezeInst,
    GepInst,
    IcmpInst,
    IcmpPred,
    InsertElementInst,
    LoadInst,
    Opcode,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from .module import Module
from .types import (
    LABEL,
    VOID,
    FunctionType,
    IntType,
    PointerType,
    Type,
    VectorType,
)
from .values import (
    ConstantInt,
    ConstantVector,
    PoisonValue,
    UndefValue,
    Value,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>;[^\n]*)
  | (?P<newline>\n)
  | (?P<localid>%[A-Za-z0-9._$-]+)
  | (?P<globalid>@[A-Za-z0-9._$-]+)
  | (?P<number>-?\d+)
  | (?P<word>[A-Za-z_][A-Za-z0-9._]*)
  | (?P<punct>[(){}\[\]<>,=:*])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line)
        pos = m.end()
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            continue
        if kind in ("ws", "comment"):
            continue
        tokens.append((kind, m.group(), line))
    tokens.append(("eof", "", line))
    return tokens


class _Placeholder(Value):
    """Stand-in for a forward-referenced local value."""

    __slots__ = ("ph_name",)

    def __init__(self, type: Type, name: str):
        super().__init__(type, name)
        self.ph_name = name


class Parser:
    def __init__(self, text: str, module: Optional[Module] = None):
        self.tokens = tokenize(text)
        self.pos = 0
        self.module = module or Module()

    # -- token stream helpers ----------------------------------------------
    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek()[1] == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        kind, value, line = self.peek()
        if value != text:
            raise ParseError(f"expected {text!r}, found {value!r}", line)
        self.pos += 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek()[2])

    # -- types ------------------------------------------------------------------
    def parse_type(self) -> Type:
        kind, value, line = self.peek()
        if value == "void":
            self.next()
            ty: Type = VOID
        elif value == "label":
            self.next()
            ty = LABEL
        elif value == "<":
            self.next()
            kind2, count_str, line2 = self.next()
            if kind2 != "number":
                raise ParseError("expected vector length", line2)
            self.expect("x")
            elem = self.parse_type()
            self.expect(">")
            ty = VectorType(int(count_str), elem)
        elif kind == "word" and re.fullmatch(r"i\d+", value):
            self.next()
            ty = IntType(int(value[1:]))
        else:
            raise ParseError(f"expected a type, found {value!r}", line)
        while self.accept("*"):
            ty = PointerType(ty)
        return ty

    # -- operands ----------------------------------------------------------------
    def parse_operand(self, ty: Type, locals_: Dict[str, Value],
                      patches: List[_Placeholder]) -> Value:
        kind, value, line = self.peek()
        if kind == "localid":
            self.next()
            name = value[1:]
            existing = locals_.get(name)
            if existing is not None:
                return existing
            ph = _Placeholder(ty, name)
            patches.append(ph)
            return ph
        if kind == "globalid":
            self.next()
            name = value[1:]
            g = self.module.get_global(name)
            if g is not None:
                return g
            f = self.module.get_function(name)
            if f is not None:
                return f
            raise ParseError(f"unknown global @{name}", line)
        if kind == "number":
            self.next()
            if not ty.is_int:
                raise ParseError(f"integer literal for non-integer type {ty}", line)
            return ConstantInt(ty, int(value))
        if value == "true":
            self.next()
            return ConstantInt(IntType(1), 1)
        if value == "false":
            self.next()
            return ConstantInt(IntType(1), 0)
        if value == "undef":
            self.next()
            return UndefValue(ty)
        if value == "poison":
            self.next()
            return PoisonValue(ty)
        if value == "<":
            return self.parse_vector_constant(ty)
        raise ParseError(f"expected an operand, found {value!r}", line)

    def parse_vector_constant(self, ty: Type) -> ConstantVector:
        if not ty.is_vector:
            raise self.error(f"vector constant for non-vector type {ty}")
        self.expect("<")
        elems = []
        while True:
            ety = self.parse_type()
            elem = self.parse_operand(ety, {}, [])
            elems.append(elem)
            if not self.accept(","):
                break
        self.expect(">")
        return ConstantVector(ty, elems)

    def parse_typed_operand(self, locals_, patches) -> Value:
        ty = self.parse_type()
        return self.parse_operand(ty, locals_, patches)

    def parse_label(self, blocks: Dict[str, BasicBlock], fn: Function) -> BasicBlock:
        self.expect("label")
        kind, value, line = self.next()
        if kind != "localid":
            raise ParseError(f"expected block label, found {value!r}", line)
        return self._get_block(value[1:], blocks, fn)

    def _get_block(self, name: str, blocks: Dict[str, BasicBlock],
                   fn: Function) -> BasicBlock:
        block = blocks.get(name)
        if block is None:
            block = BasicBlock(name, parent=fn)
            # The block was created on demand; pull it back out of the
            # function's ordered list — it is re-appended when its label
            # is actually reached, preserving textual order.
            fn.blocks.remove(block)
            blocks[name] = block
        return block

    def _start_block(self, name: str, blocks: Dict[str, BasicBlock],
                     fn: Function, line: int) -> BasicBlock:
        """Append the block a label starts; a label defined twice is an
        error."""
        block = self._get_block(name, blocks, fn)
        if block in fn.blocks:
            raise ParseError(f"redefinition of label %{name} in @{fn.name}",
                             line)
        fn.blocks.append(block)
        return block

    # -- top level ----------------------------------------------------------------
    def parse_module(self) -> Module:
        while not self.at(""):
            kind, value, line = self.peek()
            if value == "define":
                self.parse_define()
            elif value == "declare":
                self.parse_declare()
            elif kind == "globalid":
                self.parse_global()
            elif kind == "eof":
                break
            else:
                raise ParseError(f"expected define/declare/global, found {value!r}",
                                 line)
        return self.module

    def parse_global(self) -> None:
        kind, value, line = self.next()
        name = value[1:]
        self.expect("=")
        self.expect("global")
        ty = self.parse_type()
        init = None
        nk, nv, _ = self.peek()
        if nk == "number" or nv in ("true", "false", "undef", "poison", "<"):
            init = self.parse_operand(ty, {}, [])
        self.module.add_global(name, ty, init)

    def _parse_signature(self):
        ret = self.parse_type()
        kind, value, line = self.next()
        if kind != "globalid":
            raise ParseError(f"expected function name, found {value!r}", line)
        name = value[1:]
        self.expect("(")
        param_types: List[Type] = []
        param_names: List[str] = []
        if not self.at(")"):
            while True:
                pty = self.parse_type()
                param_types.append(pty)
                kind, value, _ = self.peek()
                if kind == "localid":
                    self.next()
                    param_names.append(value[1:])
                else:
                    param_names.append(f"arg{len(param_names)}")
                if not self.accept(","):
                    break
        self.expect(")")
        return name, FunctionType(ret, tuple(param_types)), param_names

    def parse_declare(self) -> Function:
        self.expect("declare")
        name, ftype, param_names = self._parse_signature()
        return Function(ftype, name, module=self.module, arg_names=param_names)

    def parse_define(self) -> Function:
        self.expect("define")
        name, ftype, param_names = self._parse_signature()
        fn = Function(ftype, name, module=self.module, arg_names=param_names)
        self.expect("{")

        locals_: Dict[str, Value] = {a.name: a for a in fn.args}
        blocks: Dict[str, BasicBlock] = {}
        patches: List[_Placeholder] = []

        current: Optional[BasicBlock] = None
        while not self.at("}"):
            kind, value, line = self.peek()
            if kind in ("word", "localid") and \
                    self.tokens[self.pos + 1][1] == ":":
                # labels may be printed as plain words; accept %-prefixed too
                self.next()
                self.next()
                current = self._start_block(value.lstrip("%"), blocks, fn,
                                            line)
                continue
            if current is None:
                current = self._start_block("entry", blocks, fn, line)
            inst = self.parse_instruction(locals_, blocks, fn, patches)
            current.append(inst)
            if inst.name:
                if inst.name in locals_:
                    raise ParseError(
                        f"redefinition of %{inst.name} in @{name}", line)
                locals_[inst.name] = inst
        self.expect("}")

        # Resolve forward references.
        for ph in patches:
            target = locals_.get(ph.ph_name)
            if target is None:
                raise self.error(f"undefined value %{ph.ph_name} in @{name}")
            ph.replace_all_uses_with(target)
        # Any block that was referenced but never defined is an error.
        for bname, block in blocks.items():
            if block not in fn.blocks:
                raise self.error(f"undefined label %{bname} in @{name}")
        return fn

    # -- instructions ---------------------------------------------------------------
    _BINOPS = {op.value: op for op in Opcode if op.value in (
        "add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
        "shl", "lshr", "ashr", "and", "or", "xor")}
    _CASTS = {op.value: op for op in (
        Opcode.ZEXT, Opcode.SEXT, Opcode.TRUNC, Opcode.BITCAST,
        Opcode.PTRTOINT, Opcode.INTTOPTR)}

    def parse_instruction(self, locals_, blocks, fn, patches):
        kind, value, line = self.peek()
        dest = ""
        if kind == "localid":
            self.next()
            dest = value[1:]
            self.expect("=")
        kind, op, line = self.next()

        if op in self._BINOPS:
            opcode = self._BINOPS[op]
            nsw = nuw = exact = False
            while self.peek()[1] in ("nsw", "nuw", "exact"):
                flag = self.next()[1]
                nsw |= flag == "nsw"
                nuw |= flag == "nuw"
                exact |= flag == "exact"
            ty = self.parse_type()
            lhs = self.parse_operand(ty, locals_, patches)
            self.expect(",")
            rhs = self.parse_operand(ty, locals_, patches)
            return BinaryInst(opcode, lhs, rhs, dest, nsw=nsw, nuw=nuw,
                              exact=exact)

        if op == "icmp":
            pred = IcmpPred(self.next()[1])
            ty = self.parse_type()
            lhs = self.parse_operand(ty, locals_, patches)
            self.expect(",")
            rhs = self.parse_operand(ty, locals_, patches)
            return IcmpInst(pred, lhs, rhs, dest)

        if op == "select":
            cond = self.parse_typed_operand(locals_, patches)
            self.expect(",")
            tv = self.parse_typed_operand(locals_, patches)
            self.expect(",")
            fv = self.parse_typed_operand(locals_, patches)
            return SelectInst(cond, tv, fv, dest)

        if op == "freeze":
            val = self.parse_typed_operand(locals_, patches)
            return FreezeInst(val, dest)

        if op in self._CASTS:
            val = self.parse_typed_operand(locals_, patches)
            self.expect("to")
            dest_ty = self.parse_type()
            return CastInst(self._CASTS[op], val, dest_ty, dest)

        if op == "getelementptr":
            inbounds = self.accept("inbounds")
            self.parse_type()  # pointee type (redundant, like LLVM's)
            self.expect(",")
            ptr = self.parse_typed_operand(locals_, patches)
            self.expect(",")
            idx = self.parse_typed_operand(locals_, patches)
            return GepInst(ptr, idx, dest, inbounds=inbounds)

        if op == "alloca":
            ty = self.parse_type()
            return AllocaInst(ty, dest)

        if op == "load":
            self.parse_type()  # result type (redundant)
            self.expect(",")
            ptr = self.parse_typed_operand(locals_, patches)
            return LoadInst(ptr, dest)

        if op == "store":
            val = self.parse_typed_operand(locals_, patches)
            self.expect(",")
            ptr = self.parse_typed_operand(locals_, patches)
            return StoreInst(val, ptr)

        if op == "extractelement":
            vec = self.parse_typed_operand(locals_, patches)
            self.expect(",")
            idx = self.parse_typed_operand(locals_, patches)
            return ExtractElementInst(vec, idx, dest)

        if op == "insertelement":
            vec = self.parse_typed_operand(locals_, patches)
            self.expect(",")
            elem = self.parse_typed_operand(locals_, patches)
            self.expect(",")
            idx = self.parse_typed_operand(locals_, patches)
            return InsertElementInst(vec, elem, idx, dest)

        if op == "phi":
            ty = self.parse_type()
            phi = PhiInst(ty, dest)
            while True:
                self.expect("[")
                val = self.parse_operand(ty, locals_, patches)
                self.expect(",")
                kind, bname, bline = self.next()
                if kind != "localid":
                    raise ParseError(f"expected block label, found {bname!r}",
                                     bline)
                block = self._get_block(bname[1:], blocks, fn)
                self.expect("]")
                phi.add_incoming(val, block)
                if not self.accept(","):
                    break
            return phi

        if op == "call":
            self.parse_type()  # return type (redundant with callee)
            kind, cname, cline = self.next()
            if kind != "globalid":
                raise ParseError(f"expected callee, found {cname!r}", cline)
            callee = self.module.get_function(cname[1:])
            if callee is None:
                raise ParseError(f"unknown function @{cname[1:]}", cline)
            self.expect("(")
            args = []
            if not self.at(")"):
                while True:
                    args.append(self.parse_typed_operand(locals_, patches))
                    if not self.accept(","):
                        break
            self.expect(")")
            return CallInst(callee, args, dest)

        if op == "br":
            if self.at("label"):
                target = self.parse_label(blocks, fn)
                return BranchInst(target=target)
            cond = self.parse_typed_operand(locals_, patches)
            self.expect(",")
            tb = self.parse_label(blocks, fn)
            self.expect(",")
            fb = self.parse_label(blocks, fn)
            return BranchInst(cond=cond, true_block=tb, false_block=fb)

        if op == "switch":
            val = self.parse_typed_operand(locals_, patches)
            self.expect(",")
            default = self.parse_label(blocks, fn)
            self.expect("[")
            sw = SwitchInst(val, default)
            while not self.at("]"):
                cty = self.parse_type()
                c = self.parse_operand(cty, locals_, patches)
                self.expect(",")
                block = self.parse_label(blocks, fn)
                if not isinstance(c, ConstantInt):
                    raise self.error("switch case must be an integer constant")
                sw.add_case(c, block)
            self.expect("]")
            return sw

        if op == "ret":
            if self.accept("void"):
                return ReturnInst()
            val = self.parse_typed_operand(locals_, patches)
            return ReturnInst(val)

        if op == "unreachable":
            return UnreachableInst()

        raise ParseError(f"unknown instruction {op!r}", line)


def parse_module(text: str) -> Module:
    return Parser(text).parse_module()


def parse_function(text: str, module: Optional[Module] = None) -> Function:
    """Parse a single function definition (plus any preceding declarations)
    and return the *last defined* function."""
    parser = Parser(text, module)
    mod = parser.parse_module()
    defs = mod.definitions()
    if not defs:
        raise ValueError("no function definition found")
    return defs[-1]
