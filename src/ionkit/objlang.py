"""Minimal deterministic string language with fuel-bounded evaluation.

This is the substrate for the rest of the package: programs are short ASCII
texts such as ``Print('End');End`` built from string variables, single-quoted
literals, concatenation, ``Head``/``Tail``, ``While`` and ``If``/``Else``
blocks, and ``Print``. There is no input channel, no arithmetic, and no
randomness, so a program's observable behavior is a pure function of its
source text. Evaluation is always bounded by an explicit :class:`Fuel` budget
and produces a :class:`Trace` recording outputs, halt status, and the exact
number of statement executions.

Grammar (whitespace between tokens is ignored when parsing; ``serialize``
emits none)::

    program := stmt* "End"
    stmt    := "Print(" expr ");"
             | ident "=" expr ";"
             | "While(" cond "){" stmt* "}"
             | "If(" cond "){" stmt* "}Else{" stmt* "}"
    expr    := "'" chars "'" | ident | expr "+" expr
             | "Head(" expr ")" | "Tail(" expr ")"
    cond    := "True" | "Equals(" expr "," expr ")" | "Not(" cond ")"

Literal escapes are exactly ``\\'``, ``\\\\``, and ``\\n``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NoReturn, Union

__all__ = [
    "ObjLangError",
    "ParseError",
    "OpenProgramError",
    "EvalError",
    "Literal",
    "Var",
    "Concat",
    "Head",
    "Tail",
    "Expr",
    "TrueCond",
    "Equals",
    "Not",
    "Cond",
    "Print",
    "Assign",
    "While",
    "IfElse",
    "Statement",
    "Program",
    "KEYWORDS",
    "concat",
    "parse",
    "serialize",
    "escape_literal",
    "check_closed",
    "Fuel",
    "TraceStatus",
    "Trace",
    "evaluate",
]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class ObjLangError(Exception):
    """Base class for object-language failures."""


class ParseError(ObjLangError):
    """Source text is not grammatical.

    Carries the character offset of the failure and a description of what
    was expected there.
    """

    def __init__(self, offset: int, expected: str, found: str = ""):
        self.offset = offset
        self.expected = expected
        self.found = found
        detail = f", found {found!r}" if found else ""
        super().__init__(f"offset {offset}: expected {expected}{detail}")


class OpenProgramError(ObjLangError):
    """A variable is read before it is assigned on some execution path."""


class EvalError(ObjLangError):
    """Runtime failure inside the object program (Head/Tail of '')."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

KEYWORDS = frozenset(
    {"Print", "While", "If", "Else", "End", "True", "Equals", "Not", "Head", "Tail"}
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_ident(name: str) -> None:
    if not _IDENT_RE.match(name):
        raise ValueError(f"invalid identifier {name!r}")
    if name in KEYWORDS:
        raise ValueError(f"identifier {name!r} is a reserved word")


def _check_literal_text(text: str) -> None:
    for ch in text:
        if ch != "\n" and not (0x20 <= ord(ch) <= 0x7E):
            raise ValueError(f"literal contains non-printable character {ch!r}")


@dataclass(frozen=True, slots=True)
class Literal:
    text: str

    def __post_init__(self) -> None:
        _check_literal_text(self.text)


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __post_init__(self) -> None:
        _check_ident(self.name)


@dataclass(frozen=True, slots=True)
class Concat:
    # Canonical form is flat: two or more parts, none of them a Concat. The
    # surface syntax has no parentheses around `+`, so this is what makes
    # parse(serialize(e)) == e an identity.
    parts: tuple["Expr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) < 2 or Concat in map(type, self.parts):
            raise ValueError("Concat takes two or more parts, none a Concat; use concat(...)")


@dataclass(frozen=True, slots=True)
class Head:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Tail:
    arg: "Expr"


Expr = Union[Literal, Var, Concat, Head, Tail]


@dataclass(frozen=True, slots=True)
class TrueCond:
    pass


@dataclass(frozen=True, slots=True)
class Equals:
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Not:
    inner: "Cond"


Cond = Union[TrueCond, Equals, Not]


@dataclass(frozen=True, slots=True)
class Print:
    expr: Expr


@dataclass(frozen=True, slots=True)
class Assign:
    name: str
    expr: Expr

    def __post_init__(self) -> None:
        _check_ident(self.name)


@dataclass(frozen=True, slots=True)
class While:
    cond: Cond
    body: tuple["Statement", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))


@dataclass(frozen=True, slots=True)
class IfElse:
    cond: Cond
    then_body: tuple["Statement", ...]
    else_body: tuple["Statement", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "then_body", tuple(self.then_body))
        object.__setattr__(self, "else_body", tuple(self.else_body))


Statement = Union[Print, Assign, While, IfElse]


@dataclass(frozen=True, slots=True)
class Program:
    """A complete object-language program (possibly the empty one)."""

    statements: tuple[Statement, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "statements", tuple(self.statements))


def concat(*parts: Expr) -> Expr:
    """Flatten expressions into one canonical concatenation."""
    atoms: list[Expr] = []
    for p in parts:
        if isinstance(p, Concat):
            atoms.extend(p.parts)
        else:
            atoms.append(p)
    if not atoms:
        return Literal("")
    return atoms[0] if len(atoms) == 1 else Concat(tuple(atoms))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def escape_literal(text: str) -> str:
    """Escape literal text for embedding between single quotes.

    Backslashes are doubled first so the other escapes stay unambiguous.
    """
    return text.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")


def _emit_expr(e: Expr, parts: list[str]) -> None:
    match e:
        case Literal(text=t):
            parts.append("'")
            parts.append(escape_literal(t))
            parts.append("'")
        case Var(name=n):
            parts.append(n)
        case Concat(parts=ps):
            _emit_expr(ps[0], parts)
            for x in ps[1:]:
                parts.append("+")
                _emit_expr(x, parts)
        case Head(arg=a):
            parts.append("Head(")
            _emit_expr(a, parts)
            parts.append(")")
        case Tail(arg=a):
            parts.append("Tail(")
            _emit_expr(a, parts)
            parts.append(")")
        case _:
            raise TypeError(f"not an Expr: {e!r}")


def _emit_cond(c: Cond, parts: list[str]) -> None:
    match c:
        case TrueCond():
            parts.append("True")
        case Equals(left=l, right=r):
            parts.append("Equals(")
            _emit_expr(l, parts)
            parts.append(",")
            _emit_expr(r, parts)
            parts.append(")")
        case Not(inner=i):
            parts.append("Not(")
            _emit_cond(i, parts)
            parts.append(")")
        case _:
            raise TypeError(f"not a Cond: {c!r}")


def _emit_stmt(s: Statement, parts: list[str]) -> None:
    match s:
        case Print(expr=e):
            parts.append("Print(")
            _emit_expr(e, parts)
            parts.append(");")
        case Assign(name=n, expr=e):
            parts.append(n)
            parts.append("=")
            _emit_expr(e, parts)
            parts.append(";")
        case While(cond=c, body=b):
            parts.append("While(")
            _emit_cond(c, parts)
            parts.append("){")
            for st in b:
                _emit_stmt(st, parts)
            parts.append("}")
        case IfElse(cond=c, then_body=t, else_body=e):
            parts.append("If(")
            _emit_cond(c, parts)
            parts.append("){")
            for st in t:
                _emit_stmt(st, parts)
            parts.append("}Else{")
            for st in e:
                _emit_stmt(st, parts)
            parts.append("}")
        case _:
            raise TypeError(f"not a Statement: {s!r}")


def serialize(p: Program) -> str:
    """Emit the canonical source text of ``p`` (no whitespace, trailing End)."""
    parts: list[str] = []
    for s in p.statements:
        _emit_stmt(s, parts)
    parts.append("End")
    return "".join(parts)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_IDENT_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_WS = " \t\r\n"
_ESCAPES = {"'": "'", "\\": "\\", "n": "\n"}


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def fail(self, expected: str, at: int | None = None) -> NoReturn:
        pos = self.pos if at is None else at
        found = self.src[pos : pos + 12] or "end of input"
        raise ParseError(pos, expected, found)

    def skip_ws(self) -> None:
        src, n = self.src, len(self.src)
        while self.pos < n and src[self.pos] in _WS:
            self.pos += 1

    def eat(self, token: str) -> None:
        self.skip_ws()
        if not self.src.startswith(token, self.pos):
            self.fail(f"'{token}'")
        self.pos += len(token)

    def at_keyword(self, kw: str) -> bool:
        # True only at a token boundary, so 'Endless' is an identifier.
        if not self.src.startswith(kw, self.pos):
            return False
        end = self.pos + len(kw)
        return end >= len(self.src) or not (self.src[end].isalnum() or self.src[end] == "_")

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT_TOKEN_RE.match(self.src, self.pos)
        if not m:
            self.fail("identifier")
        self.pos = m.end()
        return m.group()

    # -- grammar productions --

    def program(self) -> Program:
        stmts: list[Statement] = []
        while True:
            self.skip_ws()
            if self.pos >= len(self.src):
                self.fail("statement or 'End'")
            if self.at_keyword("End"):
                self.pos += 3
                break
            stmts.append(self.statement())
        self.skip_ws()
        if self.pos != len(self.src):
            self.fail("end of input after 'End'")
        return Program(tuple(stmts))

    def block(self) -> tuple[Statement, ...]:
        stmts: list[Statement] = []
        while True:
            self.skip_ws()
            if self.pos >= len(self.src):
                self.fail("statement or '}'")
            if self.src[self.pos] == "}":
                self.pos += 1
                return tuple(stmts)
            stmts.append(self.statement())

    def statement(self) -> Statement:
        self.skip_ws()
        start = self.pos
        if self.at_keyword("Print"):
            self.pos += 5
            self.eat("(")
            e = self.expr()
            self.eat(")")
            self.eat(";")
            return Print(e)
        if self.at_keyword("While"):
            self.pos += 5
            self.eat("(")
            c = self.cond()
            self.eat(")")
            self.eat("{")
            return While(c, self.block())
        if self.at_keyword("If"):
            self.pos += 2
            self.eat("(")
            c = self.cond()
            self.eat(")")
            self.eat("{")
            then_body = self.block()
            self.skip_ws()
            if not self.at_keyword("Else"):
                self.fail("'Else'")
            self.pos += 4
            self.eat("{")
            return IfElse(c, then_body, self.block())
        name = self.ident()
        if name in KEYWORDS:
            self.fail("statement", at=start)
        self.eat("=")
        e = self.expr()
        self.eat(";")
        return Assign(name, e)

    def expr(self) -> Expr:
        parts = [self.atom()]
        while True:
            self.skip_ws()
            if self.pos < len(self.src) and self.src[self.pos] == "+":
                self.pos += 1
                parts.append(self.atom())
            else:
                break
        return concat(*parts)

    def atom(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.src):
            self.fail("expression")
        ch = self.src[self.pos]
        if ch == "'":
            return self.literal()
        if self.at_keyword("Head") or self.at_keyword("Tail"):
            kw = self.src[self.pos : self.pos + 4]
            self.pos += 4
            self.eat("(")
            e = self.expr()
            self.eat(")")
            return Head(e) if kw == "Head" else Tail(e)
        start = self.pos
        m = _IDENT_TOKEN_RE.match(self.src, self.pos)
        if not m or m.group() in KEYWORDS:
            self.fail("expression", at=start)
        self.pos = m.end()
        return Var(m.group())

    def literal(self) -> Literal:
        self.pos += 1  # opening quote
        src, n = self.src, len(self.src)
        chars: list[str] = []
        while True:
            if self.pos >= n:
                self.fail("closing quote (')")
            ch = src[self.pos]
            if ch == "'":
                self.pos += 1
                return Literal("".join(chars))
            if ch == "\\":
                if self.pos + 1 >= n or src[self.pos + 1] not in _ESCAPES:
                    self.fail("escape character (one of ' \\ n)", at=self.pos + 1)
                chars.append(_ESCAPES[src[self.pos + 1]])
                self.pos += 2
                continue
            if not (0x20 <= ord(ch) <= 0x7E):
                self.fail("printable ASCII character", at=self.pos)
            chars.append(ch)
            self.pos += 1

    def cond(self) -> Cond:
        self.skip_ws()
        if self.at_keyword("True"):
            self.pos += 4
            return TrueCond()
        if self.at_keyword("Equals"):
            self.pos += 6
            self.eat("(")
            l = self.expr()
            self.eat(",")
            r = self.expr()
            self.eat(")")
            return Equals(l, r)
        if self.at_keyword("Not"):
            self.pos += 3
            self.eat("(")
            c = self.cond()
            self.eat(")")
            return Not(c)
        self.fail("condition")


def parse(source: str) -> Program:
    """Parse source text into the unique AST; raise :class:`ParseError` otherwise."""
    return _Parser(source).program()


# ---------------------------------------------------------------------------
# static closedness check
# ---------------------------------------------------------------------------

def _expr_reads(e: Expr, out: set[str]) -> None:
    stack = [e]
    while stack:
        node = stack.pop()
        match node:
            case Var(name=n):
                out.add(n)
            case Concat(parts=ps):
                stack.extend(ps)
            case Head(arg=a) | Tail(arg=a):
                stack.append(a)
            case _:
                pass


def _cond_reads(c: Cond, out: set[str]) -> None:
    match c:
        case Equals(left=l, right=r):
            _expr_reads(l, out)
            _expr_reads(r, out)
        case Not(inner=i):
            _cond_reads(i, out)
        case _:
            pass


def _require_assigned(reads: set[str], assigned: set[str], where: str) -> None:
    missing = reads - assigned
    if missing:
        name = sorted(missing)[0]
        raise OpenProgramError(f"variable {name!r} may be read before assignment in {where}")


def _check_block(stmts: Iterable[Statement], assigned: set[str]) -> set[str]:
    current = set(assigned)
    for s in stmts:
        reads: set[str] = set()
        match s:
            case Print(expr=e):
                _expr_reads(e, reads)
                _require_assigned(reads, current, "Print")
            case Assign(name=n, expr=e):
                _expr_reads(e, reads)
                _require_assigned(reads, current, f"assignment to {n!r}")
                current.add(n)
            case While(cond=c, body=b):
                _cond_reads(c, reads)
                _require_assigned(reads, current, "While condition")
                # The body may never run, so its assignments do not escape.
                _check_block(b, current)
            case IfElse(cond=c, then_body=t, else_body=e):
                _cond_reads(c, reads)
                _require_assigned(reads, current, "If condition")
                after_then = _check_block(t, current)
                after_else = _check_block(e, current)
                current |= after_then & after_else
    return current


def check_closed(p: Program) -> None:
    """Verify statically that every variable read is preceded by an assignment.

    Raises :class:`OpenProgramError` naming the offending variable. The check
    is per-path: a While body that reads a variable it only assigns later is
    rejected, because the first iteration would read it unassigned.
    """
    _check_block(p.statements, set())


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Fuel:
    """Execution budget: statement steps and output slots, both positive."""

    max_steps: int
    max_outputs: int

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.max_outputs < 1:
            raise ValueError("max_outputs must be >= 1")


class TraceStatus(Enum):
    HALTED = "Halted"
    FUEL_EXHAUSTED = "FuelExhausted"


@dataclass(frozen=True, slots=True)
class Trace:
    outputs: tuple[str, ...]
    status: TraceStatus
    steps_used: int


class _FuelStop(Exception):
    pass


# Runtime string values are ropes: plain str, a suffix view into a str, or a
# lazy concatenation. Object programs build strings one character at a time,
# and plain str would make those loops quadratic.

class _View:
    __slots__ = ("base", "start")

    def __init__(self, base: str, start: int):
        self.base = base
        self.start = start


class _Cat:
    __slots__ = ("left", "right", "length", "flat")

    def __init__(self, left, right, length: int):
        self.left = left
        self.right = right
        self.length = length
        self.flat: str | None = None


def _vlen(v) -> int:
    if type(v) is str:
        return len(v)
    if type(v) is _View:
        return len(v.base) - v.start
    return v.length


def _to_str(v) -> str:
    if type(v) is str:
        return v
    if type(v) is _View:
        return v.base[v.start :]
    if v.flat is None:
        parts: list[str] = []
        stack = [v]
        while stack:
            node = stack.pop()
            t = type(node)
            if t is _Cat:
                if node.flat is not None:
                    parts.append(node.flat)
                else:
                    stack.append(node.right)
                    stack.append(node.left)
            elif t is _View:
                parts.append(node.base[node.start :])
            else:
                parts.append(node)
        v.flat = "".join(parts)
    return v.flat


def _concat_val(l, r):
    ll, rl = _vlen(l), _vlen(r)
    if ll == 0:
        return r
    if rl == 0:
        return l
    return _Cat(l, r, ll + rl)


class _Run:
    __slots__ = ("env", "outputs", "steps", "max_steps", "max_outputs")

    def __init__(self, fuel: Fuel):
        self.env: dict[str, object] = {}
        self.outputs: list[str] = []
        self.steps = 0
        self.max_steps = fuel.max_steps
        self.max_outputs = fuel.max_outputs


# The AST is translated to a tree of closures once per evaluate() call; the
# compiled notation programs execute hundreds of thousands of statements, and
# per-step dispatch on AST node types would dominate the runtime.

def _compile_expr(e: Expr) -> Callable[[_Run], object]:
    match e:
        case Literal(text=t):
            return lambda run, _t=t: _t
        case Var(name=n):
            def read(run: _Run, _n=n):
                return run.env[_n]  # closedness is checked before running
            return read
        case Concat(parts=ps):
            first, *rest = map(_compile_expr, ps)
            def cat(run: _Run):
                v = first(run)
                for f in rest:
                    v = _concat_val(v, f(run))
                return v
            return cat
        case Head(arg=a):
            af = _compile_expr(a)
            def head(run: _Run):
                v = af(run)
                if type(v) is str:
                    if not v:
                        raise EvalError("Head of empty string")
                    return v[0]
                if type(v) is _View:
                    if v.start >= len(v.base):
                        raise EvalError("Head of empty string")
                    return v.base[v.start]
                return _to_str(v)[0]  # _Cat is never empty
            return head
        case Tail(arg=a):
            af = _compile_expr(a)
            def tail(run: _Run):
                v = af(run)
                if type(v) is str:
                    if not v:
                        raise EvalError("Tail of empty string")
                    return _View(v, 1)
                if type(v) is _View:
                    if v.start >= len(v.base):
                        raise EvalError("Tail of empty string")
                    return _View(v.base, v.start + 1)
                return _View(_to_str(v), 1)
            return tail
        case _:
            raise TypeError(f"not an Expr: {e!r}")


def _compile_cond(c: Cond) -> Callable[[_Run], bool]:
    match c:
        case TrueCond():
            return lambda run: True
        case Equals(left=l, right=r):
            lf, rf = _compile_expr(l), _compile_expr(r)
            def eq(run: _Run) -> bool:
                lv, rv = lf(run), rf(run)
                if _vlen(lv) != _vlen(rv):
                    return False
                return _to_str(lv) == _to_str(rv)
            return eq
        case Not(inner=i):
            inf = _compile_cond(i)
            def neg(run: _Run) -> bool:
                return not inf(run)
            return neg
        case _:
            raise TypeError(f"not a Cond: {c!r}")


def _compile_stmt(s: Statement) -> Callable[[_Run], None]:
    match s:
        case Print(expr=e):
            ef = _compile_expr(e)
            def do_print(run: _Run) -> None:
                # A blocked Print ends the run without charging a step, so a
                # program that merely fills its last output slot and then
                # reaches End still counts as Halted.
                if len(run.outputs) >= run.max_outputs:
                    raise _FuelStop
                if run.steps >= run.max_steps:
                    raise _FuelStop
                run.steps += 1
                run.outputs.append(_to_str(ef(run)))
            return do_print
        case Assign(name=n, expr=e):
            ef = _compile_expr(e)
            def do_assign(run: _Run, _n=n) -> None:
                if run.steps >= run.max_steps:
                    raise _FuelStop
                run.steps += 1
                run.env[_n] = ef(run)
            return do_assign
        case While(cond=c, body=b):
            cf = _compile_cond(c)
            body = tuple(_compile_stmt(st) for st in b)
            def do_while(run: _Run) -> None:
                ms = run.max_steps
                while True:
                    if run.steps >= ms:  # each condition check is one step
                        raise _FuelStop
                    run.steps += 1
                    if not cf(run):
                        return
                    for g in body:
                        g(run)
            return do_while
        case IfElse(cond=c, then_body=t, else_body=e):
            cf = _compile_cond(c)
            then_fns = tuple(_compile_stmt(st) for st in t)
            else_fns = tuple(_compile_stmt(st) for st in e)
            def do_if(run: _Run) -> None:
                if run.steps >= run.max_steps:
                    raise _FuelStop
                run.steps += 1
                for g in then_fns if cf(run) else else_fns:
                    g(run)
            return do_if
        case _:
            raise TypeError(f"not a Statement: {s!r}")


def evaluate(p: Program, fuel: Fuel) -> Trace:
    """Run ``p`` under ``fuel``; deterministic, total, and reproducible.

    Each statement execution costs one step (every While condition check
    included). Raises :class:`EvalError` for Head/Tail of the empty string and
    :class:`OpenProgramError` if the program is not closed.
    """
    check_closed(p)
    top = tuple(_compile_stmt(s) for s in p.statements)
    run = _Run(fuel)
    try:
        for g in top:
            g(run)
        status = TraceStatus.HALTED
    except _FuelStop:
        status = TraceStatus.FUEL_EXHAUSTED
    except KeyError as exc:  # unreachable after check_closed; keep honest
        raise EvalError(f"read of unassigned variable {exc.args[0]!r}") from None
    return Trace(tuple(run.outputs), status, run.steps)
