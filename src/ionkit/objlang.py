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
from typing import Callable, NoReturn, Union

__all__ = [
    "ObjLangError",
    "ParseError",
    "OpenProgramError",
    "EvalError",
    "LengthLimitError",
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
    "escape_loop",
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


class LengthLimitError(ObjLangError):
    """A string value would grow past the evaluator's length limit.

    ``X=X+X`` doubles a value in one step, so fuel bounds neither the time
    nor the memory a run takes; this limit does. It is not an
    :class:`EvalError`: the program is not shown faulty, only too big to run.
    """


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


_NON_LITERAL_CHAR_RE = re.compile(r"[^ -~\n]")


def _check_literal_text(text: str) -> None:
    bad = _NON_LITERAL_CHAR_RE.search(text)
    if bad:
        raise ValueError(f"literal contains non-printable character {bad.group()!r}")


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
# skeletons
#
# Every program the notation compiler emits is a data assignment (C='...' or
# X='...') followed by one of two fixed skeletons. The notation module
# registers both when it is imported; after that the two tables are only
# read, by the parser (keyed on a skeleton's text, End included) and by the
# compiler (keyed on the ids of a skeleton's statements).
# ---------------------------------------------------------------------------

_SKELETON_STMTS: dict[str, tuple[Statement, ...]] = {}
# ids -> (names assigned before the skeleton, its closures, its statements)
_SKELETON_FNS: dict[tuple[int, ...], tuple[frozenset[str], tuple, tuple[Statement, ...]]] = {}


def _register_skeleton(stmts: tuple[Statement, ...], names_before: set[str]) -> str:
    """Register ``stmts``, closed once ``names_before`` are assigned; its text."""
    text = serialize(Program(stmts))
    fns, _ = _compile_block(stmts, names_before)
    _SKELETON_STMTS[text] = stmts
    _SKELETON_FNS[tuple(map(id, stmts))] = (frozenset(names_before), fns, stmts)
    return text


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_IDENT_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_WS = " \t\r\n"
# Pieces of a literal body: runs of printable ASCII other than ' and \, and
# the escapes \' \\ \n. The regex engine keeps state for every repetition of
# a group until the match ends, so one match takes at most 1024 pieces and a
# huge literal is scanned in constant memory.
_LITERAL_PIECES_RE = re.compile(r"(?:[ -&(-\[\]-~]+|\\['\\n]){0,1024}")


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
        first = self.top_level(1)
        if not first:
            return Program(())
        # What follows a top-level statement parses the same whatever came
        # before it. Only a skeleton's exact text is looked up, so every
        # ParseError comes from a fresh parse.
        self.skip_ws()
        rest_len = len(self.src) - self.pos
        for text, stmts in _SKELETON_STMTS.items():
            if len(text) == rest_len and self.src.startswith(text, self.pos):
                return Program(first + stmts)
        return Program(first + self.top_level())

    def top_level(self, count: int = -1) -> tuple[Statement, ...]:
        """The next ``count`` top-level statements, or all up to 'End' and the end of input."""
        stmts: list[Statement] = []
        while len(stmts) != count:
            self.skip_ws()
            if self.pos >= len(self.src):
                self.fail("statement or 'End'")
            if self.at_keyword("End"):
                self.pos += 3
                self.skip_ws()
                if self.pos != len(self.src):
                    self.fail("end of input after 'End'")
                break
            stmts.append(self.statement())
        return tuple(stmts)

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
        start = end = self.pos + 1  # after the opening quote
        while (more := _LITERAL_PIECES_RE.match(self.src, end).end()) != end:
            end = more
        if end >= len(self.src):
            self.fail("closing quote (')", at=end)
        if self.src[end] == "\\":
            self.fail("escape character (one of ' \\ n)", at=end + 1)
        if self.src[end] != "'":
            self.fail("printable ASCII character", at=end)
        self.pos = end + 1
        body = self.src[start:end]
        if "\\" in body:
            # A body holds no NUL, so NUL can stand for an escaped backslash
            # while the other two escapes are undone.
            body = body.replace("\\\\", "\0").replace("\\'", "'").replace("\\n", "\n")
            body = body.replace("\0", "\\")
        return Literal(body)

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

# The compiler below is the check: the expression and condition compilers add
# every name they read to a set, and each statement compiler compares that
# set with the names assigned on every path to the statement.

def _require_assigned(reads: set[str], assigned: set[str], where: str) -> None:
    missing = reads - assigned
    if missing:
        name = sorted(missing)[0]
        raise OpenProgramError(f"variable {name!r} may be read before assignment in {where}")


def check_closed(p: Program) -> None:
    """Verify statically that every variable read is preceded by an assignment.

    Raises :class:`OpenProgramError` naming the offending variable. The check
    is per-path: a While body that reads a variable it only assigns later is
    rejected, because the first iteration would read it unassigned.
    """
    _compile_program(p.statements)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Fuel:
    """Execution budget: statement steps and output slots, both positive ints.

    A ``bool``, ``float`` or ``str`` budget is refused, so a run's step count
    is always an exact count of the steps it took.
    """

    max_steps: int
    max_outputs: int

    def __post_init__(self) -> None:
        for name in ("max_steps", "max_outputs"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an int >= 1")


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


# The longest string value a run may build (64 MiB). ion compile refuses a
# longer source, so a run can hold every source that it writes.
_MAX_VALUE_LEN = 1 << 26


def _concat_val(l, r):
    """The one place a value grows: ``l`` followed by ``r``, at most _MAX_VALUE_LEN long."""
    ll, rl = _vlen(l), _vlen(r)
    if ll == 0:
        return r
    if rl == 0:
        return l
    if ll + rl > _MAX_VALUE_LEN:
        raise LengthLimitError(
            f"string value of {ll + rl} characters is over the limit of {_MAX_VALUE_LEN}"
        )
    return _Cat(l, r, ll + rl)


class _Run:
    __slots__ = ("env", "outputs", "steps", "max_steps", "max_outputs")

    def __init__(self, fuel: Fuel):
        self.env: dict[str, object] = {}
        self.outputs: list[str] = []
        self.steps = 0
        self.max_steps = fuel.max_steps
        self.max_outputs = fuel.max_outputs


# The AST is translated to a tree of closures before a run; the compiled
# notation programs execute hundreds of thousands of statements, and per-step
# dispatch on AST node types would dominate the runtime. Most of those
# statements are passes of four loops: the escape loop and the notation
# driver's paren, unary and comma scans. Each of them is one closure that
# does its work with str operations and is charged the exact step cost of
# its passes (see _match_fused_loop).
# The closures of the two registered skeletons are built once, when they are
# registered, and reused by every program that ends in one (see
# _compile_program).

def _compile_expr(e: Expr, reads: set[str]) -> Callable[[_Run], object]:
    match e:
        case Literal(text=t):
            return lambda run, _t=t: _t
        case Var(name=n):
            reads.add(n)
            def read(run: _Run, _n=n):
                return run.env[_n]  # its statement checked that _n is assigned
            return read
        case Concat(parts=ps):
            first, *rest = (_compile_expr(x, reads) for x in ps)
            def cat(run: _Run):
                v = first(run)
                for f in rest:
                    v = _concat_val(v, f(run))
                return v
            return cat
        case Head(arg=a):
            af = _compile_expr(a, reads)
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
            af = _compile_expr(a, reads)
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


def _compile_cond(c: Cond, reads: set[str]) -> Callable[[_Run], bool]:
    match c:
        case TrueCond():
            return lambda run: True
        case Equals(left=l, right=r):
            lf, rf = _compile_expr(l, reads), _compile_expr(r, reads)
            def eq(run: _Run) -> bool:
                lv, rv = lf(run), rf(run)
                if _vlen(lv) != _vlen(rv):
                    return False
                return _to_str(lv) == _to_str(rv)
            return eq
        case Not(inner=i):
            inf = _compile_cond(i, reads)
            def neg(run: _Run) -> bool:
                return not inf(run)
            return neg
        case _:
            raise TypeError(f"not a Cond: {c!r}")


def escape_loop(walk: str, char: str, dst: str) -> While:
    """The object-language loop that appends ``walk``'s text to ``dst`` escaped.

    One character per pass: ``char`` takes the head of ``walk``, a quote or a
    backslash gets a backslash in front, and the loop stops when ``walk`` is
    empty. Newlines stay raw, unlike :func:`escape_literal`. This is how a
    program prints a program that quotes another one, and :func:`evaluate`
    runs it as a single block charged the steps its passes would cost.
    """
    return While(
        Not(Equals(Var(walk), Literal(""))),
        (
            Assign(char, Head(Var(walk))),
            Assign(walk, Tail(Var(walk))),
            IfElse(
                Equals(Var(char), Literal("'")),
                (Assign(dst, concat(Var(dst), Literal("\\'"))),),
                (
                    IfElse(
                        Equals(Var(char), Literal("\\")),
                        (Assign(dst, concat(Var(dst), Literal("\\\\"))),),
                        (Assign(dst, concat(Var(dst), Var(char))),),
                    ),
                ),
            ),
        ),
    )


def _paren_scan(depth: str, walk: str, char: str, acc: str) -> While:
    """The loop that moves ``walk``'s text up to a closing paren into ``acc``.

    ``depth`` counts open parens in unary: ``(`` lengthens it, ``)`` drops a
    character, and the loop stops when it is empty, with ``char`` holding
    that last ``)`` and ``acc`` every character before it. The notation
    driver splits the leading term of an encoding with it.
    """
    add_char = Assign(acc, concat(Var(acc), Var(char)))
    return While(
        Not(Equals(Var(depth), Literal(""))),
        (
            Assign(char, Head(Var(walk))),
            Assign(walk, Tail(Var(walk))),
            IfElse(
                Equals(Var(char), Literal("(")),
                (Assign(depth, concat(Var(depth), Literal("I"))), add_char),
                (
                    IfElse(
                        Equals(Var(char), Literal(")")),
                        (
                            Assign(depth, Tail(Var(depth))),
                            IfElse(Equals(Var(depth), Literal("")), (), (add_char,)),
                        ),
                        (add_char,),
                    ),
                ),
            ),
        ),
    )


def _unary_scan(flag: str, walk: str, acc: str) -> While:
    """The loop that moves ``walk``'s leading ``I`` characters to ``acc``; it empties ``flag``."""
    return While(
        Not(Equals(Var(flag), Literal(""))),
        (
            IfElse(
                Equals(Var(walk), Literal("")),
                (Assign(flag, Literal("")),),
                (
                    IfElse(
                        Equals(Head(Var(walk)), Literal("I")),
                        (
                            Assign(acc, concat(Var(acc), Literal("I"))),
                            Assign(walk, Tail(Var(walk))),
                        ),
                        (Assign(flag, Literal("")),),
                    ),
                ),
            ),
        ),
    )


def _comma_scan(stack: str, acc: str) -> While:
    """The loop that moves ``stack``'s text before its first comma to ``acc``."""
    return While(
        Not(Equals(Head(Var(stack)), Literal(","))),
        (Assign(acc, concat(Var(acc), Head(Var(stack)))), Assign(stack, Tail(Var(stack)))),
    )


def _match_fused_loop(s: While) -> tuple[Callable, tuple[str, ...]] | None:
    """(fuse, names) when ``s`` is a loop built above from distinct names.

    ``fuse(plain, *names)`` gives the closure that runs the loop as one
    block, where ``plain`` runs it pass by pass.
    """
    match s:
        case While(
            Not(Equals(Var(walk), Literal(""))),
            (Assign(char, _), _, IfElse(_, (Assign(dst, _),), _)),
        ):
            build, fuse, names = escape_loop, _fuse_escape_loop, (walk, char, dst)
        case While(
            Not(Equals(Var(depth), Literal(""))),
            (Assign(char, Head(Var(walk))), _, IfElse(_, (_, Assign(acc, _)), _)),
        ):
            build, fuse, names = _paren_scan, _fuse_paren_scan, (depth, walk, char, acc)
        case While(
            Not(Equals(Var(flag), Literal(""))),
            (IfElse(Equals(Var(walk), _), _, (IfElse(_, (Assign(acc, _), _), _),)),),
        ):
            build, fuse, names = _unary_scan, _fuse_unary_scan, (flag, walk, acc)
        case While(Not(Equals(Head(Var(stack)), _)), (Assign(acc, _), _)):
            build, fuse, names = _comma_scan, _fuse_comma_scan, (stack, acc)
        case _:
            return None
    if len(set(names)) == len(names) and s == build(*names):
        return fuse, names
    return None


# A fused loop prints nothing, and a run that stops on fuel is observed only
# through its outputs and step count, so when the passes do not all fit,
# stopping with every step spent is exactly what the passes would do. A
# state in which the passes would fail (Head of an empty string, a value
# past the length limit) is rare, so a fused loop hands it to the passes
# unchanged, which fail at the step they would.

def _charge(run: _Run, cost: int) -> None:
    if run.steps + cost > run.max_steps:
        run.steps = run.max_steps
        raise _FuelStop
    run.steps += cost


def _text_at(v) -> tuple[str, int]:
    """A str and an offset into it where the text of value ``v`` starts."""
    if type(v) is _View:
        return v.base, v.start
    return _to_str(v), 0


def _fuse_escape_loop(
    plain: Callable[[_Run], None], walk: str, char: str, dst: str
) -> Callable[[_Run], None]:
    def do_escape(run: _Run) -> None:
        env = run.env
        s = _to_str(env[walk])
        escaped = s.replace("\\", "\\\\").replace("'", "\\'")
        if _vlen(env[dst]) + len(escaped) > _MAX_VALUE_LEN:
            return plain(run)
        # 1 for the final check; per character 6, or 5 for a quote, which
        # takes the first branch and skips the inner If.
        _charge(run, 1 + 6 * len(s) - s.count("'"))
        if s:
            env[walk] = ""
            env[char] = s[-1]
            env[dst] = _concat_val(env[dst], escaped)
    return do_escape


def _fuse_paren_scan(
    plain: Callable[[_Run], None], depth: str, walk: str, char: str, acc: str
) -> Callable[[_Run], None]:
    def do_paren_scan(run: _Run) -> None:
        env = run.env
        d = _vlen(env[depth])
        if not d:
            return _charge(run, 1)
        text, start = _text_at(env[walk])
        closes = 0
        for end in range(start + 1, len(text) + 1):
            ch = text[end - 1]
            if ch == "(":
                d += 1
            elif ch == ")":
                closes += 1
                d -= 1
                if not d:
                    break
        else:
            return plain(run)  # the walk runs out first
        k = end - start
        # The depth peaks below k: each "(" it gains needs a ")" among them.
        if _vlen(env[acc]) + k > _MAX_VALUE_LEN:
            return plain(run)
        # Per character 6 steps: the check, the char and walk assignments,
        # the If, and two more (the depth and the append for "(", the inner
        # If and the append otherwise). A ")" adds the depth's Tail and the
        # If on it, and the last one skips its append; with the final check
        # that is 6k + 2 per ")".
        _charge(run, 6 * k + 2 * closes)
        env[depth] = ""
        env[char] = ")"
        env[walk] = _View(text, end)
        env[acc] = _concat_val(env[acc], text[start : end - 1])
    return do_paren_scan


_LEADING_I = re.compile("I*")


def _fuse_unary_scan(
    plain: Callable[[_Run], None], flag: str, walk: str, acc: str
) -> Callable[[_Run], None]:
    def do_unary_scan(run: _Run) -> None:
        env = run.env
        if not _vlen(env[flag]):
            return _charge(run, 1)
        text, start = _text_at(env[walk])
        end = _LEADING_I.match(text, start).end()
        m = end - start
        if _vlen(env[acc]) + m > _MAX_VALUE_LEN:
            return plain(run)
        # per I 5 (check, two Ifs, two assignments); then the check, the Ifs
        # that empty the flag (one if the walk is empty, else two), its
        # assignment and the final check
        _charge(run, 5 * m + (4 if end == len(text) else 5))
        env[flag] = ""
        if m:
            env[acc] = _concat_val(env[acc], text[start:end])
            env[walk] = _View(text, end)
    return do_unary_scan


def _fuse_comma_scan(
    plain: Callable[[_Run], None], stack: str, acc: str
) -> Callable[[_Run], None]:
    def do_comma_scan(run: _Run) -> None:
        env = run.env
        text, start = _text_at(env[stack])
        end = text.find(",", start)
        if end < 0 or _vlen(env[acc]) + end - start > _MAX_VALUE_LEN:
            return plain(run)  # no comma: Head of the empty string after the last pass
        # per character 3 (check and two assignments), 1 for the final check
        _charge(run, 3 * (end - start) + 1)
        if end > start:
            env[acc] = _concat_val(env[acc], text[start:end])
            env[stack] = _View(text, end)
    return do_comma_scan


def _compile_block(stmts: tuple[Statement, ...], assigned: set[str]) -> tuple[tuple, set[str]]:
    """The closures of ``stmts`` and the names assigned after them on every path."""
    current = set(assigned)
    return tuple(_compile_stmt(s, current) for s in stmts), current


def _compile_program(stmts: tuple[Statement, ...]) -> tuple:
    """The closures of a program's statements; raises OpenProgramError if it is open.

    When the statements after the first are a registered skeleton's very
    objects, and the first assigns every name the skeleton was registered
    with, the skeleton's closures are reused: a closure depends only on its
    statement, and a block closed under some names is closed under more.
    """
    current: set[str] = set()
    fns = tuple(_compile_stmt(s, current) for s in stmts[:1])
    skeleton = _SKELETON_FNS.get(tuple(map(id, stmts[1:])))
    if skeleton is not None and skeleton[0] <= current:
        return fns + skeleton[1]
    return fns + tuple(_compile_stmt(s, current) for s in stmts[1:])


def _compile_stmt(s: Statement, current: set[str]) -> Callable[[_Run], None]:
    """The closure of ``s``; adds the names ``s`` assigns on every path to ``current``."""
    reads: set[str] = set()
    match s:
        case Print(expr=e):
            ef = _compile_expr(e, reads)
            _require_assigned(reads, current, "Print")
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
            ef = _compile_expr(e, reads)
            _require_assigned(reads, current, f"assignment to {n!r}")
            current.add(n)
            def do_assign(run: _Run, _n=n) -> None:
                if run.steps >= run.max_steps:
                    raise _FuelStop
                run.steps += 1
                run.env[_n] = ef(run)
            return do_assign
        case While(cond=c, body=b):
            cf = _compile_cond(c, reads)
            _require_assigned(reads, current, "While condition")
            # The body may never run, so its assignments do not escape.
            body, _ = _compile_block(b, current)
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
            fused = _match_fused_loop(s)
            return do_while if fused is None else fused[0](do_while, *fused[1])
        case IfElse(cond=c, then_body=t, else_body=e):
            cf = _compile_cond(c, reads)
            _require_assigned(reads, current, "If condition")
            then_fns, after_then = _compile_block(t, current)
            else_fns, after_else = _compile_block(e, current)
            current |= after_then & after_else
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
    included). Four loops run as one block each, charged exactly the steps
    their passes would cost, with the same outputs, status and errors: an
    :func:`escape_loop`, and the notation driver's paren scan, unary scan
    and comma scan (``_paren_scan``, ``_unary_scan``, ``_comma_scan``), each
    under any distinct variable names. Raises
    :class:`EvalError` for Head/Tail of the empty string, and
    :class:`OpenProgramError` if the program is not closed: closedness is
    checked while the closures are built, before any step runs. A program
    whose statements after the first are a registered skeleton (the
    notation's A0 loop or driver tail, the very objects) runs the closures
    built when the skeleton was registered, if its first statement assigns
    the names the skeleton needs. Raises :class:`LengthLimitError` when a
    string value would grow past the length limit.
    """
    top = _compile_program(p.statements)
    run = _Run(fuel)
    try:
        for g in top:
            g(run)
        status = TraceStatus.HALTED
    except _FuelStop:
        status = TraceStatus.FUEL_EXHAUSTED
    except KeyError as exc:  # unreachable for a closed program; keep honest
        raise EvalError(f"read of unassigned variable {exc.args[0]!r}") from None
    return Trace(tuple(run.outputs), status, run.steps)
