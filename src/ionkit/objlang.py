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
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from string import Template
from typing import Callable, NoReturn, Union, get_args

__all__ = [
    "ObjLangError",
    "ParseError",
    "OpenProgramError",
    "EvalError",
    "LimitError",
    "LengthLimitError",
    "NestingLimitError",
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


class LimitError(ObjLangError):
    """A fixed resource limit stopped the work: the input is too big, not faulty.

    It is neither a :class:`ParseError` nor an :class:`EvalError`, so the
    verifier leaves such an output unexplored and never takes it as a
    counterexample.
    """


class LengthLimitError(LimitError):
    """A string value would grow past the evaluator's length limit.

    ``X=X+X`` doubles a value in one step, so fuel bounds neither the time
    nor the memory a run takes; this limit does.
    """


class NestingLimitError(LimitError):
    """Program text or an AST nests its groups deeper than the nesting limit.

    Each keyword of a group in ``_SYNTAX`` opens one group, ``Else``
    included. The parser, the serializer and the closure compiler recurse
    once per group, and all of them raise this at the same depth, far inside
    the interpreter's recursion limit.
    """


# Deepest nesting of groups (see NestingLimitError) that a program may have.
_NESTING_LIMIT = 128


def _nest(depth: int, offset: int | None = None) -> int:
    """``depth + 1``, the depth inside one more group; the one place the limit is compared."""
    if depth >= _NESTING_LIMIT:
        where = "" if offset is None else f"offset {offset}: "
        raise NestingLimitError(f"{where}nesting deeper than the limit of {_NESTING_LIMIT}")
    return depth + 1


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_ident(name: str) -> None:
    if not _IDENT_RE.match(name):
        raise ValueError(f"invalid identifier {name!r}")
    if name in KEYWORDS:
        raise ValueError(f"identifier {name!r} is a reserved word")


_LITERAL_BYTES = bytes(range(32, 127)) + b"\n"  # the literal alphabet


def _is_literal_text(text: str) -> bool:  # a non-str is a TypeError
    return str.isascii(text) and not text.encode("ascii").translate(None, _LITERAL_BYTES)


def _check_fields(node) -> None:
    """The one check of the grammar's categories, run as each node is built: a
    ``TypeError`` naming the class and the field unless each field holds its kind
    in _FIELDS. A field of many nodes may be any iterable; it is kept as a tuple."""
    for name, (types, many, what) in _FIELDS[type(node)]:
        value = getattr(node, name)
        if not many:
            if type(value) in types:
                continue
        elif hasattr(value, "__iter__"):
            value = tuple(value)
            object.__setattr__(node, name, value)
            if types.issuperset(map(type, value)):
                continue
            value = next(x for x in value if type(x) not in types)
        raise TypeError(f"{type(node).__name__}.{name} takes {what}, not {value!r}")


@dataclass(frozen=True, slots=True)
class Literal:
    text: str

    def __post_init__(self) -> None:
        if not _is_literal_text(self.text):
            bad = next(c for c in self.text if c != "\n" and not " " <= c <= "~")
            raise ValueError(f"literal contains non-printable character {bad!r}")


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
        _check_fields(self)
        if len(self.parts) < 2 or Concat in map(type, self.parts):
            raise ValueError("Concat takes two or more parts, none a Concat; use concat(...)")


@dataclass(frozen=True, slots=True)
class Head:
    arg: "Expr"
    __post_init__ = _check_fields


@dataclass(frozen=True, slots=True)
class Tail:
    arg: "Expr"
    __post_init__ = _check_fields


Expr = Union[Literal, Var, Concat, Head, Tail]


@dataclass(frozen=True, slots=True)
class TrueCond:
    pass


@dataclass(frozen=True, slots=True)
class Equals:
    left: Expr
    right: Expr
    __post_init__ = _check_fields


@dataclass(frozen=True, slots=True)
class Not:
    inner: "Cond"
    __post_init__ = _check_fields


Cond = Union[TrueCond, Equals, Not]


@dataclass(frozen=True, slots=True)
class Print:
    expr: Expr
    __post_init__ = _check_fields


@dataclass(frozen=True, slots=True)
class Assign:
    name: str
    expr: Expr

    def __post_init__(self) -> None:
        _check_ident(self.name)
        _check_fields(self)


@dataclass(frozen=True, slots=True)
class While:
    cond: Cond
    body: tuple["Statement", ...]
    __post_init__ = _check_fields


@dataclass(frozen=True, slots=True)
class IfElse:
    cond: Cond
    then_body: tuple["Statement", ...]
    else_body: tuple["Statement", ...]
    __post_init__ = _check_fields


Statement = Union[Print, Assign, While, IfElse]


@dataclass(frozen=True, slots=True)
class Program:
    """A complete object-language program (possibly the empty one)."""

    statements: tuple[Statement, ...] = ()
    __post_init__ = _check_fields


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


# The one description of the keyword groups: the parser reads it and the
# serializer writes it. A group's sequence holds its keywords, its fixed
# tokens and one marker per field, in the dataclass's field order: _EXPR an
# expression, _COND a condition, _BLOCK statements and their closing "}".
# Each keyword opens a group at that keyword and closes the one before it.
# Each marker is also its field's kind: the classes it admits, whether it
# holds a tuple of them, and its name in the constructors' TypeError.
_Kind = namedtuple("_Kind", "types many what")
_EXPR = _Kind(frozenset(get_args(Expr)), False, "an expression")
_COND = _Kind(frozenset(get_args(Cond)), False, "a condition")
_BLOCK = _Kind(frozenset(get_args(Statement)), True, "statements")
_SYNTAX: dict[type, tuple] = {
    Print: ("Print", "(", _EXPR, ")", ";"),
    While: ("While", "(", _COND, ")", "{", _BLOCK),
    IfElse: ("If", "(", _COND, ")", "{", _BLOCK, "Else", "{", _BLOCK),
    Head: ("Head", "(", _EXPR, ")"),
    Tail: ("Tail", "(", _EXPR, ")"),
    Equals: ("Equals", "(", _EXPR, ",", _EXPR, ")"),
    Not: ("Not", "(", _COND, ")"),
}

# The kind of each field that _check_fields checks: a group's fields take
# their markers' kinds, in order, and three fields lie outside any group.
_FIELDS = {cls: tuple(zip(cls.__match_args__, [t for t in ts if type(t) is _Kind]))
           for cls, ts in _SYNTAX.items()}
_FIELDS[Assign] = (("expr", _EXPR),)
_FIELDS[Concat] = (("parts", _Kind(_EXPR.types, True, "expressions")),)
_FIELDS[Program] = (("statements", _BLOCK),)

KEYWORDS = frozenset(
    {"End", "True"} | {t for ts in _SYNTAX.values() for t in ts if type(t) is str and t.isalpha()}
)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _codec_escape(text: str) -> str:
    # On the literal alphabet the codec escapes exactly \ and newline.
    return text.encode("unicode_escape").decode("ascii")


def escape_literal(text: str) -> str:
    """Escape literal text for embedding between single quotes.

    On the literal alphabet (printable ASCII and newline) of every literal and
    value this is one codec pass plus the quote replace; other text takes three.
    """
    if _is_literal_text(text):
        return _codec_escape(text).replace("'", "\\'")
    return text.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")


def _emit(node, parts: list[str], depth: int) -> None:
    """Write ``node``, a statement, an expression or a condition."""
    # ``depth`` counts the groups around ``node``, here and in the walkers below.
    syntax = _SYNTAX.get(type(node))
    if syntax is not None:  # a keyword group, written as its _SYNTAX sequence says
        # Every keyword of a group opens its group at the same depth.
        inner = _nest(depth)
        fields = iter([getattr(node, name) for name in node.__match_args__])
        for token in syntax:
            if type(token) is str:
                parts.append(token)
            elif token is _BLOCK:
                for st in next(fields):
                    _emit(st, parts, inner)
                parts.append("}")
            else:
                _emit(next(fields), parts, inner)
        return
    match node:
        case Literal(text=t):
            parts.append("'")
            parts.append(escape_literal(t))
            parts.append("'")
        case Var(name=n):
            parts.append(n)
        case Concat(parts=ps):
            _emit(ps[0], parts, depth)
            for x in ps[1:]:
                parts.append("+")
                _emit(x, parts, depth)
        case Assign(name=n, expr=e):
            parts.append(n)
            parts.append("=")
            _emit(e, parts, depth)
            parts.append(";")
        case TrueCond():
            parts.append("True")


def serialize(p: Program) -> str:
    """Emit the canonical source text of ``p`` (no whitespace, trailing End)."""
    parts: list[str] = []
    # A skeleton's very statements after the first (as parse returns them) emit its text.
    skeleton = _SKELETON_FNS.get(tuple(map(id, p.statements[1:])))
    tail = None if skeleton is None else skeleton[3]
    for s in p.statements if tail is None else p.statements[:1]:
        _emit(s, parts, 0)
    parts.append("End" if tail is None else tail)
    return "".join(parts)


# ---------------------------------------------------------------------------
# skeletons
#
# Every program the notation compiler emits is a data assignment (C='...' or
# X='...') followed by one of two fixed skeletons. The notation module
# registers both when it is imported; after that the tables below are only
# read. _SKELETON_FNS is keyed on the ids of a skeleton's statements, for the
# compiler and serialize; the parser scans each entry's text, End included.
# ---------------------------------------------------------------------------

# ids -> (names assigned before the skeleton, (its generated function,), its
# statements, its text)
_SKELETON_FNS: dict[tuple[int, ...], tuple[frozenset[str], tuple, tuple[Statement, ...], str]] = {}
# id of each text a skeleton assigns as a top-level literal -> its escape and
# count of quotes (see _fuse_escape_loop). The skeleton's statements keep the
# text alive, so its id names no other object. It holds those texts' escapes
# only, for as long as the process runs; every other text a fused escape
# loop escapes is kept, up to a bound, in its run's memo and only for that run.
_LITERAL_ESCAPES: dict[int, tuple[str, int]] = {}


def _register_skeleton(stmts: tuple[Statement, ...], names_before: set[str]) -> str:
    """Register ``stmts``, closed once ``names_before`` are assigned; its text.

    The skeleton is checked for closedness (an open one fails the import) and
    compiled once, here, to one generated Python function that runs all its
    statements (see _skeleton_source). Every other program runs as a tree of
    closures; both paths give the same outputs, status, errors and step count.
    """
    text = serialize(Program(stmts))
    _compile_block(stmts, names_before)
    for s in stmts:
        if type(s) is Assign and type(s.expr) is Literal:
            _LITERAL_ESCAPES[id(s.expr.text)] = _escape(s.expr.text)
    fns = (_skeleton_function(stmts),)
    _SKELETON_FNS[tuple(map(id, stmts))] = (frozenset(names_before), fns, stmts, text)
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
    # ``nesting`` counts the groups open at ``pos`` (see NestingLimitError).
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.nesting = 0

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
        for *_, stmts, text in _SKELETON_FNS.values():
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

    def group(self, classes: tuple[type, ...]):
        """The group of whichever of ``classes`` has its keyword at ``pos``, or None."""
        for cls in classes:
            if self.at_keyword(_SYNTAX[cls][0]):
                break
        else:
            return None
        outer, fields = self.nesting, []
        for token in _SYNTAX[cls]:
            if token is _EXPR:
                fields.append(self.expr())
            elif token is _COND:
                fields.append(self.cond())
            elif token is _BLOCK:
                fields.append(self.block())
            elif token.isalpha():
                if fields:  # a later keyword; the first one was found above
                    self.skip_ws()
                    if not self.at_keyword(token):
                        self.fail(f"'{token}'")
                self.nesting = _nest(outer, self.pos)
                self.pos += len(token)
            else:
                self.eat(token)
        self.nesting = outer
        return cls(*fields)

    def statement(self) -> Statement:
        self.skip_ws()
        start = self.pos
        if (node := self.group((Print, While, IfElse))) is not None:
            return node
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
        if (node := self.group((Head, Tail))) is not None:
            return node
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
            # Printable ASCII and the escapes \' \\ \n: the codec undoes them exactly.
            body = body.encode("ascii").decode("unicode_escape")
        return Literal(body)

    def cond(self) -> Cond:
        self.skip_ws()
        if self.at_keyword("True"):
            self.pos += 4
            return TrueCond()
        if (node := self.group((Equals, Not))) is not None:
            return node
        self.fail("condition")


def parse(source: str) -> Program:
    """Parse source text into the unique AST; raise :class:`ParseError` otherwise.

    Text that nests its groups deeper than the nesting limit raises
    :class:`NestingLimitError`, which is not a :class:`ParseError`.
    """
    return _Parser(source).program()


# ---------------------------------------------------------------------------
# static closedness check
# ---------------------------------------------------------------------------

# The compiler below is the check: the value compiler adds every name it
# reads to a set, and the statement compiler compares that set with the
# names assigned on every path to the statement.

def _require_assigned(reads: set[str], assigned: set[str], where: str) -> None:
    missing = reads - assigned
    if missing:
        name = sorted(missing)[0]
        raise OpenProgramError(f"variable {name!r} may be read before assignment in {where}")


def check_closed(p: Program) -> None:
    """Verify statically that every variable read is preceded by an assignment.

    Raises :class:`OpenProgramError` naming the offending variable. The check
    is per-path: a While body that reads a variable it only assigns later is
    rejected, because the first iteration would read it unassigned. A
    program nested past the nesting limit raises :class:`NestingLimitError`.
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
# and plain str would make those loops quadratic. A value of at most _SHORT
# characters is always a plain str: a concatenation or a suffix that short is
# copied at once (see _concat_val and _suffix), so a _View or a _Cat exists
# only above _SHORT. Most values stay that short, a copy of them costs bounded
# time, and a rope of them would only be flattened later.

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


# The longest string value a run may build (64 MiB). notation.compile_ordinal refuses
# a longer source, so a run can hold every source that the compiler builds.
_MAX_VALUE_LEN = 1 << 26

# The longest value that is kept as a plain str when it is made (see above).
_SHORT = 256


def _concat_val(l, r):
    """The one place a value grows: ``l`` followed by ``r``, at most _MAX_VALUE_LEN long."""
    # _vlen inline: this runs for every append the driver makes
    tl, tr = type(l), type(r)
    ll = len(l) if tl is str else len(l.base) - l.start if tl is _View else l.length
    rl = len(r) if tr is str else len(r.base) - r.start if tr is _View else r.length
    if ll == 0:
        return r
    if rl == 0:
        return l
    n = ll + rl
    # The limit before the short path, so that it holds at any value, below _SHORT too.
    if n > _MAX_VALUE_LEN:
        raise LengthLimitError(
            f"string value of {n} characters is over the limit of {_MAX_VALUE_LEN}"
        )
    if n <= _SHORT:
        return (l if tl is str else _to_str(l)) + (r if tr is str else _to_str(r))
    return _Cat(l, r, n)


def _suffix(text: str, start: int):
    """The value of ``text[start:]``: a copy when it is at most _SHORT long, else a _View."""
    if len(text) - start <= _SHORT:
        return text[start:]
    return _View(text, start)


# The three other primitives on values, used by the closures and by the
# generated skeleton functions alike.

def _head(v) -> str:
    """``Head``: the first character of ``v``."""
    if type(v) is str:
        if not v:
            raise EvalError("Head of empty string")
        return v[0]
    if type(v) is _View:
        if v.start >= len(v.base):
            raise EvalError("Head of empty string")
        return v.base[v.start]
    # Both halves of a _Cat are nonempty, so its head is its left half's: a
    # rope that shares its halves is not flattened for one character.
    while type(v) is _Cat:
        v = v.left if v.flat is None else v.flat
    return _head(v)


def _tail(v):
    """``Tail``: ``v`` without its first character."""
    if type(v) is str:
        if not v:
            raise EvalError("Tail of empty string")
        return _suffix(v, 1)
    if type(v) is _View:
        if v.start >= len(v.base):
            raise EvalError("Tail of empty string")
        return _suffix(v.base, v.start + 1)
    return _suffix(_to_str(v), 1)


def _eq(lv, rv) -> bool:
    """``Equals``: whether ``lv`` and ``rv`` hold the same text."""
    if lv is rv:  # X+'' is X itself: a shared rope is not flattened to compare it
        return True
    if type(lv) is str and type(rv) is str:
        return lv == rv
    return _vlen(lv) == _vlen(rv) and _to_str(lv) == _to_str(rv)


class _Run:
    __slots__ = ("env", "outputs", "steps", "max_steps", "max_outputs", "escapes", "escaped_len")

    def __init__(self, fuel: Fuel):
        self.env: dict[str, object] = {}
        self.outputs: list[str] = []
        self.steps = 0
        self.max_steps = fuel.max_steps
        self.max_outputs = fuel.max_outputs
        # The run's escape memo (see _fuse_escape_loop), made on its first
        # miss, and the characters of its keys and escapes.
        self.escapes: dict[str, tuple[str, int]] | None = None
        self.escaped_len = 0


# The AST is translated to a tree of closures before a run; the compiled
# notation programs execute hundreds of thousands of statements, and per-step
# dispatch on AST node types would dominate the runtime. Most of those
# statements are passes of four loops: the escape loop and the notation
# driver's paren, unary and comma scans. Each of them is one closure that
# does its work with str operations and is charged the exact step cost of
# its passes (see _match_fused_loop).
# The two registered skeletons run as generated functions instead, built
# once, when they are registered, and reused by every program that ends in
# one (see _skeleton_source and _compile_program).

def _compile_value(node, reads: set[str], depth: int) -> Callable[[_Run], object]:
    """The closure of expression or condition ``node``: it gives a value or a bool."""
    match node:
        case Literal(text=t):
            return lambda run, _t=t: _t
        case Var(name=n):
            reads.add(n)
            def read(run: _Run, _n=n):
                return run.env[_n]  # its statement checked that _n is assigned
            return read
        case Concat(parts=ps):
            first, *rest = (_compile_value(x, reads, depth) for x in ps)
            def cat(run: _Run):
                v = first(run)
                for f in rest:
                    v = _concat_val(v, f(run))
                return v
            return cat
        case Head(arg=a) | Tail(arg=a):
            af = _compile_value(a, reads, _nest(depth))
            primitive = _head if isinstance(node, Head) else _tail
            def head_or_tail(run: _Run):
                return primitive(af(run))
            return head_or_tail
        case TrueCond():
            return lambda run: True
        case Equals(left=l, right=r):
            inner = _nest(depth)
            lf, rf = _compile_value(l, reads, inner), _compile_value(r, reads, inner)
            def eq(run: _Run) -> bool:
                return _eq(lf(run), rf(run))
            return eq
        case Not(inner=i):
            inf = _compile_value(i, reads, _nest(depth))
            def neg(run: _Run) -> bool:
                return not inf(run)
            return neg


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


def _escape(s: str) -> tuple[str, int]:
    """Value ``s`` (so over the literal alphabet) escaped as by escape_literal
    but with newlines kept raw, and its count of quotes. With a newline in
    ``s`` the codec would escape it, so one replace doubles the backslashes."""
    doubled = _codec_escape(s) if "\n" not in s else s.replace("\\", "\\\\")
    escaped = doubled.replace("'", "\\'")
    return escaped, len(escaped) - len(doubled)


def _fuse_escape_loop(
    plain: Callable[[_Run], None], walk: str, char: str, dst: str
) -> Callable[[_Run], None]:
    # The driver escapes its own source text, the skeleton's literal L, for
    # every output: a text that is such a literal takes the escape made once
    # when the skeleton was registered. Any other text is looked up by value
    # in the run's memo, which the driver's wrap loops hit: at output n they
    # re-quote the texts they quoted at output n-1. A miss is escaped and
    # kept until the run ends, unless it would take the memo's texts and
    # escapes past _MAX_VALUE_LEN characters.
    def do_escape(run: _Run) -> None:
        env = run.env
        s = _to_str(env[walk])
        entry = _LITERAL_ESCAPES.get(id(s))
        if entry is None:
            memo = run.escapes
            if memo is None:
                memo = run.escapes = {}
            entry = memo.get(s)
            if entry is None:
                entry = _escape(s)
                size = run.escaped_len + len(s) + len(entry[0])
                if size <= _MAX_VALUE_LEN:
                    memo[s] = entry
                    run.escaped_len = size
        escaped, quotes = entry
        if _vlen(env[dst]) + len(escaped) > _MAX_VALUE_LEN:
            return plain(run)
        # 1 for the final check; per character 6, or 5 for a quote, which
        # takes the first branch and skips the inner If.
        _charge(run, 1 + 6 * len(s) - quotes)
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
        # From ")" to ")": the depth can reach 0 only at one.
        closes, end = 0, start
        while d:
            close = text.find(")", end)
            if close < 0:
                return plain(run)  # the walk runs out first
            d += text.count("(", end, close) - 1
            closes += 1
            end = close + 1
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
        env[walk] = _suffix(text, end)
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
            env[walk] = _suffix(text, end)
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
            env[stack] = _suffix(text, end)
    return do_comma_scan


# Each loop the evaluator runs as one block, written once: its text over
# $-names (serialize's, without End), the order its builder takes the names
# in, and the closure that fuses it. Builders parse it; notation splices it.
_FUSED_LOOPS: dict[str, tuple[Template, tuple[str, ...], Callable]] = {
    # appends $walk's text to $dst with each quote and backslash escaped (see escape_loop)
    "escape": (Template(
        r"While(Not(Equals($walk,''))){$char=Head($walk);$walk=Tail($walk);"
        r"If(Equals($char,'\'')){$dst=$dst+'\\\'';}"
        r"Else{If(Equals($char,'\\')){$dst=$dst+'\\\\';}Else{$dst=$dst+$char;}}}"
    ), ("walk", "char", "dst"), _fuse_escape_loop),
    # moves $walk's text up to the ")" that closes it into $acc: $depth counts
    # open parens in unary, and at the end it is empty and $char holds that ")".
    # The notation driver splits the leading term of an encoding with it.
    "paren": (Template(
        r"While(Not(Equals($depth,''))){$char=Head($walk);$walk=Tail($walk);"
        r"If(Equals($char,'(')){$depth=$depth+'I';$acc=$acc+$char;}"
        r"Else{If(Equals($char,')')){$depth=Tail($depth);"
        r"If(Equals($depth,'')){}Else{$acc=$acc+$char;}}Else{$acc=$acc+$char;}}}"
    ), ("depth", "walk", "char", "acc"), _fuse_paren_scan),
    # moves $walk's leading "I" characters to $acc; it empties $flag
    "unary": (Template(
        r"While(Not(Equals($flag,''))){If(Equals($walk,'')){$flag='';}"
        r"Else{If(Equals(Head($walk),'I')){$acc=$acc+'I';$walk=Tail($walk);}Else{$flag='';}}}"
    ), ("flag", "walk", "acc"), _fuse_unary_scan),
    # moves $stack's text before its first comma to $acc
    "comma": (Template(
        r"While(Not(Equals(Head($stack),','))){$acc=$acc+Head($stack);$stack=Tail($stack);}"
    ), ("stack", "acc"), _fuse_comma_scan),
}


def _build_loop(kind: str, *names: str) -> While:
    """The loop ``kind`` of _FUSED_LOOPS under ``names``. Each name is checked
    before any text is built, so no name can make the text some other loop."""
    text, params, _ = _FUSED_LOOPS[kind]
    for name in names:
        _check_ident(name)
    (loop,) = parse(text.substitute(dict(zip(params, names))) + "End").statements
    return loop


def escape_loop(walk: str, char: str, dst: str) -> While:
    """The object-language loop that appends ``walk``'s text to ``dst`` escaped.

    One character per pass: ``char`` takes the head of ``walk``, a quote or a
    backslash gets a backslash in front, and the loop stops when ``walk`` is
    empty. Newlines stay raw, unlike :func:`escape_literal`. This is how a
    program prints a program that quotes another one, and :func:`evaluate`
    runs it as a single block charged the steps its passes would cost.
    """
    return _build_loop("escape", walk, char, dst)


# Each loop under its own parameter names, the shape _match_fused_loop binds.
_FUSED_SHAPES = [(_build_loop(k, *ps), ps, fuse) for k, (_, ps, fuse) in _FUSED_LOOPS.items()]


def _bind(shape, node, names: dict[str, str]) -> bool:
    """Whether ``node`` is ``shape`` renamed by ``names``, which it extends: a
    Var's or an Assign's name is renamed one way everywhere, a Literal must be
    equal, and every other node must match by type and fields."""
    if type(node) is not type(shape):
        return False
    if type(shape) is Literal:
        return node == shape
    if type(shape) is str:
        return names.setdefault(shape, node) == node
    if type(shape) is tuple:
        return len(node) == len(shape) and all(_bind(x, y, names) for x, y in zip(shape, node))
    return all(_bind(getattr(shape, f), getattr(node, f), names) for f in shape.__match_args__)


def _match_fused_loop(s: While) -> tuple[Callable, tuple[str, ...]] | None:
    """(fuse, names) when ``s`` is a loop of _FUSED_LOOPS under distinct names,
    in the order its builder takes them. ``fuse(plain, *names)`` gives the
    closure that runs the loop as one block, where ``plain`` runs it pass by pass."""
    for shape, params, fuse in _FUSED_SHAPES:
        names: dict[str, str] = {}
        if _bind(shape, s, names) and len(set(names.values())) == len(names):
            return fuse, tuple(names[p] for p in params)
    return None


def _compile_block(
    stmts: tuple[Statement, ...], assigned: set[str], depth: int = 0
) -> tuple[tuple, set[str]]:
    """The closures of ``stmts`` and the names assigned after them on every path."""
    current = set(assigned)
    return tuple(_compile_stmt(s, current, depth) for s in stmts), current


def _compile_program(stmts: tuple[Statement, ...]) -> tuple:
    """The closures of a program's statements; raises OpenProgramError if it is open.

    When the statements after the first are a registered skeleton's very
    objects, and the first assigns every name the skeleton was registered
    with, the skeleton's generated function stands for them: it depends
    only on the statements, and a block closed under some names is closed
    under more.
    """
    current: set[str] = set()
    fns = tuple(_compile_stmt(s, current) for s in stmts[:1])
    skeleton = _SKELETON_FNS.get(tuple(map(id, stmts[1:])))
    if skeleton is not None and skeleton[0] <= current:
        return fns + skeleton[1]
    return fns + tuple(_compile_stmt(s, current) for s in stmts[1:])


def _compile_stmt(s: Statement, current: set[str], depth: int = 0) -> Callable[[_Run], None]:
    """The closure of ``s``; adds the names ``s`` assigns on every path to ``current``."""
    reads: set[str] = set()
    match s:
        case Print(expr=e):
            ef = _compile_value(e, reads, _nest(depth))
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
            ef = _compile_value(e, reads, depth)
            _require_assigned(reads, current, f"assignment to {n!r}")
            current.add(n)
            def do_assign(run: _Run, _n=n) -> None:
                if run.steps >= run.max_steps:
                    raise _FuelStop
                run.steps += 1
                run.env[_n] = ef(run)
            return do_assign
        case While(cond=c, body=b):
            inner = _nest(depth)
            cf = _compile_value(c, reads, inner)
            _require_assigned(reads, current, "While condition")
            # The body may never run, so its assignments do not escape.
            body, _ = _compile_block(b, current, inner)
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
            inner = _nest(depth)
            cf = _compile_value(c, reads, inner)
            _require_assigned(reads, current, "If condition")
            then_fns, after_then = _compile_block(t, current, inner)
            else_fns, after_else = _compile_block(e, current, inner)
            current |= after_then & after_else
            def do_if(run: _Run) -> None:
                if run.steps >= run.max_steps:
                    raise _FuelStop
                run.steps += 1
                for g in then_fns if cf(run) else else_fns:
                    g(run)
            return do_if


# A registered skeleton runs as one generated Python function rather than a
# closure per statement: the driver runs hundreds of statements per output,
# and calling a closure for each one was most of the evaluator's time. The
# function does what the closures do, in the same order, through the same
# helpers (_head, _tail, _concat_val, _eq, _to_str and the fused loops'
# closures). It keeps the step count in a local and writes it back to
# run.steps before every _FuelStop, before each fused loop and at the end.
# Only the notation's two fixed skeletons are generated, at import; literal
# values are bound by name, and names are identifiers emitted with repr().

def _skeleton_source(stmts: tuple[Statement, ...]) -> tuple[str, dict[str, object]]:
    """The source of a factory for the function that runs ``stmts``, and its arguments.

    ``stmts`` must be closed (``_register_skeleton`` checks it). The factory,
    ``_make(**consts)``, returns ``run_skeleton(run)``.
    """
    consts: dict[str, object] = {}
    lines: list[str] = []

    def const(obj) -> str:
        name = f"_k{len(consts)}"
        consts[name] = obj
        return name

    def value(node) -> str:
        match node:
            case Literal(text=t):
                return const(t)
            case Var(name=n):
                return f"env[{n!r}]"
            case Concat(parts=ps):
                code = value(ps[0])
                for x in ps[1:]:
                    code = f"_concat_val({code}, {value(x)})"
                return code
            case Head(arg=a) | Tail(arg=a):
                return f"{'_head' if isinstance(node, Head) else '_tail'}({value(a)})"
            case TrueCond():
                return "True"
            case Equals(left=l, right=r):
                return f"_eq({value(l)}, {value(r)})"
            case Not(inner=i):
                return f"not {value(i)}"

    def step(pad: str, also: str = "") -> None:
        lines.append(f"{pad}if {also}steps >= ms:")
        lines.append(f"{pad}    run.steps = steps")
        lines.append(f"{pad}    raise _FuelStop")
        lines.append(f"{pad}steps += 1")

    def block(body: tuple[Statement, ...], pad: str) -> None:
        if not body:
            lines.append(f"{pad}pass")
        for s in body:
            match s:
                case Print(expr=e):
                    # a blocked Print stops the run without charging a step
                    step(pad, also="len(outputs) >= mo or ")
                    lines.append(f"{pad}outputs.append(_to_str({value(e)}))")
                case Assign(name=n, expr=e):
                    step(pad)
                    lines.append(f"{pad}env[{n!r}] = {value(e)}")
                case While() if (fused := _match_fused_loop(s)) is not None:
                    # the loop reads only the names it was built from
                    lines.append(f"{pad}run.steps = steps")
                    lines.append(f"{pad}{const(_compile_stmt(s, set(fused[1])))}(run)")
                    lines.append(f"{pad}steps = run.steps")
                case While(cond=c, body=b):
                    lines.append(f"{pad}while True:")
                    step(pad + "    ")
                    if c != TrueCond():
                        lines.append(f"{pad}    if not ({value(c)}):")
                        lines.append(f"{pad}        break")
                    block(b, pad + "    ")
                case IfElse(cond=c, then_body=t, else_body=e):
                    step(pad)
                    lines.append(f"{pad}if {value(c)}:")
                    block(t, pad + "    ")
                    lines.append(f"{pad}else:")
                    block(e, pad + "    ")

    block(stmts, " " * 8)
    head = [
        f"def _make({', '.join(consts)}):",
        "    def run_skeleton(run):",
        "        env = run.env",
        "        outputs = run.outputs",
        "        ms = run.max_steps",
        "        mo = run.max_outputs",
        "        steps = run.steps",
    ]
    tail = ["        run.steps = steps", "    return run_skeleton", ""]
    return "\n".join(head + lines + tail), consts


def _skeleton_function(stmts: tuple[Statement, ...]) -> Callable[[_Run], None]:
    """The generated function that runs ``stmts`` (see _skeleton_source)."""
    source, consts = _skeleton_source(stmts)
    factory: dict[str, Callable] = {}
    # The function's globals are this module's, so it reads the helpers (and
    # _MAX_VALUE_LEN, through _concat_val) as the closures do.
    exec(compile(source, "<ionkit skeleton>", "exec"), globals(), factory)
    return factory["_make"](**consts)


def evaluate(p: Program, fuel: Fuel) -> Trace:
    """Run ``p`` under ``fuel``; deterministic, total, and reproducible.

    Each statement execution costs one step (every While condition check
    included). Four loops run as one block each, under any distinct
    variable names, charged exactly the steps their passes would cost, with
    the same outputs, status and errors: an :func:`escape_loop` and the
    notation driver's paren, unary and comma scans, each written once as
    one text in ``_FUSED_LOOPS``. Raises :class:`EvalError` for Head/Tail
    of the empty string, and :class:`OpenProgramError` if the program is
    not closed: closedness is checked while the closures are built, before
    any step runs, and so is the nesting limit (:class:`NestingLimitError`).
    Raises :class:`LengthLimitError` when a string value would grow past
    the length limit.

    A program whose statements after the first are a registered skeleton
    (the notation's A0 loop or driver tail, the very objects), and whose
    first statement assigns the names the skeleton needs, runs that first
    statement as a closure and the skeleton as the one Python function
    generated for it at import. Every other program runs as a tree of
    closures built for this call. Neither path changes outputs, status,
    errors or ``steps_used``.

    The escape loops of one call share a memo from each text they escaped to
    its escape, so a text quoted again is not escaped again. It holds at
    most the length limit's count of characters of texts plus escapes, and
    it is dropped when the call returns.
    """
    top = _compile_program(p.statements)
    run = _Run(fuel)
    try:
        for g in top:
            g(run)
        status = TraceStatus.HALTED
    except _FuelStop:
        status = TraceStatus.FUEL_EXHAUSTED
    return Trace(tuple(run.outputs), status, run.steps)
