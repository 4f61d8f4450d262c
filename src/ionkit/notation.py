"""Compile ordinals to notation programs; recognize, verify, and bound them.

A notation program is one whose outputs are all themselves notation programs;
its value is the least ordinal strictly above the values of its outputs. This
module compiles every CNF ordinal below epsilon_0 to a canonical program with
that value, inverts the compiler on its image (``decompile``), checks
membership under an explicit fuel budget (``verify``, three-valued because the
full property is undecidable), and computes certified lower bounds on the
value of arbitrary programs (``value_lower_bound``).

Compilation shapes:

* 0 is the empty program ``End``.
* A successor prints the predecessor's source once:
  ``Print('<source>');End``.
* A limit ``base + w*c`` prints the base source, then re-wraps it in a fresh
  ``Print('...');End`` each iteration (an escape loop keeps the quoting
  right), so output n is exactly the program for ``base + w*(c-1) + n``.
* Every other limit compiles to a fixed self-replicating driver plus two data
  literals: ``C``, an encoding of the ordinal, and ``L``, the driver's own
  source text. Each iteration the driver computes the encoding of the n-th
  member of the ordinal's fundamental sequence and rebuilds the matching
  source text, quoting ``L`` into child drivers where the member is again a
  deep limit.

The normative contract is compositional: output n of a compiled limit is
byte-equal to the serialization of the compiled n-th fundamental-sequence
member, for every n.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .objlang import (
    Assign,
    Equals,
    EvalError,
    Fuel,
    Head,
    IfElse,
    LengthLimitError,
    Literal,
    Not,
    OpenProgramError,
    ParseError,
    Print,
    Program,
    Statement,
    Tail,
    TraceStatus,
    TrueCond,
    Var,
    While,
    _comma_scan,
    _paren_scan,
    _register_skeleton,
    _unary_scan,
    concat,
    escape_literal,
    escape_loop,
    evaluate,
    parse,
    serialize,
)
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Kind,
    Ordinal,
    _check_int,
    add,
    classify,
    format_ordinal,
    fundamental_sequence,
    predecessor,
)

__all__ = [
    "compile_ordinal",
    "source_of",
    "source_size",
    "decompile",
    "succ_notation",
    "ProvenMember",
    "Refuted",
    "Inconclusive",
    "Verdict",
    "FuelSpent",
    "VerificationResult",
    "verify",
    "value_lower_bound",
    "source_sha256",
    "certificate_text",
    "parse_certificate",
]


# ---------------------------------------------------------------------------
# ordinal encoding used by the driver
#
# An ordinal is encoded smallest-term-first as a string over ( ) I:
# each CNF term (exponent e, coefficient c) becomes "(" enc(e) ")" followed by
# c copies of "I". Smallest-first means every fundamental-sequence step only
# touches a prefix of the string, and the alphabet needs no escaping inside
# object-language literals.
# ---------------------------------------------------------------------------

_I_RUN = re.compile(r"\)I+")


def _encode(a: Ordinal) -> str:
    parts: list[str] = []
    for exp, coeff in reversed(a.terms):
        parts.append("(" + _encode(exp) + ")" + "I" * coeff)
    return "".join(parts)


def _decode(s: str) -> Ordinal:
    """Inverse of :func:`_encode`; raises ValueError on malformed input."""

    def terms(pos: int) -> tuple[Ordinal, int]:
        # Terms from pos up to an unmatched ")" or the end, and where they stop.
        small_first: list[tuple[Ordinal, int]] = []
        while s.startswith("(", pos):
            exp, pos = terms(pos + 1)
            run = _I_RUN.match(s, pos)
            if run is None:
                raise ValueError(f"expected ')' and a coefficient at {pos}")
            small_first.append((exp, run.end() - pos - 1))
            pos = run.end()
        try:
            return Ordinal(tuple(reversed(small_first))), pos
        except ValueError as exc:
            raise ValueError(f"not a canonical encoding: {exc}") from exc

    a, end = terms(0)
    if end != len(s):
        raise ValueError(f"expected '(' at {end}")
    return a


# ---------------------------------------------------------------------------
# skeleton A0: limits of the form base + w*c
#
# X holds the current output's source; each iteration prints it and re-wraps
# it in Print('...');End, escaping quotes and backslashes with the same loop
# the driver uses.
# ---------------------------------------------------------------------------

def _esc_stmts(src: str, dst: str, walk: str = "V", char: str = "M") -> tuple[Statement, ...]:
    """dst = src with backslashes doubled and quotes backslashed, one char per pass."""
    return (Assign(dst, Literal("")), Assign(walk, Var(src)), escape_loop(walk, char, dst))


_A0_WHILE = While(
    TrueCond(),
    (Print(Var("X")),)
    + _esc_stmts("X", "E", walk="R", char="H")
    + (Assign("X", concat(Literal("Print('"), Var("E"), Literal("');End"))),),
)

# Serialization of everything after the X= assignment, shared with the driver.
_A0_REST = _register_skeleton((_A0_WHILE,), {"X"})


def _a0_program(base_source: str) -> Program:
    return Program((Assign("X", Literal(base_source)), _A0_WHILE))


# ---------------------------------------------------------------------------
# universal driver: all other limits
#
# Register map (single letters keep the quoted source small):
#   C encoding of the compiled ordinal      L driver source text (quine data)
#   N unary output counter                  T current child source text
#   A encoding being stepped    S stack of pending wrap frames (comma-separated)
#   F loop flag                 G rest-of-ordinal frame
#   D encoding of the current fundamental-sequence member
#   B first exponent   K first coefficient (unary)   W walk/rest of encoding
#   P unary paren depth   M current character   Q scan flag
#   J pending successor wraps   Y pending omega wraps
#   U escaped text   V escape-loop walk
# ---------------------------------------------------------------------------

def _first_split_stmts(src: str) -> tuple[Statement, ...]:
    """Split the leading term of a nonempty encoding held in ``src``.

    Leaves the exponent encoding in B, the unary coefficient in K, and the
    remaining terms in W.
    """
    return (
        Assign("B", Literal("")),
        Assign("P", Literal("I")),
        Assign("W", Tail(Var(src))),
        _paren_scan("P", "W", "M", "B"),
        Assign("K", Literal("")),
        Assign("Q", Literal("x")),
        _unary_scan("Q", "W", "K"),
    )


# Fundamental-sequence step: from C (encoding of the limit) and N (unary n),
# leave the encoding of the n-th member in D. Iterative descent: successor
# exponents terminate, limit exponents push their rest-frame onto S and recurse
# into the exponent; afterwards the frames are unwound as w^(...)·1 wraps.
_FS_STMTS: tuple[Statement, ...] = (
    Assign("S", Literal("")),
    Assign("A", Var("C")),
    Assign("F", Literal("")),
    While(
        Equals(Var("F"), Literal("")),
        _first_split_stmts("A")
        + (
            IfElse(
                Equals(Var("K"), Literal("I")),
                (Assign("G", Var("W")),),
                (
                    Assign(
                        "G",
                        concat(
                            Literal("("), Var("B"), Literal(")"), Tail(Var("K")), Var("W")
                        ),
                    ),
                ),
            ),
            IfElse(
                Equals(Head(Tail(Var("B"))), Literal(")")),
                (
                    # successor exponent: drop its "()" term and one I
                    Assign("B", Tail(Tail(Tail(Var("B"))))),
                    IfElse(
                        Equals(Var("B"), Literal("")),
                        (),
                        (
                            IfElse(
                                Equals(Head(Var("B")), Literal("I")),
                                (Assign("B", concat(Literal("()"), Var("B"))),),
                                (),
                            ),
                        ),
                    ),
                    IfElse(
                        Equals(Var("N"), Literal("")),
                        (Assign("D", Var("G")),),
                        (
                            Assign(
                                "D",
                                concat(
                                    Literal("("), Var("B"), Literal(")"), Var("N"), Var("G")
                                ),
                            ),
                        ),
                    ),
                    Assign("F", Literal("x")),
                ),
                (
                    # limit exponent: remember the rest, step into the exponent
                    Assign("S", concat(Var("G"), Literal(","), Var("S"))),
                    Assign("A", Var("B")),
                ),
            ),
        ),
    ),
    While(
        Not(Equals(Var("S"), Literal(""))),
        (
            Assign("G", Literal("")),
            _comma_scan("S", "G"),
            Assign("S", Tail(Var("S"))),
            Assign("D", concat(Literal("("), Var("D"), Literal(")I"), Var("G"))),
        ),
    ),
)

# Source build: from D (encoding of the member), leave its source text in T.
# Peel a finite part into J and a trailing w-coefficient into Y; the remaining
# core is 0 or a deep limit, which becomes End or a child driver.
_SB_STMTS: tuple[Statement, ...] = (
    Assign("J", Literal("")),
    IfElse(
        Equals(Var("D"), Literal("")),
        (),
        _first_split_stmts("D")
        + (
            IfElse(
                Equals(Var("B"), Literal("")),
                (Assign("J", Var("K")), Assign("D", Var("W"))),
                (),
            ),
        ),
    ),
    Assign("Y", Literal("")),
    IfElse(
        Equals(Var("D"), Literal("")),
        (),
        _first_split_stmts("D")
        + (
            IfElse(
                Equals(Var("B"), Literal("()I")),
                (Assign("Y", Var("K")), Assign("D", Var("W"))),
                (),
            ),
        ),
    ),
    IfElse(
        Equals(Var("D"), Literal("")),
        (Assign("T", Literal("End")),),
        _esc_stmts("L", "U")
        + (
            Assign(
                "T",
                concat(
                    Literal("C='"),
                    Var("D"),
                    Literal("';L='"),
                    Var("U"),
                    Literal("';"),
                    Var("L"),
                ),
            ),
        ),
    ),
    While(
        Not(Equals(Var("Y"), Literal(""))),
        (Assign("Y", Tail(Var("Y"))),)
        + _esc_stmts("T", "U")
        + (
            Assign(
                "T",
                concat(Literal("X='"), Var("U"), Literal("';" + _A0_REST)),
            ),
        ),
    ),
    While(
        Not(Equals(Var("J"), Literal(""))),
        (Assign("J", Tail(Var("J"))),)
        + _esc_stmts("T", "U")
        + (
            Assign(
                "T",
                concat(Literal("Print('"), Var("U"), Literal("');End")),
            ),
        ),
    ),
)

# Working registers are zeroed up front so the program is statically closed;
# the first loop iteration assigns them all before use anyway.
_DRIVER_STMTS: tuple[Statement, ...] = tuple(
    Assign(reg, Literal("")) for reg in "ABDFGJKMNPQSTUVWY"
) + (
    While(
        TrueCond(),
        _FS_STMTS
        + _SB_STMTS
        + (
            Print(Var("T")),
            Assign("N", concat(Var("N"), Literal("I"))),
        ),
    ),
)

_DRIVER_CODE_TEXT = serialize(Program(_DRIVER_STMTS))

# Everything after the C= assignment. Serialization is concatenative, so the
# text after the two data assignments is byte-equal to _DRIVER_CODE_TEXT,
# which is also the value of L: the driver can rebuild its own kind.
_DRIVER_TAIL = (Assign("L", Literal(_DRIVER_CODE_TEXT)),) + _DRIVER_STMTS

_DRIVER_TAIL_TEXT = _register_skeleton(_DRIVER_TAIL, {"C"})


def _driver_program(enc: str) -> Program:
    return Program((Assign("C", Literal(enc)),) + _DRIVER_TAIL)


# ---------------------------------------------------------------------------
# compiler
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def compile_ordinal(a: Ordinal) -> Program:
    """Canonical notation program whose value is exactly ``a``.

    Output n of a compiled limit is byte-equal to
    ``serialize(compile_ordinal(fundamental_sequence(a, n)))`` for every n.
    """
    kind = classify(a)
    if kind is Kind.ZERO:
        return Program(())
    if kind is Kind.SUCCESSOR:
        return Program((Print(Literal(source_of(predecessor(a)))),))
    if a.terms[-1][0] == ONE:
        # a = base + w with base = a[0]; the A0 skeleton counts upward from it.
        return _a0_program(source_of(fundamental_sequence(a, 0)))
    return _driver_program(_encode(a))


@lru_cache(maxsize=None)
def source_of(a: Ordinal) -> str:
    """``serialize(compile_ordinal(a))``, memoized.

    The text is put together from the skeletons' text, serialized once, and
    the source of the ordinal below, so no program is built or serialized.
    """
    kind = classify(a)
    if kind is Kind.ZERO:
        return "End"
    if kind is Kind.SUCCESSOR:
        return f"Print('{escape_literal(source_of(predecessor(a)))}');End"
    if a.terms[-1][0] == ONE:
        return f"X='{escape_literal(source_of(fundamental_sequence(a, 0)))}';{_A0_REST}"
    return f"C='{_encode(a)}';{_DRIVER_TAIL_TEXT}"


# A source is End or a driver, wrapped first in the A0 skeleton once per
# w-coefficient and then in Print('...') once per finite-tail unit. A wrap
# escapes what it holds, so its text adds one byte per quote and backslash
# inside, and its quotes and backslashes follow from those counts alone.
_PRINT_FRAME = serialize(Program((Print(Literal("")),)))
_A0_FRAME = serialize(_a0_program(""))


def _counts(text: str) -> tuple[int, int, int]:
    return len(text), text.count("'"), text.count("\\")


def source_size(a: Ordinal, limit: int | None = None) -> int:
    """``len(source_of(a))`` from the recurrence above, without building the text.

    Sources never hold a raw newline, so quotes and backslashes are the only
    characters a wrap escapes. With ``limit``, counting stops as soon as the
    length passes it: the result is then above ``limit`` and at most the
    true length, and the cost stays small however many wraps are left.
    """
    coeff = dict(a.terms)
    core = Ordinal(tuple(t for t in a.terms if t[0] > ONE))
    n, q, b = _counts(source_of(core))
    wraps = [(_counts(_A0_FRAME), coeff.get(ONE, 0)), (_counts(_PRINT_FRAME), coeff.get(ZERO, 0))]
    for (fn, fq, fb), times in wraps:
        for _ in range(times):
            if limit is not None and n > limit:
                return n
            n, q, b = n + q + b + fn, q + fq, 2 * b + q + fb
    return n


def succ_notation(p: Program) -> Program:
    """The program that prints ``p``'s source once; value = value(p) + 1."""
    return Program((Print(Literal(serialize(p))),))


# ---------------------------------------------------------------------------
# decompiler
# ---------------------------------------------------------------------------

def decompile(p: Program) -> Ordinal | None:
    """Invert the compiler: the ordinal ``a`` with compile_ordinal(a) == p.

    Peels the compiler's two wraps, ``Print('<text>');End`` (a step of 1) and
    ``X='<text>'`` then the A0 loop (a step of w), parsing each text in turn
    down to the core: ``End`` (0) or a driver, whose ``C`` is decoded. A
    driver whose encoding is not a limit with last exponent above 1 gives
    None without compiling anything, since the compiler builds a driver for
    no other ordinal. Otherwise the steps are added back, innermost first,
    and one compile-and-compare checks that ``p`` is canonical.

    Returns None when ``p`` is not in the compiler's image (this is a value,
    not an error; most programs are not canonical).
    """
    ss, steps = p.statements, []
    while True:
        match ss:
            case (Print(expr=Literal(text=text)),):
                steps.append(ONE)
            case (Assign(name="X", expr=Literal(text=text)), loop) if loop == _A0_WHILE:
                steps.append(OMEGA)
            case _:
                break
        try:
            ss = parse(text).statements
        except (ParseError, RecursionError):  # not a program, or nested too deep to parse
            return None
    match ss:
        case ():
            a = ZERO
        case (Assign(name="C", expr=Literal(text=enc)), *_) if ss[1:] == _DRIVER_TAIL:
            try:
                a = _decode(enc)
            except ValueError:
                return None
            if not a.terms or a.terms[-1][0] <= ONE:
                return None
        case _:
            return None
    for step in reversed(steps):
        a = add(a, step)
    return a if compile_ordinal(a) == p else None


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ProvenMember:
    """Every reachable output was exhaustively checked and halted in fuel."""

    exact_value: Ordinal


@dataclass(frozen=True, slots=True)
class Refuted:
    """Concrete counterexample: output indices leading to the failure."""

    path: tuple[int, ...]
    reason: str


@dataclass(frozen=True, slots=True)
class Inconclusive:
    outputs_checked: int
    depth_reached: int


Verdict = Union[ProvenMember, Refuted, Inconclusive]


@dataclass(frozen=True, slots=True)
class FuelSpent:
    steps: int
    outputs: int
    evaluations: int


@dataclass(frozen=True, slots=True)
class VerificationResult:
    verdict: Verdict
    fuel_spent: FuelSpent


class _Acct:
    __slots__ = ("steps", "outputs", "evals", "max_level")

    def __init__(self) -> None:
        self.steps = 0
        self.outputs = 0
        self.evals = 0
        self.max_level = 0


def _split_fuel(fuel: Fuel, n: int) -> list[Fuel]:
    """Divide fuel among n children: remainder to the earliest, floor of 1."""
    if n == 0:
        return []
    qs, rs = divmod(fuel.max_steps, n)
    qo, ro = divmod(fuel.max_outputs, n)
    return [
        Fuel(max(qs + (1 if i < rs else 0), 1), max(qo + (1 if i < ro else 0), 1))
        for i in range(n)
    ]


def _explore(
    p: Program,
    fuel: Fuel,
    level: int,
    path: tuple[int, ...],
    max_depth: int,
    acct: _Acct,
) -> Refuted | tuple[bool, Ordinal]:
    """Walk ``p``'s output tree: the first refutation, else (proven, bound).

    ``bound`` is the sup of (child bound + 1) over the outputs; it is the
    exact value when ``proven``, that is when every execution in the subtree
    halted within fuel. An output nested too deep for the interpreter's stack,
    or a run that builds a string past the evaluator's length limit, is left
    unexplored with bound 0, never taken as a counterexample.
    """
    acct.evals += 1
    if level > acct.max_level:
        acct.max_level = level
    try:
        tr = evaluate(p, fuel)
    except (EvalError, OpenProgramError) as exc:
        return Refuted(path, f"runtime error: {exc}")
    except (RecursionError, LengthLimitError):
        return False, ZERO
    acct.steps += tr.steps_used
    children: list[Program | None] = []
    for i, text in enumerate(tr.outputs):
        try:
            children.append(parse(text))
        except ParseError as exc:
            acct.outputs += i + 1
            return Refuted(path + (i,), f"output does not parse: {exc}")
        except RecursionError:
            children.append(None)
    acct.outputs += len(children)
    proven = tr.status is TraceStatus.HALTED
    if level == max_depth:
        # An output is a candidate of value >= 0 even unexplored.
        return proven and not children, (ONE if children else ZERO)
    bound = ZERO
    for i, (child, child_fuel) in enumerate(zip(children, _split_fuel(fuel, len(children)))):
        if child is None:
            proven, child_bound = False, ZERO
        else:
            r = _explore(child, child_fuel, level + 1, path + (i,), max_depth, acct)
            if isinstance(r, Refuted):
                return r
            child_proven, child_bound = r
            proven = proven and child_proven
        cand = add(child_bound, ONE)
        if cand > bound:
            bound = cand
    return proven, bound


def verify(p: Program, fuel: Fuel, max_depth: int) -> VerificationResult:
    """Fuel-bounded membership check, recursing through printed outputs.

    Outputs are explored in emission order, fuel split evenly among children
    with the remainder going to the earliest. Any output that fails to parse,
    or any runtime error, refutes membership with the output-index path as
    the counterexample. ProvenMember requires every execution in the tree to
    halt within fuel; then the exact value is the least ordinal above all
    child values. Everything else is Inconclusive: membership is not
    computably enumerable, so no fuel setting can decide it in general.
    """
    _check_int(max_depth, "max_depth", 1)
    acct = _Acct()
    r = _explore(p, fuel, 1, (), max_depth, acct)
    if isinstance(r, Refuted):
        verdict: Verdict = r
    else:
        proven, bound = r
        verdict = ProvenMember(bound) if proven else Inconclusive(acct.outputs, acct.max_level)
    return VerificationResult(verdict, FuelSpent(acct.steps, acct.outputs, acct.evals))


def value_lower_bound(p: Program, fuel: Fuel, max_depth: int) -> tuple[Ordinal, bool]:
    """Lower bound on the value of ``p``: sup of (bound(output) + 1).

    Returns (bound, refuted). Non-decreasing in fuel and depth, and never
    above the true value for genuine notations. If membership is refuted
    anywhere in the explored tree the value is undefined; (0, True) is
    returned and the bound must be ignored. The tree is the one ``verify``
    walks, so a ProvenMember(v) verdict means (v, False) here.
    """
    _check_int(max_depth, "max_depth", 1)
    r = _explore(p, fuel, 1, (), max_depth, _Acct())
    return (ZERO, True) if isinstance(r, Refuted) else (r[1], False)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def source_sha256(source: str) -> str:
    """Hex sha256 of a program's UTF-8 bytes, as a certificate records it."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def certificate_text(a: Ordinal, source: str) -> str:
    """Two-line certificate binding an ordinal claim to program bytes."""
    return f"ordinal: {format_ordinal(a)}\nsha256: {source_sha256(source)}\n"


def parse_certificate(text: str) -> tuple[str, str]:
    """Return (ordinal surface syntax, sha256 hex) from certificate text."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("ordinal: ") or not lines[1].startswith(
        "sha256: "
    ):
        raise ValueError("certificate must have 'ordinal: ...' and 'sha256: ...' lines")
    return lines[0][len("ordinal: ") :], lines[1][len("sha256: ") :]
