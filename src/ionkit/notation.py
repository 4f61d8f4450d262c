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
  deep limit. The driver and the re-wrap loop above are object-language
  text in this module, parsed once at import; each fused loop in them is
  spliced in as its one text in ``objlang._FUSED_LOOPS``.

The normative contract is compositional: output n of a compiled limit is
byte-equal to the serialization of the compiled n-th fundamental-sequence
member, for every n.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Generator
from dataclasses import dataclass
from functools import lru_cache
from string import Template
from typing import Union

from .objlang import (
    _FUSED_LOOPS,
    _MAX_VALUE_LEN,
    Assign,
    EvalError,
    Fuel,
    LimitError,
    Literal,
    ObjLangError,
    OpenProgramError,
    ParseError,
    Print,
    Program,
    TraceStatus,
    _register_skeleton,
    escape_literal,
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
    OrdinalError,
    _OrdParser,
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
    "SourceTooLargeError",
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
    """Inverse of :func:`_encode`, read with no blanks on the ordinal parser;
    raises OrdinalParseError on malformed input or past ``NESTING_LIMIT``."""
    p = _OrdParser(s)

    def terms() -> Ordinal:
        # Terms from p.pos up to an unmatched ")" or the end.
        small_first: list[tuple[Ordinal, int]] = []
        while s.startswith("(", p.pos):
            p.open_group()
            exp = terms()
            run = _I_RUN.match(s, p.pos)
            if run is None:
                p.fail("')' and a coefficient")
            p.nesting -= 1
            small_first.append((exp, run.end() - p.pos - 1))
            p.pos = run.end()
        try:
            return Ordinal(tuple(reversed(small_first)))
        except ValueError as exc:
            p.fail(f"not a canonical encoding: {exc}")

    a = terms()
    if p.pos != len(s):
        p.fail("'('")
    return a


# ---------------------------------------------------------------------------
# skeletons, written in the object language and parsed once at import
# ---------------------------------------------------------------------------

def _esc(src: str, dst: str, walk: str = "V", char: str = "M") -> str:
    """Text that sets dst to src with backslashes doubled and quotes backslashed."""
    loop = _FUSED_LOOPS["escape"][0].substitute(walk=walk, char=char, dst=dst)
    return f"{dst}='';{walk}={src};{loop}"


def _split(src: str) -> str:
    """Text that splits the leading term of the nonempty encoding in ``src``: the
    exponent's encoding to B, the unary coefficient to K, and the other terms to W."""
    paren = _FUSED_LOOPS["paren"][0].substitute(depth="P", walk="W", char="M", acc="B")
    unary = _FUSED_LOOPS["unary"][0].substitute(flag="Q", walk="W", acc="K")
    return f"B='';P='I';W=Tail({src});{paren}K='';Q='x';{unary}"


# Skeleton A0: limits of the form base + w*c. X holds the current output's
# source; each iteration prints it and re-wraps it in Print('...');End,
# escaping quotes and backslashes with the same loop the driver uses.
(_A0_WHILE,) = parse(rf"While(True){{Print(X);{_esc('X', 'E', 'R', 'H')}X='Print(\''+E+'\');End';}}End").statements

# Serialization of everything after the X= assignment, shared with the driver.
_A0_REST = _register_skeleton((_A0_WHILE,), {"X"})


def _a0_program(base_source: str) -> Program:
    return Program((Assign("X", Literal(base_source)), _A0_WHILE))


# Universal driver: all other limits.
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
#
# Working registers are zeroed up front so the program is statically closed;
# the first loop iteration assigns them all before use anyway.
#
# Fundamental-sequence step (the first two loops): from C (encoding of the
# limit) and N (unary n), leave the encoding of the n-th member in D.
# Iterative descent: a successor exponent drops its "()" term and one I and
# terminates; a limit exponent pushes its rest-frame onto S and the loop steps
# into the exponent. Afterwards the frames are unwound as w^(...)·1 wraps.
#
# Source build (the rest): from D (encoding of the member), leave its source
# text in T. Peel a finite part into J and a trailing w-coefficient into Y;
# the remaining core is 0 or a deep limit, which becomes End or a child driver.
_DRIVER_STMTS = parse(Template(r"""
A='';B='';D='';F='';G='';J='';K='';M='';N='';P='';Q='';S='';T='';U='';V='';W='';Y='';
While(True){
  S='';A=C;F='';
  While(Equals(F,'')){
    $split_A
    If(Equals(K,'I')){G=W;}Else{G='('+B+')'+Tail(K)+W;}
    If(Equals(Head(Tail(B)),')')){
      B=Tail(Tail(Tail(B)));
      If(Equals(B,'')){}Else{If(Equals(Head(B),'I')){B='()'+B;}Else{}}
      If(Equals(N,'')){D=G;}Else{D='('+B+')'+N+G;}
      F='x';
    }Else{
      S=G+','+S;A=B;
    }
  }
  While(Not(Equals(S,''))){G='';$comma S=Tail(S);D='('+D+')I'+G;}

  J='';
  If(Equals(D,'')){}Else{$split_D If(Equals(B,'')){J=K;D=W;}Else{}}
  Y='';
  If(Equals(D,'')){}Else{$split_D If(Equals(B,'()I')){Y=K;D=W;}Else{}}
  If(Equals(D,'')){T='End';}Else{$esc_L T='C=\''+D+'\';L=\''+U+'\';'+L;}
  While(Not(Equals(Y,''))){Y=Tail(Y);$esc_T T='X=\''+U+'\';$a0_rest';}
  While(Not(Equals(J,''))){J=Tail(J);$esc_T T='Print(\''+U+'\');End';}

  Print(T);N=N+'I';
}
End
""").substitute(
    split_A=_split("A"), split_D=_split("D"),
    comma=_FUSED_LOOPS["comma"][0].substitute(stack="S", acc="G"),
    esc_L=_esc("L", "U"), esc_T=_esc("T", "U"), a0_rest=escape_literal(_A0_REST),
)).statements

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

class SourceTooLargeError(LimitError):
    """The source of an ordinal would be longer than the evaluator's string limit.

    Source size about doubles per unit of the finite tail or of the
    w-coefficient (w*17 is 4.46 MB, w*30 36.5 GB), so a small ordinal can
    ask for a source far beyond memory. No run could hold such a source, so
    none is built: ``size`` is at least the source's length, and over ``limit``.
    """

    def __init__(self, a: Ordinal, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(
            f"the source of {format_ordinal(a)} would be at least {size} bytes,"
            f" over the limit of {limit}"
        )


@lru_cache(maxsize=None)
def compile_ordinal(a: Ordinal) -> Program:
    """Canonical notation program whose value is exactly ``a``.

    Output n of a compiled limit is byte-equal to
    ``serialize(compile_ordinal(fundamental_sequence(a, n)))`` for every n.
    Raises :class:`SourceTooLargeError`, before anything is built or cached,
    when that text would be longer than the evaluator's string limit.
    """
    size = source_size(a, _MAX_VALUE_LEN)
    if size > _MAX_VALUE_LEN:
        raise SourceTooLargeError(a, size, _MAX_VALUE_LEN)
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
    """``serialize(compile_ordinal(a))``, memoized; serialize emits the skeleton's stored
    text. Raises :class:`SourceTooLargeError` as :func:`compile_ordinal` does."""
    return serialize(compile_ordinal(a))


# A source is End or a driver frame around an encoding (no quote or backslash),
# wrapped in the A0 skeleton once per w-coefficient, then in Print('...') once
# per finite-tail unit. A wrap escapes what it holds, so its text adds one byte
# per quote and backslash inside, and its quotes and backslashes follow.
_PRINT_FRAME = serialize(Program((Print(Literal("")),)))
_A0_FRAME = serialize(_a0_program(""))
_DRIVER_FRAME = f"C='';{_DRIVER_TAIL_TEXT}"


def _counts(text: str) -> tuple[int, int, int]:
    return len(text), text.count("'"), text.count("\\")


_END_COUNTS, _DRIVER_COUNTS = _counts("End"), _counts(_DRIVER_FRAME)
_A0_COUNTS, _PRINT_COUNTS = _counts(_A0_FRAME), _counts(_PRINT_FRAME)


def _encoded_len(terms: tuple[tuple[Ordinal, int], ...]) -> int:
    """``len(_encode(a))`` for the ordinal ``a`` with these terms."""
    n, stack = 0, [terms]
    while stack:
        for exp, coeff in stack.pop():
            n += 2 + coeff
            stack.append(exp.terms)
    return n


def source_size(a: Ordinal, limit: int | None = None) -> int:
    """``len(source_of(a))`` from the recurrence above, without building any text.

    Sources never hold a raw newline, so quotes and backslashes are the only
    characters a wrap escapes. With ``limit``, counting stops as soon as the
    length passes it: the result is then above ``limit`` and at most the
    true length, and the cost stays small however many wraps are left.
    """
    coeff = dict(a.terms)
    # ordinals are interned, so the exponents 0 and 1 are these very objects
    core = tuple(t for t in a.terms if t[0] is not ONE and t[0] is not ZERO)
    n, q, b = _DRIVER_COUNTS if core else _END_COUNTS
    n += _encoded_len(core)
    for (fn, fq, fb), times in ((_A0_COUNTS, coeff.get(ONE, 0)), (_PRINT_COUNTS, coeff.get(ZERO, 0))):
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
        except ObjLangError:  # not a program, or nested past the nesting limit
            return None
    match ss:
        case ():
            a = ZERO
        case (Assign(name="C", expr=Literal(text=enc)), *_) if ss[1:] == _DRIVER_TAIL:
            try:
                a = _decode(enc)
            except OrdinalError:  # malformed, or nested past NESTING_LIMIT
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
    """Fuel or depth ran out first; the value is at least ``lower_bound``."""

    outputs_checked: int
    depth_reached: int
    lower_bound: Ordinal


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


@dataclass(slots=True)
class _Acct:
    steps: int = 0
    outputs: int = 0
    evals: int = 0
    max_level: int = 0


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
) -> Generator[tuple, object, Refuted | tuple[bool, Ordinal]]:
    """Explore ``p``'s node of the output tree: the first refutation, else (proven, bound).

    One generator per node, run by :func:`_walk`: for each child to explore
    it yields the child's (program, fuel, level, path) and is sent the
    child's result. ``bound`` is the sup of (child bound + 1) over the
    outputs; it is the exact value when ``proven``, that is when every
    execution in the subtree halted within fuel. A run or an output that
    stops at one of the object language's limits (:class:`LimitError`: a
    string past the length limit, groups past the nesting limit) is left
    unexplored with bound 0, never taken as a counterexample.
    """
    acct.evals += 1
    if level > acct.max_level:
        acct.max_level = level
    try:
        tr = evaluate(p, fuel)
    except (EvalError, OpenProgramError) as exc:
        return Refuted(path, f"runtime error: {exc}")
    except LimitError:
        return False, ZERO
    acct.steps += tr.steps_used
    children: list[Program | None] = []
    for i, text in enumerate(tr.outputs):
        try:
            children.append(parse(text))
        except ParseError as exc:
            acct.outputs += i + 1
            return Refuted(path + (i,), f"output does not parse: {exc}")
        except LimitError:
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
            r = yield child, child_fuel, level + 1, path + (i,)
            if isinstance(r, Refuted):
                return r
            child_proven, child_bound = r
            proven = proven and child_proven
        cand = add(child_bound, ONE)
        if cand > bound:
            bound = cand
    return proven, bound


def _walk(p: Program, fuel: Fuel, max_depth: int, acct: _Acct) -> Refuted | tuple[bool, Ordinal]:
    """The result of :func:`_explore` at ``p``'s root, on an explicit stack.

    The stack holds the generators of the nodes on the path being explored,
    so only ``max_depth`` and fuel bound how deep the walk goes.
    """
    _check_int(max_depth, "max_depth", 1)
    stack = [_explore(p, fuel, 1, (), max_depth, acct)]
    r = None
    while stack:
        try:
            child = stack[-1].send(r)
        except StopIteration as done:
            stack.pop()
            r = done.value
        else:
            stack.append(_explore(*child, max_depth, acct))
            r = None
    return r


def verify(p: Program, fuel: Fuel, max_depth: int) -> VerificationResult:
    """Fuel-bounded membership check, recursing through printed outputs.

    Outputs are explored in emission order, fuel split evenly among children
    with the remainder going to the earliest. Any output that fails to parse,
    or any runtime error, refutes membership with the output-index path as
    the counterexample. ProvenMember requires every execution in the tree to
    halt within fuel; then the exact value is the least ordinal above all
    child values. Everything else is Inconclusive: membership is not
    computably enumerable, so no fuel setting can decide it in general. An
    Inconclusive verdict carries the explored tree's lower bound, the one
    ``value_lower_bound`` gives for the same program, fuel and depth.
    """
    acct = _Acct()
    r = _walk(p, fuel, max_depth, acct)
    if isinstance(r, Refuted):
        verdict: Verdict = r
    else:
        proven, bound = r
        verdict = ProvenMember(bound) if proven else Inconclusive(
            acct.outputs, acct.max_level, bound
        )
    return VerificationResult(verdict, FuelSpent(acct.steps, acct.outputs, acct.evals))


def value_lower_bound(p: Program, fuel: Fuel, max_depth: int) -> tuple[Ordinal, bool]:
    """Lower bound on the value of ``p``: sup of (bound(output) + 1).

    Returns (bound, refuted). Non-decreasing in fuel and depth, and never
    above the true value for genuine notations. If membership is refuted
    anywhere in the explored tree the value is undefined; (0, True) is
    returned and the bound must be ignored. The tree is the one ``verify``
    walks, so a ProvenMember(v) verdict means (v, False) here.
    """
    r = _walk(p, fuel, max_depth, _Acct())
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
    if len(lines) != 2 or not (lines[0].startswith("ordinal: ") and lines[1].startswith("sha256: ")):
        raise ValueError("certificate must have 'ordinal: ...' and 'sha256: ...' lines")
    return lines[0].removeprefix("ordinal: "), lines[1].removeprefix("sha256: ")
