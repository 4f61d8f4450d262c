import collections
import hashlib
import random
import time

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from ionkit import objlang
from ionkit.notation import _esc_stmts, compile_ordinal
from ionkit.objlang import (
    Assign,
    Concat,
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
    Tail,
    Trace,
    TraceStatus,
    TrueCond,
    Var,
    While,
    _comma_scan,
    _paren_scan,
    _unary_scan,
    check_closed,
    concat,
    escape_literal,
    escape_loop,
    evaluate,
    parse,
    serialize,
)
from ionkit.ordinals import parse_ordinal

# ---------------------------------------------------------------------------
# serialization goldens
# ---------------------------------------------------------------------------

def test_serialize_empty_program():
    assert serialize(Program(())) == "End"


def test_serialize_single_print():
    assert serialize(Program((Print(Literal("End")),))) == "Print('End');End"


def test_serialize_nested_quoting():
    # the two-step self-quoting chain: each level escapes the one below
    inner = "Print('End');End"
    p = Program((Print(Literal(inner)),))
    assert serialize(p) == "Print('Print(\\'End\\');End');End"


def test_serialize_escapes():
    p = Program((Print(Literal("a'b\\c\nd")),))
    assert serialize(p) == "Print('a\\'b\\\\c\\nd');End"
    assert parse(serialize(p)) == p


def test_serialize_statements():
    p = Program((
        Assign("X", Literal("hi")),
        While(Equals(Var("X"), Literal("")), (Print(Var("X")),)),
        IfElse(Not(TrueCond()), (Print(Literal("a")),), (Assign("X", Tail(Head(Var("X")))),)),
    ))
    expected = (
        "X='hi';"
        "While(Equals(X,'')){Print(X);}"
        "If(Not(True)){Print('a');}Else{X=Tail(Head(X));}"
        "End"
    )
    assert serialize(p) == expected
    assert parse(expected) == p


def test_concat_serializes_flat():
    e = concat(Literal("a"), Var("X"), Literal("b"))
    assert serialize(Program((Print(e),))) == "Print('a'+X+'b');End"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_empty_program():
    assert parse("End") == Program(())


def test_parse_single_print():
    assert parse("Print('End');End") == Program((Print(Literal("End")),))


def test_parse_ignores_whitespace():
    src = "  X = 'a' ;\n While( True ){ Print( X ); }\n End "
    p = parse(src)
    assert p == Program((
        Assign("X", Literal("a")),
        While(TrueCond(), (Print(Var("X")),)),
    ))
    # canonical form strips all padding
    assert serialize(p) == "X='a';While(True){Print(X);}End"


def test_parse_missing_paren():
    with pytest.raises(ParseError) as exc:
        parse("Print('x'")
    assert exc.value.offset == 9
    assert exc.value.expected == "')'"


def test_parse_truncated_block():
    with pytest.raises(ParseError) as exc:
        parse("While(True){Print('a');}")
    assert exc.value.offset == 24


def test_parse_empty_source():
    with pytest.raises(ParseError) as exc:
        parse("")
    assert exc.value.offset == 0


def test_parse_trailing_garbage():
    with pytest.raises(ParseError) as exc:
        parse("End trailing")
    assert exc.value.found == "trailing"


def test_parse_rejects_keyword_identifiers():
    with pytest.raises(ParseError):
        parse("While='x';End")


@pytest.mark.parametrize(
    "src, offset, expected",
    [
        ("Print('ab", 9, "closing quote (')"),  # unterminated literal
        ("Print('\\x');End", 8, "escape character (one of ' \\ n)"),  # bad escape
        ("Print('ab\\", 10, "escape character (one of ' \\ n)"),  # backslash at end of input
        ("Print('a\nb');End", 8, "printable ASCII character"),  # raw newline
        ("Print('a\x01b');End", 8, "printable ASCII character"),
    ],
)
def test_parse_literal_errors(src, offset, expected):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (exc.value.offset, exc.value.expected) == (offset, expected)


def test_parse_literal_escapes():
    # '\\n' is an escaped backslash then 'n', not a newline
    p = parse("Print('a\\'b\\\\n\\n~ ');End")
    assert p == Program((Print(Literal("a'b\\n\n~ ")),))


def test_concat_constructor_rejects_left_nesting():
    a, b, c = Literal("a"), Literal("b"), Literal("c")
    with pytest.raises(ValueError):
        Concat((Concat((a, b)), c))
    with pytest.raises(ValueError):
        Concat((a, Concat((b, c))))
    for short in ((), (a,)):
        with pytest.raises(ValueError):
            Concat(short)
    # the helper flattens instead
    assert concat(a, b, c) == Concat((a, b, c))
    assert concat(concat(a, b), c) == concat(a, concat(b, c)) == Concat((a, b, c))
    assert concat(a) == a and concat() == Literal("")
    # any sequence of parts is stored as a tuple, so the node stays hashable
    listed = Concat([a, b])
    program = Program((Print(listed),))
    assert listed == Concat((a, b)) and parse(serialize(program)) == program
    assert hash(listed) == hash(Concat((a, b)))


def test_literal_rejects_unprintable():
    with pytest.raises(ValueError):
        Literal("\x00")
    Literal("ok \n text")  # newline and printable ASCII are fine


# ---------------------------------------------------------------------------
# roundtrip properties
# ---------------------------------------------------------------------------

def test_long_concat_chain_roundtrips_and_runs():
    # 3000 parts: more than the default recursion limit allows nested frames
    parts = [Literal("a") if i % 2 else Var("X") for i in range(3000)]
    e = concat(*parts)
    assert isinstance(e, Concat) and len(e.parts) == 3000
    p = Program((Assign("X", Literal("b")), Print(e)))
    src = serialize(p)
    assert src == "X='b';Print(" + "+".join(["X", "'a'"] * 1500) + ");End"
    assert parse(src) == p
    assert hash(parse(src)) == hash(p)
    assert repr(p).count("Literal(") == 1501
    assert evaluate(p, Fuel(10, 1)) == Trace(("ba" * 1500,), TraceStatus.HALTED, 2)


idents = st.sampled_from(["A", "B", "C", "X2"])
literal_text = st.text(
    alphabet=st.sampled_from(list("ab'\\\n ();+xEnd")), max_size=10
)
exprs = st.recursive(
    st.one_of(st.builds(Literal, literal_text), st.builds(Var, idents)),
    lambda e: st.one_of(
        st.builds(concat, e, e),
        st.builds(Head, e),
        st.builds(Tail, e),
    ),
    max_leaves=8,
)
conds = st.recursive(
    st.one_of(st.just(TrueCond()), st.builds(Equals, exprs, exprs)),
    lambda c: st.builds(Not, c),
    max_leaves=4,
)
# escape loops under three distinct names: src, then walk, char and dst
esc_names = st.permutations(["A", "B", "C", "X2"])
# values the driver's scan loops see, unbalanced parens and no comma included
scan_text = st.text(alphabet=st.sampled_from("()I,x"), max_size=12)


@st.composite
def scan_loops(draw):
    """A scan loop under distinct names, after assignments to some of them."""
    build, arity = draw(st.sampled_from([(_paren_scan, 4), (_unary_scan, 3), (_comma_scan, 2)]))
    names = draw(esc_names)[:arity]
    preamble = tuple(Assign(n, Literal(draw(scan_text))) for n in names if draw(st.booleans()))
    return IfElse(TrueCond(), preamble + (build(*names),), ())


stmts = st.recursive(
    st.one_of(
        st.builds(Print, exprs),
        st.builds(Assign, idents, exprs),
        esc_names.map(lambda ns: IfElse(TrueCond(), _esc_stmts(ns[0], ns[3], ns[1], ns[2]), ())),
        esc_names.map(lambda ns: escape_loop(*ns[1:])),
        scan_loops(),
    ),
    lambda s: st.one_of(
        st.builds(While, conds, st.lists(s, max_size=3).map(tuple)),
        st.builds(
            IfElse,
            conds,
            st.lists(s, max_size=3).map(tuple),
            st.lists(s, max_size=3).map(tuple),
        ),
    ),
    max_leaves=10,
)
programs = st.lists(stmts, max_size=6).map(lambda ss: Program(tuple(ss)))


@hyp.given(programs)
def test_parse_serialize_roundtrip(p):
    assert parse(serialize(p)) == p


@hyp.given(programs)
def test_serialize_parse_fixed_point(p):
    s = serialize(p)
    assert serialize(parse(s)) == s


# closed programs: a preamble assigns every variable the body may read
def _close(p: Program) -> Program:
    preamble = tuple(Assign(v, Literal("seed")) for v in ("A", "B", "C", "X2"))
    return Program(preamble + p.statements)


closed_programs = programs.map(_close)


# A run ends in a trace or, with no trace, in an EvalError (Head/Tail of an
# empty string) or a LengthLimitError (a value doubled past the length limit,
# as in DOUBLING, which hypothesis found within these fuels).
_NO_TRACE = (EvalError, LengthLimitError)
DOUBLING = _close(Program((While(TrueCond(), (Assign("A", Concat((Var("A"), Var("A")))),)),)))


def _outcome(p: Program, fuel: Fuel):
    try:
        return evaluate(p, fuel)
    except _NO_TRACE as exc:
        return type(exc), str(exc)


@hyp.given(closed_programs)
@hyp.example(DOUBLING)
def test_evaluate_deterministic(p):
    fuel = Fuel(300, 8)
    assert _outcome(p, fuel) == _outcome(p, fuel)


@hyp.given(closed_programs)
@hyp.example(DOUBLING)
def test_fuel_monotonic_prefix(p):
    try:
        small = evaluate(p, Fuel(150, 4))
        large = evaluate(p, Fuel(600, 9))
    except _NO_TRACE:
        return
    assert large.outputs[: len(small.outputs)] == small.outputs


@hyp.given(closed_programs)
@hyp.example(DOUBLING)
def test_halted_is_stable(p):
    try:
        t = evaluate(p, Fuel(400, 8))
    except _NO_TRACE:
        return
    if t.status is TraceStatus.HALTED:
        assert evaluate(p, Fuel(4000, 80)) == t


# ---------------------------------------------------------------------------
# evaluation semantics
# ---------------------------------------------------------------------------

def test_evaluate_empty_program():
    assert evaluate(parse("End"), Fuel(10, 1)) == Trace((), TraceStatus.HALTED, 0)


def test_evaluate_infinite_printer_fuel_exhausted():
    p = parse("X='a';While(True){Print(X);X=X+'b';}End")
    t = evaluate(p, Fuel(10**4, 3))
    assert t.outputs == ("a", "ab", "abb")
    assert t.status is TraceStatus.FUEL_EXHAUSTED


def test_evaluate_halts_when_last_output_fills_budget():
    # output budget exactly consumed by a halting program still counts as Halted
    p = parse("Print('a');Print('b');End")
    t = evaluate(p, Fuel(100, 2))
    assert t.outputs == ("a", "b")
    assert t.status is TraceStatus.HALTED
    assert t.steps_used == 2


def test_evaluate_step_budget():
    p = parse("While(True){}End")
    t = evaluate(p, Fuel(7, 1))
    assert t.status is TraceStatus.FUEL_EXHAUSTED
    assert t.steps_used == 7
    assert t.outputs == ()


def test_head_tail_semantics():
    p = parse("X='abc';Print(Head(X));Print(Tail(X));End")
    assert evaluate(p, Fuel(10, 4)).outputs == ("a", "bc")


def test_head_of_empty_is_runtime_error():
    with pytest.raises(EvalError):
        evaluate(parse("Print(Head(''));End"), Fuel(10, 1))
    with pytest.raises(EvalError):
        evaluate(parse("Print(Tail(''));End"), Fuel(10, 1))


def doubling_program(n: int) -> str:
    """X=X+X n times in as many passes: 2**(n+1) characters in 3n+4 steps."""
    return "X='ab';N='" + "I" * n + "';While(Not(Equals(N,''))){X=X+X;N=Tail(N);}Print(Head(X));End"


def test_doubling_stops_at_the_length_limit():
    assert evaluate(parse(doubling_program(3)), Fuel(100, 1)) == Trace(
        ("a",), TraceStatus.HALTED, 13
    )
    start = time.perf_counter()
    with pytest.raises(LengthLimitError) as exc:
        evaluate(parse(doubling_program(40)), Fuel(10**6, 16))
    assert time.perf_counter() - start < 1
    assert not isinstance(exc.value, EvalError)
    assert str(exc.value) == "string value of 134217728 characters is over the limit of 67108864"


def test_fused_escape_loop_growth_is_limited(monkeypatch):
    # D would become 123456ab\'c, 11 characters, in one fused pass
    p = Program((Assign("W", Literal("ab'c")), Assign("D", Literal("123456")),
                 escape_loop("W", "H", "D"), Print(Var("D"))))
    monkeypatch.setattr(objlang, "_MAX_VALUE_LEN", 10)
    with pytest.raises(LengthLimitError):
        evaluate(p, Fuel(100, 1))
    monkeypatch.setattr(objlang, "_MAX_VALUE_LEN", 11)
    assert evaluate(p, Fuel(100, 1)).outputs == ("123456ab\\'c",)


def test_equals_and_not():
    p = parse("If(Equals('a','a')){Print('y');}Else{Print('n');}"
              "If(Not(Equals('a','b'))){Print('y2');}Else{Print('n2');}End")
    assert evaluate(p, Fuel(50, 4)).outputs == ("y", "y2")


def test_fuel_validation():
    with pytest.raises(ValueError):
        Fuel(0, 1)
    with pytest.raises(ValueError):
        Fuel(1, 0)


@pytest.mark.parametrize("value", [True, 2.5, "3"], ids=["bool", "float", "str"])
def test_fuel_takes_only_positive_int_budgets(value):
    # a float budget used to run and report a float steps_used
    with pytest.raises(ValueError, match="^max_steps must be an int >= 1$"):
        Fuel(value, 1)
    with pytest.raises(ValueError, match="^max_outputs must be an int >= 1$"):
        Fuel(1, value)


# ---------------------------------------------------------------------------
# closedness analysis
# ---------------------------------------------------------------------------

def test_open_variable_rejected():
    p = parse("Print(X);End")
    with pytest.raises(OpenProgramError):
        evaluate(p, Fuel(10, 1))


def test_check_closed_while_body_does_not_escape():
    # an assignment inside While may never run, so Y stays possibly-unbound
    p = parse("While(True){Y='a';}Print(Y);End")
    with pytest.raises(OpenProgramError):
        check_closed(p)


def test_check_closed_if_branches_intersect():
    both = parse("If(True){Y='a';}Else{Y='b';}Print(Y);End")
    check_closed(both)
    one = parse("If(True){Y='a';}Else{}Print(Y);End")
    with pytest.raises(OpenProgramError):
        check_closed(one)


def test_check_closed_sequential_flow():
    check_closed(parse("X='a';Y=X;Print(Y);End"))
    with pytest.raises(OpenProgramError):
        check_closed(parse("Y=X;X='a';End"))


# The escape loop that evaluate() runs as one block, without its End.
_ESC_WHD = serialize(Program((escape_loop("W", "H", "D"),)))[: -len("End")]


OPEN_PROGRAMS = pytest.mark.parametrize(
    "src, where",
    [
        ("Print(X);End", "'X' may be read before assignment in Print"),
        ("Y='a';Y=Y+X;End", "'X' may be read before assignment in assignment to 'Y'"),
        ("While(Not(Equals(X,''))){}End", "'X' may be read before assignment in While condition"),
        ("If(Equals('a',Head(X))){}Else{}End", "'X' may be read before assignment in If condition"),
        ("While(True){Y='a';}Print(Y);End", "'Y' may be read before assignment in Print"),
        ("If(True){Y='a';}Else{}Print(Y);End", "'Y' may be read before assignment in Print"),
        ("W='ab';" + _ESC_WHD + "End", "'D' may be read before assignment in assignment to 'D'"),
        ("D='';" + _ESC_WHD + "End", "'W' may be read before assignment in While condition"),
        ("Print(Y+Tail(X)+Z);End", "'X' may be read before assignment in Print"),
    ],
    ids=["print", "assign", "while_cond", "if_cond", "while_body_only", "one_branch_only",
         "escape_dst", "escape_walk", "first_of_sorted"],
)


@OPEN_PROGRAMS
def test_open_program_messages(src, where):
    p = parse(src)
    message = "variable " + where
    with pytest.raises(OpenProgramError) as exc:
        check_closed(p)
    assert str(exc.value) == message
    with pytest.raises(OpenProgramError) as exc:
        evaluate(p, Fuel(10**6, 10))
    assert str(exc.value) == message
    if _ESC_WHD in src:
        assert objlang._match_fused_loop(p.statements[1])[1] == ("W", "H", "D")


_SEEDED_NAMES = ("A", "B", "C")


def _seeded_expr(rng: random.Random, depth: int):
    kind = rng.randrange(5 if depth else 2)
    if kind == 0:
        return Literal(rng.choice(("", "a", "b'", "\\", "ab\n")))
    if kind == 1:
        return Var(rng.choice(_SEEDED_NAMES))
    if kind == 2:
        return concat(_seeded_expr(rng, depth - 1), _seeded_expr(rng, depth - 1))
    return (Head, Tail)[kind - 3](_seeded_expr(rng, depth - 1))


def _seeded_cond(rng: random.Random, depth: int):
    kind = rng.randrange(3 if depth else 2)
    if kind == 0:
        return TrueCond()
    if kind == 1:
        return Equals(_seeded_expr(rng, 2), _seeded_expr(rng, 2))
    return Not(_seeded_cond(rng, depth - 1))


def _seeded_block(rng: random.Random, depth: int) -> tuple:
    out = []
    for _ in range(rng.randrange(4)):
        kind = rng.randrange(7 if depth else 4)
        if kind == 0:
            out.append(Print(_seeded_expr(rng, 2)))
        elif kind in (1, 2):
            out.append(Assign(rng.choice(_SEEDED_NAMES), _seeded_expr(rng, 2)))
        elif kind == 3:
            out.append(escape_loop(*rng.sample(_SEEDED_NAMES, 3)))
        elif kind in (4, 5):
            out.append(While(_seeded_cond(rng, 2), _seeded_block(rng, depth - 1)))
        else:
            out.append(IfElse(_seeded_cond(rng, 2), _seeded_block(rng, depth - 1),
                              _seeded_block(rng, depth - 1)))
    return tuple(out)


def _closedness_outcome(p: Program) -> str:
    try:
        check_closed(p)
        lines = ["closed"]
    except OpenProgramError as exc:
        lines = [f"open: {exc}"]
    for fuel in (Fuel(1, 1), Fuel(60, 3), Fuel(400, 6)):
        try:
            t = evaluate(p, fuel)
            lines.append(f"{t.outputs!r} {t.status.value} {t.steps_used}")
        except (OpenProgramError, EvalError) as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(lines)


def test_golden_seeded_closedness_outcomes():
    # 2000 programs over three names, about two thirds of them open; the digest
    # pins every check_closed and evaluate outcome under three fuels.
    rng = random.Random(20260825)
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for _ in range(2000):
        p = Program(_seeded_block(rng, 2))
        outcome = _closedness_outcome(p)
        kinds[outcome.split(":", 1)[0].split("\n", 1)[0]] += 1
        digest.update(serialize(p).encode() + b"\0" + outcome.encode() + b"\0")
    assert kinds["closed"] > 400 and kinds["open"] > 400, kinds
    assert digest.hexdigest() == "5f16e316d6a8468d94e53d0ecfe6f8414429df1f8eeed46ee91c1a2e02de1d46"


# ---------------------------------------------------------------------------
# the escape loop runs as one block: same Trace as running it pass by pass
# ---------------------------------------------------------------------------

def _fast_and_plain(p: Program, fuel: Fuel):
    """The outcome of ``p`` (see _outcome), loops fused and not."""
    fast = _outcome(p, fuel)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(objlang, "_match_fused_loop", lambda s: None)
        # the closures built when the skeletons were registered hold fused loops
        m.setattr(objlang, "_SKELETON_FNS", {})
        plain = _outcome(p, fuel)
    return fast, plain


VERIFY_FUEL_LADDER = ((800, 2), (3000, 3), (7000, 3), (12000, 4), (30000, 4))


def test_escape_fusion_matches_plain_on_corpus(corpus200):
    for a in corpus200:
        p = compile_ordinal(a)
        for fuel in VERIFY_FUEL_LADDER:
            fast, plain = _fast_and_plain(p, Fuel(*fuel))
            assert fast == plain, (a, fuel)


@pytest.mark.parametrize("text, max_outputs", [("w*2", 2), ("w^w", 1)], ids=["a0", "driver"])
def test_escape_fusion_matches_plain_at_every_step_budget(text, max_outputs):
    # w*2 escapes the source of w (quotes and backslashes) on the A0 path;
    # w^w builds its first output with the driver's wrap loops.
    p = compile_ordinal(parse_ordinal(text))
    full = evaluate(p, Fuel(10**7, max_outputs))
    assert len(full.outputs) == max_outputs
    for k in range(1, full.steps_used + 1):
        fast, plain = _fast_and_plain(p, Fuel(k, max_outputs))
        assert fast == plain, k
    assert fast == full


@hyp.given(closed_programs, st.integers(1, 600), st.integers(1, 8))
def test_escape_fusion_matches_plain_on_random_programs(p, max_steps, max_outputs):
    fast, plain = _fast_and_plain(p, Fuel(max_steps, max_outputs))
    assert fast == plain


def test_escape_loop_compiles_to_one_block():
    loop = escape_loop("W", "H", "D")
    assert objlang._match_fused_loop(loop)[1] == ("W", "H", "D")
    assert objlang._compile_stmt(loop, {"W", "D"}).__name__ == "do_escape"


_LOOP = escape_loop("A", "B", "C")


@pytest.mark.parametrize(
    "loop",
    [
        escape_loop("A", "A", "C"),
        escape_loop("A", "B", "B"),
        escape_loop("A", "B", "A"),
        While(Not(Equals(Literal(""), Var("A"))), _LOOP.body),
        While(_LOOP.cond, _LOOP.body + (Assign("C", Var("C")),)),
    ],
    ids=["walk_is_char", "char_is_dst", "walk_is_dst", "equals_swapped", "extra_statement"],
)
def test_escape_loop_near_misses_take_the_plain_path(loop):
    assert objlang._match_fused_loop(loop) is None
    assert objlang._compile_stmt(loop, {"A", "B", "C"}).__name__ == "do_while"
    setup = tuple(Assign(v, Literal(t)) for v, t in (("A", "x'y\\z"), ("B", "b"), ("C", "c")))
    p = Program(setup + (loop, Print(Var("A")), Print(Var("B")), Print(Var("C"))))
    for max_steps in (1, 7, 40, 500):
        fast, plain = _fast_and_plain(p, Fuel(max_steps, 3))
        assert fast == plain


@pytest.mark.parametrize(
    "s, cost",
    [("", 1), ("a", 7), ("'", 6), ("\\", 7), ("\n", 7), ("''", 11),
     ("a'b\\c\nd'", 47), ("Print('End');End", 95)],
)
def test_escape_loop_cost_is_pinned(s, cost):
    # 1 for the final check, then 6 per character or 5 per quote
    assert cost == 1 + 6 * len(s) - s.count("'")
    p = Program((
        Assign("W", Literal(s)),
        Assign("H", Literal("h")),
        Assign("D", Literal(">")),
        escape_loop("W", "H", "D"),
        Print(Var("D")),
        Print(Var("W")),
        Print(Var("H")),
    ))
    outputs = (">" + s.replace("\\", "\\\\").replace("'", "\\'"), "", s[-1:] or "h")
    want = Trace(outputs, TraceStatus.HALTED, 3 + cost + 3)
    assert _fast_and_plain(p, Fuel(3 + cost + 3, 3)) == (want, want)
    # one step short of the whole loop: the run stops with every step spent
    short = Trace((), TraceStatus.FUEL_EXHAUSTED, 3 + cost - 1)
    assert _fast_and_plain(p, Fuel(3 + cost - 1, 3)) == (short, short)


def test_escape_loop_leaves_newlines_raw():
    p = Program((
        Assign("W", Literal("a\nb'")),
        Assign("D", Literal("")),
        escape_loop("W", "H", "D"),
        Print(Var("D")),
    ))
    fast, plain = _fast_and_plain(p, Fuel(100, 1))
    assert fast == plain
    assert fast.outputs == ("a\nb\\'",)
    assert fast.outputs[0] != escape_literal("a\nb'")


# ---------------------------------------------------------------------------
# the driver's scan loops run as one block too
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "loop, names, closure",
    [
        (_paren_scan("P", "W", "M", "B"), ("P", "W", "M", "B"), "do_paren_scan"),
        (_unary_scan("Q", "W", "K"), ("Q", "W", "K"), "do_unary_scan"),
        (_comma_scan("S", "G"), ("S", "G"), "do_comma_scan"),
    ],
    ids=["paren", "unary", "comma"],
)
def test_scan_loops_compile_to_one_block(loop, names, closure):
    assert objlang._match_fused_loop(loop)[1] == names
    assert objlang._compile_stmt(loop, set(names)).__name__ == closure


def _assert_block_cost(loop, before: dict, cost: int, after: dict):
    """Run ``loop`` from the values ``before``: ``cost`` steps, then the values ``after``."""
    setup = tuple(Assign(n, Literal(v)) for n, v in before.items())
    p = Program(setup + (loop,) + tuple(Print(Var(n)) for n in after))
    n, outputs = len(setup), tuple(after.values())
    want = Trace(outputs, TraceStatus.HALTED, n + cost + len(outputs))
    assert _fast_and_plain(p, Fuel(n + cost + len(outputs), len(outputs))) == (want, want)
    # one step short of the whole loop: the run stops with every step spent
    short = Trace((), TraceStatus.FUEL_EXHAUSTED, n + cost - 1)
    assert _fast_and_plain(p, Fuel(n + cost - 1, len(outputs))) == (short, short)


@pytest.mark.parametrize(
    "depth, walk, acc, cost, rest, gained",
    [
        ("I", ")", "", 8, "", ""),
        ("I", "()I)II", "b", 28, "II", "()I"),
        ("II", "))x", "b", 16, "x", ")"),
        ("xyz", "a)(b)))", "", 50, "", "a)(b))"),
        ("I", "x'\\\n)(", "", 32, "(", "x'\\\n"),
    ],
)
def test_paren_scan_cost_is_pinned(depth, walk, acc, cost, rest, gained):
    # 6 per character consumed and 2 per ")" among them: a ")" costs 8 but
    # the last one 7, and the final check 1
    k = len(walk) - len(rest)
    assert cost == 6 * k + 2 * walk[:k].count(")")
    before = {"P": depth, "W": walk, "M": "m", "B": acc}
    after = {"P": "", "W": rest, "M": ")", "B": acc + gained}
    _assert_block_cost(_paren_scan("P", "W", "M", "B"), before, cost, after)


@pytest.mark.parametrize(
    "walk, acc, cost, rest",
    [("", "", 4, ""), ("III", "k", 19, ""), ("II(I", "", 15, "(I"), ("(", "k", 5, "("),
     ("I,I", "", 10, ",I")],
)
def test_unary_scan_cost_is_pinned(walk, acc, cost, rest):
    # 5 per leading I; then 4 if the walk is used up, else 5
    m = len(walk) - len(rest)
    assert cost == 5 * m + (4 if not rest else 5)
    before = {"Q": "xx", "W": walk, "K": acc}
    after = {"Q": "", "W": rest, "K": acc + "I" * m}
    _assert_block_cost(_unary_scan("Q", "W", "K"), before, cost, after)


@pytest.mark.parametrize(
    "stack, acc, cost", [(",", "g", 1), ("ab,", "", 7), ("(()I)I,(,", "g", 19), ("I,,", "", 4)]
)
def test_comma_scan_cost_is_pinned(stack, acc, cost):
    # 3 per character before the first comma, 1 for the final check
    j = stack.index(",")
    assert cost == 3 * j + 1
    before = {"S": stack, "G": acc}
    after = {"S": stack[j:], "G": acc + stack[:j]}
    _assert_block_cost(_comma_scan("S", "G"), before, cost, after)


@pytest.mark.parametrize(
    "loop", [_paren_scan("P", "W", "M", "B"), _unary_scan("P", "W", "B")], ids=["paren", "unary"]
)
def test_scan_with_an_empty_depth_or_flag_costs_one_step(loop):
    before = {"P": "", "W": "((I", "M": "m", "B": "b"}
    _assert_block_cost(loop, before, 1, before)


_PAREN = _paren_scan("A", "B", "C", "D")
_UNARY = _unary_scan("A", "B", "C")
_COMMA = _comma_scan("A", "B")


@pytest.mark.parametrize(
    "loop",
    [
        While(Not(Equals(Literal(""), Var("A"))), _PAREN.body),
        _paren_scan("A", "A", "C", "D"),
        _paren_scan("A", "B", "C", "A"),
        _paren_scan("A", "B", "B", "D"),
        While(_PAREN.cond, _PAREN.body + (Assign("D", Var("D")),)),
        While(Not(Equals(Literal(""), Var("A"))), _UNARY.body),
        _unary_scan("A", "A", "C"),
        _unary_scan("A", "B", "A"),
        While(_UNARY.cond, _UNARY.body + (Assign("C", Var("C")),)),
        While(Not(Equals(Literal(","), Head(Var("A")))), _COMMA.body),
        _comma_scan("A", "A"),
        While(_COMMA.cond, _COMMA.body + (Assign("B", Var("B")),)),
    ],
    ids=["paren_swapped", "paren_depth_is_walk", "paren_depth_is_acc", "paren_walk_is_char",
         "paren_extra_statement", "unary_swapped", "unary_flag_is_walk", "unary_flag_is_acc",
         "unary_extra_statement", "comma_swapped", "comma_stack_is_acc", "comma_extra_statement"],
)
def test_scan_loop_near_misses_take_the_plain_path(loop):
    assert objlang._match_fused_loop(loop) is None
    assert objlang._compile_stmt(loop, {"A", "B", "C", "D"}).__name__ == "do_while"
    for values in (("I", "(()I)I,x", "c", "d"), ("II", "IIx,I", "", ",")):
        setup = tuple(Assign(v, Literal(t)) for v, t in zip("ABCD", values))
        p = Program(setup + (loop,) + tuple(Print(Var(v)) for v in "ABCD"))
        for max_steps in (1, 7, 40, 500):
            fast, plain = _fast_and_plain(p, Fuel(max_steps, 4))
            assert fast == plain


# Values that make the passes fail: the walk or the stack runs out (Head of
# an empty string), or a value passes a length limit lowered for the test.
# The fused loop must fail, or stop on fuel, exactly where the passes do.
@pytest.mark.parametrize(
    "loop, values, limit",
    [
        (_paren_scan("P", "W", "M", "B"), {"P": "I", "W": "(()I", "M": "", "B": ""}, None),
        (_paren_scan("P", "W", "M", "B"), {"P": "III", "W": "))", "M": "", "B": "b"}, None),
        (_paren_scan("P", "W", "M", "B"), {"P": "I", "W": "((((()))))", "M": "", "B": ""}, 4),
        (_paren_scan("P", "W", "M", "B"), {"P": "I", "W": "abcdef)", "M": "", "B": "bb"}, 6),
        (_unary_scan("Q", "W", "K"), {"Q": "x", "W": "IIIIII(", "K": "kkk"}, 6),
        (_comma_scan("S", "G"), {"S": "ab", "G": "g"}, None),
        (_comma_scan("S", "G"), {"S": "", "G": "g"}, None),
        (_comma_scan("S", "G"), {"S": "abcdef,", "G": "gg"}, 5),
        (escape_loop("W", "H", "D"), {"W": "ab'c", "H": "", "D": "123456"}, 10),
    ],
    ids=["paren_walk_runs_out", "paren_no_open", "paren_depth_too_long", "paren_acc_too_long",
         "unary_acc_too_long", "comma_none", "comma_empty", "comma_acc_too_long",
         "escape_dst_too_long"],
)
def test_failing_loops_match_the_passes_at_every_step_budget(loop, values, limit, monkeypatch):
    if limit is not None:
        monkeypatch.setattr(objlang, "_MAX_VALUE_LEN", limit)
    setup = tuple(Assign(n, Literal(v)) for n, v in values.items())
    p = Program(setup + (loop, Print(Literal("done"))))
    full = _fast_and_plain(p, Fuel(10**4, 1))
    assert full[0] == full[1] and full[0][0] is (EvalError if limit is None else LengthLimitError)
    for max_steps in range(1, 80):
        fast, plain = _fast_and_plain(p, Fuel(max_steps, 1))
        assert fast == plain, max_steps
    assert (fast, plain) == full
