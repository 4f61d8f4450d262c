import collections
import gc
import hashlib
import random
import sys
import threading
import time
import tracemalloc

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from ionkit import objlang
from ionkit.notation import _DRIVER_CODE_TEXT, compile_ordinal, source_of
from ionkit.objlang import (
    Assign,
    Concat,
    Equals,
    EvalError,
    Expr,
    Fuel,
    Head,
    IfElse,
    LengthLimitError,
    LimitError,
    Literal,
    NestingLimitError,
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


# Each source uses all seven keyword groups, with blanks between the tokens.
PARSE_ERROR_SOURCES = (
    "X = 'ab' ; While( Not( Equals( X , '' ) ) ){ If( Equals( Head( X ) , 'a' ) )"
    "{ Print( X ); } Else { Print( Tail( X ) ); } X = Tail( X ); } End",
    "Y = 'q\\'s' + Head( 'x' ) ; If( True ){ } Else { While( Not( Equals( Y , Tail( Y ) ) ) )"
    "{ Print( Y + 'z' ); } } End",
    "Endless = 'a\\\\b\\n' ; While( True ){ If( Not( Equals( Endless , Tail( 'c' ) ) ) )"
    "{ Print( Head( Endless ) ); } Else { } } End ",
)


def _parse_error_corpus() -> list[str]:
    """Every proper prefix and one-character deletion of each source, and each
    of ``(){};,'=+ EIxé`` inserted at every third offset."""
    corpus = []
    for src in PARSE_ERROR_SOURCES:
        corpus += [src[:i] for i in range(len(src))]
        corpus += [src[:i] + src[i + 1 :] for i in range(len(src))]
        corpus += [src[:i] + ch + src[i:] for i in range(0, len(src) + 1, 3) for ch in "(){};,'=+ EIxé"]
    return corpus


def _parse_outcome(text: str) -> str:
    try:
        return repr(parse(text))
    except ParseError as err:
        return repr((type(err).__name__, err.offset, err.expected, err.found))


# sha256 of every outcome on the corpus, one line each, computed before the
# parser read its keyword groups from one table: each error keeps its offset,
# expected text and found text.
PARSE_ERROR_CORPUS_SHA256 = "501083569b6b495d102c6241967e027247138709c46979768225def82a0e03e0"


def test_parse_outcomes_on_the_error_corpus_are_pinned():
    corpus = _parse_error_corpus()
    outcomes = [_parse_outcome(text) for text in corpus]
    assert sum(o.startswith("('ParseError'") for o in outcomes) > len(corpus) // 2
    digest = hashlib.sha256("\n".join(outcomes).encode("utf-8")).hexdigest()
    assert (len(corpus), digest) == (2566, PARSE_ERROR_CORPUS_SHA256)


@pytest.mark.parametrize(
    "src, outcome",
    [
        ("If(True){}Elsx{}End", (10, "'Else'", "Elsx{}End")),
        ("If(True){}Elsewhere{}End", (10, "'Else'", "Elsewhere{}E")),
        ("If(True){} Else {}End", None),
    ],
)
def test_else_hands_the_group_over_at_its_keyword(src, outcome):
    if outcome is None:
        assert parse(src) == Program((IfElse(TrueCond(), (), ()),))
        return
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (exc.value.offset, exc.value.expected, exc.value.found) == outcome


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
# the nesting limit: one rule for text and for ASTs
# ---------------------------------------------------------------------------

LIMIT = objlang._NESTING_LIMIT


def _nested_text(kind: str, n: int) -> str:
    """A closed program whose deepest chain is ``n`` groups, most of them ``kind``."""
    heads = lambda k, inner: "Head(" * k + inner + ")" * k
    return {
        "Print": "X='a';Print(" + heads(n - 1, "X") + ");End",
        "Head": "X='a';Y=" + heads(n, "X") + ";End",
        "Tail": "X='" + "a" * n + "';Y=" + "Tail(" * n + "X" + ")" * n + ";End",
        "Equals": "X='a';If(Equals(X," + heads(n - 2, "X") + ")){}Else{}End",
        "Not": "If(" + "Not(" * (n - 1) + "True" + ")" * (n - 1) + "){}Else{}End",
        # the outer loop's condition is false, so the inner loops never run
        "While": "X='a';While(Equals(X,'b')){" + "While(True){" * (n - 1) + "}" * n + "End",
        "If": "If(True){" * n + "}Else{}" * n + "End",
        "Else": "If(True){}Else{" * n + "}" * n + "End",
    }[kind]


GROUP_KINDS = ["Print", "Head", "Tail", "Equals", "Not", "While", "If", "Else"]


@pytest.mark.parametrize("kind", GROUP_KINDS)
def test_text_at_the_nesting_limit_roundtrips_and_runs(kind):
    text = _nested_text(kind, LIMIT)
    p = parse(text)
    assert serialize(p) == text
    check_closed(p)
    assert evaluate(p, Fuel(10**4, 2)).status is TraceStatus.HALTED


@pytest.mark.parametrize("kind", GROUP_KINDS)
def test_one_group_past_the_nesting_limit_is_refused_on_every_path(kind):
    text = _nested_text(kind, LIMIT + 1)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(objlang, "_NESTING_LIMIT", LIMIT + 1)
        p = parse(text)
    for refuse in (lambda: parse(text), lambda: serialize(p), lambda: check_closed(p),
                   lambda: evaluate(p, Fuel(10**4, 2))):
        with pytest.raises(NestingLimitError, match=f"nesting deeper than the limit of {LIMIT}$") as exc:
            refuse()
        assert isinstance(exc.value, LimitError) and not isinstance(exc.value, ParseError)


def test_parse_names_the_offset_of_the_group_past_the_limit():
    text = "Print(" + "Head(" * 600 + "'a'" + ")" * 600 + ");End"
    with pytest.raises(NestingLimitError) as exc:
        parse(text)
    # Print( and 127 Head( fill the limit; the next Head( starts at 6 + 127 * 5
    assert str(exc.value) == f"offset 641: nesting deeper than the limit of {LIMIT}"


def _head_5000() -> Program:
    e = Var("X")
    for _ in range(5000):
        e = Head(e)
    return Program((Assign("X", Literal("a")), Print(e)))


def _not_3000() -> Program:
    c = TrueCond()
    for _ in range(3000):
        c = Not(c)
    return Program((While(c, ()),))


@pytest.mark.parametrize("build", [_head_5000, _not_3000], ids=["head_5000", "not_3000"])
def test_python_built_deep_ast_stops_at_the_nesting_limit(build):
    p = build()
    for refuse in (serialize, check_closed, lambda q: evaluate(q, Fuel(10, 1))):
        with pytest.raises(NestingLimitError):
            refuse(p)


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
        # dst = '', walk = src, then the escape loop: the driver's escape.
        esc_names.map(lambda ns: IfElse(
            TrueCond(),
            (Assign(ns[3], Literal("")), Assign(ns[1], Var(ns[0])), escape_loop(*ns[1:])),
            (),
        )),
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


def test_head_of_a_shared_rope_walks_its_left_spine():
    # 'ab' doubled 24 times shares each half with itself: 2**25 characters
    # in 25 nodes. Head reads the first one without flattening any node.
    v = "ab"
    for _ in range(24):
        v = objlang._concat_val(v, v)
    assert objlang._vlen(v) == 1 << 25
    assert objlang._head(v) == "a"
    node = v
    while type(node) is objlang._Cat:
        assert node.flat is None and node.left is node.right
        node = node.left
    start = time.perf_counter()
    assert evaluate(parse(doubling_program(24)), Fuel(10**6, 1)) == Trace(
        ("a",), TraceStatus.HALTED, 76
    )
    assert time.perf_counter() - start < 1


def test_equals_of_a_shared_rope_with_itself_does_not_flatten_it():
    # X+'' is X itself, so Equals(X,X+'') compares one rope with itself
    v = "ab"
    for _ in range(20):
        v = objlang._concat_val(v, v)
    assert type(v) is objlang._Cat and objlang._vlen(v) == 1 << 21
    assert objlang._concat_val(v, "") is v
    assert objlang._eq(v, v)
    assert v.flat is None
    src = doubling_program(20).replace(
        "Print(Head(X));", "If(Equals(X,X+'')){Print('same');}Else{Print('differ');}"
    )
    assert evaluate(parse(src), Fuel(100, 1)) == Trace(("same",), TraceStatus.HALTED, 65)


# Rope values of up to a few hundred characters: str, suffix views and _Cat
# nodes, including short _Cat nodes that _concat_val itself no longer builds.
rope_text = st.integers(0, 300).flatmap(
    lambda n: st.text(alphabet=st.sampled_from("ab'\\"), min_size=n, max_size=n)
)


def _cat_of(l, r):
    n, m = objlang._vlen(l), objlang._vlen(r)
    return objlang._Cat(l, r, n + m) if n and m else l  # both halves of a _Cat are nonempty


ropes = st.recursive(
    st.one_of(
        rope_text,
        st.builds(lambda t, k: objlang._View(t, min(k, len(t))), rope_text, st.integers(0, 300)),
    ),
    lambda v: st.builds(_cat_of, v, v),
    max_leaves=4,
)


@hyp.given(ropes, ropes)
@hyp.example("a" * 128, "b" * 128)
@hyp.example("a" * 128, "b" * 129)
@hyp.example(objlang._View("x" + "a" * 200, 1), objlang._Cat("b" * 50, "c" * 6, 56))
def test_concatenations_up_to_short_are_flat_str(l, r):
    # the result first: _to_str of a _Cat stores its flat text in the node
    v = objlang._concat_val(l, r)
    text = objlang._to_str(l) + objlang._to_str(r)
    assert objlang._to_str(v) == text and objlang._vlen(v) == len(text)
    if not objlang._vlen(l) or not objlang._vlen(r):
        assert v is (r if not objlang._vlen(l) else l)
    elif len(text) <= objlang._SHORT:
        assert type(v) is str
    else:
        assert type(v) is objlang._Cat


@hyp.given(ropes, ropes, st.integers(0, objlang._SHORT - 1))
@hyp.example("ab", "c", 2)
def test_length_limit_below_short_raises_at_the_same_lengths(l, r, limit):
    n = objlang._vlen(l) + objlang._vlen(r)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(objlang, "_MAX_VALUE_LEN", limit)
        if objlang._vlen(l) and objlang._vlen(r) and n > limit:
            with pytest.raises(LengthLimitError) as exc:
                objlang._concat_val(l, r)
            assert str(exc.value) == f"string value of {n} characters is over the limit of {limit}"
        else:
            v = objlang._concat_val(l, r)
            assert objlang._to_str(v) == objlang._to_str(l) + objlang._to_str(r)


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


# Two escapes of texts with raw newlines, quotes and backslashes: the second
# walks the first's output and a trailing newline.
_NEWLINE_ESCAPES = Program((
    Assign("W", Literal("a\nb\\c\n'd\n\n")),
    Assign("D", Literal(">")),
    escape_loop("W", "H", "D"),
    Print(Var("D")),
    Assign("W", concat(Var("D"), Literal("\n"))),
    escape_loop("W", "H", "D"),
    Print(Var("D")),
))


@pytest.mark.parametrize(
    "p, max_outputs",
    [
        (compile_ordinal(parse_ordinal("w*2")), 2),
        (compile_ordinal(parse_ordinal("w^w")), 1),
        (_NEWLINE_ESCAPES, 2),
    ],
    ids=["a0", "driver", "raw_newlines"],
)
def test_escape_fusion_matches_plain_at_every_step_budget(p, max_outputs):
    # w*2 escapes the source of w (quotes and backslashes) on the A0 path;
    # w^w builds its first output with the driver's wrap loops.
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


def newline_escape_program(n: int) -> str:
    """W='\\n' doubled n times, then an escape loop that walks its 2**n newlines."""
    loop = serialize(Program((escape_loop("W", "H", "D"),)))[: -len("End")]
    return "W='\\n';N='" + "I" * n + "';While(Not(Equals(N,''))){W=W+W;N=Tail(N);}D='';" + loop + "Print(D);End"


def test_escaping_the_longest_value_of_newlines_is_one_pass():
    # The fused loop escapes its whole text before it charges the steps, so
    # 2**26 newlines must cost one replace, not a codec call per line.
    assert evaluate(parse(newline_escape_program(3)), Fuel(1000, 1)).outputs == ("\n" * 8,)
    start = time.perf_counter()
    trace = evaluate(parse(newline_escape_program(26)), Fuel(1000, 1))
    assert time.perf_counter() - start < 1
    assert trace == Trace((), TraceStatus.FUEL_EXHAUSTED, 1000)


# ---------------------------------------------------------------------------
# escapes and the parser's unescape run through the unicode_escape codec; the
# reference is the chains of str.replace they replaced, copied verbatim
# ---------------------------------------------------------------------------

def _chain_escape(s: str) -> tuple[str, int]:
    doubled = s.replace("\\", "\\\\")
    escaped = doubled.replace("'", "\\'")
    return escaped, len(escaped) - len(doubled)


def _chain_escape_literal(text: str) -> str:
    return text.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")


def _chain_unescape(body: str) -> str:
    body = body.replace("\\\\", "\0").replace("\\'", "'").replace("\\n", "\n")
    return body.replace("\0", "\\")


_printable = st.characters(min_codepoint=32, max_codepoint=126)
# texts over the literal alphabet, half their characters \ ' or newline
alphabet_texts = st.text(st.one_of(st.sampled_from("\\'\n"), _printable), max_size=80)
# literal bodies as the parser admits them: escapes and other printable ASCII
literal_bodies = st.lists(
    st.one_of(st.sampled_from(["\\'", "\\\\", "\\n"]), _printable.filter(lambda c: c not in "'\\")),
    max_size=60,
).map("".join)


def _parsed_literal(body: str) -> str:
    (stmt,) = parse(f"Print('{body}');End").statements
    return stmt.expr.text


@hyp.given(alphabet_texts)
def test_codec_escapes_match_the_replace_chains(text):
    assert objlang._escape(text) == _chain_escape(text)
    assert escape_literal(text) == _chain_escape_literal(text)
    assert _parsed_literal(escape_literal(text)) == text


@hyp.given(literal_bodies)
def test_codec_unescape_matches_the_replace_chain(body):
    assert _parsed_literal(body) == _chain_unescape(body)


@pytest.mark.parametrize("text", ["w^2*3+w*4", "w^3*2+w^2*3+w*5"])
def test_codec_escapes_match_the_replace_chains_on_deep_wrapped_sources(text):
    source = source_of(parse_ordinal(text))
    assert source.count("\\") > len(source) // 2  # mostly backslashes
    # the source as it is, and cut into lines at every statement
    for s in (source, source.replace(";", ";\n")):
        assert objlang._escape(s) == _chain_escape(s)
        body = escape_literal(s)
        assert body == _chain_escape_literal(s)
        assert _parsed_literal(body) == _chain_unescape(body) == s
    data = parse(source).statements[0].expr.text  # its first statement's literal
    assert source.startswith(f"X='{_chain_escape_literal(data)}';")


@pytest.mark.parametrize("text", ["\t", "a\rb", "\x7f", "\xe9", "\0", "\\\t'\n\r\x7f\xe9\0\\x41"])
def test_escape_literal_outside_the_alphabet_keeps_the_chain_bytes(text):
    assert escape_literal(text) == _chain_escape_literal(text)
    with pytest.raises(ValueError, match="^literal contains non-printable character"):
        Literal(text)


# ---------------------------------------------------------------------------
# a fused escape loop reuses the escape of a skeleton's literal, made once,
# for that very str object; every other escape is kept by its run only
# ---------------------------------------------------------------------------

def _escape_twice(s: str, again: Expr) -> Program:
    """S=s; one escape loop run twice: on S, then on S=``again``."""
    return Program((
        Assign("S", Literal(s)),
        Assign("N", Literal("II")),
        Assign("H", Literal("h")),
        Assign("D", Literal(">")),
        While(Not(Equals(Var("N"), Literal(""))), (
            Assign("N", Tail(Var("N"))),
            Assign("W", Var("S")),
            escape_loop("W", "H", "D"),
            Assign("S", again),
        )),
        Print(Var("D")),
        Print(Var("H")),
    ))


@pytest.mark.parametrize(
    "s, again, limit",
    [
        ("abcdef", Var("S"), None),
        ("abcdef", concat(Head(Var("S")), Tail(Var("S"))), None),
        ("a'b\\c''\\\\d", Var("S"), None),
        ("ab'c", Var("S"), 10),
    ],
    ids=["same_object", "equal_distinct", "quotes_and_backslashes", "dst_too_long"],
)
def test_escape_memo_matches_the_passes_at_every_step_budget(s, again, limit, monkeypatch):
    # s stands for a skeleton's literal: its escape is in the table
    monkeypatch.setitem(objlang._LITERAL_ESCAPES, id(s), objlang._escape(s))
    if limit is not None:
        # >ab\'c fits the limit; the second escape's 11 characters do not
        monkeypatch.setattr(objlang, "_MAX_VALUE_LEN", limit)
    p = _escape_twice(s, again)
    full = _fast_and_plain(p, Fuel(10**4, 2))
    assert full[0] == full[1]
    if limit is None:
        e = s.replace("\\", "\\\\").replace("'", "\\'")
        assert full[0].outputs == (">" + e + e, s[-1])
    else:
        assert full[0][0] is LengthLimitError
    for max_steps in range(1, 12 * len(s) + 20):
        fast, plain = _fast_and_plain(p, Fuel(max_steps, 2))
        assert fast == plain, max_steps
    assert (fast, plain) == full


def test_escape_memo_hits_only_on_the_very_same_object(monkeypatch):
    do_escape = objlang._compile_stmt(escape_loop("W", "H", "D"), {"W", "D"})

    def escape(s: str):
        run = objlang._Run(Fuel(10**4, 1))
        run.env.update(W=s, H="h", D="")
        do_escape(run)
        return run.env["D"], run.env["H"], run.steps

    s = "a'b\\c" * 3
    entry = objlang._escape(s)
    assert entry == ("a\\'b\\\\c" * 3, 3)
    first = escape(s)
    assert first == (entry[0], "c", 1 + 6 * 15 - 3)
    assert first[0] is not entry[0]  # not a skeleton literal: escaped afresh
    monkeypatch.setitem(objlang._LITERAL_ESCAPES, id(s), entry)
    hit = escape(s)
    assert hit == first and hit[0] is entry[0]  # D was empty, so it is the table's str
    t = "".join(list(s))
    assert t == s and t is not s
    miss = escape(t)
    # An equal but distinct str misses the table. Each call above is a fresh
    # run with an empty memo, so the miss is escaped afresh.
    assert miss == first and miss[0] is not entry[0]


def _literal_escapes_of_the_skeletons() -> dict:
    escapes = {}
    for _, _, stmts, _ in objlang._SKELETON_FNS.values():
        for s in stmts:
            if type(s) is Assign and type(s.expr) is Literal:
                escapes[id(s.expr.text)] = objlang._escape(s.expr.text)
    return escapes


def test_escape_memo_holds_only_the_skeleton_literals(monkeypatch):
    expected = _literal_escapes_of_the_skeletons()
    assert objlang._LITERAL_ESCAPES == expected
    assert id(_DRIVER_CODE_TEXT) in expected  # the driver's L
    escaped, real = [], objlang._escape

    def counted(s):
        escaped.append(s)
        return real(s)

    monkeypatch.setattr(objlang, "_escape", counted)
    # w^2 runs the driver's L escape and its wrap loops; w*2 the A0 loop
    for text in ("w^2", "w*2"):
        evaluate(compile_ordinal(parse_ordinal(text)), Fuel(10**6, 4))
    assert escaped and not any(s is _DRIVER_CODE_TEXT for s in escaped)
    assert objlang._LITERAL_ESCAPES == expected


@pytest.mark.parametrize(
    "text, fuel, longest",
    [("w^2*3+w", Fuel(10**7, 16), 10**6), ("w^2", Fuel(10**7, 12), 5 * 10**4)],
    ids=["a0", "driver_wraps"],
)
def test_escape_loops_keep_nothing_after_a_run(text, fuel, longest):
    # w^2*3+w is an A0 loop over the 1 MB source of w^2*3; w^2 re-quotes its
    # member n with the driver's wrap loops n times.
    p = compile_ordinal(parse_ordinal(text))
    evaluate(p, Fuel(10, 1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = evaluate(p, fuel)
        assert max(map(len, trace.outputs)) > longest
        del trace
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2**16, kept


# ---------------------------------------------------------------------------
# a run's escape loops share one memo: each distinct text is escaped once per
# run, within the length limit, with the same Trace as the passes
# ---------------------------------------------------------------------------

# short texts over the literal alphabet, half their characters \ ' or newline
memo_texts = st.text(st.one_of(st.sampled_from("\\'\n"), _printable), max_size=6)


def _escape_each(texts: list[str], uses: list[tuple[int, bool]]) -> Program:
    """T<i>=texts[i]; a loop run twice that escapes T<i> into D for each (i, copy)
    of ``uses``: the very str T<i> holds, or an equal but distinct one if copy."""
    body = [Assign("N", Tail(Var("N")))]
    for i, copy in uses:
        t = Var(f"T{i}")
        body.append(Assign("W", concat(Head(t), Tail(t)) if copy and texts[i] else t))
        body.append(escape_loop("W", "H", "D"))
    return Program((
        *(Assign(f"T{i}", Literal(t)) for i, t in enumerate(texts)),
        Assign("N", Literal("II")),
        Assign("H", Literal("h")),
        Assign("D", Literal(">")),
        While(Not(Equals(Var("N"), Literal(""))), tuple(body)),
        Print(Var("D")),
        Print(Var("H")),
    ))


memo_programs = st.lists(memo_texts, min_size=1, max_size=3).flatmap(
    lambda texts: st.tuples(
        st.just(texts),
        st.lists(st.tuples(st.integers(0, len(texts) - 1), st.booleans()), min_size=1, max_size=4),
    )
)


@hyp.given(memo_programs, st.none() | st.integers(8, 64))
# the same str, an equal copy and another text; then the same with dst too long
@hyp.example((["a'b\\", "c\nd"], [(0, False), (0, True), (1, False)]), None)
@hyp.example((["a'b\\", "c\nd"], [(0, False), (0, True), (1, False)]), 12)
# a memo that fills up: 5 + 9 characters for the first text, then no room for the second
@hyp.example((["a'\\'\\", "\\\\\\\\\\'"], [(0, False), (1, False), (1, True)]), 20)
def test_escape_memo_matches_the_passes_at_every_step_budget_on_drawn_texts(pool, limit):
    texts, uses = pool
    p = _escape_each(texts, uses)
    # the steps of the whole run, or more: up to 6 assignments, two passes
    # of the loop and a last check, and the two Prints
    most = 13 + 2 * sum(2 + 6 * len(texts[i]) for i, _ in uses)
    with pytest.MonkeyPatch.context() as m:
        if limit is not None:
            m.setattr(objlang, "_MAX_VALUE_LEN", limit)
        full = _fast_and_plain(p, Fuel(most, 2))
        assert full[0] == full[1]
        if limit is None:
            escaped = "".join(objlang._escape(texts[i])[0] for i, _ in uses)
            assert full[0].status is TraceStatus.HALTED
            assert full[0].outputs[0] == ">" + escaped * 2
        for max_steps in range(1, most + 1):
            fast, plain = _fast_and_plain(p, Fuel(max_steps, 2))
            assert fast == plain, max_steps
    assert (fast, plain) == full


@pytest.mark.parametrize("max_outputs, parent_calls", [(4, 10), (8, 36), (12, 78)])
def test_driver_escapes_each_distinct_text_once_per_run(max_outputs, parent_calls, monkeypatch):
    # w^2's output n re-quotes its member's core n times with the driver's
    # wrap loops. Before the run memo each of those loops escaped its text
    # afresh: parent_calls texts, quadratic in the outputs.
    expected = _literal_escapes_of_the_skeletons()
    escaped, real = [], objlang._escape

    def counted(s):
        escaped.append(s)
        return real(s)

    monkeypatch.setattr(objlang, "_escape", counted)
    trace = evaluate(compile_ordinal(parse_ordinal("w^2")), Fuel(10**7, max_outputs))
    assert len(trace.outputs) == max_outputs
    assert len(escaped) == len(set(escaped)) == max_outputs < parent_calls
    assert not any(s is _DRIVER_CODE_TEXT for s in escaped)  # L is the table's
    assert objlang._LITERAL_ESCAPES == expected


def test_escape_memo_stays_within_the_length_limit(monkeypatch):
    # S gains a quote a pass, so each pass escapes a longer distinct text.
    # Text j+1 ("a" and j quotes) and its escape take 3j+2 characters: the
    # first 11 take 187, and the 12th would take the memo past 200.
    p = Program((
        Assign("S", Literal("a")),
        Assign("N", Literal("I" * 30)),
        Assign("H", Literal("h")),
        Assign("D", Literal("")),
        While(Not(Equals(Var("N"), Literal(""))), (
            Assign("N", Tail(Var("N"))),
            Assign("W", Var("S")),
            Assign("D", Literal("")),
            escape_loop("W", "H", "D"),
            Assign("S", concat(Var("S"), Literal("'"))),
        )),
        Print(Var("D")),
    ))
    monkeypatch.setattr(objlang, "_MAX_VALUE_LEN", 200)
    runs = []

    class Recorded(objlang._Run):
        def __init__(self, fuel):
            super().__init__(fuel)
            runs.append(self)

    monkeypatch.setattr(objlang, "_Run", Recorded)
    trace = evaluate(p, Fuel(10**5, 1))
    assert trace.outputs == ("a" + "\\'" * 29,)
    (run,) = runs
    assert list(run.escapes) == ["a" + "'" * j for j in range(11)]
    held = sum(len(k) + len(e) for k, (e, _) in run.escapes.items())
    assert held == run.escaped_len == 187
    full = _fast_and_plain(p, Fuel(10**5, 1))
    assert full == (trace, trace)
    for max_steps in (*range(1, trace.steps_used, 11), trace.steps_used - 1):
        fast, plain = _fast_and_plain(p, Fuel(max_steps, 1))
        assert fast == plain, max_steps


# Peak bytes tracemalloc traced during each run below before escapes had a
# run memo (CPython 3.11.7, x86-64). The memo keeps each text a run escaped,
# and its escape, until the run ends.
@pytest.mark.parametrize(
    "text, fuel, parent_peak",
    [("w^2*3+w", Fuel(10**7, 16), 7_672_831), ("w^2", Fuel(10**7, 12), 580_333)],
    ids=["a0", "driver_wraps"],
)
def test_escape_memo_peak_stays_within_half_again_of_no_memo(text, fuel, parent_peak):
    p = compile_ordinal(parse_ordinal(text))
    evaluate(p, Fuel(10, 1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = evaluate(p, fuel)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert trace.outputs
    assert peak <= 1.5 * parent_peak, peak


def test_shared_escape_memos_stay_consistent_across_threads():
    # Drivers (w^2 re-quotes its member n n times, so its wrap loops run
    # too) and an A0 program, in every thread at once: all of them share the
    # skeletons' escape closures.
    programs = [compile_ordinal(parse_ordinal(t)) for t in ("w^w", "w^(w^w)", "w^2", "w*3")]
    fuel = Fuel(10**6, 4)
    expected = [evaluate(p, fuel) for p in programs]
    errors = []

    def work(t: int):
        try:
            for i in range(60):
                k = (t + i) % len(programs)
                assert evaluate(programs[k], fuel) == expected[k]
        except Exception as exc:  # reported below; a thread's failure is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors


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
