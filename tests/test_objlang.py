import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from ionkit.objlang import (
    Assign,
    Concat,
    Equals,
    EvalError,
    Fuel,
    Head,
    IfElse,
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
    check_closed,
    concat,
    evaluate,
    parse,
    serialize,
)

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
stmts = st.recursive(
    st.one_of(st.builds(Print, exprs), st.builds(Assign, idents, exprs)),
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


@hyp.given(closed_programs)
def test_evaluate_deterministic(p):
    fuel = Fuel(300, 8)
    try:
        first = evaluate(p, fuel)
        second = evaluate(p, fuel)
    except EvalError:
        return  # Head/Tail of empty string; determinism of errors checked below
    assert first == second


@hyp.given(closed_programs)
def test_fuel_monotonic_prefix(p):
    try:
        small = evaluate(p, Fuel(150, 4))
        large = evaluate(p, Fuel(600, 9))
    except EvalError:
        return
    assert large.outputs[: len(small.outputs)] == small.outputs


@hyp.given(closed_programs)
def test_halted_is_stable(p):
    try:
        t = evaluate(p, Fuel(400, 8))
    except EvalError:
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


def test_equals_and_not():
    p = parse("If(Equals('a','a')){Print('y');}Else{Print('n');}"
              "If(Not(Equals('a','b'))){Print('y2');}Else{Print('n2');}End")
    assert evaluate(p, Fuel(50, 4)).outputs == ("y", "y2")


def test_fuel_validation():
    with pytest.raises(ValueError):
        Fuel(0, 1)
    with pytest.raises(ValueError):
        Fuel(1, 0)


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
