"""The parser's and the compiler's skeleton tables change nothing a caller can
see: every result and every error text equals the one computed with both
tables empty. The tables hold the notation's two skeletons and are never
written after import."""

import contextlib
import operator
import random
import sys
import threading

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from conftest import CORPUS_SEED
from ionkit import objlang
from ionkit.notation import (
    _A0_WHILE,
    _DRIVER_TAIL,
    compile_ordinal,
    decompile,
    source_of,
    value_lower_bound,
    verify,
)
from ionkit.objlang import (
    Assign,
    Equals,
    Fuel,
    IfElse,
    Literal,
    Not,
    ObjLangError,
    OpenProgramError,
    ParseError,
    Print,
    Program,
    TrueCond,
    While,
    evaluate,
    parse,
    serialize,
)
from ionkit.ordinals import Kind, classify, fundamental_sequence, parse_ordinal
import test_objlang
from test_objlang import OPEN_PROGRAMS, VERIFY_FUEL_LADDER, programs


@contextlib.contextmanager
def empty_skeleton_tables():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(objlang, "_SKELETON_STMTS", {})
        m.setattr(objlang, "_SKELETON_FNS", {})
        yield


def _outcomes(p: Program, fuels: tuple[Fuel, ...], max_depth: int):
    """What a caller sees of ``p``: its reparse, and its run, verdict, fuel spent
    and value bound at each fuel."""
    seen = [parse(serialize(p))]
    for fuel in fuels:
        try:
            seen.append(evaluate(p, fuel))
        except ObjLangError as exc:
            seen.append(f"{type(exc).__name__}: {exc}")
        r = verify(p, fuel, max_depth)
        seen += [r.verdict, r.fuel_spent, value_lower_bound(p, fuel, max_depth)]
    return seen


def _warm_and_cold(cases):
    warm = [_outcomes(*case) for case in cases]
    with empty_skeleton_tables():
        cold = [_outcomes(*case) for case in cases]
    return warm, cold


def test_corpus_at_the_verify_fuel_ladder(corpus200):
    ladder = tuple(Fuel(*fuel) for fuel in VERIFY_FUEL_LADDER)
    warm, cold = _warm_and_cold([(parse(source_of(a)), ladder, 4) for a in corpus200])
    for a, w, c in zip(corpus200, warm, cold):
        assert w == c, a


def _mutant(a, k: int) -> Program:
    """Mutant k of ``a``: j genuine members of ``a`` printed, then a bad output."""
    j = (k // 3) % 3 if classify(a) is Kind.LIMIT else 0
    prefix = tuple(Print(Literal(source_of(fundamental_sequence(a, m)))) for m in range(j))
    bad = (
        Print(Literal("### not a program ###")),  # an output that does not parse
        Print(Literal("Print(Head(''));End")),  # an output that fails when run
        Print(objlang.Head(Literal(""))),  # the program itself fails
    )[k % 3]
    return Program(prefix + (bad,))


def test_the_three_mutant_kinds(corpus200):
    warm, cold = _warm_and_cold([(_mutant(a, k), (Fuel(20000, 8),), 3) for k, a in enumerate(corpus200)])
    assert warm == cold


@hyp.given(programs, st.integers(1, 600), st.integers(1, 8))
def test_random_programs(p, max_steps, max_outputs):
    warm, cold = _warm_and_cold([(p, (Fuel(max_steps, max_outputs),), 3)] * 2)
    assert warm == cold


# ---------------------------------------------------------------------------
# error texts with warm caches
# ---------------------------------------------------------------------------

def _parse_outcome(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return exc.offset, exc.expected, exc.found


def test_parse_errors_with_warm_caches(corpus200):
    rng = random.Random(CORPUS_SEED)
    sources = [s for s in map(source_of, corpus200) if len(s) < 8000][:80]
    for src in sources:
        parse(src)
    texts = []
    for src in sources:
        for n in range(4):
            # half the edits fall in the first 80 characters, where the data is
            i, ch = rng.randrange(len(src) if n % 2 else min(len(src), 80)), rng.choice("()I'\\;=CXEnd{}")
            texts += [src[:i] + ch + src[i:], src[:i] + src[i + 1 :], src[:i] + ch + src[i + 1 :]]
        texts.append(src[: rng.randrange(len(src))])
    warm = [_parse_outcome(t) for t in texts]
    with empty_skeleton_tables():
        cold = [_parse_outcome(t) for t in texts]
    for text, w, c in zip(texts, warm, cold):
        assert w == c, text[:120]
    errors = sum(isinstance(w, tuple) for w in warm)
    assert errors > len(texts) // 4 and errors < len(texts), (errors, len(texts))


@OPEN_PROGRAMS
def test_open_program_messages_after_a_driver_ran(src, where):
    evaluate(compile_ordinal(parse_ordinal("w^w")), Fuel(3000, 3))
    test_objlang.test_open_program_messages(src, where)
    test_objlang.test_open_program_messages(src, where)


def test_driver_without_its_data_is_open_with_warm_caches():
    p = compile_ordinal(parse_ordinal("w^w"))
    evaluate(p, Fuel(3000, 3))
    # A first statement that leaves C (X for the A0 loop) unassigned on some
    # path: the skeleton's closures are not reused, and the fresh compile
    # names the first read of it.
    a0 = compile_ordinal(parse_ordinal("w*2")).statements[1:]
    driver_message = "variable 'C' may be read before assignment in assignment to 'A'"
    cases = [
        ((), p.statements[1:], driver_message),
        ((Print(Literal("x")),), p.statements[1:], driver_message),
        ((While(Not(TrueCond()), (Assign("C", Literal("()I")),)),), p.statements[1:], driver_message),
        ((Print(Literal("x")),), a0, "variable 'X' may be read before assignment in Print"),
    ]
    for first, skeleton, message in cases:
        q = Program(first + skeleton)
        for r in (q, parse(serialize(q))):
            with pytest.raises(OpenProgramError) as warm:
                evaluate(r, Fuel(3000, 3))
            with empty_skeleton_tables(), pytest.raises(OpenProgramError) as cold:
                evaluate(r, Fuel(3000, 3))
            assert str(warm.value) == str(cold.value) == message


def _skeleton_closures(stmts):
    return objlang._SKELETON_FNS[tuple(map(id, stmts))][1]


def test_a_first_statement_assigning_more_names_reuses_the_closures():
    # The If assigns C and Z on both paths, a superset of the driver's {C}.
    enc = "((()I)I)I"  # w^w
    first = IfElse(
        Equals(Literal(""), Literal("")),
        (Assign("C", Literal(enc)), Assign("Z", Literal(""))),
        (Assign("Z", Literal("")), Assign("C", Literal(enc))),
    )
    p = Program((first,) + _DRIVER_TAIL)
    fns = objlang._compile_program(p.statements)
    assert all(map(operator.is_, fns[1:], _skeleton_closures(_DRIVER_TAIL)))
    assert len(fns) == len(p.statements)
    driver = compile_ordinal(parse_ordinal("w^w"))
    warm = evaluate(p, Fuel(5000, 3))
    with empty_skeleton_tables():
        cold = evaluate(p, Fuel(5000, 3))
    assert warm == cold == evaluate(driver, Fuel(5000, 3))
    # the compiled and reparsed programs reuse them too
    for text, skeleton in (("w^w", _DRIVER_TAIL), ("w*2", (_A0_WHILE,))):
        q = parse(source_of(parse_ordinal(text)))
        fns = objlang._compile_program(q.statements)
        assert all(map(operator.is_, fns[1:], _skeleton_closures(skeleton)))


# ---------------------------------------------------------------------------
# the tables
# ---------------------------------------------------------------------------

def test_the_tables_hold_the_two_skeletons():
    assert list(objlang._SKELETON_STMTS.values()) == [(_A0_WHILE,), _DRIVER_TAIL]
    assert [(v[0], v[2]) for v in objlang._SKELETON_FNS.values()] == [
        ({"X"}, (_A0_WHILE,)),
        ({"C"}, _DRIVER_TAIL),
    ]


def test_each_registered_text_parses_afresh_to_its_statements():
    for text, stmts in objlang._SKELETON_STMTS.items():
        assert text == serialize(Program(stmts))
        with empty_skeleton_tables():
            fresh = parse(text).statements
        assert fresh == stmts and fresh[0] is not stmts[0]


@pytest.mark.parametrize("text", ["w^w+w*2+3", "w^2+w*3"], ids=["driver", "a0"])
def test_parsed_and_compiled_programs_share_the_skeleton(text):
    a = parse_ordinal(text)
    parsed, compiled = parse(source_of(a)).statements[1:], compile_ordinal(a).statements[1:]
    assert len(parsed) == len(compiled) and all(map(operator.is_, parsed, compiled))
    # decompile peels the Print and A0 wraps down to one of the two skeletons
    assert decompile(parse(source_of(a))) == a


def _snapshot():
    return dict(objlang._SKELETON_STMTS), dict(objlang._SKELETON_FNS)


def _assert_unchanged(before):
    stmts, fns = before
    assert objlang._SKELETON_STMTS.keys() == stmts.keys()
    assert all(objlang._SKELETON_STMTS[k] is v for k, v in stmts.items())
    assert objlang._SKELETON_FNS.keys() == fns.keys()
    assert all(objlang._SKELETON_FNS[k] is v for k, v in fns.items())


def test_parsing_and_running_programs_leaves_the_tables_unchanged():
    # 2000 distinct programs, the text after the first statement ranging from
    # under 100 bytes to over 1 MB, plus the two skeletons under other data
    before = _snapshot()
    for i in range(2000):
        pad = "p" * (1 << 20 if i == 1000 else (i % 40) * 1500 if i % 7 == 0 else 0)
        src = f"X='ab{i}';While(Not(Equals(X,''))){{X=Tail(X);Print('{pad}{i}');}}End"
        assert len(evaluate(parse(src), Fuel(40, 2)).outputs) == 2
    for text in ("w*7", "w^w*2+w^3+1"):
        p = parse(source_of(parse_ordinal(text)))
        evaluate(p, Fuel(3000, 2))
        evaluate(parse(serialize(Program((Print(Literal("x")),) + p.statements))), Fuel(3000, 2))
    _assert_unchanged(before)


def test_caches_stay_consistent_across_threads():
    # More threads than cores, switching often, all reading both tables.
    before = _snapshot()
    driver = source_of(parse_ordinal("w^w"))
    expected = evaluate(parse(driver), Fuel(3000, 2))
    errors = []

    def work(t: int):
        try:
            for i in range(300):
                src = f"X='ab{t}';While(Not(Equals(X,''))){{X=Tail(X);Print('{'q' * (i * 997 % 9000)}');}}End"
                assert len(evaluate(parse(src), Fuel(40, 2)).outputs) == 2
                if i % 30 == 0:
                    assert evaluate(parse(driver), Fuel(3000, 2)) == expected
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
    _assert_unchanged(before)
