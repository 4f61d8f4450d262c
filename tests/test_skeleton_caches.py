"""The parser's suffix cache and the compiler's closure cache change nothing a
caller can see: every result and every error text equals the one computed
with caches that never store, and both caches stay within their bounds."""

import contextlib
import random
import sys
import threading

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from conftest import CORPUS_SEED
from ionkit import objlang
from ionkit.notation import compile_ordinal, source_of, value_lower_bound, verify
from ionkit.objlang import (
    Fuel,
    Literal,
    ObjLangError,
    OpenProgramError,
    ParseError,
    Print,
    Program,
    evaluate,
    parse,
    serialize,
)
from ionkit.ordinals import Kind, classify, fundamental_sequence, parse_ordinal
import test_objlang
from test_objlang import OPEN_PROGRAMS, VERIFY_FUEL_LADDER, programs


@contextlib.contextmanager
def caches_that_never_store():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(objlang, "_PARSED", objlang._Cache(0, 0))
        m.setattr(objlang, "_COMPILED", objlang._Cache(0, 0))
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
    with caches_that_never_store():
        cold = [_outcomes(*case) for case in cases]
    return warm, cold


def test_corpus_at_the_verify_fuel_ladder(corpus200):
    ladder = tuple(Fuel(*fuel) for fuel in VERIFY_FUEL_LADDER)
    warm, cold = _warm_and_cold([(parse(source_of(a)), ladder, 4) for a in corpus200])
    for a, w, c in zip(corpus200, warm, cold):
        assert w == c, a
    assert objlang._PARSED.entries and objlang._COMPILED.entries


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
    with caches_that_never_store():
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
    evaluate(p, Fuel(3000, 3))  # caches the driver's loop under the names before it, C included
    headless = Program(p.statements[1:])
    message = "variable 'C' may be read before assignment in assignment to 'A'"
    for q in (headless, parse(serialize(headless)), headless):
        with pytest.raises(OpenProgramError) as warm:
            evaluate(q, Fuel(3000, 3))
        with caches_that_never_store(), pytest.raises(OpenProgramError) as cold:
            evaluate(q, Fuel(3000, 3))
        assert str(warm.value) == str(cold.value) == message


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_caches_stay_within_their_bounds():
    # The text after the first statement, and the loop, range from under 100
    # bytes to over 1 MB, so the entry, byte and per-entry bounds all bind.
    for i in range(2000):
        pad = "p" * (1 << 20 if i == 1000 else (i % 40) * 1500 if i % 7 == 0 else 0)
        src = f"X='ab{i}';While(Not(Equals(X,''))){{X=Tail(X);Print('{pad}{i}');}}End"
        assert len(evaluate(parse(src), Fuel(40, 2)).outputs) == 2
    _assert_within_bounds()


def _assert_within_bounds():
    for cache in (objlang._PARSED, objlang._COMPILED):
        sizes = [n for _, n in cache.entries.values()]
        assert 0 < len(sizes) <= objlang._CACHE_ENTRIES
        assert cache.nbytes == sum(sizes) <= objlang._CACHE_BYTES
        assert max(sizes) <= objlang._CACHE_ITEM_BYTES


def test_caches_stay_consistent_across_threads():
    # More threads than cores, switching often, all storing into both caches.
    errors = []

    def work(t: int):
        try:
            for i in range(300):
                src = f"X='ab{t}';While(Not(Equals(X,''))){{X=Tail(X);Print('{'q' * (i * 997 % 9000)}');}}End"
                assert len(evaluate(parse(src), Fuel(40, 2)).outputs) == 2
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
    _assert_within_bounds()
