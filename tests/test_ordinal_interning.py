"""Ordinals are hash-consed: equal ordinals alive at once are one object, the
intern table holds only live ordinals, and the identity-based comparison and
stored depth agree with the structural definitions they replace. The module's
own results skip the public constructor's checks through ``_intern``; the
differential tests below show every key it receives would pass them and gives
the very object the checked constructor gives."""

import contextlib
import copy
import gc
import hashlib
import pickle
import random
import sys
import threading
import weakref

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from conftest import random_ordinal
from ionkit import ordinals
from ionkit.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Comparison,
    Ordinal,
    add,
    compare,
    depth,
    descend,
    descent_walk,
    format_ordinal,
    fundamental_sequence,
    hydra_trajectory,
    mul,
    natural_sum,
    omega_pow,
    parse_hydra,
    parse_ordinal,
    predecessor,
)
from test_lineage import EDGE_RUNS, EDGE_RUNS_SHA256, GOLDEN_RUNS, GOLDEN_RUNS_SHA256, golden_logs
from test_ordinals import ordinal_exprs


def _reference_cmp(a, b):
    """The structural ``_cmp`` from before interning, kept verbatim as the reference."""
    if a is b:
        return 0
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = _reference_cmp(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def _reference_depth(a) -> int:
    return 1 + max(_reference_depth(e) for e, _ in a.terms) if a.terms else 0


@hyp.given(ordinal_exprs, ordinal_exprs)
def test_equality_is_identity(a, b):
    assert (a == b) == (a is b) == (compare(a, b) is Comparison.EQUAL)
    assert parse_ordinal(format_ordinal(a)) is a


@hyp.given(ordinal_exprs, ordinal_exprs)
def test_cmp_matches_structural_reference(a, b):
    assert ordinals._cmp(a, b) == _reference_cmp(a, b)
    assert ordinals._cmp(b, a) == _reference_cmp(b, a)


@hyp.given(ordinal_exprs)
def test_stored_depth_matches_reference(a):
    assert depth(a) == _reference_depth(a)


@hyp.given(ordinal_exprs)
def test_pickle_and_copy_return_the_interned_object(a):
    text = format_ordinal(a)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) is a
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert format_ordinal(a) is text  # the kept text too


def test_ordinals_are_immutable():
    a = parse_ordinal("w^2+1")
    with pytest.raises(AttributeError):
        a.terms = ()
    with pytest.raises(AttributeError):
        del a.terms
    assert format_ordinal(a) == "w^2+1"


def _reference_format(a) -> str:
    """format_ordinal from before an ordinal kept its text, _format_exp inlined: the reference."""
    if not a.terms:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if not exp.terms:
            parts.append(str(coeff))
        elif exp == ONE:
            parts.append("w" if coeff == 1 else f"w*{coeff}")
        else:
            s = _reference_format(exp)
            if len(exp.terms) > 1 or (exp.terms and exp.terms[0][0].terms and exp.terms[0][1] > 1):
                s = f"({s})"
            base = f"w^{s}"
            parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(parts)


@hyp.given(ordinal_exprs)
def test_format_ordinal_is_built_once_and_kept_with_the_ordinal(a):
    text = format_ordinal(a)
    assert text == _reference_format(a)
    assert ordinals._format_terms(a.terms) == text  # built afresh, the same text
    assert format_ordinal(a) is text and a._text is text
    assert parse_ordinal(text) is a


def test_the_text_lives_exactly_as_long_as_its_ordinal():
    text = "w^(w*7+3)*5+w^9*2+17"
    a = parse_ordinal(text)
    key, alive = a.terms, weakref.ref(a)
    assert a._text is None  # nothing has formatted it yet
    first = format_ordinal(a)
    assert first == text and a._text is first
    with pytest.raises(AttributeError):
        a._text = "w"
    del a
    gc.collect()
    assert alive() is None and key not in ordinals._INTERNED.data
    b = parse_ordinal(text)  # built anew: its text is built anew too
    assert b._text is None
    again = format_ordinal(b)
    assert again == first and again is not first


def test_a_miss_stores_a_keyed_ref_with_the_tables_own_callback():
    a = parse_ordinal("w^(w*8+3)*5+w^9*2+19")
    ref = ordinals._INTERNED.data[a.terms]
    assert type(ref) is weakref.KeyedRef
    assert ref() is a and ref.key is a.terms
    assert ref.__callback__ is ordinals._INTERNED._remove
    assert ordinals._INTERNED[a.terms] is a


def test_cmp_matches_reference_on_criterion_5_walks():
    # The acceptance suite's 1000 seeded walks (criterion 5), each adjacent
    # pair compared both ways.
    rng = random.Random(99)
    for i in range(1000):
        picks = random.Random(1000 + i)
        walk = descent_walk(random_ordinal(rng, 4), lambda a: picks.randint(0, 1), max_len=10**6)
        for x, y in zip(walk, walk[1:]):
            assert ordinals._cmp(x, y) == _reference_cmp(x, y) == 1
            assert ordinals._cmp(y, x) == _reference_cmp(y, x) == -1


def test_library_leaves_the_depth_cache_empty():
    depth.cache_clear()
    descent_walk(parse_ordinal("w^(w^2+1)*2+w"), lambda a: 2)
    hydra_trajectory(parse_hydra("((()()))"))
    assert depth.cache_info().currsize == 0


def test_table_does_not_grow_with_dropped_walks():
    gc.collect()
    before = len(ordinals._INTERNED)
    grew = False
    rng = random.Random(7)
    for i in range(200):
        picks = random.Random(i)
        walk = descent_walk(random_ordinal(rng, 4), lambda a: picks.randint(0, 1))
        grew |= len(ordinals._INTERNED) > before
        del walk
    gc.collect()
    assert grew
    assert len(ordinals._INTERNED) <= before


def _race(work) -> list:
    """Run ``work()`` in six threads at once, switching every microsecond (more
    threads than cores, so they race on the table), and return their results."""
    results: list = [None] * 6
    errors = []

    def run(t: int):
        try:
            results[t] = work()
        except Exception as exc:  # reported below; a thread's failure is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors
    return results


def test_threads_building_the_same_ordinals_get_one_object():
    # All parse the same texts of ordinals that no one holds yet, so they race
    # on table misses.
    rng = random.Random(2026)
    texts = [format_ordinal(random_ordinal(rng, 4)) for _ in range(500)]
    gc.collect()
    results = _race(lambda: [parse_ordinal(text) for text in texts])
    for i, text in enumerate(texts):
        first = results[0][i]
        assert format_ordinal(first) == text
        assert all(r[i] is first for r in results)


def test_threads_formatting_the_same_fresh_ordinals_agree_on_the_text():
    # Built and not yet formatted, so the threads race on each first format.
    rng = random.Random(2027)
    held = [random_ordinal(rng, 4) for _ in range(500)]
    results = _race(lambda: [format_ordinal(a) for a in held])
    for i, a in enumerate(held):
        assert all(r[i] == results[0][i] for r in results)
        assert results[0][i] == _reference_format(a)
        assert format_ordinal(a) is a._text


def _walk_texts(seed: int, count: int) -> list[str]:
    # Texts of depth-4 starts: the ordinals themselves are dropped, so no one
    # holds a start, and few hold its walk, before the threads build them.
    rng = random.Random(seed)
    return [format_ordinal(random_ordinal(rng, 4)) for _ in range(count)]


def _walks(texts: list[str]) -> list[list[Ordinal]]:
    out = []
    for i, text in enumerate(texts):
        picks = random.Random(i)
        out.append(descent_walk(parse_ordinal(text), lambda a: picks.randint(0, 1)))
    return out


def _assert_one_object_per_position(results: list) -> None:
    first = results[0]
    for r in results[1:]:
        assert len(r) == len(first)
        for walk, mine in zip(first, r):
            assert len(mine) == len(walk)
            assert all(x is y for x, y in zip(walk, mine))


def test_threads_walking_the_same_descents_get_one_object_per_position():
    # Descent steps intern through the lock-free hit; six threads walking the
    # same chains race on every miss along them.
    texts = _walk_texts(2027, 40)
    gc.collect()
    results = _race(lambda: _walks(texts))
    _assert_one_object_per_position(results)
    assert [format_ordinal(w[0]) for w in results[0]] == texts
    assert all(w[-1] is ZERO for w in results[0])


def test_threads_meet_dead_entries_and_rebuild_one_live_object():
    # Each round drops the last round's walks and collects them while an
    # iteration over the table is open. The table then defers its removals, so
    # every dropped ordinal stays in it as a dead weakref, and the next round's
    # look-ups meet those entries, which must count as misses.
    texts = _walk_texts(2028, 25)
    results = None
    for _ in range(3):
        pending = iter(ordinals._INTERNED.values())
        next(pending)
        try:
            if results is not None:
                results = None
                gc.collect()
                assert any(ref() is None for ref in list(ordinals._INTERNED.data.values()))
            results = _race(lambda: _walks(texts))
        finally:
            pending.close()
        _assert_one_object_per_position(results)
        for walk in results[0]:
            for x in walk:
                assert ordinals._INTERNED.get(x.terms) is x


# ---------------------------------------------------------------------------
# the unchecked path: keys that pass Ordinal's checks, objects it would give
# ---------------------------------------------------------------------------

_REAL_INTERN = ordinals._intern


def _assert_canonical(key) -> None:
    """Ordinal's checks, restated: a tuple of (Ordinal, int >= 1) tuples whose
    exponents strictly decrease."""
    assert type(key) is tuple
    for term in key:
        assert type(term) is tuple and len(term) == 2
        exp, coeff = term
        assert type(exp) is Ordinal
        assert type(coeff) is int and coeff >= 1
    for (prev, _), (exp, _) in zip(key, key[1:]):
        assert _reference_cmp(prev, exp) == 1


def _spy(key) -> Ordinal:
    _assert_canonical(key)
    return _REAL_INTERN(key)


@contextlib.contextmanager
def _route_intern(route):
    """Send every module-internal ``_intern(key)`` to ``route``; the public
    constructor's own calls, which pass its check, still reach the real one."""
    calls = []

    def patched(key, check=None):
        if check is not None:
            return _REAL_INTERN(key, check)
        calls.append(key)
        return route(key)

    ordinals._intern = patched
    try:
        yield calls
    finally:
        ordinals._intern = _REAL_INTERN


def _same_objects_checked_and_unchecked(run) -> None:
    """``run()`` with the module's results built by the checked public
    constructor, then again through the spy: the second run must hand the
    spy only canonical keys and return the very objects of the first."""
    with _route_intern(Ordinal) as checked_calls:
        checked = run()
    with _route_intern(_spy) as spied_calls:
        spied = run()
    assert checked_calls and spied_calls
    assert len(spied) == len(checked)
    assert all(x is y for x, y in zip(checked, spied))


def test_unchecked_path_on_criterion_5_walks():
    rng = random.Random(99)
    starts = [random_ordinal(rng, 4) for _ in range(300)]

    def run():
        out = []
        for i, start in enumerate(starts):
            picks = random.Random(1000 + i)
            out += descent_walk(start, lambda a: picks.randint(0, 1), max_len=10**6)
        return out

    _same_objects_checked_and_unchecked(run)


def test_unchecked_path_on_golden_lineage_logs(tmp_path):
    def run():
        out = []
        for runs, digest in ((GOLDEN_RUNS, GOLDEN_RUNS_SHA256), (EDGE_RUNS, EDGE_RUNS_SHA256)):
            logs, data = golden_logs(runs, tmp_path)
            assert hashlib.sha256(data).hexdigest() == digest
            out += [ev.child_intelligence for log in logs for ev in log]
        return out

    _same_objects_checked_and_unchecked(run)


@hyp.given(ordinal_exprs, st.integers(0, 2**31))
def test_unchecked_path_on_descents_and_round_trips(a, seed):
    def run():
        picks = random.Random(seed)
        walk = descent_walk(a, lambda b: picks.randint(0, 2), max_len=10**5)
        again = [parse_ordinal(format_ordinal(x)) for x in walk]
        assert all(x is y for x, y in zip(walk, again))
        return walk + again

    _same_objects_checked_and_unchecked(run)


class _Duck:
    # Looks like an ordinal, but its exponents increase: no Ordinal has these terms.
    terms = ((ZERO, 1), (OMEGA, 1))


_NOT_ORDINAL_CALLS = {
    "add_right": lambda x: add(ONE, x),
    "add_left": lambda x: add(x, ONE),
    "mul_right": lambda x: mul(ONE, x),
    "mul_left": lambda x: mul(x, OMEGA),
    "natural_sum_right": lambda x: natural_sum(ONE, x),
    "natural_sum_left": lambda x: natural_sum(x, ONE),
    "omega_pow": omega_pow,
    "predecessor": predecessor,
    "fundamental_sequence": lambda x: fundamental_sequence(x, 1),
    "descend": lambda x: descend(x, lambda a: 1),
    "descent_walk": lambda x: descent_walk(x, lambda a: 1),
}


@pytest.mark.parametrize("bad", [5, _Duck()], ids=["int", "duck"])
@pytest.mark.parametrize("call", _NOT_ORDINAL_CALLS.values(), ids=_NOT_ORDINAL_CALLS.keys())
def test_a_non_ordinal_argument_raises_type_error_and_interns_nothing(call, bad):
    gc.collect()
    before = len(ordinals._INTERNED)
    with pytest.raises(TypeError):
        call(bad)
    assert len(ordinals._INTERNED) == before
