"""Ordinals are hash-consed: equal ordinals alive at once are one object, the
intern table holds only live ordinals, and the identity-based comparison and
stored depth agree with the structural definitions they replace."""

import copy
import gc
import pickle
import random
import sys
import threading

import hypothesis as hyp
import pytest

from conftest import random_ordinal
from ionkit import ordinals
from ionkit.ordinals import (
    Comparison,
    compare,
    depth,
    descent_walk,
    format_ordinal,
    hydra_trajectory,
    parse_hydra,
    parse_ordinal,
)
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
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) is a
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a


def test_ordinals_are_immutable():
    a = parse_ordinal("w^2+1")
    with pytest.raises(AttributeError):
        a.terms = ()
    with pytest.raises(AttributeError):
        del a.terms
    assert format_ordinal(a) == "w^2+1"


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


def test_threads_building_the_same_ordinals_get_one_object():
    # More threads than cores, switching often, all parsing the same texts of
    # ordinals that no one holds yet, so they race on table misses.
    rng = random.Random(2026)
    texts = [format_ordinal(random_ordinal(rng, 4)) for _ in range(500)]
    gc.collect()
    results: list[list] = [[] for _ in range(6)]
    errors = []

    def work(t: int):
        try:
            results[t].extend(parse_ordinal(text) for text in texts)
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
    for i, text in enumerate(texts):
        first = results[0][i]
        assert format_ordinal(first) == text
        assert all(r[i] is first for r in results)
