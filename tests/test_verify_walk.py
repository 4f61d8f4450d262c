"""The verifier's walk on an explicit stack gives exactly what the recursive
walk it replaced gave: the same verdict, fuel spent and value bound on the
corpus, the refuting mutants and random programs. ``_reference_explore`` is a
verbatim copy of that recursive walk, kept here as the reference."""

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from ionkit.notation import (
    FuelSpent,
    Inconclusive,
    ProvenMember,
    Refuted,
    Verdict,
    VerificationResult,
    _Acct,
    _check_int,
    _split_fuel,
    source_of,
    value_lower_bound,
    verify,
)
from ionkit.objlang import (
    EvalError,
    Fuel,
    LengthLimitError,
    OpenProgramError,
    ParseError,
    Program,
    TraceStatus,
    evaluate,
    parse,
)
from ionkit.ordinals import ONE, ZERO, Ordinal, add, from_int
from test_notation import self_printing_program
from test_objlang import VERIFY_FUEL_LADDER, programs
from test_skeleton_caches import _mutant


def _reference_explore(
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
            r = _reference_explore(child, child_fuel, level + 1, path + (i,), max_depth, acct)
            if isinstance(r, Refuted):
                return r
            child_proven, child_bound = r
            proven = proven and child_proven
        cand = add(child_bound, ONE)
        if cand > bound:
            bound = cand
    return proven, bound


def _reference_verify(p: Program, fuel: Fuel, max_depth: int) -> VerificationResult:
    _check_int(max_depth, "max_depth", 1)
    acct = _Acct()
    r = _reference_explore(p, fuel, 1, (), max_depth, acct)
    if isinstance(r, Refuted):
        verdict: Verdict = r
    else:
        proven, bound = r
        if proven:
            verdict = ProvenMember(bound)
        else:
            verdict = Inconclusive(acct.outputs, acct.max_level, bound)
    return VerificationResult(verdict, FuelSpent(acct.steps, acct.outputs, acct.evals))


def _reference_value_lower_bound(p: Program, fuel: Fuel, max_depth: int) -> tuple[Ordinal, bool]:
    _check_int(max_depth, "max_depth", 1)
    r = _reference_explore(p, fuel, 1, (), max_depth, _Acct())
    return (ZERO, True) if isinstance(r, Refuted) else (r[1], False)


def _assert_same_walk(p: Program, fuel: Fuel, max_depth: int) -> VerificationResult:
    r = verify(p, fuel, max_depth)
    assert r == _reference_verify(p, fuel, max_depth)
    bound = value_lower_bound(p, fuel, max_depth)
    assert bound == _reference_value_lower_bound(p, fuel, max_depth)
    if isinstance(r.verdict, Inconclusive):
        assert r.verdict.lower_bound == bound[0]
    return r


def test_corpus_at_the_verify_fuel_ladder(corpus200):
    for a in corpus200:
        p = parse(source_of(a))
        for fuel in VERIFY_FUEL_LADDER:
            _assert_same_walk(p, Fuel(*fuel), 4)


def test_refuting_mutants(corpus200):
    for k, a in enumerate(corpus200):
        r = _assert_same_walk(_mutant(a, k), Fuel(20000, 8), 3)
        assert isinstance(r.verdict, Refuted), (a, k)


@hyp.given(programs, st.integers(1, 600), st.integers(1, 8), st.integers(1, 4))
def test_random_programs(p, max_steps, max_outputs, max_depth):
    _assert_same_walk(p, Fuel(max_steps, max_outputs), max_depth)


@pytest.mark.parametrize("max_depth", [1, 2, 200])
def test_self_printing_program(max_depth):
    # deep enough to show the order and the accounts, well inside the stack
    r = _assert_same_walk(self_printing_program(), Fuel(10**6, 16), max_depth)
    assert r.verdict == Inconclusive(max_depth, max_depth, from_int(max_depth))
