"""The two registered skeletons run as generated Python functions. Every
outcome equals that of the closure tree built for the same statements, with
the fused loops on in both paths, so a fault in the generated code is not
hidden behind the fused loops (test_objlang's _fast_and_plain switches both
off at once)."""

import hashlib
import os
import subprocess
import sys
from collections import Counter

import pytest

import ionkit
from ionkit import objlang
from ionkit.notation import _A0_WHILE, _DRIVER_TAIL, compile_ordinal
from ionkit.objlang import (
    Assign,
    EvalError,
    Fuel,
    LengthLimitError,
    Literal,
    Program,
    TraceStatus,
    evaluate,
)
from ionkit.ordinals import parse_ordinal
from test_objlang import _outcome

# w^w and w^(w^w) run the driver, whose loop descends into a limit exponent
# (once and twice) before the first output; w*2 runs the A0 loop.
TEXTS = ["w^w", "w*2", "w^(w^w)"]


def _generated_and_closures(p: Program, fuels: list[Fuel]):
    """The outcomes of ``p`` at each fuel: run by the generated function, then by closures."""
    (skeleton,) = objlang._SKELETON_FNS[tuple(map(id, p.statements[1:]))][1]
    assert objlang._compile_program(p.statements)[1:] == (skeleton,)
    generated = [_outcome(p, fuel) for fuel in fuels]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(objlang, "_SKELETON_FNS", {})
        # Closures are reusable across runs: build them once, not once per fuel.
        closures = objlang._compile_program(p.statements)
        assert len(closures) == len(p.statements)
        m.setattr(objlang, "_compile_program", lambda stmts: closures)
        plain = [_outcome(p, fuel) for fuel in fuels]
    return generated, plain


def _assert_same(p: Program, fuels: list[Fuel]):
    generated, plain = _generated_and_closures(p, fuels)
    for fuel, g, c in zip(fuels, generated, plain):
        assert g == c, fuel
    return generated


@pytest.mark.parametrize("text", TEXTS)
def test_every_step_budget_up_to_the_first_output(text):
    p = compile_ordinal(parse_ordinal(text))
    first = evaluate(p, Fuel(10**7, 1))
    assert len(first.outputs) == 1
    # up to the step at which the blocked second Print stops the run
    runs = _assert_same(p, [Fuel(k, 1) for k in range(1, first.steps_used + 1)])
    assert runs[0].outputs == () and runs[-1] == first


@pytest.mark.parametrize("text", TEXTS)
def test_each_output_budget(text):
    p = compile_ordinal(parse_ordinal(text))
    for max_outputs in range(1, 6):
        full = evaluate(p, Fuel(10**7, max_outputs))
        assert len(full.outputs) == max_outputs
        # the step of the last output, one either side, and the blocked Print
        s = full.steps_used
        _assert_same(p, [Fuel(k, max_outputs) for k in (s - 1, s, s + 1, 10**7)])


def _driver(enc: str) -> Program:
    return Program((Assign("C", Literal(enc)),) + _DRIVER_TAIL)


# Encodings that make the driver fail. The paren scan runs out of text on
# '((', '(' and '(()I', and its accumulator or the unary scan's passes a
# lowered length limit; the escape loop of L passes it too. The comma scan
# cannot fail here: the stack always ends in a comma. '()' and '' fail
# outside the scans, on a Tail of the empty string.
@pytest.mark.parametrize(
    "enc, limit, error",
    [
        ("((", None, EvalError),
        ("(" + "()I" * 30 + ")I", 40, LengthLimitError),
        ("()" + "I" * 40, 16, LengthLimitError),
        ("((()I)I)I", 1000, LengthLimitError),
        ("()", None, EvalError),
        ("", None, EvalError),
        ("(", None, EvalError),
        ("(()I", None, EvalError),
    ],
    ids=["paren_walk_runs_out", "paren_acc_too_long", "unary_acc_too_long",
         "escape_dst_too_long", "tail_of_empty_coefficient", "empty", "open", "unclosed_exponent"],
)
def test_crafted_encodings_fail_alike_where_they_fail(enc, limit, error, monkeypatch):
    if limit is not None:
        monkeypatch.setattr(objlang, "_MAX_VALUE_LEN", limit)
    p = _driver(enc)
    full = _outcome(p, Fuel(10**6, 3))
    assert full[0] is error, full
    # k, the first step budget at which the run fails rather than stops on
    # fuel; about 200 budgets below it, and the last few around it
    lo, hi = 0, 10**6
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if isinstance(_outcome(p, Fuel(mid, 3)), objlang.Trace) else (lo, mid)
    k = hi
    budgets = sorted(set(range(1, k, max(1, k // 200))) | set(range(max(1, k - 3), k + 3)))
    runs = _assert_same(p, [Fuel(j, 3) for j in budgets] + [Fuel(10**6, 3)])
    if k > 1:
        assert runs[budgets.index(k - 1)].status is TraceStatus.FUEL_EXHAUSTED
    assert runs[budgets.index(k)] == runs[-1] == full


def _sources_digest() -> str:
    digest = hashlib.sha256()
    for stmts in ((_A0_WHILE,), _DRIVER_TAIL):
        source, consts = objlang._skeleton_source(stmts)
        digest.update(source.encode() + b"\0")
        digest.update(repr([v for v in consts.values() if type(v) is str]).encode() + b"\0")
    return digest.hexdigest()


def test_generated_source_does_not_depend_on_the_hash_seed():
    code = "import test_skeleton_functions as t; print(t._sources_digest())"
    path = os.pathsep.join([os.path.dirname(ionkit.__path__[0]), os.path.dirname(__file__)])
    seen = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    }
    assert seen == {_sources_digest() + "\n"}
    # Computed before the skeletons were parsed from text rather than built
    # as ASTs; the same on CPython 3.10 to 3.13.
    assert _sources_digest() == "ef26d96e14b6da53fc7b5f78ecb8762af7a0b70bba498393295999d86bd16ea7"


# The fused loops each generated function binds. A loop left unfused gives
# the same outcomes, many times slower, so only these counts catch it.
FUSED_LOOPS = [
    Counter(do_escape=1),
    Counter(do_paren_scan=3, do_unary_scan=3, do_escape=3, do_comma_scan=1),
]


def test_only_literals_and_fused_loops_are_bound_by_name():
    for stmts, fused in zip(((_A0_WHILE,), _DRIVER_TAIL), FUSED_LOOPS):
        source, consts = objlang._skeleton_source(stmts)
        assert all(type(v) is str or v.__name__.startswith("do_") for v in consts.values())
        assert Counter(v.__name__ for v in consts.values() if type(v) is not str) == fused
        # no literal value is spelled into the source, nor the length limit
        assert "'" not in source.replace("env['", "").replace("']", "")
        assert "_MAX_VALUE_LEN" not in source and str(objlang._MAX_VALUE_LEN) not in source
