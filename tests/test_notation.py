import hashlib
import random
import time
import tracemalloc

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from conftest import random_ordinal
from test_objlang import _head_5000, _not_3000, doubling_program
from ionkit import notation, objlang
from ionkit.objlang import (
    Assign,
    Fuel,
    Head,
    LimitError,
    Literal,
    ParseError,
    Print,
    Program,
    Var,
    concat,
    escape_loop,
    evaluate,
    parse,
    serialize,
)
from ionkit.notation import (
    Inconclusive,
    ProvenMember,
    Refuted,
    SourceTooLargeError,
    certificate_text,
    compile_ordinal,
    decompile,
    parse_certificate,
    source_of,
    source_size,
    succ_notation,
    value_lower_bound,
    verify,
)
from ionkit.ordinals import (
    NESTING_LIMIT,
    OMEGA,
    ONE,
    ZERO,
    Kind,
    Ordinal,
    add,
    classify,
    from_int,
    fundamental_sequence,
    parse_ordinal,
    predecessor,
)


def o(text):
    return parse_ordinal(text)


AMPLE = Fuel(10**6, 16)


# ---------------------------------------------------------------------------
# compilation goldens
# ---------------------------------------------------------------------------

def test_compile_finite_chain():
    assert source_of(ZERO) == "End"
    assert source_of(ONE) == "Print('End');End"
    assert source_of(from_int(2)) == "Print('Print(\\'End\\');End');End"


def test_compile_omega_first_outputs():
    t = evaluate(compile_ordinal(o("w")), Fuel(10**5, 5))
    assert t.outputs == tuple(source_of(from_int(n)) for n in range(5))


def test_compile_omega_plus_one_is_print_of_omega():
    p = compile_ordinal(o("w+1"))
    assert p == Program((Print(Literal(source_of(o("w")))),))
    assert p == succ_notation(compile_ordinal(o("w")))


def test_succ_notation_goldens():
    assert serialize(succ_notation(parse("End"))) == "Print('End');End"
    assert succ_notation(succ_notation(parse("End"))) == compile_ordinal(from_int(2))


def test_compile_is_cached_and_pure():
    assert compile_ordinal(o("w^2")) is compile_ordinal(o("w^2"))


@pytest.mark.parametrize("expr", ["w", "w*2", "w^2", "w^w", "w^(w+1)", "w^2*3+w"])
def test_compositional_contract_samples(expr):
    lam = o(expr)
    t = evaluate(compile_ordinal(lam), Fuel(10**6, 4))
    assert len(t.outputs) == 4
    for n, out in enumerate(t.outputs):
        assert out == source_of(fundamental_sequence(lam, n)), (expr, n)


def test_successor_of_limit_prints_limit_source():
    for expr in ["w^w+1", "w^2+2"]:
        a = o(expr)
        t = evaluate(compile_ordinal(a), AMPLE)
        assert t.outputs == (source_of(predecessor(a)),)


# The compositional tests compare compiled programs with each other, so a
# changed skeleton passes them all; these digests pin the bytes themselves.
GOLDEN_SOURCES = {
    "w": "edbafd5aeef2964538fcead1d952321d40d646fe6a840ddff8f15fec13502d1e",
    "w*3+2": "b6651a1060dcbac346127e3d6ed7eb133224afe63aafd0dc04daaa69dd341434",
    "w^2": "a9b60e6c4fb22ef07a894abf51105562863adee5ecc19afa206dc5aea2978892",
    "w^w": "855b0cf7ef75d8796e993f99b022e7d40e2aeb754355f67b23484e2d888533eb",
    "w^(w+1)*2+w": "592d89b09110aad70796f1d8f0aabb97850f8f7767c58f434ed4223ef85bf5bf",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_skeleton_sources():
    assert _sha(notation._A0_REST) == (
        "d3fbf3060f8ccb6e8b2c6691e7d32ee006cf2c57508fddf2433fe48d11e8bc74"
    )
    assert _sha(notation._DRIVER_CODE_TEXT) == (
        "c4ac0a5fa5fda1335e579c1ae72fa6ceea717f59db36b01f707e1c5fc4c05e64"
    )


@pytest.mark.parametrize("expr", sorted(GOLDEN_SOURCES))
def test_golden_compiled_sources(expr):
    assert _sha(source_of(o(expr))) == GOLDEN_SOURCES[expr]


def test_source_of_is_the_serialized_program(corpus200):
    # source_of is the memoized text of compile_ordinal's program, member by member
    members = [fundamental_sequence(a, n) for a in corpus200 if classify(a) is Kind.LIMIT
               for n in range(3)]
    for a in corpus200 + members:
        assert source_of(a) == serialize(compile_ordinal(a)), a


# ---------------------------------------------------------------------------
# source size without the source
# ---------------------------------------------------------------------------

@hyp.given(st.integers(0, 2**31))
def test_source_size_is_the_source_length(seed):
    a = random_ordinal(random.Random(seed), 3)
    coeff = dict(a.terms)
    hyp.assume(coeff.get(ONE, 0) + coeff.get(ZERO, 0) <= 4)  # small sources only
    size = len(source_of(a))
    assert source_size(a) == size
    # with a limit below the size, counting stops above the limit
    assert source_size(a, size) == size
    if size > 3:
        assert size // 2 < source_size(a, size // 2) <= size


def test_source_size_goldens():
    assert source_size(ZERO) == 3 and source_size(from_int(2)) == 31
    assert source_size(o("w*17")) == len(source_of(o("w*17"))) == 4459069
    assert source_size(o("w*30")) == 36507226665  # too large to build here
    # about 2x per wrap: counting stops at the first wrap past 64 MiB
    assert source_size(o("w*30"), 2**26) == source_size(o("w*21")) == 71306413


def test_source_size_builds_no_text():
    a = o("w^2*1000000000")  # its source would be about 1 GB
    tracemalloc.start()
    try:
        size = source_size(a, 2**26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 1000005002
    assert peak < 2**20


@pytest.mark.parametrize("build", [source_of, compile_ordinal], ids=["source_of", "compile_ordinal"])
def test_a_source_past_the_string_limit_is_refused_before_it_is_built(build):
    a = o("w*21")  # 71,306,413 bytes, the smallest w*c past 64 MiB
    entries = (source_of.cache_info().currsize, compile_ordinal.cache_info().currsize)
    start = time.perf_counter()
    with pytest.raises(SourceTooLargeError) as exc:
        build(a)
    assert time.perf_counter() - start < 0.1
    assert (exc.value.size, exc.value.limit) == (71306413, 2**26)
    assert isinstance(exc.value, LimitError)
    assert str(exc.value) == "the source of w*21 would be at least 71306413 bytes, over the limit of 67108864"
    # nothing was cached, not even the sources of the ordinals below
    assert (source_of.cache_info().currsize, compile_ordinal.cache_info().currsize) == entries


# ---------------------------------------------------------------------------
# decompile
# ---------------------------------------------------------------------------

def test_decompile_goldens():
    assert decompile(parse("End")) == ZERO
    assert decompile(compile_ordinal(o("w^2+3"))) == o("w^2+3")
    assert decompile(parse("X='a';Print(X);End")) is None


def test_decompile_rejects_near_misses():
    # a print of something that is not a notation source
    assert decompile(parse("Print('nonsense');End")) is None
    # tampering with the generator's data literal must not decode
    src = source_of(o("w^2"))
    assert decompile(parse(src)) == o("w^2")
    broken = parse(src.replace("C='", "C='x", 1))
    assert decompile(broken) is None
    # a print of a program nested too deep to parse
    deep = "Print(" + "Head(" * 3000 + "''" + ")" * 3000 + ");End"
    assert decompile(Program((Print(Literal(deep)),))) is None


@hyp.given(st.integers(0, 2**31))
def test_decompile_compile_roundtrip(seed):
    a = random_ordinal(random.Random(seed), 2)
    assert decompile(compile_ordinal(a)) == a


# The earlier recursive decompiler, kept verbatim as the reference.
def _reference_decode(s):
    terms_small_first = []
    pos = 0
    n = len(s)
    while pos < n:
        if s[pos] != "(":
            raise ValueError(f"expected '(' at {pos}")
        depth = 1
        j = pos + 1
        while depth > 0:
            if j >= n:
                raise ValueError("unbalanced parentheses")
            if s[j] == "(":
                depth += 1
            elif s[j] == ")":
                depth -= 1
            j += 1
        exp = _reference_decode(s[pos + 1 : j - 1])
        k = j
        while k < n and s[k] == "I":
            k += 1
        if k == j:
            raise ValueError(f"missing coefficient at {j}")
        terms_small_first.append((exp, k - j))
        pos = k
    try:
        return Ordinal(tuple(reversed(terms_small_first)))
    except ValueError as exc:
        raise ValueError(f"not a canonical encoding: {exc}") from exc


@pytest.mark.parametrize("groups", [NESTING_LIMIT, NESTING_LIMIT + 1, 3000])
def test_decompile_stops_at_the_nesting_limit(groups):
    # A tower of ``groups`` omegas; past NESTING_LIMIT it is refused, not
    # read until the interpreter's recursion limit.
    enc = "(" * groups + ")I" * groups
    p = parse(f"C='{enc}';{notation._DRIVER_TAIL_TEXT}")
    if groups <= NESTING_LIMIT:
        assert decompile(p) is _reference_decode(enc)
    else:
        assert decompile(p) is None


def _reference_candidate(p):
    ss = p.statements
    if not ss:
        return ZERO
    if (
        len(ss) == len(notation._DRIVER_STMTS) + 2
        and isinstance(ss[0], Assign)
        and ss[0].name == "C"
        and isinstance(ss[0].expr, Literal)
        and ss[1] == Assign("L", Literal(notation._DRIVER_CODE_TEXT))
        and ss[2:] == notation._DRIVER_STMTS
    ):
        try:
            return _reference_decode(ss[0].expr.text)
        except ValueError:
            return None
    # Print('<source of a>') is a+1, and X='<source of a>' then the A0 loop is a+w.
    if len(ss) == 1 and isinstance(ss[0], Print) and isinstance(ss[0].expr, Literal):
        text, step = ss[0].expr.text, ONE
    elif (
        len(ss) == 2
        and isinstance(ss[0], Assign)
        and ss[0].name == "X"
        and isinstance(ss[0].expr, Literal)
        and ss[1] == notation._A0_WHILE
    ):
        text, step = ss[0].expr.text, OMEGA
    else:
        return None
    try:
        inner = parse(text)
    except ParseError:
        return None
    base = _reference_candidate(inner)
    return None if base is None else add(base, step)


def _reference_decompile(p):
    a = _reference_candidate(p)
    if a is None:
        return None
    return a if compile_ordinal(a) == p else None


def _point_mutants(src, rng, count):
    """Up to ``count`` programs that differ from ``src`` by one inserted,
    deleted or replaced character; half of the edits fall in the first 80
    characters, where the wraps and the driver's ``C`` literal start. (``End``
    has no such mutant.)"""
    mutants = []
    for _ in range(200):
        span = len(src) if len(mutants) % 2 else min(len(src), 80)
        i, ch = rng.randrange(span), rng.choice("()I'\\;=CXEnd")
        edits = [src[:i] + ch + src[i:], src[:i] + src[i + 1 :], src[:i] + ch + src[i + 1 :]]
        text = rng.choice(edits)
        try:
            if text != src:
                mutants.append(parse(text))
        except ParseError:
            pass
        if len(mutants) == count:
            break
    return mutants


def _truncated(p, rng):
    """``p`` with the text of its first literal cut short at a random point."""
    if not p.statements:
        return p
    first = p.statements[0]
    text = first.expr.text[: rng.randrange(len(first.expr.text))]
    cut = Print(Literal(text)) if isinstance(first, Print) else Assign(first.name, Literal(text))
    return Program((cut,) + p.statements[1:])


def test_decompile_matches_reference(corpus200):
    rng = random.Random(20260825)
    src = source_of(o("w^2"))
    programs = [
        parse("End"),
        parse("X='a';Print(X);End"),
        parse("Print('nonsense');End"),
        parse(src),
        parse(src.replace("C='", "C='x", 1)),
    ]
    # drivers around small encodings that the compiler never puts in a driver
    for enc in ["", "()III", "(()I)I", "(()I)II", "()I(()I)I"]:
        programs += [notation._driver_program(enc), succ_notation(notation._driver_program(enc))]
    # corpus200 holds no ordinal with both an w-term and a finite term, so
    # these add sources that nest both wraps
    mixed = [o(t) for t in ["w+1", "w*3+2", "w^2+w*2+3", "w^w+w+1", "w^(w+1)*2+w*2+2"]]
    for a in corpus200 + mixed:
        p = compile_ordinal(a)
        programs += [p, _truncated(p, rng)] + _point_mutants(source_of(a), rng, 4)
    assert len(programs) >= 1000, len(programs)
    found = 0
    for p in programs:
        expected = _reference_decompile(p)
        assert decompile(p) == expected, serialize(p)[:200]
        found += expected is not None
    assert found >= len(corpus200)


@pytest.mark.parametrize(
    "enc, printed",
    [("()" + "I" * 40, False), ("(()I)" + "I" * 40, False), ("", False), ("()" + "I" * 40, True)],
    ids=["finite", "w_times_40", "zero", "printed_finite"],
)
def test_decompile_refuses_non_driver_encodings(enc, printed, monkeypatch):
    # These encode 40, w*40 and 0, which compile to wraps, not drivers: the
    # sources of 40 and 41 would be terabytes, so nothing may be compiled.
    p = notation._driver_program(enc)
    if printed:
        p = succ_notation(p)

    def no_compile(a):
        raise AssertionError(f"compile_ordinal({a}) called")

    monkeypatch.setattr(notation, "compile_ordinal", no_compile)
    start = time.perf_counter()
    assert decompile(p) is None
    assert time.perf_counter() - start < 0.05


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_empty_program_is_member():
    r = verify(parse("End"), AMPLE, 1)
    assert r.verdict == ProvenMember(exact_value=ZERO)


def test_verify_finite_chain_exact_values():
    r = verify(compile_ordinal(from_int(3)), AMPLE, 8)
    assert r.verdict == ProvenMember(exact_value=from_int(3))


def test_verify_refutes_garbage_output():
    r = verify(parse("Print('garbage(');End"), AMPLE, 2)
    assert isinstance(r.verdict, Refuted)
    assert r.verdict.path == (0,)


def test_verify_refutes_runtime_error():
    r = verify(parse("Print(Head(''));End"), AMPLE, 2)
    assert isinstance(r.verdict, Refuted)
    assert r.verdict.path == ()


@pytest.mark.parametrize(
    "src, path",
    [("Print(X);End", ()), ("Print('Print(X);End');End", (0,))],
    ids=["root", "child"],
)
def test_verify_refutes_open_program(src, path):
    # an open program is never a notation, whatever the fuel
    reason = "runtime error: variable 'X' may be read before assignment in Print"
    for fuel in (Fuel(1, 1), AMPLE):
        r = verify(parse(src), fuel, 3)
        assert r.verdict == Refuted(path, reason), fuel
        assert value_lower_bound(parse(src), fuel, 3) == (ZERO, True)


def test_verify_refutation_path_is_positional():
    # second output breaks; path must name index 1
    good = source_of(ZERO)
    p = parse(f"Print('{good}');Print('oops(');End")
    r = verify(p, AMPLE, 3)
    assert isinstance(r.verdict, Refuted)
    assert r.verdict.path == (1,)


def test_verify_nested_refutation_path():
    # outer program prints an inner program whose own output 0 is garbage
    inner = "Print('@@@');End"
    outer = serialize(Program((Print(Literal(inner)),)))
    r = verify(parse(outer), AMPLE, 4)
    assert isinstance(r.verdict, Refuted)
    assert r.verdict.path == (0, 0)


def test_verify_omega_inconclusive_with_proven_children():
    p = compile_ordinal(o("w"))
    r = verify(p, Fuel(10**6, 10), 12)
    assert isinstance(r.verdict, Inconclusive)
    assert r.verdict.outputs_checked == 55  # 10 direct + 45 nested
    assert r.fuel_spent.evaluations == 56
    # each emitted child is itself fully provable
    t = evaluate(p, Fuel(10**6, 10))
    for out in t.outputs:
        child = verify(parse(out), AMPLE, 12)
        assert isinstance(child.verdict, ProvenMember)


def test_verify_depth_limit_forces_inconclusive():
    r = verify(compile_ordinal(from_int(3)), AMPLE, 2)
    assert isinstance(r.verdict, Inconclusive)


def test_verify_never_refutes_compiled_spot_checks():
    for expr in ["0", "4", "w", "w+2", "w*3", "w^2", "w^w+w"]:
        p = compile_ordinal(o(expr))
        for fuel in (Fuel(500, 2), Fuel(5000, 4), Fuel(10**5, 8)):
            r = verify(p, fuel, 6)
            assert not isinstance(r.verdict, Refuted), (expr, fuel)


# ---------------------------------------------------------------------------
# value lower bounds
# ---------------------------------------------------------------------------

def test_value_goldens():
    assert value_lower_bound(parse("End"), AMPLE, 8) == (ZERO, False)
    assert value_lower_bound(compile_ordinal(o("w")), Fuel(10**6, 5), 8) == (from_int(5), False)
    assert value_lower_bound(compile_ordinal(from_int(3)), AMPLE, 8) == (from_int(3), False)


def test_value_refuted_flag():
    bound, refuted = value_lower_bound(parse("Print('###');End"), AMPLE, 4)
    assert bound == ZERO
    assert refuted is True


def test_value_agreement_with_convention():
    # frozen from the documented child-budget split (each child re-receives
    # the full output budget divided by sibling count)
    cases = [
        ("w+1", 6, "7"), ("w+1", 3, "4"),
        ("w*2", 6, "7"), ("w*2", 12, "8"),
        ("w^2", 4, "4"),
    ]
    for expr, mo, expect in cases:
        bound, refuted = value_lower_bound(compile_ordinal(o(expr)), Fuel(10**6, mo), 8)
        assert not refuted
        assert bound == o(expect), (expr, mo)


def test_value_monotone_in_fuel():
    p = compile_ordinal(o("w*2"))
    bounds = [
        value_lower_bound(p, Fuel(10**6, mo), 8)[0] for mo in (1, 2, 4, 8, 16)
    ]
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))
    deep = value_lower_bound(p, Fuel(10**6, 4), 12)[0]
    assert deep >= bounds[2]


def test_value_never_exceeds_true_value():
    for expr in ["2", "5", "w", "w+3", "w*2", "w^2"]:
        a = o(expr)
        bound, _ = value_lower_bound(compile_ordinal(a), Fuel(10**5, 6), 8)
        assert bound <= a, expr


# ---------------------------------------------------------------------------
# verify and value_lower_bound walk one tree
# ---------------------------------------------------------------------------

def test_verify_and_value_lower_bound_agree(corpus200):
    # the programs and fuels of acceptance criterion 4, mutants included
    cases = [
        (compile_ordinal(a), fuel, 4, a)
        for a in corpus200
        for fuel in (Fuel(800, 2), Fuel(3000, 3), Fuel(12000, 5))
    ]
    for i, a in enumerate(corpus200[:20]):
        prefix = evaluate(compile_ordinal(a), Fuel(10**7, i % 3)).outputs if i % 3 else ()
        stmts = tuple(Print(Literal(s)) for s in prefix)
        mutant = Program(stmts + (Print(Literal("### not a program ###")),))
        cases.append((mutant, Fuel(10**5, 8), 3, a))
    for p, fuel, max_depth, a in cases:
        verdict = verify(p, fuel, max_depth).verdict
        bound, refuted = value_lower_bound(p, fuel, max_depth)
        assert refuted == isinstance(verdict, Refuted), (serialize(p)[:80], fuel)
        if isinstance(verdict, ProvenMember):
            assert bound == verdict.exact_value, (serialize(p)[:80], fuel)
        assert bound <= a, (serialize(p)[:80], fuel)


# An output nested past the object language's nesting limit stops the parser
# with a NestingLimitError, so it is unexplored, never a counterexample.
DEEP_HEAD = "Print(" + "Head(" * 2000 + "'a'" + ")" * 2000 + ");End"


@pytest.mark.parametrize("text", [DEEP_HEAD], ids=["deep_head"])
def test_output_too_deep_for_the_stack_is_inconclusive(text):
    p = Program((Print(Literal(text)),))
    r = verify(p, AMPLE, 4)
    assert isinstance(r.verdict, Inconclusive)
    assert r.fuel_spent.outputs == 1
    assert value_lower_bound(p, AMPLE, 4) == (ONE, False)


@pytest.mark.parametrize("build", [_head_5000, _not_3000], ids=["head_5000", "not_3000"])
def test_program_past_the_nesting_limit_is_inconclusive(build):
    p = build()
    r = verify(p, AMPLE, 4)
    assert r.verdict == Inconclusive(0, 1, ZERO), r
    assert value_lower_bound(p, AMPLE, 4) == (ZERO, False)


def self_printing_program() -> Program:
    """``X='<rest>';<rest>``, where <rest> escapes X and prints the whole program."""
    rest = (
        Assign("E", Literal("")),
        Assign("R", Var("X")),
        escape_loop("R", "H", "E"),
        Print(concat(Literal("X='"), Var("E"), Literal("';"), Var("X"))),
    )
    return Program((Assign("X", Literal(serialize(Program(rest)))),) + rest)


def test_the_walk_goes_as_deep_as_max_depth():
    # Each node prints the program itself, so only max_depth stops the walk;
    # a walk on the interpreter's stack stopped near its 1000-frame limit.
    p = self_printing_program()
    tr = evaluate(p, AMPLE)
    assert tr.outputs == (serialize(p),) and tr.steps_used == 957
    r = verify(p, AMPLE, 3000)
    assert r.verdict == Inconclusive(
        outputs_checked=3000, depth_reached=3000, lower_bound=from_int(3000)
    )
    assert r.fuel_spent == notation.FuelSpent(957 * 3000, 3000, 3000)


def test_a_key_error_inside_a_run_is_not_a_refutation(monkeypatch):
    # A KeyError in a run is a fault of the evaluator, not of the program:
    # it propagates rather than becoming a runtime error and a Refuted verdict.
    def broken_head(v):
        raise KeyError("X")

    monkeypatch.setattr(objlang, "_head", broken_head)
    p = Program((Print(Head(Literal("End"))),))
    with pytest.raises(KeyError):
        verify(p, AMPLE, 4)
    with pytest.raises(KeyError):
        value_lower_bound(p, AMPLE, 4)


def test_output_past_the_length_limit_is_inconclusive():
    # The run stops on the evaluator's length limit: too big, not faulty.
    top = parse(doubling_program(40))
    printed = succ_notation(top)
    start = time.perf_counter()
    for p, bound in ((top, ZERO), (printed, ONE)):
        r = verify(p, AMPLE, 4)
        assert isinstance(r.verdict, Inconclusive), r
        assert value_lower_bound(p, AMPLE, 4) == (bound, False)
    assert time.perf_counter() - start < 1


def test_output_with_a_long_concat_chain_is_explored():
    # A flat `+` chain is no nesting: its 3000 parts evaluate to 'End'.
    chain = "Print(" + "+".join(["'End'"] + ["''"] * 2999) + ");End"
    p = Program((Print(Literal(chain)),))
    assert verify(p, AMPLE, 4).verdict == ProvenMember(from_int(2))
    assert value_lower_bound(p, AMPLE, 4) == (from_int(2), False)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_format():
    src = source_of(o("w"))
    text = certificate_text(o("w"), src)
    lines = text.splitlines()
    assert lines[0] == "ordinal: w"
    assert lines[1] == f"sha256: {hashlib.sha256(src.encode()).hexdigest()}"
    assert text.endswith("\n")


def test_certificate_roundtrip():
    src = source_of(o("w^2+1"))
    surface, digest = parse_certificate(certificate_text(o("w^2+1"), src))
    assert surface == "w^2+1"
    assert digest == hashlib.sha256(src.encode()).hexdigest()


@pytest.mark.parametrize("max_depth", [0, 2.5, True], ids=["zero", "float", "bool"])
def test_verify_and_value_refuse_a_max_depth_that_is_not_a_positive_int(max_depth):
    p = compile_ordinal(o("w^w"))
    with pytest.raises(ValueError, match="max_depth must be an int >= 1"):
        verify(p, Fuel(3000, 3), max_depth)
    with pytest.raises(ValueError, match="max_depth must be an int >= 1"):
        value_lower_bound(p, Fuel(3000, 3), max_depth)


def test_certificate_rejects_malformed():
    for bad in ("", "ordinal: w", "sha256: ff\nordinal: w\n", "ordinal w\nsha256: ff\n"):
        with pytest.raises(ValueError):
            parse_certificate(bad)
