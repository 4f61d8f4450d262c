"""Arithmetic on term tuples: the parser and the descent step build an Ordinal
only for a result and the exponents it holds. Each path is checked against
the plain composition of public operations it replaces, and every error the
parser raises is pinned."""

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from ionkit import ordinals
from ionkit.ordinals import (
    DEPTH_LIMIT,
    NESTING_LIMIT,
    OMEGA,
    ONE,
    ZERO,
    Kind,
    NotALimitError,
    Ordinal,
    OrdinalOverflowError,
    OrdinalParseError,
    add,
    classify,
    depth,
    descend,
    format_ordinal,
    from_int,
    fundamental_sequence,
    mul,
    omega_pow,
    parse_hydra,
    parse_ordinal,
    predecessor,
)
from test_ordinals import _reference_fundamental_sequence, ordinal_exprs

W = OMEGA


# ---------------------------------------------------------------------------
# references: the earlier parser and arithmetic, kept verbatim
# ---------------------------------------------------------------------------

class _ReferenceParser:
    """The earlier ``_OrdParser``, which folds through the public add/mul/omega_pow."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def fail(self, message, at=None):
        raise OrdinalParseError(self.pos if at is None else at, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def sum_expr(self):
        out = self.term()
        while self.peek() == "+":
            self.pos += 1
            out = add(out, self.term())
        return out

    def term(self):
        out = self.power()
        while self.peek() == "*":
            self.pos += 1
            out = mul(out, self.power())
        return out

    def power(self):
        start = self.pos
        base_is_w = self.peek() == "w"
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            if not base_is_w:
                self.fail("exponent base must be w", at=start)
            return omega_pow(self.power())
        return base

    def atom(self):
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            return OMEGA
        if ch == "(":
            self.pos += 1
            inner = self.sum_expr()
            if self.peek() != ")":
                self.fail("')'")
            self.pos += 1
            return inner
        m = ordinals._NAT_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return from_int(int(m.group()))
        self.fail("ordinal atom (natural, 'w', or parenthesized expression)")

    def parse(self):
        out = self.sum_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("end of input")
        return out


def _reference_add(a, b):
    if not b.terms:
        return a
    if not a.terms:
        return b
    eb = b.terms[0][0]
    keep = len(a.terms)
    while keep > 0 and ordinals._cmp(a.terms[keep - 1][0], eb) < 0:
        keep -= 1
    if keep > 0 and a.terms[keep - 1][0] is eb:
        merged = (eb, a.terms[keep - 1][1] + b.terms[0][1])
        return Ordinal(a.terms[: keep - 1] + (merged,) + b.terms[1:])
    return Ordinal(a.terms[:keep] + b.terms)


def _reference_mul(a, b):
    if not a.terms or not b.terms:
        return ZERO
    e0, c0 = a.terms[0]
    out = ZERO
    for eb, cb in b.terms:
        if not eb.terms:
            part = Ordinal(((e0, c0 * cb),) + a.terms[1:])
        else:
            part = Ordinal(((_reference_add(e0, eb), cb),))
        out = _reference_add(out, part)
    return out


def _reference_descend(a, picker):
    """The earlier ``descend``: classify, then predecessor or the reference sequence."""
    kind = classify(a)
    if kind is Kind.SUCCESSOR:
        return predecessor(a), -1
    if kind is Kind.ZERO:
        raise ValueError("0 has no descent step")
    n = picker(a)
    return _reference_fundamental_sequence(a, n), n


def _outcome(parse, text):
    """What parsing ``text`` gives: the ordinal, or the error's type, offset and text."""
    try:
        return parse(text)
    except (OrdinalParseError, OrdinalOverflowError) as exc:
        return type(exc), getattr(exc, "offset", None), str(exc)


# ---------------------------------------------------------------------------
# term arithmetic
# ---------------------------------------------------------------------------

def o(text):
    return parse_ordinal(text)


def test_term_arithmetic_goldens():
    # The add/mul goldens of test_ordinals, on terms.
    for a, b, total in [
        (ONE, W, W), (W, ONE, o("w+1")), (o("w+3"), o("w^2+w"), o("w^2+w")),
        (o("w*2"), o("w*3"), o("w*5")), (ZERO, W, W), (W, ZERO, W),
    ]:
        assert ordinals._add_terms(a.terms, b.terms) == total.terms
    for a, b, product in [
        (W, from_int(2), o("w*2")), (from_int(2), W, W), (o("w+1"), from_int(3), o("w*3+1")),
        (o("w+1"), W, o("w^2")), (o("w^2+1"), o("w+1"), o("w^3+w^2+1")),
        (ZERO, W, ZERO), (W, ZERO, ZERO),
    ]:
        assert ordinals._mul_terms(a.terms, b.terms) == product.terms


@hyp.given(ordinal_exprs, ordinal_exprs)
def test_add_and_mul_match_reference(a, b):
    assert add(a, b) is _reference_add(a, b)
    assert mul(a, b) is _reference_mul(a, b)
    assert ordinals._add_terms(a.terms, b.terms) == _reference_add(a, b).terms
    assert ordinals._mul_terms(a.terms, b.terms) == _reference_mul(a, b).terms


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

_BLANKS = st.sampled_from(["", "", "", " ", "\t", "  "])


def _join(*parts):
    return st.tuples(*parts).map("".join)


# Expression texts, canonical or not: sums such as 1+w, products, powers,
# parentheses, and blanks between tokens.
expression_texts = st.recursive(
    _join(_BLANKS, st.one_of(st.integers(0, 12).map(str), st.just("w")), _BLANKS),
    lambda c: st.one_of(
        _join(c, st.just("+"), c),
        _join(c, st.just("*"), c),
        _join(_BLANKS, st.just("w"), _BLANKS, st.just("^"), c),
        _join(_BLANKS, st.just("("), c, st.just(")"), _BLANKS),
    ),
    max_leaves=10,
)


@hyp.given(expression_texts)
def test_parse_matches_reference_fold(text):
    assert parse_ordinal(text) is _ReferenceParser(text).parse()


@hyp.given(st.text(alphabet="w0129+*^() \t", max_size=16))
def test_parse_outcome_matches_reference_on_any_text(text):
    assert _outcome(parse_ordinal, text) == _outcome(lambda t: _ReferenceParser(t).parse(), text)


def test_parse_matches_reference_on_corpus(corpus200):
    for a in corpus200:
        text = format_ordinal(a)
        assert parse_ordinal(text) is _ReferenceParser(text).parse() is a


_ATOM = "ordinal atom (natural, 'w', or parenthesized expression)"

# Every error of these inputs, as the parser raised it before terms: type,
# offset and message.
BAD_INPUTS = [
    ("", OrdinalParseError, 0, _ATOM),
    (" ", OrdinalParseError, 1, _ATOM),
    ("w^^2", OrdinalParseError, 2, _ATOM),
    ("w+", OrdinalParseError, 2, _ATOM),
    ("(w", OrdinalParseError, 2, "')'"),
    ("2^w", OrdinalParseError, 0, "exponent base must be w"),
    ("w**2", OrdinalParseError, 2, _ATOM),
    ("-1", OrdinalParseError, 0, _ATOM),
    ("w^", OrdinalParseError, 2, _ATOM),
    ("()", OrdinalParseError, 1, _ATOM),
    ("w)", OrdinalParseError, 1, "end of input"),
    ("1 2", OrdinalParseError, 2, "end of input"),
    ("(w+1)^2", OrdinalParseError, 0, "exponent base must be w"),
    ("w^(w+", OrdinalParseError, 5, _ATOM),
    ("w*", OrdinalParseError, 2, _ATOM),
    ("x", OrdinalParseError, 0, _ATOM),
    ("w^w^", OrdinalParseError, 4, _ATOM),
    (" w^ (2 ", OrdinalParseError, 7, "')'"),
    ("3^", OrdinalParseError, 0, "exponent base must be w"),
    ("(2)^w", OrdinalParseError, 0, "exponent base must be w"),
    ("w ^ w ^ ", OrdinalParseError, 8, _ATOM),
    ("1+(w*(w^2+", OrdinalParseError, 10, _ATOM),
    ("w^1.5", OrdinalParseError, 3, "end of input"),
    ("\t(w", OrdinalParseError, 3, "')'"),
    ("w+\t", OrdinalParseError, 3, _ATOM),
    ("w^" * 64 + "1", OrdinalOverflowError, None, "nesting depth exceeds 64"),
    ("w^" * 65 + "1", OrdinalOverflowError, None, "nesting depth exceeds 64"),
    ("w^" * 70 + "1", OrdinalOverflowError, None, "nesting depth exceeds 64"),
    ("w^" * 70 + "1+", OrdinalOverflowError, None, "nesting depth exceeds 64"),
]


@pytest.mark.parametrize("text, error, offset, message", BAD_INPUTS)
def test_parse_errors_are_pinned(text, error, offset, message):
    with pytest.raises(error) as info:
        parse_ordinal(text)
    assert type(info.value) is error
    assert getattr(info.value, "offset", None) == offset
    expected = message if offset is None else f"offset {offset}: {message}"
    assert str(info.value) == expected
    assert _outcome(lambda t: _ReferenceParser(t).parse(), text) == (error, offset, expected)


# ---------------------------------------------------------------------------
# nesting limit
# ---------------------------------------------------------------------------

_NESTING = f"nesting deeper than the limit of {NESTING_LIMIT}"


@pytest.mark.parametrize("text, offset", [
    ("(" * 3000 + "1" + ")" * 3000, NESTING_LIMIT),
    ("w^" * 3000 + "1", 2 * NESTING_LIMIT + 1),  # the '^' past the limit
    ("(" * (NESTING_LIMIT + 1) + "1" + ")" * (NESTING_LIMIT + 1), NESTING_LIMIT),
    ("(w^" * 70 + "1" + ")" * 70, 3 * 64),  # 64 '(' and 64 '^' are open
])
def test_parse_ordinal_refuses_deep_nesting(text, offset):
    with pytest.raises(OrdinalParseError) as info:
        parse_ordinal(text)
    assert info.value.offset == offset
    assert str(info.value) == f"offset {offset}: {_NESTING}"


def test_nesting_up_to_the_limit_parses():
    assert parse_ordinal("(" * NESTING_LIMIT + "w" + ")" * NESTING_LIMIT) is W
    # Half the groups are '(' and half '^': a tower of DEPTH_LIMIT w's.
    k = NESTING_LIMIT // 2
    assert depth(parse_ordinal(" ( w ^" * k + "0" + ")" * k)) == k == DEPTH_LIMIT


def test_deepest_canonical_texts_parse():
    # Each level below DEPTH_LIMIT adds a '^' and a '(' to the canonical text.
    for step in (lambda a: add(omega_pow(a), ONE), lambda a: mul(omega_pow(a), from_int(2))):
        a = o("w*2+1")
        while depth(a) < DEPTH_LIMIT:
            a = step(a)
        assert parse_ordinal(format_ordinal(a)) is a


@pytest.mark.parametrize("text, offset", [
    ("(" * 3000 + ")" * 3000, NESTING_LIMIT),
    ("(" * (NESTING_LIMIT + 1) + ")" * (NESTING_LIMIT + 1), NESTING_LIMIT),
    ("(()" + "(" * NESTING_LIMIT + ")" * NESTING_LIMIT + ")", 3 + NESTING_LIMIT - 1),
])
def test_parse_hydra_refuses_deep_nesting(text, offset):
    with pytest.raises(OrdinalParseError) as info:
        parse_hydra(text)
    assert info.value.offset == offset
    assert str(info.value) == f"offset {offset}: {_NESTING}"


def test_hydra_nesting_up_to_the_limit_parses():
    h = parse_hydra("(" * NESTING_LIMIT + ")" * NESTING_LIMIT)
    for _ in range(NESTING_LIMIT - 1):
        (h,) = h.children
    assert h.children == ()


# ---------------------------------------------------------------------------
# the descent step
# ---------------------------------------------------------------------------

def test_descend_matches_reference_on_corpus(corpus200):
    nonzero = [a for a in corpus200 if a.terms]
    assert len(nonzero) > 150
    for a in nonzero:
        for n in range(6):
            assert descend(a, lambda lam: n) == _reference_descend(a, lambda lam: n), (a, n)


@hyp.given(ordinal_exprs, st.integers(0, 30))
def test_descend_matches_reference(a, n):
    hyp.assume(a.terms)
    assert descend(a, lambda lam: n) == _reference_descend(a, lambda lam: n)


def test_descend_calls_picker_only_at_limits():
    calls = []

    def picker(lam):
        calls.append(lam)
        return 2

    assert descend(o("w+3"), picker) == (o("w+2"), -1)
    assert calls == []
    assert descend(o("w^2"), picker) == (o("w*2"), 2)
    assert calls == [o("w^2")]
    with pytest.raises(ValueError, match="0 has no descent step"):
        descend(ZERO, picker)


@pytest.mark.parametrize("n", [False, True, 0.0, 2.0, 1.5, -1, "1", None])
def test_n_must_be_a_real_int(n):
    with pytest.raises(ValueError, match=r"^n must be an int >= 0$"):
        fundamental_sequence(W, n)
    with pytest.raises(ValueError, match=r"^n must be an int >= 0$"):
        descend(o("w^2"), lambda lam: n)
    # A successor never asks the picker, so its answer is never checked.
    assert descend(o("w+1"), lambda lam: n) == (W, -1)


def test_n_is_checked_before_the_kind():
    with pytest.raises(ValueError, match="n must be an int"):
        fundamental_sequence(ONE, 0.0)
    with pytest.raises(NotALimitError):
        fundamental_sequence(ONE, 0)
