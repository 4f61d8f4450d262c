"""Cantor normal form ordinal arithmetic below epsilon_0.

An :class:`Ordinal` is a strictly decreasing sum of omega-powers with positive
integer coefficients, stored as a tuple of (exponent, coefficient) pairs. The
module provides the usual non-commutative arithmetic, the natural (Hessenberg)
sum, classification into zero/successor/limit, fixed fundamental sequences for
limits, well-founded descent walks, and the hydra tree game whose termination
those walks certify.

Surface syntax (shared with the CLI): ``0``, naturals, ``w``, ``+``, ``*``,
``^``, parentheses; for example ``w^(w+1)*3+w*2+5``. Exponentiation is only
accepted with base ``w``.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, NoReturn

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "from_int",
    "Comparison",
    "compare",
    "add",
    "mul",
    "omega_pow",
    "natural_sum",
    "depth",
    "DEPTH_LIMIT",
    "OrdinalError",
    "OrdinalOverflowError",
    "OrdinalParseError",
    "NotALimitError",
    "MaxLenExceededError",
    "Kind",
    "classify",
    "predecessor",
    "fundamental_sequence",
    "descend",
    "descent_walk",
    "format_ordinal",
    "parse_ordinal",
    "HydraTree",
    "DeadHydraError",
    "hydra_to_ordinal",
    "hydra_step",
    "hydra_trajectory",
    "parse_hydra",
]


class OrdinalError(Exception):
    """Base class for ordinal failures."""


class OrdinalOverflowError(OrdinalError):
    """Construction would exceed the nesting depth limit."""


class OrdinalParseError(OrdinalError):
    """Surface-syntax text is not a valid ordinal expression."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"offset {offset}: {message}")


class NotALimitError(OrdinalError):
    """A fundamental sequence was requested for zero or a successor."""


class MaxLenExceededError(OrdinalError):
    """A descent walk hit the caller's length cap before reaching 0."""


DEPTH_LIMIT = 64


class Ordinal:
    """CNF ordinal: tuple of (exponent, coefficient), exponents strictly decreasing.

    Ordinals are hash-consed: while an ordinal is alive, building an equal one
    returns the same object, so ``==`` and ``hash`` are the object's own
    (identity). The intern table holds its ordinals weakly, so it holds only
    live ones and does not grow with a run. Every construction checks every
    term (an ``int`` coefficient >= 1, an ``Ordinal`` exponent) and stores it
    as a tuple; the strict decrease is checked once, when the ordinal is first
    built. Ordinals are immutable, and pickling or copying one gives back the
    interned object.
    """

    __slots__ = ("terms", "_depth", "__weakref__")

    terms: tuple[tuple[Ordinal, int], ...]

    def __new__(cls, terms: Iterable[tuple[Ordinal, int]] = ()) -> Ordinal:
        key = []
        for exp, coeff in terms:
            if type(exp) is not Ordinal:
                raise TypeError("exponent must be an Ordinal")
            if type(coeff) is not int or coeff < 1:
                raise ValueError("coefficients must be integers >= 1")
            key.append((exp, coeff))
        key = tuple(key)
        with _INTERN_LOCK:  # one object per ordinal, also when threads race
            self = _INTERNED.get(key)
            if self is None:
                for (prev, _), (exp, _) in zip(key, key[1:]):
                    if _cmp(prev, exp) <= 0:
                        raise ValueError("exponents must strictly decrease")
                self = object.__new__(cls)
                object.__setattr__(self, "terms", key)
                # Depth grows with the order, so the leading exponent is the deepest.
                object.__setattr__(self, "_depth", 1 + key[0][0]._depth if key else 0)
                _INTERNED[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError("Ordinal is immutable")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError("Ordinal is immutable")

    def __reduce__(self) -> tuple:
        return Ordinal, (self.terms,)

    # Total order via compare; equality is identity (object's).
    def __lt__(self, other: Ordinal) -> bool:
        return _cmp(self, other) < 0

    def __le__(self, other: Ordinal) -> bool:
        return _cmp(self, other) <= 0

    def __gt__(self, other: Ordinal) -> bool:
        return _cmp(self, other) > 0

    def __ge__(self, other: Ordinal) -> bool:
        return _cmp(self, other) >= 0

    def __repr__(self) -> str:
        return f"Ordinal<{format_ordinal(self)}>"


_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # terms -> Ordinal
_INTERN_LOCK = threading.Lock()

ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return ZERO if n == 0 else Ordinal(((ZERO, n),))


def _cmp(a: Ordinal, b: Ordinal) -> int:
    # Interned: distinct objects are distinct ordinals, so the first pair of
    # exponents that are not the same object decides, and if every shared term
    # is equal the shorter term list is the smaller ordinal.
    if a is b:
        return 0
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea is not eb:
            return _cmp(ea, eb)
        if ca != cb:
            return -1 if ca < cb else 1
    return -1 if len(a.terms) < len(b.terms) else 1


class Comparison(Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


def compare(a: Ordinal, b: Ordinal) -> Comparison:
    """Total order on ordinals: lexicographic on CNF term lists."""
    c = _cmp(a, b)
    return Comparison.LESS if c < 0 else Comparison.EQUAL if c == 0 else Comparison.GREATER


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition; left-absorbing (1 + w = w)."""
    if not b.terms:
        return a
    if not a.terms:
        return b
    eb = b.terms[0][0]
    keep = len(a.terms)
    while keep > 0 and _cmp(a.terms[keep - 1][0], eb) < 0:
        keep -= 1
    if keep > 0 and a.terms[keep - 1][0] is eb:
        merged = (eb, a.terms[keep - 1][1] + b.terms[0][1])
        return Ordinal(a.terms[: keep - 1] + (merged,) + b.terms[1:])
    return Ordinal(a.terms[:keep] + b.terms)


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal multiplication; left-distributes over addition on the right."""
    if not a.terms or not b.terms:
        return ZERO
    e0, c0 = a.terms[0]
    out = ZERO
    for eb, cb in b.terms:
        if not eb.terms:
            # Finite factor scales the leading coefficient, tail survives.
            part = Ordinal(((e0, c0 * cb),) + a.terms[1:])
        else:
            part = Ordinal(((add(e0, eb), cb),))
        out = add(out, part)
    return out


@lru_cache(maxsize=None)
def depth(a: Ordinal) -> int:
    """Exponent nesting depth: 0 for 0, else 1 + max depth of exponents."""
    return a._depth


def omega_pow(a: Ordinal) -> Ordinal:
    """w raised to ``a``; the only constructor that can deepen nesting."""
    out = Ordinal(((a, 1),))
    if out._depth > DEPTH_LIMIT:
        raise OrdinalOverflowError(f"nesting depth exceeds {DEPTH_LIMIT}")
    return out


def natural_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    """Hessenberg sum: merge term lists, adding coefficients; commutative."""
    terms: list[tuple[Ordinal, int]] = []
    i = j = 0
    ta, tb = a.terms, b.terms
    while i < len(ta) and j < len(tb):
        c = _cmp(ta[i][0], tb[j][0])
        if c > 0:
            terms.append(ta[i])
            i += 1
        elif c < 0:
            terms.append(tb[j])
            j += 1
        else:
            terms.append((ta[i][0], ta[i][1] + tb[j][1]))
            i += 1
            j += 1
    terms.extend(ta[i:])
    terms.extend(tb[j:])
    return Ordinal(tuple(terms))


# ---------------------------------------------------------------------------
# classification and fundamental sequences
# ---------------------------------------------------------------------------

class Kind(Enum):
    ZERO = "Zero"
    SUCCESSOR = "Successor"
    LIMIT = "Limit"


def classify(a: Ordinal) -> Kind:
    if not a.terms:
        return Kind.ZERO
    if not a.terms[-1][0].terms:
        return Kind.SUCCESSOR
    return Kind.LIMIT


def predecessor(a: Ordinal) -> Ordinal:
    """Predecessor of a successor ordinal."""
    if classify(a) is not Kind.SUCCESSOR:
        raise ValueError(f"{a!r} is not a successor")
    return Ordinal(_minus_last_power(a)[0])


def _minus_last_power(a: Ordinal) -> tuple[tuple[tuple[Ordinal, int], ...], Ordinal]:
    """Split nonzero a as (terms of rest, beta) with a = rest + w^beta, beta the last exponent."""
    exp, coeff = a.terms[-1]
    if coeff > 1:
        return a.terms[:-1] + ((exp, coeff - 1),), exp
    return a.terms[:-1], exp


def fundamental_sequence(lam: Ordinal, n: int) -> Ordinal:
    """The n-th member of the fixed fundamental sequence of a limit ordinal.

    Convention: w[n] = n; (rest + w^(d+1))[n] = rest + w^d * n;
    (rest + w^b)[n] = rest + w^(b[n]) for limit b; a trailing coefficient
    c > 1 first peels one w^b into the rest. Increasing in n with supremum
    lam, and lam[n] < lam for all n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if classify(lam) is not Kind.LIMIT:
        raise NotALimitError(f"{lam!r} is not a limit ordinal")
    rest, beta = _minus_last_power(lam)
    # Every exponent of rest is >= beta and the step's is below beta, so
    # rest + step is the concatenation of their terms, and no deeper than lam.
    if classify(beta) is Kind.SUCCESSOR:
        step = ((predecessor(beta), n),) if n else ()  # w^(beta-1) * n
    else:
        step = ((fundamental_sequence(beta, n), 1),)  # w^(beta[n])
    return Ordinal(rest + step)


def descend(a: Ordinal, picker: Callable[[Ordinal], int]) -> tuple[Ordinal, int]:
    """One strict descent step below a nonzero ``a``: (child, picked index).

    A successor steps to its predecessor without calling ``picker``, and the
    index is -1; a limit steps to member picker(a) of its fundamental sequence.
    """
    kind = classify(a)
    if kind is Kind.SUCCESSOR:
        return predecessor(a), -1
    if kind is Kind.ZERO:
        raise ValueError("0 has no descent step")
    n = picker(a)
    return fundamental_sequence(a, n), n


def descent_walk(
    start: Ordinal,
    picker: Callable[[Ordinal], int],
    max_len: int = 10**6,
) -> list[Ordinal]:
    """Strictly descending chain from ``start`` to 0.

    Successors step to their predecessor; limits step to lam[picker(lam)].
    Always terminates because the order is well-founded; raises
    :class:`MaxLenExceededError` only if the caller's cap is hit first.
    """
    walk = [start]
    current = start
    while current.terms:
        if len(walk) >= max_len:
            raise MaxLenExceededError(f"walk exceeded max_len={max_len}")
        current = descend(current, picker)[0]
        walk.append(current)
    return walk


# ---------------------------------------------------------------------------
# surface syntax
# ---------------------------------------------------------------------------

def _format_exp(e: Ordinal) -> str:
    # Parentheses are needed whenever the exponent would not rebind correctly
    # under `^` being tighter than `*` and `+`: multiple terms, or a single
    # infinite term with coefficient > 1, or a deeper power with coefficient.
    s = format_ordinal(e)
    if len(e.terms) > 1:
        return f"({s})"
    if e.terms and e.terms[0][0].terms and e.terms[0][1] > 1:
        return f"({s})"
    return s


def format_ordinal(a: Ordinal) -> str:
    """Canonical surface syntax; parse_ordinal(format_ordinal(a)) == a."""
    if not a.terms:
        return "0"
    parts: list[str] = []
    for exp, coeff in a.terms:
        if not exp.terms:
            parts.append(str(coeff))
        elif exp == ONE:
            parts.append("w" if coeff == 1 else f"w*{coeff}")
        else:
            base = f"w^{_format_exp(exp)}"
            parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(parts)


_NAT_RE = re.compile(r"\d+")


class _OrdParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, at: int | None = None) -> NoReturn:
        raise OrdinalParseError(self.pos if at is None else at, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def sum_expr(self) -> Ordinal:
        out = self.term()
        while self.peek() == "+":
            self.pos += 1
            out = add(out, self.term())
        return out

    def term(self) -> Ordinal:
        out = self.power()
        while self.peek() == "*":
            self.pos += 1
            out = mul(out, self.power())
        return out

    def power(self) -> Ordinal:
        start = self.pos
        base_is_w = self.peek() == "w"
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            if not base_is_w:
                self.fail("exponent base must be w", at=start)
            return omega_pow(self.power())  # right-associative
        return base

    def atom(self) -> Ordinal:
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
        m = _NAT_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return from_int(int(m.group()))
        self.fail("ordinal atom (natural, 'w', or parenthesized expression)")

    def parse(self) -> Ordinal:
        out = self.sum_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("end of input")
        return out


def parse_ordinal(text: str) -> Ordinal:
    """Parse surface syntax into a normalized CNF ordinal.

    Arithmetic is applied during parsing, so non-canonical inputs normalize
    (``1+w`` parses to ``w``). Raises :class:`OrdinalParseError` with the
    offending position, or :class:`OrdinalOverflowError` past the depth limit.
    """
    return _OrdParser(text).parse()


# ---------------------------------------------------------------------------
# hydra game
# ---------------------------------------------------------------------------

class DeadHydraError(OrdinalError):
    """The hydra has no heads left to cut."""


@dataclass(frozen=True, slots=True)
class HydraTree:
    children: tuple["HydraTree", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


def hydra_to_ordinal(h: HydraTree) -> Ordinal:
    """Value of a hydra: natural sum of w^(child value) over its children."""
    out = ZERO
    for c in h.children:
        out = natural_sum(out, omega_pow(hydra_to_ordinal(c)))
    return out


def _height(h: HydraTree) -> int:
    return 0 if not h.children else 1 + max(_height(c) for c in h.children)


def hydra_step(h: HydraTree, stage: int) -> HydraTree:
    """One Kirby-Paris move: cut the leftmost-deepest head.

    If the cut head hangs off the root it simply vanishes. Otherwise its
    parent (with the head removed) is replaced at the grandparent by ``stage``
    copies of itself. The hydra's ordinal value strictly decreases.
    """
    if stage < 1:
        raise ValueError("stage must be >= 1")
    if not h.children:
        raise DeadHydraError("bare root has no heads")

    def cut(node: HydraTree) -> HydraTree:
        # Follow the leftmost child of maximal height.
        kids = node.children
        heights = [_height(c) for c in kids]
        i = heights.index(max(heights))
        if heights[i] == 0:  # a head on the root vanishes
            new: tuple[HydraTree, ...] = ()
        elif heights[i] == 1:  # the child loses its first head, repeated stage times
            new = (HydraTree(kids[i].children[1:]),) * stage
        else:
            new = (cut(kids[i]),)
        return HydraTree(kids[:i] + new + kids[i + 1 :])

    return cut(h)


def hydra_trajectory(h: HydraTree, max_steps: int = 10**6) -> list[Ordinal]:
    """Play the game with stage = 1, 2, 3, ... until the hydra dies.

    Returns the ordinal value before each cut plus the final 0.
    """
    values = [hydra_to_ordinal(h)]
    stage = 1
    while h.children:
        if stage > max_steps:
            raise MaxLenExceededError(f"hydra did not die within {max_steps} steps")
        h = hydra_step(h, stage)
        values.append(hydra_to_ordinal(h))
        stage += 1
    return values


def parse_hydra(text: str) -> HydraTree:
    """Parse a parenthesis shape like ``((())())`` into a hydra.

    The outer group is the root; each nested group is a child subtree.
    """
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos] in " \t":
            pos += 1

    def node() -> HydraTree:
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] != "(":
            raise OrdinalParseError(pos, "'('")
        pos += 1
        children: list[HydraTree] = []
        while True:
            skip_ws()
            if pos >= n:
                raise OrdinalParseError(pos, "')'")
            if text[pos] == ")":
                pos += 1
                return HydraTree(tuple(children))
            children.append(node())

    root = node()
    skip_ws()
    if pos != n:
        raise OrdinalParseError(pos, "end of input")
    return root
