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
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, NoReturn, TypeVar

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
    "NESTING_LIMIT",
    "HYDRA_NODE_LIMIT",
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
    """Construction would exceed a construction limit."""


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
# Deepest nesting the ordinal-side reader (_OrdParser) accepts: groups
# (parentheses and exponents) in ordinal text, levels in a hydra shape, groups
# in the driver's encoding. Twice DEPTH_LIMIT, so the text of every ordinal
# within the depth limit reads back; at four frames per parenthesis the reader
# stays far inside the default recursion limit.
NESTING_LIMIT = 128
_NESTING_MESSAGE = f"nesting deeper than the limit of {NESTING_LIMIT}"
HYDRA_NODE_LIMIT = 10**4  # most nodes a hydra may have; a game past it does not end in practice


class Ordinal:
    """CNF ordinal: tuple of (exponent, coefficient), exponents strictly decreasing.

    Ordinals are hash-consed: while an ordinal is alive, building an equal one
    returns the same object, so ``==`` and ``hash`` are the object's own
    (identity). The intern table holds its ordinals weakly, so it holds only
    live ones and does not grow with a run. The public constructor checks
    every term on every call (an ``int`` coefficient >= 1, an ``Ordinal``
    exponent) and stores it as a tuple; the strict decrease is checked once,
    when the ordinal is first built. The module's own arithmetic, descent
    steps and parser skip all of these checks and intern their results
    through ``_intern`` directly: they only ever build canonical terms out of
    interned ordinals, so checking them again would cost time and catch
    nothing. That holds only when their arguments are real ordinals, which is
    why every public function whose result reaches ``_intern`` refuses any
    other argument with ``TypeError``. Ordinals are immutable, and pickling
    or copying one gives back the interned object.

    Besides its terms an ordinal keeps its depth, set when it is built, and
    its surface text in ``_text``: ``None`` until :func:`format_ordinal` first
    formats it, then that ``str``, which lives exactly as long as the ordinal.
    """

    __slots__ = ("terms", "_depth", "_text", "__weakref__")

    terms: tuple[tuple[Ordinal, int], ...]

    def __new__(cls, terms: Iterable[tuple[Ordinal, int]] = ()) -> Ordinal:
        key = []
        for exp, coeff in terms:
            if type(exp) is not Ordinal:
                raise TypeError("exponent must be an Ordinal")
            if type(coeff) is not int or coeff < 1:
                raise ValueError("coefficients must be integers >= 1")
            key.append((exp, coeff))
        return _intern(tuple(key), _check_decrease)

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
# The slots' own descriptors: set through them, a new ordinal's fields skip
# the immutability override of __setattr__.
_SET_TERMS = Ordinal.terms.__set__
_SET_DEPTH = Ordinal._depth.__set__
_SET_TEXT = Ordinal._text.__set__


def _intern(key: _Terms, check: Callable[[_Terms], None] | None = None) -> Ordinal:
    """The live ordinal with terms ``key``, built unchecked on a miss.

    The one place that reads or writes the intern table. ``key`` must be a
    tuple of ``(Ordinal, int >= 1)`` tuples; nothing here checks it, and on a
    miss ``check(key)``, if given, runs before the ordinal is built. A hit
    takes no lock: one dict look-up is atomic, and a dead weakref, whose
    ordinal is gone, counts as a miss. A miss looks again under the lock, so
    threads that race on it get one object.

    Both look-ups read the table's own dict of key -> weakref, and a miss
    stores a ``KeyedRef`` with the table's own removal callback, as
    ``WeakValueDictionary.__setitem__`` does, without its method calls. The
    table stays a ``WeakValueDictionary``, so a removal that falls while the
    table is being iterated is still deferred, and committed, by the table;
    the removal drops only a dead weakref, never the live one put in its place.
    """
    data = _INTERNED.data
    ref = data.get(key)
    if ref is not None:
        self = ref()
        if self is not None:
            return self
    with _INTERN_LOCK:
        ref = data.get(key)
        self = None if ref is None else ref()
        if self is None:
            if check is not None:
                check(key)
            self = object.__new__(Ordinal)
            _SET_TERMS(self, key)
            # Depth grows with the order, so the leading exponent is the deepest.
            _SET_DEPTH(self, 1 + key[0][0]._depth if key else 0)
            _SET_TEXT(self, None)
            data[key] = weakref.KeyedRef(self, _INTERNED._remove, key)
    return self


def _check_decrease(key: _Terms) -> None:
    for (prev, _), (exp, _) in zip(key, key[1:]):
        if _cmp(prev, exp) <= 0:
            raise ValueError("exponents must strictly decrease")


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


# Arithmetic works on term tuples, so a chain of operations (a parse, a
# fundamental sequence) builds an Ordinal only for its result and the exponents
# that result holds, never for the partial sums and products on the way.
_Terms = tuple[tuple[Ordinal, int], ...]


def _add_terms(a: _Terms, b: _Terms) -> _Terms:
    """Terms of a + b: the terms of a below b's leading exponent are absorbed."""
    if not b:
        return a
    eb = b[0][0]
    keep = len(a)
    while keep > 0 and _cmp(a[keep - 1][0], eb) < 0:
        keep -= 1
    if keep > 0 and a[keep - 1][0] is eb:
        return a[: keep - 1] + ((eb, a[keep - 1][1] + b[0][1]),) + b[1:]
    return a[:keep] + b


def _mul_terms(a: _Terms, b: _Terms) -> _Terms:
    """Terms of a * b; left-distributes over the terms of b."""
    if not a or not b:
        return ()
    e0, c0 = a[0]
    out: _Terms = ()
    for eb, cb in b:
        if not eb.terms:
            # Finite factor scales the leading coefficient, tail survives.
            part = ((e0, c0 * cb),) + a[1:]
        else:
            part = ((add(e0, eb), cb),)
        out = _add_terms(out, part)
    return out


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition; left-absorbing (1 + w = w). ``TypeError`` unless both are Ordinals."""
    if type(a) is not Ordinal or type(b) is not Ordinal:
        raise TypeError("add takes two Ordinals")
    if not b.terms:
        return a
    if not a.terms:
        return b
    return _intern(_add_terms(a.terms, b.terms))


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal multiplication; left-distributes over addition on the right.

    ``TypeError`` unless both are Ordinals.
    """
    if type(a) is not Ordinal or type(b) is not Ordinal:
        raise TypeError("mul takes two Ordinals")
    if not a.terms or not b.terms:
        return ZERO
    return _intern(_mul_terms(a.terms, b.terms))


@lru_cache(maxsize=None)
def depth(a: Ordinal) -> int:
    """Exponent nesting depth: 0 for 0, else 1 + max depth of exponents."""
    return a._depth


def _omega_pow_terms(a: Ordinal) -> _Terms:
    """Terms of w raised to ``a``; the only term construction that can deepen nesting, so the
    place DEPTH_LIMIT is checked (``omega_pow``, the parser; a hydra's value checks its height)."""
    if a._depth >= DEPTH_LIMIT:  # w^a is one level deeper than a
        raise OrdinalOverflowError(f"nesting depth exceeds {DEPTH_LIMIT}")
    return ((a, 1),)


def omega_pow(a: Ordinal) -> Ordinal:
    """w raised to ``a``. ``TypeError`` unless ``a`` is an Ordinal."""
    if type(a) is not Ordinal:
        raise TypeError("omega_pow takes an Ordinal")
    return _intern(_omega_pow_terms(a))


def natural_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    """Hessenberg sum: merge term lists, adding coefficients; commutative.

    ``TypeError`` unless both are Ordinals.
    """
    if type(a) is not Ordinal or type(b) is not Ordinal:
        raise TypeError("natural_sum takes two Ordinals")
    return _intern(_natural_sum_terms(a.terms, b.terms))


def _natural_sum_terms(ta: _Terms, tb: _Terms) -> _Terms:
    """Terms of the natural sum of the ordinals with terms ``ta`` and ``tb``."""
    terms: list[tuple[Ordinal, int]] = []
    i = j = 0
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
    return tuple(terms)


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
    """Predecessor of a successor ordinal. ``TypeError`` unless ``a`` is an Ordinal."""
    if type(a) is not Ordinal:
        raise TypeError("predecessor takes an Ordinal")
    if classify(a) is not Kind.SUCCESSOR:
        raise ValueError(f"{a!r} is not a successor")
    return _intern(_minus_last_power(a.terms)[0])


def _minus_last_power(terms: _Terms) -> tuple[_Terms, Ordinal]:
    """Split nonzero terms into (rest, beta): the ordinal is rest + w^beta, beta its last exponent."""
    exp, coeff = terms[-1]
    if coeff > 1:
        return terms[:-1] + ((exp, coeff - 1),), exp
    return terms[:-1], exp


def _check_int(value: int, name: str, least: int) -> None:
    # As with Fuel, a bool or float is refused: False and 0.0 would otherwise
    # pass for 0, and 2.5 for a count.
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an int >= {least}")


def _fs(terms: _Terms, n: int) -> _Terms:
    """Terms of member n of the fundamental sequence of the limit with these terms."""
    rest, beta = _minus_last_power(terms)
    # Every exponent of rest is >= beta and the step's is below beta, so
    # rest + step is the concatenation of their terms, and no deeper than the
    # limit. Only the step's exponent is built as an Ordinal, one per level.
    bt = beta.terms
    if not bt[-1][0].terms:  # beta is a successor: w^(beta-1) * n
        if not n:
            return rest
        return rest + ((_intern(_minus_last_power(bt)[0]), n),)
    return rest + ((_intern(_fs(bt, n)), 1),)  # beta is a limit: w^(beta[n])


def fundamental_sequence(lam: Ordinal, n: int) -> Ordinal:
    """The n-th member of the fixed fundamental sequence of a limit ordinal.

    Convention: w[n] = n; (rest + w^(d+1))[n] = rest + w^d * n;
    (rest + w^b)[n] = rest + w^(b[n]) for limit b; a trailing coefficient
    c > 1 first peels one w^b into the rest. Increasing in n with supremum
    lam, and lam[n] < lam for all n. ``n`` must be an ``int``, and ``lam``
    an ``Ordinal`` (``TypeError`` otherwise).
    """
    if type(lam) is not Ordinal:
        raise TypeError("fundamental_sequence takes an Ordinal")
    _check_int(n, "n", 0)
    if classify(lam) is not Kind.LIMIT:
        raise NotALimitError(f"{lam!r} is not a limit ordinal")
    return _intern(_fs(lam.terms, n))


def descend(a: Ordinal, picker: Callable[[Ordinal], int]) -> tuple[Ordinal, int]:
    """One strict descent step below a nonzero ``a``: (child, picked index).

    A successor steps to its predecessor without calling ``picker``, and the
    index is -1; a limit steps to member picker(a) of its fundamental sequence,
    and picker(a) must be an ``int`` >= 0. ``TypeError`` unless ``a`` is an
    Ordinal.
    """
    if type(a) is not Ordinal:
        raise TypeError("descend takes an Ordinal")
    terms = a.terms
    if not terms:
        raise ValueError("0 has no descent step")
    if not terms[-1][0].terms:  # a successor
        n = -1
    else:
        n = picker(a)
        _check_int(n, "n", 0)
    return _intern(_descend_terms(terms, n)), n


def _descend_terms(terms: _Terms, n: int) -> _Terms:
    """Terms one descent step below the nonzero ordinal with ``terms``: its
    predecessor at a successor, where ``n`` goes unused, else member ``n``
    (an ``int`` >= 0) of its fundamental sequence."""
    if not terms[-1][0].terms:
        return _minus_last_power(terms)[0]
    return _fs(terms, n)


def descent_walk(
    start: Ordinal,
    picker: Callable[[Ordinal], int],
    max_len: int = 10**6,
) -> list[Ordinal]:
    """Strictly descending chain from ``start`` to 0.

    Successors step to their predecessor; limits step to lam[picker(lam)].
    Always terminates because the order is well-founded; raises
    :class:`MaxLenExceededError` only if the caller's cap is hit first, and
    ``TypeError`` (from :func:`descend`) unless ``start`` is an Ordinal.
    """
    _check_int(max_len, "max_len", 0)
    walk = [start]
    current = start
    while current is not ZERO:  # interned: the one ordinal with no terms
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
    """Canonical surface syntax; parse_ordinal(format_ordinal(a)) == a.

    The text is built on the first call and kept in the ordinal, so a later
    call returns the same ``str`` object.
    """
    text = a._text
    if text is None:
        text = _format_terms(a.terms)
        _SET_TEXT(a, text)
    return text


def _format_terms(terms: _Terms) -> str:
    """The surface syntax of the ordinal with ``terms``, built afresh."""
    if not terms:
        return "0"
    parts: list[str] = []
    for exp, coeff in terms:
        if not exp.terms:
            parts.append(str(coeff))
        elif exp is ONE:
            parts.append("w" if coeff == 1 else f"w*{coeff}")
        else:
            base = f"w^{_format_exp(exp)}"
            parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(parts)


_NAT_RE = re.compile(r"[0-9]+")  # ASCII digits only: \d would read "٣" as 3
_T = TypeVar("_T")


class _OrdParser:
    # The one reader of ordinal-side text: ordinal syntax (``sum_expr`` and the
    # productions below it return the terms of the value they parsed), hydra
    # shapes (``hydra``) and the notation driver's encoding (notation._decode).
    # ``nesting`` counts the groups open at ``pos``; ``open_group`` is the one
    # place it is checked against NESTING_LIMIT.
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nesting = 0

    def fail(self, message: str, at: int | None = None) -> NoReturn:
        raise OrdinalParseError(self.pos if at is None else at, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        # Canonical text has no blanks: one slice, and a loop only on a blank.
        ch = self.text[self.pos : self.pos + 1]
        if ch == " " or ch == "\t":
            self.skip_ws()
            ch = self.text[self.pos : self.pos + 1]
        return ch

    def open_group(self) -> None:
        """Step over the '(' or '^' at ``pos``, which opens a group."""
        if self.nesting == NESTING_LIMIT:
            self.fail(_NESTING_MESSAGE)
        self.nesting += 1
        self.pos += 1

    def sum_expr(self) -> _Terms:
        out = self.term()
        while self.peek() == "+":
            self.pos += 1
            out = _add_terms(out, self.term())
        return out

    def term(self) -> _Terms:
        out = self.power()
        while self.peek() == "*":
            self.pos += 1
            out = _mul_terms(out, self.power())
        return out

    def power(self) -> _Terms:
        start = self.pos
        base_is_w = self.peek() == "w"
        base = self.atom()
        if self.peek() == "^":
            if not base_is_w:
                self.fail("exponent base must be w", at=start)
            self.open_group()
            exp = _intern(self.power())  # right-associative
            self.nesting -= 1
            return _omega_pow_terms(exp)
        return base

    def atom(self) -> _Terms:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            return OMEGA.terms
        if ch == "(":
            self.open_group()
            inner = self.sum_expr()
            if self.peek() != ")":
                self.fail("')'")
            self.pos += 1
            self.nesting -= 1
            return inner
        m = _NAT_RE.match(self.text, self.pos)
        if m:
            try:
                n = int(m.group())
            except ValueError:  # past the interpreter's limit on digits
                self.fail(f"natural of {m.end() - self.pos} digits is too long")
            self.pos = m.end()
            return ((ZERO, n),) if n else ()
        self.fail("ordinal atom (natural, 'w', or parenthesized expression)")

    def hydra(self) -> HydraTree:
        # One node: its '(', its children, its ')'.
        if self.peek() != "(":
            self.fail("'('")
        self.open_group()
        children: list[HydraTree] = []
        while (ch := self.peek()) != ")":
            if not ch:
                self.fail("')'")
            children.append(self.hydra())
        self.pos += 1
        self.nesting -= 1
        return HydraTree(tuple(children))

    def parse(self, production: Callable[[_OrdParser], _T]) -> _T:
        """Run ``production`` over the whole text."""
        out = production(self)
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("end of input")
        return out


def parse_ordinal(text: str) -> Ordinal:
    """Parse surface syntax into a normalized CNF ordinal.

    Arithmetic is applied during parsing, so non-canonical inputs normalize
    (``1+w`` parses to ``w``); it works on terms, and only the result and the
    exponents it holds are built as ordinals. Raises :class:`OrdinalParseError`
    with the offending position, also at a group (parenthesis or exponent)
    that would nest deeper than ``NESTING_LIMIT``, or
    :class:`OrdinalOverflowError` past the depth limit.
    """
    return _intern(_OrdParser(text).parse(_OrdParser.sum_expr))


# ---------------------------------------------------------------------------
# hydra game
# ---------------------------------------------------------------------------

class DeadHydraError(OrdinalError):
    """The hydra has no heads left to cut."""


@dataclass(frozen=True, slots=True)
class HydraTree:
    """A hydra node. Its height and size (in nodes) are set from its children's.

    ``TypeError`` unless every child is a ``HydraTree``.
    """
    children: tuple["HydraTree", ...] = ()
    height: int = field(init=False, compare=False, repr=False)
    size: int = field(init=False, compare=False, repr=False)
    _value: Ordinal | None = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self) -> None:
        kids = tuple(self.children)
        height, size = 0, 1
        for c in kids:  # one pass, cheaper than max() and sum() over two lists
            if type(c) is not HydraTree:
                raise TypeError(f"a hydra's children must be HydraTrees, not {c!r}")
            height = c.height + 1 if c.height >= height else height
            size += c.size
        if height >= NESTING_LIMIT:
            raise OrdinalOverflowError(_NESTING_MESSAGE)
        if size > HYDRA_NODE_LIMIT:
            raise _hydra_overflow(size)
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "size", size)


def _hydra_overflow(size: int) -> OrdinalOverflowError:
    return OrdinalOverflowError(f"hydra of {size} nodes is over the limit of {HYDRA_NODE_LIMIT}")


def hydra_to_ordinal(h: HydraTree) -> Ordinal:
    """Natural sum of w^(child value) over the children; derived once, then kept in the node."""
    value = h._value
    if value is None:
        if h.height > DEPTH_LIMIT:  # a value is as deep as its hydra is high
            raise OrdinalOverflowError(f"nesting depth exceeds {DEPTH_LIMIT}")
        counts = Counter(map(hydra_to_ordinal, h.children))
        value = _intern(tuple(sorted(counts.items(), reverse=True)))
        object.__setattr__(h, "_value", value)
    return value


def hydra_step(h: HydraTree, stage: int) -> HydraTree:
    """One Kirby-Paris move: cut the leftmost-deepest head.

    If the cut head hangs off the root it simply vanishes. Otherwise its
    parent (with the head removed) is replaced at the grandparent by ``stage``
    copies of itself. The hydra's ordinal value strictly decreases.
    """
    _check_int(stage, "stage", 1)
    if not h.children:
        raise DeadHydraError("bare root has no heads")

    def cut(node: HydraTree) -> HydraTree:
        kids = node.children
        top = node.height - 1  # follow the leftmost child this high, the highest
        i = next(j for j, c in enumerate(kids) if c.height == top)
        if top == 0:  # a head on the root vanishes
            new: tuple[HydraTree, ...] = ()
        elif top == 1:  # the child loses its first head, repeated stage times
            # The node's size after the move, known before any copy is made.
            size = node.size - 1 + (stage - 1) * (kids[i].size - 1)
            if size > HYDRA_NODE_LIMIT:
                raise _hydra_overflow(size)
            new = (HydraTree(kids[i].children[1:]),) * stage
        else:
            new = (cut(kids[i]),)
        return HydraTree(kids[:i] + new + kids[i + 1 :])

    return cut(h)


def hydra_trajectory(h: HydraTree, max_steps: int = 10**6) -> list[Ordinal]:
    """Play the game with stage = 1, 2, 3, ... until the hydra dies.

    Returns the ordinal value before each cut plus the final 0; a cut that
    grows the hydra past ``HYDRA_NODE_LIMIT`` nodes raises OrdinalOverflowError.
    """
    _check_int(max_steps, "max_steps", 0)
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

    The outer group is the root; each nested group is a child subtree. A
    shape nested deeper than ``NESTING_LIMIT`` groups is refused with
    :class:`OrdinalParseError` at the first '(' past the limit.
    """
    return _OrdParser(text).parse(_OrdParser.hydra)
