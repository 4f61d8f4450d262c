"""Seeded lineage simulation for agents with ordinal-valued intelligence.

Agents are reduced to an ordinal ledger: creating a child alone forces the
child's intelligence strictly below the parent's (successor steps to its
predecessor, a limit steps down its fundamental sequence), so any chain of
single-parent creations is a descending ordinal sequence and must be finite.
Multi-parent creation carries no such constraint; the child may match or
exceed every parent, which is the loophole that lets a population outlive any
single line of descent. Runs are driven by one seeded RNG, so equal
configurations reproduce byte-identical event logs.

Event logs persist as JSON lines with fields kind, childId, parentIds,
childIntelligence (surface syntax), seedUsed, eventIndex.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence, Union

from .objlang import Program, parse, serialize
from .ordinals import (
    OMEGA,
    ZERO,
    Ordinal,
    _NAT_RE,
    _add_terms,
    _check_int,
    _descend_terms,
    _intern,
    _natural_sum_terms,
    descend,
    format_ordinal,
    fundamental_sequence,  # unused here; perfbench's tracer test looks up this binding
    parse_ordinal,
)

__all__ = [
    "LineageError",
    "SterileAgentError",
    "DuplicateParentsError",
    "Agent",
    "EventKind",
    "LineageEvent",
    "MultiParentRule",
    "AsexualOnly",
    "MixedEveryK",
    "Policy",
    "parse_policy",
    "LineageConfig",
    "config_from_json",
    "asexual_create",
    "nondeterministic_create",
    "multi_parent_create",
    "witness_notation",
    "run_lineage",
    "ChainStats",
    "chain_stats",
    "event_to_json",
    "event_from_json",
    "event_log_text",
    "write_event_log",
    "read_event_log",
]


class LineageError(Exception):
    """Base class for simulation failures."""


class SterileAgentError(LineageError):
    """A single-parent creation was requested of an intelligence-0 agent."""


class DuplicateParentsError(LineageError):
    """Multi-parent creation needs at least two distinct parents."""


@dataclass(frozen=True, slots=True)
class Agent:
    id: int
    intelligence: Ordinal
    parent_ids: tuple[int, ...] = ()
    generation: int = 0


class EventKind(str, Enum):
    FOUNDER = "founder"
    ASEXUAL = "asexual"
    NONDETERMINISTIC = "nondeterministic"
    MULTI_PARENT = "multiparent"
    STERILE = "sterile"


_SINGLE_PARENT_KINDS = frozenset({EventKind.ASEXUAL, EventKind.NONDETERMINISTIC})


def _is_int(value: object) -> bool:
    return type(value) is int  # not a bool, not a float


@dataclass(frozen=True, slots=True)
class LineageEvent:
    """One line of an event log. The constructor refuses a field of the wrong
    type with ``TypeError``, so every event's JSON line is exact by
    construction (see :func:`event_log_text`); the ints must be plain ``int``,
    not ``bool``."""

    kind: EventKind
    child_id: int
    parent_ids: tuple[int, ...]
    child_intelligence: Ordinal
    seed_used: int
    event_index: int

    def __post_init__(self) -> None:
        if type(self.kind) is not EventKind:
            raise TypeError("kind must be an EventKind")
        if not (_is_int(self.child_id) and _is_int(self.seed_used) and _is_int(self.event_index)):
            raise TypeError("child_id, seed_used and event_index must be ints")
        if type(self.parent_ids) is not tuple or not all(map(_is_int, self.parent_ids)):
            raise TypeError("parent_ids must be a tuple of ints")
        if type(self.child_intelligence) is not Ordinal:
            raise TypeError("child_intelligence must be an Ordinal")


# The slots' own descriptors: set through them, an agent's or event's fields
# skip the frozen dataclass's __setattr__ and the public constructor's checks.
_SET_AGENT = tuple(getattr(Agent, name).__set__ for name in Agent.__slots__)
_SET_EVENT = tuple(getattr(LineageEvent, name).__set__ for name in LineageEvent.__slots__)


def _agent(id: int, intelligence: Ordinal, parent_ids: tuple[int, ...], generation: int) -> Agent:
    """``Agent(...)`` unchecked, for the module's own agents, whose fields it builds itself."""
    self = object.__new__(Agent)
    set_id, set_intelligence, set_parent_ids, set_generation = _SET_AGENT
    set_id(self, id)
    set_intelligence(self, intelligence)
    set_parent_ids(self, parent_ids)
    set_generation(self, generation)
    return self


def _event(
    kind: EventKind,
    child_id: int,
    parent_ids: tuple[int, ...],
    child_intelligence: Ordinal,
    seed_used: int,
    event_index: int,
) -> LineageEvent:
    """``LineageEvent(...)`` unchecked, for events whose field types are known."""
    self = object.__new__(LineageEvent)
    set_kind, set_child_id, set_parent_ids, set_intelligence, set_seed, set_index = _SET_EVENT
    set_kind(self, kind)
    set_child_id(self, child_id)
    set_parent_ids(self, parent_ids)
    set_intelligence(self, child_intelligence)
    set_seed(self, seed_used)
    set_index(self, event_index)
    return self


@dataclass(frozen=True, slots=True)
class MultiParentRule:
    """Cap rule for multi-parent children: natural sum of parents plus bonus.

    The child is the cap stepped down a random number of times (0 to
    ``max_descent``), so it may equal the cap and thereby exceed every parent.
    This is a modeling choice; nothing forces multi-parent children downward.
    """

    bonus: Ordinal = OMEGA
    max_descent: int = 4

    def __post_init__(self) -> None:
        if type(self.bonus) is not Ordinal:
            raise TypeError("bonus must be an Ordinal")
        _check_int(self.max_descent, "max_descent", 0)


@dataclass(frozen=True, slots=True)
class AsexualOnly:
    pass


@dataclass(frozen=True, slots=True)
class MixedEveryK:
    k: int

    def __post_init__(self) -> None:
        _check_int(self.k, "k", 1)


Policy = Union[AsexualOnly, MixedEveryK]


def parse_policy(text: str) -> Policy:
    """The policy that ``asexual`` or ``mixed:<k>`` names; ``ValueError`` otherwise."""
    if text == "asexual":
        return AsexualOnly()
    if not text.startswith("mixed:"):
        raise ValueError(f"unknown policy {text!r}; use asexual or mixed:<k>")
    k = text.removeprefix("mixed:")
    # ASCII digits only, as in ordinal text: int() alone reads " 3", "+3", "1_0" and "٣".
    if _NAT_RE.fullmatch(k):
        try:
            return MixedEveryK(int(k))
        except ValueError:  # k is 0, or past int()'s limit on digits
            pass
    raise ValueError(f"bad mixed policy {text!r}; use mixed:<k>")


@dataclass(frozen=True, slots=True)
class LineageConfig:
    founder_intelligences: tuple[Ordinal, ...]
    policy: Policy = AsexualOnly()
    rng_seed: int = 0
    max_events: int = 100
    multi_parent_rule: MultiParentRule = MultiParentRule()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "founder_intelligences", tuple(self.founder_intelligences)
        )
        if not self.founder_intelligences:
            raise ValueError("at least one founder is required")
        if any(type(f) is not Ordinal for f in self.founder_intelligences):
            raise TypeError("founder intelligences must be Ordinals")
        if not isinstance(self.policy, (AsexualOnly, MixedEveryK)):
            raise TypeError("policy must be AsexualOnly() or MixedEveryK(k)")
        if not isinstance(self.multi_parent_rule, MultiParentRule):
            raise TypeError("multi_parent_rule must be a MultiParentRule")
        if type(self.rng_seed) is not int:
            raise TypeError("rng_seed must be an int")
        _check_int(self.max_events, "max_events", 1)


# ---------------------------------------------------------------------------
# creation operations
# ---------------------------------------------------------------------------

_MAX_PICK = 16  # a random descent step at a limit takes member randint(0, _MAX_PICK)


def _check_ids(child_id: int, event_index: int, parent_ids: tuple[int, ...]) -> None:
    """``TypeError`` unless the ids a creation puts in its event are all ints."""
    if not (_is_int(child_id) and _is_int(event_index) and all(map(_is_int, parent_ids))):
        raise TypeError("child_id, event_index and parent ids must be ints")


def asexual_create(
    parent: Agent,
    picker: Callable[[Ordinal], int],
    child_id: int,
    event_index: int = -1,
) -> tuple[Agent, LineageEvent]:
    """Single-parent creation: the child lands strictly below the parent.

    Successor intelligence steps to its predecessor; a limit steps to member
    picker(limit) of its fundamental sequence. seed_used records the picked
    index, or -1 when no pick was needed.
    """
    ids = (parent.id,)
    _check_ids(child_id, event_index, ids)
    intel = parent.intelligence
    if intel == ZERO:
        raise SterileAgentError(f"agent {parent.id} has intelligence 0")
    child_intel, seed_used = descend(intel, picker)
    assert child_intel < intel  # single-parent descent is structural
    child = _agent(child_id, child_intel, ids, parent.generation + 1)
    return child, _event(EventKind.ASEXUAL, child_id, ids, child_intel, seed_used, event_index)


def nondeterministic_create(
    parent: Agent,
    k: int,
    rng: random.Random,
    child_id: int,
    event_index: int = -1,
) -> tuple[Agent, LineageEvent]:
    """Single-parent creation via random choice among k descent candidates.

    Every candidate is produced by an independent strict descent step, so the
    chosen child is below the parent no matter how the draw goes. seed_used
    records the selected candidate index.
    """
    ids = (parent.id,)
    _check_ids(child_id, event_index, ids)
    intel = parent.intelligence
    if intel == ZERO:
        raise SterileAgentError(f"agent {parent.id} has intelligence 0")
    _check_int(k, "k", 1)
    # One draw per candidate even at a successor, where it goes unused: the
    # draw order is part of every reproducible log. Only the chosen one is built.
    picks = [rng.randint(0, _MAX_PICK) for _ in range(k)]
    seed_used = rng.randrange(k)
    child_intel = descend(intel, lambda lam: picks[seed_used])[0]
    assert child_intel < intel
    child = _agent(child_id, child_intel, ids, parent.generation + 1)
    return child, _event(
        EventKind.NONDETERMINISTIC, child_id, ids, child_intel, seed_used, event_index
    )


def multi_parent_create(
    parents: Sequence[Agent],
    rule: MultiParentRule,
    rng: random.Random,
    child_id: int,
    event_index: int = -1,
) -> tuple[Agent, LineageEvent]:
    """Creation by two or more distinct parents; no forced decrease.

    The child starts from cap = naturalSum(parent intelligences) + bonus and
    descends a uniformly drawn m in [0, max_descent] steps (stopping at 0).
    seed_used records m. With m = 0 the child equals the cap and exceeds
    every individual parent.
    """
    ids = tuple(p.id for p in parents)
    if len(ids) < 2:
        raise DuplicateParentsError("multi-parent creation needs >= 2 parents")
    if len(set(ids)) != len(ids):
        raise DuplicateParentsError(f"parent ids repeat: {sorted(ids)}")
    _check_ids(child_id, event_index, ids)
    # On terms, so only the child is interned, not the cap and each step to it;
    # the terms are canonical only if every intelligence is a real Ordinal.
    intels = [p.intelligence for p in parents]
    if any(type(a) is not Ordinal for a in intels) or type(rule.bonus) is not Ordinal:
        raise TypeError("parent intelligences and the bonus must be Ordinals")
    terms: tuple = ()
    for a in intels:
        terms = _natural_sum_terms(terms, a.terms)
    terms = _add_terms(terms, rule.bonus.terms)
    m = rng.randint(0, rule.max_descent)
    for _ in range(m):
        if not terms:
            break
        # one draw per step, also at a successor, as in nondeterministic_create
        terms = _descend_terms(terms, rng.randint(0, _MAX_PICK))
    child_intel = _intern(terms)
    generation = 1 + max(p.generation for p in parents)
    child = _agent(child_id, child_intel, ids, generation)
    return child, _event(EventKind.MULTI_PARENT, child_id, ids, child_intel, m, event_index)


def witness_notation(child_enumerator: Program) -> Program:
    """A parent's witness for a child enumerator, built by pasting text.

    The witness is constructed from the child's source by string embedding
    alone (here the paste is the identity embedding), with zero evaluation
    steps: evaluate(witness, f).outputs == evaluate(child, f).outputs for
    every fuel f, checked by test rather than by running anything now.
    """
    return parse(serialize(child_enumerator))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _rank(agent: Agent) -> tuple[Ordinal, int]:
    # Ties break toward the higher (newer) id, so every key is unique.
    return agent.intelligence, agent.id


def run_lineage(config: LineageConfig) -> list[LineageEvent]:
    """Run a seeded simulation; equal configs give identical logs.

    AsexualOnly: repeatedly create from the latest agent until it is sterile
    or max_events creations are made; descent makes this terminate.
    MixedEveryK(k): every k-th creation event (1-based), and every event at
    which all agents have intelligence 0, is a multi-parent event over the two
    most intelligent agents; other events create from the most intelligent
    agent, so the run always reaches max_events unless its one founder has 0.

    A sterile marker closes the log exactly when no further creation is
    possible: under AsexualOnly when the latest agent has intelligence 0 (also
    when max_events was reached on the event that reached 0), under
    MixedEveryK only for a single founder of intelligence 0. A mixed run
    whose latest child has 0 goes on from the other agents, with no marker.
    """
    rng = random.Random(config.rng_seed)
    founders = [_agent(i, intel, (), 0) for i, intel in enumerate(config.founder_intelligences)]
    events = [_event(EventKind.FOUNDER, a.id, (), a.intelligence, -1, a.id) for a in founders]
    policy = config.policy
    mixed = isinstance(policy, MixedEveryK)
    # The agents a creation may use: the latest one, or under MixedEveryK the
    # two most intelligent, best first. The top two of the old pair and the
    # new child are the top two of the whole population.
    ranked = sorted(founders, key=_rank, reverse=True)[:2] if mixed else founders[-1:]

    def picker(lam: Ordinal) -> int:
        return rng.randint(0, _MAX_PICK)

    for i in range(1, config.max_events + 1):
        best, n = ranked[0], len(events)  # every agent so far has one event
        if len(ranked) == 2 and (i % policy.k == 0 or best.intelligence == ZERO):
            child, event = multi_parent_create(ranked, config.multi_parent_rule, rng, n, n)
        elif best.intelligence != ZERO:
            child, event = asexual_create(best, picker, n, n)
        else:
            break
        events.append(event)
        if not mixed:
            ranked = [child]
        elif child.intelligence >= best.intelligence:  # the newest id wins a tie
            ranked = [child, best]
        elif len(ranked) == 1 or child.intelligence >= ranked[1].intelligence:
            ranked = [best, child]
    if len(ranked) == 1 and ranked[0].intelligence == ZERO:
        events.append(_event(EventKind.STERILE, ranked[0].id, (), ZERO, -1, len(events)))
    return events


# ---------------------------------------------------------------------------
# statistics and persistence
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ChainStats:
    max_asexual_run_length: int
    total_agents: int
    multi_parent_count: int
    intelligence_time_series: tuple[tuple[int, str], ...]


def chain_stats(log: Sequence[LineageEvent]) -> ChainStats:
    """Pure aggregation over an event log."""
    max_run = 0
    run = 0
    total_agents = 0
    multi = 0
    series: list[tuple[int, str]] = []
    for ev in log:
        if ev.kind in _SINGLE_PARENT_KINDS:
            run += 1
            max_run = max(max_run, run)
        else:
            run = 0
        if ev.kind is EventKind.MULTI_PARENT:
            multi += 1
        if ev.kind is not EventKind.STERILE:
            total_agents += 1
            series.append((ev.event_index, format_ordinal(ev.child_intelligence)))
    return ChainStats(max_run, total_agents, multi, tuple(series))


def event_to_json(ev: LineageEvent) -> dict:
    return {
        "kind": ev.kind.value,
        "childId": ev.child_id,
        "parentIds": list(ev.parent_ids),
        "childIntelligence": format_ordinal(ev.child_intelligence),
        "seedUsed": ev.seed_used,
        "eventIndex": ev.event_index,
    }


_EVENT_KINDS = frozenset(k.value for k in EventKind)


def _json_field(data: dict, where: str, key: str, ok: Callable[[object], bool], what: str):
    """``data.get(key)`` if ``ok`` accepts it, else ``ValueError`` naming the field."""
    value = data.get(key)
    if not ok(value):
        raise ValueError(f"{where} field {key!r} must be {what}")
    return value


# Each field of an event's JSON object: the test its value must pass, and
# what the error says it must be.
_EVENT_FIELDS = (
    ("kind", lambda v: isinstance(v, str) and v in _EVENT_KINDS,
     "one of " + ", ".join(repr(k.value) for k in EventKind)),
    ("childId", _is_int, "an integer"),
    ("parentIds", lambda v: type(v) is list and all(map(_is_int, v)), "a list of integers"),
    ("childIntelligence", lambda v: type(v) is str, "a string"),
    ("seedUsed", _is_int, "an integer"),
    ("eventIndex", _is_int, "an integer"),
)


def event_from_json(data: dict) -> LineageEvent:
    """The event that one JSON object of a log describes.

    A missing field, or one of the wrong JSON type, raises ``ValueError``
    naming the field; nothing is coerced.
    """
    if not isinstance(data, dict):
        raise ValueError("event must be a JSON object")
    for key, ok, what in _EVENT_FIELDS:
        _json_field(data, "event", key, ok, what)
    return _event(
        EventKind(data["kind"]),
        data["childId"],
        tuple(data["parentIds"]),
        parse_ordinal(data["childIntelligence"]),
        data["seedUsed"],
        data["eventIndex"],
    )


def config_from_json(data: dict) -> dict:
    """The :class:`LineageConfig` keyword arguments that a JSON config sets: an
    absent or null field is left out, so the library's default applies. A field
    of the wrong JSON type or range raises ``ValueError`` naming it."""
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")

    def field(obj: dict, key: str, kind: type, what: str, least: int | None = None):
        value = _json_field(obj, "config", key, lambda v: v is None or type(v) is kind, what)
        if value is not None and least is not None:
            _json_field(obj, "config", key, lambda v: v >= least, f"an int >= {least}")
        return value

    founders = field(data, "founders", list, "a list")
    if founders is not None:
        _json_field(data, "config", "founders", lambda v: all(type(t) is str for t in v),
                    "a list of strings")
        founders = tuple(map(parse_ordinal, founders))
    policy = field(data, "policy", str, "a string")
    if policy is not None:
        try:
            policy = parse_policy(policy)
        except ValueError as exc:
            raise ValueError(f"config field 'policy': {exc}") from None
    seed = field(data, "seed", int, "an integer")
    max_events = field(data, "maxEvents", int, "an integer", least=1)
    rule = field(data, "multiParentRule", dict, "an object")
    if rule is not None:
        bonus = field(rule, "bonus", str, "a string")
        rule = MultiParentRule(**_present(
            bonus=None if bonus is None else parse_ordinal(bonus),
            max_descent=field(rule, "maxDescent", int, "an integer", least=0),
        ))
    return _present(founder_intelligences=founders, policy=policy, rng_seed=seed,
                    max_events=max_events, multi_parent_rule=rule)


def _present(**fields) -> dict:
    """The fields that are set, that is not None."""
    return {key: value for key, value in fields.items() if value is not None}


# Each kind's line up to its childId value.
_LINE_HEAD = {kind: f'{{"kind":"{kind.value}","childId":' for kind in EventKind}


def event_log_text(log: Sequence[LineageEvent]) -> str:
    """JSON-lines text of ``log``: one compact JSON object per event, the
    bytes ``json.dumps(event_to_json(ev), separators=(",", ":"))`` gives.

    Each line is formatted directly. That is exact because an event's fields
    have their declared types (its constructor checks them): the ints are plain
    ``int``, and ordinal text uses only ``0-9 w ^ ( ) * +``, which JSON does
    not escape.
    """
    return "".join([
        f'{_LINE_HEAD[ev.kind]}{ev.child_id},"parentIds":[{",".join(map(str, ev.parent_ids))}],'
        f'"childIntelligence":"{format_ordinal(ev.child_intelligence)}",'
        f'"seedUsed":{ev.seed_used},"eventIndex":{ev.event_index}}}\n'
        for ev in log
    ])


def write_event_log(log: Sequence[LineageEvent], path: str | Path) -> None:
    Path(path).write_text(event_log_text(log), encoding="utf-8")


def read_event_log(path: str | Path) -> list[LineageEvent]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [event_from_json(json.loads(line)) for line in lines if line.strip()]
