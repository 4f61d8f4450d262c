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
    add,
    descend,
    format_ordinal,
    fundamental_sequence,  # unused here; perfbench's tracer test looks up this binding
    natural_sum,
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
    "LineageConfig",
    "asexual_create",
    "nondeterministic_create",
    "multi_parent_create",
    "witness_notation",
    "run_lineage",
    "ChainStats",
    "chain_stats",
    "event_to_json",
    "event_from_json",
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


@dataclass(frozen=True, slots=True)
class LineageEvent:
    kind: EventKind
    child_id: int
    parent_ids: tuple[int, ...]
    child_intelligence: Ordinal
    seed_used: int
    event_index: int


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
        if self.max_descent < 0:
            raise ValueError("max_descent must be >= 0")


@dataclass(frozen=True, slots=True)
class AsexualOnly:
    pass


@dataclass(frozen=True, slots=True)
class MixedEveryK:
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


Policy = Union[AsexualOnly, MixedEveryK]


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
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")


# ---------------------------------------------------------------------------
# creation operations
# ---------------------------------------------------------------------------

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
    intel = parent.intelligence
    if intel == ZERO:
        raise SterileAgentError(f"agent {parent.id} has intelligence 0")
    child_intel, seed_used = descend(intel, picker)
    assert child_intel < intel  # single-parent descent is structural
    child = Agent(child_id, child_intel, (parent.id,), parent.generation + 1)
    event = LineageEvent(
        EventKind.ASEXUAL, child_id, (parent.id,), child_intel, seed_used, event_index
    )
    return child, event


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
    intel = parent.intelligence
    if intel == ZERO:
        raise SterileAgentError(f"agent {parent.id} has intelligence 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = []
    for _ in range(k):
        # One draw per candidate even at a successor, where it goes unused:
        # the draw order is part of every reproducible log.
        n = rng.randint(0, 16)
        candidates.append(descend(intel, lambda lam: n)[0])
    seed_used = rng.randrange(k)
    child_intel = candidates[seed_used]
    assert child_intel < intel
    child = Agent(child_id, child_intel, (parent.id,), parent.generation + 1)
    event = LineageEvent(
        EventKind.NONDETERMINISTIC,
        child_id,
        (parent.id,),
        child_intel,
        seed_used,
        event_index,
    )
    return child, event


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
    ids = [p.id for p in parents]
    if len(ids) < 2:
        raise DuplicateParentsError("multi-parent creation needs >= 2 parents")
    if len(set(ids)) != len(ids):
        raise DuplicateParentsError(f"parent ids repeat: {sorted(ids)}")
    cap = ZERO
    for p in parents:
        cap = natural_sum(cap, p.intelligence)
    cap = add(cap, rule.bonus)
    m = rng.randint(0, rule.max_descent)
    child_intel = cap
    for _ in range(m):
        if child_intel == ZERO:
            break
        n = rng.randint(0, 16)  # one draw per step, as in nondeterministic_create
        child_intel = descend(child_intel, lambda lam: n)[0]
    generation = 1 + max(p.generation for p in parents)
    child = Agent(child_id, child_intel, tuple(ids), generation)
    event = LineageEvent(
        EventKind.MULTI_PARENT, child_id, tuple(ids), child_intel, m, event_index
    )
    return child, event


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

def _most_intelligent(agents: list[Agent], count: int) -> list[Agent]:
    # Ties break toward the higher (newer) id.
    return sorted(agents, key=lambda ag: (ag.intelligence, ag.id), reverse=True)[:count]


def run_lineage(config: LineageConfig) -> list[LineageEvent]:
    """Run a seeded simulation; equal configs give identical logs.

    AsexualOnly: repeatedly create from the latest agent until it is sterile;
    descent makes this terminate, and the log ends with a sterile marker.
    MixedEveryK(k): every k-th creation event (1-based) is a multi-parent
    event over the two most intelligent agents; other events create from the
    most intelligent agent with nonzero intelligence, so the run always
    reaches max_events.
    """
    rng = random.Random(config.rng_seed)
    events: list[LineageEvent] = []
    agents: list[Agent] = []
    index = 0
    for intel in config.founder_intelligences:
        agent = Agent(len(agents), intel)
        agents.append(agent)
        events.append(LineageEvent(EventKind.FOUNDER, agent.id, (), intel, -1, index))
        index += 1

    def picker(lam: Ordinal) -> int:
        return rng.randint(0, 16)

    if isinstance(config.policy, AsexualOnly):
        current = agents[-1]
        created = 0
        while True:
            if current.intelligence == ZERO:
                events.append(
                    LineageEvent(
                        EventKind.STERILE, current.id, (), ZERO, -1, index
                    )
                )
                break
            if created >= config.max_events:
                break  # caller's cap; descent would still have ended the run
            child, event = asexual_create(current, picker, len(agents), index)
            agents.append(child)
            events.append(event)
            index += 1
            created += 1
            current = child
        return events

    k = config.policy.k
    for i in range(1, config.max_events + 1):
        fertile = [ag for ag in agents if ag.intelligence != ZERO]
        if len(agents) >= 2 and (i % k == 0 or not fertile):
            parents = _most_intelligent(agents, 2)
            child, event = multi_parent_create(
                parents, config.multi_parent_rule, rng, len(agents), index
            )
        elif fertile:
            parent = _most_intelligent(fertile, 1)[0]
            child, event = asexual_create(parent, picker, len(agents), index)
        else:
            events.append(LineageEvent(EventKind.STERILE, agents[0].id, (), ZERO, -1, index))
            return events
        agents.append(child)
        events.append(event)
        index += 1
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


def event_from_json(data: dict) -> LineageEvent:
    return LineageEvent(
        EventKind(data["kind"]),
        int(data["childId"]),
        tuple(int(x) for x in data["parentIds"]),
        parse_ordinal(data["childIntelligence"]),
        int(data["seedUsed"]),
        int(data["eventIndex"]),
    )


def write_event_log(log: Sequence[LineageEvent], path: str | Path) -> None:
    Path(path).write_text(
        "".join(json.dumps(event_to_json(ev), separators=(",", ":")) + "\n" for ev in log),
        encoding="utf-8",
    )


def read_event_log(path: str | Path) -> list[LineageEvent]:
    out: list[LineageEvent] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            out.append(event_from_json(json.loads(line)))
    return out
