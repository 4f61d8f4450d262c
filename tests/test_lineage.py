import dataclasses
import hashlib
import json
import random
import re

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from conftest import random_ordinal
from test_ordinals import ordinal_exprs
import ionkit.lineage
import ionkit.objlang
from ionkit.lineage import (
    Agent,
    AsexualOnly,
    DuplicateParentsError,
    EventKind,
    LineageConfig,
    LineageEvent,
    MixedEveryK,
    MultiParentRule,
    SterileAgentError,
    _agent,
    _event,
    asexual_create,
    chain_stats,
    config_from_json,
    event_from_json,
    event_log_text,
    event_to_json,
    multi_parent_create,
    nondeterministic_create,
    parse_policy,
    read_event_log,
    run_lineage,
    witness_notation,
    write_event_log,
)
from ionkit.notation import compile_ordinal
from ionkit.objlang import Fuel, evaluate, parse, serialize
from ionkit.ordinals import (
    ZERO,
    _format_terms,
    add,
    descend,
    descent_walk,
    format_ordinal,
    from_int,
    mul,
    natural_sum,
    parse_ordinal,
)


def o(text):
    return parse_ordinal(text)


def agent(intel, id=0):
    return Agent(id=id, intelligence=o(intel))


# ---------------------------------------------------------------------------
# creation operations
# ---------------------------------------------------------------------------

def test_asexual_successor_case():
    child, ev = asexual_create(agent("w+1"), picker=lambda a: 99, child_id=1)
    assert child.intelligence == o("w")
    assert ev.kind is EventKind.ASEXUAL
    assert ev.seed_used == -1  # no draw at successors
    assert child.parent_ids == (0,)
    assert child.generation == 1


def test_asexual_limit_uses_picker():
    child, ev = asexual_create(agent("w"), picker=lambda a: 4, child_id=1)
    assert child.intelligence == from_int(4)
    assert ev.seed_used == 4


def test_asexual_sterile_parent():
    with pytest.raises(SterileAgentError):
        asexual_create(agent("0"), picker=lambda a: 0, child_id=1)


def test_asexual_strict_decrease():
    for intel in ("1", "w", "w^2+3", "w^w*2"):
        child, _ = asexual_create(agent(intel), picker=lambda a: 7, child_id=1)
        assert child.intelligence < o(intel)


def test_nondeterministic_seeded_draw():
    child, ev = nondeterministic_create(agent("3"), 2, random.Random(1), child_id=8)
    assert child.intelligence == from_int(2)  # successor: every candidate is pred
    assert ev.kind is EventKind.NONDETERMINISTIC
    assert ev.seed_used == 1  # index drawn among k=2 candidates
    assert child.intelligence < from_int(3)


def test_nondeterministic_always_below_parent():
    for seed in range(20):
        child, _ = nondeterministic_create(agent("w+1"), 5, random.Random(seed), child_id=1)
        assert child.intelligence <= o("w")


def test_nondeterministic_sterile():
    with pytest.raises(SterileAgentError):
        nondeterministic_create(agent("0"), 3, random.Random(0), child_id=1)


def test_multi_parent_natural_sum_cap():
    p1, p2 = agent("3", 1), agent("5", 2)
    rule = MultiParentRule(bonus=ZERO, max_descent=0)
    child, ev = multi_parent_create((p1, p2), rule, random.Random(0), child_id=3)
    assert child.intelligence == from_int(8)  # 3 (+) 5, no descent
    assert child.intelligence > p1.intelligence
    assert child.intelligence > p2.intelligence
    assert ev.kind is EventKind.MULTI_PARENT
    assert ev.parent_ids == (1, 2)
    assert ev.seed_used == 0  # descent depth drawn


def test_multi_parent_no_forced_decrease():
    p1, p2 = agent("w", 1), agent("w", 2)
    rule = MultiParentRule(bonus=ZERO, max_descent=0)
    child, _ = multi_parent_create((p1, p2), rule, random.Random(0), child_id=3)
    assert child.intelligence >= o("w")


def test_multi_parent_default_bonus_exceeds_parents():
    p1, p2 = agent("w^2", 1), agent("w", 2)
    child, _ = multi_parent_create((p1, p2), MultiParentRule(), random.Random(3), child_id=3)
    assert child.intelligence <= o("w^2+w+w")  # cap = natural sum + default bonus w


def test_multi_parent_arity_errors():
    with pytest.raises(DuplicateParentsError):
        multi_parent_create((agent("3", 1),), MultiParentRule(), random.Random(0), child_id=2)
    with pytest.raises(DuplicateParentsError):
        multi_parent_create(
            (agent("3", 1), agent("5", 1)), MultiParentRule(), random.Random(0), child_id=2
        )


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------

def test_witness_outputs_equal_child_outputs():
    child = compile_ordinal(o("w"))
    w = witness_notation(child)
    for fuel in (Fuel(100, 1), Fuel(10**5, 10), Fuel(17, 3)):
        assert evaluate(w, fuel).outputs == evaluate(child, fuel).outputs


def test_witness_of_empty_program():
    w = witness_notation(parse("End"))
    assert evaluate(w, Fuel(10, 1)).outputs == ()


def test_witness_construction_runs_zero_evaluator_steps(monkeypatch):
    def bomb(*args, **kwargs):
        raise AssertionError("witness construction must not evaluate")

    monkeypatch.setattr(ionkit.objlang, "evaluate", bomb)
    monkeypatch.setattr(ionkit.lineage, "evaluate", bomb, raising=False)
    w = witness_notation(compile_ordinal(o("w^2")))
    assert serialize(w) == serialize(compile_ordinal(o("w^2")))


# ---------------------------------------------------------------------------
# simulation runs
# ---------------------------------------------------------------------------

def test_run_founder_two_forced_descent():
    cfg = LineageConfig(founder_intelligences=(from_int(2),), policy=AsexualOnly(), rng_seed=0)
    log = run_lineage(cfg)
    assert [e.kind for e in log] == [
        EventKind.FOUNDER, EventKind.ASEXUAL, EventKind.ASEXUAL, EventKind.STERILE,
    ]
    assert [format_ordinal(e.child_intelligence) for e in log[:3]] == ["2", "1", "0"]
    assert [e.event_index for e in log] == [0, 1, 2, 3]


def test_run_founder_omega_chain_length_matches_first_pick():
    cfg = LineageConfig(founder_intelligences=(o("w"),), policy=AsexualOnly(), rng_seed=0)
    log = run_lineage(cfg)
    first_pick = random.Random(0).randint(0, 16)
    stats = chain_stats(log)
    assert stats.total_agents == first_pick + 2  # founder, the pick, then forced descent
    assert log[-1].kind is EventKind.STERILE


def test_run_asexual_always_strictly_decreases():
    cfg = LineageConfig(
        founder_intelligences=(o("w^2+w"),), policy=AsexualOnly(), rng_seed=5,
        max_events=10**6,
    )
    log = run_lineage(cfg)
    intel = {}
    for ev in log:
        if ev.kind is EventKind.ASEXUAL:
            assert ev.child_intelligence < intel[ev.parent_ids[0]]
        intel[ev.child_id] = ev.child_intelligence
    assert log[-1].kind is EventKind.STERILE


def test_run_mixed_reaches_max_events():
    cfg = LineageConfig(
        founder_intelligences=(o("w"),), policy=MixedEveryK(3), rng_seed=42, max_events=100
    )
    log = run_lineage(cfg)
    kinds = [e.kind for e in log]
    assert len(log) == 101  # founder marker + 100 creation events
    assert kinds.count(EventKind.MULTI_PARENT) == 33
    assert kinds.count(EventKind.STERILE) == 0
    assert kinds.count(EventKind.ASEXUAL) == 67


def test_run_multi_parent_events_have_two_parents():
    cfg = LineageConfig(
        founder_intelligences=(o("w"), o("w^2")), policy=MixedEveryK(2), rng_seed=9,
        max_events=40,
    )
    for ev in run_lineage(cfg):
        if ev.kind is EventKind.MULTI_PARENT:
            assert len(ev.parent_ids) == 2
            assert len(set(ev.parent_ids)) == 2


def test_run_reproducible():
    cfg = LineageConfig(
        founder_intelligences=(o("w^2"),), policy=MixedEveryK(4), rng_seed=77, max_events=60
    )
    assert run_lineage(cfg) == run_lineage(cfg)


def test_run_generation_bookkeeping():
    cfg = LineageConfig(
        founder_intelligences=(o("w"), from_int(3)), policy=MixedEveryK(3), rng_seed=2,
        max_events=20,
    )
    log = run_lineage(cfg)
    gen = {}
    for ev in log:
        if ev.kind is EventKind.FOUNDER:
            gen[ev.child_id] = 0
        elif ev.kind in (EventKind.ASEXUAL, EventKind.NONDETERMINISTIC, EventKind.MULTI_PARENT):
            assert ev.child_id not in gen
            gen[ev.child_id] = 1 + max(gen[p] for p in ev.parent_ids)


def _reference_run_lineage(config):
    """The plain loop run_lineage must match: it re-sorts every agent per event."""
    rng = random.Random(config.rng_seed)
    events, agents = [], []
    for intel in config.founder_intelligences:
        agents.append(Agent(len(agents), intel))
        events.append(LineageEvent(EventKind.FOUNDER, len(events), (), intel, -1, len(events)))

    def picker(lam):
        return rng.randint(0, 16)

    def most_intelligent(pool, count):
        return sorted(pool, key=lambda ag: (ag.intelligence, ag.id), reverse=True)[:count]

    if isinstance(config.policy, AsexualOnly):
        current = agents[-1]
        while current.intelligence != ZERO and len(events) - len(agents) < config.max_events:
            current, event = asexual_create(current, picker, len(events), len(events))
            events.append(event)
        if current.intelligence == ZERO:
            events.append(LineageEvent(EventKind.STERILE, current.id, (), ZERO, -1, len(events)))
        return events
    for i in range(1, config.max_events + 1):
        fertile = [ag for ag in agents if ag.intelligence != ZERO]
        if len(agents) >= 2 and (i % config.policy.k == 0 or not fertile):
            child, event = multi_parent_create(
                most_intelligent(agents, 2), config.multi_parent_rule, rng,
                len(agents), len(events),
            )
        elif fertile:
            child, event = asexual_create(
                most_intelligent(fertile, 1)[0], picker, len(agents), len(events)
            )
        else:
            events.append(LineageEvent(EventKind.STERILE, 0, (), ZERO, -1, len(events)))
            return events
        agents.append(child)
        events.append(event)
    return events


def test_run_matches_reference_loop():
    configs = [
        LineageConfig(tuple(o(f) for f in founders), policy, seed, max_events, rule)
        for founders, policy, seed, max_events, rule in EDGE_RUNS
    ]
    rng = random.Random(20260825)
    for _ in range(200):
        founders = tuple(
            ZERO if rng.random() < 0.3 else random_ordinal(rng, 2)
            for _ in range(rng.randint(1, 4))
        )
        policy = AsexualOnly() if rng.random() < 0.3 else MixedEveryK(rng.randint(1, 4))
        rule = MultiParentRule(random_ordinal(rng, 1), rng.randint(0, 4))
        configs.append(
            LineageConfig(founders, policy, rng.randrange(10**6), rng.randint(1, 100), rule)
        )
    for cfg in configs:
        assert run_lineage(cfg) == _reference_run_lineage(cfg), cfg


# Small ordinals, 0 among them, make ties likely: a multi-parent child of a
# parent 0 with bonus 0 that does not descend equals the best agent.
_small_ordinals = st.sampled_from([ZERO, from_int(1), from_int(2), o("w")])
lineage_configs = st.builds(
    LineageConfig,
    st.lists(st.one_of(_small_ordinals, ordinal_exprs), min_size=1, max_size=4).map(tuple),
    st.one_of(st.just(AsexualOnly()), st.integers(1, 5).map(MixedEveryK)),
    st.integers(0, 2**32),
    st.integers(1, 80),
    st.builds(MultiParentRule, st.one_of(_small_ordinals, ordinal_exprs), st.integers(0, 4)),
)


@hyp.given(lineage_configs)
def test_run_matches_reference_loop_on_hypothesis_configs(cfg):
    log = run_lineage(cfg)
    assert log == _reference_run_lineage(cfg)
    # the log text, encoded afresh by json.dumps, and the series chain_stats formats
    assert event_log_text(log) == "".join(
        json.dumps(event_to_json(ev), separators=(",", ":")) + "\n" for ev in log
    )
    assert chain_stats(log).intelligence_time_series == tuple(
        (ev.event_index, _format_terms(ev.child_intelligence.terms))
        for ev in log if ev.kind is not EventKind.STERILE
    )


def test_config_validation():
    with pytest.raises(ValueError):
        LineageConfig(founder_intelligences=(), policy=AsexualOnly())
    with pytest.raises(ValueError):
        LineageConfig(founder_intelligences=(ZERO,), policy=AsexualOnly(), max_events=0)
    with pytest.raises(ValueError):
        MixedEveryK(0)


@pytest.mark.parametrize("make, message", [
    (lambda: LineageConfig((o("w"),), policy="mixed:3", max_events=5),
     "policy must be AsexualOnly() or MixedEveryK(k)"),
    (lambda: LineageConfig((o("w"),), policy=MixedEveryK),
     "policy must be AsexualOnly() or MixedEveryK(k)"),
    (lambda: LineageConfig((o("w"), 3)), "founder intelligences must be Ordinals"),
    (lambda: LineageConfig(("w",)), "founder intelligences must be Ordinals"),
    (lambda: LineageConfig((o("w"),), multi_parent_rule=None),
     "multi_parent_rule must be a MultiParentRule"),
    (lambda: MultiParentRule(bonus=1), "bonus must be an Ordinal"),
    (lambda: MultiParentRule(bonus="w"), "bonus must be an Ordinal"),
    (lambda: LineageConfig((o("w"),), rng_seed=None), "rng_seed must be an int"),
    (lambda: LineageConfig((o("w"),), rng_seed=True), "rng_seed must be an int"),
    (lambda: LineageConfig((o("w"),), rng_seed=1.0), "rng_seed must be an int"),
], ids=["policy-str", "policy-class", "founder-int", "founder-str", "rule-none",
        "bonus-int", "bonus-str", "seed-none", "seed-bool", "seed-float"])
def test_config_refuses_a_mistyped_field(make, message):
    # A str policy used to run as AsexualOnly, and a founder 3 or a bonus 1
    # failed only in the middle of the run. A None seed drew from the OS, so
    # one config gave a new log on every run, and True ran as seed 1.
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: LineageConfig((o("w"),), max_events=2.5), "max_events must be an int >= 1"),
    (lambda: LineageConfig((o("w"),), max_events=True), "max_events must be an int >= 1"),
    (lambda: MultiParentRule(max_descent=2.5), "max_descent must be an int >= 0"),
    (lambda: MultiParentRule(max_descent=False), "max_descent must be an int >= 0"),
    (lambda: MixedEveryK(True), "k must be an int >= 1"),
    (lambda: MixedEveryK(2.0), "k must be an int >= 1"),
    (lambda: nondeterministic_create(agent("w"), 2.5, random.Random(0), 1),
     "k must be an int >= 1"),
], ids=["max_events-float", "max_events-bool", "max_descent-float", "max_descent-bool",
        "k-bool", "k-float", "nondeterministic-k-float"])
def test_counts_must_be_ints(make, message):
    # A bool or float used to be accepted, or to fail later inside range or randrange.
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


# ---------------------------------------------------------------------------
# statistics and persistence
# ---------------------------------------------------------------------------

def test_chain_stats_empty():
    s = chain_stats(())
    assert (s.total_agents, s.multi_parent_count, s.max_asexual_run_length) == (0, 0, 0)
    assert s.intelligence_time_series == ()


def test_chain_stats_founder_two():
    cfg = LineageConfig(founder_intelligences=(from_int(2),), policy=AsexualOnly(), rng_seed=0)
    s = chain_stats(run_lineage(cfg))
    assert s.max_asexual_run_length == 2
    assert s.total_agents == 3
    assert s.multi_parent_count == 0
    assert s.intelligence_time_series == ((0, "2"), (1, "1"), (2, "0"))


def test_chain_stats_multi_parent_resets_run():
    cfg = LineageConfig(
        founder_intelligences=(o("w"),), policy=MixedEveryK(3), rng_seed=42, max_events=30
    )
    log = run_lineage(cfg)
    s = chain_stats(log)
    assert s.multi_parent_count == len([e for e in log if e.kind is EventKind.MULTI_PARENT])
    assert s.max_asexual_run_length <= 2  # every third event interrupts the run


def test_event_json_roundtrip():
    ev = LineageEvent(
        kind=EventKind.MULTI_PARENT,
        child_id=7,
        parent_ids=(2, 5),
        child_intelligence=o("w^2+1"),
        seed_used=3,
        event_index=11,
    )
    d = event_to_json(ev)
    assert d == {
        "kind": "multiparent",
        "childId": 7,
        "parentIds": [2, 5],
        "childIntelligence": "w^2+1",
        "seedUsed": 3,
        "eventIndex": 11,
    }
    assert event_from_json(d) == ev


_GOOD_EVENT = {
    "kind": "multiparent", "childId": 7, "parentIds": [2, 5],
    "childIntelligence": "w^2+1", "seedUsed": 3, "eventIndex": 11,
}


@pytest.mark.parametrize("field, value, what", [
    ("childId", 5.9, "an integer"),          # used to read as 5
    ("childId", 7.0, "an integer"),
    ("childId", True, "an integer"),
    ("childId", "7", "an integer"),
    ("parentIds", [True], "a list of integers"),  # used to read as (1,)
    ("parentIds", [2, 5.0], "a list of integers"),
    ("parentIds", "25", "a list of integers"),
    ("parentIds", {"2": 5}, "a list of integers"),
    ("seedUsed", "3", "an integer"),         # used to read as 3
    ("seedUsed", None, "an integer"),
    ("eventIndex", False, "an integer"),
    ("childIntelligence", 5, "a string"),    # used to raise a bare TypeError
    ("childIntelligence", ["w"], "a string"),
    ("kind", 5, "one of 'founder', 'asexual', 'nondeterministic', 'multiparent', 'sterile'"),
    ("kind", "Founder", "one of 'founder', 'asexual', 'nondeterministic', 'multiparent', 'sterile'"),
])
def test_event_from_json_refuses_wrong_json_types(field, value, what):
    data = dict(_GOOD_EVENT, **{field: value})
    with pytest.raises(ValueError) as info:
        event_from_json(data)
    assert str(info.value) == f"event field {field!r} must be {what}"


@pytest.mark.parametrize("field", list(_GOOD_EVENT))
def test_event_from_json_refuses_a_missing_field(field):
    data = {k: v for k, v in _GOOD_EVENT.items() if k != field}
    with pytest.raises(ValueError, match=f"^event field {field!r} must be "):
        event_from_json(data)


def test_event_from_json_refuses_a_non_object(tmp_path):
    for data in ([1, 2], "x", 5, None):
        with pytest.raises(ValueError, match="^event must be a JSON object$"):
            event_from_json(data)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_GOOD_EVENT) + "\n" + json.dumps(dict(_GOOD_EVENT, childId=5.9)) + "\n")
    with pytest.raises(ValueError, match="childId"):
        read_event_log(path)


def test_event_from_json_keeps_valid_values():
    ev = event_from_json(dict(_GOOD_EVENT))
    assert ev == LineageEvent(EventKind.MULTI_PARENT, 7, (2, 5), o("w^2+1"), 3, 11)
    assert type(ev.child_id) is int and type(ev.parent_ids) is tuple
    assert event_to_json(ev) == _GOOD_EVENT


def test_event_log_file_roundtrip(tmp_path):
    cfg = LineageConfig(
        founder_intelligences=(o("w"),), policy=MixedEveryK(3), rng_seed=1, max_events=25
    )
    log = run_lineage(cfg)
    path = tmp_path / "run.jsonl"
    write_event_log(log, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(log)
    for line in lines:
        json.loads(line)  # one JSON object per line
    assert read_event_log(path) == log


# ---------------------------------------------------------------------------
# golden outputs: which RNG draws each descent path takes, and in what order
#
# Two runs of the same code always agree, so only pinned digests catch a
# change in draw order: asexual creation and descent walks call the picker at
# limits only, while multi-parent and nondeterministic creation draw on every
# step, successors included.
# ---------------------------------------------------------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


GOLDEN_RUNS = [
    (("w^2+w*3+2",), AsexualOnly(), 0, 200),
    (("w^3",), AsexualOnly(), 1, 200),
    (("w^(w+1)*2+3",), AsexualOnly(), 2, 200),
    (("w*5+1",), AsexualOnly(), 3, 10**6),
    (("w", "w*2"), MixedEveryK(3), 0, 60),
    (("w", "w*2"), MixedEveryK(3), 7, 60),
    (("w^2",), MixedEveryK(4), 123, 80),
    (("w^w", "3"), MixedEveryK(4), 5, 80),
]
GOLDEN_RUNS_SHA256 = "e1430f9eaa23e3762c729df19cac5246d4d9be07aed908cbed6612aea5ae7c5a"


def golden_logs(runs, tmp_path) -> tuple[list, bytes]:
    """Run each row of ``runs`` (GOLDEN_RUNS or EDGE_RUNS): the event logs and
    the bytes written for them."""
    logs, data = [], b""
    for i, (founders, policy, seed, max_events, *rule) in enumerate(runs):
        cfg = LineageConfig(
            founder_intelligences=tuple(o(f) for f in founders), policy=policy,
            rng_seed=seed, max_events=max_events,
            multi_parent_rule=rule[0] if rule else MultiParentRule(),
        )
        logs.append(run_lineage(cfg))
        path = tmp_path / f"run{i}.jsonl"
        write_event_log(logs[-1], path)
        data += path.read_bytes()
    return logs, data


def test_golden_event_logs(tmp_path):
    assert _sha(golden_logs(GOLDEN_RUNS, tmp_path)[1]) == GOLDEN_RUNS_SHA256


EDGE_RUNS = [
    (("0",), AsexualOnly(), 0, 5, MultiParentRule()),  # sterile founder
    (("0",), MixedEveryK(1), 3, 5, MultiParentRule()),  # no creation is possible
    (("0", "0"), MixedEveryK(3), 1, 8, MultiParentRule(ZERO, 2)),  # zero founders
    (("0", "w", "0"), MixedEveryK(2), 4, 12, MultiParentRule(from_int(1), 3)),
    (("w", "2"), MixedEveryK(1), 4, 30, MultiParentRule()),  # k=1
    (("1", "2"), MixedEveryK(2), 6, 5, MultiParentRule()),  # ends at 0, no marker
    (("2",), AsexualOnly(), 0, 2, MultiParentRule()),  # cap reached on the event that hits 0
    (("1",), AsexualOnly(), 0, 1, MultiParentRule()),
    (("w",), AsexualOnly(), 0, 1, MultiParentRule()),  # cap reached above 0
]
EDGE_RUNS_SHA256 = "a4ade7a711f157f61769d781ba0a8fc519bff4f03c5a970c06c1c06161d74b67"


def test_golden_edge_event_logs(tmp_path):
    assert _sha(golden_logs(EDGE_RUNS, tmp_path)[1]) == EDGE_RUNS_SHA256


def test_golden_nondeterministic_draws():
    parents = ("7", "w", "w+1", "w^2+w*2", "w^w+3")
    lines = []
    for seed in range(50):
        parent = agent(parents[seed % len(parents)])
        child, ev = nondeterministic_create(parent, 3, random.Random(seed), child_id=1)
        lines.append(f"{format_ordinal(child.intelligence)} {ev.seed_used}\n")
    assert _sha("".join(lines).encode()) == "f65dbccc4cceae2a438fdece1ce41e1ad7dbad9435e69cc956af4e849600a5b2"


def test_golden_descent_walks():
    lines = []
    for seed in range(20):
        picks = random.Random(seed)
        start = random_ordinal(random.Random(seed), 3)
        walk = descent_walk(start, lambda a: picks.randint(0, 2), max_len=10**6)
        lines.append(" ".join(format_ordinal(x) for x in walk) + "\n")
    assert _sha("".join(lines).encode()) == "e4a9f851d7878b1aae5bb255a8b2151de7e2d338cbfd69782e5677048e4677b1"


def test_config_from_json_returns_only_the_fields_a_config_sets():
    # absent and null fields are left out, so LineageConfig's defaults apply
    assert config_from_json({}) == {}
    assert config_from_json({"seed": None, "policy": None, "multiParentRule": {"bonus": None}}) == {
        "multi_parent_rule": MultiParentRule()
    }
    assert config_from_json({
        "founders": ["w", "3"], "policy": "mixed:2", "seed": 5, "maxEvents": 7,
        "multiParentRule": {"bonus": "w^2", "maxDescent": 1},
    }) == {
        "founder_intelligences": (o("w"), o("3")), "policy": MixedEveryK(2), "rng_seed": 5,
        "max_events": 7, "multi_parent_rule": MultiParentRule(o("w^2"), 1),
    }
    assert parse_policy("asexual") == AsexualOnly()


# ---------------------------------------------------------------------------
# typed events: the log's formatted lines, the private constructors, and the
# multi-parent child built on terms
# ---------------------------------------------------------------------------

def _dumps_log(log) -> str:
    """The log text that json.dumps gives, the reference event_log_text must match."""
    return "".join(json.dumps(event_to_json(ev), separators=(",", ":")) + "\n" for ev in log)


def test_event_log_text_matches_json_dumps_on_every_golden_log(tmp_path):
    for runs in (GOLDEN_RUNS, EDGE_RUNS):
        for log in golden_logs(runs, tmp_path)[0]:
            assert event_log_text(log) == _dumps_log(log)


# Ids past 2**64 and -1 among them; coefficients past 2**64 in the intelligences.
_event_ints = st.one_of(st.just(-1), st.integers(0, 5), st.integers(-(2**70), 2**80))
_big_ordinals = st.builds(
    lambda a, c, d: add(mul(a, from_int(c)), from_int(d)),
    ordinal_exprs, st.integers(1, 2**70), st.integers(0, 2**70),
)
_event_fields = st.tuples(
    st.sampled_from(EventKind), _event_ints, st.lists(_event_ints, max_size=3).map(tuple),
    st.one_of(ordinal_exprs, _big_ordinals), _event_ints, _event_ints,
)


@hyp.given(st.lists(_event_fields.map(lambda f: LineageEvent(*f)), max_size=4))
def test_event_log_text_matches_json_dumps_on_hypothesis_events(log):
    text = event_log_text(log)
    assert text == _dumps_log(log)
    assert [event_from_json(json.loads(line)) for line in text.splitlines()] == log


def _same_object_behaviour(private, public):
    assert type(private) is type(public)
    assert private == public and hash(private) == hash(public)
    assert repr(private) == repr(public)
    for obj in (private, public):
        for field in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, getattr(obj, field.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, field.name)


@hyp.given(_event_fields)
def test_private_event_constructor_matches_the_public_one(fields):
    _same_object_behaviour(_event(*fields), LineageEvent(*fields))


@hyp.given(_event_ints, ordinal_exprs, st.lists(_event_ints, max_size=3).map(tuple), _event_ints)
def test_private_agent_constructor_matches_the_public_one(id, intel, parent_ids, generation):
    _same_object_behaviour(
        _agent(id, intel, parent_ids, generation), Agent(id, intel, parent_ids, generation)
    )
    assert _agent(id, intel, (), 0) == Agent(id, intel)


_EVENT_ARGS = dict(kind=EventKind.ASEXUAL, child_id=1, parent_ids=(0,),
                   child_intelligence=ZERO, seed_used=-1, event_index=1)


@pytest.mark.parametrize("field, value, message", [
    ("child_id", True, "child_id, seed_used and event_index must be ints"),
    ("event_index", 1.0, "child_id, seed_used and event_index must be ints"),
    ("parent_ids", [0], "parent_ids must be a tuple of ints"),
    ("parent_ids", (False,), "parent_ids must be a tuple of ints"),
    ("seed_used", 3.0, "child_id, seed_used and event_index must be ints"),
    ("kind", "asexual", "kind must be an EventKind"),
    ("child_intelligence", "w", "child_intelligence must be an Ordinal"),
])
def test_event_refuses_a_mistyped_field(field, value, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        LineageEvent(**dict(_EVENT_ARGS, **{field: value}))


@pytest.mark.parametrize("create", [
    lambda parent, **ids: asexual_create(parent, lambda lam: 0, **ids),
    lambda parent, **ids: nondeterministic_create(parent, 2, random.Random(0), **ids),
    lambda parent, **ids: multi_parent_create(
        (parent, agent("w", 9)), MultiParentRule(), random.Random(0), **ids
    ),
], ids=["asexual", "nondeterministic", "multi_parent"])
@pytest.mark.parametrize("parent_id, child_id, event_index", [
    (True, 1, 1), (0, 1.0, 1), (0, 1, False),
])
def test_creations_refuse_ids_that_are_not_ints(create, parent_id, child_id, event_index):
    # An event holds only plain ints, so its JSON line is exact.
    with pytest.raises(TypeError, match="^child_id, event_index and parent ids must be ints$"):
        create(agent("w", parent_id), child_id=child_id, event_index=event_index)


def test_multi_parent_create_refuses_an_intelligence_that_is_not_an_ordinal():
    # Its terms would reach the intern table unchecked.
    duck = type("Duck", (), {"terms": ((ZERO, 1), (o("w"), 1))})()
    for parents, rule in [
        ((Agent(0, duck), agent("w", 1)), MultiParentRule()),
        ((agent("w", 0), agent("w", 1)), dataclasses.replace(MultiParentRule(), max_descent=0)),
    ]:
        if parents[0].intelligence is not duck:
            object.__setattr__(rule, "bonus", duck)
        with pytest.raises(TypeError, match="^parent intelligences and the bonus must be Ordinals$"):
            multi_parent_create(parents, rule, random.Random(0), child_id=2)


def _reference_multi_parent_child(parents, rule, rng):
    """The child and draw multi_parent_create made before it worked on terms:
    a natural_sum fold, add, then one descend per step."""
    cap = ZERO
    for p in parents:
        cap = natural_sum(cap, p.intelligence)
    cap = add(cap, rule.bonus)
    m = rng.randint(0, rule.max_descent)
    child = cap
    for _ in range(m):
        if child == ZERO:
            break
        n = rng.randint(0, 16)
        child = descend(child, lambda lam: n)[0]
    return child, m


@hyp.given(
    st.lists(st.one_of(_small_ordinals, ordinal_exprs), min_size=2, max_size=4),
    st.builds(MultiParentRule, st.one_of(_small_ordinals, ordinal_exprs), st.integers(0, 12)),
    st.integers(0, 2**64),
)
def test_multi_parent_create_matches_the_ordinal_chain(intels, rule, seed):
    parents = [Agent(i, a, (), i) for i, a in enumerate(intels)]
    rng, reference_rng = random.Random(seed), random.Random(seed)
    want, m = _reference_multi_parent_child(parents, rule, reference_rng)
    child, ev = multi_parent_create(parents, rule, rng, len(parents), 7)
    assert child.intelligence is want and ev.child_intelligence is want
    assert ev.seed_used == m
    assert child == Agent(len(parents), want, tuple(range(len(parents))), len(parents))
    assert rng.getstate() == reference_rng.getstate()
