"""The four benchmark workloads: seeded inputs, one item at a time, checked.

Each workload has ``iter_inputs(ik, seed, tmp)``, which yields the items one
by one from the seed alone (``make_inputs`` collects them into the item list),
and ``run_item(ik, item, ctx)``, which does one item's
work, raises :class:`CheckFailed` if an output breaks a contract, and returns
the parts that go into the run's output digest. ``ik`` is the freshly imported
``ionkit`` package; every call goes through a module attribute
(``ik.objlang.evaluate``) so that the tracer, when installed, sees it.

Inputs come from the acceptance suite's ordinal generator. Sweep and verify
draw from it in fixed shares of item classes (see :func:`corpus`), so runs with
different seeds do the same kinds of work in the same proportions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path


class CheckFailed(Exception):
    """An item's output broke one of the contracts the benchmark checks."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def enc(a) -> str:
    """Structural encoding of an ordinal, independent of the library's formatter."""
    return "[" + ",".join(f"({enc(e)},{c})" for e, c in a.terms) + "]"


# ---------------------------------------------------------------------------
# ordinal generation
# ---------------------------------------------------------------------------

def random_ordinal(ik, rng: random.Random, max_depth: int):
    """The acceptance suite's generator: <= 3 terms per level, coefficients 1..5."""
    if max_depth == 0 or rng.random() < 0.25:
        return ik.ordinals.from_int(rng.randint(0, 5))
    exps = {random_ordinal(ik, rng, max_depth - 1) for _ in range(rng.randint(1, 3))}
    terms = tuple((e, rng.randint(1, 5)) for e in sorted(exps, reverse=True))
    return ik.ordinals.Ordinal(terms)


def nesting(a) -> int:
    """Exponent nesting depth, computed here so input generation leaves the
    library's depth cache alone."""
    return 1 + max(nesting(e) for e, _ in a.terms) if a.terms else 0


def wraps(ik, a) -> int:
    """Quoting wraps in a's source: finite part plus the coefficient of w."""
    o = ik.ordinals
    return sum(c for e, c in a.terms if e == o.ZERO or e == o.ONE)


def item_class(ik, a) -> str:
    """Class of a corpus ordinal by the shape of its compiled program.

    ``driver``: a limit compiled to the universal driver whose members carry no
    quoting wraps. ``wstep``: last exponent 2, so member n ends in w*n and is
    re-quoted n times. ``a0``: base + w, run by the A0 escape loop. ``other``:
    zero or a successor.
    """
    o = ik.ordinals
    if o.classify(a) is not o.Kind.LIMIT:
        return "other" if wraps(ik, a) <= 5 else "skip"
    exp, coeff = a.terms[-1]
    if exp == o.ONE:
        return "a0" if coeff == 1 else "skip"
    if exp == o.from_int(2):
        return "wstep"
    return "driver"


# One block of ten corpus items. The shares follow the acceptance corpus
# (three in four ordinals are limits, most of them driver programs), minus the
# ordinals whose sources need more than five nested quoting wraps: their cost
# doubles with every wrap, so a handful of them would decide a whole run.
CORPUS_BLOCK = ("driver", "driver", "other", "driver", "wstep",
                "driver", "driver", "other", "driver", "a0")


def corpus(ik, rng: random.Random, n: int):
    pending: dict[str, list] = {k: [] for k in set(CORPUS_BLOCK)}
    for i in range(n):
        want = CORPUS_BLOCK[i % len(CORPUS_BLOCK)]
        while not pending[want]:
            a = random_ordinal(ik, rng, 3)
            cls = item_class(ik, a)
            if cls in pending:
                pending[cls].append(a)
        yield pending[want].pop(0)


class Workload:
    def make_inputs(self, ik, seed, tmp) -> list:
        return list(self.iter_inputs(ik, seed, tmp))


# ---------------------------------------------------------------------------
# sweep: compile, decompile, run a limit for 5 outputs, byte-compare
# ---------------------------------------------------------------------------

class Sweep(Workload):
    name = "sweep"
    # Corpus items made per run; a 25 s run at about 8 items/s uses near 250,
    # and a run that outgrows the list goes round it again.
    pool = 1200
    fixed_items = 40

    def iter_inputs(self, ik, seed, tmp):
        return corpus(ik, random.Random(seed), self.pool)

    def run_item(self, ik, a, ctx):
        notation, ordinals = ik.notation, ik.ordinals
        src = notation.source_of(a)
        p = notation.compile_ordinal(a)
        check(notation.decompile(p) == a, "decompile(compile_ordinal(a)) != a")
        parts = [src]
        if ordinals.classify(a) is ordinals.Kind.LIMIT:
            tr = ik.objlang.evaluate(p, ik.objlang.Fuel(10**7, 5))
            check(len(tr.outputs) == 5, "limit program printed fewer than 5 outputs")
            for n, out in enumerate(tr.outputs):
                check(out == notation.source_of(ordinals.fundamental_sequence(a, n)),
                      f"output {n} != source_of(a[{n}])")
            parts += [tr.outputs, tr.status.value, tr.steps_used]
        return parts


# ---------------------------------------------------------------------------
# verify: verify / value_lower_bound calls up a fuel ladder, plus mutants
# ---------------------------------------------------------------------------

FUEL_LADDER = ((800, 2), (3000, 3), (7000, 3), (12000, 4), (30000, 4))
VERIFY_DEPTH = 4
MUTANT_FUEL = (20000, 8)
MUTANT_DEPTH = 3
# Call j is CALLS[j % 13]: verify and value at each rung, and three mutants.
# With these shares the median call lies inside the 3000-step rung's group
# rather than on the edge between two rungs of different cost.
CALLS = (tuple((op, fuel) for op in ("verify", "value") for fuel in FUEL_LADDER)
         + ("mutant",) * 3)


class Verify(Workload):
    name = "verify"
    # One call per corpus ordinal, so a run's cost averages over as many
    # ordinals as it makes calls.
    pool = 1500
    fixed_items = 400

    def iter_inputs(self, ik, seed, tmp):
        n = ik.notation
        for j, a in enumerate(corpus(ik, random.Random(seed), self.pool)):
            call = CALLS[j % len(CALLS)]
            if call == "mutant":
                yield self._mutant(ik, a, j)
            else:
                yield (call[0], a, n.compile_ordinal(a), call[1])

    @staticmethod
    def _mutant(ik, a, k):
        """Mutant k: a program printing j genuine members of a, then a bad output."""
        o, n, ol = ik.ordinals, ik.notation, ik.objlang
        j = (k // 3) % 3 if o.classify(a) is o.Kind.LIMIT else 0
        prefix = tuple(ol.Print(ol.Literal(n.source_of(o.fundamental_sequence(a, m))))
                       for m in range(j))
        kind = ("non-program", "child-error", "top-error")[k % 3]
        if kind == "non-program":
            bad, path = ol.Print(ol.Literal("### not a program ###")), (j,)
        elif kind == "child-error":
            bad, path = ol.Print(ol.Literal("Print(Head(''));End")), (j,)
        else:
            bad, path = ol.Print(ol.Head(ol.Literal(""))), ()
        return ("mutant", a, ol.Program(prefix + (bad,)), path)

    def run_item(self, ik, item, ctx):
        n, ol = ik.notation, ik.objlang
        kind, a, p, extra = item
        if kind == "value":
            bound, refuted = n.value_lower_bound(p, ol.Fuel(*extra), VERIFY_DEPTH)
            check(not refuted, "genuine program refuted by value_lower_bound")
            check(bound <= a, "value bound above the program's ordinal")
            return [kind, enc(bound)]
        if kind == "verify":
            r = n.verify(p, ol.Fuel(*extra), VERIFY_DEPTH)
            check(not isinstance(r.verdict, n.Refuted), "genuine program Refuted")
        else:
            r = n.verify(p, ol.Fuel(*MUTANT_FUEL), MUTANT_DEPTH)
            check(isinstance(r.verdict, n.Refuted), "mutant not Refuted")
            check(r.verdict.path == extra, f"mutant refuted at {r.verdict.path}, not {extra}")
        v = r.verdict
        ctx.verify_calls += 1
        parts = [kind, type(v).__name__]
        if isinstance(v, n.ProvenMember):
            ctx.decided += 1
            check(v.exact_value is None or v.exact_value == a,
                  "ProvenMember exact value differs from the compiled ordinal")
            parts.append(enc(v.exact_value) if v.exact_value is not None else "-")
        elif isinstance(v, n.Refuted):
            ctx.decided += 1
            parts.append(v.path)
        s = r.fuel_spent
        parts += [s.steps, s.outputs, s.evaluations]
        return parts


# ---------------------------------------------------------------------------
# descent: walks, hydras, sterile asexual lineages, mixed lineages with logs
# ---------------------------------------------------------------------------

def hydra_shapes(max_nodes: int) -> list[str]:
    """Every rooted ordered tree with at most ``max_nodes`` nodes, as parens."""
    def trees(n):
        return ["(" + f + ")" for f in forests(n - 1)]

    def forests(n):
        if n == 0:
            return [""]
        return [t + rest for first in range(1, n + 1)
                for t in trees(first) for rest in forests(n - first)]

    return [s for n in range(1, max_nodes + 1) for s in trees(n)]


def weight(a, scale: int = 1) -> int:
    """Sum over every term of its coefficient times those of the terms above it."""
    return sum(c * scale + weight(e, c * scale) for e, c in a.terms)


WALK_WEIGHT = (1300, 2600)  # about the 4th to 6th decile of depth-4 starts
MIXED_K = 4
MIXED_EVENTS = 250
# Eight walks, two hydras, one asexual run and one mixed run in every twelve.
DESCENT_BLOCK = ("walk", "walk", "hydra", "walk", "walk", "asexual",
                 "walk", "walk", "hydra", "walk", "walk", "mixed")


class Descent(Workload):
    name = "descent"
    pool = 1200  # a 25 s run does 700-1000 items; a longer one goes round again
    fixed_items = 240

    def iter_inputs(self, ik, seed, tmp):
        rng = random.Random(seed)
        shapes = hydra_shapes(5)
        for i in range(self.pool):
            kind = DESCENT_BLOCK[i % len(DESCENT_BLOCK)]
            if kind == "walk":
                yield (kind, self._walk_start(ik, rng), rng.getrandbits(32))
            elif kind == "hydra":
                yield (kind, rng.choice(shapes))
            elif kind == "asexual":
                yield (kind, self._founder(ik, rng), rng.getrandbits(32))
            else:
                founders = (self._founder(ik, rng, nonzero=True),
                            self._founder(ik, rng, nonzero=True))
                yield (kind, founders, MIXED_K, rng.getrandbits(32), MIXED_EVENTS)

    @staticmethod
    def _walk_start(ik, rng):
        """An acceptance-suite walk start nested at least four deep, of middle weight.

        Shallower starts reach 0 in a handful of steps; mixing them in spreads
        walk cost over four orders of magnitude and leaves the median to chance.
        A walk's cost follows its length, and its length follows the start's
        weight: among depth-4 starts the middle band of weights keeps walk
        times within a factor of about six from the first decile to the last,
        where all of them span a factor of about 25.
        """
        while True:
            a = random_ordinal(ik, rng, 4)
            if nesting(a) >= 4 and WALK_WEIGHT[0] <= weight(a) <= WALK_WEIGHT[1]:
                return a

    @staticmethod
    def _founder(ik, rng, nonzero=False):
        o = ik.ordinals
        while True:
            terms = []
            for exp in (o.from_int(2), o.ONE, o.ZERO):
                c = rng.randint(0, 5)
                if c:
                    terms.append((exp, c))
            if terms or not nonzero:
                return o.Ordinal(tuple(terms))

    def run_item(self, ik, item, ctx):
        o, lin = ik.ordinals, ik.lineage
        kind = item[0]
        if kind == "walk":
            picks = random.Random(item[2])
            walk = o.descent_walk(item[1], lambda a: picks.randint(0, 1), max_len=10**6)
            check(walk[-1] == o.ZERO, "walk did not reach 0")
            check(all(x > y for x, y in zip(walk, walk[1:])), "walk not strictly descending")
            return [kind, [enc(x) for x in walk]]
        if kind == "hydra":
            values = o.hydra_trajectory(o.parse_hydra(item[1]), max_steps=10**5)
            check(values[-1] == o.ZERO, "hydra did not die")
            check(all(x > y for x, y in zip(values, values[1:])), "hydra value not descending")
            return [kind, [enc(x) for x in values]]
        if kind == "asexual":
            cfg = lin.LineageConfig(founder_intelligences=(item[1],), policy=lin.AsexualOnly(),
                                    rng_seed=item[2], max_events=10**6)
            log = lin.run_lineage(cfg)
            check(log[-1].kind is lin.EventKind.STERILE, "asexual lineage not sterile")
            intel = {}
            for ev in log:
                if ev.kind is lin.EventKind.ASEXUAL:
                    check(ev.child_intelligence < intel[ev.parent_ids[0]],
                          "asexual child not below its parent")
                intel[ev.child_id] = ev.child_intelligence
            return [kind, [(ev.kind.value, ev.child_id, ev.parent_ids,
                            enc(ev.child_intelligence), ev.seed_used, ev.event_index)
                           for ev in log]]
        _, founders, k, seed, max_events = item
        cfg = lin.LineageConfig(founder_intelligences=founders, policy=lin.MixedEveryK(k),
                                rng_seed=seed, max_events=max_events)
        log = lin.run_lineage(cfg)
        check(len(log) == len(founders) + max_events, "mixed lineage stopped early")
        intel = {}
        for ev in log:
            if ev.kind is lin.EventKind.ASEXUAL:
                check(ev.child_intelligence < intel[ev.parent_ids[0]],
                      "asexual child not below its parent")
            intel[ev.child_id] = ev.child_intelligence
        first, second = ctx.tmp / "mixed-a.jsonl", ctx.tmp / "mixed-b.jsonl"
        lin.write_event_log(log, first)
        back = lin.read_event_log(first)
        check(back == log, "event log read back differs")
        lin.write_event_log(back, second)
        data = first.read_bytes()
        check(data == second.read_bytes(), "event log rewrite not byte-identical")
        return [kind, data]


# ---------------------------------------------------------------------------
# cli: in-process ion subcommands from a seeded script
# ---------------------------------------------------------------------------

CLI_RUN_FLAGS = ["--max-steps", "20000", "--max-outputs", "3"]
CLI_VERIFY_FLAGS = ["--max-steps", "6000", "--max-outputs", "3", "--depth", "3"]
CLI_LINEAGE_EVENTS = 60


class Cli(Workload):
    name = "cli"
    # Sessions of nine calls; a 25 s run makes about 2500 calls. Five of the
    # nine are short (compile, two compares, two hydras), so the median call
    # lies inside the cluster of short calls, not in the gap above it, where
    # a few calls more or less on either side would move it a long way.
    pool = 1000
    fixed_items = 216

    def iter_inputs(self, ik, seed, tmp):
        o = ik.ordinals
        rng = random.Random(seed)
        shapes = hydra_shapes(5)
        # Calls run one after another, so every session reuses the same files.
        prog, cert, log = str(tmp / "p.ion"), str(tmp / "p.cert"), str(tmp / "l.jsonl")
        for _ in range(self.pool):
            a = self._small(ik, rng)
            b = self._small(ik, rng)
            founder = Descent._founder(ik, rng, nonzero=True)
            policy = rng.choice(["asexual", "mixed:3", "mixed:4"])
            lseed = rng.randint(0, 10**6)
            fa, fb = o.format_ordinal(a), o.format_ordinal(b)
            shape, shape2 = rng.choice(shapes), rng.choice(shapes)
            yield from [
                ("compile", ["compile", fa, "-o", prog, "--json"], a),
                ("run", ["run", prog, *CLI_RUN_FLAGS, "--json"], a),
                ("verify", ["verify", prog, "--expect", cert, *CLI_VERIFY_FLAGS, "--json"], a),
                ("value", ["value", prog, *CLI_VERIFY_FLAGS, "--json"], a),
                ("compare", ["compare", fa, fb, "--json"], (a, b)),
                ("hydra", ["hydra", shape, "--json"], shape),
                ("lineage", ["lineage", "--founder", o.format_ordinal(founder), "--policy",
                             policy, "--seed", str(lseed), "--max-events",
                             str(CLI_LINEAGE_EVENTS), "-o", log, "--json"],
                 (founder, policy, lseed)),
                ("compare", ["compare", fb, fa, "--json"], (b, a)),
                ("hydra", ["hydra", shape2, "--json"], shape2),
            ]

    @staticmethod
    def _small(ik, rng):
        while True:
            a = random_ordinal(ik, rng, 2)
            if wraps(ik, a) <= 3:
                return a

    def call(self, ik, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ik.cli.main(argv)
        return code, out.getvalue()

    def run_item(self, ik, item, ctx):
        kind, argv, arg = item
        code, stdout = self.call(ik, argv)
        check(code == 0, f"ion {kind} exited {code}")
        # The library cross-check runs after the item's timing stops; it adds
        # the checked values (never file paths) to the digest parts.
        parts = [kind]
        ctx.deferred = lambda: parts.extend(self.expected(ik, kind, argv, arg, json.loads(stdout)))
        return parts

    @staticmethod
    def expected(ik, kind, argv, arg, got):
        """Check the known JSON keys of one call against the library; return them."""
        o, n, ol, lin = ik.ordinals, ik.notation, ik.objlang, ik.lineage

        def fuel(flags):
            return ol.Fuel(int(flags[1]), int(flags[3]))

        def same(keys, want):
            for key, value in zip(keys, want):
                check(got[key] == value, f"{kind}: {key}")
            return [got[key] for key in keys]

        if kind == "compile":
            src = n.source_of(arg)
            check(Path(argv[3]).read_text(encoding="utf-8") == src, "compile: file bytes")
            return same(("ordinal", "sha256", "bytes"), (
                o.format_ordinal(arg), hashlib.sha256(src.encode()).hexdigest(), len(src)))
        if kind == "run":
            tr = ol.evaluate(n.compile_ordinal(arg), fuel(CLI_RUN_FLAGS))
            return same(("outputs", "status", "stepsUsed"),
                        (list(tr.outputs), tr.status.value, tr.steps_used))
        if kind == "verify":
            r = n.verify(n.compile_ordinal(arg), fuel(CLI_VERIFY_FLAGS), int(CLI_VERIFY_FLAGS[5]))
            s = r.fuel_spent
            return same(("verdict", "fuelSpent"), (
                type(r.verdict).__name__,
                {"steps": s.steps, "outputs": s.outputs, "evaluations": s.evaluations}))
        if kind == "value":
            bound, refuted = n.value_lower_bound(n.compile_ordinal(arg), fuel(CLI_VERIFY_FLAGS),
                                                 int(CLI_VERIFY_FLAGS[5]))
            check(not refuted and bound <= arg, "value: bound")
            return same(("lowerBound", "refuted"), (o.format_ordinal(bound), False))
        if kind == "compare":
            return same(("result",), (o.compare(*arg).value,))
        if kind == "hydra":
            values = o.hydra_trajectory(o.parse_hydra(arg))
            return same(("values", "cuts"), ([o.format_ordinal(v) for v in values], len(values) - 1))
        founder, policy, seed = arg
        pol = lin.AsexualOnly() if policy == "asexual" else lin.MixedEveryK(int(policy[6:]))
        log = lin.run_lineage(lin.LineageConfig(
            founder_intelligences=(founder,), policy=pol, rng_seed=seed,
            max_events=CLI_LINEAGE_EVENTS))
        stats = lin.chain_stats(log)
        check(lin.read_event_log(argv[-2]) == log, "lineage: log file")
        return same(("events", "totalAgents", "multiParentCount", "maxAsexualRunLength", "sterile"), (
            len(log), stats.total_agents, stats.multi_parent_count, stats.max_asexual_run_length,
            any(ev.kind is lin.EventKind.STERILE for ev in log))) + [Path(argv[-2]).read_bytes()]


WORKLOADS = {w.name: w for w in (Sweep(), Verify(), Descent(), Cli())}
