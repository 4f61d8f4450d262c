#!/usr/bin/env python3
"""ionkit benchmark: one seeded workload per process, closed loop, checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 20260825 --seconds 20 --trace 0

One process, one client, no extra threads: the next item starts when the last
one has finished, and nothing is warmed up first, so the library's caches start
cold as they do for an ``ion`` user. The run imports ionkit from ``src/`` of
the checkout and builds its inputs from ``--seed`` alone.

``--trace 0`` runs items until ``--seconds`` have passed (and at least
``MIN_ITEMS`` are done, so the 95th percentile has ten samples above it) and
reports the end-to-end metrics. Between items it times a fixed reference
routine that does not touch ionkit (:func:`reference`), and reports each time
scaled to the machine's speed at that moment: wall time times ``REF_NOMINAL_S``
over the median reference time around it. On a shared host whose speed drifts
by a third over tens of seconds, the wall times of two identical runs differ
by that much; the scaled times follow the program's own cost. The wall-clock
figures are printed and kept in the result file as well.

``--trace 1`` runs the workload's first ``fixed_items`` items untraced a few
times, then once under the span tracer, and reports the per-layer metrics
plus ``trace.overhead_ratio``.

Every item's outputs are checked. The first ``fixed_items`` items of every run
are also folded into a sha256 digest, which must match ``pins.json`` when the
seed is the pinned one. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller result
file with the environment goes to ``perfbench/out/``.
"""

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 20260825
SETUP_REPS = 3
MIN_ITEMS = 200  # nearest-rank p95 of 200 samples has 10 samples above it
TAIL_PERCENTILE = 95
HARD_CAP_S = 150.0  # an untraced run stops here even below MIN_ITEMS
UNTRACED_SHARE = 0.4  # of --seconds, spent on untraced passes in a traced run
MAX_UNTRACED_PASSES = 5
MODULES = ("objlang", "ordinals", "notation", "lineage", "cli")
# Scaled times are wall times on a machine that runs reference() in exactly
# this long; about what it takes on a 2-vCPU x86-64 VM under CPython 3.11.
REF_NOMINAL_S = 0.001
REF_WINDOW = 10  # an item is scaled by the median of the 2*REF_WINDOW+1 nearest references
SETUP_CHUNK_S = 0.01  # set-up is timed, and scaled, in chunks of about this long


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def percentile(samples, p):
    """Nearest-rank percentile: (value, number of samples ranked above it)."""
    s = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(s)))
    return s[rank - 1], len(s) - rank


_REF_ARGS = argparse.ArgumentParser(add_help=False)
_REF_ARGS.add_argument("name")
_REF_ARGS.add_argument("--count", type=int)
_REF_ARGS.add_argument("--json", action="store_true")
_REF_CALLS = re.compile(r"(\w+)\((\d+)\)")


def reference() -> int:
    """Fixed interpreter work, independent of ionkit, that times the machine.

    Half of it is a tight loop that builds and drops small tuples, dict entries
    and strings; the other half runs a spread of stdlib code (argparse, json,
    io, re), as the library's short calls and the CLI do. The tight loop alone
    speeds up more than the library when the host gets faster, the stdlib half
    alone less; their sum follows the workloads' items most closely. It leaves
    nothing behind, and the collector is off while it runs, so its time does
    not depend on how much the workload keeps alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        d: dict = {}
        chain: tuple = ()
        acc = 0
        for i in range(750):
            key = (i % 17, i % 5)
            d[key] = d.get(key, 0) + i
            chain = (i, chain) if i % 8 else ()
            acc += len(str(i))
        acc += len(sorted(d.items()))
        for i in range(6):
            ns = _REF_ARGS.parse_args([f"r{i}", "--count", str(i), "--json"])
            buf = io.StringIO()
            buf.write(json.dumps({"name": ns.name, "count": ns.count, "seq": list(range(i))}))
            acc += len(json.loads(buf.getvalue())["seq"])
            acc += sum(int(m.group(2)) for m in _REF_CALLS.finditer("f(1) g(22) h(333)"))
        return acc
    finally:
        if was_enabled:
            gc.enable()


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scaled(latencies, refs) -> list[float]:
    """Each latency times REF_NOMINAL_S over the median of the references near it.

    ``refs[i]`` is the reference time taken right after item ``i``.
    """
    out = []
    for i, dt in enumerate(latencies):
        near = refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        out.append(dt * REF_NOMINAL_S / statistics.median(near))
    return out


def timed_setup(wl, seed, tmp):
    """One set-up: a fresh import, then the inputs made in chunks of about
    SETUP_CHUNK_S with the reference timed after each chunk, outside its time.

    Returns the package, the items, the wall time and the scaled time.
    """
    chunks, refs = [], []
    t0 = time.perf_counter()
    ik = fresh_import()
    chunks.append(time.perf_counter() - t0)
    refs.append(time_reference())
    items = []
    inputs = wl.iter_inputs(ik, seed, tmp)
    while True:
        n = len(items)
        t0 = time.perf_counter()
        for item in inputs:
            items.append(item)
            if time.perf_counter() - t0 >= SETUP_CHUNK_S:
                break
        chunks.append(time.perf_counter() - t0)
        refs.append(time_reference())
        if len(items) == n:
            break
    return ik, items, sum(chunks), sum(scaled(chunks, refs))


def fold(h, obj) -> None:
    """Feed ``obj`` into hash ``h`` with type tags and lengths, so no two values collide."""
    if isinstance(obj, str):
        data = obj.encode("utf-8")
        h.update(b"s%d:" % len(data))
        h.update(data)
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj))
        h.update(obj)
    elif isinstance(obj, bool) or obj is None:
        h.update(b"k" + repr(obj).encode())
    elif isinstance(obj, int):
        h.update(b"i%d;" % obj)
    elif isinstance(obj, (list, tuple)):
        h.update(b"l%d:" % len(obj))
        for x in obj:
            fold(h, x)
    elif isinstance(obj, dict):
        h.update(b"d%d:" % len(obj))
        for key in sorted(obj):
            fold(h, key)
            fold(h, obj[key])
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def item_digest(parts, error) -> bytes:
    h = hashlib.sha256()
    fold(h, parts if error is None else ["failed", type(error).__name__])
    return h.digest()


def run_digest(item_digests) -> str:
    return hashlib.sha256(b"".join(item_digests)).hexdigest()


def fresh_import():
    """Import ionkit from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "ionkit" or n.startswith("ionkit.")]:
        del sys.modules[name]
    gc.collect()
    ik = importlib.import_module("ionkit")
    for m in MODULES:
        importlib.import_module(f"ionkit.{m}")
    if not Path(ik.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ionkit imported from {ik.__file__}, not from {SRC}")
    return ik


def cached_functions(ik) -> dict:
    return {"compile_ordinal": ik.notation.compile_ordinal,
            "source_of": ik.notation.source_of,
            "depth": ik.ordinals.depth}


def clear_caches(cached) -> None:
    for fn in cached.values():
        fn.cache_clear()


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ionkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Context:
    """Per-run state shared with the workload's items."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.verify_calls = 0
        self.decided = 0
        self.deferred = None


class Outcome:
    def __init__(self):
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.digests: list[bytes] = []
        self.failures: list[dict] = []
        self.wall_s = 0.0
        self.rss_mb = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_items(wl, ik, items, ctx, *, count=None, seconds=None, min_items=0,
              digest_items=0, tracer=None, reference=False) -> Outcome:
    """Closed loop over ``items``: a fixed ``count``, or until ``seconds`` pass.

    With ``reference`` the reference routine is timed after every item, outside
    the item's latency.
    """
    res = Outcome()
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        else:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and i >= min_items) or elapsed >= HARD_CAP_S:
                break
        item = items[i % len(items)]
        if tracer is not None:
            tracer.item = i
        ctx.deferred = None
        error = parts = None
        t0 = time.perf_counter()
        try:
            parts = wl.run_item(ik, item, ctx)
        except Exception as exc:  # one bad item must not end the run
            error = exc
        dt = time.perf_counter() - t0
        if error is None and ctx.deferred is not None:
            if tracer is not None:
                tracer.active = False
            try:
                ctx.deferred()
            except Exception as exc:
                error = exc
            finally:
                if tracer is not None:
                    tracer.active = True
        res.latencies.append(dt)
        if reference:
            res.refs.append(time_reference())
        if error is not None:
            kind = item[0] if isinstance(item, tuple) and isinstance(item[0], str) else wl.name
            res.failures.append({"item": i, "kind": kind, "type": type(error).__name__,
                                 "message": str(error)[:300]})
            print(f"item {i} ({kind}) failed: {type(error).__name__}: {str(error)[:300]}",
                  file=sys.stderr)
        if i < digest_items:
            res.digests.append(item_digest(parts, error))
        i += 1
        if i == min_items:
            res.rss_mb = peak_rss_mb()
    res.wall_s = time.perf_counter() - start
    return res


def load_pin(workload: str, seed: int):
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    if seed != pins["seed"]:
        return None
    return pins["digests"].get(workload)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "ionkit" / "__init__.py").is_file():
        print(f"error: no ionkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir()
    try:
        return measure(args, wl, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, wl, tmp: Path) -> int:
    # Set-up: fresh import plus input generation, repeated; the median is reported.
    setup_times, setup_scaled = [], []
    ik = items = None
    for _ in range(SETUP_REPS):
        ik = items = None  # the last set-up's objects do not weigh on this one
        ik, items, wall, norm = timed_setup(wl, args.seed, tmp)
        setup_times.append(wall)
        setup_scaled.append(norm)
    cached = cached_functions(ik)
    clear_caches(cached)
    ctx = Context(tmp)
    env = environment(args)
    fixed = wl.fixed_items
    extra = {}

    if args.trace:
        from tracer import Tracer

        walls = []
        budget = UNTRACED_SHARE * args.seconds
        spent = 0.0
        while not walls or (spent < budget and len(walls) < MAX_UNTRACED_PASSES):
            clear_caches(cached)
            res = run_items(wl, ik, items, ctx, count=fixed, digest_items=fixed)
            walls.append(res.wall_s)
            spent += res.wall_s
        clear_caches(cached)
        tracer = Tracer(ik)
        with tracer:
            traced = run_items(wl, ik, items, ctx, count=fixed, digest_items=fixed,
                               tracer=tracer)
        layer = tracer.metrics(cached)
        layer["trace.overhead_ratio"] = (traced.wall_s / statistics.median(walls), "ratio")
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        outcome = traced
        metrics = layer
        env["untraced_pass_s"] = walls
        env["spans"] = len(tracer.spans)
    else:
        outcome = run_items(wl, ik, items, ctx, seconds=args.seconds,
                            min_items=max(MIN_ITEMS, fixed), digest_items=fixed,
                            reference=True)
        lat = scaled(outcome.latencies, outcome.refs)
        p50, _ = percentile(lat, 50)
        p95, beyond = percentile(lat, TAIL_PERCENTILE)
        metrics = {
            "throughput_norm_per_s": (len(lat) / sum(lat), "1/s"),
            "latency_p50_norm_ms": (p50 * 1000, "ms"),
            "latency_p95_norm_ms": (p95 * 1000, "ms"),
            # Read once the fixed minimum of items is done, so a faster program
            # that gets through more items (and caches more) is not charged.
            "peak_rss_mb": (outcome.rss_mb or peak_rss_mb(), "MB"),
            "setup_s": (statistics.median(setup_scaled), "s"),
        }
        wall = outcome.latencies
        extra.update({
            "throughput_per_s": (len(wall) / sum(wall), "1/s"),
            "latency_p50_ms": (percentile(wall, 50)[0] * 1000, "ms"),
            "latency_p95_ms": (percentile(wall, TAIL_PERCENTILE)[0] * 1000, "ms"),
            "setup_wall_s": (statistics.median(setup_times), "s"),
            "reference_median_ms": (statistics.median(outcome.refs) * 1000, "ms"),
        })
        env["samples_beyond_p95"] = beyond
        env["loop_wall_s"] = outcome.wall_s

    attempted = len(outcome.latencies)
    failed = len(outcome.failures)
    digest = run_digest(outcome.digests) if len(outcome.digests) == fixed else None
    pin = load_pin(args.workload, args.seed)
    digest_ok = pin is None or digest == pin
    correct = failed == 0 and digest_ok

    extra["failed_frac"] = (failed / attempted, "ratio")
    if ctx.verify_calls:
        extra["decided_frac"] = (ctx.decided / ctx.verify_calls, "ratio")
    env.update({
        "attempted": attempted,
        "failed": failed,
        "items_generated": len(items),
        "cycles": attempted // len(items),
        "digest_items": fixed,
        "digest": digest,
        "pinned_digest": pin,
        "setup_reps_s": setup_times,
        "setup_reps_scaled_s": setup_scaled,
    })

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{name} {value} {unit}")
    print(f"samples {attempted}; digest {digest} "
          f"({'matches pin' if pin and digest_ok else 'MISMATCH' if pin else 'no pin for seed'})")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                  environment=env, failures=outcome.failures[:50],
                  latencies_s=outcome.latencies, references_s=outcome.refs)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
