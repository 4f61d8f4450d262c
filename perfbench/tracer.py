"""In-memory span tracer for the per-layer numbers of a traced benchmark run.

The tracer wraps the public functions of each ionkit layer at every module
binding that refers to them (``ionkit.notation.evaluate`` as well as
``ionkit.objlang.evaluate``), so calls from one layer into another are seen.
Each call records one span: name, start, end, the span that caused it and the
benchmark item it belongs to. A layer's self time is its span time minus the
time of its child spans. ``ordinals._cmp`` is only counted, because it runs
tens of millions of times and a span per call would swamp the run.

Nothing is wrapped until :meth:`Tracer.install` runs, and :meth:`uninstall`
puts every original binding back, so an untraced run executes the library
exactly as an ``ion`` user does.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter_ns

# Functions wrapped per defining module; every binding of the same object in
# any ionkit module is replaced.
TRACED = {
    "objlang": ("evaluate", "check_closed", "parse", "serialize"),
    "notation": ("compile_ordinal", "source_of", "decompile", "verify", "value_lower_bound"),
    "ordinals": (
        "fundamental_sequence", "descent_walk", "hydra_trajectory",
        "parse_ordinal", "format_ordinal",
    ),
    "lineage": ("run_lineage", "write_event_log", "read_event_log"),
    "cli": ("main",),
}

WRAPPER_MARK = "_perfbench_span"


class _Stat:
    """Totals for one traced function; ``count``/``count2`` hold its own work
    units (steps, evaluations, events, cuts, non-zero exits), see ``_POST``."""

    __slots__ = ("calls", "total_ns", "self_ns", "errors", "count", "count2", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.errors = 0
        self.count = 0
        self.count2 = 0
        self.bytes = 0


def ionkit_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "ionkit" or n.startswith("ionkit.")]


def wrapped_bindings() -> list[str]:
    """Names of ionkit module attributes that currently hold a tracer wrapper."""
    found = []
    for mod in ionkit_modules():
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPER_MARK, None) is not None:
                found.append(f"{mod.__name__}.{attr}")
    return found


class Tracer:
    def __init__(self, ik) -> None:
        self.ik = ik
        self.spans: list[tuple[int, int, int, int, int]] = []  # name, start, end, parent, item
        self.names: list[str] = []
        self.stats: dict[str, _Stat] = {}
        self.comparisons = 0
        self.item = -1
        self.active = True
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --

    def install(self) -> None:
        ik = self.ik
        originals = {}
        for layer, names in TRACED.items():
            mod = getattr(ik, layer)
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for mod in ionkit_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        cmp = ik.ordinals._cmp

        def counted(a, b, _cmp=cmp):
            self.comparisons += 1
            return _cmp(a, b)

        self._restore.append((ik.ordinals, "_cmp", cmp))
        ik.ordinals._cmp = counted

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans --

    def _wrap(self, name: str, fn):
        stat = self.stats[name] = _Stat()
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, child_ns = self.spans, self._stack, self._child_ns
        post = _POST.get(name)
        pre = _PRE.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            token = pre(fn) if pre else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child_ns.append(0)
            start = perf_counter_ns()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter_ns()
                stack.pop()
                inner = child_ns.pop()
                dur = end - start
                if child_ns:
                    child_ns[-1] += dur
                spans[idx] = (name_id, start, end, parent, self.item)
                stat.calls += 1
                stat.total_ns += dur
                stat.self_ns += dur - inner
                if not ok:
                    stat.errors += 1
            if post:
                post(stat, fn, args, result, token)
            return result

        setattr(wrapper, WRAPPER_MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def write_spans(self, path) -> None:
        """Write spans as CSV: index,parent,item,name,start_ns,end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,item,name,start_ns,end_ns\n")
            names = self.names
            for i, (name_id, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{i},{parent},{item},{names[name_id]},{start},{end}\n")

    # -- metrics --

    def metrics(self, originals) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; ``originals`` gives the unwrapped lru-cached functions."""
        s = self.stats

        def self_s(name):
            return s[name].self_ns / 1e9

        def rate(num, ns):
            return num / (ns / 1e9) if ns else 0.0

        def hit_frac(info):
            looked = info.hits + info.misses
            return info.hits / looked if looked else 0.0

        ev, par, ser = s["objlang.evaluate"], s["objlang.parse"], s["objlang.serialize"]
        ver, lin = s["notation.verify"], s["lineage.run_lineage"]
        out = {
            "objlang.evaluate.calls": (ev.calls, "count"),
            "objlang.evaluate.steps": (ev.count, "count"),
            "objlang.evaluate.self_s": (self_s("objlang.evaluate"), "s"),
            "objlang.evaluate.steps_per_s": (rate(ev.count, ev.self_ns), "1/s"),
            "objlang.evaluate.fuel_exhausted_frac": (
                ev.count2 / ev.calls if ev.calls else 0.0, "ratio"),
            "objlang.evaluate.errors": (ev.errors, "count"),
            "objlang.check_closed.calls": (s["objlang.check_closed"].calls, "count"),
            "objlang.check_closed.self_s": (self_s("objlang.check_closed"), "s"),
            "objlang.parse.calls": (par.calls, "count"),
            "objlang.parse.bytes": (par.bytes, "B"),
            "objlang.parse.self_s": (self_s("objlang.parse"), "s"),
            "objlang.parse.mb_per_s": (rate(par.bytes / 1e6, par.self_ns), "MB/s"),
            "objlang.serialize.calls": (ser.calls, "count"),
            "objlang.serialize.bytes": (ser.bytes, "B"),
            "objlang.serialize.self_s": (self_s("objlang.serialize"), "s"),
            "objlang.serialize.mb_per_s": (rate(ser.bytes / 1e6, ser.self_ns), "MB/s"),
            "notation.compile_ordinal.calls": (s["notation.compile_ordinal"].calls, "count"),
            "notation.compile_ordinal.cache_hit_frac": (
                hit_frac(originals["compile_ordinal"].cache_info()), "ratio"),
            "notation.compile_ordinal.self_s": (self_s("notation.compile_ordinal"), "s"),
            "notation.source_of.bytes": (s["notation.source_of"].bytes, "B"),
            "notation.source_of.cache_entries": (
                originals["source_of"].cache_info().currsize, "count"),
            "notation.decompile.calls": (s["notation.decompile"].calls, "count"),
            "notation.decompile.self_s": (self_s("notation.decompile"), "s"),
            "notation.verify.calls": (ver.calls, "count"),
            "notation.verify.evaluations": (ver.count, "count"),
            "notation.verify.steps": (ver.count2, "count"),
            "notation.verify.self_s": (self_s("notation.verify"), "s"),
            "notation.verify.nodes_per_s": (rate(ver.count, ver.total_ns), "1/s"),
            "notation.value_lower_bound.calls": (s["notation.value_lower_bound"].calls, "count"),
            "notation.value_lower_bound.self_s": (self_s("notation.value_lower_bound"), "s"),
            "ordinals.fundamental_sequence.calls": (
                s["ordinals.fundamental_sequence"].calls, "count"),
            "ordinals.fundamental_sequence.self_s": (self_s("ordinals.fundamental_sequence"), "s"),
            "ordinals.descent_walk.calls": (s["ordinals.descent_walk"].calls, "count"),
            "ordinals.descent_walk.steps": (s["ordinals.descent_walk"].count, "count"),
            "ordinals.descent_walk.self_s": (self_s("ordinals.descent_walk"), "s"),
            "ordinals.hydra_trajectory.cuts": (s["ordinals.hydra_trajectory"].count, "count"),
            "ordinals.hydra_trajectory.self_s": (self_s("ordinals.hydra_trajectory"), "s"),
            "ordinals.comparisons": (self.comparisons, "count"),
            "ordinals.parse_ordinal.self_s": (self_s("ordinals.parse_ordinal"), "s"),
            "ordinals.format_ordinal.self_s": (self_s("ordinals.format_ordinal"), "s"),
            "ordinals.depth.cache_entries": (originals["depth"].cache_info().currsize, "count"),
            "ordinals.depth.cache_hit_frac": (hit_frac(originals["depth"].cache_info()), "ratio"),
            "lineage.run_lineage.calls": (lin.calls, "count"),
            "lineage.run_lineage.events": (lin.count, "count"),
            "lineage.run_lineage.self_s": (self_s("lineage.run_lineage"), "s"),
            "lineage.run_lineage.events_per_s": (rate(lin.count, lin.total_ns), "1/s"),
            "lineage.write_event_log.bytes": (s["lineage.write_event_log"].bytes, "B"),
            "lineage.write_event_log.self_s": (self_s("lineage.write_event_log"), "s"),
            "lineage.read_event_log.bytes": (s["lineage.read_event_log"].bytes, "B"),
            "lineage.read_event_log.self_s": (self_s("lineage.read_event_log"), "s"),
            "cli.main.calls": (s["cli.main"].calls, "count"),
            "cli.main.self_s": (self_s("cli.main"), "s"),
            "cli.main.nonzero_exits": (s["cli.main"].count, "count"),
        }
        return out


# Per-function counters, filled after a call returns.

def _post_evaluate(st, fn, args, trace, token):
    st.count += trace.steps_used
    if trace.status.value == "FuelExhausted":
        st.count2 += 1


def _post_parse(st, fn, args, result, token):
    st.bytes += len(args[0])


def _post_serialize(st, fn, args, result, token):
    st.bytes += len(result)


def _pre_source_of(fn):
    return fn.cache_info().misses


def _post_source_of(st, fn, args, result, token):
    # A miss stores the new text in the cache: count the bytes it holds.
    if fn.cache_info().misses > token:
        st.bytes += len(result)


def _post_verify(st, fn, args, result, token):
    st.count += result.fuel_spent.evaluations
    st.count2 += result.fuel_spent.steps


def _post_descent_walk(st, fn, args, walk, token):
    st.count += len(walk) - 1


def _post_hydra(st, fn, args, values, token):
    st.count += len(values) - 1


def _post_run_lineage(st, fn, args, log, token):
    st.count += len(log)


def _post_log_file(st, fn, args, result, token):
    st.bytes += os.path.getsize(args[1] if len(args) > 1 else args[0])


def _post_cli_main(st, fn, args, code, token):
    if code != 0:
        st.count += 1


_PRE = {"notation.source_of": _pre_source_of}
_POST = {
    "objlang.evaluate": _post_evaluate,
    "objlang.parse": _post_parse,
    "objlang.serialize": _post_serialize,
    "notation.source_of": _post_source_of,
    "notation.verify": _post_verify,
    "ordinals.descent_walk": _post_descent_walk,
    "ordinals.hydra_trajectory": _post_hydra,
    "lineage.run_lineage": _post_run_lineage,
    "lineage.write_event_log": _post_log_file,
    "lineage.read_event_log": _post_log_file,
    "cli.main": _post_cli_main,
}
