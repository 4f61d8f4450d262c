"""Command-line front end: ion compile / run / verify / value / compare / hydra / lineage.

Exit codes: 0 success, 1 domain errors (unparsable input or input nested too
deep, missing files, a malformed lineage config, a compiled source over
``MAX_SOURCE_BYTES``, an ``-o`` path that is its own ``.cert`` path,
certificate mismatch, refuted verification under --expect), 2 usage errors.
Each subcommand builds its result once as a dict; ``--json`` prints it as one
JSON object, and text mode prints it as ``key: value`` lines (see
:func:`_report`) after an optional head line. ``compile``, ``compare``,
``hydra`` and ``run`` print other text forms: the source, the result, the
``step i:`` lines, the outputs. ``lineage`` without ``-o`` prints JSON lines.
All error text goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

from .objlang import _MAX_VALUE_LEN, Fuel, ObjLangError, evaluate, parse, serialize
from .ordinals import (
    OrdinalError,
    compare,
    format_ordinal,
    hydra_trajectory,
    parse_hydra,
    parse_ordinal,
)
from .notation import (
    ProvenMember,
    Refuted,
    certificate_text,
    parse_certificate,
    source_of,
    source_sha256,
    source_size,
    value_lower_bound,
    verify,
)
from .lineage import (
    AsexualOnly,
    EventKind,
    LineageConfig,
    LineageError,
    MixedEveryK,
    MultiParentRule,
    chain_stats,
    event_log_text,
    run_lineage,
    write_event_log,
)

__all__ = ["main"]

# RecursionError: program text nested too deep for the object-language parser
# and evaluator (ordinal and hydra text stop at ordinals.NESTING_LIMIT instead).
_DOMAIN_ERRORS = (
    ObjLangError, OrdinalError, LineageError, OSError, ValueError, RecursionError,
)

DEFAULT_MAX_STEPS = 10**6
DEFAULT_MAX_OUTPUTS = 16
DEFAULT_DEPTH = 8
# Source size about doubles per unit of the finite tail or of the
# w-coefficient (w*17 is 4.46 MB, w*30 36.5 GB), so a small ordinal can ask
# for a source far beyond memory. The limit is the evaluator's string length
# limit, so a run can hold every source that ion compile writes.
MAX_SOURCE_BYTES = _MAX_VALUE_LEN


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _policy(text: str):
    if text == "asexual":
        return AsexualOnly()
    if text.startswith("mixed:"):
        try:
            return MixedEveryK(int(text.split(":", 1)[1]))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad mixed policy {text!r}; use mixed:<k>"
            ) from None
    raise argparse.ArgumentTypeError(f"unknown policy {text!r}; use asexual or mixed:<k>")


def _report(
    args: argparse.Namespace,
    fields: dict,
    head: Sequence[str] = (),
    json_only: dict | None = None,
) -> None:
    """Print one result on stdout.

    With ``--json``: ``json_only`` and then ``fields`` as one JSON object.
    Otherwise each ``head`` line, then ``fields`` as ``key: value`` lines:
    strings raw, other values through ``json.dumps``; null values and nested
    objects (``fuelSpent``) are left out.
    """
    if args.json:
        print(json.dumps({**(json_only or {}), **fields}))
        return
    for line in head:
        print(line)
    for key, value in fields.items():
        if value is not None and not isinstance(value, dict):
            print(f"{key}: {value if isinstance(value, str) else json.dumps(value)}")


def _add_fuel_flags(sub: argparse.ArgumentParser, depth: bool = False) -> None:
    sub.add_argument("--max-steps", type=_positive_int, default=DEFAULT_MAX_STEPS)
    sub.add_argument("--max-outputs", type=_positive_int, default=DEFAULT_MAX_OUTPUTS)
    if depth:
        sub.add_argument("--depth", type=_positive_int, default=DEFAULT_DEPTH)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_compile(args: argparse.Namespace) -> int:
    a = parse_ordinal(args.ordinal)
    out = Path(args.out) if args.out else None
    if out is not None and out.suffix == ".cert":
        raise ValueError(f"-o {out} names the certificate file; use a suffix other than .cert")
    size = source_size(a, MAX_SOURCE_BYTES)
    if size > MAX_SOURCE_BYTES:
        raise ValueError(
            f"the source of {format_ordinal(a)} would be at least {size} bytes;"
            f" ion compile refuses sources over {MAX_SOURCE_BYTES} bytes"
        )
    src = source_of(a)
    fields = {"ordinal": format_ordinal(a)}
    if out is None:
        fields["source"] = src
    fields["sha256"] = source_sha256(src)
    if out is None:
        _report(args, {}, [src], fields)
        return 0
    cert_path = out.with_suffix(".cert")
    out.write_text(src, encoding="utf-8")
    try:
        cert_path.write_text(certificate_text(a, src), encoding="utf-8")
    except BaseException:
        out.unlink()  # an exit 1 leaves neither file
        raise
    fields |= {"bytes": len(src), "path": str(out), "certificate": str(cert_path)}
    _report(args, {}, [f"wrote {out} ({len(src)} bytes) and {cert_path}"], fields)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    program = parse(Path(args.path).read_text(encoding="utf-8"))
    trace = evaluate(program, Fuel(args.max_steps, args.max_outputs))
    fields = {
        "outputs": list(trace.outputs),
        "status": trace.status.value,
        "stepsUsed": trace.steps_used,
    }
    _report(args, {}, trace.outputs, fields)
    if not args.json:
        print(f"status: {trace.status.value} ({trace.steps_used} steps)", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    program = parse(Path(args.path).read_text(encoding="utf-8"))
    if args.expect:
        _, expected_sha = parse_certificate(Path(args.expect).read_text(encoding="utf-8"))
        actual_sha = source_sha256(serialize(program))
        if actual_sha != expected_sha:
            print(
                f"certificate mismatch: program sha256 {actual_sha} != {expected_sha}",
                file=sys.stderr,
            )
            return 1
    result = verify(program, Fuel(args.max_steps, args.max_outputs), args.depth)
    verdict = result.verdict
    if isinstance(verdict, ProvenMember):
        fields = {"exactValue": format_ordinal(verdict.exact_value)}
    elif isinstance(verdict, Refuted):
        fields = {"path": list(verdict.path), "reason": verdict.reason}
    else:
        fields = {
            "outputsChecked": verdict.outputs_checked,
            "depthReached": verdict.depth_reached,
        }
    spent = asdict(result.fuel_spent)
    _report(args, {"verdict": type(verdict).__name__, **fields, "fuelSpent": spent})
    return 1 if args.expect and isinstance(verdict, Refuted) else 0


def _cmd_value(args: argparse.Namespace) -> int:
    program = parse(Path(args.path).read_text(encoding="utf-8"))
    bound, refuted = value_lower_bound(
        program, Fuel(args.max_steps, args.max_outputs), args.depth
    )
    _report(args, {"lowerBound": format_ordinal(bound), "refuted": refuted})
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    result = compare(parse_ordinal(args.a), parse_ordinal(args.b)).value
    _report(args, {}, [result], {"result": result})
    return 0


def _cmd_hydra(args: argparse.Namespace) -> int:
    tree = parse_hydra(args.shape)
    surfaces = [format_ordinal(v) for v in hydra_trajectory(tree, args.max_steps)]
    cuts = len(surfaces) - 1
    lines = [f"step {i}: {s}" for i, s in enumerate(surfaces)] + [f"dead after {cuts} cuts"]
    _report(args, {}, lines, {"values": surfaces, "cuts": cuts})
    return 0


_JSON_TYPES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _config_field(data: dict, key: str, kind: type):
    """``data[key]`` if it has JSON type ``kind``; None when absent or null."""
    value = data.get(key)
    if value is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ValueError(f"config field {key!r} must be {_JSON_TYPES[kind]}")
    return value


def _present(**fields) -> dict:
    """The fields that are set, that is not None."""
    return {key: value for key, value in fields.items() if value is not None}


def _load_lineage_config(args: argparse.Namespace) -> LineageConfig | None:
    # Every config field is checked, also one that a flag then overrides. Only
    # the fields a config or a flag sets are passed on, so the defaults are
    # LineageConfig's and MultiParentRule's own.
    founders, fields = [], {}
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        texts = _config_field(data, "founders", list) or []
        if not all(isinstance(t, str) for t in texts):
            raise ValueError("config field 'founders' must be a list of strings")
        founders = [parse_ordinal(t) for t in texts]
        policy = _config_field(data, "policy", str)
        if policy is not None:
            try:
                policy = _policy(policy)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"config field 'policy': {exc}") from None
        seed = _config_field(data, "seed", int)
        max_events = _config_field(data, "maxEvents", int)
        rule = _config_field(data, "multiParentRule", dict)
        if rule is not None:
            bonus = _config_field(rule, "bonus", str)
            rule = MultiParentRule(**_present(
                bonus=None if bonus is None else parse_ordinal(bonus),
                max_descent=_config_field(rule, "maxDescent", int),
            ))
        fields = _present(
            policy=policy, rng_seed=seed, max_events=max_events, multi_parent_rule=rule
        )
    if args.founder:
        founders = [parse_ordinal(f) for f in args.founder]
    if not founders:
        return None
    flags = _present(policy=args.policy, rng_seed=args.seed, max_events=args.max_events)
    return LineageConfig(tuple(founders), **(fields | flags))


def _cmd_lineage(args: argparse.Namespace) -> int:
    config = _load_lineage_config(args)
    if config is None:
        print("error: no founders given (use --founder or --config)", file=sys.stderr)
        return 2
    log = run_lineage(config)
    if not args.out:
        sys.stdout.write(event_log_text(log))
        return 0
    write_event_log(log, args.out)
    stats = chain_stats(log)
    _report(
        args,
        {
            "totalAgents": stats.total_agents,
            "multiParentCount": stats.multi_parent_count,
            "maxAsexualRunLength": stats.max_asexual_run_length,
            "sterile": any(ev.kind is EventKind.STERILE for ev in log),
        },
        [f"wrote {len(log)} events to {args.out}"],
        {"path": args.out, "events": len(log)},
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it found it.
    parser = argparse.ArgumentParser(
        prog="ion",
        description="Compile ordinals to notation programs; run, verify, and simulate.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compile", help="compile an ordinal expression to a program")
    p.add_argument("ordinal", help="surface syntax, e.g. 'w^(w+1)*3+w*2+5'")
    p.add_argument("-o", "--out", help="write .ion program (plus sibling .cert)")
    p.set_defaults(func=_cmd_compile)

    p = subs.add_parser("run", help="evaluate a .ion program under fuel")
    p.add_argument("path")
    _add_fuel_flags(p)
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("verify", help="fuel-bounded membership verification")
    p.add_argument("path")
    _add_fuel_flags(p, depth=True)
    p.add_argument("--expect", help="certificate file; mismatch or refutation exits 1")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("value", help="lower-bound the notation value of a program")
    p.add_argument("path")
    _add_fuel_flags(p, depth=True)
    p.set_defaults(func=_cmd_value)

    p = subs.add_parser("compare", help="compare two ordinal expressions")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("hydra", help="play the hydra game on a paren shape")
    p.add_argument("shape", help="e.g. '((())())' ; outer group is the root")
    p.add_argument("--max-steps", type=_positive_int, default=DEFAULT_MAX_STEPS)
    p.set_defaults(func=_cmd_hydra)

    p = subs.add_parser("lineage", help="run a seeded lineage simulation")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--founder", action="append", help="founder intelligence (repeatable)")
    p.add_argument("--policy", type=_policy, default=None, help="asexual or mixed:<k>")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-events", type=_positive_int, default=None)
    p.add_argument("-o", "--out", help="write .jsonl event log and print stats")
    p.set_defaults(func=_cmd_lineage)

    for p in subs.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
