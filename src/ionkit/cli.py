"""Command-line front end: ion compile / run / verify / value / compare / hydra / lineage.

Exit codes: 0 success, 1 domain errors (unparsable input, input past one of
the library's limits: nesting, string length or source size, missing files,
a malformed lineage config, an ``-o`` path that is its own ``.cert`` path,
certificate mismatch in program bytes, proven value or explored lower bound,
refuted verification under --expect), 2 usage errors.
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

from .objlang import Fuel, ObjLangError, evaluate, parse, serialize
from .ordinals import (
    OrdinalError,
    _NAT_RE,
    compare,
    format_ordinal,
    hydra_trajectory,
    parse_hydra,
    parse_ordinal,
)
from .notation import (
    Inconclusive,
    ProvenMember,
    Refuted,
    SourceTooLargeError,
    certificate_text,
    parse_certificate,
    source_of,
    source_sha256,
    value_lower_bound,
    verify,
)
from .lineage import (
    EventKind,
    LineageConfig,
    LineageError,
    _present,
    chain_stats,
    config_from_json,
    event_log_text,
    parse_policy,
    run_lineage,
    write_event_log,
)

__all__ = ["main"]

_DOMAIN_ERRORS = (ObjLangError, OrdinalError, LineageError, OSError, ValueError)

DEFAULT_MAX_STEPS = 10**6
DEFAULT_MAX_OUTPUTS = 16
DEFAULT_DEPTH = 8


def _int(text: str) -> int:
    """An integer flag: ASCII digits after at most one '-', as in ordinal text;
    int() alone also reads " 3", "+3", "1_0" and "٣"."""
    if _NAT_RE.fullmatch(text.removeprefix("-")):
        try:
            return int(text)
        except ValueError:  # past int()'s limit on digits
            pass
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer")


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _policy(text: str):
    try:
        return parse_policy(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    if out is not None and not out.name:
        raise ValueError(f"-o {args.out} names no file")
    if out is not None and out.suffix == ".cert":
        raise ValueError(f"-o {out} names the certificate file; use a suffix other than .cert")
    try:
        src = source_of(a)
    except SourceTooLargeError as exc:
        raise ValueError(
            f"the source of {format_ordinal(a)} would be at least {exc.size} bytes;"
            f" ion compile refuses sources over {exc.limit} bytes"
        ) from None
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


def _mismatch(what: str, actual: str, relation: str, claimed: str) -> int:
    print(f"certificate mismatch: {what} {actual} {relation} {claimed}", file=sys.stderr)
    return 1


def _cmd_verify(args: argparse.Namespace) -> int:
    program = parse(Path(args.path).read_text(encoding="utf-8"))
    if args.expect:
        claim_text, expected_sha = parse_certificate(Path(args.expect).read_text(encoding="utf-8"))
        try:
            claim = parse_ordinal(claim_text)
        except OrdinalError as exc:
            raise ValueError(f"certificate {args.expect}: {exc}") from None
        actual_sha = source_sha256(serialize(program))
        if actual_sha != expected_sha:
            return _mismatch("program sha256", actual_sha, "!=", expected_sha)
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
    if not args.expect:
        return 0
    if isinstance(verdict, ProvenMember) and verdict.exact_value != claim:
        return _mismatch("exact value", fields["exactValue"], "!=", format_ordinal(claim))
    # the explored tree already shows the value is at least lower_bound
    if isinstance(verdict, Inconclusive) and claim < verdict.lower_bound:
        return _mismatch(
            "lower bound", format_ordinal(verdict.lower_bound), ">", format_ordinal(claim)
        )
    return 1 if isinstance(verdict, Refuted) else 0


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


def _cmd_lineage(args: argparse.Namespace) -> int:
    # Every config field is checked, also one that a flag then overrides. Only
    # the fields a config or a flag sets are passed on, so the defaults are
    # LineageConfig's and MultiParentRule's own.
    fields = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"config {args.config}: {exc}") from None
        fields = config_from_json(data)
    fields |= _present(
        founder_intelligences=args.founder and tuple(map(parse_ordinal, args.founder)),
        policy=args.policy, rng_seed=args.seed, max_events=args.max_events,
    )
    if not fields.get("founder_intelligences"):
        print("error: no founders given (use --founder or --config)", file=sys.stderr)
        return 2
    log = run_lineage(LineageConfig(**fields))
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
    p.add_argument("--seed", type=_int, default=None)
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
