"""Command-line front end: ion compile / run / verify / value / compare / hydra / lineage.

Exit codes: 0 success, 1 domain errors (unparsable input or input nested too
deep, missing files, a malformed lineage config, certificate mismatch, refuted
verification under --expect), 2 usage errors.
Human output goes to stdout in surface syntax / canonical program text;
``--json`` switches stdout to one machine-readable JSON object (the lineage
command without ``-o`` emits JSON lines). All error text goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .objlang import Fuel, ObjLangError, evaluate, parse, serialize
from .ordinals import (
    OrdinalError,
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
    certificate_text,
    parse_certificate,
    source_of,
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
    event_to_json,
    run_lineage,
    write_event_log,
)

__all__ = ["main"]

# RecursionError: input nested too deep for the recursive parsers and evaluator.
_DOMAIN_ERRORS = (
    ObjLangError, OrdinalError, LineageError, OSError, ValueError, RecursionError,
)

DEFAULT_MAX_STEPS = 10**6
DEFAULT_MAX_OUTPUTS = 16
DEFAULT_DEPTH = 8


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


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


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
    src = source_of(a)
    cert = certificate_text(a, src)
    if args.out:
        out = Path(args.out)
        out.write_text(src, encoding="utf-8")
        cert_path = out.with_suffix(".cert")
        cert_path.write_text(cert, encoding="utf-8")
        if args.json:
            _emit(
                {
                    "ordinal": format_ordinal(a),
                    "sha256": parse_certificate(cert)[1],
                    "bytes": len(src),
                    "path": str(out),
                    "certificate": str(cert_path),
                }
            )
        else:
            print(f"wrote {out} ({len(src)} bytes) and {cert_path}")
    else:
        if args.json:
            _emit(
                {
                    "ordinal": format_ordinal(a),
                    "source": src,
                    "sha256": parse_certificate(cert)[1],
                }
            )
        else:
            print(src)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    program = parse(Path(args.path).read_text(encoding="utf-8"))
    trace = evaluate(program, Fuel(args.max_steps, args.max_outputs))
    if args.json:
        _emit(
            {
                "outputs": list(trace.outputs),
                "status": trace.status.value,
                "stepsUsed": trace.steps_used,
            }
        )
    else:
        for out in trace.outputs:
            print(out)
        print(f"status: {trace.status.value} ({trace.steps_used} steps)", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    program = parse(Path(args.path).read_text(encoding="utf-8"))
    expected_sha = None
    if args.expect:
        _, expected_sha = parse_certificate(Path(args.expect).read_text(encoding="utf-8"))
        actual_sha = hashlib.sha256(serialize(program).encode("utf-8")).hexdigest()
        if actual_sha != expected_sha:
            print(
                f"certificate mismatch: program sha256 {actual_sha} != {expected_sha}",
                file=sys.stderr,
            )
            return 1
    result = verify(program, Fuel(args.max_steps, args.max_outputs), args.depth)
    verdict = result.verdict
    spent = {
        "steps": result.fuel_spent.steps,
        "outputs": result.fuel_spent.outputs,
        "evaluations": result.fuel_spent.evaluations,
    }
    if isinstance(verdict, ProvenMember):
        exact = None if verdict.exact_value is None else format_ordinal(verdict.exact_value)
        if args.json:
            _emit({"verdict": "ProvenMember", "exactValue": exact, "fuelSpent": spent})
        else:
            print("verdict: ProvenMember")
            if exact is not None:
                print(f"exactValue: {exact}")
    elif isinstance(verdict, Refuted):
        if args.json:
            _emit(
                {
                    "verdict": "Refuted",
                    "path": list(verdict.path),
                    "reason": verdict.reason,
                    "fuelSpent": spent,
                }
            )
        else:
            print("verdict: Refuted")
            print(f"path: {list(verdict.path)}")
            print(f"reason: {verdict.reason}")
        if args.expect:
            return 1
    else:
        if args.json:
            _emit(
                {
                    "verdict": "Inconclusive",
                    "outputsChecked": verdict.outputs_checked,
                    "depthReached": verdict.depth_reached,
                    "fuelSpent": spent,
                }
            )
        else:
            print("verdict: Inconclusive")
            print(f"outputsChecked: {verdict.outputs_checked}")
            print(f"depthReached: {verdict.depth_reached}")
    return 0


def _cmd_value(args: argparse.Namespace) -> int:
    program = parse(Path(args.path).read_text(encoding="utf-8"))
    bound, refuted = value_lower_bound(
        program, Fuel(args.max_steps, args.max_outputs), args.depth
    )
    if args.json:
        _emit({"lowerBound": format_ordinal(bound), "refuted": refuted})
    else:
        print(f"lowerBound: {format_ordinal(bound)}")
        print(f"refuted: {'true' if refuted else 'false'}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    result = compare(parse_ordinal(args.a), parse_ordinal(args.b))
    if args.json:
        _emit({"result": result.value})
    else:
        print(result.value)
    return 0


def _cmd_hydra(args: argparse.Namespace) -> int:
    tree = parse_hydra(args.shape)
    values = hydra_trajectory(tree, args.max_steps)
    surfaces = [format_ordinal(v) for v in values]
    if args.json:
        _emit({"values": surfaces, "cuts": len(values) - 1})
    else:
        for i, s in enumerate(surfaces):
            print(f"step {i}: {s}")
        print(f"dead after {len(values) - 1} cuts")
    return 0


_JSON_TYPES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _config_field(data: dict, key: str, kind: type, default=None):
    """``data[key]`` if it has JSON type ``kind``; ``default`` when absent or null."""
    value = data.get(key)
    if value is None:
        return default
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"config field {key!r} must be {_JSON_TYPES[kind]}")
    return value


def _load_lineage_config(args: argparse.Namespace) -> LineageConfig | None:
    # Every config field is checked, also one that a flag then overrides.
    founders, policy, seed, max_events, rule = [], AsexualOnly(), 0, 100, MultiParentRule()
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        texts = _config_field(data, "founders", list, [])
        if not all(isinstance(t, str) for t in texts):
            raise ValueError("config field 'founders' must be a list of strings")
        founders = [parse_ordinal(t) for t in texts]
        text = _config_field(data, "policy", str)
        if text is not None:
            try:
                policy = _policy(text)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"config field 'policy': {exc}") from None
        seed = _config_field(data, "seed", int, seed)
        max_events = _config_field(data, "maxEvents", int, max_events)
        raw = _config_field(data, "multiParentRule", dict)
        if raw is not None:
            rule = MultiParentRule(
                bonus=parse_ordinal(_config_field(raw, "bonus", str, "w")),
                max_descent=_config_field(raw, "maxDescent", int, 4),
            )
    if args.founder:
        founders = [parse_ordinal(f) for f in args.founder]
    if not founders:
        return None
    return LineageConfig(
        founder_intelligences=tuple(founders),
        policy=policy if args.policy is None else args.policy,
        rng_seed=seed if args.seed is None else args.seed,
        max_events=max_events if args.max_events is None else args.max_events,
        multi_parent_rule=rule,
    )


def _cmd_lineage(args: argparse.Namespace) -> int:
    config = _load_lineage_config(args)
    if config is None:
        print("error: no founders given (use --founder or --config)", file=sys.stderr)
        return 2
    log = run_lineage(config)
    if args.out:
        write_event_log(log, args.out)
        stats = chain_stats(log)
        sterile = any(ev.kind is EventKind.STERILE for ev in log)
        if args.json:
            _emit(
                {
                    "path": str(args.out),
                    "events": len(log),
                    "totalAgents": stats.total_agents,
                    "multiParentCount": stats.multi_parent_count,
                    "maxAsexualRunLength": stats.max_asexual_run_length,
                    "sterile": sterile,
                }
            )
        else:
            print(f"wrote {len(log)} events to {args.out}")
            print(f"totalAgents: {stats.total_agents}")
            print(f"multiParentCount: {stats.multi_parent_count}")
            print(f"maxAsexualRunLength: {stats.max_asexual_run_length}")
            print(f"sterile: {'true' if sterile else 'false'}")
    else:
        for ev in log:
            print(json.dumps(event_to_json(ev), separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ion",
        description="Compile ordinals to notation programs; run, verify, and simulate.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compile", help="compile an ordinal expression to a program")
    p.add_argument("ordinal", help="surface syntax, e.g. 'w^(w+1)*3+w*2+5'")
    p.add_argument("-o", "--out", help="write .ion program (plus sibling .cert)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compile)

    p = subs.add_parser("run", help="evaluate a .ion program under fuel")
    p.add_argument("path")
    _add_fuel_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("verify", help="fuel-bounded membership verification")
    p.add_argument("path")
    _add_fuel_flags(p, depth=True)
    p.add_argument("--expect", help="certificate file; mismatch or refutation exits 1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("value", help="lower-bound the notation value of a program")
    p.add_argument("path")
    _add_fuel_flags(p, depth=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_value)

    p = subs.add_parser("compare", help="compare two ordinal expressions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("hydra", help="play the hydra game on a paren shape")
    p.add_argument("shape", help="e.g. '((())())' ; outer group is the root")
    p.add_argument("--max-steps", type=_positive_int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hydra)

    p = subs.add_parser("lineage", help="run a seeded lineage simulation")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--founder", action="append", help="founder intelligence (repeatable)")
    p.add_argument("--policy", type=_policy, default=None, help="asexual or mixed:<k>")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-events", type=_positive_int, default=None)
    p.add_argument("-o", "--out", help="write .jsonl event log and print stats")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lineage)

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
