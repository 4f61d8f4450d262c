import hashlib
import json

import pytest

from ionkit.cli import main
from ionkit.lineage import LineageConfig, MixedEveryK, event_log_text, run_lineage
from ionkit.notation import source_of
from ionkit.ordinals import parse_ordinal
from test_objlang import doubling_program


@pytest.fixture
def omega_files(tmp_path):
    """pw.ion + pw.cert as `ion compile` writes them."""
    out = tmp_path / "pw.ion"
    assert main(["compile", "w", "-o", str(out)]) == 0
    return out, tmp_path / "pw.cert"


# ---------------------------------------------------------------------------
# exit-code table
# ---------------------------------------------------------------------------

def test_exit_code_table(tmp_path, capsys):
    pw = tmp_path / "pw.ion"
    bad = tmp_path / "bad.ion"
    bad.write_text("garbage")
    chain = tmp_path / "chain.ion"
    chain.write_text("Print(" + "+".join(["'a'"] * 3000) + ");End")
    open_ion = tmp_path / "open.ion"
    open_ion.write_text("Print(X);End")
    doubling = tmp_path / "doubling.ion"
    doubling.write_text(doubling_program(40))
    deep = tmp_path / "deep600.ion"
    deep.write_text("Print(" + "Head(" * 600 + "'a'" + ")" * 600 + ");End")
    own_cert = tmp_path / "x.cert"
    configs = []
    for i, text in enumerate([
        '{"founders":["w"],"maxEvents":"5"}',
        '["w"]',
        '{"founders":5}',
        '{"founders":["w"],"multiParentRule":5}',
        '{"founders":["w"],"seed":[1]}',
        '{"founders":["w"],"policy":5}',
        '{"founders":["w"],"policy":"mixed:0"}',
        '{"founders":["w"],"seed":"x"}',
    ]):
        configs.append(tmp_path / f"cfg{i}.json")
        configs[-1].write_text(text)
    table = [
        (["compile", "w", "-o", str(pw)], 0),           # success with output file
        (["compile", "w^^2"], 1),                       # ordinal parse error
        (["compile", "w*30"], 1),                       # source of tens of GB
        (["run", str(pw), "--max-outputs", "2"], 0),    # normal run
        (["run", str(tmp_path / "nope.ion")], 1),       # missing file
        (["run", str(bad)], 1),                         # unparsable program
        (["verify", str(pw), "--expect", str(tmp_path / "pw.cert")], 0),
        (["value", str(pw), "--max-outputs", "3"], 0),
        (["compare", "w*2", "w+5"], 0),
        (["compare", "w*2"], 2),                        # missing positional
        (["compare", "(" * 3000 + "1" + ")" * 3000, "1"], 1),  # nested too deep
        (["hydra", "((" ], 1),                          # malformed shape
        (["lineage", "--founder", "2"], 0),
        (["frobnicate"], 2),                            # unknown subcommand
        (["run", str(chain)], 0),                       # 3000-part `+` chain
        (["run", str(open_ion)], 1),                    # reads X before assigning it
        (["run", str(doubling)], 1),                    # a string of 2**41 characters
        (["verify", str(doubling), "--depth", "2"], 0), # Inconclusive, not Refuted
        (["compile", "w", "-o", str(own_cert)], 1),     # program path is its .cert path
        (["run", str(deep)], 1),                        # 600 nested Head( past the limit
        (["verify", str(deep)], 1),
        (["value", str(deep)], 1),
    ] + [
        (["lineage", "--config", str(cfg)], 1)          # malformed config field
        for cfg in configs
    ] + [
        (["lineage", "--seed", "1", "--config", str(configs[-1])], 1),  # checked if overridden
    ]
    messages = {
        str(open_ion): "error: variable 'X' may be read before assignment in Print\n",
        str(doubling): "error: string value of 134217728 characters is over the limit of 67108864\n",
        str(own_cert): f"error: -o {own_cert} names the certificate file;"
                       " use a suffix other than .cert\n",
        # Print( and 127 Head( fill the nesting limit; the next Head( is at 641
        str(deep): "error: offset 641: nesting deeper than the limit of 128\n",
    }
    for argv, expected in table:
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == expected, argv
        if rc == 1:
            assert err.startswith("error: "), (argv, err)
        if argv[-1] in messages:
            assert err == messages[argv[-1]], (argv, err)
    assert not own_cert.exists()


@pytest.mark.parametrize("argv, offset", [
    (["compare", "(" * 3000 + "1" + ")" * 3000, "1"], 128),
    (["compare", "1", "w^" * 3000 + "1"], 257),
    (["hydra", "(" * 3000 + ")" * 3000], 128),
])
def test_deep_ordinal_text_exits_1_at_the_nesting_limit(argv, offset, capsys):
    # The parsers count their groups, so the message names the limit, not
    # the interpreter's recursion depth.
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: offset {offset}: nesting deeper than the limit of 128\n")


def test_a_hydra_past_the_node_budget_exits_1(capsys):
    # Its game does not end in practice; the budget stops it at its first cut past 10**4 nodes.
    assert main(["hydra", "(((((())))))"]) == 1
    assert capsys.readouterr() == ("", "error: hydra of 10125 nodes is over the limit of 10000\n")


def test_usage_error_on_bad_flag_value(capsys):
    assert main(["run", "x.ion", "--max-steps", "0"]) == 2
    assert main(["run", "x.ion", "--max-steps", "ten"]) == 2
    assert main(["lineage", "--founder", "2", "--policy", "mixed:x"]) == 2
    capsys.readouterr()


def test_consecutive_calls_leave_no_state_behind(capsys):
    # the parser is built once per process and shared by every call
    founders = ["lineage", "--founder", "2", "--founder", "1", "--policy", "asexual", "--seed", "0"]
    assert main(founders) == 0
    first = capsys.readouterr().out
    assert [json.loads(line)["kind"] for line in first.splitlines()].count("founder") == 2
    assert main(founders) == 0  # --founder appends to a fresh list
    assert capsys.readouterr().out == first
    assert main(["compare", "w", "2", "--json"]) == 0
    assert capsys.readouterr().out == '{"result": "Greater"}\n'
    assert main(["compare", "w", "2"]) == 0  # --json is off again
    assert capsys.readouterr().out == "Greater\n"
    assert main(["compare", "w"]) == 2
    assert main(["compare", "2", "w"]) == 0
    assert capsys.readouterr().out == "Less\n"


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

def test_compile_prints_source(capsys):
    assert main(["compile", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "Print('Print(\\'End\\');End');End\n"


def test_compile_normalizes(capsys):
    assert main(["compile", "1+w", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ordinal"] == "w"
    assert data["source"] == source_of(parse_ordinal("w"))


def test_compile_writes_program_and_certificate(omega_files):
    ion, cert = omega_files
    src = ion.read_text()
    assert src == source_of(parse_ordinal("w"))
    lines = cert.read_text().splitlines()
    assert lines[0] == "ordinal: w"
    assert lines[1] == f"sha256: {hashlib.sha256(src.encode()).hexdigest()}"


def test_compile_leaves_no_program_when_certificate_write_fails(tmp_path, capsys):
    (tmp_path / "x.cert").mkdir()
    out = tmp_path / "x.ion"
    assert main(["compile", "w", "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# run / verify / value / compare / hydra
# ---------------------------------------------------------------------------

def test_run_prints_outputs_one_per_line(omega_files, capsys):
    ion, _ = omega_files
    assert main(["run", str(ion), "--max-outputs", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [source_of(parse_ordinal(str(n))) for n in range(3)]
    assert "FuelExhausted" in captured.err


def test_run_json_schema(omega_files, capsys):
    ion, _ = omega_files
    assert main(["run", str(ion), "--max-outputs", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["outputs"] == [source_of(parse_ordinal("0")), source_of(parse_ordinal("1"))]
    assert data["status"] == "FuelExhausted"
    assert data["stepsUsed"] > 0


def test_verify_json_inconclusive(omega_files, capsys):
    ion, _ = omega_files
    assert main(["verify", str(ion), "--max-outputs", "10", "--depth", "12", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "Inconclusive"
    assert data["outputsChecked"] == 55
    assert data["fuelSpent"]["evaluations"] == 56


def test_verify_proven_member(tmp_path, capsys):
    p = tmp_path / "three.ion"
    assert main(["compile", "3", "-o", str(p)]) == 0
    capsys.readouterr()
    assert main(["verify", str(p), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "ProvenMember"
    assert data["exactValue"] == "3"


def test_verify_expect_mismatch(tmp_path, omega_files, capsys):
    _, cert = omega_files
    other = tmp_path / "two.ion"
    assert main(["compile", "2", "-o", str(other)]) == 0
    capsys.readouterr()
    assert main(["verify", str(other), "--expect", str(cert)]) == 1
    assert "mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("claim, rc, err", [
    ("3", 0, ""),
    ("7", 1, "certificate mismatch: exact value 3 != 7\n"),
    ("w^^", 1, "error: certificate {cert}: offset 2: ordinal atom"
               " (natural, 'w', or parenthesized expression)\n"),
])
def test_verify_expect_checks_the_ordinal_claim(tmp_path, capsys, claim, rc, err):
    ion, cert = tmp_path / "p3.ion", tmp_path / "p3.cert"
    assert main(["compile", "3", "-o", str(ion)]) == 0
    cert.write_text(cert.read_text().replace("ordinal: 3\n", f"ordinal: {claim}\n"))
    capsys.readouterr()
    assert main(["verify", str(ion), "--expect", str(cert)]) == rc
    out, actual_err = capsys.readouterr()
    assert actual_err == err.format(cert=cert)
    # a claim that parses is checked after the report
    assert out == ("" if claim == "w^^" else "verdict: ProvenMember\nexactValue: 3\n")


def test_verify_refuted_exit_depends_on_expect(tmp_path, capsys):
    bad = tmp_path / "bad.ion"
    bad.write_text("Print('###');End")
    assert main(["verify", str(bad), "--json"]) == 0  # informational without --expect
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "Refuted"
    assert data["path"] == [0]
    cert = tmp_path / "bad.cert"
    digest = hashlib.sha256(bad.read_text().encode()).hexdigest()
    cert.write_text(f"ordinal: 1\nsha256: {digest}\n")
    assert main(["verify", str(bad), "--expect", str(cert)]) == 1
    capsys.readouterr()


def test_value_output(omega_files, capsys):
    ion, _ = omega_files
    assert main(["value", str(ion), "--max-outputs", "5"]) == 0
    out = capsys.readouterr().out
    assert "lowerBound: 5" in out
    assert "refuted: false" in out


def test_compare_outputs(capsys):
    cases = [("w*2", "w+5", "Greater"), ("1+w", "w", "Equal"), ("3", "w", "Less")]
    for a, b, expect in cases:
        assert main(["compare", a, b]) == 0
        assert capsys.readouterr().out.strip() == expect
    assert main(["compare", "w", "w^2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"result": "Less"}


def test_hydra_trajectory(capsys):
    assert main(["hydra", "((()))", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["values"] == ["w", "1", "0"]
    assert data["cuts"] == 2


# ---------------------------------------------------------------------------
# lineage command
# ---------------------------------------------------------------------------

def test_lineage_stdout_is_jsonl(capsys):
    assert main(["lineage", "--founder", "2", "--policy", "asexual", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    events = [json.loads(line) for line in lines]
    assert [e["kind"] for e in events] == ["founder", "asexual", "asexual", "sterile"]
    assert [e["childIntelligence"] for e in events[:3]] == ["2", "1", "0"]


def test_lineage_writes_log_and_stats(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    rc = main([
        "lineage", "--founder", "w", "--policy", "mixed:3",
        "--seed", "42", "--max-events", "100", "-o", str(log), "--json",
    ])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["events"] == 101
    assert stats["multiParentCount"] == 33
    assert stats["sterile"] is False
    assert len(log.read_text().splitlines()) == 101


def test_lineage_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "founders": ["3", "w"],
        "policy": "mixed:2",
        "seed": 5,
        "maxEvents": 12,
        "multiParentRule": {"bonus": "w^2", "maxDescent": 3},
    }))
    assert main(["lineage", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14  # 2 founder markers + 12 creations
    assert json.loads(lines[0])["kind"] == "founder"


# Every way a config is refused, with its exact message: each names the field.
@pytest.mark.parametrize("text, message", [
    ('{"founders":["w"],"policy":"bogus"}',
     "config field 'policy': unknown policy 'bogus'; use asexual or mixed:<k>"),
    ('{"founders":["w"],"policy":"mixed:x"}',
     "config field 'policy': bad mixed policy 'mixed:x'; use mixed:<k>"),
    ('{"founders":["w"],"policy":"mixed:0"}',
     "config field 'policy': bad mixed policy 'mixed:0'; use mixed:<k>"),
    ('{"founders":["w"],"policy":5}', "config field 'policy' must be a string"),
    ('{"founders":5}', "config field 'founders' must be a list"),
    ('{"founders":[5]}', "config field 'founders' must be a list of strings"),
    ('{"founders":["w"],"seed":"x"}', "config field 'seed' must be an integer"),
    ('{"founders":["w"],"seed":[1]}', "config field 'seed' must be an integer"),
    ('{"founders":["w"],"maxEvents":true}', "config field 'maxEvents' must be an integer"),
    ('{"founders":["w"],"maxEvents":0}', "config field 'maxEvents' must be an int >= 1"),
    ('{"founders":["w"],"multiParentRule":5}',
     "config field 'multiParentRule' must be an object"),
    ('{"founders":["w"],"multiParentRule":{"bonus":3}}', "config field 'bonus' must be a string"),
    ('{"founders":["w"],"multiParentRule":{"maxDescent":-1}}',
     "config field 'maxDescent' must be an int >= 0"),
    ('[1]', "config must be a JSON object"),
])
def test_lineage_config_errors(text, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["lineage", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("data, reason", [
    (b"not json", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
])
def test_a_config_that_is_not_json_is_named(data, reason, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    assert main(["lineage", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: config {cfg}: {reason}\n")


# k is ASCII digits only, as a natural in ordinal text is; int() alone would take each of these.
@pytest.mark.parametrize("policy", ["mixed:1_0", "mixed: 3", "mixed:+3", "mixed:3 ", "mixed:\u0663"])
def test_mixed_policy_takes_ascii_digits_only(policy, tmp_path, capsys):
    message = f"bad mixed policy {policy!r}; use mixed:<k>"
    assert main(["lineage", "--founder", "2", "--policy", policy]) == 2
    assert capsys.readouterr().err.endswith(f"error: argument --policy: {message}\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"founders": ["2"], "policy": policy}))
    assert main(["lineage", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: config field 'policy': {message}\n")


@pytest.mark.parametrize("text", [" 3", "1_0", "٣", "+3", "3 ", "--3", "9" * 5000])
@pytest.mark.parametrize("argv", [
    ["hydra", "(())", "--max-steps"],
    ["run", "x.ion", "--max-outputs"],
    ["verify", "x.ion", "--depth"],
    ["lineage", "--founder", "2", "--max-events"],
    ["lineage", "--founder", "2", "--seed"],
])
def test_integer_flags_take_ascii_digits_only(argv, text, capsys):
    # int() alone reads " 3", "1_0" and "٣" (an Arabic-Indic digit) as 3, 10 and 3.
    # As --flag=value, so argparse takes "--3" for a value, not for an option.
    assert main([*argv[:-1], f"{argv[-1]}={text}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ion ")
    assert err.endswith(f"error: argument {argv[-1]}: {text!r} is not an integer\n")


def test_seed_takes_one_leading_minus(capsys):
    assert main(["lineage", "--founder", "2", "--seed", "-3"]) == 0
    assert capsys.readouterr().out == event_log_text(
        run_lineage(LineageConfig((parse_ordinal("2"),), rng_seed=-3))
    )
    assert main(["hydra", "(())", "--max-steps", "-3"]) == 2
    assert capsys.readouterr().err.endswith("error: argument --max-steps: value must be >= 1\n")


def test_lineage_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"founders": ["w"], "policy": "asexual", "seed": 3}))
    assert main(["lineage", "--config", str(cfg), "--max-events", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6  # capped before sterile


@pytest.mark.parametrize("fields, kwargs", [
    ({}, {}),
    ({"policy": "mixed:2", "maxEvents": 30}, {"policy": MixedEveryK(2), "max_events": 30}),
])
def test_lineage_config_takes_the_library_defaults(fields, kwargs, tmp_path, capsys):
    # Fields the config leaves out, here all of multiParentRule's, take the
    # defaults of LineageConfig and MultiParentRule.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"founders": ["w^2", "3"], "multiParentRule": {}, **fields}))
    assert main(["lineage", "--config", str(cfg)]) == 0
    config = LineageConfig((parse_ordinal("w^2"), parse_ordinal("3")), **kwargs)
    assert capsys.readouterr().out == event_log_text(run_lineage(config))


def test_lineage_requires_founders(capsys):
    assert main(["lineage", "--policy", "asexual"]) == 2
    assert "founder" in capsys.readouterr().err


def test_lineage_reproducible_across_invocations(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["lineage", "--founder", "w^2", "--policy", "mixed:4", "--seed", "11",
            "--max-events", "50"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# golden transcript and exact text forms
# ---------------------------------------------------------------------------

GOLDEN_ORDINALS = ["0", "1", "3", "w", "w+2", "w*2+1", "w^2", "w^w", "w^(w+1)*2+w"]
SMALL_FUEL = ["--max-steps", "300", "--max-outputs", "2"]


def _golden_rows():
    """(argv, loose) rows; a loose row pins only its exit code and `error: `."""
    rows = []
    for i, text in enumerate(GOLDEN_ORDINALS):
        ion, cert = f"p{i}.ion", f"p{i}.cert"
        rows += [
            ["compile", text],
            ["compile", text, "--json"],
            ["compile", text, "-o", f"j{i}.ion", "--json"],
            ["compile", text, "-o", ion],
            ["run", ion],
            ["run", ion, "--json"],
            ["run", ion, *SMALL_FUEL],
            ["verify", ion],
            ["verify", ion, "--json"],
            ["verify", ion, "--expect", cert],
            ["verify", ion, "--expect", cert, "--json"],
            ["verify", ion, *SMALL_FUEL, "--depth", "2"],
            ["verify", ion, *SMALL_FUEL, "--depth", "2", "--json"],
            ["value", ion],
            ["value", ion, "--json"],
            ["value", ion, *SMALL_FUEL, "--depth", "2"],
        ]
    rows = [(argv, False) for argv in rows]
    rows += [(argv, False) for argv in [
        ["verify", "p1.ion", "--expect", "p0.cert"],            # certificate mismatch
        ["verify", "p1.ion", "--expect", "nope.cert"],
        ["run", "refuted.ion"],
        ["run", "refuted.ion", "--json"],
        ["verify", "refuted.ion"],
        ["verify", "refuted.ion", "--json"],
        ["verify", "refuted.ion", "--expect", "refuted.cert"],
        ["verify", "refuted.ion", "--expect", "refuted.cert", "--json"],
        ["value", "refuted.ion"],
        ["value", "refuted.ion", "--json"],
        ["run", "open.ion"],
        ["run", "open.ion", "--json"],
        ["verify", "open.ion"],
        ["verify", "open.ion", "--json"],
        ["value", "open.ion", "--json"],
        ["run", "nope.ion"],
        ["verify", "garbage.ion"],
        ["value", "garbage.ion", "--json"],
        ["compare", "w*2", "w+5"],
        ["compare", "1+w", "w"],
        ["compare", "3", "w"],
        ["compare", "w", "w^2", "--json"],
        ["compare", "w^w", "w^(w+1)*2+w", "--json"],
        ["compare", "w", "w^^2"],
        ["hydra", "()"],
        ["hydra", "((()))"],
        ["hydra", "((()))", "--json"],
        ["hydra", "(()(()))"],
        ["hydra", "(()(()))", "--json"],
        ["hydra", "(((())))", "--max-steps", "3"],
        ["hydra", "(("],
        ["hydra", "(()", "--json"],
        ["lineage", "--founder", "2", "--policy", "asexual", "--seed", "0"],
        ["lineage", "--founder", "w", "--policy", "mixed:3", "--seed", "42",
         "--max-events", "20"],
        ["lineage", "--founder", "w", "--founder", "3", "--policy", "mixed:2",
         "--seed", "7", "--max-events", "12", "-o", "mixed.jsonl"],
        ["lineage", "--founder", "w^2", "--policy", "mixed:4", "--seed", "11",
         "--max-events", "30", "-o", "w2.jsonl", "--json"],
        ["lineage", "--founder", "2", "-o", "two.jsonl"],
        ["lineage", "--founder", "2", "-o", "two.jsonl", "--json"],
        ["lineage", "--config", "cfg.json"],
        ["lineage", "--config", "cfg.json", "--max-events", "5", "-o", "cfg.jsonl"],
        ["lineage", "--config", "bad.json"],
        ["lineage", "--policy", "asexual"],                     # no founders
        ["lineage", "--config", "empty.json", "--json"],        # no founders
        ["compile", "w+2", "-o", "noext"],                     # certificate noext.cert
        ["compile", "2", "-o", "two.v1.ion", "--json"],         # certificate two.v1.cert
        ["compile", "w*30"],
        ["compile", "w^^2"],
        ["compile", "w^^2", "--json"],
    ]]
    rows += [(argv, True) for argv in [
        ["run", "deep.ion"],                                    # RecursionError
        ["verify", "deep.ion", "--json"],
        ["value", "deep.ion"],
        ["compare", "(" * 3000 + "1" + ")" * 3000, "1"],
        ["compare", "w"],                                       # argparse usage errors
        ["frobnicate"],
        ["run", "p0.ion", "--max-steps", "0"],
        ["lineage", "--founder", "2", "--policy", "mixed:x"],
    ]]
    return rows


def _golden_inputs(cwd):
    (cwd / "refuted.ion").write_text("Print('###');End")
    digest = hashlib.sha256(b"Print('###');End").hexdigest()
    (cwd / "refuted.cert").write_text(f"ordinal: 1\nsha256: {digest}\n")
    (cwd / "open.ion").write_text("Print(X);End")
    (cwd / "garbage.ion").write_text("garbage")
    (cwd / "deep.ion").write_text("Print(" + "Head(" * 5000 + "'a'" + ")" * 5000 + ");End")
    (cwd / "cfg.json").write_text(json.dumps({
        "founders": ["3", "w"], "policy": "mixed:2", "seed": 5, "maxEvents": 12,
        "multiParentRule": {"bonus": "w^2", "maxDescent": 3},
    }))
    (cwd / "bad.json").write_text('{"founders":["w"],"seed":"x"}')
    (cwd / "empty.json").write_text('{"founders":[]}')


def _snapshot(cwd):
    return {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}


def test_golden_cli_transcript(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _golden_inputs(tmp_path)
    rows = _golden_rows()
    assert len(rows) >= 150
    digest = hashlib.sha256()
    for argv, loose in rows:
        before = _snapshot(tmp_path)
        rc = main(argv)
        out, err = capsys.readouterr()
        after = _snapshot(tmp_path)
        written = [[name, hashlib.sha256(data).hexdigest()]
                   for name, data in after.items() if before.get(name) != data]
        if loose:
            assert rc in (1, 2) and out == "" and "error: " in err, (argv, err)
            record = [argv, rc, "error: " in err]
        else:
            record = [argv, rc, out, err, written]
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == "53a520949158ea841d40cfebc59c5aa68870e11e00d39eff1a074c859a8d279b"


def test_text_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _golden_inputs(tmp_path)
    table = [
        (["compile", "w", "-o", "pw.ion"], "wrote pw.ion (193 bytes) and pw.cert\n"),
        (["verify", "pw.ion", "--max-outputs", "3", "--depth", "2"],
         "verdict: Inconclusive\noutputsChecked: 5\ndepthReached: 2\n"),
        (["compile", "3", "-o", "three.ion"], "wrote three.ion (50 bytes) and three.cert\n"),
        (["verify", "three.ion"], "verdict: ProvenMember\nexactValue: 3\n"),
        (["verify", "refuted.ion"],
         "verdict: Refuted\npath: [0]\nreason: output does not parse:"
         " offset 0: expected identifier, found '###'\n"),
        (["value", "pw.ion", "--max-outputs", "5"], "lowerBound: 5\nrefuted: false\n"),
        (["value", "refuted.ion"], "lowerBound: 0\nrefuted: true\n"),
        (["hydra", "((()))"], "step 0: w\nstep 1: 1\nstep 2: 0\ndead after 2 cuts\n"),
        (["lineage", "--founder", "2", "--policy", "asexual", "--seed", "0", "-o", "l.jsonl"],
         "wrote 4 events to l.jsonl\ntotalAgents: 3\nmultiParentCount: 0\n"
         "maxAsexualRunLength: 2\nsterile: true\n"),
    ]
    for argv, expected in table:
        assert main(argv) == 0, argv
        assert capsys.readouterr() == (expected, ""), argv
