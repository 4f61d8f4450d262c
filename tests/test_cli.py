import hashlib
import json

import pytest

from ionkit.cli import main
from ionkit.notation import source_of
from ionkit.ordinals import parse_ordinal


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
    ] + [
        (["lineage", "--config", str(cfg)], 1)          # malformed config field
        for cfg in configs
    ] + [
        (["lineage", "--seed", "1", "--config", str(configs[-1])], 1),  # checked if overridden
    ]
    for argv, expected in table:
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == expected, argv
        if rc == 1:
            assert err.startswith("error: "), (argv, err)


def test_usage_error_on_bad_flag_value(capsys):
    assert main(["run", "x.ion", "--max-steps", "0"]) == 2
    assert main(["run", "x.ion", "--max-steps", "ten"]) == 2
    assert main(["lineage", "--founder", "2", "--policy", "mixed:x"]) == 2
    capsys.readouterr()


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


def test_lineage_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"founders": ["w"], "policy": "asexual", "seed": 3}))
    assert main(["lineage", "--config", str(cfg), "--max-events", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6  # capped before sterile


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
