"""Framework behaviour: suppressions, rationales, CLI formats, registry."""

import json

import pytest

from repro.analysis import META_RULE, all_rules, analyze_file, module_name_for
from repro.analysis.__main__ import main

BAD_TDX006 = "import random\n"


def write(tmp_path, text, name="snippet.py"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_registry_has_the_five_rules_sorted():
    codes = [rule.code for rule in all_rules()]
    assert codes == ["TDX001", "TDX002", "TDX003", "TDX005", "TDX006"]
    assert all(rule.name and rule.summary for rule in all_rules())


def test_on_line_suppression_with_rationale(tmp_path):
    path = write(
        tmp_path,
        "import random  # repro: ignore[TDX006]: seeded below, test helper\n",
    )
    assert analyze_file(path) == []


def test_standalone_suppression_covers_next_statement(tmp_path):
    path = write(
        tmp_path,
        "# repro: ignore[TDX006]: seeded below, test helper\nimport random\n",
    )
    assert analyze_file(path) == []


def test_suppression_without_rationale_is_reported_and_ineffective(tmp_path):
    path = write(tmp_path, "import random  # repro: ignore[TDX006]\n")
    findings = analyze_file(path)
    assert {item.rule for item in findings} == {META_RULE, "TDX006"}


def test_suppression_with_unknown_code_is_reported(tmp_path):
    path = write(tmp_path, "import random  # repro: ignore[TDX9999]: nope\n")
    assert META_RULE in {item.rule for item in analyze_file(path)}


def test_meta_rule_is_not_suppressible(tmp_path):
    path = write(
        tmp_path,
        "import random  # repro: ignore[TDX000]: trying to silence the meta rule\n",
    )
    findings = analyze_file(path)
    assert {item.rule for item in findings} == {META_RULE, "TDX006"}


def test_suppression_of_wrong_code_does_not_mask_others(tmp_path):
    path = write(
        tmp_path,
        "import random  # repro: ignore[TDX001]: wrong rule entirely\n",
    )
    assert {item.rule for item in analyze_file(path)} == {"TDX006"}


def test_unparseable_file_is_a_meta_finding(tmp_path):
    path = write(tmp_path, "def broken(:\n")
    findings = analyze_file(path)
    assert len(findings) == 1 and findings[0].rule == META_RULE


def test_module_name_anchors_at_repro(tmp_path):
    from pathlib import Path

    assert module_name_for(Path("src/repro/temporal/interval.py")) == (
        "repro.temporal.interval"
    )
    assert module_name_for(Path("src/repro/analysis/__init__.py")) == "repro.analysis"
    assert module_name_for(Path("tests/analysis/fixtures/tdx001_bad.py")) == (
        "tdx001_bad"
    )


def test_cli_json_format(tmp_path, capsys):
    path = write(tmp_path, BAD_TDX006)
    code = main([str(path), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["findings"][0]["rule"] == "TDX006"
    assert payload["findings"][0]["line"] == 1


def test_cli_text_format_renders_location(tmp_path, capsys):
    path = write(tmp_path, BAD_TDX006)
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}:1:1: TDX006" in out
    assert "1 finding in 1 files" in out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ["TDX001", "TDX006"]:
        assert code in out


def test_cli_unknown_select_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, BAD_TDX006)
    assert main([str(path), "--select", "TDX999"]) == 2


def test_cli_select_filters(tmp_path, capsys):
    path = write(tmp_path, BAD_TDX006)
    assert main([str(path), "--select", "TDX001"]) == 0
    capsys.readouterr()


def test_duplicate_registration_rejected():
    from repro.analysis import Rule, register

    class Clash(Rule):
        code = "TDX006"
        name = "clash"
        summary = "duplicate"

    with pytest.raises(ValueError, match="duplicate rule code"):
        register(Clash)


def test_bad_code_registration_rejected():
    from repro.analysis import Rule, register

    class Meta(Rule):
        code = "TDX000"
        name = "meta"
        summary = "reserved"

    with pytest.raises(ValueError, match="TDX000"):
        register(Meta)
