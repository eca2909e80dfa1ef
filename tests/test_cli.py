import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import qfuzzy
from qfuzzy.lab import SEARCHES, AuditConfig, audit, search_counterexample
from qfuzzy.reports import parse_structured, render_structured, render_text

DATA = Path(__file__).resolve().parent.parent / "data"
# absolute, so that a child run in another directory still imports qfuzzy
PACKAGE_ROOT = str(Path(qfuzzy.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "qfuzzy", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_group_show_catalog():
    result = run_cli("group", "show", "klein4")
    assert result.returncode == 0
    assert "e a b c" in result.stdout


def test_group_show_unknown_spec_is_usage_error():
    result = run_cli("group", "show", "monster")
    assert result.returncode == 64


def test_group_show_name_too_long_for_a_path_is_usage_error():
    result = run_cli("group", "show", "g" * 300)  # ENAMETOOLONG on lookup
    assert result.returncode == 64
    assert "Traceback" not in result.stderr
    assert "usage error" in result.stderr


def test_group_show_catalog_name_beside_a_directory_of_that_name(tmp_path):
    (tmp_path / "klein4").mkdir()
    result = run_cli("group", "show", "klein4", cwd=tmp_path)
    assert result.returncode == 0
    assert "e a b c" in result.stdout


def test_group_show_file_round_trip(tmp_path):
    text = run_cli("group", "show", "symmetric3").stdout
    path = tmp_path / "s3.group"
    path.write_text(text)
    again = run_cli("group", "show", str(path))
    assert again.returncode == 0 and again.stdout == text


def test_fuzzy_check_example_4_5_fails_base_and_passes_restricted():
    base = run_cli("fuzzy", "check", str(DATA / "example-4.5-theta.fuzzy"))
    assert base.returncode == 1
    assert "verdict: false" in base.stdout
    restricted = run_cli(
        "fuzzy", "check", str(DATA / "example-4.5-theta.fuzzy"), "--alpha", "0.09"
    )
    assert restricted.returncode == 0
    assert "verdict: true" in restricted.stdout


def test_fuzzy_check_all_zero_set_passes(tmp_path):
    path = tmp_path / "zero.fuzzy"
    path.write_text("group: cyclic3\nq_labels: q\ngrades:\n0 q 0\n1 q 0\n2 q 0\n")
    result = run_cli("fuzzy", "check", str(path))
    assert result.returncode == 0


def test_fuzzy_check_missing_file_exits_65():
    result = run_cli("fuzzy", "check", "does-not-exist.fuzzy")
    assert result.returncode == 65
    assert "input error" in result.stderr


CYCLIC4_FUZZY = "group: {}\nq_labels: q\ngrades:\n0 q 1\n1 q 0\n2 q 1/2\n3 q 0\n"


def test_fuzzy_check_group_reference_naming_a_directory(tmp_path):
    # a directory beside the fuzzy file is not a group file: a catalog name
    # still resolves, anything else is an input error, never a traceback
    (tmp_path / "cyclic4").mkdir()
    (tmp_path / "mygroup").mkdir()
    catalog = tmp_path / "catalog.fuzzy"
    catalog.write_text(CYCLIC4_FUZZY.format("cyclic4"))
    result = run_cli("fuzzy", "check", str(catalog))
    assert result.returncode == 0 and "verdict: true" in result.stdout
    unknown = tmp_path / "unknown.fuzzy"
    unknown.write_text(CYCLIC4_FUZZY.format("mygroup"))
    result = run_cli("fuzzy", "check", str(unknown))
    assert result.returncode == 65
    assert "input error" in result.stderr and "Traceback" not in result.stderr


def test_fuzzy_check_unreadable_or_unnamable_group_file_exits_65(tmp_path, monkeypatch, capsys):
    from qfuzzy import cli

    (tmp_path / "locked.group").write_text(run_cli("group", "show", "cyclic4").stdout)
    path = tmp_path / "locked.fuzzy"
    path.write_text(CYCLIC4_FUZZY.format("locked.group"))
    read_text = Path.read_text

    def locked(self, *args, **kwargs):
        if self.name == "locked.group":
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", locked)
    assert cli.main(["fuzzy", "check", str(path)]) == 65
    assert "Permission denied" in capsys.readouterr().err
    long_name = tmp_path / "long.fuzzy"
    long_name.write_text(CYCLIC4_FUZZY.format("g" * 300))
    assert cli.main(["fuzzy", "check", str(long_name)]) == 65


def test_fuzzy_check_bad_grade_exits_65(tmp_path):
    path = tmp_path / "bad.fuzzy"
    path.write_text("group: cyclic2\nq_labels: q\ngrades:\n0 q 1.5\n1 q 0\n")
    result = run_cli("fuzzy", "check", str(path))
    assert result.returncode == 65
    assert "line 4" in result.stderr


def test_check_single_claim():
    result = run_cli(
        "audit", "--props", "P4.2", "--trials", "5", "--catalog", "cyclic2"
    )
    assert result.returncode == 0
    assert "P4.2" in result.stdout


def _limit_memory():
    # were the cap missing, a child would build a table of 10^8 entries
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_order_cap_refuses_huge_groups_fast(tmp_path):
    # without the cap, cyclic5000 builds a 25 M-entry table, then runs an
    # O(n^3) associativity scan
    def refused(*args):
        return subprocess.run(
            [sys.executable, "-m", "qfuzzy", *args],
            capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
        )

    for spec in ("cyclic5000", "cyclic100xcyclic100"):
        result = refused("audit", "--props", "P4.2", "--catalog", spec, "--trials", "1")
        assert result.returncode == 64
        assert "cap" in result.stderr
    path = tmp_path / "huge.fuzzy"
    path.write_text("group: cyclic5000\nq_labels: q\ngrades:\n0 q 1\n")
    result = refused("fuzzy", "check", str(path))
    assert result.returncode == 65 and "cap" in result.stderr


def test_check_unknown_claim_is_usage_error():
    result = run_cli("audit", "--props", "P9.9")
    assert result.returncode == 64
    result = run_cli("check", "--prop", "P4.2")  # the command folded into audit
    assert result.returncode == 64 and "invalid choice: 'check'" in result.stderr


def test_search_prints_every_revalidated_witness():
    result = run_cli("search")
    assert result.returncode == 0
    expected = "".join(
        f"{claim}: witness found and re-validated\n"
        + json.dumps(search_counterexample(claim), sort_keys=True, indent=2) + "\n"
        for claim in SEARCHES
    )
    assert result.stdout == expected


def test_search_unknown_id_is_usage_error():
    result = run_cli("search", "R4.3", "P9.9")
    assert result.returncode == 64
    assert "P9.9" in result.stderr and result.stdout == ""


def test_search_without_a_revalidated_witness_exits_2(monkeypatch, capsys):
    from qfuzzy import cli

    monkeypatch.setattr(cli, "validate_witness", lambda witness: False)
    assert cli.main(["search", "R4.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "does not re-validate" in captured.err
    monkeypatch.setattr(cli, "search_counterexample", lambda claim, config: None)
    assert cli.main(["search", "R4.3"]) == 2
    assert "no witness" in capsys.readouterr().err


def test_audit_requires_target_selection():
    result = run_cli("audit", "--trials", "5")
    assert result.returncode == 64


def test_audit_bad_pool_literal_is_usage_error():
    result = run_cli(
        "audit", "--props", "P4.2", "--trials", "2", "--catalog", "cyclic2",
        "--pool", "0", "1.5",
    )
    assert result.returncode == 64


def test_audit_unwritable_out_path_is_usage_error(tmp_path):
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        result = run_cli(
            "audit", "--props", "P4.2", "--trials", "2", "--catalog", "cyclic2",
            "--out", str(out),
        )
        assert result.returncode == 64
        assert str(out) in result.stderr and "Traceback" not in result.stderr
    assert "Is a directory" in result.stderr


def test_audit_refuses_an_unwritable_out_path_before_auditing(tmp_path, monkeypatch, capsys):
    from qfuzzy import cli

    def no_audit(*args):
        raise AssertionError("audit ran before --out was checked")

    monkeypatch.setattr(cli, "audit", no_audit)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main(["audit", "--all", "--out", str(out)]) == 64
        assert str(out) in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_closed_stdout_pipe_exits_141_without_a_traceback():
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write to the pipe fails
    try:
        result = subprocess.run(
            [sys.executable, "-m", "qfuzzy", "group", "show", "cyclic12"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert "Traceback" not in result.stderr


def test_audit_structured_output_round_trips(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "audit", "--props", "P4.2", "P4.11", "--trials", "5",
        "--catalog", "cyclic2", "cyclic4",
        "--format", "structured", "--out", str(out),
    )
    assert result.returncode == 0
    reports = parse_structured(out.read_text())
    assert [r.prop_id for r in reports] == ["P4.2", "P4.2", "P4.11", "P4.11"]
    assert render_structured(reports) == out.read_text()


def test_audit_runs_are_byte_identical(tmp_path):
    args = (
        "audit", "--props", "P3.3", "P4.12", "--trials", "10",
        "--catalog", "cyclic2", "symmetric3", "--format", "structured",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_examples_reproduce_exit_codes():
    for example, group_name in (("4.5", "klein4"), ("4.10", "cyclic12")):
        result = run_cli("examples", "reproduce", example)
        assert result.returncode == 0
        assert group_name in result.stdout
    assert run_cli("examples", "reproduce", "9.9").returncode == 64


def test_bundled_example_4_10_files_match_lab_construction():
    from qfuzzy.fuzzy import parse_fuzzy_file
    from qfuzzy.lab import example_4_10_subsets

    expected = example_4_10_subsets()
    names = ("theta", "sigma", "pi")
    for subset, name in zip(expected, names):
        text = (DATA / f"example-4.10-{name}.fuzzy").read_text()
        parsed = parse_fuzzy_file(text)
        assert parsed == subset and parsed.grades == subset.grades


def test_bundled_example_4_5_file_matches_lab_construction(monkeypatch):
    from qfuzzy import lab
    from qfuzzy.checks import check_qfuzzy_subgroup
    from qfuzzy.fuzzy import parse_fuzzy_file

    # the table `_reproduce_4_5` builds is the first one it checks
    checked = []

    def check(theta):
        checked.append(theta)
        return check_qfuzzy_subgroup(theta)

    monkeypatch.setattr(lab, "check_qfuzzy_subgroup", check)
    lab.reproduce_example("4.5")
    parsed = parse_fuzzy_file((DATA / "example-4.5-theta.fuzzy").read_text())
    assert parsed == checked[0] and parsed.grades == checked[0].grades


def test_render_text_handles_empty_and_failure_blocks():
    assert render_text([]).startswith("claim")
    cfg = AuditConfig(catalog=("cyclic2",), trials=5)
    reports = audit({"P4.2"}, cfg)
    text = render_text(reports)
    assert "P4.2" in text and "verified-sampled" in text


def test_structured_render_is_valid_sorted_json():
    cfg = AuditConfig(catalog=("cyclic2",), trials=5)
    reports = audit({"P4.11"}, cfg)
    payload = json.loads(render_structured(reports))
    assert payload["reports"][0]["prop_id"] == "P4.11"
    assert parse_structured(render_structured(reports)) == reports
