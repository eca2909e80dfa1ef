import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import qfuzzy
from qfuzzy import lab
from qfuzzy.lab import SEARCHES, AuditConfig, AuditReport, audit, search_counterexample
from qfuzzy.reports import render_structured, render_text

DATA = Path(__file__).resolve().parent.parent / "data"
# absolute, so that a child run in another directory still imports qfuzzy
PACKAGE_ROOT = str(Path(qfuzzy.__file__).resolve().parent.parent)


def parse_structured(text):
    # the reports a structured rendering holds
    return [AuditReport(**entry) for entry in json.loads(text)["reports"]]


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
    for spec in ("monster", "cyclic2x", "xcyclic2"):
        result = run_cli("group", "show", spec)
        assert result.returncode == 64
        assert f"unknown group spec {spec!r}" in result.stderr
    # int() would read each of these orders; the group is refused, not renamed
    for spec in ("cyclic1_2", "cyclic\u0663", "cyclic+3", "cyclic03"):
        result = run_cli("group", "show", spec)
        assert result.returncode == 64 and result.stdout == ""
        assert f"bad cyclic group spec {spec!r}" in result.stderr
    result = run_cli("audit", "--props", "P4.6", "--catalog", "cyclic1_2", "--trials", "1")
    assert result.returncode == 64 and "bad cyclic group spec" in result.stderr


def test_a_group_spec_names_one_group_under_its_own_name(tmp_path):
    # a spec is read verbatim: another spelling or an alias names no group
    for spec in ("CYCLIC12", "trivial"):
        result = run_cli("group", "show", spec)
        assert result.returncode == 64 and result.stdout == ""
        assert f"unknown group spec {spec!r}" in result.stderr
    result = run_cli("audit", "--props", "P4.6", "--catalog", "cyclic 1 2", "--trials", "1")
    assert result.returncode == 64 and "bad cyclic group spec 'cyclic 1 2'" in result.stderr
    # in a fuzzy file the group line is data, so a misspelt name is an input error
    path = tmp_path / "klein.fuzzy"
    path.write_text("group: Klein4\nq_labels: q\ngrades:\ne q 1\n")
    result = run_cli("fuzzy", "check", str(path))
    assert result.returncode == 65 and "unknown group spec 'Klein4'" in result.stderr


def test_group_file_with_a_comment_label_exits_65(tmp_path):
    # the row "#a e" reads as a comment, so the label, not the table's shape,
    # is what the error names
    path = tmp_path / "hash.group"
    path.write_text("name: z2\nelements: e #a\ntable:\ne #a\n#a e\n")
    result = run_cli("group", "show", str(path))
    assert result.returncode == 65 and "Traceback" not in result.stderr
    assert "element label '#a' is empty, starts with '#' or has whitespace" in result.stderr


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


# `fuzzy check`'s whole render, byte for byte: a refuted table still prints
# its inverse line.  The table below fails closure and the inverse condition
CYCLIC3_BOTH_FAIL = "group: cyclic3\nq_labels: q\ngrades:\n0 q 1\n1 q 1/2\n2 q 0\n"
CLOSED = "verdict: true\n  closure: holds\n  inverse: holds\n"
BOTH_FAIL = (
    "verdict: false\n"
    "  closure: violated -- lhs = 0 < rhs = 1/2 at (1, 1, q)\n"
    "  inverse: violated -- lhs = 0 < rhs = 1/2 at (1, q)\n"
)
FUZZY_CHECK_RENDERS = (
    ("example-4.10-pi.fuzzy", (), 0, CLOSED),
    ("example-4.10-sigma.fuzzy", (), 0, CLOSED),
    ("example-4.10-theta.fuzzy", (), 0, CLOSED),
    ("example-4.5-theta.fuzzy", (), 1,
     "verdict: false\n"
     "  closure: violated -- lhs = 1/5 < rhs = 2/5 at (a, a, q)\n"
     "  inverse: holds\n"),
    ("example-4.5-theta.fuzzy", ("--alpha", "0.09"), 0,
     CLOSED + "  quotient: holds\n  two-condition and quotient forms agree\n"),
    (None, (), 1, BOTH_FAIL),
    (None, ("--alpha", "1/2"), 1,
     BOTH_FAIL + "  quotient: violated -- lhs = 0 < rhs = 1/2 at (0, 1, q)\n"
     "  two-condition and quotient forms agree\n"),
)


@pytest.mark.parametrize(
    "name, options, code, expected", FUZZY_CHECK_RENDERS,
    ids=[" ".join((name or "cyclic3", *options)) for name, options, *_ in FUZZY_CHECK_RENDERS],
)
def test_fuzzy_check_render_is_pinned(name, options, code, expected, tmp_path, capsys):
    from qfuzzy import cli

    if name is None:
        path = tmp_path / "cyclic3.fuzzy"
        path.write_text(CYCLIC3_BOTH_FAIL)
    else:
        path = DATA / name
    assert cli.main(["fuzzy", "check", str(path), *options]) == code
    assert capsys.readouterr().out == expected


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


def test_input_files_not_in_utf8_exit_65(tmp_path):
    # 0xff never occurs in UTF-8: a fuzzy file with it as a grade, a fuzzy
    # file whose group file has it, and that group file shown on its own
    bad_fuzzy = tmp_path / "bad.fuzzy"
    bad_fuzzy.write_bytes(b"group: cyclic2\nq_labels: q\ngrades:\n0 q 1\n1 q \xff\n")
    table = run_cli("group", "show", "cyclic2").stdout.encode()
    bad_group = tmp_path / "bad.group"
    bad_group.write_bytes(table.replace(b"name: cyclic2", b"name: \xff"))
    beside = tmp_path / "beside.fuzzy"
    beside.write_text("group: bad.group\nq_labels: q\ngrades:\n0 q 1\n1 q 0\n")
    for args, path, unreadable in (
        (("fuzzy", "check"), bad_fuzzy, bad_fuzzy),
        (("fuzzy", "check"), beside, bad_group),
        (("group", "show"), bad_group, bad_group),
    ):
        at = unreadable.read_bytes().index(b"\xff")
        result = run_cli(*args, str(path))
        assert result.returncode == 65
        # one line, no traceback
        assert result.stderr == f"input error: cannot read {unreadable}: not UTF-8 at byte {at}\n"


def test_fuzzy_check_bad_grade_exits_65(tmp_path):
    path = tmp_path / "bad.fuzzy"
    for literal in ("1.5", "1_0/2_0"):
        path.write_text(f"group: cyclic2\nq_labels: q\ngrades:\n0 q {literal}\n1 q 0\n")
        result = run_cli("fuzzy", "check", str(path))
        assert result.returncode == 65
        assert "line 4" in result.stderr


def test_fuzzy_check_repeated_q_label_exits_65(tmp_path):
    path = tmp_path / "twice.fuzzy"
    path.write_text("group: cyclic2\nq_labels: q q\ngrades:\n0 q 1\n1 q 0\n")
    result = run_cli("fuzzy", "check", str(path))
    assert result.returncode == 65 and result.stdout == ""
    assert "duplicate q label 'q' (line 2, field 'q_labels')" in result.stderr


def test_a_grade_outside_the_grammar_exits_with_its_contract_code(tmp_path):
    # 1e5000 once reached `str()` of a 5 001-digit integer and crashed with
    # a traceback; now an exponent is refused as a literal
    path = tmp_path / "huge.fuzzy"
    path.write_text("group: cyclic2\nq_labels: q\ngrades:\n0 q 1\n1 q 1e5000\n")
    result = run_cli("fuzzy", "check", str(path))
    assert result.returncode == 65 and result.stdout == ""
    assert result.stderr.startswith("input error: bad grade literal '1e5000'")
    assert "(line 5, field 'grades')" in result.stderr and "Traceback" not in result.stderr
    for alpha in ("1e-5000", "1e5000"):
        result = run_cli("fuzzy", "check", str(DATA / "example-4.5-theta.fuzzy"), "--alpha", alpha)
        assert result.returncode == 64 and result.stdout == ""
        assert result.stderr.startswith(f"usage error: bad grade literal '{alpha}'")
        assert "Traceback" not in result.stderr
    result = run_cli("audit", "--props", "P4.2", "--pool", "0", "1e5000", "--trials", "1")
    assert result.returncode == 64
    assert result.stderr.startswith("usage error: bad grade literal '1e5000'")


def test_a_product_spec_of_too_many_factors_exits_with_its_contract_code(tmp_path):
    # 1 500 factors once overflowed the stack of the recursive build
    for spec in ("x".join(["cyclic2"] * 9), "x".join(["cyclic1"] * 1500)):
        n = spec.count("x") + 1
        result = run_cli("group", "show", spec)
        assert result.returncode == 64 and result.stdout == ""
        assert result.stderr == f"usage error: group spec has {n} factors, above the cap of 8\n"
        path = tmp_path / "product.fuzzy"
        path.write_text(f"group: {spec}\nq_labels: q\ngrades:\n")
        result = run_cli("fuzzy", "check", str(path))
        assert result.returncode == 65 and result.stdout == ""
        assert result.stderr.startswith("input error: ") and "Traceback" not in result.stderr


def test_a_group_reference_too_long_for_a_file_name_is_read_as_a_spec(tmp_path, monkeypatch, capsys):
    from qfuzzy import cli

    path = tmp_path / "long.fuzzy"
    for spec, message in (
        ("x".join(["cyclic1"] * 1500), "group spec has 1500 factors, above the cap of 8"),
        ("g" * 300, f"unknown group spec {'g' * 300!r}"),
    ):
        path.write_text(f"group: {spec}\nq_labels: q\ngrades:\n")
        assert cli.main(["fuzzy", "check", str(path)]) == 65
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    # any other error looking the name up still says the file cannot be read
    def denied(self):
        raise PermissionError(errno.EACCES, "Permission denied")

    path.write_text("group: cyclic2\nq_labels: q\ngrades:\n")
    monkeypatch.setattr(Path, "is_file", denied)
    assert cli.main(["fuzzy", "check", str(path)]) == 65
    err = f"input error: cannot read {tmp_path / 'cyclic2'}: Permission denied\n"
    assert capsys.readouterr() == ("", err)


def test_audit_refuses_a_pool_above_its_cap_before_any_work():
    over = [str(i % 2) for i in range(lab.MAX_POOL_SIZE + 1)]  # duplicates count
    result = run_cli("audit", "--props", "R4.9", "--pool", *over)
    assert result.returncode == 64 and result.stdout == ""
    assert result.stderr == (
        f"usage error: grade pool must have 1 to {lab.MAX_POOL_SIZE} grades, got {len(over)}\n"
    )
    at_cap = [f"{i}/{lab.MAX_POOL_SIZE - 1}" for i in range(lab.MAX_POOL_SIZE)]
    result = run_cli(
        "audit", "--props", "P4.2", "--trials", "1", "--catalog", "cyclic2", "--pool", *at_cap
    )
    assert result.returncode == 0 and "P4.2" in result.stdout


def test_fuzzy_check_bad_alpha_is_usage_error_before_any_file_is_read(monkeypatch, capsys):
    from qfuzzy import cli

    message = (
        "usage error: bad grade literal 'bogus': expected a decimal such as 0.4 or a ratio"
        " such as 2/5, in ASCII digits\n"
    )
    assert cli.main(["fuzzy", "check", "/nonexistent.fuzzy", "--alpha", "bogus"]) == 64
    assert capsys.readouterr().err == message

    def no_parse(*args, **kwargs):
        raise AssertionError("the file was parsed before --alpha was checked")

    monkeypatch.setattr(cli, "parse_fuzzy_file", no_parse)
    path = str(DATA / "example-4.5-theta.fuzzy")
    assert cli.main(["fuzzy", "check", path, "--alpha", "bogus"]) == 64
    assert capsys.readouterr().err == message


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


# sha256 of stdout, byte for byte: the searches' witnesses, both worked
# examples, and a short structured audit of every claim
CLI_DIGESTS = {
    "search": "a2125639e6ec6b77e4e5dc0727f3407e9530025db14458f82abd451d947c97f9",
    "examples reproduce 4.5": "0a78af821dd28c07cf1dffc0c1edb69c16046894bd3edb4f1302ffbfaada4c75",
    "examples reproduce 4.10": "f6105a37b3568f4564c2425029ece4bbcbfc9626abc29ea3c4bcfbacfd747d40",
    "audit --all --trials 20 --format structured":
        "3dd71f3d3807facd8127bbde68708d6316e5ebd1f6a7569217c5366f8ae5d745",
}


@pytest.mark.parametrize("command", sorted(CLI_DIGESTS))
def test_cli_output_is_pinned(command, capsys):
    from qfuzzy import cli

    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[command]


def test_audit_q_size_flag_renders_the_two_label_audit(capsys):
    from qfuzzy import cli

    argv = "audit --props R4.16 --q-size 2 --trials 400".split()
    assert cli.main(argv) == 0  # R4.16 is recorded: a failure is a finding
    out = capsys.readouterr().out
    assert out == render_text(audit({"R4.16"}, AuditConfig(q_size=2, trials=400)))
    (refuted,) = [line for line in out.splitlines() if line.endswith("refuted")]
    assert refuted.split()[:2] == ["R4.16", "cyclic2->cyclic2"]
    assert '"trial": 279' in out


@pytest.mark.parametrize("q_size, message", [
    ("0", "q_size must be from 1 to 32, got 0"),
    ("-1", "q_size must be from 1 to 32, got -1"),
    (str(lab.MAX_Q_SIZE + 1), "q_size must be from 1 to 32, got 33"),
    ("two", "argument --q-size: invalid int value: 'two'"),
])
def test_audit_q_size_outside_its_range_is_usage_error(q_size, message, capsys):
    from qfuzzy import cli

    assert cli.main(["audit", "--props", "P4.2", "--trials", "1", "--q-size", q_size]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"usage error: {message}\n"


def test_audit_at_the_q_size_cap_runs(capsys):
    from qfuzzy import cli

    argv = ["audit", "--props", "P4.2", "--trials", "1", "--catalog", "cyclic2",
            "--q-size", str(lab.MAX_Q_SIZE)]
    assert cli.main(argv) == 0
    assert "verified-sampled" in capsys.readouterr().out


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
    for literal in ("1.5", "0.5_0"):
        result = run_cli(
            "audit", "--props", "P4.2", "--trials", "2", "--catalog", "cyclic2",
            "--pool", "0", literal,
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


EXAMPLE_STDOUT = {
    "4.5": (
        "claim        carrier  trials  passes  filtered  failures  status\n"
        "-----------  -------  ------  ------  --------  --------  -------------------\n"
        "example-4.5  klein4   1       1       0         0         verified-exhaustive\n"
        "    note: base table fails closure: lhs = 3/10 < rhs = 2/5 at (a, b, q); "
        "restriction at alpha = 9/100 is a subgroup\n"
    ),
    "4.10": (
        "claim         carrier   trials  passes  filtered  failures  status\n"
        "------------  --------  ------  ------  --------  --------  -------------------\n"
        "example-4.10  cyclic12  1       1       0         0         verified-exhaustive\n"
        "    note: theta, sigma, pi individually pass; union(theta, sigma) fails with "
        "lhs = 1/10 < rhs = 1/5 at (2, 3, q); union(sigma, pi) passes\n"
    ),
}


@pytest.mark.parametrize("example", sorted(EXAMPLE_STDOUT))
def test_examples_reproduce_prints_the_pinned_report(example):
    result = run_cli("examples", "reproduce", example)
    assert result.returncode == 0
    assert result.stdout == EXAMPLE_STDOUT[example] and result.stderr == ""


def test_examples_reproduce_unknown_id_is_usage_error():
    result = run_cli("examples", "reproduce", "9.9")
    assert result.returncode == 64 and result.stdout == ""


def test_examples_reproduce_a_diverging_published_value_exits_2(monkeypatch, capsys):
    from qfuzzy import cli

    monkeypatch.setitem(lab.EXAMPLES["4.5"]["published"], "pair", ("a", "b", "1/5", "2/5"))
    assert cli.main(["examples", "reproduce", "4.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "reproduction diverged: published pair diverged: "
        "read ('a', 'b', '3/10', '2/5'), not ('a', 'b', '1/5', '2/5')\n"
    )


# each bundled data file, and the record and input of `lab.EXAMPLES` it holds
EXAMPLE_FILES = {
    "example-4.5-theta": ("4.5", "witness", "theta"),
    "example-4.10-theta": ("4.10", "witness", "theta"),
    "example-4.10-sigma": ("4.10", "witness", "sigma"),
    "example-4.10-pi": ("4.10", "control", "sigma"),  # the control is (sigma, pi)
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_FILES))
def test_bundled_example_files_match_the_examples_table(name):
    from qfuzzy.fuzzy import parse_fuzzy_file

    example, record, key = EXAMPLE_FILES[name]
    expected = lab._decode(key, lab.EXAMPLES[example][record][key])
    parsed = parse_fuzzy_file((DATA / f"{name}.fuzzy").read_text())
    assert parsed == expected and parsed.grades == expected.grades


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


def test_structured_render_matches_the_deep_copy_rendering(monkeypatch):
    # every subgroup conclusion fails, so the reports hold failure records
    # with nested inputs and maps
    monkeypatch.setattr(lab, "_outcome", lambda report: (False, "forced"))
    cfg = AuditConfig(
        catalog=("cyclic2",), trials=3,
        map_pairs=(("cyclic2", "cyclic2"),), product_pairs=(("cyclic2", "cyclic3"),),
    )
    reports = audit({"P4.2", "P4.14", "P5.2"}, cfg)
    assert all(r.failures for r in reports) and any("map" in r.failures[0] for r in reports)
    deep = json.dumps(
        {"reports": [asdict(r) for r in reports]},
        sort_keys=True, indent=2, separators=(",", ": "),
    ) + "\n"
    assert render_structured(reports) == deep
    assert parse_structured(deep) == reports


# every argv this file runs, as `main` parses it (paths stand in for files
# that parsing never reads), and the usage errors argparse itself raises
PARSER_ARGVS = (
    "group show klein4",
    "group show monster",
    "fuzzy check x.fuzzy",
    "fuzzy check x.fuzzy --alpha 0.09",
    "fuzzy check x.fuzzy --alpha 1/2",
    "fuzzy check /nonexistent.fuzzy --alpha bogus",
    "audit --props P4.6 --catalog cyclic1_2 --trials 1",
    "audit --props P4.2 --trials 5 --catalog cyclic2",
    "audit --props P4.2 --catalog cyclic5000 --trials 1",
    "audit --props P9.9",
    "audit --all --trials 20 --format structured",
    "audit --props R4.16 --q-size 2 --trials 400",
    "audit --props P4.2 --trials 1 --q-size 0",
    "audit --props P4.2 --trials 1 --q-size -1",
    "audit --props P4.2 --trials 1 --q-size 33",
    "audit --props P4.2 --trials 1 --q-size two",
    "audit --props P4.2 --trials 1 --catalog cyclic2 --q-size 32",
    "audit --trials 5",
    "audit --props P4.2 --trials 2 --catalog cyclic2 --pool 0 1.5",
    "audit --props P4.2 --trials 2 --catalog cyclic2 --out x.json",
    "audit --all --out x.json",
    "audit --props P4.2 P4.11 --trials 5 --catalog cyclic2 cyclic4 --format structured"
    " --out x.json",
    "audit --props P3.3 P4.12 --trials 10 --catalog cyclic2 symmetric3 --format structured",
    "search",
    "search R4.3",
    "search R4.3 P9.9",
    "examples reproduce 4.5",
    "examples reproduce 4.10",
    "check --prop P4.2",
    # usage errors
    "fuzzy check",
    "fuzzy check x.fuzzy --beta 1",
    "audit --all --format xml",
    "audit --all --props P4.2",
    "examples reproduce 9.9",
    "group",
)


def _parsed(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except Exception as exc:
        return type(exc), str(exc)


def _main_build(cli, argv):
    # the build `main` chooses: the named command alone, else every command
    return cli._build_parser(argv[0] if argv and argv[0] in cli._COMMANDS else None)


@pytest.mark.parametrize("argv", PARSER_ARGVS)
def test_a_one_command_parser_parses_like_the_full_parser(argv):
    from qfuzzy import cli

    argv = argv.split()
    one = _parsed(_main_build(cli, argv), argv)
    assert one == _parsed(cli._build_parser(None), argv)
    assert isinstance(one, dict) or one[0] is cli.UsageError


def _help(parser, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        parser.parse_args([*path, "--help"])
    assert exit_.value.code == 0
    return out.getvalue()


COMMAND_HELP = {
    "group": "inspect finite groups",
    "fuzzy": "check fuzzy-set files",
    "audit": "audit many claims",
    "search": "run bounded counterexample searches",
    "examples": "re-run worked examples",
}


HELP_PATHS = (
    (), ("group",), ("group", "show"), ("fuzzy",), ("fuzzy", "check"), ("audit",),
    ("search",), ("examples",), ("examples", "reproduce"),
)


@pytest.mark.parametrize("path", HELP_PATHS, ids=lambda path: " ".join(path) or "root")
def test_a_one_command_parser_prints_the_full_parsers_help(path, monkeypatch):
    from qfuzzy import cli

    monkeypatch.setenv("COLUMNS", "80")
    full = _help(cli._build_parser(None), path)
    assert _help(_main_build(cli, path), path) == full


def test_the_root_always_knows_every_command(monkeypatch, capsys):
    from qfuzzy import cli

    assert cli.main(["nosuch"]) == 64
    err = capsys.readouterr().err
    assert "invalid choice: 'nosuch'" in err
    choices = err.partition("choose from")[2]  # quoted or not, by Python version
    assert all(name in choices for name in COMMAND_HELP)
    assert cli.main([]) == 64
    required = "usage error: the following arguments are required: command\n"
    assert capsys.readouterr().err == required
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, help_text in COMMAND_HELP.items():
        assert any(line.split() == [name, *help_text.split()] for line in lines)
    # a named command is built alone under the root
    actions = cli._build_parser("fuzzy")._actions
    (commands,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == {"fuzzy"}

