"""Command-line driver.

Exit-status contract:
  0   success / verified
  1   verdict false for a single fuzzy-set check
  2   audit failures on claims expected to verify, a diverging
      worked-example reproduction, or a search without a witness that
      re-validates
  64  usage errors (unknown commands, flags, claim ids, group specs)
  65  input files that are missing or fail to parse
  141 stdout's reader closed the pipe early (128 + SIGPIPE, as shells report)
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from .grades import GradeError, parse_grade
from .groups import (
    FileFormatError,
    GroupError,
    format_group_file,
    parse_group_file,
    standard_group,
)
from .fuzzy import CarrierError, alpha_restrict, parse_fuzzy_file
from .checks import check_alpha_subgroup, check_qfuzzy_subgroup
from .lab import (
    CLAIM_ORDER,
    EXPECTED_VERIFIED,
    SEARCHES,
    AuditConfig,
    ReproductionError,
    audit,
    reproduce_example,
    search_counterexample,
    validate_witness,
)
from .reports import render_structured, render_text

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_AUDIT_FAILED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qfuzzy", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    group = commands.add_parser("group", help="inspect finite groups")
    group_sub = group.add_subparsers(dest="subcommand", required=True)
    group_show = group_sub.add_parser("show", help="print a Cayley table")
    group_show.add_argument("spec", help="catalog name (e.g. klein4) or file path")

    fuzzy = commands.add_parser("fuzzy", help="check fuzzy-set files")
    fuzzy_sub = fuzzy.add_subparsers(dest="subcommand", required=True)
    fuzzy_check = fuzzy_sub.add_parser("check", help="run the subgroup check")
    fuzzy_check.add_argument("path", help="fuzzy-set file")
    fuzzy_check.add_argument(
        "--alpha", help="threshold grade; restricted check when given"
    )

    audit_cmd = commands.add_parser("audit", help="audit many claims")
    target = audit_cmd.add_mutually_exclusive_group(required=True)
    target.add_argument("--all", action="store_true", help="audit every claim")
    target.add_argument("--props", nargs="+", help="specific claim ids")
    _add_audit_flags(audit_cmd)

    search = commands.add_parser("search", help="run bounded counterexample searches")
    search.add_argument("claims", nargs="*", help="search ids (default: all)")

    examples = commands.add_parser("examples", help="re-run worked examples")
    examples_sub = examples.add_subparsers(dest="subcommand", required=True)
    reproduce = examples_sub.add_parser("reproduce", help="reproduce an example")
    reproduce.add_argument("example_id", choices=["4.5", "4.10"])

    return parser


def _add_audit_flags(parser):
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--catalog", nargs="+", help="group specs to audit over")
    parser.add_argument("--pool", nargs="+", help="grade literals for generators")
    parser.add_argument("--format", choices=["text", "structured"], default="text")
    parser.add_argument("--out", help="write the report to this path")


def _config_from_args(args) -> AuditConfig:
    kwargs = {"trials": args.trials, "seed": args.seed}
    try:
        if args.catalog:
            for spec in args.catalog:
                standard_group(spec)  # unknown names are usage errors
            kwargs["catalog"] = tuple(args.catalog)
        if args.pool:
            kwargs["grade_pool"] = tuple(parse_grade(lit) for lit in args.pool)
        return AuditConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _check_writable(out_path: str) -> None:
    # refuse, before any work, a path the write would fail on, with its
    # message; the file is neither opened nor truncated before the write
    path = Path(out_path)
    try:
        if path.is_dir():
            code = errno.EISDIR
        elif not path.parent.is_dir():
            code = errno.ENOENT
        elif not os.access(path.parent, os.W_OK):
            code = errno.EACCES
        else:
            return
    except OSError as exc:  # e.g. a name too long to look up
        code = exc.errno
    raise UsageError(f"cannot write {out_path}: {os.strerror(code)}")


def _emit(text: str, out_path):
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _render(reports, fmt: str) -> str:
    if fmt == "structured":
        return render_structured(reports)
    return render_text(reports)


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc.strerror}")


def _cmd_group_show(args) -> int:
    try:
        is_path = Path(args.spec).is_file()
    except OSError:  # e.g. a name too long to look up: not a file
        is_path = False
    if is_path:
        group = parse_group_file(_read_file(args.spec))  # data errors exit 65
    else:
        try:
            group = standard_group(args.spec)
        except GroupError as exc:
            raise UsageError(str(exc))
    sys.stdout.write(format_group_file(group))
    return EXIT_OK


def _cmd_fuzzy_check(args) -> int:
    base_dir = Path(args.path).parent

    def resolve(spec: str):
        # a group file next to the fuzzy file, else a catalog name
        candidate = base_dir / spec
        try:
            is_file = candidate.is_file()
        except OSError as exc:  # e.g. a name too long to look up
            raise FileFormatError(f"cannot read {candidate}: {exc.strerror}")
        if is_file:
            return parse_group_file(_read_file(str(candidate)))
        return standard_group(spec)

    theta = parse_fuzzy_file(_read_file(args.path), resolve_group=resolve)
    if args.alpha is not None:
        try:
            alpha = parse_grade(args.alpha)
        except GradeError as exc:
            raise UsageError(str(exc))
        report = check_alpha_subgroup(alpha_restrict(theta, alpha))
    else:
        report = check_qfuzzy_subgroup(theta)
    sys.stdout.write(report.render() + "\n")
    return EXIT_OK if report.verdict else EXIT_VERDICT_FALSE


def _cmd_audit(args) -> int:
    config = _config_from_args(args)
    if args.out:
        _check_writable(args.out)
    try:
        reports = audit(CLAIM_ORDER if args.all else args.props, config)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(_render(reports, args.format), args.out)
    expected_failures = [
        r for r in reports if r.prop_id in EXPECTED_VERIFIED and r.failures
    ]
    return EXIT_AUDIT_FAILED if expected_failures else EXIT_OK


def _cmd_search(args) -> int:
    unknown = sorted(set(args.claims) - set(SEARCHES))
    if unknown:
        raise UsageError(f"unknown search ids: {unknown}")
    config = AuditConfig()
    failed = False
    for claim in SEARCHES:
        if args.claims and claim not in args.claims:
            continue
        witness = search_counterexample(claim, config)
        if witness is None:
            sys.stderr.write(f"{claim}: no witness in the bounded search space\n")
            failed = True
            continue
        text = json.dumps(witness, sort_keys=True, indent=2)
        if validate_witness(witness):
            sys.stdout.write(f"{claim}: witness found and re-validated\n{text}\n")
        else:
            sys.stderr.write(f"{claim}: witness found but does not re-validate\n{text}\n")
            failed = True
    return EXIT_AUDIT_FAILED if failed else EXIT_OK


def _cmd_examples_reproduce(args) -> int:
    try:
        report = reproduce_example(args.example_id)
    except ReproductionError as exc:
        sys.stderr.write(f"reproduction diverged: {exc}\n")
        return EXIT_AUDIT_FAILED
    sys.stdout.write(_render([report], "text"))
    return EXIT_OK


_COMMANDS = {
    "group": _cmd_group_show,
    "fuzzy": _cmd_fuzzy_check,
    "audit": _cmd_audit,
    "search": _cmd_search,
    "examples": _cmd_examples_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit flush
        return code
    except BrokenPipeError:
        # stdout's unwritten rest then goes to devnull in the exit flush, quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (FileFormatError, GradeError, GroupError, CarrierError) as exc:
        # unreadable inputs, or bad literals or structures inside readable ones
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
