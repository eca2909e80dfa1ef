"""Command-line driver.

Exit-status contract:
  0   success / verified
  1   verdict false for a single fuzzy-set check
  2   audit failures on claims expected to verify, a diverging
      worked-example reproduction, or a search without a witness that
      re-validates
  64  usage errors (unknown commands, flags, claim ids, group specs)
  65  input files that are missing, unreadable, not UTF-8 or fail to parse
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
    EXAMPLES,
    EXPECTED_VERIFIED,
    MAX_Q_SIZE,
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


def _build_parser(command=None) -> _Parser:
    """The root with `command` alone under it, or with every command when
    `command` is None. Only the full root prints the root's help or names
    the choices of an invalid command, and `main` builds it whenever argv
    does not start with a command."""
    parser = _Parser(prog="qfuzzy", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_args, _ = _COMMANDS[name]
        add_args(commands.add_parser(name, help=help_text))
    return parser


def _add_group_args(parser) -> None:
    sub = parser.add_subparsers(dest="subcommand", required=True)
    show = sub.add_parser("show", help="print a Cayley table")
    show.add_argument("spec", help="catalog name (e.g. klein4) or file path")


def _add_fuzzy_args(parser) -> None:
    sub = parser.add_subparsers(dest="subcommand", required=True)
    check = sub.add_parser("check", help="run the subgroup check")
    check.add_argument("path", help="fuzzy-set file")
    check.add_argument("--alpha", help="threshold grade; restricted check when given")


def _add_audit_args(parser) -> None:
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--all", action="store_true", help="audit every claim")
    target.add_argument("--props", nargs="+", help="specific claim ids")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--q-size", type=int, default=1, help=f"q labels per table, 1 to {MAX_Q_SIZE}"
    )
    parser.add_argument("--catalog", nargs="+", help="group specs to audit over")
    parser.add_argument("--pool", nargs="+", help="grade literals for generators")
    parser.add_argument("--format", choices=["text", "structured"], default="text")
    parser.add_argument("--out", help="write the report to this path")


def _add_search_args(parser) -> None:
    parser.add_argument("claims", nargs="*", help="search ids (default: all)")


def _add_examples_args(parser) -> None:
    sub = parser.add_subparsers(dest="subcommand", required=True)
    reproduce = sub.add_parser("reproduce", help="reproduce an example")
    reproduce.add_argument("example_id", choices=list(EXAMPLES))


def _config_from_args(args) -> AuditConfig:
    kwargs = {"trials": args.trials, "seed": args.seed, "q_size": args.q_size}
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


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"cannot read {path}: not UTF-8 at byte {exc.start}")


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
        except OSError as exc:
            if exc.errno != errno.ENAMETOOLONG:
                raise FileFormatError(f"cannot read {candidate}: {exc.strerror}")
            is_file = False  # too long to be a file name: a catalog spec
        if is_file:
            return parse_group_file(_read_file(str(candidate)))
        return standard_group(spec)

    try:  # a bad alpha is a usage error, before any file is read
        alpha = None if args.alpha is None else parse_grade(args.alpha)
    except GradeError as exc:
        raise UsageError(str(exc))
    theta = parse_fuzzy_file(_read_file(args.path), resolve_group=resolve)
    if alpha is not None:
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
    render = render_structured if args.format == "structured" else render_text
    _emit(render(reports), args.out)
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
    sys.stdout.write(render_text([report]))
    return EXIT_OK


# every command, declared once, in the order the root's help lists them:
# name -> (help, the function that adds its arguments, handler)
_COMMANDS = {
    "group": ("inspect finite groups", _add_group_args, _cmd_group_show),
    "fuzzy": ("check fuzzy-set files", _add_fuzzy_args, _cmd_fuzzy_check),
    "audit": ("audit many claims", _add_audit_args, _cmd_audit),
    "search": ("run bounded counterexample searches", _add_search_args, _cmd_search),
    "examples": ("re-run worked examples", _add_examples_args, _cmd_examples_reproduce),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # only the named command is built under the root; -h, an empty argv or
    # an unknown command builds them all
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _build_parser(command)
    try:
        args = parser.parse_args(argv)
        _, _, run = _COMMANDS[args.command]
        code = run(args)
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
