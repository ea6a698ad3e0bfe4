"""Command-line entry point.

Exit codes: 0 success, 1 syntax error, 2 runtime error, 3 halted by a
breakpoint (Halt), 64 usage error, 70 internal error (a fault of mklang
itself, not of the program it ran, such as a bundled listing that fails).
"""

from __future__ import annotations

import argparse
import sys

from . import bench, listings
from .errors import (
    MkError, MkRuntimeError, MkSyntaxError, UnknownClass, UnknownSelector,
)
from .interpreter import Interpreter
from .nodes import dump

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_RUNTIME = 2
EXIT_HALT = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70      # EX_SOFTWARE


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser():
    parser = _Parser(prog="mklang",
                     description="Run programs and inspect the link "
                                 "machinery of the mklang language.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    run = sub.add_parser("run", help="execute a program file")
    run.add_argument("file")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for the Random class (default 0)")

    lst = sub.add_parser("listings",
                         help="run the bundled example conformance suite")
    lst.add_argument("index", nargs="?", type=int,
                     help="run a single example (1-7)")
    lst.add_argument("--seed", type=int, default=0)

    da = sub.add_parser("dump-ast", help="print a program's node tree")
    da.add_argument("file")
    da.add_argument("--class", dest="class_name",
                    help="dump only one method (with --selector)")
    da.add_argument("--selector")

    bo = sub.add_parser("bench-overhead",
                        help="instrumentation overhead harness")
    bo.add_argument("workload", choices=sorted(bench.WORKLOADS))
    bo.add_argument("--budget", type=float, default=5.0,
                    help="seconds per mode, at the no-link speed (default 5)")
    bo.add_argument("--format", choices=("text", "records"), default="text")

    bi = sub.add_parser("bench-install",
                        help="link install cost vs. recompilation")
    bi.add_argument("methods", nargs="?", type=int, default=2000,
                    help="synthetic corpus size (default 2000)")
    bi.add_argument("--format", choices=("text", "records"), default="text")
    return parser


def _read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        print("mklang: %s" % exc, file=sys.stderr)
    except UnicodeDecodeError as exc:
        print("mklang: %s is not UTF-8 text: %s" % (path, exc),
              file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _report(exc):
    """Print an error of the program on stderr, its trace under it, and
    answer the exit code."""
    if isinstance(exc, MkSyntaxError):
        print("syntax error: %s" % exc, file=sys.stderr)
        return EXIT_SYNTAX
    kind = "runtime error" if isinstance(exc, MkRuntimeError) else "error"
    print("%s: %s" % (kind, exc), file=sys.stderr)
    for line in exc.trace:
        print("  " + line, file=sys.stderr)
    return EXIT_RUNTIME


def cmd_run(args):
    source = _read(args.file)
    interp = Interpreter(seed=args.seed)
    try:
        result = interp.run(source, file=args.file)
    except MkError as exc:
        # A syntax error stops the load before anything runs or prints.
        sys.stdout.write(interp.output_text())
        return _report(exc)
    except Exception as exc:
        # Last resort: the program's own errors are all MkErrors above.
        sys.stdout.write(interp.output_text())
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(result.output)
    if result.signal is not None:
        print("halted:", file=sys.stderr)
        for line in result.trace:
            print("  " + line, file=sys.stderr)
        return EXIT_HALT
    return EXIT_OK


def cmd_listings(args):
    if args.index is not None:
        try:
            results = [listings.run_listing(args.index, seed=args.seed)]
        except ValueError as exc:
            print("mklang: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
    else:
        results = listings.run_all(seed=args.seed)
    passed = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print("listing %d (%s): %s" % (r.index, r.title, status))
        if r.error:
            print("  error: %s" % r.error)
        elif not r.passed:
            print("  expected: %r" % r.expected)
            print("  actual:   %r" % r.actual)
        passed += r.passed
    print("%d/%d pass" % (passed, len(results)))
    # The listings are mklang's own programs: one that fails is its fault.
    return EXIT_OK if passed == len(results) else EXIT_INTERNAL


def cmd_dump_ast(args):
    if bool(args.class_name) != bool(args.selector):
        print("mklang: --class and --selector must be given together",
              file=sys.stderr)
        return EXIT_USAGE
    source = _read(args.file)
    interp = Interpreter()
    try:
        program = interp.load(source, file=args.file)
    except MkError as exc:
        return _report(exc)
    if args.class_name:
        try:
            node = interp.method_ast(args.class_name, args.selector)
        except (UnknownClass, UnknownSelector) as exc:
            print("mklang: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
        print(dump(node))
    else:
        for cdef in program.classes:
            print(dump(cdef))
        print(dump(program.main))
    return EXIT_OK


def cmd_bench_overhead(args):
    try:
        reports = bench.bench_overhead(args.workload, budget=args.budget)
    except MkError as exc:
        print("mklang: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.format == "records":
        for r in reports:
            print(r.record_line())
    else:
        print(bench.format_overhead_table(reports))
    return EXIT_OK


def cmd_bench_install(args):
    if args.methods < 0:
        print("mklang: corpus size must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    report = bench.bench_install(args.methods)
    if args.format == "records":
        print(report.record_line())
    else:
        print(bench.format_install_table(report))
    return EXIT_OK


COMMANDS = {
    "run": cmd_run,
    "listings": cmd_listings,
    "dump-ast": cmd_dump_ast,
    "bench-overhead": cmd_bench_overhead,
    "bench-install": cmd_bench_install,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
