"""Command-line entry point: check / run / diff / fuzz / bench / trace.

Exit codes: 0 success, 1 parse/type/runtime error in the program
(running out of stack or memory included), 2 differential mismatch, 3
internal invariant breach, 64 usage error (a bad option value or
MFL_SEED, or a named file that cannot be read or written). Each command
runs on the deep-stack worker, since checking, evaluating and printing
all recurse with the program.
All randomness (fuzz cases, benchmark permutations) flows from one
--seed; without it, MFL_SEED is consulted, then an entropy-derived seed
is drawn and printed so a run can be reproduced.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from pathlib import Path

from .bench import bench_quicksort
from .deepcall import call_with_deep_stack
from .errors import InternalInvariantError, MflRuntimeError, MflTypeError, ParseError
from .eval_memo import EvalConfig, run_program
from .eval_pure import diff_check, run_program_pure
from .gen import GenLimits, gen_program
from .parser import parse
from .pretty import print_program, print_value
from .syntax import erase, format_type
from .typecheck import check_program

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_MISMATCH = 2
EXIT_INVARIANT = 3
EXIT_USAGE = 64


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _UsageError(Exception):
    """Bad input from outside the program: an option's value or MFL_SEED."""


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MFL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"MFL_SEED must be an integer, not {env!r}") from None
    seed = secrets.randbits(32)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _load_program(path: str):
    """The parsed program in `path` and its type."""
    program = parse(Path(path).read_text(encoding="utf-8"))
    return program, check_program(program)


def _stats_json(stats, seed: int) -> str:
    doc = {"seed": seed, **stats.as_dict()}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_check(args) -> int:
    print(format_type(_load_program(args.file)[1]))
    return EXIT_OK


def cmd_run(args) -> int:
    program, _ = _load_program(args.file)
    seed = _resolve_seed(args)
    if args.semantics == "pure":
        result = run_program_pure(program)
        print(print_value(result.value, result.store.boxes))
        stats = result.stats
    else:
        cfg = EvalConfig(mode="cold" if args.cold else "normal", checked=args.checked)
        result = run_program(program, cfg)
        print(print_value(erase(result.value), result.store.boxes))
        stats = cfg.stats
    if args.stats:
        Path(args.stats).write_text(_stats_json(stats, seed), encoding="utf-8")
    return EXIT_OK


def cmd_diff(args) -> int:
    program, _ = _load_program(args.file)
    verdict = diff_check(program)
    if verdict.ok:
        print(f"ok: {verdict.detail}")
        return EXIT_OK
    print(f"mismatch: {verdict.detail}")
    if verdict.memo_value is not None:
        print(f"  memoized: {print_value(verdict.memo_value)}")
        print(f"  pure:     {print_value(verdict.pure_value)}")
    return EXIT_MISMATCH


def cmd_fuzz(args) -> int:
    if args.count < 0:
        raise _UsageError(f"--count must not be negative, not {args.count}")
    seed = _resolve_seed(args)
    out_dir = Path(args.out)
    failures = 0
    for i in range(args.count):
        program = gen_program(f"{seed}:{i}", GenLimits())
        verdict = diff_check(program)
        if not verdict.ok:
            failures += 1
            out_dir.mkdir(parents=True, exist_ok=True)
            case = out_dir / f"case-{seed}-{i}.mfl"
            case.write_text(print_program(program), encoding="utf-8")
            print(f"mismatch on generated program {i}: {verdict.detail} -> {case}")
    print(f"fuzz: {args.count - failures}/{args.count} programs agree (seed {seed})")
    return EXIT_MISMATCH if failures else EXIT_OK


def cmd_bench(args) -> int:
    sizes = [s for s in args.sizes.split(",") if s]
    bad = [s for s in sizes if not s.isdecimal() or int(s) < 1]
    if bad:
        raise _UsageError(f"--sizes entries must be positive integers, not {bad[0]!r}")
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, not {args.trials}")
    seed = _resolve_seed(args)
    sizes = [int(s) for s in sizes]
    doc = bench_quicksort(sizes, args.trials, seed)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_trace(args) -> int:
    program, _ = _load_program(args.file)
    cfg = EvalConfig(checked=args.checked)
    result = run_program(program, cfg)
    tables = []
    for loc in sorted(result.store.tables):
        entries = [
            {"branch": [list(code) for code in branch],
             "value": print_value(value, result.store.boxes)}
            for branch, value in result.store.tables[loc].items()
        ]
        tables.append({"location": loc, "entries": entries})
    print(json.dumps(tables, indent=2))
    return EXIT_OK


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="mfl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and typecheck a program")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="evaluate a program and print its value")
    p.add_argument("file")
    p.add_argument("--semantics", choices=("memo", "pure"), default="memo")
    p.add_argument("--cold", action="store_true",
                   help="pay memo costs but never reuse results")
    p.add_argument("--checked", action="store_true",
                   help="enable run-time invariant assertions")
    p.add_argument("--seed", type=int)
    p.add_argument("--stats", metavar="PATH", help="write counters as JSON")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("diff", help="compare memoized and pure outcomes")
    p.add_argument("file")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("fuzz", help="differential-test generated programs")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="fuzz-failures",
                   help="directory for counterexample programs")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("bench", help="run a benchmark and write JSON rows")
    p.add_argument("benchmark", choices=("quicksort",))
    p.add_argument("--sizes", default="128,256,512,1024")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("trace", help="run a program and dump its memo tables")
    p.add_argument("file")
    p.add_argument("--checked", action="store_true")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_trace)

    return parser


def _run_command(args) -> int:
    try:
        return args.fn(args)
    except RecursionError as exc:
        raise MflRuntimeError("recursion too deep") from exc
    except MemoryError as exc:
        raise MflRuntimeError("out of memory") from exc


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "semantics", None) == "pure" and (args.cold or args.checked):
        parser.error("--cold and --checked apply only to --semantics memo")
    try:
        return call_with_deep_stack(_run_command, args)
    except (ParseError, MflTypeError) as exc:
        target = getattr(args, "file", "<input>")
        print(f"{target}:{exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MflRuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except (_UsageError, OSError) as exc:
        # every file a command reads or writes is one the user named
        print(f"mfl: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
