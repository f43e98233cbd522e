"""Command line front end: analyze, transform, compare, check, dot.

Reports go to stdout, diagnostics to stderr. Exit codes: 0 on success or
PASS, 1 on a failed check, 2 on usage or parse errors, 141 (128 + SIGPIPE)
when the reader closes stdout early, as `| head` does. All output is
deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from pathlib import Path
from typing import Iterable, Iterator

from .analysis import run_acs
from .classic import classic_transform
from .dataflow import format_facts
from .ir import (
    USE_SLOTS,
    ParseError,
    Program,
    parse_program,
    print_program,
    to_dot,
    variables,
)
from .oracle import (
    CyclicGraphError,
    GenParams,
    PathBudgetError,
    Verdict,
    differential_check,
    mop_in,
    random_program,
    solve_round_robin,
)
from .propagate import transform, transform_to_fixpoint


def _load(path: str) -> Program:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: {err}") from None
    return parse_program(text)


def _write(text: str) -> None:
    """Write text to stdout a line at a time. Handed a whole program at once,
    the buffered writer can meet a reader that closed the pipe mid-write and
    drop the rest without raising; line by line, the next write raises
    BrokenPipeError, and `main` exits 141."""
    sys.stdout.writelines(text.splitlines(keepends=True))


def cmd_analyze(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    result = run_acs(prog)
    for label in prog.blocks:
        if label in result.in_sets:
            print(f"{label}: IN = {format_facts(result.in_sets[label])}")
            if args.out_sets:
                print(f"{label}: OUT = {format_facts(result.out_sets[label])}")
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    if args.iterate is not None:
        if args.iterate < 1:
            args.parser.error("--iterate must be at least 1")
        prog, report = transform_to_fixpoint(prog, args.iterate)
    else:
        prog, report = transform(prog, run_acs(prog))
    _write(print_program(prog))
    if args.report:
        print(f"# passes: {report.pass_count}")
        if not report.converged:
            print("# not-converged")
        for r in report.replacements:
            print(f"# {r.block} {r.position}: {r.original} -> {r.replacement} (chain {r.chain_length})")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    result = run_acs(prog)
    classic_reps = classic_transform(prog, result)[1].replacements
    unified_reps = transform(prog, result)[1].replacements
    print(f"classic={len(classic_reps)} unified={len(unified_reps)}")
    classic = {(r.block, r.position): r.replacement for r in classic_reps}
    unified = {(r.block, r.position): r.replacement for r in unified_reps}
    for label, block in prog.blocks.items():
        for name, slot in USE_SLOTS[type(block.stmt)]:
            site = (label, slot)
            if site in classic or site in unified:
                var = getattr(block.stmt, name)
                print(f"{label} {slot} {var}: classic={classic.get(site, '-')} unified={unified.get(site, '-')}")
    return 0


def _random_envs(rng: random.Random, prog: Program, count: int) -> Iterator[dict[str, int]]:
    names = sorted(variables(prog))
    return ({name: rng.randint(-64, 64) for name in names} for _ in range(count))


def _dump_failure(kind: str, prog: Program, verdict: Verdict) -> None:
    print(f"{kind}: FAIL")
    if verdict.reason:
        print(f"reason: {verdict.reason}")
    print("program:")
    _write(print_program(prog))
    if verdict.env is not None:
        print("env:")
        for name in sorted(verdict.env):
            print(f"{name}={verdict.env[name]}")
    if verdict.step is not None:
        print(f"step: {verdict.step}")
    print("FAIL")


def _check_one(prog: Program, envs: Iterable[dict[str, int]], args: argparse.Namespace) -> tuple[str, Verdict]:
    """Runs the differential check, solver agreement and meet-over-paths on
    one program in that order and returns the last one run with its verdict:
    the first failure, else "mop" when meet-over-paths was checked and
    "solver-agreement" when it was not. A ValueError, such as a fact set
    breaking its invariants, fails the check that raised it; a cyclic graph or
    a walk past its step budget only leaves meet-over-paths unchecked,
    and the passing verdict's reason then says which."""
    check = "differential"
    try:
        result = run_acs(prog)
        verdict = differential_check(prog, envs, args.fuel, result=result)
        if not verdict.ok:
            return check, verdict
        check = "solver-agreement"
        if result != solve_round_robin(prog):
            return check, Verdict(False, "worklist and round-robin fixpoints differ")
        check = "mop"
        try:
            agrees = mop_in(prog) == result.in_sets
        except CyclicGraphError:
            return "solver-agreement", Verdict(True, "cyclic-cfg")
        except PathBudgetError:
            return "solver-agreement", Verdict(True, "budget")
        return check, Verdict(True) if agrees else Verdict(False, "path meet differs from fixpoint")
    except ValueError as err:
        return check, Verdict(False, str(err))


def cmd_check(args: argparse.Namespace) -> int:
    if args.fuzz and args.file:
        args.parser.error("give a file or --fuzz, not both")
    if not args.fuzz and not args.file:
        args.parser.error("a file or --fuzz is required")
    if args.programs < 1:
        args.parser.error("--programs must be at least 1")
    if args.programs > 10**6:  # every seed is drawn up front
        args.parser.error("--programs must be at most 1000000")
    if args.inputs < 1:
        args.parser.error("--inputs must be at least 1")
    if args.fuel < 1:
        args.parser.error("--fuel must be at least 1")
    if args.fuel > 10**7:  # a run whose state never repeats executes, and keeps the label of, every step
        args.parser.error("--fuel must be at most 10000000")
    rng = random.Random(args.seed)

    if args.fuzz:
        print(f"fuzz: programs={args.programs} inputs={args.inputs} seed={args.seed}")
        seeds = [rng.randrange(2**32) for _ in range(args.programs)]
        programs = (random_program(GenParams(seed=seed)) for seed in seeds)
    else:
        programs = [_load(args.file)]

    mop_checked = 0
    for prog in programs:
        check, verdict = _check_one(prog, _random_envs(rng, prog, args.inputs), args)
        if not verdict.ok:
            _dump_failure(check, prog, verdict)
            return 1
        mop_checked += check == "mop"
    print("differential: PASS")
    print("solver-agreement: PASS")
    if args.fuzz:
        print(f"mop: PASS (checked={mop_checked})")
    elif mop_checked:
        print("mop: PASS")
    else:
        print(f"mop: SKIP ({verdict.reason})")
    print("PASS")
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    if args.transformed:
        prog = transform(prog, run_acs(prog))[0]
    annotations = None
    if args.annotate:
        result = run_acs(prog)
        annotations = {label: format_facts(facts) for label, facts in result.in_sets.items()}
    _write(to_dot(prog, annotations))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="copyprop",
        description="Copy and constant propagation over single-statement CFGs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print the available copy pairs per block")
    p.add_argument("file")
    p.add_argument("--out-sets", action="store_true", help="also print OUT sets")
    p.set_defaults(func=cmd_analyze, parser=p)

    p = sub.add_parser("transform", help="propagate copies and print the program")
    p.add_argument("file")
    p.add_argument("--iterate", type=int, metavar="N", help="reanalyze and rewrite up to N rounds")
    p.add_argument("--report", action="store_true", help="append replacement lines as comments")
    p.set_defaults(func=cmd_transform, parser=p)

    p = sub.add_parser("compare", help="count baseline vs unified replacements")
    p.add_argument("file")
    p.set_defaults(func=cmd_compare, parser=p)

    p = sub.add_parser("check", help="differential, solver and meet-over-paths checks")
    p.add_argument("file", nargs="?")
    p.add_argument("--fuzz", action="store_true", help="check generated programs instead of a file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--programs", type=int, default=100, help="fuzz program count")
    p.add_argument("--inputs", type=int, default=5, help="random inputs per program")
    p.add_argument("--fuel", type=int, default=10000, help="interpreter step budget")
    # meet-over-paths always runs; accepted and ignored so that existing command lines keep working
    p.add_argument("--acyclic-mop", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_check, parser=p)

    p = sub.add_parser("dot", help="emit the control flow graph as Graphviz text")
    p.add_argument("file")
    p.add_argument("--annotate", action="store_true", help="embed IN sets in node labels")
    p.add_argument("--transformed", action="store_true", help="render the rewritten program")
    p.set_defaults(func=cmd_dot, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a short report meets a closed pipe here, not at exit
        return code
    except BrokenPipeError:
        # nothing reads the rest; point stdout at devnull so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
