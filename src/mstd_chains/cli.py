"""Command-line interface.

Subcommands: ``analyze`` (profile one set), ``chain`` (generate and render
an alternating chain, optionally verifying it), ``verify`` (re-check a
serialized chain), ``search`` (exhaustive scans, random sampling, seed
discovery), and ``table`` (re-render a serialized chain).

Each subparser names its handler with ``set_defaults(run=...)``;
``_CHAIN_METHODS`` holds each chain method's flags and generator.

Exit codes: 0 success, 1 verification failure (including an unextendable
chain), 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .chains import (chain_from_json, fill1_chain, fill2_chain, nonfill_chain,
                     thm31_chain, verify_chain)
from .errors import (ArithmeticRangeError, ChainBreakError,
                     InvalidParameterError, ResourceLimitError)
from .intset import IntegerSet, profile
from .report import emit_table
from .rounding import format3
from .search import (exhaustive_by_diameter, find_fill2_seeds,
                     min_cardinality_scan, sample_mstd_proportion)


def _set_argument(text: str) -> IntegerSet:
    try:
        return IntegerSet.from_text(text)
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mstd-chains",
        description="Sumset/difference-set algebra and alternating MSTD/MDTS chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="print the profile of one set")
    p_analyze.add_argument("set", type=_set_argument,
                           help="comma-separated strictly increasing integers")
    p_analyze.set_defaults(run=_cmd_analyze)

    p_chain = sub.add_parser("chain", help="generate an alternating chain")
    p_chain.add_argument("--method", required=True, choices=_CHAIN_METHODS)
    p_chain.add_argument("--seed-set", type=_set_argument,
                         help="MSTD seed set (fill1)")
    p_chain.add_argument("--L", type=_set_argument, help="left fringe (fill2, thm31)")
    p_chain.add_argument("--R", type=_set_argument, help="right fringe (fill2, thm31)")
    p_chain.add_argument("--n", type=int, help="fringe window size (fill2, thm31)")
    p_chain.add_argument("--m", type=int, help="filled-interval end (thm31)")
    p_chain.add_argument("--mode", choices=("strict", "generalized"),
                         default="strict", help="condition mode (thm31)")
    p_chain.add_argument("--steps", type=int, required=True,
                         help="number of chain steps, >= 1 (>= 2 with --verify)")
    p_chain.add_argument("--format", choices=("ascii", "csv", "json"),
                         default="ascii")
    p_chain.add_argument("--verify", action="store_true",
                         help="re-derive and re-check the chain after generating")
    p_chain.set_defaults(run=lambda args: _cmd_chain(args, parser))

    p_verify = sub.add_parser("verify", help="verify a serialized chain")
    p_verify.add_argument("chain_json", help="path to a chain JSON array")
    p_verify.add_argument("--no-fill-in", action="store_true",
                          help="also require that gaps are never filled in")
    p_verify.set_defaults(run=lambda args: _print_report(
        _load_chain(args.chain_json, args.no_fill_in)))

    p_search = sub.add_parser("search", help="brute-force exploration")
    search_sub = p_search.add_subparsers(dest="search_command", required=True)

    p_diam = search_sub.add_parser("diameter",
                                   help="classify all sets up to a diameter")
    p_diam.add_argument("--d-max", type=int, required=True)
    p_diam.add_argument("--workers", type=int, default=1)
    p_diam.set_defaults(run=lambda args: _print_json(
        exhaustive_by_diameter(args.d_max, workers=args.workers).to_json()))

    p_card = search_sub.add_parser("cardinality",
                                   help="classify all small sets up to a diameter")
    p_card.add_argument("--d-max", type=int, required=True)
    p_card.add_argument("--card-max", type=int, required=True)
    p_card.add_argument("--workers", type=int, default=1)
    p_card.set_defaults(run=lambda args: _print_json(
        min_cardinality_scan(args.d_max, args.card_max, workers=args.workers).to_json()))

    p_sample = search_sub.add_parser("sample",
                                     help="estimate the random MSTD fraction")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--samples", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--workers", type=int, default=1)
    p_sample.set_defaults(run=lambda args: _print_json(sample_mstd_proportion(
        args.n, args.samples, args.seed, workers=args.workers).to_json()))

    p_seeds = search_sub.add_parser("seeds",
                                    help="find seeds for the linear fill-in method")
    p_seeds.add_argument("--n", type=int, required=True)
    p_seeds.set_defaults(run=lambda args: _print_json(
        [{"L": L.to_text(), "R": R.to_text()} for L, R in find_fill2_seeds(args.n)]))

    p_table = sub.add_parser("table", help="render a serialized chain")
    p_table.add_argument("chain_json", help="path to a chain JSON array")
    p_table.add_argument("--format", choices=("ascii", "csv", "json"),
                         default="ascii")
    p_table.set_defaults(run=_cmd_table)

    return parser


def _cmd_analyze(args) -> int:
    p = profile(args.set)
    print(f"{p.classification.value} sums={p.sum_count} diffs={p.diff_count} "
          f"card={p.cardinality} diam={p.diameter} density={format3(p.density)}")
    return 0


# --method's choices. Per method: the flags it reads by argparse destination
# (--mode counts only when it is not "strict") and how it generates a chain.
_CHAIN_METHODS = {
    "fill1": (("seed_set",), lambda args: fill1_chain(args.seed_set, args.steps)),
    "fill2": (("L", "R", "n"), lambda args: fill2_chain(args.L, args.R, args.n, args.steps)),
    "nonfill": ((), lambda args: nonfill_chain(args.steps)),
    "thm31": (("L", "R", "n", "m", "mode"),
              lambda args: thm31_chain(args.L, args.R, args.n, args.m, args.steps, args.mode)),
}


def _cmd_chain(args, parser: argparse.ArgumentParser) -> int:
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    if args.verify and args.steps < 2:
        parser.error("--verify needs --steps >= 2")
    reads, generate = _CHAIN_METHODS[args.method]
    known = dict.fromkeys(dest for dests, _ in _CHAIN_METHODS.values() for dest in dests)
    given = [dest for dest in known if getattr(args, dest) not in (None, "strict")]
    for problem, dests in (("needs", [d for d in reads if d not in given and d != "mode"]),
                           ("does not read", [d for d in given if d not in reads])):
        if dests:
            flags = ", ".join("--" + d.replace("_", "-") for d in dests)
            parser.error(f"chain --method {args.method} {problem} {flags}")
    record = generate(args)
    print(emit_table(record, args.format), end="")
    return _print_report(record) if args.verify else 0


def _load_chain(path: str, no_fill_in: bool):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from None
    return chain_from_json(text, no_fill_in_required=no_fill_in)


def _print_report(record) -> int:
    """Print a chain's verification report; the exit code is 1 if it fails."""
    report = verify_chain(record)
    print(report)
    return 0 if report.passed else 1


def _print_json(result) -> int:
    """Print a search's result as sorted, indented JSON."""
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_table(args) -> int:
    record = _load_chain(args.chain_json, no_fill_in=False)
    print(emit_table(record, args.format), end="")
    return 0


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        # argparse reports usage problems via SystemExit
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    except (InvalidParameterError, ArithmeticRangeError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChainBreakError as exc:
        print(f"chain break: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
