"""Command-line interface.

Subcommands: ``analyze`` (profile one set), ``chain`` (generate and render
an alternating chain, optionally verifying it), ``verify`` (re-check a
serialized chain), ``search`` (exhaustive scans, random sampling, seed
discovery), and ``table`` (re-render a serialized chain).

Exit codes: 0 success, 1 verification failure (including an unextendable
chain), 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .chains import (METHOD_TAGS, chain_from_json, fill1_chain, fill2_chain,
                     nonfill_chain, thm31_chain, verify_chain)
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

    p_chain = sub.add_parser("chain", help="generate an alternating chain")
    p_chain.add_argument("--method", required=True, choices=METHOD_TAGS)
    p_chain.add_argument("--seed-set", type=_set_argument,
                         help="MSTD seed set (fill1)")
    p_chain.add_argument("--L", type=_set_argument, help="left fringe (fill2, thm31)")
    p_chain.add_argument("--R", type=_set_argument, help="right fringe (fill2, thm31)")
    p_chain.add_argument("--n", type=int, help="fringe window size (fill2, thm31)")
    p_chain.add_argument("--m", type=int, help="filled-interval end (thm31)")
    p_chain.add_argument("--mode", choices=("strict", "generalized"),
                         default="strict", help="condition mode (thm31)")
    p_chain.add_argument("--steps", type=int, required=True,
                         help="number of chain steps, >= 1")
    p_chain.add_argument("--format", choices=("ascii", "csv", "json"),
                         default="ascii")
    p_chain.add_argument("--verify", action="store_true",
                         help="re-derive and re-check the chain after generating")

    p_verify = sub.add_parser("verify", help="verify a serialized chain")
    p_verify.add_argument("chain_json", help="path to a chain JSON array")
    p_verify.add_argument("--no-fill-in", action="store_true",
                          help="also require that gaps are never filled in")

    p_search = sub.add_parser("search", help="brute-force exploration")
    search_sub = p_search.add_subparsers(dest="search_command", required=True)

    p_diam = search_sub.add_parser("diameter",
                                   help="classify all sets up to a diameter")
    p_diam.add_argument("--d-max", type=int, required=True)
    p_diam.add_argument("--workers", type=int, default=1)

    p_card = search_sub.add_parser("cardinality",
                                   help="classify all small sets up to a diameter")
    p_card.add_argument("--d-max", type=int, required=True)
    p_card.add_argument("--card-max", type=int, required=True)
    p_card.add_argument("--workers", type=int, default=1)

    p_sample = search_sub.add_parser("sample",
                                     help="estimate the random MSTD fraction")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--samples", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--workers", type=int, default=1)

    p_seeds = search_sub.add_parser("seeds",
                                    help="find seeds for the linear fill-in method")
    p_seeds.add_argument("--n", type=int, required=True)

    p_table = sub.add_parser("table", help="render a serialized chain")
    p_table.add_argument("chain_json", help="path to a chain JSON array")
    p_table.add_argument("--format", choices=("ascii", "csv", "json"),
                         default="ascii")

    return parser


def _cmd_analyze(args) -> int:
    p = profile(args.set)
    print(f"{p.classification.value} sums={p.sum_count} diffs={p.diff_count} "
          f"card={p.cardinality} diam={p.diameter} density={format3(p.density)}")
    return 0


# The parameter flags each chain method reads, by argparse destination;
# --mode is never missing, and counts as given only when it is not "strict".
_CHAIN_FLAGS = {"fill1": ("seed_set",), "fill2": ("L", "R", "n"), "nonfill": (),
                "thm31": ("L", "R", "n", "m", "mode")}


def _cmd_chain(args, parser: argparse.ArgumentParser) -> int:
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    reads = _CHAIN_FLAGS[args.method]
    given = [dest for dest in ("seed_set", "L", "R", "n", "m")
             if getattr(args, dest) is not None]
    if args.mode != "strict":
        given.append("mode")
    for problem, dests in (("needs", [d for d in reads if d not in given and d != "mode"]),
                           ("does not read", [d for d in given if d not in reads])):
        if dests:
            flags = ", ".join("--" + d.replace("_", "-") for d in dests)
            parser.error(f"chain --method {args.method} {problem} {flags}")
    if args.method == "fill1":
        record = fill1_chain(args.seed_set, args.steps)
    elif args.method == "fill2":
        record = fill2_chain(args.L, args.R, args.n, args.steps)
    elif args.method == "nonfill":
        record = nonfill_chain(args.steps)
    else:
        record = thm31_chain(args.L, args.R, args.n, args.m, args.steps, args.mode)
    print(emit_table(record, args.format), end="")
    if args.verify:
        report = verify_chain(record)
        print(report)
        return 0 if report.passed else 1
    return 0


def _load_chain(path: str, no_fill_in: bool):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from None
    return chain_from_json(text, no_fill_in_required=no_fill_in)


def _cmd_verify(args) -> int:
    record = _load_chain(args.chain_json, args.no_fill_in)
    report = verify_chain(record)
    print(report)
    return 0 if report.passed else 1


def _cmd_search(args) -> int:
    if args.search_command == "diameter":
        result = exhaustive_by_diameter(args.d_max, workers=args.workers).to_json()
    elif args.search_command == "cardinality":
        result = min_cardinality_scan(args.d_max, args.card_max,
                                      workers=args.workers).to_json()
    elif args.search_command == "sample":
        result = sample_mstd_proportion(args.n, args.samples, args.seed,
                                        workers=args.workers).to_json()
    else:
        result = [{"L": L.to_text(), "R": R.to_text()}
                  for L, R in find_fill2_seeds(args.n)]
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
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "chain":
            return _cmd_chain(args, parser)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "search":
            return _cmd_search(args)
        return _cmd_table(args)
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
