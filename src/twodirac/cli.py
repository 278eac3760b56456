"""Command-line front end for the verification suites.

Exit status: 0 when every check passes, 1 when any check fails, 2 on usage
errors (bad suite, bad range, sample count below 1, unwritable destination).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .report import SUITE_ORDER, SUITES, emit_report, run_suite


def parse_n_range(text: str) -> List[int]:
    """Parse '4' or an inclusive range 'a..b'."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise ValueError(f"invalid n range {text!r}: expected an integer or a..b")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twodirac",
        description="Run exact verification suites for the 2-Dirac symbol "
                    "complex machinery and emit a machine-readable report.")
    parser.add_argument("suite", choices=SUITE_ORDER + ("all",),
                        help="which invariant suite to run")
    parser.add_argument("--n", default="3", metavar="INT|A..B",
                        help="dimension or inclusive range (default 3)")
    parser.add_argument("--samples", type=int, default=500,
                        help="seeded sample count per check (default 500)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default 0)")
    parser.add_argument("--mode", choices=("exact", "float"), default="exact",
                        help="rank arithmetic for symbol checks (default exact)")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="text", dest="fmt",
                        help="report format (default text)")
    parser.add_argument("--out", default="-",
                        help="output path, '-' for stdout (default)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ns = parse_n_range(args.n)
    except ValueError as exc:
        parser.error(str(exc))  # exits with status 2
    if args.samples < 1:
        parser.error(f"--samples must be >= 1, got {args.samples}")
    names = SUITE_ORDER if args.suite == "all" else (args.suite,)
    for name in names:
        min_n = SUITES[name][1]
        low = min(ns)
        if low < min_n:
            parser.error(f"suite {name} needs n >= {min_n}, got {low}")
    manifest = run_suite(args.suite, ns, args.samples, args.seed, args.mode)
    try:
        if args.out == "-":
            emit_report(manifest, args.fmt, sys.stdout)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                emit_report(manifest, args.fmt, fh)
    except OSError as exc:
        print(f"twodirac: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if manifest.overall_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
