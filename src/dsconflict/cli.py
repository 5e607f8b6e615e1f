"""Command line interface.

Four commands:

* ``measure``    -- every applicable conflict/similarity measure for one pair
* ``combine``    -- Dempster's rule, emitting a new BPA document
* ``sweep``      -- the moving-subset sweep as CSV
* ``gram-check`` -- positive definiteness of the full Jaccard Gram matrix

Exit codes: 0 success, 1 usage, 2 document/validation problems, 3 undefined
or out-of-reach computations (total conflict, frame caps).
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn, Sequence

from .core import _numbered_frame
from .document import BpaDocument, _write_atomic, dump, dumps, load
from .errors import ComputationError, ValidationError
from .fusion import combine_dempster
from .measures import (
    GRAM_MAX_FRAME,
    ConflictReport,
    conflict_report,
    gram_positive_definite,
)
from .sweep import DEFAULT_FRAME_SIZE, sweep_csv, sweep_rows

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for
    # document validation, so usage problems are remapped to 1.
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _digits(text: str) -> int:
    """``--precision``: a format precision must be a nonnegative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}"
        )
    return int(text)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(path, text)


def _render_report(
    name1: str, name2: str, report: ConflictReport, precision: int
) -> str:
    def fmt(value: float) -> str:
        return f"{value:.{precision}f}"

    lines = [f"pair ({name1}, {name2})"]
    rows = [
        ("k", fmt(report.k)),
        ("d_bba", fmt(report.d_bba)),
        ("dif_betp", fmt(report.dif_betp)),
        ("cor", "n/a (frame too large)" if report.cor is None else fmt(report.cor)),
        ("r_bpa", fmt(report.r_bpa)),
        ("k_r", fmt(report.k_r)),
    ]
    liu = report.liu
    if liu is not None:
        verdict = "in conflict" if liu.in_conflict else "not in conflict"
        rows.append(
            ("liu", f"{verdict} (k={fmt(liu.k)}, difBetP={fmt(liu.dif_betp)}, "
                    f"epsilon={fmt(liu.epsilon)})")
        )
    width = max(len(label) for label, _ in rows)
    lines.extend(f"{label:<{width}}  {text}" for label, text in rows)
    return "\n".join(lines) + "\n"


def _cmd_measure(args: argparse.Namespace) -> int:
    document = load(args.input)
    name1, name2 = args.pair
    m1 = document.bpa(name1)
    m2 = document.bpa(name2)
    report = conflict_report(m1, m2, epsilon=args.epsilon)
    _write_text(args.output, _render_report(name1, name2, report, args.precision))
    return EXIT_OK


def _cmd_combine(args: argparse.Namespace) -> int:
    document = load(args.input)
    name1, name2 = args.pair
    result = combine_dempster(document.bpa(name1), document.bpa(name2))
    combined = BpaDocument(
        frame=document.frame,
        bpas={f"{name1}+{name2}": result.combined},
    )
    text = dumps(combined)
    note = f"k = {result.k:.{args.precision}f}\n"
    if args.output is None:
        sys.stdout.write(text)
        sys.stderr.write(note)
    else:
        dump(combined, args.output)
        sys.stdout.write(note + f"wrote {args.output}\n")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = sweep_rows(args.frame_size)
    _write_text(args.output, sweep_csv(rows, args.precision))
    return EXIT_OK


def _cmd_gram_check(args: argparse.Namespace) -> int:
    frame = _numbered_frame(args.n)
    size = 2 ** frame.size - 1
    verdict = (
        "positive definite"
        if gram_positive_definite(frame)
        else "NOT positive definite"
    )
    _write_text(args.output, f"{size}×{size}: {verdict}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dsconflict",
        description="Conflict and similarity measures for Dempster-Shafer BPAs.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="command", parser_class=_Parser
    )

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", metavar="PATH",
                       help="write the result to PATH instead of stdout")

    def add_precision(p: argparse.ArgumentParser) -> None:
        p.add_argument("--precision", type=_digits, default=4, metavar="DIGITS",
                       help="decimal digits in rendered values (default 4)")

    measure = commands.add_parser(
        "measure", help="evaluate all measures for one pair of BPAs"
    )
    measure.add_argument("--input", required=True, metavar="PATH",
                         help="BPA document to read")
    measure.add_argument("--pair", required=True, nargs=2, metavar="NAME",
                         help="names of the two BPAs to compare")
    measure.add_argument("--epsilon", type=float, metavar="E",
                         help="threshold for Liu's two-dimensional model")
    add_output(measure)
    add_precision(measure)
    measure.set_defaults(handler=_cmd_measure)

    combine = commands.add_parser(
        "combine", help="combine two BPAs with Dempster's rule"
    )
    combine.add_argument("--input", required=True, metavar="PATH",
                         help="BPA document to read")
    combine.add_argument("--pair", required=True, nargs=2, metavar="NAME",
                         help="names of the two BPAs to combine")
    add_output(combine)
    add_precision(combine)
    combine.set_defaults(handler=_cmd_combine)

    sweep = commands.add_parser(
        "sweep", help="emit the moving-subset sweep as CSV"
    )
    sweep.add_argument("--frame-size", type=int, default=DEFAULT_FRAME_SIZE,
                       metavar="N", help="number of hypotheses (default 20)")
    add_output(sweep)
    add_precision(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    gram = commands.add_parser(
        "gram-check", help="check the Jaccard Gram matrix for a frame size"
    )
    gram.add_argument("--n", type=int, required=True, metavar="N",
                      help=f"frame size (1 to {GRAM_MAX_FRAME})")
    add_output(gram)
    gram.set_defaults(handler=_cmd_gram_check)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    try:
        return args.handler(args)
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except ComputationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_COMPUTATION


def main() -> None:
    sys.exit(run())
