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


#: The most decimals ``--precision`` takes.  Every rendered value lies in
#: [0, 1], and 17 significant digits identify any double, so 17 decimals show
#: all a value of 0.1 or more holds; each further decimal only adds bytes.
MAX_PRECISION = 17


def _digits(text: str) -> int:
    """``--precision``: an integer from 0 to :data:`MAX_PRECISION`."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}"
        )
    digits = int(text)
    if digits > MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_PRECISION} decimals, got {digits}"
        )
    return digits


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
    note = f"k = {result.k:.{args.precision}f}\n"
    if args.output is None:
        sys.stdout.write(dumps(combined))
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

    def add_pair(p: argparse.ArgumentParser, verb: str) -> None:
        names = p.add_mutually_exclusive_group(required=True)
        names.add_argument("--pair", nargs=2, metavar="NAME",
                           help=f"names of the two BPAs to {verb}")
        # a value that begins with "-" reads as an option unless it is joined
        # to its option by "=", which only a single-valued option allows
        names.add_argument("--bpa", action="append", dest="pair", metavar="NAME",
                           help="one BPA name, given twice in place of --pair; "
                                "--bpa=NAME takes any name, one beginning with "
                                "'-' too")

    def add_precision(p: argparse.ArgumentParser) -> None:
        p.add_argument("--precision", type=_digits, default=4, metavar="DIGITS",
                       help="decimal digits in rendered values, 0 to "
                            f"{MAX_PRECISION} (default 4)")

    measure = commands.add_parser(
        "measure", help="evaluate all measures for one pair of BPAs"
    )
    measure.add_argument("--input", required=True, metavar="PATH",
                         help="BPA document to read")
    add_pair(measure, "compare")
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
    add_pair(combine, "combine")
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

    for p in commands.choices.values():
        p.set_defaults(parser=p)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse strips a value of "--" (Python 3.11 does), so --opt=--
        # reads as an empty list: that value can only be "--"
        for action in args.parser._actions:
            if action.nargs is None and getattr(args, action.dest, None) == []:
                try:  # the option's type, as argparse applies it
                    value = args.parser._get_value(action, "--")
                except argparse.ArgumentError as exc:
                    args.parser.error(str(exc))
                setattr(args, action.dest, value)
        pair = getattr(args, "pair", None)  # measure and combine
        if pair is not None:
            if len(pair) != 2:
                args.parser.error("expected --bpa twice, once for each BPA")
            # each --bpa=-- appended an empty list likewise
            args.pair = [n if isinstance(n, str) else "--" for n in pair]
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
