"""The three workloads: what one operation is, how to set it up, how to check it.

An operation is one unit of user work, timed alone in a closed loop (the
next starts when the previous ends):

* ``cli``: one README command on an example document as a
  ``python -m dsconflict`` child, or ``measure`` then ``combine --output`` on
  one pair of the evidence file, two children;
* ``pairs-wide``: ``conflict_report`` then ``combine_dempster`` on one pair;
* ``powerset``: ``conflict_report`` on one pair, or one Gram check.

A round runs every operation of the workload once, in a fixed order.  Each
workload also names the warm-up operations that set-up runs.  In the traced
run the ``cli`` workload calls ``dsconflict.cli.run(argv)`` in-process.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import subprocess
import sys
from functools import partial

import gen
import refcheck


class Operation:
    """``call()`` is timed.  ``digest(result)`` is not: it gives what every round
    must repeat, and ``check(digest)`` holds the first round's against the
    reference."""

    def __init__(self, call, digest, check):
        self.call = call
        self.digest = digest
        self.check = check


class Context:
    def __init__(self, root: str, work: str, seed: int, traced: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def cli(self, args: list[str]) -> tuple[int, str, str]:
        """One CLI call: (exit code, stdout, stderr)."""
        if self.traced:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = importlib.import_module("dsconflict.cli").run(args)
            return code, out.getvalue(), err.getvalue()
        done = subprocess.run([sys.executable, "-m", "dsconflict", *args], env=self.env,
                              cwd=self.root, capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _cli_operation(ctx: Context, calls: list[tuple[list[str], object]]) -> Operation:
    """CLI calls run back to back; ``check(stdout, output file text)`` per call."""
    def outputs(args: list[str]) -> str | None:
        return _read(args[args.index("--output") + 1]) if "--output" in args else None

    def call():
        stdouts = []
        for args, _ in calls:
            code, out, err = ctx.cli(args)
            if code != 0:
                raise RuntimeError(f"dsconflict {' '.join(args)} exited {code}: {err.strip()}")
            stdouts.append(out)
        return stdouts

    def digest(stdouts):
        return [(out, outputs(args)) for out, (args, _) in zip(stdouts, calls)]

    def check(digests):
        for (_, check_one), (out, written) in zip(calls, digests):
            check_one(out, written)

    return Operation(call, digest, check)


# -- cli: the README commands -----------------------------------------------------

#: (example file, pair).  Example 2's m1 and m2 are in total conflict, so its
#: combination uses m1 and m3.
EXAMPLES = (("example1.json", ("m1", "m2")), ("example2.json", ("m1", "m3")),
            ("example3.json", ("m1", "m2")))
EPSILON = 0.5
PRECISION = 4  # the CLI default
SWEEP_FRAME = 20
GRAM_N = 4


def example_paths(root: str) -> list[str]:
    return [os.path.join(root, "tests", "data", name) for name, _ in EXAMPLES]


def _check_example_measure(m1, m2, n, first, epsilon, out, _):
    refcheck.check_measure_text(out, m1, m2, n, PRECISION, epsilon)
    if first:
        refcheck.check_example1(out, None)


def _check_example_combine(m1, m2, labels, name, first, out, written):
    refcheck.check_combine_note(out, m1, m2, PRECISION)
    refcheck.check_combined_document(written, labels, name, m1, m2)
    if first:
        refcheck.check_example1(None, written)


def cli_examples(ctx: Context) -> list[Operation]:
    ops = []
    for path, (name, (a, b)) in zip(example_paths(ctx.root), EXAMPLES):
        labels, bpas = refcheck.read_document(_read(path))
        m1, m2, n = bpas[a], bpas[b], len(labels)
        first = name == "example1.json"
        fused = os.path.join(ctx.work, f"fused-{name}")
        pair = ["--input", path, "--pair", a, b]
        measure = partial(_check_example_measure, m1, m2, n, first)
        combine = partial(_check_example_combine, m1, m2, labels, f"{a}+{b}", first)
        ops.append(_cli_operation(ctx, [(["measure", *pair], partial(measure, None))]))
        ops.append(_cli_operation(ctx, [(["measure", *pair, "--epsilon", str(EPSILON)],
                                         partial(measure, EPSILON))]))
        ops.append(_cli_operation(ctx, [(["combine", *pair, "--output", fused], combine)]))
    ops.append(_cli_operation(ctx, [(
        ["sweep", "--frame-size", str(SWEEP_FRAME)],
        lambda out, _: refcheck.check_sweep_csv(out, SWEEP_FRAME),
    )]))
    ops.append(_cli_operation(ctx, [(
        ["gram-check", "--n", str(GRAM_N)],
        lambda out, _: refcheck.check_gram_text(out, GRAM_N),
    )]))
    shift = ctx.seed % len(ops)  # the seed only rotates the command order
    return ops[shift:] + ops[:shift]


# -- cli: the evidence file -------------------------------------------------------

EVIDENCE_PAIR = ("m00", "m01")
EVIDENCE_PRECISION = 12


def cli_evidence(ctx: Context) -> tuple[Operation, Operation]:
    """The measure-then-combine operation, and a lone ``measure`` to warm up."""
    labels, bpas = gen.evidence_labels(), gen.evidence(ctx.seed)
    path = os.path.join(ctx.work, "evidence.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(gen.document_text(labels, bpas))
    a, b = EVIDENCE_PAIR
    m1, m2, n = bpas[a], bpas[b], len(labels)
    common = ["--input", path, "--pair", a, b, "--precision", str(EVIDENCE_PRECISION)]
    fused = os.path.join(ctx.work, "fused.json")

    def check_combine(out, written):
        refcheck.check_combine_note(out, m1, m2, EVIDENCE_PRECISION)
        refcheck.check_combined_document(written, labels, f"{a}+{b}", m1, m2)

    measure = (["measure", *common, "--epsilon", str(EPSILON)],
               lambda out, _: refcheck.check_measure_text(out, m1, m2, n, EVIDENCE_PRECISION,
                                                          EPSILON))
    op = _cli_operation(ctx, [measure, (["combine", *common, "--output", fused], check_combine)])
    return op, _cli_operation(ctx, [measure])


def cli(ctx: Context) -> tuple[list[Operation], list[Operation]]:
    """The README commands, then the evidence pair, in one round.

    One workload for both keeps each run long enough that the fastest time of
    every CLI operation falls outside the host's slow phases."""
    op, warmup = cli_evidence(ctx)
    return [*cli_examples(ctx), op], [warmup]


# -- in-process workloads ---------------------------------------------------------


def report_dict(report) -> dict:
    return {"k": report.k, "d_bba": report.d_bba, "dif_betp": report.dif_betp,
            "cor": report.cor, "r_bpa": report.r_bpa, "k_r": report.k_r,
            "liu": None if report.liu is None else report.liu.in_conflict}


def _bpas(n: int, m1: dict, m2: dict):
    core = importlib.import_module("dsconflict.core")
    frame = core.make_frame(f"h{i}" for i in range(n))
    return core.MassFunction(frame, m1), core.MassFunction(frame, m2)


def _report_checks(measures, p1, p2, m1: dict, m2: dict, n: int, report) -> None:
    """Reference values, then symmetry and self-comparison (extra calls)."""
    cor = refcheck.song_cor_dense(m1, m2, n) if n <= refcheck.DENSE_SONG_MAX else None
    values = report_dict(report)
    refcheck.check_report(values, m1, m2, n, EPSILON, cor)
    refcheck.check_symmetric(values, report_dict(measures.conflict_report(p2, p1, EPSILON)))
    refcheck.check_self(report_dict(measures.conflict_report(p1, p1)))


def _wide_digest(result):
    report, combination = result
    return report, combination.k, dict(combination.combined.items())


def pairs_wide(ctx: Context) -> tuple[list[Operation], list[Operation]]:
    measures = importlib.import_module("dsconflict.measures")
    fusion = importlib.import_module("dsconflict.fusion")
    ops = []
    for n, m1, m2 in gen.wide_pairs(ctx.seed):
        p1, p2 = _bpas(n, m1, m2)

        def call(p1=p1, p2=p2):
            return measures.conflict_report(p1, p2, EPSILON), fusion.combine_dempster(p1, p2)

        def check(digest, p1=p1, p2=p2, m1=m1, m2=m2, n=n):
            report, k, combined = digest
            _report_checks(measures, p1, p2, m1, m2, n, report)
            refcheck.check_combination(combined, m1, m2, k)

        ops.append(Operation(call, _wide_digest, check))
    return ops, ops[:1]


def powerset(ctx: Context) -> tuple[list[Operation], list[Operation]]:
    measures = importlib.import_module("dsconflict.measures")
    core = importlib.import_module("dsconflict.core")
    ops = []
    for n, m1, m2 in gen.powerset_pairs(ctx.seed):
        p1, p2 = _bpas(n, m1, m2)
        ops.append(Operation(
            lambda p1=p1, p2=p2: measures.conflict_report(p1, p2, EPSILON),
            lambda report: report,
            lambda report, p1=p1, p2=p2, m1=m1, m2=m2, n=n:
                _report_checks(measures, p1, p2, m1, m2, n, report),
        ))
    for n in gen.GRAM_SIZES:
        frame = core.make_frame(str(i) for i in range(1, n + 1))
        ops.append(Operation(
            lambda frame=frame: measures.gram_positive_definite(frame),
            lambda verdict: verdict,
            lambda verdict, n=n: refcheck.check_gram(verdict, n),
        ))
    return ops, [ops[0], ops[-len(gen.GRAM_SIZES)]]


WORKLOADS = {
    "cli": cli,
    "pairs-wide": pairs_wide,
    "powerset": powerset,
}
CLI_WORKLOADS = ("cli",)
