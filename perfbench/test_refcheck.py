"""The benchmark's checks accept the program's outputs and reject perturbed ones.

Run from the root of a checkout::

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dsconflict import cli, combine_dempster, conflict_report, make_frame  # noqa: E402
from dsconflict.core import MassFunction  # noqa: E402

EPS = 1e-9
N = 10


def _pair(seed: int = 3):
    rng = random.Random(seed)
    m1, m2 = gen.bpa(rng, N, 12, 0.3), gen.bpa(rng, N, 9, 0.3)
    frame = make_frame(str(i) for i in range(N))
    return m1, m2, MassFunction(frame, m1), MassFunction(frame, m2)


def _cli(*args: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(list(args)) == 0
    return out.getvalue()


class ReportChecks(unittest.TestCase):
    def setUp(self):
        self.m1, self.m2, self.p1, self.p2 = _pair()
        self.report = workloads.report_dict(conflict_report(self.p1, self.p2, 0.5))
        self.cor = refcheck.song_cor_dense(self.m1, self.m2, N)

    def check(self, report):
        refcheck.check_report(report, self.m1, self.m2, N, 0.5, self.cor)

    def test_program_output_passes(self):
        self.check(self.report)
        refcheck.check_symmetric(
            self.report, workloads.report_dict(conflict_report(self.p2, self.p1, 0.5)))
        refcheck.check_self(workloads.report_dict(conflict_report(self.p1, self.p1)))

    def test_each_value_off_by_eps_is_rejected(self):
        for name in ("k", "d_bba", "dif_betp", "cor"):
            with self.subTest(name=name), self.assertRaises(refcheck.CheckFailed):
                self.check({**self.report, name: self.report[name] + EPS})
        with self.assertRaises(refcheck.CheckFailed):
            self.check({**self.report, "r_bpa": self.report["r_bpa"] + EPS,
                        "k_r": self.report["k_r"] - EPS})

    def test_k_r_not_the_complement_is_rejected(self):
        with self.assertRaises(refcheck.CheckFailed):
            self.check({**self.report, "k_r": self.report["k_r"] + 1e-11})

    def test_flipped_liu_verdict_is_rejected(self):
        with self.assertRaises(refcheck.CheckFailed):
            self.check({**self.report, "liu": not self.report["liu"]})

    def test_asymmetry_is_rejected(self):
        with self.assertRaises(refcheck.CheckFailed):
            refcheck.check_symmetric(self.report, {**self.report, "d_bba": self.report["d_bba"] + EPS})

    def test_nonzero_self_distance_is_rejected(self):
        same = workloads.report_dict(conflict_report(self.p1, self.p1))
        for name, delta in (("d_bba", EPS), ("r_bpa", -EPS), ("k_r", EPS)):
            with self.subTest(name=name), self.assertRaises(refcheck.CheckFailed):
                refcheck.check_self({**same, name: same[name] + delta})


class CombinationChecks(unittest.TestCase):
    def setUp(self):
        self.m1, self.m2, p1, p2 = _pair()
        result = combine_dempster(p1, p2)
        self.combined, self.k = dict(result.combined.items()), result.k

    def test_program_output_passes(self):
        refcheck.check_combination(self.combined, self.m1, self.m2, self.k)

    def test_k_off_by_eps_is_rejected(self):
        with self.assertRaises(refcheck.CheckFailed):
            refcheck.check_combination(self.combined, self.m1, self.m2, self.k + EPS)

    def test_moved_mass_is_rejected(self):
        a, b = sorted(self.combined)[:2]
        moved = {**self.combined, a: self.combined[a] - EPS, b: self.combined[b] + EPS}
        with self.assertRaises(refcheck.CheckFailed):
            refcheck.check_combination(moved, self.m1, self.m2, self.k)

    def test_dropped_focal_element_is_rejected(self):
        mask = min(self.combined, key=self.combined.get)
        dropped = {m: v for m, v in self.combined.items() if m != mask}
        with self.assertRaises(refcheck.CheckFailed):
            refcheck.check_combination(dropped, self.m1, self.m2, self.k)


class CliChecks(unittest.TestCase):
    example1 = os.path.join(os.path.dirname(HERE), "tests", "data", "example1.json")

    def setUp(self):
        self.labels, bpas = refcheck.read_document(workloads._read(self.example1))
        self.m1, self.m2 = bpas["m1"], bpas["m2"]
        self.text = _cli("measure", "--input", self.example1, "--pair", "m1", "m2",
                         "--epsilon", "0.5")

    def test_program_output_passes(self):
        refcheck.check_measure_text(self.text, self.m1, self.m2, 4, 4, 0.5)
        refcheck.check_example1(self.text, None)

    def test_changed_digit_is_rejected(self):
        for old, new in (("0.9878", "0.9879"), ("0.3668", "0.3669"), ("0.9900", "0.9901")):
            bad = self.text.replace(old, new, 1)
            with self.subTest(row=old), self.assertRaises(refcheck.CheckFailed):
                refcheck.check_measure_text(bad, self.m1, self.m2, 4, 4, 0.5)
            with self.subTest(row=old), self.assertRaises(refcheck.CheckFailed):
                refcheck.check_example1(bad, None)

    def test_combined_document(self):
        path = os.path.join(HERE, ".work", "test-fused.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        note = _cli("combine", "--input", self.example1, "--pair", "m1", "m2", "--output", path)
        text = workloads._read(path)
        os.unlink(path)
        refcheck.check_combine_note(note, self.m1, self.m2, 4)
        refcheck.check_combined_document(text, self.labels, "m1+m2", self.m1, self.m2)
        refcheck.check_example1(None, text)
        with self.assertRaises(refcheck.CheckFailed):
            refcheck.check_combine_note(note.replace("0.9900", "0.9800"), self.m1, self.m2, 4)
        moved = text.replace('"mass": 1.0', '"mass": 0.999999999')
        self.assertNotEqual(moved, text)
        for check in (
            lambda: refcheck.check_combined_document(moved, self.labels, "m1+m2", self.m1, self.m2),
            lambda: refcheck.check_example1(None, moved),
        ):
            with self.assertRaises(refcheck.CheckFailed):
                check()

    def test_sweep_k_column(self):
        text = _cli("sweep", "--frame-size", "20")
        refcheck.check_sweep_csv(text, 20)
        for bad in (text.replace(",0.05,", ",0.05000000001,", 1),
                    text.replace(",0.05,", ",0.0500000001,", 1)):
            self.assertNotEqual(bad, text)
            with self.assertRaises(refcheck.CheckFailed):
                refcheck.check_sweep_csv(bad, 20)

    def test_sweep_other_columns(self):
        rows = list(csv.reader(io.StringIO(_cli("sweep", "--frame-size", "20"))))
        for column in (1, 2):
            bad_rows = [list(row) for row in rows]
            bad_rows[5][column] = repr(float(rows[5][column]) + EPS)
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows(bad_rows)
            with self.subTest(column=column), self.assertRaises(refcheck.CheckFailed):
                refcheck.check_sweep_csv(out.getvalue(), 20)

    def test_gram_verdict(self):
        text = _cli("gram-check", "--n", "4")
        refcheck.check_gram_text(text, 4)
        with self.assertRaises(refcheck.CheckFailed):
            refcheck.check_gram_text("15×15: NOT positive definite\n", 4)
        with self.assertRaises(refcheck.CheckFailed):
            refcheck.check_gram(False, 11)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tracer = spans.Tracer()
        root = tracer.add("cli.run", 0.0, 10.0)
        child = tracer.add("document.load", 1.0, 5.0, root)
        tracer.add("document.json", 2.0, 3.0, child)
        tracer.add("measures.conflict_report", 6.0, 9.0, root)
        self.assertEqual(tracer.self_times(), [3.0, 3.0, 1.0, 3.0])
        metrics = tracer.metrics()
        self.assertEqual(metrics["cli.run.self_ms"], (3000.0, "ms"))
        self.assertEqual(metrics["document.load.median_ms"], (4000.0, "ms"))
        self.assertEqual(metrics["sweep.sweep_rows.calls"], (0, "count"))

    def test_install_and_remove(self):
        from dsconflict import measures

        original = measures.conflict_report
        tracer = spans.Tracer()
        tracer.install()
        try:
            _, _, p1, p2 = _pair()
            measures.conflict_report(p1, p2)
        finally:
            tracer.remove()
        self.assertIs(measures.conflict_report, original)
        names = [span[0] for span in tracer.spans]
        self.assertEqual(names[0], "measures.conflict_report")
        self.assertIn("measures.song_cor", names)
        self.assertEqual(tracer.counts["measures.song_subsets"], 2 ** N - 1)


if __name__ == "__main__":
    unittest.main()
