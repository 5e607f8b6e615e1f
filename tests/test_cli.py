"""End-to-end command line tests (subprocess, real exit codes)."""

import csv
import json
import math
import pathlib
import subprocess
import sys

import pytest

import dsconflict as ds
from dsconflict import document

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "dsconflict", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestMeasure:
    def test_example1_pair(self):
        result = run_cli(
            "measure", "--input", str(DATA / "example1.json"),
            "--pair", "m1", "m2", "--epsilon", "0.5",
        )
        assert result.returncode == 0
        out = result.stdout
        assert "pair (m1, m2)" in out
        assert "k         0.9900" in out
        assert "d_bba     0.9000" in out
        assert "cor       0.3668" in out
        assert "r_bpa     0.0122" in out
        assert "k_r       0.9878" in out
        assert "in conflict" in out

    def test_liu_line_absent_without_epsilon(self):
        result = run_cli(
            "measure", "--input", str(DATA / "example1.json"),
            "--pair", "m1", "m2",
        )
        assert result.returncode == 0
        assert "liu" not in result.stdout

    def test_precision_flag(self):
        result = run_cli(
            "measure", "--input", str(DATA / "example3.json"),
            "--pair", "m1", "m2", "--precision", "6",
        )
        assert result.returncode == 0
        assert "k_r       0.000000" in result.stdout
        assert "k         0.800000" in result.stdout

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.txt"
        result = run_cli(
            "measure", "--input", str(DATA / "example2.json"),
            "--pair", "m3", "m4", "--output", str(target),
        )
        assert result.returncode == 0
        assert result.stdout == ""
        text = target.read_text()
        assert "cor       0.5606" in text
        assert "d_bba     0.5774" in text
        assert "k_r       1.0000" in text

    def test_unknown_name_exits_2(self):
        result = run_cli(
            "measure", "--input", str(DATA / "example1.json"),
            "--pair", "m1", "zz",
        )
        assert result.returncode == 2
        assert "zz" in result.stderr

    def test_missing_input_file_exits_2(self):
        result = run_cli(
            "measure", "--input", "no-such-file.json", "--pair", "a", "b"
        )
        assert result.returncode == 2

    def test_out_of_range_epsilon_exits_2(self):
        result = run_cli(
            "measure", "--input", str(DATA / "example1.json"),
            "--pair", "m1", "m2", "--epsilon", "1.5",
        )
        assert result.returncode == 2
        assert "threshold" in result.stderr


class TestCombine:
    def test_stdout_document(self):
        result = run_cli(
            "combine", "--input", str(DATA / "example1.json"),
            "--pair", "m1", "m2",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["frame"] == ["A1", "A2", "A3", "A4"]
        assert "k = 0.9900" in result.stderr

    def test_output_file_round_trips(self, tmp_path):
        target = tmp_path / "combined.json"
        result = run_cli(
            "combine", "--input", str(DATA / "example1.json"),
            "--pair", "m1", "m2", "--output", str(target),
        )
        assert result.returncode == 0
        assert "k = 0.9900" in result.stdout
        doc = document.load(target)
        combined = doc.bpa("m1+m2")
        # all surviving mass is on {A3}
        frame = doc.frame
        mask = frame.subset(["A3"])
        assert abs(combined.mass(mask) - 1.0) <= 1e-9

    def test_inputs_summing_to_one_within_tolerance(self, tmp_path):
        # a valid pair under high conflict; dividing by 1 - k failed to sum to 1
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"frame": ["a", "b"], "bpas": [
            {"name": "m1", "masses": [{"set": ["a"], "mass": 1 - 1e-7 + 4e-10},
                                      {"set": ["a", "b"], "mass": 1e-7}]},
            {"name": "m2", "masses": [{"set": ["b"], "mass": 1 - 1e-7},
                                      {"set": ["a", "b"], "mass": 1e-7}]},
        ]}))
        result = run_cli("combine", "--input", str(path), "--pair", "m1", "m2")
        assert result.returncode == 0, result.stderr
        (bpa,) = json.loads(result.stdout)["bpas"]
        assert abs(math.fsum(item["mass"] for item in bpa["masses"]) - 1.0) <= 1e-9

    def test_total_conflict_exits_3(self):
        result = run_cli(
            "combine", "--input", str(DATA / "example1.json"),
            "--pair", "m1_revised", "m2_revised",
        )
        assert result.returncode == 3
        assert "total conflict" in result.stderr
        assert "1.0" in result.stderr  # quotes k


class TestSweep:
    def test_default_sweep(self):
        result = run_cli("sweep")
        assert result.returncode == 0
        rows = list(csv.DictReader(result.stdout.splitlines()))
        assert len(rows) == 20
        assert rows[0]["A"] == "{1}"
        assert rows[4]["A"] == "{1,2,3,4,5}"
        assert rows[5]["A"] == "{1,2,...,6}"
        assert rows[19]["A"] == "{1,2,...,20}"
        assert rows[0]["k_rounded"] == "0.0500"
        assert rows[4]["k_r_rounded"] == "0.0094"
        assert rows[0]["d_bba_rounded"] == "0.7858"
        # full-precision columns parse back to floats
        assert abs(float(rows[4]["k_r"]) - 0.0094) < 5e-3

    def test_frame_size_override(self):
        result = run_cli("sweep", "--frame-size", "8")
        assert result.returncode == 0
        rows = list(csv.DictReader(result.stdout.splitlines()))
        assert len(rows) == 8

    def test_too_small_frame_exits_2(self):
        result = run_cli("sweep", "--frame-size", "6")
        assert result.returncode == 2

    def test_huge_frame_exits_2(self):
        result = run_cli("sweep", "--frame-size", str(10**6))
        assert result.returncode == 2
        assert result.stderr == "error: 1000000 labels exceed the limit of 63\n"

    def test_output_file(self, tmp_path):
        target = tmp_path / "sweep.csv"
        result = run_cli("sweep", "--output", str(target))
        assert result.returncode == 0
        assert target.read_text().startswith("A,k_r,d_bba,k,")


class TestGramCheck:
    def test_n4(self):
        result = run_cli("gram-check", "--n", "4")
        assert result.returncode == 0
        assert result.stdout == "15×15: positive definite\n"

    def test_cap_exits_3(self):
        result = run_cli("gram-check", "--n", str(ds.GRAM_MAX_FRAME + 1))
        assert result.returncode == 3

    def test_beyond_frame_limit_exits_2(self):
        result = run_cli("gram-check", "--n", "64")
        assert result.returncode == 2
        assert result.stderr.startswith("error:")

    def test_huge_frame_exits_2(self):
        result = run_cli("gram-check", "--n", str(10**6))
        assert result.returncode == 2
        assert result.stderr == "error: 1000000 labels exceed the limit of 63\n"

    def test_help_names_the_cap(self):
        result = run_cli("gram-check", "--help")
        assert result.returncode == 0
        assert f"frame size (1 to {ds.GRAM_MAX_FRAME})" in result.stdout

    def test_zero_exits_2(self):
        result = run_cli("gram-check", "--n", "0")
        assert result.returncode == 2


class TestUsageErrors:
    def test_no_command(self):
        assert run_cli().returncode == 1

    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 1

    def test_missing_required_flag(self):
        result = run_cli("measure", "--input", str(DATA / "example1.json"))
        assert result.returncode == 1

    def test_non_numeric_epsilon(self):
        result = run_cli(
            "measure", "--input", str(DATA / "example1.json"),
            "--pair", "m1", "m2", "--epsilon", "lots",
        )
        assert result.returncode == 1

    @pytest.mark.parametrize("command", [
        ["measure", "--input", str(DATA / "example1.json"), "--pair", "m1", "m2"],
        ["combine", "--input", str(DATA / "example1.json"), "--pair", "m1", "m2"],
        ["sweep"],
    ], ids=["measure", "combine", "sweep"])
    def test_negative_precision(self, command):
        result = run_cli(*command, "--precision", "-1")
        assert result.returncode == 1
        assert "--precision: expected a nonnegative integer" in result.stderr
        assert "Traceback" not in result.stderr

    def test_help_exits_0(self):
        result = run_cli("--help")
        assert result.returncode == 0
        assert "measure" in result.stdout


class TestMalformedDocuments:
    def write(self, tmp_path, payload: str) -> str:
        path = tmp_path / "doc.json"
        path.write_text(payload)
        return str(path)

    def test_bad_sum_positioned(self, tmp_path):
        path = self.write(tmp_path, (
            '{"frame": ["A1", "A2"], "bpas": [{"name": "m", "masses": ['
            '{"set": ["A1"], "mass": 0.7}, {"set": ["A2"], "mass": 0.7}]}]}'
        ))
        result = run_cli("measure", "--input", path, "--pair", "m", "m")
        assert result.returncode == 2
        assert "bpas[0].masses" in result.stderr

    def test_unknown_label_positioned(self, tmp_path):
        path = self.write(tmp_path, (
            '{"frame": ["A1"], "bpas": [{"name": "m", "masses": ['
            '{"set": ["A7"], "mass": 1.0}]}]}'
        ))
        result = run_cli("measure", "--input", path, "--pair", "m", "m")
        assert result.returncode == 2
        assert "bpas[0].masses[0].set" in result.stderr

    def test_empty_set_mass_positioned(self, tmp_path):
        path = self.write(tmp_path, (
            '{"frame": ["A1"], "bpas": [{"name": "m", "masses": ['
            '{"set": [], "mass": 0.4}, {"set": ["A1"], "mass": 0.6}]}]}'
        ))
        result = run_cli("measure", "--input", path, "--pair", "m", "m")
        assert result.returncode == 2
        assert "bpas[0].masses[0].set" in result.stderr

    def test_invalid_json_positioned(self, tmp_path):
        path = self.write(tmp_path, '{"frame": ["A1"], "bpas": [')
        result = run_cli("measure", "--input", path, "--pair", "m", "m")
        assert result.returncode == 2
        assert "line 1" in result.stderr

    def test_mass_beyond_float_range_exits_2(self, tmp_path):
        path = self.write(tmp_path, (
            '{"frame": ["A1"], "bpas": [{"name": "m", "masses": ['
            '{"set": ["A1"], "mass": 1' + "0" * 400 + '}]}]}'
        ))
        result = run_cli("measure", "--input", path, "--pair", "m", "m")
        assert result.returncode == 2
        assert result.stderr.startswith("error: bpas[0].masses[0].mass:")
        assert result.stderr.count("\n") == 1
