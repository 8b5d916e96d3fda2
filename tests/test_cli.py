import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from su31cert.cli import main
from su31cert.hermitian import matrix_from_json, matrix_to_json, su31_residual
from su31cert.corpus import generic_corpus, real_form_corpus


def write_generators(path, gens):
    path.write_text(json.dumps([matrix_to_json(g.entries) for g in gens]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_real_form_exit_zero(self, tmp_path, capsys):
        f = tmp_path / "gens.json"
        write_generators(f, real_form_corpus(0))
        code, out, _ = run(capsys, "classify", "--generators", str(f), "--max-word-len", "3")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "real_form"
        assert report["certificate"] <= 1e-6
        assert report["config"]["max_word_length"] == 3

    def test_inconclusive_exit_two(self, tmp_path, capsys):
        f = tmp_path / "gens.json"
        d = np.diag([2, np.exp(1j * np.pi / 5), np.exp(-1j * np.pi / 5), 0.5])
        f.write_text(json.dumps([matrix_to_json(d)]))
        code, out, _ = run(capsys, "classify", "--generators", str(f))
        assert code == 2
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_bad_generator_exit_one(self, tmp_path, capsys):
        f = tmp_path / "gens.json"
        f.write_text(json.dumps([matrix_to_json(np.diag([2.0, 1, 1, 1]))]))
        code, _, err = run(capsys, "classify", "--generators", str(f))
        assert code == 1
        assert "generator 0" in json.loads(err)["error"]

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        f = tmp_path / "gens.json"
        f.write_text("{not json")
        code, _, err = run(capsys, "classify", "--generators", str(f))
        assert code == 1

    def test_stage_log_lines_leave_stdout_unchanged(self, tmp_path, capsys, caplog):
        f = tmp_path / "gens.json"
        write_generators(f, real_form_corpus(0))
        quiet = run(capsys, "classify", "--generators", str(f))[1]
        assert not [r for r in caplog.records if r.name == "su31cert"]
        caplog.set_level(logging.INFO, logger="su31cert")
        code, out, _ = run(capsys, "classify", "--generators", str(f))
        assert code == 0 and out == quiet
        lines = [r.getMessage() for r in caplog.records if r.name == "su31cert"]
        stages = json.loads(out)["stages"]
        assert lines == [
            f"stage {s['name']}: {s['status']} (residual {s['residual']})" for s in stages
        ]

    def test_generic_group_prints_one_stage_record(self, tmp_path, capsys):
        f = tmp_path / "gens.json"
        write_generators(f, generic_corpus(0))
        code, out, _ = run(capsys, "classify", "--generators", str(f), "--max-word-len", "8")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "not_real_trace"
        assert [s["name"] for s in report["stages"]] == ["trace_reality"]

    def test_out_file_and_determinism(self, tmp_path, capsys):
        f = tmp_path / "gens.json"
        write_generators(f, real_form_corpus(1))
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run(capsys, "classify", "--generators", str(f), "--out", str(out1))[0] == 0
        assert run(capsys, "classify", "--generators", str(f), "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestElementCommand:
    def test_loxodromic(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        d = np.diag([2, np.exp(1j * np.pi / 5), np.exp(-1j * np.pi / 5), 0.5])
        f.write_text(json.dumps(matrix_to_json(d)))
        code, out, _ = run(capsys, "element", "--matrix", str(f))
        assert code == 0
        data = json.loads(out)
        assert data["type"] == "loxodromic"
        assert data["u"] == pytest.approx(2.0, abs=1e-9)
        assert data["theta"] == pytest.approx(np.pi / 5, abs=1e-9)

    def test_elliptic(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(matrix_to_json(np.eye(4))))
        code, out, _ = run(capsys, "element", "--matrix", str(f))
        assert code == 0 and json.loads(out)["type"] == "elliptic"

    def test_parabolic(self, tmp_path, capsys):
        m = np.eye(4, dtype=complex)
        m[0, 3] = 1j
        f = tmp_path / "m.json"
        f.write_text(json.dumps(matrix_to_json(m)))
        code, out, _ = run(capsys, "element", "--matrix", str(f))
        assert code == 0 and json.loads(out)["type"] == "parabolic"


class TestCartanCommand:
    def _vec(self, v):
        return [[float(np.real(z)), float(np.imag(z))] for z in v]

    def test_lagrangian(self, tmp_path, capsys):
        f = tmp_path / "v.json"
        f.write_text(
            json.dumps(
                [
                    self._vec([1, 0, 0, 0]),
                    self._vec([0, 0, 0, 1]),
                    self._vec([-1, np.sqrt(2), 0, 1]),
                ]
            )
        )
        code, out, _ = run(capsys, "cartan", "--vectors", str(f))
        data = json.loads(out)
        assert code == 0
        assert data["invariant"] == pytest.approx(0.0, abs=1e-12)
        assert data["geometry"] == "lagrangian"

    def test_complex_line(self, tmp_path, capsys):
        f = tmp_path / "v.json"
        f.write_text(
            json.dumps(
                [
                    self._vec([1, 0, 0, 0]),
                    self._vec([0, 0, 0, 1]),
                    self._vec([1j, 0, 0, 1]),
                ]
            )
        )
        code, out, _ = run(capsys, "cartan", "--vectors", str(f))
        data = json.loads(out)
        assert code == 0
        assert data["invariant"] == pytest.approx(np.pi / 2, abs=1e-12)
        assert data["geometry"] == "complex_line"

    def test_degenerate(self, tmp_path, capsys):
        f = tmp_path / "v.json"
        f.write_text(json.dumps([self._vec([1, 0, 0, 0])] * 3))
        code, _, err = run(capsys, "cartan", "--vectors", str(f))
        assert code == 1
        assert "degenerate" in json.loads(err)["error"]


class TestTraceAndIdentities:
    def test_trace(self, tmp_path, capsys):
        f = tmp_path / "gens.json"
        write_generators(f, real_form_corpus(2))
        code, out, _ = run(capsys, "trace", "--generators", str(f), "--max-word-len", "4")
        assert code == 0
        assert json.loads(out)["verdict"] == "all_real"

    def test_identities(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(matrix_to_json(np.eye(4))))
        code, out, _ = run(capsys, "identities", "--matrix", str(f))
        data = json.loads(out)
        assert code == 0
        assert len(data["residuals"]) == 20
        assert all(item["residual"] == 0 for item in data["residuals"])


class TestGenCorpus:
    @pytest.mark.parametrize("kind", ["real_form", "product_form", "generic"])
    def test_round_trip_certifies(self, kind, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "gen-corpus",
            "--kind",
            kind,
            "--seed",
            "10",
            "--count",
            "2",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        files = json.loads(out)["files"]
        assert len(files) == 2
        for path in files:
            for item in json.loads(open(path).read()):
                assert su31_residual(matrix_from_json(item)) <= 1e-9

    def test_seeded_determinism(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out_dir in (a, b):
            run(capsys, "gen-corpus", "--kind", "generic", "--seed", "3", "--out", str(out_dir))
        assert (a / "generic_3.json").read_bytes() == (b / "generic_3.json").read_bytes()


class TestCommandSurface:
    def test_import_leaves_scipy_out(self):
        code = "import sys, su31cert.cli; print('scipy' in sys.modules)"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "argv",
        [
            ["element", "--matrix", "m.json", "--max-word-len", "4"],
            ["cartan", "--vectors", "v.json", "--tol-real", "1e-8"],
            ["classify", "--generators", "g.json", "--jobs", "2"],
            ["classify", "--generators", "g.json", "--tol-corner", "1e-6"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestErrorPaths:
    def test_trace_over_budget_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "gens.json"
        write_generators(f, real_form_corpus(0))
        code, _, err = run(capsys, "trace", "--generators", str(f), "--max-word-len", "20")
        assert code == 1
        assert "exceeds budget" in json.loads(err)["error"]

    @pytest.mark.parametrize("command", ["classify", "trace"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-word-len", "0"),
            ("--tol-real", "-1"),
            ("--tol-real", "0"),
            ("--tol-real", "nan"),
            ("--tol-real", "inf"),
            ("--budget", "0"),
        ],
    )
    def test_bad_analysis_flag_is_input_error(self, tmp_path, capsys, command, flag, value):
        f = tmp_path / "gens.json"
        write_generators(f, real_form_corpus(0))
        code, out, err = run(capsys, command, "--generators", str(f), flag, value)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0])

    @pytest.mark.parametrize("command", ["classify", "trace", "identities", "element"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_matrix_entry_is_input_error(self, tmp_path, capsys, command, literal):
        # json.loads accepts these literals; the matrix must still be rejected as input
        m = matrix_to_json(real_form_corpus(0)[0].entries)
        m[1][2][0] = float(literal)
        flag = "--generators" if command in ("classify", "trace") else "--matrix"
        f = tmp_path / "m.json"
        f.write_text(json.dumps([m] if flag == "--generators" else m))
        assert literal in f.read_text()
        code, out, err = run(capsys, command, flag, str(f))
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert "non-finite" in json.loads(lines[0])["error"]

    def test_element_normal_form_failure_is_reported(
        self, tmp_path, capsys, failing_normalization
    ):
        g1, g2 = real_form_corpus(0)
        word = g1.inverse() @ g2.inverse() @ g1 @ g1  # (-1, -2, 1, 1)
        f = tmp_path / "w.json"
        f.write_text(json.dumps(matrix_to_json(word.entries)))
        code, out, _ = run(capsys, "element", "--matrix", str(f))
        assert code == 0
        data = json.loads(out)
        assert data["type"] == "loxodromic"
        assert "membership residual" in data["normal_form_error"]


class TestRealPlaneStabilizer:
    """Seed 2 of the SO(2,1) family: word (2, 2) has eigenvalues e^{+-i phi}, 1, 1."""

    def test_classify_exits_two_with_a_verdict(self, tmp_path, capsys, so21_group):
        f = tmp_path / "gens.json"
        write_generators(f, so21_group(2))
        code, out, _ = run(capsys, "classify", "--generators", str(f))
        assert code == 2
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_element_reports_the_word_elliptic(self, tmp_path, capsys, so21_group):
        _, g2 = so21_group(2)
        f = tmp_path / "w.json"
        f.write_text(json.dumps(matrix_to_json((g2 @ g2).entries)))
        code, out, _ = run(capsys, "element", "--matrix", str(f))
        assert code == 0
        assert json.loads(out) == {"type": "elliptic"}
