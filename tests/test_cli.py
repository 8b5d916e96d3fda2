import json

import numpy as np
import pytest

from su31cert.cli import main
from su31cert.hermitian import matrix_from_json, matrix_to_json, su31_residual
from su31cert.corpus import real_form_corpus


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
    @pytest.mark.parametrize(
        "argv",
        [
            ["element", "--matrix", "m.json", "--max-word-len", "4"],
            ["cartan", "--vectors", "v.json", "--tol-real", "1e-8"],
            ["classify", "--generators", "g.json", "--jobs", "2"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_membership_failure_exits_two_with_report(self, tmp_path, capsys):
        g1, g2 = real_form_corpus(0)
        word = g2 @ g1 @ g2 @ g1.inverse() @ g1.inverse() @ g2.inverse()  # (2, 1, 2, -1, -1, -2)
        f = tmp_path / "gens.json"
        write_generators(f, [g1, word.inverse()])
        code, out, _ = run(capsys, "classify", "--generators", str(f), "--max-word-len", "3")
        assert code == 2
        assert json.loads(out)["verdict"] == "inconclusive"
