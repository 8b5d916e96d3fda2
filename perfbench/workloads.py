"""The four fixed-work workloads: their inputs, their operation and their checks.

Importing this module imports the program (numpy, scipy and su31cert), so the
benchmark imports it inside the timed set-up.  The program is always called
through its module attributes (``engine.classify_group``, not a local name),
so that a traced pass can wrap those attributes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from su31cert import cartan, corpus, elements, engine, tracefield
from su31cert.config import AnalysisConfig
from su31cert.hermitian import BoundaryPoint, matrix_to_json

import checks

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
RESULTS = HERE / "results"
CLI_REPEATS = 2  # calls per generator file in a round, for the byte-identical stdout check


class Inconclusive(Exception):
    """A group the program could not decide; its operation counts as failed."""


def reduced_words(n_gens: int, length: int) -> int:
    """Reduced words of length 1..length in n_gens generators: sum of 2k(2k-1)^(l-1)."""
    k2 = 2 * n_gens
    return sum(k2 * (k2 - 1) ** (l - 1) for l in range(1, length + 1))


@dataclass
class Item:
    """One input of the program and what its checks need."""

    kind: str
    gens: list  # GroupElements handed to the program
    word: object = None  # spectral: the GroupElement to classify
    triple: object = None  # spectral: BoundaryTriple of fixed points, or None
    path: str = ""  # cli: generator file


class Workload:
    """Whole rounds of the same operations; ``run`` does one of them.

    A round is every operation on the corpora ``make_corpus(kind, s)`` for each
    kind and corpus seed s in ``corpora``.  These seeds are fixed, so every run
    attempts the same operations and fails on the same ones; --seed only
    shuffles the order of the operations within each round.
    """

    name = ""
    length = 0  # word length L
    corpora = {}  # corpus kind -> corpus seeds of one round
    # Seconds one round takes on the reference machine (README).  Only the number
    # of rounds depends on --seconds, never on a clock reading.
    round_seconds = 1.0
    words_per_op = 1

    def __init__(self, seed: int, rounds: int):
        self.rounds = rounds
        self.round = self.combine([
            self.corpus_items(kind, cseed, corpus.make_corpus(kind, cseed))
            for kind, seeds in self.corpora.items()
            for cseed in seeds
        ])
        rng = np.random.default_rng(seed)
        self.items = [self.round[i] for _ in range(rounds) for i in rng.permutation(len(self.round))]

    @classmethod
    def rounds_for(cls, seconds: float) -> int:
        return max(1, round(seconds / cls.round_seconds))

    def combine(self, per_corpus: list) -> list:
        """The operations of one round, from the items of each corpus."""
        return [item for items in per_corpus for item in items]

    def corpus_items(self, kind, cseed, gens) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def problems(self, outputs) -> list:
        """Check every (item, output) pair whose operation did not fail."""
        raise NotImplementedError


class GroupWorkload(Workload):
    """classify_group on whole corpora; the length is passed both ways."""

    @property
    def words_per_op(self) -> int:
        return reduced_words(2, self.length)

    def corpus_items(self, kind, cseed, gens):
        return [Item(kind, gens)]

    def run(self, item):
        config = AnalysisConfig(max_word_length=self.length)
        result = engine.classify_group(item.gens, self.length, config)
        if result.verdict == engine.INCONCLUSIVE:
            raise Inconclusive(result.reason)
        return result

    def problems(self, outputs):
        tol_real = AnalysisConfig().tol_real
        out = []
        for item, result in outputs:
            d = result.conjugator.entries if result.conjugator is not None else None
            gens = [g.entries for g in item.gens]
            out += checks.group_problems(item.kind, gens, result.verdict, d, result.witness, tol_real)
        return out


class CertifyL7(GroupWorkload):
    name = "certify_L7"
    length = 7
    # Two real_form and three product_form groups: the median latency falls
    # inside the slower product_form mode, not in the gap between the kinds.
    corpora = {"real_form": range(2), "product_form": range(3)}
    round_seconds = 2.2


class RejectL8(GroupWorkload):
    name = "reject_L8"
    length = 8
    corpora = {"generic": range(3)}
    round_seconds = 1.4


def _triple(gens, w):
    """Attracting and repelling fixed points of w and the attracting one of g1, or None.

    The points come from np.linalg.eig, not from the program; triples with two
    coincident points (w a power of g1, for one) are left out.
    """
    if not checks.is_loxodromic(w.entries):
        return None
    attract, repel = checks.fixed_points(w.entries)
    points = [attract, repel, checks.fixed_points(gens[0].entries)[0]]
    if any(checks.coincident(points[i], points[j]) for i, j in ((0, 1), (1, 2), (2, 0))):
        return None
    return cartan.BoundaryTriple(*[BoundaryPoint.from_vector(p) for p in points])


class SpectralL5(Workload):
    """Single-element spectral analysis of every word up to L=5.

    One operation takes the words at the same place in the three corpora
    (real_form, product_form, generic; their words come in the same order):
    elements.classify on each, and on a real-trace loxodromic word also
    normalize_loxodromic and the Cartan invariant of its fixed-point triple.
    Mixing the kinds in every operation keeps the median latency away from the
    gap between the cheap generic words and the dearer real-trace ones.  A
    NotInGroup from normalize_loxodromic fails the operation and is counted.
    """

    name = "spectral_L5"
    length = 5
    corpora = {"real_form": range(1), "product_form": range(1), "generic": range(1)}
    round_seconds = 5.0
    words_per_op = len(corpora)

    def combine(self, per_corpus):
        return [list(parts) for parts in zip(*per_corpus)]

    def corpus_items(self, kind, cseed, gens):
        real_trace = kind != "generic"
        return [
            Item(kind, gens, word=w, triple=_triple(gens, w) if real_trace else None)
            for w in tracefield.enumerate_words(gens, self.length)
        ]

    def run(self, parts):
        return [self.run_part(item) for item in parts]

    def run_part(self, item):
        tag = elements.classify(item.word).tag
        normal_form = None
        if item.kind != "generic" and tag == elements.LOXODROMIC:
            normal_form = elements.normalize_loxodromic(item.word)
        invariant = cartan.cartan_invariant(item.triple) if item.triple is not None else None
        return tag, normal_form, invariant

    def problems(self, outputs):
        out = []
        for parts, results in outputs:
            for item, (tag, nf, invariant) in zip(parts, results):
                w = item.word.entries
                out += checks.tag_problems(w, tag)
                if nf is not None:
                    out += checks.normal_form_problems(w, nf.u, nf.theta, nf.conjugator.entries)
                if invariant is not None:
                    out += checks.cartan_problems(item.kind, invariant)
        return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(cmd, tag):
    """Run one child to its end; returns (exit code, stdout bytes, stderr bytes, rusage)."""
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{tag}.out"
    err_path = RESULTS / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=REPO)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage


class CliL4(Workload):
    """One `python -m su31cert.cli classify` process per call; files written at set-up."""

    name = "cli_L4"
    length = 4
    corpora = {"real_form": range(1), "product_form": range(1), "generic": range(1)}
    round_seconds = 3.5
    words_per_op = reduced_words(2, 4)

    def __init__(self, seed: int, rounds: int):
        self.tracer = None  # set for the traced pass, which merges each child's layer stats
        self.peak_rss_kb = 0
        self.startup_ms = 0.0
        super().__init__(seed, rounds)

    def corpus_items(self, kind, cseed, gens):
        path = RESULTS / "cli_inputs" / f"{kind}_{cseed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([matrix_to_json(g.entries) for g in gens]) + "\n")
        return [Item(kind, gens, path=str(path))] * CLI_REPEATS

    def command(self, item, stats_path=None):
        args = ["classify", "--generators", item.path, "--max-word-len", str(self.length)]
        if stats_path is None:
            return [sys.executable, "-m", "su31cert.cli"] + args
        return [sys.executable, str(HERE / "cli_traced.py"), str(stats_path)] + args

    def run(self, item):
        stats_path = RESULTS / "cli_layers.json" if self.tracer is not None else None
        t0 = perf_counter()
        code, out, err, usage = run_child(self.command(item, stats_path), "cli")
        wall_ms = 1e3 * (perf_counter() - t0)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code == 2:
            raise Inconclusive(out.decode(errors="replace")[-300:])
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.decode(errors='replace')[-300:]}")
        if stats_path is not None:
            layers = json.loads(stats_path.read_text())
            self.tracer.merge(layers)
            self.startup_ms += wall_ms - layers["cli.main"]["ms"]
        return code, out

    def problems(self, outputs):
        by_file = {}
        for item, call in outputs:
            by_file.setdefault(item.path, (item, []))[1].append(call)
        out = []
        for item, calls in by_file.values():
            out += checks.cli_problems(item.kind, [g.entries for g in item.gens], calls)
        return out


WORKLOADS = {w.name: w for w in (CertifyL7, RejectL8, SpectralL5, CliL4)}
