"""Reduced-word enumeration over the generators and trace-reality scanning.

Also houses the reusable entry-level reality predicates: the real-or-
purely-imaginary dichotomy for a pair of nonzero complex numbers, and the
single- and two-element entry checks that hold in a group with all-real
traces once a diagonal loxodromic has been normalized into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .config import AnalysisConfig
from .hermitian import GroupElement, matrix_entries, su31_inverse
from .hermitian import su31_residual  # noqa: F401  (perfbench traces tracefield.su31_residual)

REAL_PAIR = "real_pair"
IMAGINARY_PAIR = "imaginary_pair"
HYPOTHESIS_FAILED = "hypothesis_failed"

ALL_REAL = "all_real"
NOT_REAL = "not_real"


class BudgetExceeded(RuntimeError):
    def __init__(self, count, budget):
        self.count = count
        self.budget = budget
        super().__init__(f"word count {count} exceeds budget {budget}")


class ZeroInput(ValueError):
    """0 is both real and purely imaginary; we refuse to classify it."""


def reduced_word_count(n_gens: int, max_length: int) -> int:
    """Number of nonempty reduced words: sum over lengths of 2k(2k-1)^{l-1}."""
    k2 = 2 * n_gens
    return sum(k2 * (k2 - 1) ** (length - 1) for length in range(1, max_length + 1))


def enumerate_words(
    gens: Sequence[GroupElement],
    max_length: int,
    budget: int = AnalysisConfig.budget,
) -> Iterator[GroupElement]:
    """All reduced words up to ``max_length``, by length then lexicographically.

    Letters are signed 1-based generator indices ordered -k < ... < -1 < 1 < ... < k;
    words with an adjacent g g^{-1} pair are skipped (free reduction only, no
    group relations).  The children of a sorted level, taken in letter order,
    are already sorted, so no level is re-sorted.  Raises BudgetExceeded up
    front when the count is too big.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    total = reduced_word_count(len(gens), max_length)
    if total > budget:
        raise BudgetExceeded(total, budget)
    k = len(gens)
    letters = sorted(list(range(-k, 0)) + list(range(1, k + 1)))
    mats = {i + 1: g.entries for i, g in enumerate(gens)}
    mats.update({-(i + 1): su31_inverse(g.entries) for i, g in enumerate(gens)})
    frontier = [((), np.eye(4, dtype=complex))]
    for _ in range(max_length):
        nxt = []
        for word, mat in frontier:
            for letter in letters:
                if word and letter == -word[-1]:
                    continue
                new_word = word + (letter,)
                new_mat = mat @ mats[letter]
                nxt.append((new_word, new_mat))
                yield GroupElement(new_mat, new_word)
        frontier = nxt


@dataclass(frozen=True)
class TraceReport:
    verdict: str
    max_im_trace: float
    witness_word: tuple
    words_checked: int

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_im_trace": self.max_im_trace,
            "witness_word": list(self.witness_word),
            "words_checked": self.words_checked,
        }


def trace_reality_report(
    gens: Sequence[GroupElement],
    max_length: int,
    tol_real: float = AnalysisConfig.tol_real,
    budget: int = AnalysisConfig.budget,
) -> TraceReport:
    """Scan all reduced words; AllReal iff every |Im tr| <= tol_real.

    On a NotReal verdict the witness is the first violating word in
    enumeration order (a shortest certificate); on AllReal it is the word
    attaining max_im_trace, as a diagnostic.
    """
    max_im = 0.0
    argmax_word: tuple = ()
    first_violator: tuple | None = None
    count = 0
    for element in enumerate_words(gens, max_length, budget):
        count += 1
        im = abs(element.trace.imag)
        if im > max_im:
            max_im = im
            argmax_word = element.word
        if first_violator is None and im > tol_real:
            first_violator = element.word
    if max_im > tol_real:
        return TraceReport(NOT_REAL, max_im, first_violator, count)
    return TraceReport(ALL_REAL, max_im, argmax_word, count)


def lemma22_branch(a: complex, b: complex, tol: float = 1e-9) -> str:
    """Dichotomy for nonzero a, b with ab and a*conj(b) real.

    Returns REAL_PAIR, IMAGINARY_PAIR, or HYPOTHESIS_FAILED; exactly one of
    the first two fires when the hypotheses hold.
    """
    a = complex(a)
    b = complex(b)
    if abs(a) < 1e-12 or abs(b) < 1e-12:
        raise ZeroInput("inputs must be nonzero")
    scale = abs(a) * abs(b)
    if abs((a * b).imag) > tol * scale or abs((a * np.conj(b)).imag) > tol * scale:
        return HYPOTHESIS_FAILED
    if abs(a.imag) <= tol * abs(a) and abs(b.imag) <= tol * abs(b):
        return REAL_PAIR
    if abs(a.real) <= tol * abs(a) and abs(b.real) <= tol * abs(b):
        return IMAGINARY_PAIR
    return HYPOTHESIS_FAILED


def entry_reality_check(b) -> dict:
    """Imaginary parts of a, t, f+n; all vanish in a normalized real-trace group."""
    E = matrix_entries(b)
    return {
        "im_a": abs(E["a"].imag),
        "im_t": abs(E["t"].imag),
        "im_f_plus_n": abs((E["f"] + E["n"]).imag),
    }


def pairwise_reality_checks(b1, b2) -> dict:
    """Imaginary parts of the six two-element combinations that are forced real.

    With both inputs equal this reproduces the single-element
    quantities; with b2 = b1^{-1} it reproduces b1*conj(r1)+c1*conj(s1)
    and d1*conj(q1).
    """
    E1 = matrix_entries(b1)
    E2 = matrix_entries(b2)
    quantities = {
        "b1e2+c1l2": E1["b"] * E2["e"] + E1["c"] * E2["l"],
        "d1q2": E1["d"] * E2["q"],
        "r1h2+s1p2": E1["r"] * E2["h"] + E1["s"] * E2["p"],
        "q1d2": E1["q"] * E2["d"],
        "e1b2+l1c2+h1r2+p1s2": (
            E1["e"] * E2["b"] + E1["l"] * E2["c"] + E1["h"] * E2["r"] + E1["p"] * E2["s"]
        ),
        "f1f2+g1m2+m1g2+n1n2": (
            E1["f"] * E2["f"] + E1["g"] * E2["m"] + E1["m"] * E2["g"] + E1["n"] * E2["n"]
        ),
    }
    return {name: abs(val.imag) for name, val in quantities.items()}
