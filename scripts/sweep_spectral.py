#!/usr/bin/env python3
"""Outcome counts of the single-element path on two fixed populations.

- normalize_loxodromic on every loxodromic word (classify's tag) up to L=5 of
  real_form and product_form corpora 0-69.  Each normal form is re-checked in
  plain numpy: |C* J C - J| and |det C - 1| within 1e-8 |C|^2, and
  |inv(C) w C - diag(u, e^{i theta}, e^{-i theta}, 1/u)| within 1e-8 |w|
  (max-norms, at least 1).
- classify on every word up to L=4 of the SO(2,1) and C-Fuchsian builders of
  tests/conftest.py, seeds 0-39.

Each population prints its outcome counts (a tag, ``ok``, ``numpy_check``
for a normal form the re-check rejects, or the exception's class), then one
line per word that did not succeed.  Two trees that print the same lines
give the same outcomes; a diff names the words that moved.  About 2 minutes.

Usage:
    python3 scripts/sweep_spectral.py > scripts/sweep_spectral.txt
"""

import collections
import importlib.util
import sys
from pathlib import Path

import numpy as np

from su31cert import elements
from su31cert.corpus import product_form_corpus, real_form_corpus
from su31cert.hermitian import J
from su31cert.tracefield import enumerate_words

CONFTEST = Path(__file__).resolve().parents[1] / "tests" / "conftest.py"
CORPORA = {"real_form": real_form_corpus, "product_form": product_form_corpus}
NORMAL_FORM_SEEDS = range(70)
NORMAL_FORM_LENGTH = 5
CLASSIFY_SEEDS = range(40)
CLASSIFY_LENGTH = 4
TOL = 1e-8


def _conftest():
    spec = importlib.util.spec_from_file_location("sweep_spectral_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def numpy_check(w, nf) -> bool:
    c = nf.conjugator.entries
    c_scale = max(1.0, np.abs(c).max()) ** 2
    diag = np.diag([nf.u, np.exp(1j * nf.theta), np.exp(-1j * nf.theta), 1.0 / nf.u])
    return (
        np.abs(c.conj().T @ J @ c - J).max() <= TOL * c_scale
        and abs(np.linalg.det(c) - 1.0) <= TOL * c_scale
        and np.abs(np.linalg.inv(c) @ w @ c - diag).max() <= TOL * max(1.0, np.abs(w).max())
    )


def normal_form_outcome(w) -> str:
    try:
        return "ok" if numpy_check(w, elements.normalize_loxodromic(w)) else "numpy_check"
    except (ValueError, RuntimeError) as exc:  # NotInGroup, IllConditioned, ...
        return type(exc).__name__


def classify_outcome(w) -> str:
    try:
        return elements.classify(w).tag
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def report(title: str, outcomes: dict, successes) -> None:
    print(f"# {title}")
    print(f"words {len(outcomes)}")
    for outcome, count in sorted(collections.Counter(outcomes.values()).items()):
        print(f"{outcome} {count}")
    for key, outcome in outcomes.items():
        if outcome not in successes:
            print(f"  {key} {outcome}")


def main() -> int:
    normal_forms = {}
    for kind, make in CORPORA.items():
        for seed in NORMAL_FORM_SEEDS:
            for w in enumerate_words(make(seed), NORMAL_FORM_LENGTH):
                if classify_outcome(w) == elements.LOXODROMIC:
                    normal_forms[f"{kind}/{seed} {w.word}"] = normal_form_outcome(w.entries)
    report(
        f"normalize_loxodromic, loxodromic words up to L={NORMAL_FORM_LENGTH}, "
        "real_form and product_form corpora 0-69",
        normal_forms,
        {"ok"},
    )
    conftest = _conftest()
    tags = {}
    for name, make in (("so21", conftest._so21_group), ("c_fuchsian", conftest._c_fuchsian_group)):
        for seed in CLASSIFY_SEEDS:
            for w in enumerate_words(make(seed), CLASSIFY_LENGTH):
                tags[f"{name}/{seed} {w.word}"] = classify_outcome(w)
    report(
        f"classify, words up to L={CLASSIFY_LENGTH}, SO(2,1) and C-Fuchsian seeds 0-39",
        tags,
        {elements.LOXODROMIC, elements.PARABOLIC, elements.ELLIPTIC},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
