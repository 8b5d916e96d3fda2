#!/usr/bin/env python3
"""Digests of classify_group reports over a fixed set of inputs, one line each.

For every input the script prints ``key sha256``, the digest of
``json.dumps(res.to_json(cfg), sort_keys=True)``.  The inputs:

- the three corpus kinds, seeds 0-199 at L=4 and seeds 0-39 at L=7;
- the SO(2,1) and C-Fuchsian builders of tests/conftest.py, seeds 0-39 at
  L=4 and L=7;
- near-real inputs with the perturbation of scripts/sweep_near_real.py:
  real_form and product_form seeds 0-9, eps in EPSILONS, tol_real in
  TOL_REALS, L in 4, 7, 8;
- one input whose word count exceeds the budget.

A report holds the verdict, the conjugator, the certificate, the witness, the
reason and every stage record with its residual, so two trees that print the
same lines give the same reports on these inputs.  Compare two trees on one
machine only: LAPACK builds differ in the last bits of an SVD, and those bits
reach the conjugator.

Usage:
    python3 scripts/report_digest.py > scripts/report_digest.txt
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from sweep_near_real import perturbed

from su31cert import AnalysisConfig, classify_group
from su31cert.corpus import CORPUS_KINDS, product_form_corpus, real_form_corpus

CONFTEST = Path(__file__).resolve().parents[1] / "tests" / "conftest.py"
EPSILONS = [1e-11, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6]
TOL_REALS = [1e-8, 1e-6, 1e-5, 1e-4, 1e-3]
NEAR_REAL = {"real_form": real_form_corpus, "product_form": product_form_corpus}


def _conftest():
    spec = importlib.util.spec_from_file_location("report_digest_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(key: str, gens, cfg: AnalysisConfig):
    text = json.dumps(classify_group(gens, config=cfg).to_json(cfg), sort_keys=True)
    print(key, hashlib.sha256(text.encode()).hexdigest())


def main() -> int:
    for kind, make in CORPUS_KINDS.items():
        for length, seeds in ((4, 200), (7, 40)):
            cfg = AnalysisConfig(max_word_length=length)
            for seed in range(seeds):
                digest(f"{kind}/{seed}/L{length}", make(seed), cfg)
    conftest = _conftest()
    for name, make in (("so21", conftest._so21_group), ("c_fuchsian", conftest._c_fuchsian_group)):
        for length in (4, 7):
            cfg = AnalysisConfig(max_word_length=length)
            for seed in range(40):
                digest(f"{name}/{seed}/L{length}", make(seed), cfg)
    for kind, make in NEAR_REAL.items():
        for seed in range(10):
            for eps in EPSILONS:
                gens = perturbed(make, seed, eps)
                for tol_real in TOL_REALS:
                    for length in (4, 7, 8):
                        cfg = AnalysisConfig(max_word_length=length, tol_real=tol_real)
                        key = f"near_{kind}/{seed}/eps{eps:g}/tol{tol_real:g}/L{length}"
                        digest(key, gens, cfg)
    digest("budget/real_form/0/L4", real_form_corpus(0), AnalysisConfig(budget=10))
    return 0


if __name__ == "__main__":
    sys.exit(main())
