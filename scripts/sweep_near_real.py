#!/usr/bin/env python3
"""Experiment: verdicts on near-real groups against the word-length bound L.

Generator 2 of each real_form and product_form corpus (seeds 0-4) is
multiplied by exp(eps X), X a seeded random element of su(3,1) scaled to
|X|_max = 1.  Besides a decade grid of eps, each input gets two eps chosen so
that its relative certificate is 0.9 and 1.35 times the certificate bound
(the certificate grows linearly in eps; the eps = 1e-10 row fixes the slope).
For each input the script prints

- rel cert: engine.relative_certificate of the generators conjugated by the
  D that classify_group builds when its bound is lifted (tol_real = 1): from
  the null spaces, or from their nearest shape where the deviation leaves
  them at dimensions (0, 1) (nan when no D is built);
- im4: the largest |Im tr| over the reduced words up to length 4;
- scan: the trace-reality scan at tol_real over all reduced words up to
  L = 4, 7, 8 ("real" or "not");
- verdict: classify_group at L = 4, 7, 8 ("+" for real_form or
  compact_product_form, "not" for not_real_trace, "inc" for inconclusive);
- + vs scan: the lengths L at which classify_group is positive although the
  scan at the same L finds a word above tol_real.

A positive verdict is a statement about the generators, so it is the same at
every L; a near-real group within the certificate bound can still have long
words above tol_real.  The summary counts those inputs at each L (at L = 4
there must be none), and derives the bound the L = 4 count asks for from the
largest measured amplification im4 / rel cert.  The output has no timings,
so it repeats exactly.

Usage:
    python3 scripts/sweep_near_real.py > scripts/sweep_near_real.txt
"""

import argparse
import sys

import numpy as np
from scipy.linalg import expm

from su31cert import AnalysisConfig, GroupElement, classify_group, trace_reality_report
from su31cert.corpus import product_form_corpus, random_su31_algebra, real_form_corpus
from su31cert.engine import (
    COMPACT_PRODUCT_FORM,
    NOT_REAL_TRACE,
    REAL_FORM,
    certificate_bound,
    conjugated_generators,
    generator_letters,
    relative_certificate,
)
from su31cert.hermitian import norm_max

EPSILONS = [0.0, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7]
SLOPE_EPS = 1e-10
EDGE = [0.9, 1.35]  # relative certificate / certificate bound of the two extra rows
LENGTHS = [4, 7, 8]
KINDS = {"real_form": real_form_corpus, "product_form": product_form_corpus}
SHORT = {REAL_FORM: "+", COMPACT_PRODUCT_FORM: "+", NOT_REAL_TRACE: "not"}


def perturbed(make, seed: int, eps: float):
    gens = make(seed)
    x = random_su31_algebra(np.random.default_rng(10_000 + seed))
    x /= norm_max(x)
    gens[1] = GroupElement.certify(gens[1].entries @ expm(eps * x))
    return gens


def lifted_certificate(gens) -> float:
    """The relative certificate of the conjugator built with the bound lifted (tol_real = 1)."""
    res = classify_group(gens, config=AnalysisConfig(tol_real=1.0))
    if res.verdict not in (REAL_FORM, COMPACT_PRODUCT_FORM):
        return float("nan")
    letters = conjugated_generators(res.conjugator, generator_letters(gens))
    return relative_certificate(res.verdict, letters)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args(argv)

    bound = certificate_bound()
    lengths = " ".join(f"{length:>4}" for length in LENGTHS)
    print(
        f"{'kind':>12} {'seed':>4} {'eps':>8} {'rel cert':>9} {'im4':>9}   scan {lengths}"
        f"   verdict {lengths}   + vs scan"
    )
    inputs = same = 0
    positive_rejected = {length: 0 for length in LENGTHS}
    clean_worst, rejected_least, amplification = 0.0, float("inf"), 0.0
    for kind, make in KINDS.items():
        for seed in range(args.seeds):
            slope = lifted_certificate(perturbed(make, seed, SLOPE_EPS)) / SLOPE_EPS
            edges = [f * bound / slope for f in EDGE] if np.isfinite(slope) else []
            for eps in sorted(EPSILONS + edges):
                gens = perturbed(make, seed, eps)
                rel = lifted_certificate(gens)
                reports = [trace_reality_report(gens, length) for length in LENGTHS]
                scans = [r.verdict == "all_real" for r in reports]
                im4 = reports[0].max_im_trace
                verdicts = [classify_group(gens, length).verdict for length in LENGTHS]
                positive = [v in (REAL_FORM, COMPACT_PRODUCT_FORM) for v in verdicts]
                flagged = [length for length, p, s in zip(LENGTHS, positive, scans) if p and not s]
                inputs += 1
                same += len(set(positive)) == 1
                for length in flagged:
                    positive_rejected[length] += 1
                if eps == 0.0:
                    clean_worst = max(clean_worst, rel)
                elif rel > 0:
                    amplification = max(amplification, im4 / rel)
                if not scans[0]:
                    rejected_least = min(rejected_least, rel)
                scan_txt = " ".join(f"{'real' if s else 'not':>4}" for s in scans)
                verdict_txt = " ".join(f"{SHORT.get(v, 'inc'):>4}" for v in verdicts)
                flag_txt = " ".join(str(length) for length in flagged)
                print(
                    f"{kind:>12} {seed:>4} {eps:>8.2e} {rel:>9.2e} {im4:>9.2e}        {scan_txt}"
                    f"           {verdict_txt}   {flag_txt}".rstrip()
                )
    tol_real = AnalysisConfig.tol_real
    print()
    print(f"inputs with the same positive/not-positive verdict at L = 4, 7, 8: {same}/{inputs}")
    for length in LENGTHS:
        print(
            f"inputs certified although the L={length} scan rejects them: "
            f"{positive_rejected[length]}"
        )
    print(f"largest relative certificate at eps = 0: {clean_worst:.2e}")
    print(f"smallest relative certificate among inputs the L=4 scan rejects: {rejected_least:.2e}")
    print(f"largest amplification im4 / rel cert at eps > 0: {amplification:.0f}")
    print(f"tol_real / that amplification: {tol_real / amplification:.2e}")
    print(f"certificate bound (tol_real * CERT_SHARE): {bound:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
