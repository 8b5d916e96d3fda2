#!/usr/bin/env python3
"""Experiment: words walked and runtime against the word-length bound L.

For each word-length bound L the script classifies a batch of seeded
real-form, product-form and generic corpora and reports the size of the word
tree (the reduced words up to L), the words the pipeline actually drew from
it per classify call, and the wall time per call (the corpora are built
before the clock starts).  A generator with non-real trace is the witness
and ends the call, and a positive verdict is certified at the generators and
ends the call, so neither draws a word at any L while the tree grows; only a
failed construction scans the tree for a witness.  The worst certificate is
printed as a check: it is taken at the generators (for generic corpora it
is |Im tr| of the witness generator), so it is the same at every L.

Usage:
    python3 scripts/sweep_word_length.py --seeds 10 --lengths 2 3 4 5 7
"""

import argparse
import sys
import time

from su31cert import classify_group, engine
from su31cert.corpus import generic_corpus, product_form_corpus, real_form_corpus
from su31cert.tracefield import reduced_word_count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--lengths", type=int, nargs="+", default=[2, 3, 4, 5])
    args = parser.parse_args(argv)

    walked = [0]
    enumerate_words = engine.enumerate_words

    def counting(*a, **kw):
        for element in enumerate_words(*a, **kw):
            walked[0] += 1
            yield element

    engine.enumerate_words = counting
    classify_group(real_form_corpus(0), 2)  # warm-up, so first-call costs stay out of the timings
    print(
        f"{'L':>3} {'kind':>12} {'tree words':>11} {'walked/run':>11} "
        f"{'ms/run':>8} {'worst cert':>12}"
    )
    for length in args.lengths:
        for kind, make in (
            ("real_form", real_form_corpus),
            ("product_form", product_form_corpus),
            ("generic", generic_corpus),
        ):
            groups = [make(seed) for seed in range(args.seeds)]
            worst = 0.0
            walked[0] = 0
            start = time.time()
            for gens in groups:
                result = classify_group(gens, length)
                worst = max(worst, result.certificate)
            runs = max(args.seeds, 1)
            per_run = (time.time() - start) / runs
            words = reduced_word_count(2, length)
            print(
                f"{length:>3} {kind:>12} {words:>11} {walked[0] / runs:>11.1f} "
                f"{1e3 * per_run:>8.2f} {worst:>12.3e}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
