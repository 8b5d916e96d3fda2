#!/usr/bin/env python3
"""Experiment: words scanned and runtime against the word-length bound L.

For each word-length bound L the script classifies a batch of seeded
real-form and product-form corpora and reports the words scanned (the
reduced words up to L, which the trace scan checks once per classify call)
and the wall time per run.  Useful for picking a default
--max-word-len that balances confidence against cost.  The worst certificate
is printed as a check: it is taken at the generators, so it is the same at
every L.

Usage:
    python3 scripts/sweep_word_length.py --seeds 10 --lengths 2 3 4 5
"""

import argparse
import sys
import time

from su31cert import classify_group
from su31cert.corpus import product_form_corpus, real_form_corpus
from su31cert.tracefield import reduced_word_count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--lengths", type=int, nargs="+", default=[2, 3, 4, 5])
    args = parser.parse_args(argv)

    print(f"{'L':>3} {'kind':>12} {'words scanned':>14} {'time/run':>10} {'worst cert':>12}")
    for length in args.lengths:
        for kind, make in (("real_form", real_form_corpus), ("product_form", product_form_corpus)):
            worst = 0.0
            start = time.time()
            words = None
            for seed in range(args.seeds):
                gens = make(seed)
                if words is None:
                    words = reduced_word_count(len(gens), length)
                result = classify_group(gens, length)
                worst = max(worst, result.certificate)
            per_run = (time.time() - start) / max(args.seeds, 1)
            print(f"{length:>3} {kind:>12} {words:>14} {per_run:>9.3f}s {worst:>12.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
