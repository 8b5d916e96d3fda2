#!/usr/bin/env python3
"""End-to-end demo: build seeded generator corpora and classify each one.

For every corpus kind (real_form, product_form, generic) and each seed the
script runs the full pipeline of classify_group -- the generators' traces, the
null spaces of the intertwiner systems, the conjugator of their shape
certified at the generators, and the reduced-word trace scan when no
conjugator is certified -- and prints the verdict plus the numerical
certificate.

Usage:
    python3 scripts/run_demo.py --seeds 5 --max-word-len 4
"""

import argparse
import json
import math
import sys
import time

from su31cert import classify_group
from su31cert.config import AnalysisConfig
from su31cert.corpus import CORPUS_KINDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1 per kind")
    parser.add_argument("--max-word-len", type=int, default=AnalysisConfig.max_word_length)
    parser.add_argument("--json", action="store_true", help="emit one JSON report per line")
    args = parser.parse_args(argv)

    cfg = AnalysisConfig(max_word_length=args.max_word_len)
    for kind, make in CORPUS_KINDS.items():
        for seed in range(args.seeds):
            start = time.time()
            result = classify_group(make(seed), config=cfg)
            elapsed = time.time() - start
            if args.json:
                print(json.dumps(result.to_json()))
            else:
                extra = (
                    f"reason={result.reason}"
                    if math.isnan(result.certificate)
                    else f"certificate={result.certificate:.3e}"
                )
                print(
                    f"{kind:>12} seed={seed:<3} verdict={result.verdict:<20}"
                    f" {extra}  ({elapsed:.2f}s)"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
