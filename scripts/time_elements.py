#!/usr/bin/env python3
"""Median cost of one enumerated word, of one element call and of one group classification.

enumerate_words is timed per word: one full enumeration up to L of corpus 0 of
each kind, divided by its word count, with the median over kinds and passes.
eigen_solve and classify are timed on every word up to L of corpus 0 of each
kind, and normalize_loxodromic on the real-trace loxodromic words among them
(the words of the spectral_L5 benchmark at L=5).  classify_group is timed on
corpora 0-9 of each kind at the lengths of the certify_L7 and reject_L8
benchmarks (7, and 8 for generic).  Each call is timed alone with
time.perf_counter over --passes passes; a call that raises counts its time.

Usage:
    python3 scripts/time_elements.py --length 5 --passes 3
"""

import argparse
import statistics
import sys
import time

from su31cert import corpus, elements, engine, tracefield
from su31cert.config import AnalysisConfig

GROUP_LENGTHS = {"real_form": 7, "product_form": 7, "generic": 8}
GROUP_SEEDS = range(10)


def median_ms(fn, words, passes: int) -> float:
    times = []
    for _ in range(passes):
        for w in words:
            start = time.perf_counter()
            try:
                fn(w)
            except (ValueError, RuntimeError):  # NotInGroup, IllConditioned, ...
                pass
            times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def enumeration_ms_per_word(corpora, length: int, passes: int) -> float:
    times = []
    for _ in range(passes):
        for gens in corpora:
            start = time.perf_counter()
            count = sum(1 for _ in tracefield.enumerate_words(gens, length))
            times.append((time.perf_counter() - start) / count)
    return 1e3 * statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=5)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)

    corpora = {kind: corpus.make_corpus(kind, 0) for kind in ("real_form", "product_form", "generic")}
    words, real_trace = [], []
    for kind, gens in corpora.items():
        for w in tracefield.enumerate_words(gens, args.length):
            words.append(w)
            if kind != "generic" and elements.classify(w).tag == elements.LOXODROMIC:
                real_trace.append(w)
    ms = enumeration_ms_per_word(corpora.values(), args.length, args.passes)
    print(f"{'enumerate_words':<21} {ms:.4f} ms per word  ({len(words)} words)")
    rows = (("eigen_solve", words), ("classify", words), ("normalize_loxodromic", real_trace))
    for name, sample in rows:
        ms = median_ms(getattr(elements, name), sample, args.passes)
        print(f"{name:<21} {ms:.3f} ms  ({len(sample)} words)")
    groups = {kind: [corpus.make_corpus(kind, s) for s in GROUP_SEEDS] for kind in GROUP_LENGTHS}
    for kind, length in GROUP_LENGTHS.items():
        config = AnalysisConfig(max_word_length=length)

        def classify_group(gens):
            return engine.classify_group(gens, config=config)

        ms = median_ms(classify_group, groups[kind], args.passes)
        print(f"{'classify_group':<21} {ms:.3f} ms  ({kind}, L={length}, corpora 0-9)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
