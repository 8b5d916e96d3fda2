"""Self-tests of the benchmark's output checks: each must reject a wrong answer.

    python3 perfbench/selftest.py

Runs the program on small inputs, confirms that every check accepts the true
answers, then feeds each check a deliberately wrong answer (a perturbed
conjugator, a word that is not a witness, a swapped verdict, a wrong (u, theta),
a wrong tag, a wrong Cartan invariant and a changed CLI stdout) and confirms
that it is rejected.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from su31cert import corpus, elements, engine  # noqa: E402
from su31cert.hermitian import matrix_to_json  # noqa: E402

LENGTH = 3
failures = []


def expect(label: str, problems: list, wrong: bool):
    """``wrong`` answers must give problems; true answers must give none."""
    ok = bool(problems) == wrong
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problems[:2] if problems else 'accepted'}")
    if not ok:
        failures.append(label)


def group_cases():
    rng = np.random.default_rng(0)
    results = {}
    for kind in ("real_form", "product_form", "generic"):
        gens = [g.entries for g in corpus.make_corpus(kind, 0)]
        r = engine.classify_group(corpus.make_corpus(kind, 0), LENGTH)
        d = r.conjugator.entries if r.conjugator is not None else None
        results[kind] = (gens, r.verdict, d, r.witness)
        expect(f"true {kind} verdict", checks.group_problems(kind, gens, r.verdict, d, r.witness, 1e-8), False)

    for kind in ("real_form", "product_form"):
        gens, verdict, d, _ = results[kind]
        noise = 1e-4 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        expect(f"perturbed {kind} conjugator",
               checks.group_problems(kind, gens, verdict, d + noise, None, 1e-8), True)
        expect(f"{kind} conjugator checked against generators it does not fit",
               checks.group_problems(kind, results["generic"][0], verdict, d, None, 1e-8), True)

    real_gens, _, real_d, _ = results["real_form"]
    prod_gens, _, prod_d, _ = results["product_form"]
    expect("swapped verdict: real_form group reported compact_product_form",
           checks.group_problems("real_form", real_gens, "compact_product_form", real_d, None, 1e-8), True)
    expect("real_form conjugator offered as a block conjugator",
           checks.group_problems("product_form", real_gens, "compact_product_form", real_d, None, 1e-8), True)
    expect("block conjugator offered as a real_form conjugator",
           checks.group_problems("real_form", prod_gens, "real_form", prod_d, None, 1e-8), True)
    expect("word that is not a witness (real trace)",
           checks.group_problems("generic", real_gens, "not_real_trace", None, (1, 2), 1e-8), True)
    gen_gens, verdict, _, witness = results["generic"]
    expect("swapped verdict: generic group reported real_form",
           checks.group_problems("generic", gen_gens, "real_form", real_d, witness, 1e-8), True)


def spectral_cases():
    wl = workloads.SpectralL5.__new__(workloads.SpectralL5)
    for kind in ("real_form", "product_form"):
        items = [i for i in wl.corpus_items(kind, 2, corpus.make_corpus(kind, 2)) if i.triple is not None]
        item = items[len(items) // 2]
        tag, nf, invariant = wl.run_part(item)
        w = item.word.entries
        expect(f"true {kind} spectral output", wl.problems([([item], [(tag, nf, invariant)])]), False)
        c = nf.conjugator.entries
        expect(f"{kind}: wrong u", checks.normal_form_problems(w, 1.01 * nf.u, nf.theta, c), True)
        expect(f"{kind}: wrong theta", checks.normal_form_problems(w, nf.u, nf.theta + 0.01, c), True)
        expect(f"{kind}: u and 1/u swapped", checks.normal_form_problems(w, 1.0 / nf.u, nf.theta, c), True)
        expect(f"{kind}: loxodromic tagged elliptic", checks.tag_problems(w, elements.ELLIPTIC), True)
        expect(f"{kind}: Cartan invariant of the other kind",
               checks.cartan_problems(kind, np.pi / 2 - invariant if kind == "real_form" else 0.0), True)
    elliptic = np.diag([1j, -1j, 1j, -1j]).astype(complex)
    expect("elliptic tagged loxodromic", checks.tag_problems(elliptic, elements.LOXODROMIC), True)


def cli_cases():
    gens = corpus.make_corpus("real_form", 0)
    r = engine.classify_group(gens, LENGTH, None)
    out = (json.dumps(r.to_json(), indent=2, sort_keys=True) + "\n").encode()
    mats = [g.entries for g in gens]
    expect("true CLI output", checks.cli_problems("real_form", mats, [(0, out), (0, out)]), False)
    expect("CLI stdout that changes between calls",
           checks.cli_problems("real_form", mats, [(0, out), (0, out.replace(b"real_form", b"real_form "))]), True)
    expect("CLI exit code 2", checks.cli_problems("real_form", mats, [(2, out), (2, out)]), True)
    report = r.to_json()
    report["conjugator"] = matrix_to_json(r.conjugator.entries + 1e-4)
    bad = json.dumps(report).encode()
    expect("CLI report with a perturbed conjugator", checks.cli_problems("real_form", mats, [(0, bad)]), True)


def main() -> int:
    group_cases()
    spectral_cases()
    cli_cases()
    print(f"{len(failures)} expectation(s) failed" if failures else "all checks reject wrong answers")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
