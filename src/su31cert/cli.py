"""Command-line front end.

Subcommands: classify, element, cartan, trace, identities, gen-corpus.
Matrix/vector JSON uses [re, im] number pairs; reports are byte-deterministic
for fixed input and flags.  Exit codes: 0 for a definite verdict,
2 for Inconclusive, 1 for input errors.  CHK_LOG=debug|info enables logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import AnalysisConfig
from .hermitian import (
    GroupElement,
    NotInGroup,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    BoundaryPoint,
    verify_inverse_identities,
)
from .cartan import BoundaryTriple, DegenerateTriple, cartan_invariant, triple_geometry
from .elements import (
    LOXODROMIC,
    NotLoxodromic,
    NotRealTrace,
    classify,
    normalize_loxodromic,
)
from .engine import INCONCLUSIVE, classify_group
from .tracefield import trace_reality_report
from . import corpus

log = logging.getLogger("su31cert")


class InputError(Exception):
    pass


def _setup_logging():
    level = os.environ.get("CHK_LOG", "").lower()
    if level in ("debug", "info", "warning", "error"):
        logging.basicConfig(level=getattr(logging, level.upper()))


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_generators(path: str, tol_form: float):
    data = _load_json(path)
    if not isinstance(data, list) or not data:
        raise InputError("generators file must be a nonempty JSON array of matrices")
    gens = []
    for idx, item in enumerate(data):
        try:
            m = matrix_from_json(item)
        except ValueError as exc:
            raise InputError(f"generator {idx}: {exc}") from exc
        try:
            gens.append(GroupElement.certify(m, tol=tol_form))
        except NotInGroup as exc:
            raise InputError(
                f"generator {idx} fails the membership certificate: "
                f"residual {exc.residual:.3e} > {tol_form:.1e}"
            ) from exc
    return gens


def cmd_classify(args) -> int:
    cfg = AnalysisConfig(
        max_word_length=args.max_word_len,
        tol_real=args.tol_real,
        tol_corner=args.tol_corner,
        budget=args.budget,
    )
    gens = _load_generators(args.generators, cfg.tol_form)
    result = classify_group(gens, config=cfg)
    _emit(result.to_json(cfg), args.out)
    return 2 if result.verdict == INCONCLUSIVE else 0


def cmd_element(args) -> int:
    data = _load_json(args.matrix)
    try:
        m = matrix_from_json(data)
        g = GroupElement.certify(m, tol=1e-8)
    except (ValueError, NotInGroup) as exc:
        raise InputError(str(exc)) from exc
    kind = classify(g)
    payload = {"type": kind.tag}
    if kind.tag == LOXODROMIC:
        try:
            nf = normalize_loxodromic(g)
            payload["u"] = nf.u
            payload["theta"] = nf.theta
            payload["conjugator"] = matrix_to_json(nf.conjugator.entries)
        except (NotRealTrace, NotLoxodromic) as exc:
            payload["normal_form_error"] = str(exc)
    _emit(payload, args.out)
    return 0


def cmd_cartan(args) -> int:
    data = _load_json(args.vectors)
    if not isinstance(data, list) or len(data) != 3:
        raise InputError("expected a JSON array of three vectors")
    try:
        points = [BoundaryPoint.from_vector(vector_from_json(v)) for v in data]
        triple = BoundaryTriple(*points)
        inv = cartan_invariant(triple)
        geom = triple_geometry(triple)
    except (ValueError, DegenerateTriple) as exc:
        raise InputError(f"degenerate triple: {exc}") from exc
    _emit({"invariant": inv, "geometry": geom}, args.out)
    return 0


def cmd_trace(args) -> int:
    gens = _load_generators(args.generators, AnalysisConfig.tol_form)
    report = trace_reality_report(gens, args.max_word_len, args.tol_real, args.budget)
    _emit(report.to_json(), args.out)
    return 0


def cmd_identities(args) -> int:
    data = _load_json(args.matrix)
    try:
        m = matrix_from_json(data)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    residuals = verify_inverse_identities(m)
    _emit({"residuals": [{"identity": n, "residual": r} for n, r in residuals]}, args.out)
    return 0


def cmd_gen_corpus(args) -> int:
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for i in range(args.count):
        seed = args.seed + i
        gens = corpus.make_corpus(args.kind, seed)
        path = out_dir / f"{args.kind}_{seed}.json"
        payload = [matrix_to_json(g.entries) for g in gens]
        path.write_text(json.dumps(payload, indent=2) + "\n")
        written.append(str(path))
    print(json.dumps({"files": written}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su31cert",
        description="Certify real-trace SU(3,1) matrix groups and build "
        "conjugators into SO(3,1) or SU(1,1)xSU(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    scan = argparse.ArgumentParser(add_help=False, parents=[out])  # classify and trace
    scan.add_argument("--generators", required=True)
    scan.add_argument("--max-word-len", type=int, default=AnalysisConfig.max_word_length)
    scan.add_argument("--tol-real", type=float, default=AnalysisConfig.tol_real)
    scan.add_argument("--budget", type=int, default=AnalysisConfig.budget)

    p = sub.add_parser("classify", parents=[scan], help="run the full group pipeline")
    p.add_argument("--tol-corner", type=float, default=AnalysisConfig.tol_corner)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("element", parents=[out], help="classify a single matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_element)

    p = sub.add_parser("cartan", parents=[out], help="Cartan invariant of a boundary triple")
    p.add_argument("--vectors", required=True)
    p.set_defaults(func=cmd_cartan)

    p = sub.add_parser("trace", parents=[scan], help="trace-reality scan of the generated group")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("identities", parents=[out], help="the 20 inverse identities of a matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("gen-corpus", help="emit seeded generator files with known ground truth")
    p.add_argument("--kind", required=True, choices=sorted(corpus.CORPUS_KINDS))
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output directory (default: the current one)")
    p.set_defaults(func=cmd_gen_corpus)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
