"""Output checks that use plain numpy and none of the program's functions.

Each check returns a list of problems; an empty list means the output passed.
Inverses come from ``np.linalg.inv`` and spectra from ``np.linalg.eigvals``,
so a fault in the program's own inverse, eigen-solver or residual code cannot
also hide in the check.
"""

from __future__ import annotations

import json

import numpy as np

# The Hermitian form of signature (3,1) with the antidiagonal corner, as in the paper.
J = np.array([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]], dtype=complex)
SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
CORNER = [0, 3]
MIDDLE = [1, 2]

# Relative tolerances of the checks.  Each sits at least 100x above the largest
# value seen on correct outputs of the benchmark's inputs and far below what a
# wrong answer gives (selftest.py).
TOL_GROUP = 1e-9  # conjugator membership and conjugated-generator shape
TOL_SPECTRAL = 1e-6  # normal form: C in SU(3,1) and C^-1 w C = diag(u, e^it, e^-it, 1/u)
TOL_MODULUS = 1e-6  # |lambda| = 1 band for the loxodromic tag
TOL_CARTAN = 1e-6  # Cartan invariant against 0 or pi/2
# Set-up only: |<v, w>| / (|v| |w|) below this means two boundary points coincide.
TOL_COINCIDENT = 1e-6

EXPECTED_VERDICT = {
    "real_form": "real_form",
    "product_form": "compact_product_form",
    "generic": "not_real_trace",
}


def _max(m) -> float:
    return float(np.max(np.abs(m)))


def word_matrix(gens, word) -> np.ndarray:
    """Product of the letters of ``word`` (signed 1-based indices) in the generators."""
    out = np.eye(4, dtype=complex)
    for letter in word:
        g = gens[abs(letter) - 1]
        out = out @ (g if letter > 0 else np.linalg.inv(g))
    return out


def conjugator_problems(d, tol) -> list:
    """D* J D = J and det D = 1, relative to the size of D."""
    d = np.asarray(d, dtype=complex)
    scale = max(1.0, _max(d)) ** 2
    problems = []
    form = _max(d.conj().T @ J @ d - J)
    if form > tol * scale:
        problems.append(f"D*JD - J = {form:.3e}")
    det = abs(np.linalg.det(d) - 1.0)
    if det > tol * scale**2:
        problems.append(f"det D - 1 = {det:.3e}")
    return problems


def _real_problems(m) -> list:
    im = _max(m.imag)
    if im > TOL_GROUP * max(1.0, _max(m)):
        return [f"Im entry {im:.3e}"]
    return []


def _block_problems(m) -> list:
    scale = max(1.0, _max(m))
    off = max(abs(m[i, j]) for i in range(4) for j in range(4) if (i in CORNER) != (j in CORNER))
    corner = m[np.ix_(CORNER, CORNER)]
    middle = m[np.ix_(MIDDLE, MIDDLE)]
    devs = {
        "off-block entry": off,
        "corner not SU(1,1)": max(
            _max(corner.conj().T @ SWAP @ corner - SWAP), abs(np.linalg.det(corner) - 1.0)
        ),
        "middle not SU(2)": max(
            _max(middle.conj().T @ middle - np.eye(2)), abs(np.linalg.det(middle) - 1.0)
        ),
    }
    return [f"{name} {v:.3e}" for name, v in devs.items() if v > TOL_GROUP * scale**2]


def group_problems(kind, gens, verdict, conjugator, witness, tol_real) -> list:
    """Checks of one ``classify_group`` verdict on generators built from corpus ``kind``.

    A positive verdict needs a conjugator D in SU(3,1) with D g D^-1 real (real_form)
    or block SU(1,1)xSU(2) (compact_product_form) for every generator g and g^-1.
    A not_real_trace verdict needs a witness word whose trace, multiplied out here,
    has imaginary part above ``tol_real``.
    """
    problems = []
    if verdict != EXPECTED_VERDICT[kind]:
        problems.append(f"verdict {verdict!r} on a {kind} group")
    if verdict in ("real_form", "compact_product_form"):
        if conjugator is None:
            return problems + ["positive verdict without a conjugator"]
        d = np.asarray(conjugator, dtype=complex)
        problems += conjugator_problems(d, TOL_GROUP)
        d_inv = np.linalg.inv(d)
        shape = _real_problems if verdict == "real_form" else _block_problems
        for g in gens:
            for h in (g, np.linalg.inv(g)):
                problems += shape(d @ h @ d_inv)
    elif verdict == "not_real_trace":
        if not witness:
            return problems + ["not_real_trace without a witness word"]
        im = abs(np.trace(word_matrix(gens, witness)).imag)
        if im <= tol_real:
            problems.append(f"witness {list(witness)} has |Im tr| = {im:.3e} <= {tol_real:.1e}")
    return problems


def is_loxodromic(w) -> bool:
    """Loxodromic iff some eigenvalue lies off the unit circle, from np.linalg.eigvals."""
    return float(np.max(np.abs(np.linalg.eigvals(w)))) > 1.0 + TOL_MODULUS


def tag_problems(w, tag) -> list:
    moduli = np.abs(np.linalg.eigvals(w))
    off_circle = float(np.max(np.abs(moduli - 1.0)))
    if (tag == "loxodromic") != (off_circle > TOL_MODULUS):
        return [f"tag {tag!r} with eigenvalue moduli {np.round(moduli, 9).tolist()}"]
    return []


def normal_form_problems(w, u, theta, c) -> list:
    """C^-1 w C = diag(u, e^{i theta}, e^{-i theta}, 1/u) and u + 1/u + 2 cos theta = tr w."""
    w = np.asarray(w, dtype=complex)
    c = np.asarray(c, dtype=complex)
    scale = max(1.0, _max(w))
    problems = conjugator_problems(c, TOL_SPECTRAL)
    diag = np.diag([u, np.exp(1j * theta), np.exp(-1j * theta), 1.0 / u])
    dev = _max(np.linalg.inv(c) @ w @ c - diag)
    if dev > TOL_SPECTRAL * scale:
        problems.append(f"C^-1 w C - diag(u, e^it, e^-it, 1/u) = {dev:.3e}")
    tr_dev = abs(u + 1.0 / u + 2.0 * np.cos(theta) - np.trace(w))
    if tr_dev > TOL_SPECTRAL * scale:
        problems.append(f"u + 1/u + 2cos(theta) - tr w = {tr_dev:.3e}")
    return problems


def fixed_points(w):
    """Attracting and repelling eigenvectors of a loxodromic w, from np.linalg.eig."""
    vals, vecs = np.linalg.eig(w)
    order = np.argsort(np.abs(vals))
    return vecs[:, order[-1]], vecs[:, order[0]]


def _pairing(v, w) -> complex:
    return complex(np.conj(w) @ J @ v)


def coincident(v, w) -> bool:
    return abs(_pairing(v, w)) <= TOL_COINCIDENT * np.linalg.norm(v) * np.linalg.norm(w)


def cartan_problems(kind, invariant) -> list:
    """0 on fixed points of a real_form group, +-pi/2 on those of a product_form group."""
    target = 0.0 if kind == "real_form" else np.pi / 2
    dev = abs(abs(invariant) - target)
    if dev > TOL_CARTAN:
        return [f"Cartan invariant {invariant:.9f} on a {kind} triple"]
    return []


def cli_problems(kind, gens, calls) -> list:
    """Exit code 0, the right verdict, valid certificate and identical stdout on every call.

    ``calls`` is a list of (exit code, stdout bytes) for one generator file.
    """
    problems = []
    for code, out in calls:
        if code != 0:
            problems.append(f"exit code {code}")
    if len({out for _, out in calls}) != 1:
        problems.append("stdout differs between calls on the same file")
    try:
        report = json.loads(calls[0][1])
    except ValueError as exc:
        return problems + [f"stdout is not JSON: {exc}"]
    conj = report.get("conjugator")
    if conj is not None:
        conj = np.array([[complex(re, im) for re, im in row] for row in conj])
    tol_real = report.get("config", {}).get("tol_real", 1e-8)
    return problems + group_problems(
        kind, gens, report.get("verdict"), conj, report.get("witness_word"), tol_real
    )
