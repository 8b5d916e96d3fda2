"""Linear algebra over C^{3,1} with the antidiagonal-cornered Hermitian form.

The ambient form is given by the real symmetric matrix J below;
``herm_inner(z, w) = w* J z`` (linear in ``z``, conjugate-linear in ``w``).
Everything downstream (element classification, the Cartan invariant, the
conjugation engine) works relative to this fixed J.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AnalysisConfig

J = np.array(
    [
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 0],
    ],
    dtype=complex,
)


class NotInGroup(ValueError):
    """Matrix failed the SU(3,1) membership certificate."""

    def __init__(self, residual, tol, message=None):
        self.residual = residual
        self.tol = tol
        super().__init__(
            message or f"membership residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )


def as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(4)
    if not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
        raise ValueError("vector has non-finite entries")
    return v


def as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix has non-finite entries")
    return m


def herm_inner(z, w) -> complex:
    """<z, w> = w* J z = z1 conj(w4) + z2 conj(w2) + z3 conj(w3) + z4 conj(w1)."""
    z = as_vector(z)
    w = as_vector(w)
    return complex(np.conj(w) @ (J @ z))


def norm_max(m) -> float:
    return float(np.max(np.abs(m)))


def su31_residual(m) -> float:
    """max of the form-preservation and unit-determinant deviations."""
    m = as_matrix(m)
    form_dev = norm_max(m.conj().T @ J @ m - J)
    det_dev = abs(np.linalg.det(m) - 1.0)
    return max(form_dev, det_dev)


def is_su31(m, tol: float = AnalysisConfig.tol_form):
    """Return (member?, residual) for the SU(3,1) certificate at ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    r = su31_residual(m)
    return r <= tol, r


def su31_inverse(m) -> np.ndarray:
    """Inverse of a J-isometry: M^{-1} = J M* J (exact up to the certificate)."""
    m = as_matrix(m)
    return J @ m.conj().T @ J


@dataclass(frozen=True)
class GroupElement:
    """A certified SU(3,1) matrix together with its word in the generators.

    ``word`` is a tuple of signed 1-based generator indices (+i for g_i,
    -i for g_i^{-1}); the empty tuple marks a generator or ad-hoc element.
    """

    entries: np.ndarray
    word: tuple = ()
    membership_residual: float = 0.0

    @classmethod
    def certify(cls, m, word: tuple = (), tol: float = AnalysisConfig.tol_form) -> "GroupElement":
        m = as_matrix(m).copy()
        m.flags.writeable = False
        r = su31_residual(m)
        if r > tol:
            raise NotInGroup(r, tol)
        return cls(m, tuple(word), r)

    def inverse(self) -> "GroupElement":
        inv = su31_inverse(self.entries)
        inv.flags.writeable = False
        return GroupElement(inv, tuple(-i for i in reversed(self.word)),
                            su31_residual(inv))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        prod = self.entries @ other.entries
        prod.flags.writeable = False
        return GroupElement(prod, self.word + other.word, su31_residual(prod))

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.entries))


def matrix_of(a) -> np.ndarray:
    return a.entries if isinstance(a, GroupElement) else as_matrix(a)


def identity_element() -> GroupElement:
    return GroupElement.certify(np.eye(4, dtype=complex))


@dataclass(frozen=True)
class BoundaryPoint:
    """Projective class of a J-null vector, lift scaled so its largest entry is 1."""

    lift: np.ndarray

    @classmethod
    def from_vector(cls, v, tol_null: float = 1e-7) -> "BoundaryPoint":
        v = as_vector(v)
        nrm2 = float(np.vdot(v, v).real)
        if nrm2 == 0.0:
            raise ValueError("zero vector does not define a boundary point")
        if abs(herm_inner(v, v)) > tol_null * nrm2:
            raise ValueError(
                f"vector is not J-null: |<v,v>| = {abs(herm_inner(v, v)):.3e}"
            )
        k = int(np.argmax(np.abs(v)))
        lift = v / v[k]
        lift.flags.writeable = False
        return cls(lift)

    def proportional_to(self, other: "BoundaryPoint", tol: float = 1e-9) -> bool:
        return proportionality_residual(self.lift, other.lift) <= tol


def proportionality_residual(v, w) -> float:
    """max |v_i w_j - v_j w_i| over pairs, scaled by the vector norms."""
    v = as_vector(v)
    w = as_vector(w)
    vw = np.outer(v, w)
    cross = vw - vw.T  # entries v_i w_j - v_j w_i
    scale = float(np.linalg.norm(v) * np.linalg.norm(w))
    if scale == 0.0:
        return 0.0
    return norm_max(cross) / scale


@dataclass(frozen=True)
class HorosphericalPoint:
    """Siegel-domain coordinates (z, u, v): z in C^2, u real, v >= 0 (v=0 on the boundary)."""

    z: np.ndarray
    u: float
    v: float = 0.0

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex).reshape(2)
        z.flags.writeable = False
        object.__setattr__(self, "z", z)
        if self.v < 0:
            raise ValueError("v must be nonnegative")


def siegel_embed(p: HorosphericalPoint) -> np.ndarray:
    """psi(z,u,v) = (-<<z,z>> - v + iu, sqrt(2) z1, sqrt(2) z2, 1)^t.

    Satisfies <psi(p), psi(p)> = -2v.
    """
    zz = float(np.vdot(p.z, p.z).real)
    return np.array(
        [-zz - p.v + 1j * p.u, np.sqrt(2) * p.z[0], np.sqrt(2) * p.z[1], 1.0],
        dtype=complex,
    )


def siegel_infinity() -> BoundaryPoint:
    return BoundaryPoint.from_vector([1, 0, 0, 0])


def siegel_origin() -> BoundaryPoint:
    return BoundaryPoint.from_vector([0, 0, 0, 1])


def heisenberg_mul(p, q):
    """Heisenberg group law on C^2 x R.

    (z,u)(z',u') = (z+z', u+u' + 2 Im<<z, z'>>) with <<a,b>> = sum a_i conj(b_i),
    the antisymmetric cocycle (so the group is nonabelian, neutral (0,0),
    inverse (-z,-u)).
    """
    z, u = p
    z2, u2 = q
    z = np.asarray(z, dtype=complex).reshape(2)
    z2 = np.asarray(z2, dtype=complex).reshape(2)
    twist = 2.0 * float(np.sum(z * np.conj(z2)).imag)
    return z + z2, float(u) + float(u2) + twist


def heisenberg_inverse(p):
    z, u = p
    return -np.asarray(z, dtype=complex).reshape(2), -float(u)


# entry symbols of a general SU(3,1) matrix, row by row
_LETTERS = ("abcd", "efgh", "lmnp", "qrst")


def matrix_entries(m) -> dict:
    m = matrix_of(m)
    return {x: complex(m[i, j]) for i, row in enumerate(_LETTERS) for j, x in enumerate(row)}


# J swaps e1 and e4: (J M* J)[k, j] = conj(M[S(j), S(k)]).  Both products P of M
# and J M* J have P[i, j] = conj(P[S(j), S(i)]), so the entries with S(j) >= i suffice.
_S = (3, 1, 2, 0)
_IDENTITY_POSITIONS = [(i, j) for i in range(4) for j in range(4) if _S[j] >= i]


def _identity_names(term: str, letters) -> list:
    """One name per position; ``letters(i, j, k)`` gives the (x, y) of the k-th term."""
    names = []
    for i, j in _IDENTITY_POSITIONS:
        pairs = [letters(i, j, k) for k in range(4)]
        terms = (f"|{x}|^2" if x == y else term.format(x, y) for x, y in pairs)
        names.append("+".join(terms) + f"={int(i == j)}")
    return names


_IDENTITY_NAMES = _identity_names(
    "{}*conj({})", lambda i, j, k: (_LETTERS[i][k], _LETTERS[_S[j]][_S[k]])
) + _identity_names("conj({}){}", lambda i, j, k: (_LETTERS[_S[k]][_S[i]], _LETTERS[k][j]))


def verify_inverse_identities(b):
    """The 20 entrywise identities equivalent to B B^{-1} = B^{-1} B = I.

    Returns a list of (name, residual) in a fixed order; every residual is
    |LHS - RHS| and vanishes for a genuine member.
    """
    m = matrix_of(b)
    inv = su31_inverse(m)
    residuals = [
        abs(product[p]) for product in (m @ inv - np.eye(4), inv @ m - np.eye(4))
        for p in _IDENTITY_POSITIONS
    ]
    return [(name, float(r)) for name, r in zip(_IDENTITY_NAMES, residuals)]


# ---------------------------------------------------------------------------
# shared JSON matrix/vector encoding: [re, im] number pairs, row-major
# ---------------------------------------------------------------------------

def complex_to_json(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m) -> list:
    m = as_matrix(m)
    return [[complex_to_json(m[i, j]) for j in range(4)] for i in range(4)]


def matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != (4, 4, 2):
        raise ValueError(f"matrix JSON must be 4x4 arrays of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def vector_to_json(v) -> list:
    v = as_vector(v)
    return [complex_to_json(z) for z in v]


def vector_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != (4, 2):
        raise ValueError(f"vector JSON must be 4 [re, im] pairs, got shape {arr.shape}")
    return arr[:, 0] + 1j * arr[:, 1]
