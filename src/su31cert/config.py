"""Shared analysis configuration; its class attributes are the package's only defaults."""

from __future__ import annotations

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class AnalysisConfig:
    max_word_length: int = 4
    tol_form: float = 1e-9      # SU(3,1) membership certificate
    tol_real: float = 1e-8      # |Im tr| threshold of a witness; scales the certificate bound
    tol_corner: float = 1e-6    # relative structural-zero threshold on d*q
    tol_rel: float = 1e-6       # real-vs-imaginary branch discrimination
    tol_spec: float = 1e-7      # unit-modulus band for the element classifier
    budget: int = 10**6

    def __post_init__(self):
        if self.max_word_length < 1:
            raise ValueError("max_word_length must be >= 1")
        for name in ("tol_form", "tol_real", "tol_corner", "tol_rel", "tol_spec"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.budget < 1:
            raise ValueError("budget must be positive")

    def to_json(self) -> dict:
        return asdict(self)

