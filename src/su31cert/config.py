"""Shared analysis configuration: the word length, tolerances and budget the pipeline reads."""

from __future__ import annotations

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class AnalysisConfig:
    max_word_length: int = 4
    tol_form: float = 1e-9      # SU(3,1) membership certificate
    tol_real: float = 1e-8      # |Im tr| threshold of a witness; scales the certificate bound
    budget: int = 10**6

    def __post_init__(self):
        if self.max_word_length < 1:
            raise ValueError("max_word_length must be >= 1")
        for name in ("tol_form", "tol_real"):
            if not 0 < getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be positive and finite")
        if self.budget < 1:
            raise ValueError("budget must be positive")

    def to_json(self) -> dict:
        return asdict(self)

