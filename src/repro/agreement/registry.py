"""Name-based registry of agreement algorithms."""

from __future__ import annotations

from typing import Callable, Dict

from repro.agreement.algorithms import (
    HyperboxGeometricMedianAgreement,
    HyperboxMeanAgreement,
    MinimumDiameterGeometricMedianAgreement,
    MinimumDiameterMeanAgreement,
    SimpleGeometricMedianAgreement,
    SimpleMeanAgreement,
    TrimmedMeanAgreement,
)
from repro.agreement.base import AgreementAlgorithm
from repro.agreement.safe_area import SafeAreaAgreement

_FACTORIES: Dict[str, Callable[..., AgreementAlgorithm]] = {
    "box-geom": HyperboxGeometricMedianAgreement,
    "box-mean": HyperboxMeanAgreement,
    "md-geom": MinimumDiameterGeometricMedianAgreement,
    "md-mean": MinimumDiameterMeanAgreement,
    "trimmed-mean": TrimmedMeanAgreement,
    "safe-area": SafeAreaAgreement,
    "mean": SimpleMeanAgreement,
    "geomedian": SimpleGeometricMedianAgreement,
}


def available_algorithms() -> list[str]:
    """Sorted names of the registered agreement algorithms."""
    return sorted(_FACTORIES)


def algorithm_class(name: str) -> Callable[..., AgreementAlgorithm]:
    """The algorithm class registered under ``name`` (case-insensitive)."""
    key = name.strip().lower()
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown agreement algorithm {name!r}; available: {available_algorithms()}"
        )
    return _FACTORIES[key]


def make_algorithm(name: str, n: int, t: int, **kwargs) -> AgreementAlgorithm:
    """Instantiate the agreement algorithm registered under ``name``."""
    return algorithm_class(name)(n, t, **kwargs)
