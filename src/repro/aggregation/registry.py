"""Name-based registry of aggregation rules.

Benchmarks, examples and experiment configs refer to aggregation rules
by string name (``"box-geom"``, ``"md-mean"`` ...); the registry maps
those names to constructors so configurations stay serialisable.
"""

from __future__ import annotations

from typing import Callable, Dict, Type

from repro.aggregation.base import AggregationRule
from repro.aggregation.geometric_median import GeometricMedian
from repro.aggregation.hyperbox_rules import HyperboxGeometricMedian, HyperboxMean
from repro.aggregation.krum import Krum, MultiKrum
from repro.aggregation.mda import MinimumDiameterGeometricMedian, MinimumDiameterMean
from repro.aggregation.mean import CoordinatewiseMedian, Mean, TrimmedMean
from repro.aggregation.medoid import Medoid

_REGISTRY: Dict[str, Type[AggregationRule]] = {}


def register_rule(name: str, cls: Type[AggregationRule], *, overwrite: bool = False) -> None:
    """Register an aggregation rule class under ``name``."""
    key = name.strip().lower()
    if not key:
        raise ValueError("rule name must be non-empty")
    if not overwrite and key in _REGISTRY:
        raise ValueError(f"aggregation rule {key!r} is already registered")
    _REGISTRY[key] = cls


def available_rules() -> list[str]:
    """Sorted list of registered rule names."""
    return sorted(_REGISTRY)


def rule_class(name: str) -> Type[AggregationRule]:
    """The rule class registered under ``name`` (case-insensitive)."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown aggregation rule {name!r}; available: {available_rules()}"
        )
    return _REGISTRY[key]


def make_rule(name: str, n: int | None = None, t: int = 0, **kwargs) -> AggregationRule:
    """Instantiate the rule registered under ``name``.

    Extra keyword arguments are forwarded to the rule constructor
    (e.g. ``q=3`` for Multi-Krum or ``max_subsets`` for the subset-search
    rules).
    """
    return rule_class(name)(n=n, t=t, **kwargs)


for _name, _cls in [
    ("mean", Mean),
    ("cw-median", CoordinatewiseMedian),
    ("trimmed-mean", TrimmedMean),
    ("geomedian", GeometricMedian),
    ("medoid", Medoid),
    ("krum", Krum),
    ("multi-krum", MultiKrum),
    ("md-mean", MinimumDiameterMean),
    ("md-geom", MinimumDiameterGeometricMedian),
    ("box-mean", HyperboxMean),
    ("box-geom", HyperboxGeometricMedian),
]:
    register_rule(_name, _cls)
