"""Declarative scenario grids.

The paper's figures are grids of experiments — setting × heterogeneity ×
attack × aggregation rule — but :class:`ExperimentConfig` describes one
cell at a time.  :class:`ScenarioGrid` expands a base configuration plus
a mapping of axis specs (``{"heterogeneity": ["uniform", "extreme"],
"aggregation": ["krum", "box-geom"]}``) into the full Cartesian product
of configurations, each with:

- a stable, human-readable **cell id** built from its axis values, and
- a **deterministic per-cell seed** derived from the base seed and the
  cell id via :func:`repro.utils.rng.stable_component_seed`, so cells
  are decorrelated from each other yet identical across runs, worker
  counts and resumes.

Grids are JSON-serialisable ("spec" files) so sweeps can be launched
from the command line: ``python -m repro.cli sweep spec.json``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.learning.experiment import ExperimentConfig
from repro.utils.rng import stable_component_seed
from repro.utils.validation import require

#: Field names an axis may vary (everything the config dataclass has).
CONFIG_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig)
)


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-safe dictionary form of a configuration (tuples become lists)."""
    data = dataclasses.asdict(config)
    data["mlp_hidden"] = list(data["mlp_hidden"])
    data["crash_schedule"] = [list(window) for window in data["crash_schedule"]]
    # Elide the node_trace flag at its default so serialised configs —
    # and the sweep rows embedding them — stay byte-identical to the
    # pre-flag format (row byte-identity is a pinned-fixture contract).
    if not data.get("node_trace"):
        data.pop("node_trace", None)
    # Same contract for the topology/exchange axes: a complete-topology
    # agreement config serialises exactly as it did before the fields
    # existed, so pinned sweep-row fixtures and resume files from older
    # runs stay byte-identical and loadable.
    if data.get("topology") == "complete":
        data.pop("topology", None)
        data.pop("topology_kwargs", None)
    elif not data.get("topology_kwargs"):
        data.pop("topology_kwargs", None)
    if data.get("exchange") == "agreement":
        data.pop("exchange", None)
    # And for the rng_mode axis: scalar is the bitwise default, so
    # scalar-mode configs serialise exactly as pre-axis ones.
    if data.get("rng_mode") == "scalar":
        data.pop("rng_mode", None)
    return data


def config_from_dict(data: Mapping[str, object]) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`; validates field names."""
    unknown = sorted(set(data) - set(CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"unknown ExperimentConfig fields: {unknown}")
    kwargs = dict(data)
    if "mlp_hidden" in kwargs:
        hidden = kwargs["mlp_hidden"]
        if isinstance(hidden, (str, bytes)) or not hasattr(hidden, "__iter__"):
            raise ValueError(
                f"mlp_hidden must be a sequence of layer sizes, got {hidden!r}"
            )
        kwargs["mlp_hidden"] = tuple(hidden)
    if "crash_schedule" in kwargs:
        schedule = kwargs["crash_schedule"]
        if isinstance(schedule, (str, bytes)) or not hasattr(schedule, "__iter__"):
            raise ValueError(
                f"crash_schedule must be a sequence of (node, start, stop) windows, "
                f"got {schedule!r}"
            )
        kwargs["crash_schedule"] = tuple(tuple(window) for window in schedule)
    return ExperimentConfig(**kwargs)  # type: ignore[arg-type]


def escape_axis_value(text: str) -> str:
    """Percent-encode the cell-id separators inside one axis value.

    Cell ids join ``name=value`` pairs with ``/``, so a value containing
    ``/`` or ``=`` (a fraction like ``"1/4"``, a dataset path, a kwargs
    dict) would otherwise produce an *ambiguous* id — aliasing derived
    per-cell seeds, lease keys and resume dedup.  Only the three
    characters that break parsing are touched (``%`` first, as the
    escape introducer), so every id that never needed escaping is
    byte-identical to the historical format.
    """
    return text.replace("%", "%25").replace("/", "%2F").replace("=", "%3D")


def unescape_axis_value(text: str) -> str:
    """Inverse of :func:`escape_axis_value` (``%25`` decoded last)."""
    return text.replace("%2F", "/").replace("%3D", "=").replace("%25", "%")


def parse_cell_id(cell_id: str) -> Dict[str, str]:
    """Split a cell id back into its ``{axis name: value string}`` pairs.

    Values come back *unescaped*, i.e. as :func:`_format_axis_value`
    rendered them before escaping.  Legacy ids whose values embed raw
    ``/`` or ``=`` cannot be parsed unambiguously — consumers should
    prefer a row's ``"axes"`` mapping and treat this as a fallback (see
    :func:`repro.analysis.reporting.sweep_summary_table`).
    """
    pairs: Dict[str, str] = {}
    for part in cell_id.split("/"):
        name, _, value = part.partition("=")
        pairs[unescape_axis_value(name)] = unescape_axis_value(value)
    return pairs


def _format_axis_value(value: object) -> str:
    """Render one axis value for a cell id (`None` means "no attack").

    Nested sequences (a ``crash_schedule`` axis value is a list of
    windows) join the inner level with ``-``: ``[[2, 0, 3]]`` becomes
    ``2-0-3``.  The rendered text is escaped via
    :func:`escape_axis_value` so the cell-id separators ``/`` and ``=``
    never leak out of a value.
    """
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        rendered = "x".join(
            "-".join(str(u) for u in v) if isinstance(v, (list, tuple)) else str(v)
            for v in value
        )
    else:
        rendered = str(value)
    return escape_axis_value(rendered)


@dataclass(frozen=True)
class SweepCell:
    """One cell of a scenario grid: a ready-to-run configuration.

    Attributes
    ----------
    index:
        Position in the grid's deterministic expansion order.
    cell_id:
        Stable identifier built from the axis values, used for resume
        bookkeeping and result joins.
    axes:
        The axis values this cell was expanded from.
    config:
        The fully materialised experiment configuration (per-cell seed
        already applied).
    """

    index: int
    cell_id: str
    axes: Dict[str, object]
    config: ExperimentConfig


class ScenarioGrid:
    """Cartesian product of axis specs over a base configuration.

    Parameters
    ----------
    base:
        Configuration every cell starts from.
    axes:
        Mapping from :class:`ExperimentConfig` field name to the
        sequence of values that axis takes.  Axis order (insertion
        order) fixes the expansion order: the last axis varies fastest,
        like :func:`itertools.product`.
    derive_seeds:
        With the default ``True``, each cell's seed is derived from the
        base seed and the cell id, decorrelating the cells.  Pass
        ``False`` for *paired* comparisons — every cell then keeps the
        base seed, so e.g. all aggregation rules of one figure panel
        train on identical data, partitions and initial weights.
        Ignored for the ``seed`` axis itself.
    """

    def __init__(
        self,
        base: ExperimentConfig,
        axes: Mapping[str, Sequence[object]],
        *,
        derive_seeds: bool = True,
    ) -> None:
        require(len(axes) > 0, "a scenario grid needs at least one axis")
        self.axes: Dict[str, List[object]] = {}
        for name, values in axes.items():
            require(name in CONFIG_FIELDS,
                    f"unknown axis {name!r}; valid axes: {sorted(CONFIG_FIELDS)}")
            if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
                raise ValueError(
                    f"axis {name!r} must be a sequence of values, got {values!r}"
                )
            seq = list(values)
            require(len(seq) > 0, f"axis {name!r} has no values")
            require(len(set(map(repr, seq))) == len(seq),
                    f"axis {name!r} contains duplicate values")
            self.axes[name] = seq
        self.base = base
        self.derive_seeds = bool(derive_seeds)

    def __len__(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def axis_names(self) -> List[str]:
        """Axis names in expansion order."""
        return list(self.axes)

    def cell_id(self, overrides: Mapping[str, object]) -> str:
        """Cell id for one combination of axis values."""
        return "/".join(
            f"{name}={_format_axis_value(overrides[name])}" for name in self.axes
        )

    def cells(self) -> List[SweepCell]:
        """Expand the grid into its deterministic list of cells.

        Unless ``seed`` is itself an axis (or ``derive_seeds`` is off),
        each cell's seed is derived from the base seed and the cell id,
        so results are reproducible but cells do not share random
        streams.
        """
        names = self.axis_names()
        cells: List[SweepCell] = []
        seen: Dict[str, tuple] = {}
        for index, combo in enumerate(product(*self.axes.values())):
            overrides = dict(zip(names, combo))
            cell_id = self.cell_id(overrides)
            # Collision guard: distinct combos must yield distinct ids.
            # Escaping removes separator ambiguity, but two values can
            # still *render* identically (e.g. the int 1 and the string
            # "1" on different axes); seeds, leases and resume all key
            # on the id, so aliasing would silently drop cells.
            if cell_id in seen:
                raise ValueError(
                    f"cell id collision: combos {seen[cell_id]!r} and "
                    f"{combo!r} both render as {cell_id!r}; make the axis "
                    f"values render distinctly"
                )
            seen[cell_id] = combo
            if self.derive_seeds and "seed" not in overrides:
                overrides["seed"] = stable_component_seed(
                    self.base.seed, "sweep-cell", cell_id
                )
            try:
                config = self.base.with_overrides(**overrides)
            except ValueError as exc:
                raise ValueError(f"cell {cell_id!r}: {exc}") from None
            cells.append(
                SweepCell(
                    index=index,
                    cell_id=cell_id,
                    axes=dict(zip(names, combo)),
                    config=config,
                )
            )
        return cells

    def validate(self) -> List[SweepCell]:
        """Expand the grid and fail fast on anything a cell run would hit.

        :meth:`cells` already applies :class:`ExperimentConfig`'s own
        validation, aggregation names and kwargs included; this
        additionally resolves the attack names against their registry,
        so a typo surfaces before the sweep starts instead of crashing
        some cell hours in.  Returns the validated cells.
        """
        from repro.byzantine.registry import available_attacks

        cells = self.cells()
        for cell in cells:
            config = cell.config
            if config.attack is not None and config.attack not in available_attacks():
                raise ValueError(
                    f"cell {cell.cell_id!r}: unknown attack {config.attack!r}; "
                    f"available: {available_attacks()}"
                )
        return cells

    # -- (de)serialisation ---------------------------------------------------
    def to_spec(self) -> dict:
        """JSON-safe specification (inverse of :meth:`from_spec`)."""
        spec = {"base": config_to_dict(self.base), "axes": dict(self.axes)}
        if not self.derive_seeds:
            spec["derive_seeds"] = False
        return spec

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "ScenarioGrid":
        """Build a grid from a spec dictionary.

        The spec keys: ``"base"`` — any subset of
        :class:`ExperimentConfig` fields (missing fields take the config
        defaults) — ``"axes"`` — the axis mapping — and optionally
        ``"derive_seeds"`` (default true).
        """
        if not isinstance(spec, Mapping):
            raise ValueError("sweep spec must be a JSON object")
        unknown = sorted(set(spec) - {"base", "axes", "derive_seeds"})
        if unknown:
            raise ValueError(f"unknown sweep spec keys: {unknown}")
        axes = spec.get("axes")
        if not isinstance(axes, Mapping) or not axes:
            raise ValueError('sweep spec needs a non-empty "axes" mapping')
        base_data = spec.get("base", {})
        if not isinstance(base_data, Mapping):
            raise ValueError('sweep spec "base" must be an object')
        derive_seeds = spec.get("derive_seeds", True)
        if not isinstance(derive_seeds, bool):
            raise ValueError('sweep spec "derive_seeds" must be a boolean')
        base = config_from_dict(base_data)
        return cls(base, axes, derive_seeds=derive_seeds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = " x ".join(f"{name}[{len(v)}]" for name, v in self.axes.items())
        return f"ScenarioGrid({shape}, {len(self)} cells)"
