"""Experiment configuration and builders.

A single :class:`ExperimentConfig` describes everything a figure of the
paper needs: dataset, heterogeneity regime, number of clients and
Byzantine clients, attack, aggregation rule / agreement algorithm,
architecture and round budget.  The builders translate the string-valued
configuration into concrete objects, so benchmarks and examples remain
declarative and serialisable.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.aggregation.registry import available_rules, make_rule, rule_class
from repro.agreement.registry import algorithm_class, available_algorithms, make_algorithm
from repro.byzantine.label_flip import LabelFlipAttack, flip_labels
from repro.byzantine.registry import make_attack
from repro.data.datasets import (
    Dataset,
    make_synthetic_cifar10,
    make_synthetic_mnist,
    train_test_split,
)
from repro.data.partition import Heterogeneity, partition_dataset
from repro.engine import SCHEDULER_NAMES, make_scheduler
from repro.engine.base import RoundEngine
from repro.learning.centralized import CentralizedTrainer
from repro.learning.client import Client
from repro.learning.decentralized import DecentralizedTrainer
from repro.learning.history import TrainingHistory
from repro.network.topology import Topology, make_topology, resolve_topology_name
from repro.nn.architectures import build_cifarnet, build_mlp
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD
from repro.utils.rng import stable_component_seed
from repro.utils.validation import require

#: Constructor arguments the experiment runners supply themselves, so
#: ``aggregation_kwargs`` may not name them.
_RUNNER_SUPPLIED_KWARGS = frozenset({"n", "t", "dtype"})


def _check_aggregation(setting: str, name: str, kwargs: dict) -> None:
    """Fail unless ``run_experiment`` can build ``name`` with ``kwargs``.

    The centralized runner builds a rule through ``make_rule``, the
    decentralized one an agreement algorithm through ``make_algorithm``;
    the name must be registered there and every kwarg must be a keyword
    of that class's constructor.
    """
    if setting == "centralized":
        known, lookup = available_rules(), rule_class
    else:
        known, lookup = available_algorithms(), algorithm_class
    require(name.strip().lower() in known,
            f"unknown {setting} aggregation {name!r}; available: {known}")
    params = inspect.signature(lookup(name)).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return
    accepted = sorted(set(params) - _RUNNER_SUPPLIED_KWARGS)
    unknown = sorted(set(kwargs) - set(accepted))
    require(not unknown,
            f"aggregation_kwargs {unknown} are not accepted by {setting} "
            f"aggregation {name!r} (accepted: {accepted})")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one collaborative-learning experiment.

    The defaults mirror the paper: 10 clients, 1 Byzantine client running
    the sign-flip attack, MNIST-like data, MLP architecture, learning
    rate 0.01 with global-round decay.
    """

    setting: str = "centralized"  # "centralized" | "decentralized"
    dataset: str = "mnist"  # "mnist" | "cifar10"
    heterogeneity: str = "mild"  # "uniform" | "mild" | "extreme"
    aggregation: str = "box-geom"
    attack: Optional[str] = "sign-flip"
    num_clients: int = 10
    num_byzantine: int = 1
    byzantine_tolerance: Optional[int] = None  # defaults to num_byzantine
    rounds: int = 30
    batch_size: int = 32
    learning_rate: float = 0.01
    num_samples: int = 1200
    test_fraction: float = 0.1
    seed: int = 0
    attack_kwargs: dict = field(default_factory=dict)
    aggregation_kwargs: dict = field(default_factory=dict)
    # Smaller hidden sizes keep decentralized runs (10 models) laptop-fast.
    mlp_hidden: Tuple[int, int] = (64, 32)
    # Timing model of the communication rounds (see repro.engine):
    # "synchronous" (the paper), "partial" (bounded per-link delays,
    # horizon = `delay`), "lossy" (`drop_rate` per-link loss plus
    # transient `crash_schedule` windows), or "asynchronous" (event-
    # driven, no horizon: heavy-tailed regime-modulated delays with
    # explicit wait conditions).
    scheduler: str = "synchronous"
    delay: int = 0
    drop_rate: float = 0.0
    crash_schedule: Tuple[Tuple[int, int, int], ...] = ()
    # Asynchronous-scheduler knobs: `wait_timeout` (required > 0 there)
    # bounds how many virtual rounds a node waits past a round start;
    # `wait_count` optionally pins an explicit message target (0 = the
    # consumer's quorum / n - t default); `burstiness` is the per-round
    # probability of entering the bursty (MMPP-style) delay regime.
    wait_count: int = 0
    wait_timeout: float = 0.0
    burstiness: float = 0.0
    # RNG draw strategy of the stochastic schedulers (see
    # repro.engine.base.RNG_MODES): "scalar" reproduces the pinned
    # bitwise reference stream; "vectorized" draws whole-round vectors —
    # identically distributed but a different stream, validated
    # statistically.  Only meaningful for scheduler in
    # ("partial", "asynchronous").
    rng_mode: str = "scalar"
    # Precision tier of the aggregation kernels (see
    # repro.linalg.precision): "float64" reproduces the historical
    # results bit for bit, "float32" halves kernel bandwidth and is
    # accurate to the documented tolerance tier.
    dtype: str = "float64"
    # Record per-node delivery traces on the engine (see
    # RoundEngine.node_trace_snapshot).  Off by default — the
    # per-round aggregate trace is usually enough and per-node rows cost
    # O(n) memory per round.
    node_trace: bool = False
    # Communication topology of the decentralized exchange (see
    # repro.network.topology): "complete" (the paper's all-to-all,
    # bitwise-identical to the historical behaviour), "ring", "torus",
    # "random-regular" (alias "expander"), or "clusters".
    # `topology_kwargs` parameterise the generator (e.g. {"degree": 4}
    # for random-regular, {"clusters": 3, "bridges": 2} for clusters).
    topology: str = "complete"
    topology_kwargs: dict = field(default_factory=dict)
    # How decentralized clients combine received gradients each
    # sub-round: "agreement" (the paper's approximate agreement — needs
    # the n - t quorum to be reachable at every node) or "gossip"
    # (neighbourhood mean — works on any connected topology, no
    # Byzantine robustness guarantee).
    exchange: str = "agreement"

    def __post_init__(self) -> None:
        from repro.linalg.precision import SUPPORTED_DTYPES

        require(self.dtype in SUPPORTED_DTYPES,
                f"unknown dtype {self.dtype!r}; supported: {SUPPORTED_DTYPES}")
        require(self.setting in ("centralized", "decentralized"),
                f"unknown setting {self.setting!r}")
        _check_aggregation(self.setting, self.aggregation, self.aggregation_kwargs)
        require(self.dataset in ("mnist", "cifar10"), f"unknown dataset {self.dataset!r}")
        Heterogeneity(self.heterogeneity)  # validates
        require(self.num_clients >= 2, "need at least 2 clients")
        require(0 <= self.num_byzantine < self.num_clients,
                "num_byzantine must be in [0, num_clients)")
        require(self.rounds >= 1, "rounds must be positive")
        require(self.num_samples >= 10 * self.num_clients,
                "num_samples too small for the requested number of clients")
        require(self.scheduler in SCHEDULER_NAMES,
                f"unknown scheduler {self.scheduler!r}; available: {SCHEDULER_NAMES}")
        require(self.delay >= 0, "delay must be non-negative")
        require(0.0 <= self.drop_rate < 1.0, "drop_rate must be in [0, 1)")
        # Knob/scheduler consistency — a sweep axis that silently did
        # nothing would corrupt conclusions, so fail at config time.
        if self.scheduler == "partial":
            require(self.delay >= 1, "scheduler='partial' needs delay >= 1")
        else:
            require(self.delay == 0,
                    f"delay is only meaningful for scheduler='partial' (got {self.scheduler!r})")
        if self.scheduler != "lossy":
            require(self.drop_rate == 0.0 and not self.crash_schedule,
                    "drop_rate/crash_schedule are only meaningful for scheduler='lossy'")
        require(self.wait_count >= 0, "wait_count must be non-negative")
        require(0.0 <= self.burstiness < 1.0, "burstiness must be in [0, 1)")
        if self.scheduler == "asynchronous":
            require(self.wait_timeout > 0.0,
                    "scheduler='asynchronous' needs wait_timeout > 0 (no delivery "
                    "horizon; the wait window must be explicit)")
        else:
            require(self.wait_count == 0 and self.wait_timeout == 0.0
                    and self.burstiness == 0.0,
                    "wait_count/wait_timeout/burstiness are only meaningful for "
                    "scheduler='asynchronous'")
        from repro.engine import RNG_MODES

        require(self.rng_mode in RNG_MODES,
                f"unknown rng_mode {self.rng_mode!r}; available: {RNG_MODES}")
        if self.rng_mode != "scalar":
            require(self.scheduler in ("partial", "asynchronous"),
                    "rng_mode='vectorized' is only meaningful for the stochastic-"
                    "delay schedulers ('partial', 'asynchronous')")
        if self.node_trace:
            require(self.scheduler != "synchronous",
                    "node_trace records per-node delivery rows; the synchronous "
                    "scheduler delivers everything and records no stats")
        # Topology / exchange validation.  Resolve aliases eagerly so
        # "expander" and "random-regular" configs compare (and sweep)
        # as one canonical value.
        object.__setattr__(self, "topology", resolve_topology_name(self.topology))
        require(self.exchange in ("agreement", "gossip"),
                f"unknown exchange {self.exchange!r}; supported: ('agreement', 'gossip')")
        if self.topology == "complete":
            require(not self.topology_kwargs,
                    "topology_kwargs are only meaningful for sparse topologies "
                    "(topology='complete' takes no parameters)")
        else:
            require(self.setting == "decentralized",
                    "sparse topologies only apply to the decentralized setting "
                    "(the centralized star exchange has a fixed shape)")
        if self.exchange == "gossip":
            require(self.setting == "decentralized",
                    "exchange='gossip' only applies to the decentralized setting")
        # Canonicalise crash windows to nested int tuples so configs
        # built from JSON lists compare equal to hand-built ones.
        object.__setattr__(
            self,
            "crash_schedule",
            tuple(tuple(int(v) for v in window) for window in self.crash_schedule),
        )
        for window in self.crash_schedule:
            require(len(window) == 3,
                    f"crash window must be (node, start, stop), got {window!r}")

    @property
    def tolerance(self) -> int:
        """Resilience parameter ``t`` used by the robust rules."""
        t = self.byzantine_tolerance if self.byzantine_tolerance is not None else self.num_byzantine
        return max(1, int(t))

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy of the config with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass
class BuiltExperiment:
    """Concrete objects materialised from an :class:`ExperimentConfig`."""

    config: ExperimentConfig
    train_data: Dataset
    test_data: Dataset
    client_shards: List[Dataset]
    clients: List[Client]
    global_model: Optional[Sequential]
    flatten_inputs: bool


# Cross-cell reuse: sweep cells sharing their data axes (dataset,
# sample budget, heterogeneity, partition seed) rebuild byte-identical
# shards, so one in-process cache serves them all.  Builds are pure
# functions of the key and consumers never mutate shard arrays, which
# keeps sweep output byte-identical with the cache on or off; each
# multiprocessing worker simply grows its own cache.
_DATA_CACHE: dict = {}
_DATA_CACHE_LIMIT = 16
_DATA_CACHE_STATS = {"hits": 0, "misses": 0}


def _data_cache_get(key, build):
    if key in _DATA_CACHE:
        _DATA_CACHE_STATS["hits"] += 1
        return _DATA_CACHE[key]
    _DATA_CACHE_STATS["misses"] += 1
    value = build()
    while len(_DATA_CACHE) >= _DATA_CACHE_LIMIT:
        _DATA_CACHE.pop(next(iter(_DATA_CACHE)))
    _DATA_CACHE[key] = value
    return value


def clear_data_cache() -> None:
    """Drop the cross-cell dataset/shard cache (mainly for tests)."""
    _DATA_CACHE.clear()
    _DATA_CACHE_STATS["hits"] = 0
    _DATA_CACHE_STATS["misses"] = 0


def data_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the cross-cell dataset/shard cache."""
    return dict(_DATA_CACHE_STATS)


def _make_dataset(config: ExperimentConfig) -> Tuple[Dataset, Dataset]:
    def build() -> Tuple[Dataset, Dataset]:
        seed = stable_component_seed(config.seed, "dataset", config.dataset)
        if config.dataset == "mnist":
            full = make_synthetic_mnist(config.num_samples, seed=seed)
        else:
            full = make_synthetic_cifar10(config.num_samples, seed=seed)
        return train_test_split(full, test_fraction=config.test_fraction,
                                seed=stable_component_seed(config.seed, "split"))

    key = ("dataset", config.dataset, config.num_samples, config.test_fraction,
           config.seed)
    return _data_cache_get(key, build)


def _make_shards(config: ExperimentConfig, train_data: Dataset) -> List[Dataset]:
    def build() -> List[Dataset]:
        return partition_dataset(
            train_data,
            config.num_clients,
            config.heterogeneity,
            seed=stable_component_seed(config.seed, "partition", config.heterogeneity),
        )

    key = ("shards", config.dataset, config.num_samples, config.test_fraction,
           config.seed, config.num_clients, config.heterogeneity)
    return _data_cache_get(key, build)


def _make_model(config: ExperimentConfig, train_data: Dataset, *, seed_tag: str) -> Tuple[Sequential, bool]:
    seed = stable_component_seed(config.seed, "model", seed_tag)
    if config.dataset == "cifar10":
        model = build_cifarnet(train_data.image_shape, train_data.num_classes, seed=seed)
        return model, False
    model = build_mlp(train_data.feature_dim, hidden_sizes=config.mlp_hidden,
                      num_classes=train_data.num_classes, seed=seed)
    return model, True


def build_experiment(config: ExperimentConfig) -> BuiltExperiment:
    """Materialise datasets, models and clients for a configuration.

    Byzantine roles are assigned to the *last* ``num_byzantine`` client
    ids, which keeps node ids stable across aggregation rules so that
    comparisons use identical data assignments.
    """
    train_data, test_data = _make_dataset(config)
    shards = _make_shards(config, train_data)

    byzantine_ids = set(range(config.num_clients - config.num_byzantine, config.num_clients))
    # In the centralized setting all clients share one architecture; the
    # global model is a separate instance holding the server state.
    global_model, flatten = _make_model(config, train_data, seed_tag="global")

    clients: List[Client] = []
    for client_id in range(config.num_clients):
        shard = shards[client_id]
        attack = None
        if client_id in byzantine_ids and config.attack is not None:
            attack = make_attack(config.attack, **config.attack_kwargs)
            if isinstance(attack, LabelFlipAttack):
                shard = Dataset(
                    images=shard.images,
                    labels=flip_labels(shard.labels, shard.num_classes, offset=attack.offset),
                    num_classes=shard.num_classes,
                    name=shard.name + "-poisoned",
                )
        model, _ = _make_model(config, train_data, seed_tag="global")
        # Every client starts from the same initial weights as the global
        # model (the paper synchronises weights at round 0).
        model.set_flat_parameters(global_model.get_flat_parameters())
        clients.append(
            Client(
                client_id,
                shard,
                model,
                batch_size=config.batch_size,
                attack=attack,
                flatten_inputs=flatten,
                seed=stable_component_seed(config.seed, "client", client_id),
            )
        )
    return BuiltExperiment(
        config=config,
        train_data=train_data,
        test_data=test_data,
        client_shards=shards,
        clients=clients,
        global_model=global_model,
        flatten_inputs=flatten,
    )


def _make_engine(
    config: ExperimentConfig, n: int, byzantine: Tuple[int, ...], *, star: bool = False
) -> RoundEngine:
    """Scheduler instance for one experiment run.

    The scheduler's own randomness (link delays, drops) is seeded from
    the experiment seed but on an independent component stream, so
    switching schedulers never perturbs the data/model/attack streams.
    Trainers drive thousands of rounds, so history retention is off.
    ``star`` builds the engine for the centralized client -> server
    exchange, where honest senders unicast to the server link.
    """
    topology: Optional[Topology] = None
    if config.topology != "complete":
        # Complete stays None (not a materialised complete Topology) so
        # the default engine path is bitwise-untouched.  The generator
        # seed is its own component stream: changing the topology axis
        # never perturbs the data/model/attack/scheduler streams.
        topology = make_topology(
            config.topology,
            n,
            seed=stable_component_seed(config.seed, "topology", config.topology),
            **config.topology_kwargs,
        )
    return make_scheduler(
        config.scheduler,
        n,
        byzantine,
        delay=config.delay,
        drop_rate=config.drop_rate,
        crash_schedule=config.crash_schedule,
        wait_count=config.wait_count,
        wait_timeout=config.wait_timeout,
        burstiness=config.burstiness,
        seed=stable_component_seed(config.seed, "scheduler", config.scheduler),
        keep_history=False,
        require_full_broadcast=not star,
        node_trace=config.node_trace,
        topology=topology,
        rng_mode=config.rng_mode,
    )


def run_centralized_experiment(config: ExperimentConfig) -> TrainingHistory:
    """Build and run a centralized experiment, returning its history."""
    require(config.setting == "centralized", "config.setting must be 'centralized'")
    built = build_experiment(config)
    rule = make_rule(
        config.aggregation,
        n=config.num_clients,
        t=config.tolerance,
        **config.aggregation_kwargs,
    )
    byzantine = tuple(c.client_id for c in built.clients if c.is_byzantine)
    trainer = CentralizedTrainer(
        built.global_model,
        built.clients,
        rule,
        built.test_data,
        optimizer=SGD(config.learning_rate, total_rounds=config.rounds),
        flatten_inputs=built.flatten_inputs,
        seed=stable_component_seed(config.seed, "trainer"),
        dtype=config.dtype,
        # One extra node: the server, consuming the star exchange.
        engine=_make_engine(config, config.num_clients + 1, byzantine, star=True),
    )
    history = trainer.train(config.rounds)
    history.heterogeneity = config.heterogeneity
    return history


def run_decentralized_experiment(config: ExperimentConfig) -> TrainingHistory:
    """Build and run a decentralized experiment, returning its history."""
    require(config.setting == "decentralized", "config.setting must be 'decentralized'")
    built = build_experiment(config)
    algorithm = make_algorithm(
        config.aggregation,
        config.num_clients,
        config.tolerance,
        dtype=config.dtype,
        **config.aggregation_kwargs,
    )
    byzantine = tuple(c.client_id for c in built.clients if c.is_byzantine)
    trainer = DecentralizedTrainer(
        built.clients,
        algorithm,
        built.test_data,
        optimizer=SGD(config.learning_rate, total_rounds=config.rounds),
        flatten_inputs=built.flatten_inputs,
        seed=stable_component_seed(config.seed, "trainer"),
        engine=_make_engine(config, config.num_clients, byzantine),
        exchange=config.exchange,
    )
    history = trainer.train(config.rounds)
    history.heterogeneity = config.heterogeneity
    return history


def run_experiment(config: ExperimentConfig) -> TrainingHistory:
    """Dispatch to the centralized or decentralized runner."""
    if config.setting == "centralized":
        return run_centralized_experiment(config)
    return run_decentralized_experiment(config)
