"""Tests for the centralized and decentralized training loops.

These are behavioural, laptop-fast versions of the paper's experiments:
tiny synthetic datasets, few rounds, small models.  They check wiring
(shapes, bookkeeping, attack plumbing) and coarse learning behaviour
(robust rules keep learning under attack, the plain mean does not).
"""

import numpy as np
import pytest

from repro.aggregation.registry import make_rule
from repro.agreement.registry import make_algorithm
from repro.learning.centralized import CentralizedTrainer
from repro.learning.decentralized import DecentralizedTrainer, default_subround_schedule
from repro.learning.experiment import (
    ExperimentConfig,
    build_experiment,
    run_centralized_experiment,
    run_decentralized_experiment,
    run_experiment,
)
from repro.nn.optimizers import SGD


def small_config(**overrides):
    base = ExperimentConfig(
        setting="centralized",
        dataset="mnist",
        heterogeneity="uniform",
        aggregation="box-geom",
        attack="sign-flip",
        num_clients=6,
        num_byzantine=1,
        rounds=3,
        num_samples=240,
        batch_size=8,
        learning_rate=0.1,
        mlp_hidden=(16, 8),
        seed=0,
    )
    return base.with_overrides(**overrides)


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.tolerance == 1

    def test_invalid_setting(self):
        with pytest.raises(ValueError):
            ExperimentConfig(setting="federated")

    def test_invalid_dataset(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="imagenet")

    def test_invalid_heterogeneity(self):
        with pytest.raises(ValueError):
            ExperimentConfig(heterogeneity="spicy")

    def test_byzantine_bounds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_clients=5, num_byzantine=5)

    def test_tolerance_override(self):
        config = ExperimentConfig(num_byzantine=0, byzantine_tolerance=2)
        assert config.tolerance == 2

    def test_with_overrides(self):
        config = small_config(rounds=7)
        assert config.rounds == 7

    @pytest.mark.parametrize("setting", ["centralized", "decentralized"])
    def test_unknown_aggregation_rejected(self, setting):
        with pytest.raises(ValueError, match=f"unknown {setting} aggregation 'bogus'"):
            ExperimentConfig(setting=setting, aggregation="bogus")

    def test_aggregation_checked_against_the_settings_registry(self):
        # krum is a server-side rule; safe-area only exists as agreement.
        assert ExperimentConfig(aggregation="krum").aggregation == "krum"
        with pytest.raises(ValueError, match="unknown decentralized aggregation 'krum'"):
            ExperimentConfig(setting="decentralized", aggregation="krum")
        ExperimentConfig(setting="decentralized", aggregation="safe-area")
        with pytest.raises(ValueError, match="unknown centralized aggregation"):
            ExperimentConfig(aggregation="safe-area")

    @pytest.mark.parametrize("setting", ["centralized", "decentralized"])
    def test_aggregation_kwargs_checked_against_constructor(self, setting):
        # Used to pass here and raise TypeError inside run_experiment.
        with pytest.raises(ValueError, match=r"\['max_subsets'\] are not accepted"):
            ExperimentConfig(setting=setting, aggregation="mean",
                             aggregation_kwargs={"max_subsets": 3})
        config = small_config(setting=setting, rounds=1,
                              aggregation_kwargs={"max_subsets": 3})
        assert run_experiment(config).setting == setting

    def test_runner_supplied_kwargs_rejected(self):
        with pytest.raises(ValueError, match="not accepted"):
            ExperimentConfig(aggregation_kwargs={"n": 4})
        with pytest.raises(ValueError, match="not accepted"):
            ExperimentConfig(setting="decentralized",
                             aggregation_kwargs={"dtype": "float32"})


class TestBuildExperiment:
    def test_client_count_and_roles(self):
        built = build_experiment(small_config())
        assert len(built.clients) == 6
        byz = [c.client_id for c in built.clients if c.is_byzantine]
        assert byz == [5]

    def test_clients_start_from_global_weights(self):
        built = build_experiment(small_config())
        global_params = built.global_model.get_flat_parameters()
        for client in built.clients:
            np.testing.assert_allclose(client.local_parameters(), global_params)

    def test_no_attack_means_no_byzantine_behaviour(self):
        built = build_experiment(small_config(attack=None, num_byzantine=0))
        assert all(not c.is_byzantine for c in built.clients)

    def test_label_flip_poisons_byzantine_shard(self):
        config = small_config(attack="label-flip")
        built = build_experiment(config)
        byz_client = built.clients[-1]
        original_shard = built.client_shards[byz_client.client_id]
        assert not np.array_equal(byz_client.dataset.labels, original_shard.labels)

    def test_shards_cover_training_data(self):
        built = build_experiment(small_config())
        assert sum(len(s) for s in built.client_shards) == len(built.train_data)

    def test_cifar_config_builds_cnn(self):
        config = small_config(dataset="cifar10", num_samples=240)
        built = build_experiment(config)
        assert built.flatten_inputs is False
        assert built.global_model.name == "cifarnet"


class TestCentralizedTrainer:
    def test_history_shape(self):
        history = run_centralized_experiment(small_config())
        assert history.rounds == 3
        assert history.setting == "centralized"
        assert history.aggregation == "box-geom"
        assert history.attack == "sign-flip"
        assert all(0.0 <= acc <= 1.0 for acc in history.accuracies())

    def test_all_rules_run_one_round(self):
        for rule in ("mean", "geomedian", "krum", "multi-krum", "md-mean", "md-geom", "box-mean", "box-geom"):
            history = run_centralized_experiment(small_config(aggregation=rule, rounds=1))
            assert history.rounds == 1

    def test_crash_attack_with_missing_gradient(self):
        history = run_centralized_experiment(small_config(attack="crash", rounds=2))
        assert history.rounds == 2

    def test_record_every(self):
        built = build_experiment(small_config(rounds=4))
        trainer = CentralizedTrainer(
            built.global_model, built.clients, make_rule("box-geom", n=6, t=1),
            built.test_data, optimizer=SGD(0.1, total_rounds=4),
        )
        history = trainer.train(4, record_every=2)
        assert [r.round_index for r in history.records] == [1, 3]

    def test_invalid_rounds(self):
        built = build_experiment(small_config())
        trainer = CentralizedTrainer(
            built.global_model, built.clients, make_rule("mean", n=6, t=1), built.test_data
        )
        with pytest.raises(ValueError):
            trainer.train(0)

    def test_requires_clients(self):
        built = build_experiment(small_config())
        with pytest.raises(ValueError):
            CentralizedTrainer(built.global_model, [], make_rule("mean"), built.test_data)

    def test_robust_rule_learns_under_magnitude_attack(self):
        # A magnitude-inflation attacker destroys the plain mean (the
        # aggregate is dominated by the inflated gradient), while BOX-GEOM
        # keeps learning: its output never leaves the trusted hyperbox.
        probe = small_config(
            attack="magnitude", rounds=30, num_samples=480, batch_size=16,
            learning_rate=0.05,
        )
        robust = run_centralized_experiment(probe.with_overrides(aggregation="box-geom"))
        naive = run_centralized_experiment(probe.with_overrides(aggregation="mean"))
        assert robust.best_accuracy() > 0.2
        assert robust.final_accuracy() > naive.final_accuracy()
        assert robust.losses()[-1] < naive.losses()[-1]


class TestDecentralizedTrainer:
    def test_history_shape(self):
        history = run_decentralized_experiment(
            small_config(setting="decentralized", rounds=2)
        )
        assert history.rounds == 2
        assert history.setting == "decentralized"
        record = history.records[-1]
        assert len(record.per_client_accuracy) == 5  # honest clients only
        assert record.gradient_disagreement is not None

    def test_subround_schedule(self):
        assert default_subround_schedule(0) == 1
        assert default_subround_schedule(2) == 2
        assert default_subround_schedule(30) == 5
        with pytest.raises(ValueError):
            default_subround_schedule(-1)

    def test_agreement_n_mismatch_rejected(self):
        built = build_experiment(small_config(setting="decentralized"))
        algorithm = make_algorithm("box-geom", 8, 1)
        with pytest.raises(ValueError):
            DecentralizedTrainer(built.clients, algorithm, built.test_data)

    def test_too_many_byzantine_rejected(self):
        config = small_config(setting="decentralized", num_clients=6, num_byzantine=1)
        built = build_experiment(config)
        algorithm = make_algorithm("box-geom", 6, 1)
        # Manually make a second client Byzantine beyond the tolerance.
        from repro.byzantine.sign_flip import SignFlipAttack

        built.clients[0].attack = SignFlipAttack()
        with pytest.raises(ValueError):
            DecentralizedTrainer(built.clients, algorithm, built.test_data)

    def test_gradient_disagreement_small_for_box(self):
        history = run_decentralized_experiment(
            small_config(setting="decentralized", aggregation="box-geom", rounds=2)
        )
        last = history.records[-1]
        assert last.gradient_disagreement < 1.0


class TestRunExperimentDispatch:
    def test_dispatch_centralized(self):
        history = run_experiment(small_config(rounds=1))
        assert history.setting == "centralized"

    def test_dispatch_decentralized(self):
        history = run_experiment(small_config(setting="decentralized", rounds=1))
        assert history.setting == "decentralized"

    def test_wrong_runner_rejected(self):
        with pytest.raises(ValueError):
            run_centralized_experiment(small_config(setting="decentralized"))
        with pytest.raises(ValueError):
            run_decentralized_experiment(small_config(setting="centralized"))
