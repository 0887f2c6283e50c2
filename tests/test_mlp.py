import numpy as np
import pytest

from borekit.kde import ToyMixture
from borekit.mlp import FeatureEncoder, MlpClassifier, MlpConfig, epochs_for_iteration
from borekit.space import Categorical, Continuous, LabeledSet, Ordinal, SearchSpace


def labeled(xs, zs, gamma=0.5):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    return LabeledSet(xs=xs, zs=np.asarray(zs, dtype=int), tau=0.0, gamma=gamma)


def finite_difference_gradient(clf, data, h=1e-5):
    flat = clf.get_flat_params().copy()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        clf.set_flat_params(bumped)
        up = clf.loss(data)
        bumped[i] -= 2 * h
        clf.set_flat_params(bumped)
        down = clf.loss(data)
        out[i] = (up - down) / (2 * h)
    clf.set_flat_params(flat)
    return out


class TestEpochSchedule:
    def test_large_dataset(self):
        assert epochs_for_iteration(800, 64, 512) == (8, 100)

    def test_dataset_within_one_batch(self):
        assert epochs_for_iteration(800, 64, 32) == (1, 800)

    def test_exact_batch(self):
        assert epochs_for_iteration(100, 64, 64) == (1, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            epochs_for_iteration(0, 64, 10)


class TestEncoder:
    def test_minmax_and_onehot(self):
        space = SearchSpace((Continuous(0, 2), Ordinal((1.0, 3.0, 5.0)), Categorical(3)))
        enc = FeatureEncoder(space)
        assert enc.width == 1 + 1 + 3
        feats = enc.transform([[1.0, 3.0, 2.0]])
        assert feats[0].tolist() == [0.5, 0.5, 0.0, 0.0, 1.0]

    def test_dimension_mismatch(self):
        enc = FeatureEncoder(SearchSpace((Continuous(0, 1),)))
        with pytest.raises(ValueError):
            enc.transform([[0.1, 0.2]])


class TestPredict:
    def test_zero_initialized_output_is_half(self):
        space = SearchSpace((Continuous(0, 1),))
        clf = MlpClassifier(space, MlpConfig(seed=1))
        for x in (0.0, 0.31, 1.0):
            assert clf.predict(np.array([x])) == 0.5

    def test_deterministic_given_weights(self):
        space = SearchSpace((Continuous(0, 1),))
        clf = MlpClassifier(space, MlpConfig(seed=2))
        clf.fit(labeled([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]))
        x = np.array([0.4])
        assert clf.predict(x) == clf.predict(x)

    def test_output_strictly_inside_unit_interval(self):
        space = SearchSpace((Continuous(0, 1),))
        clf = MlpClassifier(space, MlpConfig(seed=3))
        flat = clf.get_flat_params()
        clf.set_flat_params(np.full_like(flat, 50.0))
        p = clf.predict(np.array([1.0]))
        assert 0.0 < p < 1.0

    def test_dimension_mismatch(self):
        space = SearchSpace((Continuous(0, 1),))
        clf = MlpClassifier(space)
        with pytest.raises(ValueError):
            clf.predict(np.array([0.1, 0.2]))


class TestLogLoss:
    def test_uniform_prediction_is_ln2(self):
        space = SearchSpace((Continuous(0, 1),))
        clf = MlpClassifier(space, MlpConfig(seed=0))
        data = labeled([0.2, 0.8], [1, 0])
        assert clf.loss(data) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_single_confident_point(self):
        space = SearchSpace((Continuous(0, 1),))
        clf = MlpClassifier(space, MlpConfig(seed=0))
        # force pi = 0.9 everywhere through the output bias
        clf.biases[-1][0] = np.log(0.9 / 0.1)
        assert clf.loss(labeled([0.5], [1])) == pytest.approx(-np.log(0.9), abs=1e-12)

    def test_loss_vanishes_under_perfect_confidence(self):
        space = SearchSpace((Continuous(0, 1),))
        clf = MlpClassifier(space, MlpConfig(seed=0))
        clf.biases[-1][0] = 40.0
        assert clf.loss(labeled([0.5], [1])) < 1e-12


class TestGradient:
    def test_matches_finite_differences_across_configs(self):
        rng = np.random.default_rng(0)
        for trial in range(8):
            width = int(rng.integers(2, 12))
            depth = int(rng.integers(1, 3))
            act = ["elu", "relu"][trial % 2]
            space = SearchSpace((Continuous(0, 1), Continuous(-2, 2)))
            clf = MlpClassifier(space, MlpConfig(hidden_widths=(width,) * depth,
                                                 activation=act, seed=trial))
            clf.set_flat_params(rng.normal(0, 0.6, clf.get_flat_params().shape))
            X = rng.uniform([0, -2], [1, 2], size=(5, 2))
            z = rng.integers(0, 2, 5)
            z[0] = 1 - z[1]  # keep both classes around
            grads = clf.gradient(X, z)
            fd = finite_difference_gradient(clf, labeled(X, z))
            # entries below ~1e-6 are dominated by the oracle's own
            # cancellation noise (eps/h) and say nothing about backprop
            denom = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(grads - fd) / denom) < 1e-4

    def test_duplicated_batch_same_gradient(self):
        space = SearchSpace((Continuous(0, 1),))
        clf = MlpClassifier(space, MlpConfig(seed=4))
        rng = np.random.default_rng(1)
        clf.set_flat_params(rng.normal(0, 0.5, clf.get_flat_params().shape))
        X = rng.uniform(0, 1, size=(4, 1))
        z = np.array([1, 0, 1, 0])
        single = clf.gradient(X, z)
        doubled = clf.gradient(np.vstack([X, X]), np.concatenate([z, z]))
        assert np.allclose(single, doubled, atol=1e-15)

    def test_stationary_under_extreme_confidence(self):
        space = SearchSpace((Continuous(0, 1),))
        clf = MlpClassifier(space, MlpConfig(seed=5))
        clf.biases[-1][0] = 60.0
        grads = clf.gradient(np.array([[0.3], [0.7]]), np.array([1, 1]))
        assert np.linalg.norm(grads) < 1e-12


class TestFlatParams:
    def test_layout_weights_then_biases(self):
        clf = MlpClassifier(SearchSpace((Continuous(0, 1),)), MlpConfig(hidden_widths=(3,), seed=0))
        flat = np.arange(clf.get_flat_params().size, dtype=float)
        clf.set_flat_params(flat)
        layers = [*clf.weights, *clf.biases]
        assert np.array_equal(np.concatenate([p.ravel() for p in layers]), flat)
        with pytest.raises(ValueError):
            clf.set_flat_params(flat[:-1])
        assert np.array_equal(clf.get_flat_params(), flat)


class TestFit:
    def test_beats_uniform_predictor_on_toy_samples(self):
        toy = ToyMixture()
        xs, zs = toy.sample(1000, seed=0)
        space = SearchSpace((Continuous(-10, 10),))
        clf = MlpClassifier(space, MlpConfig(steps_per_iteration=2000, seed=0))
        loss = clf.fit(labeled(xs, zs, gamma=0.25))
        assert loss < np.log(2.0)

    def test_single_class_rejected(self):
        space = SearchSpace((Continuous(0, 1),))
        clf = MlpClassifier(space)
        with pytest.raises(ValueError):
            clf.fit(labeled([0.1, 0.9], [1, 1]))

    def test_separable_clusters_reach_full_accuracy(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(-3, 0.2, 30), rng.normal(3, 0.2, 30)])
        z = np.array([1] * 30 + [0] * 30)
        space = SearchSpace((Continuous(-5, 5),))
        clf = MlpClassifier(space, MlpConfig(steps_per_iteration=1500, seed=0))
        clf.fit(labeled(x, z))
        preds = (clf.predict_batch(x[:, None]) > 0.5).astype(int)
        assert np.array_equal(preds, z)

    def test_warm_start_improves_in_median(self):
        toy = ToyMixture()
        initial, final = [], []
        space = SearchSpace((Continuous(-10, 10),))
        for seed in range(10):
            xs, zs = toy.sample(200, seed=seed)
            data = labeled(xs, zs, gamma=0.25)
            clf = MlpClassifier(space, MlpConfig(steps_per_iteration=300, seed=seed))
            initial.append(clf.loss(data))
            final.append(clf.fit(data))
        assert np.median(final) <= np.median(initial)

    def test_bitwise_deterministic_trajectory(self):
        toy = ToyMixture()
        xs, zs = toy.sample(120, seed=3)
        space = SearchSpace((Continuous(-10, 10),))
        data = labeled(xs, zs, gamma=0.25)
        flats = []
        for _ in range(2):
            clf = MlpClassifier(space, MlpConfig(steps_per_iteration=150, seed=12))
            clf.fit(data)
            flats.append(clf.get_flat_params())
        assert np.array_equal(flats[0], flats[1])

    def test_recovers_bayes_posterior_on_two_point_domain(self):
        rng = np.random.default_rng(7)
        n0, n1 = 60, 40
        x = np.concatenate([np.zeros(n0), np.ones(n1)])
        z = np.concatenate([(rng.random(n0) < 0.75).astype(int),
                            (rng.random(n1) < 0.2).astype(int)])
        bayes = [z[:n0].mean(), z[n0:].mean()]  # counting oracle
        space = SearchSpace((Categorical(2),))
        clf = MlpClassifier(space, MlpConfig(steps_per_iteration=3000, seed=0))
        clf.fit(labeled(x, z, gamma=z.mean()))
        assert abs(clf.predict(np.array([0.0])) - bayes[0]) < 0.02
        assert abs(clf.predict(np.array([1.0])) - bayes[1]) < 0.02

    def test_prediction_approaches_scaled_true_ratio_on_toy(self):
        toy = ToyMixture()
        xs, zs = toy.sample(1000, seed=0)
        space = SearchSpace((Continuous(-10, 10),))
        clf = MlpClassifier(space, MlpConfig(hidden_widths=(32, 32, 32), activation="elu",
                                             steps_per_iteration=5000, learning_rate=3e-3,
                                             seed=0))
        clf.fit(labeled(xs, zs, gamma=0.25))
        target = 0.25 * toy.true_ratio(-3.0, 0.25)
        assert abs(clf.predict(np.array([-3.0])) - target) < 0.1


class TestInputGradient:
    def test_matches_finite_differences(self):
        space = SearchSpace((Continuous(0, 1), Continuous(-1, 2)))
        clf = MlpClassifier(space, MlpConfig(activation="elu", seed=6))
        rng = np.random.default_rng(3)
        clf.set_flat_params(rng.normal(0, 0.7, clf.get_flat_params().shape))
        x = np.array([0.4, 0.3])
        g = clf.input_gradient(x)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (clf.predict(x + e) - clf.predict(x - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_requires_continuous_space(self):
        space = SearchSpace((Categorical(3),))
        clf = MlpClassifier(space)
        with pytest.raises(ValueError):
            clf.input_gradient(np.array([1.0]))
