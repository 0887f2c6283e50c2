import numpy as np
import pytest

from borekit.calibration import CalibratedClassifier
from borekit.forest import ForestClassifier, ForestConfig, _Tree, _best_threshold_split, fit_forest_classifier
from borekit.kde import ToyMixture
from borekit.space import Categorical, Continuous, LabeledSet, SearchSpace


def labeled(xs, zs, gamma=0.5):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    return LabeledSet(xs=xs, zs=np.asarray(zs, dtype=int), tau=0.0, gamma=gamma)


def two_clusters(seed=0, n=40):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(-3, 0.3, n // 2), rng.normal(3, 0.3, n // 2)])
    z = np.array([1] * (n // 2) + [0] * (n // 2))
    return x, z


def leaf_tree(value):
    tree = _Tree()
    tree._add()
    tree.value[0] = value
    return tree


SPACE_1D = SearchSpace((Continuous(-5.0, 5.0),))


class TestForestFit:
    def test_separable_clusters_full_accuracy(self):
        x, z = two_clusters()
        forest = ForestClassifier(SPACE_1D, ForestConfig(seed=0)).fit(labeled(x, z))
        preds = (forest.predict_batch(x[:, None]) > 0.5).astype(int)
        assert np.array_equal(preds, z)

    def test_pure_region_predicts_one(self):
        x, z = two_clusters()
        forest = ForestClassifier(SPACE_1D, ForestConfig(seed=1)).fit(labeled(x, z))
        assert forest.predict(np.array([-3.0])) == 1.0

    def test_deterministic_per_seed(self):
        x, z = two_clusters(seed=2)
        probe = np.linspace(-5, 5, 33)[:, None]
        preds = []
        for _ in range(2):
            forest = ForestClassifier(SPACE_1D, ForestConfig(seed=7)).fit(labeled(x, z))
            preds.append(forest.predict_batch(probe))
        assert np.array_equal(preds[0], preds[1])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ForestClassifier(SPACE_1D).fit(labeled([0.0, 1.0], [1, 1]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ForestConfig(n_trees=0)
        with pytest.raises(ValueError):
            ForestConfig(min_samples_split=1)
        with pytest.raises(ValueError):
            ForestConfig(features_per_split="half")


class TestAdjacentDoubles:
    """Two adjacent doubles whose midpoint rounds up to the larger one."""

    A = np.nextafter(1.0, 2.0)
    B = np.nextafter(A, 2.0)

    def test_threshold_separates_the_pair(self):
        assert (self.A + self.B) / 2.0 == self.B
        _, threshold = _best_threshold_split(np.array([self.A, self.B]), np.array([0.0, 1.0]))
        assert self.A <= threshold < self.B

    def test_two_point_fit_completes(self):
        space = SearchSpace((Continuous(0.0, 2.0),))
        data = labeled([self.A, self.B], [0, 1])
        forest = ForestClassifier(space, ForestConfig(n_trees=1, bootstrap=False)).fit(data)
        assert forest.predict_batch(data.xs).tolist() == [0.0, 1.0]


class TestForestPredict:
    def test_unanimous_trees(self):
        forest = ForestClassifier(SPACE_1D, ForestConfig(n_trees=5))
        forest.trees = [leaf_tree(1.0) for _ in range(5)]
        assert forest.predict(np.array([0.0])) == 1.0

    def test_mean_of_tree_votes(self):
        forest = ForestClassifier(SPACE_1D, ForestConfig(n_trees=100))
        forest.trees = [leaf_tree(1.0)] * 40 + [leaf_tree(0.0)] * 60
        assert forest.predict(np.array([0.0])) == pytest.approx(0.4)

    def test_dimension_mismatch(self):
        x, z = two_clusters()
        forest = ForestClassifier(SPACE_1D, ForestConfig(seed=0, n_trees=5)).fit(labeled(x, z))
        with pytest.raises(ValueError):
            forest.predict(np.array([0.0, 1.0]))

    def test_predictions_within_per_tree_hull(self):
        x, z = two_clusters(seed=3)
        forest = ForestClassifier(SPACE_1D, ForestConfig(seed=3, n_trees=25)).fit(labeled(x, z))
        for xv in np.linspace(-5, 5, 21):
            point = np.array([xv])
            per_tree = np.array([tree.predict(point) for tree in forest.trees])
            p = forest.predict(point)
            assert per_tree.min() - 1e-12 <= p <= per_tree.max() + 1e-12
            assert 0.0 <= p <= 1.0

    def test_toy_argmax_near_oracle(self):
        toy = ToyMixture()
        xs, zs = toy.sample(1000, seed=0)
        space = SearchSpace((Continuous(-10.0, 10.0),))
        forest = fit_forest_classifier(labeled(xs, zs, 0.25), space, ForestConfig(seed=0))
        grid = np.linspace(-6, 6, 512)
        preds = forest.predict_batch(grid[:, None])
        # prediction plateaus at its maximum; compare the plateau center
        plateau = grid[np.flatnonzero(preds == preds.max())]
        true_r = np.array([toy.true_ratio(x, 0.25) for x in grid])
        oracle_x = grid[np.argmax(true_r)]
        assert abs(plateau.mean() - oracle_x) < 0.3


class TestCategoricalSplits:
    def test_subset_membership_split(self):
        # codes {0, 2} are positive, {1, 3} negative; a threshold cannot
        # separate them but a value-subset can
        space = SearchSpace((Categorical(4),))
        codes = np.array([0, 1, 2, 3] * 10, dtype=float)
        z = np.isin(codes, [0, 2]).astype(int)
        forest = ForestClassifier(space, ForestConfig(n_trees=10, seed=0)).fit(labeled(codes, z))
        for code, expected in [(0, 1.0), (1, 0.0), (2, 1.0), (3, 0.0)]:
            assert forest.predict(np.array([float(code)])) == pytest.approx(expected)


class TestCalibratedForest:
    def test_platt_wrapper_built_from_oob(self):
        x, z = two_clusters(seed=4, n=60)
        clf = fit_forest_classifier(labeled(x, z), SPACE_1D,
                                    ForestConfig(seed=4, n_trees=30), calibration="platt")
        assert isinstance(clf, CalibratedClassifier)
        assert clf.predict(np.array([-3.0])) > clf.predict(np.array([3.0]))

    def test_isotonic_wrapper(self):
        x, z = two_clusters(seed=5, n=60)
        clf = fit_forest_classifier(labeled(x, z), SPACE_1D,
                                    ForestConfig(seed=5, n_trees=30), calibration="isotonic")
        assert 0.0 <= clf.predict(np.array([0.0])) <= 1.0

    def test_calibration_preserves_argmax_on_grid(self):
        x, z = two_clusters(seed=6, n=60)
        data = labeled(x, z)
        base = ForestClassifier(SPACE_1D, ForestConfig(seed=6, n_trees=30)).fit(data)
        platt = fit_forest_classifier(data, SPACE_1D, ForestConfig(seed=6, n_trees=30),
                                      calibration="platt")
        grid = np.linspace(-5, 5, 41)[:, None]
        assert np.argmax(base.predict_batch(grid)) == np.argmax(platt.predict_batch(grid))

    def test_unknown_calibration_rejected(self):
        x, z = two_clusters()
        with pytest.raises(ValueError):
            fit_forest_classifier(labeled(x, z), SPACE_1D, calibration="beta")
