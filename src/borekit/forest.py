"""Random-forest probabilistic classifier with optional calibration.

Trees are grown CART-style on bootstrap resamples, splitting on Gini
impurity. Continuous and ordinal coordinates split by threshold; categorical
coordinates split by value-subset membership over their integer codes (the
optimal binary-outcome subset found by ordering codes on positive-class
fraction). Predicted probabilities are the mean over trees of leaf
positive-class fractions. Calibration, when requested, is fitted on
out-of-bag predictions so no held-out split is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibratedClassifier, isotonic_fit, platt_fit
from .space import Categorical, LabeledSet, SearchSpace

__all__ = ["ForestConfig", "ForestClassifier", "fit_forest_classifier"]


@dataclass
class ForestConfig:
    n_trees: int = 100
    min_samples_split: int = 2
    max_depth: int | None = None
    bootstrap: bool = True
    features_per_split: int | str = "all"  # "all", "sqrt", or an explicit count
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if isinstance(self.features_per_split, str) and self.features_per_split not in ("all", "sqrt"):
            raise ValueError("features_per_split must be 'all', 'sqrt', or an int")


class _Tree:
    """Flat-array decision tree. feature < 0 marks a leaf."""

    __slots__ = ("feature", "threshold", "subset", "left", "right", "value")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.subset: list[frozenset | None] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.subset.append(None)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def predict(self, x: np.ndarray) -> float:
        node = 0
        while self.feature[node] >= 0:
            j = self.feature[node]
            if self.subset[node] is not None:
                node = self.left[node] if int(x[j]) in self.subset[node] else self.right[node]
            else:
                node = self.left[node] if x[j] <= self.threshold[node] else self.right[node]
        return self.value[node]


def _best_threshold_split(col: np.ndarray, z: np.ndarray):
    """Best Gini threshold split on a numeric column, or None."""
    order = np.argsort(col, kind="stable")
    v = col[order]
    zz = z[order]
    n = len(v)
    valid = v[:-1] < v[1:]
    if not valid.any():
        return None
    cum = np.cumsum(zz)
    nl = np.arange(1, n)
    nr = n - nl
    pl = cum[:-1] / nl
    pr = (cum[-1] - cum[:-1]) / nr
    impurity = (nl * 2.0 * pl * (1.0 - pl) + nr * 2.0 * pr * (1.0 - pr)) / n
    impurity = np.where(valid, impurity, np.inf)
    i = int(np.argmin(impurity))
    # the midpoint of two adjacent doubles can round up to the larger one,
    # which would send the whole node left and never stop splitting
    mid = (v[i] + v[i + 1]) / 2.0
    return float(impurity[i]), (mid if mid < v[i + 1] else v[i])


def _best_subset_split(col: np.ndarray, z: np.ndarray, arity: int):
    """Best Gini value-subset split on a categorical column, or None.

    Ordering the observed codes by positive fraction reduces the subset
    search to prefix splits of that ordering, which is exact for binary
    labels.
    """
    codes = col.astype(int)
    counts = np.bincount(codes, minlength=arity).astype(float)
    pos = np.bincount(codes, weights=z, minlength=arity)
    present = np.flatnonzero(counts)
    if len(present) < 2:
        return None
    frac = pos[present] / counts[present]
    order = present[np.lexsort((present, frac))]
    cn = np.cumsum(counts[order])
    cp = np.cumsum(pos[order])
    n = cn[-1]
    nl = cn[:-1]
    nr = n - nl
    pl = cp[:-1] / nl
    pr = (cp[-1] - cp[:-1]) / nr
    impurity = (nl * 2.0 * pl * (1.0 - pl) + nr * 2.0 * pr * (1.0 - pr)) / n
    k = int(np.argmin(impurity))
    return float(impurity[k]), frozenset(int(c) for c in order[:k + 1])


def _grow_tree(X: np.ndarray, z: np.ndarray, cat_arity: dict[int, int],
               config: ForestConfig, rng: np.random.Generator) -> _Tree:
    n_features = X.shape[1]
    if config.features_per_split == "all":
        mtry = n_features
    elif config.features_per_split == "sqrt":
        mtry = max(1, int(np.sqrt(n_features)))
    else:
        mtry = min(int(config.features_per_split), n_features)

    tree = _Tree()
    root = tree._add()
    stack = [(root, np.arange(len(z)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        zn = z[idx]
        n = len(idx)
        n_pos = int(zn.sum())
        tree.value[node] = n_pos / n
        if (n < config.min_samples_split or n_pos in (0, n)
                or (config.max_depth is not None and depth >= config.max_depth)):
            continue

        if mtry == n_features:
            feats = range(n_features)
        else:
            feats = np.sort(rng.choice(n_features, size=mtry, replace=False))

        best = None  # (impurity, feature, threshold, subset)
        for j in feats:
            col = X[idx, j]
            if j in cat_arity:
                found = _best_subset_split(col, zn, cat_arity[j])
                if found is not None and (best is None or found[0] < best[0]):
                    best = (found[0], j, 0.0, found[1])
            else:
                found = _best_threshold_split(col, zn)
                if found is not None and (best is None or found[0] < best[0]):
                    best = (found[0], j, found[1], None)
        if best is None:
            continue

        _, j, threshold, subset = best
        if subset is not None:
            mask = np.isin(X[idx, j].astype(int), list(subset))
        else:
            mask = X[idx, j] <= threshold
        left = tree._add()
        right = tree._add()
        tree.feature[node] = j
        tree.threshold[node] = threshold
        tree.subset[node] = subset
        tree.left[node] = left
        tree.right[node] = right
        stack.append((right, idx[~mask], depth + 1))
        stack.append((left, idx[mask], depth + 1))
    return tree


class ForestClassifier:
    """Bagged ensemble of Gini decision trees predicting class-1 probability."""

    def __init__(self, space: SearchSpace, config: ForestConfig | None = None):
        self.space = space
        self.config = config or ForestConfig()
        self.trees: list[_Tree] = []
        self._in_bag: np.ndarray | None = None
        self._train: tuple[np.ndarray, np.ndarray] | None = None

    def fit(self, data: LabeledSet) -> "ForestClassifier":
        X = np.asarray(data.xs, dtype=float)
        z = np.asarray(data.zs, dtype=float)
        if len(np.unique(z)) < 2:
            raise ValueError("training data must contain both classes")
        if X.shape[1] != self.space.dim:
            raise ValueError("dimension mismatch between data and space")
        cat_arity = {j: d.arity for j, d in enumerate(self.space.dims) if isinstance(d, Categorical)}

        n = len(z)
        cfg = self.config
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
        self.trees = []
        self._in_bag = np.zeros((cfg.n_trees, n), dtype=bool)
        for t in range(cfg.n_trees):
            rng = np.random.default_rng(seeds[t])
            if cfg.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            self._in_bag[t, idx] = True
            self.trees.append(_grow_tree(X[idx], z[idx], cat_arity, cfg, rng))
        self._train = (X, z)
        return self

    def predict(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.space.dim,):
            raise ValueError("dimension mismatch")
        if not self.trees:
            raise ValueError("forest has not been fit")
        return float(np.mean([tree.predict(x) for tree in self.trees]))

    def predict_batch(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([self.predict(x) for x in X])

    def oob_scores(self) -> tuple[np.ndarray, np.ndarray]:
        """Out-of-bag scores and labels for samples left out by >= 1 tree."""
        if self._train is None:
            raise ValueError("forest has not been fit")
        X, z = self._train
        oob = ~self._in_bag
        scores, labels = [], []
        for i in range(len(z)):
            trees = np.flatnonzero(oob[:, i])
            if len(trees) == 0:
                continue
            scores.append(np.mean([self.trees[t].predict(X[i]) for t in trees]))
            labels.append(z[i])
        return np.asarray(scores), np.asarray(labels)


def fit_forest_classifier(data: LabeledSet, space: SearchSpace,
                          config: ForestConfig | None = None,
                          calibration: str = "none"):
    """Fit a forest, optionally wrapped in a Platt or isotonic calibrator.

    Calibrators are fitted on out-of-bag predictions when bootstrapping is
    on; otherwise (or if the out-of-bag slice is single-class) on in-sample
    predictions.
    """
    forest = ForestClassifier(space, config).fit(data)
    if calibration == "none":
        return forest
    if forest.config.bootstrap:
        scores, labels = forest.oob_scores()
        if len(np.unique(labels)) < 2:
            scores, labels = forest.predict_batch(data.xs), np.asarray(data.zs, dtype=float)
    else:
        scores, labels = forest.predict_batch(data.xs), np.asarray(data.zs, dtype=float)
    if calibration == "platt":
        return CalibratedClassifier(forest, "platt", platt_fit(scores, labels))
    if calibration == "isotonic":
        return CalibratedClassifier(forest, "isotonic", isotonic_fit(scores, labels))
    raise ValueError(f"unknown calibration method {calibration!r}")
