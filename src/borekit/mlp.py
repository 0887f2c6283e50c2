"""Feed-forward probabilistic classifier trained on the log loss with Adam.

The sigmoid output estimates the probability that a point's objective value
lands in the best-gamma fraction; rescaling it by 1/gamma recovers the
relative density-ratio, which is the acquisition maximized during
optimization. Fitting runs a fixed number of batch-gradient steps and
warm-starts from the current weights, so training effort per iteration stays
flat as the dataset grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import _sigmoid
from .space import Categorical, LabeledSet, SearchSpace

__all__ = ["MlpConfig", "MlpClassifier", "FeatureEncoder", "epochs_for_iteration"]


def epochs_for_iteration(steps: int, batch_size: int, n: int) -> tuple[int, int]:
    """Batches per epoch M = ceil(n / batch_size) and effective epochs E = floor(steps / M)."""
    if steps < 1 or batch_size < 1 or n < 1:
        raise ValueError("steps, batch_size and n must all be >= 1")
    m = math.ceil(n / batch_size)
    return m, steps // m


class FeatureEncoder:
    """Raw points to classifier features.

    Continuous coordinates are min-max scaled to [0, 1] from the space
    bounds; ordinal coordinates are their real values min-max scaled the
    same way; categorical coordinates are one-hot encoded over their codes.
    """

    def __init__(self, space: SearchSpace):
        self.space = space
        self._lo, self._hi = space.bounds()
        self.width = sum(d.arity if isinstance(d, Categorical) else 1 for d in space.dims)

    def transform(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.space.dim:
            raise ValueError(f"points have {X.shape[1]} coordinates, space has {self.space.dim}")
        cols = []
        for j, d in enumerate(self.space.dims):
            if isinstance(d, Categorical):
                onehot = np.zeros((len(X), d.arity))
                onehot[np.arange(len(X)), X[:, j].astype(int)] = 1.0
                cols.append(onehot)
            else:
                span = self._hi[j] - self._lo[j]
                cols.append(((X[:, j] - self._lo[j]) / span)[:, None])
        return np.hstack(cols)

    def continuous_scale(self) -> np.ndarray:
        """d(feature)/d(raw coordinate) for an all-continuous space."""
        if not self.space.all_continuous:
            raise ValueError("input gradients are defined for all-continuous spaces only")
        return 1.0 / (self._hi - self._lo)


@dataclass
class MlpConfig:
    hidden_widths: tuple = (32, 32)
    activation: str | None = None  # None: elu for spaces with <= 2 dims, relu otherwise
    batch_size: int = 64
    steps_per_iteration: int = 100
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        self.hidden_widths = tuple(int(w) for w in self.hidden_widths)
        if len(self.hidden_widths) < 1 or any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden_widths must be a non-empty tuple of positive ints")
        if self.batch_size < 1 or self.steps_per_iteration < 1:
            raise ValueError("batch_size and steps_per_iteration must be >= 1")
        if self.activation not in (None, "relu", "elu"):
            raise ValueError(f"unknown activation {self.activation!r}")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))


def _act_grad(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0).astype(float)
    return np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0)))


class MlpClassifier:
    """Small sigmoid-output network over encoded points.

    The output layer starts at zero so an untrained classifier predicts 0.5
    everywhere and the first suggestion is unbiased. Adam moments persist on
    the instance, so successive fits continue training rather than starting
    over.
    """

    def __init__(self, space: SearchSpace, config: MlpConfig | None = None):
        self.space = space
        self.config = config or MlpConfig()
        self.encoder = FeatureEncoder(space)
        self.activation = self.config.activation or ("elu" if space.dim <= 2 else "relu")
        self._rng = np.random.default_rng(self.config.seed)

        sizes = [self.encoder.width, *self.config.hidden_widths, 1]
        self._shapes = list(zip(sizes[:-1], sizes[1:]))
        self._flat = np.zeros(sum(fan_in * fan_out + fan_out for fan_in, fan_out in self._shapes))
        self.weights, self.biases = self._views(self._flat)
        for w in self.weights[:-1]:
            w[...] = self._rng.normal(0.0, 1.0 / np.sqrt(w.shape[0]), size=w.shape)

        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._t = 0

    def _views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a flat buffer: all weights, then all biases."""
        weights, biases, offset = [], [], 0
        for fan_in, fan_out in self._shapes:
            weights.append(flat[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out))
            offset += fan_in * fan_out
        for _, fan_out in self._shapes:
            biases.append(flat[offset:offset + fan_out])
            offset += fan_out
        return weights, biases

    # --- forward / predict -------------------------------------------------

    def _forward(self, feats: np.ndarray):
        pre, post = [], [feats]
        a = feats
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = a @ w + b
            a = _act(self.activation, z)
            pre.append(z)
            post.append(a)
        logits = (a @ self.weights[-1] + self.biases[-1])[:, 0]
        return logits, pre, post

    def logits(self, X) -> np.ndarray:
        return self._forward(self.encoder.transform(X))[0]

    def predict_batch(self, X) -> np.ndarray:
        p = _sigmoid(self.logits(X))
        return np.clip(p, 1e-12, 1.0 - 1e-12)

    def predict(self, x) -> float:
        return float(self.predict_batch(np.asarray(x, dtype=float)[None, :])[0])

    def input_gradient(self, x) -> np.ndarray:
        """Gradient of the predicted probability wrt raw coordinates."""
        scale = self.encoder.continuous_scale()
        x = np.asarray(x, dtype=float)
        feats = self.encoder.transform(x[None, :])
        logits, pre, post = self._forward(feats)
        d = self.weights[-1][:, 0][None, :]
        for w, z in zip(reversed(self.weights[:-1]), reversed(pre)):
            d = (d * _act_grad(self.activation, z)) @ w.T
        p = _sigmoid(logits)[0]
        return p * (1.0 - p) * d[0] * scale

    # --- loss / gradient ---------------------------------------------------

    def loss(self, data: LabeledSet) -> float:
        """Mean binary cross-entropy over the set, computed stably from logits."""
        if len(data) == 0:
            raise ValueError("loss of an empty set")
        logits = self.logits(data.xs)
        z = np.asarray(data.zs, dtype=float)
        return float(np.mean(np.logaddexp(0.0, logits) - z * logits))

    def gradient(self, X, z) -> np.ndarray:
        """Exact gradient of the mean log loss on the batch, laid out like the flat parameters."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        z = np.asarray(z, dtype=float)
        if len(z) == 0:
            raise ValueError("gradient of an empty batch")
        feats = self.encoder.transform(X)
        logits, pre, post = self._forward(feats)
        grad = np.empty_like(self._flat)
        grads_w, grads_b = self._views(grad)
        d = ((_sigmoid(logits) - z) / len(z))[:, None]
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i][...] = post[i].T @ d
            grads_b[i][...] = d.sum(axis=0)
            if i:
                d = (d @ self.weights[i].T) * _act_grad(self.activation, pre[i - 1])
        return grad

    # --- training ----------------------------------------------------------

    def _adam_step(self, grad: np.ndarray) -> None:
        c = self.config
        self._t += 1
        bias1 = 1.0 - c.beta1 ** self._t
        bias2 = 1.0 - c.beta2 ** self._t
        self._m = c.beta1 * self._m + (1.0 - c.beta1) * grad
        self._v = c.beta2 * self._v + (1.0 - c.beta2) * grad * grad
        self._flat -= c.learning_rate * (self._m / bias1) / (np.sqrt(self._v / bias2) + c.epsilon)

    def fit(self, data: LabeledSet, steps: int | None = None) -> float:
        """Run exactly ``steps`` Adam steps (default: the configured count) over
        mini-batches reshuffled every epoch, warm-starting from the current
        weights. Returns the full-set log loss after training."""
        z = np.asarray(data.zs, dtype=int)
        if len(np.unique(z)) < 2:
            raise ValueError("training data must contain both classes")
        steps = steps if steps is not None else self.config.steps_per_iteration
        X = np.asarray(data.xs, dtype=float)
        b = self.config.batch_size
        batches, _ = epochs_for_iteration(steps, b, len(z))
        for step in range(steps):
            k = step % batches
            if k == 0:
                order = self._rng.permutation(len(z))
            batch = order[k * b:(k + 1) * b]
            self._adam_step(self.gradient(X[batch], z[batch]))
        return self.loss(data)

    # --- introspection helpers ---------------------------------------------

    def get_flat_params(self) -> np.ndarray:
        return self._flat.copy()

    def set_flat_params(self, flat: np.ndarray) -> None:
        if np.shape(flat) != self._flat.shape:
            raise ValueError("flat parameter vector has the wrong length")
        self._flat[...] = flat
