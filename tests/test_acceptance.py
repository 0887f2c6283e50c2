"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (with its elapsed time) once its
assertions hold, so a plain ``pytest -s tests/test_acceptance.py`` doubles
as the acceptance report.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.stats import norm

import borekit as bk
from borekit.cli import main as cli_main
from borekit.mlp import MlpConfig
from borekit.space import Categorical, Continuous, LabeledSet, ObservationSet, SearchSpace, assign_labels

TOY_SPACE = SearchSpace((Continuous(-10.0, 10.0),))
GRID = np.linspace(-6.0, 6.0, 512)

# training setup for the exactly-known mixture (three hidden layers as in the
# reference demo; step budget sized for a single 1000-sample fit)
TOY_MLP = dict(hidden_widths=(32, 32, 32), activation="elu",
               steps_per_iteration=5000, learning_rate=3e-3)


def report(num, text, t0):
    print(f"\nACCEPTANCE {num:2d}: PASS ({time.perf_counter() - t0:.1f}s) - {text}")


def toy_labeled(n=1000, seed=0, gamma=0.25):
    toy = bk.ToyMixture(gamma=gamma)
    xs, zs = toy.sample(n, seed=seed)
    return toy, LabeledSet(xs=xs[:, None], zs=zs, tau=0.0, gamma=gamma)


def oracle_ratio_argmax(toy, gamma=0.25):
    values = np.array([toy.true_ratio(x, gamma) for x in GRID])
    return GRID[int(np.argmax(values))]


def test_01_ei_ratio_proportionality():
    t0 = time.perf_counter()
    toy = bk.ToyMixture()
    pair = bk.DensityPair(ell=toy.ell_pdf, g=toy.g_pdf)
    worst = 0.0
    for gamma in (0.25, 0.33, 0.5):
        err = bk.ei_proportionality_error(pair, norm.pdf, gamma, np.linspace(-6, 6, 64))
        worst = max(worst, err)
        assert err < 1e-3, f"gamma={gamma}: proportionality error {err:.2e}"
    report(1, f"EI vs relative ratio proportional, max rel err {worst:.1e} < 1e-3", t0)


def test_02_class_posterior_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n0, n1 = 60, 40
    x = np.concatenate([np.zeros(n0), np.ones(n1)])
    z = np.concatenate([(rng.random(n0) < 0.75).astype(int),
                        (rng.random(n1) < 0.2).astype(int)])
    gamma = z.mean()

    # pure-math half: the rescaled relative ratio of the exact conditional
    # frequencies equals the Bayes posterior to near machine precision
    for value in (0.0, 1.0):
        at_value = x == value
        ell = (z[at_value] == 1).sum() / (z == 1).sum()
        g = (z[at_value] == 0).sum() / (z == 0).sum()
        bayes = z[at_value].mean()
        assert abs(gamma * bk.relative_ratio(ell, g, gamma) - bayes) < 1e-12

    # trained-classifier half
    space = SearchSpace((Categorical(2),))
    clf = bk.MlpClassifier(space, MlpConfig(steps_per_iteration=3000, seed=0))
    clf.fit(LabeledSet(xs=x[:, None], zs=z, tau=0.0, gamma=gamma))
    worst = 0.0
    for value in (0.0, 1.0):
        bayes = z[x == value].mean()
        worst = max(worst, abs(clf.predict(np.array([value])) - bayes))
    assert worst < 0.02
    report(2, f"class posterior matches Bayes oracle within {worst:.3f} < 0.02", t0)


def test_03_log_loss_optimum_recovers_ratio_argmax():
    t0 = time.perf_counter()
    toy = bk.ToyMixture()
    oracle_x = oracle_ratio_argmax(toy)
    mlp_devs, kde_devs = [], []
    for seed in range(10):
        toy_, data = toy_labeled(seed=seed)
        clf = bk.MlpClassifier(TOY_SPACE, MlpConfig(seed=seed, **TOY_MLP))
        clf.fit(data)
        ratio_est = clf.predict_batch(GRID[:, None]) / 0.25
        mlp_devs.append(abs(GRID[int(np.argmax(ratio_est))] - oracle_x))

        xs = data.xs[:, 0]
        kde_l = bk.Kde(TOY_SPACE, xs[data.zs == 1][:, None])
        kde_g = bk.Kde(TOY_SPACE, xs[data.zs == 0][:, None])
        ratio0 = kde_l.pdf_batch(GRID[:, None]) / (kde_g.pdf_batch(GRID[:, None]) + 1e-12)
        kde_devs.append(abs(GRID[int(np.argmax(ratio0))] - oracle_x))
    mlp_med, kde_med = np.median(mlp_devs), np.median(kde_devs)
    assert mlp_med <= 0.2, f"classifier argmax deviation {mlp_med:.3f}"
    assert kde_med > mlp_med, f"kde {kde_med:.3f} should deviate more than mlp {mlp_med:.3f}"
    report(3, f"argmax dev: classifier {mlp_med:.3f} <= 0.2 < kde {kde_med:.3f}", t0)


def test_04_boundedness_and_singularity():
    t0 = time.perf_counter()
    bound = 4.0  # 1/gamma at gamma = 1/4
    kde_maxes = []
    for seed in range(5):
        toy, data = toy_labeled(seed=seed)
        xs = data.xs[:, 0]
        kde_l = bk.Kde(TOY_SPACE, xs[data.zs == 1][:, None])
        kde_g = bk.Kde(TOY_SPACE, xs[data.zs == 0][:, None])
        ratio0 = kde_l.pdf_batch(GRID[:, None]) / (kde_g.pdf_batch(GRID[:, None]) + 1e-12)
        kde_maxes.append(ratio0.max())
        assert ratio0.max() > bound, f"seed {seed}: kde ordinary ratio stayed bounded"

    _, data = toy_labeled(seed=0)
    mlp = bk.MlpClassifier(TOY_SPACE, MlpConfig(seed=0, **TOY_MLP))
    mlp.fit(data)
    forest = bk.fit_forest_classifier(data, TOY_SPACE, bk.ForestConfig(seed=0))
    for clf in (mlp, forest):
        est = clf.predict_batch(GRID[:, None]) / 0.25
        assert est.max() <= bound + 1e-9
    report(4, f"classifier estimates <= 4; kde ordinary ratio max {min(kde_maxes):.1f} > 4", t0)


def test_05_gaussian_ei_cross_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        pred = bk.GaussianPredictive(mu=float(rng.uniform(-3, 3)),
                                     sigma=float(rng.uniform(0.2, 3.0)))
        # threshold within +-3 sigma of the mean: beyond that the improvement
        # event is too rare for 1e6 samples and the stderr itself degenerates
        tau = pred.mu + pred.sigma * float(rng.uniform(-3, 3))
        est, se = bk.ei_monte_carlo(pred, tau, 10**6, seed=int(rng.integers(2**32)))
        closed = bk.ei_gaussian(pred, tau)
        assert abs(est - closed) <= 3 * se, (pred, tau)
    report(5, "Monte Carlo EI within 3 stderr of closed form for 50 settings", t0)


def test_06_epoch_schedule():
    t0 = time.perf_counter()
    assert bk.epochs_for_iteration(800, 64, 512) == (8, 100)
    for n in (1, 16, 63, 64):
        assert bk.epochs_for_iteration(800, 64, n) == (1, 800)
    report(6, "training-step schedule gives E=100 at N=512 and E=800 for N<=64", t0)


def test_07_label_flip_invariant():
    t0 = time.perf_counter()
    for gamma in (0.25, 1 / 3, 0.5):
        rng = np.random.default_rng(int(gamma * 1000))
        ys = list(rng.normal(size=2))
        xs = [[float(i)] for i in range(2)]
        prev = assign_labels(ObservationSet(xs, ys), gamma).zs
        for step in range(500):
            ys.append(float(rng.normal()))
            xs.append([float(len(ys))])
            cur = assign_labels(ObservationSet(xs, ys), gamma).zs
            flips = int(np.sum(prev != cur[:-1]))
            assert flips <= 1, f"gamma={gamma}, step={step}: {flips} labels flipped"
            prev = cur
    report(7, "appending one observation never flips more than one label", t0)


def test_08_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(20):
        width = int(rng.integers(2, 16))
        depth = int(rng.integers(1, 4))
        act = ["elu", "relu"][trial % 2]
        dim = int(rng.integers(1, 4))
        space = SearchSpace(tuple(Continuous(-1.0, 1.0) for _ in range(dim)))
        clf = bk.MlpClassifier(space, MlpConfig(hidden_widths=(width,) * depth,
                                                activation=act, seed=trial))
        clf.set_flat_params(rng.normal(0, 0.5, clf.get_flat_params().shape))
        X = rng.uniform(-1, 1, size=(6, dim))
        z = rng.integers(0, 2, 6)
        data = LabeledSet(xs=X, zs=z, tau=0.0, gamma=0.5)
        grads = clf.gradient(X, z)

        flat = clf.get_flat_params().copy()
        fd = np.zeros_like(flat)
        h = 1e-5
        for i in range(flat.size):
            up = flat.copy()
            up[i] += h
            clf.set_flat_params(up)
            hi = clf.loss(data)
            up[i] -= 2 * h
            clf.set_flat_params(up)
            lo = clf.loss(data)
            fd[i] = (hi - lo) / (2 * h)
        clf.set_flat_params(flat)
        # floor guards entries buried in the oracle's cancellation noise
        err = np.max(np.abs(grads - fd) / np.maximum(np.abs(fd), 1e-6))
        worst = max(worst, err)
        assert err < 1e-4, f"trial {trial}: gradient error {err:.2e}"
    report(8, f"backprop matches finite differences, worst rel err {worst:.1e} < 1e-4", t0)


def test_09_isotonic_matches_exhaustive_oracle():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        scores = np.arange(n, dtype=float)
        for labels in itertools.product([0, 1], repeat=n):
            fit = bk.isotonic_fit(scores, np.array(labels, dtype=float))
            best_sse, best_fit = np.inf, None
            for cuts in itertools.product([False, True], repeat=n - 1):
                bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
                blocks = list(zip(bounds, bounds[1:]))
                means = [np.mean(labels[a:b]) for a, b in blocks]
                if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
                    continue
                vals = np.concatenate([np.full(b - a, m) for (a, b), m in zip(blocks, means)])
                sse = float(np.sum((vals - np.array(labels)) ** 2))
                if sse < best_sse - 1e-15:
                    best_sse, best_fit = sse, vals
            assert np.allclose(fit.predict(scores), best_fit, atol=1e-12), (n, labels)
            checked += 1
    report(9, f"PAV equals the exhaustive monotone fit on all {checked} instances", t0)


def test_10_end_to_end_ordering():
    t0 = time.perf_counter()
    summary = []
    for name in ("forrester", "sinusoid"):
        bench = bk.get_benchmark(name)
        problem = bk.Problem(objective=lambda x: bench.fn(float(x[0])), space=bench.space,
                             known_minimum=bench.minimum_value, noise_std=bench.noise_std)
        n_evals = 4 + 30
        # desk-scale training budget: 30 iterations instead of the reference
        # experiments' hundreds, so the per-iteration step count is raised
        mlp_cfg = MlpConfig(steps_per_iteration=400)
        medians = {}
        for method, runner in [
            ("bore-mlp", lambda s: bk.run_bore(problem, n_init=4, n_iterations=30,
                                               seed=s, mlp_config=mlp_cfg)),
            ("tpe", lambda s: bk.run_tpe(problem, n_init=4, n_iterations=30, seed=s)),
            ("random", lambda s: bk.run_random_search(problem, n_evals, seed=s)),
        ]:
            medians[method] = float(np.median([runner(seed).final_regret()
                                               for seed in range(20)]))
        assert medians["bore-mlp"] <= medians["tpe"] <= medians["random"], (name, medians)
        assert medians["bore-mlp"] < 0.3, (name, medians)
        summary.append(f"{name}: mlp {medians['bore-mlp']:.4f} <= tpe {medians['tpe']:.4f}"
                       f" <= rs {medians['random']:.4f}")
    report(10, "; ".join(summary), t0)


def test_11_run_determinism(tmp_path):
    t0 = time.perf_counter()
    for method, extra in [("bore-mlp", {"classifier": {"steps_per_iteration": 400}}),
                          ("tpe", {}),
                          ("random", {})]:
        outs = []
        for run in range(2):
            out = tmp_path / f"{method}-{run}"
            config = {"benchmark": "forrester", "method": method, "n_iterations": 8,
                      "seeds": [0, 1, 2], "output_dir": str(out), **extra}
            cfg_path = tmp_path / f"{method}-{run}.json"
            cfg_path.write_text(json.dumps(config))
            assert cli_main(["run", "--config", str(cfg_path)]) == 0
            outs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert outs[0] == outs[1], f"{method}: outputs differ between executions"
    report(11, "repeated runs reproduce byte-identical trace and aggregate CSVs", t0)
