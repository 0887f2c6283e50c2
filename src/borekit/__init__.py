"""borekit: blackbox optimization with classifier-based expected improvement.

The expected-improvement acquisition is proportional to the gamma-relative
density-ratio of good-versus-rest input densities, which in turn equals a
rescaled class-posterior probability. Optimization therefore proceeds by
training a probabilistic classifier on quantile-thresholded labels and
maximizing its output. The package provides MLP and random-forest
classifiers, a split-KDE (TPE-style) baseline, calibration wrappers,
acquisition maximizers, synthetic benchmarks, and a reproducible
experiment CLI.
"""

from .benchmarks import Benchmark, forrester, get_benchmark, grid_minimum, sinusoid_quadratic
from .calibration import CalibratedClassifier, IsotonicFit, isotonic_fit, platt_apply, platt_fit
from .forest import ForestClassifier, ForestConfig, fit_forest_classifier
from .kde import Kde, ToyMixture, normal_reference_bandwidth, tpe_suggest
from .loop import (
    BoreState,
    Problem,
    RunTrace,
    TraceRecord,
    bore_step,
    immediate_regret,
    run_bore,
    run_random_search,
    run_tpe,
    write_trace_csv,
)
from .maximizers import (
    DeParams,
    MaximizerBudget,
    maximize_de,
    maximize_gradient_multistart,
    maximize_random_search,
    suggest,
)
from .mlp import FeatureEncoder, MlpClassifier, MlpConfig, epochs_for_iteration
from .ratio import (
    DensityPair,
    GaussianPredictive,
    ei_gaussian,
    ei_monte_carlo,
    ei_proportionality_error,
    h_gamma,
    relative_ratio,
)
from .space import (
    Categorical,
    Continuous,
    LabeledSet,
    ObservationSet,
    Ordinal,
    SearchSpace,
    assign_labels,
    empirical_quantile,
    uniform_sample,
)

__version__ = "0.1.0"
