"""Multiple-kernel ridge regression for rolling time-series prediction.

Kernel ridge models with composite (convexly mixed) kernels, exact
hyperparameter gradients of the per-step prediction loss, an online
hyperparameter learning strategy with lazy projected updates, and the
classic rolling tuners (grid, random, offline gradient, fixed) to benchmark
against.
"""

from . import _compiled
from .data import Dataset, SyntheticConfig, TimeSeries, bin_series, build_features, generate_synthetic, load_csv
from .errors import ConfigError, DataError, NumericalError
from .kernels import (
    ArdKernel,
    CompositeKernel,
    PeriodicKernel,
    SquaredExpKernel,
    TimedPoint,
    cross_matrix,
    cross_vector,
    gram,
    gram_derivative,
)
from .model import (
    HyperParams,
    TrainedModel,
    fit,
    loss,
    loss_hyper_gradient,
    loss_hyper_gradient_batch,
    predict,
    predict_batch,
    theta_jacobian,
)
from .optim import (
    FeasibleSet,
    RegretTrace,
    lazy_step,
    project_C,
    project_box,
    project_simplex,
    projected_gradient,
    regret_update,
    variation_m,
)
from .tuners import (
    RunTrace,
    Schedule,
    Strategy,
    TunerConfig,
    fit_count_report,
    run,
    run_ohl,
    run_rolling,
    tune_grid,
    tune_offline_gradient,
    tune_random,
)

# process-wide: the rolling loop's freed working set stays on the heap
_compiled.keep_freed_heap()

__version__ = "0.1.0"
