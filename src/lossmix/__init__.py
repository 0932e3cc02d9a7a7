"""Joint gradient-based learning of loss-term mixture weights.

The library treats the weights of a multi-term training loss as learned
quantities: they are parameterized as a softmax over free exponents and
updated by the same gradient descent that trains the model, with an
entropy-plus-softplus regularizer keeping them bounded and spread. A
small experiment harness compares this against fixed-weight grid
searches on synthetic tasks with helpful and harmful auxiliary losses.
"""

from .config import ConfigError, ExperimentConfig, build_config, load_config
from .gradcheck import GradCheckReport, central_fd, check_hp_gradients, check_model_gradients, check_reg_gradients
from .harness import (
    GridSearchResult,
    InitSweepReport,
    RunResult,
    SeedStudyReport,
    TrajectoryRecord,
    export_results,
    import_results,
    normalize_weights,
    read_rows,
    run_grid_search,
    run_init_sweep,
    run_seed_study,
    run_training,
)
from .losses import (
    HPExponents,
    LossVector,
    LossWeights,
    composite_loss,
    hp_gradient_empirical,
    naive_exp_gradient,
    regularizer_gradient,
    regularizer_value,
    softmax_weights,
)
from .models import (
    ToyModelSpec,
    build_model,
    make_synthetic_dataset,
)
from .optim import (
    HPState,
    OptimizerConfig,
    ParamState,
    adamw_step,
    init_hp_state,
    init_param_state,
    schedule_multiplier,
    sgdw_step,
)

__version__ = "0.1.0"
