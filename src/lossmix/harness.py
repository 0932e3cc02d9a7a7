"""Experiment drivers: training runs, grids, seed studies, init sweeps.

Every run is a deterministic function of (config, seed): the run seed
drives parameter initialization and batch shuffling, the data seed the
dataset. Every driver makes one call to the same engine, which trains
all of its runs together on a leading run axis; a single run is a stack
of one. Fixed-weight runs skip the exponent gradient, the regularizer
and the exponents' optimizer step, so their weights never move; this
makes a one-point grid bitwise identical to a fixed run.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, with_epsilon
from .losses import _regularizer_value, _softmax, _softmax_gradient
from .models import BatchSampler, build_model, make_synthetic_dataset
from .optim import _adam, _advance, _momentum, init_hp_state

# imported only as the lookup points bench/tracing.py wraps; the engine calls the array kernels
from .losses import hp_gradient_empirical, regularizer_value, softmax_weights
from .optim import adamw_step, sgdw_step

__all__ = [
    "TrajectoryRecord",
    "RunResult",
    "TrainingDiverged",
    "GridPointResult",
    "GridSearchResult",
    "SeedStudyReport",
    "InitSweepReport",
    "run_training",
    "run_grid_search",
    "run_seed_study",
    "run_init_sweep",
    "export_results",
    "import_results",
    "read_rows",
    "trajectory_columns",
    "normalize_weights",
]

# beyond this magnitude exp(mu) under/overflows and the weight mapping degenerates
MU_LIMIT = 700.0
NON_FINITE_LOSS = "non-finite loss"
NON_FINITE_STATE = "non-finite state after update"
OUT_OF_RANGE = "exponent left the representable range"


class TrainingDiverged(RuntimeError):
    """A run's losses or updated state became unusable at ``step``."""

    def __init__(self, step: int, what: str):
        super().__init__(f"training diverged at step {step}: {what}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One trajectory row, read as named fields: a snapshot taken after an update step.

    ``losses`` are the per-term batch means computed during that step
    (at the pre-update parameters); ``mu``/``lam`` are the post-update
    exponents and weights; ``composite`` and ``regularizer`` are the
    two objective parts evaluated at the recorded state.
    """

    t: int
    mu: np.ndarray
    lam: np.ndarray
    losses: np.ndarray
    composite: float
    regularizer: float
    val_basic_loss: float

    @classmethod
    def from_row(cls, row: np.ndarray) -> "TrajectoryRecord":
        """The record of one row in :func:`trajectory_columns` order."""
        k = (row.size - 4) // 3
        mu, lam, losses = (row[1 + i * k : 1 + (i + 1) * k].copy() for i in range(3))
        return cls(int(row[0]), mu, lam, losses, *(float(v) for v in row[-3:]))


@dataclass
class RunResult:
    """Outcome of a single training run.

    ``rows`` is the run's trajectory, one row per recorded step, with its
    columns in :func:`trajectory_columns` order; everything about the
    trajectory is read off it. ``wall_time`` is the wall time of the
    stack the run was trained in.
    """

    seed: int
    mode: str
    fixed_weights: np.ndarray | None
    initial_mu: np.ndarray
    rows: np.ndarray  # (T, C)
    diverged: bool
    diverged_step: int | None
    diverged_reason: str | None
    wall_time: float

    @property
    def trajectory(self) -> list[TrajectoryRecord]:
        return [TrajectoryRecord.from_row(row) for row in self.rows]

    @property
    def final(self) -> TrajectoryRecord | None:
        return TrajectoryRecord.from_row(self.rows[-1]) if len(self.rows) else None

    @property
    def final_val(self) -> float:
        return float(self.rows[-1, -1]) if len(self.rows) else math.inf

    @property
    def best_val(self) -> float:
        return self._best()[0]

    @property
    def best_val_step(self) -> int:
        return self._best()[1]

    def _best(self) -> tuple[float, int]:
        """The lowest finite validation loss and its step, the first one on a tie; (inf, 0) if none."""
        val = np.where(self.rows[:, -1] < math.inf, self.rows[:, -1], math.inf)  # NaN -> inf
        i = int(np.argmin(val)) if val.size else 0
        return (float(val[i]), int(self.rows[i, 0])) if val.size and val[i] < math.inf else (math.inf, 0)


def normalize_weights(raw) -> np.ndarray:
    """Scale strictly positive raw weights to sum to one."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size < 2:
        raise ValueError("raw weights must be a vector of length >= 2")
    if not np.all(np.isfinite(raw)) or np.any(raw <= 0.0):
        raise ValueError("raw weights must be finite and strictly positive")
    return raw / raw.sum()


def _start(config: ExperimentConfig, n_terms: int) -> tuple[np.ndarray, np.ndarray | None]:
    """A run's initial exponents, and its normalized weights when they are fixed."""
    if config.mode == "learned":
        return init_hp_state(n_terms - 1, config.optimizer.init_epsilon).mu.mu, None
    lam = normalize_weights(config.fixed_weights)
    if lam.size != n_terms:
        raise ConfigError(f"{lam.size} fixed weights for {n_terms} loss terms")
    mu0 = np.log(lam / lam[0])
    mu0[0] = 0.0
    return mu0, lam


# the settings the rows of one stack may differ in; every other one is read from the first row
PER_ROW_SETTINGS = ("seeds", "fixed_weights", "optimizer.init_epsilon")


def _settings(config: ExperimentConfig) -> dict:
    """Every setting of ``config`` by field name, the nested specs' as ``model.x`` and ``optimizer.x``."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name in ("model", "optimizer"):
            out.update((f"{f.name}.{g.name}", getattr(value, g.name)) for g in fields(value))
        else:
            out[f.name] = value
    return out


def _check_shared(configs: list[ExperimentConfig]) -> None:
    """Raise ``ConfigError`` naming a setting, other than the per-row ones, on which two rows differ."""
    first = _settings(configs[0])
    for config in configs[1:]:
        if config is configs[0]:
            continue
        for name, value in _settings(config).items():
            # ``is`` first: a NaN setting shared by two rows is the same object but not equal to itself
            if name not in PER_ROW_SETTINGS and not (value is first[name] or value == first[name]):
                raise ConfigError(
                    f"the runs of one stack may differ only in {', '.join(PER_ROW_SETTINGS)}; "
                    f"they differ in {name} ({first[name]!r} and {value!r})"
                )


def _train_stack(configs: list[ExperimentConfig], seeds: list[int]) -> list[RunResult]:
    """Train one run per (config, seed) pair, all of them together.

    The runs sit on a leading axis, and their state is plain arrays:
    ``w, m, v`` of shape ``(R, P)``, ``mu, n, u`` of shape ``(R, K+1)``,
    and the weights ``lam``, computed once per exponent state. The runs
    may differ in seed, ``fixed_weights`` and ``init_epsilon``; a
    difference in any other setting is a ``ConfigError``. Each step
    gathers a mini-batch per run from the model's design of the training
    split (built once), evaluates the per-term losses and the parameter
    gradient under ``lam`` in one forward pass and, in learned mode, the
    exponent gradient, then applies the joint update (``optim._advance``;
    to the parameters alone in fixed mode). The loop builds no value
    object and re-checks no input; ``_faults`` checks each new state.
    Each run's generator draws its initial parameters and then its
    epochs' permutations, several epochs per draw (``BatchSampler``), as
    it would alone. Validation (only the basic loss, on the held-out
    split) is evaluated at every recorded step.

    A run whose losses or new state are unusable at step t diverges at
    t: it leaves the stack with its partial trajectory and reason, and
    the other runs carry on.
    """
    _check_shared(configs)
    config = configs[0]
    ocfg = config.optimizer
    model = build_model(config.model)
    train, val = make_synthetic_dataset(config.model, config.data_seed, config.n_train, config.n_val)
    n_terms = len(model.loss_names)
    starts = [_start(c, n_terms) for c in configs]

    rngs = [np.random.default_rng(seed) for seed in seeds]
    w = np.stack([model.init_params(rng) for rng in rngs])
    mu0 = np.stack([mu for mu, _ in starts])
    state = (w, np.zeros_like(w), np.zeros_like(w), mu0, np.zeros_like(mu0), np.zeros_like(mu0))  # w, m, v, mu, n, u
    learned = config.mode == "learned"
    rho = ocfg.hp_decay if learned else 0.0  # a fixed run records no regularizer
    moments = _momentum if config.optimizer_kind == "sgdw" else _adam
    sampler = BatchSampler(model.design(train), config.batch_size, rngs)
    lam = _softmax(mu0)

    live = np.arange(len(seeds))  # the stack's rows, as indices into ``seeds``
    n_records = -(-ocfg.total_steps // config.record_every)
    traj = np.empty((len(seeds), n_records, len(trajectory_columns(n_terms))))  # (R, T, C)
    k = 0  # record steps so far; a run that stops keeps the first k rows of its ``traj``
    stopped: dict[int, tuple[int, str, int]] = {}  # run -> (step, reason, k)
    started = time.perf_counter()

    with np.errstate(all="ignore"):  # a diverging run overflows; the checks below catch it
        for t in range(1, ocfg.total_steps + 1):
            batch = sampler.next_batch()
            lvals, g = model.losses_and_gradient(state[0], batch, lam)
            h = _softmax_gradient(lam, lvals) if learned else None  # None freezes the exponents
            state = _advance(moments, state, g, h, lam, t, ocfg)

            faults = _faults(lvals, state[0], state[3])
            if faults is not None:
                keep = np.array([fault is None for fault in faults])
                stopped.update((int(r), (t, fault, k)) for r, fault in zip(live, faults) if fault)
                live = live[keep]
                if not live.size:
                    break
                sampler.keep(keep)
                state = tuple(a[keep] for a in state)
                lvals, lam = lvals[keep], lam[keep]
            if learned:
                lam = _softmax(state[3])

            if t % config.record_every == 0 or t == ocfg.total_steps:
                w, mu = state[0], state[3]
                val_basic = model.basic_loss(w, val)
                reg = rho * _regularizer_value(lam, mu) if rho else np.zeros(live.size)
                composite = (lam * lvals).sum(axis=-1)
                block = (np.full(live.size, t), mu, lam, lvals, composite, reg, val_basic)
                traj[live, k] = np.column_stack(block)
                k += 1

    wall = time.perf_counter() - started
    return [
        RunResult(
            seed=seed,
            mode=config.mode,
            fixed_weights=fixed,
            initial_mu=mu0[r].copy(),
            rows=traj[r, : stopped[r][2] if r in stopped else k],
            diverged=r in stopped,
            diverged_step=stopped[r][0] if r in stopped else None,
            diverged_reason=stopped[r][1] if r in stopped else None,
            wall_time=wall,
        )
        for r, (seed, (_, fixed)) in enumerate(zip(seeds, starts))
    ]


def _faults(lvals: np.ndarray, w: np.ndarray, mu: np.ndarray) -> list[str | None] | None:
    """Per run, why it diverged at this step (None if it did not); None when no run did.

    A non-finite loss comes first, then a non-finite state, then an exponent past ``MU_LIMIT``.
    """
    all_, max_ = np.logical_and.reduce, np.maximum.reduce  # what ndarray.all and .max call, minus the wrapper
    # the usual case, checked over the whole stack at once; a NaN exponent fails the range test
    if (
        all_(np.isfinite(w), axis=None)
        and max_(np.abs(mu), axis=None) <= MU_LIMIT
        and all_(np.isfinite(lvals), axis=None)
    ):
        return None
    loss_ok = all_(np.isfinite(lvals), axis=-1)
    finite = all_(np.isfinite(w), axis=-1) & all_(np.isfinite(mu), axis=-1)
    in_range = max_(np.abs(mu), axis=-1) <= MU_LIMIT
    return [
        NON_FINITE_LOSS if not loss else NON_FINITE_STATE if not state else OUT_OF_RANGE if not rng else None
        for loss, state, rng in zip(loss_ok, finite, in_range)
    ]


def run_training(config: ExperimentConfig, seed: int) -> RunResult:
    """Run the full training loop for one seed: a stack of one run.

    Divergence flags the run and preserves the partial trajectory
    instead of raising.
    """
    return _train_stack([config], [seed])[0]


def _sample_std(vals: np.ndarray) -> float:
    """Sample standard deviation (ddof 1) of final vals; 0 for one, NaN for none.

    The values are divided by a power of two near the largest |value|
    before squaring, so huge but finite losses give a finite std instead
    of an overflow. Scaling by a power of two is exact, so wherever the
    unscaled squares neither overflow nor underflow the result is
    bitwise the same as ``vals.std(ddof=1)``.
    """
    if vals.size < 2:
        return 0.0 if vals.size else math.nan
    scale = math.ldexp(1.0, math.frexp(float(np.abs(vals).max()))[1] - 1)
    return scale * float((vals / scale).std(ddof=1))


@dataclass
class GridPointResult:
    """All seeds of one fixed-weight grid point."""

    raw_point: tuple[float, ...]
    lam: np.ndarray
    runs: list[RunResult]

    @property
    def final_vals(self) -> np.ndarray:
        return np.array([r.final_val for r in self.runs if not r.diverged])

    @property
    def mean_val(self) -> float:
        vals = self.final_vals
        return float(vals.mean()) if vals.size else math.inf

    @property
    def std_val(self) -> float:
        return _sample_std(self.final_vals)


@dataclass
class GridSearchResult:
    points: list[GridPointResult]
    seeds: tuple[int, ...]

    @property
    def best_index(self) -> int | None:
        """The point with the lowest mean final val; None when no point has a finite mean."""
        means = np.array([p.mean_val for p in self.points])
        return int(np.argmin(means)) if np.isfinite(means).any() else None

    @property
    def best_point(self) -> GridPointResult | None:
        best = self.best_index
        return None if best is None else self.points[best]


def grid_points(config: ExperimentConfig) -> list[tuple[float, ...]]:
    """Raw weight vectors of the configured grid.

    The cartesian product of the per-auxiliary-axis raw weight values,
    with the basic weight pinned at 1.
    """
    if not config.grid_axes:
        raise ConfigError("grid search requires grid_axes")
    return [(1.0,) + combo for combo in itertools.product(*config.grid_axes)]


def run_grid_search(config: ExperimentConfig) -> GridSearchResult:
    """One fixed-weight run per grid point per seed, all in one stack; divergence is recorded, not fatal."""
    raws = grid_points(config)
    if not raws:
        raise ConfigError("grid is empty")
    seeds = tuple(config.seeds)
    runs = _train_stack(
        [replace(config, mode="fixed", fixed_weights=raw) for raw in raws for _ in seeds],
        [seed for _ in raws for seed in seeds],
    )
    points = [
        GridPointResult(raw, normalize_weights(raw), runs[i * len(seeds) : (i + 1) * len(seeds)])
        for i, raw in enumerate(raws)
    ]
    return GridSearchResult(points=points, seeds=seeds)


@dataclass
class SeedStudyReport:
    """Cross-seed stability of one configuration.

    The statistics cover the runs that did not diverge; a diverged run
    has no final state to compare. With none left they are NaN.
    """

    seeds: tuple[int, ...]
    runs: list[RunResult]
    final_mu: np.ndarray        # (n_kept_seeds, n_terms)
    final_vals: np.ndarray
    mu_spread_final: np.ndarray  # per exponent: max pairwise |difference| at the end
    mu_range: np.ndarray         # per exponent: range traversed over all runs, incl. init
    step_spread_max: np.ndarray  # per exponent: worst cross-seed spread at any recorded step

    @property
    def val_mean(self) -> float:
        return float(self.final_vals.mean()) if self.final_vals.size else math.nan

    @property
    def val_std(self) -> float:
        return _sample_std(self.final_vals)


def run_seed_study(config: ExperimentConfig, seeds=None) -> SeedStudyReport:
    """Run one configuration across seeds, in one stack, and measure trajectory spread."""
    seeds = tuple(seeds if seeds is not None else config.seeds)
    if len(seeds) < 2:
        raise ConfigError("seed study needs at least 2 seeds")
    runs = _train_stack([config] * len(seeds), list(seeds))
    kept = [r for r in runs if not r.diverged]
    n_terms = runs[0].initial_mu.size
    # kept runs share the record steps, the last of which is the final step
    all_mu = np.array([r.rows[:, 1 : n_terms + 1] for r in kept] or np.empty((0, 1, n_terms)))  # (S, T, K+1)
    final_mu = all_mu[:, -1]
    final_vals = np.array([r.final_val for r in kept])
    if kept:
        spread_final = np.ptp(final_mu, axis=0)
        inits = np.array([r.initial_mu for r in kept])[:, None]
        mu_range = np.ptp(np.concatenate([inits, all_mu], axis=1), axis=(0, 1))
        step_spread = np.ptp(all_mu, axis=0).max(axis=0)
    else:
        spread_final = mu_range = step_spread = np.full(n_terms, math.nan)

    return SeedStudyReport(
        seeds=seeds,
        runs=runs,
        final_mu=final_mu,
        final_vals=final_vals,
        mu_spread_final=spread_final,
        mu_range=mu_range,
        step_spread_max=step_spread,
    )


@dataclass
class InitSweepEntry:
    epsilon: float
    seed: int
    final_mu: np.ndarray
    final_lam: np.ndarray
    final_val: float
    diverged: bool


@dataclass
class InitSweepReport:
    """Convergence endpoints across initialization scales.

    Endpoints are compared in weight space: a rejected term's exponent
    keeps drifting toward minus infinity while its weight is already
    pinned at zero, so weight vectors identify convergence points where
    raw exponent distances would not. Clustering is greedy: an endpoint
    joins the first cluster whose representative (its first member)
    lies within ``threshold`` in max-norm over the weights, otherwise
    it opens a new cluster.
    """

    entries: list[InitSweepEntry]
    runs: list[RunResult]
    clusters: list[list[int]]
    representatives: list[np.ndarray]
    threshold: float

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def run_init_sweep(config: ExperimentConfig, epsilons=None, seed=None) -> InitSweepReport:
    """One learned-mode run per initialization scale, all in one stack, endpoints clustered."""
    epsilons = tuple(epsilons if epsilons is not None else config.epsilon_sweep)
    if len(epsilons) < 2:
        raise ConfigError("init sweep needs at least 2 epsilon values")
    seed = config.seeds[0] if seed is None else seed
    base = replace(config, mode="learned")
    results = _train_stack([with_epsilon(base, eps) for eps in epsilons], [seed] * len(epsilons))

    entries = []
    for eps, result in zip(epsilons, results):
        final = result.final
        final_mu = final.mu if final is not None else result.initial_mu
        final_lam = final.lam if final is not None else _softmax(final_mu)
        entries.append(
            InitSweepEntry(
                epsilon=float(eps),
                seed=seed,
                final_mu=final_mu,
                final_lam=final_lam,
                final_val=result.final_val,
                diverged=result.diverged,
            )
        )

    clusters: list[list[int]] = []
    reps: list[np.ndarray] = []
    for i, entry in enumerate(entries):
        for j, rep in enumerate(reps):
            if float(np.max(np.abs(entry.final_lam - rep))) <= config.cluster_threshold:
                clusters[j].append(i)
                break
        else:
            clusters.append([i])
            reps.append(entry.final_lam)
    return InitSweepReport(
        entries=entries, runs=results, clusters=clusters, representatives=reps, threshold=config.cluster_threshold
    )


# ---------------------------------------------------------------------------
# trajectory export / import

def trajectory_columns(n_terms: int) -> list[str]:
    return (
        ["t"]
        + [f"mu_{i}" for i in range(n_terms)]
        + [f"lambda_{i}" for i in range(n_terms)]
        + [f"l_{i}" for i in range(n_terms)]
        + ["L_e", "L_r", "val_basic_loss"]
    )


def export_results(rows, fmt: str, path) -> Path:
    """Write trajectory rows, a ``(T, C)`` array, to CSV or JSON with the fixed schema.

    Column order: t, mu_0..mu_K, lambda_0..lambda_K, l_0..l_K, L_e, L_r,
    val_basic_loss; C fixes K, so an empty trajectory still gets its
    header. Floats are written with round-trip precision.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    rows = np.asarray(rows, dtype=np.float64)
    columns = trajectory_columns((rows.shape[-1] - 4) // 3)
    if rows.ndim != 2 or rows.shape[1] != len(columns):
        raise ValueError(f"trajectory rows must be a (T, 3 * n_terms + 4) array, got shape {rows.shape}")
    table = [[int(row[0])] + row[1:].tolist() for row in rows]
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            if fmt == "csv":  # str() of a float is its repr
                writer = csv.writer(fh)
                writer.writerow(columns)
                writer.writerows(table)
            else:
                json.dump([dict(zip(columns, values)) for values in table], fh, indent=2)
    except OSError as exc:
        raise OSError(f"cannot write {fmt} trajectory to {path}: {exc}") from exc
    return path


def read_rows(path, fmt: str | None = None) -> np.ndarray:
    """The ``(T, C)`` rows of a trajectory file written by :func:`export_results`.

    A header-only CSV gives ``(0, C)``; an empty JSON list has no header
    and gives ``(0, 0)``.
    """
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    try:
        if fmt == "csv":
            with path.open(newline="") as fh:
                columns, *table = list(csv.reader(fh)) or [[]]
        else:
            payload = json.loads(path.read_text())
            if not (isinstance(payload, list) and all(isinstance(rec, dict) for rec in payload)):
                raise ValueError(f"a JSON trajectory must be a list of objects, got {payload!r:.80}")
            if not payload:
                return np.empty((0, 0))
            columns = list(payload[0])
            table = [[rec.get(c) for c in columns] for rec in payload]
    except OSError as exc:
        raise OSError(f"cannot read trajectory from {path}: {exc}") from exc
    if columns != trajectory_columns((len(columns) - 4) // 3):
        raise ValueError(f"unexpected trajectory columns {columns!r}")
    for row in table:
        if len(row) != len(columns):
            raise ValueError(f"trajectory row has {len(row)} values for {len(columns)} columns")
    try:
        return np.array([[float(v) for v in row] for row in table]).reshape(len(table), len(columns))
    except TypeError as exc:  # a JSON record without a column, or a null, list or object where a number belongs
        raise ValueError(f"missing or non-numeric trajectory value: {exc}") from exc


def import_results(path, fmt: str | None = None) -> list[TrajectoryRecord]:
    """Read a trajectory file written by :func:`export_results` as records."""
    return [TrajectoryRecord.from_row(row) for row in read_rows(path, fmt)]


# ---------------------------------------------------------------------------
# plain-dict summaries (JSON-ready, used by the CLI)

def _jsonable(value):
    """``value`` ready for ``json.dump``: arrays and tuples as lists, non-finite floats as None."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):  # np.float64 included
        return float(value) if math.isfinite(value) else None
    return value


def run_summary(result: RunResult) -> dict:
    final = result.final
    return _jsonable({
        "seed": result.seed,
        "mode": result.mode,
        "fixed_weights": result.fixed_weights,
        "initial_mu": result.initial_mu,
        "steps_recorded": len(result.rows),
        "final_step": final.t if final else None,
        "final_mu": final.mu if final else None,
        "final_lambda": final.lam if final else None,
        "final_val_basic_loss": final.val_basic_loss if final else None,
        "best_val_basic_loss": result.best_val,
        "best_val_step": result.best_val_step,
        "diverged": result.diverged,
        "diverged_step": result.diverged_step,
        "diverged_reason": result.diverged_reason,
        "wall_time_sec": result.wall_time,
    })


def grid_summary(result: GridSearchResult) -> dict:
    return _jsonable({
        "seeds": result.seeds,
        "points": [
            {
                "raw_point": p.raw_point,
                "lambda": p.lam,
                "per_seed_val": {str(r.seed): (None if r.diverged else r.final_val) for r in p.runs},
                "mean_val": p.mean_val,
                "std_val": p.std_val,
                "diverged_seeds": [r.seed for r in p.runs if r.diverged],
            }
            for p in result.points
        ],
        "best_index": result.best_index,
    })


def seed_study_summary(report: SeedStudyReport) -> dict:
    return _jsonable({
        "seeds": report.seeds,
        "diverged_seeds": [r.seed for r in report.runs if r.diverged],
        "final_mu": report.final_mu,
        "final_vals": report.final_vals,
        "val_mean": report.val_mean,
        "val_std": report.val_std,
        "mu_spread_final": report.mu_spread_final,
        "mu_range": report.mu_range,
        "step_spread_max": report.step_spread_max,
    })


def init_sweep_summary(report: InitSweepReport) -> dict:
    return _jsonable({
        "threshold": report.threshold,
        "n_clusters": report.n_clusters,
        "clusters": report.clusters,
        "representatives": report.representatives,
        "entries": [
            {
                "epsilon": e.epsilon,
                "seed": e.seed,
                "final_mu": e.final_mu,
                "final_lambda": e.final_lam,
                "final_val": None if e.diverged else e.final_val,
                "diverged": e.diverged,
            }
            for e in report.entries
        ],
    })
