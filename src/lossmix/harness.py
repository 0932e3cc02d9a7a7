"""Experiment drivers: training runs, grids, seed studies, init sweeps.

Every run is a deterministic function of (config, seed): the run seed
drives parameter initialization and batch shuffling, the data seed the
dataset. Every driver makes one call to the same engine, which trains
all of its runs together on leading run axes; a single run is a stack
of one. A stack is the config's seeds times a list of starts, one run
per (start, seed) pair; a start is a run's ``init_epsilon`` in learned
mode, its raw fixed weights in fixed mode. Fixed-weight runs skip the
exponent gradient, the regularizer and the exponents' optimizer step,
so their weights never move; this makes a one-point grid bitwise
identical to a fixed run.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .losses import _regularizer_value, _softmax, _softmax_gradient
from .models import BatchSampler, build_model, make_synthetic_dataset
from .optim import _adam, _advance, _momentum, init_hp_state

# imported only as the lookup points bench/tracing.py wraps; the engine calls the array kernels
from .losses import hp_gradient_empirical, regularizer_value, softmax_weights
from .optim import adamw_step, sgdw_step

__all__ = [
    "TrajectoryRecord",
    "RunResult",
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
    fixed_weights: np.ndarray | None  # fixed mode: the weights trained on, bitwise its rows' lambda_*
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
    """Scale strictly positive raw weights to sum to one; ``ValueError`` if their sum overflows."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size < 2:
        raise ValueError("raw weights must be a vector of length >= 2")
    if not np.all(np.isfinite(raw)) or np.any(raw <= 0.0):
        raise ValueError("raw weights must be finite and strictly positive")
    with np.errstate(over="ignore"):
        total = raw.sum()
    if not total < math.inf:
        raise ValueError(f"raw weights sum to more than the largest float: {raw.tolist()!r}")
    return raw / total


def _start(mode: str, start, n_terms: int) -> np.ndarray:
    """A run's initial exponents from its start: its ``init_epsilon`` when learned, its raw weights when fixed."""
    if mode == "learned":
        return init_hp_state(n_terms - 1, start).mu.mu
    lam = normalize_weights(start)
    if lam.size != n_terms:
        raise ConfigError(f"{lam.size} fixed weights for {n_terms} loss terms")
    mu0 = np.log(lam / lam[0])
    mu0[0] = 0.0
    return mu0


def _own_start(config: ExperimentConfig):
    """The start a run of ``config`` alone reads: its ``init_epsilon`` when learned, its fixed weights when fixed."""
    return config.optimizer.init_epsilon if config.mode == "learned" else config.fixed_weights


def _train_stack(config: ExperimentConfig, starts) -> list[list[RunResult]]:
    """Train every start on every seed of ``config.seeds``, all runs together.

    Returns one list of runs per start, each in ``config.seeds`` order.
    The runs share every setting of ``config``, so a stack cannot mix
    settings; a start is the value :func:`_start` reads for the mode.
    With ``tiles = len(starts)`` starts over G seeds the runs sit on
    leading axes ``(tiles, G)``, or ``(G,)`` for one start, and their
    state is plain arrays: ``w, m, v`` of shape ``(..., P)``, ``mu, n, u``
    of shape ``(..., K+1)``, and the weights ``lam``, computed once per
    exponent state. Both splits come from ``make_synthetic_dataset``
    already laid out as the model's ``Design``, and the sampler gathers
    from the training split as it is. Each step gathers one
    ``(G, S, B, d)`` mini-batch, a batch per seed broadcast over the
    starts, evaluates the per-term losses and the parameter gradient
    under ``lam`` in one forward pass and, in learned mode, the exponent
    gradient, then applies the joint update (``optim._advance``; to the
    parameters alone in fixed mode). The loop builds no value object and
    re-checks no input; ``_faults`` checks each new state. Each seed's
    generator draws its initial parameters and then its epochs'
    permutations, several epochs per draw (``BatchSampler``), as a lone
    run would, so each row computes, bitwise, what it would alone.
    Validation (only the basic loss, on the held-out split) is evaluated
    at every recorded step. Rows are flattened, start-major, only to
    record and in ``_faults``' slow path.

    A run whose losses or new state are unusable at step t diverges at
    t with its partial trajectory and reason. Its row stays, reset to zeros
    so the one-sum fault check stays finite, unread, its later faults ignored.
    """
    ocfg = config.optimizer
    model = build_model(config.model)
    train, val = make_synthetic_dataset(config.model, config.data_seed, config.n_train, config.n_val)
    n_terms = len(model.loss_names)
    seeds = tuple(config.seeds)
    n_rows = len(starts) * len(seeds)
    lead = (len(starts), len(seeds)) if len(starts) > 1 else (len(seeds),)
    mu0 = np.repeat([_start(config.mode, start, n_terms) for start in starts], len(seeds), axis=0)  # (R, K+1)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    w = np.broadcast_to(np.stack([model.init_params(rng) for rng in rngs]), lead + (model.n_params,)).copy()
    mu = mu0.reshape(lead + (n_terms,))
    state = (w, np.zeros_like(w), np.zeros_like(w), mu, np.zeros_like(mu), np.zeros_like(mu))  # w, m, v, mu, n, u
    learned = config.mode == "learned"
    rho = ocfg.hp_decay if learned else 0.0  # a fixed run records no regularizer
    moments = _momentum if config.optimizer_kind == "sgdw" else _adam
    sampler = BatchSampler(train, config.batch_size, rngs)
    lam0 = _softmax(mu0)  # a fixed run trains on, and reports, its row of lam0
    lam = lam0.reshape(mu.shape)

    n_records = -(-ocfg.total_steps // config.record_every)
    traj = np.empty((n_rows, n_records, len(trajectory_columns(n_terms))))  # (R, T, C)
    k = 0  # record steps so far; a run that stops keeps the first k rows of its ``traj``
    stopped: dict[int, tuple[int, str, int]] = {}  # run -> (step, reason, k)
    started = time.perf_counter()

    with np.errstate(all="ignore"):  # a diverging run overflows; the checks below catch it
        for t in range(1, ocfg.total_steps + 1):
            batch = sampler.next_batch()
            lvals, g = model.losses_and_gradient(state[0], batch, lam)
            h = _softmax_gradient(lam, lvals) if learned else None  # None freezes the exponents
            state = _advance(moments, state, g, h, lam, t, ocfg)

            faults = _faults(lvals, state[0], state[3] if learned or t == 1 else None)  # a fixed mu never moves
            if faults is not None:
                stopped.update((r, (t, fault, k)) for r, fault in enumerate(faults) if fault and r not in stopped)
                if len(stopped) == n_rows:
                    break
                dead = np.array([fault is not None for fault in faults]).reshape(lead + (1,))
                state = tuple(np.where(dead, 0.0, a) for a in state)
            if learned:
                lam = _softmax(state[3])

            if t % config.record_every == 0 or t == ocfg.total_steps:
                w, mu, lv, lm = (a.reshape(n_rows, -1) for a in (state[0], state[3], lvals, lam))
                val_basic = model.basic_loss(w, val)
                reg = rho * _regularizer_value(lm, mu) if rho else np.zeros(n_rows)
                composite = (lm * lv).sum(axis=-1)
                block = (np.full(n_rows, t), mu, lm, lv, composite, reg, val_basic)
                traj[:, k] = np.column_stack(block)
                k += 1

    wall = time.perf_counter() - started
    runs = [
        RunResult(
            seed=seed,
            mode=config.mode,
            fixed_weights=None if learned else lam0[r].copy(),
            initial_mu=mu0[r].copy(),
            rows=traj[r, : stopped[r][2] if r in stopped else k],
            diverged=r in stopped,
            diverged_step=stopped[r][0] if r in stopped else None,
            diverged_reason=stopped[r][1] if r in stopped else None,
            wall_time=wall,
        )
        for r, seed in enumerate(seeds * len(starts))
    ]
    return [runs[i : i + len(seeds)] for i in range(0, n_rows, len(seeds))]


def _faults(lvals: np.ndarray, w: np.ndarray, mu: np.ndarray | None) -> list[str | None] | None:
    """Per run, in row order, why it diverged at this step (None if it did not); None when no run did.

    A non-finite loss comes first, then a non-finite state, then an exponent past ``MU_LIMIT``.
    ``mu`` None skips the exponent checks, for exponents that passed them and have not moved since.
    """
    # the usual case, one sum over the stack: a finite sum has only finite terms, and a sum of
    # finite terms that overflows falls through to the exact check; a NaN exponent fails the range test
    if math.isfinite(np.add.reduce(w, axis=None) + np.add.reduce(lvals, axis=None)) and (
        mu is None or np.maximum.reduce(np.abs(mu), axis=None) <= MU_LIMIT
    ):
        return None
    all_, rows = np.logical_and.reduce, lvals.size // lvals.shape[-1]
    lvals, w, mu = (a.reshape(rows, -1) for a in (lvals, w, np.zeros(rows) if mu is None else mu))
    loss_ok = all_(np.isfinite(lvals), axis=-1)
    finite = all_(np.isfinite(w), axis=-1) & all_(np.isfinite(mu), axis=-1)
    in_range = np.maximum.reduce(np.abs(mu), axis=-1) <= MU_LIMIT
    faults = [
        NON_FINITE_LOSS if not loss else NON_FINITE_STATE if not state else OUT_OF_RANGE if not rng else None
        for loss, state, rng in zip(loss_ok, finite, in_range)
    ]
    return faults if any(faults) else None


def run_training(config: ExperimentConfig, seed: int) -> RunResult:
    """Run the full training loop for one seed (``ConfigError`` if negative): a stack of one run.

    Divergence flags the run and preserves the partial trajectory
    instead of raising.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return _train_stack(replace(config, seeds=(seed,)), [_own_start(config)])[0][0]


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
    lam: np.ndarray  # its runs' fixed_weights
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
    groups = _train_stack(replace(config, mode="fixed", fixed_weights=raws[0]), raws)
    points = [GridPointResult(raw, group[0].fixed_weights, group) for raw, group in zip(raws, groups)]
    return GridSearchResult(points=points, seeds=tuple(config.seeds))


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


def run_seed_study(config: ExperimentConfig) -> SeedStudyReport:
    """Run one configuration across its seeds, in one stack, and measure trajectory spread."""
    seeds = tuple(config.seeds)
    if len(seeds) < 2:
        raise ConfigError("seed study needs at least 2 seeds")
    [runs] = _train_stack(config, [_own_start(config)])
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
    it opens a new cluster. Only the runs that did not diverge are
    clustered, as only they are in the grid and seed-study statistics.
    """

    entries: list[InitSweepEntry]
    runs: list[RunResult]
    clusters: list[list[int]]
    representatives: list[np.ndarray]
    threshold: float

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def run_init_sweep(config: ExperimentConfig, epsilons=None) -> InitSweepReport:
    """One learned-mode run of the first seed per initialization scale, all in one stack, endpoints clustered."""
    epsilons = tuple(epsilons if epsilons is not None else config.epsilon_sweep)
    if len(epsilons) < 2:
        raise ConfigError("init sweep needs at least 2 epsilon values")
    stack = _train_stack(replace(config, mode="learned", seeds=config.seeds[:1]), epsilons)
    results = [runs[0] for runs in stack]

    entries = []
    for eps, result in zip(epsilons, results):
        final = result.final
        final_mu = final.mu if final is not None else result.initial_mu
        final_lam = final.lam if final is not None else _softmax(final_mu)
        entries.append(
            InitSweepEntry(
                epsilon=float(eps),
                seed=result.seed,
                final_mu=final_mu,
                final_lam=final_lam,
                final_val=result.final_val,
                diverged=result.diverged,
            )
        )

    clusters: list[list[int]] = []
    reps: list[np.ndarray] = []
    for i, entry in enumerate(entries):
        if entry.diverged:  # a diverged run has no endpoint to cluster
            continue
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
    """The trajectory schema for ``n_terms`` loss terms; ``ValueError`` below 2, the least a run has."""
    if n_terms < 2:
        raise ValueError(f"a trajectory has n_terms >= 2 loss terms (10 or more columns), got {n_terms}")
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
    header. ``t`` must hold whole steps. The bytes are what ``csv.writer``
    and ``json.dump(..., indent=2)`` write, so every float round-trips.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"trajectory rows must be a (T, C) array, got shape {rows.shape}")
    columns = trajectory_columns((rows.shape[1] - 4) // 3)
    if rows.shape[1] != len(columns):
        raise ValueError(f"trajectory rows must be a (T, 3 * n_terms + 4) array, got shape {rows.shape}")
    if not np.all(np.isfinite(rows[:, 0]) & (rows[:, 0] == np.trunc(rows[:, 0]))):
        raise ValueError(f"trajectory step t must be a whole number, got {rows[:, 0].tolist()!r:.80}")
    specs = ["%d"] + ["%s"] * (len(columns) - 1)  # "%d" of a whole float is str(int(t)); "%s" of a float is its repr
    table = rows.tolist()
    if fmt == "csv":
        line = ",".join(specs) + "\r\n"
        text = ",".join(columns) + "\r\n" + "".join([line % tuple(row) for row in table])
    else:
        if not np.isfinite(rows).all():  # JSON spells them NaN, Infinity and -Infinity
            table = [[v if math.isfinite(v) else json.dumps(v) for v in row] for row in table]
        record = "  {\n" + ",\n".join([f'    "{c}": {spec}' for c, spec in zip(columns, specs)]) + "\n  }"
        text = "[\n" + ",\n".join([record % tuple(row) for row in table]) + "\n]" if table else "[]"
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {fmt} trajectory to {path}: {exc}") from exc
    return path


def read_rows(path) -> np.ndarray:
    """The ``(T, C)`` rows of a trajectory file written by :func:`export_results`.

    A ``.json`` suffix reads JSON, any other CSV. A header-only CSV gives
    ``(0, C)``; an empty JSON list has no header and gives ``(0, 0)``.
    """
    path = Path(path)
    try:
        if path.suffix.lower() != ".json":
            with path.open(newline="") as fh:
                columns, *table = list(csv.reader(fh)) or [[]]
        else:
            payload = json.loads(path.read_text())
            if not (isinstance(payload, list) and all(isinstance(rec, dict) for rec in payload)):
                raise ValueError(f"a JSON trajectory must be a list of objects, got {payload!r:.80}")
            if not payload:
                return np.empty((0, 0))
            columns = list(payload[0])
            if any(rec.keys() != payload[0].keys() for rec in payload):
                raise ValueError(f"every JSON trajectory record must carry exactly the keys {columns!r}")
            table = [[rec[c] for c in columns] for rec in payload]
    except OSError as exc:
        raise OSError(f"cannot read trajectory from {path}: {exc}") from exc
    if columns != trajectory_columns((len(columns) - 4) // 3):
        raise ValueError(f"unexpected trajectory columns {columns!r}")
    for row in table:
        if len(row) != len(columns):
            raise ValueError(f"trajectory row has {len(row)} values for {len(columns)} columns")
    try:
        return np.array([[float(v) for v in row] for row in table]).reshape(len(table), len(columns))
    except TypeError as exc:  # a null, list or object where a number belongs
        raise ValueError(f"non-numeric trajectory value: {exc}") from exc


def import_results(path) -> list[TrajectoryRecord]:
    """Read a trajectory file written by :func:`export_results` as records."""
    return [TrajectoryRecord.from_row(row) for row in read_rows(path)]


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
