"""Per-layer tracing and call counting for the lossmix benchmark.

Nothing under src/ changes: the traced run replaces lossmix functions at the
points where their callers look them up (module globals such as
``lossmix.harness.softmax_weights`` and class attributes such as
``BatchSampler.next_batch``) and puts the originals back afterwards.

Each wrapped call records one span (name, start, end, parent) into flat
in-memory arrays, which are written out once, when the run ends. A layer's
self time is its span's duration minus the durations of its child spans,
minus the wrapper's own cost per child span, which ``Tracer.calibrate``
measures once per traced run.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


@contextmanager
def patched(replacements):
    """Swap ``owner.attr`` for ``factory(original)`` for the duration of the block.

    ``replacements`` holds ``(owner, attr, factory)`` triples. A lookup point
    that is not in ``owner``'s own namespace is skipped and the block receives
    its name, so the caller can report it: a refactor that moves a call must
    not turn into metrics that silently read 0.
    """
    saved, missing = [], []
    try:
        for owner, attr, factory in replacements:
            original = vars(owner).get(attr)
            if original is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _is_validation(args) -> bool:
    # model.losses(w, batch) is called as a method: args == (model, w, batch)
    return args[2].split == "validation"


class Tracer:
    """In-memory span recorder plus the counters the per-layer ratios need."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._step_decay = None  # hp_decay of the optimizer step in progress
        self._last_mu = None
        self.softmax_unchanged = 0
        self.reg_zero_decay = 0
        self.export_bytes = 0
        self.child_cost = 0.0  # seconds a wrapped call adds to its caller's self time

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into lossmix."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, *, split=None, before=None, after=None):
        """Return ``fn`` wrapped so that every call records a span.

        ``split`` is ``(other_name, predicate)``: calls whose arguments match
        the predicate are recorded under ``other_name``. ``before(args)`` and
        ``after(result)`` run inside the span, so their cost is charged to it.
        The bookkeeping before the span opens and after it closes is charged
        to the caller; ``calibrate`` measures it.
        """
        nid = self._id(name)
        other, pick = (self._id(split[0]), split[1]) if split else (None, None)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(other if pick is not None and pick(args) else nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
            finally:
                end[i] = clock()
                stack.pop()
            return result

        return traced

    def calibrate(self) -> float:
        """Measure ``child_cost``: what one wrapped call adds to its caller's self time.

        A parent span makes 2000 calls to a wrapped empty function; its self
        time, less the time of as many plain calls, divided by 2000, is the
        cost. The median of 7 such loops is kept.
        """
        calls = 2000

        def empty():
            return None

        costs = []
        for _ in range(7):
            probe = Tracer()
            wrapped = probe.wrap(empty, "child")
            began = time.perf_counter()
            for _ in range(calls):
                empty()
            plain = time.perf_counter() - began
            with probe.span("parent"):
                for _ in range(calls):
                    wrapped()
            costs.append((probe.totals()["parent"][2] - plain) / calls)
        self.child_cost = max(0.0, statistics.median(costs))
        return self.child_cost

    # -- counters -----------------------------------------------------------

    def _note_mu(self, args):
        mu = args[0].mu.tobytes()
        if mu == self._last_mu:
            self.softmax_unchanged += 1
        self._last_mu = mu

    def _note_step(self, args):
        # harness calls step_fn(params, hps, g, h, t, config)
        self._step_decay = args[5].hp_decay

    def _step_done(self, result):
        self._step_decay = None

    def _note_reg(self, args):
        if self._step_decay == 0.0:
            self.reg_zero_decay += 1

    def _note_export(self, path):
        self.export_bytes += os.path.getsize(path)

    def replacements(self, lossmix):
        """Every lookup point the traced run wraps, as ``patched`` triples."""
        cli, harness, models, optim = lossmix.cli, lossmix.harness, lossmix.models, lossmix.optim

        def traced(name, **opts):
            return lambda fn: self.wrap(fn, name, **opts)

        step = traced("optim.step", before=self._note_step, after=self._step_done)
        split = ("models.val_eval", _is_validation)
        return [
            (cli, "load_config", traced("config.load_config")),
            (cli, "run_training", traced("harness.run_training")),
            (cli, "run_grid_search", traced("harness.run_grid_search")),
            (cli, "run_seed_study", traced("harness.run_seed_study")),
            (cli, "export_results", traced("harness.export_results", after=self._note_export)),
            (harness, "run_training", traced("harness.run_training")),
            (harness, "make_synthetic_dataset", traced("models.make_synthetic_dataset")),
            (harness, "softmax_weights", traced("losses.softmax_weights", before=self._note_mu)),
            (harness, "hp_gradient_empirical", traced("losses.hp_gradient_empirical")),
            (harness, "regularizer_value", traced("losses.regularizer_value")),
            (harness, "sgdw_step", step),
            (harness, "adamw_step", step),
            (optim, "regularizer_gradient", traced("losses.regularizer_gradient", before=self._note_reg)),
            (models.BatchSampler, "next_batch", traced("models.next_batch")),
            (models.LinearMultiLossModel, "losses", traced("models.losses", split=split)),
            (models.ConsistencyMLPModel, "losses", traced("models.losses", split=split)),
            (models.LinearMultiLossModel, "param_gradient", traced("models.param_gradient")),
            (models.ConsistencyMLPModel, "param_gradient", traced("models.param_gradient")),
        ]

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Self seconds exclude the child spans and ``child_cost`` per child.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        children += self.child_cost * np.bincount(parent[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        inclusive = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - children, minlength=k)
        return {name: (int(calls[i]), float(inclusive[i]), float(own[i])) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def layer_metrics(self, steps: int, useful_steps: int) -> dict[str, float]:
        """The per-layer metrics of one traced pass, keyed by metric name."""
        totals = self.totals()

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def mean(name, scale, own=False):
            n, inclusive, self_s = totals.get(name, (0, 0.0, 0.0))
            return (self_s if own else inclusive) / n * scale if n else 0.0

        def share(part, whole):
            return part / whole if whole else 0.0

        us, ms = 1e6, 1e3
        return {
            "models.losses.us": mean("models.losses", us),
            "models.losses.calls": calls("models.losses"),
            "models.val_eval.us": mean("models.val_eval", us),
            "models.val_eval.calls": calls("models.val_eval"),
            "models.param_gradient.us": mean("models.param_gradient", us),
            "models.next_batch.us": mean("models.next_batch", us),
            "models.make_synthetic_dataset.ms": mean("models.make_synthetic_dataset", ms),
            "models.make_synthetic_dataset.calls": calls("models.make_synthetic_dataset"),
            "losses.softmax_weights.us": mean("losses.softmax_weights", us),
            "losses.softmax_weights.unchanged_share": share(
                self.softmax_unchanged, calls("losses.softmax_weights")
            ),
            "losses.hp_gradient_empirical.us": mean("losses.hp_gradient_empirical", us),
            "losses.regularizer_gradient.us": mean("losses.regularizer_gradient", us),
            "losses.regularizer_gradient.zero_decay_share": share(
                self.reg_zero_decay, calls("losses.regularizer_gradient")
            ),
            "losses.regularizer_value.us": mean("losses.regularizer_value", us),
            "optim.step.us": mean("optim.step", us),
            "optim.step.self_us": mean("optim.step", us, own=True),
            "optim.step.calls": calls("optim.step"),
            "harness.run_training.s": mean("harness.run_training", 1.0),
            "harness.loop_self_us_per_step": share(
                totals.get("harness.run_training", (0, 0.0, 0.0))[2] * us, steps
            ),
            "harness.export_results.ms": mean("harness.export_results", ms),
            "harness.export_results.bytes": self.export_bytes,
            "harness.useful_step_share": share(useful_steps, steps),
            "config.load_config.ms": mean("config.load_config", ms),
            "cli.self_s": totals.get("cli.main", (0, 0.0, 0.0))[2],
        }


class CallCounter:
    """Counts the call events ``sys.setprofile`` raises for numpy and builtins.

    Two kinds of event are counted:
    * ``c_call``: a call to a builtin function or C method, such as
      ``np.asarray``, ``ndarray.sum``, ``ufunc.reduce`` or ``dict.items``;
    * ``call``: a call to a Python function defined in the numpy package,
      such as the ``__array_function__`` dispatcher ``_all_dispatcher`` and
      the wrapper ``fromnumeric.all`` that ``np.all(x)`` runs.
    A ufunc called directly (``np.exp(x)``, ``np.isfinite(x)``) and an
    operator (``a + b``, ``a @ b``) raise no event, so they are not counted.
    The count is exact and repeats run to run.
    """

    def __init__(self):
        self.calls = 0
        self._numpy = os.path.dirname(np.__file__) + os.sep

    def _profile(self, frame, event, arg):
        if event == "c_call" or (event == "call" and frame.f_code.co_filename.startswith(self._numpy)):
            self.calls += 1

    def wrap(self, fn):
        def counted(*args, **kwargs):
            sys.setprofile(self._profile)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(None)

        return counted

    def replacements(self, lossmix):
        """Count inside every ``run_training`` call, whoever makes it."""
        return [(lossmix.cli, "run_training", self.wrap), (lossmix.harness, "run_training", self.wrap)]
