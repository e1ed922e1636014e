"""Out-of-program tracer: spans around the public entry points of each layer.

The tracer never edits the program.  :func:`layer_patches` lists the
``repro`` callables to wrap, and :meth:`Tracer.install` replaces each one on
its owning class or module with a timing wrapper; :meth:`Tracer.uninstall`
puts the originals back, so an untraced run executes exactly the program's
own code.  Spans are ``(id, name, start, end, parent, run)`` tuples kept in
memory (times in ``perf_counter_ns``) and written out once, when the
benchmark ends.

Parents come from a per-thread stack.  Work that crosses to another thread
is linked explicitly: the service's async wrappers record their span id
under a key (the job's controller, or the submitted task list), and the
controller wrapper on the executor thread adopts that span as its parent
when its own stack is empty.

Worker processes of a :class:`~repro.quantum.parallel.ParallelBackend` are
forked from a traced parent, so they inherit the wrappers.  The wrapped
worker entry point starts each worker with an empty span list and, when the
pool closes it, writes the worker's self times and counts to
``<worker_dir>/worker-<pid>.json`` for the parent to merge.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    run: int


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of ``[start, end)`` intervals."""
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children on other threads may overlap each other,
    so their union is subtracted, clipped to the parent's interval).
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if end > span.start and start < span.end
        ]
        own = (span.end - span.start) - _covered(clipped)
        totals[span.name] += own / 1e9
    return dict(totals)


@dataclass(frozen=True)
class Patch:
    """One wrapped callable: ``owner.attr`` recorded as span ``name``.

    ``count`` maps the call's ``(args, result)`` to ``{counter: amount}``
    increments.  ``link_from`` names the key under which an async span on
    another thread registered itself as this call's parent; ``link_as``
    (async wrappers only) names the key this span registers under.
    """

    owner: object
    attr: str
    name: str
    count: Callable[[tuple, object], dict[str, float]] | None = None
    link_from: Callable[[tuple], object] | None = None
    link_as: Callable[[tuple], object] | None = None
    is_async: bool = False
    on_done: Callable[["Tracer", tuple, int], None] | None = None


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run = 0
        #: Cross-thread parent links: key -> span id.
        self.links: dict[object, int] = {}
        #: Per job id, the inclusive duration (s) of each round dispatch.
        self.dispatches: dict[str, list[float]] = defaultdict(list)
        #: Where forked pool workers write their totals (None: not traced).
        self.worker_dir: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, link: int | None = None):
        """Record span ``name`` around the enclosed code.

        Its parent is the innermost open span on this thread or, when there
        is none, the linked span ``link``.
        """
        stack = self._stack()
        parent = stack[-1] if stack else link
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def _sync_wrapper(self, patch: Patch, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            link = None
            if patch.link_from is not None:
                link = tracer.links.get(patch.link_from(args))
            with tracer.span(patch.name, link):
                result = original(*args, **kwargs)
            if patch.count is not None:
                for key, amount in patch.count(args, result).items():
                    tracer.counts[key] += amount
            return result

        return wrapper

    def _async_wrapper(self, patch: Patch, original):
        # Coroutines interleave on the loop thread, so an async span never
        # joins the thread's stack; it is linked to executor-thread work by
        # key instead.
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            key = patch.link_as(args) if patch.link_as is not None else None
            if key is not None:
                tracer.links[key] = span_id
            start = time.perf_counter_ns()
            try:
                return await original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if key is not None:
                    tracer.links.pop(key, None)
                tracer.spans.append(Span(span_id, patch.name, start, end, None, tracer.run))
                if patch.on_done is not None:
                    patch.on_done(tracer, args, end - start)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, patches: Iterable[Patch]) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for patch in patches:
            # Class attributes are read from the defining class's own dict,
            # so a missing or inherited name fails loudly here.
            original = (
                patch.owner.__dict__[patch.attr]
                if isinstance(patch.owner, type)
                else getattr(patch.owner, patch.attr)
            )
            wrapper = self._async_wrapper if patch.is_async else self._sync_wrapper
            self.replace(patch.owner, patch.attr, wrapper(patch, original))

    def replace(self, owner: object, attr: str, new: object) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`uninstall`."""
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------------

    def run_spans(self, run: int) -> list[Span]:
        return [span for span in self.spans if span.run == run]

    def dump(self, path: str) -> None:
        """Write every recorded span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")

    # -- forked pool workers ----------------------------------------------------

    def worker_entry(self, original):
        """Wrap the pool's worker entry point (runs in the forked child)."""
        tracer = self

        @functools.wraps(original)
        def worker_main(*args, **kwargs):
            tracer.spans = []
            tracer.counts = defaultdict(float)
            tracer._local = threading.local()
            try:
                return original(*args, **kwargs)
            finally:
                if tracer.worker_dir is not None:
                    path = os.path.join(tracer.worker_dir, f"worker-{os.getpid()}.json")
                    payload = {"self_s": self_times(tracer.spans), "counts": dict(tracer.counts)}
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump(payload, handle)

        return worker_main


def read_worker_totals(worker_dir: str) -> tuple[dict[str, float], dict[str, float]]:
    """Sum and remove the totals the pool workers of one run wrote."""
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for entry in sorted(os.listdir(worker_dir)):
        path = os.path.join(worker_dir, entry)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        os.remove(path)
        for name, value in payload["self_s"].items():
            self_s[name] += value
        for name, value in payload["counts"].items():
            counts[name] += value
    return dict(self_s), dict(counts)


def _program_counts(args: tuple, result) -> dict[str, float]:
    program, parameters = args[0], args[1]
    rows = 1 if getattr(parameters, "ndim", 2) == 1 else len(parameters)
    passes = len(program.tape)
    # Computed, not measured: one complex128 sweep of the batch per pass.
    return {
        "program.rows.n": rows,
        "program.gate_passes.n": passes,
        "program.bytes_computed": passes * rows * (1 << program.num_qubits) * 16,
    }


def layer_patches() -> list[Patch]:
    """The public entry points wrapped per ``repro`` layer.

    A name's owner is the object the caller resolves it through: a function
    imported by name (``select_best_states`` in the controller,
    ``ground_state`` in the task module) is wrapped where it is looked up.
    """
    from repro.core import controller, postprocess, task
    from repro.core.cluster import VQACluster
    from repro.core.controller import TreeVQAController
    from repro.core.monitor import SlopeMonitor
    from repro.core.scheduler import RoundScheduler
    from repro.optimizers.base import IterativeOptimizer
    from repro.quantum import engine
    from repro.quantum.backend import StatevectorBackend
    from repro.quantum.engine import CompiledPauliOperator
    from repro.quantum.measurement import MeasurementPlan
    from repro.quantum.parallel import ParallelBackend
    from repro.quantum.pauli import PauliOperator
    from repro.quantum.program import CircuitProgram
    from repro.quantum.sampling import BaseEstimator
    from repro.quantum.statevector import Statevector
    from repro.quantum.transport import LocalProcessEndpoint
    from repro.service.service import TreeVQAService

    def dispatch_counts(requests_key: str):
        return lambda args, result: {requests_key: len(args[1]), "dispatch.n": 1}

    def record_dispatch(tracer: Tracer, args: tuple, elapsed_ns: int) -> None:
        tracer.dispatches[args[1].job_id].append(elapsed_ns / 1e9)

    return [
        Patch(TreeVQAController, "__init__", "controller.init",
              link_from=lambda args: ("tasks", id(args[1]))),
        Patch(TreeVQAController, "step_round", "controller.step_round",
              link_from=lambda args: ("controller", id(args[0]))),
        Patch(TreeVQAController, "finalize", "controller.finalize",
              link_from=lambda args: ("controller", id(args[0]))),
        Patch(VQACluster, "ask", "cluster.ask"),
        Patch(VQACluster, "tell", "cluster.tell"),
        Patch(VQACluster, "split", "cluster.split",
              count=lambda args, result: {"cluster.splits.n": 1}),
        Patch(SlopeMonitor, "report", "monitor.report"),
        Patch(RoundScheduler, "run_round", "scheduler.run_round"),
        Patch(RoundScheduler, "_convert", "estimator.convert"),
        Patch(controller, "select_best_states", "postprocess.select_best_states",
              count=lambda args, result: {"postprocess.states.n": len(args[1])}),
        Patch(IterativeOptimizer, "run_step", "baseline.step"),
        Patch(BaseEstimator, "estimate", "estimator.estimate"),
        Patch(Statevector, "evolve", "statevector.evolve",
              count=lambda args, result: {"statevector.evolve.n": 1}),
        Patch(task, "ground_state", "reference.ground_state",
              count=lambda args, result: {"reference.ground_state.n": 1}),
        Patch(PauliOperator, "to_matrix", "reference.to_matrix"),
        Patch(StatevectorBackend, "run_batch", "backend.run_batch",
              count=dispatch_counts("backend.requests.n")),
        Patch(CircuitProgram, "execute", "program.execute", count=_program_counts),
        Patch(CompiledPauliOperator, "expectation_values", "engine.expectation_values",
              count=lambda args, result: {"engine.terms.n": len(result)}),
        Patch(engine, "pauli_evaluator", "engine.compile"),
        Patch(postprocess, "pauli_evaluator", "engine.compile"),
        Patch(MeasurementPlan, "term_matrix", "measurement.term_matrix"),
        Patch(ParallelBackend, "run_batch", "parallel.run_batch",
              count=dispatch_counts("parallel.requests.n")),
        Patch(LocalProcessEndpoint, "send", "transport.send"),
        Patch(LocalProcessEndpoint, "recv", "transport.recv"),
        Patch(TreeVQAService, "submit", "service.submit", is_async=True,
              link_as=lambda args: ("tasks", id(args[1]))),
        Patch(TreeVQAService, "_run_job_round", "service.round_dispatch", is_async=True,
              link_as=lambda args: ("controller", id(args[1].controller)),
              on_done=record_dispatch),
    ]


def install_layers(tracer: Tracer, worker_dir: str | None) -> None:
    """Wrap every layer entry point, plus the pool worker entry point."""
    from repro.quantum import transport

    tracer.worker_dir = worker_dir
    tracer.install(layer_patches())
    tracer.replace(transport, "worker_main", tracer.worker_entry(transport.worker_main))
