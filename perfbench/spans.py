"""Span recording for the traced run.

Spans are recorded from the benchmark's own code: :func:`instrument_service`
and :func:`instrument_compute` replace public functions of each layer with
wrappers that record one span per call, and :meth:`SpanRecorder.restore`
puts the originals back.  Nothing inside ``src/`` is changed.

A span is ``[id, parent_id, name, job, start, end]`` (``perf_counter``
seconds).  The parent is the innermost open span of the calling thread or,
for a thread with no open span (the scheduler's dispatcher thread), the
root span of the job the client is waiting on; the client keeps one job
outstanding, so that attribution is exact.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

Span = list  # [id, parent_id, name, job, start, end]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job: Optional[str] = None
        self._job_span: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._job_span
        span = [next(self._ids), parent, name, self._job, time.perf_counter(), 0.0]
        stack.append(span[0])
        return span

    def end(self, span: Span) -> None:
        span[5] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def job(self, job_id: str, name: str):
        """Root span of one job; spans of threads with no open span attach here."""
        self._job = job_id
        span = self.begin(name)
        self._job_span = span[0]
        try:
            yield
        finally:
            self.end(span)
            self._job_span = None
            self._job = None

    def wrap(self, owner: object, attribute: str, name: str, measure=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``measure``, if given, is called as ``measure(args)`` before and
        after the call; the span records the difference as a seventh field.
        """
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            before = measure(args) if measure is not None else None
            span = recorder.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.end(span)
                if measure is not None:
                    span.append(measure(args) - before)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()


def _journal_size(args) -> int:
    try:
        return os.path.getsize(args[0].path)
    except OSError:
        return 0


def instrument_service(recorder: SpanRecorder) -> None:
    """Layers that run in the scheduler process: service, obs, exact.cost, exact."""
    from repro.exact.simulator import ExactSimulator
    from repro.obs.ledger import RunLedger
    from repro.service import scheduler as scheduler_module
    from repro.service.journal import JobJournal
    from repro.service.scheduler import Scheduler
    from repro.service.store import ResultStore
    from repro.stochastic import results as results_module
    from repro.stochastic.results import StochasticResult

    recorder.wrap(Scheduler, "submit", "service.submit")
    recorder.wrap(ResultStore, "get", "service.store.get")
    recorder.wrap(ResultStore, "put", "service.store.put")
    recorder.wrap(ResultStore, "put_partial", "service.store.put_partial")
    for method in ("job_submitted", "plan_recorded", "lease_granted", "chunk_done", "job_done"):
        # Bytes are the journal file's growth; a compaction shrinks the
        # file and counts as zero.
        recorder.wrap(JobJournal, method, "service.journal.append", measure=_journal_size)
    recorder.wrap(os, "fsync", "fsync")
    recorder.wrap(StochasticResult, "merge", "service.merge")
    recorder.wrap(RunLedger, "record_run", "obs.ledger.record")
    recorder.wrap(RunLedger, "record_fallback", "obs.ledger.record")
    recorder.wrap(scheduler_module, "merge_snapshots", "obs.merge_snapshots")
    recorder.wrap(results_module, "merge_snapshots", "obs.merge_snapshots")
    recorder.wrap(scheduler_module, "estimate_costs", "exact.cost.estimate")
    recorder.wrap(ExactSimulator, "run", "exact.run")


def instrument_compute(recorder: SpanRecorder) -> None:
    """Layers that run trajectories or DD kernels: stochastic, simulators, dd."""
    from repro.dd.package import DDPackage
    from repro.simulators.ddsim import DDBackend
    from repro.simulators.statevector import StatevectorBackend
    from repro.stochastic import runner
    from repro.stochastic.prefix import PrefixPlan
    from repro.stochastic.properties import BasisProbability, IdealFidelity
    from repro.stochastic.strata import StrataPlan

    for method, name in (
        ("multiply", "dd.multiply"),
        ("multiply_matrices", "dd.multiply_matrices"),
        ("add", "dd.add"),
        ("inner_product", "dd.inner_product"),
        ("node_count", "dd.node_count"),
        ("garbage_collect", "dd.gc"),
    ):
        recorder.wrap(DDPackage, method, name)
    recorder.wrap(runner, "run_trajectory_span", "stochastic.span")
    recorder.wrap(runner, "compile_plan", "stochastic.compile")
    recorder.wrap(runner, "compile_prefix_plan", "stochastic.compile")
    recorder.wrap(StrataPlan, "__init__", "stochastic.compile")
    recorder.wrap(StrataPlan, "find_erring_seed", "stochastic.seed_search")
    recorder.wrap(PrefixPlan, "property_values", "stochastic.property_eval")
    recorder.wrap(IdealFidelity, "evaluate", "stochastic.property_eval")
    recorder.wrap(BasisProbability, "evaluate", "stochastic.property_eval")
    recorder.wrap(runner, "execute_plan", "simulators.execute_plan")
    recorder.wrap(DDBackend, "apply_gate_edge", "simulators.apply_gate")
    recorder.wrap(DDBackend, "apply_gate", "simulators.apply_gate")
    recorder.wrap(StatevectorBackend, "apply_gate", "simulators.apply_gate")


def _covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the part of [start, end] that the intervals cover."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def summarize(spans: List[Span]) -> Dict[str, object]:
    """Per-name calls, inclusive and self seconds, summed extra field; orphans.

    Self time is a span's duration minus the part of it that its child
    spans cover.  An orphan is a span whose parent id never closed.
    """
    ids = {span[0] for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    orphans = 0
    for span in spans:
        parent = span[1]
        if parent is None:
            continue
        if parent not in ids:
            orphans += 1
            continue
        children.setdefault(parent, []).append((span[4], span[5]))
    names: Dict[str, Dict[str, float]] = {}
    for span in spans:
        start, end = span[4], span[5]
        entry = names.setdefault(
            span[2], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - _covered(children.get(span[0], ()), start, end)
        if len(span) > 6:
            entry["extra"] += max(0, span[6])
    return {"names": names, "spans": len(spans), "orphans": orphans}
