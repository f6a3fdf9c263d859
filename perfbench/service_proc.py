"""One benchmark role per fresh interpreter; ``run.py`` starts these.

``setup``
    Import ``repro``, open the on-disk store, journal and ledger, start
    the worker pool and submit a probe job.  Prints ``ready`` the moment
    ``Scheduler.submit`` returns: the parent times interpreter start to
    that line.
``stream``
    The closed-loop job stream.  The scheduler is wired the way
    ``repro serve`` wires it (``ResultStore``, ``JobJournal`` and
    ``RunLedger`` on one fresh directory, ``workers=2``); one client keeps
    one job outstanding.  Every fresh job that succeeds is resubmitted
    ``HIT_ROUNDS`` times right after it (store hits).  ``--trace`` records
    spans in this process (service, obs, exact.cost, exact, and the DD
    work of the exact path).
``replay``
    The traced run's job list replayed in-process with
    ``StochasticSimulator(workers=1)``: untraced on the DD and statevector
    backends (seconds per effective trajectory, the dense baseline), then
    traced on DD (stochastic, simulators and dd spans).  Exact-method
    jobs are not replayed.

Each role writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

WORKERS = 2
#: Resubmissions of every fresh job (each one a store hit).
HIT_ROUNDS = 10
#: A job still running after this many seconds counts as failed.
JOB_TIMEOUT_S = 90.0
#: Trajectory cap of the statevector replay: the dense backend needs
#: ~17 ms per ghz-15 trajectory, so its full 2000-trajectory budget would
#: dominate the traced run.  Seconds per trajectory do not depend on it.
STATEVECTOR_CAP = 100


def _open_service(store_dir: str):
    from repro.obs.ledger import RunLedger, ledger_path
    from repro.service import JobJournal, ResultStore, Scheduler, journal_path

    store = ResultStore(store_dir)
    journal = JobJournal(journal_path(store_dir))
    ledger = RunLedger(ledger_path(store_dir))
    scheduler = Scheduler(workers=WORKERS, store=store, journal=journal, ledger=ledger)
    return scheduler, journal, ledger


def _close_service(scheduler, journal, ledger) -> None:
    scheduler.shutdown()
    journal.close()
    ledger.close()
    # shutdown() terminates a worker that outlives its join timeout without
    # reaping it; reap every worker so none outlives this process and its
    # CPU time reaches RUSAGE_CHILDREN.
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()


def role_setup(args) -> dict:
    from repro.circuits.library import ghz
    from repro.service import JobSpec

    scheduler, journal, ledger = _open_service(args.store)
    try:
        key = scheduler.submit(JobSpec.build(ghz(2), trajectories=1, seed=args.seed))
        print("ready", flush=True)
        scheduler.result(key, timeout=JOB_TIMEOUT_S)
    finally:
        _close_service(scheduler, journal, ledger)
    return {}


def summarize_result(result) -> dict:
    """What the parent needs from one job's result, as plain JSON."""
    job_start = None
    chunks = []
    for event in result.trace_events:
        if event.get("name") == "job":
            job_start = event["start"]
        elif event.get("name") == "chunk.execute":
            chunks.append((event["start"], event["duration"]))
    counters = result.metrics.get("counters", {}) if result.metrics else {}
    histograms = result.metrics.get("histograms", {}) if result.metrics else {}
    return {
        "method": result.method,
        "completed": result.completed_trajectories,
        "effective": result.effective_trajectories(),
        "timed_out": result.timed_out,
        "cpu_s": result.cpu_seconds,
        "peak_nodes": result.peak_nodes,
        "strata": dict(result.strata),
        "errors_fired": sum(result.errors_fired.values()),
        "estimates": {
            name: {
                "mean": estimate.mean,
                "halfwidth99": estimate.halfwidth(0.01),
                "exact": estimate.exact,
            }
            for name, estimate in result.estimates.items()
        },
        "counters": {
            name: value
            for name, value in counters.items()
            if name.startswith(("dd.", "exact.", "prefix.", "strata."))
        },
        "trajectory_hist": histograms.get("trajectory.seconds"),
        "queue_wait_s": (
            min(start for start, _ in chunks) - job_start
            if chunks and job_start is not None
            else None
        ),
        "chunk_s": [duration for _, duration in chunks],
    }


def _run_job(scheduler, recorder, family: str, spec, record_name: str) -> dict:
    from repro.service import SchedulerError

    key = spec.job_key()
    record = {"family": family, "key": key, "trajectories": spec.trajectories}
    scope = (
        recorder.job(f"{record_name}:{key}", record_name)
        if recorder is not None
        else nullcontext()
    )
    started = time.perf_counter()
    try:
        with scope:
            scheduler.submit(spec)
            result = scheduler.result(key, timeout=JOB_TIMEOUT_S)
        record["latency_s"] = time.perf_counter() - started
        record["result"] = summarize_result(result)
    except (SchedulerError, TimeoutError) as error:
        record["latency_s"] = time.perf_counter() - started
        record["error"] = f"{type(error).__name__}: {error}"
        if isinstance(error, TimeoutError):
            scheduler.cancel(key)
    return record


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def role_stream(args) -> dict:
    from spans import SpanRecorder, instrument_compute, instrument_service, summarize
    from workloads import WORKLOADS, job_list, job_stream

    scheduler, journal, ledger = _open_service(args.store)
    recorder = None
    if args.trace:
        # Installed after the pool forked: worker processes stay untraced.
        recorder = SpanRecorder()
        instrument_service(recorder)
        instrument_compute(recorder)
    cycle = len(WORKLOADS[args.workload])
    if args.jobs:
        source = iter(job_list(args.workload, args.seed, args.quick))
    else:
        source = job_stream(args.workload, args.seed, args.quick)
    fresh = []
    hits = []
    hit_s = 0.0
    cpu_before = _cpu(resource.RUSAGE_SELF)
    started = time.perf_counter()
    deadline = started + args.seconds
    for index, (family, spec) in enumerate(source):
        # Whole cycles only, so every run times the same family mix.
        if not args.jobs and index and index % cycle == 0 and time.perf_counter() >= deadline:
            break
        record = _run_job(scheduler, recorder, family, spec, "job")
        fresh.append(record)
        if "result" not in record:
            continue
        # Resubmissions follow each fresh job, so the store-hit samples
        # spread over the whole run like the job latencies do.
        hits_started = time.perf_counter()
        for _ in range(HIT_ROUNDS):
            hits.append(_run_job(scheduler, recorder, family, spec, "hit"))
        hit_s += time.perf_counter() - hits_started
    wall = time.perf_counter() - started - hit_s
    _close_service(scheduler, journal, ledger)
    summary = None
    if recorder is not None:
        recorder.restore()
        summary = {
            "fresh": summarize([s for s in recorder.spans if not str(s[3]).startswith("hit:")]),
            "hit": summarize([s for s in recorder.spans if str(s[3]).startswith("hit:")]),
        }
    counters = scheduler.metrics_snapshot().get("counters", {})
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "fresh": fresh,
        "hits": hits,
        # The timed phase without the store-hit bursts.
        "wall_s": wall,
        # Self CPU from the first submit on, plus every reaped worker.
        "cpu_s": _cpu(resource.RUSAGE_SELF) - cpu_before + _cpu(resource.RUSAGE_CHILDREN),
        # ru_maxrss is in KiB on Linux; the children figure is the largest
        # single reaped child, i.e. the largest worker.
        "peak_rss_mb": (self_usage.ru_maxrss + child_usage.ru_maxrss) / 1024.0,
        "counters": {
            name: counters.get(name, 0)
            for name in (
                "scheduler.retries",
                "store.hits",
                "store.misses",
                "dispatch.measured",
                "dispatch.worst_case",
            )
        },
        "spans": summary,
    }


def role_replay(args) -> dict:
    from repro.stochastic import StochasticSimulator
    from spans import SpanRecorder, instrument_compute, summarize
    from workloads import job_list

    # Exact-method jobs have no trajectories to replay: the stochastic
    # runner would answer a different question (event-mode unravelling,
    # not the channel the exact path evolves).
    jobs = [
        (family, spec)
        for family, spec in job_list(args.workload, args.seed, args.quick)
        if spec.method != "exact"
    ]

    def run_all(backend: str, cap=None, recorder=None) -> list:
        records = []
        for family, spec in jobs:
            trajectories = spec.trajectories if cap is None else min(cap, spec.trajectories)
            simulator = StochasticSimulator(backend=backend, workers=1)
            scope = recorder.job(spec.job_key(), "replay") if recorder is not None else nullcontext()
            started = time.perf_counter()
            with scope:
                result = simulator.run(
                    spec.circuit, spec.noise_model, spec.properties,
                    trajectories=trajectories, seed=spec.seed,
                    sample_shots=spec.sample_shots,
                )
            wall = time.perf_counter() - started
            records.append(
                {"family": family, "wall_s": wall, "result": summarize_result(result)}
            )
        return records

    dd = run_all("dd")
    statevector = run_all("statevector", cap=STATEVECTOR_CAP)
    recorder = SpanRecorder()
    instrument_compute(recorder)
    try:
        traced = run_all("dd", recorder=recorder)
    finally:
        recorder.restore()
    return {
        "dd": dd,
        "statevector": statevector,
        "traced": traced,
        "spans": summarize(recorder.spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "stream", "replay"))
    parser.add_argument("--store", help="fresh store directory (setup, stream)")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--jobs", action="store_true", help="run the fixed traced-run job list")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    role = {"setup": role_setup, "stream": role_stream, "replay": role_replay}[args.role]
    payload = role(args)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
