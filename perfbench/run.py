"""Serve-path benchmark: closed-loop job streams through ``repro.service``.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-friendly --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload exact-rho --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload stream-hostile --seed 1 --seconds 1 --trace 0 --quick

``--trace 0`` measures the end-to-end metrics: set-up time from a fresh
interpreter (median of several set-ups), then one fresh interpreter runs
the workload's job stream for ``--seconds`` (whole cycles of its circuit
families), resubmits every job as a store hit, and reports latency,
throughput, CPU and memory.  ``--trace 1`` measures the per-layer
metrics on a fixed job list instead: the list runs once untraced and once
traced through the service, then is replayed in-process (see
``service_proc.py``).  Every answer is checked against
``references.json``.  Human-readable detail goes to stdout first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROC = os.path.join(HERE, "service_proc.py")
REFERENCES_PATH = os.path.join(HERE, "references.json")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKLOADS = ("stream-friendly", "stream-hostile", "exact-rho")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5
QUICK_SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170.0
#: Tolerance of an exact answer against its reference.
EXACT_TOLERANCE = 1e-9
WORKERS = 2


class BenchError(RuntimeError):
    pass


def _child(role: str, args, out: str, *extra: str, env=None) -> dict:
    command = [
        sys.executable, PROC, role, "--workload", args.workload,
        "--seed", str(args.seed), "--out", out, *extra,
    ]
    if args.quick:
        command.append("--quick")
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{role} child exceeded {CHILD_TIMEOUT_S:.0f} s") from error
    if completed.returncode != 0:
        raise BenchError(f"{role} child exited with code {completed.returncode}")
    with open(out) as handle:
        return json.load(handle)


def setup_seconds(args, run_dir: str, probes: int) -> list:
    """Wall seconds from starting a fresh interpreter to its first accepted job."""
    samples = []
    for probe in range(probes):
        store = os.path.join(run_dir, f"setup-{probe}")
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, PROC, "setup", "--store", store, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S / 2, process.kill)
        killer.start()
        try:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - started
            process.stdout.read()
            process.wait()
        finally:
            killer.cancel()
            process.stdout.close()
        if line.strip() != "ready" or process.returncode != 0:
            raise BenchError(f"setup probe failed (exit code {process.returncode})")
        samples.append(elapsed)
    return samples


def check_answer(family: str, result: dict, references: dict):
    """None when the answer meets its reference, else the reason it does not.

    A stochastic estimate passes inside its reported 99% Hoeffding
    interval; an exact one within ``EXACT_TOLERANCE``.
    """
    if result["timed_out"]:
        return "timed out"
    for name, reference in references[family]["values"].items():
        estimate = result["estimates"].get(name)
        if estimate is None:
            return f"{name} missing"
        error = abs(estimate["mean"] - reference)
        bound = EXACT_TOLERANCE if estimate["exact"] else estimate["halfwidth99"]
        if not error <= bound:
            return f"{name} = {estimate['mean']!r}, reference {reference!r} (|error| {error:.3g} > {bound:.3g})"
    return None


class Answers:
    """Tally of answers checked against the references."""

    def __init__(self, references: dict) -> None:
        self.references = references
        self.attempted = 0
        self.failures: list = []

    def job(self, record: dict, where: str) -> None:
        """One service job: failed if it raised, timed out or missed its reference."""
        if "error" in record:
            self.attempted += 1
            self.failures.append(f"{where} {record['family']}: {record['error']}")
        else:
            self.result(record["family"], record["result"], where)

    def result(self, family: str, result: dict, where: str) -> None:
        self.attempted += 1
        reason = check_answer(family, result, self.references)
        if reason is not None:
            self.failures.append(f"{where} {family}: {reason}")


def _answer_trajectories(result: dict, spec_trajectories: int) -> float:
    """Effective trajectories of an answer; an exact answer counts as the
    budget its spec names (it is at least that precise)."""
    if result["method"] == "exact":
        return float(spec_trajectories)
    return result["effective"]


def end_to_end(args, run_dir: str, answers: Answers) -> dict:
    probes = QUICK_SETUP_PROBES if args.quick else SETUP_PROBES
    setup = setup_seconds(args, run_dir, probes)
    stream = _child(
        "stream", args, os.path.join(run_dir, "stream.json"),
        "--store", os.path.join(run_dir, "store"), "--seconds", str(args.seconds),
    )
    fresh, hits = stream["fresh"], stream["hits"]
    for record in fresh:
        answers.job(record, "fresh")
    for record in hits:
        answers.job(record, "hit")
    done = [record for record in fresh if "result" in record]
    latencies = [record["latency_s"] for record in fresh]
    hit_latencies = [record["latency_s"] for record in hits]
    # A hit's cost follows the size of the stored result, which differs by
    # family (qft-10's ~3x ghz-15's), so a pooled median would straddle
    # two populations: average the per-family medians instead.
    by_family: dict = {}
    for record in hits:
        by_family.setdefault(record["family"], []).append(record["latency_s"])
    hit_p50 = statistics.mean(statistics.median(values) for values in by_family.values())
    if not done or not hit_latencies:
        raise BenchError("no job completed")
    effective = sum(
        _answer_trajectories(record["result"], record["trajectories"]) for record in done
    )
    wall = stream["wall_s"]
    print(
        f"{args.workload}: {len(fresh)} fresh jobs in {wall:.2f} s, "
        f"{len(hits)} store hits, setup samples {[round(s, 3) for s in setup]}"
    )
    print(
        f"job_s p50 {statistics.median(latencies):.4f} s (n={len(latencies)}), "
        f"max {max(latencies):.4f} s; hit_s p50 "
        f"{hit_p50 * 1e3:.3f} ms (mean of per-family medians, n={len(hit_latencies)})"
    )
    total = answers.attempted
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_s.p50": (statistics.median(latencies), "s"),
        "jobs_per_s": (len(done) / wall, "1/s"),
        "eff_traj_per_s": (effective / wall, "1/s"),
        "cpu_s_per_job": (stream["cpu_s"] / len(fresh), "s"),
        "hit_s.p50": (hit_p50, "s"),
        "peak_rss_mb": (stream["peak_rss_mb"], "MB"),
        "ok_frac": ((total - len(answers.failures)) / total, "frac"),
    }


def _hist_quantile(histogram: dict, q: float) -> float:
    """Quantile of a fixed-bucket histogram, linear inside the bucket."""
    counts = histogram["counts"]
    bounds = list(histogram["bounds"])
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for index, count in enumerate(counts):
        if count and seen + count >= target:
            low = bounds[index - 1] if index > 0 else 0.0
            high = bounds[index] if index < len(bounds) else bounds[-1]
            return low + (high - low) * (target - seen) / count
        seen += count
    return bounds[-1]


def _merge_histograms(histograms: list):
    merged = None
    for histogram in histograms:
        if not histogram:
            continue
        if merged is None:
            merged = {"bounds": list(histogram["bounds"]), "counts": list(histogram["counts"])}
        else:
            merged["counts"] = [a + b for a, b in zip(merged["counts"], histogram["counts"])]
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(args, run_dir: str, answers: Answers) -> dict:
    base = _child(
        "stream", args, os.path.join(run_dir, "base.json"),
        "--store", os.path.join(run_dir, "base"), "--jobs",
    )
    traced = _child(
        "stream", args, os.path.join(run_dir, "traced.json"),
        "--store", os.path.join(run_dir, "traced"), "--jobs", "--trace",
    )
    # The replay is the single-process baseline of the paper's comparison:
    # pin BLAS to one thread on both backends.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    replay = _child("replay", args, os.path.join(run_dir, "replay.json"), env=env)
    for stream, where in ((base, "base"), (traced, "traced")):
        for record in stream["fresh"]:
            answers.job(record, f"{where}-fresh")
        for record in stream["hits"]:
            answers.job(record, f"{where}-hit")
    for phase in ("dd", "statevector", "traced"):
        for record in replay[phase]:
            answers.result(record["family"], record["result"], f"replay-{phase}")

    spans = traced["spans"]
    fresh_names = spans["fresh"]["names"]
    hit_names = spans["hit"]["names"]
    replay_names = replay["spans"]["names"]

    def entry(names: dict, name: str) -> dict:
        return names.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0.0})

    def per_call(names: dict, name: str) -> float:
        found = entry(names, name)
        return _ratio(found["total_s"], found["calls"])

    fresh = traced["fresh"]
    jobs = len(fresh)
    results = [record["result"] for record in fresh if "result" in record]
    exact = [result for result in results if result["method"] == "exact"]
    chunk_s = [duration for result in results for duration in result["chunk_s"]]
    waits = [result["queue_wait_s"] for result in results if result["queue_wait_s"] is not None]
    latency_total = sum(record["latency_s"] for record in fresh)
    counters = traced["counters"]
    worker_counters: dict = {}
    for result in results:
        for name, value in result["counters"].items():
            worker_counters[name] = worker_counters.get(name, 0) + value

    def hit_ratio(prefix: str) -> float:
        hits = worker_counters.get(f"{prefix}.hits", 0)
        return _ratio(hits, hits + worker_counters.get(f"{prefix}.misses", 0))

    replayed = [record["result"] for record in replay["traced"]]
    replay_jobs = len(replayed)
    replay_wall = sum(record["wall_s"] for record in replay["traced"])
    replay_counters: dict = {}
    for result in replayed:
        for name, value in result["counters"].items():
            replay_counters[name] = replay_counters.get(name, 0) + value
    attempts = sum(result["strata"].get("attempts", 0) for result in replayed)
    erring = sum(result["strata"].get("erring_sampled", 0) for result in replayed)

    def layer_self(names: dict, layer: str) -> float:
        return sum(
            found["self_s"] for name, found in names.items() if name.startswith(layer + ".")
        )

    dd_self = layer_self(replay_names, "dd") + layer_self(fresh_names, "dd")
    exact_run_total = entry(fresh_names, "exact.run")["total_s"]

    def dd_time(name: str) -> float:
        return (entry(replay_names, name)["self_s"] + entry(fresh_names, name)["self_s"]) / jobs

    def seconds_per_effective(records: list) -> float:
        return _ratio(
            sum(record["wall_s"] for record in records),
            sum(record["result"]["effective"] for record in records),
        )

    untraced_total = sum(record["latency_s"] for record in base["fresh"]) + sum(
        record["wall_s"] for record in replay["dd"]
    )
    traced_total = latency_total + replay_wall
    trajectory_hist = _merge_histograms(
        [record["result"]["trajectory_hist"] for record in replay["dd"]]
    )
    metrics = {
        # service: scheduler process, traced stream run
        "service.submit_s": (_ratio(entry(fresh_names, "service.submit")["self_s"], jobs), "s"),
        "service.queue_wait_s": (statistics.mean(waits) if waits else 0.0, "s"),
        "service.chunks_per_job": (len(chunk_s) / jobs, "count"),
        "service.chunk_s.p50": (statistics.median(chunk_s) if chunk_s else 0.0, "s"),
        "service.idle_frac": (1.0 - _ratio(sum(chunk_s), WORKERS * latency_total), "frac"),
        "service.cpu_s_per_traj": (
            _ratio(
                sum(result["cpu_s"] for result in results),
                sum(
                    record["trajectories"] if record["result"]["method"] == "exact"
                    else record["result"]["completed"]
                    for record in fresh if "result" in record
                ),
            ),
            "s",
        ),
        "service.retries": (counters["scheduler.retries"], "count"),
        "service.merge_s": (entry(fresh_names, "service.merge")["total_s"] / jobs, "s"),
        "service.store.get_s": (per_call(hit_names, "service.store.get"), "s"),
        "service.store.put_s": (per_call(fresh_names, "service.store.put"), "s"),
        "service.store.put_partial_s": (per_call(fresh_names, "service.store.put_partial"), "s"),
        "service.store.hits": (counters["store.hits"], "count"),
        "service.store.misses": (counters["store.misses"], "count"),
        "service.journal.append_s": (per_call(fresh_names, "service.journal.append"), "s"),
        "service.journal.records": (entry(fresh_names, "service.journal.append")["calls"], "count"),
        "service.journal.bytes": (entry(fresh_names, "service.journal.append")["extra"], "bytes"),
        "fsync.calls": (
            entry(fresh_names, "fsync")["calls"] + entry(hit_names, "fsync")["calls"], "count"
        ),
        "fsync_s": (per_call(fresh_names, "fsync"), "s"),
        # obs
        "obs.ledger.record_s": (per_call(fresh_names, "obs.ledger.record"), "s"),
        "obs.ledger.records": (entry(fresh_names, "obs.ledger.record")["calls"], "count"),
        "obs.merge_snapshots_s": (
            entry(fresh_names, "obs.merge_snapshots")["total_s"] / jobs, "s"
        ),
        # exact.cost (dispatch)
        "exact.cost.estimate_s": (per_call(fresh_names, "exact.cost.estimate"), "s"),
        "exact.cost.measured": (counters["dispatch.measured"], "count"),
        "exact.cost.worst_case": (counters["dispatch.worst_case"], "count"),
        # stochastic: traced in-process replay
        "stochastic.span_s": (_ratio(entry(replay_names, "stochastic.span")["total_s"], replay_jobs), "s"),
        "stochastic.compile_s": (
            _ratio(entry(replay_names, "stochastic.compile")["total_s"], replay_jobs), "s"
        ),
        "stochastic.seed_search_s": (
            _ratio(entry(replay_names, "stochastic.seed_search")["total_s"], replay_jobs), "s"
        ),
        "stochastic.strata.attempts": (attempts, "count"),
        "stochastic.strata.useful_ratio": (_ratio(erring, attempts), "frac"),
        "stochastic.prefix.replayed_gates": (
            replay_counters.get("prefix.replayed_gates", 0), "count"
        ),
        "stochastic.property_eval_s": (
            _ratio(entry(replay_names, "stochastic.property_eval")["total_s"], replay_jobs), "s"
        ),
        "stochastic.traj_s.p50": (
            _hist_quantile(trajectory_hist, 0.5) if trajectory_hist else 0.0, "s"
        ),
        "stochastic.self_frac": (_ratio(layer_self(replay_names, "stochastic"), replay_wall), "frac"),
        # simulators
        "simulators.apply_gate_calls": (entry(replay_names, "simulators.apply_gate")["calls"], "count"),
        "simulators.apply_gate_s": (
            _ratio(entry(replay_names, "simulators.apply_gate")["total_s"], replay_jobs), "s"
        ),
        "simulators.ddsim.s_per_eff_traj": (seconds_per_effective(replay["dd"]), "s"),
        "simulators.statevector.s_per_eff_traj": (seconds_per_effective(replay["statevector"]), "s"),
        "simulators.self_frac": (
            _ratio(layer_self(replay_names, "simulators"), replay_wall), "frac"
        ),
        # dd: replay plus the exact path in the scheduler process
        "dd.multiply_calls": (
            entry(replay_names, "dd.multiply")["calls"] + entry(fresh_names, "dd.multiply")["calls"],
            "count",
        ),
        "dd.multiply_s": (dd_time("dd.multiply"), "s"),
        "dd.multiply_matrices_s": (dd_time("dd.multiply_matrices"), "s"),
        "dd.add_s": (dd_time("dd.add"), "s"),
        "dd.inner_product_s": (dd_time("dd.inner_product"), "s"),
        "dd.node_count_s": (dd_time("dd.node_count"), "s"),
        "dd.gc_s": (dd_time("dd.gc"), "s"),
        "dd.compute.mat_vec.hit_ratio": (hit_ratio("dd.compute.mat_vec"), "frac"),
        "dd.compute.mat_mat.hit_ratio": (hit_ratio("dd.compute.mat_mat"), "frac"),
        "dd.unique.vector.hit_ratio": (hit_ratio("dd.unique.vector"), "frac"),
        "dd.unique.matrix.hit_ratio": (hit_ratio("dd.unique.matrix"), "frac"),
        "dd.complex.hit_ratio": (hit_ratio("dd.complex.real"), "frac"),
        "dd.peak_state_nodes": (max((result["peak_nodes"] for result in replayed), default=0), "nodes"),
        "dd.self_frac": (_ratio(dd_self, replay_wall + exact_run_total), "frac"),
        # exact
        "exact.run_s": (_ratio(exact_run_total, len(exact)), "s"),
        "exact.peak_rho_nodes": (max((result["peak_nodes"] for result in exact), default=0), "nodes"),
        "exact.superop_applications": (
            sum(result["counters"].get("exact.superop_applications", 0) for result in exact),
            "count",
        ),
        "exact.kraus_applications": (
            sum(result["counters"].get("exact.kraus_applications", 0) for result in exact),
            "count",
        ),
        # noise
        "noise.errors_fired": (sum(result["errors_fired"] for result in replayed), "count"),
        # trace
        "trace.overhead_frac": (_ratio(traced_total, untraced_total) - 1.0, "frac"),
        "trace.spans": (
            spans["fresh"]["spans"] + spans["hit"]["spans"] + replay["spans"]["spans"], "count"
        ),
        "trace.orphans": (
            spans["fresh"]["orphans"] + spans["hit"]["orphans"] + replay["spans"]["orphans"],
            "count",
        ),
    }
    print(
        f"{args.workload} traced: {jobs} jobs, {len(chunk_s)} chunks, "
        f"dd self share {metrics['dd.self_frac'][0]:.3f}, "
        f"{metrics['trace.spans'][0]} spans"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny trajectory budgets and fewer set-up probes (self-test)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    with open(REFERENCES_PATH) as handle:
        references = json.load(handle)["families"]
    os.makedirs(RUNS_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUNS_DIR)
    answers = Answers(references)
    try:
        if args.trace:
            metrics = per_layer(args, run_dir, answers)
        else:
            metrics = end_to_end(args, run_dir, answers)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for failure in answers.failures:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": not answers.failures,
                "attempted": answers.attempted,
                "failed": len(answers.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
