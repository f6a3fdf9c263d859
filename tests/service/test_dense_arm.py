"""The dense arm of ``method="auto"`` through the scheduler and the journal.

A cold ledger keeps an ``auto`` job on the DD backend.  Once the family's
state-DD size is measured and a DD gate is predicted dearer than a dense
one, the same spec runs on the state-vector backend — and, because both
arms run one stratified engine, returns the same answer.  The arm a job
was planned on is pinned in the journal, so a resume never switches arms.
"""

import queue
import shutil

import pytest

from repro.circuits.library import ghz
from repro.exact.cost import MEASURED_COST_ENV
from repro.noise import NoiseModel
from repro.obs.ledger import RunLedger, circuit_fingerprint, ledger_path, replay_ledger
from repro.service import JobSpec, ResultStore, Scheduler
from repro.service.journal import JobJournal, journal_path, replay_journal
from repro.service.serve import serve
from repro.service.worker import ChunkTask, worker_main
from repro.stochastic import BasisProbability, IdealFidelity

NOISE = NoiseModel.paper_defaults().scaled(20)
CIRCUIT = ghz(4)


def spec_for(seed: int, trajectories: int = 24) -> JobSpec:
    return JobSpec.build(
        CIRCUIT,
        NOISE,
        [IdealFidelity(), BasisProbability("0000")],
        trajectories=trajectories,
        seed=seed,
        sample_shots=2,
        method="auto",
    )


def assert_same_answer(a, b, exact: bool = False):
    """Equal discrete fields; property sums equal (bitwise when ``exact``)."""
    assert a.completed_trajectories == b.completed_trajectories
    assert a.errors_fired == b.errors_fired
    assert a.outcome_counts == b.outcome_counts
    assert a.clean_outcome_counts == b.clean_outcome_counts
    for key in ("erring_sampled", "attempts", "rejected_clean"):
        assert a.strata[key] == b.strata[key], key
    for name, estimate in a.estimates.items():
        other = b.estimates[name]
        assert estimate.count == other.count
        for field in ("total", "total_squared"):
            if exact:
                assert getattr(estimate, field) == getattr(other, field), name
            else:
                assert getattr(estimate, field) == pytest.approx(
                    getattr(other, field), abs=1e-9
                ), name


def run_in(directory: str, *specs, chunk_size=None):
    """Run specs through a journaled, ledgered scheduler; (results, decisions, counters)."""
    store = ResultStore(directory)
    with JobJournal(journal_path(directory)) as journal, RunLedger(
        ledger_path(directory)
    ) as ledger, Scheduler(
        workers=1, store=store, journal=journal, ledger=ledger, chunk_size=chunk_size
    ) as scheduler:
        results, decisions = [], []
        for spec in specs:
            key = scheduler.submit(spec)
            results.append(scheduler.result(key, timeout=120))
            decisions.append(scheduler.decision_for(key))
        counters = scheduler.metrics_snapshot()["counters"]
    return results, decisions, counters


class TestWarmVersusColdLedger:
    def test_cold_runs_dd_warm_runs_dense_with_the_same_answer(self, tmp_path):
        (cold,), (cold_decision,), cold_counters = run_in(
            str(tmp_path / "cold"), spec_for(seed=5)
        )
        assert cold_decision.backend == "dd" and cold_decision.evidence == "worst_case"
        assert cold.backend_kind == "dd"
        assert cold_counters["dispatch.backend.dd"] == 1
        assert cold_counters["dispatch.backend.statevector"] == 0

        (seeding, warm), (_, decision), counters = run_in(
            str(tmp_path / "warm"), spec_for(seed=6), spec_for(seed=5)
        )
        assert seeding.backend_kind == "dd"
        assert decision.method == "stochastic" and decision.backend == "statevector"
        assert decision.route == "stochastic/statevector"
        rendered = decision.render()
        assert "measured evidence" in rendered and "dense arm" in rendered
        assert warm.backend_kind == "statevector"
        assert counters["dispatch.backend.dd"] == 1
        assert counters["dispatch.backend.statevector"] == 1
        assert_same_answer(warm, cold)

        # The dense run is its own ledger family: the DD family's evidence
        # still rests on the one DD run.
        state = replay_ledger(ledger_path(str(tmp_path / "warm")))
        dd_family = state.aggregates[circuit_fingerprint(CIRCUIT, NOISE)]
        dense_family = state.aggregates[circuit_fingerprint(CIRCUIT, NOISE, "statevector")]
        assert dd_family.stochastic_runs == 1
        assert dense_family.stochastic_runs == 1

    def test_escape_hatch_keeps_warm_jobs_on_dd(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MEASURED_COST_ENV, "off")
        (_, warm), (_, decision), _ = run_in(
            str(tmp_path / "warm"), spec_for(seed=6), spec_for(seed=5)
        )
        assert decision.backend == "dd" and decision.evidence == "worst_case"
        assert warm.backend_kind == "dd"


def crashed_copy(source: str, target: str, key: str, keep_backend: bool) -> int:
    """A journal that died with the first half of ``key``'s chunks committed.

    Built from the uninterrupted run's journal (whose folded state keeps
    every committed chunk payload); ``keep_backend=False`` writes the plan
    record the way journals did before the dense arm existed.
    """
    job = replay_journal(journal_path(source))[key]
    committed = sorted(job.completed)[: len(job.plan) // 2]
    with JobJournal(journal_path(target)) as journal:
        journal.job_submitted(key, job.spec_dict)
        journal.plan_recorded(
            key, job.plan, [], backend=job.backend if keep_backend else None
        )
        for index in committed:
            _, first, count = job.plan[index]
            journal.chunk_done(key, index, first, count, 0, job.completed[index])
    return len(committed)


class TestResumePinsTheArm:
    @pytest.mark.parametrize("ledger", ["cold", "warm"])
    def test_dense_job_resumes_dense_bit_identically(self, tmp_path, ledger):
        source = str(tmp_path / "source")
        (_, reference), _, _ = run_in(
            source, spec_for(seed=6), spec_for(seed=5), chunk_size=4
        )
        assert reference.backend_kind == "statevector"
        key = spec_for(seed=5).job_key()
        assert replay_journal(journal_path(source))[key].backend == "statevector"

        target = str(tmp_path / "target")
        assert crashed_copy(source, target, key, keep_backend=True) > 0
        if ledger == "warm":
            shutil.copytree(
                f"{source}/ledger", f"{target}/ledger", dirs_exist_ok=True
            )
        store = ResultStore(target)
        serve(store, workers=1, once=True, resume=True,
              install_signal_handlers=False, log=lambda line: None)
        resumed = store.get(key)
        assert resumed.backend_kind == "statevector"
        assert_same_answer(resumed, reference, exact=True)

    def test_journal_without_backend_resumes_on_the_spec_backend(self, tmp_path):
        warm = str(tmp_path / "warm")
        (_, dense), _, _ = run_in(warm, spec_for(seed=6), spec_for(seed=5))
        assert dense.backend_kind == "statevector"
        cold = str(tmp_path / "cold")
        (dd_reference,), _, _ = run_in(cold, spec_for(seed=5), chunk_size=4)
        assert dd_reference.backend_kind == "dd"
        key = spec_for(seed=5).job_key()

        # A DD run's journal in the parent format, resumed under a ledger
        # that would now pick the dense arm: it stays on the spec's DD.
        target = str(tmp_path / "target")
        crashed_copy(cold, target, key, keep_backend=False)
        shutil.copytree(f"{warm}/ledger", f"{target}/ledger", dirs_exist_ok=True)
        store = ResultStore(target)
        serve(store, workers=1, once=True, resume=True,
              install_signal_handlers=False, log=lambda line: None)
        resumed = store.get(key)
        assert resumed.backend_kind == "dd"
        assert_same_answer(resumed, dd_reference, exact=True)


def test_worker_keeps_one_warm_backend_per_arm():
    # A resubmitted job key may come back on the other arm once the
    # ledger has warmed up; its warm DD backend must not serve it.
    tasks, outcomes = queue.Queue(), queue.Queue()
    for kind in ("dd", "statevector", None):
        tasks.put(
            None if kind is None else ChunkTask(
                job_key="same-key", chunk_index=0, circuit=CIRCUIT,
                noise_model=NOISE, properties=(IdealFidelity(),),
                backend_kind=kind, first_trajectory=0, num_trajectories=3,
                master_seed=1, sample_shots=1, deadline=None,
            )
        )
    worker_main(0, tasks, outcomes)
    dd, dense = outcomes.get_nowait(), outcomes.get_nowait()
    assert dd.result.peak_nodes > 0
    assert dense.error is None and dense.result.peak_nodes == 0
