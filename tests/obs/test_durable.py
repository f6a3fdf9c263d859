"""The DurableLog contract, checked once over both record schemas on it:
the job journal and the run ledger."""

import math
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, get_injector, reset_injector_cache
from repro.obs import durable
from repro.obs.ledger import RunLedger, ledger_path, replay_ledger
from repro.service.journal import JobJournal, journal_path, replay_journal

KEYS = ("a" * 64, "b" * 64, "c" * 64)


def _journal_op(journal, op, key, value):
    if op == "submit":
        journal.job_submitted(key, {"trajectories": 8, "seed": value})
    elif op == "plan":
        journal.plan_recorded(key, [(0, 0, 4), (1, 4, 4)], [])
    elif op == "lease":
        journal.lease_granted(key, value % 2, "host:1", value, 99.0)
    elif op == "chunk-done":
        chunk = value % 2
        journal.chunk_done(key, chunk, 4 * chunk, 4, value, {"first": 4 * chunk, "v": value})
    else:
        journal.job_done(key, "completed")


def _ledger_op(ledger, op, key, value):
    fingerprint = key[-16:]
    if op == "run":
        ledger.record_run(
            key, fingerprint, "exact" if value % 3 == 0 else "stochastic",
            qubits=4, depth=5, peak_nodes=value + 1, cpu_seconds=value * 0.1,
            elapsed_seconds=value * 0.2, trajectories=100,
            effective_trajectories=90.5, trajectories_per_second=value + 0.5,
            p_clean=0.9, halfwidths={"P(0000)": 0.01},
        )
    else:
        ledger.record_fallback(key, fingerprint, nodes=value + 10, ceiling=8)


def _journal_view(jobs):
    return list(jobs.items())


def _ledger_view(state):
    return [
        (fp, state.aggregates[fp].to_dict(), state.recent.get(fp, []))
        for fp in state.order
    ]


LOGS = {
    "journal": dict(
        cls=JobJournal, path=journal_path, op=_journal_op,
        ops=("submit", "plan", "lease", "chunk-done", "job-done"),
        replay=replay_journal, view=_journal_view,
        mirror=lambda log: _journal_view(log._state.jobs),
    ),
    "ledger": dict(
        cls=RunLedger, path=ledger_path, op=_ledger_op, ops=("run", "fallback"),
        replay=replay_ledger, view=_ledger_view,
        mirror=lambda log: _ledger_view(log._state),
    ),
}
OTHER = {"journal": "ledger", "ledger": "journal"}


def _rotations(log):
    return log.metrics.counter(f"{log.NAME}.rotations").value


fault_specs = st.lists(
    st.builds(
        FaultSpec,
        kind=st.sampled_from(
            ["torn-journal", "enospc-journal", "torn-ledger", "enospc-ledger"]
        ),
        job_key=st.sampled_from((None,) + KEYS),
        operation=st.sampled_from(
            (None, "submit", "plan", "lease", "chunk-done", "job-done", "run", "fallback")
        ),
        times=st.integers(1, 3),
    ),
    max_size=4,
)


@pytest.mark.parametrize("name", sorted(LOGS))
@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 50)),
        min_size=1,
        max_size=40,
    ),
    faults=fault_specs,
    max_bytes=st.sampled_from([300, 1_000, 4_000]),
    cooldown=st.sampled_from([0.0, durable.DEGRADED_COOLDOWN]),
)
def test_mirror_is_replay_after_every_rotation(name, steps, faults, max_bytes, cooldown):
    spec = LOGS[name]
    ops = spec["ops"]
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
        mp.setattr(durable, "DEGRADED_COOLDOWN", cooldown)
        mp.setenv(PLAN_ENV, FaultPlan(faults=tuple(faults), seed=0).to_json())
        reset_injector_cache()
        path = spec["path"](directory)
        try:
            with spec["cls"](path, max_bytes=max_bytes) as log:
                assert spec["mirror"](log) == spec["view"](spec["replay"](path))
                for op, key, value in steps:
                    before = _rotations(log)
                    spec["op"](log, ops[op % len(ops)], KEYS[key], value)
                    if _rotations(log) > before:
                        assert spec["mirror"](log) == spec["view"](spec["replay"](path))
            first = spec["view"](spec["replay"](path))
            assert spec["view"](spec["replay"](path)) == first
            with spec["cls"](path, max_bytes=max_bytes) as reopened:
                assert spec["mirror"](reopened) == spec["view"](spec["replay"](path))
            fired = get_injector().snapshot()["counters"]
            other = OTHER[name]
            assert fired.get(f"faults.injected.torn-{other}", 0) == 0
            assert fired.get(f"faults.injected.enospc-{other}", 0) == 0
        finally:
            reset_injector_cache()


def _grow_ledger(path, appends):
    with RunLedger(path, max_bytes=2_000) as ledger:
        for i in range(appends):
            # Each new family adds one aggregate record to the compacted file.
            _ledger_op(ledger, "run", f"{i:064x}", i)
        return _rotations(ledger)


def _grow_journal(path, appends):
    with JobJournal(path, max_bytes=2_000) as journal:
        journal.job_submitted(KEYS[0], {"trajectories": 4 * appends})
        journal.plan_recorded(KEYS[0], [(i, 4 * i, 4) for i in range(appends)], [])
        for i in range(appends):
            journal.chunk_done(KEYS[0], i, 4 * i, 4, i, {"first": 4 * i})
        return _rotations(journal)


def _finish_short_jobs(path, appends):
    # One incomplete job keeps the compacted file above the job-done floor
    # (max_bytes // 8); every short job that follows finishes at once.
    with JobJournal(path, max_bytes=16_000) as journal:
        journal.job_submitted(KEYS[0], {"trajectories": 400})
        journal.plan_recorded(KEYS[0], [(i, 4 * i, 4) for i in range(100)], [])
        for i in range(30):
            journal.chunk_done(KEYS[0], i, 4 * i, 4, i, {"first": 4 * i})
        for i in range(appends):
            key = f"{i + 1:064x}"
            journal.job_submitted(key, {"trajectories": 4})
            journal.job_done(key, "completed")
        return _rotations(journal)


@pytest.mark.parametrize("grow", [_grow_ledger, _grow_journal, _finish_short_jobs])
def test_oversized_compacted_file_rotates_logarithmically(tmp_path, grow):
    """Appends over a compacted file larger than the rotation floor must not
    rewrite the whole file every time.  While the live records grow, N
    appends cost O(log N) rotations; at a steady live size each rotation is
    paid for by as many appended bytes as it rewrites."""
    appends = 256
    rotations = grow(str(tmp_path / "log.jsonl"), appends)
    assert rotations <= 2 * math.log2(appends) + 2
