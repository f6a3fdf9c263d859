"""Workload definitions: circuit families, budgets and seeded job streams.

Every workload is a cycle of circuit families.  A run submits the cycle
over and over, one job outstanding at a time; job ``i`` of a run draws its
master seed from the benchmark seed, so the same ``--seed`` gives the same
job specs and every timed job has a distinct job key.  The program only
ever sees the generated :class:`repro.service.JobSpec` objects.

All noise is the paper's evaluation configuration
(``NoiseModel.paper_defaults()``, event-mode amplitude damping).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from repro.circuits.library import basis_trotter, ghz, ising, qft
from repro.noise import NoiseModel
from repro.service import JobSpec
from repro.stochastic import BasisProbability, IdealFidelity


@dataclass(frozen=True)
class Family:
    """One circuit family of a workload: what a job of it asks for."""

    name: str
    build: Callable[[], object]
    num_qubits: int
    zero_probability: bool
    method: str
    trajectories: int
    #: Budget in ``--quick`` mode (exact jobs ignore the budget).
    quick_trajectories: int

    def properties(self) -> Tuple[object, ...]:
        props: Tuple[object, ...] = (IdealFidelity(),)
        if self.zero_probability:
            props += (BasisProbability("0" * self.num_qubits),)
        return props


FAMILIES: Dict[str, Family] = {
    family.name: family
    for family in (
        # DD-friendly: states stay at a few dozen nodes and p_clean is high,
        # so service overhead (compile, seed search, chunking, fsyncs)
        # carries the job.  Budgets give both families ~1.9 s jobs, so the
        # latency median stays inside one population.
        Family("qft-10", lambda: qft(10), 10, True, "stochastic", 600, 40),
        Family("ghz-15", lambda: ghz(15), 15, False, "stochastic", 2000, 100),
        # DD-hostile (Table Ic): ising-6 peaks at 63 nodes (fully dense),
        # basis_trotter-4 has 512 gates.  Budgets give both families ~2 s
        # jobs.
        Family("ising-6", lambda: ising(6), 6, False, "auto", 6, 2),
        Family("basis_trotter-4", lambda: basis_trotter(4), 4, False, "auto", 18, 4),
        # Exact density-matrix jobs.  qft-6 rather than qft-5: qft-5 runs
        # in ~0.3 s against ~1.2 s for ghz-12, which splits the latency
        # median across two populations; qft-6 takes ~1.3 s.
        Family("ghz-12", lambda: ghz(12), 12, True, "exact", 1000, 1000),
        Family("qft-6", lambda: qft(6), 6, True, "exact", 1000, 1000),
    )
}


#: Workload name -> the circuit families one cycle submits.  Why each
#: workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "stream-friendly": ("qft-10", "ghz-15"),
    "stream-hostile": ("ising-6", "basis_trotter-4"),
    "exact-rho": ("ghz-12", "qft-6"),
}

#: Jobs in the fixed job list of a traced run: two cycles, so the run
#: ledger's warm-up (first job of a family cold, the second measured) is
#: part of every traced run.
TRACE_CYCLES = 2


def job_seed(workload: str, seed: int, index: int) -> int:
    """Master seed of job ``index`` of a run (stable across platforms)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:6], "big")


def make_spec(family: Family, seed: int, quick: bool = False) -> JobSpec:
    trajectories = family.quick_trajectories if quick else family.trajectories
    return JobSpec(
        circuit=family.build(),
        noise_model=NoiseModel.paper_defaults(),
        properties=family.properties(),
        trajectories=trajectories,
        seed=seed,
        method=family.method,
    )


def job_stream(workload: str, seed: int, quick: bool = False) -> Iterator[Tuple[str, JobSpec]]:
    """Endless (family name, spec) stream cycling the workload's families."""
    families = [FAMILIES[name] for name in WORKLOADS[workload]]
    index = 0
    while True:
        for family in families:
            yield family.name, make_spec(family, job_seed(workload, seed, index), quick)
            index += 1


def job_list(workload: str, seed: int, quick: bool = False) -> List[Tuple[str, JobSpec]]:
    """The fixed job list of a traced run (``TRACE_CYCLES`` full cycles)."""
    stream = job_stream(workload, seed, quick)
    count = TRACE_CYCLES * len(WORKLOADS[workload])
    return [next(stream) for _ in range(count)]
