"""Measure the per-gate cost constants of the ``auto`` dispatcher's dense arm.

``repro.exact.cost`` routes an ``auto`` job from the DD backend to the
dense state-vector backend when the family's measured DD state size says a
DD gate costs more than a dense gate:

    DD_SECONDS_PER_NODE * peak_nodes  >  DENSE_SECONDS_PER_GATE
                                         + DENSE_SECONDS_PER_AMPLITUDE * 2**n

This script measures the three constants on the machine it runs on.  It
runs spans of stratified trajectories (paper noise, the engine's default)
through :func:`repro.stochastic.runner.run_trajectory_span` on a warm
backend, as a service worker does, and times the engine's checkpoint
replays (its ``execute_plan`` calls: gates plus their error insertion) per
executed gate.  Seed search and property evaluation are left out: they
cost about the same on both backends, so they do not move the comparison.

* ``DD_SECONDS_PER_NODE`` — median over the families of DD seconds per
  gate divided by the family's peak state-DD node count;
* ``DENSE_SECONDS_PER_GATE`` — dense seconds per gate at the narrowest
  width of a GHZ width sweep, where the amplitude term is negligible;
* ``DENSE_SECONDS_PER_AMPLITUDE`` — median over the sweep's widths >= 14
  of the remaining seconds per gate divided by ``2**n``.

Run:  PYTHONPATH=src python benchmarks/measure_arm_costs.py [--budget 0.5] [--json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from repro.circuits.library import (
    basis_trotter,
    ghz,
    ising,
    qft,
    vqe_uccsd,
)
from repro.noise import NoiseModel
from repro.stochastic import IdealFidelity
from repro.stochastic import runner

#: Families whose DD cost per node is measured: structured and dense ones,
#: all measurement-free (the ideal-fidelity property needs that).
DD_FAMILIES = {
    "ghz-8": lambda: ghz(8),
    "ghz-15": lambda: ghz(15),
    "qft-8": lambda: qft(8),
    "qft-10": lambda: qft(10),
    "ising-4": lambda: ising(4),
    "ising-6": lambda: ising(6),
    "ising-8": lambda: ising(8),
    "basis_trotter-4": lambda: basis_trotter(4),
    "vqe_uccsd-6": lambda: vqe_uccsd(6),
}

#: Widths of the dense sweep (GHZ circuits; the dense cost is structure-blind).
DENSE_WIDTHS = (4, 8, 12, 14, 16, 18)


def seconds_per_gate(backend_kind: str, circuit, budget: float):
    """(replay seconds per executed gate, peak DD nodes) on a warm backend."""
    noise = NoiseModel.paper_defaults()
    backend = runner._make_backend(backend_kind, circuit.num_qubits)
    context = runner._EvaluationContext(circuit, backend_kind)
    totals = {"seconds": 0.0, "gates": 0}
    execute_plan = runner.execute_plan

    def timed_execute_plan(*args, **kwargs):
        started = time.perf_counter()
        result = execute_plan(*args, **kwargs)
        totals["seconds"] += time.perf_counter() - started
        totals["gates"] += result.applied_gates
        return result

    def span(first: int):
        return runner.run_trajectory_span(
            circuit, noise, (IdealFidelity(),), backend_kind, first, 1, 0,
            backend=backend, context=context,
        )

    span(0)  # compiles the plans; not timed
    peak = 0
    first = 1
    runner.execute_plan = timed_execute_plan
    try:
        while first < 3 or totals["seconds"] < budget:
            peak = max(peak, span(first).peak_nodes)
            first += 1
    finally:
        runner.execute_plan = execute_plan
    return totals["seconds"] / max(1, totals["gates"]), peak


def measure(budget: float) -> dict:
    rows = []
    per_node = []
    for name, build in DD_FAMILIES.items():
        circuit = build()
        n = circuit.num_qubits
        dd_s, peak = seconds_per_gate("dd", circuit, budget)
        dense_s, _ = seconds_per_gate("statevector", circuit, budget)
        per_node.append(dd_s / peak)
        rows.append(
            {"family": name, "qubits": n, "peak_nodes": peak,
             "dd_s_per_gate": dd_s, "dense_s_per_gate": dense_s}
        )
    dense = [
        seconds_per_gate("statevector", ghz(n), budget)[0]
        for n in DENSE_WIDTHS
    ]
    per_gate = dense[0]
    per_amplitude = statistics.median(
        (seconds - per_gate) / 2**n
        for n, seconds in zip(DENSE_WIDTHS, dense)
        if n >= 14
    )
    return {
        "families": rows,
        "dense_sweep": [
            {"qubits": n, "dense_s_per_gate": s} for n, s in zip(DENSE_WIDTHS, dense)
        ],
        "DD_SECONDS_PER_NODE": statistics.median(per_node),
        "DENSE_SECONDS_PER_GATE": per_gate,
        "DENSE_SECONDS_PER_AMPLITUDE": per_amplitude,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=0.5,
                        help="seconds of trajectories per (family, backend)")
    parser.add_argument("--json", action="store_true", help="print JSON")
    args = parser.parse_args(argv)
    payload = measure(args.budget)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{'family':16s} {'n':>3s} {'peak':>5s} {'DD s/gate':>10s} "
          f"{'s/gate/node':>11s} {'dense s/gate':>12s}")
    for row in payload["families"]:
        print(f"{row['family']:16s} {row['qubits']:3d} {row['peak_nodes']:5d} "
              f"{row['dd_s_per_gate']:10.2e} "
              f"{row['dd_s_per_gate'] / row['peak_nodes']:11.2e} "
              f"{row['dense_s_per_gate']:12.2e}")
    for row in payload["dense_sweep"]:
        print(f"dense ghz-{row['qubits']:<2d} {row['dense_s_per_gate']:.2e} s/gate")
    for name in ("DD_SECONDS_PER_NODE", "DENSE_SECONDS_PER_GATE",
                 "DENSE_SECONDS_PER_AMPLITUDE"):
        print(f"{name} = {payload[name]:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
