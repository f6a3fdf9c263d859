"""Regenerate ``references.json``: the reference answer of every
(circuit family, property) the workloads ask for.

Families of at most 13 qubits go through the dense density-matrix oracle
(``DensityMatrixSimulator.run_circuit_with_model``); larger ones through
the exact rho-DD simulator (``simulate_exact``), since the dense oracle
refuses them.  Both use the paper's noise rates, like the workloads.
The values are committed rather than recomputed per run: the dense
oracle alone takes minutes (ghz-12 ~150 s, qft-10 ~30 s).

Usage, from the repository root (rewrites ``perfbench/references.json``)::

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.exact import simulate_exact  # noqa: E402
from repro.noise import NoiseModel  # noqa: E402
from repro.simulators.base import execute_circuit  # noqa: E402
from repro.simulators.density_matrix import DensityMatrixSimulator  # noqa: E402
from repro.simulators.statevector import StatevectorBackend  # noqa: E402

from workloads import FAMILIES  # noqa: E402

REFERENCES_PATH = os.path.join(HERE, "references.json")
DENSE_MAX_QUBITS = 13


def dense_reference(family) -> dict:
    circuit = family.build()
    oracle = DensityMatrixSimulator(circuit.num_qubits)
    oracle.run_circuit_with_model(circuit, NoiseModel.paper_defaults())
    ideal = StatevectorBackend(circuit.num_qubits)
    execute_circuit(ideal, circuit, random.Random(0))
    values = {}
    for prop in family.properties():
        if prop.name == "F(ideal)":
            values[prop.name] = float(oracle.fidelity_with_pure(ideal.statevector()))
        else:
            values[prop.name] = float(
                oracle.probability_of_basis([int(bit) for bit in prop.bits])
            )
    return values


def exact_reference(family) -> dict:
    result = simulate_exact(
        family.build(), NoiseModel.paper_defaults(), family.properties()
    )
    return {name: estimate.mean for name, estimate in result.estimates.items()}


def main() -> int:
    references = {}
    for name in sorted(FAMILIES):
        family = FAMILIES[name]
        started = time.perf_counter()
        if family.num_qubits <= DENSE_MAX_QUBITS:
            oracle, values = "dense density-matrix oracle", dense_reference(family)
        else:
            oracle, values = "simulate_exact (rho DD)", exact_reference(family)
        references[name] = {"oracle": oracle, "values": values}
        print(
            f"{name}: {values} via {oracle} "
            f"({time.perf_counter() - started:.1f} s)",
            flush=True,
        )
    payload = {
        "noise": "NoiseModel.paper_defaults()",
        "command": "python3 perfbench/make_references.py",
        "families": references,
    }
    with open(REFERENCES_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
