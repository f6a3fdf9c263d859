"""Decision-diagram simulator backend (the paper's proposed engine).

Wraps a :class:`~repro.dd.package.DDPackage` behind the common
:class:`~repro.simulators.base.StateBackend` protocol: the current state is
a DD root edge, gates become matrix DDs (cached per package), and gate
application is the recursive DD matrix-vector multiplication of Section
IV-B.  Reference counting pins the live state and an adaptive garbage
collection keeps long stochastic trajectories within bounded memory.

The backend also records the peak decision-diagram size seen during a run —
the quantity that explains *why* this simulator wins or loses each Table Ic
row.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Sequence

import numpy as np

from ..dd.edge import Edge
from ..dd.package import DDPackage
from ..obs import profile as _profile
from ..obs.metrics import NODE_BUCKETS
from .gateplan import NoiseOperatorCache

__all__ = ["DDBackend"]

_PAULI_MATRICES = {
    "I": None,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pauli_operator_dd(package: DDPackage, pauli: str, num_qubits: int) -> Edge:
    """Tensor-operator DD for a Pauli string (qubit 0 leftmost)."""
    if len(pauli) != num_qubits:
        raise ValueError(f"Pauli string must have {num_qubits} letters, got {len(pauli)}")
    try:
        factors = [_PAULI_MATRICES[letter] for letter in pauli.upper()]
    except KeyError as error:
        raise ValueError(f"invalid Pauli letter {error.args[0]!r}") from None
    return package.tensor_operator(factors)


class DDBackend:
    """DD-based simulator backend implementing :class:`StateBackend` and
    :class:`~repro.simulators.base.ReplayBackend`."""

    def __init__(
        self,
        num_qubits: int,
        package: Optional[DDPackage] = None,
        initial_state: Optional[Edge] = None,
    ) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        #: Sharing one package across trajectories reuses gate DDs and
        #: unique-table structure — the intended usage of the JKU engine.
        self.package = package if package is not None else DDPackage(num_qubits)
        state = initial_state if initial_state is not None else self.package.zero_state(num_qubits)
        self._state = self.package.inc_ref(state)
        self.peak_nodes = self.package.node_count(state)
        self._nodes_hist = self.package.metrics.histogram("dd.state_nodes", NODE_BUCKETS)
        #: Cached noise-operator DDs (Paulis, damping Kraus branches); the
        #: stochastic error applier routes firings through this so an error
        #: costs one multiply instead of a matrix-keyed gate rebuild.
        self.noise_ops = NoiseOperatorCache(self.package, num_qubits)

    @property
    def state(self) -> Edge:
        """The current state's root edge."""
        return self._state

    def _replace_state(self, new_state: Edge) -> None:
        """Swap in a new state edge with correct reference accounting."""
        self.package.inc_ref(new_state)
        self.package.dec_ref(self._state)
        self._state = new_state
        self.package.garbage_collect()
        nodes = self.package.node_count(new_state)
        self._nodes_hist.observe(float(nodes))
        if nodes > self.peak_nodes:
            self.peak_nodes = nodes
        prof = _profile.ACTIVE
        if prof is not None:
            prof.record_nodes(nodes)

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------

    def apply_gate(self, matrix: np.ndarray, target: int, controls: Dict[int, int]) -> None:
        gate_dd = self.package.gate(matrix, target, controls, self.num_qubits)
        self._replace_state(self.package.multiply(gate_dd, self._state))

    def apply_gate_edge(self, gate_dd: Edge) -> None:
        """Apply a pre-resolved operator DD (compiled gate plans, cached
        noise operators) — the hot path with all cache keying hoisted out."""
        self._replace_state(self.package.multiply(gate_dd, self._state))

    def apply_step(self, step) -> None:
        """Apply one :class:`~repro.simulators.gateplan.PlanStep` compiled
        against this backend's package (its pinned operator DD)."""
        self.apply_gate_edge(step.gate_edge)

    # ------------------------------------------------------------------
    # Probabilities and measurement
    # ------------------------------------------------------------------

    def probability_of_one(self, qubit: int) -> float:
        return self.package.probability_of_one(self._state, qubit)

    def measure(self, qubit: int, rng: random.Random) -> int:
        outcome, collapsed, _ = self.package.measure_qubit(self._state, qubit, rng)
        self._replace_state(collapsed)
        return outcome

    def reset(self, qubit: int, rng: random.Random) -> None:
        outcome = self.measure(qubit, rng)
        if outcome == 1:
            x_matrix = np.array([[0, 1], [1, 0]], dtype=complex)
            self.apply_gate(x_matrix, qubit, {})

    def apply_kraus_branch(
        self, kraus_operators: Sequence[np.ndarray], qubit: int, rng: random.Random
    ) -> int:
        """Select a Kraus branch by candidate norms (paper Example 6).

        With sum-of-squares normalisation the squared norm of each candidate
        is just ``|root weight|^2`` — an O(1) read after the multiply.
        """
        package = self.package
        kraus_edges = [
            package.gate(np.asarray(kraus, dtype=complex), qubit, None, self.num_qubits)
            for kraus in kraus_operators
        ]
        return self.apply_kraus_edges(kraus_edges, rng)

    def apply_kraus_edges(self, kraus_edges: Sequence[Edge], rng: random.Random) -> int:
        """:meth:`apply_kraus_branch` with the operator DDs pre-resolved
        (same branch-selection rng draw, no per-firing gate construction)."""
        package = self.package
        candidates = []
        probabilities = []
        for gate_dd in kraus_edges:
            candidate = package.multiply(gate_dd, self._state)
            candidates.append(candidate)
            probabilities.append(package.squared_norm(candidate))
        total = sum(probabilities)
        if total <= 0.0:
            raise ValueError("Kraus branch probabilities sum to zero")
        pick = rng.random() * total
        cumulative = 0.0
        chosen = len(candidates) - 1
        for index, weight in enumerate(probabilities):
            cumulative += weight
            if pick < cumulative:
                chosen = index
                break
        normalised = package.scale(candidates[chosen], 1.0 / math.sqrt(probabilities[chosen]))
        self._replace_state(normalised)
        return chosen

    # ------------------------------------------------------------------
    # Properties and sampling
    # ------------------------------------------------------------------

    def probability_of_basis(self, bits: Sequence[int]) -> float:
        amplitude = self.package.get_amplitude(self._state, [int(b) for b in bits])
        return float(abs(amplitude) ** 2)

    def snapshot(self) -> Edge:
        """Pin and return the current state edge as a fidelity target."""
        return self.package.inc_ref(self._state)

    def fidelity(self, handle: Edge) -> float:
        return self.package.fidelity(handle, self._state)

    def statevector(self) -> np.ndarray:
        return self.package.to_state_vector(self._state, self.num_qubits)

    def pauli_expectation(self, pauli: str) -> float:
        """Expectation value ``<psi| P |psi>`` of a Pauli string.

        ``pauli`` has one letter (I/X/Y/Z) per qubit, qubit 0 leftmost.
        Computed as a tensor-operator DD application plus an inner product
        — linear in the state's diagram size.
        """
        operator = _pauli_operator_dd(self.package, pauli, self.num_qubits)
        transformed = self.package.multiply(operator, self._state)
        value = self.package.inner_product(self._state, transformed)
        return float(value.real)

    def sample_counts(self, shots: int, rng: random.Random) -> Dict[str, int]:
        return self.package.sample_counts(self._state, shots, rng)

    def sample_snapshot(self, handle: Edge, shots: int, rng: random.Random) -> Dict[str, int]:
        """Sample a pinned snapshot without loading it."""
        return self.package.sample_counts(handle, shots, rng)

    def handle_from_vector(self, vector: np.ndarray) -> Edge:
        """A pinned snapshot handle for an explicit dense state."""
        return self.package.inc_ref(self.package.from_state_vector(vector))

    # ------------------------------------------------------------------
    # Numerical health (see docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------

    def squared_norm(self) -> float:
        """Squared norm of the current state — O(1) on the root weight."""
        return self.package.squared_norm(self._state)

    def scale_state(self, factor: complex) -> None:
        """Multiply the state by a scalar (breaks normalisation on purpose;
        the drift-fault injection site and numerical-guard tests use this)."""
        self._replace_state(self.package.scale(self._state, factor))

    def renormalize(self) -> None:
        """Rescale the root weight back to unit norm."""
        self._replace_state(self.package.normalize(self._state))

    # ------------------------------------------------------------------
    # Trajectory reuse and diagnostics
    # ------------------------------------------------------------------

    def reset_all(self) -> None:
        """Reset to |0...0> for the next trajectory (package state shared)."""
        self._replace_state(self.package.zero_state(self.num_qubits))

    def load_state(self, edge: Edge) -> None:
        """Jump the backend to a pinned state edge (same package).

        The prefix-sharing engine uses this to resume an erring trajectory
        from a refcounted ideal-prefix checkpoint, or to materialise the
        shared ideal state for property evaluation — O(1) versus replaying
        the gate prefix.
        """
        self._replace_state(edge)

    def start_span(self) -> None:
        """Start a span of trajectories from |0...0> with a fresh peak:
        a warm backend must not leak the previous job's state width."""
        self.reset_all()
        self.reset_peak_nodes()

    def end_span(self) -> None:
        """Span boundary: force one full sweep regardless of the dead-node
        watermark, so a span never hands accumulated garbage to its
        successor (the per-gate calls are paced)."""
        self.package.garbage_collect(force=True)

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """The package's table counters (see DDPackage.metrics_snapshot)."""
        return self.package.metrics_snapshot()

    def reset_peak_nodes(self) -> None:
        """Restart peak tracking from the current state.

        A warm backend keeps ``peak_nodes`` across trajectories by design
        (it is the per-span maximum), but a new *span* must not inherit the
        previous job's peak — call this at span start.
        """
        self.peak_nodes = self.package.node_count(self._state)

    def release(self) -> None:
        """Drop the reference on the current state (end of backend life)."""
        self.package.dec_ref(self._state)

    def release_snapshot(self, handle: Edge) -> None:
        """Drop the reference a :meth:`snapshot` call acquired."""
        self.package.dec_ref(handle)

    def current_nodes(self) -> int:
        """Node count of the current state's decision diagram."""
        return self.package.node_count(self._state)
