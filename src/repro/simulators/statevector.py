"""Dense state-vector backend (the array-based baseline).

This is the reproduction's stand-in for the paper's comparison simulators —
Qiskit's ``statevector`` simulator and Atos QLM's ``LinAlg`` engine (both
closed to this offline environment).  Like them it stores all ``2**n``
amplitudes in a flat array and pays O(2**n) work per gate, which is exactly
the scaling behaviour Tables Ia-Ic measure against.

Gates are applied in-place through NumPy tensor views: the state is held as
an ``(2,) * n`` array whose axis ``q`` is qubit ``q`` (qubit 0 most
significant, the paper's convention), controls select sub-views, and the
2x2 matrix contracts against the target axis.

The backend also implements the replay operations the stochastic engine
needs (:class:`~repro.simulators.base.ReplayBackend`): snapshots are dense
copies, so prefix sharing and stratified sampling run on it unchanged, and
outcome sampling walks the same per-qubit descent as
:meth:`repro.dd.package.DDPackage.sample_counts`, so both backends draw the
same histograms from the same rng stream.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Sequence

import numpy as np

from ..dd.package import _binomial

__all__ = ["StatevectorBackend"]

#: Probabilities below this count as exact zeros (``probability_of_one``,
#: sampling branches).  The DD package snaps amplitudes under its
#: complex-table tolerance (1e-12) to zero, and the noise layer and the
#: samplers skip rng draws for zero-probability events; rounding residue
#: of ~1e-33 here must not consume draws the DD backend does not.
_NEGLIGIBLE = 1e-24


def _prefix_masses(amplitudes: np.ndarray, num_qubits: int) -> list:
    """``masses[k][i]``: probability that qubits ``0..k-1`` read ``i``."""
    masses = [amplitudes.real**2 + amplitudes.imag**2]
    for _ in range(num_qubits):
        masses.append(masses[-1].reshape(-1, 2).sum(axis=1))
    masses.reverse()
    return masses


def _sample_counts(amplitudes: np.ndarray, num_qubits: int, shots: int, rng) -> Dict[str, int]:
    """Per-qubit descent mirroring :meth:`DDPackage.sample_counts`.

    One shot draws one uniform per qubit (``sample_basis_state``); more
    shots split binomially down the tree, 0-branch first
    (``_sample_multinomial``), so equal states give equal histograms on
    both backends.
    """
    if shots <= 0:
        return {}
    masses = _prefix_masses(amplitudes, num_qubits)
    counts: Dict[str, int] = {}
    if shots == 1:
        index = 0
        for level in masses[1:]:
            p0, p1 = level[2 * index], level[2 * index + 1]
            index = 2 * index + (0 if rng.random() * (p0 + p1) < p0 else 1)
        counts[format(index, f"0{num_qubits}b")] = 1
        return counts

    def split(depth: int, index: int, shots: int) -> None:
        while depth < num_qubits:
            p0, p1 = masses[depth + 1][2 * index], masses[depth + 1][2 * index + 1]
            p = p0 / (p0 + p1)
            if p < _NEGLIGIBLE:
                p = 0.0
            elif 1.0 - p < _NEGLIGIBLE:
                p = 1.0
            taken0 = _binomial(rng, shots, p)
            depth += 1
            if taken0 == shots:
                index = 2 * index
                continue
            if taken0:
                split(depth, 2 * index, taken0)
            shots -= taken0
            index = 2 * index + 1
        key = format(index, f"0{num_qubits}b")
        counts[key] = counts.get(key, 0) + shots

    split(0, 0, shots)
    return counts


class StatevectorBackend:
    """Array-based simulator backend implementing :class:`StateBackend`
    and :class:`~repro.simulators.base.ReplayBackend`."""

    #: A dense vector has no decision diagram to measure.
    peak_nodes = 0

    def __init__(self, num_qubits: int, initial_state: Optional[np.ndarray] = None) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if num_qubits > 30:
            raise ValueError(
                f"a dense state vector over {num_qubits} qubits needs "
                f"{(2 ** num_qubits * 16) / 2 ** 30:.0f} GiB — refusing"
            )
        self.num_qubits = num_qubits
        if initial_state is None:
            self.reset_all()
            return
        state = np.asarray(initial_state, dtype=complex).reshape(-1)
        if state.shape[0] != 2**num_qubits:
            raise ValueError("initial state has wrong dimension")
        self._state = state.reshape((2,) * num_qubits)

    def reset_all(self) -> None:
        """Reset to |0...0>."""
        state = np.zeros(2**self.num_qubits, dtype=complex)
        state[0] = 1.0
        self._state = state.reshape((2,) * self.num_qubits)

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------

    def apply_gate(self, matrix: np.ndarray, target: int, controls: Dict[int, int]) -> None:
        """Apply a controlled single-qubit unitary in place.

        Diagonal gates (phase rotations — the bulk of QFT-style circuits)
        take a fast path: an in-place scalar multiply of the two target
        slices instead of a tensor contraction.
        """
        matrix = np.asarray(matrix, dtype=complex)
        if matrix[0, 1] == 0 and matrix[1, 0] == 0:
            self._apply_diagonal(matrix, target, controls)
            return
        view, view_target = self._control_view(target, controls)
        updated = np.tensordot(matrix, view, axes=([1], [view_target]))
        updated = np.moveaxis(updated, 0, view_target)
        if controls:
            index = self._control_index(controls)
            self._state[index] = updated
        else:
            self._state = np.ascontiguousarray(updated)

    def _apply_diagonal(
        self, matrix: np.ndarray, target: int, controls: Dict[int, int]
    ) -> None:
        for bit in range(2):
            factor = matrix[bit, bit]
            if factor == 1:
                continue
            index = [slice(None)] * self.num_qubits
            for qubit, polarity in controls.items():
                index[qubit] = polarity
            index[target] = bit
            self._state[tuple(index)] *= factor

    def _control_index(self, controls: Dict[int, int]):
        index = [slice(None)] * self.num_qubits
        for qubit, polarity in controls.items():
            index[qubit] = polarity
        return tuple(index)

    def _control_view(self, target: int, controls: Dict[int, int]):
        """Sub-view selected by the controls plus the target's axis there."""
        if not controls:
            return self._state, target
        index = self._control_index(controls)
        view = self._state[index]
        # Axes before `target` that were consumed by integer indexing shift
        # the target's position in the reduced view.
        consumed = sum(1 for qubit in controls if qubit < target)
        return view, target - consumed

    # ------------------------------------------------------------------
    # Probabilities and measurement
    # ------------------------------------------------------------------

    def probability_of_one(self, qubit: int) -> float:
        # A 3-axis view (before, qubit, after): NumPy walks an n-axis
        # slice element pair by element pair, ~100x slower at 15 qubits.
        slice_one = self._state.reshape(2**qubit, 2, -1)[:, 1, :]
        p_one = float(np.vdot(slice_one, slice_one).real) / self.squared_norm()
        return 0.0 if p_one < _NEGLIGIBLE else p_one

    def measure(self, qubit: int, rng: random.Random) -> int:
        p_one = self.probability_of_one(qubit)
        outcome = 1 if rng.random() < p_one else 0
        index = [slice(None)] * self.num_qubits
        index[qubit] = 1 - outcome
        self._state[tuple(index)] = 0.0
        norm = math.sqrt(float(np.vdot(self._state, self._state).real))
        self._state /= norm
        return outcome

    def reset(self, qubit: int, rng: random.Random) -> None:
        outcome = self.measure(qubit, rng)
        if outcome == 1:
            x_matrix = np.array([[0, 1], [1, 0]], dtype=complex)
            self.apply_gate(x_matrix, qubit, {})

    def apply_kraus_branch(
        self, kraus_operators: Sequence[np.ndarray], qubit: int, rng: random.Random
    ) -> int:
        """State-dependent Kraus branch selection (paper Example 6)."""
        candidates = []
        probabilities = []
        for kraus in kraus_operators:
            view, view_target = self._control_view(qubit, {})
            candidate = np.tensordot(np.asarray(kraus, dtype=complex), view, axes=([1], [view_target]))
            candidate = np.moveaxis(candidate, 0, view_target)
            weight = float(np.vdot(candidate, candidate).real)
            candidates.append(candidate)
            probabilities.append(weight)
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
        state = candidates[chosen]
        self._state = np.ascontiguousarray(state / math.sqrt(probabilities[chosen]))
        return chosen

    # ------------------------------------------------------------------
    # Properties and sampling
    # ------------------------------------------------------------------

    def probability_of_basis(self, bits: Sequence[int]) -> float:
        amplitude = self._state[tuple(int(b) for b in bits)]
        return float(abs(amplitude) ** 2)

    def snapshot(self) -> np.ndarray:
        return self._state.reshape(-1).copy()

    def load_state(self, handle: np.ndarray) -> None:
        """Jump to a snapshot.  Copies: gates update the state in place."""
        self._state = np.array(handle, dtype=complex).reshape((2,) * self.num_qubits)

    def handle_from_vector(self, vector: np.ndarray) -> np.ndarray:
        """A snapshot handle for an explicit dense state."""
        return np.asarray(vector, dtype=complex)

    def fidelity(self, handle: np.ndarray) -> float:
        overlap = np.vdot(handle, self._state.reshape(-1))
        return float(abs(overlap) ** 2)

    def statevector(self) -> np.ndarray:
        return self._state.reshape(-1).copy()

    def pauli_expectation(self, pauli: str) -> float:
        """Expectation value ``<psi| P |psi>`` of a Pauli string.

        ``pauli`` has one letter (I/X/Y/Z) per qubit, qubit 0 leftmost.
        """
        if len(pauli) != self.num_qubits:
            raise ValueError(
                f"Pauli string must have {self.num_qubits} letters, got {len(pauli)}"
            )
        matrices = {
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        transformed = self._state
        for qubit, letter in enumerate(pauli.upper()):
            if letter == "I":
                continue
            if letter not in matrices:
                raise ValueError(f"invalid Pauli letter {letter!r}")
            transformed = np.moveaxis(
                np.tensordot(matrices[letter], transformed, axes=([1], [qubit])),
                0,
                qubit,
            )
        return float(np.vdot(self._state, transformed).real)

    def sample_counts(self, shots: int, rng: random.Random) -> Dict[str, int]:
        return _sample_counts(self._state.reshape(-1), self.num_qubits, shots, rng)

    def sample_snapshot(self, handle: np.ndarray, shots: int, rng: random.Random) -> Dict[str, int]:
        return _sample_counts(handle, self.num_qubits, shots, rng)

    # ------------------------------------------------------------------
    # Replay engine hooks (see ReplayBackend)
    # ------------------------------------------------------------------

    def apply_step(self, step) -> None:
        """Apply one compiled :class:`~repro.simulators.gateplan.PlanStep`."""
        self.apply_gate(step.matrix, step.target, step.controls)

    def squared_norm(self) -> float:
        flat = self._state.reshape(-1)
        return float(np.vdot(flat, flat).real)

    def scale_state(self, factor: complex) -> None:
        self._state = self._state * factor

    def renormalize(self) -> None:
        self._state = self._state / math.sqrt(self.squared_norm())

    def start_span(self) -> None:
        self.reset_all()

    def end_span(self) -> None:
        """Nothing to collect: the state is one array."""

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        return {}
