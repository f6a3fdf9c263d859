"""Simulator backends: DD-based (proposed), state-vector (baseline), and
the exact density-matrix oracle."""

from .base import ErrorHook, ReplayBackend, RunResult, StateBackend, execute_circuit
from .ddsim import DDBackend
from .density_matrix import DensityMatrixSimulator
from .statevector import StatevectorBackend
from .unitary import circuit_unitary_dd, circuit_unitary_matrix, circuits_equivalent

__all__ = [
    "DDBackend",
    "DensityMatrixSimulator",
    "ErrorHook",
    "ReplayBackend",
    "RunResult",
    "StateBackend",
    "StatevectorBackend",
    "circuit_unitary_dd",
    "circuit_unitary_matrix",
    "circuits_equivalent",
    "execute_circuit",
]
