"""Cross-arm agreement: the DD and dense backends run one trajectory engine.

Prefix sharing, stratified sampling and outcome sampling only touch a
backend through :class:`~repro.simulators.base.ReplayBackend`, so a span
run on the DD backend and on the state-vector backend consumes the same
rng streams.  The discrete outcome (trajectory counts, fired errors, strata
accounting, sampled histograms) must therefore be identical, and the
property sums equal up to float rounding — on random circuits and noise
models, with stratification on and off.
"""

import os
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.noise import ErrorRates, NoiseModel
from repro.stochastic import (
    BasisProbability,
    ExpectationZ,
    IdealFidelity,
    StochasticSimulator,
)
from repro.stochastic.properties import PauliExpectation, StateFidelity
from repro.stochastic.runner import run_trajectory_span
from repro.stochastic.strata import STRATIFIED_ENV

_ONE_QUBIT = ("h", "x", "s", "t", "sdg")
_ROTATIONS = ("rx", "ry", "rz")
_RATES = st.sampled_from((0.0, 0.01, 0.05, 0.15))


@st.composite
def circuits(draw):
    num_qubits = draw(st.integers(1, 5))
    circuit = QuantumCircuit(num_qubits, name="arm_agreement")
    qubit = st.integers(0, num_qubits - 1)
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(("one", "rotation", "cx", "cz", "ccx")))
        wires = draw(st.lists(qubit, min_size=3, max_size=3, unique=num_qubits >= 3))
        if kind == "ccx" and num_qubits >= 3:
            circuit.ccx(*wires)
        elif kind in ("cx", "cz") and num_qubits >= 2 and wires[0] != wires[1]:
            getattr(circuit, kind)(wires[0], wires[1])
        elif kind == "rotation":
            angle = draw(st.floats(-3.2, 3.2))
            getattr(circuit, draw(st.sampled_from(_ROTATIONS)))(angle, wires[0])
        else:
            getattr(circuit, draw(st.sampled_from(_ONE_QUBIT)))(wires[0])
    return circuit


@st.composite
def noise_models(draw):
    def rates():
        return ErrorRates(
            depolarizing=draw(_RATES),
            amplitude_damping=draw(_RATES),
            phase_flip=draw(_RATES),
            crosstalk=draw(_RATES),
        )

    overrides = {}
    if draw(st.booleans()):
        overrides[draw(st.sampled_from(("cx", "h", "ccx")))] = rates()
    return NoiseModel.build(
        rates(),
        gate_overrides=overrides,
        damping_mode=draw(st.sampled_from(("event", "exact"))),
    )


@contextmanager
def stratified(mode: str):
    previous = os.environ.get(STRATIFIED_ENV)
    os.environ[STRATIFIED_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            del os.environ[STRATIFIED_ENV]
        else:
            os.environ[STRATIFIED_ENV] = previous


def properties_for(num_qubits: int, pauli: str):
    target = np.ones(2**num_qubits) / np.sqrt(2**num_qubits)
    return (
        IdealFidelity(),
        BasisProbability("0" * num_qubits),
        ExpectationZ(num_qubits - 1),
        PauliExpectation(pauli[:num_qubits]),
        StateFidelity.from_vector(target, label="plus"),
    )


@settings(max_examples=40, deadline=None)
@given(
    circuit=circuits(),
    noise=noise_models(),
    mode=st.sampled_from(("on", "off")),
    shots=st.sampled_from((0, 1, 3)),
    seed=st.integers(0, 2**32),
    pauli=st.text(alphabet="IXYZ", min_size=5, max_size=5),
)
def test_dd_and_dense_spans_agree(circuit, noise, mode, shots, seed, pauli):
    properties = properties_for(circuit.num_qubits, pauli)
    with stratified(mode):
        dd, dense = (
            run_trajectory_span(
                circuit, noise, properties, kind, 5, 12, seed, sample_shots=shots
            )
            for kind in ("dd", "statevector")
        )
    assert dense.backend_kind == "statevector"
    assert dd.completed_trajectories == dense.completed_trajectories == 12
    assert dd.errors_fired == dense.errors_fired
    assert dd.outcome_counts == dense.outcome_counts
    assert dd.clean_outcome_counts == dense.clean_outcome_counts
    assert dd.strata.keys() == dense.strata.keys()
    for key in ("erring_sampled", "attempts", "rejected_clean"):
        assert dd.strata.get(key) == dense.strata.get(key), key
    for name, estimate in dd.estimates.items():
        other = dense.estimates[name]
        assert estimate.count == other.count, name
        assert abs(estimate.total - other.total) <= 1e-9, name
        assert abs(estimate.total_squared - other.total_squared) <= 1e-9, name


def test_near_zero_rotations_run_on_both_arms():
    # rx(1e-9) leaves amplitudes below the DD complex table's tolerance;
    # DDPackage._add used to divide by such a snapped-zero weight.
    circuit = QuantumCircuit(3, name="near_zero_rx")
    circuit.h(0).cx(0, 1).cx(2, 0).rx(1e-9, 0).cx(2, 1)
    circuit.rx(1e-9, 2).rx(1e-9, 1).h(0)
    rates = 0.01
    noise = NoiseModel(
        ErrorRates(
            depolarizing=rates, amplitude_damping=rates,
            phase_flip=rates, crosstalk=rates,
        )
    )
    dd, dense = (
        StochasticSimulator(backend=kind, workers=1).run(
            circuit, noise, [IdealFidelity()], trajectories=50, seed=2
        )
        for kind in ("dd", "statevector")
    )
    assert dd.completed_trajectories == dense.completed_trajectories == 50
    assert dd.errors_fired == dense.errors_fired
    for name, estimate in dd.estimates.items():
        assert abs(estimate.total - dense.estimates[name].total) <= 1e-9, name
