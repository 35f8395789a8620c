"""Row independence of the stacked kernels: row t of a call on a stack of
T probes equals the call on probe t alone, bit for bit.

The identity suites evaluate their probes in blocks, so a report is
byte-identical to the one-probe evaluation only if no row of a stack
depends on another (or on how many rows there are).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvkit import serialize
from cmvkit.brackets import (
    bracket_matrix,
    chart_jacobian,
    cotangent_residual,
    hamiltonian_gradients,
    jacobian_prediction,
    spectral_gradients,
    spectral_to_verblunsky_jacobian,
)
from cmvkit.core import SpectralMeasureCircle, VerblunskySet, build_cmv
from cmvkit.ensembles import RngStream, random_verblunsky
from cmvkit.errors import OutOfRange
from cmvkit.opuc import szego_coefficients, szego_rows, szego_tangents, unitary_eigensystem, verblunsky_from_measure
from cmvkit.verify import (
    HAMILTONIAN_DEGREES,
    _measure_variates,
    brackets_residuals,
    canonical_residuals,
    jacobian_residual,
    random_measure,
)

SIZES = (1, 2, 3, 4, 6, 17, 64)
COUNTS = (1, 2, 5)
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def same(stacked, rows):
    """Row t of a stacked result equals the one-probe result t, bit for bit."""
    stacked = np.asarray(stacked)
    assert stacked.shape[0] == len(rows)
    for row, expected in zip(stacked, rows):
        expected = np.asarray(expected)
        assert row.shape == expected.shape and row.dtype == expected.dtype
        assert row.tobytes() == expected.tobytes()


def measures(n, count, seed):
    """count random_measure probes, and the same probes as one stack, both
    built from the same raw angles and weights."""
    gen = RngStream(seed).generator()
    raw = [_measure_variates(n, gen) for _ in range(count)]
    theta, weights = (np.array(x) for x in zip(*raw))
    return [SpectralMeasureCircle(*r) for r in raw], SpectralMeasureCircle(theta, weights)


def coefficient_sets(n, count, seed):
    """count random_verblunsky probes, and the same probes as one stack, both
    built from the same raw coefficients."""
    gen = RngStream(seed).generator()
    raw = np.array([random_verblunsky(n, gen, radius=0.65).alpha for _ in range(count)])
    return [VerblunskySet(a) for a in raw], VerblunskySet(raw)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("count", COUNTS)
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_measure_kernels(n, count, seed):
    mus, stack = measures(n, count, seed)
    # the stacked measure stores each row as it would alone
    same(stack.theta, [mu.theta for mu in mus])
    same(stack.weights, [mu.weights for mu in mus])
    gen = RngStream(seed).generator()
    same([random_measure(n, gen).weights for _ in range(count)], [mu.weights for mu in mus])
    # the Szego recursion, its tangents and the spectral Jacobian
    same(szego_rows(stack.theta, stack.weights, n), [szego_coefficients(mu, n) for mu in mus])
    same(szego_coefficients(stack, n), [szego_coefficients(mu, n) for mu in mus])
    alpha, dalpha = szego_tangents(stack.theta, stack.weights)
    one = [szego_tangents(mu.theta, mu.weights) for mu in mus]
    same(alpha, [a for a, _ in one])
    same(dalpha, [d for _, d in one])
    same(verblunsky_from_measure(stack).alpha, [verblunsky_from_measure(mu).alpha for mu in mus])
    same(chart_jacobian(stack), [chart_jacobian(mu) for mu in mus])
    same(spectral_to_verblunsky_jacobian(stack), [spectral_to_verblunsky_jacobian(mu) for mu in mus])
    same(jacobian_prediction(stack), [jacobian_prediction(mu) for mu in mus])
    same(jacobian_residual(stack), [jacobian_residual(mu) for mu in mus])
    # the record of a row, as `cmv verify` builds it, is the record of its probe
    rows = [SpectralMeasureCircle(t, w) for t, w in zip(stack.theta, stack.weights)]
    assert [serialize.circle_measure_to_obj(mu) for mu in rows] == [serialize.circle_measure_to_obj(mu) for mu in mus]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("count", COUNTS)
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_coefficient_kernels(n, count, seed):
    sets, stack = coefficient_sets(n, count, seed)
    same(stack.alpha, [v.alpha for v in sets])
    same(stack.rho, [v.rho for v in sets])
    same(build_cmv(stack).entries, [build_cmv(v).entries for v in sets])
    spectra = unitary_eigensystem(build_cmv(stack))
    one = [unitary_eigensystem(build_cmv(v)) for v in sets]
    same(spectra.theta, [mu.theta for mu in one])
    same(spectra.weights, [mu.weights for mu in one])
    same(hamiltonian_gradients(stack, HAMILTONIAN_DEGREES), [hamiltonian_gradients(v, HAMILTONIAN_DEGREES) for v in sets])
    assert serialize.coefficient_records(stack.alpha).tolist() == [serialize.verblunsky_to_obj(v) for v in sets]
    if n < 2:
        return
    mu, dtheta, dlog = spectral_gradients(stack)
    one = [spectral_gradients(v) for v in sets]
    same(mu.weights, [m.weights for m, _, _ in one])
    same(dtheta, [d for _, d, _ in one])
    same(dlog, [d for _, _, d in one])
    same(bracket_matrix(dlog, stack), [bracket_matrix(d, v) for (_, _, d), v in zip(one, sets)])
    for stacked, rows in zip(brackets_residuals(stack), zip(*(brackets_residuals(v) for v in sets))):
        same(stacked, rows)
    for stacked, rows in zip(canonical_residuals(stack), zip(*(canonical_residuals(v) for v in sets))):
        same(stacked, rows)
    if n < 3:
        return
    labels = np.array([np.random.default_rng(seed + t).permutation(n)[:3] for t in range(count)])
    same(cotangent_residual(stack, labels), [cotangent_residual(v, tuple(ls)) for v, ls in zip(sets, labels)])


def test_a_stack_needs_one_size():
    # a stack of measures pairs each row of angles with its own weights
    theta = np.array([[0.0, 1.0, 2.0], [0.5, 1.5, 2.5]])
    with pytest.raises(OutOfRange):
        SpectralMeasureCircle(theta, np.full(3, 1.0 / 3.0))
