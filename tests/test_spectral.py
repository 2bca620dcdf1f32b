import math

import pytest

from fluctus import spectral
from fluctus.correlator import Separation, correlator
from fluctus.errors import ConvergenceError, SoundConeSingularityError
from fluctus.lattice import ModeGrid, convergence_study, lattice_correlator
from fluctus.medium import builtin_material
from fluctus.spectral import (
    damped_closed_form,
    extrapolated_correlator,
    regulated_integrand_reduction,
)
from fluctus.verify import standard_separation_grid

WATER = builtin_material("water")

EQ_TIME_WATER_1NM = -3.598983558786755


# --- the regulator standard --------------------------------------------------

def test_default_schedule_is_a_tenth_halving_ladder():
    ladder = spectral._ladder(WATER, 1e-9, 0.0)
    assert ladder == (1e-9 / 10, 1e-9 / 20, 1e-9 / 40, 1e-9 / 80)
    assert all(type(eps) is float for eps in ladder)
    assert spectral._EXTRAP_ORDER == 3
    # near the cone the ladder contracts with the cone distance
    dt = 0.9e-9 / WATER.cs
    near = spectral._ladder(WATER, 1e-9, dt)
    assert near[0] == pytest.approx(abs(1e-9 - WATER.cs * dt) / 10, rel=1e-12)


def test_standard_grid_work_is_bounded():
    # the work the 40-point certification grid costs, counted in integrand
    # points: a ladder that chases the roundoff floor shows up here
    estimates = [extrapolated_correlator(WATER, r, dt) for r, dt in standard_separation_grid()]
    assert sum(est.points for est in estimates) <= 2.0e7
    assert max(est.points for est in estimates) <= 2**22
    for est in estimates:
        assert est.passes >= 2
        assert 0.0 <= est.quadrature_error <= spectral._QUAD_TOL


# --- fixed-regulator quadrature ----------------------------------------------

def test_quadrature_matches_damped_closed_form():
    # the damped integral has a closed form; the quadrature must hit it
    for r, dt, eps in [
        (1e-9, 0.0, 1e-10),
        (1e-9, 0.0, 1e-8),       # eps = 10 r: heavily damped regime
        (2e-9, 0.5e-12, 1e-10),
        (5e-10, 2e-12, 5e-11),   # timelike
    ]:
        num = regulated_integrand_reduction(WATER, r, dt, eps)
        ref = damped_closed_form(WATER, r, dt, eps)
        assert num == pytest.approx(ref, rel=1e-9)


def test_weak_damping_approaches_the_regulator_free_value():
    # the regulator bias at equal times is 6 eps^2/r^2, so eps = r/100
    # sits 6e-4 from the eps -> 0 limit
    num = regulated_integrand_reduction(WATER, 1e-9, 0.0, 0.01e-9)
    assert num == pytest.approx(EQ_TIME_WATER_1NM, rel=1e-3)
    assert abs(num / EQ_TIME_WATER_1NM - 1.0) == pytest.approx(6e-4, rel=0.02)
    assert num == pytest.approx(damped_closed_form(WATER, 1e-9, 0.0, 0.01e-9), rel=1e-9)


def test_quadrature_scale_invariance():
    # doubling r at fixed eps/r scales the damped value by 1/16
    v1 = regulated_integrand_reduction(WATER, 1e-9, 0.0, 1e-9 / 64)
    v2 = regulated_integrand_reduction(WATER, 2e-9, 0.0, 2e-9 / 64)
    assert v2 == pytest.approx(v1 / 16.0, rel=1e-9)


def test_quadrature_rejects_bad_arguments():
    with pytest.raises(ValueError):
        regulated_integrand_reduction(WATER, 0.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        regulated_integrand_reduction(WATER, 1e-9, 0.0, 0.0)


@pytest.mark.parametrize("call, argument", [
    (lambda: regulated_integrand_reduction(WATER, 1e-9, math.inf, 1e-11), "dt"),
    (lambda: regulated_integrand_reduction(WATER, 1e-9, math.nan, 1e-11), "dt"),
    (lambda: regulated_integrand_reduction(WATER, math.inf, 0.0, 1e-11), "r"),
    (lambda: regulated_integrand_reduction(WATER, 1e-9, 0.0, math.inf), "eps"),
    (lambda: damped_closed_form(WATER, 1e-9, math.nan, 1e-11), "dt"),
    (lambda: lattice_correlator(WATER, ModeGrid(L=16e-9, N=8), (math.nan, 0.0, 0.0), 1e-10),
     "dx"),
    (lambda: ModeGrid(L=math.inf, N=8), "L"),
    (lambda: convergence_study(WATER, r=math.inf), "r"),
], ids=["reduction-dt-inf", "reduction-dt-nan", "reduction-r-inf", "reduction-eps-inf",
        "damped-dt-nan", "lattice-dx-nan", "grid-L-inf", "study-r-inf"])
def test_oracle_inputs_refused_by_name(call, argument):
    # each oracle refuses a non-finite input with a ValueError naming it,
    # never a ZeroDivisionError or a nan result
    with pytest.raises(ValueError, match=f" {argument} "):
        call()


def test_unreachable_tolerance_raises_with_achieved_estimate(monkeypatch):
    monkeypatch.setattr(spectral, "_QUAD_TOL", 1e-17)
    with pytest.raises(ConvergenceError) as exc:
        regulated_integrand_reduction(WATER, 1e-9, 0.0, 1e-10)
    assert exc.value.achieved > 0.0
    assert "relative error estimate" in str(exc.value)


@pytest.mark.parametrize("call, estimated", [
    # off the cone by the tolerance: the first pass would need 2.6e8 points
    (lambda: extrapolated_correlator(WATER, 1e-9, 0.9998e-9 / WATER.cs), False),
    # the fifth pass would need 3.2e7 points
    (lambda: regulated_integrand_reduction(WATER, 1e-9, 0.0, 1e-13), True),
], ids=["near-cone", "weak-damping"])
def test_point_budget_refuses_before_allocating(call, estimated):
    with pytest.raises(ConvergenceError, match="over the budget") as exc:
        call()
    # the error carries the last pass-to-pass estimate, inf before the second pass
    assert math.isfinite(exc.value.achieved) is estimated


# --- regulator removal ---------------------------------------------------------

def test_extrapolation_agrees_with_closed_form_spacelike_and_timelike():
    for r, u in [(1e-9, 0.0), (1e-9, 0.5), (2e-9, 2.0), (5e-10, 1.5), (1e-9, 2.9)]:
        dt = u * r / WATER.cs
        est = extrapolated_correlator(WATER, r, dt)
        ref = correlator(WATER, Separation(r, dt)).value
        assert est.value == pytest.approx(ref, rel=1e-6)
        assert est.error_estimate < 1e-6 * abs(est.value)


def test_timelike_extrapolation_is_positive():
    r = 1e-9
    est = extrapolated_correlator(WATER, r, 2 * r / WATER.cs)
    assert est.value > 0


def test_on_cone_rejected():
    r = 1e-9
    with pytest.raises(SoundConeSingularityError):
        extrapolated_correlator(WATER, r, r / WATER.cs)


def _extrapolate(r, dt, epsilons, order):
    # the extrapolation step of the oracle, on a ladder of our choosing
    ys = [regulated_integrand_reduction(WATER, r, dt, eps) for eps in epsilons]
    return spectral._richardson([eps * eps for eps in epsilons], ys, order)


def test_error_estimate_shrinks_as_epsilons_are_appended():
    r = 1e-9
    base = [r / 16, r / 32, r / 64]
    estimates = []
    for extra in range(3):
        eps = base + [base[-1] / 2**(k + 1) for k in range(extra)]
        estimates.append(_extrapolate(r, 0.0, eps, 2)[1])
    assert estimates[0] > estimates[1] > estimates[2]


def test_result_is_schedule_independent():
    r, dt = 1e-9, 0.4e-9 / WATER.cs
    va, ea = _extrapolate(r, dt, [r / 16, r / 32, r / 64, r / 128], 3)
    vb, eb = _extrapolate(r, dt, [r / 20, r / 44, r / 92, r / 190], 3)
    assert abs(va - vb) <= ea + eb


def test_extrapolation_is_deterministic():
    one = extrapolated_correlator(WATER, 1e-9, 0.0)
    two = extrapolated_correlator(WATER, 1e-9, 0.0)
    assert one.value == two.value
    assert one.error_estimate == two.error_estimate
