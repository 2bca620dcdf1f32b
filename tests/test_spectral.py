import math
import re

import numpy as np
import pytest

from fluctus import spectral
from fluctus.correlator import Separation, correlator
from fluctus.errors import ConvergenceError, FluctusError, SoundConeSingularityError
from fluctus.lattice import ModeGrid, convergence_study, lattice_correlator
from fluctus.medium import builtin_material, fluid_medium
from fluctus.spectral import (
    damped_closed_form,
    extrapolated_correlator,
    regulated_integrand_reduction,
)
from fluctus.verify import standard_separation_grid, verify_spectral

WATER = builtin_material("water")

EQ_TIME_WATER_1NM = -3.598983558786755


# --- the regulator standard --------------------------------------------------

def test_default_schedule_is_a_tenth_halving_ladder():
    # the rungs are in units of r, so they never under- or overflow
    ladder = spectral._ladder(0.0)
    assert ladder == (0.1, 0.05, 0.025, 0.0125)
    assert all(type(eps) is float for eps in ladder)
    assert spectral._EXTRAP_ORDER == 3
    # near the cone the ladder contracts with the cone distance
    dt = 0.9e-9 / WATER.cs
    near = spectral._ladder(WATER.cs * dt / 1e-9)
    assert near[0] == pytest.approx(abs(1e-9 - WATER.cs * dt) / 1e-9 / 10, rel=1e-12, abs=0)


def test_standard_grid_work_is_bounded():
    # the work the 40-point certification grid costs, counted in integrand
    # points: a ladder that chases the roundoff floor shows up here
    estimates = [extrapolated_correlator(WATER, r, dt) for r, dt in standard_separation_grid()]
    assert sum(est.points for est in estimates) <= 2.0e7
    assert max(est.points for est in estimates) <= 2**22
    for est in estimates:
        assert est.passes >= 2
        assert 0.0 <= est.quadrature_error <= spectral._QUAD_TOL


def test_standard_grid_converges_on_the_second_pass():
    # with the panel-centre phases reduced exactly, the first halving
    # already agrees to the tolerance: no pass is spent on roundoff
    estimates = [extrapolated_correlator(WATER, r, dt) for r, dt in standard_separation_grid()]
    assert [est.passes for est in estimates] == [2] * len(estimates)
    # a pass evaluates whole blocks of 31 panels of 16 nodes
    assert all(est.points % (16 * spectral._BLOCK_PANELS) == 0 for est in estimates)
    # the blocks and the stopping rule fix the work to the point: a change
    # to how a pass is evaluated must not move it
    assert sum(est.points for est in estimates) == 11_251_264


@pytest.mark.parametrize("b", [10.0, 100.0, 1000.0])
def test_deep_timelike_points_converge(b):
    # the ladder scale is the cone distance |1 - b| in units of r; held at
    # r, these points needed over 5e4 blocks a pass and were refused
    r = 1e-9
    dt = b * r / WATER.cs
    est = extrapolated_correlator(WATER, r, dt)
    assert est.passes == 2
    assert est.value == pytest.approx(correlator(WATER, Separation(r, dt)).value, rel=1e-6, abs=0)
    assert est.error_estimate <= 1e-7 * abs(est.value)


def test_off_grid_timelike_sweep_converges_without_chasing_roundoff():
    # far inside the cone the integrand cancels hardest; every point must
    # still converge, agree with the closed form and stay cheap.  Phases
    # formed as q a rather than reduced exactly leave noise that the
    # cancellation amplifies into extra passes at some points.
    rng = np.random.default_rng(20261018)
    for _ in range(600):
        r = 10.0 ** rng.uniform(-10.0, -7.0)
        dt = rng.uniform(1.06, 5.0) * r / WATER.cs
        est = extrapolated_correlator(WATER, r, dt)
        ref = correlator(WATER, Separation(r, dt)).value
        assert est.value == pytest.approx(ref, rel=1e-6, abs=0)
        assert est.points <= 2**21


def test_spectral_suite_reports_the_quadrature_work():
    check = next(c for c in verify_spectral() if c.name.startswith("closed form vs spectral"))
    estimates = [extrapolated_correlator(WATER, r, dt) for r, dt in standard_separation_grid()]
    worst = max(est.quadrature_error for est in estimates)
    assert f"{sum(est.passes for est in estimates)} quadrature passes" in check.detail
    assert f"{sum(est.points for est in estimates)} points" in check.detail
    assert f"worst quadrature error {worst:.2e}" in check.detail


# --- the factored panel rule -----------------------------------------------------

def direct_panel_sums(b, epsilons, halvings, panels):
    """The 16-point Gauss-Legendre rule node by node, with the sum of |w f|.

    Panels of width pi / ((1 + b) 2**halvings) from q = 0, as in the
    oracle (in units of r); every node evaluates q^2 sin(q) cos(qb)
    e^{-eps q} directly.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = math.pi / ((1.0 + b) * 2.0 ** (halvings + 1))
    q = ((2 * np.arange(panels) + 1)[:, None] + nodes[None, :]) * half
    wf = [(weights * half) * q * q * np.sin(q) * np.cos(q * b) * np.exp(-eps * q)
          for eps in epsilons]
    return [math.fsum(f.ravel()) for f in wf], [float(np.abs(f).sum()) for f in wf]


@pytest.mark.parametrize("b", [0.0, 0.375, 2.5], ids=["b=0", "b<r", "b>r"])  # r = 1
@pytest.mark.parametrize("halvings", [0, 1, 2])
def test_factored_panel_sums_equal_the_direct_rule(b, halvings):
    epsilons = (0.1, 0.05, 0.025, 0.0125)
    # one block, two, many
    for blocks in (1, 2, 7):
        factored = spectral._panel_sums(b, epsilons, halvings, blocks)
        direct, magnitude = direct_panel_sums(b, epsilons, halvings,
                                              blocks * spectral._BLOCK_PANELS)
        for got, want, scale in zip(factored, direct, magnitude):
            assert abs(got - want) <= 1e-13 * scale


def test_block_roundoff_does_not_add_up_coherently():
    # at eps = 1e-4 r the integrand cancels by ~1e12, so two fine passes
    # differ by roundoff alone; a block length on which the fast phase
    # advances a whole number of turns lets the node sums' roundoff,
    # shared by every block, add up (1e-4 here with 32-panel blocks)
    qmax = spectral._TRUNCATION / 1e-4
    two, three = (spectral._panel_sums(0.0, (1e-4,), halvings, math.ceil(
                      qmax * 2**halvings / (math.pi * spectral._BLOCK_PANELS)))[0]
                  for halvings in (2, 3))
    assert abs(three / two - 1.0) < 1e-5


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
        assert num == pytest.approx(ref, rel=1e-9, abs=0)


def test_weak_damping_approaches_the_regulator_free_value():
    # the regulator bias at equal times is 6 eps^2/r^2, so eps = r/100
    # sits 6e-4 from the eps -> 0 limit
    num = regulated_integrand_reduction(WATER, 1e-9, 0.0, 0.01e-9)
    assert num == pytest.approx(EQ_TIME_WATER_1NM, rel=1e-3, abs=0)
    assert abs(num / EQ_TIME_WATER_1NM - 1.0) == pytest.approx(6e-4, rel=0.02, abs=0)
    assert num == pytest.approx(damped_closed_form(WATER, 1e-9, 0.0, 0.01e-9), rel=1e-9, abs=0)


def test_quadrature_scale_invariance():
    # doubling r at fixed eps/r scales the damped value by 1/16
    v1 = regulated_integrand_reduction(WATER, 1e-9, 0.0, 1e-9 / 64)
    v2 = regulated_integrand_reduction(WATER, 2e-9, 0.0, 2e-9 / 64)
    assert v2 == pytest.approx(v1 / 16.0, rel=1e-9, abs=0)


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
    (lambda: lattice_correlator(WATER, ModeGrid(L=16e-9, N=8), (1e-9, 0.0, 0.0), math.inf),
     "eps"),
    (lambda: ModeGrid(L=math.inf, N=8), "L"),
    (lambda: convergence_study(WATER, r=math.inf), "r"),
], ids=["reduction-dt-inf", "reduction-dt-nan", "reduction-r-inf", "reduction-eps-inf",
        "damped-dt-nan", "lattice-dx-nan", "lattice-eps-inf", "grid-L-inf",
        "study-r-inf"])
def test_oracle_inputs_refused_by_name(call, argument):
    # each oracle refuses a non-finite input with a ValueError naming it,
    # never a ZeroDivisionError or a nan result
    with pytest.raises(ValueError, match=f" {argument} "):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, name", [
    (lambda: extrapolated_correlator(WATER, 1e-300, 0.0), "extrapolated_correlator at r = 1e-300"),
    (lambda: damped_closed_form(WATER, 1e-300, 0.0, 1e-300), "damped_closed_form at r = 1e-300"),
    (lambda: regulated_integrand_reduction(WATER, 1e-300, 0.0, 1e-301),
     "regulated_integrand_reduction at r = 1e-300"),
    # the ladder is formed in units of r, so it cannot underflow to zero and
    # be reported as an exhausted quadrature budget
    (lambda: extrapolated_correlator(WATER, 5e-324, 0.0), "extrapolated_correlator at r = 5e-324"),
    # (z^2 + 1)^3 underflows to 0 at the undamped cone
    (lambda: damped_closed_form(fluid_medium("u", rho0=1.0, cs=1.0, eta=1.0, drho=0.0),
                                1.0, 1.0, 5e-324), "damped_closed_form at r = 1.0"),
], ids=["extrapolated-r-1e-300", "damped-r-1e-300", "reduction-r-1e-300",
        "extrapolated-r-5e-324", "damped-undamped-cone"])
def test_values_outside_the_float_range_are_refused_by_name(call, name):
    # the correlator scales as r^-4: at r = 1e-300 it has no double value
    with pytest.raises(FluctusError, match=f"^{re.escape(name)} m.*outside the float range"):
        call()


@pytest.mark.filterwarnings("error")
def test_unresolved_damping_is_refused_not_returned_as_zero():
    # at eps = 1e6 r every node of the first passes underflows to 0; two
    # passes of exactly 0 must not count as converged
    with pytest.raises(ConvergenceError, match="did not converge"):
        regulated_integrand_reduction(WATER, 1e-9, 0.0, 1e-3)
    with pytest.raises(FluctusError, match="eps / r is outside the float range"):
        regulated_integrand_reduction(WATER, 1e-9, 0.0, 1e300)


@pytest.mark.filterwarnings("error")
def test_damping_past_every_node_is_refused_without_overflow():
    # eps q overflowed in the node damping, with a numpy warning, before the refusal
    medium = fluid_medium("u", rho0=1.0, cs=1.0, eta=1.0, drho=0.0)
    with pytest.raises(ConvergenceError, match="did not converge") as exc:
        regulated_integrand_reduction(medium, 1.0, 0.0, 1e307)
    assert exc.value.achieved == math.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [1e200, 1e300])
def test_extrapolation_far_away_underflows_to_a_finite_zero(r):
    # the integral is computed in units of r, so only the final scaling
    # underflows, to zero, never to nan
    est = extrapolated_correlator(WATER, r, 0.0)
    assert est.value == 0.0
    assert est.error_estimate == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt, eps", [(0.0, 1e300), (1e306, 1e-10), (-1.2e305, 1e308)],
                         ids=["eps-1e300", "dt-1e306", "abs-s-overflows"])
def test_damped_closed_form_underflows_to_a_finite_zero(dt, eps):
    assert damped_closed_form(WATER, 1e-9, dt, eps) == 0.0


@pytest.mark.filterwarnings("error")
def test_unbounded_work_is_refused_not_divided_by_zero():
    # cs|dt| overflows: the panel count is infinite and refused by the budget
    with pytest.raises(ConvergenceError, match="over the budget"):
        extrapolated_correlator(WATER, 1e-9, 1e306)


def test_extrapolation_gate_refuses_nan(monkeypatch):
    monkeypatch.setattr(spectral, "_richardson", lambda xs, ys, order: (math.nan, math.nan))
    with pytest.raises(ConvergenceError, match="regulator extrapolation"):
        extrapolated_correlator(WATER, 1e-9, 0.0)


def test_unreachable_tolerance_raises_with_achieved_estimate(monkeypatch):
    monkeypatch.setattr(spectral, "_QUAD_TOL", 1e-17)
    with pytest.raises(ConvergenceError) as exc:
        regulated_integrand_reduction(WATER, 1e-9, 0.0, 1e-10)
    assert exc.value.achieved > 0.0
    assert "relative error estimate" in str(exc.value)


@pytest.mark.parametrize("call, name, estimated", [
    # off the cone by the tolerance: the first pass would need 2.6e8 points
    (lambda: extrapolated_correlator(WATER, 1e-9, 0.9998e-9 / WATER.cs),
     "extrapolated_correlator at r = 1e-09 m, dt = 6.7554", False),
    # the fifth pass would need 3.2e7 points
    (lambda: regulated_integrand_reduction(WATER, 1e-9, 0.0, 1e-13),
     "regulated_integrand_reduction at r = 1e-09 m, dt = 0.0 s, eps = 1e-13 m", True),
], ids=["near-cone", "weak-damping"])
def test_point_budget_refuses_before_allocating(call, name, estimated):
    # the message names the call and its inputs, so a failing point of a
    # sweep can be told from the others
    with pytest.raises(ConvergenceError, match=f"^{re.escape(name)}.*: panel quadrature "
                       "needs .* over the budget") as exc:
        call()
    # the error carries the last pass-to-pass estimate, inf before the second pass
    assert math.isfinite(exc.value.achieved) is estimated


# --- regulator removal ---------------------------------------------------------

def test_extrapolation_agrees_with_closed_form_spacelike_and_timelike():
    for r, u in [(1e-9, 0.0), (1e-9, 0.5), (2e-9, 2.0), (5e-10, 1.5), (1e-9, 2.9)]:
        dt = u * r / WATER.cs
        est = extrapolated_correlator(WATER, r, dt)
        ref = correlator(WATER, Separation(r, dt)).value
        assert est.value == pytest.approx(ref, rel=1e-6, abs=0)
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
