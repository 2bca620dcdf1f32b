"""How the closed-form correlator is certified by quadrature.

The correlator starts life as a spectral integral over phonon modes.
Damping it with e^{-eps q} makes it absolutely convergent; removing the
regulator by extrapolation in eps^2 gives a number that never touched
the closed-form algebra.  This script walks one separation through that
pipeline and then shows the discrimination that the cross-check buys:
an alternative denominator is off by orders of magnitude.

Run:  python demos/spectral_crosscheck.py
"""

from fluctus import (
    Separation,
    builtin_material,
    correlator,
    damped_closed_form,
    extrapolated_correlator,
    regulated_integrand_reduction,
)
from fluctus.verify import rejected_variant_correlator

water = builtin_material("water")
r = 1e-9
dt = 0.5 * r / water.cs   # spacelike, u = 0.5

print(f"separation: r = {r * 1e9:.1f} nm, cs*dt/r = 0.5 (spacelike)\n")

# --- the damping ladder ---------------------------------------------------------
# The oracle's one standard: four damping lengths halving from a tenth
# of the distance scale min(r, |r - cs dt|), which contracts near the cone.
scale = min(r, abs(r - water.cs * dt))
epsilons = tuple(scale / 10 / 2**k for k in range(4))
print("damped integral vs its own closed form on the standard ladder")
print("(the quadrature self-test):")
print(f"{'eps/r':>9}  {'quadrature':>16}  {'damped closed form':>18}  {'rel dev':>9}")
for eps in epsilons:
    num = regulated_integrand_reduction(water, r, dt, eps)
    ref = damped_closed_form(water, r, dt, eps)
    print(f"{eps / r:9.7f}  {num:16.9e}  {ref:18.9e}  {abs(num - ref) / abs(ref):9.2e}")

# --- removing the regulator ------------------------------------------------------
estimate = extrapolated_correlator(water, r, dt)
closed = correlator(water, Separation(r, dt)).value
print(f"\nextrapolated to eps = 0: {estimate.value:.9e}"
      f"  (error estimate {estimate.error_estimate:.2e})")
print(f"closed form:             {closed:.9e}")
print(f"relative deviation:      {abs(estimate.value - closed) / abs(closed):.2e}\n")

# --- what the oracle rules out ------------------------------------------------------
print("the same comparison rejects the variant closed form whose denominator")
print("repeats the numerator's factor of 3:")
print(f"{'u':>5}  {'spectral':>14}  {'implemented':>14}  {'variant':>14}  {'variant dev':>12}")
for u in (0.5, 1.5, 2.5):
    dt_u = u * r / water.cs
    est = extrapolated_correlator(water, r, dt_u).value
    good = correlator(water, Separation(r, dt_u)).value
    bad = rejected_variant_correlator(water, r, dt_u)
    print(f"{u:5.2f}  {est:14.4e}  {good:14.4e}  {bad:14.4e}  "
          f"{abs(est - bad) / abs(est):12.2e}")
print("\nthe implemented form tracks the quadrature to <= 1e-6 everywhere;")
print("the variant is wrong by far more than 10% once the time lag matters")
