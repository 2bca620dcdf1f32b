"""The finite-box mode sum and its march to the continuum.

A periodic box replaces the spectral integral by a sum over a discrete
wavevector lattice.  This script shows the box symmetries the sum
inherits (periodicity, parity) and runs the standard convergence study:
box fixed at L = 16 r, modes per axis climbing over N = 64, 128 and
256, error against the continuum value at identical damping falling.
Past N = 256 the error stops at the periodic images' offset, about
-2.78e-4 of the continuum value (-2.64e-4 at N = 384, -2.78e-4 at 512).

Run:  python demos/lattice_convergence.py
"""

import numpy as np

from fluctus import ModeGrid, builtin_material, convergence_study, lattice_correlator
from fluctus.lattice import STUDY_DIRECTION

water = builtin_material("water")

# --- box symmetries -----------------------------------------------------------
grid = ModeGrid(L=2.0**-22, N=16)   # power-of-two side: folding is exact
dx = np.array([0.125, 0.0625, 0.25]) * grid.L
eps = grid.L / 32
v = lattice_correlator(water, grid, dx, eps)
v_shift = lattice_correlator(water, grid, dx + np.array([grid.L, 0, 0]), eps)
v_mirror = lattice_correlator(water, grid, -dx, eps)
print(f"mode grid: N = {grid.N} per axis, {grid.mode_count} modes, "
      f"max component {grid.max_component:.3e} 1/m")
print(f"value                    {v:.9e}")
print(f"shifted by one box side  {v_shift:.9e}   identical: {v_shift == v}")
print(f"displacement negated     {v_mirror:.9e}   identical: {v_mirror == v}\n")

# --- convergence study -----------------------------------------------------------
r = 16e-9
study = convergence_study(water, r=r, ns=(64, 128, 256))
print(f"standard study: r = {r * 1e9:.0f} nm, L = 16 r, eps = r/8, "
      f"displacement along {tuple(round(c, 4) for c in STUDY_DIRECTION)}")
print(f"continuum value at the same damping: {study.continuum:.6e} kg^2/m^6\n")
print(f"{'N':>5}  {'a/r':>7}  {'lattice rel error':>18}")
for n, err in study.rows:
    print(f"{n:5d}  {study.L / n / r:7.4f}  {err:18.6e}")
print(f"\nmonotone: {study.monotone};  fitted log-log exponent: {study.slope:.3f}")
print("the error over this ladder is dominated by the missing modes outside")
print("the covered wavenumber cube, so it falls fast as N doubles; past N = 256")
print("it stops at the periodic images' offset, about -2.78e-4 of the continuum")
