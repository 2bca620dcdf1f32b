"""Discrete mode-sum realization of the density correlator.

A periodic box of side L supports the phonon modes q = (2 pi / L) n
with integer vectors n in [-N/2, N/2)^3, zero mode excluded (a uniform
density offset is not a fluctuation).  Summing the per-mode spectral
weight with exponential damping gives the finite-volume counterpart of
the spectral integral,

    (hbar rho0 / 2 L^3 cs^2)  sum_q  Omega_q cos(q . dx) e^{-eps q},

with linear dispersion Omega_q = cs |q|.  The damping matches
``fluctus.spectral`` so that lattice-vs-continuum comparisons sit at an
identical regulator and isolate the finite-box effects.

The weight |q| e^{-eps |q|} depends only on the component magnitudes
|n_i| = m_i, so the sum runs over the octant m_i = 0..N/2 with the
phases folded into one weight per axis: 1 at m = 0, 2 cos(m dq dx_i)
for the pair +-m, and the complex e^{-i (N/2) dq dx_i} for the edge
mode -N/2, which has no partner on the grid.  The real part of the
octant sum is the cosine sum over all N^3 modes; the edge's sine parts
survive wherever two or more components sit on the edge.

The weight depends on the magnitudes only through s = mx^2 + t with
t = my^2 + mz^2, so the y and z axis weights are folded once onto the
distinct values of t (457 / 1621 / 5924 / 22026 of them at N = 64 /
128 / 256 / 512, against (N/2 + 1)^2 pairs), and each slab of fixed mx
is one gather of the weight at mx^2 + t and one real product with the
folded real and imaginary parts.

The convergence study holds the box fixed at L = 16 r (the standard
study geometry) and raises the modes-per-axis count N, which pushes the
covered wavenumber cube outward; the error against the continuum value
falls monotonically over the standard N ladder.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .correlator import _density_scale
from .errors import AliasingError, IllPosedStudyError, finite, positive
from .medium import FluidMedium
from .spectral import regulated_integrand_reduction

__all__ = [
    "ModeGrid",
    "lattice_correlator",
    "ConvergenceStudy",
    "convergence_study",
    "STUDY_DIRECTION",
]

#: Generic direction used by the convergence study.  A rational unit
#: vector off every lattice axis and diagonal; axis-aligned displacements
#: couple anomalously to the cubic Brillouin zone boundary.
STUDY_DIRECTION = (2.0 / 7.0, 3.0 / 7.0, 6.0 / 7.0)


@dataclass(frozen=True)
class ModeGrid:
    """Wavevector lattice of a periodic box: side L (m), N modes per axis.

    Modes are q = (2 pi / L) n for integer n in [-N/2, N/2)^3 without
    the zero mode, so there are N^3 - 1 of them and the largest
    wavenumber component is (pi N / L)(1 - 2/N).  L is stored as the
    Python float that ``errors.positive`` returns (``float(x)``: numpy
    scalars and numeric strings are converted) and must be positive and
    finite, whatever its real type; N is stored as the ``int`` that
    ``operator.index`` returns.
    """

    L: float
    N: int

    def __post_init__(self):
        object.__setattr__(self, "L", positive(self.L, "box side L"))
        try:
            object.__setattr__(self, "N", operator.index(self.N))
        except TypeError:
            raise ValueError(f"modes per axis must be an integer, got {self.N!r}") from None
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"modes per axis must be even and >= 8, got {self.N}")

    @property
    def mode_count(self) -> int:
        return self.N**3 - 1

    @property
    def spacing(self) -> float:
        """Real-space lattice spacing a = L/N."""
        return self.L / self.N

    @property
    def max_component(self) -> float:
        return math.pi * self.N / self.L * (1.0 - 2.0 / self.N)


def lattice_correlator(medium: FluidMedium, grid: ModeGrid, dx, eps: float) -> float:
    """Damped mode sum at displacement ``dx`` (3-vector, m); kg^2/m^6.

    Summed over the octant of component magnitudes with the two
    transverse axes folded onto t = my^2 + mz^2 (module docstring):
    (N/2 + 1) |T| terms for the |T| distinct values of t, instead of
    N^3, with the weight tabulated once over the 3 (N/2)^2 + 1 values of
    |n|^2 it depends on.  Deterministic: slabs of fixed first-axis
    magnitude are accumulated in a fixed order, with the slab partial sums
    combined by exact compensated summation, so the result does not depend
    on how the work would be chunked.  The sum runs in units of L: only its
    scaling by L^-4, formed with the exponents apart, can leave the range.
    ``eps`` is read as a float by ``errors.positive``.

    Raises
    ------
    AliasingError
        If the nearest-image displacement has |dx| >= L/2.
    FluctusError
        If the value lies outside the float range.
    """
    eps = positive(eps, "damping length eps")
    dx = np.asarray(dx, dtype=float).reshape(3)
    if not np.isfinite(dx).all():
        raise ValueError(f"displacement dx must be finite, got {dx}")
    L = grid.L
    # Nearest periodic image, in units of L; a shift of any component by
    # L is an exact symmetry of the mode sum, so fold before the check.
    with np.errstate(over="ignore", invalid="ignore"):  # dx / L beyond the float range
        u = dx / L
        u = u - np.round(u)
    size = float(np.linalg.norm(u))
    if not size < 0.5:  # nan where dx / L overflowed
        raise AliasingError(
            f"nearest-image |dx| / L = {size:.3e} is not below 1/2 (L = {L:.3e} m); "
            "the periodic box cannot resolve this separation"
        )
    half = grid.N // 2
    q1 = 2.0 * math.pi * np.arange(half + 1)
    # One weight per axis and |n| = m (module docstring).
    phase = np.outer(u, q1)
    axis = 2.0 * np.cos(phase) + 0j
    axis[:, 0] = 1.0
    axis[:, half] = np.exp(-1j * phase[:, half])
    # Fold the y and z weights onto the distinct t = my^2 + mz^2, real
    # and imaginary parts apart (the edge weight is complex) ...
    m_sq = np.arange(half + 1) ** 2
    yz_sq = (m_sq[:, None] + m_sq[None, :]).ravel()
    t = np.flatnonzero(np.bincount(yz_sq))
    yz = np.multiply.outer(axis[1], axis[2]).ravel()
    folded = np.empty((2, t.size))
    folded[0] = np.bincount(yz_sq, weights=yz.real)[t]
    folded[1] = np.bincount(yz_sq, weights=yz.imag)[t]
    del yz_sq, yz  # so that the call's peak memory is the weight table's
    # ... and tabulate |q| e^{-eps |q|} once over s = mx^2 + t, in place.
    weight = np.arange(3 * half * half + 1, dtype=float)
    np.sqrt(weight, out=weight)
    weight *= 2.0 * math.pi
    # Past eps / L = 1e3 every damping factor e^{-2 pi sqrt(s) eps / L}, s >= 1,
    # is 0 already; the cap keeps the product from overflowing on the way.
    eps_l = finite(eps / L, "lattice_correlator at L = {!r} m: eps / L", L)
    damping = weight * -min(eps_l, 1e3)
    np.exp(damping, out=damping)
    weight *= damping  # 0 at s = 0: the zero mode is excluded
    # Each slab's (re, im) of the folded parts times the weight at mx^2 + t.
    # The largest index, (N/2)^2 + 2 (N/2)^2, is the table's last, so "clip"
    # clips nothing; it only spares the bounds check and the buffered out.
    w = np.empty(t.size)
    parts = np.empty((half + 1, 2))
    for mx in range(half + 1):
        np.take(weight[m_sq[mx]:], t, out=w, mode="clip")
        np.matmul(folded, w, out=parts[mx])
    slab_sums = axis[0].real * parts[:, 0] - axis[0].imag * parts[:, 1]
    # Omega_q = cs |q| cancels one cs of the 1/cs^2 normalization; the
    # sum in units of L scales as L^-4.
    return _density_scale(medium, math.fsum(slab_sums) / 2.0, L, -4,
                          "lattice_correlator at L = {!r} m, dx = {!r} m, eps = {!r} m",
                          L, dx.tolist(), eps)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Outcome of a lattice-vs-continuum convergence study.

    ``rows`` holds (N, relative error against the continuum value at the
    same damping); ``slope`` is the fitted log-log exponent of the error
    versus a/r where a = L/N.
    """

    L: float
    r: float
    eps: float
    continuum: float
    rows: tuple[tuple[int, float], ...]
    slope: float

    @property
    def monotone(self) -> bool:
        errs = [e for _, e in self.rows]
        return all(a > b for a, b in zip(errs, errs[1:]))


def convergence_study(medium: FluidMedium, r: float, ns=(64, 128, 256)) -> ConvergenceStudy:
    """Quantify the approach of the mode sum to the continuum integral.

    Runs the standard study geometry: box side L = 16 r, displacement of
    length r along :data:`STUDY_DIRECTION`, and damping r/8 on both
    sides of the comparison.  r is read as a float by ``errors.positive``.

    Raises
    ------
    ValueError
        Unless ``ns`` holds at least two strictly increasing mode counts,
        each valid for :class:`ModeGrid`.
    IllPosedStudyError
        If any N leaves the separation unresolved, a = L/N > r/4, or the
        continuum value underflows to 0.
    """
    r = positive(r, "separation r")
    L = 16.0 * r
    ns = tuple(ns)
    grids = tuple(ModeGrid(L=L, N=n) for n in ns)
    if len(grids) < 2:
        raise ValueError(f"a convergence study needs at least two mode counts, got {ns!r}")
    if any(b.N <= a.N for a, b in zip(grids, grids[1:])):
        raise ValueError(f"mode counts must be strictly increasing, got {ns!r}")
    for grid in grids:
        if grid.spacing > r / 4.0:
            raise IllPosedStudyError(
                f"lattice spacing a = L/{grid.N} = {grid.spacing:.3e} m exceeds "
                f"r/4 = {r / 4.0:.3e} m: separation not resolved"
            )
    eps = 0.125 * r
    d = np.asarray(STUDY_DIRECTION)
    dx = r * d / np.linalg.norm(d)
    continuum = regulated_integrand_reduction(medium, r, 0.0, eps)
    if continuum == 0.0:
        raise IllPosedStudyError(f"convergence_study at r = {r!r} m: the continuum value "
                                 "underflows to 0, so no relative error can be formed")
    rows = []
    for grid in grids:
        lat = lattice_correlator(medium, grid, dx, eps)
        rows.append((grid.N, abs(lat - continuum) / abs(continuum)))
    log_aor = np.log([L / n / r for n, _ in rows])
    log_err = np.log([e for _, e in rows])
    slope = float(np.polyfit(log_aor, log_err, 1)[0])
    return ConvergenceStudy(L=L, r=r, eps=eps, continuum=continuum,
                            rows=tuple(rows), slope=slope)
