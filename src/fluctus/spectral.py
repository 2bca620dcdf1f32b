"""Independent numerical evaluation of the density correlator.

The correlator is, before any algebra, a spectral integral: the sum over
phonon modes of weight proportional to the mode frequency.  After the
angular integration the three-dimensional integral collapses to a
semi-infinite oscillatory one,

    <rho rho> = (hbar rho0 / 4 pi^2 cs r)
                * Re  int_0^inf  q^2 sin(q r) e^{-q (eps + i cs dt)} dq ,

where eps > 0 is an exponential damping length inserted to make the
integral absolutely convergent.  This module evaluates the damped
integral by adaptive panel quadrature (panels tied to the oscillation
zeros) and removes the regulator by polynomial extrapolation in eps^2,
giving a value for the correlator that shares no algebra with the
closed form in ``fluctus.correlator``.  Agreement between the two is
the decisive test of the closed form's denominator.

The exponential regulator is chosen because the damped integral has a
closed form of its own,

    int_0^inf q^2 sin(q r) e^{-s q} dq = 2 r (3 s^2 - r^2) / (s^2 + r^2)^3,
    s = eps + i cs dt,

which serves as the oracle's own oracle (:func:`damped_closed_form`),
and because the damped value is exactly even in eps off the cone, which
justifies extrapolating in eps^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlator import Regime, Separation
from .errors import ConvergenceError, SoundConeSingularityError
from .medium import HBAR, FluidMedium

__all__ = [
    "RegulatorSchedule",
    "default_schedule",
    "regulated_integrand_reduction",
    "damped_closed_form",
    "extrapolated_correlator",
    "SpectralEstimate",
]

#: Damping floor: the quadrature domain ends where the damped envelope
#: has fallen below this fraction of its peak.
_DAMPING_FLOOR = 1e-14

#: Gauss-Legendre rule applied per oscillation panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class RegulatorSchedule:
    """Damping lengths and extrapolation settings for regulator removal.

    Attributes
    ----------
    epsilons : tuple of float
        Strictly decreasing damping lengths (m); at least 3 entries.
    quad_tol : float
        Relative quadrature tolerance per damping length, in (0, 1e-6].
    extrap_order : int
        Polynomial order of the eps^2 extrapolation; at least 1 and
        strictly smaller than the number of damping lengths.
    """

    epsilons: tuple[float, ...]
    quad_tol: float = 1e-9
    extrap_order: int = 3

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if len(eps) < 3:
            raise ValueError(f"schedule needs at least 3 damping lengths, got {len(eps)}")
        if any(not e > 0.0 for e in eps):
            raise ValueError("all damping lengths must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("damping lengths must be strictly decreasing")
        if not 0.0 < self.quad_tol <= 1e-6:
            raise ValueError(f"quad_tol must lie in (0, 1e-6], got {self.quad_tol}")
        if not 1 <= self.extrap_order < len(eps):
            raise ValueError(
                f"extrap_order must satisfy 1 <= order < {len(eps)}, got {self.extrap_order}"
            )

    def check_against_distance(self, r: float) -> None:
        """Every damping length must be at least 10x smaller than r."""
        if max(self.epsilons) > r / 10.0:
            raise ValueError(
                f"largest damping length {max(self.epsilons):.3e} m exceeds r/10 = {r / 10.0:.3e} m"
            )


def default_schedule(medium: FluidMedium, r: float, dt: float = 0.0) -> RegulatorSchedule:
    """Halving ladder of four damping lengths starting at scale/16.

    The scale is r away from the sound cone and shrinks with the cone
    distance |r - cs|dt|| near it, keeping the eps^2 extrapolation
    accurate where the correlator steepens.
    """
    scale = min(r, abs(r - medium.cs * abs(dt)))
    if not scale > 0.0:
        raise SoundConeSingularityError("separation lies on the sound cone")
    eps0 = scale / 16.0
    return RegulatorSchedule(epsilons=(eps0, eps0 / 2.0, eps0 / 4.0, eps0 / 8.0))


@dataclass(frozen=True)
class SpectralEstimate:
    """Extrapolated correlator value with its error estimate (both kg^2/m^6)."""

    value: float
    error_estimate: float


def _truncation_wavenumber(eps: float) -> float:
    # Solve x = -ln(floor) + 2 ln x, x = eps*q: beyond this the q^2
    # envelope times the damping is below _DAMPING_FLOOR of its peak.
    x = 33.0
    target = -math.log(_DAMPING_FLOOR)
    for _ in range(8):
        x = target + 2.0 * math.log(x)
    return x / eps


def _power_of_two_ratio(eps: float, eps_min: float) -> int | None:
    ratio = eps / eps_min
    rounded = round(ratio)
    if rounded >= 1 and rounded & (rounded - 1) == 0 and rounded <= 64 \
            and ratio == float(rounded):
        return rounded
    return None


def _panel_sums(r: float, b: float, epsilons: tuple[float, ...], width: float) -> np.ndarray:
    """Quadrature of q^2 sin(qr) cos(qb) e^{-eps q} for every eps at once.

    Panels of the given width cover [0, qmax] for the smallest damping
    length; the oscillatory factor is evaluated once and shared, only
    the damping differs between ladder entries.  Damping lengths that
    are exact binary multiples of the smallest one (the default halving
    ladder) reuse its exponential by repeated squaring.  Single-threaded
    with a fixed panel order, so results are bitwise reproducible.
    """
    eps_min = min(epsilons)
    qmax = _truncation_wavenumber(eps_min)
    n = int(math.ceil(qmax / width))
    edges = np.linspace(0.0, n * width, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * width
    q = mid[:, None] + half * _GL_NODES[None, :]
    osc = q * q * np.sin(q * r)
    if b != 0.0:
        osc = osc * np.cos(q * b)
    base_damping = np.exp(-eps_min * q)
    out = np.empty(len(epsilons))
    for i, eps in enumerate(epsilons):
        m = _power_of_two_ratio(eps, eps_min)
        if m is None:
            damping = np.exp(-eps * q)
        else:
            damping = base_damping
            while m > 1:
                damping = damping * damping
                m //= 2
        f = osc * damping
        out[i] = float((f @ _GL_WEIGHTS).sum() * half)
    return out


def _prefactor(medium: FluidMedium, r: float) -> float:
    return HBAR * medium.rho0 / (4.0 * math.pi**2 * medium.cs * r)


def _separation(r: float, dt: float, eps: float | None = None) -> Separation:
    """The point (r, dt) with r > 0, both finite, and a damping length
    ``eps``, when one is given, positive and finite."""
    sep = Separation(r, dt)
    if sep.r == 0.0:
        raise ValueError(f"distance r must be positive, got {r} (the reduced integrand is radial)")
    if eps is not None and not 0.0 < eps < math.inf:
        raise ValueError(f"damping length eps must be positive and finite, got {eps}")
    return sep


def _regulated_values(r: float, b: float, epsilons: tuple[float, ...],
                      quad_tol: float) -> tuple[np.ndarray, float]:
    """Adaptively refined panel quadrature for a whole damping ladder.

    The base panel width is the half-period of the fastest oscillation
    (zeros of sin(qr), subdivided further when the cos(q cs dt) factor
    oscillates faster); panels are halved, at most eight times, until
    two successive passes agree to quad_tol on every ladder entry.
    """
    width = math.pi / (r + b)
    prev = _panel_sums(r, b, epsilons, width)
    achieved = math.inf
    for _ in range(8):
        width *= 0.5
        cur = _panel_sums(r, b, epsilons, width)
        scale = np.maximum(np.abs(cur), 1e-300)
        achieved = float(np.max(np.abs(cur - prev) / scale))
        if achieved <= quad_tol:
            return cur, achieved
        prev = cur
    raise ConvergenceError("panel quadrature did not converge within the panel budget",
                           achieved)


def regulated_integrand_reduction(medium: FluidMedium, r: float, dt: float,
                                  eps: float, quad_tol: float = 1e-9) -> float:
    """Damped spectral integral at fixed regulator eps (kg^2/m^6).

    Numerically integrates the reduced one-dimensional form (module
    docstring) to relative tolerance ``quad_tol``; the domain is
    truncated where the damping falls below 1e-14 of the envelope peak.

    Raises
    ------
    ConvergenceError
        If the panel budget is exhausted, carrying the achieved estimate.
    """
    _separation(r, dt, eps)
    values, _ = _regulated_values(r, medium.cs * abs(dt), (eps,), quad_tol)
    return _prefactor(medium, r) * float(values[0])


def damped_closed_form(medium: FluidMedium, r: float, dt: float, eps: float) -> float:
    """Closed form of the damped integral; the quadrature's own oracle."""
    _separation(r, dt, eps)
    s = eps + 1j * medium.cs * dt
    r2 = r * r
    integral = (2.0 * r * (3.0 * s * s - r2) / (s * s + r2) ** 3).real
    return _prefactor(medium, r) * integral


def _richardson(xs, ys, order: int) -> tuple[float, float]:
    """Neville extrapolation of (xs, ys) to x = 0.

    Returns the order-``order`` extrapolant through the last points
    together with the difference from the order below, which serves as
    the error estimate.
    """
    n = len(xs)
    tableau = [list(ys)]
    for j in range(1, n):
        row = []
        for i in range(n - j):
            num = xs[i] * tableau[j - 1][i + 1] - xs[i + j] * tableau[j - 1][i]
            row.append(num / (xs[i] - xs[i + j]))
        tableau.append(row)
    value = tableau[order][-1]
    prev = tableau[order - 1][-1]
    return value, abs(value - prev)


def extrapolated_correlator(medium: FluidMedium, r: float, dt: float,
                            schedule: RegulatorSchedule | None = None) -> SpectralEstimate:
    """Regulator-free correlator from the spectral integral.

    Evaluates the damped integral on the schedule's damping ladder and
    extrapolates polynomially in eps^2 to eps = 0.  The error estimate
    is the difference between the last two extrapolation orders.

    Raises
    ------
    SoundConeSingularityError
        If (r, dt) lies on the sound cone (no finite limit exists).
    ConvergenceError
        If the relative error estimate exceeds 100x the schedule's
        quadrature tolerance.
    """
    sep = _separation(r, dt)
    if sep.regime(medium.cs) is Regime.ON_CONE:
        raise SoundConeSingularityError(
            f"separation lies on the sound cone of '{medium.name}'"
        )
    if schedule is None:
        schedule = default_schedule(medium, r, dt)
    schedule.check_against_distance(r)

    integrals, _ = _regulated_values(r, medium.cs * abs(dt), schedule.epsilons,
                                     schedule.quad_tol)
    prefactor = _prefactor(medium, r)
    xs = [e * e for e in schedule.epsilons]
    ys = [prefactor * float(v) for v in integrals]
    value, err = _richardson(xs, ys, schedule.extrap_order)
    if err > 100.0 * schedule.quad_tol * abs(value):
        raise ConvergenceError("regulator extrapolation did not converge",
                               err / abs(value) if value else math.inf)
    return SpectralEstimate(value=value, error_estimate=err)
