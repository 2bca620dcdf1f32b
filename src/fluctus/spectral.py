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

#: The regulator standard.  The damping ladder has _LADDER_RUNGS lengths
#: halving from scale/_LADDER_START (see :func:`_ladder`); every rung is
#: integrated to relative tolerance _QUAD_TOL, and the eps^2 extrapolation
#: runs through all rungs.  Read at call time.
_LADDER_START = 10.0
_LADDER_RUNGS = 4
_QUAD_TOL = 1e-9
_EXTRAP_ORDER = _LADDER_RUNGS - 1

#: Refinement budget of the panel quadrature: at most this many panel
#: halvings, and at most this many points evaluated in one pass.
_MAX_HALVINGS = 8
_MAX_POINTS = 2**24


@dataclass(frozen=True)
class SpectralEstimate:
    """Extrapolated correlator value with its error estimate (both kg^2/m^6).

    ``quadrature_error`` is the relative pass-to-pass difference the panel
    quadrature achieved on the damping ladder; ``passes`` and ``points``
    count the quadrature passes and the integrand points evaluated over
    all of them.
    """

    value: float
    error_estimate: float
    quadrature_error: float
    passes: int
    points: int


def _ladder(medium: FluidMedium, r: float, dt: float) -> tuple[float, ...]:
    """_LADDER_RUNGS damping lengths halving from scale/_LADDER_START, where
    scale = min(r, |r - cs|dt||).

    The scale is r away from the sound cone and shrinks with the cone
    distance near it, keeping the eps^2 extrapolation accurate where the
    correlator steepens.
    """
    eps0 = float(min(r, abs(r - medium.cs * abs(dt)))) / _LADDER_START
    return tuple(eps0 / 2.0**k for k in range(_LADDER_RUNGS))


def _truncation_wavenumber(eps: float) -> float:
    # Solve x = -ln(floor) + 2 ln x, x = eps*q: beyond this the q^2
    # envelope times the damping is below _DAMPING_FLOOR of its peak.
    x = 33.0
    target = -math.log(_DAMPING_FLOOR)
    for _ in range(8):
        x = target + 2.0 * math.log(x)
    return x / eps


def _panel_sums(r: float, b: float, epsilons: tuple[float, ...], width: float,
                panels: int) -> np.ndarray:
    """Quadrature of q^2 sin(qr) cos(qb) e^{-eps q} for a halving ladder.

    ``panels`` panels of the given width cover the domain of the smallest
    damping length, the last one.  The oscillatory factor is evaluated
    once and shared; the damping exp(-eps_min q) is evaluated once and
    squared rung by rung, smallest damping length first.  Single-threaded
    with a fixed panel order, so results are bitwise reproducible.
    """
    edges = np.linspace(0.0, panels * width, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * width
    q = mid[:, None] + half * _GL_NODES[None, :]
    osc = q * q * np.sin(q * r)
    if b != 0.0:
        osc = osc * np.cos(q * b)
    damping = np.exp(-epsilons[-1] * q)
    out = np.empty(len(epsilons))
    for i in reversed(range(len(epsilons))):
        f = osc * damping
        out[i] = float((f @ _GL_WEIGHTS).sum() * half)
        if i:
            damping = damping * damping
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


def _regulated_values(r: float, b: float,
                      epsilons: tuple[float, ...]) -> tuple[np.ndarray, float, int, int]:
    """Adaptively refined panel quadrature for a whole halving ladder.

    The base panel width is the half-period of the fastest oscillation
    (zeros of sin(qr), subdivided further when the cos(q cs dt) factor
    oscillates faster); panels are halved, at most _MAX_HALVINGS times,
    until two successive passes agree to _QUAD_TOL on every ladder
    entry.  A pass that would evaluate more than _MAX_POINTS points is
    refused before anything is allocated.  Returns the values, the
    achieved pass-to-pass difference, and the passes and points spent.
    """
    qmax = _truncation_wavenumber(epsilons[-1])
    width = math.pi / (r + b)
    prev = None
    achieved = math.inf
    points = 0
    for passes in range(1, _MAX_HALVINGS + 2):
        panels = qmax / width
        if not panels <= _MAX_POINTS // len(_GL_NODES):  # also refuses inf and nan
            raise ConvergenceError(
                f"panel quadrature needs {panels * len(_GL_NODES):.3g} points in one pass, "
                f"over the budget of {_MAX_POINTS}", achieved)
        cur = _panel_sums(r, b, epsilons, width, math.ceil(panels))
        points += math.ceil(panels) * len(_GL_NODES)
        if prev is not None:
            scale = np.maximum(np.abs(cur), 1e-300)
            achieved = float(np.max(np.abs(cur - prev) / scale))
            if achieved <= _QUAD_TOL:
                return cur, achieved, passes, points
        prev = cur
        width *= 0.5
    raise ConvergenceError("panel quadrature did not converge within the panel budget",
                           achieved)


def regulated_integrand_reduction(medium: FluidMedium, r: float, dt: float,
                                  eps: float) -> float:
    """Damped spectral integral at fixed regulator eps (kg^2/m^6).

    Numerically integrates the reduced one-dimensional form (module
    docstring) to relative tolerance 1e-9; the domain is truncated
    where the damping falls below 1e-14 of the envelope peak.

    Raises
    ------
    ConvergenceError
        If the panel budget is exhausted, carrying the achieved estimate.
    """
    _separation(r, dt, eps)
    values = _regulated_values(r, medium.cs * abs(dt), (eps,))[0]
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


def extrapolated_correlator(medium: FluidMedium, r: float, dt: float) -> SpectralEstimate:
    """Regulator-free correlator from the spectral integral.

    Evaluates the damped integral on the standard ladder of four damping
    lengths, halving from a tenth of the distance scale (which
    contracts near the sound cone), and extrapolates polynomially in
    eps^2 to eps = 0.  The error estimate is the difference between the
    last two extrapolation orders.

    Raises
    ------
    SoundConeSingularityError
        If (r, dt) lies on the sound cone (no finite limit exists).
    ConvergenceError
        If the quadrature exhausts its budget, or the relative error
        estimate exceeds 100x the quadrature tolerance of 1e-9.
    """
    sep = _separation(r, dt)
    if sep.regime(medium.cs) is Regime.ON_CONE:
        raise SoundConeSingularityError(
            f"separation lies on the sound cone of '{medium.name}'"
        )
    epsilons = _ladder(medium, r, dt)
    integrals, achieved, passes, points = _regulated_values(r, medium.cs * abs(dt), epsilons)
    prefactor = _prefactor(medium, r)
    xs = [e * e for e in epsilons]
    ys = [prefactor * float(v) for v in integrals]
    value, err = _richardson(xs, ys, _EXTRAP_ORDER)
    if err > 100.0 * _QUAD_TOL * abs(value):
        raise ConvergenceError("regulator extrapolation did not converge",
                               err / abs(value) if value else math.inf)
    return SpectralEstimate(value=value, error_estimate=err, quadrature_error=achieved,
                            passes=passes, points=points)
