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

The quadrature is a 16-point Gauss-Legendre rule per panel, evaluated
in factored form over whole blocks of _BLOCK_PANELS consecutive panels,
with sin(q) cos(qb) split into its two frequencies 1 +- b: each block's
contribution is its first edge's sin, cos and damping times node sums
shared by all blocks (:func:`_panel_sums`), so a pass costs O(blocks),
not O(16 panels).  Every pass has this one shape: it ends on the first
block edge past the truncation wavenumber, and its budget (_MAX_BLOCKS)
is counted in the blocks it allocates.  The integrand cancels by
Sigma|f| / |Sigma f| ~ 1e6-1e7 at small eps, so every phase (the block
edge's, and the integer part of each node's offset from it) is reduced
exactly rather than formed as q r; a phase rounded at the magnitude of
q r leaves node-to-node noise that the pass-to-pass rule would
otherwise chase.  Everything is computed in units of r (the
integral scales as r^-3), so only the final scaling to kg^2/m^6 can
leave the float range, and that raises ``FluctusError``.

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
from .errors import ConvergenceError, FluctusError, SoundConeSingularityError
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

#: Phases are reduced on a grid of 2**-_TURN_BITS turns (:func:`_phase`).
_TURN_BITS = 20

#: The panel rule is factored over blocks of this many consecutive panels
#: (:func:`_panel_sums`).  Odd, so the fast phase never advances by a whole
#: number of turns from block to block: the roundoff of the node sums,
#: which every block shares, then cancels over the blocks instead of
#: adding up (at eps = 1e-4 r two passes differed by 1.0e-4 with 32-panel
#: blocks, by 2.2e-7 with 31).
_BLOCK_PANELS = 31

#: A block's panel offsets k_i = 2i + 1 and node offsets k_i + x_j from its
#: first edge, in half widths, and the Gauss weight of each node.
_PANEL_OFFSETS = np.arange(1, 2 * _BLOCK_PANELS, 2)
_NODE_OFFSETS = (_PANEL_OFFSETS[:, None] + _GL_NODES).ravel()
_NODE_WEIGHTS = np.tile(_GL_WEIGHTS, _BLOCK_PANELS)

#: The regulator standard.  The damping ladder has _LADDER_RUNGS lengths
#: halving from scale/_LADDER_START (see :func:`_ladder`); every rung is
#: integrated to relative tolerance _QUAD_TOL, and the eps^2 extrapolation
#: runs through all rungs.  Read at call time.
_LADDER_START = 10.0
_LADDER_RUNGS = 4
_QUAD_TOL = 1e-9
_EXTRAP_ORDER = _LADDER_RUNGS - 1

#: Refinement budget of the panel quadrature: at most this many panel
#: halvings, and at most this many blocks (2**24 nodes) in one pass, which
#: is what a pass allocates.
_MAX_HALVINGS = 8
_MAX_BLOCKS = 2**24 // _NODE_OFFSETS.size


@dataclass(frozen=True)
class SpectralEstimate:
    """Extrapolated correlator value with its error estimate (both kg^2/m^6).

    ``quadrature_error`` is the relative pass-to-pass difference the panel
    quadrature achieved on the damping ladder; ``passes`` counts the
    quadrature passes and ``points`` the quadrature nodes they evaluated,
    16 _BLOCK_PANELS per block, over all of them.
    """

    value: float
    error_estimate: float
    quadrature_error: float
    passes: int
    points: int


def _ladder(b: float) -> tuple[float, ...]:
    """_LADDER_RUNGS damping lengths halving from scale/_LADDER_START, in
    units of r, where scale = min(r, |r - cs|dt||) and b = cs|dt| / r.

    The scale is r away from the sound cone and shrinks with the cone
    distance near it, keeping the eps^2 extrapolation accurate where the
    correlator steepens.  Being relative to r, the rungs neither under-
    nor overflow however large or small r is.
    """
    eps0 = min(1.0, abs(1.0 - b)) / _LADDER_START
    return tuple(eps0 / 2.0**k for k in range(_LADDER_RUNGS))


def _truncation_wavenumber(eps: float) -> float:
    # Solve x = -ln(floor) + 2 ln x, x = eps*q: beyond this the q^2
    # envelope times the damping is below _DAMPING_FLOOR of its peak.
    x = 33.0
    target = -math.log(_DAMPING_FLOOR)
    for _ in range(8):
        x = target + 2.0 * math.log(x)
    # A damping length that underflowed to 0 would need unbounded work.
    return x / eps if eps > 0.0 else math.inf


def _phase(n: np.ndarray, turns: np.ndarray) -> np.ndarray:
    """The phase 2 pi n turns at integers n, reduced exactly into [-pi, pi].

    ``turns`` is split into a part on the 2**-_TURN_BITS grid, whose
    product with n is reduced modulo one turn in integer arithmetic, and
    a remainder of at most 2**-(_TURN_BITS + 1), whose product with n is
    below one turn.  The phase is therefore accurate to a few ulp of pi,
    however large n is.  Broadcasts over n and turns.
    """
    steps = np.rint(turns * 2**_TURN_BITS).astype(np.int64)
    rest = turns - steps / 2**_TURN_BITS  # exact: the low bits of turns
    frac = (n * steps % 2**_TURN_BITS) / 2**_TURN_BITS + n * rest
    return (2.0 * math.pi) * (frac - np.rint(frac))


def _panel_sums(b: float, epsilons: tuple[float, ...], halvings: int,
                blocks: int) -> np.ndarray:
    """Quadrature of q^2 sin(q) cos(qb) e^{-eps q} for every damping length.

    In units of r (r = 1): the 16-point Gauss-Legendre rule on ``blocks``
    whole blocks of _BLOCK_PANELS panels of half width
    h = pi / ((1 + b) 2**(halvings + 1)) from q = 0, evaluated in factored
    form.  With sin(q) cos(qb) = [sin q(1+b) + sin q(1-b)] / 2, both
    frequencies carried always (at b = 0 they coincide), a node q = s + u
    at offset u = h (k_i + x_j) from its block's first edge s (k_i = 2i + 1
    in the block's i-th panel, x_j the Gauss nodes) splits every factor
    into a block part and a node part:

        e^{-eps q} = e^{-eps s} e^{-eps u},
        sin(q a) = sin(s a) cos(u a) + cos(s a) sin(u a),
        q^2 = s^2 + 2 s u + u^2.

    The node sums of w_j u^p e^{-eps u} {cos, sin}(u a), p = 0, 1, 2, over
    a block's 16 _BLOCK_PANELS nodes are the same for every block, so a
    pass is one (rungs x 12) by (12 x blocks) product plus, per block, the
    sin and cos of each frequency and one exp per rung.  As s, u >= 0,
    neither damping factor exceeds 1 and the q^2 terms do not cancel.

    Every phase is reduced exactly (:func:`_phase`): the block phase s a
    and the panel phase h k_i a are integers times a turn count (the
    fast one, 1 / 2**(halvings + 2) turns, lies on the turn grid), and
    only the Gauss part h x_j a, under a quarter turn, is added in
    floating point.  No phase is rounded at the magnitude of q, which
    would leave node-to-node noise that the cancellation amplifies.  The
    block order and the summation are fixed, so results are bitwise
    reproducible.
    """
    period = 2 ** (halvings + 2)
    h = 2.0 * math.pi / ((1.0 + b) * period)
    turns = np.array([[1.0], [(1.0 - b) / (1.0 + b)]]) / period
    eps = np.asarray(epsilons)
    start = 2 * _BLOCK_PANELS * np.arange(blocks)
    s = start * h
    # One exact reduction for the panels' integer offsets and the block edges.
    phase = _phase(np.concatenate((_PANEL_OFFSETS, start)), turns)
    node_phase = (phase[:, :_BLOCK_PANELS, None]
                  + (2.0 * math.pi) * turns[:, :, None] * _GL_NODES).reshape(2, -1)
    # Row i of the block factors pairs with row i of the node factors:
    # sin(s a) with cos(u a), cos(s a) with sin(u a), for each frequency.
    node_osc = np.concatenate((np.cos(node_phase), np.sin(node_phase)))
    edge = np.concatenate((np.sin(phase[:, _BLOCK_PANELS:]), np.cos(phase[:, _BLOCK_PANELS:])))
    u = h * _NODE_OFFSETS
    node = _NODE_WEIGHTS * np.exp(-np.multiply.outer(eps, u))
    node_sums = np.stack((node, node * u, node * (u * u))) @ node_osc.T
    features = (edge[:, None, :] * np.stack((s * s, 2.0 * s, np.ones(blocks)))).reshape(-1, blocks)
    per_block = node_sums.transpose(1, 2, 0).reshape(len(eps), -1) @ features
    damping = np.multiply.outer(-eps, s)
    per_block *= np.exp(damping, out=damping)
    return per_block.sum(axis=1) * (h / 2.0)


def _in_units_of_r(medium: FluidMedium, r: float, integral: float, call: str) -> float:
    """The correlator from its damped integral computed in units of r.

    Substituting q -> q / r scales the integral by r^-3, so the
    quadrature and the closed form work with r = 1 and only this product
    can leave the float range; it is formed by :func:`_in_float_range`,
    so only the true value can round to 0 or overflow.  Raises
    FluctusError naming ``call`` when it does.
    """
    (h, eh), (rho, erho), (c, ec), (x, ex), (i, ei) = map(
        math.frexp, (HBAR, medium.rho0, medium.cs, r, integral))
    mantissa = h * rho / (4.0 * math.pi**2 * c * x) * i / x / x / x
    return _in_float_range(mantissa, eh + erho - ec - 4 * ex + ei, call)


def _in_float_range(mantissa: float, exponent: int, call: str) -> float:
    """``mantissa * 2**exponent``, refused by name unless finite.

    A physical scale formed as a product of dimensional factors can
    underflow or overflow part way although the result is in range
    (hbar * rho0 at rho0 = 1e-300).  The callers multiply the mantissas
    of ``math.frexp`` in the order the plain product would, which in the
    normal range gives the same bits, and add the exponents, so that
    one ``ldexp`` rounds the true result alone.  Raises FluctusError
    naming ``call`` when that result leaves the float range.
    """
    try:
        value = math.ldexp(mantissa, exponent)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):  # also nan from a non-finite mantissa
        raise FluctusError(f"{call} is outside the float range")
    return value


def _separation(r: float, dt: float, eps: float | None = None) -> Separation:
    """The point (r, dt) with r > 0, both finite, and a damping length
    ``eps``, when one is given, positive and finite."""
    sep = Separation(r, dt)
    if sep.r == 0.0:
        raise ValueError(f"distance r must be positive, got {r} (the reduced integrand is radial)")
    if eps is not None and not 0.0 < eps < math.inf:
        raise ValueError(f"damping length eps must be positive and finite, got {eps}")
    return sep


def _regulated_values(b: float, epsilons: tuple[float, ...],
                      call: str) -> tuple[np.ndarray, float, int, int]:
    """Adaptively refined panel quadrature for a whole damping ladder.

    Works in units of r: ``b`` is cs|dt| / r and ``epsilons`` are the
    damping lengths over r, smallest last.  The base panel width is the
    half-period of the fastest oscillation, pi / (1 + b); pass p halves
    it p times, at most _MAX_HALVINGS, until two successive passes agree
    to _QUAD_TOL on every ladder entry (and none sums to exactly 0).  A
    pass covers the domain up to the truncation wavenumber with whole
    blocks, which pads it to at most one block beyond it, where the
    damped envelope is already below _DAMPING_FLOOR.  A pass that would
    need more than _MAX_BLOCKS blocks is refused before anything is
    allocated.
    Returns the values, the achieved pass-to-pass difference, and the
    passes and points spent.  A ConvergenceError names ``call``.
    """
    qmax = _truncation_wavenumber(epsilons[-1])
    prev = None
    achieved = math.inf
    points = 0
    for halvings in range(_MAX_HALVINGS + 1):
        blocks = qmax * (1.0 + b) * 2.0**halvings / (math.pi * _BLOCK_PANELS)
        if not blocks <= _MAX_BLOCKS:  # also refuses inf and nan
            raise ConvergenceError(
                f"{call}: panel quadrature needs {blocks:.3g} blocks in one pass, "
                f"over the budget of {_MAX_BLOCKS}", achieved)
        blocks = math.ceil(blocks)
        cur = _panel_sums(b, epsilons, halvings, blocks)
        points += blocks * _NODE_OFFSETS.size
        if prev is not None:
            # A rung whose nodes all underflowed sums to exactly 0: its
            # damping is not resolved, so it never counts as converged.
            achieved = float(np.max(np.divide(np.abs(cur - prev), np.abs(cur),
                                              out=np.full_like(cur, math.inf),
                                              where=cur != 0.0)))
            if achieved <= _QUAD_TOL:
                return cur, achieved, halvings + 1, points
        prev = cur
    raise ConvergenceError(f"{call}: panel quadrature did not converge within the panel budget",
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
    FluctusError
        If the value, or eps / r, lies outside the float range.
    """
    _separation(r, dt, eps)
    call = f"regulated_integrand_reduction at r = {r!r} m, dt = {dt!r} s, eps = {eps!r} m"
    if eps / r == math.inf:
        raise FluctusError(f"{call}: eps / r is outside the float range")
    values = _regulated_values(medium.cs * abs(dt) / r, (eps / r,), call)[0]
    return _in_units_of_r(medium, r, float(values[0]), call)


def damped_closed_form(medium: FluidMedium, r: float, dt: float, eps: float) -> float:
    """Closed form of the damped integral; the quadrature's own oracle.

    Raises FluctusError if the value lies outside the float range.
    """
    _separation(r, dt, eps)
    s = complex(eps, medium.cs * dt)
    # In units of r the integral is 2 (3 z^2 - 1) / (z^2 + 1)^3 with
    # z = s / r; past |z| = 1 it is written in powers of 1 / z instead,
    # so that neither form overflows on the way to a finite value.
    try:
        if abs(s) <= r:
            z = s / r
            x = z * z
            d = x + 1.0
            reduced = (3.0 * x - 1.0) / (d * d * d)
        else:
            z = r / s
            x = z * z
            d = 1.0 + x
            reduced = x * x * (3.0 - x) / (d * d * d)
    except ZeroDivisionError:  # d underflowed to 0 at the undamped cone
        reduced = complex(math.inf)
    return _in_units_of_r(medium, r, 2.0 * reduced.real, "damped_closed_form at "
                          f"r = {r!r} m, dt = {dt!r} s, eps = {eps!r} m")


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
        estimate exceeds 100x the quadrature tolerance of 1e-9 (or is
        not a number).
    FluctusError
        If the value lies outside the float range.
    """
    sep = _separation(r, dt)
    if sep.regime(medium.cs) is Regime.ON_CONE:
        raise SoundConeSingularityError(
            f"separation lies on the sound cone of '{medium.name}'"
        )
    call = f"extrapolated_correlator at r = {r!r} m, dt = {dt!r} s"
    b = medium.cs * abs(dt) / r
    epsilons = _ladder(b)
    integrals, achieved, passes, points = _regulated_values(b, epsilons, call)
    # The extrapolant does not depend on the unit of eps^2; in units of the
    # first rung the abscissae are exact and never over- or underflow.
    xs = [(eps / epsilons[0]) ** 2 for eps in epsilons]
    value, err = _richardson(xs, [float(v) for v in integrals], _EXTRAP_ORDER)
    if not err <= 100.0 * _QUAD_TOL * abs(value):  # a nan fails too
        raise ConvergenceError(f"{call}: regulator extrapolation did not converge",
                               err / abs(value) if value else math.inf)
    return SpectralEstimate(value=_in_units_of_r(medium, r, value, call),
                            error_estimate=abs(_in_units_of_r(medium, r, err, call)),
                            quadrature_error=achieved, passes=passes, points=points)
