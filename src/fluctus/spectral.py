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
in factored form over whole blocks of _BLOCK_PANELS consecutive panels
(:func:`_panel_sums`), so a pass costs O(blocks), not O(16 panels), with
every phase reduced exactly (:func:`_phase`), as the integrand cancels
by Sigma|f| / |Sigma f| ~ 1e6-1e7 at small eps.  Everything is computed
in units of r (the integral scales as r^-3), so only the final scaling
to kg^2/m^6 can leave the float range, and that raises ``FluctusError``.

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

from .correlator import Regime, Separation, _density_scale
from .errors import ConvergenceError, SoundConeSingularityError, finite, largest, positive, real
from .medium import FluidMedium

__all__ = [
    "regulated_integrand_reduction",
    "damped_closed_form",
    "extrapolated_correlator",
    "SpectralEstimate",
]

#: The truncation wavenumber times the damping length: the quadrature domain ends
#: at q = _TRUNCATION / eps, past which the q^2 envelope times the damping is below
#: 1e-14 of its peak.  Eight fixed-point steps of x = -ln(1e-14) + 2 ln x from x = 33.
_TRUNCATION = 39.59352235773582

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
#: Each node's weight times 1, 2 k and k^2 at node offset k, the parts of
#: (start + k)^2 that vary within a block (:func:`_panel_sums`).
_NODE_MOMENTS = _NODE_WEIGHTS * np.stack((np.ones(_NODE_OFFSETS.size), 2.0 * _NODE_OFFSETS,
                                          _NODE_OFFSETS * _NODE_OFFSETS))

#: The regulator standard.  The damping ladder has _LADDER_RUNGS lengths
#: halving from scale/_LADDER_START (see :func:`_ladder`); every rung is
#: integrated to relative tolerance _QUAD_TOL, and the eps^2 extrapolation
#: runs through all rungs.  Read at call time.
_LADDER_START = 10.0
_LADDER_RUNGS = 4
_QUAD_TOL = 1e-9
_EXTRAP_ORDER = _LADDER_RUNGS - 1

#: Refinement budget of the panel quadrature: at most this many panel
#: halvings, and at most this many blocks (2**24 nodes) in one pass.  The
#: budget bounds a pass's work; its memory goes by blocks, not nodes: under
#: 230 bytes per block (7.7 MB at the full budget, measured with tracemalloc).
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
    units of r, where scale = |r - cs|dt|| and b = cs|dt| / r.

    The regulator expansion is limited by the distance to the sound cone:
    near it the rungs contract, keeping the eps^2 extrapolation accurate,
    and deep inside it (b > 2) they grow, saving panels.  Relative to r,
    they neither under- nor overflow however large or small r is.
    """
    eps0 = abs(1.0 - b) / _LADDER_START
    return tuple(eps0 / 2.0**k for k in range(_LADDER_RUNGS))


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


def _fast_node_osc(halvings: int) -> np.ndarray:
    """A pass's node factors (:func:`_panel_sums`) with the slow rows 0: the
    fast node phases are (k_i + x_j) / 2**(halvings + 2) turns, whatever b is."""
    turns = 1.0 / 2 ** (halvings + 2)
    phase = (_phase(_PANEL_OFFSETS, turns)[:, None] + (2.0 * math.pi) * turns * _GL_NODES).ravel()
    return np.stack((np.cos(phase), np.zeros_like(phase), np.sin(phase), np.zeros_like(phase)))


#: The fast frequency's node factors for each number of halvings.
_FAST_NODE_OSC = tuple(_fast_node_osc(halvings) for halvings in range(_MAX_HALVINGS + 1))


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

    In units of h, with start = s / h and k = u / h, q^2 is h^2 times
    (start + 2 k) start + k^2.  The node sums of w_j {1, 2 k, k^2}
    e^{-eps u} {cos, sin}(u a) over a block's 16 _BLOCK_PANELS nodes are
    the same for every block, so a pass is two 2-D products,
    (3 rungs x nodes) by (nodes x 4) and that by (4 x blocks), plus, per
    block, the sin and cos of each frequency, one exp per rung and start
    applied by Horner's rule.  The fast frequency's node factors do not
    depend on b and are tabulated (_FAST_NODE_OSC); only the slow one's
    are computed in a pass.  As s, u >= 0, neither damping factor
    exceeds 1 and the q^2 terms do not cancel.

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
    slow = (1.0 - b) / (1.0 + b) / period
    neg_eps = np.negative(epsilons)
    start = np.arange(0.0, 2 * _BLOCK_PANELS * blocks, 2 * _BLOCK_PANELS)
    # One exact reduction for the slow panels' integer offsets and both
    # frequencies' block edges; the fast panels' row goes unused.
    phase = _phase(np.concatenate((_PANEL_OFFSETS, start.astype(np.int64))),
                   np.array([[1.0 / period], [slow]]))
    slow_phase = (phase[1, :_BLOCK_PANELS, None] + (2.0 * math.pi * slow) * _GL_NODES).ravel()
    # Row i of the block factors pairs with row i of the node factors:
    # sin(s a) with cos(u a), cos(s a) with sin(u a), for each frequency.
    node_osc = _FAST_NODE_OSC[halvings].copy()
    np.cos(slow_phase, out=node_osc[1])
    np.sin(slow_phase, out=node_osc[3])
    edge = np.concatenate((np.sin(phase[:, _BLOCK_PANELS:]), np.cos(phase[:, _BLOCK_PANELS:])))
    node = np.exp(np.multiply.outer(neg_eps, h * _NODE_OFFSETS))
    moments = (_NODE_MOMENTS[:, None, :] * node).reshape(-1, _NODE_OFFSETS.size)
    per_block = ((moments @ node_osc.T) @ edge).reshape(3, len(epsilons), blocks)
    terms = per_block[0] * start
    terms += per_block[1]
    terms *= start
    terms += per_block[2]
    damping = np.multiply.outer(neg_eps, start * h)
    terms *= np.exp(damping, out=damping)
    return terms.sum(axis=1) * (h * h) * (h / 2.0)


def _in_units_of_r(medium: FluidMedium, r: float, integral: float, call: str) -> float:
    """The correlator from its damped integral computed in units of r (q -> q / r
    scales it by r^-3): only this scale can leave the float range, refused by a
    FluctusError naming ``call``."""
    return _density_scale(medium, integral / (4.0 * math.pi**2), r, -4, call)


def _regulated_values(b: float, epsilons: tuple[float, ...],
                      call: str) -> tuple[np.ndarray, float, int, int]:
    """Adaptively refined panel quadrature for a whole damping ladder.

    Works in units of r: ``b`` is cs|dt| / r and ``epsilons`` are the
    damping lengths over r, smallest last.  The base panel width is the
    half-period of the fastest oscillation, pi / (1 + b); pass p halves
    it p times, at most _MAX_HALVINGS, until two successive passes agree
    to _QUAD_TOL on every ladder entry (and none sums to exactly 0).  A
    pass covers the domain up to the truncation wavenumber with whole
    blocks (at most one past it, where the damped envelope is below 1e-14
    of its peak); one that would need more than _MAX_BLOCKS blocks, the
    budget on a pass's work (a pass allocates under 230 bytes per block),
    is refused before anything is allocated.  Returns the values, the
    achieved pass-to-pass difference, and the passes and points spent.
    A ConvergenceError names ``call``.
    """
    # A damping length that underflowed to 0 would need unbounded work.
    qmax = _TRUNCATION / epsilons[-1] if epsilons[-1] > 0.0 else math.inf
    prev = None
    achieved = math.inf
    points = 0
    # No pass at all where the smallest damping length takes even the finest
    # pass's first node below e^-746, which is 0: every pass would sum to 0,
    # and eps q overflow on the way.
    first = math.pi * (1.0 + float(_GL_NODES[0])) / ((1.0 + b) * 2.0**(_MAX_HALVINGS + 1))
    for halvings in range(0 if epsilons[-1] * first > 746.0 else _MAX_HALVINGS + 1):
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
            gaps = [abs(c - p) / abs(c) if c != 0.0 else math.inf
                    for c, p in zip(cur.tolist(), prev.tolist())]
            achieved = largest(gaps)  # a nan rung never converges
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
    where the damping falls below 1e-14 of the envelope peak.  r (> 0:
    the reduced integrand is radial), dt and eps are read as floats
    (``errors.positive``, ``errors.real``) and refused by name with
    ValueError, in that order.

    Raises
    ------
    ConvergenceError
        If the panel budget is exhausted, carrying the achieved estimate.
    FluctusError
        If the value, or eps / r, lies outside the float range.
    """
    r, dt = positive(r, "distance r"), real(dt, "time lag dt")
    eps = positive(eps, "damping length eps")
    call = f"regulated_integrand_reduction at r = {r!r} m, dt = {dt!r} s, eps = {eps!r} m"
    values = _regulated_values(medium.cs * abs(dt) / r, (finite(eps / r, "{}: eps / r", call),),
                               call)[0]
    return _in_units_of_r(medium, r, float(values[0]), call)


def damped_closed_form(medium: FluidMedium, r: float, dt: float, eps: float) -> float:
    """Closed form of the damped integral; the quadrature's own oracle.

    r, dt and eps are read and refused as by
    :func:`regulated_integrand_reduction`.  Raises FluctusError if the
    value lies outside the float range.
    """
    r, dt = positive(r, "distance r"), real(dt, "time lag dt")
    eps = positive(eps, "damping length eps")
    lag = medium.cs * dt
    s = complex(eps, lag)
    # In units of r the integral is 2 (3 z^2 - 1) / (z^2 + 1)^3 with
    # z = s / r; past |z| = 1 it is written in powers of 1 / z instead,
    # so that neither form overflows on the way to a finite value.
    try:
        if math.hypot(eps, lag) <= r:  # |s|, but inf where abs(s) would raise
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
    lengths, halving from a tenth of the cone distance |r - cs|dt||, and
    extrapolates polynomially in eps^2 to eps = 0.  The error estimate is
    the difference between the last two extrapolation orders.  r (> 0)
    and dt are read as floats (``errors.positive``, ``errors.real``) and
    refused by name with ValueError.

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
    r, dt = positive(r, "distance r"), real(dt, "time lag dt")
    if Separation(r, dt).regime(medium.cs) is Regime.ON_CONE:
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
