"""Cohesive traction-separation law with history-dependent elastic unloading.

The interface carries a surface energy density ``psi(w, xi)`` built from a
concave envelope ``psi_hat`` of the opening ``w >= 0``:

* on the loading branch ``|w| >= xi`` the density follows the envelope,
  ``psi(w, xi) = psi_hat(|w|)``;
* inside the elastic domain ``|w| < xi`` unloading is linear, with secant
  stiffness ``c_xi = psi_hat'(xi) / xi`` set by the maximum opening ``xi``
  reached so far:  ``psi(w, xi) = psi_hat(xi) - psi_hat'(xi) (xi^2 - w^2) / (2 xi)``.

Admissibility of the envelope is expressed by four hypotheses used throughout
the package (validation errors name them):

* (H1)  ``psi_hat`` concave, ``psi_hat(0) = 0``, ``psi_hat > 0`` for ``w > 0``,
        constant for ``w >= xi_c``, with a positive activation slope
        ``psi_hat'(0) > 0``;
* (H2)  ``psi_hat`` is C1 on ``[0, inf)`` and C2 on ``[0, xi_c]``; in
        particular ``beta = -min psi_hat'' > 0`` (an exactly linear envelope
        is rejected);
* (H3)  ``psi_hat'`` is concave on ``[0, xi_c]`` (only recorded, not
        required);
* (H4)  a domain-dependent coercivity condition,
        ``mu * c_hat - beta > 0`` with ``c_hat`` the discrete trace constant
        (checked by the mesh/assembly layer, see
        :func:`cohesim.mesh.estimate_trace_constant`).

The density is even and nondecreasing in ``|w|``, nondecreasing in ``xi``,
and ``w -> psi(w, xi) + (beta/2) w^2`` is convex for every ``xi``.  The only
point of non-differentiability is the origin ``(w, xi) = (0, 0)``, where only
directional derivatives exist; they are handled by
:meth:`CohesiveLaw.dpsi_dw_directional`.

An envelope is where a law plugs in.  It has a ``kind``, the critical
opening ``xi_c``, the cap value ``psi_at_cap`` and ``beta()``, and two
evaluations, arrays in and out: ``value_slope(w)`` gives ``psi_hat(w)`` and
``psi_hat'(w)`` from one pass, and ``curvature(w)`` gives ``psi_hat''(w)``.
At ``xi_c`` the slope and curvature are the left limits; beyond it the value
is ``psi_at_cap`` and both are ``+0.0``.  The density and its derivative in
the opening are evaluated in :class:`FrozenHistory` alone, which reads the
envelope at the openings only when one of them is on or beyond its
history's cone ``|w| = xi``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HypothesisError",
    "PrototypeEnvelope",
    "TabulatedEnvelope",
    "LawConstants",
    "CohesiveLaw",
    "FrozenHistory",
    "law_constants",
]


class HypothesisError(ValueError):
    """An envelope violates one of the admissibility hypotheses (H1)-(H2)."""


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, (a.ndim == 0)


class PrototypeEnvelope:
    """Parabolic softening envelope.

    ``psi_hat(w) = g_c (w/xi_c) (2 - w/xi_c)`` for ``w <= xi_c`` and ``g_c``
    beyond, so the toughness ``g_c`` is reached exactly at the critical
    opening ``xi_c``.  Closed forms:

    * activation threshold  ``psi_hat'(0) = 2 g_c / xi_c``
    * curvature             ``psi_hat'' = -2 g_c / xi_c^2`` (constant), hence
      ``beta = 2 g_c / xi_c^2``
    * dissipated density    ``psi_d(xi) = (g_c / xi_c) xi`` capped at ``g_c``.
    """

    kind = "prototype"

    def __init__(self, g_c: float, xi_c: float):
        if g_c <= 0.0 or xi_c <= 0.0:
            raise HypothesisError("(H1) violated: prototype requires g_c > 0 and xi_c > 0")
        self.g_c = float(g_c)
        self.xi_c = float(xi_c)

    @property
    def psi_at_cap(self) -> float:
        return self.g_c

    def value_slope(self, w: np.ndarray) -> tuple:
        """``(psi_hat(w), psi_hat'(w))`` from one pass over the array ``w``; the
        slope is ``+0.0`` beyond the cap and NaN at a NaN opening."""
        x = np.minimum(w, self.xi_c) / self.xi_c
        # beyond the cap x = 1 exactly, so the slope is +0.0 there
        return self.g_c * x * (2.0 - x), 2.0 * (self.g_c / self.xi_c) * (1.0 - x)

    def curvature(self, w: np.ndarray) -> np.ndarray:
        return np.where(w <= self.xi_c, -2.0 * self.g_c / self.xi_c**2, 0.0)

    def beta(self) -> float:
        return 2.0 * self.g_c / self.xi_c**2


class TabulatedEnvelope:
    """Envelope given by samples ``(w_i, psi_hat_i, psi_hat'_i)`` on ``[0, xi_c]``.

    Evaluation uses the cubic Hermite interpolant of the sampled values and
    slopes, so validation (concavity, positivity) operates on the function
    actually used by the simulator.  Beyond ``xi_c`` the envelope is constant
    with zero slope.  The interpolant's own (piecewise-linear) second
    derivative defines the curvature, which :meth:`beta` bounds exactly.
    """

    kind = "tabulated"

    def __init__(self, w, psi, dpsi):
        from scipy.interpolate import CubicHermiteSpline

        w = np.asarray(w, dtype=float)
        psi = np.asarray(psi, dtype=float)
        dpsi = np.asarray(dpsi, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise HypothesisError("(H2) violated: tabulated envelope needs >= 2 samples")
        if not (psi.shape == w.shape and dpsi.shape == w.shape):
            raise HypothesisError("(H2) violated: sample arrays must share one shape")
        if np.any(np.diff(w) <= 0.0):
            raise HypothesisError("(H2) violated: sample openings must be strictly increasing")
        if w[0] != 0.0:
            raise HypothesisError("(H1) violated: samples must start at w = 0")
        self.grid = w
        self.xi_c = float(w[-1])
        self._spline = CubicHermiteSpline(w, psi, dpsi)
        self._d1 = self._spline.derivative(1)
        self._d2 = self._spline.derivative(2)

    @property
    def psi_at_cap(self) -> float:
        return float(self._spline(self.xi_c))

    def value_slope(self, w: np.ndarray) -> tuple:
        """``(psi_hat(w), psi_hat'(w))`` for the array ``w``.  Left-limit
        convention at the cap: the slope at ``xi_c`` is the interpolant's,
        ``+0.0`` strictly beyond, so the branches agree at ``|w| = xi``."""
        x = np.minimum(w, self.xi_c)
        return self._spline(x), np.where(w <= self.xi_c, self._d1(x), 0.0)

    def curvature(self, w: np.ndarray) -> np.ndarray:
        return np.where(w <= self.xi_c, self._d2(np.minimum(w, self.xi_c)), 0.0)

    def beta(self) -> float:
        """``-min psi_hat''``, exactly: ``psi_hat''`` is linear on each piece, so
        its minimum is an end value of one, a one-sided limit at a knot."""
        c, h = self._d2.c, np.diff(self.grid)
        return -float(min(c[1].min(), (c[0] * h + c[1]).min()))


@dataclass(frozen=True)
class LawConstants:
    """Derived constants of an admissible envelope.

    beta          -beta is the minimum of psi_hat'' on [0, xi_c]; beta > 0.
    psi_prime_0   activation threshold psi_hat'(0) (maximum traction).
    lambda_conv   convexity offset in the opening variable, set to -beta/2:
                  w -> psi(w, xi) - lambda_conv * w^2 is convex for all xi.
    h3_holds      True when psi_hat' is concave on [0, xi_c].
    """

    beta: float
    psi_prime_0: float
    lambda_conv: float
    h3_holds: bool


_N_SAMPLES = 513     # openings on [0, xi_c] at which law_constants samples the envelope


def law_constants(env) -> LawConstants:
    """Check (H1) and (H2) of ``env``, raising :class:`HypothesisError` naming
    the violated one, and compute its derived constants.  One ``value_slope``
    pass samples ``[0, xi_c]``, and (H3) is midpoint concavity of ``psi_hat'``
    on it: the odd samples are the midpoints of the even ones."""
    xi_c = env.xi_c
    if xi_c <= 0.0:
        raise HypothesisError("(H1) violated: critical opening xi_c must be positive")
    tol = 1e-10 * max(1.0, abs(env.psi_at_cap))
    # the grid starts at 0: vals[0] is psi_hat(0), slopes[0] the threshold psi_hat'(0)
    vals, slopes = env.value_slope(np.linspace(0.0, xi_c, _N_SAMPLES))
    if abs(vals[0]) > tol:
        raise HypothesisError("(H1) violated: psi_hat(0) != 0")
    if np.any(vals[1:] <= 0.0):
        raise HypothesisError("(H1) violated: psi_hat must be positive for w > 0")
    if np.any(slopes < -tol):
        raise HypothesisError("(H1) violated: psi_hat' must be nonnegative on [0, xi_c]")
    if np.any(np.diff(slopes) > tol):
        raise HypothesisError("(H1) violated: psi_hat not concave (psi_hat' increases)")
    if slopes[0] <= 0.0:
        raise HypothesisError("(H1) violated: activation threshold psi_hat'(0) must be positive")
    far_vals, far_slopes = env.value_slope(np.array([1.5 * xi_c, 3.0 * xi_c]))
    if np.any(np.abs(far_vals - env.psi_at_cap) > tol) or np.any(far_slopes != 0.0):
        raise HypothesisError("(H1) violated: psi_hat must be constant beyond xi_c")
    beta = float(env.beta())
    if beta <= 0.0:
        raise HypothesisError(
            "(H2) violated: beta = -min psi_hat'' must be positive (linear envelope)"
        )
    psi_prime_0 = float(slopes[0])
    knots = slopes[::2]
    h3 = bool(np.all(slopes[1::2] >= 0.5 * (knots[:-1] + knots[1:])
                     - 1e-10 * max(1.0, psi_prime_0)))
    return LawConstants(beta=beta, psi_prime_0=psi_prime_0, lambda_conv=-0.5 * beta,
                        h3_holds=h3)


class CohesiveLaw:
    """Evaluates the density ``psi`` and its derivatives for one envelope.

    Immutable after construction; every method accepts scalars or numpy
    arrays (broadcast together) and is safe for concurrent reads.
    """

    def __init__(self, envelope):
        self.env = envelope
        self._constants = law_constants(envelope)

    # -- constants ---------------------------------------------------------

    @property
    def constants(self) -> LawConstants:
        return self._constants

    @property
    def beta(self) -> float:
        return self._constants.beta

    @property
    def psi_prime_0(self) -> float:
        return self._constants.psi_prime_0

    @property
    def xi_c(self) -> float:
        return self.env.xi_c

    # -- density and derivatives -------------------------------------------

    @staticmethod
    def _broadcast(w, xi) -> tuple:
        """``(w, xi, scalar)``: the two broadcast as arrays, ``xi >= 0`` checked."""
        w, sw = _as_array(w)
        xi, sx = _as_array(xi)
        if np.any(xi < 0.0):
            raise ValueError("history variable xi must be nonnegative")
        return *np.broadcast_arrays(w, xi), sw and sx

    def psi(self, w, xi):
        """Density ``psi(w, xi)``; even in ``w``, nondecreasing in ``|w|`` and ``xi``."""
        w, xi, scalar = self._broadcast(w, xi)
        out = FrozenHistory(self.env, xi).evaluate(w)[0]
        return float(out) if scalar else out

    def dpsi_dw(self, w, xi):
        """Partial derivative in the opening; undefined at the origin.

        Elastic branch ``|w| <= xi``: secant stiffness ``c_xi * w``; loading
        branch: ``psi_hat'(|w|) sign(w)``.  The branches agree on
        ``|w| = xi != 0``; at ``(0, 0)`` only directional derivatives exist
        and a ValueError points to :meth:`dpsi_dw_directional`.
        """
        w, xi, scalar = self._broadcast(w, xi)
        if np.any((w == 0.0) & (xi == 0.0)):
            raise ValueError(
                "dpsi_dw is undefined at (w, xi) = (0, 0); "
                "use dpsi_dw_directional for the one-sided slopes"
            )
        out = FrozenHistory(self.env, xi).evaluate(w)[1]
        return float(out) if scalar else out

    def dpsi_dw_directional(self, w, xi, phi):
        """Directional derivative of ``psi(., xi)`` at ``w`` in direction ``phi``.

        Positively 1-homogeneous in ``phi``; equals ``dpsi_dw * phi`` away
        from the origin and ``psi_hat'(0) |phi|`` at ``(0, 0)``; bounded by
        ``psi_hat'(0) |phi|`` everywhere.
        """
        w, xi, scalar = self._broadcast(w, xi)
        phi, sp = _as_array(phi)
        w, xi, phi = np.broadcast_arrays(w, xi, phi)
        origin = (w == 0.0) & (xi == 0.0)
        smooth = self.dpsi_dw(np.where(origin, 1.0, w), np.where(origin, 1.0, xi)) * phi
        out = np.where(origin, self.psi_prime_0 * np.abs(phi), smooth)
        return float(out) if (scalar and sp) else out

    def dpsi_dxi(self, w, xi):
        """One-sided derivative of ``psi`` in the history variable (always >= 0).

        Nonzero only strictly inside the elastic cone below the cap
        (``|w| < xi < xi_c``); at the origin it returns the directional slope
        ``psi_hat'(0) / 2`` per unit increment.  On ``|w| = xi > 0``, at
        ``xi = xi_c`` (right derivative) and beyond the cap it vanishes.
        """
        w, xi, scalar = self._broadcast(w, xi)
        origin = (w == 0.0) & (xi == 0.0)
        aw = np.abs(w)
        inside = (aw < xi) & (xi < self.env.xi_c)
        xi_safe = np.where(inside, np.maximum(xi, 1e-300), 1.0)
        val = 0.5 * (self.env.value_slope(xi)[1] - self.env.curvature(xi) * xi) \
            * (xi**2 - w**2) / xi_safe**2
        out = np.where(inside, val, 0.0)
        out = np.where(origin, 0.5 * self.psi_prime_0, out)
        return float(out) if scalar else out

    def split(self, w, xi):
        """Stored/dissipated split ``psi = psi_s + psi_d`` with ``psi_d = psi(0, xi)``."""
        total = self.psi(w, xi)
        # evaluated through psi so the stored part cancels exactly at w = 0
        diss = self.psi(0.0, xi)
        return total - diss, diss

    def frozen(self, xi) -> "FrozenHistory":
        """The density and its derivatives at a fixed history ``xi > 0``."""
        xi = np.asarray(xi, dtype=float)
        if np.any(xi <= 0.0):
            raise ValueError("a frozen history requires xi > 0")
        return FrozenHistory(self.env, xi)


class FrozenHistory:
    """``psi(., xi)``, ``dpsi_dw(., xi)`` and the Newton curvature for one
    fixed history array ``xi``, as a time step sees it (:meth:`CohesiveLaw.frozen`,
    ``xi > 0``); the one implementation of the density, which
    :meth:`CohesiveLaw.psi` and :meth:`CohesiveLaw.dpsi_dw` evaluate too.

    The history terms ``psi_hat(xi)``, ``psi_hat'(xi)``, ``xi**2``, ``2 xi``
    and ``c_xi = psi_hat'(xi) / xi`` are computed once, and ``psi(0, xi)``
    once on first use, so :meth:`evaluate` costs at most one envelope pass
    (``value_slope``) over the openings, none when every opening is strictly
    inside its cone, and :meth:`evaluate_on_cone` none.
    An entry ``xi = 0`` is on the loading branch for every opening; its
    terms divide by 1 instead.
    """

    def __init__(self, env, xi: np.ndarray):
        self.env = env
        self.xi = xi
        self.psi_xi, self.slope_xi = env.value_slope(xi)
        self.xi_sq = xi**2
        xi_div = np.where(xi > 0.0, xi, 1.0)
        self.two_xi = 2.0 * xi_div
        self.c_xi = self.slope_xi / xi_div
        self._psi_at_zero = None

    def evaluate(self, w):
        """``(psi, dpsi_dw, |w|, elastic)`` at the openings ``w``.

        ``elastic`` is ``|w| <= xi``.  On the tie ``|w| = xi``, where both
        branches agree, ``psi`` takes the loading branch and ``dpsi_dw`` the
        elastic one, as in :class:`CohesiveLaw`.  When every opening lies
        strictly inside its cone, ``|w| < xi``, both are the unloading
        branch's and no envelope pass is made; otherwise one ``value_slope``
        pass covers the openings.
        """
        return self.branches(w)[:4]

    def branches(self, w):
        """:meth:`evaluate`'s four outputs and ``inside``, True when every
        opening lies strictly inside its cone: the test that decides the
        branch, which :meth:`curvature` takes instead of testing again."""
        aw = np.abs(w)
        unload = self.psi_xi - self.slope_xi * (self.xi_sq - w**2) / self.two_xi
        inside = aw < self.xi
        if inside.all():
            # every opening is on the unloading branch (NaN, inf and xi = 0
            # fail the strict test), so the envelope is not read
            return unload, self.c_xi * w, aw, inside, True
        elastic = aw <= self.xi
        value, slope = self.env.value_slope(aw)
        psi = np.where(aw >= self.xi, value, unload)
        dpsi = np.where(elastic, self.c_xi * w, slope * np.sign(w))
        return psi, dpsi, aw, elastic, False

    def evaluate_on_cone(self, w, aw=None):
        """``(psi, dpsi_dw)`` at openings on the history's own cone ``|w| <= xi``,
        as the max-update leaves them: ``psi_hat(xi)`` where ``|w| = xi``, the
        unloading branch elsewhere, and ``dpsi_dw = c_xi w``.  It makes no
        envelope pass over the openings and is bit-identical to
        :meth:`evaluate` on the cone.  ``aw`` is ``|w|`` when the caller
        has it."""
        unload = self.psi_xi - self.slope_xi * (self.xi_sq - w**2) / self.two_xi
        if aw is None:
            aw = np.abs(w)
        # on |w| = xi the unloading branch is psi_hat(xi) too, but for an
        # infinite opening, where it reads inf - inf
        return np.where(aw == self.xi, self.psi_xi, unload), self.c_xi * w

    def psi_at_zero(self):
        """``psi(0, xi)``, the dissipated part ``psi_d(xi)``, from the history
        terms alone; bit-identical to ``CohesiveLaw.psi(0, xi)``.  Formed on
        the first call and returned by every later one, so a history that
        several steps share costs it once."""
        if self._psi_at_zero is None:
            self._psi_at_zero = self.psi_xi - self.slope_xi * self.xi_sq / self.two_xi
        return self._psi_at_zero

    def curvature(self, aw, elastic, inside=False):
        """Newton curvature: the secant stiffness ``c_xi`` on the elastic
        branch and the envelope's own curvature ``psi_hat''(|w|)`` elsewhere,
        which is at least ``-beta`` (exact), as the certified step requires.
        When every pair is elastic it is the history's own ``c_xi`` array,
        with no envelope pass; a caller must not write into it.  ``inside``
        is :meth:`branches`' flag of the same point: when it is True every
        pair is elastic, and ``elastic`` is not tested again."""
        if inside or elastic.all():
            return self.c_xi
        return np.where(elastic, self.c_xi, self.env.curvature(aw))
