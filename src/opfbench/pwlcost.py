"""Convex piecewise linear generator cost curves.

A curve is an ordered sequence of (power, cost) breakpoints describing a
convex piecewise linear $/h cost of active power generation.  This module
derives the per-segment slope/intercept form, validates the assumptions the
optimization encodings rely on (generator bounds inside the outer segments,
strictly increasing slopes), cleans raw data accordingly, and evaluates the
curve through four mathematically equivalent routes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import (
    ConvexityError,
    CostDomainError,
    DegenerateSegmentError,
)

# Slope-difference threshold for merging adjacent segments during cleaning.
# Tight enough to preserve values at report precision, loose enough to
# collapse floating-point duplicate slopes.
SLOPE_TOL = 1e-7


@dataclass(frozen=True)
class PwlCurve:
    """Piecewise linear cost: breakpoints plus derived slopes/intercepts.

    points holds (power, cost) pairs with strictly increasing power.  Segment
    ``l`` (0-based) spans points[l]..points[l+1] with slope slopes[l] and
    intercept intercepts[l], so cost(x) = slopes[l]*x + intercepts[l] there.
    """

    points: tuple[tuple[float, float], ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    @staticmethod
    def from_points(points) -> "PwlCurve":
        pts = tuple((float(p), float(c)) for p, c in points)
        slopes, intercepts = derive_slopes_intercepts(pts)
        return PwlCurve(pts, tuple(slopes), tuple(intercepts))

    @property
    def powers(self) -> tuple[float, ...]:
        return tuple(p for p, _ in self.points)

    @property
    def costs(self) -> tuple[float, ...]:
        return tuple(c for _, c in self.points)


@dataclass(frozen=True)
class PolynomialCost:
    """Quadratic cost c*x^2 + b*x + a in $/h, x in p.u. active power."""

    a: float
    b: float
    c: float


CostSpec = PolynomialCost | PwlCurve


@dataclass(frozen=True)
class AssumptionViolation:
    code: str
    message: str


def derive_slopes_intercepts(points):
    """Per-segment (slope, intercept) lists for an ordered breakpoint sequence.

    slope[l] = (c[l+1] - c[l]) / (p[l+1] - p[l]), intercept[l] chosen so the
    segment line passes through the right-hand breakpoint.
    """
    pts = [(float(p), float(c)) for p, c in points]
    if len(pts) < 2:
        raise DegenerateSegmentError(
            f"curve needs at least 2 points, got {len(pts)}"
        )
    slopes = []
    intercepts = []
    for l in range(1, len(pts)):
        p0, c0 = pts[l - 1]
        p1, c1 = pts[l]
        if p1 <= p0:
            raise DegenerateSegmentError(
                f"power coordinates must strictly increase: "
                f"point {l} has {p1} after {p0}"
            )
        slope = (c1 - c0) / (p1 - p0)
        slopes.append(slope)
        intercepts.append(c1 - slope * p1)
    return slopes, intercepts


def check_assumptions(curve: PwlCurve, pmin: float, pmax: float):
    """Report which encoding prerequisites the curve violates.

    Checks that pmin lies in the first segment, pmax in the last, and that
    segment slopes strictly increase.  A fixed generator (pmin == pmax)
    needs one segment that holds its output, at an end or inside.  An empty
    list means the curve is ready for model building.
    """
    violations = []
    powers = curve.powers
    fixed = pmin == pmax and len(powers) == 2 and (
        powers[0] <= pmin <= powers[1])
    if not (powers[0] <= pmin < powers[1] or fixed):
        violations.append(AssumptionViolation(
            "pmin-outside-first-segment",
            f"pmin={pmin} not in first segment [{powers[0]}, {powers[1]})",
        ))
    if not (powers[-2] < pmax <= powers[-1] or fixed):
        violations.append(AssumptionViolation(
            "pmax-outside-last-segment",
            f"pmax={pmax} not in last segment ({powers[-2]}, {powers[-1]}]",
        ))
    for l in range(1, len(curve.slopes)):
        if not (curve.slopes[l - 1] < curve.slopes[l]):
            violations.append(AssumptionViolation(
                "slopes-not-increasing",
                f"segment slopes {curve.slopes[l - 1]} -> {curve.slopes[l]} "
                f"at breakpoint {l} are not strictly increasing",
            ))
            break
    return violations


def preprocess(curve, pmin: float, pmax: float) -> PwlCurve:
    """Clean a raw convex curve so it satisfies :func:`check_assumptions`.

    Applies three rules in order: (1) extend the outer segments along their
    own slope when a generator bound lies outside the breakpoint range;
    (2) drop breakpoints whose segments lie entirely outside [pmin, pmax],
    keeping one breakpoint on the far side of each bound; (3) delete interior
    breakpoints whose adjacent segments differ in slope by at most
    SLOPE_TOL.  A fixed generator keeps the one segment that holds its
    output.

    Idempotent, and value-preserving on [pmin, pmax] up to SLOPE_TOL
    effects.  Raises ConvexityError if slopes decrease by more than
    SLOPE_TOL, and ValueError if pmin exceeds pmax.
    """
    if isinstance(curve, PwlCurve):
        pts = list(curve.points)
    else:
        pts = [(float(p), float(c)) for p, c in curve]
    if pmin > pmax:
        raise ValueError(f"pmin={pmin} exceeds pmax={pmax}")
    slopes, _ = derive_slopes_intercepts(pts)
    for l in range(1, len(slopes)):
        if slopes[l] < slopes[l - 1] - SLOPE_TOL:
            raise ConvexityError(
                f"slope decreases from {slopes[l - 1]} to {slopes[l]} at "
                f"breakpoint {l + 1}: curve is not convex"
            )

    # Rule 1: extend to cover the generator bounds.
    if pmin < pts[0][0]:
        p0, c0 = pts[0]
        s = slopes[0]
        pts.insert(0, (pmin, c0 - s * (p0 - pmin)))
    if pmax > pts[-1][0]:
        pN, cN = pts[-1]
        s = slopes[-1]
        pts.append((pmax, cN + s * (pmax - pN)))

    # Rule 2: drop segments entirely outside the bounds.
    while len(pts) > 2 and pts[1][0] <= pmin:
        pts.pop(0)
    while len(pts) > 2 and pts[-2][0] >= pmax:
        pts.pop()

    # Rule 3: merge near-colinear adjacent segments.
    merged = True
    while merged and len(pts) > 2:
        merged = False
        slopes, _ = derive_slopes_intercepts(pts)
        for l in range(1, len(slopes)):
            if abs(slopes[l] - slopes[l - 1]) <= SLOPE_TOL:
                pts.pop(l)
                merged = True
                break

    slopes, intercepts = derive_slopes_intercepts(pts)
    out = PwlCurve(tuple(pts), tuple(slopes), tuple(intercepts))
    bad = check_assumptions(out, pmin, pmax)
    if bad:
        raise DegenerateSegmentError(
            "cleaned curve still violates assumptions: "
            + "; ".join(v.message for v in bad)
        )
    return out


def evaluate(curve: PwlCurve, x: float) -> float:
    """Cost at x via the max over segment lines.

    Equals linear interpolation between the bracketing breakpoints for a
    convex curve.  x must lie within [first power, last power].
    """
    powers = curve.powers
    if x < powers[0] or x > powers[-1]:
        raise CostDomainError(
            f"x={x} outside curve domain [{powers[0]}, {powers[-1]}]"
        )
    return max(s * x + b for s, b in zip(curve.slopes, curve.intercepts))


def evaluate_by_interpolation(curve: PwlCurve, x: float) -> float:
    """Cost at x as the 2-sparse convex combination of bracketing breakpoints."""
    powers = curve.powers
    if x < powers[0] or x > powers[-1]:
        raise CostDomainError(
            f"x={x} outside curve domain [{powers[0]}, {powers[-1]}]"
        )
    l = bisect.bisect_right(powers, x) - 1
    if l >= len(powers) - 1:
        l = len(powers) - 2
    (p0, c0), (p1, c1) = curve.points[l], curve.points[l + 1]
    w = (x - p0) / (p1 - p0)
    return c0 * (1.0 - w) + c1 * w


def evaluate_by_bin_fill(curve: PwlCurve, x: float) -> float:
    """Cost at x by greedily filling per-segment generation bins.

    First-point cost plus the sum of slope * amount drawn from each segment
    in order; for a convex curve the greedy fill is optimal.
    """
    powers = curve.powers
    if x < powers[0] or x > powers[-1]:
        raise CostDomainError(
            f"x={x} outside curve domain [{powers[0]}, {powers[-1]}]"
        )
    total = curve.points[0][1]
    for l, s in enumerate(curve.slopes):
        width = powers[l + 1] - powers[l]
        fill = min(max(x - powers[l], 0.0), width)
        total += s * fill
    return total


def evaluate_by_marginal_excess(curve: PwlCurve, x: float) -> float:
    """Cost at x as the first-segment line plus marginal-slope excess terms.

    Each interior breakpoint contributes (slope_after - slope_before) times
    the excess of x over that breakpoint.
    """
    powers = curve.powers
    if x < powers[0] or x > powers[-1]:
        raise CostDomainError(
            f"x={x} outside curve domain [{powers[0]}, {powers[-1]}]"
        )
    total = curve.slopes[0] * x + curve.intercepts[0]
    for l in range(1, len(curve.slopes)):
        total += (curve.slopes[l] - curve.slopes[l - 1]) * max(
            0.0, x - powers[l]
        )
    return total


def evaluate_polynomial(a: float, b: float, c: float, x: float) -> float:
    """Quadratic cost c*x^2 + b*x + a."""
    return c * x * x + b * x + a
