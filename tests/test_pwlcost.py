import numpy as np
import pytest

from opfbench.errors import ConvexityError, CostDomainError, DegenerateSegmentError
from opfbench.pwlcost import (
    PwlCurve,
    check_assumptions,
    derive_slopes_intercepts,
    evaluate,
    evaluate_by_bin_fill,
    evaluate_by_interpolation,
    evaluate_by_marginal_excess,
    evaluate_polynomial,
    preprocess,
)

from helpers import random_convex_curve


def curve(points):
    return PwlCurve.from_points(points)


class TestSlopesIntercepts:
    def test_three_point_curve(self):
        slopes, intercepts = derive_slopes_intercepts([(0, 0), (10, 10), (20, 30)])
        assert slopes == [1.0, 2.0]
        assert intercepts == [0.0, -10.0]

    def test_flat_segment(self):
        slopes, intercepts = derive_slopes_intercepts([(0, 5), (10, 5)])
        assert slopes == [0.0]
        assert intercepts == [5.0]

    def test_symmetric_v(self):
        slopes, intercepts = derive_slopes_intercepts(
            [(-5, 10), (5, 0), (15, 10)]
        )
        assert slopes == [-1.0, 1.0]
        assert intercepts == [5.0, -5.0]

    def test_repeated_power_rejected(self):
        with pytest.raises(DegenerateSegmentError):
            derive_slopes_intercepts([(0, 0), (0, 5), (10, 10)])

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateSegmentError):
            derive_slopes_intercepts([(0, 0)])


class TestCheckAssumptions:
    def test_clean_curve(self):
        c = curve([(0, 0), (10, 10), (20, 30)])
        assert check_assumptions(c, pmin=5, pmax=15) == []

    def test_pmin_outside_first_segment(self):
        c = curve([(0, 0), (10, 10), (20, 30)])
        codes = [v.code for v in check_assumptions(c, pmin=12, pmax=15)]
        assert "pmin-outside-first-segment" in codes

    def test_equal_slopes_flagged(self):
        c = curve([(0, 0), (10, 20), (20, 40)])
        codes = [v.code for v in check_assumptions(c, pmin=5, pmax=15)]
        assert "slopes-not-increasing" in codes


class TestPreprocess:
    def test_trim_and_extend(self):
        # first segment dropped (entirely below pmin), last extended to pmax
        # at its own slope 4; the appended colinear breakpoint is merged.
        pts = list(zip([0, 10, 20, 30, 40], [0, 10, 30, 60, 100]))
        out = preprocess(pts, pmin=15, pmax=45)
        assert out.powers == (10.0, 20.0, 30.0, 45.0)
        assert out.costs == (10.0, 30.0, 60.0, 120.0)
        assert check_assumptions(out, 15, 45) == []
        # value preservation against the hand-extended original on [15, 45]
        extended = curve(pts + [(45, 100 + 4 * 5)])
        for x in np.linspace(15, 45, 61):
            assert evaluate(out, x) == pytest.approx(
                evaluate(extended, x), abs=1e-9
            )

    def test_merge_colinear(self):
        out = preprocess([(0, 0), (10, 10), (20, 20), (30, 40)],
                         pmin=2, pmax=28)
        assert out.powers == (0.0, 20.0, 30.0)
        original = curve([(0, 0), (10, 10), (20, 20), (30, 40)])
        for x in np.linspace(2, 28, 40):
            assert evaluate(out, x) == pytest.approx(
                evaluate(original, x), abs=1e-9
            )

    def test_already_clean_unchanged(self):
        pts = [(0.0, 0.0), (10.0, 10.0), (20.0, 30.0)]
        out = preprocess(pts, pmin=5, pmax=15)
        assert out.points == tuple(pts)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = random_convex_curve(rng)
            lo, hi = pts[0][0], pts[-1][0]
            pmin = lo + 0.1 * (hi - lo)
            pmax = hi - 0.1 * (hi - lo)
            once = preprocess(pts, pmin, pmax)
            twice = preprocess(once, pmin, pmax)
            assert once.points == twice.points

    def test_nonconvex_rejected(self):
        with pytest.raises(ConvexityError):
            preprocess([(0, 0), (10, 20), (20, 25)], pmin=2, pmax=18)

    @pytest.mark.parametrize("slope_tol", [-1000.0, np.inf, np.nan])
    def test_bad_slope_tol_rejected(self, slope_tol):
        # -1000 would call a rising slope "decreasing"; inf would merge the
        # two segments of this convex curve into one
        with pytest.raises(ValueError, match="slope_tol"):
            preprocess([(0, 0), (1, 1), (2, 2.5)], pmin=0, pmax=2,
                       slope_tol=slope_tol)

    def test_extension_covers_bounds(self):
        out = preprocess([(5, 10), (10, 20)], pmin=0, pmax=20)
        assert out.powers[0] == 0.0
        assert out.powers[-1] == 20.0
        assert evaluate(out, 0.0) == pytest.approx(0.0)
        assert evaluate(out, 20.0) == pytest.approx(40.0)


class TestEvaluate:
    def test_midpoint_of_second_segment(self):
        c = curve([(0, 0), (10, 10), (20, 30)])
        assert evaluate(c, 15) == pytest.approx(20.0)

    def test_breakpoint(self):
        c = curve([(0, 0), (10, 10), (20, 30)])
        assert evaluate(c, 10) == pytest.approx(10.0)

    def test_first_point(self):
        c = curve([(0, 0), (10, 10), (20, 30)])
        assert evaluate(c, 0) == pytest.approx(0.0)

    def test_outside_domain(self):
        c = curve([(0, 0), (10, 10)])
        with pytest.raises(CostDomainError):
            evaluate(c, -1.0)
        with pytest.raises(CostDomainError):
            evaluate(c, 10.5)


class TestPolynomial:
    @pytest.mark.parametrize("a,b,c,x,expected", [
        (3.0, 2.0, 1.0, 2.0, 11.0),
        (0.0, 0.0, 0.0, 17.3, 0.0),
        (1.0, 0.0, 1.0, -1.0, 2.0),
    ])
    def test_values(self, a, b, c, x, expected):
        assert evaluate_polynomial(a, b, c, x) == expected


class TestFourFormEquivalence:
    def test_random_curves_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            c = curve(random_convex_curve(rng))
            lo, hi = c.powers[0], c.powers[-1]
            for x in rng.uniform(lo, hi, size=20):
                ref = evaluate(c, x)
                assert evaluate_by_interpolation(c, x) == pytest.approx(
                    ref, abs=1e-9
                )
                assert evaluate_by_bin_fill(c, x) == pytest.approx(
                    ref, abs=1e-9
                )
                assert evaluate_by_marginal_excess(c, x) == pytest.approx(
                    ref, abs=1e-9
                )

    def test_convexity_property(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = curve(random_convex_curve(rng))
            lo, hi = c.powers[0], c.powers[-1]
            x1, x2 = rng.uniform(lo, hi, size=2)
            t = float(rng.uniform(0, 1))
            xm = t * x1 + (1 - t) * x2
            assert evaluate(c, xm) <= (
                t * evaluate(c, x1) + (1 - t) * evaluate(c, x2) + 1e-9
            )


class TestValuePreservation:
    def test_preprocess_preserves_values(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pts = random_convex_curve(rng)
            lo, hi = pts[0][0], pts[-1][0]
            pmin = lo - 0.3 if rng.uniform() < 0.5 else lo + 0.05 * (hi - lo)
            pmax = hi + 0.3 if rng.uniform() < 0.5 else hi - 0.05 * (hi - lo)
            out = preprocess(pts, pmin, pmax)
            base = curve(pts)

            def reference(x):
                # extend the raw curve by its outer slopes beyond its domain
                if x < base.powers[0]:
                    return (base.costs[0]
                            + base.slopes[0] * (x - base.powers[0]))
                if x > base.powers[-1]:
                    return (base.costs[-1]
                            + base.slopes[-1] * (x - base.powers[-1]))
                return evaluate(base, x)

            for x in rng.uniform(pmin, pmax, size=15):
                assert evaluate(out, x) == pytest.approx(
                    reference(x), abs=1e-8
                )
