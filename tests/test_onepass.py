"""The one-pass bound-vector helpers of the interior-point solver against
the formulas they replace, bit for bit, on generated inputs: empty
arrays, steps that are all nonnegative, zero steps, signed zeros and
subnormal gaps."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import opfbench.ipm as ipm_mod

# deterministic examples, no example database and no deadline: a test
# run on a shared machine must depend neither on its speed nor on earlier
# runs
PROPERTY = settings(max_examples=300, derandomize=True, database=None,
                    deadline=None)

TINY = 5e-324          # the least positive subnormal
SUBNORMAL = 2.0e-310   # a subnormal well above it


def special(*values):
    return st.sampled_from(values)


# gaps: nonnegative, with both zeros and subnormals
GAP = st.one_of(special(0.0, -0.0, TINY, SUBNORMAL),
                st.floats(min_value=0.0, max_value=1e12))
# steps: any sign, with both zeros and subnormals
STEP = st.one_of(special(0.0, -0.0, TINY, -TINY, SUBNORMAL, -SUBNORMAL),
                 st.floats(min_value=-1e12, max_value=1e12))
NONNEGATIVE_STEP = st.one_of(special(0.0, -0.0, TINY),
                             st.floats(min_value=0.0, max_value=1e12))
# multipliers and the barrier parameter: positive, subnormals included
POSITIVE = st.one_of(special(TINY, SUBNORMAL),
                     st.floats(min_value=1e-300, max_value=1e12))


def vectors(*elements):
    """Equal-length float arrays, one per element strategy, empty ones
    included."""
    return st.integers(0, 40).flatmap(lambda n: st.tuples(*(
        arrays(np.float64, n, elements=e) for e in elements)))


def same_bits(a, b):
    """Equal arrays or floats, bit for bit; NaNs match any NaN."""
    a, b = np.atleast_1d(np.asarray(a)), np.atleast_1d(np.asarray(b))
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def max_step_reference(gap, dgap):
    """The fraction-to-the-boundary step as a gather of the shrinking
    gaps and their steps, then three reductions."""
    neg = dgap < 0
    if not neg.any():
        return 1.0
    return max(min(1.0, float(np.min(-ipm_mod._TAU * gap[neg]
                                     / dgap[neg]))), 0.0)


def assert_same_step(alpha, reference):
    # where +0.0 and -0.0 tie for the least ratio, np.min returns either,
    # depending on the order it reduces in and on its initial value; only
    # zero gaps make zero ratios, and a solve's gaps are all positive, so
    # a zero step compares by value
    if reference == 0.0:
        assert alpha == 0.0
    else:
        assert same_bits(alpha, reference)


@PROPERTY
@given(vectors(GAP, STEP))
def test_max_step_is_the_gathered_reference(vecs):
    gap, dgap = vecs
    with np.errstate(over="ignore"):
        assert_same_step(ipm_mod._max_step(gap, dgap),
                         max_step_reference(gap, dgap))


@PROPERTY
@given(vectors(GAP, NONNEGATIVE_STEP))
def test_max_step_without_a_shrinking_gap_is_one(vecs):
    gap, dgap = vecs
    assert ipm_mod._max_step(gap, dgap) == 1.0
    assert ipm_mod._max_step(gap, np.zeros_like(gap)) == 1.0


@PROPERTY
@given(vectors(GAP, POSITIVE, STEP), POSITIVE)
def test_dual_step_is_the_reference_formula(vecs, mu):
    gap, v, dgap = vecs
    with np.errstate(all="ignore"):
        dv_ref = mu / gap - v - (v / gap) * dgap
        dv, alpha = ipm_mod._dual_step(mu / gap, v / gap, v, dgap)
    assert same_bits(dv, dv_ref)
    assert_same_step(alpha, max_step_reference(v, dv_ref))


@PROPERTY
@given(vectors(GAP, POSITIVE, STEP), POSITIVE,
       st.one_of(special(0.0, 1.0, TINY), st.floats(0.0, 1.0)))
def test_dual_update_is_the_clipped_reference(vecs, mu, alpha):
    gap, v, dv = vecs
    kappa = ipm_mod._KAPPA_SIGMA
    with np.errstate(all="ignore"):
        ref = np.clip(np.maximum(v + alpha * dv, 0.0), mu / (kappa * gap),
                      kappa * mu / gap)
        new = ipm_mod._dual_update(v, alpha, dv.copy(), mu, gap)
    assert same_bits(new, ref)
