"""The smooth cutoff and the cube partition of unity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitneyext import decomp, pou
from whitneyext import taylorarith as ta


# -- 1-D profile ------------------------------------------------------------------


def _bump_real(t):
    """The float reference for s(t): B(3/4 - |t|) / (B(3/4 - |t|) + B(|t| - 1/2))
    with B(t) = exp(-1/t) for t > 0, else 0."""
    t = abs(t)
    if t <= 0.5:
        return 1.0
    if t >= 0.75:
        return 0.0
    up = math.exp(-1.0 / (0.75 - t))
    down = math.exp(-1.0 / (t - 0.5))
    return up / (up + down)


def _profile_batch(ts, k, scale=1.0):
    """The n = 1 batch of profile arguments t0 + h/scale, one column per t0."""
    u = np.zeros((k + 1, len(ts)))
    u[0] = ts
    if k:
        u[1] = 1.0 / scale
    return ta.TaylorValue(ta.context(1, k), u)


def _profile(t):
    """s(t) as the order-0 profile series."""
    return pou.bump_taylor(_profile_batch([t], 0)).coeffs[0, 0]


def test_profile_plateau_and_support():
    for t in (0.0, 0.25, -0.5, 0.5):
        assert _profile(t) == 1.0
    for t in (0.75, -0.75, 0.8, 2.0):
        assert _profile(t) == 0.0


def test_profile_value_at_06():
    assert _profile(0.6) == pytest.approx(0.9655548043337889, rel=1e-15)
    assert _profile(-0.6) == _profile(0.6)


@given(st.floats(-2, 2, allow_nan=False))
def test_profile_range(t):
    v = _profile(t)
    assert 0.0 <= v <= 1.0
    assert v == pytest.approx(_bump_real(t), rel=1e-14, abs=1e-300)


@given(st.floats(0, 1.9, allow_nan=False), st.floats(0.001, 0.1))
@settings(max_examples=300)
def test_profile_monotone_decreasing_in_abs(t, h):
    assert _profile(t + h) <= _profile(t) + 1e-15


def test_profile_series_branches():
    # one batch: plateau, outside the support, transition
    s = pou.bump_taylor(_profile_batch([0.3, 0.9, 0.6], 3)).coeffs
    # plateau: constant-1 series
    assert s[0, 0] == 1.0 and np.all(s[1:, 0] == 0.0)
    # outside support: exactly zero
    assert np.all(s[:, 1] == 0.0)
    # transition: derivative of order 1 is negative (decreasing)
    assert 0.0 < s[0, 2] < 1.0
    assert s[1, 2] < 0.0


def test_profile_batch_columns_match_single_calls():
    # every column of a batch, including rows exactly on the junctions
    # |t| = 1/2 and 3/4, has the bits of the 1-D call on its own argument;
    # the junction rows are the constant-1 and the zero series
    ts = [0.0, 0.5, -0.5, 0.55, -0.6, 0.7, 0.75, -0.75, 1.2, 0.625, -0.5000001]
    for k in (0, 1, 2, 4):
        for scale in (1.0, 0.125, 3.0):
            batch = pou.bump_taylor(_profile_batch(ts, k, scale)).coeffs
            for j, t in enumerate(ts):
                u = _profile_batch([t], k, scale)
                single = pou.bump_taylor(ta.TaylorValue(u.ctx, u.coeffs[:, 0]))
                assert single.coeffs.shape == (k + 1,)
                assert np.array_equal(batch[:, j], single.coeffs)
                if abs(t) in (0.5, 0.75):
                    assert batch[0, j] == (abs(t) == 0.5) and np.all(batch[1:, j] == 0.0)


def test_profile_flat_contact_at_branch_points():
    # all derivatives tend to 0 approaching the support boundary, and the
    # series approaches the constant-1 series at the plateau edge
    for t0, target in ((0.7499999, 0.0), (0.5000001, 1.0)):
        u = ta.seed_variable((t0,), 0, 1, 3)
        s = pou.bump_taylor(u)
        assert s.const == pytest.approx(target, abs=1e-5)
        assert abs(s.coeffs[1]) < 1e-2


def test_profile_series_at_a_junction_is_exact_to_high_order():
    # within a few ulps of 1/2 or 3/4 one B factor underflows to 0, and its
    # series is the zero series: s is exactly the constant 1 or 0 series at
    # every order, with no overflow on the way (the powers of 1/p0 would
    # pass the float range from order 19); near the underflow threshold the
    # series stays finite
    ts = np.array([0.5 + 2.0**-52, 0.5 + 2.0**-50, 0.75 - 2.0**-53, 0.75 - 2.0**-51])
    near = np.array([0.5 + 1 / 745, 0.5 + 1 / 740, 0.75 - 1 / 745, 0.75 - 1 / 740])
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(31):
            want = np.eye(k + 1, 1) * [1.0, 1.0, 0.0, 0.0]
            assert np.array_equal(pou._step_series(ts, k), want)
            assert np.isfinite(pou._step_series(near, k)).all()
            if k <= 20:  # 21! is past the integers of a series context
                got = pou.bump_taylor(_profile_batch(ts * signs, k)).coeffs
                assert np.array_equal(got, want)


def test_profile_series_matches_finite_differences():
    h = 1e-5
    ts = (0.55, 0.6, 0.65, 0.7)
    series = pou.bump_taylor(_profile_batch(ts, 2)).coeffs
    for t0, col in zip(ts, series.T):
        d = col * np.array([1.0, 1.0, 2.0])
        fd1 = (_bump_real(t0 + h) - _bump_real(t0 - h)) / (2 * h)
        fd2 = (_bump_real(t0 + h) - 2 * _bump_real(t0) + _bump_real(t0 - h)) / h**2
        assert d[1] == pytest.approx(fd1, rel=1e-4, abs=1e-6)
        assert d[2] == pytest.approx(fd2, rel=1e-3, abs=1e-2)


def _mp_series(t, k):
    """The order-k Taylor coefficients of s at t, from a 50-digit mpmath
    evaluation of the scalar formula, rounded to floats."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        def s(x):
            up = mp.exp(-1 / (mp.mpf(3) / 4 - abs(x)))
            return up / (up + mp.exp(-1 / (abs(x) - mp.mpf(1) / 2)))

        return np.array([float(c) for c in mp.taylor(s, mp.mpf(t), k)])


def _band_points(count, seed):
    """Transition-band points 1/2 < |t| < 3/4 of both signs, a tenth of them
    within 1e-4 of 1/2 and a tenth within 1e-4 of 3/4."""
    rng = np.random.default_rng(seed)
    edge = count // 10
    t = np.concatenate([
        rng.uniform(0.5, 0.75, count - 2 * edge),
        0.5 + rng.uniform(0.0, 1e-4, edge),
        0.75 - rng.uniform(0.0, 1e-4, edge),
    ])
    t = t[(0.5 < t) & (t < 0.75)]
    return t * np.where(np.arange(t.size) % 2, -1.0, 1.0)


def test_profile_series_matches_50_digit_reference():
    # rows 0..4 of the closed form against the 50-digit series, in units of
    # eps * S_j, S_j the largest |s^(i)|, i <= j, over the sample; measured
    # worst cases 1.0, 2.0, 4.3, 4.0, 7.2 (the generic series arithmetic
    # gave 1.0, 2.0, 4.3, 3.3, 6.4 here)
    k = 4
    ts = _band_points(400, 17)
    got = pou.bump_taylor(_profile_batch(ts, k)).coeffs
    ref = np.array([_mp_series(t, k) for t in ts]).T
    factorials = np.array([math.factorial(j) for j in range(k + 1)], dtype=float)
    peak = np.maximum.accumulate(np.max(np.abs(ref), axis=1) * factorials)
    err = np.abs(got - ref) * factorials[:, None] / (np.finfo(float).eps * peak[:, None])
    assert np.max(err) < 16.0, np.max(err, axis=1)
    assert np.array_equal(got[0], [_bump_real(t) for t in ts])


def test_profile_of_a_general_linear_argument():
    # u = t0 + a.h in three variables: the coefficients are those of the
    # 50-digit series of s at t0 composed with a.h, within rounding
    rng = np.random.default_rng(18)
    n, k = 3, 4
    ctx = ta.context(n, k)
    orders = ctx.exponents.sum(axis=1)
    for t0 in _band_points(20, 19):
        a = rng.uniform(-2.0, 2.0, n)
        inner = sum(float(ai) * ta.seed_variable(np.zeros(n), i, n, k) for i, ai in enumerate(a))
        ref1 = _mp_series(t0, k)
        want = ta.compose(ta.TaylorValue(ta.context(1, k), ref1), [inner]).coeffs
        got = pou.bump_taylor(inner + float(t0)).coeffs
        scale = np.max(np.abs(ref1)) * np.sum(np.abs(a)) ** orders
        assert np.all(np.abs(got - want) <= 64 * np.finfo(float).eps * scale), t0


def test_profile_scaling_by_a_dyadic_side_is_exact():
    # s(t0 + h/l) is the unit-slope series times l^-j, bit for bit, for
    # every power-of-2 side l
    k = 4
    ts = _band_points(200, 20)
    unit = pou.bump_taylor(_profile_batch(ts, k)).coeffs
    for level in range(20):
        side = 2.0**-level
        scaled = pou.bump_taylor(_profile_batch(ts, k, side)).coeffs
        assert np.array_equal(scaled, unit * (1.0 / side) ** np.arange(k + 1)[:, None])


def test_profile_rejects_a_nonlinear_argument():
    x = ta.seed_variable((0.6,), 0, 1, 2)
    with pytest.raises(ValueError, match="linear"):
        pou.bump_taylor(x * x)
    u = ta.seed_variable((0.1, 0.6), 1, 2, 3)
    u.coeffs[ta.context(2, 3).pos[(1, 1)]] = 1e-300
    with pytest.raises(ValueError, match="linear"):
        pou.bump_taylor(u)


# -- tensor cutoff ----------------------------------------------------------------


def test_psi_plateau_zero_and_interior():
    # unit cubes centered at 0.5 per axis: psi_C(x) = psi(x - 0.5)
    unit2 = decomp.WhitneyCube(0, (0, 0))
    s = pou.psi_cube(unit2, (0.5, 0.5), 2)
    assert s.const == 1.0 and np.all(s.coeffs[1:] == 0.0)
    z = pou.psi_cube(unit2, (1.3, 0.5), 2)
    assert np.all(z.coeffs == 0.0)
    m = pou.psi_cube(decomp.WhitneyCube(0, (0,)), (1.1,), 2)
    assert 0.0 < m.const < 1.0


def test_psi_cube_rescale():
    c = decomp.WhitneyCube(1, (4,))  # [2, 2.5], center 2.25, side 1/2

    def psi(x):
        return pou.psi_taylor([c], x, 0).coeffs[0, 0]

    assert psi((2.25,)) == 1.0
    # x in C lies in the plateau
    assert psi((2.4,)) == 1.0
    # boundary of D_C and beyond: zero
    assert psi((2.625,)) == 0.0
    assert psi((2.7,)) == 0.0
    # transition band
    assert 0.0 < psi((2.55,)) < 1.0
    assert psi((2.55,)) == pytest.approx(_bump_real(0.6), rel=1e-14)
    series = pou.psi_cube(c, (2.55,), 2)
    assert series.const == psi((2.55,))


def _psi_by_seeds(cube, x, k):
    """The reference: psi_C as the product of n profile series, each of the
    seed variable of its coordinate, in n-variable arithmetic."""
    n = len(x)
    out = ta.constant(1.0, n, k)
    for i, ci in enumerate(cube.center):
        out = out * pou.bump_taylor((ta.seed_variable(x, i, n, k) - ci) / cube.side)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_psi_tensor_product_matches_seeded_product(n):
    # x on a 1/16 grid and cubes of levels 0..2 around it: the rows
    # t = (x_i - c_i) / l_C fall on the plateau, in the transition band,
    # outside the support, and exactly on the junctions |t| = 1/2 and 3/4
    rng = np.random.default_rng(40 + n)
    seen = set()
    for k in (0, 1, 2, 4):
        for _ in range(25):
            x = tuple(float(v) for v in rng.integers(-32, 32, n) / 16)
            cubes = []
            for _ in range(5):
                level = int(rng.integers(0, 3))
                shift = rng.integers(-1, 2, n)
                corner = tuple(math.floor(xi * 2**level) + int(s) for xi, s in zip(x, shift))
                cubes.append(decomp.WhitneyCube(level, corner))
            psi = pou.psi_taylor(cubes, x, k)
            assert psi.coeffs.shape == (ta.context(n, k).ncoef, len(cubes))
            for j, c in enumerate(cubes):
                assert np.array_equal(psi.coeffs[:, j], _psi_by_seeds(c, x, k).coeffs)
                assert np.array_equal(psi.coeffs[:, j], pou.psi_cube(c, x, k).coeffs)
                seen.update(abs((xi - ci) / c.side) for xi, ci in zip(x, c.center))
    assert {0.5, 0.75} <= seen
    assert any(t < 0.5 for t in seen) and any(0.5 < t < 0.75 for t in seen)
    assert any(t > 0.75 for t in seen)


# -- partition of unity -------------------------------------------------------------


def _sum_series(parts):
    total = parts[0][1]
    for _, s in parts[1:]:
        total = total + s
    return total


def test_partition_sums_to_one_far_field():
    # all supporting cubes have side 1 here; the identity holds to noise level
    dec = decomp.Decomposition(decomp.make_closed_set(points=[[0.0]]))
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = (float(rng.uniform(8, 24) * rng.choice([-1, 1])),)
        total = _sum_series(pou.partition_taylor(x, dec, 2))
        co = total.coeffs.copy()
        co[0] -= 1.0
        assert np.max(np.abs(co)) < 1e-11


def test_partition_sums_to_one_near_field():
    # close to the set the cubes are fine and the summed coefficients carry
    # magnitudes ~max|s''|/side^2, so the cancellation noise floor scales with
    # eps/side^2; bound against measured side rather than a fixed tolerance
    dec = decomp.Decomposition(decomp.make_closed_set(points=[[0.0]]))
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = (float(rng.uniform(1e-3, 2.0) * rng.choice([-1, 1])),)
        parts = pou.partition_taylor(x, dec, 2)
        side = min(c.side for c, _ in parts)
        total = _sum_series(parts)
        co = total.coeffs.copy()
        co[0] -= 1.0
        floor = 2e-12 / side**2
        assert np.max(np.abs(co)) < max(1e-11, floor), (x, side)


def test_partition_constant_term_always_tight():
    # the constant terms are plain real arithmetic: they sum to 1 to ~eps even
    # in the near field
    dec = decomp.Decomposition(decomp.make_closed_set(points=[[0.0, 0.0], [1.0, 0.5]]))
    rng = np.random.default_rng(13)
    count = 0
    while count < 200:
        x = tuple(rng.uniform(-2, 2, size=2))
        if dec.A.distance(x) < 1e-6:
            continue
        count += 1
        _, phi = pou.phi_taylor([dec.supporting_cubes(x)], [x], 0)
        ws = phi.coeffs[0]
        assert sum(ws) == pytest.approx(1.0, abs=5e-14)
        assert np.all((0.0 < ws) & (ws <= 1.0 + 1e-15))


def test_phi_zero_outside_enlarged_cube():
    # psi_C, and so phi_C = psi_C / sum psi, is the zero series off D_C;
    # x lies 0.78 side lengths from the center of the cube [3.5, 4]
    dec = decomp.Decomposition(decomp.make_closed_set(points=[[0.0]]))
    x = (3.36,)
    home = dec.locate(x)
    reach = 2.0 * home.side
    nearby = dec.enumerate_in_box(np.subtract(x, reach), np.add(x, reach), home.level + 1)
    outside = [c for c in nearby if not c.enlarged_contains(x)]
    assert outside
    assert np.all(pou.psi_taylor(outside, x, 3).coeffs == 0.0)


def test_phi_far_isolated_cube_is_constant_one():
    dec = decomp.Decomposition(decomp.make_closed_set(points=[[0.0]]))
    x = (10.5,)  # deep inside its side-1 cube, no other D region reaches it
    sup = dec.supporting_cubes(x)
    assert len(sup) == 1
    [(cube, s)] = pou.partition_taylor(x, dec, 3)
    assert cube == sup[0][0]
    assert s.const == 1.0
    assert np.all(s.coeffs[1:] == 0.0)


def test_partition_on_set_raises():
    dec = decomp.Decomposition(decomp.make_closed_set(points=[[0.0]]))
    with pytest.raises(decomp.OnSet):
        pou.partition_taylor((0.0,), dec, 2)


def test_derivative_constant_estimate_finite_and_stable():
    dec = decomp.Decomposition(decomp.make_closed_set(points=[[0.0]]))
    rng = np.random.default_rng(14)
    small = [(float(v),) for v in rng.uniform(-1, 1, size=100) if abs(v) > 1e-8]
    big = small + [(float(v),) for v in rng.uniform(-1, 1, size=200) if abs(v) > 1e-8]
    n_small = pou.estimate_derivative_constant(dec, 2, small)
    n_big = pou.estimate_derivative_constant(dec, 2, big)
    assert math.isfinite(n_small) and n_small > 0
    # refining the sample can only grow the max, and not by orders of magnitude
    assert n_small <= n_big <= 50.0 * n_small
