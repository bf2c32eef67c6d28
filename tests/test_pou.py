"""The smooth cutoff and the cube partition of unity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitneyext import decomp, pou
from whitneyext import taylorarith as ta


# -- 1-D profile ------------------------------------------------------------------


def test_profile_plateau_and_support():
    for t in (0.0, 0.25, -0.5, 0.5):
        assert pou.bump_real(t) == 1.0
    for t in (0.75, -0.75, 0.8, 2.0):
        assert pou.bump_real(t) == 0.0


def test_profile_value_at_06():
    assert pou.bump_real(0.6) == pytest.approx(0.9655548043337889, rel=1e-15)
    assert pou.bump_real(-0.6) == pou.bump_real(0.6)


@given(st.floats(-2, 2, allow_nan=False))
def test_profile_range(t):
    v = pou.bump_real(t)
    assert 0.0 <= v <= 1.0


@given(st.floats(0, 1.9, allow_nan=False), st.floats(0.001, 0.1))
@settings(max_examples=300)
def test_profile_monotone_decreasing_in_abs(t, h):
    assert pou.bump_real(t + h) <= pou.bump_real(t) + 1e-15


def test_profile_series_branches():
    # plateau: constant-1 series
    u = ta.seed_variable((0.3,), 0, 1, 3)
    s = pou.bump_taylor(u)
    assert s.coeffs[0] == 1.0 and np.all(s.coeffs[1:] == 0.0)
    # outside support: exactly zero
    u = ta.seed_variable((0.9,), 0, 1, 3)
    assert np.all(pou.bump_taylor(u).coeffs == 0.0)
    # transition: derivative of order 1 is negative (decreasing)
    u = ta.seed_variable((0.6,), 0, 1, 3)
    s = pou.bump_taylor(u)
    assert 0.0 < s.const < 1.0
    assert s.coeffs[1] < 0.0


def test_profile_flat_contact_at_branch_points():
    # all derivatives tend to 0 approaching the support boundary, and the
    # series approaches the constant-1 series at the plateau edge
    for t0, target in ((0.7499999, 0.0), (0.5000001, 1.0)):
        u = ta.seed_variable((t0,), 0, 1, 3)
        s = pou.bump_taylor(u)
        assert s.const == pytest.approx(target, abs=1e-5)
        assert abs(s.coeffs[1]) < 1e-2


def test_profile_series_matches_finite_differences():
    h = 1e-5
    for t0 in (0.55, 0.6, 0.65, 0.7):
        u = ta.seed_variable((t0,), 0, 1, 2)
        d = ta.derivatives(pou.bump_taylor(u))
        fd1 = (pou.bump_real(t0 + h) - pou.bump_real(t0 - h)) / (2 * h)
        fd2 = (pou.bump_real(t0 + h) - 2 * pou.bump_real(t0) + pou.bump_real(t0 - h)) / h**2
        assert d[1] == pytest.approx(fd1, rel=1e-4, abs=1e-6)
        assert d[2] == pytest.approx(fd2, rel=1e-3, abs=1e-2)


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
    assert pou.psi_cube_real(c, (2.25,)) == 1.0
    # x in C lies in the plateau
    assert pou.psi_cube_real(c, (2.4,)) == 1.0
    # boundary of D_C and beyond: zero
    assert pou.psi_cube_real(c, (2.625,)) == 0.0
    assert pou.psi_cube_real(c, (2.7,)) == 0.0
    # transition band
    assert 0.0 < pou.psi_cube_real(c, (2.55,)) < 1.0
    series = pou.psi_cube(c, (2.55,), 2)
    assert series.const == pytest.approx(pou.psi_cube_real(c, (2.55,)), rel=1e-14)


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
        ws = pou.phi_weights_real(x, dec)
        assert sum(w for _, w in ws) == pytest.approx(1.0, abs=5e-14)
        for _, w in ws:
            assert 0.0 <= w <= 1.0 + 1e-15


def test_phi_zero_outside_enlarged_cube():
    dec = decomp.Decomposition(decomp.make_closed_set(points=[[0.0]]))
    x = (3.3,)
    home = dec.locate(x)
    reach = 2.0 * home.side
    for c in dec.enumerate_in_box(np.subtract(x, reach), np.add(x, reach), home.level + 1):
        if not c.enlarged_contains(x):
            s = pou.phi_cube(c, x, dec, 3)
            assert np.all(s.coeffs == 0.0)


def test_phi_far_isolated_cube_is_constant_one():
    dec = decomp.Decomposition(decomp.make_closed_set(points=[[0.0]]))
    x = (10.5,)  # deep inside its side-1 cube, no other D region reaches it
    sup = dec.supporting_cubes(x)
    assert len(sup) == 1
    s = pou.phi_cube(sup[0], x, dec, 3)
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
