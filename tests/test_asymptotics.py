import math

import numpy as np
import pytest

from sgtree import (
    BoundaryHitError,
    center_first_order,
    custom_weights,
    degree_count_scale,
    factorial_alpha_weights,
    lambda_factorial_weights,
    predict,
    predict_log_zn,
    profile,
    solve_centers,
    uniform_weights,
)
from sgtree.asymptotics import degree_cutoff, gaussian_indices, reciprocal_is_integer


def test_degree_cutoff():
    assert degree_cutoff(0.4) == 2
    assert degree_cutoff(0.5) == 2
    assert degree_cutoff(1 / 3) == 3
    assert degree_cutoff(0.9) == 1
    for bad in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha must be a finite number > 0"):
            degree_cutoff(bad)
    assert reciprocal_is_integer(0.5)
    assert not reciprocal_is_integer(0.4)
    assert gaussian_indices(0.5) == [1]
    assert gaussian_indices(0.4) == [1, 2]
    # 171! is past the largest float: K stops at 170, also where 1/alpha overflows
    assert degree_cutoff(1 / 170) == 170
    assert math.isfinite(degree_count_scale(1 / 170, 1000, 170))
    for alpha in (1 / 171, 0.0058, 0.001, 1e-300, 1e-320):
        with pytest.raises(ValueError, match=rf"alpha must exceed 1/171 .*, got {alpha}$"):
            degree_cutoff(alpha)


def test_scale_values():
    assert degree_count_scale(0.5, 10**4, 1) == pytest.approx(100.0)
    assert degree_count_scale(0.4, 10**5, 2) == pytest.approx(2**0.4 * 10, rel=1e-12)
    assert degree_count_scale(0.5, 777, 1) == pytest.approx(777**0.5, rel=1e-12)
    with pytest.raises(ValueError):
        degree_count_scale(0.5, 100, 3)


def test_scale_rejects_sizes_below_one():
    """N^(1 - i alpha) would be complex below 0 and 0 at N = 0."""
    for n in (-5, 0):
        with pytest.raises(ValueError, match=f"n_edges must be >= 1, got {n}"):
            degree_count_scale(0.5, n, 1)


def test_center_first_order_values():
    assert center_first_order(0.5, 10**4, 1) == pytest.approx(99.5, rel=1e-12)
    assert center_first_order(1 / 3, 729, 1) == pytest.approx(81 * (1 - 2 / 27), rel=1e-10)
    with pytest.raises(ValueError):
        center_first_order(0.5, 100, 2)  # i = 1/alpha is the Poisson index


def test_objective_plain_stationary_point():
    """Dropping the half-log term and the correction sum, the maximizer of
    m log(scale) - m log m + m is m = scale."""
    alpha, n = 0.7, 5000
    scale = degree_count_scale(alpha, n, 1)

    def truncated(m):
        return m * math.log(scale) - m * math.log(m) + m

    assert truncated(scale) > truncated(scale * 1.01)
    assert truncated(scale) > truncated(scale * 0.99)


def test_objective_decreases_when_doubled():
    alpha, n = 0.5, 10**4
    m_hat = solve_centers(alpha, n)
    base = profile(alpha, n, m_hat)[0]
    for i in range(len(m_hat)):
        doubled = m_hat.copy()
        doubled[i] *= 2
        assert profile(alpha, n, doubled)[0] < base


def test_gradient_matches_finite_differences():
    """Central differences at random points of the search box: of the
    objective against the gradient, and of the gradient against the Hessian."""
    rng = np.random.default_rng(42)
    worst = 0.0
    worst_hessian = 0.0
    # relative against max(1, |g|): the gradient's natural scale is O(1)
    for alpha, n in [(0.45, 1500), (0.4, 1000), (0.3, 2000)]:
        k = degree_cutoff(alpha)
        scales = np.array([degree_count_scale(alpha, n, i) for i in range(1, k + 1)])
        for _ in range(40):
            m = scales * rng.uniform(0.6, 1.4, size=k)
            _, g, hess = profile(alpha, n, m)
            fd_hess = np.empty((k, k))
            for i in range(k):
                h = 1e-4 * m[i]
                up, dn = m.copy(), m.copy()
                up[i] += h
                dn[i] -= h
                fd = (profile(alpha, n, up)[0] - profile(alpha, n, dn)[0]) / (2 * h)
                rel = abs(g[i] - fd) / max(1.0, abs(g[i]))
                worst = max(worst, rel)
                fd_g = profile(alpha, n, up)[1] - profile(alpha, n, dn)[1]
                fd_hess[:, i] = fd_g / (2 * h)
            worst_hessian = max(worst_hessian, np.abs(hess - fd_hess).max() / np.abs(hess).max())
    assert worst < 1e-6
    assert worst_hessian < 1e-6


def test_solver_converges_interior():
    for alpha, n in [(0.5, 1000), (0.45, 1500), (0.4, 1000), (0.9, 10**4)]:
        m = solve_centers(alpha, n)
        g = profile(alpha, n, m)[1]
        assert np.abs(g).max() < 1e-10
        for i, idx in enumerate(gaussian_indices(alpha)):
            scale = degree_count_scale(alpha, n, idx)
            assert 0.5 * scale < m[i] < 1.5 * scale


def test_solver_boundary_hit_outside_box():
    """At alpha=0.3, N=5 the stationary point lies outside [scale/2, 3 scale/2]."""
    with pytest.raises(BoundaryHitError, match="outside box") as info:
        solve_centers(0.3, 5)
    assert "increase n_edges" in str(info.value)


def test_profile_overflow_is_value_error():
    """Where B^floor(1/alpha) overflows a float, the error names alpha, N and m."""
    with pytest.raises(ValueError, match=r"alpha=0\.3, N=100, m=\[1e\+120\]"):
        profile(0.3, 100, [1e120])


def test_predict_newton_stall_raises_boundary_hit():
    """At alpha=0.15, N=491 and N=300 the damped-Newton line search makes no
    progress; only a larger N can fix that, and the message says so."""
    with pytest.raises(BoundaryHitError, match="stalled"):
        predict(0.15, 491)
    with pytest.raises(BoundaryHitError, match="stalled") as info:
        solve_centers(0.15, 300)
    assert "increase n_edges" in str(info.value) and "eta" not in str(info.value)


def test_boundary_hit_message_is_one_line():
    """A box of six or nine coordinates still prints on one line."""
    for alpha, n in ((0.15, 300), (0.1, 200)):
        with pytest.raises(BoundaryHitError) as info:
            solve_centers(alpha, n)
        assert "\n" not in str(info.value) and "box [[" in str(info.value)


def test_center_ratio_approaches_one():
    """|m_hat_1/scale_1 - 1| shrinks along N = 1e2, 1e3, 1e4 at alpha 0.5."""
    gaps = []
    for n in (10**2, 10**3, 10**4):
        m1 = solve_centers(0.5, n)[0]
        gaps.append(abs(m1 / degree_count_scale(0.5, n, 1) - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_center_agrees_with_first_order_at_stated_order():
    """The solved center minus the first-order expansion, relative to
    scale_1, is O(N^-2a + N^(a-1)); the second term (from the half-log
    curvature at finite scale) dominates at alpha = 1/2."""
    alpha = 0.5
    for n in (10**2, 10**3, 10**4):
        m1 = solve_centers(alpha, n)[0]
        first = center_first_order(alpha, n, 1)
        rel = abs(m1 - first) / degree_count_scale(alpha, n, 1)
        assert rel / (n ** (-2 * alpha) + n ** (alpha - 1)) < 2.0


def test_predict_log_zn():
    """The regime is read off the weights; alpha = 1 is lam = 1, and
    weights outside the three regimes have no expansion."""
    assert predict_log_zn(lambda_factorial_weights(1), 50) == pytest.approx(math.lgamma(50) + 1.0, rel=1e-14)
    assert predict_log_zn(factorial_alpha_weights(1), 50) == predict_log_zn(lambda_factorial_weights(1), 50)
    expected = 0.6 * math.lgamma(1000) + 1000**0.4 + (2**0.6 - 0.2) * 1000**-0.2
    assert predict_log_zn(factorial_alpha_weights(0.6), 1000) == pytest.approx(expected, rel=1e-14)
    assert predict_log_zn(factorial_alpha_weights(2.0), 400) == pytest.approx(2 * math.lgamma(400), rel=1e-14)
    for ws in (uniform_weights(), custom_weights(["1", "0", "1"])):
        with pytest.raises(ValueError, match="no log Z_N expansion"):
            predict_log_zn(ws, 10)


def test_reference_laws_shapes():
    laws = predict(0.5, 1500).laws
    kinds = {(law.degree, law.kind) for law in laws}
    assert kinds == {(2, "gaussian"), (3, "poisson")}
    poisson = [law for law in laws if law.kind == "poisson"][0]
    assert poisson.center == pytest.approx(2**0.5, rel=1e-12)

    laws = predict(0.4, 1000).laws
    kinds = {(law.degree, law.kind) for law in laws}
    assert kinds == {(2, "gaussian"), (3, "gaussian")}

    # alpha = 0.45: X_2 centered near N^0.55, scaled by N^0.275
    laws = predict(0.45, 1500).laws
    x2 = [law for law in laws if law.degree == 2][0]
    assert x2.center == pytest.approx(1500**0.55, rel=0.05)
    assert x2.scale == pytest.approx(1500**0.275, rel=0.01)


def test_prediction_bundle():
    p = predict(0.5, 1500)
    assert p.k_cutoff == 2
    assert p.poisson_mean == pytest.approx(2**0.5, rel=1e-12)
    assert len(p.centers) == 1
    assert p.scales[0] == pytest.approx(1500**0.5, rel=1e-12)
    z = p.laws[0].standardize(np.array([p.centers[0]]))
    assert z[0] == 0.0
