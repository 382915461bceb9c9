"""Distortion-bound verifier: closed-form oracles and Monte-Carlo behavior."""
import numpy as np
import pytest

from gotham.theorem import (XI_MAX, GrowthParams, GrowthTrace, WidthNNet,
                            bound_rhs, default_sweep, empirical_distortion,
                            simulate_growth, verify_bound)


def manual_trace(features, supports, attach_prob=0.5):
    feats = np.asarray(features, dtype=np.float64)
    params = GrowthParams(n0=len(supports[0]), steps=len(supports) - 1,
                          attach_prob=attach_prob, d=feats.shape[1])
    return GrowthTrace(params=params, features=feats,
                       support_sets=[np.asarray(s, dtype=np.int64) for s in supports])


def test_growth_shapes_and_monotone_support():
    trace = simulate_growth(0, n0=5, steps=4, attach_prob=0.7, d=3)
    assert len(trace.support_sets) == 5
    for a, b in zip(trace.support_sets, trace.support_sets[1:]):
        assert set(a.tolist()) <= set(b.tolist())
    assert trace.features.shape == (5 + 4 * 3, 3)


def test_growth_frozen_when_no_arrivals():
    trace = simulate_growth(1, n0=4, steps=2, attach_prob=0.5, d=2,
                            arrivals_per_step=0)
    assert all(s.size == 4 for s in trace.support_sets)
    rhs_a, rhs_f = bound_rhs(trace, WidthNNet(2, 2, 0.5, 0.5))
    assert rhs_a == 0.0 and rhs_f == 0.0


def test_single_attachment_degree_arithmetic():
    trace = manual_trace(np.ones((3, 2)), [[0, 1], [0, 1, 2]])
    _, core = bound_rhs(trace, WidthNNet(1, 2, 1.0, 1.0))
    want = (1.0 / 3 - 1.0 / 2) ** 2 * 4.0   # two unit-norm neighbors at t
    assert core == pytest.approx(want, rel=1e-12)


def test_new_feature_mean_law_of_large_numbers():
    trace = simulate_growth(2, n0=2, steps=1, attach_prob=1.0, d=4,
                            arrivals_per_step=10_000)
    new = trace.features[2:]
    assert new.shape[0] == 10_000
    assert np.linalg.norm(new.mean(axis=0)) < 3.0 / np.sqrt(10_000) * np.sqrt(4)


def test_rhs_hand_arithmetic_one_ninth():
    # degree 1 -> 2, single time-t neighbor with squared norm 4
    trace = manual_trace(np.array([[2.0], [7.0]]), [[0], [0, 1]])
    net = WidthNNet(n_units=1, feature_dim=1, xi=1.0, beta=1.0)
    rhs_a, rhs_f = bound_rhs(trace, net)
    assert rhs_f == pytest.approx((0.5 - 1.0) ** 2 * 4.0, rel=1e-12)
    assert rhs_a == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_rhs_linear_in_width():
    trace = manual_trace(np.ones((3, 2)), [[0, 1], [0, 1, 2]])
    r1, _ = bound_rhs(trace, WidthNNet(1, 2, 0.3, 0.7))
    r4, _ = bound_rhs(trace, WidthNNet(4, 2, 0.3, 0.7))
    assert r4 == pytest.approx(4.0 * r1, rel=1e-12)


def test_appendix_form_below_free_form_in_small_constant_regime():
    trace = manual_trace(np.ones((3, 2)), [[0, 1], [0, 1, 2]])
    for n, xi, beta in [(1, 0.1, 0.01), (4, 0.5, 0.2), (16, 0.5, 1.0)]:
        if n * beta ** 2 * xi ** 4 / 9.0 <= 1.0:
            rhs_a, rhs_f = bound_rhs(trace, WidthNNet(n, 2, xi, beta))
            assert rhs_a <= rhs_f + 1e-15


def test_distortion_zero_when_frozen_and_unperturbed():
    trace = manual_trace(np.ones((3, 2)), [[0, 1, 2], [0, 1, 2]])
    net = WidthNNet(n_units=2, feature_dim=2, xi=0.0, beta=0.5)
    delta, se = empirical_distortion(trace, net, trials=100, seed=0,
                                     randomize="params")
    assert delta == 0.0 and se == 0.0


def closed_form_delta(trace, net):
    """Width-1 linear-unit oracle: (a*^2 + xi^2/3)((v.W*)^2 + xi^2/3 |v|^2)."""
    a_star, w_star, _ = net.optimum()
    s_t, s_t1 = trace.pair()
    v = trace.features[s_t1].mean(axis=0) - trace.features[s_t].mean(axis=0)
    var = net.xi ** 2 / 3.0
    return (a_star[0] ** 2 + var) * (float(v @ w_star[0]) ** 2 + var * v @ v)


def test_distortion_matches_symbolic_single_unit():
    feats = np.array([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]])
    trace = manual_trace(feats, [[0, 1], [0, 1, 2]])
    net = WidthNNet(n_units=1, feature_dim=2, xi=0.8, beta=1.0, seed=5)
    want = closed_form_delta(trace, net)
    delta, se = empirical_distortion(trace, net, trials=400_000, seed=11,
                                     randomize="params")
    assert delta == pytest.approx(want, abs=5 * se)
    assert abs(delta - want) / want < 0.05


def test_distortion_se_shrinks_with_trials():
    trace = simulate_growth(3, n0=5, steps=1, attach_prob=0.8, d=3)
    net = WidthNNet(n_units=4, feature_dim=3, xi=0.5, beta=0.2, seed=1)
    _, se1 = empirical_distortion(trace, net, trials=20_000, seed=7,
                                  randomize="params")
    _, se2 = empirical_distortion(trace, net, trials=40_000, seed=7,
                                  randomize="params")
    assert se2 / se1 == pytest.approx(1.0 / np.sqrt(2.0), abs=0.12)


def test_batched_growth_matches_loop_oracle():
    # the vectorized growth statistics estimate the same expectation as
    # looped independent simulations
    net = WidthNNet(n_units=1, feature_dim=3, xi=0.5, beta=1.0, seed=2)
    params = dict(n0=4, steps=1, attach_prob=0.6, d=3)
    loop_cores = []
    for seed in range(4000):
        tr = simulate_growth(seed, **params)
        s_t, s_t1 = tr.pair()
        core = (1 / s_t1.size - 1 / s_t.size) ** 2 * (tr.features[s_t] ** 2).sum()
        loop_cores.append(core)
    loop_mean = np.mean(loop_cores)
    loop_se = np.std(loop_cores, ddof=1) / np.sqrt(len(loop_cores))

    trace = simulate_growth(0, **params)
    _, batched = bound_rhs(trace, net, trials=200_000, seed=9, randomize="both")
    assert batched == pytest.approx(loop_mean, abs=6 * loop_se)


def test_distortion_nonnegative_and_finite():
    trace = simulate_growth(4, n0=6, steps=2, attach_prob=0.5, d=4)
    net = WidthNNet(n_units=8, feature_dim=4, xi=0.3, beta=0.05, seed=3)
    for mode in ("params", "growth", "both"):
        delta, se = empirical_distortion(trace, net, trials=2000, seed=5,
                                         randomize=mode)
        assert delta >= 0.0 and np.isfinite(delta) and np.isfinite(se)


def test_verify_bound_passes_and_reproducible():
    r1 = verify_bound(n_units=4, xi=0.5, beta=0.2, trials=500, repetitions=8,
                      seed=0)
    r2 = verify_bound(n_units=4, xi=0.5, beta=0.2, trials=500, repetitions=8,
                      seed=0)
    assert r1.passed
    assert r1.to_dict() == r2.to_dict()


def test_verify_bound_vacuous_when_xi_zero_frozen():
    r = verify_bound(n_units=2, xi=0.0, beta=0.5, trials=200, repetitions=3,
                     seed=1, arrivals_per_step=0)
    assert r.delta_hat == 0.0
    assert r.rhs_appendix == 0.0
    assert r.passed


def test_default_sweep_small():
    out = default_sweep(trials=300, repetitions=5, seed=0,
                        widths=(1, 4), xis=(0.5,), betas=(0.2,))
    assert out["all_pass"]
    assert len(out["reports"]) == 2
    assert out["rank_correlation_width_vs_distortion"] > 0


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        WidthNNet(0, 2, 0.1, 0.5)
    with pytest.raises(ValueError):
        WidthNNet(1, 2, 0.1, 1.5)
    for xi in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="xi must be finite and >= 0"):
            WidthNNet(1, 2, xi, 0.5)
    # finite, but xi^4 and the squared distortion would overflow float64
    for xi in (1e7, 1e200):
        with pytest.raises(ValueError, match="xi must be at most 1e"):
            WidthNNet(1, 2, xi, 0.5)
    assert WidthNNet(1, 2, XI_MAX, 0.5).xi == XI_MAX
    with pytest.raises(ValueError):
        simulate_growth(0, n0=1, steps=1, attach_prob=0.5, d=2)
    with pytest.raises(ValueError):
        simulate_growth(0, n0=3, steps=1, attach_prob=0.0, d=2)
    # no repetition would be a vacuous pass
    with pytest.raises(ValueError, match="repetitions"):
        verify_bound(repetitions=0)
