"""Distortion-bound verifier: closed-form oracles and Monte-Carlo behavior."""
import numpy as np
import pytest

from gotham.theorem import (XI_MAX, GrowthParams, WidthNNet, default_sweep,
                            empirical_distortion, simulate_growth, verify_bound)


def broadcast_means(u_t, u_t1, trials):
    """Hand-built support means, the same for every trial."""
    u_t, u_t1 = np.asarray(u_t, dtype=np.float64), np.asarray(u_t1, dtype=np.float64)
    return (np.broadcast_to(u_t, (trials, u_t.size)),
            np.broadcast_to(u_t1, (trials, u_t1.size)))


def test_growth_frozen_when_no_arrivals():
    params = GrowthParams(n0=4, steps=2, attach_prob=0.5, d=2,
                          arrivals_per_step=0)
    rng = np.random.default_rng(1)
    u_t, u_t1, core = simulate_growth(rng, params, 50)
    assert np.array_equal(u_t, u_t1)
    assert np.all(core == 0.0)
    delta, se = empirical_distortion(u_t, u_t1, WidthNNet(2, 2, 0.5, 0.5), rng)
    assert delta == 0.0 and se == 0.0


def test_single_attachment_degree_arithmetic():
    # every trial's one arrival joins, so the degree goes 2 -> 3
    params = GrowthParams(n0=2, steps=1, attach_prob=1.0, d=2,
                          arrivals_per_step=1)
    u_t, u_t1, core = simulate_growth(np.random.default_rng(4), params, 100)
    replay = np.random.default_rng(4)
    base = replay.standard_normal((100, 2, 2))
    new = replay.standard_normal((100, 1, 2))
    want = (1.0 / 3 - 1.0 / 2) ** 2 * (base ** 2).sum(axis=(1, 2))
    np.testing.assert_allclose(core, want, rtol=1e-12)
    np.testing.assert_allclose(u_t, base.mean(axis=1), rtol=1e-12)
    np.testing.assert_allclose(u_t1, (base.sum(axis=1) + new[:, 0]) / 3,
                               rtol=1e-12)


def test_new_feature_mean_law_of_large_numbers():
    params = GrowthParams(n0=2, steps=1, attach_prob=1.0, d=4,
                          arrivals_per_step=10_000)
    u_t, u_t1, _ = simulate_growth(np.random.default_rng(2), params, 1)
    new_mean = (u_t1[0] * 10_002 - u_t[0] * 2) / 10_000
    assert np.linalg.norm(new_mean) < 3.0 / np.sqrt(10_000) * np.sqrt(4)


def test_rhs_hand_arithmetic_one_ninth():
    net = WidthNNet(n_units=1, feature_dim=1, xi=1.0, beta=1.0)
    assert net.constant == pytest.approx(1.0 / 9.0, rel=1e-12)
    # degree 1 -> 2, single time-t neighbor with squared norm 4: core 1
    assert net.constant * (0.5 - 1.0) ** 2 * 4.0 == pytest.approx(1.0 / 9.0,
                                                                    rel=1e-12)


def test_rhs_linear_in_width():
    r1 = WidthNNet(1, 2, 0.3, 0.7).constant
    r4 = WidthNNet(4, 2, 0.3, 0.7).constant
    assert r4 == pytest.approx(4.0 * r1, rel=1e-12)


def test_appendix_form_below_free_form_in_small_constant_regime():
    params = GrowthParams(n0=2, steps=1, attach_prob=0.5, d=2)
    _, _, core = simulate_growth(np.random.default_rng(0), params, 500)
    free = float(core.mean())
    assert free > 0.0
    for n, xi, beta in [(1, 0.1, 0.01), (4, 0.5, 0.2), (16, 0.5, 1.0)]:
        net = WidthNNet(n, 2, xi, beta)
        assert net.constant <= 1.0
        assert net.constant * free <= free


def test_distortion_zero_when_frozen_and_unperturbed():
    u_t, u_t1 = broadcast_means([1.0, 1.0], [1.0, 1.0], 100)
    net = WidthNNet(n_units=2, feature_dim=2, xi=0.0, beta=0.5)
    delta, se = empirical_distortion(u_t, u_t1, net, np.random.default_rng(0))
    assert delta == 0.0 and se == 0.0


def closed_form_delta(u_t, u_t1, net):
    """Width-1 linear-unit oracle: (a*^2 + xi^2/3)((v.W*)^2 + xi^2/3 |v|^2)."""
    a_star, w_star, _ = net.optimum()
    v = u_t1 - u_t
    var = net.xi ** 2 / 3.0
    return (a_star[0] ** 2 + var) * (float(v @ w_star[0]) ** 2 + var * v @ v)


def test_distortion_matches_symbolic_single_unit():
    feats = np.array([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]])
    # support {0, 1} at t, {0, 1, 2} at t+1
    u_t, u_t1 = feats[:2].mean(axis=0), feats.mean(axis=0)
    net = WidthNNet(n_units=1, feature_dim=2, xi=0.8, beta=1.0, seed=5)
    want = closed_form_delta(u_t, u_t1, net)
    delta, se = empirical_distortion(*broadcast_means(u_t, u_t1, 400_000), net,
                                     np.random.default_rng(11))
    assert delta == pytest.approx(want, abs=5 * se)
    assert abs(delta - want) / want < 0.05


def test_distortion_se_shrinks_with_trials():
    net = WidthNNet(n_units=4, feature_dim=3, xi=0.5, beta=0.2, seed=1)
    u_t, u_t1 = [0.3, -0.2, 0.5], [0.1, 0.25, 0.4]
    _, se1 = empirical_distortion(*broadcast_means(u_t, u_t1, 20_000), net,
                                  np.random.default_rng(7))
    _, se2 = empirical_distortion(*broadcast_means(u_t, u_t1, 40_000), net,
                                  np.random.default_rng(7))
    assert se2 / se1 == pytest.approx(1.0 / np.sqrt(2.0), abs=0.12)


def loop_growth(rng, p):
    """One path grown arrival by arrival: the support's features are kept as
    a list, the reference for the vectorized simulator."""
    support = list(rng.standard_normal((p.n0, p.d)))
    for _ in range(p.steps):
        before = list(support)
        for x in rng.standard_normal((p.arrivals_per_step, p.d)):
            if rng.random() < p.attach_prob:
                support.append(x)
    core = (1 / len(support) - 1 / len(before)) ** 2 * sum(x @ x for x in before)
    return np.mean(before, axis=0), np.mean(support, axis=0), core


def test_batched_growth_matches_loop_oracle():
    # the vectorized growth statistics estimate the same expectations as
    # looped independent simulations
    params = GrowthParams(n0=4, steps=2, attach_prob=0.6, d=3)
    loop = [loop_growth(np.random.default_rng(seed), params)
            for seed in range(4000)]
    u_t, u_t1, core = simulate_growth(np.random.default_rng(9), params, 200_000)
    for looped, batched in [
            ([c for _, _, c in loop], core),
            ([(b - a) @ (b - a) for a, b, _ in loop],
             ((u_t1 - u_t) ** 2).sum(axis=1))]:
        loop_se = np.std(looped, ddof=1) / np.sqrt(len(looped))
        assert batched.mean() == pytest.approx(np.mean(looped), abs=6 * loop_se)


def test_distortion_nonnegative_and_finite():
    params = GrowthParams(n0=6, steps=2, attach_prob=0.5, d=4)
    net = WidthNNet(n_units=8, feature_dim=4, xi=0.3, beta=0.05, seed=3)
    rng = np.random.default_rng(5)
    u_t, u_t1, _ = simulate_growth(rng, params, 2000)
    delta, se = empirical_distortion(u_t, u_t1, net, rng)
    assert delta >= 0.0 and np.isfinite(delta) and np.isfinite(se)


def test_verify_bound_passes_and_reproducible():
    r1 = verify_bound(n_units=4, xi=0.5, beta=0.2, trials=500, repetitions=8,
                      seed=0)
    r2 = verify_bound(n_units=4, xi=0.5, beta=0.2, trials=500, repetitions=8,
                      seed=0)
    assert r1.passed
    assert r1.to_dict() == r2.to_dict()


def test_verify_bound_vacuous_when_xi_zero_frozen():
    """xi = 0 freezes the weights at the optimum: the bound's constant, and so
    the bound, is 0, which any distortion clears."""
    r = verify_bound(n_units=2, xi=0.0, beta=0.5, trials=200, repetitions=3,
                     seed=1)
    assert r.rhs_appendix == 0.0
    assert r.rhs_eq7 > 0.0 and r.delta_hat > 0.0
    assert r.violations == 0 and r.passed


def test_verify_bound_config_names_the_fixed_growth():
    """The report's config, which ``verify-theorem --out`` writes, holds the
    growth every support follows."""
    config = verify_bound(n_units=1, trials=2, repetitions=1, seed=4).config
    assert config == {"n_units": 1, "xi": 0.5, "beta": 0.2, "d": 8, "n0": 6,
                      "steps": 1, "attach_prob": 0.5, "arrivals_per_step": 3,
                      "trials": 2, "repetitions": 1, "seed": 4,
                      "randomize": "both"}


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
    with pytest.raises(ValueError, match="n0 must be >= 2"):
        GrowthParams(n0=1, steps=1, attach_prob=0.5, d=2)
    with pytest.raises(ValueError, match="steps must be >= 1"):
        GrowthParams(n0=3, steps=0, attach_prob=0.5, d=2)
    with pytest.raises(ValueError, match="attach_prob"):
        GrowthParams(n0=3, steps=1, attach_prob=0.0, d=2)
    # no repetition would be a vacuous pass
    with pytest.raises(ValueError, match="repetitions"):
        verify_bound(repetitions=0)
    # checked before the first draw, which would reject a negative shape itself
    for trials in (1, -5):
        with pytest.raises(ValueError, match="trials must be >= 2"):
            verify_bound(trials=trials)
