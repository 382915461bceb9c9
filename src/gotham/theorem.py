"""Monte-Carlo check that prototype distortion dominates its lower bound.

A prototype is modeled as a super-node whose neighborhood is its extended
support set. Its embedding is a width-N one-hidden-layer readout of the
neighborhood feature mean,

    f_t = sum_j a_j * act((1/d_t) * sum_{k in N_t} x_k . W_j + b_j),

with leaky-ReLU slope beta. Output weights a_j and rows W_j are drawn
uniformly within +-xi of a fixed optimum (variance xi^2/3 per coordinate);
biases stay at the optimum. One growth simulator, ``simulate_growth``, draws
an independent growth path per trial: a standard-normal base support, then
standard-normal arrivals that each attach to the support with positive
probability; ``verify_bound``'s fixed ``GROWTH`` adds to 6 base nodes in 8
dimensions one step of 3 arrivals, each joining with probability 0.5. The
distortion E[(f_{t+1} - f_t)^2] is estimated and compared against

    full-constant form:  (N beta^2 xi^4 / 9) * E[(1/d_{t+1} - 1/d_t)^2 * sum_{k in N_t} |x_k|^2]
    constant-free form:  E[(1/d_{t+1} - 1/d_t)^2 * sum_{k in N_t} |x_k|^2]

where the full-constant form is the pass/fail reference. Both expectations
are over fresh draws: each distortion trial has its own growth path and its
own perturbation, and the bound averages its own growth paths.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["WidthNNet", "GrowthParams", "GROWTH", "simulate_growth",
           "empirical_distortion", "BoundReport", "verify_bound",
           "default_sweep"]

# xi^4 scales both the bound and the squared distortion and overflows float64
# past about 1.2e77; a width that far beyond the O(1) optimum perturbs nothing
XI_MAX = 1e6


@dataclass(frozen=True)
class WidthNNet:
    """Width-N readout with fixed optimum and uniform perturbation width xi."""
    n_units: int
    feature_dim: int
    xi: float
    beta: float
    seed: int = 0

    def __post_init__(self):
        if self.n_units < 1:
            raise ValueError("width must be >= 1")
        if not (np.isfinite(self.xi) and self.xi >= 0):
            raise ValueError(f"xi must be finite and >= 0, got {self.xi}")
        if self.xi > XI_MAX:
            raise ValueError(f"xi must be at most {XI_MAX:g}, got {self.xi:g}")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")

    @property
    def constant(self) -> float:
        """N beta^2 xi^4 / 9, the full-constant form's factor."""
        return self.n_units * self.beta ** 2 * self.xi ** 4 / 9.0

    def optimum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        a_star = rng.standard_normal(self.n_units)
        w_star = rng.standard_normal((self.n_units, self.feature_dim))
        bias = rng.standard_normal(self.n_units)
        return a_star, w_star, bias


@dataclass(frozen=True)
class GrowthParams:
    n0: int
    steps: int
    attach_prob: float
    d: int
    arrivals_per_step: int = 3

    def __post_init__(self):
        if self.n0 < 2:
            raise ValueError("n0 must be >= 2")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 < self.attach_prob <= 1:
            raise ValueError("attach_prob must lie in (0, 1]")


GROWTH = GrowthParams(n0=6, steps=1, attach_prob=0.5, d=8, arrivals_per_step=3)


def simulate_growth(rng: np.random.Generator, p: GrowthParams, trials: int):
    """Grow one tracked support per trial for ``p.steps`` steps.

    Base features are standard normal; every step appends
    ``p.arrivals_per_step`` candidates with standard-normal features, each
    joining the support independently with ``p.attach_prob``. Membership is
    never removed. Returns per-trial (u_t, u_t1, rhs_core): u is the support
    feature mean at the final step pair and rhs_core =
    (1/d_{t+1} - 1/d_t)^2 * sum |x_k|^2 over the time-t support.
    """
    base = rng.standard_normal((trials, p.n0, p.d))
    sum_t1 = base.sum(axis=1)
    normsq_t1 = (base ** 2).sum(axis=(1, 2))
    d_t1 = np.full(trials, float(p.n0))
    for _ in range(p.steps):
        sum_t, normsq_t, d_t = sum_t1, normsq_t1, d_t1
        new = rng.standard_normal((trials, p.arrivals_per_step, p.d))
        joins = rng.random((trials, p.arrivals_per_step)) < p.attach_prob
        sum_t1 = sum_t + (new * joins[:, :, None]).sum(axis=1)
        normsq_t1 = normsq_t + ((new ** 2).sum(axis=2) * joins).sum(axis=1)
        d_t1 = d_t + joins.sum(axis=1)
    u_t = sum_t / d_t[:, None]
    u_t1 = sum_t1 / d_t1[:, None]
    rhs_core = (1.0 / d_t1 - 1.0 / d_t) ** 2 * normsq_t
    return u_t, u_t1, rhs_core


def _leaky(z: np.ndarray, beta: float) -> np.ndarray:
    return np.where(z >= 0.0, z, beta * z)


def empirical_distortion(u_t: np.ndarray, u_t1: np.ndarray, net: WidthNNet,
                         rng: np.random.Generator) -> tuple[float, float]:
    """Mean and standard error of (f_{t+1} - f_t)^2, one fresh perturbation
    per row of the (trials, d) support means; ``a`` is drawn before ``W``."""
    trials = u_t.shape[0]
    a_star, w_star, bias = net.optimum()
    a = a_star + rng.uniform(-net.xi, net.xi, size=(trials, net.n_units))
    w = w_star + rng.uniform(-net.xi, net.xi,
                             size=(trials, net.n_units, net.feature_dim))
    z_t = np.einsum("td,tnd->tn", u_t, w) + bias
    z_t1 = np.einsum("td,tnd->tn", u_t1, w) + bias
    f_t = (a * _leaky(z_t, net.beta)).sum(axis=1)
    f_t1 = (a * _leaky(z_t1, net.beta)).sum(axis=1)
    sq = (f_t1 - f_t) ** 2
    if not np.all(np.isfinite(sq)):
        bad = int(np.nonzero(~np.isfinite(sq))[0][0])
        raise FloatingPointError(f"non-finite distortion sample at trial {bad}")
    mean = float(sq.mean())
    se = float(sq.std(ddof=1) / np.sqrt(trials))
    return mean, se


@dataclass
class BoundReport:
    delta_hat: float
    se: float
    rhs_appendix: float
    rhs_eq7: float
    violations: int
    repetitions: int
    config: dict

    @property
    def passed(self) -> bool:
        return self.violations <= 0.05 * self.repetitions

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


def verify_bound(*, n_units: int = 4, xi: float = 0.5, beta: float = 0.2,
                 trials: int = 1000, repetitions: int = 20,
                 seed: int = 0) -> BoundReport:
    """Repeated one-sided check that distortion clears the lower bound.

    Each repetition estimates the distortion over ``trials`` ``GROWTH``
    paths and perturbations drawn from one generator, and the bound over
    ``trials`` more ``GROWTH`` paths drawn from another. A repetition fails when
    delta_hat + 2 SE < RHS (full-constant form); the overall check passes
    when at most 5% of repetitions fail.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if trials < 2:
        raise ValueError("trials must be >= 2")
    # "randomize" names what each trial draws afresh: growth and parameters
    config = {"n_units": n_units, "xi": xi, "beta": beta, **asdict(GROWTH),
              "trials": trials, "repetitions": repetitions, "seed": seed,
              "randomize": "both"}
    net = WidthNNet(n_units, GROWTH.d, xi, beta, seed)
    violations = 0
    deltas, ses, rhs_a, rhs_f = [], [], [], []
    for rep in range(repetitions):
        rep_seed = int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])
        rng = np.random.default_rng(rep_seed + 1)
        u_t, u_t1, _ = simulate_growth(rng, GROWTH, trials)
        delta, se = empirical_distortion(u_t, u_t1, net, rng)
        _, _, core = simulate_growth(np.random.default_rng(rep_seed + 2),
                                     GROWTH, trials)
        free = float(core.mean())
        appendix = net.constant * free
        deltas.append(delta)
        ses.append(se)
        rhs_a.append(appendix)
        rhs_f.append(free)
        if delta + 2.0 * se < appendix:
            violations += 1
    return BoundReport(delta_hat=float(np.mean(deltas)),
                       se=float(np.mean(ses)),
                       rhs_appendix=float(np.mean(rhs_a)),
                       rhs_eq7=float(np.mean(rhs_f)),
                       violations=violations, repetitions=repetitions,
                       config=config)


def default_sweep(trials: int = 1000, repetitions: int = 20, seed: int = 0,
                  widths=(1, 4, 16), xis=(0.1, 0.5), betas=(0.01, 0.2)) -> dict:
    """Grid of bound checks plus the width/distortion rank correlation."""
    from scipy.stats import spearmanr
    reports = []
    for xi in xis:
        for beta in betas:
            for n in widths:
                reports.append(verify_bound(n_units=n, xi=xi, beta=beta,
                                            trials=trials,
                                            repetitions=repetitions,
                                            seed=seed))
    group_corrs = []
    for xi in xis:
        for beta in betas:
            pts = [(r.config["n_units"], r.delta_hat) for r in reports
                   if r.config["xi"] == xi and r.config["beta"] == beta]
            if len(pts) >= 2:
                corr = spearmanr([p[0] for p in pts], [p[1] for p in pts]).statistic
                group_corrs.append(float(corr))
    rank_corr = float(np.mean(group_corrs)) if group_corrs else float("nan")
    return {"reports": [r.to_dict() for r in reports],
            "rank_correlation_width_vs_distortion": rank_corr,
            "all_pass": all(r.passed for r in reports)}
