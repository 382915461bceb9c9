"""Finite-difference verification of every loss through the full pipeline."""
import time

import numpy as np
import pytest

from gotham import autodiff as ad
from gotham import nn as network
from gotham.gradcheck import GRADCHECK_LOSSES, finite_diff_check, run_gradcheck

REPORTS = {f"{backbone}/{name}" for backbone in ("mean", "attention")
           for name in GRADCHECK_LOSSES}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_loss_passes_fd_on_random_instances(seed):
    reports = run_gradcheck(seed=seed, h=1e-4, tol=1e-4, n_coords=30)
    for name, rep in reports.items():
        assert rep.n_checked >= 10, f"{name}: too few usable coordinates"
        assert rep.passed, (f"{name}: max rel err {rep.max_rel_err:.3e} "
                            f"at {rep.worst}")


def test_gradcheck_covers_all_specified_losses():
    reports = run_gradcheck(seed=0, n_coords=10)
    assert set(reports) == REPORTS
    assert {"cluster_mean_hinge", "cluster_self_normalized", "seg", "sem",
            "kd_emb", "kd_align", "train_total",
            "finetune_total"} == set(GRADCHECK_LOSSES)


def test_injected_bug_is_caught():
    reports = run_gradcheck(seed=0, n_coords=30, inject_bug=True)
    # the invisible term touches gnn.0.weight; any loss sampling one of its
    # coordinates must fail, on either backbone
    for backbone in ("mean", "attention"):
        failed = [n for n, r in reports.items()
                  if n.startswith(backbone + "/") and not r.passed]
        assert failed, (f"negative control: corrupted {backbone} gradients "
                        "went undetected")


def test_gradcheck_runtime_budget():
    start = time.perf_counter()
    run_gradcheck(seed=3, n_coords=60)
    assert time.perf_counter() - start < 30.0


# -- finite differences --------------------------------------------------------

def test_fd_check_quadratic_tight():
    model = network.init_model(3, 4, 2, 2, seed=1)
    params = network.named_parameters(model)

    def loss():
        total = None
        for t in params.values():
            s = (t * t).sum() * 0.5
            total = s if total is None else total + s
        return total

    rep = finite_diff_check(params, loss, h=1e-4, tol=1e-4,
                            rng=np.random.default_rng(0), n_coords=40)
    assert rep.passed
    assert rep.max_rel_err < 1e-8


def test_fd_check_flags_kink():
    p = ad.parameter(np.zeros(1))
    params = {"w": p}

    def loss():
        return ad.maximum(params["w"], 0.0).sum()   # kink exactly at 0

    rep = finite_diff_check(params, loss, rng=np.random.default_rng(1),
                            n_coords=5)
    assert rep.n_kink_skipped == 1
    assert rep.n_checked == 0


def test_fd_check_catches_wrong_gradient():
    p = ad.parameter(np.array([1.0, 2.0]))
    params = {"w": p}

    def loss():
        # value depends on params but half of it is invisible to the tape
        return (params["w"] * params["w"]).sum() + \
            ad.constant(float(params["w"].data.sum()))

    rep = finite_diff_check(params, loss, rng=np.random.default_rng(2),
                            n_coords=2)
    assert not rep.passed
    assert rep.max_rel_err > 0.1


def nan_gradient(w):
    """sum(w), whose backward hands back NaN."""
    out = ad.Tensor(w.data.sum(), parents=(w,))
    out._backward = lambda g: (np.full(w.shape, np.nan),)
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("loss,start", [
    (nan_gradient, [1.0, 2.0]),
    # log(w - h) is NaN at w = 1e-5, h = 1e-4: a NaN one-sided slope
    (lambda w: ad.log(w).sum(), [1e-5, 1e-5]),
], ids=["nan-gradient", "nan-perturbed-loss"])
def test_fd_check_fails_a_coordinate_that_is_not_finite(loss, start):
    params = {"w": ad.parameter(np.array(start))}
    rep = finite_diff_check(params, lambda: loss(params["w"]),
                            rng=np.random.default_rng(0), n_coords=2)
    assert not rep.passed
    assert rep.max_rel_err == np.inf
    assert rep.worst == ("w", 0)
    assert rep.n_checked == 2

