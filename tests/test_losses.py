"""Loss oracles: analytic cases plus independent per-term summations."""
import numpy as np
import pytest

from gotham import autodiff as ad
from gotham.config import RunConfig
from gotham.losses import (LossParts, loss_cluster, loss_kd_align, loss_kd_emb,
                           loss_seg, loss_sem, loss_total)


def T(x):
    return ad.constant(np.asarray(x, dtype=np.float64))


# -- clustering ----------------------------------------------------------------

def test_cluster_zero_inside_boundary():
    emb = T([[0.0, 0.005], [0.003, 0.0]])
    protos = T([[0.0, 0.0]])
    out = loss_cluster(emb, {0: [0, 1]}, protos, gamma=0.01)
    assert out.item() == 0.0


def test_cluster_one_sample_at_gamma_plus_one():
    emb = T([[1.5 + 1.0, 0.0]])
    protos = T([[1.5, 0.0]])
    # distance gamma + 1 with gamma = 0 -> hinge exactly 1
    assert loss_cluster(emb, {0: [0]}, protos, gamma=0.0).item() == pytest.approx(1.0)
    emb2 = T([[0.01 + 1.0, 0.0]])
    protos2 = T([[0.0, 0.0]])
    assert loss_cluster(emb2, {0: [0]}, protos2, gamma=0.01).item() == pytest.approx(1.0)


def cluster_oracle(embeddings, members, prototypes, gamma, variant):
    """Direct per-term summation, kept independent of the library."""
    total = 0.0
    for row, idx in members.items():
        h = np.maximum(np.linalg.norm(embeddings[idx] - prototypes[row], axis=1)
                       - gamma, 0.0)
        if variant == "mean_hinge":
            total += h.mean()
        else:
            s = h.sum()
            total += (h ** 2).sum() / s if s > 0 else 0.0
    return total / len(members)


@pytest.mark.parametrize("variant", ["mean_hinge", "self_normalized"])
def test_cluster_matches_direct_oracle(variant):
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((8, 4))
    protos = rng.standard_normal((3, 4))
    # interleaved, unsorted member rows; row 1 is a prototype of no task class
    # and rows 2 and 5 of the embeddings belong to no member set
    members = {2: np.array([6, 0, 3]), 0: np.array([7, 1, 4])}
    got = loss_cluster(T(emb), members, T(protos), 0.5, variant)
    want = cluster_oracle(emb, members, protos, 0.5, variant)
    assert got.item() == pytest.approx(want, abs=1e-12)


def test_cluster_rejects_an_empty_member_set():
    with pytest.raises(ValueError, match="no extended-support"):
        loss_cluster(T(np.ones((2, 3))), {0: [0, 1], 1: []}, T(np.zeros((2, 3))),
                     0.1)


def test_cluster_raw_printed_form_is_degenerate():
    # the un-squared self-normalized sum equals 1 per class whenever any
    # hinge is active, carrying no gradient signal; this pins down why the
    # squared-numerator variant is the selectable fallback, not the raw form
    rng = np.random.default_rng(1)
    for _ in range(2):
        emb = rng.standard_normal((4, 3)) * 3.0
        proto = rng.standard_normal(3)
        h = np.maximum(np.linalg.norm(emb - proto, axis=1) - 0.01, 0.0)
        assert h.sum() > 0
        raw = (h / h.sum()).sum()
        assert raw == pytest.approx(1.0, abs=1e-12)


def test_cluster_nonnegative_property():
    rng = np.random.default_rng(2)
    for trial in range(10):
        sizes = rng.integers(1, 5, size=3)
        emb = T(rng.standard_normal((sizes.sum(), 3)))
        members = dict(enumerate(np.split(np.arange(sizes.sum()),
                                          np.cumsum(sizes)[:-1])))
        protos = T(rng.standard_normal((3, 3)))
        for variant in ("mean_hinge", "self_normalized"):
            assert loss_cluster(emb, members, protos, 0.1, variant).item() >= 0.0


# -- segregation ----------------------------------------------------------------

def test_seg_two_prototypes_at_distance_e():
    protos = T([[0.0, 0.0], [np.e, 0.0]])
    assert loss_seg(protos, 1e-8).item() == pytest.approx(-1.0, abs=1e-9)


def test_seg_distance_one_is_zero():
    protos = T([[0.0], [1.0]])
    assert loss_seg(protos, 1e-8).item() == pytest.approx(0.0, abs=1e-12)


def test_seg_coincident_guarded():
    eps = 1e-8
    protos = T([[1.0, 1.0], [1.0, 1.0], [5.0, 0.0]])
    out = loss_seg(protos, eps).item()
    assert np.isfinite(out)
    # pair (0,1) twice at the floor; the other four pairs at real distances
    d02 = np.linalg.norm([4.0, 1.0])
    expected = -(2 * np.log(eps) + 2 * np.log(d02) + 2 * np.log(d02)) / 3
    assert out == pytest.approx(expected, rel=1e-9)


def test_seg_single_prototype_warns_zero():
    with pytest.warns(UserWarning):
        out = loss_seg(T([[1.0, 2.0]]), 1e-8)
    assert out.item() == 0.0


def test_seg_matches_pairwise_oracle():
    rng = np.random.default_rng(3)
    protos = rng.standard_normal((5, 4))
    got = loss_seg(T(protos), 1e-8).item()
    acc = 0.0
    for j in range(5):
        for p in range(5):
            if p != j:
                acc += np.log(max(np.linalg.norm(protos[j] - protos[p]), 1e-8))
    assert got == pytest.approx(-acc / 5, rel=1e-12)


def test_seg_decreases_as_distance_grows():
    vals = [loss_seg(T([[0.0], [d]]), 1e-8).item()
            for d in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_seg_stable_when_two_prototypes_nearly_coincide():
    """A 4e-16 relative nudge of one of two 512-d prototypes 1e-6 apart moves
    the loss by rounding only, where |p_i|^2 + |p_j|^2 - 2 p_i.p_j cancels."""
    rng = np.random.default_rng(8)
    p = rng.standard_normal(512)
    u = rng.standard_normal(512)
    q = p + 1e-6 * u / np.linalg.norm(u)
    base = loss_seg(T(np.stack([p, q])), 1e-8).item()
    nudged = loss_seg(T(np.stack([p * (1 + 4e-16), q])), 1e-8).item()
    assert abs(nudged - base) < 1e-9 * abs(base)


# -- semantic alignment -----------------------------------------------------------

def test_sem_zero_when_aligned():
    enc = T([[1.0, 2.0], [3.0, 4.0]])
    protos = T([[1.0, 2.0], [3.0, 4.0]])
    assert loss_sem(enc, protos).item() == 0.0


def test_sem_three_four_five():
    enc = T([[3.0, 4.0]])
    protos = T([[0.0, 0.0]])
    assert loss_sem(enc, protos).item() == pytest.approx(5.0)


def test_sem_matches_direct_oracle():
    rng = np.random.default_rng(4)
    enc = rng.standard_normal((4, 6))
    protos = rng.standard_normal((4, 6))
    got = loss_sem(T(enc), T(protos)).item()
    want = sum(np.linalg.norm(enc[c] - protos[c]) for c in range(4))
    assert got == pytest.approx(want, abs=1e-12)


def test_sem_missing_class_rejected():
    # one encoded row for two seen prototypes would broadcast silently
    with pytest.raises(ValueError, match="differ in shape"):
        loss_sem(T([[1.0]]), T([[1.0], [2.0]]))


# -- distillation -----------------------------------------------------------------

def test_kd_emb_identical_zero():
    x = np.random.default_rng(5).standard_normal((4, 3))
    assert loss_kd_emb(x, T(x)).item() == 0.0


def test_kd_emb_unit_offsets():
    teacher = np.zeros((2, 3))
    student = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert loss_kd_emb(teacher, T(student)).item() == pytest.approx(1.0)


def test_kd_emb_matches_oracle():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    want = np.linalg.norm(a - b, axis=1).mean()
    assert loss_kd_emb(a, T(b)).item() == pytest.approx(want, abs=1e-12)


def kd_emb_value_and_grad(teacher, student):
    s = ad.parameter(student)
    loss = loss_kd_emb(teacher, s)
    ad.backward(loss)
    return loss.item(), s.grad


def test_kd_emb_guard_keeps_zero_rows_and_rows_above_the_threshold():
    rng = np.random.default_rng(8)
    teacher = rng.standard_normal((4, 8))
    student = teacher.copy()
    student[2:] += 1e-9 * rng.standard_normal((2, 8))     # far above rounding
    value, grad = kd_emb_value_and_grad(teacher, student)
    diff = student - teacher
    norms = np.linalg.norm(diff, axis=1)
    assert value == pytest.approx(norms.mean(), rel=1e-14)
    want = np.zeros_like(diff)
    want[2:] = diff[2:] / norms[2:, None] / 4
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=0)


def test_kd_emb_empty_set_zero():
    assert loss_kd_emb(np.zeros((0, 3)), None).item() == 0.0


def test_kd_align_identical_orthogonal_antiparallel():
    v = np.array([[1.0, 2.0, 2.0]])
    assert loss_kd_align(v, T(v)).item() == pytest.approx(0.0, abs=1e-12)
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert loss_kd_align(a, T(b)).item() == pytest.approx(1.0, abs=1e-12)
    assert loss_kd_align(a, T(-a)).item() == pytest.approx(2.0, abs=1e-12)


def test_kd_align_range_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        val = loss_kd_align(a, T(b)).item()
        assert 0.0 <= val <= 2.0


def test_kd_align_norm_guard_contributes_one():
    teacher = np.array([[0.0, 0.0], [1.0, 0.0]])
    student = T(np.array([[1.0, 1.0], [1.0, 0.0]]))
    # first row guarded (teacher norm 0) -> 1; second row identical -> 0
    assert loss_kd_align(teacher, student).item() == pytest.approx(0.5, abs=1e-12)


def test_kd_align_empty_zero():
    assert loss_kd_align(np.zeros((0, 2)), None).item() == 0.0


# -- the weighted total -------------------------------------------------------------

def parts(c=0.3, s=-0.7, m=1.1, e=None, a=None):
    """Loss parts as constants; a distillation part is set only when given."""
    return LossParts(cluster=T(c), seg=T(s), sem=T(m),
                     kd_emb=None if e is None else T(e),
                     kd_align=None if a is None else T(a))


def test_train_total_table_weights():
    cfg = RunConfig()          # alpha = (1, 0.25, 1)
    total = loss_total(parts(), cfg)
    assert total.item() == pytest.approx(1.0 * 0.3 + 0.25 * -0.7 + 1.0 * 1.1)


def test_train_total_skips_unset_sem():
    p = parts()
    p.sem = None
    total = loss_total(p, RunConfig())
    assert total.item() == pytest.approx(0.3 + 0.25 * -0.7)


def test_train_total_zero_parts():
    assert loss_total(parts(0, 0, 0), RunConfig()).item() == 0.0


def test_finetune_total_hand_sum():
    cfg = RunConfig(alpha4=2.0, lambda1=1.0, lambda2=1.0)
    total = loss_total(parts(e=0.2, a=0.4), cfg)
    want = 0.3 + 0.25 * -0.7 + 1.1 + 2.0 * (0.2 + 0.4)
    assert total.item() == pytest.approx(want)


def test_finetune_total_skips_unset_sem_and_align():
    p = parts(e=0.2)
    p.sem = None
    total = loss_total(p, RunConfig(alpha4=1.0))
    want = 0.3 + 0.25 * -0.7 + 1.0 * 0.2
    assert total.item() == pytest.approx(want)


def test_finetune_alpha4_zero_reduces_to_train():
    cfg = RunConfig(alpha4=0.0)
    assert (loss_total(parts(e=0.2, a=0.4), cfg).item()
            == loss_total(parts(), cfg).item())


def test_total_keeps_the_operation_order():
    """alpha1 c + alpha2 s + alpha3 m, then + alpha4 (lambda1 e + lambda2 a),
    left to right, so a run's logged totals keep their bits."""
    cfg = RunConfig(alpha1=0.7, alpha2=0.3, alpha3=1.3, alpha4=0.9,
                    lambda1=1.1, lambda2=0.6)
    # values where each other grouping or expansion rounds differently
    c, s, m, e, a = -1.8, -2.0, 1.9, -0.8, 0.4
    want = (0.7 * c + 0.3 * s + 1.3 * m) + 0.9 * (1.1 * e + 0.6 * a)
    assert want != 0.7 * c + 0.3 * s + 1.3 * m + 0.9 * 1.1 * e + 0.9 * 0.6 * a
    assert loss_total(parts(c, s, m, e, a), cfg).item() == want


# -- shared properties ---------------------------------------------------------------

def test_translation_invariance_exact():
    # integer-valued data keeps float arithmetic exact under the shift
    rng = np.random.default_rng(8)
    emb = rng.integers(-5, 5, size=(9, 4)).astype(float)
    protos = rng.integers(-5, 5, size=(3, 4)).astype(float)
    members = {c: np.arange(3 * c, 3 * c + 3) for c in range(3)}
    shift = np.array([2.0, -8.0, 16.0, 4.0])

    before_c = loss_cluster(T(emb), members, T(protos), 0.5).item()
    after_c = loss_cluster(T(emb + shift), members, T(protos + shift), 0.5).item()
    assert before_c == after_c

    before_s = loss_seg(T(protos), 1e-8).item()
    after_s = loss_seg(T(protos + shift), 1e-8).item()
    assert before_s == after_s

