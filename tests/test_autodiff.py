"""Engine unit tests: each op against central finite differences, and the
leaf gradients of the tape against the engine it replaced."""
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gotham import autodiff as ad


def fd_grad(f, x0, h=1e-6):
    """Central-difference gradient of scalar f at x0 (independent oracle)."""
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_against_fd(build, x0, h=1e-6, tol=1e-7):
    t = ad.parameter(x0)
    loss = build(t)
    ad.backward(loss)
    numeric = fd_grad(lambda x: build(ad.constant(x)).item(), x0, h)
    np.testing.assert_allclose(t.grad, numeric, rtol=tol, atol=tol)


def test_add_mul_broadcast_grad():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((3, 4))
    bias = rng.standard_normal(4)
    check_against_fd(lambda t: ((t + ad.constant(bias)) * t).sum(), x0)


def test_matmul_grad_both_sides():
    rng = np.random.default_rng(1)
    a0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal((4, 2))
    check_against_fd(lambda t: (t @ ad.constant(b0)).sum(), a0)
    check_against_fd(lambda t: (ad.constant(a0) @ t).sum(), b0)


def test_chained_ops_grad():
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((4, 3)) + 2.0
    w = rng.standard_normal((3, 3))

    def build(t):
        y = ad.leaky_relu(t @ ad.constant(w), 0.1)
        z = ad.sqrt(ad.maximum((y * y).sum(axis=1), 1e-12))
        return ad.log(z + 1.0).mean()

    check_against_fd(build, x0)


def test_div_exp_grad():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((5,))
    check_against_fd(lambda t: (ad.exp(t) / (t * t + 1.0)).sum(), x0)


def test_sparse_matmul_matches_dense():
    rng = np.random.default_rng(4)
    m = sp.random(6, 5, density=0.4, random_state=7, format="csr")
    x0 = rng.standard_normal((5, 3))

    t1 = ad.parameter(x0)
    out1 = (ad.sparse_matmul(m, t1) * ad.sparse_matmul(m, t1)).sum()
    ad.backward(out1)

    t2 = ad.parameter(x0)
    md = ad.constant(m.toarray())
    out2 = ((md @ t2) * (md @ t2)).sum()
    ad.backward(out2)

    assert out1.item() == pytest.approx(out2.item(), rel=1e-12)
    np.testing.assert_allclose(t1.grad, t2.grad, rtol=1e-12)


def test_gather_rows_scatter_adds():
    x0 = np.arange(12, dtype=float).reshape(4, 3)
    t = ad.parameter(x0)
    out = ad.gather_rows(t, [1, 1, 3]).sum()
    ad.backward(out)
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(t.grad, expected)


def test_vstack_grad_splits():
    a = ad.parameter(np.ones((2, 3)))
    b = ad.parameter(np.ones(3))
    out = (ad.vstack([a, b.reshape(1, -1)]) * np.arange(9.0).reshape(3, 3)).sum()
    ad.backward(out)
    np.testing.assert_array_equal(a.grad, np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(b.grad, np.array([6.0, 7.0, 8.0]))


def test_shared_subgraph_accumulates():
    x = ad.parameter(np.array([2.0]))
    y = x * x          # reused twice
    loss = (y + y).sum()
    ad.backward(loss)
    assert x.grad[0] == pytest.approx(8.0)


def test_maximum_tie_uses_positive_side():
    x = ad.parameter(np.array([0.0, -1.0, 1.0]))
    out = ad.maximum(x, 0.0).sum()
    ad.backward(out)
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 1.0])


def test_leaky_relu_slope_and_origin():
    x = ad.parameter(np.array([-2.0, 0.0, 3.0]))
    out = ad.leaky_relu(x, 0.25).sum()
    ad.backward(out)
    np.testing.assert_array_equal(x.grad, [0.25, 1.0, 1.0])


def test_backward_requires_scalar():
    x = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(x + 1.0)


def test_constant_loss_zero_grad():
    x = ad.parameter(np.ones(3))
    loss = ad.constant(5.0) + x.sum() * 0.0
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, np.zeros(3))


# -- the lean tape against the engine it replaced -------------------------------

def backward_oracle(loss):
    """The former engine: every reached node keeps a copy of its gradient and
    first contributions are copied before being added to in place. A tape
    node has no ``.grad``, so the copies are kept by node id and returned; a
    parameter is its own node."""
    root = loss._tape_node
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    grads, kept = {id(root): np.ones_like(loss.data)}, {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if id(node) not in kept:
            kept[id(node)] = g.copy()
        else:
            kept[id(node)] += g
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = pg.astype(np.float64, copy=True)
            else:
                acc += pg
    return kept


def leaky_relu_oracle(x, slope):
    pos = x.data >= 0.0
    out = ad.Tensor(np.where(pos, x.data, slope * x.data), parents=(x,))
    if out.requires_grad:
        scale = np.where(pos, 1.0, slope)
        out._backward = lambda g: (g * scale,)
    return out


def matmul_oracle(x, y):
    """The former matmul node: it returns both operands' gradients."""
    out = ad.Tensor(x.data @ y.data, parents=(x, y))
    if out.requires_grad:
        a, b = x.data, y.data
        out._backward = lambda g: (g @ b.T, a.T @ g)
    return out


def affine_oracle(x, w, b):
    """``x @ w + b`` as two nodes, a product and a broadcast add."""
    return matmul_oracle(x, w) + b


def gather_rows_oracle(x, idx):
    idx = np.asarray(idx, dtype=np.int64)
    out = ad.Tensor(x.data[idx], parents=(x,))
    if out.requires_grad:
        shape = x.data.shape
        def bw(g):
            full = np.zeros(shape)
            np.add.at(full, idx, g)
            return (full,)
        out._backward = bw
    return out


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-320, -1e-320, 2.5, -3.0]


@st.composite
def tapes(draw):
    """Leaves of one (rows, cols) shape plus a bias and a square weight, and a
    random op sequence over them, reusing nodes so subgraphs are shared.

    ``affine`` and ``cmatmul`` take a constant operand when their flag is set:
    affine's input, or one side of the product."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = st.one_of(st.floats(-3, 3), st.sampled_from(SPECIAL))
    def array(shape):
        return np.asarray(draw(st.lists(values, min_size=int(np.prod(shape)),
                                        max_size=int(np.prod(shape)))),
                          dtype=np.float64).reshape(shape)
    n_leaves = draw(st.integers(1, 3))
    leaves = [array((rows, cols)) for _ in range(n_leaves)]
    bias, weight = array((cols,)), array((cols, cols))
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["add", "sub", "mul", "relu", "gather",
                                   "bias", "matmul", "cmatmul", "affine"]))
        a = draw(st.integers(0, 100))
        b = draw(st.integers(0, 100))
        idx = draw(st.lists(st.integers(0, rows - 1), min_size=rows, max_size=rows))
        ops.append((op, a, b, idx, draw(st.sampled_from([0.01, 0.25, 1.0])),
                    draw(st.booleans())))
    return leaves, bias, weight, ops, draw(st.integers(0, 100))


LEAN = {"relu": ad.leaky_relu, "gather": ad.gather_rows, "affine": ad.affine,
        "matmul": lambda x, y: x @ y}
FORMER = {"relu": leaky_relu_oracle, "gather": gather_rows_oracle,
          "affine": affine_oracle, "matmul": matmul_oracle}


def build_tape(case, engine):
    """The case's loss and its leaves, built with ``engine``'s ops."""
    leaves, bias, weight, ops, pick = case
    relu, gather, affine, matmul = (engine[k] for k in
                                    ("relu", "gather", "affine", "matmul"))
    params = [ad.parameter(x) for x in leaves]
    b, w = ad.parameter(bias), ad.parameter(weight)
    nodes = list(params)
    for op, i, j, idx, slope, const in ops:
        x, y = nodes[i % len(nodes)], nodes[j % len(nodes)]
        nodes.append({"add": lambda: x + y, "sub": lambda: x - y,
                      "mul": lambda: x * y, "relu": lambda: relu(x, slope),
                      "gather": lambda: gather(x, idx), "bias": lambda: x + b,
                      "matmul": lambda: matmul(x, w),
                      "cmatmul": lambda: (matmul(ad.constant(x.data), w) if const
                                          else matmul(x, ad.constant(weight))),
                      "affine": lambda: affine(ad.constant(x.data) if const else x,
                                               w, b)}[op]())
    loss = (nodes[-1] + nodes[pick % len(nodes)]).sum()
    return loss, params + [b, w], nodes


# special values make inf - inf and 0 * inf on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(tapes())
def test_lean_backward_matches_former_engine_bit_for_bit(case):
    loss, leaves, nodes = build_tape(case, LEAN)
    ad.backward(loss)
    got = [t.grad for t in leaves]
    # intermediate nodes keep no gradient
    assert all(n.grad is None for n in nodes[len(case[0]):])
    assert loss.grad is None

    want_loss, want_leaves, _ = build_tape(case, FORMER)
    assert same_bits(loss.data, want_loss.data)
    kept = backward_oracle(want_loss)
    for g, t in zip(got, want_leaves):
        want = kept.get(id(t))
        if want is None:
            assert g is None
        else:
            assert same_bits(g, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_leaky_relu_equals_former_formula_on_special_values():
    x0 = np.asarray(SPECIAL + [-1e308, 1e308, 5e-324, -5e-324])
    for slope in (0.0, 1e-300, 0.01, 0.5, 1.0):
        x, y = ad.parameter(x0), ad.parameter(x0)
        out, want = ad.leaky_relu(x, slope), leaky_relu_oracle(y, slope)
        assert same_bits(out.data, want.data)
        weights = np.linspace(-2.0, 2.0, x0.size)
        ad.backward((out * weights).sum())
        kept = backward_oracle((want * weights).sum())
        assert same_bits(x.grad, kept[id(y)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.floats(0.0, 1.0), st.sampled_from([5e-324, 2.2e-308, 0.5,
                                                       1.0 - 2**-53])))
def test_leaky_relu_scale_is_exact_for_slopes_in_unit_interval(slope):
    x = ad.parameter(np.array([-2.0, -0.0, 0.0, 3.0, -5e-324]))
    out, want = ad.leaky_relu(x, slope), leaky_relu_oracle(x, slope)
    assert same_bits(out.data, want.data)
    ad.backward(out.sum())
    assert same_bits(x.grad, [slope, 1.0, 1.0, 1.0, slope])


def test_affine_is_one_node_and_skips_a_constant_inputs_gradient():
    rng = np.random.default_rng(10)
    x0, w0, b0 = (rng.standard_normal((3, 2)), rng.standard_normal((2, 4)),
                  rng.standard_normal(4))
    w, b = ad.parameter(w0), ad.parameter(b0)
    g = rng.standard_normal((3, 4))
    for x in (ad.constant(x0), ad.parameter(x0)):
        out = ad.affine(x, w, b)
        # one node: its parents are the operands' own nodes, no product node;
        # a parameter is its own node and a constant stands as _CONSTANT
        assert out._parents == (x if x.requires_grad else ad._CONSTANT, w, b)
        assert not ad._CONSTANT.requires_grad
        assert same_bits(out.data, x0 @ w0 + b0)
        gx, gw, gb = out._backward(g)
        assert (gx is None) == (not x.requires_grad)
        if gx is not None:
            assert same_bits(gx, g @ w0.T)
        assert same_bits(gw, x0.T @ g) and same_bits(gb, g.sum(axis=0))
    # the constant operand of a product gets no gradient computed either
    gc, gw = (ad.constant(x0) @ w)._backward(g)
    assert gc is None and same_bits(gw, x0.T @ g)


def same_sums(a, b):
    """``same_bits``, except that a nan matches any nan: IEEE 754 leaves the
    sign and payload of a sum of two nans unspecified, and ``np.add.at``
    itself (numpy 2.4, x86-64) sums -nan + nan to -nan on a 1-D operand and
    to +nan on a 2-D one."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and same_bits(np.where(nan, 0.0, a), np.where(nan, 0.0, b)))


def special_rows(n_rows: int, width: int, turn: int) -> np.ndarray:
    """Gradient rows of ``width`` values from ``SPECIAL``. Over the columns
    and turns, the values of rows 0 and 1 run through every pair, so each
    sum of two repeated terms meets -0.0, +-inf and nan on both sides."""
    c = turn * width + np.arange(width)
    base = len(SPECIAL)
    digits = [(c // base ** i) % base if i < 2 else (c + 3 * i) % base
              for i in range(n_rows)]
    return np.asarray(SPECIAL)[np.stack(digits)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", [(5,), (5, 1), (5, 2), (5, 512)])
@pytest.mark.parametrize("idx", [
    [2, 0, 1], [1, 4, 0], [0, 0, 3], [4, 4, 1, 4, 4], [[0, 3], [3, 0], [1, 0]],
    [[2, 0], [1, 4]]])
def test_gather_rows_scatters_like_add_at(shape, idx):
    """Without repeats the engine scatters a row contribution; with them
    the backward sums into zeros (bincount one value wide, else the CSC
    selection product): both give ``np.add.at``'s sums, on a 1-D operand
    and a 2-D index too."""
    idx = np.asarray(idx)
    width = int(np.prod(shape[1:]))
    for turn in range(-(-len(SPECIAL) ** 2 // width)):
        g = special_rows(idx.size, width, turn).reshape(idx.shape + shape[1:])
        x, y = ad.parameter(np.ones(shape)), ad.parameter(np.ones(shape))
        ad.backward((ad.gather_rows(x, idx) * g).sum())
        ad.backward((gather_rows_oracle(y, idx) * g).sum())
        assert same_sums(x.grad, y.grad), turn


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("width", [1, 2, 512])
@pytest.mark.parametrize("kinds", [("repeat", "dense", "rows"),
                                   ("rows", "repeat", "dense"),
                                   ("dense", "rows", "repeat")])
def test_repeated_gather_beside_dense_and_row_contributions(kinds, width):
    """A repeated gather's parent also takes a dense and a row contribution,
    in each order; its gradient equals the former engine's, with
    ``np.add.at`` gathers."""
    terms = {"repeat": [0, 3, 0, 3, 1], "rows": [3, 0, 2], "dense": None}
    def tape(gather):
        x = ad.parameter(np.ones((4, width)))
        loss = ad.constant(0.0)
        for turn, kind in enumerate(kinds):
            idx = terms[kind]
            term = x * 2.0 if idx is None else gather(x, idx)
            g = special_rows(term.shape[0], width, turn)
            loss = loss + (term * g).sum()
        return loss, x
    loss, x = tape(ad.gather_rows)
    ad.backward(loss)
    want_loss, y = tape(gather_rows_oracle)
    assert same_sums(x.grad, backward_oracle(want_loss)[id(y)])


def test_parameter_accumulates_across_backward_calls():
    x = ad.parameter(np.array([1.0, 2.0]))
    ad.backward((x * x).sum())
    ad.backward((x * 3.0).sum())
    np.testing.assert_array_equal(x.grad, [5.0, 7.0])


def test_leaves_fed_one_gradient_array_do_not_share_it():
    # add's backward hands the same array to both parents
    a, b = ad.parameter(np.ones(3)), ad.parameter(np.ones(3))
    ad.backward((a + b).sum())
    ad.backward((a * 2.0).sum())
    np.testing.assert_array_equal(a.grad, [3.0, 3.0, 3.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])


# -- a sparse matrix whose entries are a tensor ----------------------------------

@st.composite
def csr_products(draw):
    """A CSR pattern (rows may be empty, columns may repeat), entries, a dense
    right-hand side, output weights, and a block size in entries for the
    backward's gathers.

    The block spans 1 to 4 nonzeros (d array entries each), so nnz (0 to 12)
    falls below, on and above it, with a partial last block.
    """
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    d = draw(st.integers(1, 4))
    nnz = draw(st.integers(0, 12))
    row = np.sort(np.asarray(draw(st.lists(st.integers(0, n_rows - 1),
                                           min_size=nnz, max_size=nnz)), dtype=np.int64))
    indices = np.asarray(draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz,
                                       max_size=nnz)), dtype=np.int64)
    indptr = np.searchsorted(row, np.arange(n_rows + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.standard_normal((nnz, 1)), indices, indptr,
            rng.standard_normal((n_cols, d)), rng.standard_normal((n_rows, d)),
            draw(st.integers(1, 4)) * d)


def rows_of(indptr):
    """Each CSR entry's row, as ``ad.csr_matmul`` takes it."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def dense_of(values, indices, indptr, n_cols):
    """``dense(values)`` as a tensor: each entry scattered to its (row, col)."""
    n_rows, row = indptr.size - 1, rows_of(indptr)
    scatter = sp.csr_matrix((np.ones(indices.size), (row * n_cols + indices,
                                                     np.arange(indices.size))),
                            shape=(n_rows * n_cols, indices.size))
    return ad.sparse_matmul(scatter, values).reshape(n_rows, n_cols)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(csr_products())
def test_csr_matmul_matches_dense_oracle(case):
    v0, indices, indptr, x0, weights, block = case
    results = []
    for product in (lambda v, x: ad.csr_matmul(v, indices, indptr, x,
                                               rows_of(indptr)),
                    lambda v, x: dense_of(v, indices, indptr, x0.shape[0]) @ x):
        v, x = ad.parameter(v0), ad.parameter(x0)
        with mock.patch.object(ad, "_GATHER_BLOCK", block):
            out = product(v, x)
        ad.backward((out * weights).sum())
        results.append((out.data, v.grad, x.grad))
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_csr_matmul_grad_matches_finite_differences():
    rng = np.random.default_rng(8)
    indptr = np.array([0, 2, 2, 3, 6])             # an empty row, a one-entry row
    indices = np.array([0, 3, 1, 2, 0, 3])
    v0 = rng.standard_normal((6, 1))
    x0 = rng.standard_normal((4, 3))
    weights = rng.standard_normal((4, 3))
    row = rows_of(indptr)
    check_against_fd(lambda t: (ad.csr_matmul(t, indices, indptr, ad.constant(x0),
                                              row) * weights).sum(), v0)
    check_against_fd(lambda t: (ad.csr_matmul(ad.constant(v0), indices, indptr, t,
                                              row) * weights).sum(), x0)


def test_csr_matmul_grads_accumulate_with_other_ops():
    rng = np.random.default_rng(9)
    indptr, indices = np.array([0, 1, 3]), np.array([2, 0, 2])
    v0, x0 = rng.standard_normal((3, 1)), rng.standard_normal((3, 2))
    w = rng.standard_normal((2, 2))
    grads = []
    for product in (lambda v, x: ad.csr_matmul(v, indices, indptr, x,
                                               rows_of(indptr)),
                    lambda v, x: dense_of(v, indices, indptr, 3) @ x):
        v, x = ad.parameter(v0), ad.parameter(x0)
        loss = (product(v, x) @ w).sum() + (v * v).sum() + (x @ w).sum()
        ad.backward(loss)
        grads.append((v.grad, x.grad))
    for got, want in zip(*grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def sparse_matmul_oracle(m, x):
    """The former sparse product: its backward multiplies by a stored CSR
    transpose."""
    m_t = m.T.tocsr()
    out = ad.Tensor(m @ x.data, parents=(x,))
    if out.requires_grad:
        out._backward = lambda g: (m_t @ g,)
    return out


def sparse_operators():
    """A random CSR with an empty row and an empty column, a pick-style CSR
    of two ones per row, and the one-entry-per-row ``segment.T`` (CSC) of a
    segment CSR that sums each row's entries."""
    rng = np.random.default_rng(11)
    m = sp.random(40, 30, density=0.15, format="lil", random_state=1)
    m[3, :] = 0.0
    m[:, 7] = 0.0
    m = m.tocsr()
    m.eliminate_zeros()
    assert m.getnnz(axis=1)[3] == 0 and m.getnnz(axis=0)[7] == 0
    n_cols, nnz = 12, 50
    picked = np.stack([2 * rng.integers(0, n_cols, nnz),
                       2 * rng.integers(0, n_cols, nnz) + 1], axis=1)
    pick = sp.csr_matrix((np.ones(2 * nnz), picked.ravel(),
                          np.arange(0, 2 * nnz + 1, 2)), shape=(nnz, 2 * n_cols))
    indptr = np.concatenate([[0], np.cumsum(rng.integers(1, 5, 9))])
    segment = sp.csr_matrix((np.ones(indptr[-1]), np.arange(indptr[-1]), indptr),
                            shape=(9, indptr[-1]))
    return m, pick, segment.T


def test_sparse_matmul_backward_through_the_transpose_view_equals_a_csr_transpose():
    """The product, and the gradient through ``m.T``, scipy's view of ``m``,
    equal bit for bit those of a backward through a stored CSR transpose, on
    each operator of ``sparse_operators`` at one, five and 512 columns."""
    rng = np.random.default_rng(10)
    for m in sparse_operators():
        for width in (1, 5, 512):
            x0 = rng.standard_normal((m.shape[1], width))
            w = rng.standard_normal((m.shape[0], width))
            results = []
            for product in (ad.sparse_matmul, sparse_matmul_oracle):
                x = ad.parameter(x0)
                out = product(m, x)
                ad.backward((out * w).sum())
                results.append((out.data.tobytes(), x.grad.tobytes()))
            assert results[0] == results[1]


def test_csr_matmul_computes_no_gradient_for_a_constant_operand():
    indptr, indices = np.array([0, 1, 3]), np.array([2, 0, 2])
    rng = np.random.default_rng(12)
    v0, x0 = rng.standard_normal((3, 1)), rng.standard_normal((3, 2))
    g = rng.standard_normal((2, 2))
    row = rows_of(indptr)
    out = ad.csr_matmul(ad.parameter(v0), indices, indptr, ad.constant(x0), row)
    dv, dx = out._backward(g)
    assert dx is None and dv.shape == v0.shape
    out = ad.csr_matmul(ad.constant(v0), indices, indptr, ad.parameter(x0), row)
    dv, dx = out._backward(g)
    assert dv is None and dx.shape == x0.shape


# -- no tape ----------------------------------------------------------------------

def test_no_grad_results_have_no_node():
    rng = np.random.default_rng(13)
    x, w = ad.parameter(rng.standard_normal((3, 2))), ad.parameter(np.eye(2))
    b, v = ad.parameter(np.ones(2)), ad.parameter(np.ones((4, 1)))
    indptr, indices = np.array([0, 1, 4]), np.array([2, 0, 1, 2])
    with ad.no_grad():
        outs = [x + 1.0, x - 1.0, x * x, x / 2.0, -x, x @ w,
                ad.affine(x, w, b), ad.leaky_relu(x, 0.1), ad.maximum(x, 0.0),
                ad.sqrt(x * x), ad.log(x * x + 1.0), ad.exp(x),
                ad.vstack([x, x]), ad.gather_rows(x, [2, 0]), x.sum(),
                x.mean(axis=0), x.transpose(), x.reshape(6),
                ad.sparse_matmul(sp.eye(3, format="csr"), x),
                ad.csr_matmul(v, indices, indptr, x, rows_of(indptr))]
        made = ad.parameter(np.zeros(2))
    for out in outs:
        assert not out.requires_grad
        assert out._node is None and out._tape_node is ad._CONSTANT
    # a parameter made inside still needs its gradient, and after the block
    # results are taped again
    assert made.requires_grad and (made * 2.0).requires_grad
    assert (x * x)._node is not None


def taped():
    """Whether an operation on a parameter is recorded right now."""
    return (ad.parameter(np.ones(2)) * 2.0).requires_grad


def test_no_grad_restores_the_mode_after_nesting_and_an_exception():
    assert taped()
    with ad.no_grad():
        with ad.no_grad():
            assert not taped()
        assert not taped()
    assert taped()
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("inside")
    assert taped()
    with ad.no_grad():
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("nested")
        assert not taped()
    assert taped()


# -- the arrays the engine writes ------------------------------------------------

def spy_tape(loss):
    """Wrap every backward function on ``loss``'s tape and log what it does.

    ``shared`` holds each returned array that another may hold (the gradient
    the function was handed, a view, or one returned for two parents) with
    a copy taken on return; ``captured`` each array a function captured with
    a copy taken now; ``relu`` whether each in-place function was handed an
    owned gradient, and ``handed`` that gradient by its node's id;
    ``returned`` every array returned. A row contribution's rows are the
    gradient the function was handed, so they count as shared; ``arrivals``
    lists ``(parent, "rows" or "array")`` for every returned gradient, in
    the order the engine receives them.
    """
    log = {"shared": [], "captured": [], "relu": [], "handed": {},
           "returned": [], "arrivals": []}
    seen, stack = set(), [loss._tape_node]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        fn = node._backward
        if fn is None:
            continue
        for cell in fn.__closure__ or ():
            if isinstance(cell.cell_contents, np.ndarray):
                log["captured"].append((cell.cell_contents,
                                        cell.cell_contents.copy()))

        def spy(g, *owned, fn=fn, node=node, in_place=node._in_place):
            before = g.copy()
            out = fn(g, *owned)
            if in_place:
                log["relu"].append(bool(owned and owned[0]))
                log["handed"][id(node)] = g
                if not log["relu"][-1]:
                    assert same_bits(g, before)
            for parent, pg in zip(node._parents, out):
                if isinstance(pg, ad._Rows):
                    log["arrivals"].append((parent, "rows"))
                    log["shared"].append((pg.rows, pg.rows.copy()))
                elif isinstance(pg, np.ndarray):
                    log["arrivals"].append((parent, "array"))
                    log["returned"].append(pg)
                    if (pg is g or pg.base is not None
                            or sum(p is pg for p in out) > 1):
                        log["shared"].append((pg, pg.copy()))
            return out
        node._backward = spy
    return log


def assert_nothing_shared_was_written(log):
    for array, copy in log["shared"] + log["captured"]:
        assert same_bits(array, copy)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(tapes())
def test_no_array_handed_to_two_parents_or_captured_is_written(case):
    # the same tapes as the former-engine test, which checks their gradients,
    # plus a sum and a row sum as the only readers of a leaky ReLU each and
    # of a fresh leaf each: a sum hands its operand a read-only view
    loss, _, nodes = build_tape(case, LEAN)
    relus = [ad.leaky_relu(nodes[-1], 0.1) for _ in range(2)]
    leaves = [ad.parameter(case[0][0]) for _ in range(2)]
    for x, y in (relus, leaves):
        loss = loss + x.sum() + y.sum(axis=1).sum()
    log = spy_tape(loss)
    ad.backward(loss)
    assert_nothing_shared_was_written(log)
    for relu in relus:
        view = log["handed"][id(relu._node)]
        assert view.base is not None and not view.flags.writeable
    for leaf in leaves:
        assert leaf.grad.base is None and leaf.grad.flags.writeable


CONTRIBUTIONS = {
    # a product's gradient: a fresh array
    "dense": lambda r, p: r @ p["v"],
    # a broadcast add's: a fresh sum over the broadcast axis
    "summed": lambda r, p: p["big"] + r,
    # add's: the gradient it was handed, also given to q
    "pass": lambda r, p: r + p["q"],
    # add's, the one array given twice to the same parent
    "twice": lambda r, p: r + r,
}


def contributions_tape(kinds, relu, affine):
    """``r = relu(affine(x, w, b))`` feeding one term per kind of
    contribution; returns the loss, the leaves by name and ``r``."""
    rng = np.random.default_rng(14)
    shapes = {"x": (3, 4), "w": (4, 4), "b": (4,), "v": (4, 2), "q": (3, 4),
              "big": (2, 3, 4)}
    p = {k: ad.parameter(rng.standard_normal(s)) for k, s in shapes.items()}
    r = relu(affine(p["x"], p["w"], p["b"]), 0.1)
    loss = ad.constant(0.0)
    for kind in kinds:
        term = CONTRIBUTIONS[kind](r, p)
        loss = loss + (term * rng.standard_normal(term.shape)).sum()
    return loss, p


@pytest.mark.parametrize("block", [1 << 15, 5])
@pytest.mark.parametrize("kinds", [
    ("dense",), ("summed",), ("pass",), ("twice",),
    ("pass", "dense"), ("dense", "pass"), ("pass", "summed", "dense"),
    ("summed", "pass", "twice"), ("dense", "summed", "pass", "twice")])
def test_one_parent_takes_dense_summed_and_pass_through_contributions(
        kinds, block, monkeypatch):
    """Leaky ReLU is handed an owned gradient, and writes it in place, unless
    its only contribution is one that add also hands to another parent. No
    shared or captured array is written, a leaf keeps an owned array without
    a copy, and the gradients equal the former engine's bit for bit (on one
    and on several row blocks of the scale)."""
    monkeypatch.setattr(ad, "_SCALE_BLOCK", block)
    loss, params = contributions_tape(kinds, ad.leaky_relu, ad.affine)
    log = spy_tape(loss)
    ad.backward(loss)
    assert log["relu"] == [kinds != ("pass",)]
    assert_nothing_shared_was_written(log)
    # w's gradient is affine's fresh x.T @ g, kept as is; q's, when add hands
    # it the array it also hands to r, is a copy
    assert any(params["w"].grad is a for a in log["returned"])
    if "pass" in kinds:
        assert not any(params["q"].grad is a for a in log["returned"])
    want_loss, want = contributions_tape(kinds, leaky_relu_oracle, affine_oracle)
    kept = backward_oracle(want_loss)
    for name, t in params.items():
        if id(want[name]) in kept:
            assert same_bits(t.grad, kept[id(want[name])]), name
        else:
            assert t.grad is None, name


ROW_TERMS = {
    # row contributions: gathers without repeats, both through rows 1 and 3
    "rows": lambda r, q, gather: gather(r, [3, 1]),
    "rows_again": lambda r, q, gather: gather(r, [1, 4, 3]),
    # a product's gradient: a fresh array
    "dense": lambda r, q, gather: r * np.ones((6, 2)),
    # add's: the gradient it was handed, also given to q
    "pass": lambda r, q, gather: r + q,
    # a gather with repeats: a dense array, as the former engine made it
    "repeat": lambda r, q, gather: gather(r, [0, 0, 2]),
}
# the weights that reach r[5], which no gather touches, and r[3, 0], which
# both row gathers touch, are -0.0
ROW_NEG_ZEROS = {"rows": [(0, 0)], "rows_again": [(2, 0)],
                 "dense": [(5, 0), (5, 1), (3, 0)],
                 "pass": [(5, 0), (5, 1), (3, 0)], "repeat": []}


def row_terms_tape(kinds, gather, relu):
    """One parent ``r`` (6 x 2), the parameter ``p`` itself or ``relu(p)``,
    feeding one weighted term per kind; returns the loss, the leaves by
    name and ``r``'s tape node."""
    p = ad.parameter(np.arange(1.0, 13.0).reshape(6, 2))
    q = ad.parameter(np.ones((6, 2)))
    r = p if relu is None else relu(p, 0.1)
    rng = np.random.default_rng(15)
    loss = ad.constant(0.0)
    for kind in kinds:
        term = ROW_TERMS[kind](r, q, gather)
        w = rng.standard_normal(term.shape)
        for at in ROW_NEG_ZEROS[kind]:
            w[at] = -0.0
        loss = loss + (term * w).sum()
    return loss, {"p": p, "q": q}, r._tape_node


@pytest.mark.parametrize("relu", [None, ad.leaky_relu])
@pytest.mark.parametrize("kinds", [
    ("dense", "rows", "pass", "rows_again"),
    ("pass", "rows", "rows_again"),
    ("rows", "dense", "rows_again", "pass"),
    ("rows", "rows_again", "dense", "pass", "repeat"),
    ("repeat", "dense", "rows", "pass", "rows_again")])
def test_one_parent_takes_row_dense_pass_through_and_repeat_contributions(
        kinds, relu):
    """A row contribution is scattered into the parent's one owned buffer:
    the first into zeros, a later one in place, after a copy if the sum so
    far is the array add also hands to ``q``. No handed array is written, a
    row contribution's rows included, and the gradients equal the former
    engine's bit for bit, which added whole zero-filled arrays: -0.0 + 0.0
    is +0.0, so a sum of -0.0s that met one has no sign bit."""
    loss, params, r = row_terms_tape(kinds, ad.gather_rows, relu)
    log = spy_tape(loss)
    ad.backward(loss)
    assert_nothing_shared_was_written(log)
    # the kinds are listed in the order their contributions reach r
    assert [kind for parent, kind in log["arrivals"] if parent is r] == [
        "rows" if k.startswith("rows") else "array" for k in kinds]
    if relu is not None:
        assert log["relu"] == [True]
    assert not np.signbit(params["p"].grad[[5, 5, 3], [0, 1, 0]]).any()
    oracle_relu = None if relu is None else leaky_relu_oracle
    want_loss, want, _ = row_terms_tape(kinds, gather_rows_oracle, oracle_relu)
    kept = backward_oracle(want_loss)
    for name, t in params.items():
        assert same_bits(t.grad, kept[id(want[name])]), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("owned", [False, True])
def test_leaky_relu_backward_writes_only_an_owned_gradient(owned, monkeypatch):
    monkeypatch.setattr(ad, "_SCALE_BLOCK", 3)
    x0 = np.asarray(SPECIAL + [-1e308, 1e308]).reshape(6, 2)
    out = ad.leaky_relu(ad.parameter(x0), 0.01)
    g = np.linspace(-2.0, 2.0, x0.size).reshape(x0.shape)
    before = g.copy()
    (got,) = out._backward(g, owned)
    assert (got is g) == owned
    assert same_bits(got, before * np.where(x0 >= 0.0, 1.0, 0.01))
    if not owned:
        assert same_bits(g, before)
