"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Supports exactly the operations the training losses need: dense and sparse
matrix products (a sparse matrix's entries may be a tensor), the affine map
``affine(x, w, b) = x @ w + b`` as one node, broadcasting add/mul, leaky ReLU,
hinges via ``maximum``, sqrt/log/exp, reductions, row gather and row
stacking. Gradients accumulate into ``Tensor.grad`` of the leaves
(parameters) after ``backward(loss)`` on a scalar; intermediate nodes keep
none. Dense products compute no gradient for an operand that needs none.

Subgradient conventions: at a ``maximum`` tie and at the leaky-ReLU origin
the positive-side slope is used.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["Tensor", "constant", "parameter", "affine", "leaky_relu", "maximum",
           "sqrt", "log", "exp", "vstack", "gather_rows", "sparse_matmul",
           "csr_matmul", "backward"]

_SQRT_GUARD = 1e-150
# entries of one nnz-row block of the gathers in ``csr_matmul``'s backward:
# two blocks of 256 KB stay in cache, where whole nnz x d gathers do not
_GATHER_BLOCK = 1 << 15


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` over the axes that were broadcast to reach its shape."""
    if grad.shape == shape:
        return grad
    # leading axes added by broadcasting
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # axes of size 1 stretched by broadcasting
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward_fn if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        out = Tensor(self.data + other.data, parents=(self, other))
        if out.requires_grad:
            def bw(g):
                return (_unbroadcast(g, self.data.shape),
                        _unbroadcast(g, other.data.shape))
            out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: (-g,)
        return out

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __rsub__(self, other):
        return _wrap(other) + (-self)

    def __mul__(self, other):
        other = _wrap(other)
        out = Tensor(self.data * other.data, parents=(self, other))
        if out.requires_grad:
            a, b = self.data, other.data
            def bw(g):
                return (_unbroadcast(g * b, a.shape),
                        _unbroadcast(g * a, b.shape))
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other)
        out = Tensor(self.data / other.data, parents=(self, other))
        if out.requires_grad:
            a, b = self.data, other.data
            def bw(g):
                return (_unbroadcast(g / b, a.shape),
                        _unbroadcast(-g * a / (b * b), b.shape))
            out._backward = bw
        return out

    def __matmul__(self, other):
        other = _wrap(other)
        out = Tensor(self.data @ other.data, parents=(self, other))
        if out.requires_grad:
            a, b = self.data, other.data
            # a constant operand's gradient would be thrown away
            need_a, need_b = self.requires_grad, other.requires_grad
            def bw(g):
                return (g @ b.T if need_a else None, a.T @ g if need_b else None)
            out._backward = bw
        return out

    # -- reductions and shaping ---------------------------------------------

    def sum(self, axis=None):
        out = Tensor(self.data.sum(axis=axis), parents=(self,))
        if out.requires_grad:
            shape = self.data.shape
            def bw(g):
                if axis is None:
                    return (np.broadcast_to(g, shape).copy(),)
                return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)
            out._backward = bw
        return out

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def transpose(self):
        out = Tensor(self.data.T, parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: (g.T,)
        return out

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), parents=(self,))
        if out.requires_grad:
            orig = self.data.shape
            out._backward = lambda g: (g.reshape(orig),)
        return out


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, the bias added in place on the product."""
    z = x.data @ w.data
    z += b.data
    out = Tensor(z, parents=(x, w, b))
    if out.requires_grad:
        xd, wd, need_x = x.data, w.data, x.requires_grad
        def bw(g):
            return (g @ wd.T if need_x else None, xd.T @ g, g.sum(axis=0))
        out._backward = bw
    return out


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    # arithmetic, not a select: numpy's where runs a branchy loop. For a slope
    # in [0, 1], (1 - slope) + slope rounds to exactly 1.0, so the scale holds
    # 1.0 or the slope; x * 1.0 and x * slope are the two branches bit for
    # bit, so one product gives the output and its backward reuses the scale
    scale = (x.data >= 0.0) * (1.0 - slope)
    scale += slope
    out = Tensor(x.data * scale, parents=(x,))
    if out.requires_grad:
        out._backward = lambda g: (g * scale,)
    return out


def maximum(x: Tensor, floor: float) -> Tensor:
    """Elementwise max(x, floor); ties send the gradient to x."""
    keep = x.data >= floor
    out = Tensor(np.where(keep, x.data, floor), parents=(x,))
    if out.requires_grad:
        out._backward = lambda g: (g * keep,)
    return out


def sqrt(x: Tensor) -> Tensor:
    val = np.sqrt(x.data)
    out = Tensor(val, parents=(x,))
    if out.requires_grad:
        denom = np.maximum(val, _SQRT_GUARD)
        out._backward = lambda g: (g * 0.5 / denom,)
    return out


def log(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data), parents=(x,))
    if out.requires_grad:
        d = x.data
        out._backward = lambda g: (g / d,)
    return out


def exp(x: Tensor) -> Tensor:
    val = np.exp(x.data)
    out = Tensor(val, parents=(x,))
    if out.requires_grad:
        out._backward = lambda g: (g * val,)
    return out


def vstack(tensors) -> Tensor:
    tensors = list(tensors)
    rows = [t.data if t.data.ndim == 2 else t.data[None, :] for t in tensors]
    out = Tensor(np.concatenate(rows, axis=0), parents=tuple(tensors))
    if out.requires_grad:
        sizes = [r.shape[0] for r in rows]
        splits = np.cumsum(sizes)[:-1]
        shapes = [t.data.shape for t in tensors]
        def bw(g):
            parts = np.split(g, splits, axis=0)
            return tuple(p.reshape(s) for p, s in zip(parts, shapes))
        out._backward = bw
    return out


def gather_rows(x: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(x.data[idx], parents=(x,))
    if out.requires_grad:
        shape = x.data.shape
        # without repeats a buffered scatter adds each row once, as add.at does
        distinct = np.unique(idx).size == idx.size
        def bw(g):
            full = np.zeros(shape)
            if distinct:
                full[idx] += g
            else:
                np.add.at(full, idx, g)
            return (full,)
        out._backward = bw
    return out


def sparse_matmul(m: sp.spmatrix, x: Tensor) -> Tensor:
    """Product of a constant sparse matrix with a dense tensor."""
    m = m.tocsr()
    out = Tensor(m @ x.data, parents=(x,))
    if out.requires_grad:
        out._backward = lambda g: (m.T @ g,)
    return out


def csr_matmul(values: Tensor, indices: np.ndarray, indptr: np.ndarray,
               x: Tensor) -> Tensor:
    """``A @ x`` for the CSR matrix A with ``indptr``, column ``indices`` and
    entries ``values`` (nnz x 1), differentiable in ``values`` and in ``x``."""
    m = sp.csr_matrix((values.data.ravel(), indices, indptr),
                      shape=(indptr.size - 1, x.data.shape[0]))
    out = Tensor(m @ x.data, parents=(values, x))
    if out.requires_grad:
        xd = x.data
        row = np.repeat(np.arange(m.shape[0]), np.diff(indptr))
        step = max(1, _GATHER_BLOCK // xd.shape[1])
        def bw(g):
            # d_values[e] = g[row_e] . x[col_e], the product A's pattern samples
            dv = np.empty(indices.size)
            for s in range(0, indices.size, step):
                e = slice(s, s + step)
                np.einsum("ij,ij->i", g[row[e]], xd[indices[e]], out=dv[e])
            return dv.reshape(values.data.shape), m.T @ g
        out._backward = bw
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every reachable leaf.

    Leaves are the nodes without a backward function (parameters);
    intermediate gradients live only until their node has been processed.
    Contributions are summed out of place, so a gradient array one backward
    function hands to several parents is never written to.
    """
    if loss.data.size != 1:
        raise ValueError("backward() expects a scalar loss")
    order: list[Tensor] = []
    seen = set()
    stack = [(loss, False)]
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

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.grad is None:
                node.grad = np.array(g, dtype=np.float64)    # the leaf's own copy
            else:
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
