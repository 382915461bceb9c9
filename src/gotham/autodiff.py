"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Supports exactly the operations the training losses need: dense and sparse
matrix products (a sparse matrix's entries may be a tensor), the affine map
``affine(x, w, b) = x @ w + b`` as one node (with a slope, a hidden layer:
its leaky ReLU in the same node and buffer), broadcasting add/mul, leaky ReLU,
hinges via ``maximum``, sqrt/log/exp, reductions, row gather and row
stacking. Gradients accumulate into ``Tensor.grad`` of the leaves
(parameters) after ``backward(loss)`` on a scalar; intermediate nodes keep
none.

The tape is made of nodes, not tensors. A differentiable result owns a
``_Node`` that holds its operands' nodes and its backward function, and no
array; a parameter is its own node, and nothing points from a node back to
the tensor that owns it, so the tape has no reference cycle. A backward
function captures the arrays and shapes it reads, never a ``Tensor``, so a
result's data dies with the tensor unless a backward reads it, and the
arrays that remain are exactly what the backward pass needs. An operand that
needs no gradient stands on the tape as the shared ``_CONSTANT`` node, and
no operation computes, or keeps the arrays for, a gradient that would be
thrown away.

A tape is spent by its backward. ``backward`` drops each node's backward
function as soon as it has run, so the arrays it captured are freed while
the walk goes on, not when the last tensor of the tape dies; the node keeps
its operands, so the tape can still be walked and counted, but a second
backward through it raises ``RuntimeError``.

Inside ``with no_grad():`` no result requires a gradient, so no operation
makes a node or a backward function and nothing is captured: a forward's
temporaries die as soon as nothing reads them. Parameters made inside it
still require gradients. The previous mode comes back on exit, also when the
block raises.

The backward pass writes only gradient arrays it owns. It owns a sum it
allocated, and an array a backward function returned if that array is not
the gradient the function was handed, is not a view (its ``base`` is None)
and appears once in the returned tuple. Later contributions to a parent are
added in place into an owned sum, and a leaf keeps an owned array as its
``.grad`` without a copy; every other array may be shared (``__add__`` hands
one array to both operands) and is never written. This rests on one rule
that every backward function keeps: it never returns an array it captured.
The backwards of ``leaky_relu`` and of a hidden layer's ``affine`` are the
ones that may write their gradient, and only when the engine owns it.

A gather (``gather_rows``, the tape's one row selection) sums its gradient
into fresh zeros of its operand's shape, each row's terms in ascending
position (a bincount one value wide, else the 0/1 selection's CSC product):
``np.add.at``'s sums bit for bit, zero signs included. Added into an existing
sum, repeats would be grouped, and so rounded, differently.

Subgradient conventions: at a ``maximum`` tie and at the leaky-ReLU origin
the positive-side slope is used.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

__all__ = ["Tensor", "constant", "parameter", "affine", "leaky_relu", "maximum",
           "sqrt", "log", "exp", "vstack", "gather_rows", "sparse_matmul",
           "csr_matmul", "backward", "no_grad"]

_SQRT_GUARD = 1e-150
# entries of one nnz-row block of the gathers in ``csr_matmul``'s backward:
# two blocks of 256 KB stay in cache, where whole nnz x d gathers do not
_GATHER_BLOCK = 1 << 15
# entries of one row block of leaky ReLU's scale, which is never made whole
_SCALE_BLOCK = 1 << 15
# False inside ``no_grad``
_grad_enabled = True


@contextmanager
def no_grad():
    """Build no tape inside the block: no result requires a gradient."""
    global _grad_enabled
    before, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = before


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
    # a sum is a fresh array, which a reshape to its own shape would make a view
    return grad if grad.shape == shape else grad.reshape(shape)


class _Node:
    """A differentiable result on the tape: its operands' nodes, in operand
    order, and the function that maps its gradient to theirs. With
    ``_in_place`` set, that function takes ``(g, owned)`` and may write ``g``
    when ``owned``."""
    __slots__ = ("_parents", "_backward", "_in_place")
    requires_grad = True

    def __init__(self, parents: tuple):
        self._parents = parents
        self._backward = None
        self._in_place = False


class _ConstantNode(_Node):
    """Stands on the tape for an operand that needs no gradient."""
    __slots__ = ()
    requires_grad = False


_CONSTANT = _ConstantNode(())


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or (
            _grad_enabled and any(p.requires_grad for p in parents))
        # a parameter (no parents) is its own node; it keeps ``_node`` None
        self._node = (_Node(tuple(p._tape_node for p in parents))
                      if self.requires_grad and parents else None)

    @property
    def _tape_node(self):
        """What stands for this tensor on a tape: its node, itself if it is a
        parameter, ``_CONSTANT`` if it needs no gradient."""
        if self._node is not None:
            return self._node
        return self if self.requires_grad else _CONSTANT

    @property
    def _parents(self) -> tuple:
        # a walk that starts at a loss tensor (the benchmark's tape count)
        # reads its node's operands, as it reads every node's
        return self._node._parents if self._node is not None else ()

    @property
    def _backward(self):
        return self._node._backward if self._node is not None else None

    @_backward.setter
    def _backward(self, fn) -> None:
        self._node._backward = fn

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
            sa, sb = self.data.shape, other.data.shape
            out._backward = lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb))
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: (-g,)
        return out

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __mul__(self, other):
        other = _wrap(other)
        out = Tensor(self.data * other.data, parents=(self, other))
        if out.requires_grad:
            sa, sb = self.data.shape, other.data.shape
            # each operand's gradient reads the other operand only
            a = self.data if other.requires_grad else None
            b = other.data if self.requires_grad else None
            def bw(g):
                return (None if b is None else _unbroadcast(g * b, sa),
                        None if a is None else _unbroadcast(g * a, sb))
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other)
        out = Tensor(self.data / other.data, parents=(self, other))
        if out.requires_grad:
            sa, b = self.data.shape, other.data
            need_a, need_b = self.requires_grad, other.requires_grad
            a = self.data if need_b else None
            def bw(g):
                return (_unbroadcast(g / b, sa) if need_a else None,
                        _unbroadcast(-g * a / (b * b), b.shape) if need_b else None)
            out._backward = bw
        return out

    def __matmul__(self, other):
        other = _wrap(other)
        out = Tensor(self.data @ other.data, parents=(self, other))
        if out.requires_grad:
            # a constant operand's gradient would be thrown away, and the
            # other operand's data is read only for it
            a = self.data if other.requires_grad else None
            b = other.data if self.requires_grad else None
            def bw(g):
                return (None if b is None else g @ b.T,
                        None if a is None else a.T @ g)
            out._backward = bw
        return out

    # -- reductions and shaping ---------------------------------------------

    def sum(self, axis=None):
        out = Tensor(self.data.sum(axis=axis), parents=(self,))
        if out.requires_grad:
            shape = self.data.shape
            # a read-only view: the engine never writes an array whose base
            # is set, and a leaf copies it
            def bw(g):
                if axis is None:
                    return (np.broadcast_to(g, shape),)
                return (np.broadcast_to(np.expand_dims(g, axis), shape),)
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


def affine(x: Tensor, w: Tensor, b: Tensor, slope: float | None = None) -> Tensor:
    """``x @ w + b`` as one node, the bias added in place on the product.

    Given a ``slope``, it is a hidden layer: the leaky ReLU of that map,
    applied in the product's own buffer, so a layer keeps one array. The
    backward keeps the sign mask and scales its gradient as ``leaky_relu``
    does, in place when the engine owns it.
    """
    z = x.data @ w.data
    z += b.data
    keep = None
    if slope is not None:
        keep = z >= 0.0
        _scale_rows(z, keep, slope, z)
    out = Tensor(z, parents=(x, w, b))
    if out.requires_grad:
        wd = w.data if x.requires_grad else None
        xd = x.data if w.requires_grad else None
        need_b = b.requires_grad
        def bw(g, owned=False):
            if keep is not None:
                g = _scale_rows(g, keep, slope, g if owned else np.empty_like(g))
            return (None if wd is None else g @ wd.T,
                    None if xd is None else xd.T @ g,
                    g.sum(axis=0) if need_b else None)
        out._backward = bw
        out._node._in_place = keep is not None
    return out


def _scale_rows(src: np.ndarray, keep: np.ndarray, slope: float,
                out: np.ndarray) -> np.ndarray:
    """``out = src * scale`` for leaky ReLU's scale, rebuilt from the mask
    ``keep`` a row block at a time; ``out`` may be ``src``."""
    if src.ndim == 0:
        blocks = [...]
    else:
        step = max(1, _SCALE_BLOCK // max(1, int(np.prod(src.shape[1:]))))
        blocks = [slice(s, s + step) for s in range(0, src.shape[0], step)]
    for rows in blocks:
        # arithmetic, not a select: numpy's where runs a branchy loop. For a
        # slope in [0, 1], (1 - slope) + slope rounds to exactly 1.0, so the
        # scale holds 1.0 or the slope, and x * 1.0 and x * slope are the two
        # branches bit for bit
        scale = keep[rows] * (1.0 - slope)
        scale += slope
        np.multiply(src[rows], scale, out=out[rows])
    return out


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    # the backward keeps the sign mask, a byte an entry, not the scale
    keep = x.data >= 0.0
    out = Tensor(_scale_rows(x.data, keep, slope, np.empty_like(x.data)),
                 parents=(x,))
    if out.requires_grad:
        def bw(g, owned=False):
            return (_scale_rows(g, keep, slope, g if owned else np.empty_like(g)),)
        out._backward = bw
        out._node._in_place = True
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
    """Rows ``idx`` of ``x``: an integer array of any shape, none negative."""
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(x.data[idx], parents=(x,))
    if out.requires_grad:
        shape = x.data.shape
        width = int(np.prod(shape[1:]))
        def bw(g):
            flat, n = idx.ravel(), idx.size
            if n == 0:  # np.bincount of no indices counts in integers
                return (np.zeros(shape),)
            if width == 1:
                full = np.bincount(flat, weights=g.ravel(), minlength=shape[0])
            else:
                # the 0/1 selection's transpose, whose CSC product adds each
                # column, a position of idx, in ascending order
                full = (sp.csc_matrix((np.ones(n), flat, np.arange(n + 1)),
                                      shape=(shape[0], n)) @ g.reshape(n, width))
            # a reshape to its own shape would make the fresh sum a view
            return (full if full.shape == shape else full.reshape(shape),)
        out._backward = bw
    return out


def sparse_matmul(m: sp.spmatrix, x: Tensor) -> Tensor:
    """Product of a constant sparse matrix with a dense tensor.

    The backward multiplies by ``m.T``, scipy's view of ``m``'s own arrays,
    made only when the backward runs, so no transpose is stored and a
    ``no_grad`` product builds nothing. For a CSR ``m`` that view is CSC,
    whose product adds each gradient row's terms in ascending row order of
    ``m``. A CSR transpose lists its columns in that same order, so the
    gradient has the bits a stored CSR transpose would give.
    """
    out = Tensor(m @ x.data, parents=(x,))
    if out.requires_grad:
        out._backward = lambda g: (m.T @ g,)
    return out


def csr_matmul(values: Tensor, indices: np.ndarray, indptr: np.ndarray,
               x: Tensor, row: np.ndarray) -> Tensor:
    """``A @ x`` for the CSR matrix A with ``indptr``, column ``indices`` and
    entries ``values`` (nnz of them, in any shape), differentiable in
    ``values`` and in ``x``. ``row`` is each entry's row, which the backward
    reads."""
    m = sp.csr_matrix((values.data.ravel(), indices, indptr),
                      shape=(indptr.size - 1, x.data.shape[0]))
    out = Tensor(m @ x.data, parents=(values, x))
    if out.requires_grad:
        need_v = values.requires_grad
        xd = x.data if need_v else None
        m_t = m.T if x.requires_grad else None
        v_shape, step = values.data.shape, max(1, _GATHER_BLOCK // x.data.shape[1])
        def bw(g):
            dv = None
            if need_v:
                # d_values[e] = g[row_e] . x[col_e], the product A's pattern samples
                dv = np.empty(indices.size)
                for s in range(0, indices.size, step):
                    e = slice(s, s + step)
                    np.einsum("ij,ij->i", g[row[e]], xd[indices[e]], out=dv[e])
                dv = dv.reshape(v_shape)
            return dv, (None if m_t is None else m_t @ g)
        out._backward = bw
    return out


def _owned(pg, g: np.ndarray, grads: tuple) -> bool:
    """Whether ``pg``, one of the ``grads`` a backward function returned for
    the gradient ``g``, is an array no one else holds."""
    return (type(pg) is np.ndarray and pg.base is None and pg is not g
            and sum(p is pg for p in grads) == 1)


def _tape(loss: Tensor) -> list:
    """The nodes that need a gradient on the tape of ``loss``, each once and
    after every node it reads: the backward pass visits them reversed."""
    order: list = []
    seen = set()
    stack = [(loss._tape_node, False)]
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
    return order


def _spent(*_):
    raise RuntimeError("this tape was spent by an earlier backward; "
                       "build the forward again to differentiate it")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every reachable leaf.

    Leaves are the nodes without a backward function: the parameters, each
    its own node. Intermediate gradients live only until their node has been
    processed, and a node's backward function, with every array it captured,
    is dropped as soon as it has run: the tape is spent, and a second
    backward through it raises ``RuntimeError``. Only arrays the engine owns
    (see the module docstring) are written: a later contribution is added in
    place into an owned sum, and out of place into any other, whose sum the
    engine then owns.
    """
    if loss.data.size != 1:
        raise ValueError("backward() expects a scalar loss")
    root = loss._tape_node
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    owned = {id(root)}
    for node in reversed(_tape(loss)):
        g = grads.pop(id(node), None)
        fn = node._backward
        if fn is None:
            if g is None:
                continue
            if node.grad is None:
                # an array no one else holds becomes the leaf's; others are copied
                node.grad = g if id(node) in owned else np.array(g, dtype=np.float64)
            else:
                node.grad += g
            continue
        node._backward = _spent
        if g is None:
            continue
        out = fn(g, id(node) in owned) if node._in_place else fn(g)
        # the captured arrays die here, not when the tape's last tensor does
        del fn
        for parent, pg in zip(node._parents, out):
            if not parent.requires_grad:
                continue
            key = id(parent)
            acc = grads.get(key)
            if acc is None:
                grads[key] = pg
                if _owned(pg, g, out):
                    owned.add(key)
            elif key in owned:
                acc += pg
            else:
                grads[key] = acc = acc + pg
                if type(acc) is np.ndarray:
                    owned.add(key)
