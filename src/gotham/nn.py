"""Dense numeric core: graph encoder, semantic encoder, gradients, updates.

Both encoders are ``GnnParams`` and run one chain of ``H <- act(agg(H) W + b)``
layers; ``mlp_forward`` runs it with each input its own aggregate, so the
semantic encoder's ``backbone`` is never read. In ``gnn_forward`` ``agg`` is a
CSR block over the rows a layer must produce and the hop rows they read, so
embeddings of a node depend on exactly its L-hop surroundings: the
degree-normalized adjacency M (self-loops included) on the mean backbone, or a
softmax over each row's CSR entries (GAT) on the attention backbone. The final
layer of both encoders is linear. This module holds no graph state: M is the
session snapshot's ``mean_adjacency``, and ``forward_plan`` gathers the row
blocks a forward needs from the snapshot's CSR with numpy. The features never
change, so on the mean backbone layer 0 reads its rows of the snapshot's
``mean_features`` (M X, computed once per snapshot; a row sums its CSR
entries in the same order as a row block of M would) and the hop sets are one
level shorter: an L-layer mean forward expands L - 1 hops, and the first hop
set holds the rows layer 0 produces, not its input rows. The attention
backbone's scores depend on W, so it expands all L hops from the features.

A ``ForwardPlan`` is everything of a forward that the parameters do not
touch, derived from its hop sets: layer 0's input rows and each layer's
aggregation structure, a CSR block of M or an attention layer's entry
indices and row sums; no transpose is stored (see ``ForwardPlan``). It is
built once per node list and snapshot and never written to, so it serves
any number of forwards while the parameters change between them. The
trainer keeps one per session, inside the session's
``prototypes.SupportPlan``: the teacher, every episode and the evaluation
prototypes forward it, and it is dropped when the session ends. A forward
given a node list (the queries telemetry draws after an episode's update,
or one row block of evaluation's held-out nodes) builds a plan of its own
and drops it on return, so evaluation plans per block and no plan covers
every held-out node.

A hidden layer is one ``autodiff.affine`` node, its leaky ReLU applied in
the product's own buffer, so it makes one array; the final layer is the
affine map alone. Without a tape (``autodiff.no_grad``) nothing else holds a
layer's arrays, so a forward keeps at most two alive beside the plan: a
layer's input and its aggregate, each dropped once the next exists.

A row, mean or attention, reads only its own CSR entries, so a forward over a
union of node sets (the mini-batch scheme of GraphSAGE) gives each set's rows
bit for bit whenever BLAS sums a row of a dense product alike at both row
counts; numpy's one-row product takes a vector path that may not.

A checkpoint (``save_model``, a run's ``model.ckpt``) is write-only: its bytes
let runs be compared, and nothing in the program loads it.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .graphstore import GraphSnapshot, unique_ids

__all__ = ["Layer", "GnnParams", "ModelState", "init_gnn", "init_model",
           "named_parameters", "ForwardPlan", "forward_plan", "gnn_forward",
           "mlp_forward",
           "compute_gradients", "apply_update", "save_model", "NonFiniteError"]


class NonFiniteError(FloatingPointError):
    """A loss or update produced a non-finite value."""


@dataclass
class Layer:
    weight: Tensor
    bias: Tensor
    att_src: Tensor | None = None   # attention backbone only
    att_dst: Tensor | None = None


@dataclass
class GnnParams:
    layers: list[Layer]
    negative_slope: float = 0.01
    backbone: str = "mean"          # "mean" | "attention"

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[0]


@dataclass
class ModelState:
    gnn: GnnParams
    mlp: GnnParams | None                      # the semantic encoder
    csd_projection: np.ndarray | None = None   # maps d_s -> gnn input dim


def _init_layer(rng: np.random.Generator, d_in: int, d_out: int,
                attention: bool = False) -> Layer:
    def uniform(bound: float, size: tuple) -> Tensor:
        # the draw is held by nothing else, so it becomes the parameter's
        # data as it is; ad.parameter would copy it
        return Tensor(rng.uniform(-bound, bound, size=size), requires_grad=True)

    bound = 1.0 / np.sqrt(d_in)
    w, b = uniform(bound, (d_in, d_out)), uniform(bound, (d_out,))
    if not attention:
        return Layer(w, b)
    a_bound = 1.0 / np.sqrt(d_out)
    return Layer(w, b, att_src=uniform(a_bound, (d_out,)),
                 att_dst=uniform(a_bound, (d_out,)))


def init_gnn(sizes, rng: np.random.Generator, negative_slope: float = 0.01,
             backbone: str = "mean") -> GnnParams:
    """sizes = [d_in, hidden..., d_out]; weights uniform in +-1/sqrt(fan_in)."""
    if backbone not in ("mean", "attention"):
        raise ValueError(f"unknown backbone {backbone!r}")
    layers = [_init_layer(rng, sizes[i], sizes[i + 1], backbone == "attention")
              for i in range(len(sizes) - 1)]
    return GnnParams(layers, negative_slope, backbone)


def init_model(feature_dim: int, hidden: int, out: int, num_layers: int,
               seed: int, *, csd_dim: int | None = None,
               negative_slope: float = 0.01,
               backbone: str = "mean") -> ModelState:
    rng = np.random.default_rng(seed)
    gnn_sizes = [feature_dim] + [hidden] * (num_layers - 1) + [out]
    gnn = init_gnn(gnn_sizes, rng, negative_slope, backbone)
    mlp = None
    proj = None
    if csd_dim is not None:
        mlp = init_gnn([csd_dim, hidden, out], rng, negative_slope)
        if csd_dim != feature_dim:
            # fixed random map so the graph encoder can also consume CSDs
            proj = rng.standard_normal((csd_dim, feature_dim)) / np.sqrt(csd_dim)
    return ModelState(gnn=gnn, mlp=mlp, csd_projection=proj)


_LAYER_FIELDS = tuple(f.name for f in fields(Layer))


def named_parameters(model: ModelState) -> dict[str, Tensor]:
    """``<encoder>.<layer>.<field>`` for every set field, graph encoder first."""
    out: dict[str, Tensor] = {}
    for prefix, params in (("gnn", model.gnn), ("mlp", model.mlp)):
        if params is None:
            continue
        for i, layer in enumerate(params.layers):
            for name in _LAYER_FIELDS:
                tensor = getattr(layer, name)
                if tensor is not None:
                    out[f"{prefix}.{i}.{name}"] = tensor
    return out


# -- forward passes ----------------------------------------------------------

def _row_entries(graph: GraphSnapshot,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block ``indptr`` of ``rows`` and where its entries sit in the CSR."""
    starts, counts = graph.indptr[rows], graph.degree[rows]
    indptr = np.concatenate([[0], np.cumsum(counts)])
    take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    return indptr, take


def _positions(graph: GraphSnapshot, cols: np.ndarray) -> np.ndarray:
    """Position of each node of ``cols`` in ``cols``; undefined elsewhere."""
    pos = np.empty(graph.num_nodes, dtype=np.int64)
    pos[cols] = np.arange(cols.size)
    return pos


def _hop_sets(graph: GraphSnapshot, nodes: np.ndarray, depth: int) -> list[np.ndarray]:
    """needed[l] = nodes whose layer-l activations are required; needed[depth]=nodes.
    Each hop set is the sorted union of the previous one and its CSR
    neighbours, deduplicated by one sort (``unique_ids``): numpy >= 2.3's
    flag-less ``np.unique`` would hash them first, several times slower."""
    needed = [None] * (depth + 1)
    needed[depth] = nodes
    current = nodes
    for l in range(depth - 1, -1, -1):
        _, take = _row_entries(graph, current)
        current = unique_ids(np.concatenate([graph.indices[take], current]))
        needed[l] = current
    return needed


def _restricted_mean_agg(graph: GraphSnapshot, rows: np.ndarray,
                         cols: np.ndarray) -> sp.csr_matrix:
    """Row-normalized adjacency block A[rows, cols] / degree[rows], sliced
    from the snapshot's ``mean_adjacency`` with each row's column order kept."""
    indptr, take = _row_entries(graph, rows)
    col_idx = _positions(graph, cols)[graph.indices[take]]
    return sp.csr_matrix((graph.mean_adjacency.data[take], col_idx, indptr),
                         shape=(rows.size, cols.size))


@dataclass(frozen=True, eq=False)
class _AttentionBlock:
    """One attention layer's structure over its ``rows`` x ``cols`` block:
    each CSR entry's row and column, where its two scores sit, and the one
    constant CSR, ``segment``, that sums each row's entries."""
    indptr: np.ndarray           # block indptr of the rows' CSR entries
    col_idx: np.ndarray          # each entry's column, as a position in cols
    row: np.ndarray              # each entry's row, as a position in rows
    ends: np.ndarray             # (2 x nnz) each entry's two scores' rows of s
    segment: sp.csr_matrix       # (|rows| x nnz) sums each row's entries


def _attention_block(graph: GraphSnapshot, rows: np.ndarray,
                     cols: np.ndarray) -> _AttentionBlock:
    indptr, take = _row_entries(graph, rows)
    pos = _positions(graph, cols)
    col_idx = pos[graph.indices[take]]
    row = np.repeat(np.arange(rows.size), np.diff(indptr))
    # entry e scores s[2 c(row_e)] + s[2 col_e + 1], c a node's position in cols
    ends = np.stack([2 * pos[rows][row], 2 * col_idx + 1])
    segment = sp.csr_matrix((np.ones(row.size), np.arange(row.size), indptr),
                            shape=(rows.size, row.size))
    return _AttentionBlock(indptr, col_idx, row, ends, segment)


@dataclass(frozen=True, eq=False)
class ForwardPlan:
    """Everything of a ``gnn_forward`` over ``nodes`` on ``graph`` that no
    parameter touches, for encoders of one backbone and depth.

    ``inputs`` is layer 0's input block: rows of M X on the mean backbone,
    rows of X on attention. ``blocks[l]`` is layer l's aggregation
    structure: None for mean layer 0, whose aggregate ``inputs`` already is,
    a CSR block of M on later mean layers, and an ``_AttentionBlock`` on
    attention. No transpose is stored: a backward multiplies by a CSR's
    ``.T`` view or sums a gather's rows. Nothing in it is written after
    ``forward_plan`` returns.
    """
    graph: GraphSnapshot
    nodes: np.ndarray
    backbone: str
    inputs: np.ndarray
    blocks: tuple


def forward_plan(params: GnnParams, graph: GraphSnapshot, nodes) -> ForwardPlan:
    """The plan of ``params``' forward over ``nodes`` on ``graph``."""
    nodes = np.asarray(nodes, dtype=np.int64)
    vis = graph.visible_mask
    if not vis[nodes].all():
        bad = nodes[~vis[nodes]]
        raise ValueError(f"nodes {bad.tolist()} are not visible in this snapshot")
    if graph.features.shape[1] != params.in_dim:
        raise ValueError(f"feature dim {graph.features.shape[1]} != "
                         f"encoder input dim {params.in_dim}")
    depth = len(params.layers)
    if params.backbone == "mean":
        # layer 0's aggregate is a row block of the snapshot's M X, so the hop
        # sets stop one level short and no input rows are gathered
        needed = [None] + _hop_sets(graph, nodes, depth - 1)
        inputs = graph.mean_features[needed[1]]
        blocks = [None] + [_restricted_mean_agg(graph, needed[l + 1], needed[l])
                           for l in range(1, depth)]
    else:
        needed = _hop_sets(graph, nodes, depth)
        inputs = graph.features[needed[0]]
        blocks = [_attention_block(graph, needed[l + 1], needed[l])
                  for l in range(depth)]
    inputs.flags.writeable = False
    # the last layer's rows are needed[depth] = nodes, in the caller's order
    return ForwardPlan(graph, nodes, params.backbone, inputs, tuple(blocks))


def gnn_forward(params: GnnParams, graph: GraphSnapshot, nodes) -> Tensor:
    """Embeddings for ``nodes`` (|nodes| x d_out), touching only L hops.

    ``nodes`` is a node list, or a ``ForwardPlan`` that ``forward_plan`` built
    on ``graph`` for ``params``' backbone and depth; a node list gets a plan
    of its own, used once.
    """
    plan = (nodes if isinstance(nodes, ForwardPlan)
            else forward_plan(params, graph, nodes))
    if (plan.graph is not graph or plan.backbone != params.backbone
            or len(plan.blocks) != len(params.layers)):
        raise ValueError("forward plan was built for another snapshot or encoder")
    return _layer_chain(params, ad.constant(plan.inputs), plan.blocks)


def _layer_chain(params: GnnParams, h: Tensor, blocks) -> Tensor:
    """``params``' layers over the input ``h``, layer l aggregating by
    ``blocks[l]``; a None block makes the input its own aggregate."""
    last = len(params.layers) - 1
    for l, (layer, block) in enumerate(zip(params.layers, blocks)):
        if block is None:
            agg = h
        elif params.backbone == "mean":
            agg = ad.sparse_matmul(block, h)
        else:
            agg = _attention_aggregate(params, layer, block, h)
        # aggregating first is never dearer: its dense product costs
        # |rows| d_in d_out against |cols| d_in d_out for transforming first,
        # and the sparse products differ by nnz (d_in - d_out), small next to
        # that because the mean degree is far below d_out
        h = ad.affine(agg, layer.weight, layer.bias,
                      None if l == last else params.negative_slope)
        # without a tape nothing else holds the layer's input (rebound just
        # now) or its aggregate
        del agg
    return h


def _attention_aggregate(params: GnnParams, layer: Layer, block: _AttentionBlock,
                         h: Tensor) -> Tensor:
    """``attn @ h`` for the softmax over each row's CSR entries (GAT), which
    the caller multiplies by W; scores use ``(h W) a = h (W a)``."""
    # h (W a_src) and h (W a_dst) side by side, flattened to s[2j], s[2j + 1];
    # one-dimensional, so each gather's gradient sum has s's own shape and
    # the engine adds the other into it in place
    att = ad.vstack([layer.att_src, layer.att_dst]).transpose()
    s = (h @ (layer.weight @ att)).reshape(-1)
    scores = ad.leaky_relu(ad.gather_rows(s, block.ends[0])
                           + ad.gather_rows(s, block.ends[1]), params.negative_slope)
    # subtract the row max (constant w.r.t. grad) for numeric stability; every
    # visible row holds its self-loop, so no segment is empty
    shift = np.maximum.reduceat(scores.data, block.indptr[:-1])[block.row]
    weights = ad.exp(scores - ad.constant(shift))
    denom = ad.sparse_matmul(block.segment, weights)
    attn = weights / ad.gather_rows(denom, block.row)
    return ad.csr_matmul(attn, block.col_idx, block.indptr, h, block.row)


def mlp_forward(params: GnnParams, vectors) -> Tensor:
    """Affine + leaky-ReLU chain with a linear final layer, a row per vector:
    the encoder's layer chain with every block None, as on nodes whose only
    CSR entry is their self-loop."""
    h = ad.constant(vectors)
    if h.data.ndim != 2 or h.shape[1] != params.in_dim:
        raise ValueError(f"inputs of shape {h.shape} do not fit encoder input "
                         f"dim {params.in_dim}")
    return _layer_chain(params, h, [None] * len(params.layers))


# -- gradients and updates ---------------------------------------------------

def compute_gradients(params: dict[str, Tensor], loss: Tensor) -> dict[str, np.ndarray]:
    if not np.isfinite(loss.data):
        raise NonFiniteError(f"loss is {float(loss.data)}; refusing to differentiate")
    for t in params.values():
        t.grad = None
    # backward gives each leaf an array of its own, and the leaves hand it
    # over here, so no one else holds the arrays returned: ``apply_update``
    # may write them
    ad.backward(loss)
    grads = {}
    for k, t in params.items():
        grads[k] = t.grad if t.grad is not None else np.zeros_like(t.data)
        t.grad = None
    return grads


def apply_update(params: dict[str, Tensor], grads: dict[str, np.ndarray],
                 lr: float, weight_decay: float = 0.0) -> None:
    """SGD step with decoupled L2: p <- p - lr * (g + wd * p).

    Consumes ``grads``: each gradient array is overwritten with its
    parameter's new value and becomes that parameter's data, so no third
    parameter-sized array is made. All or nothing: if any parameter's new
    value is not finite, none moves. The old parameter arrays are never
    written to.
    """
    for name, t in params.items():
        p, new = t.data, grads[name]
        if new.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        # p - lr * (g + wd * p) operation for operation; g + p wd and
        # p wd + g are one sum, bit for bit
        new += p * weight_decay
        new *= lr
        np.subtract(p, new, out=new)
        if not np.isfinite(new).all():
            raise NonFiniteError(f"non-finite update for parameter {name}")
    for name, t in params.items():
        t.data = grads[name]


# -- checkpoints --------------------------------------------------------------

def save_model(model: ModelState, path) -> None:
    """``GOTHAM1\\n``, the header's length as ``<I``, the sorted-key JSON
    header, then the ``<f8`` bytes of every parameter in ``named_parameters``
    order and last of the projection, if any."""
    params = named_parameters(model)
    entries = [{"name": k, "shape": list(v.data.shape)} for k, v in params.items()]
    header = {
        "params": entries,
        "gnn_negative_slope": model.gnn.negative_slope,
        "gnn_backbone": model.gnn.backbone,
        "mlp_negative_slope": model.mlp.negative_slope if model.mlp else None,
        "csd_projection_shape": (list(model.csd_projection.shape)
                                 if model.csd_projection is not None else None),
    }
    arrays = [v.data for v in params.values()] + (
        [model.csd_projection] if model.csd_projection is not None else [])
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"GOTHAM1\n" + struct.pack("<I", len(hdr)) + hdr + blob)
