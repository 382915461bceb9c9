"""Dense numeric core: graph encoder, semantic encoder, gradients, updates.

The graph encoder stacks ``H <- act(agg(H) W + b)`` layers. ``agg`` is a CSR
block over the rows a layer must produce and the hop rows they read, so
embeddings of a node depend on exactly its L-hop surroundings: the
degree-normalized adjacency M (self-loops included) on the mean backbone, or a
softmax over each row's CSR entries (GAT) on the attention backbone. The final
layer of both encoders is linear. This module holds no graph state: M is the
session snapshot's ``mean_adjacency``, and a forward gathers the row blocks it
needs from the snapshot's CSR with numpy.

``gnn_forward_sets`` embeds several node sets of one snapshot, such as every
seen class's extended support in a training episode: one forward over their
union (the mini-batch scheme of GraphSAGE) on either backbone, with each set's
rows sliced from it. A row equals the set's own forward bit for bit.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .graphstore import GraphSnapshot

__all__ = ["Layer", "GnnParams", "MlpParams", "ModelState", "init_gnn",
           "init_mlp", "init_model", "named_parameters", "gnn_forward",
           "gnn_forward_sets", "mlp_forward", "compute_gradients", "apply_update",
           "save_model", "load_model", "clone_params", "NonFiniteError"]


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

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[1]


@dataclass
class MlpParams:
    layers: list[Layer]
    negative_slope: float = 0.01

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[1]


@dataclass
class ModelState:
    gnn: GnnParams
    mlp: MlpParams | None
    csd_projection: np.ndarray | None = None   # maps d_s -> gnn input dim
    seed: int = 0
    extra: dict = field(default_factory=dict)


def _init_layer(rng: np.random.Generator, d_in: int, d_out: int,
                attention: bool = False) -> Layer:
    bound = 1.0 / np.sqrt(d_in)
    w = ad.parameter(rng.uniform(-bound, bound, size=(d_in, d_out)))
    b = ad.parameter(rng.uniform(-bound, bound, size=(d_out,)))
    if not attention:
        return Layer(w, b)
    a_bound = 1.0 / np.sqrt(d_out)
    return Layer(w, b,
                 att_src=ad.parameter(rng.uniform(-a_bound, a_bound, size=(d_out,))),
                 att_dst=ad.parameter(rng.uniform(-a_bound, a_bound, size=(d_out,))))


def init_gnn(sizes, rng: np.random.Generator, negative_slope: float = 0.01,
             backbone: str = "mean") -> GnnParams:
    """sizes = [d_in, hidden..., d_out]; weights uniform in +-1/sqrt(fan_in)."""
    if backbone not in ("mean", "attention"):
        raise ValueError(f"unknown backbone {backbone!r}")
    layers = [_init_layer(rng, sizes[i], sizes[i + 1], backbone == "attention")
              for i in range(len(sizes) - 1)]
    return GnnParams(layers, negative_slope, backbone)


def init_mlp(sizes, rng: np.random.Generator,
             negative_slope: float = 0.01) -> MlpParams:
    layers = [_init_layer(rng, sizes[i], sizes[i + 1])
              for i in range(len(sizes) - 1)]
    return MlpParams(layers, negative_slope)


def init_model(feature_dim: int, hidden: int, out: int, num_layers: int,
               seed: int, *, csd_dim: int | None = None,
               negative_slope: float = 0.01, backbone: str = "mean",
               mlp_hidden: int | None = None) -> ModelState:
    rng = np.random.default_rng(seed)
    gnn_sizes = [feature_dim] + [hidden] * (num_layers - 1) + [out]
    gnn = init_gnn(gnn_sizes, rng, negative_slope, backbone)
    mlp = None
    proj = None
    if csd_dim is not None:
        mlp_sizes = [csd_dim, mlp_hidden or hidden, out]
        mlp = init_mlp(mlp_sizes, rng, negative_slope)
        if csd_dim != feature_dim:
            # fixed random map so the graph encoder can also consume CSDs
            proj = rng.standard_normal((csd_dim, feature_dim)) / np.sqrt(csd_dim)
    return ModelState(gnn=gnn, mlp=mlp, csd_projection=proj, seed=seed)


def named_parameters(model: ModelState) -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    for i, layer in enumerate(model.gnn.layers):
        out[f"gnn.{i}.weight"] = layer.weight
        out[f"gnn.{i}.bias"] = layer.bias
        if layer.att_src is not None:
            out[f"gnn.{i}.att_src"] = layer.att_src
            out[f"gnn.{i}.att_dst"] = layer.att_dst
    if model.mlp is not None:
        for i, layer in enumerate(model.mlp.layers):
            out[f"mlp.{i}.weight"] = layer.weight
            out[f"mlp.{i}.bias"] = layer.bias
    return out


def clone_params(model: ModelState) -> dict[str, np.ndarray]:
    return {k: v.data.copy() for k, v in named_parameters(model).items()}


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
    """needed[l] = nodes whose layer-l activations are required; needed[depth]=nodes."""
    needed = [None] * (depth + 1)
    needed[depth] = nodes
    current = nodes
    for l in range(depth - 1, -1, -1):
        _, take = _row_entries(graph, current)
        current = np.unique(np.concatenate([graph.indices[take], current]))
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


def gnn_forward(params: GnnParams, graph: GraphSnapshot, nodes) -> Tensor:
    """Embeddings for ``nodes`` (|nodes| x d_out), touching only L hops."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        return ad.constant(np.zeros((0, params.out_dim)))
    vis = graph.visible_mask
    if not vis[nodes].all():
        bad = nodes[~vis[nodes]]
        raise ValueError(f"nodes {bad.tolist()} are not visible in this snapshot")
    depth = len(params.layers)
    if graph.features.shape[1] != params.in_dim:
        raise ValueError(f"feature dim {graph.features.shape[1]} != "
                         f"encoder input dim {params.in_dim}")
    needed = _hop_sets(graph, nodes, depth)
    h = ad.constant(graph.features[needed[0]])
    for l, layer in enumerate(params.layers):
        rows, cols = needed[l + 1], needed[l]
        if params.backbone == "mean":
            agg = ad.sparse_matmul(_restricted_mean_agg(graph, rows, cols), h)
        else:
            agg = _attention_aggregate(params, layer, graph, rows, cols, h)
        # aggregating first is never dearer: its dense product costs
        # |rows| d_in d_out against |cols| d_in d_out for transforming first,
        # and the sparse products differ by nnz (d_in - d_out), small next to
        # that because the mean degree is far below d_out
        z = ad.affine(agg, layer.weight, layer.bias)
        h = z if l == depth - 1 else ad.leaky_relu(z, params.negative_slope)
    # the last layer's rows are needed[depth] = nodes, in the caller's order
    return h


def gnn_forward_sets(params: GnnParams, graph: GraphSnapshot,
                     node_sets) -> list[Tensor]:
    """``gnn_forward`` of each array in ``node_sets``, rows in its order."""
    node_sets = [np.asarray(nodes, dtype=np.int64) for nodes in node_sets]
    if not node_sets:
        return []
    # a row, mean or attention, reads only its own CSR entries, so a union row
    # equals the set's own row bit for bit whenever BLAS sums a row of a dense
    # product alike at both row counts; numpy's one-row product takes a vector
    # path that may not
    union = np.unique(np.concatenate(node_sets))
    emb = gnn_forward(params, graph, union)
    return [ad.gather_rows(emb, np.searchsorted(union, nodes))
            for nodes in node_sets]


def _attention_aggregate(params: GnnParams, layer: Layer, graph: GraphSnapshot,
                         rows: np.ndarray, cols: np.ndarray, h: Tensor) -> Tensor:
    """``attn @ h`` for the softmax over each row's CSR entries (GAT), which
    the caller multiplies by W; scores use ``(h W) a = h (W a)``."""
    indptr, take = _row_entries(graph, rows)
    pos = _positions(graph, cols)
    col_idx = pos[graph.indices[take]]
    nnz, counts = indptr[-1], np.diff(indptr)

    # h (W a_src) and h (W a_dst) side by side, flattened to s[2j], s[2j + 1]
    att = ad.vstack([layer.att_src, layer.att_dst]).transpose()
    s = (h @ (layer.weight @ att)).reshape(-1, 1)
    # entry e scores s[2 row_e] + s[2 col_e + 1]: a constant CSR picks both
    pick = np.stack([2 * np.repeat(pos[rows], counts), 2 * col_idx + 1], axis=1)
    both = sp.csr_matrix((np.ones(2 * nnz), pick.ravel(),
                          np.arange(0, 2 * nnz + 1, 2)), shape=(nnz, 2 * cols.size))
    scores = ad.leaky_relu(ad.sparse_matmul(both, s), params.negative_slope)
    # subtract the row max (constant w.r.t. grad) for numeric stability; every
    # visible row holds its self-loop, so no segment is empty
    shift = np.repeat(np.maximum.reduceat(scores.data[:, 0], indptr[:-1]), counts)
    weights = ad.exp(scores - ad.constant(shift[:, None]))
    segment = sp.csr_matrix((np.ones(nnz), np.arange(nnz), indptr),
                            shape=(rows.size, nnz))
    denom = ad.sparse_matmul(segment, weights)
    attn = weights / ad.sparse_matmul(segment.T, denom)
    return ad.csr_matmul(attn, col_idx, indptr, h)


def mlp_forward(params: MlpParams, vectors) -> Tensor:
    """Affine + leaky-ReLU chain with a linear final layer."""
    h = vectors if isinstance(vectors, Tensor) else ad.constant(vectors)
    if h.data.ndim == 1:
        h = h.reshape(1, -1)
    if h.data.shape[1] != params.in_dim:
        raise ValueError(f"input dim {h.data.shape[1]} != encoder input dim "
                         f"{params.in_dim}")
    last = len(params.layers) - 1
    for l, layer in enumerate(params.layers):
        h = ad.affine(h, layer.weight, layer.bias)
        if l != last:
            h = ad.leaky_relu(h, params.negative_slope)
    return h


# -- gradients and updates ---------------------------------------------------

def compute_gradients(params: dict[str, Tensor], loss: Tensor) -> dict[str, np.ndarray]:
    if not np.isfinite(loss.data):
        raise NonFiniteError(f"loss is {float(loss.data)}; refusing to differentiate")
    for t in params.values():
        t.grad = None
    # backward gives each leaf an array of its own, and the next call starts
    # from None, so the arrays returned here are never written to again
    ad.backward(loss)
    return {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for k, t in params.items()}


def apply_update(params: dict[str, Tensor], grads: dict[str, np.ndarray],
                 lr: float, weight_decay: float = 0.0) -> None:
    """SGD step with decoupled L2: p <- p - lr * (g + wd * p).

    All or nothing: if any parameter's new value is not finite, none moves.
    Neither ``grads`` nor the old parameter arrays are written to.
    """
    steps = {}
    for name, t in params.items():
        p, g = t.data, grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        # p - lr * (g + wd * p) operation for operation, in one buffer
        new = np.multiply(p, weight_decay)
        new += g
        new *= lr
        np.subtract(p, new, out=new)
        if not np.isfinite(new).all():
            raise NonFiniteError(f"non-finite update for parameter {name}")
        steps[name] = new
    for name, new in steps.items():
        params[name].data = new


# -- checkpoints --------------------------------------------------------------

_MAGIC = b"GOTHAM1\n"


def save_model(model: ModelState, path) -> None:
    """JSON header line + little-endian float64 blob; bit-exact round trip."""
    params = named_parameters(model)
    entries = [{"name": k, "shape": list(v.data.shape)} for k, v in params.items()]
    header = {
        "params": entries,
        "gnn_negative_slope": model.gnn.negative_slope,
        "gnn_backbone": model.gnn.backbone,
        "mlp_negative_slope": model.mlp.negative_slope if model.mlp else None,
        "csd_projection_shape": (list(model.csd_projection.shape)
                                 if model.csd_projection is not None else None),
        "seed": model.seed,
        "extra": model.extra,
    }
    blob = b"".join(np.ascontiguousarray(v.data, dtype="<f8").tobytes()
                    for v in params.values())
    if model.csd_projection is not None:
        blob += np.ascontiguousarray(model.csd_projection, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        hdr = json.dumps(header, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(hdr)))
        fh.write(hdr)
        fh.write(blob)


def load_model(path) -> ModelState:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path} is not a model checkpoint")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        blob = fh.read()

    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in header["params"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) * 8
        arr = np.frombuffer(blob[offset:offset + size], dtype="<f8").reshape(shape)
        arrays[entry["name"]] = arr.astype(np.float64)
        offset += size
    proj = None
    if header["csd_projection_shape"] is not None:
        shape = tuple(header["csd_projection_shape"])
        size = int(np.prod(shape)) * 8
        proj = np.frombuffer(blob[offset:offset + size], dtype="<f8").reshape(shape).copy()
        offset += size

    gnn_layers: list[Layer] = []
    i = 0
    while f"gnn.{i}.weight" in arrays:
        gnn_layers.append(Layer(
            ad.parameter(arrays[f"gnn.{i}.weight"]),
            ad.parameter(arrays[f"gnn.{i}.bias"]),
            att_src=(ad.parameter(arrays[f"gnn.{i}.att_src"])
                     if f"gnn.{i}.att_src" in arrays else None),
            att_dst=(ad.parameter(arrays[f"gnn.{i}.att_dst"])
                     if f"gnn.{i}.att_dst" in arrays else None)))
        i += 1
    gnn = GnnParams(gnn_layers, header["gnn_negative_slope"], header["gnn_backbone"])

    mlp = None
    if "mlp.0.weight" in arrays:
        mlp_layers: list[Layer] = []
        i = 0
        while f"mlp.{i}.weight" in arrays:
            mlp_layers.append(Layer(ad.parameter(arrays[f"mlp.{i}.weight"]),
                                    ad.parameter(arrays[f"mlp.{i}.bias"])))
            i += 1
        mlp = MlpParams(mlp_layers, header["mlp_negative_slope"])
    return ModelState(gnn=gnn, mlp=mlp, csd_projection=proj,
                      seed=header["seed"], extra=header.get("extra", {}))
