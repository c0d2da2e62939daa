"""Homogeneous graph convolutions (GCN, GraphSAGE, GAT, GGNN).

All layers share the interface ``forward(x, edge_index) -> Tensor`` where
``x`` is the ``[num_nodes, in_dim]`` node-feature tensor and ``edge_index``
is either a ``[2, num_edges]`` integer array of (source, destination) pairs
for one relation or a precomputed
:class:`~repro.graphs.hetero.EdgeLayout`.  Passing a layout (what the
batched training path does) lets every gather/scatter reuse the sorted
CSR-style edge order instead of re-deriving it per call.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.graphs.hetero import EdgeLayout
from repro.nn import init
from repro.nn.autograd import (
    Primitive,
    Tensor,
    _dtype,
    _mm,
    concat,
    fast_segment_ops_enabled,
)
from repro.nn.backend import xp
from repro.nn.layers import Linear, Module

EdgeIndexLike = Union[xp.ndarray, EdgeLayout]


def _degrees(index: xp.ndarray, num_nodes: int) -> xp.ndarray:
    deg = xp.bincount(index, minlength=num_nodes).astype(xp.float64)
    return xp.maximum(deg, 1.0)


def _as_layout(edge_index: EdgeIndexLike, num_nodes: int) -> EdgeLayout:
    """Wrap a raw edge-index array into an (ephemeral) :class:`EdgeLayout`."""
    if isinstance(edge_index, EdgeLayout):
        return edge_index
    edge_index = xp.asarray(edge_index, dtype=xp.int64)
    if edge_index.size == 0:
        edge_index = edge_index.reshape(2, 0)
    return EdgeLayout(edge_index, num_nodes)


class GRUCell(Module):
    """Reference gated recurrent unit cell (one Linear per gate).

    Kept as the numerical reference for :class:`FusedGRUCell`; the GGNN
    convolution uses the fused variant, which computes the same function with
    one third of the (bigger) matmuls and no per-step ``concat`` copies.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[xp.Generator] = None):
        super().__init__()
        rng = rng or xp.default_rng(0)
        self.w_z = Linear(input_dim + hidden_dim, hidden_dim, rng=rng)
        self.w_r = Linear(input_dim + hidden_dim, hidden_dim, rng=rng)
        self.w_h = Linear(input_dim + hidden_dim, hidden_dim, rng=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        xh = concat([x, h], axis=1)
        z = self.w_z(xh).sigmoid()
        r = self.w_r(xh).sigmoid()
        xrh = concat([x, r * h], axis=1)
        h_tilde = self.w_h(xrh).tanh()
        return (1.0 - z) * h + z * h_tilde

    def fused(self) -> "FusedGRUCell":
        """A :class:`FusedGRUCell` computing the identical function."""
        fused = FusedGRUCell.__new__(FusedGRUCell)
        Module.__init__(fused)
        fused._assemble(self.w_z.in_features - self.w_z.out_features,
                        self.w_z.out_features,
                        self.w_z.weight.data, self.w_r.weight.data,
                        self.w_h.weight.data,
                        self.w_z.bias.data, self.w_r.bias.data,
                        self.w_h.bias.data)
        return fused


class FusedGRUCell(Module):
    """GRU cell with the three gate matmuls fused.

    The update/reset/candidate gates of the textbook cell all multiply the
    same ``x`` (and ``h``), so their weight matrices are stored column-wise
    concatenated and applied in single wide matmuls::

        gx = x @ [Wz_x | Wr_x | Wh_x] + [bz | br | bh]     # one [n, 3h] matmul
        gh = h @ [Wz_h | Wr_h]                             # one [n, 2h] matmul
        z, r = sigmoid(gx[:, :2h] + gh)                    # split columns
        h~ = tanh(gx[:, 2h:] + (r * h) @ Wh_h)
        h' = (1 - z) * h + z * h~

    Initialisation draws the *same* three Xavier matrices, in the same rng
    order, as the unfused :class:`GRUCell`, so a fused cell is numerically
    interchangeable with the reference one (up to matmul-split rounding).
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[xp.Generator] = None):
        super().__init__()
        rng = rng or xp.default_rng(0)
        w_z = init.xavier_uniform((input_dim + hidden_dim, hidden_dim), rng)
        w_r = init.xavier_uniform((input_dim + hidden_dim, hidden_dim), rng)
        w_h = init.xavier_uniform((input_dim + hidden_dim, hidden_dim), rng)
        zeros = xp.zeros(hidden_dim)
        self._assemble(input_dim, hidden_dim, w_z, w_r, w_h,
                       zeros, zeros, zeros)

    def _assemble(self, input_dim: int, hidden_dim: int,
                  w_z: xp.ndarray, w_r: xp.ndarray, w_h: xp.ndarray,
                  b_z: xp.ndarray, b_r: xp.ndarray, b_h: xp.ndarray) -> None:
        i, h = int(input_dim), int(hidden_dim)
        dtype = xp.asarray(w_z).dtype
        self.input_dim = i
        self.hidden_dim = h
        self.w_x = Tensor(xp.concatenate([w_z[:i], w_r[:i], w_h[:i]], axis=1),
                          requires_grad=True, name="w_x")
        self.w_h_zr = Tensor(xp.concatenate([w_z[i:], w_r[i:]], axis=1),
                             requires_grad=True, name="w_h_zr")
        self.w_h_h = Tensor(xp.ascontiguousarray(w_h[i:]),
                            requires_grad=True, name="w_h_h")
        self.bias = Tensor(xp.concatenate([b_z, b_r, b_h]).astype(dtype,
                                                                  copy=False),
                           requires_grad=True, name="bias")

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """One GRU update as a single fused graph node.

        The whole cell (two wide matmuls, gate sigmoids, candidate tanh,
        convex update) is one primitive with a hand-derived VJP, so a cell
        step costs one autograd node instead of ~14.
        """
        return _FUSED_GRU(x, h, self.w_x, self.w_h_zr, self.w_h_h, self.bias)


def _fused_gru(lease, x, h, w_x, w_h_zr, w_h_h, bias):
    n, nh = h.shape[0], w_h_h.shape[1]
    dtype = _dtype(x, h, w_x, w_h_zr, w_h_h, bias)
    gx = _mm(lease.scratch, x, w_x)                     # [n, 3h]
    xp.add(gx, bias, out=gx)
    gh = _mm(lease.scratch, h, w_h_zr)                  # [n, 2h]
    # s = sigmoid(gx[:, :2h] + gh), computed in place
    s = xp.add(gx[:, :2 * nh], gh, out=lease((n, 2 * nh), dtype))
    xp.clip(s, -60.0, 60.0, out=s)
    xp.negative(s, out=s)
    xp.exp(s, out=s)
    xp.add(s, 1.0, out=s)
    xp.divide(1.0, s, out=s)
    z, r = s[:, :nh], s[:, nh:]
    c = xp.multiply(r, h, out=lease((n, nh), dtype))    # reset-gated state
    t = xp.add(gx[:, 2 * nh:], _mm(lease.scratch, c, w_h_h),
               out=lease((n, nh), dtype))
    xp.tanh(t, out=t)                                   # candidate
    one_minus_z = xp.subtract(1.0, z, out=lease((n, nh), dtype))
    out = xp.multiply(one_minus_z, h, out=lease((n, nh), dtype))
    xp.add(out, xp.multiply(z, t, out=lease.scratch((n, nh), dtype, 1)),
           out=out)
    return out, (s, c, t, one_minus_z)


def _fused_gru_vjp(lease, g, need, out, saved, x, h, w_x, w_h_zr, w_h_h,
                   bias):
    s, c, t, one_minus_z = saved
    n, nh = h.shape[0], w_h_h.shape[1]
    dtype = s.dtype
    z, r = s[:, :nh], s[:, nh:]
    dt = xp.multiply(g, z, out=lease.scratch((n, nh), dtype, 0))
    tt = xp.multiply(t, t, out=lease.scratch((n, nh), dtype, 1))
    xp.subtract(1.0, tt, out=tt)
    dm = xp.multiply(dt, tt, out=lease.scratch((n, nh), dtype, 2))  # pre-tanh
    dc = xp.matmul(dm, w_h_h.T, out=lease.scratch((n, nh), dtype, 3))
    ds = lease.array((n, 2 * nh), dtype, 0)
    xp.multiply(g, xp.subtract(t, h, out=dt), out=ds[:, :nh])      # dL/dz
    xp.multiply(dc, h, out=ds[:, nh:])                             # dL/dr
    dpre = xp.multiply(ds, s, out=lease.scratch((n, 2 * nh), dtype, 2))
    xp.multiply(dpre, xp.subtract(1.0, s, out=lease.scratch((n, 2 * nh),
                                                            dtype, 1)),
                out=dpre)                                 # pre-sigmoid grad
    dgx = lease.array((n, 3 * nh), dtype, 1)              # [n, 3h]
    dgx[:, :2 * nh] = dpre
    dgx[:, 2 * nh:] = dm
    dh = None
    if need[1]:
        dh = xp.multiply(g, one_minus_z, out=lease((n, nh), dtype))
        tmp = lease.scratch((n, nh), dtype, 0)
        xp.add(dh, xp.multiply(dc, r, out=tmp), out=dh)
        xp.add(dh, xp.matmul(dpre, w_h_zr.T, out=tmp), out=dh)
    return (_mm(lease, dgx, w_x.T) if need[0] else None,
            dh,
            _mm(lease, x.T, dgx) if need[2] else None,
            _mm(lease, h.T, dpre) if need[3] else None,
            _mm(lease, c.T, dm) if need[4] else None,
            xp.sum(dgx, axis=0, out=lease(dgx.shape[1:], dtype))
            if need[5] else None)


_FUSED_GRU = Primitive("fused_gru", _fused_gru, _fused_gru_vjp)


def _mean_aggregator(layout: EdgeLayout, dtype):
    """Fused mean-aggregation op over edges pre-sorted by destination.

    Forward gathers the per-edge messages directly in destination order,
    reduces each contiguous run with one ``xp.add_reduceat`` and scales by
    the reciprocal in-degree — one autograd node for what is otherwise a
    gather node, a scatter node and a broadcast multiply.  All index arrays
    are loop invariants of the layout, so the returned closure is hoisted
    out of the GGNN ``num_steps`` unrolling.
    """
    src_sorted, dst_sorted, src_sorted_layout = layout.by_dst
    dst_layout = layout.dst_layout
    attrs = {"src_sorted": src_sorted, "starts": dst_layout.starts,
             "segments": dst_layout.segments, "num_nodes": layout.num_nodes,
             "inv_deg": layout.inv_in_deg_as(dtype),       # [n, 1]
             # the backward scatters per-edge grads by source: gathering
             # (g * inv_deg)[dst_sorted] and then sorting it by source is
             # one gather through the composed permutation
             "perm": dst_sorted[src_sorted_layout.order],
             "src_layout": src_sorted_layout}

    def aggregate(msg: Tensor) -> Tensor:
        return _MEAN_AGG(msg, **attrs)

    return aggregate


def _mean_agg(lease, msg, src_sorted, starts, segments, num_nodes, inv_deg,
              perm, src_layout):
    cols, dtype = msg.shape[1:], msg.dtype
    gathered = xp.take(msg, src_sorted, axis=0,
                       out=lease.scratch(src_sorted.shape + cols, dtype, 0))
    sums = lease.array((num_nodes,) + cols, dtype, 2)
    sums.fill(0.0)
    if starts.size:
        sums[segments] = xp.add_reduceat(
            gathered, starts, axis=0,
            out=lease.scratch(starts.shape + cols, dtype, 1))
    return xp.multiply(sums, inv_deg, out=lease(sums.shape,
                                                _dtype(sums, inv_deg))), None


def _mean_agg_vjp(lease, g, need, out, saved, msg, src_sorted, starts,
                  segments, num_nodes, inv_deg, perm, src_layout):
    cols, dtype = g.shape[1:], _dtype(g, inv_deg)
    scaled = xp.multiply(g, inv_deg, out=lease.scratch(g.shape, dtype, 0))
    grad = lease.array((num_nodes,) + cols, dtype)
    grad.fill(0.0)
    src_starts = src_layout.starts
    if src_sorted.size and src_starts.size:
        ordered = xp.take(scaled, perm, axis=0,
                          out=lease.scratch(perm.shape + cols, dtype, 1))
        grad[src_layout.segments] = xp.add_reduceat(
            ordered, src_starts, axis=0,
            out=lease.scratch(src_starts.shape + cols, dtype, 2))
    return (grad,)


_MEAN_AGG = Primitive("mean_agg", _mean_agg, _mean_agg_vjp)


class GCNConv(Module):
    """Kipf & Welling graph convolution with symmetric degree normalisation."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: Optional[xp.Generator] = None):
        super().__init__()
        self.linear = Linear(in_dim, out_dim, rng=rng)

    def forward(self, x: Tensor, edge_index: EdgeIndexLike) -> Tensor:
        num_nodes = x.shape[0]
        h = self.linear(x)
        layout = _as_layout(edge_index, num_nodes)
        if layout.num_edges == 0:
            return h
        edge_norm, self_norm = layout.gcn_norm_as(h.data.dtype)
        messages = (h.index_select(layout.src, layout=layout.src_layout)
                    * Tensor(edge_norm))
        aggregated = messages.scatter_add(layout.dst, num_nodes,
                                          layout=layout.dst_layout)
        # self connection with its own normalisation
        return aggregated + h * Tensor(self_norm)


class SAGEConv(Module):
    """GraphSAGE with mean aggregation."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: Optional[xp.Generator] = None):
        super().__init__()
        self.linear_self = Linear(in_dim, out_dim, rng=rng)
        self.linear_neigh = Linear(in_dim, out_dim, rng=rng)

    def forward(self, x: Tensor, edge_index: EdgeIndexLike) -> Tensor:
        num_nodes = x.shape[0]
        layout = _as_layout(edge_index, num_nodes)
        if layout.num_edges == 0:
            return self.linear_self(x)
        neigh_sum = (x.index_select(layout.src, layout=layout.src_layout)
                     .scatter_add(layout.dst, num_nodes,
                                  layout=layout.dst_layout))
        neigh_mean = neigh_sum * Tensor(layout.inv_in_deg_as(x.data.dtype))
        return self.linear_self(x) + self.linear_neigh(neigh_mean)


class GATConv(Module):
    """Single-head graph attention (Velickovic et al.), softmax over in-edges."""

    def __init__(self, in_dim: int, out_dim: int, leaky_slope: float = 0.2,
                 rng: Optional[xp.Generator] = None):
        super().__init__()
        rng = rng or xp.default_rng(0)
        self.linear = Linear(in_dim, out_dim, rng=rng)
        self.att_src = Tensor(init.xavier_uniform((out_dim, 1), rng),
                              requires_grad=True, name="att_src")
        self.att_dst = Tensor(init.xavier_uniform((out_dim, 1), rng),
                              requires_grad=True, name="att_dst")
        self.leaky_slope = leaky_slope

    def forward(self, x: Tensor, edge_index: EdgeIndexLike) -> Tensor:
        num_nodes = x.shape[0]
        h = self.linear(x)
        layout = _as_layout(edge_index, num_nodes)
        if layout.num_edges == 0:
            return h
        src_layout, dst_layout = layout.src_layout, layout.dst_layout
        alpha_src = (h @ self.att_src)        # [n, 1]
        alpha_dst = (h @ self.att_dst)
        e = (alpha_src.index_select(layout.src, layout=src_layout)
             + alpha_dst.index_select(layout.dst, layout=dst_layout)
             ).leaky_relu(self.leaky_slope)
        # softmax over incoming edges of each destination node; sub_max is
        # bit-for-bit the old `e - float(e.data.max())` shift (x + (-m) ==
        # x - m) but stays one replayable primitive
        e_exp = e.sub_max().exp()
        denom = e_exp.scatter_add(layout.dst, num_nodes,
                                  layout=dst_layout)          # [n, 1]
        att = e_exp / (denom.index_select(layout.dst, layout=dst_layout)
                       + 1e-12)
        messages = h.index_select(layout.src, layout=src_layout) * att
        aggregated = messages.scatter_add(layout.dst, num_nodes,
                                          layout=dst_layout)
        return aggregated + h


class GGNNConv(Module):
    """Gated graph convolution (Li et al.): GRU update over aggregated
    neighbour messages, iterated ``num_steps`` times.

    This is the per-relation convolution the paper selects for the
    heterogeneous GNN ("each homogeneous sub-network ... is a Gated Graph
    Convolutional Network with a mean aggregation scheme").  The degree
    normalisation and the sorted edge layout are loop invariant, so both are
    hoisted out of the ``num_steps`` unrolling.
    """

    def __init__(self, in_dim: int, out_dim: int, num_steps: int = 2,
                 rng: Optional[xp.Generator] = None):
        super().__init__()
        rng = rng or xp.default_rng(0)
        self.project = Linear(in_dim, out_dim, rng=rng)
        self.message = Linear(out_dim, out_dim, rng=rng)
        self.gru = FusedGRUCell(out_dim, out_dim, rng=rng)
        self.num_steps = int(num_steps)

    def forward(self, x: Tensor, edge_index: EdgeIndexLike) -> Tensor:
        num_nodes = x.shape[0]
        h = self.project(x)
        layout = _as_layout(edge_index, num_nodes)
        if layout.num_edges == 0:
            return h
        if fast_segment_ops_enabled():
            aggregate = _mean_aggregator(layout, h.data.dtype)
            for _ in range(self.num_steps):
                h = self.gru(aggregate(self.message(h)), h)
            return h
        # reference path: gather in edge order, xp.add_at scatter (seed math)
        src, dst = layout.src, layout.dst
        deg_in = Tensor(layout.inv_in_deg_as(h.data.dtype))
        for _ in range(self.num_steps):
            msgs = self.message(h).index_select(src)
            agg = msgs.scatter_add(dst, num_nodes) * deg_in  # mean aggregation
            h = self.gru(agg, h)
        return h


_CONV_TYPES = {
    "gcn": GCNConv,
    "sage": SAGEConv,
    "gat": GATConv,
    "ggnn": GGNNConv,
}


def make_conv(kind: str, in_dim: int, out_dim: int,
              rng: Optional[xp.Generator] = None, **kwargs) -> Module:
    """Factory over the convolution types compared in §4.1.3."""
    try:
        cls = _CONV_TYPES[kind.lower()]
    except KeyError as exc:
        raise ValueError(f"unknown conv type {kind!r}; "
                         f"choose from {sorted(_CONV_TYPES)}") from exc
    return cls(in_dim, out_dim, rng=rng, **kwargs)
