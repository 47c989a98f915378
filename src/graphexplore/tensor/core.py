"""Dense floating-point tensors with reverse-mode automatic differentiation.

Everything is eager: an op computes its numpy result immediately and, when a
Tape is active and some input requires grad, records a backward closure on
that tape. Tapes are plain ordered lists, so reverse iteration is already a
valid topological order and backward visits each node exactly once.

Every op computes in the floating dtype of its inputs, backward passes
included, so the parameters choose the dtype: float32 parameters train in
float32, and float64 ones (finite-difference checks, reference runs) repeat
the float64 arithmetic bit for bit. A non-tensor operand of a binary op (a
Python scalar, a constant array) takes the tensor operand's dtype.

Tapes are single-threaded: one module-level stack holds the active tapes.
"""

from __future__ import annotations

import gc
import math
from types import SimpleNamespace

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names the op and both shapes."""

    def __init__(self, op, shape_a, shape_b):
        super().__init__(f"{op}: incompatible shapes {tuple(shape_a)} and {tuple(shape_b)}")
        self.op = op
        self.shapes = (tuple(shape_a), tuple(shape_b))


class Tensor:
    """A dense floating-point array plus a requires_grad flag. A float array
    keeps its dtype; anything else (a scalar, a list, an integer or bool
    array) becomes float64."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; the real work lives in the module-level ops.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b):
    """Both operands of a binary op as tensors; a non-tensor one takes the
    other's dtype, so that `t * 0.5` stays in t's dtype."""
    if isinstance(a, Tensor):
        return a, b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return Tensor(a), Tensor(b)


class Tape:
    """Ordered record of primitive ops. Each node holds (output, inputs,
    backward closure); construction order is the topological order."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def record(self, out, inputs, backward_fn):
        self._nodes.append((out, inputs, backward_fn))

    def __enter__(self):
        if not _STATE.stack:
            # Each recorded op keeps a few container objects alive (the node,
            # its inputs, the backward closure and its cells) until the tape
            # goes. They form no reference cycles, so reference counting frees
            # them, and a cyclic collection would only rescan the growing
            # tape: a rollout's recording triggered ~20 of them per update. So
            # the collector pauses while the outermost tape records.
            _STATE.gc_was_enabled = gc.isenabled()
            gc.disable()
        _STATE.stack.append(self)
        return self

    def __exit__(self, *exc):
        popped = _STATE.stack.pop()
        assert popped is self
        if not _STATE.stack and _STATE.gc_was_enabled:
            gc.enable()

    def gradients(self, loss, params=None):
        """Backward pass from a scalar loss.

        Returns a dict mapping each requires-grad leaf tensor reached from the
        loss to its gradient Tensor. Leaves in `params` (an iterable of
        tensors) that the loss never touched get zero gradients.
        """
        if loss.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
        grads = {id(loss): np.ones_like(loss.data)}
        keep = {id(loss): loss}
        # Accumulators this pass allocated itself. Nothing else sees them until
        # their tensor's node hands them on, so they may grow in place; a
        # first piece may alias an upstream gradient and is never written to.
        owned = set()
        for out, inputs, backward_fn in reversed(self._nodes):
            oid = id(out)
            g = grads.pop(oid, None)
            keep.pop(oid, None)
            owned.discard(oid)
            if g is None:
                continue
            for t, piece in zip(inputs, backward_fn(g)):
                if piece is None or not t.requires_grad:
                    continue
                tid = id(t)
                acc = grads.get(tid)
                if acc is None:
                    grads[tid] = piece
                    keep[tid] = t
                elif tid in owned:
                    acc += piece
                else:
                    grads[tid] = acc + piece
                    owned.add(tid)
        result = {}
        for tid, t in keep.items():
            if t.requires_grad:
                result[t] = Tensor(grads[tid])
        if params is not None:
            for p in params:
                if p not in result:
                    result[p] = Tensor(np.zeros_like(p.data))
        return result


_STATE = SimpleNamespace(stack=[], disabled=0, gc_was_enabled=True)


def active_tape():
    if _STATE.disabled or not _STATE.stack:
        return None
    return _STATE.stack[-1]


class no_grad:
    """Context manager that suppresses tape recording (greedy rollouts)."""

    def __enter__(self):
        _STATE.disabled += 1
        return self

    def __exit__(self, *exc):
        _STATE.disabled -= 1


def _emit(out_data, inputs, backward_fn):
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                tape.record(out, inputs, backward_fn)
                break
    return out


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------- primitives


def add(a, b):
    a, b = _operands(a, b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape) from None

    def backward(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    return _emit(out, (a, b), backward)


def sub(a, b):
    a, b = _operands(a, b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError("sub", a.shape, b.shape) from None

    def backward(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))

    return _emit(out, (a, b), backward)


def mul(a, b):
    a, b = _operands(a, b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape) from None

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape))

    return _emit(out, (a, b), backward)


def matmul(a, b):
    """(m, k) @ (k, n) -> (m, n), or (m, k) @ (k,) -> (m,)."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim not in (1, 2) or ad.shape[1] != bd.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = ad @ bd

    def backward(g):
        if bd.ndim == 1:  # (m,k) @ (k,) -> (m,)
            return (np.outer(g, bd), ad.T @ g)
        return (g @ bd.T, ad.T @ g)

    return _emit(out, (a, b), backward)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    datas = [t.data for t in tensors]
    try:
        out = np.concatenate(datas, axis=axis)
    except ValueError:
        raise ShapeError("concat", datas[0].shape, datas[-1].shape) from None
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas]).tolist()
    lead = (slice(None),) * (axis % out.ndim)

    def backward(g):  # views of g, one per input
        return tuple(g[lead + (slice(lo, hi),)] for lo, hi in zip(offsets, offsets[1:]))

    return _emit(out, tuple(tensors), backward)


def slice_(a, start, stop, axis=0):
    a = as_tensor(a)
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = a.data[index]

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _emit(out.copy(), (a,), backward)


def reshape(a, shape):
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _emit(out.copy(), (a,), backward)


def relu(a):
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (a.data > 0.0),)

    return _emit(out, (a,), backward)


def log_softmax(a):
    """Log-probabilities of a softmax over the last axis as one tape op:
    shifted - log(sum(exp(shifted))), where shifted = a - max(a)."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1))[..., None]

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _emit(out, (a,), backward)


def entropy(log_probs):
    """Entropy -sum(exp(lp) * lp) over the last axis of log-probabilities lp,
    as one tape op; an entry whose exp(lp) is exactly 0 (a masked action)
    contributes exactly 0."""
    lp = as_tensor(log_probs)
    p = np.exp(lp.data)
    out = -(p * lp.data).sum(axis=-1)

    def backward(g):
        return (-g[..., None] * p * (lp.data + 1.0),)

    return _emit(out, (lp,), backward)


def reduce_sum(a):
    """Sum of every element of `a`."""
    a = as_tensor(a)
    out = a.data.sum()

    def backward(g):
        return (np.full_like(a.data, float(g)),)

    return _emit(out, (a,), backward)


def _scatter_rows(ids, values, shape):
    """Array of `shape` whose row r sums the rows values[i] with ids[i] == r.

    One flattened np.bincount: it adds in index order, as np.add.at does, so
    the result is bit-identical, but it runs several times faster."""
    ids = np.asarray(ids, dtype=np.intp).reshape(-1)
    width = math.prod(shape[1:])
    flat = (ids[:, None] * width + np.arange(width)).reshape(-1)
    out = np.bincount(flat, weights=values.reshape(-1), minlength=shape[0] * width)
    if out.size != shape[0] * width:
        raise IndexError(f"row id outside [0, {shape[0]})")
    return out.astype(values.dtype, copy=False).reshape(shape)  # bincount sums in float64


def segment_aggregate(values, segment_ids, num_segments):
    """Per-segment sum over the leading axis.

    values: (n, ...) tensor; segment_ids: int array of length n with entries in
    [0, num_segments). Empty segments produce zeros.
    """
    values = as_tensor(values)
    seg = np.asarray(segment_ids, dtype=np.intp)
    if seg.shape != (values.data.shape[0],):
        raise ShapeError("segment_aggregate", values.shape, seg.shape)
    out = _scatter_rows(seg, values.data, (num_segments,) + values.data.shape[1:])

    def backward(g):
        return (g[seg],)

    return _emit(out, (values,), backward)


def _block_products(blocks, x, transpose=False):
    """Rows of x multiplied block by block: with consecutive square blocks A
    tiling the rows, rows lo:hi of the result are A @ x[lo:hi] (A.T @ x[lo:hi]
    when transposed)."""
    out = np.empty(x.shape, dtype=x.dtype)
    lo = 0
    for A in blocks:
        hi = lo + A.shape[0]
        np.matmul(A.T if transpose else A, x[lo:hi], out=out[lo:hi])
        lo = hi
    return out


def graph_message(h, W, b, blocks, degree, type_counts):
    """Summed incoming messages of every node as one tape op. Edge (u, v, k)
    sends [h_v, h_u, onehot(k)] W + b to v; the sum over v's in-edges is

        [degree_v h_v, sum_u h_u, type_counts_v] W + degree_v b

    h is (n, d) and W (2d + K, d'); degree holds the (n, 1) in-degrees and
    type_counts the (n, K) per-type in-degree counts. blocks are square
    arrays that tile the n nodes in order, the diagonal blocks of the in-edge
    count matrix: block[v, u] counts the edges u -> v, in the block's own
    node numbering. So sum_u h_u is one product per block (A.T in the
    backward), and no edge may join two blocks. The backward keeps only the
    (n, 2d + K) input rows."""
    h, W, b = as_tensor(h), as_tensor(W), as_tensor(b)
    hd, Wd = h.data, W.data
    if hd.ndim != 2 or Wd.shape[0] != 2 * hd.shape[1] + type_counts.shape[1]:
        raise ShapeError("graph_message", h.shape, W.shape)
    if sum(A.shape[0] for A in blocks) != hd.shape[0]:
        raise ShapeError("graph_message", h.shape, [A.shape for A in blocks])
    d = hd.shape[1]
    inputs = np.concatenate([degree * hd, _block_products(blocks, hd), type_counts], axis=1)
    out = inputs @ Wd + degree * b.data

    def backward(g):
        d_in = g @ Wd.T
        dh = d_in[:, :d] * degree
        dh += _block_products(blocks, d_in[:, d : 2 * d], transpose=True)
        return (dh, inputs.T @ g, (g * degree).sum(axis=0))

    return _emit(out, (h, W, b), backward)


def segment_softmax(scores, segment_ids, num_segments):
    """Softmax of a (n,) score vector within each segment: entries sharing a
    segment id sum to 1. The per-segment max is subtracted first."""
    scores = as_tensor(scores)
    seg = np.asarray(segment_ids, dtype=np.intp)
    if scores.data.ndim != 1 or seg.shape != scores.data.shape:
        raise ShapeError("segment_softmax", scores.shape, seg.shape)
    dtype = scores.data.dtype
    top = np.full(num_segments, -np.inf, dtype=dtype)
    np.maximum.at(top, seg, scores.data)
    e = np.exp(scores.data - top[seg])
    out = e / np.bincount(seg, weights=e, minlength=num_segments).astype(dtype, copy=False)[seg]

    def backward(g):
        dot = np.bincount(seg, weights=g * out, minlength=num_segments).astype(dtype, copy=False)
        return (out * (g - dot[seg]),)

    return _emit(out, (scores,), backward)


def embed_lookup(table, ids):
    """Row gather: table (n, d), ids int array -> (len(ids), d)."""
    table = as_tensor(table)
    idx = np.asarray(ids, dtype=np.intp)
    out = table.data[idx]

    def backward(g):
        return (_scatter_rows(idx, g, table.data.shape),)

    return _emit(out, (table,), backward)


def gru_cell(x, h, Wx, Wh_zr, b_zr, Wh_n, b_n):
    """One gated-recurrent-unit step as a single tape op:

        z, r = sigmoid(x Wx_zr + h Wh_zr + b_zr) split in halves
        n    = tanh(x Wx_n + (r * h) Wh_n + b_n)
        h'   = (1 - z) * n + z * h

    x is (rows, n_in) and h the matching (rows, H). Wx is [Wx_zr | Wx_n],
    one (n_in, 3H) tensor (GRUCell.input_weight), which a caller that steps
    the cell several times with the same weights builds once, so its one
    gradient is split into the two halves once. Runs three products
    (x @ Wx, h @ Wh_zr, (r * h) @ Wh_n) and keeps only the gates for its
    hand-written backward, where the composed ops would record 17 nodes and
    their temporaries. The elementwise steps of both passes run in place on
    the products' results, in the formula's operand order, so they allocate
    almost nothing beyond the products."""
    x, h, Wx, Wh_zr, b_zr, Wh_n, b_n = (as_tensor(t) for t in (x, h, Wx, Wh_zr, b_zr, Wh_n, b_n))
    n_in, H = Wx.data.shape[0], Wh_n.data.shape[0]
    xd, hd = x.data, h.data
    if xd.ndim != 2 or hd.shape != (xd.shape[0], H) or xd.shape[1] != n_in:
        raise ShapeError("gru_cell", x.shape, h.shape)
    if Wx.data.shape[1] != 3 * H:
        raise ShapeError("gru_cell", Wx.shape, (n_in, 3 * H))
    xw = xd @ Wx.data
    zr = hd @ Wh_zr.data
    zr += xw[:, : 2 * H]
    zr += b_zr.data
    np.negative(zr, out=zr)
    # Below a = -88 in float32 (-709 in float64) exp(-a) overflows to inf, and
    # 1 / (1 + inf) is the gate's exact limit 0: nothing to warn about.
    with np.errstate(over="ignore"):
        np.exp(zr, out=zr)
    zr += 1.0
    np.divide(1.0, zr, out=zr)
    z, r = zr[:, :H], zr[:, H:]
    rh = r * hd
    n = rh @ Wh_n.data
    n += xw[:, 2 * H :]
    n += b_n.data
    np.tanh(n, out=n)
    out = 1.0 - z
    out *= n
    out += z * hd

    def backward(g):
        dxw = np.empty((hd.shape[0], 3 * H), dtype=zr.dtype)
        dzr, dn = dxw[:, : 2 * H], dxw[:, 2 * H :]
        np.subtract(1.0, z, out=dn)
        dn *= g
        t = n * n
        np.subtract(1.0, t, out=t)
        dn *= t
        drh = dn @ Wh_n.data.T
        np.subtract(hd, n, out=dzr[:, :H])
        dzr[:, :H] *= g
        np.multiply(drh, hd, out=dzr[:, H:])
        dzr *= zr
        t = 1.0 - zr
        dzr *= t
        dh = g * z
        drh *= r
        dh += drh
        dh += dzr @ Wh_zr.data.T
        dx = None
        if x.requires_grad:
            dx = dxw @ Wx.data.T
        return (
            dx,
            dh,
            xd.T @ dxw,
            hd.T @ dzr,
            dzr.sum(axis=0),
            rh.T @ dn,
            dn.sum(axis=0),
        )

    return _emit(out, (x, h, Wx, Wh_zr, b_zr, Wh_n, b_n), backward)


def lstm_cell(x, hc, Wx, Wh, b):
    """One long short-term-memory step as a single tape op:

        i, f, g, o = quarters of x Wx + h Wh + b, through sigmoid, sigmoid,
                     tanh and sigmoid
        c' = f * c + i * g
        h' = o * tanh(c')

    x is (rows, n_in). The state hc holds h and c side by side, the matching
    (rows, 2H), and the result is the next state [h' | c'] of that shape.
    The hand-written backward keeps only the gates and tanh(c'), where the
    composed ops would record 17 nodes."""
    x, hc, Wx, Wh, b = (as_tensor(t) for t in (x, hc, Wx, Wh, b))
    n_in, H = Wx.data.shape[0], Wx.data.shape[1] // 4
    xd, hcd = x.data, hc.data
    if xd.ndim != 2 or hcd.shape != (xd.shape[0], 2 * H) or xd.shape[1] != n_in:
        raise ShapeError("lstm_cell", x.shape, hc.shape)
    h, c = hcd[:, :H], hcd[:, H:]
    a = xd @ Wx.data + h @ Wh.data + b.data
    with np.errstate(over="ignore"):  # an inf exp(-a) gives the exact limit 0, as in gru_cell
        i = 1.0 / (1.0 + np.exp(-a[:, :H]))
        f = 1.0 / (1.0 + np.exp(-a[:, H : 2 * H]))
        o = 1.0 / (1.0 + np.exp(-a[:, 3 * H :]))
    g = np.tanh(a[:, 2 * H : 3 * H])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    out = np.concatenate([o * tc, c_new], axis=1)

    def backward(gout):
        dh_new = gout[:, :H]
        dc = gout[:, H:] + dh_new * o * (1.0 - tc * tc)
        da = np.empty((gout.shape[0], 4 * H), dtype=i.dtype)
        da[:, :H] = dc * g * i * (1.0 - i)
        da[:, H : 2 * H] = dc * c * f * (1.0 - f)
        da[:, 2 * H : 3 * H] = dc * i * (1.0 - g * g)
        da[:, 3 * H :] = dh_new * tc * o * (1.0 - o)
        dhc = None
        if hc.requires_grad:
            dhc = np.concatenate([da @ Wh.data.T, dc * f], axis=1)
        return (
            da @ Wx.data.T if x.requires_grad else None,
            dhc,
            xd.T @ da,
            h.T @ da,
            da.sum(axis=0),
        )

    return _emit(out, (x, hc, Wx, Wh, b), backward)
