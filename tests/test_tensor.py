import inspect
import re
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexplore.tensor import (
    GRUCell,
    GradientError,
    LSTMCell,
    MLP,
    OptimizerState,
    ParamSet,
    ShapeError,
    Tape,
    Tensor,
    clip_global_norm,
    concat,
    load_params,
    matmul,
    no_grad,
    optimizer_step,
    reduce_sum,
    relu,
    save_params,
    segment_aggregate,
    segment_softmax,
    slice_,
)
from graphexplore.tensor import core
from graphexplore.tensor.core import (
    _scatter_rows,
    embed_lookup,
    entropy,
    graph_message,
    gru_cell,
    log_softmax,
    lstm_cell,
    reshape,
)

from reference import grad_check, sigmoid, softmax, tanh


def scalar(x):
    return Tensor(np.asarray(x, dtype=np.float64))


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 3)))
    eye = Tensor(np.eye(3))
    out = matmul(eye, a)
    assert np.allclose(out.data, a.data)


def test_softmax_symmetry():
    out = softmax(Tensor(np.zeros(2)))
    assert np.allclose(out.data, [0.5, 0.5])


def test_segment_sum_direct():
    out = segment_aggregate(Tensor([1.0, 2.0, 3.0]), [0, 0, 1], 2)
    assert np.allclose(out.data, [3.0, 3.0])


def test_segment_sum_matches_loop():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(20, 4))
    seg = rng.integers(0, 5, size=20)
    out = segment_aggregate(Tensor(values), seg, 5)
    expected = np.zeros((5, 4))
    for i in range(20):
        expected[seg[i]] += values[i]
    assert np.array_equal(out.data, expected)


def test_segment_empty_segments_are_zero():
    out = segment_aggregate(Tensor([[1.0, 2.0]]), [2], 4)
    assert np.array_equal(out.data[0], [0.0, 0.0])
    assert np.array_equal(out.data[2], [1.0, 2.0])


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    with Tape() as tape:
        loss = x * x
    grads = tape.gradients(loss)
    assert np.allclose(grads[x].data, 6.0)


def test_backward_softmax_sum_is_zero_grad():
    z = Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = reduce_sum(softmax(z))
    grads = tape.gradients(loss)
    assert np.allclose(grads[z].data, 0.0, atol=1e-12)


def test_backward_mlp_finite_difference():
    params = ParamSet(seed=7, dtype=np.float64)
    mlp = MLP(params, "net", [4, 8, 1])
    x = np.random.default_rng(3).normal(size=4)

    def fn(p):
        return reduce_sum(mlp(Tensor(x)))

    assert grad_check(fn, params.named(), eps=1e-5) < 1e-4


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
    with pytest.raises(ValueError, match="scalar"):
        tape.gradients(y)


def test_backward_unreferenced_param_gets_zeros():
    used = Tensor(2.0, requires_grad=True)
    unused = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        loss = used * used
    grads = tape.gradients(loss, params=[used, unused])
    assert np.array_equal(grads[unused].data, np.zeros((2, 2)))


def test_backward_deterministic_bits():
    rng = np.random.default_rng(11)
    w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
    x = Tensor(rng.normal(size=6))

    def run():
        with Tape() as tape:
            h = tanh(matmul(x, w))
            loss = reduce_sum(softmax(h) * h)
        return tape.gradients(loss)[w].data

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    msg = str(exc.value)
    assert "matmul" in msg and "(2, 3)" in msg and "(4, 2)" in msg


def test_softmax_empty_axis_errors():
    with pytest.raises(ValueError, match="empty"):
        softmax(Tensor(np.zeros((0,))))


def test_no_grad_suppresses_recording():
    x = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        with no_grad():
            y = x * x
        assert not y.requires_grad
    assert len(tape) == 0


# Finite-difference sweep over every primitive with randomized inputs.

def _fd_case(op_name, rng):
    if op_name == "matmul":
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        other = Tensor(rng.normal(size=(4, 2)))
        return {"x": x}, lambda p: reduce_sum(matmul(p["x"], other) * w_for((3, 2), rng))
    if op_name in ("add", "mul", "sub"):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        other = Tensor(rng.normal(size=(2, 3)))
        fn = {"add": lambda a, b: a + b, "mul": lambda a, b: a * b, "sub": lambda a, b: a - b}[
            op_name
        ]
        return {"x": x}, lambda p: reduce_sum(fn(p["x"], other) * w_for((2, 3), rng))
    if op_name == "concat":
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        other = Tensor(rng.normal(size=(2, 3)))
        return {"x": x}, lambda p: reduce_sum(concat([p["x"], other], axis=1) * w_for((2, 6), rng))
    if op_name == "slice":
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        return {"x": x}, lambda p: reduce_sum(slice_(p["x"], 1, 4) * w_for((3, 3), rng))
    if op_name == "reshape":
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        return {"x": x}, lambda p: reduce_sum(reshape(p["x"], (3, 4)) * w_for((3, 4), rng))
    if op_name in ("sigmoid", "tanh"):
        fn = {"sigmoid": sigmoid, "tanh": tanh}[op_name]
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        return {"x": x}, lambda p: reduce_sum(fn(p["x"]) * w_for((2, 4), rng))
    if op_name == "relu":
        data = rng.normal(size=(2, 4))
        data[np.abs(data) < 0.1] += 0.2  # keep clear of the kink
        x = Tensor(data, requires_grad=True)
        return {"x": x}, lambda p: reduce_sum(relu(p["x"]) * w_for((2, 4), rng))
    if op_name == "softmax":
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        return {"x": x}, lambda p: reduce_sum(softmax(p["x"], axis=1) * w_for((3, 4), rng))
    if op_name == "log_softmax":
        x = Tensor(rng.normal(size=(3, 4)) * 3.0, requires_grad=True)
        return {"x": x}, lambda p: reduce_sum(log_softmax(p["x"]) * w_for((3, 4), rng))
    if op_name == "entropy":
        data = rng.normal(size=(3, 4))
        x = Tensor(data - np.log(np.exp(data).sum(axis=1, keepdims=True)), requires_grad=True)
        return {"x": x}, lambda p: reduce_sum(entropy(p["x"]) * w_for((3,), rng))
    if op_name == "reduce_sum":
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        return {"x": x}, lambda p: reduce_sum(p["x"] * w_for((3, 4), rng))
    if op_name == "segment_aggregate":
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        seg = rng.integers(0, 3, size=6)
        return {"x": x}, lambda p: reduce_sum(segment_aggregate(p["x"], seg, 3)
                                              * w_for((3, 2), rng))
    if op_name == "segment_softmax":
        x = Tensor(rng.normal(size=7), requires_grad=True)
        seg = rng.integers(0, 3, size=7)
        return {"x": x}, lambda p: reduce_sum(segment_softmax(p["x"], seg, 3) * w_for((7,), rng))
    if op_name == "embed_lookup":
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = rng.integers(0, 5, size=4)
        return {"x": x}, lambda p: reduce_sum(embed_lookup(p["x"], ids) * w_for((4, 3), rng))
    if op_name == "graph_message":
        # 5 nodes in two blocks (0-2 and 3-4), 8 typed edges of 2 types
        # within them; node 4 receives none.
        lo = 3 * rng.integers(0, 2, size=8)
        src = lo + rng.integers(0, np.where(lo, 2, 3))
        dst = lo + rng.integers(0, np.where(lo, 1, 3))
        counts = np.zeros((5, 5))
        np.add.at(counts, (dst, src), 1.0)
        blocks = [counts[:3, :3], counts[3:, 3:]]
        type_counts = np.zeros((5, 2))
        np.add.at(type_counts, (dst, rng.integers(0, 2, size=8)), 1.0)
        degree = type_counts.sum(axis=1, keepdims=True)
        params = {k: Tensor(rng.normal(size=shape), requires_grad=True)
                  for k, shape in (("h", (5, 3)), ("W", (8, 4)), ("b", (4,)))}
        return params, lambda p: reduce_sum(
            graph_message(p["h"], p["W"], p["b"], blocks, degree, type_counts) * w_for((5, 4), rng))
    if op_name == "gru_cell":
        return _gru_case(rng, scale=0.5)
    if op_name == "lstm_cell":
        # Alternate (rows, 2H) and (2H,) states; every one of the 5 inputs is
        # checked, through both halves of the [h | c] state and output.
        lead = (3,) if rng.integers(0, 2) else ()
        shapes = {"x": lead + (3,), "hc": lead + (4,), "Wx": (3, 8), "Wh": (2, 8), "b": (8,)}
        params = {k: Tensor(rng.normal(size=shape), requires_grad=True)
                  for k, shape in shapes.items()}
        return params, lambda p: reduce_sum(lstm_cell(*(p[k] for k in shapes)) * w_for(lead + (4,), rng))
    raise AssertionError(op_name)


def _gru_case(rng, scale):
    # Alternate (rows, H) and (H,) states; every one of the 7 inputs is checked.
    lead = (3,) if rng.integers(0, 2) else ()
    shapes = {"x": lead + (3,), "h": lead + (2,), "Wx": (3, 6), "Wh_zr": (2, 4),
              "b_zr": (4,), "Wh_n": (2, 2), "b_n": (2,)}
    params = {k: Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)
              for k, shape in shapes.items()}
    return params, lambda p: reduce_sum(gru_cell(*(p[k] for k in shapes)) * w_for(lead + (2,), rng))


_W_CACHE = {}


def w_for(shape, rng):
    # One fixed weighting per shape keeps fn pure across grad_check's re-evaluations.
    key = shape
    if key not in _W_CACHE:
        _W_CACHE[key] = Tensor(np.random.default_rng(99).normal(size=shape))
    return _W_CACHE[key]


ALL_OPS = [
    "matmul",
    "add",
    "mul",
    "sub",
    "concat",
    "slice",
    "reshape",
    "sigmoid",
    "tanh",
    "relu",
    "softmax",
    "log_softmax",
    "entropy",
    "reduce_sum",
    "segment_aggregate",
    "segment_softmax",
    "embed_lookup",
    "graph_message",
    "gru_cell",
    "lstm_cell",
]


@pytest.mark.parametrize("op_name", ALL_OPS)
def test_primitive_gradients_match_finite_differences(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    for _ in range(100):
        params, fn = _fd_case(op_name, rng)
        assert grad_check(fn, params, eps=1e-5) < 1e-4


def test_finite_difference_sweep_covers_every_primitive():
    public = {
        name for name, fn in inspect.getmembers(core, inspect.isfunction)
        if fn.__module__ == core.__name__ and not name.startswith("_")
    } - {"as_tensor", "active_tape"}
    reference_ops = {"sigmoid", "softmax", "tanh"}  # in tests/reference.py
    assert {"slice" if name == "slice_" else name for name in public} | reference_ops == set(ALL_OPS)


@pytest.mark.parametrize("lead", [(5,), ()])
def test_gru_cell_equals_composed_ops(lead):
    params = ParamSet(seed=2)
    cell = GRUCell(params, "gru", 3, 4)
    for p in params.named().values():  # nonzero biases too
        p.data += np.random.default_rng(3).normal(scale=0.5, size=p.data.shape)
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=lead + (3,)), requires_grad=True)
    h = Tensor(rng.normal(size=lead + (4,)), requires_grad=True)
    weights = Tensor(rng.normal(size=lead + (4,)))

    def composed(x, h):
        axis = len(lead)
        zr = sigmoid(matmul(x, cell.Wx_zr) + matmul(h, cell.Wh_zr) + cell.b_zr)
        z, r = slice_(zr, 0, 4, axis=axis), slice_(zr, 4, 8, axis=axis)
        n = tanh(matmul(x, cell.Wx_n) + matmul(r * h, cell.Wh_n) + cell.b_n)
        return (1.0 - z) * n + z * h

    def fused(x, h):
        return cell(x, h, cell.input_weight())

    results = []
    for step in (composed, fused):
        with Tape() as tape:
            out = step(x, h)
            loss = reduce_sum(out * weights)
        # input_weight's concat and gru_cell, against 17 ops; the loss adds 2.
        assert len(tape) == (2 if step is fused else 17) + 2
        grads = tape.gradients(loss, params=[*params.named().values(), x, h])
        results.append((out.data, [grads[t].data for t in [*params.named().values(), x, h]]))
    (want, want_grads), (got, got_grads) = results
    assert got.shape == lead + (4,)
    assert np.max(np.abs(got - want)) <= 1e-12
    for g, w in zip(got_grads, want_grads):
        assert np.max(np.abs(g - w)) <= 1e-12


def gru_reference(x, h, Wx, Wh_zr, b_zr, Wh_n, b_n, g):
    """gru_cell's forward and backward formulas on (rows, n) arrays, with a
    fresh array for every intermediate: (output, the 7 input gradients)."""
    H = h.shape[1]
    xw = x @ Wx
    zr = 1.0 / (1.0 + np.exp(-(xw[:, : 2 * H] + h @ Wh_zr + b_zr)))
    z, r = zr[:, :H], zr[:, H:]
    rh = r * h
    n = np.tanh(xw[:, 2 * H :] + rh @ Wh_n + b_n)
    out = (1.0 - z) * n + z * h
    dn = g * (1.0 - z) * (1.0 - n * n)
    drh = dn @ Wh_n.T
    dzr = np.concatenate([g * (h - n), drh * h], axis=1) * zr * (1.0 - zr)
    dh = g * z + drh * r + dzr @ Wh_zr.T
    dxw = np.concatenate([dzr, dn], axis=1)
    return out, [dxw @ Wx.T, dh, x.T @ dxw, h.T @ dzr, dzr.sum(axis=0), rh.T @ dn,
                 dn.sum(axis=0)]


@pytest.mark.parametrize("rows", [1, 36, 84, 2937])
def test_gru_cell_in_place_steps_equal_the_reference_bit_for_bit(rows):
    # Same formulas in the same operand order: working in place may not move
    # a single bit of the output or of any gradient.
    rng = np.random.default_rng(rows)
    H = 64
    arrays = [rng.normal(size=(rows, H)), rng.normal(size=(rows, H))]
    arrays += [rng.normal(scale=0.2, size=shape)
               for shape in ((H, 3 * H), (H, 2 * H), (2 * H,), (H, H), (H,))]
    g = rng.normal(size=(rows, H))
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = gru_cell(*inputs)
        loss = reduce_sum(out * Tensor(g))
    grads = tape.gradients(loss, params=inputs)
    want, want_grads = gru_reference(*arrays, g)
    assert np.array_equal(out.data, want)
    for t, w in zip(inputs, want_grads):
        assert np.array_equal(grads[t].data, w)


@pytest.mark.parametrize("lead", [(5,), ()])
def test_lstm_cell_equals_composed_ops(lead):
    params = ParamSet(seed=2)
    cell = LSTMCell(params, "lstm", 3, 4)
    assert cell.b.data.tolist() == [0.0] * 4 + [1.0] * 4 + [0.0] * 8  # forget bias 1
    for p in params.named().values():  # nonzero biases too
        p.data += np.random.default_rng(3).normal(scale=0.5, size=p.data.shape)
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=lead + (3,)), requires_grad=True)
    hc = Tensor(rng.normal(size=lead + (8,)), requires_grad=True)
    weights = Tensor(rng.normal(size=lead + (8,)))

    def composed(x, hc):
        axis = len(lead)
        h, c = slice_(hc, 0, 4, axis=axis), slice_(hc, 4, 8, axis=axis)
        gates = matmul(x, cell.Wx) + matmul(h, cell.Wh) + cell.b
        i = sigmoid(slice_(gates, 0, 4, axis=axis))
        f = sigmoid(slice_(gates, 4, 8, axis=axis))
        g = tanh(slice_(gates, 8, 12, axis=axis))
        o = sigmoid(slice_(gates, 12, 16, axis=axis))
        c_new = f * c + i * g
        return concat([o * tanh(c_new), c_new], axis=axis)

    results = []
    for step in (composed, cell):
        with Tape() as tape:
            out = step(x, hc)
            loss = reduce_sum(out * weights)
        # The cell is one lstm_cell op, against the 17 ops of the formula
        # between the slices and the concat that unpack and pack the state;
        # the loss adds 2.
        assert len(tape) == (1 if step is cell else 2 + 17 + 1) + 2
        grads = tape.gradients(loss, params=[*params.named().values(), x, hc])
        results.append(([out.data], [grads[t].data for t in [*params.named().values(), x, hc]]))
    (want, want_grads), (got, got_grads) = results
    assert got[0].shape == lead + (8,)
    for g, w in zip(got + got_grads, want + want_grads):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12


def test_lstm_cell_rejects_mismatched_state():
    cell = LSTMCell(ParamSet(seed=0), "lstm", 3, 2)
    with pytest.raises(ShapeError, match="lstm_cell"):
        cell(Tensor(np.ones((4, 3))), Tensor(np.ones((5, 4))))
    with pytest.raises(ShapeError, match="lstm_cell"):
        cell(Tensor(np.ones((4, 3))), Tensor(np.ones((4, 3))))


def test_gru_cell_rejects_mismatched_rows():
    cell = GRUCell(ParamSet(seed=0), "gru", 3, 2)
    Wx = cell.input_weight()
    with pytest.raises(ShapeError, match="gru_cell"):
        cell(Tensor(np.ones((4, 3))), Tensor(np.ones((5, 2))), Wx)
    with pytest.raises(ShapeError, match="gru_cell"):
        cell(Tensor(np.ones(3)), Tensor(np.ones((1, 2))), Wx)
    with pytest.raises(ShapeError, match="gru_cell"):
        cell(Tensor(np.ones(3)), Tensor(np.ones(2)), slice_(Wx, 0, 4, axis=1))


def test_float32_gates_saturate_to_their_exact_limits_without_a_warning():
    # Pre-activations of -100 overflow exp(-a) in float32; the gates must
    # still come out exactly 0, and +100 exactly 1, with no RuntimeWarning.
    f32 = np.float32
    x = Tensor(np.array([[1.0], [-1.0]], dtype=f32), requires_grad=True)
    h = Tensor(np.full((2, 1), 0.3, dtype=f32), requires_grad=True)
    hc = Tensor(np.tile(np.array([0.3, 0.7], dtype=f32), (2, 1)), requires_grad=True)
    c = hc.data[0, 1]
    # gru_cell: row 0 has z = 1 (h' = h), row 1 has z = 0 and r = 1 (h' = n).
    gru_weights = [np.array(a, dtype=f32) for a in ([[100.0, -100.0, 0.5]], [[0.0, 0.0]],
                                                      [0.0, 0.0], [[0.25]], [0.0])]
    # lstm_cell gates (i, f, g, o): row 0 has i = 0, f = 1, o = 1; row 1 the opposite.
    lstm = [np.array(a, dtype=f32) for a in ([[-100.0, 100.0, 0.5, 100.0]], [[0.0] * 4], [0.0] * 4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            h_gru = gru_cell(x, h, *(Tensor(a, requires_grad=True) for a in gru_weights))
            hc_new = lstm_cell(x, hc, *(Tensor(a, requires_grad=True) for a in lstm))
            loss = reduce_sum(h_gru) + reduce_sum(hc_new)
        grads = tape.gradients(loss)
    assert h_gru.data.dtype == hc_new.data.dtype == f32
    assert h_gru.data[0, 0] == h.data[0, 0]
    assert h_gru.data[1, 0] == np.tanh(h.data[1, 0] * f32(0.25) + f32(-0.5))
    g = np.tanh(f32(0.5) * x.data[:, 0])  # the cell input's tanh gate per row
    assert hc_new.data[0, 1] == c and hc_new.data[0, 0] == np.tanh(c)
    assert hc_new.data[1, 1] == g[1] and hc_new.data[1, 0] == 0.0
    assert all(np.all(np.isfinite(grad.data)) for grad in grads.values())


def test_segment_aggregate_gradients_with_empty_segments():
    # Segments 1 and 4 receive no rows.
    rng = np.random.default_rng(3)
    seg = np.array([0, 2, 2, 3, 0, 3, 3])
    for _ in range(20):
        x = Tensor(rng.normal(size=(7, 2)), requires_grad=True)
        weights = Tensor(rng.normal(size=(5, 2)))
        fn = lambda p: reduce_sum(segment_aggregate(p["x"], seg, 5) * weights)  # noqa: E731
        assert grad_check(fn, {"x": x}, eps=1e-5) < 1e-4


def test_segment_softmax_matches_softmax_per_segment():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=9) * 30
    seg = np.array([2, 0, 2, 2, 0, 3, 3, 3, 3])
    out = segment_softmax(Tensor(scores), seg, 4).data
    for k in (0, 2, 3):
        assert np.allclose(out[seg == k], softmax(Tensor(scores[seg == k])).data, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(0, 40),
    segments=st.integers(1, 12),
    width=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_bincount_scatter_equals_add_at(rows, segments, width, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-8, 9, size=(rows, width))
    ids = rng.integers(0, segments, size=rows)
    expected = np.zeros((segments, width))
    np.add.at(expected, ids, values)
    assert np.array_equal(_scatter_rows(ids, values, (segments, width)), expected)


def test_softmax_sums_to_one_and_positive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = Tensor(rng.normal(scale=10.0, size=(4, 7)))
        out = softmax(x, axis=1).data
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(out > 0.0)


# ------------------------------------------------------------------ optimizer


def test_adam_zero_gradient_leaves_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = OptimizerState()
    optimizer_step({"p": p}, {"p": Tensor(np.zeros(2))}, state)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert state.step == 1


def test_adam_single_scalar_hand_formula():
    # m=0.1/0.1=1 after bias correction, v=1e-3/1e-3=1, so the step is lr/(1+eps).
    p = Tensor(1.0, requires_grad=True)
    state = OptimizerState(lr=0.1)
    optimizer_step({"p": p}, {"p": Tensor(1.0)}, state)
    assert abs(float(p.data) - 0.9) < 1e-6


def test_adam_identical_params_identical_updates():
    a = Tensor(np.full(3, 0.5), requires_grad=True)
    b = Tensor(np.full(3, 0.5), requires_grad=True)
    g = np.array([0.1, -0.2, 0.3])
    state = OptimizerState()
    optimizer_step({"a": a, "b": b}, {"a": Tensor(g), "b": Tensor(g.copy())}, state)
    assert np.array_equal(a.data, b.data)


def test_adam_rejects_nonfinite_gradient_by_name():
    p = Tensor(1.0, requires_grad=True)
    q = Tensor(1.0, requires_grad=True)
    bad = Tensor(np.nan)
    state = OptimizerState()
    with pytest.raises(GradientError, match="q"):
        optimizer_step({"p": p, "q": q}, {"p": Tensor(0.0), "q": bad}, state)
    assert float(p.data) == 1.0 and state.step == 0


def test_clip_global_norm():
    grads = {"a": Tensor(np.array([3.0])), "b": Tensor(np.array([4.0]))}
    clipped, norm = clip_global_norm(grads, max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    total = np.sqrt(sum(float(np.sum(g.data**2)) for g in clipped.values()))
    assert abs(total - 1.0) < 1e-12
    small = {"a": Tensor(np.array([0.3]))}
    same, norm2 = clip_global_norm(small, max_norm=1.0)
    assert same is small and abs(norm2 - 0.3) < 1e-12


def test_clip_global_norm_leaves_a_non_finite_norm_to_the_optimizer():
    grads = {"a": Tensor(np.array([3.0, 4.0])), "b": Tensor(np.array([np.nan, 1.0]))}
    clipped, norm = clip_global_norm(grads, max_norm=1.0)
    assert np.isnan(norm) and clipped is grads
    params = {"a": Tensor(np.zeros(2)), "b": Tensor(np.zeros(2))}
    with pytest.raises(GradientError) as err:
        optimizer_step(params, clipped, OptimizerState())
    assert err.value.param_name == "b"


# ----------------------------------------------------------------- grad_check


def test_grad_check_quadratic():
    rng = np.random.default_rng(17)
    A = np.random.default_rng(18).normal(size=(4, 4))
    x = Tensor(rng.normal(size=4), requires_grad=True)

    def fn(p):
        return reduce_sum(matmul(matmul(p["x"], Tensor(A)), Tensor(A.T)) * p["x"])

    assert grad_check(fn, {"x": x}, eps=1e-5) < 1e-6


def _scaled_backward(t, factor):
    """Identity on t whose backward scales the gradient by factor: a
    deliberately wrong derivative."""
    return core._emit(t.data.copy(), (t,), lambda g: (factor * g,))


@pytest.mark.parametrize("scale", [1.0, 1e-3])
def test_grad_check_fails_a_gradient_one_percent_off(scale):
    # Gradients near 1 and near 1e-3: both lie far above the eps floor, so
    # both are still judged relative to their size.
    x = Tensor(np.random.default_rng(5).normal(size=(2, 3)), requires_grad=True)
    w = Tensor(np.random.default_rng(6).normal(size=(2, 3)) * scale)
    assert grad_check(lambda p: reduce_sum(tanh(p["x"]) * w), {"x": x}) < 1e-6
    assert grad_check(lambda p: reduce_sum(_scaled_backward(tanh(p["x"]), 1.01) * w), {"x": x}) > 1e-3


def saturated_gru_case():
    """Draw 33 of the gru_cell sweep's stream at scale 1: its gates saturate,
    and its smallest gradients are a few 1e-12."""
    rng = np.random.default_rng(zlib.crc32(b"gru_cell"))
    for _ in range(34):
        params, fn = _gru_case(rng, scale=1.0)
    return params, fn


def test_grad_check_judges_saturated_gates_by_the_gradient():
    # Scored relative to |a| + |n| alone, this case read 1.66e-4: the ratio
    # of two finite-difference roundings, not a gradient error.
    params, fn = saturated_gru_case()
    with Tape() as tape:
        loss = fn(params)
    grads = tape.gradients(loss, params=params.values())
    assert min(np.abs(grads[p].data).min() for p in params.values()) < 1e-10
    assert grad_check(fn, params, eps=1e-5) < 1e-4
    # The floor does not hide a wrong gradient on the same case.
    assert grad_check(lambda p: _scaled_backward(fn(p), 1.01), params, eps=1e-5) > 1e-3


def test_grad_check_zero_eps_errors():
    x = Tensor(1.0, requires_grad=True)
    with pytest.raises(ValueError, match="eps"):
        grad_check(lambda p: p["x"] * p["x"], {"x": x}, eps=0)


def test_grad_check_nonfinite_errors():
    x = Tensor(-1.0, requires_grad=True)
    with pytest.raises(ValueError, match="non-finite"):
        grad_check(lambda p: p["x"] * np.inf, {"x": x}, eps=1e-5)


def test_grad_check_names_a_parameter_that_is_not_float64():
    params = {"x": Tensor(np.ones(3), requires_grad=True),
              "w": Tensor(np.ones(3, dtype=np.float32), requires_grad=True)}
    with pytest.raises(ValueError, match="parameter 'w' is float32, not float64"):
        grad_check(lambda p: reduce_sum(p["x"] * p["w"]), params)


# ----------------------------------------------------------------- paramset


def test_paramset_init_is_name_keyed_not_order_keyed():
    a = ParamSet(seed=3)
    first = a.get_or_init("w1", (4, 4)).data.copy()
    b = ParamSet(seed=3)
    b.get_or_init("other", (2,))
    second = b.get_or_init("w1", (4, 4)).data
    assert np.array_equal(first, second)


def test_paramset_shape_conflict_errors():
    ps = ParamSet(seed=0)
    ps.get_or_init("w", (2, 2))
    with pytest.raises(ValueError, match="w"):
        ps.get_or_init("w", (3, 3))


@pytest.mark.parametrize("init", ["glorot", "zeros", "normal"])
def test_paramset_creates_float32_by_default_from_the_float64_draws(init):
    single = ParamSet(seed=4).get_or_init("w", (3, 5), init=init).data
    double = ParamSet(seed=4, dtype=np.float64).get_or_init("w", (3, 5), init=init).data
    assert single.dtype == np.float32 and double.dtype == np.float64
    assert np.array_equal(single, double.astype(np.float32))


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    arrays = {
        "enc/W": rng.normal(size=(5, 3)),
        "enc/b": rng.normal(size=3),
        "scalar": np.asarray(2.5),
    }
    path = tmp_path / "model.ckpt"
    save_params(path, arrays, meta={"hidden": 3})
    loaded, meta = load_params(path)
    assert meta == {"hidden": 3}
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert np.array_equal(loaded[name], arrays[name])
    with np.load(path, allow_pickle=False) as archive:
        assert np.array_equal(archive["enc/W"], arrays["enc/W"])


def test_float32_checkpoint_loads_bit_exactly_and_stays_float32(tmp_path):
    def model(seed):
        params = ParamSet(seed=seed)
        MLP(params, "net", [4, 8, 1])
        LSTMCell(params, "cell", 3, 2)
        return params

    saved = model(seed=1)
    path = tmp_path / "model.ckpt"
    save_params(path, saved.snapshot())
    arrays, _ = load_params(path)
    assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}
    fresh = model(seed=2)
    fresh.load_values(arrays)
    for name, p in fresh.named().items():
        assert p.data.dtype == np.float32 and np.array_equal(p.data, saved[name].data), name
    # A float64 array loads into the parameter's own dtype.
    fresh.load_values({name: a.astype(np.float64) for name, a in arrays.items()})
    assert {p.data.dtype for p in fresh.named().values()} == {np.dtype(np.float32)}


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOT-A-CKPT\nrest")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_params(path)


def test_checkpoint_junk_or_truncated_file_names_the_path(tmp_path):
    path = tmp_path / "model.ckpt"
    save_params(path, {"w": np.ones((4, 4))}, meta={"update": "3"})
    whole = path.read_bytes()
    for name, content in (("junk.ckpt", b"\x00" * 64), ("cut.ckpt", whole[: len(whole) // 2])):
        bad = tmp_path / name
        bad.write_bytes(content)
        with pytest.raises(ValueError, match=f"{re.escape(str(bad))} is not a checkpoint"):
            load_params(bad)
