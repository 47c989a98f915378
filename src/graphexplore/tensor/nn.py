"""Neural building blocks: named parameter sets and the small set of layers
used by the encoders and policy heads (linear, MLP, GRU, LSTM, embedding)."""

from __future__ import annotations

import zlib

import numpy as np

from .core import Tensor, concat, embed_lookup, gru_cell, lstm_cell, matmul, relu


class ParamSet:
    """Named parameter store.

    Each parameter is initialized from its own RNG stream derived from
    (seed, crc32(name)), so values do not depend on creation order. Names are
    slash-scoped, e.g. "policy/out/W".

    Parameters are created in `dtype`, which every tape op follows: float32
    trains a model, float64 checks its gradients and reproduces float64 runs
    bit for bit. Initial values are drawn in float64 and then rounded, so
    both dtypes start from the same draws.
    """

    def __init__(self, seed=0, dtype=np.float32):
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self._params = {}

    def get_or_init(self, name, shape, init="glorot"):
        p = self._params.get(name)
        if p is not None:
            if p.data.shape != tuple(shape):
                raise ValueError(
                    f"parameter {name!r} exists with shape {p.data.shape}, requested {tuple(shape)}"
                )
            return p
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, zlib.crc32(name.encode())])
        )
        if init == "glorot":
            fan_in = shape[0]
            fan_out = shape[-1]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-limit, limit, size=shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "normal":
            data = rng.normal(0.0, 0.1, size=shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        p = Tensor(data.astype(self.dtype, copy=False), requires_grad=True)
        self._params[name] = p
        return p

    def __contains__(self, name):
        return name in self._params

    def __getitem__(self, name):
        return self._params[name]

    def named(self):
        """dict name -> Tensor, insertion-ordered."""
        return dict(self._params)

    def gradients(self, tape, loss):
        """Backward pass returning name-keyed grads; params the loss never
        touched get zeros."""
        by_tensor = tape.gradients(loss, params=self._params.values())
        return {name: by_tensor[p] for name, p in self._params.items()}

    def load_values(self, arrays):
        """Overwrite parameter values from a name -> ndarray map, each cast to
        its parameter's dtype. Unknown or missing names are errors; shapes
        must match."""
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, arr in arrays.items():
            p = self._params[name]
            if p.data.shape != arr.shape:
                raise ValueError(f"parameter {name!r}: shape {arr.shape} != {p.data.shape}")
            p.data = np.array(arr, dtype=p.data.dtype)

    def snapshot(self):
        return {name: p.data.copy() for name, p in self._params.items()}


class Linear:
    def __init__(self, params, name, n_in, n_out):
        self.W = params.get_or_init(f"{name}/W", (n_in, n_out))
        self.b = params.get_or_init(f"{name}/b", (n_out,), init="zeros")

    def __call__(self, x):
        return matmul(x, self.W) + self.b


class MLP:
    """Stack of linear layers with relu between them; the final layer is
    linear."""

    def __init__(self, params, name, sizes):
        self.layers = [
            Linear(params, f"{name}/l{i}", sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)
        ]

    def __call__(self, x):
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = relu(x)
        return x


class GRUCell:
    """Gated recurrent unit over (rows, n_in) inputs and (rows, H) states. The
    update and reset gates share the Wx_zr/Wh_zr products; the whole step is
    the one `gru_cell` tape op (see there for the formula), which reads the
    input weights as the one [Wx_zr | Wx_n] tensor of input_weight()."""

    def __init__(self, params, name, n_in, n_hidden):
        self.Wx_zr = params.get_or_init(f"{name}/Wx_zr", (n_in, 2 * n_hidden))
        self.Wh_zr = params.get_or_init(f"{name}/Wh_zr", (n_hidden, 2 * n_hidden))
        self.b_zr = params.get_or_init(f"{name}/b_zr", (2 * n_hidden,), init="zeros")
        self.Wx_n = params.get_or_init(f"{name}/Wx_n", (n_in, n_hidden))
        self.Wh_n = params.get_or_init(f"{name}/Wh_n", (n_hidden, n_hidden))
        self.b_n = params.get_or_init(f"{name}/b_n", (n_hidden,), init="zeros")

    def input_weight(self):
        """[Wx_zr | Wx_n] as one concat tape op: the `Wx` of `gru_cell`, for
        a caller to build once and pass to every step before the weights
        change."""
        return concat([self.Wx_zr, self.Wx_n], axis=1)

    def __call__(self, x, h, Wx):
        return gru_cell(x, h, Wx, self.Wh_zr, self.b_zr, self.Wh_n, self.b_n)


class LSTMCell:
    """LSTM with combined gate matmul; forget-gate bias starts at 1. The
    state is one [h | c] tensor, and a step is the one `lstm_cell` tape op
    (see there for the formula) from state to state."""

    def __init__(self, params, name, n_in, n_hidden):
        self.n_hidden = n_hidden
        self.Wx = params.get_or_init(f"{name}/Wx", (n_in, 4 * n_hidden))
        self.Wh = params.get_or_init(f"{name}/Wh", (n_hidden, 4 * n_hidden))
        fresh = f"{name}/b" not in params
        self.b = params.get_or_init(f"{name}/b", (4 * n_hidden,), init="zeros")
        if fresh:
            self.b.data[n_hidden : 2 * n_hidden] = 1.0

    def __call__(self, x, hc):
        return lstm_cell(x, hc, self.Wx, self.Wh, self.b)

    def zero_state(self, rows):
        """The zero (rows, 2H) [h | c] state of `rows` sequences stepped in
        parallel."""
        return Tensor(np.zeros((rows, 2 * self.n_hidden), dtype=self.Wx.data.dtype))


class Embedding:
    def __init__(self, params, name, n, d):
        self.table = params.get_or_init(f"{name}/table", (n, d), init="normal")

    def __call__(self, ids):
        return embed_lookup(self.table, ids)
