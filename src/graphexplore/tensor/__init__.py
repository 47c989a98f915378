from .core import (
    ShapeError,
    Tape,
    Tensor,
    add,
    as_tensor,
    concat,
    embed_lookup,
    entropy,
    graph_message,
    gru_cell,
    log_softmax,
    lstm_cell,
    matmul,
    mul,
    no_grad,
    reduce_sum,
    relu,
    reshape,
    segment_aggregate,
    segment_softmax,
    slice_,
    sub,
)
from .checkpoint import load_params, save_params
from .nn import Embedding, GRUCell, Linear, LSTMCell, MLP, ParamSet
from .optim import GradientError, OptimizerState, clip_global_norm, optimizer_step
