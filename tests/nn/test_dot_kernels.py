"""The replayed Linear kernel's GEMMs and the hard-label range check.

The replay executor computes ``x @ W``, ``x.T @ g`` and ``g @ W.T`` with
``np.dot(..., out=)`` while the eager tape uses ``@``; replay is promised to
be bit-identical to eager, so the two must agree bit for bit on every shape
and layout the kernel sees.  ``check_label_range`` must reject labels below
zero or at least ``num_classes`` with the same message for every integer
dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import SGD, GraphReplay, default_dtype, use_graph_replay
from repro.nn.functional import check_label_range
from repro.nn.modules import Linear, ReLU, Sequential


@st.composite
def _gemm_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # Include the degenerate M=1 / N=1 / K=1 GEMMs (BLAS may route them to
    # gemv or a dot product) alongside the pipeline's shapes.
    m, k, n = (draw(st.sampled_from([1, 2, 3, 7, 24, 32, 48, 128]))
               for _ in range(3))
    trans_a, trans_b = draw(st.booleans()), draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return dtype, m, k, n, trans_a, trans_b, seed


def _operand(rng, rows, cols, dtype, transposed):
    """A ``(rows, cols)`` operand, optionally a transposed view."""
    if transposed:
        return rng.standard_normal((cols, rows)).astype(dtype).T
    return rng.standard_normal((rows, cols)).astype(dtype)


@settings(max_examples=300, deadline=None)
@given(_gemm_case())
def test_dot_with_out_is_bit_identical_to_matmul(case):
    dtype, m, k, n, trans_a, trans_b, seed = case
    rng = np.random.default_rng(seed)
    a = _operand(rng, m, k, dtype, trans_a)
    b = _operand(rng, k, n, dtype, trans_b)
    out = np.empty((m, n), dtype=dtype)
    np.dot(a, b, out=out)
    expected = a @ b
    assert out.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dot_into_an_arena_view_is_bit_identical(dtype):
    # Parameters are views at arbitrary element offsets of the optimizer's
    # arena; the gradient targets are views of its flat gradient buffer.
    rng = np.random.default_rng(0)
    arena = np.empty(1 + 24 * 48 + 128 * 24, dtype=dtype)
    weight = arena[1:1 + 24 * 48].reshape(24, 48)
    grad_in = arena[1 + 24 * 48:].reshape(128, 24)
    weight[...] = rng.standard_normal((24, 48))
    x = rng.standard_normal((128, 24)).astype(dtype)
    g = rng.standard_normal((128, 48)).astype(dtype)
    out = np.empty((128, 48), dtype=dtype)
    np.dot(x, weight, out=out)
    assert out.tobytes() == (x @ weight).tobytes()
    np.dot(g, weight.T, out=grad_in)
    assert grad_in.tobytes() == (g @ weight.T).tobytes()
    grad_w = np.empty((24, 48), dtype=dtype)
    np.dot(x.T, g, out=grad_w)
    assert grad_w.tobytes() == (x.T @ g).tobytes()


@pytest.mark.parametrize("model_dtype,input_dtype", [
    ("float32", "float64"), ("float64", "float32")])
def test_layer_mixing_dtypes_trains_like_eager(model_dtype, input_dtype):
    # Eager keeps each gradient in the dtype its op produced; replay's
    # preallocated buffers would cast them, so a Linear whose input dtype
    # (the engine default) is not its weights' falls back to eager under a
    # named reason and training stays byte-equal.
    outcomes = []
    for enabled in (True, False):
        with default_dtype(model_dtype):
            init = np.random.default_rng(0)
            model = Sequential(Linear(24, 48, rng=init), ReLU(),
                               Linear(48, 5, rng=init))
        with use_graph_replay(enabled), default_dtype(input_dtype):
            stepper = GraphReplay(model, SGD(model.parameters(), lr=0.1,
                                             momentum=0.9))
            rng = np.random.default_rng(1)
            for _ in range(4):
                stepper.step(rng.normal(size=(10, 24)), rng.integers(0, 5, 10))
            outcomes.append((stepper.stats,
                             [p.data.tobytes() for p in model.parameters()]))
    (replayed, replayed_bytes), (_, eager_bytes) = outcomes
    assert replayed_bytes == eager_bytes
    assert replayed.replays == 0
    assert replayed.fallbacks == {
        "unsupported: a Linear layer mixing dtypes is not replayable": 4}


def _outcome(targets, num_classes):
    try:
        check_label_range(targets, num_classes)
    except ValueError as exc:
        return str(exc)
    return None


_RANGE_ERROR = "labels out of range for num_classes 4: [{}, {}]"


_LABEL_CASES = [
    ([0, 1, 2, 3], None),
    ([0, -1, 2], _RANGE_ERROR.format(-1, 2)),   # negative
    ([0, 4, 2], _RANGE_ERROR.format(0, 4)),     # equal to num_classes
    ([5, -3], _RANGE_ERROR.format(-3, 5)),      # both bounds
    ([], None),                                 # empty
]


@pytest.mark.parametrize("labels,expected,dtype", [
    (labels, expected, dtype) for dtype in (np.int64, np.int32, np.uint8)
    for labels, expected in _LABEL_CASES
    if dtype != np.uint8 or min(labels, default=0) >= 0])
def test_label_check_raises_the_same_error(labels, expected, dtype):
    assert _outcome(np.asarray(labels, dtype=dtype), 4) == expected
