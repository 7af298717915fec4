"""Property-based gradient fuzzing for the whole ``repro.nn`` op set.

Every differentiable operation the engine exposes — tensor arithmetic,
elementwise functions, reductions, shape ops, and the functional losses in
both their fused and primitive-composed forms — is driven with seeded random
shapes (including broadcasting) and checked against central finite
differences of a pure-NumPy float64 reference.  This generalizes the
hand-written cases of ``test_fused_ops.py`` into a generic harness: each
case is a builder that returns the random inputs, the tensor-graph function
under test, and the reference function, and one shared checker does the
rest.

The graph replay executor reuses exactly these backward formulas, so this
suite is the gradient-correctness backstop for both eager and replayed
training.
"""

import contextlib

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, default_dtype, stack, use_fused_ops
from repro.nn import functional as F

SEEDS = [0, 1, 2]

# float64 everywhere; a representative subset re-runs in float32 with the
# coarser probe/tolerance that its ~7 significant digits allow.
F64 = (np.float64, 1e-6, 5e-6)
F32 = (np.float32, 1e-2, 2e-3)


def finite_difference(fn, x, eps):
    """Central finite-difference gradient of scalar ``fn`` at float64 ``x``."""
    grad = np.zeros_like(x)
    flat, out = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x)
        flat[i] = original - eps
        lower = fn(x)
        flat[i] = original
        out[i] = (upper - lower) / (2.0 * eps)
    return grad


def check_gradients(builder, seed, dtype, eps, tol, fused=True):
    """Build a case and compare autograd against finite differences."""
    rng = np.random.default_rng(seed)
    arrays, tensor_fn, ref_fn = builder(rng)
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    with contextlib.ExitStack() as ctx:
        ctx.enter_context(use_fused_ops(fused))
        if dtype is not np.float64:
            ctx.enter_context(default_dtype(dtype))
        tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        loss = tensor_fn(*tensors)
        assert loss.shape == (), f"case must reduce to a scalar, got {loss.shape}"
        loss.backward()
        # The op's output must agree with the reference forward.
        assert loss.item() == pytest.approx(ref_fn(*arrays), rel=1e-4, abs=1e-4)
        for i, (tensor, base) in enumerate(zip(tensors, arrays)):
            assert tensor.grad is not None, f"no gradient reached input {i}"

            def probe(a, i=i):
                probed = list(arrays)
                probed[i] = a
                return ref_fn(*probed)

            fd = finite_difference(probe, base.copy(), eps)
            np.testing.assert_allclose(
                tensor.grad, fd, atol=tol, rtol=tol,
                err_msg=f"input {i} of {builder.__name__} (seed {seed})")


# --------------------------------------------------------------------------- #
# Random-shape helpers
# --------------------------------------------------------------------------- #


def rand_shape(rng, max_rank=3, max_dim=4):
    rank = int(rng.integers(1, max_rank + 1))
    return tuple(int(rng.integers(1, max_dim + 1)) for _ in range(rank))


def broadcast_pair(rng):
    """A random shape plus a shape that broadcasts against it."""
    full = rand_shape(rng)
    partner = list(full)
    # Randomly collapse dimensions to 1 and/or drop leading dimensions.
    for i in range(len(partner)):
        if rng.random() < 0.4:
            partner[i] = 1
    drop = int(rng.integers(0, len(partner)))
    partner = partner[drop:] or [1]
    return full, tuple(partner)


def away_from(x, points, margin=0.05):
    """Nudge values away from non-differentiable points."""
    x = np.asarray(x, dtype=np.float64)
    for p in points:
        close = np.abs(x - p) < margin
        x = np.where(close, x + 4 * margin, x)
    return x


# --------------------------------------------------------------------------- #
# Case builders: (arrays, tensor_fn -> scalar Tensor, ref_fn -> float)
# --------------------------------------------------------------------------- #


def case_add(rng):
    sa, sb = broadcast_pair(rng)
    a, b = rng.normal(size=sa), rng.normal(size=sb)
    return ([a, b], lambda x, y: (x + y).sum(),
            lambda x, y: float((x + y).sum()))


def case_sub(rng):
    sa, sb = broadcast_pair(rng)
    a, b = rng.normal(size=sa), rng.normal(size=sb)
    return ([a, b], lambda x, y: (x - y).sum(),
            lambda x, y: float((x - y).sum()))


def case_mul(rng):
    sa, sb = broadcast_pair(rng)
    a, b = rng.normal(size=sa), rng.normal(size=sb)
    return ([a, b], lambda x, y: (x * y).sum(),
            lambda x, y: float((x * y).sum()))


def case_div(rng):
    sa, sb = broadcast_pair(rng)
    a = rng.normal(size=sa)
    b = away_from(rng.normal(size=sb), [0.0], margin=0.3)
    return ([a, b], lambda x, y: (x / y).sum(),
            lambda x, y: float((x / y).sum()))


def case_pow(rng):
    shape = rand_shape(rng)
    a = rng.uniform(0.5, 2.0, size=shape)
    exponent = float(rng.uniform(0.5, 3.0))
    return ([a], lambda x: (x ** exponent).sum(),
            lambda x: float((x ** exponent).sum()))


def case_matmul(rng):
    n, k, m = (int(rng.integers(1, 5)) for _ in range(3))
    a, b = rng.normal(size=(n, k)), rng.normal(size=(k, m))
    return ([a, b], lambda x, y: (x @ y).sum(),
            lambda x, y: float((x @ y).sum()))


def case_neg(rng):
    a = rng.normal(size=rand_shape(rng))
    return ([a], lambda x: (-x).sum(), lambda x: float((-x).sum()))


def case_exp(rng):
    a = rng.normal(size=rand_shape(rng))
    return ([a], lambda x: x.exp().sum(), lambda x: float(np.exp(x).sum()))


def case_log(rng):
    a = rng.uniform(0.3, 3.0, size=rand_shape(rng))
    return ([a], lambda x: x.log().sum(), lambda x: float(np.log(x).sum()))


def case_sqrt(rng):
    a = rng.uniform(0.3, 3.0, size=rand_shape(rng))
    return ([a], lambda x: x.sqrt().sum(), lambda x: float(np.sqrt(x).sum()))


def case_tanh(rng):
    a = rng.normal(size=rand_shape(rng))
    return ([a], lambda x: x.tanh().sum(), lambda x: float(np.tanh(x).sum()))


def case_sigmoid(rng):
    a = rng.normal(size=rand_shape(rng))
    return ([a], lambda x: x.sigmoid().sum(),
            lambda x: float((1.0 / (1.0 + np.exp(-x))).sum()))


def case_relu(rng):
    a = away_from(rng.normal(size=rand_shape(rng)), [0.0])
    return ([a], lambda x: x.relu().sum(),
            lambda x: float(np.maximum(x, 0.0).sum()))


def case_leaky_relu(rng):
    a = away_from(rng.normal(size=rand_shape(rng)), [0.0])
    return ([a], lambda x: x.leaky_relu(0.1).sum(),
            lambda x: float(np.where(x > 0, x, 0.1 * x).sum()))


def case_clip(rng):
    a = away_from(rng.normal(size=rand_shape(rng)), [-0.7, 0.7])
    return ([a], lambda x: x.clip(-0.7, 0.7).sum(),
            lambda x: float(np.clip(x, -0.7, 0.7).sum()))


def case_abs(rng):
    a = away_from(rng.normal(size=rand_shape(rng)), [0.0])
    return ([a], lambda x: x.abs().sum(), lambda x: float(np.abs(x).sum()))


def case_sum_axis(rng):
    shape = rand_shape(rng, max_rank=3)
    axis = int(rng.integers(0, len(shape)))
    keepdims = bool(rng.integers(0, 2))
    a = rng.normal(size=shape)
    weights = rng.normal(size=np.sum(a, axis=axis, keepdims=keepdims).shape)
    return ([a],
            lambda x: (x.sum(axis=axis, keepdims=keepdims)
                       * Tensor(weights.astype(x.dtype))).sum(),
            lambda x: float((np.sum(x, axis=axis, keepdims=keepdims)
                             * weights).sum()))


def case_mean(rng):
    shape = rand_shape(rng, max_rank=3)
    axis = int(rng.integers(0, len(shape)))
    a = rng.normal(size=shape)
    weights = rng.normal(size=np.mean(a, axis=axis).shape)
    return ([a],
            lambda x: (x.mean(axis=axis) * Tensor(weights.astype(x.dtype))).sum(),
            lambda x: float((np.mean(x, axis=axis) * weights).sum()))


def case_max(rng):
    # Distinct values keep the argmax unique, so the subgradient is exact.
    shape = rand_shape(rng, max_rank=2)
    size = int(np.prod(shape))
    a = (rng.permutation(size).astype(np.float64) / size
         + rng.normal(scale=0.01)).reshape(shape)
    axis = int(rng.integers(0, len(shape)))
    return ([a], lambda x: x.max(axis=axis).sum(),
            lambda x: float(np.max(x, axis=axis).sum()))


def case_reshape(rng):
    shape = rand_shape(rng, max_rank=2)
    a = rng.normal(size=shape)
    flat = int(np.prod(shape))
    weights = rng.normal(size=flat)
    return ([a],
            lambda x: (x.reshape(flat) * Tensor(weights.astype(x.dtype))).sum(),
            lambda x: float((x.reshape(flat) * weights).sum()))


def case_transpose(rng):
    a = rng.normal(size=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
    weights = rng.normal(size=a.T.shape)
    return ([a],
            lambda x: (x.T * Tensor(weights.astype(x.dtype))).sum(),
            lambda x: float((x.T * weights).sum()))


def case_getitem(rng):
    n = int(rng.integers(3, 6))
    a = rng.normal(size=(n, 3))
    idx = rng.integers(0, n, size=4)  # repeated rows accumulate
    weights = rng.normal(size=(4, 3))
    return ([a],
            lambda x: (x[idx] * Tensor(weights.astype(x.dtype))).sum(),
            lambda x: float((x[idx] * weights).sum()))


def case_stack(rng):
    shape = rand_shape(rng, max_rank=2)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    return ([a, b], lambda x, y: stack([x, y], axis=0).sum(),
            lambda x, y: float(np.stack([x, y]).sum()))


def case_concatenate(rng):
    rows_a, rows_b, cols = (int(rng.integers(1, 4)) for _ in range(3))
    a, b = rng.normal(size=(rows_a, cols)), rng.normal(size=(rows_b, cols))
    weights = rng.normal(size=(rows_a + rows_b, cols))
    return ([a, b],
            lambda x, y: (concatenate([x, y], axis=0)
                          * Tensor(weights.astype(x.dtype))).sum(),
            lambda x, y: float((np.concatenate([x, y]) * weights).sum()))


def _np_log_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def case_log_softmax(rng):
    a = rng.normal(size=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
    weights = rng.normal(size=a.shape)
    return ([a],
            lambda x: (F.log_softmax(x) * Tensor(weights.astype(x.dtype))).sum(),
            lambda x: float((_np_log_softmax(x) * weights).sum()))


def case_softmax(rng):
    a = rng.normal(size=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
    weights = rng.normal(size=a.shape)
    return ([a],
            lambda x: (F.softmax(x) * Tensor(weights.astype(x.dtype))).sum(),
            lambda x: float((np.exp(_np_log_softmax(x)) * weights).sum()))


def case_linear(rng):
    n, din, dout = (int(rng.integers(1, 5)) for _ in range(3))
    x = rng.normal(size=(n, din))
    w = rng.normal(size=(din, dout))
    b = rng.normal(size=dout)
    return ([x, w, b], lambda a, ww, bb: F.linear(a, ww, bb).sum(),
            lambda a, ww, bb: float((a @ ww + bb).sum()))


def _ce_case(rng, weighted):
    n, c = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    z = rng.normal(size=(n, c))
    targets = rng.integers(0, c, size=n)
    weights = rng.uniform(0.2, 1.0, size=n) if weighted else None

    def ref(logits):
        picked = _np_log_softmax(logits)[np.arange(n), targets]
        if weights is None:
            return float(-picked.mean())
        return float(-(weights * picked).sum() / weights.sum())

    return ([z],
            lambda x: F.cross_entropy(x, targets, sample_weights=weights),
            ref)


def case_cross_entropy(rng):
    return _ce_case(rng, weighted=False)


def case_cross_entropy_weighted(rng):
    return _ce_case(rng, weighted=True)


def case_soft_cross_entropy(rng):
    n, c = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    z = rng.normal(size=(n, c))
    probs = rng.dirichlet(np.ones(c), size=n)
    return ([z],
            lambda x: F.soft_cross_entropy(x, probs),
            lambda x: float(-(probs * _np_log_softmax(x)).sum() / n))


def case_nll_loss(rng):
    n, c = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    a = rng.normal(size=(n, c))
    targets = rng.integers(0, c, size=n)
    return ([a],
            lambda x: F.nll_loss(F.log_softmax(x), targets),
            lambda x: float(-_np_log_softmax(x)[np.arange(n), targets].mean()))


def case_mse_loss(rng):
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    a, t = rng.normal(size=shape), rng.normal(size=shape)
    return ([a], lambda x: F.mse_loss(x, t.astype(x.dtype)),
            lambda x: float(((x - t) ** 2).mean()))


def case_l2_loss(rng):
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    a, t = rng.normal(size=shape), rng.normal(size=shape)
    return ([a], lambda x: F.l2_loss(x, t.astype(x.dtype)),
            lambda x: float(((x - t) ** 2).sum(axis=-1).mean()))


def case_dropout(rng):
    """Dropout in training mode: the mask, drawn from a seeded layer RNG,
    is a constant of the case."""
    from repro.nn.modules import Dropout

    shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    x = rng.normal(size=shape)
    weights = rng.normal(size=shape)
    seed, p = int(rng.integers(2 ** 31)), 0.4
    mask = (np.random.default_rng(seed).random(shape) < 1 - p) / (1 - p)

    def tensor_fn(xt):
        dropout = Dropout(p, rng=np.random.default_rng(seed))
        return (dropout(xt) * Tensor(weights.astype(xt.dtype))).sum()

    return ([x], tensor_fn, lambda x_: float((x_ * mask * weights).sum()))


def _bn_forward_frozen(x, gamma, beta, mean, var, eps=1e-5):
    """The engine's BatchNorm1d forward with *fixed* statistics."""
    scale = 1.0 / np.sqrt(var + eps)
    return ((x - mean) * scale) * gamma + beta


def case_batchnorm_train(rng):
    """BatchNorm1d in training mode.

    The eager engine computes the batch statistics on raw arrays (no graph),
    so its backward treats mean/var as *constants* — the classic
    frozen-statistics BN gradient.  The reference therefore freezes the
    statistics at the base point; this is the semantic the replay kernels
    reproduce bit for bit.
    """
    from repro.nn.modules import BatchNorm1d

    n, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    x = rng.normal(size=(n, d))
    gamma = rng.uniform(0.5, 1.5, size=d)
    beta = rng.normal(size=d)
    weights = rng.normal(size=(n, d))
    mean0, var0 = x.mean(axis=0), x.var(axis=0)

    def tensor_fn(xt, gt, bt):
        bn = BatchNorm1d(d)
        bn.gamma, bn.beta = gt, bt
        return (bn(xt) * Tensor(weights.astype(xt.dtype))).sum()

    def ref(x_, g_, b_):
        return float((_bn_forward_frozen(x_, g_, b_, mean0, var0)
                      * weights).sum())

    return ([x, gamma, beta], tensor_fn, ref)


def case_batchnorm_eval(rng):
    """BatchNorm1d in eval mode (normalization with the running stats)."""
    from repro.nn.modules import BatchNorm1d

    n, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    x = rng.normal(size=(n, d))
    gamma = rng.uniform(0.5, 1.5, size=d)
    beta = rng.normal(size=d)
    weights = rng.normal(size=(n, d))
    running_mean = rng.normal(size=d)
    running_var = rng.uniform(0.5, 2.0, size=d)

    def tensor_fn(xt, gt, bt):
        bn = BatchNorm1d(d)
        bn.gamma, bn.beta = gt, bt
        bn.running_mean = running_mean.copy()
        bn.running_var = running_var.copy()
        bn.eval()
        return (bn(xt) * Tensor(weights.astype(xt.dtype))).sum()

    def ref(x_, g_, b_):
        return float((_bn_forward_frozen(x_, g_, b_, running_mean,
                                         running_var) * weights).sum())

    return ([x, gamma, beta], tensor_fn, ref)


def case_fanout_shared_hidden(rng):
    """Fan-out: one hidden activation consumed by two heads, losses summed.

    The gradient w.r.t. the shared activation accumulates from both
    branches — the graph fragment the DAG replay planner compiles for
    shared-encoder models.
    """
    n, din, dh, c = (int(rng.integers(2, 5)) for _ in range(4))
    x = rng.normal(size=(n, din))
    w1 = rng.normal(size=(din, dh))
    w2 = rng.normal(size=(dh, c))
    w3 = rng.normal(size=(dh, c))
    ca = rng.normal(size=(n, c))
    cb = rng.normal(size=(n, c))

    def tensor_fn(xt, w1t, w2t, w3t):
        h = (xt @ w1t).tanh()
        return ((h @ w2t) * Tensor(ca.astype(xt.dtype))).sum() \
            + ((h @ w3t) * Tensor(cb.astype(xt.dtype))).sum()

    def ref(x_, w1_, w2_, w3_):
        h = np.tanh(x_ @ w1_)
        return float(((h @ w2_) * ca).sum() + ((h @ w3_) * cb).sum())

    return ([x, w1, w2, w3], tensor_fn, ref)


def case_fanin_two_losses(rng):
    """Fan-in: a weighted sum of two different losses over a shared input
    (the FixMatch-shaped supervised + consistency combination)."""
    n, din, c = int(rng.integers(2, 6)), int(rng.integers(2, 5)), \
        int(rng.integers(2, 5))
    x = rng.normal(size=(n, din))
    w1 = rng.normal(size=(din, c))
    w2 = rng.normal(size=(din, c))
    targets = rng.integers(0, c, size=n)
    reg_targets = rng.normal(size=(n, c))

    def tensor_fn(xt, w1t, w2t):
        ce = F.cross_entropy(xt @ w1t, targets)
        reg = F.l2_loss(xt @ w2t, reg_targets.astype(xt.dtype))
        return ce + reg * 0.5

    def ref(x_, w1_, w2_):
        picked = _np_log_softmax(x_ @ w1_)[np.arange(n), targets]
        reg = ((x_ @ w2_ - reg_targets) ** 2).sum(axis=-1).mean()
        return float(-picked.mean() + 0.5 * reg)

    return ([x, w1, w2], tensor_fn, ref)


def case_reused_tensor(rng):
    """The same tensor appearing twice in one expression (x*x + x)."""
    shape = rand_shape(rng)
    x = rng.normal(size=shape)
    weights = rng.normal(size=shape)

    def tensor_fn(xt):
        return ((xt * xt + xt) * Tensor(weights.astype(xt.dtype))).sum()

    def ref(x_):
        return float(((x_ * x_ + x_) * weights).sum())

    return ([x], tensor_fn, ref)


ALL_CASES = [
    case_add, case_sub, case_mul, case_div, case_pow, case_matmul,
    case_neg, case_exp, case_log, case_sqrt, case_tanh, case_sigmoid,
    case_relu, case_leaky_relu, case_clip, case_abs,
    case_sum_axis, case_mean, case_max,
    case_reshape, case_transpose, case_getitem, case_stack,
    case_concatenate,
    case_log_softmax, case_softmax, case_linear,
    case_cross_entropy, case_cross_entropy_weighted,
    case_soft_cross_entropy, case_nll_loss, case_mse_loss, case_l2_loss,
    case_dropout, case_batchnorm_train, case_batchnorm_eval,
    case_fanout_shared_hidden, case_fanin_two_losses, case_reused_tensor,
]

#: the case for each entry of the op table (``repro.nn.ops.TABLE``);
#: ``tests/nn/test_op_table.py`` checks that one exists for every entry
#: and that it runs the entry's forward and every VJP kernel
TABLE_CASES = {
    "linear": case_linear, "relu": case_relu, "tanh": case_tanh,
    "dropout": case_dropout, "batchnorm": case_batchnorm_train,
    "add": case_add, "mul": case_mul,
    "cross_entropy": case_cross_entropy_weighted,
    "soft_cross_entropy": case_soft_cross_entropy, "sqerr": case_l2_loss,
}

#: ops with both fused kernels and primitive-composed reference paths
FUSED_CASES = [case_linear, case_cross_entropy, case_cross_entropy_weighted,
               case_soft_cross_entropy, case_mse_loss, case_l2_loss]

#: representative subset re-checked in float32
F32_CASES = [case_matmul, case_linear, case_cross_entropy,
             case_soft_cross_entropy, case_l2_loss, case_relu, case_tanh,
             case_sigmoid, case_batchnorm_train, case_fanin_two_losses]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("builder", ALL_CASES, ids=lambda b: b.__name__)
def test_gradients_float64(builder, seed):
    dtype, eps, tol = F64
    check_gradients(builder, seed, dtype, eps, tol)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("builder", FUSED_CASES, ids=lambda b: b.__name__)
def test_gradients_float64_unfused_reference(builder, seed):
    dtype, eps, tol = F64
    check_gradients(builder, seed, dtype, eps, tol, fused=False)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("builder", F32_CASES, ids=lambda b: b.__name__)
def test_gradients_float32(builder, seed):
    dtype, eps, tol = F32
    check_gradients(builder, seed, dtype, eps, tol)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("builder", FUSED_CASES, ids=lambda b: b.__name__)
def test_fused_matches_unfused_bitwise_inputs(builder, seed):
    """Fused and primitive-composed paths agree tightly on the same inputs."""
    rng = np.random.default_rng(seed)
    arrays, tensor_fn, _ = builder(rng)
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    def grads(fused):
        with use_fused_ops(fused):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            loss = tensor_fn(*tensors)
            loss.backward()
            return loss.item(), [t.grad.copy() for t in tensors]

    loss_fused, grads_fused = grads(True)
    loss_ref, grads_ref = grads(False)
    assert loss_fused == pytest.approx(loss_ref, rel=1e-12, abs=1e-12)
    for gf, gr in zip(grads_fused, grads_ref):
        np.testing.assert_allclose(gf, gr, atol=1e-12, rtol=1e-12)
