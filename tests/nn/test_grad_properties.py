"""Property-based gradient fuzzing for the whole ``repro.nn`` op set.

Every differentiable operation the engine exposes — the op table's layers,
tensor ``+``/``*`` and the fused losses — is driven with seeded random
shapes (including broadcasting) and checked against central finite
differences of a pure-NumPy float64 reference.  Each case is a builder that
returns the random inputs, the tensor-graph function under test and the
reference function; one shared checker pulls a random cotangent back
through the graph and compares it with finite differences of the
cotangent-weighted reference.  The last cases compose these ops into the
losses the TAGLETS modules train with (FixMatch, multi-task, Meta Pseudo
Labels, distillation) over the ``Linear``/``ReLU`` models they build.

Cases of ops with a closed-form gradient return a fourth element, an
oracle ``vjp(cotangent, *arrays) -> (value, grads)``; the engine's forward
and gradients must match it to 1e-12 in float64.

The graph replay executor reuses exactly these kernels, so this suite is
the gradient-correctness backstop for both eager and replayed training.
"""

import contextlib

import numpy as np
import pytest

from repro.nn import Tensor, default_dtype, no_grad, ops
from repro.nn import functional as F
from repro.nn.modules import MLP, Linear, ReLU, Sequential
from repro.nn.tensor import apply

SEEDS = [0, 1, 2]

# Every case runs in float64 and again in float32 with the coarser
# probe/tolerance that its ~7 significant digits allow.
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


def cotangent_for(shape, seed):
    """The random output cotangent a case's gradients are pulled back with."""
    return np.random.default_rng(1000 + seed).normal(size=shape)


def check_gradients(builder, seed, dtype, eps, tol):
    """Build a case and compare autograd against finite differences.

    Returns the case's output tensor (the root of the graph it built).
    """
    rng = np.random.default_rng(seed)
    arrays, tensor_fn, ref_fn = builder(rng)[:3]
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    with contextlib.ExitStack() as ctx:
        if dtype is not np.float64:
            ctx.enter_context(default_dtype(dtype))
        tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        out = tensor_fn(*tensors)
        cotangent = cotangent_for(out.shape, seed)
        out.backward(cotangent)
    # The op's output must agree with the reference forward.
    np.testing.assert_allclose(out.data, ref_fn(*arrays), rtol=1e-4, atol=1e-4)
    for i, (tensor, base) in enumerate(zip(tensors, arrays)):
        assert tensor.grad is not None, f"no gradient reached input {i}"

        def probe(a, i=i):
            probed = list(arrays)
            probed[i] = a
            return float((ref_fn(*probed) * cotangent).sum())

        fd = finite_difference(probe, base.copy(), eps)
        np.testing.assert_allclose(
            tensor.grad, fd, atol=tol, rtol=tol,
            err_msg=f"input {i} of {builder.__name__} (seed {seed})")
    return out


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


def dot(x, w):
    """``x @ w`` as a bias-free table Linear."""
    return apply(ops.LINEAR, (x,), (w, None))


def np_log_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def np_softmax(z):
    return np.exp(np_log_softmax(z))


# --------------------------------------------------------------------------- #
# Case builders: (arrays, tensor_fn -> Tensor, ref_fn -> array[, oracle])
# --------------------------------------------------------------------------- #


def case_add(rng):
    sa, sb = broadcast_pair(rng)
    a, b = rng.normal(size=sa), rng.normal(size=sb)
    return [a, b], lambda x, y: x + y, lambda x, y: x + y


def case_mul(rng):
    sa, sb = broadcast_pair(rng)
    a, b = rng.normal(size=sa), rng.normal(size=sb)
    return [a, b], lambda x, y: x * y, lambda x, y: x * y


def case_relu(rng):
    a = away_from(rng.normal(size=rand_shape(rng)), [0.0])
    return [a], lambda x: x.relu(), lambda x: np.maximum(x, 0.0)


def case_linear(rng):
    n, din, dout = (int(rng.integers(1, 5)) for _ in range(3))
    x = rng.normal(size=(n, din))
    w = rng.normal(size=(din, dout))
    b = rng.normal(size=dout)

    def tensor_fn(xt, wt, bt):
        layer = Linear(din, dout)
        layer.weight, layer.bias = wt, bt
        return layer(xt)

    def oracle(v, x_, w_, b_):
        return x_ @ w_ + b_, [v @ w_.T, x_.T @ v, v.sum(axis=0)]

    return [x, w, b], tensor_fn, lambda x_, w_, b_: x_ @ w_ + b_, oracle


def _ce_case(rng, weights_of):
    n, c = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    z = rng.normal(size=(n, c))
    targets = rng.integers(0, c, size=n)
    weights = weights_of(rng, n)
    w = np.ones(n) if weights is None else weights
    # an all-zero weight vector divides by 1, not 0
    denom = w.sum() or 1.0

    def ref(logits):
        picked = np_log_softmax(logits)[np.arange(n), targets]
        return -(w * picked).sum() / denom

    def oracle(v, logits):
        d = np_softmax(logits)
        d[np.arange(n), targets] -= 1.0
        return ref(logits), [float(v) * w[:, None] * d / denom]

    return ([z],
            lambda x: F.cross_entropy(x, targets, sample_weights=weights),
            ref, oracle)


def confidence_mask(rng, n):
    """FixMatch's 0/1 per-sample weights with at least one kept sample."""
    mask = rng.random(n) < 0.5
    mask[int(rng.integers(0, n))] = True
    return mask.astype(np.float64)


def case_cross_entropy(rng):
    return _ce_case(rng, lambda rng, n: None)


def case_cross_entropy_weighted(rng):
    return _ce_case(rng, lambda rng, n: rng.uniform(0.2, 1.0, size=n))


def case_cross_entropy_masked(rng):
    """FixMatch's consistency loss: rejected pseudo labels weigh 0."""
    return _ce_case(rng, confidence_mask)


def case_cross_entropy_all_masked(rng):
    """A FixMatch batch whose pseudo labels all fall under the threshold:
    the loss and every gradient are 0."""
    return _ce_case(rng, lambda rng, n: np.zeros(n))


def case_soft_cross_entropy(rng):
    n, c = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    z = rng.normal(size=(n, c))
    probs = rng.dirichlet(np.ones(c), size=n)

    def ref(logits):
        return -(probs * np_log_softmax(logits)).sum() / n

    def oracle(v, logits):
        d = np_softmax(logits) * probs.sum(axis=1, keepdims=True) - probs
        return ref(logits), [float(v) * d / n]

    return [z], lambda x: F.soft_cross_entropy(x, probs), ref, oracle


def _sqerr_case(rng, loss, denom_of):
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    a, t = rng.normal(size=shape), rng.normal(size=shape)
    denom = denom_of(shape)

    def ref(x):
        return ((x - t) ** 2).sum() / denom

    def oracle(v, x):
        return ref(x), [float(v) * 2.0 * (x - t) / denom]

    return [a], lambda x: loss(x, t.astype(x.dtype)), ref, oracle


def case_l2_loss(rng):
    return _sqerr_case(rng, F.l2_loss, lambda shape: shape[0])


def case_fanout_shared_hidden(rng):
    """Fan-out: one hidden activation consumed by two heads, outputs summed.

    The gradient w.r.t. the shared activation accumulates from both
    branches — the graph fragment the DAG replay planner compiles for
    shared-encoder models.
    """
    n, din, dh, c = (int(rng.integers(2, 5)) for _ in range(4))
    x = rng.normal(size=(n, din))
    w1 = rng.normal(size=(din, dh))
    w2 = rng.normal(size=(dh, c))
    w3 = rng.normal(size=(dh, c))

    def tensor_fn(xt, w1t, w2t, w3t):
        h = dot(xt, w1t)
        return dot(h, w2t) + dot(h, w3t)

    def ref(x_, w1_, w2_, w3_):
        h = x_ @ w1_
        return h @ w2_ + h @ w3_

    return [x, w1, w2, w3], tensor_fn, ref


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
        ce = F.cross_entropy(dot(xt, w1t), targets)
        reg = F.l2_loss(dot(xt, w2t), reg_targets.astype(xt.dtype))
        return ce + reg * 0.5

    def ref(x_, w1_, w2_):
        picked = np_log_softmax(x_ @ w1_)[np.arange(n), targets]
        reg = ((x_ @ w2_ - reg_targets) ** 2).sum(axis=-1).mean()
        return -picked.mean() + 0.5 * reg

    return [x, w1, w2], tensor_fn, ref


def case_reused_tensor(rng):
    """The same tensor appearing twice in one expression (x*x + x)."""
    x = rng.normal(size=rand_shape(rng))
    return [x], lambda xt: xt * xt + xt, lambda x_: x_ * x_ + x_


# --------------------------------------------------------------------------- #
# The losses the TAGLETS modules train with, over Linear/ReLU models
# --------------------------------------------------------------------------- #


def hidden_layer(rng, x, dh, margin=0.1):
    """Weights and bias of a ReLU layer over the rows of ``x`` whose
    pre-activations all sit at least ``margin`` from the kink, so the
    finite-difference probes never cross it."""
    while True:
        w = rng.normal(size=(x.shape[1], dh))
        b = rng.normal(size=dh)
        if np.abs(x @ w + b).min() > margin:
            return w, b


def mlp(din, dh, dout, w1, b1, w2, b2):
    """A ``repro.nn.MLP`` (Linear, ReLU, Linear) holding the given leaves."""
    model = MLP(din, [dh], dout)
    first, _, last = model.net.layers
    first.weight, first.bias, last.weight, last.bias = w1, b1, w2, b2
    return model


def np_mlp(x, w1, b1, w2, b2):
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def np_cross_entropy(logits, targets, w=None):
    w = np.ones(len(logits)) if w is None else w
    picked = np_log_softmax(logits)[np.arange(len(logits)), targets]
    return -(w * picked).sum() / (w.sum() or 1.0)


def case_mlp(rng):
    """The Linear -> ReLU -> Linear chain every model of the pipeline is."""
    n, din, dh, dout = (int(rng.integers(1, 5)) for _ in range(4))
    x = rng.normal(size=(n, din))
    w1, b1 = hidden_layer(rng, x, dh)
    w2, b2 = rng.normal(size=(dh, dout)), rng.normal(size=dout)

    def tensor_fn(xt, *leaves):
        return mlp(din, dh, dout, *leaves)(xt)

    return [x, w1, b1, w2, b2], tensor_fn, np_mlp


def case_fixmatch_step(rng):
    """FixMatch's two-view loss (``modules/fixmatch.py``): supervised cross
    entropy on the weak labeled view plus ``cons_w`` times the masked
    consistency loss on the strong unlabeled view, both through one MLP."""
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    din, dh, c = int(rng.integers(1, 5)), int(rng.integers(1, 5)), \
        int(rng.integers(2, 5))
    weak = rng.normal(size=(n, din))
    strong = rng.normal(size=(m, din))
    w1, b1 = hidden_layer(rng, np.concatenate([weak, strong]), dh)
    w2, b2 = rng.normal(size=(dh, c)), rng.normal(size=c)
    labels = rng.integers(0, c, size=n)
    pseudo = rng.integers(0, c, size=m)
    mask = confidence_mask(rng, m)
    cons_w = float(rng.uniform(0.5, 2.0))

    def tensor_fn(weak_t, strong_t, *leaves):
        model = mlp(din, dh, c, *leaves)
        sup = F.cross_entropy(model(weak_t), labels)
        cons = F.cross_entropy(model(strong_t), pseudo, sample_weights=mask)
        return sup + Tensor(np.asarray(cons_w, dtype=weak_t.dtype)) * cons

    def ref(weak_, strong_, *leaves):
        return (np_cross_entropy(np_mlp(weak_, *leaves), labels)
                + cons_w * np_cross_entropy(np_mlp(strong_, *leaves), pseudo,
                                            mask))

    return [weak, strong, w1, b1, w2, b2], tensor_fn, ref


def case_multitask_step(rng):
    """The multi-task loss (``modules/multitask.py``, Eq. 3): a shared
    ReLU encoder feeds the target head and the auxiliary head, and the
    auxiliary cross entropy is scaled by a constant tensor."""
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    din, dh = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    c, ca = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    tx, ax = rng.normal(size=(n, din)), rng.normal(size=(m, din))
    we, be = hidden_layer(rng, np.concatenate([tx, ax]), dh)
    wt, bt = rng.normal(size=(dh, c)), rng.normal(size=c)
    wa, ba = rng.normal(size=(dh, ca)), rng.normal(size=ca)
    ty, ay = rng.integers(0, c, size=n), rng.integers(0, ca, size=m)
    lam = float(rng.uniform(0.1, 1.0))

    def tensor_fn(txt, axt, wet, bet, wtt, btt, wat, bat):
        encoder = Sequential(Linear(din, dh), ReLU())
        target, aux = Linear(dh, c), Linear(dh, ca)
        encoder.layers[0].weight, encoder.layers[0].bias = wet, bet
        target.weight, target.bias = wtt, btt
        aux.weight, aux.bias = wat, bat
        target_loss = F.cross_entropy(target(encoder(txt)), ty)
        aux_loss = F.cross_entropy(aux(encoder(axt)), ay)
        return target_loss + aux_loss * Tensor(np.asarray(lam, txt.dtype))

    def ref(tx_, ax_, we_, be_, wt_, bt_, wa_, ba_):
        def encode(x_):
            return np.maximum(x_ @ we_ + be_, 0.0)
        return (np_cross_entropy(encode(tx_) @ wt_ + bt_, ty)
                + lam * np_cross_entropy(encode(ax_) @ wa_ + ba_, ay))

    return [tx, ax, we, be, wt, bt, wa, ba], tensor_fn, ref


def case_teacher_loss(rng):
    """Meta Pseudo Labels' teacher loss (``baselines/meta_pseudo_labels.py``):
    a Python-float feedback times the pseudo-label cross entropy, plus the
    labeled cross entropy, through one linear teacher."""
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    din, c = int(rng.integers(1, 5)), int(rng.integers(2, 5))
    xu, xl = rng.normal(size=(m, din)), rng.normal(size=(n, din))
    w, b = rng.normal(size=(din, c)), rng.normal(size=c)
    pseudo, labels = rng.integers(0, c, size=m), rng.integers(0, c, size=n)
    feedback = float(rng.normal())

    def tensor_fn(xut, xlt, wt, bt):
        teacher = Linear(din, c)
        teacher.weight, teacher.bias = wt, bt
        return (feedback * F.cross_entropy(teacher(xut), pseudo)
                + F.cross_entropy(teacher(xlt), labels))

    def ref(xu_, xl_, w_, b_):
        return (feedback * np_cross_entropy(xu_ @ w_ + b_, pseudo)
                + np_cross_entropy(xl_ @ w_ + b_, labels))

    return [xu, xl, w, b], tensor_fn, ref


def case_distillation(rng):
    """The end model's distillation loss (paper Eq. 7): soft cross entropy
    of an MLP's logits against the ensemble's soft pseudo labels."""
    n, din, dh, c = int(rng.integers(2, 5)), int(rng.integers(1, 5)), \
        int(rng.integers(1, 5)), int(rng.integers(2, 5))
    x = rng.normal(size=(n, din))
    w1, b1 = hidden_layer(rng, x, dh)
    w2, b2 = rng.normal(size=(dh, c)), rng.normal(size=c)
    probs = rng.dirichlet(np.ones(c), size=n)

    def tensor_fn(xt, *leaves):
        return F.soft_cross_entropy(mlp(din, dh, c, *leaves)(xt), probs)

    def ref(x_, *leaves):
        return -(probs * np_log_softmax(np_mlp(x_, *leaves))).sum() / n

    return [x, w1, b1, w2, b2], tensor_fn, ref


ALL_CASES = [
    case_add, case_mul, case_relu, case_linear,
    case_cross_entropy, case_cross_entropy_weighted,
    case_cross_entropy_masked, case_cross_entropy_all_masked,
    case_soft_cross_entropy, case_l2_loss,
    case_fanout_shared_hidden, case_fanin_two_losses, case_reused_tensor,
    case_mlp, case_fixmatch_step, case_multitask_step, case_teacher_loss,
    case_distillation,
]

#: the case for each entry of the op table (``repro.nn.ops.TABLE``);
#: ``tests/nn/test_op_table.py`` checks that one exists for every entry
#: and that it runs the entry's forward and every VJP kernel
TABLE_CASES = {
    "linear": case_linear, "relu": case_relu,
    "add": case_add, "mul": case_mul,
    "cross_entropy": case_cross_entropy_weighted,
    "soft_cross_entropy": case_soft_cross_entropy, "sqerr": case_l2_loss,
}

#: cases with a closed-form oracle
ORACLE_CASES = [case_linear, case_cross_entropy, case_cross_entropy_weighted,
                case_cross_entropy_masked, case_cross_entropy_all_masked,
                case_soft_cross_entropy, case_l2_loss]

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("builder", ALL_CASES, ids=lambda b: b.__name__)
def test_gradients_float64(builder, seed):
    dtype, eps, tol = F64
    check_gradients(builder, seed, dtype, eps, tol)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("builder", ALL_CASES, ids=lambda b: b.__name__)
def test_gradients_float32(builder, seed):
    dtype, eps, tol = F32
    check_gradients(builder, seed, dtype, eps, tol)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("builder", ORACLE_CASES, ids=lambda b: b.__name__)
def test_matches_closed_form_oracle(builder, seed):
    """The engine's forward and gradients agree tightly with the case's
    pure-NumPy closed forms on the same inputs."""
    rng = np.random.default_rng(seed)
    arrays, tensor_fn, _, oracle = builder(rng)
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = tensor_fn(*tensors)
    cotangent = cotangent_for(out.shape, seed)
    out.backward(cotangent)
    value, grads = oracle(cotangent, *arrays)
    np.testing.assert_allclose(out.data, value, atol=1e-12, rtol=1e-12)
    for tensor, expected in zip(tensors, grads):
        np.testing.assert_allclose(tensor.grad, expected, atol=1e-12,
                                   rtol=1e-12)


DTYPES = [np.float64, np.float32]


def build_case(builder, dtype):
    """A case's seed-0 leaves (requiring grad) and its output in ``dtype``."""
    arrays, tensor_fn = builder(np.random.default_rng(0))[:2]
    with default_dtype(dtype):
        tensors = [Tensor(np.asarray(a, dtype=dtype), requires_grad=True)
                   for a in arrays]
        return tensors, tensor_fn, tensor_fn(*tensors)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("builder", ALL_CASES, ids=lambda b: b.__name__)
def test_no_grad_forward_is_bitwise_the_grad_forward(builder, dtype):
    """Inference runs the same forward kernels without recording a graph:
    the value is byte-identical to the training forward's."""
    _, _, eager = build_case(builder, dtype)
    with no_grad():
        _, _, inference = build_case(builder, dtype)
    assert eager.requires_grad and eager._backward is not None
    assert inference.requires_grad is False
    assert inference._backward is None and inference._parents == ()
    assert inference.dtype == eager.dtype == dtype
    assert inference.shape == eager.shape
    assert inference.data.tobytes() == eager.data.tobytes()


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("builder", ALL_CASES, ids=lambda b: b.__name__)
def test_gradients_accumulate_across_backward_passes(builder, dtype):
    """A second graph over the same leaves adds its gradients to the first
    graph's: leaf gradients are accumulated into, never overwritten, and
    never alias a buffer a later backward writes."""
    tensors, tensor_fn, out = build_case(builder, dtype)
    cotangent = cotangent_for(out.shape, 0)
    out.backward(cotangent)
    once = [tensor.grad.copy() for tensor in tensors]
    with default_dtype(dtype):
        tensor_fn(*tensors).backward(cotangent)
    tol = 1e-12 if dtype is np.float64 else 1e-5
    for i, (tensor, grad) in enumerate(zip(tensors, once)):
        assert tensor.grad.dtype == dtype
        np.testing.assert_allclose(tensor.grad, 2 * grad, rtol=tol, atol=tol,
                                   err_msg=f"input {i}")
