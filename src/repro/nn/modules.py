"""Neural network layers for the TAGLETS reproduction.

Backbones in this reproduction operate on flattened synthetic "images"
(small feature grids), so the layer zoo is MLP-centric: ``Linear``,
``ReLU``, ``Dropout``, ``BatchNorm1d``, ``Sequential`` and an ``MLP``
convenience builder.  Every layer exposes ``parameters()``,
``state_dict()`` / ``load_state_dict()`` and a train/eval switch, mirroring
the familiar torch.nn API so the higher-level TAGLETS code reads naturally.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import init as init_module
from . import ops
from .tensor import Tensor, apply, get_default_dtype

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "ReLU",
    "Tanh",
    "Dropout",
    "BatchNorm1d",
    "Sequential",
    "MLP",
]


class Parameter(Tensor):
    """A tensor that is registered as a learnable parameter of a module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for ``parameters()`` and
    ``state_dict()``.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield f"{prefix}{name}", value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{prefix}{name}.{i}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # Mode switching
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        # Buffers (e.g. batch-norm running stats).
        for name, value in self._named_buffers():
            state[name] = value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self._named_buffers())
        for name, value in state.items():
            if name in own_params:
                if own_params[name].data.shape != value.shape:
                    raise ValueError(f"shape mismatch for parameter {name!r}: "
                                     f"{own_params[name].data.shape} vs {value.shape}")
                # Preserve the parameter's dtype so float64 checkpoints load
                # cleanly into models built under the float32 fast mode.
                own_params[name].data = value.astype(own_params[name].data.dtype,
                                                     copy=True)
            elif name in own_buffers:
                own_buffers[name][...] = value
            else:
                raise KeyError(f"unexpected key {name!r} in state dict")
        missing = set(own_params) - set(state)
        if missing:
            raise KeyError(f"missing keys in state dict: {sorted(missing)}")

    def _named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._named_buffers(prefix=f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._named_buffers(prefix=f"{prefix}{name}.{i}.")
            elif isinstance(value, np.ndarray) and name.startswith("running_"):
                yield f"{prefix}{name}", value

    def clone(self) -> "Module":
        """Deep copy via state-dict round trip (structure must be identical)."""
        import copy

        duplicate = copy.deepcopy(self)
        return duplicate


def op_of(module: Module) -> Optional[ops.Op]:
    """The table op a leaf layer runs (:mod:`repro.nn.ops`), or None.

    Looked up on the exact class: a subclass may override ``forward``, so
    it does not inherit its base's op.
    """
    return vars(type(module)).get("op")


class Linear(Module):
    """Fully connected layer ``y = x W + b``."""

    op = ops.LINEAR

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init_module.kaiming_uniform((in_features, out_features), rng=rng),
            name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            raise ValueError(f"expected (n, {self.in_features}) input, "
                             f"got {x.shape}")
        return apply(ops.LINEAR, (x,), (self.weight, self.bias))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    op = ops.RELU

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    op = ops.TANH

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    op = ops.DROPOUT

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        return apply(ops.DROPOUT, (x,), layer=self, cast=get_default_dtype())


class BatchNorm1d(Module):
    """Batch normalization over the feature dimension of ``(n, d)`` inputs."""

    op = ops.BATCHNORM

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features), name="gamma")
        self.beta = Parameter(np.zeros(num_features), name="beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(f"expected (n, {self.num_features}) input, got {x.shape}")
        return apply(ops.BATCHNORM, (x,), (self.gamma, self.beta),
                     layer=self, cast=get_default_dtype())


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def append(self, layer: Module) -> "Sequential":
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class MLP(Module):
    """Multi-layer perceptron with ReLU activations and optional dropout.

    Used as the shared architecture of backbones and classification heads in
    this reproduction (standing in for ResNet-50 / BiT trunks).
    """

    def __init__(self, in_features: int, hidden_sizes: Sequence[int],
                 out_features: int, dropout: float = 0.0,
                 batch_norm: bool = False,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        sizes = [in_features, *hidden_sizes, out_features]
        layers: List[Module] = []
        for i in range(len(sizes) - 1):
            layers.append(Linear(sizes[i], sizes[i + 1], rng=rng))
            is_last = i == len(sizes) - 2
            if not is_last:
                if batch_norm:
                    layers.append(BatchNorm1d(sizes[i + 1]))
                layers.append(ReLU())
                if dropout > 0:
                    layers.append(Dropout(dropout, rng=rng))
        self.net = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
