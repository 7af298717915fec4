"""Neural network layers for the TAGLETS reproduction.

Backbones in this reproduction operate on flattened synthetic "images"
(small feature grids), so every model is a chain of ``Linear`` and
``ReLU`` layers: those two, ``Sequential`` and an ``MLP`` convenience
builder are the whole layer zoo.  Every layer exposes ``parameters()`` and
``state_dict()`` / ``load_state_dict()``, mirroring the familiar torch.nn
API so the higher-level TAGLETS code reads naturally.  No layer behaves
differently in training and inference, so modules have no train/eval mode.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import init as init_module
from . import ops
from .tensor import Tensor, apply

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "ReLU",
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
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        for name, value in state.items():
            if name not in own_params:
                raise KeyError(f"unexpected key {name!r} in state dict")
            if own_params[name].data.shape != value.shape:
                raise ValueError(f"shape mismatch for parameter {name!r}: "
                                 f"{own_params[name].data.shape} vs {value.shape}")
            # Preserve the parameter's dtype so float64 checkpoints load
            # cleanly into models built under the float32 fast mode.
            own_params[name].data = value.astype(own_params[name].data.dtype,
                                                 copy=True)
        missing = set(own_params) - set(state)
        if missing:
            raise KeyError(f"missing keys in state dict: {sorted(missing)}")

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
    """Multi-layer perceptron with ReLU activations.

    Used as the shared architecture of backbones and classification heads in
    this reproduction (standing in for ResNet-50 / BiT trunks).
    """

    def __init__(self, in_features: int, hidden_sizes: Sequence[int],
                 out_features: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        sizes = [in_features, *hidden_sizes, out_features]
        layers: List[Module] = []
        for i in range(len(sizes) - 1):
            layers.append(Linear(sizes[i], sizes[i + 1], rng=rng))
            if i < len(sizes) - 2:
                layers.append(ReLU())
        self.net = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
