"""Neural-network modules on top of the autograd engine.

The module protocol is torch-like in miniature: a :class:`Module` owns
named parameters (leaf :class:`~repro.ml.nn.autograd.Tensor` objects with
``requires_grad=True``), ``parameters()`` walks the tree, and an optimizer
updates ``param.data`` in place.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.ml.nn.autograd import Tensor, embedding_lookup


class Module:
    """Base class: parameter registration and recursive traversal."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._modules: dict[str, "Module"] = {}

    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Module) and name not in ("_params", "_modules"):
            self.__dict__.setdefault("_modules", {})[name] = value
        super().__setattr__(name, value)

    def parameters(self) -> list[Tensor]:
        """Trainable parameters in this module and its children.

        Frozen parameters (``requires_grad=False``, e.g. a LoRA-wrapped
        base layer) are excluded — optimizers built on this list can never
        touch them.  Use :meth:`named_parameters` to see every parameter
        regardless of trainability.
        """
        out = [p for p in self._params.values() if p.requires_grad]
        for child in self._modules.values():
            out.extend(child.parameters())
        return out

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = [(prefix + name, p) for name, p in self._params.items()]
        for child_name, child in self._modules.items():
            out.extend(child.named_parameters(prefix + child_name + "."))
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        named = dict(self.named_parameters())
        missing = set(named) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        for name, p in named.items():
            if state[name].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{state[name].shape} vs {p.data.shape}"
                )
            p.data = state[name].copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x W + b`` with Kaiming-uniform init."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        bound = float(np.sqrt(6.0 / in_features))
        self.weight = self.register_parameter(
            "weight",
            Tensor(rng.uniform(-bound, bound, size=(in_features, out_features))),
        )
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor(np.zeros(out_features))
            )
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class ZeroLinear(Linear):
    """A Linear layer initialised to exactly zero.

    The "zero convolution" trick from ControlNet: a zero-initialised
    projection lets a new conditioning branch start as a no-op and grow
    its influence during fine-tuning without disturbing the base model.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(in_features, out_features, bias=bias, rng=rng)
        self.weight.data[:] = 0.0


class Embedding(Module):
    """Lookup table for class / token conditioning."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.table = self.register_parameter(
            "table", Tensor(rng.normal(0.0, 0.02, size=(num_embeddings, dim)))
        )
        self.num_embeddings = num_embeddings
        self.dim = dim

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0
                             or indices.max() >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return embedding_lookup(self.table, indices)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = self.register_parameter("gamma", Tensor(np.ones(dim)))
        self.beta = self.register_parameter("beta", Tensor(np.zeros(dim)))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalised = (x - mu) * ((var + self.eps) ** -0.5)
        return normalised * self.gamma + self.beta


class Sequential(Module):
    """Chain of modules / callables applied in order."""

    def __init__(self, *layers):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Module):
                self.register_module(f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class SiLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.silu()


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, slope: float = 0.2):
        super().__init__()
        self.slope = slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


def cast_module(module: Module, dtype) -> Module:
    """An inference-only deep copy of ``module`` with parameters in ``dtype``.

    The clone's parameters are detached (``requires_grad=False``, gradients
    dropped), so forwards through it build no autograd tape — the float32
    inference tier casts once and reuses the clone across sampler batches.
    The original module is untouched; training stays float64.
    """
    clone = copy.deepcopy(module)
    for _, param in clone.named_parameters():
        param.data = param.data.astype(dtype, copy=False)
        param.requires_grad = False
        param.grad = None
        param._grad_buf = None  # drop the deep-copied float64 grad buffer
    return clone


def mlp(sizes: list[int], activation=SiLU, final_activation=None,
        rng: np.random.Generator | None = None) -> Sequential:
    """Build a plain MLP ``sizes[0] -> ... -> sizes[-1]``."""
    if len(sizes) < 2:
        raise ValueError("mlp needs at least input and output sizes")
    layers: list[Module] = []
    for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Linear(a, b, rng=rng))
        last = i == len(sizes) - 2
        if not last:
            layers.append(activation())
        elif final_activation is not None:
            layers.append(final_activation())
    return Sequential(*layers)
