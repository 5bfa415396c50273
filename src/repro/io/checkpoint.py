"""Model checkpointing.

The paper's motivation for fast training is building a *library of
pre-trained SDNets* for different PDEs that can be reused purely through
inference (Section 3).  This module provides the storage side of that
library: models are saved as ``.npz`` archives holding every parameter plus a
JSON-encoded configuration, and can be reloaded either into an existing
module or reconstructed from the stored configuration.

Compiled modules (:class:`repro.engine.CompiledModule`) round-trip through
the same archives: saving stores the *source* module's state (a compiled
module is a derived artifact, never serialized itself), and loading
re-traces — :func:`load_compiled_sdnet` reconstructs the SDNet and compiles
it, while :func:`load_model` into an existing compiled module loads the
state and invalidates its cached graphs.  Re-traced outputs are bitwise
identical to the pre-save compiled outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..models import ConcatSolver, SDNet
from ..nn import Module

__all__ = [
    "save_checkpoint",
    "load_state",
    "load_sdnet",
    "load_model",
    "load_compiled_sdnet",
]


def _unwrap_compiled(model):
    """The source module of a compiled module; any other model as it is."""

    from ..engine import CompiledModule

    return model.module if isinstance(model, CompiledModule) else model

_CONFIG_KEY = "__config_json__"
_CLASS_KEY = "__model_class__"


def save_checkpoint(model: Module, path: str | Path, config: dict | None = None) -> Path:
    """Save a model's parameters (and optional config) to an ``.npz`` archive.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module`, or a
        :class:`repro.engine.CompiledModule` (its source module's state is
        stored; the compiled graphs are a derived artifact and re-created by
        tracing on load).
    path:
        Target file; the ``.npz`` suffix is added if missing.
    config:
        Constructor configuration to embed (``SDNet.config()`` is used
        automatically when available and no explicit config is given).

    Returns
    -------
    The path actually written.
    """

    model = _unwrap_compiled(model)
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    state = model.state_dict()
    if config is None and hasattr(model, "config"):
        config = model.config()
    payload = {name: np.asarray(value) for name, value in state.items()}
    payload[_CONFIG_KEY] = np.frombuffer(
        json.dumps(config or {}).encode("utf-8"), dtype=np.uint8
    )
    payload[_CLASS_KEY] = np.frombuffer(
        type(model).__name__.encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **payload)
    return path


def _decode(archive, key: str) -> str:
    return bytes(archive[key].tolist()).decode("utf-8")


def load_state(path: str | Path) -> tuple[dict, dict, str]:
    """Load ``(state_dict, config, class_name)`` from a checkpoint archive."""

    path = Path(path)
    with np.load(path) as archive:
        config = json.loads(_decode(archive, _CONFIG_KEY)) if _CONFIG_KEY in archive else {}
        class_name = _decode(archive, _CLASS_KEY) if _CLASS_KEY in archive else ""
        state = {
            name: archive[name]
            for name in archive.files
            if name not in (_CONFIG_KEY, _CLASS_KEY)
        }
    return state, config, class_name


def load_model(path: str | Path, model: Module) -> Module:
    """Load checkpoint parameters into an already-constructed ``model``.

    ``model`` may be a :class:`repro.engine.CompiledModule`: the state loads
    into its source module, and ``load_state_dict`` announces the change, so
    the next compiled call re-traces against the restored parameters.
    """

    state, _, _ = load_state(path)
    _unwrap_compiled(model).load_state_dict(state)
    return model


def load_sdnet(path: str | Path, **overrides) -> SDNet:
    """Reconstruct an :class:`SDNet` from a checkpoint written by :func:`save_checkpoint`.

    The stored configuration provides the constructor arguments; keyword
    ``overrides`` take precedence (e.g. to change the activation for an
    ablation while keeping the boundary size).
    """

    state, config, class_name = load_state(path)
    if class_name and class_name != "SDNet":
        raise ValueError(f"checkpoint stores a {class_name}, not an SDNet")
    if not config:
        raise ValueError("checkpoint has no embedded configuration")
    kwargs = dict(config)
    kwargs.update(overrides)
    # Infer architecture sizes not covered by SDNet.config() from the state.
    trunk_layer_names = [k for k in state if k.startswith("trunk.layers.") and k.endswith(".weight")]
    embedding_conv_names = [k for k in state if k.startswith("embedding.convs.") and k.endswith(".weight")]
    kwargs.setdefault("trunk_layers", max(len(trunk_layer_names) - 1, 1))
    if embedding_conv_names:
        channels = tuple(state[name].shape[0] for name in sorted(embedding_conv_names))
        kwargs.setdefault("embedding_channels", channels)
        kwargs.setdefault("conv_kernel_size", state[sorted(embedding_conv_names)[0]].shape[2])
    else:
        kwargs.setdefault("embedding_channels", ())
    kwargs.pop("activation", None)
    model = SDNet(activation=config.get("activation", "gelu"), **kwargs)
    model.load_state_dict(state)
    return model


def load_compiled_sdnet(path: str | Path, **overrides):
    """Reconstruct an SDNet from a checkpoint and compile it for inference.

    The returned :class:`repro.engine.CompiledModule` traces lazily on first
    call; its outputs are bitwise identical to those of a compiled module
    saved before the round-trip (same parameters, same traced operations).
    ``overrides`` are forwarded to :func:`load_sdnet`.
    """

    from ..engine import compile_module

    return compile_module(load_sdnet(path, **overrides))
