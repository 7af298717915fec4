"""Saving and loading model weights as ``.npz`` archives.

TAGLETS caches pretrained backbones and the distilled end model; this module
provides the on-disk format for those checkpoints, plus the integrity layer
the serving artifacts (:mod:`repro.serve.artifact`) build on: a *manifest*
describing every entry's shape and dtype, a content digest, and strict
validation that names the offending parameter instead of failing later with
an opaque shape error mid-forward.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Optional

import numpy as np

from .modules import Module

__all__ = [
    "save_state_dict",
    "load_state_dict",
    "state_dict_manifest",
    "state_dict_digest",
    "validate_state_dict",
    "StateDictMismatchError",
]

_KEY_SEPARATOR = "::"  # npz keys cannot contain '/' portably across dict round-trips

#: dtypes that may be cast into each other on load (the float32 fast mode
#: loads float64 checkpoints and vice versa); every other cast is an error.
_CASTABLE_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


class StateDictMismatchError(ValueError):
    """A checkpoint does not fit the module it is being loaded into.

    Raised by :func:`validate_state_dict` with a message naming every
    missing key, unexpected key, shape mismatch, and dtype mismatch at
    once, so a wrong archive fails loudly at load time rather than at the
    first forward.
    """


def save_state_dict(state: Dict[str, np.ndarray], path: str) -> None:
    """Write a state dict to ``path`` (parent directories are created)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    safe = {name.replace(".", _KEY_SEPARATOR): value for name, value in state.items()}
    np.savez(path, **safe)


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state_dict`."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with np.load(path) as archive:
        return {name.replace(_KEY_SEPARATOR, "."): archive[name]
                for name in archive.files}


def state_dict_manifest(state: Dict[str, np.ndarray]) -> Dict[str, Dict[str, object]]:
    """Describe every entry of a state dict (shape and dtype).

    The description is JSON-serializable; serving artifacts embed it in
    their ``manifest.json`` so a servable can be inspected — and validated —
    without opening the weight archive.
    """
    return {name: {"shape": list(np.asarray(value).shape),
                   "dtype": str(np.asarray(value).dtype)}
            for name, value in state.items()}


def state_dict_digest(state: Dict[str, np.ndarray]) -> str:
    """SHA-256 over the keys, shapes, dtypes and raw bytes of a state dict.

    Key order does not matter; the digest changes if any array's contents,
    shape, or dtype changes.  Used as the integrity check of exported
    serving artifacts.
    """
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(value.tobytes())
    return digest.hexdigest()


def _dtype_compatible(target: np.dtype, source: np.dtype) -> bool:
    if target == source:
        return True
    # float32 <-> float64 casts are the documented fast-mode path.
    return target in _CASTABLE_FLOATS and source in _CASTABLE_FLOATS


def validate_state_dict(module: Module, state: Dict[str, np.ndarray],
                        source: Optional[str] = None) -> None:
    """Check ``state`` against ``module`` before loading it.

    Collects *every* problem — missing keys, unexpected keys, shape
    mismatches, and incompatible dtypes — into one
    :class:`StateDictMismatchError` naming each offending parameter, instead
    of surfacing only the first problem (or, worse, deferring to a shape
    error deep inside a later forward pass).
    """
    own = module.state_dict()
    problems: List[str] = []
    for name in sorted(set(own) - set(state)):
        problems.append(f"missing key {name!r} "
                        f"(module expects shape {tuple(own[name].shape)})")
    for name in sorted(set(state) - set(own)):
        problems.append(f"unexpected key {name!r} "
                        f"(archive shape {tuple(np.asarray(state[name]).shape)})")
    for name in sorted(set(own) & set(state)):
        value = np.asarray(state[name])
        if own[name].shape != value.shape:
            problems.append(f"shape mismatch for {name!r}: module has "
                            f"{tuple(own[name].shape)}, archive has "
                            f"{tuple(value.shape)}")
        elif not _dtype_compatible(own[name].dtype, value.dtype):
            problems.append(f"dtype mismatch for {name!r}: module has "
                            f"{own[name].dtype}, archive has {value.dtype} "
                            "(only float32<->float64 casts are allowed)")
    if problems:
        origin = f" from {source}" if source else ""
        summary = "; ".join(problems)
        raise StateDictMismatchError(
            f"state dict{origin} does not match "
            f"{type(module).__name__}: {summary}")
