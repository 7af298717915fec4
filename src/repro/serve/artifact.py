"""The versioned on-disk format for servable models and taglet ensembles.

TAGLETS' product is the distilled end model — a single backbone-sized
classifier meant to be deployed (the paper's "servable model").  An exported
end-model artifact is a directory::

    <path>/
        manifest.json   # schema version, classes, backbone spec, dtype,
                        # per-weight shapes/dtypes, content digest, metrics
        weights.npz     # the end model's state dict

Schema **v2** adds a second format, the **taglet ensemble** — the paper's
quality-over-latency deployment (the ensemble outperforms the distilled end
model; Figure 6) serves the averaged vote of every taglet instead of the one
distilled student::

    <path>/
        manifest.json   # schema 2, format "taglets-ensemble", one entry per
                        # member (kind, backbone, dtype, weights, digest)
        member_0.npz    # each member taglet's state dict
        member_1.npz
        ...

``manifest.json`` is self-describing: a servable can be inspected, listed,
and validated without touching the weight archives, and every archive is
integrity-checked against its manifest SHA-256 digest on load.  The schema
is versioned; schema-1 artifacts (end models from earlier exports) still
load, unknown versions are loudly rejected.

Serving forwards are **compiled**: at load time the rebuilt model is traced
into a chain of its leaf layers (:func:`repro.nn.leaf_chain`), and each
forward runs the op table's forward kernels (:mod:`repro.nn.ops`, the same
kernels the eager tape and the replay executor run) on fresh per-call
buffers in the artifact's own dtype.  The compiled path touches no engine
state at all, and concurrent forwards need no lock — one servable may be
called from several threads at once (offline calls next to a live batcher,
the old and new batchers of a hot swap, ensemble serving next to either).
Every architecture the loader rebuilds is such a chain; a model that is not
is refused at load with :class:`ArtifactError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backbones.backbone import BackboneSpec, ClassificationModel, Encoder
from ..distill.end_model import EndModel
from ..ensemble.voting import TagletEnsemble, renormalized_mean
from ..modules.base import ModelTaglet, Taglet
from ..modules.zsl_kg import ZslKgTaglet
from ..nn.chain import leaf_chain
from ..nn.serialization import (load_state_dict, save_state_dict,
                                state_dict_digest, state_dict_manifest,
                                validate_state_dict)
from ..nn.tensor import default_dtype
from ..nn.training import softmax_rows
from .batching import run_at_quantum

__all__ = ["SCHEMA_VERSION", "MANIFEST_NAME", "WEIGHTS_NAME",
           "ArtifactError", "Servable", "ServableModel", "ServableEnsemble",
           "export_end_model", "export_ensemble", "load_servable",
           "read_manifest"]

#: Bump when the manifest layout changes incompatibly.  Version 2 added the
#: "taglets-ensemble" format; version-1 end-model artifacts read fine.
SCHEMA_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)
MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.npz"

FORMAT_END_MODEL = "taglets-end-model"
FORMAT_ENSEMBLE = "taglets-ensemble"

#: Manifest keys every end-model artifact must carry.
_REQUIRED_KEYS = ("schema_version", "format", "class_names", "backbone",
                  "dtype", "num_classes", "weights", "weights_digest")
#: Manifest keys every ensemble artifact must carry.
_REQUIRED_ENSEMBLE_KEYS = ("schema_version", "format", "class_names",
                           "members")
#: Keys every ensemble *member* entry must carry.
_REQUIRED_MEMBER_KEYS = ("name", "kind", "backbone", "dtype", "num_classes",
                         "weights", "weights_digest", "weights_file")
#: Member kinds the loader knows how to serve.
_MEMBER_KINDS = ("model", "zsl_kg")


class ArtifactError(ValueError):
    """An exported artifact is missing, malformed, or fails validation."""


def _end_model_of(source) -> EndModel:
    """Accept an :class:`EndModel` or anything carrying one (``.end_model``)."""
    if isinstance(source, EndModel):
        return source
    end_model = getattr(source, "end_model", None)
    if isinstance(end_model, EndModel):
        return end_model
    raise TypeError(
        f"expected an EndModel or a result carrying one, got {type(source).__name__}")

def _class_names_of(source, class_names) -> List[str]:
    if class_names is not None:
        return [str(name) for name in class_names]
    names = getattr(source, "class_names", None)
    if names:
        return [str(name) for name in names]
    raise ValueError("class_names are required: pass them explicitly or export "
                     "a TagletsResult (which records them)")


def _model_dtype(model: ClassificationModel, declared) -> str:
    """The dtype a model's weights actually hold, falling back to float64
    when the state is mixed or exotic (the engine runs float32/float64)."""
    dtype = str(np.dtype(declared))
    state = model.state_dict()
    if dtype not in ("float32", "float64") or \
            {str(np.asarray(v).dtype) for v in state.values()} != {dtype}:
        return "float64"
    return dtype


def _backbone_entry(spec: BackboneSpec) -> dict:
    return {
        "name": spec.name,
        "input_dim": spec.input_dim,
        "hidden_dims": list(spec.hidden_dims),
        "feature_dim": spec.feature_dim,
        "pretraining": spec.pretraining,
    }


def export_end_model(source, path: str,
                     class_names: Optional[Sequence[str]] = None,
                     metrics: Optional[Dict[str, float]] = None,
                     task_name: Optional[str] = None) -> str:
    """Export a trained end model as a versioned servable artifact.

    ``source`` is a :class:`~repro.core.controller.TagletsResult` (class
    names and task name are taken from it) or a bare :class:`EndModel` (pass
    ``class_names`` explicitly).  Returns the artifact directory path.
    """
    end_model = _end_model_of(source)
    names = _class_names_of(source, class_names)
    model = end_model.model
    if len(names) != model.num_classes:
        raise ValueError(f"got {len(names)} class names for a "
                         f"{model.num_classes}-class end model")
    spec: BackboneSpec = end_model.backbone_spec
    state = end_model.state_dict()
    dtype = _model_dtype(model, end_model.dtype)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "format": FORMAT_END_MODEL,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "task_name": task_name or getattr(source, "task_name", None),
        "class_names": names,
        "num_classes": model.num_classes,
        "backbone": _backbone_entry(spec),
        # The servable is rebuilt in this dtype so served logits match
        # offline inference bit for bit.
        "dtype": dtype,
        "num_parameters": end_model.num_parameters(),
        "metrics": dict(metrics or {}),
        "weights": state_dict_manifest(state),
        "weights_digest": state_dict_digest(state),
    }

    os.makedirs(path, exist_ok=True)
    save_state_dict(state, os.path.join(path, WEIGHTS_NAME))
    _write_manifest(path, manifest)
    return path


def _ensemble_of(source) -> TagletEnsemble:
    """Accept a :class:`TagletEnsemble` or anything carrying one."""
    if isinstance(source, TagletEnsemble):
        return source
    ensemble = getattr(source, "ensemble", None)
    if isinstance(ensemble, TagletEnsemble):
        return ensemble
    raise TypeError(f"expected a TagletEnsemble or a result carrying one, "
                    f"got {type(source).__name__}")


def _member_entry(taglet: Taglet, index: int) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Describe one taglet as an exportable ensemble member.

    Supported taglets are the model-backed ones: :class:`ModelTaglet`
    (probabilities are the softmax of the model logits) and
    :class:`ZslKgTaglet` (logits are scaled by ``logit_scale`` first).
    """
    if isinstance(taglet, ZslKgTaglet):
        kind, model = "zsl_kg", taglet.model
        extra = {"logit_scale": float(taglet.logit_scale)}
    elif isinstance(taglet, ModelTaglet):
        kind, model = "model", taglet.model
        extra = {}
    else:
        raise TypeError(
            f"taglet {taglet.name!r} ({type(taglet).__name__}) is not "
            f"model-backed and cannot be exported; servable ensembles "
            f"support ModelTaglet and ZslKgTaglet members")
    state = model.state_dict()
    dtype = _model_dtype(model, model.head.weight.data.dtype)
    entry = {
        "name": taglet.name,
        "kind": kind,
        "backbone": _backbone_entry(model.encoder.spec),
        "dtype": dtype,
        "num_classes": model.num_classes,
        "num_parameters": model.num_parameters(),
        "weights": state_dict_manifest(state),
        "weights_digest": state_dict_digest(state),
        "weights_file": f"member_{index}.npz",
        **extra,
    }
    return entry, state


def export_ensemble(source, path: str,
                    class_names: Optional[Sequence[str]] = None,
                    metrics: Optional[Dict[str, float]] = None,
                    task_name: Optional[str] = None) -> str:
    """Export a whole taglet ensemble as one servable artifact.

    ``source`` is a :class:`~repro.core.controller.TagletsResult` (class
    names, task name, and the ensemble are taken from it) or a bare
    :class:`TagletEnsemble` (pass ``class_names`` explicitly).  The served
    prediction is the renormalized mean of the members' probability vectors
    (Eq. 6) — exactly offline :meth:`TagletEnsemble.predict_proba`.
    Returns the artifact directory path.
    """
    ensemble = _ensemble_of(source)
    names = _class_names_of(source, class_names)
    members: List[dict] = []
    states: List[Dict[str, np.ndarray]] = []
    input_dims = set()
    for index, taglet in enumerate(ensemble.taglets):
        entry, state = _member_entry(taglet, index)
        if entry["num_classes"] != len(names):
            raise ValueError(
                f"member {taglet.name!r} predicts {entry['num_classes']} "
                f"classes but {len(names)} class names were given")
        input_dims.add(entry["backbone"]["input_dim"])
        members.append(entry)
        states.append(state)
    if len(input_dims) != 1:
        raise ValueError(f"ensemble members disagree on input_dim: "
                         f"{sorted(input_dims)}")

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "format": FORMAT_ENSEMBLE,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "task_name": task_name or getattr(source, "task_name", None),
        "class_names": names,
        "num_classes": len(names),
        "num_members": len(members),
        "metrics": dict(metrics or {}),
        "members": members,
    }

    os.makedirs(path, exist_ok=True)
    for entry, state in zip(members, states):
        save_state_dict(state, os.path.join(path, entry["weights_file"]))
    _write_manifest(path, manifest)
    return path


def _write_manifest(path: str, manifest: dict) -> None:
    with open(os.path.join(path, MANIFEST_NAME), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


def read_manifest(path: str) -> dict:
    """Read and schema-check an artifact's manifest (weights stay untouched)."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isdir(path) or not os.path.exists(manifest_path):
        raise ArtifactError(f"no servable artifact at {path!r} "
                            f"(expected a directory containing {MANIFEST_NAME})")
    with open(manifest_path, "rb") as handle:
        raw = handle.read()
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except ValueError as error:
        # Bad JSON, bad UTF-8, or an integer literal past Python's
        # int-string conversion limit.
        raise ArtifactError(f"corrupt manifest at {manifest_path}: {error}")
    except RecursionError:
        raise ArtifactError(f"corrupt manifest at {manifest_path}: "
                            f"nested too deeply")
    if not isinstance(manifest, dict):
        raise ArtifactError(f"corrupt manifest at {manifest_path}: expected "
                            f"a JSON object, got {type(manifest).__name__}")
    version = manifest.get("schema_version")
    if version not in _SUPPORTED_VERSIONS:
        raise ArtifactError(
            f"artifact at {path!r} has schema version {version}; this build "
            f"reads versions {list(_SUPPORTED_VERSIONS)} — re-export the "
            f"model or upgrade")
    fmt = manifest.get("format")
    if fmt == FORMAT_ENSEMBLE:
        if version < 2:
            raise ArtifactError(
                f"artifact at {path!r} declares an ensemble under schema "
                f"version {version}; ensembles require schema version 2")
        required: Sequence[str] = _REQUIRED_ENSEMBLE_KEYS
    else:
        # Schema-1 artifacts are always end models; unknown formats fail
        # the end-model key check loudly below.
        required = _REQUIRED_KEYS
    missing = [key for key in required if key not in manifest]
    if missing:
        raise ArtifactError(f"manifest at {manifest_path} is missing "
                            f"required keys: {missing}")
    if fmt not in (FORMAT_END_MODEL, FORMAT_ENSEMBLE):
        raise ArtifactError(f"artifact at {path!r} has unknown format {fmt!r}")
    if fmt == FORMAT_ENSEMBLE:
        members = manifest["members"]
        if not (isinstance(members, list)
                and all(isinstance(entry, dict) for entry in members)):
            raise ArtifactError(f"corrupt manifest at {manifest_path}: "
                                f"'members' must be a list of JSON objects")
        for index, entry in enumerate(members):
            member_missing = [key for key in _REQUIRED_MEMBER_KEYS
                              if key not in entry]
            if member_missing:
                raise ArtifactError(
                    f"ensemble member {index} in {manifest_path} is missing "
                    f"required keys: {member_missing}")
            kind = entry["kind"]
            if kind not in _MEMBER_KINDS:
                raise ArtifactError(
                    f"ensemble member {index} in {manifest_path} has unknown "
                    f"kind {kind!r}; this build serves {list(_MEMBER_KINDS)}")
            # A zsl_kg member without its logit scale would silently serve
            # un-scaled votes — reject the manifest instead.
            if kind == "zsl_kg" and not isinstance(
                    entry.get("logit_scale"), (int, float)):
                raise ArtifactError(
                    f"ensemble member {index} in {manifest_path} is a "
                    f"zsl_kg taglet but carries no numeric 'logit_scale'")
    return manifest


# --------------------------------------------------------------------------- #
# Servables
# --------------------------------------------------------------------------- #
class Servable:
    """Anything the registry can hand out and the server can batch over.

    The contract the serving tier is written against: probability inference
    over ``(n, input_dim)`` rows in a fixed ``dtype``, plus a JSON-friendly
    :meth:`describe` that reports ``fingerprint``, the identity of the
    weights it serves.
    """

    manifest: dict
    path: Optional[str]
    class_names: List[str]
    dtype: np.dtype
    fingerprint: str

    @property
    def num_classes(self) -> int:
        raise NotImplementedError

    @property
    def input_dim(self) -> int:
        raise NotImplementedError

    def predict_proba(self, features: np.ndarray,
                      batch_size: Optional[int] = None) -> np.ndarray:
        raise NotImplementedError

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.predict_proba(features).argmax(axis=1)

    def describe(self) -> dict:
        raise NotImplementedError


class ServableModel(Servable):
    """An inference-only end model reconstructed from an artifact.

    The wrapped model never builds a backward tape.  Forwards run the model's leaf layers through the op
    table's forward kernels (see :func:`repro.nn.leaf_chain`) with per-call
    outputs — lock-free and safe to call concurrently.  A model that is not
    a plain chain of table ops raises :class:`ArtifactError`.
    ``fingerprint`` (the artifact's weight digest) identifies the exact
    weights a response came from.
    """

    def __init__(self, model: ClassificationModel, manifest: dict,
                 path: Optional[str] = None):
        self._model = model
        self.manifest = manifest
        self.path = path
        self.class_names: List[str] = list(manifest["class_names"])
        self.dtype = np.dtype(manifest["dtype"])
        self.fingerprint: str = manifest["weights_digest"]
        chain = leaf_chain(model, self.input_dim, self.dtype)
        if chain is None:
            raise ArtifactError(
                f"{type(model).__name__} is not a plain chain of op-table "
                f"layers and cannot be served")
        self._chain = chain

    @property
    def num_classes(self) -> int:
        return self._model.num_classes

    @property
    def input_dim(self) -> int:
        return self._model.encoder.spec.input_dim

    def predict_logits(self, features: np.ndarray,
                       batch_size: Optional[int] = None) -> np.ndarray:
        """Logits for ``features``.

        ``batch_size=None`` (the default) runs one full-array forward — the
        offline mode.  With a ``batch_size``, inference runs at that fixed
        *quantum*: every chunk, including the last, is padded to exactly
        ``batch_size`` rows.  BLAS gemm kernels choose different reduction
        orders for different row counts, so a row's logits are a pure
        function of (row, weights, batch rows); running at a fixed quantum
        is what makes quantized offline inference bit-identical to the
        micro-batched serving path configured with the same
        ``max_batch_size``.
        """
        features = np.asarray(features, dtype=self.dtype)
        if features.ndim == 2 and batch_size is not None and batch_size > 0:
            if len(features) == 0:
                return np.zeros((0, self.num_classes), dtype=self.dtype)
            # Same chunk-and-pad implementation the micro-batcher runs, so
            # quantized offline inference is bit-identical to serving.
            return run_at_quantum(
                lambda rows: self.predict_logits(rows, batch_size=None),
                features, batch_size)
        # BLAS routes 1-row matmuls through gemv, whose reduction order can
        # differ from the batched gemm path in the last bit.  Pad singleton
        # batches to two rows so a lone example gets the gemm path.
        if features.ndim == 2 and len(features) == 1:
            return self._chain(np.concatenate([features, features]))[:1]
        return self._chain(features)

    def predict_proba(self, features: np.ndarray,
                      batch_size: Optional[int] = None) -> np.ndarray:
        return softmax_rows(self.predict_logits(features,
                                                batch_size=batch_size))

    def describe(self) -> dict:
        """A JSON-friendly summary (what ``GET /models`` reports)."""
        return {
            "format": FORMAT_END_MODEL,
            "task_name": self.manifest.get("task_name"),
            "num_classes": self.num_classes,
            "class_names": self.class_names,
            "backbone": self.manifest["backbone"],
            "dtype": str(self.dtype),
            "num_parameters": self.manifest.get("num_parameters"),
            "metrics": self.manifest.get("metrics", {}),
            "created": self.manifest.get("created"),
            "fingerprint": self.fingerprint,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ServableModel({self.manifest.get('task_name')!r}, "
                f"{self.num_classes} classes, dtype={self.dtype})")


class ServableEnsemble(Servable):
    """A whole taglet ensemble served as one model (quality over latency).

    One fused request runs every member's forward over the same rows,
    stacks the per-member probability matrices into the ``(|T|, n, C)``
    vote tensor, and averages with :func:`repro.ensemble.voting.
    renormalized_mean` — the exact computation of offline
    :meth:`TagletEnsemble.predict_proba` (paper Eq. 6), so served votes are
    bit-identical to offline voting at the serving quantum.  Inputs are
    normalized to float64 (the vote dtype); each member casts to its own
    weight dtype internally, exactly as offline members do.
    """

    #: votes are always accumulated in float64 (ensemble/voting.py)
    dtype = np.dtype(np.float64)

    def __init__(self, members: Sequence[ServableModel],
                 kinds: Sequence[str], logit_scales: Sequence[Optional[float]],
                 manifest: dict, path: Optional[str] = None):
        if not members:
            raise ArtifactError("a servable ensemble needs at least one member")
        self._members = list(members)
        self._kinds = list(kinds)
        self._logit_scales = list(logit_scales)
        self.manifest = manifest
        self.path = path
        self.class_names: List[str] = list(manifest["class_names"])
        # The fingerprint identifies what a served vote is a function of:
        # member weights AND the serving recipe (kind, logit scale), so a
        # re-exported ensemble differing only in a retuned logit_scale
        # reports a different one.
        digest = hashlib.sha256()
        for member, kind, scale in zip(self._members, self._kinds,
                                       self._logit_scales):
            digest.update(f"{kind}:{scale!r}:".encode("utf-8"))
            digest.update(member.fingerprint.encode("utf-8"))
        self.fingerprint: str = digest.hexdigest()

    @property
    def num_classes(self) -> int:
        return self._members[0].num_classes

    @property
    def input_dim(self) -> int:
        return self._members[0].input_dim

    @property
    def num_members(self) -> int:
        return len(self._members)

    def _member_proba(self, index: int, rows: np.ndarray) -> np.ndarray:
        """One member's probabilities over ``rows`` (one full-array forward),
        replaying the member taglet's own logits-to-probabilities recipe."""
        member = self._members[index]
        logits = member.predict_logits(rows, batch_size=None)
        scale = self._logit_scales[index]
        if scale is not None:
            logits = logits * scale
        return softmax_rows(logits)

    def _vote(self, rows: np.ndarray) -> np.ndarray:
        """The fused ensemble forward: every member over the same rows, then
        the renormalized vote average (Eq. 6) — offline
        ``TagletEnsemble.predict_proba(rows, batch_size=None)`` exactly."""
        votes = np.empty((len(self._members), len(rows), self.num_classes),
                         dtype=np.float64)
        for index in range(len(self._members)):
            votes[index] = self._member_proba(index, rows)
        return renormalized_mean(votes)

    def predict_proba(self, features: np.ndarray,
                      batch_size: Optional[int] = None) -> np.ndarray:
        """Ensemble vote probabilities for ``features``.

        ``batch_size=None`` runs one full-array pass per member (offline
        mode); with a ``batch_size`` the vote runs at that fixed quantum via
        the same chunk-and-pad path the micro-batcher uses, so quantized
        offline voting is bit-identical to the served ensemble.
        """
        features = np.asarray(features, dtype=self.dtype)
        if features.ndim == 1:
            return self._vote(features[None, :])[0]
        if len(features) == 0:
            return np.zeros((0, self.num_classes), dtype=np.float64)
        if batch_size is not None and batch_size > 0:
            return run_at_quantum(self._vote, features, batch_size)
        return self._vote(features)

    def describe(self) -> dict:
        """A JSON-friendly summary (what ``GET /models`` reports)."""
        return {
            "format": FORMAT_ENSEMBLE,
            "task_name": self.manifest.get("task_name"),
            "num_classes": self.num_classes,
            "class_names": self.class_names,
            "num_members": self.num_members,
            "members": [{"name": entry["name"], "kind": entry["kind"],
                         "dtype": entry["dtype"],
                         "backbone": entry["backbone"]["name"],
                         "num_parameters": entry.get("num_parameters")}
                        for entry in self.manifest["members"]],
            "dtype": str(self.dtype),
            "metrics": self.manifest.get("metrics", {}),
            "created": self.manifest.get("created"),
            "fingerprint": self.fingerprint,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ServableEnsemble({self.manifest.get('task_name')!r}, "
                f"{self.num_members} members, {self.num_classes} classes)")


# --------------------------------------------------------------------------- #
# Loading
# --------------------------------------------------------------------------- #
def _rebuild_model(entry: dict, weights_path: str) -> ClassificationModel:
    """Rebuild one model from a manifest entry + weight archive, strictly
    validating the content digest and every key/shape/dtype."""
    if not os.path.exists(weights_path):
        raise ArtifactError(f"artifact weight archive missing: {weights_path}")
    try:
        state = load_state_dict(weights_path)
    except Exception as error:
        # A truncated or byte-flipped archive surfaces from zipfile and
        # numpy's header parser as unrelated types: BadZipFile, EOFError,
        # OSError, ValueError, SyntaxError, tokenize.TokenError,
        # NotImplementedError and RuntimeError all showed up in a scan.
        raise ArtifactError(f"unreadable weight archive {weights_path}: "
                            f"{error!r}") from error
    digest = state_dict_digest(state)
    if digest != entry["weights_digest"]:
        raise ArtifactError(
            f"weight archive at {weights_path} does not match its "
            f"manifest digest (expected {str(entry['weights_digest'])[:12]}…, "
            f"got {digest[:12]}…) — the artifact is corrupt or was edited")
    try:
        backbone = entry["backbone"]
        spec = BackboneSpec(name=backbone["name"],
                            input_dim=int(backbone["input_dim"]),
                            hidden_dims=tuple(backbone["hidden_dims"]),
                            feature_dim=int(backbone["feature_dim"]),
                            pretraining=backbone.get("pretraining", "none"))
        # Rebuild under the recorded dtype so parameters (and therefore
        # served logits) match the training-time model exactly.
        with default_dtype(entry["dtype"]):
            encoder = Encoder(spec, rng=np.random.default_rng(0))
            model = ClassificationModel(encoder, int(entry["num_classes"]),
                                        rng=np.random.default_rng(0))
    except (KeyError, TypeError, ValueError) as error:
        raise ArtifactError(f"manifest cannot rebuild the model of "
                            f"{weights_path}: {error!r}") from error
    try:
        validate_state_dict(model, state, source=weights_path)
    except ValueError as error:
        raise ArtifactError(str(error))
    model.load_state_dict(state)
    return model


def load_servable(path: str) -> Servable:
    """Reconstruct an inference-only servable from an exported artifact.

    Dispatches on the manifest's ``format``: end-model artifacts load as
    :class:`ServableModel`, ensemble artifacts as :class:`ServableEnsemble`.
    Every weight archive is strictly validated against the rebuilt
    architecture (every key, shape, and dtype) and integrity-checked
    against its manifest digest.  Anything that fails to load raises
    :class:`ArtifactError`.
    """
    manifest = read_manifest(path)
    if manifest.get("format") == FORMAT_ENSEMBLE:
        members: List[ServableModel] = []
        kinds: List[str] = []
        scales: List[Optional[float]] = []
        for entry in manifest["members"]:
            model = _rebuild_model(
                entry, os.path.join(path, entry["weights_file"]))
            member_manifest = dict(entry)
            member_manifest["class_names"] = manifest["class_names"]
            members.append(ServableModel(model, member_manifest, path=path))
            kinds.append(entry["kind"])
            scales.append(entry.get("logit_scale")
                          if entry["kind"] == "zsl_kg" else None)
        return ServableEnsemble(members, kinds, scales, manifest, path=path)
    model = _rebuild_model(manifest, os.path.join(path, WEIGHTS_NAME))
    return ServableModel(model, manifest, path=path)
