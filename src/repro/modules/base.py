"""Base abstractions for training modules and taglets (paper Section 3.2).

A *module* is a learning method adapted to exploit SCADS; its output — a
trained classifier over the target label space — is a *taglet*.  Modules are
trained independently and their taglets are later ensembled into pseudo
labels for the distillation stage.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..backbones.backbone import ClassificationModel, PretrainedBackbone
from ..datasets.base import ClassSpec
from ..nn import functional as F
from ..nn.tensor import get_default_dtype
from ..nn.training import TrainConfig, predict_proba, train_classifier
from ..nn.transforms import weak_augment
from ..scads.builder import ScadsBundle
from ..scads.query import AuxiliarySelection

__all__ = ["ModuleInput", "Taglet", "ModelTaglet", "TrainingModule",
           "fine_tune_on_auxiliary"]


@dataclass
class ModuleInput:
    """Everything a training module may consume.

    This corresponds to the spectrum of data of Section 3: the limited
    labeled target set ``X``, the unlabeled target pool ``U``, the selected
    auxiliary data ``R`` (plus which concepts it came from), the SCADS bundle
    for graph queries, and the pretrained backbone the module starts from.
    """

    classes: List[ClassSpec]
    labeled_features: np.ndarray
    labeled_labels: np.ndarray
    unlabeled_features: np.ndarray
    auxiliary: AuxiliarySelection
    backbone: PretrainedBackbone
    scads: Optional[ScadsBundle] = None
    seed: int = 0

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def class_names(self) -> List[str]:
        return [c.name for c in self.classes]

    def validate(self) -> None:
        if len(self.labeled_features) != len(self.labeled_labels):
            raise ValueError("labeled features/labels length mismatch")
        if len(self.labeled_features) == 0:
            raise ValueError("modules require at least one labeled example")
        if self.labeled_labels.max() >= self.num_classes:
            raise ValueError("labeled labels exceed the number of classes")


def fine_tune_on_auxiliary(data: ModuleInput, rng: np.random.Generator, *,
                           epochs: int, batch_size: int, lr: float,
                           momentum: float) -> ClassificationModel:
    """The intermediate phase (paper Eq. 1): fine-tune the backbone on ``R``.

    Returns a model with one head output per auxiliary class, trained with
    cross entropy on ``data.auxiliary`` (weak augmentation, loader seeded
    with ``data.seed``).  The Transfer and FixMatch modules
    both start with this phase, and with their default recipes it is the
    same computation, so the selection memoizes the trained weights: the
    first call with a given key trains, later calls load a private copy.
    The key is the recipe, ``data.seed``, the state of ``rng``, the engine
    dtype and the backbone object (which the key pins), so a memo hit
    returns exactly the weights the call would have trained.  The model is
    always built from ``rng``, so the caller's stream advances as if the
    phase had trained.  Whether the ambient ``use_graph_replay`` scope
    replays the phase is not part of the key: replay is bit-identical to
    eager.

    The memo lives on the selection, i.e. one ``Controller.run``; a lock
    makes concurrent callers that share a selection train the phase once.
    """
    auxiliary = data.auxiliary
    key = (data.backbone, pickle.dumps(rng.bit_generator.state), data.seed,
           np.dtype(get_default_dtype()).str, epochs, batch_size, lr,
           momentum)
    model = ClassificationModel.from_backbone(
        data.backbone, num_classes=auxiliary.num_aux_classes, rng=rng)
    with auxiliary._fine_tune_lock:
        state = auxiliary._fine_tuned.get(key)
        if state is None:
            config = TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr,
                                 momentum=momentum, augment=weak_augment(),
                                 seed=data.seed)
            train_classifier(model, auxiliary.features, auxiliary.labels,
                             config)
            auxiliary._fine_tuned[key] = model.state_dict()
            return model
    model.load_state_dict(state)
    return model


class Taglet:
    """A trained classifier over the target label space."""

    def __init__(self, name: str):
        self.name = name

    def predict_proba(self, features: np.ndarray,
                      batch_size: Optional[int] = 256) -> np.ndarray:
        """Return an ``(n, C)`` matrix of class probabilities.

        ``batch_size=None`` runs the whole array as one batch (the ensemble
        uses this for pseudo-label inference).
        """
        raise NotImplementedError

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.predict_proba(features).argmax(axis=1)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        if len(features) == 0:
            return 0.0
        return F.accuracy(self.predict_proba(features), labels)


class ModelTaglet(Taglet):
    """A taglet backed by a :class:`ClassificationModel`."""

    def __init__(self, name: str, model: ClassificationModel):
        super().__init__(name)
        self.model = model

    def predict_proba(self, features: np.ndarray,
                      batch_size: Optional[int] = 256) -> np.ndarray:
        return predict_proba(self.model, features, batch_size=batch_size)


class TrainingModule:
    """A learning method tailored to exploit SCADS; produces a taglet."""

    name = "module"

    def train(self, data: ModuleInput) -> Taglet:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"
