"""A versioned in-process store of servable models.

The registry maps ``name -> {version -> servable}`` plus a ``latest``
pointer per name.  References are strings of the form ``name``,
``name@latest``, or ``name@<version>``; resolution is atomic under a lock
and returns the servable *object*.  A registered version never changes: a
version the name already has is refused, so new weights are a new version
and a rollback repoints ``latest`` (:meth:`ModelRegistry.set_latest`).  A
request that resolved version ``2`` keeps those exact weights even if ``3``
becomes latest while it is in flight — hot swaps never drop or corrupt
in-flight work.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from .artifact import Servable

__all__ = ["ModelRegistry", "ModelNotFound", "parse_reference"]

LATEST = "latest"


class ModelNotFound(LookupError):
    """No servable matches the requested ``name@version`` reference."""


def parse_reference(reference: str) -> Tuple[str, str]:
    """Split ``name[@version]`` into ``(name, version)``; bare names mean latest."""
    if not reference or not isinstance(reference, str):
        raise ValueError(f"invalid model reference {reference!r}")
    name, _, version = reference.partition("@")
    if not name:
        raise ValueError(f"invalid model reference {reference!r}")
    return name, (version or LATEST)


class ModelRegistry:
    """Named, versioned servables with an atomically swappable latest pointer."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._models: Dict[str, "Dict[str, Servable]"] = {}
        self._latest: Dict[str, str] = {}
        self._counters: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, servable: Servable,
                 version: Optional[str] = None,
                 make_latest: bool = True) -> str:
        """Add a servable under ``name`` and return its version string.

        Versions auto-increment (``"1"``, ``"2"``, …) unless given
        explicitly.  With ``make_latest`` (default) the ``latest`` pointer
        swings to the new version in the same critical section — the hot
        swap is one atomic pointer update.  The name and version must pass
        :meth:`check_key` under the lock that adds them, so a racing
        registration of the same version is refused too.
        """
        if not isinstance(servable, Servable):
            raise TypeError(f"expected a Servable (ServableModel or "
                            f"ServableEnsemble), got {type(servable).__name__}")
        with self._lock:
            version = self.check_key(name, version)
            if version is None:
                self._counters[name] = self._counters.get(name, 0) + 1
                version = self.check_key(name, self._counters[name])
            self._models.setdefault(name, {})[version] = servable
            if make_latest or name not in self._latest:
                self._latest[name] = version
            return version

    def check_key(self, name: str,
                  version: Optional[str] = None) -> Optional[str]:
        """Refuse a name or explicit version this registry cannot add.

        A name or version that is empty or contains ``@`` could never come
        back out of :func:`parse_reference`, ``latest`` is the pointer's
        own name, and a version the name already has would be a duplicate;
        each raises ``ValueError``.  Returns the version as a string
        (``None`` stays ``None``: :meth:`register` numbers it).
        """
        if not name or "@" in name:
            raise ValueError(f"invalid model name {name!r}: it must be "
                             "non-empty and contain no '@'")
        if version is None:
            return None
        version = str(version)
        if not version or "@" in version:
            raise ValueError(f"invalid version {version!r}: it must be "
                             "non-empty and contain no '@'")
        if version == LATEST:
            raise ValueError(f"{LATEST!r} is a reserved version name")
        with self._lock:
            if version in self._models.get(name, ()):
                raise ValueError(
                    f"model {name!r} already has version {version!r}")
        return version

    def set_latest(self, name: str, version: str) -> None:
        """Atomically repoint ``name@latest`` (e.g. a rollback)."""
        with self._lock:
            if name not in self._models or str(version) not in self._models[name]:
                raise ModelNotFound(f"{name}@{version}")
            self._latest[name] = str(version)

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolve(self, reference: str) -> Tuple[str, str, Servable]:
        """Resolve ``name[@version]`` to ``(name, concrete_version, servable)``."""
        name, version = parse_reference(reference)
        with self._lock:
            if name not in self._models:
                raise ModelNotFound(
                    f"no model named {name!r}; registered: {sorted(self._models)}")
            if version == LATEST:
                version = self._latest[name]
            servable = self._models[name].get(version)
            if servable is None:
                raise ModelNotFound(
                    f"model {name!r} has no version {version!r}; "
                    f"available: {self.versions(name)}")
            return name, version, servable

    def versions(self, name: str) -> List[str]:
        with self._lock:
            if name not in self._models:
                raise ModelNotFound(name)
            return list(self._models[name])

    def manifest(self) -> List[str]:
        """Every registered pair as ``name@version`` strings, latest first.

        The flat shard manifest of this registry: what ``/healthz`` reports
        and what a fleet router uses to route ``model@version`` references
        to the replicas that can actually answer them.  The version the
        ``latest`` pointer designates leads each name's group.
        """
        with self._lock:
            entries: List[str] = []
            for name in sorted(self._models):
                latest = self._latest.get(name)
                ordered = sorted(self._models[name],
                                 key=lambda v: (v != latest, v))
                entries.extend(f"{name}@{version}" for version in ordered)
            return entries

    def describe(self) -> Dict[str, dict]:
        """A JSON-friendly listing of every registered servable."""
        with self._lock:
            return {
                name: {
                    "latest": self._latest[name],
                    "versions": {version: servable.describe()
                                 for version, servable in versions.items()},
                }
                for name, versions in self._models.items()
            }

    def __contains__(self, reference: str) -> bool:
        try:
            self.resolve(reference)
            return True
        except (ModelNotFound, ValueError):
            return False

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._models.values())
