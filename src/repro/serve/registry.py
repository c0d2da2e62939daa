"""A named, versioned store of model artifacts over a directory tree.

Layout::

    <root>/
        <name>/
            v0001/            # one artifact dir (manifest.json + arrays.npz)
            v0002/
            LATEST            # text file holding the newest version number

Publishing stages the artifact in a hidden temp directory and renames it into
place, so readers never observe a half-written version; the ``LATEST`` pointer
and the registry-wide ``GENERATION`` stamp are then updated via staged write +
``os.replace`` — every file a reader can open is either the old complete state
or the new complete state, never a truncated in-between.  All public methods
are safe to call from multiple threads of one process (guarded by a lock) and
from multiple processes (rename/replace are atomic on POSIX).

``GENERATION`` (at the registry root) is a monotone counter bumped by every
publish.  Watchers — the serving daemon's hot-swap loop in particular — poll
:meth:`ModelRegistry.generation` instead of rescanning the tree, and only
resolve per-model ``latest`` pointers when the stamp moves.

A publish may carry a :class:`~repro.serve.drift.DriftBaseline` sketched from
the training set; it is staged *inside* the version directory (subdir
``drift_baseline/``) before the rename, so model weights and their training
distribution appear atomically together.

Only the methods that read or write an artifact (``publish``, ``load``,
``load_drift_baseline``, ``info`` and ``describe``) import
:mod:`repro.serve.artifacts`, and with it numpy and the model stack.  The
pointer reads a serving daemon's parent process makes (``generation``,
``latest``, ``versions`` and ``list_models``) touch files only.
"""

from __future__ import annotations

import dataclasses
import os
import re
import shutil
import threading
from typing import Any, Dict, List, Optional, Union

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_RE = re.compile(r"^v(\d{4,})$")
_LATEST_FILE = "LATEST"
_GENERATION_FILE = "GENERATION"
DRIFT_DIR = "drift_baseline"


def _write_atomic(path: str, text: str) -> None:
    """Stage + ``os.replace`` so readers never see a partial write."""
    staged = f"{path}.staged-{os.getpid()}-{threading.get_ident()}"
    with open(staged, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(staged, path)


def save_artifact(path: str, obj, metadata=None):
    """:func:`repro.serve.artifacts.save_artifact`, imported on first use."""
    from repro.serve.artifacts import save_artifact as save

    return save(path, obj, metadata=metadata)


@dataclasses.dataclass(frozen=True)
class ModelVersion:
    """One published (name, version) entry."""

    name: str
    version: int
    path: str
    kind: str
    metadata: Dict[str, Any]

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"


class ModelRegistry:
    """Publish, enumerate and load versioned model artifacts."""

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _model_dir(self, name: str) -> str:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid model name {name!r}")
        return os.path.join(self.root, name)

    @staticmethod
    def _version_dir(model_dir: str, version: int) -> str:
        return os.path.join(model_dir, f"v{version:04d}")

    # ------------------------------------------------------------------
    def publish(self, name: str, obj,
                metadata: Optional[Dict[str, Any]] = None,
                drift_baseline=None) -> ModelVersion:
        """Serialise ``obj`` as the next version of ``name``.

        ``drift_baseline`` (a :class:`~repro.serve.drift.DriftBaseline`)
        is staged inside the version directory before the atomic rename,
        so the weights and their training-distribution sketch publish as
        one unit.  The registry ``GENERATION`` stamp is bumped last —
        watchers that observe the new stamp are guaranteed to also see
        the complete version directory and ``LATEST`` pointer.
        """
        from repro.serve.artifacts import (
            KIND_DRIFT,
            read_manifest,
            write_artifact_dir,
        )

        model_dir = self._model_dir(name)
        with self._lock:
            os.makedirs(model_dir, exist_ok=True)
            # next version comes from the directory scan, not the LATEST
            # pointer: a stale pointer must never make us collide with an
            # existing version directory
            version = (self.versions(name) or [0])[-1] + 1
            final_dir = self._version_dir(model_dir, version)
            staging = os.path.join(model_dir, f".staging-v{version:04d}")
            if os.path.exists(staging):
                shutil.rmtree(staging)
            try:
                save_artifact(staging, obj, metadata=metadata)
                if drift_baseline is not None:
                    config, arrays = drift_baseline.to_payload()
                    write_artifact_dir(os.path.join(staging, DRIFT_DIR),
                                       KIND_DRIFT, config, arrays)
                os.rename(staging, final_dir)
            except BaseException:
                shutil.rmtree(staging, ignore_errors=True)
                raise
            _write_atomic(os.path.join(model_dir, _LATEST_FILE), str(version))
            self._bump_generation_locked()
        manifest = read_manifest(final_dir)
        return ModelVersion(name=name, version=version, path=final_dir,
                            kind=manifest["kind"],
                            metadata=manifest.get("metadata", {}))

    # ------------------------------------------------------------------
    def generation(self) -> int:
        """The registry-wide publish counter (0 before any publish).

        Monotone under this process's lock and atomic on disk; concurrent
        publishers from *separate* processes may coalesce a bump, which a
        watcher only needs the stamp to *move* to handle.
        """
        try:
            with open(os.path.join(self.root, _GENERATION_FILE), "r",
                      encoding="utf-8") as fh:
                return int(fh.read().strip())
        except (OSError, ValueError):
            return 0

    def _bump_generation_locked(self) -> None:
        _write_atomic(os.path.join(self.root, _GENERATION_FILE),
                      str(self.generation() + 1))

    # ------------------------------------------------------------------
    def list_models(self) -> List[str]:
        """Names that have at least one published version."""
        names = []
        for entry in sorted(os.listdir(self.root)):
            if _NAME_RE.match(entry) and os.path.isdir(
                    os.path.join(self.root, entry)) and self.versions(entry):
                names.append(entry)
        return names

    def versions(self, name: str) -> List[int]:
        """Published version numbers of ``name``, ascending."""
        model_dir = self._model_dir(name)
        if not os.path.isdir(model_dir):
            return []
        found = []
        for entry in os.listdir(model_dir):
            match = _VERSION_RE.match(entry)
            if match and os.path.exists(os.path.join(model_dir, entry,
                                                     "manifest.json")):
                found.append(int(match.group(1)))
        return sorted(found)

    def latest(self, name: str) -> Optional[int]:
        """Newest published version of ``name`` (None if unpublished).

        Reads the O(1) ``LATEST`` pointer when it is present and still points
        at an existing version; falls back to scanning the version dirs (the
        pointer can go stale if versions are deleted by hand).
        """
        model_dir = self._model_dir(name)
        try:
            with open(os.path.join(model_dir, _LATEST_FILE), "r",
                      encoding="utf-8") as fh:
                version = int(fh.read().strip())
            if os.path.exists(os.path.join(self._version_dir(model_dir,
                                                             version),
                                           "manifest.json")):
                return version
        except (OSError, ValueError):
            pass
        versions = self.versions(name)
        return versions[-1] if versions else None

    # ------------------------------------------------------------------
    def _resolve(self, name: str, version: Optional[int]) -> str:
        if version is None:
            version = self.latest(name)
            if version is None:
                raise KeyError(f"model {name!r} has no published versions")
        path = self._version_dir(self._model_dir(name), int(version))
        if not os.path.isdir(path):
            raise KeyError(f"model {name!r} has no version {version}")
        return path

    def load(self, name: str, version: Optional[int] = None):
        """Deserialise a published version (default: the latest)."""
        from repro.serve.artifacts import load_artifact

        return load_artifact(self._resolve(name, version))

    def load_drift_baseline(self, name: str,
                            version: Optional[int] = None):
        """The version's published drift sketch, or None if it has none."""
        from repro.serve.artifacts import load_artifact

        path = os.path.join(self._resolve(name, version), DRIFT_DIR)
        if not os.path.exists(os.path.join(path, "manifest.json")):
            return None
        return load_artifact(path)

    def info(self, name: str, version: Optional[int] = None) -> Dict[str, Any]:
        """The stored manifest of a published version (no array I/O)."""
        from repro.serve.artifacts import read_manifest

        path = self._resolve(name, version)
        manifest = read_manifest(path)
        manifest["path"] = path
        return manifest

    def describe(self) -> List[ModelVersion]:
        """One :class:`ModelVersion` per published version, for listings."""
        from repro.serve.artifacts import ArtifactError, read_manifest

        entries = []
        for name in self.list_models():
            for version in self.versions(name):
                path = self._version_dir(self._model_dir(name), version)
                try:
                    manifest = read_manifest(path)
                except ArtifactError:
                    continue
                entries.append(ModelVersion(
                    name=name, version=version, path=path,
                    kind=manifest["kind"],
                    metadata=manifest.get("metadata", {})))
        return entries
