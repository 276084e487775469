"""The versioned, content-addressed model registry.

The paper's model zoo holds whatever optimized models were registered in
process; nothing tracks *which build* of a model an edge is serving, and
pushing a new build across a fleet meant re-running the registration
code everywhere.  :class:`ModelRegistry` turns the cloud→edge→cloud
model loop into a real subsystem:

* **full-model artifacts** — every published version stores the complete
  :func:`~repro.nn.serialization.serialize_model` artifact (architecture
  + weights + layer state + compression metadata), so a puller needs no
  caller-side reconstruction;
* **content addressing** — artifacts are stored under their
  :func:`~repro.nn.serialization.model_fingerprint`; publishing the same
  content twice (even under two names) stores one blob, and pulling a
  version always yields byte-identical data on every replica;
* **versioning + lineage** — versions are monotonically numbered per
  name, and each may point at the version it was derived from
  (``base=``), which is how a compressed variant records the model it
  was compressed from;
* **delta-aware transfer costing** — per-array digests recorded at
  publish time let :meth:`delta_bytes` price an incremental download
  (only the arrays that changed) against what the edge already holds,
  which :class:`~repro.collaboration.cloud_edge.ModelSyncPlanner` turns
  into link seconds.

The registry is thread-safe: fleet replicas pull concurrently during a
rollout.

**Durability.**  By default everything lives in process memory (the
pre-PR-10 behavior, still right for tests and throwaway experiments).
Passing ``store=`` (a :class:`~repro.core.store.BlobStore`) persists
every artifact blob on disk with atomic writes and verification on
read, and ``journal=`` (a :class:`~repro.core.wal.ControlPlaneJournal`)
write-ahead-logs every publish, so :meth:`ModelRegistry.recover`
rebuilds the full version history — byte-identical blobs included —
after a crash or restart.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.store import BlobStore
from repro.core.wal import ControlPlaneJournal
from repro.exceptions import ConfigurationError, IntegrityError, ResourceNotFoundError
from repro.nn.model import Sequential
from repro.nn.serialization import (
    array_digest,
    deserialize_model,
    model_arrays,
    model_fingerprint,
    serialize_model,
)

#: Ways to name a version: "name@3", ("name", 3), or a ModelVersion.
VersionRef = Union[str, Tuple[str, int], "ModelVersion"]


@dataclass(frozen=True)
class ModelVersion:
    """Immutable record of one published model version."""

    name: str
    version: int
    fingerprint: str
    size_bytes: int
    task: str
    input_shape: Tuple[int, ...]
    scenario: str = "generic"
    optimizations: Tuple[str, ...] = ()
    base: Optional[Tuple[str, int]] = None
    #: per-array content digests: key -> (sha256, nbytes); drives deltas.
    array_digests: Mapping[str, Tuple[str, int]] = field(default_factory=dict)
    extra: Mapping[str, object] = field(default_factory=dict)

    @property
    def ref(self) -> str:
        """The ``name@version`` handle operators use."""
        return f"{self.name}@{self.version}"

    @property
    def array_bytes(self) -> int:
        """Total bytes of parameter/state arrays (the delta-able part)."""
        return sum(nbytes for _, nbytes in self.array_digests.values())

    @property
    def header_bytes(self) -> int:
        """Artifact bytes that transfer regardless of deltas (header + zip)."""
        return max(0, self.size_bytes - self.array_bytes)

    def as_dict(self) -> Dict[str, object]:
        return {
            "ref": self.ref,
            "fingerprint": self.fingerprint[:12],
            "size_bytes": self.size_bytes,
            "task": self.task,
            "input_shape": list(self.input_shape),
            "scenario": self.scenario,
            "optimizations": list(self.optimizations),
            "base": None if self.base is None else f"{self.base[0]}@{self.base[1]}",
            "extra": dict(self.extra),
        }

    def to_record(self) -> Dict[str, object]:
        """Lossless JSON-able form, journaled on publish (cf. :meth:`as_dict`,
        which abbreviates for operator displays)."""
        return {
            "name": self.name,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "size_bytes": self.size_bytes,
            "task": self.task,
            "input_shape": list(self.input_shape),
            "scenario": self.scenario,
            "optimizations": list(self.optimizations),
            "base": None if self.base is None else [self.base[0], self.base[1]],
            "array_digests": {
                key: [sha, nbytes] for key, (sha, nbytes) in self.array_digests.items()
            },
            "extra": dict(self.extra),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "ModelVersion":
        """Rebuild a version from its journaled :meth:`to_record` form."""
        base = record.get("base")
        return cls(
            name=str(record["name"]),
            version=int(record["version"]),  # type: ignore[arg-type]
            fingerprint=str(record["fingerprint"]),
            size_bytes=int(record["size_bytes"]),  # type: ignore[arg-type]
            task=str(record["task"]),
            input_shape=tuple(int(d) for d in record["input_shape"]),  # type: ignore[union-attr]
            scenario=str(record.get("scenario", "generic")),
            optimizations=tuple(str(o) for o in record.get("optimizations", ())),  # type: ignore[union-attr]
            base=None if base is None else (str(base[0]), int(base[1])),  # type: ignore[index]
            array_digests={
                key: (str(sha), int(nbytes))
                for key, (sha, nbytes) in dict(record.get("array_digests", {})).items()
            },
            extra=dict(record.get("extra", {})),  # type: ignore[arg-type]
        )


@dataclass
class RegistryStats:
    """Counters surfaced through :meth:`ModelRegistry.describe`."""

    publishes: int = 0
    dedup_hits: int = 0
    pulls: int = 0
    bytes_pulled: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "publishes": self.publishes,
            "dedup_hits": self.dedup_hits,
            "pulls": self.pulls,
            "bytes_pulled": self.bytes_pulled,
        }


class ModelRegistry:
    """Thread-safe, versioned store of full-model artifacts.

    ``store`` moves artifact bytes onto disk (content-addressed, atomic,
    verified on every read); ``journal`` write-ahead-logs publish events
    so :meth:`recover` can rebuild the version index after a restart.
    Without them the registry is purely in-memory, as before.
    """

    def __init__(
        self,
        store: Optional[BlobStore] = None,
        journal: Optional[ControlPlaneJournal] = None,
    ) -> None:
        if journal is not None and store is None:
            raise ConfigurationError(
                "a journaled registry needs a blob store too: publish events "
                "reference store content addresses, and recovery without the "
                "blobs would rebuild versions nobody can pull"
            )
        self.store = store
        self.journal = journal
        self._lock = threading.RLock()
        # memory mode: fingerprint -> artifact bytes
        self._blobs: Dict[str, bytes] = {}  # guarded-by: _lock
        # store mode: fingerprint -> content address in the blob store
        self._blob_keys: Dict[str, str] = {}  # guarded-by: _lock
        self._versions: Dict[str, List[ModelVersion]] = {}  # guarded-by: _lock
        self.stats = RegistryStats()  # guarded-by: _lock

    @classmethod
    def recover(
        cls, store: BlobStore, journal: ControlPlaneJournal
    ) -> "ModelRegistry":
        """Rebuild a registry from its blob store and write-ahead log.

        Replays every journaled publish in order, verifying that each
        version's blob actually exists in the store (the blob is written
        *before* the publish event, so an acknowledged publish can never
        reference a missing artifact — if one does, the store was
        damaged and recovery refuses to continue rather than serve a
        registry whose versions cannot be pulled).
        """
        registry = cls(store=store, journal=journal)
        events = journal.replay()
        # the registry is not yet shared, but the guarded-state contract
        # holds anyway: every _versions/_blob_keys/stats mutation happens
        # under the lock
        with registry._lock:
            for event in events:
                if event.get("type") != ControlPlaneJournal.REGISTRY_PUBLISH:
                    continue
                entry = ModelVersion.from_record(event)
                blob_key = str(event["blob_sha256"])
                if blob_key not in store:
                    raise IntegrityError(
                        f"journaled publish of {entry.ref} references blob "
                        f"{blob_key[:12]}… which is not in the store at {store.root}"
                    )
                history = registry._versions.setdefault(entry.name, [])
                if entry.version != len(history) + 1:
                    raise IntegrityError(
                        f"journal replays {entry.ref} but {entry.name} has "
                        f"{len(history)} recovered versions — the log is missing "
                        "a publish or was reordered"
                    )
                history.append(entry)
                registry._blob_keys[entry.fingerprint] = blob_key
                registry.stats.publishes += 1
        return registry

    # -- publishing --------------------------------------------------------------
    def publish(
        self,
        name: str,
        model: Sequential,
        task: str,
        input_shape: Tuple[int, ...],
        scenario: str = "generic",
        optimizations: Tuple[str, ...] = (),
        base: Optional[VersionRef] = None,
        validate: bool = True,
        **extra: object,
    ) -> ModelVersion:
        """Publish a model as the next version of ``name``.

        Re-publishing the latest version's exact content *and* metadata
        is idempotent: the existing version is returned, no new version
        number is burned.  Same content with different metadata (e.g. a
        corrected eval accuracy) becomes a new version sharing the same
        stored blob.  ``base`` records lineage (e.g. the uncompressed
        model a quantized variant came from) and must already exist.

        ``validate=True`` (default) runs the static shape/dtype checker
        (:mod:`repro.analysis.shapes`) against ``input_shape`` before
        anything is stored, raising
        :class:`~repro.exceptions.AnalysisError` so a shape-broken
        architecture never becomes a pullable artifact.  Pass
        ``validate=False`` to archive intentionally exotic models.
        """
        if not name:
            raise ConfigurationError("registry entries need a non-empty name")
        if "@" in name:
            raise ConfigurationError(
                f"registry names cannot contain '@' (reserved for name@version "
                f"refs): {name!r}"
            )
        if validate:
            # imported lazily: the registry must stay importable even if
            # the analysis package is stripped from a deployment image
            from repro.analysis.shapes import validate_model

            validate_model(model, input_shape, context="publish")
        blob = serialize_model(model)
        digests = {
            key: (array_digest(value), int(value.nbytes))
            for key, value in model_arrays(model).items()
        }
        # reuse the per-array digests so publish hashes each array once
        fingerprint = model_fingerprint(
            model, array_digests={key: sha for key, (sha, _) in digests.items()}
        )
        # write-ahead order: the blob becomes durable BEFORE the publish
        # event is journaled, so a crash between the two leaves at worst
        # an orphaned (content-addressed, idempotently rewritable) blob —
        # never a journaled version whose bytes are missing.  Done outside
        # the lock: concurrent same-content puts race benignly.
        blob_key: Optional[str] = None
        if self.store is not None:
            blob_key = self.store.put(blob)
        with self._lock:
            base_key: Optional[Tuple[str, int]] = None
            if base is not None:
                resolved = self.resolve(base)
                base_key = (resolved.name, resolved.version)
            history = self._versions.setdefault(name, [])
            entry = ModelVersion(
                name=name,
                version=len(history) + 1,
                fingerprint=fingerprint,
                size_bytes=len(blob),
                task=task,
                input_shape=tuple(int(d) for d in input_shape),
                scenario=scenario,
                optimizations=tuple(optimizations),
                base=base_key,
                array_digests=digests,
                extra=dict(extra),
            )
            if history and self._same_release(history[-1], entry):
                self.stats.dedup_hits += 1
                return history[-1]
            if fingerprint in self._blobs or fingerprint in self._blob_keys:
                self.stats.dedup_hits += 1
            if blob_key is not None:
                self._blob_keys[fingerprint] = blob_key
            elif fingerprint not in self._blobs:
                self._blobs[fingerprint] = blob
            if self.journal is not None:
                self.journal.append(
                    ControlPlaneJournal.REGISTRY_PUBLISH,
                    blob_sha256=blob_key,
                    **entry.to_record(),
                )
            history.append(entry)
            self.stats.publishes += 1
            return entry

    @staticmethod
    def _same_release(latest: ModelVersion, candidate: ModelVersion) -> bool:
        """Identical content *and* metadata — only then is publish a no-op."""
        return (
            latest.fingerprint == candidate.fingerprint
            and latest.task == candidate.task
            and latest.input_shape == candidate.input_shape
            and latest.scenario == candidate.scenario
            and latest.optimizations == candidate.optimizations
            and latest.base == candidate.base
            and dict(latest.extra) == dict(candidate.extra)
        )

    # -- lookup ------------------------------------------------------------------
    @staticmethod
    def _resolve_ref(ref: VersionRef) -> Tuple[str, Optional[int]]:
        if isinstance(ref, ModelVersion):
            return ref.name, ref.version
        if isinstance(ref, tuple):
            name, version = ref
            return str(name), int(version)
        ref = str(ref)
        if "@" in ref:
            name, _, version = ref.rpartition("@")
            if name and version.isdigit():
                return name, int(version)
        return ref, None

    def get(self, name: str, version: Optional[int] = None) -> ModelVersion:
        """One version's record (the latest when ``version`` is omitted)."""
        with self._lock:
            history = self._versions.get(name)
            if not history:
                raise ResourceNotFoundError(
                    f"model {name!r} is not in the registry; available: {self.names}"
                )
            if version is None:
                return history[-1]
            if not 1 <= version <= len(history):
                raise ResourceNotFoundError(
                    f"model {name!r} has versions 1..{len(history)}, not {version}"
                )
            return history[version - 1]

    def resolve(self, ref: VersionRef) -> ModelVersion:
        """Look up a version by any :data:`VersionRef` form."""
        return self.get(*self._resolve_ref(ref))

    @property
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._versions)

    def versions(self, name: str) -> List[ModelVersion]:
        """All versions of a name, oldest first."""
        with self._lock:
            self.get(name)  # raise uniformly on unknown names
            return list(self._versions[name])

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._versions

    def __len__(self) -> int:
        with self._lock:
            return len(self._versions)

    # -- pulling -----------------------------------------------------------------
    def pull_bytes(self, name: str, version: Optional[int] = None) -> bytes:
        """The stored artifact bytes — identical for every concurrent puller.

        With a blob store attached the bytes come off disk and are
        re-verified against their content address on every pull, so a
        corrupted object can never reach a replica.
        """
        blob_key: Optional[str] = None
        with self._lock:
            entry = self.get(name, version)
            if self.store is not None:
                blob_key = self._blob_keys[entry.fingerprint]
            else:
                blob = self._blobs[entry.fingerprint]
        if blob_key is not None:
            # disk read + verification outside the lock: rollout replicas
            # pull concurrently and must not serialize on file I/O
            blob = self.store.get(blob_key)
        with self._lock:
            self.stats.pulls += 1
            self.stats.bytes_pulled += len(blob)
        return blob

    def pull(self, name: str, version: Optional[int] = None) -> Sequential:
        """Deserialize a private copy of one version (replicas never share)."""
        return deserialize_model(self.pull_bytes(name, version))

    # -- delta costing -----------------------------------------------------------
    def delta_bytes(
        self,
        name: str,
        version: Optional[int] = None,
        have: Optional[VersionRef] = None,
    ) -> int:
        """Bytes an edge must transfer to reach ``name@version``.

        ``have`` names what the edge already holds (any version of any
        registry name).  Arrays whose content digest is unchanged need
        not travel; the artifact header always does.  ``have=None`` (or
        an unrelated artifact) prices the full download; holding the
        target already prices zero.
        """
        with self._lock:
            target = self.get(name, version)
            if have is None:
                return target.size_bytes
            held = self.resolve(have)
            if held.fingerprint == target.fingerprint:
                return 0
            changed = sum(
                nbytes
                for key, (digest, nbytes) in target.array_digests.items()
                if held.array_digests.get(key, (None, 0))[0] != digest
            )
            return target.header_bytes + changed

    # -- reporting ---------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Registry summary for operator tooling and ``/ei_status``."""
        with self._lock:
            if self.store is not None:
                blobs = len(self._blob_keys)
                bytes_stored = self._stored_bytes()
            else:
                blobs = len(self._blobs)
                bytes_stored = sum(len(blob) for blob in self._blobs.values())
            return {
                "models": {
                    name: [entry.as_dict() for entry in history]
                    for name, history in sorted(self._versions.items())
                },
                "blobs": blobs,
                "bytes_stored": bytes_stored,
                "durable": self.store is not None,
                **self.stats.as_dict(),
            }

    def _stored_bytes(self) -> int:  # requires-lock: _lock
        """Unique stored bytes (store mode): one count per distinct blob."""
        seen: Dict[str, int] = {}
        for history in self._versions.values():
            for entry in history:
                seen[entry.fingerprint] = entry.size_bytes
        return sum(seen.values())
