"""The optimized-model zoo behind OpenEI's model selector.

Fig. 4 shows the model selector holding a set of *optimized models*; this
registry stores them together with the metadata the Selecting Algorithm
needs — the task they solve, the input shape, the evaluation data to
measure Accuracy on, and how they were optimized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.nn.model import Sequential


@dataclass
class ZooEntry:
    """One optimized model registered in the zoo."""

    name: str
    model: Sequential
    task: str
    input_shape: Tuple[int, ...]
    scenario: str = "generic"
    optimizations: Tuple[str, ...] = ()
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def bytes_per_param(self) -> float:
        """Effective storage per parameter after compression metadata is applied."""
        return float(self.model.metadata.get("bytes_per_param", 4.0))


class ModelZoo:
    """Registry of optimized models, keyed by name and filterable by task/scenario."""

    def __init__(self) -> None:
        self._entries: Dict[str, ZooEntry] = {}

    def register(
        self,
        name: str,
        model: Sequential,
        task: str,
        input_shape: Tuple[int, ...],
        scenario: str = "generic",
        optimizations: Iterable[str] = (),
        **extra: object,
    ) -> ZooEntry:
        """Add a model to the zoo (replacing any existing entry of the same name)."""
        if not name:
            raise ConfigurationError("zoo entries need a non-empty name")
        entry = ZooEntry(
            name=name,
            model=model,
            task=task,
            input_shape=tuple(input_shape),
            scenario=scenario,
            optimizations=tuple(optimizations),
            extra=dict(extra),
        )
        self._entries[name] = entry
        return entry

    def pull_from(
        self,
        registry,
        name: str,
        version: Optional[int] = None,
    ) -> ZooEntry:
        """Install one registry version into the zoo (replacing same-name entries).

        ``registry`` is a :class:`~repro.core.registry.ModelRegistry`;
        the artifact carries everything the zoo needs (model, task,
        input shape, scenario, optimizations), so this is the package
        manager's download path from the cloud-side registry.  The zoo
        entry records its provenance under ``extra["registry_version"]``
        / ``extra["fingerprint"]``.
        """
        record = registry.get(name, version)
        model = registry.pull(name, record.version)
        return self.register(
            name,
            model,
            task=record.task,
            input_shape=record.input_shape,
            scenario=record.scenario,
            optimizations=record.optimizations,
            registry_version=record.ref,
            fingerprint=record.fingerprint,
            **dict(record.extra),
        )

    def get(self, name: str) -> ZooEntry:
        """Look up an entry by name."""
        try:
            return self._entries[name]
        except KeyError as exc:
            raise ConfigurationError(
                f"model {name!r} is not in the zoo; available: {sorted(self._entries)}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def names(self) -> List[str]:
        """All registered model names."""
        return sorted(self._entries)

    def entries(
        self, task: Optional[str] = None, scenario: Optional[str] = None
    ) -> List[ZooEntry]:
        """Entries filtered by task and/or scenario."""
        results = []
        for entry in self._entries.values():
            if task is not None and entry.task != task:
                continue
            if scenario is not None and entry.scenario != scenario:
                continue
            results.append(entry)
        return sorted(results, key=lambda e: e.name)
