"""OpenEI core: the paper's primary contribution.

* :mod:`repro.core.alem` — the four-element EI capability tuple
  ⟨Accuracy, Latency, Energy, Memory footprint⟩ and constraint objects.
* :mod:`repro.core.capability` — evaluating the ALEM tuple of a
  (model, package, device) combination.
* :mod:`repro.core.model_zoo` — the optimized-model registry the model
  selector draws from.
* :mod:`repro.core.registry` — the versioned, content-addressed model
  registry behind the cloud→edge→cloud model lifecycle.
* :mod:`repro.core.store` — the on-disk content-addressed blob store
  (atomic writes, verification on read) backing a durable registry.
* :mod:`repro.core.wal` — the append-only, checksummed write-ahead
  event log the control plane journals through and recovers from.
* :mod:`repro.core.model_selector` — the Selecting Algorithm of Eq. (1)
  plus a reinforcement-learning selector.
* :mod:`repro.core.package_manager` — the lightweight package manager
  with inference, local training and the real-time ML module.
* :mod:`repro.core.openei` — the OpenEI facade deployed on an edge device
  (Fig. 4), wiring the three components together with libei.

Names are loaded lazily (PEP 562), so a process that needs only the
durable layer (``repro.core.wal``, ``repro.core.store``) does not pay
for NumPy and :mod:`repro.nn` at import.
"""

import importlib

_EXPORTS = {
    "ALEM": "repro.core.alem",
    "ALEMRequirement": "repro.core.alem",
    "OptimizationTarget": "repro.core.alem",
    "CapabilityEvaluator": "repro.core.capability",
    "EvaluatedCandidate": "repro.core.capability",
    "ModelSelector": "repro.core.model_selector",
    "RLModelSelector": "repro.core.model_selector",
    "SelectionResult": "repro.core.model_selector",
    "ModelZoo": "repro.core.model_zoo",
    "ZooEntry": "repro.core.model_zoo",
    "OpenEI": "repro.core.openei",
    "InferenceOutcome": "repro.core.package_manager",
    "PackageManager": "repro.core.package_manager",
    "ModelRegistry": "repro.core.registry",
    "ModelVersion": "repro.core.registry",
    "RegistryStats": "repro.core.registry",
    "BlobStore": "repro.core.store",
    "content_key": "repro.core.store",
    "ControlPlaneJournal": "repro.core.wal",
    "WriteAheadLog": "repro.core.wal",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
