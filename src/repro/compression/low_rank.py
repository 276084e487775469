"""Low-rank factorization (Denton et al. / Sainath et al., Table I row 2).

Dense weight matrices are approximated by a rank-r truncated SVD.  The
model keeps its architecture (the reconstructed full matrix is written
back, so the NumPy forward pass is unchanged) while the metadata records
the factorized storage cost ``r * (m + n)`` instead of ``m * n``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers.dense import Dense
from repro.nn.model import Sequential


def truncated_svd(matrix: np.ndarray, rank: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return factors ``(A, B)`` with ``A @ B`` the best rank-``rank`` approximation."""
    if rank < 1:
        raise ConfigurationError("rank must be at least 1")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = min(rank, s.size)
    a = u[:, :rank] * s[:rank]
    b = vt[:rank, :]
    return a, b


def low_rank_compress_model(
    model: Sequential,
    rank_fraction: float = 0.25,
    in_place: bool = False,
) -> Sequential:
    """Apply truncated SVD to every Dense layer's weight matrix.

    ``rank_fraction`` scales the full rank of each matrix; the effective
    parameter count after factorization is recorded via
    ``metadata["bytes_per_param"]`` so the profiler charges the reduced size.
    """
    if not 0.0 < rank_fraction <= 1.0:
        raise ConfigurationError("rank_fraction must lie in (0, 1]")
    compressed = model if in_place else model.clone_architecture()
    original_params = 0
    factored_params = 0
    for layer in compressed.layers:
        if not isinstance(layer, Dense):
            for value in layer.params.values():
                original_params += value.size
                factored_params += value.size
            continue
        weights = layer.params["W"]
        rows, cols = weights.shape
        rank = max(1, int(round(min(rows, cols) * rank_fraction)))
        a, b = truncated_svd(weights, rank)
        layer.params["W"][...] = a @ b
        original_params += weights.size
        factored_params += rank * (rows + cols)
        if "b" in layer.params:
            original_params += layer.params["b"].size
            factored_params += layer.params["b"].size
    base_bytes = float(model.metadata.get("bytes_per_param", 4.0))
    ratio = factored_params / max(1, original_params)
    compressed.metadata["bytes_per_param"] = base_bytes * ratio
    compressed.metadata["low_rank_fraction"] = rank_fraction
    compressed.metadata["compression"] = list(compressed.metadata.get("compression", [])) + ["low_rank"]
    return compressed
