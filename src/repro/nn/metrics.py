"""Evaluation metrics.

The paper's ALEM tuple defines Accuracy per task: classification accuracy
for recognition tasks, mean average precision (mAP) for object detection
and BLEU for translation.  All three are provided so the application
scenarios can report the metric the paper names for them.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import ShapeError


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of correct class predictions.

    ``predictions`` may be class indices or class-probability rows;
    ``targets`` may be indices or one-hot rows.
    """
    preds = predictions.argmax(axis=-1) if predictions.ndim > 1 else predictions
    labels = targets.argmax(axis=-1) if targets.ndim > 1 else targets
    if preds.shape != labels.shape:
        raise ShapeError(f"accuracy shapes differ: {preds.shape} vs {labels.shape}")
    if preds.size == 0:
        return 0.0
    return float(np.mean(preds == labels))


def top_k_accuracy(probabilities: np.ndarray, targets: np.ndarray, k: int = 5) -> float:
    """Fraction of samples whose true class is within the top-k predictions."""
    if probabilities.ndim != 2:
        raise ShapeError("top_k_accuracy expects (batch, classes) probabilities")
    labels = targets.argmax(axis=-1) if targets.ndim > 1 else targets
    top_k = np.argsort(-probabilities, axis=1)[:, :k]
    hits = (top_k == labels[:, None]).any(axis=1)
    return float(np.mean(hits)) if hits.size else 0.0


def iou(box_a: Sequence[float], box_b: Sequence[float]) -> float:
    """Intersection-over-union of two ``(x1, y1, x2, y2)`` boxes."""
    ax1, ay1, ax2, ay2 = box_a
    bx1, by1, bx2, by2 = box_b
    inter_x1, inter_y1 = max(ax1, bx1), max(ay1, by1)
    inter_x2, inter_y2 = min(ax2, bx2), min(ay2, by2)
    inter = max(0.0, inter_x2 - inter_x1) * max(0.0, inter_y2 - inter_y1)
    area_a = max(0.0, ax2 - ax1) * max(0.0, ay2 - ay1)
    area_b = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def mean_average_precision(
    detections: Sequence[Sequence[Tuple[Sequence[float], float]]],
    ground_truths: Sequence[Sequence[Sequence[float]]],
    iou_threshold: float = 0.5,
) -> float:
    """Single-class mAP over a set of images.

    ``detections[i]`` is a list of ``(box, score)`` for image *i*;
    ``ground_truths[i]`` a list of boxes.  Average precision is computed
    with the all-point interpolation used by modern detection benchmarks.
    """
    records: List[Tuple[float, bool]] = []
    total_truths = 0
    for dets, truths in zip(detections, ground_truths):
        total_truths += len(truths)
        matched = [False] * len(truths)
        for box, score in sorted(dets, key=lambda item: -item[1]):
            best_iou, best_idx = 0.0, -1
            for idx, truth in enumerate(truths):
                overlap = iou(box, truth)
                if overlap > best_iou:
                    best_iou, best_idx = overlap, idx
            is_tp = best_iou >= iou_threshold and best_idx >= 0 and not matched[best_idx]
            if is_tp:
                matched[best_idx] = True
            records.append((score, is_tp))
    if total_truths == 0 or not records:
        return 0.0
    records.sort(key=lambda item: -item[0])
    tp_cum = np.cumsum([1 if r[1] else 0 for r in records])
    fp_cum = np.cumsum([0 if r[1] else 1 for r in records])
    recalls = tp_cum / total_truths
    precisions = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    # all-point interpolation
    average_precision = 0.0
    previous_recall = 0.0
    for recall, precision in zip(recalls, np.maximum.accumulate(precisions[::-1])[::-1]):
        average_precision += (recall - previous_recall) * precision
        previous_recall = recall
    return float(average_precision)


def bleu_score(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Corpus-free sentence BLEU-4: uniform 1- to 4-gram weights and a brevity penalty."""
    if not candidate or not reference:
        return 0.0
    precisions = []
    for n in range(1, 5):
        cand_ngrams = Counter(tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1))
        ref_ngrams = Counter(tuple(reference[i : i + n]) for i in range(len(reference) - n + 1))
        overlap = sum(min(count, ref_ngrams[gram]) for gram, count in cand_ngrams.items())
        total = max(1, sum(cand_ngrams.values()))
        precisions.append(overlap / total)
    if min(precisions) == 0:
        return 0.0
    geo_mean = float(np.exp(np.mean(np.log(precisions))))
    brevity = min(1.0, float(np.exp(1.0 - len(reference) / max(1, len(candidate)))))
    return brevity * geo_mean
