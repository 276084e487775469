"""``BlobDetector.detect_batch`` against the pixel flood fill it replaced.

The detector labels 4-connected bright regions from row *runs* over a
whole stack of frames.  The per-pixel flood fill that used to be
``BlobDetector.detect`` lives on here, verbatim, as the oracle: boxes and
their raster order must be equal, scores agree to 1e-12 (a run-sum adds
the same pixels in another order).
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.public_safety import BlobDetector, Detection
from repro.data.sensors import CameraSensor


def flood_fill_detect(frame: np.ndarray, threshold: float, min_area: int) -> List[Detection]:
    """The oracle: thresholding plus a 4-connected flood fill, pixel by pixel."""
    if frame.ndim == 3:
        frame = frame[:, :, 0]
    mask = frame > threshold
    visited = np.zeros_like(mask, dtype=bool)
    detections: List[Detection] = []
    height, width = mask.shape
    for y in range(height):
        for x in range(width):
            if not mask[y, x] or visited[y, x]:
                continue
            stack = [(y, x)]
            visited[y, x] = True
            pixels = []
            while stack:
                cy, cx = stack.pop()
                pixels.append((cy, cx))
                for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                    if 0 <= ny < height and 0 <= nx < width and mask[ny, nx] and not visited[ny, nx]:
                        visited[ny, nx] = True
                        stack.append((ny, nx))
            if len(pixels) < min_area:
                continue
            ys = [p[0] for p in pixels]
            xs = [p[1] for p in pixels]
            score = float(np.clip(frame[ys, xs].mean(), 0.0, 1.0))
            detections.append(
                Detection(box=(float(min(xs)), float(min(ys)), float(max(xs) + 1), float(max(ys) + 1)),
                          score=score)
            )
    return detections


def assert_matches_oracle(detector: BlobDetector, frames: np.ndarray) -> List[List[Detection]]:
    got = detector.detect_batch(frames)
    assert len(got) == len(frames)
    for frame, found in zip(frames, got):
        expected = flood_fill_detect(frame, detector.threshold, detector.min_area)
        assert [d.box for d in found] == [d.box for d in expected]      # equal boxes, equal order
        assert [d.score for d in found] == pytest.approx([d.score for d in expected], abs=1e-12)
        for detection in found:
            assert type(detection.score) is float
            assert [type(v) for v in detection.box] == [float] * 4
        # one frame alone — as (h, w) or (h, w, 1) — is the batch of one
        assert detector.detect(frame) == detector.detect_batch(frame[None])[0]
    return got


def paint(masks: np.ndarray, seed: int) -> np.ndarray:
    """Frames whose bright pixels are exactly ``masks``: dim noise below the
    threshold, blob pixels from just above it to past the score's clip at 1."""
    rng = np.random.default_rng(seed)
    return np.where(masks, rng.uniform(0.46, 1.6, masks.shape), rng.uniform(-0.2, 0.45, masks.shape))


@st.composite
def bright_masks(draw):
    """A stack of masks: rectangles (free to overlap, abut and hang off an
    edge) over salt noise, which supplies the diagonal contacts and ragged shapes."""
    count = draw(st.sampled_from([1, 1, 2, 3, 32]))
    height = draw(st.integers(1, 10))
    width = draw(st.integers(1, 10))
    salt = draw(arrays(np.bool_, (count, height, width), elements=st.booleans(), fill=st.just(False)))
    masks = salt.copy()
    for index in range(count if count < 32 else 4):
        for _ in range(draw(st.integers(0, 3))):
            x, y = draw(st.integers(-2, width - 1)), draw(st.integers(-2, height - 1))
            w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
            masks[index, max(0, y) : max(0, y + h), max(0, x) : max(0, x + w)] = True
    return masks


@given(bright_masks(), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 6]),
       st.sampled_from([0.45, 0.45, -0.1]), st.booleans())
@settings(max_examples=120, deadline=None)
def test_detect_batch_equals_the_pixel_flood_fill(masks, seed, min_area, threshold, channel_axis):
    """``threshold`` below zero makes most of the dim noise bright as well (and
    would make a zero-padded column bright, were the padding ever looked at)."""
    frames = paint(masks, seed)
    if channel_axis:
        frames = frames[..., None]
    assert_matches_oracle(BlobDetector(threshold=threshold, min_area=min_area), frames)


def _mask(*rows: str) -> np.ndarray:
    return np.array([[cell == "#" for cell in row] for row in rows])


#: name → (mask, min_area, components the detector must report)
NAMED_SHAPES = {
    "all dark": (_mask("....", "....", "...."), 1, 0),
    "all bright": (_mask("###", "###"), 1, 1),
    "diagonal contact only does not merge": (_mask("#..", ".#.", "..#"), 1, 3),
    "overlapping rectangles merge": (_mask("###..", "#####", "..###"), 1, 1),
    "rectangles sharing part of an edge merge": (_mask("##.", "##.", ".##", ".##"), 1, 1),
    "rectangles meeting at a corner do not": (_mask("##..", "##..", "..##", "..##"), 1, 2),
    "U whose arms join on the last row": (_mask("#...#", "#...#", "#...#", "#####"), 1, 1),
    "arms that never join stay apart": (_mask("#...#", "#...#", "#...#", "#.#.#"), 1, 3),
    "comb joined on its first row": (_mask("#######", "#.#.#.#", "#.#.#.#"), 1, 1),
    "spiral": (_mask("#####", "....#", "###.#", "#...#", "#####"), 1, 1),
    "one pixel short of min_area": (_mask("###..", "##...", "....."), 6, 0),
    "exactly min_area": (_mask("###..", "###..", "....."), 6, 1),
    "touching all four borders": (_mask("#.#", "...", "#.#"), 1, 4),
    "a run ending in the last column above one starting in the first": (_mask("..##", "##.."), 1, 2),
}


@pytest.mark.parametrize("name", list(NAMED_SHAPES), ids=lambda name: name.replace(" ", "_"))
def test_named_shapes(name):
    mask, min_area, components = NAMED_SHAPES[name]
    frames = paint(mask[None], seed=7)
    (found,) = assert_matches_oracle(BlobDetector(min_area=min_area), frames)
    assert len(found) == components


def test_frames_of_a_stack_never_join_across_the_frame_boundary():
    """The last row of frame k and the first row of frame k+1 are adjacent
    rows of the flattened stack, not of any picture."""
    column = _mask("#", "#")
    (first, second) = assert_matches_oracle(
        BlobDetector(min_area=1), paint(np.stack([column, column]), seed=1)
    )
    assert [d.box for d in first] == [d.box for d in second] == [(0.0, 0.0, 1.0, 2.0)]


def test_camera_feed_matches_the_oracle_over_32_frames():
    frames = np.stack([reading.payload for reading in CameraSensor(seed=3).stream(32)])
    found = assert_matches_oracle(BlobDetector(), frames)
    assert sum(len(per_frame) for per_frame in found) > 10
