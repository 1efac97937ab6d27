"""Extrema detection and refinement against a brute-force voxel oracle."""

import json
from pathlib import Path

import numpy as np
import pytest

from graphsift import sift
from graphsift.corpus import render_texture, subject_texture
from graphsift.imageio import GrayImage
from graphsift.sift import (
    Candidate,
    LocalizedPoint,
    RejectReason,
    Rejection,
    _strong_voxels,
    build_scale_space,
    detect_keypoints,
    localize_keypoint,
)


def dog_stacks(ss):
    """Every octave's DoG stack, layer k being Gaussian layer k + 1
    minus layer k."""
    return [[g[k + 1] - g[k] for k in range(len(g) - 1)] for g in ss.octaves]


def extrema_oracle(ss):
    """Exhaustive 26-neighborhood scan over every DoG voxel."""
    prefilter = 0.5 * sift._CONTRAST_THRESHOLD
    found = set()
    for o, stack in enumerate(dog_stacks(ss)):
        h, w = stack[0].shape
        for layer in range(1, len(stack) - 1):
            for y in range(1, h - 1):
                for x in range(1, w - 1):
                    v = stack[layer][y, x]
                    if abs(v) <= prefilter:
                        continue
                    greater = smaller = True
                    for dl in (-1, 0, 1):
                        for dy in (-1, 0, 1):
                            for dx in (-1, 0, 1):
                                if dl == 0 and dy == 0 and dx == 0:
                                    continue
                                n = stack[layer + dl][y + dy, x + dx]
                                if v <= n:
                                    greater = False
                                if v >= n:
                                    smaller = False
                    if greater or smaller:
                        found.add((o, layer, x, y))
    return found


def blob_image(size, blobs, background=20.0):
    """Isotropic blobs at given (cx, cy, sigma, amplitude)."""
    gy, gx = np.mgrid[0:size, 0:size].astype(float)
    field = np.full((size, size), background)
    for cx, cy, sigma, amp in blobs:
        field += amp * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2 * sigma**2))
    return GrayImage(np.clip(np.rint(field), 0, 255).astype(np.uint8))


def accepted_points(img):
    """Input-image (x, y) of every candidate that localizes."""
    ss = build_scale_space(img)
    out = []
    for cand in detect_keypoints(ss):
        loc = localize_keypoint(ss, cand)
        if isinstance(loc, LocalizedPoint):
            px = ss.pixel_scale(loc.octave)
            out.append((loc.x_oct * px, loc.y_oct * px))
    return out


def test_constant_image_no_candidates():
    img = GrayImage(np.full((32, 32), 80, dtype=np.uint8))
    assert detect_keypoints(build_scale_space(img)) == []


def test_detection_matches_voxel_oracle():
    images = [
        render_texture(subject_texture(seed, subject, 64), 64)
        for seed, subject in ((5, 0), (6, 1), (11, 3))
    ]
    # a faint blob leaves some scanned layers with no voxel above the
    # prefilter, so the scan also meets empty candidate sets
    images.append(blob_image(64, [(32.0, 32.0, 3.0, 50.0)], background=100.0))
    prefilter = 0.5 * sift._CONTRAST_THRESHOLD
    empty_layers = 0
    for i, img in enumerate(images):
        ss = build_scale_space(img)
        got = {(c.octave, c.layer, c.x, c.y) for c in detect_keypoints(ss)}
        assert got == extrema_oracle(ss), i
        empty_layers += sum(
            not (np.abs(stack[layer][1:-1, 1:-1]) > prefilter).any()
            for stack in dog_stacks(ss)
            for layer in range(1, len(stack) - 1)
        )
    assert empty_layers > 0


@pytest.mark.parametrize("shape", [(3, 3), (3, 7), (8, 5), (64, 64), (65, 33)])
def test_strong_voxels_match_interior_nonzero(shape):
    # strong values on the rim too: the selection must drop them, and
    # give the interior's indices in the same row-major order as
    # nonzero on the interior slice, shifted by the 1-px rim
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    prefilter = 0.5 * sift._CONTRAST_THRESHOLD
    for _ in range(20):
        dog = (rng.standard_normal(shape) * 2 * prefilter).astype(np.float32)
        rim = np.ones(shape, dtype=bool)
        rim[1:-1, 1:-1] = False
        dog[rim] = np.where(rng.random(rim.sum()) < 0.5, 1.0, -1.0)
        w = shape[1]
        ys, xs = np.nonzero(np.abs(dog[1:-1, 1:-1]) > prefilter)
        want = (ys + 1) * w + xs + 1
        got = _strong_voxels(dog)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_single_blob_localizes_at_center():
    img = blob_image(64, [(32.0, 32.0, 3.0, 200.0)])
    points = accepted_points(img)
    assert points, "blob produced no accepted keypoints"
    for x, y in points:
        assert np.hypot(x - 32.0, y - 32.0) < 1.5


def test_two_blobs_two_clusters():
    img = blob_image(64, [(20.0, 20.0, 2.5, 200.0), (44.0, 44.0, 2.5, 200.0)])
    points = accepted_points(img)
    near_a = [(x, y) for x, y in points if np.hypot(x - 20, y - 20) < 1.5]
    near_b = [(x, y) for x, y in points if np.hypot(x - 44, y - 44) < 1.5]
    assert near_a and near_b
    assert len(near_a) + len(near_b) == len(points)


def test_step_edge_rejected_as_edge_response():
    # A perfectly straight step has tied DoG values along the edge, so no
    # voxel is a strict extremum.  A gently wavy edge breaks the ties and
    # produces elongated responses whose principal curvatures differ
    # strongly, which is exactly what the edge filter must reject.
    pixels = np.zeros((64, 64), dtype=float)
    y = np.arange(64)
    pixels[:, 32:] = (175.0 + 25.0 * np.sin(2 * np.pi * y / 16.0))[:, None]
    img = GrayImage(np.clip(np.rint(pixels), 0, 255).astype(np.uint8))
    ss = build_scale_space(img)
    candidates = detect_keypoints(ss)
    assert candidates, "wavy step edge should produce grid extrema"
    reasons = {
        loc.reason
        for loc in (localize_keypoint(ss, c) for c in candidates)
        if isinstance(loc, Rejection)
    }
    assert RejectReason.EDGE_RESPONSE in reasons


def test_low_contrast_rejected():
    # faint blob: strong enough to pass the relaxed grid prefilter but
    # below the full contrast threshold after refinement
    img = blob_image(64, [(32.0, 32.0, 3.0, 50.0)], background=100.0)
    ss = build_scale_space(img)
    candidates = detect_keypoints(ss)
    assert candidates, "faint blob should still be a grid extremum"
    results = [localize_keypoint(ss, c) for c in candidates]
    assert all(isinstance(r, Rejection) for r in results)
    assert any(r.reason is RejectReason.LOW_CONTRAST for r in results)


def test_refined_offset_within_half_pixel():
    img = blob_image(64, [(32.3, 31.6, 3.0, 200.0)])
    ss = build_scale_space(img)
    for cand in detect_keypoints(ss):
        loc = localize_keypoint(ss, cand)
        if isinstance(loc, LocalizedPoint) and loc.octave == cand.octave:
            # the refined octave-grid position stays within the final
            # voxel's half-pixel neighborhood
            assert abs(loc.x_oct - round(loc.x_oct)) <= 0.5 + 1e-9
            assert abs(loc.y_oct - round(loc.y_oct)) <= 0.5 + 1e-9


def test_candidates_are_sorted_and_unique():
    img = render_texture(subject_texture(6, 1, 64), 64)
    cands = detect_keypoints(build_scale_space(img))
    as_tuples = [tuple(c) for c in cands]
    assert as_tuples == sorted(as_tuples)
    assert len(set(as_tuples)) == len(as_tuples)


def test_localize_out_of_bounds_candidate():
    img = blob_image(64, [(32.0, 32.0, 3.0, 200.0)])
    ss = build_scale_space(img)
    # a flat-region candidate drifts or fails to converge; either way it
    # must come back as a Rejection, never an exception
    fake = Candidate(octave=0, layer=1, x=5, y=5)
    result = localize_keypoint(ss, fake)
    assert isinstance(result, (Rejection, LocalizedPoint))


def test_reject_reasons_match_benchmark_counts():
    # the benchmark's tracer names a rejection's count after
    # reason.value, but its list of reported counts is fixed: a renamed
    # reason would read 0 there without failing the benchmark's tests
    bench = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    prefix = "sift.localize.reject."
    declared = {
        m["name"] for m in json.loads(bench.read_text())["per_layer"]
        if m["name"].startswith(prefix)
    }
    assert declared == {prefix + r.value for r in RejectReason}
