"""Scale/rotation/translation-invariant keypoint detection and description.

The pipeline is the staged one: build a Gaussian scale space, pick
26-neighborhood extrema of its differences of Gaussians (DoG), refine
them with a quadratic fit (rejecting low-contrast and edge-like
points), assign dominant gradient orientations, and describe each
oriented point with a 4x4 grid of 8-orientation gradient histograms
(128 values). ``compute_descriptor`` returns the raw histogram;
``extract_features`` normalizes every descriptor of an image together
(unit norm, entries clamped at 0.2), so each stage keeps one call per
point while the clamp loop runs once per image.

The detector takes no settings: standard SIFT's values are this
module's constants, and a gallery's header names them by
``store.DETECTOR_DIGEST``. Everything here is deterministic: no
RNG, pure numpy and scipy kernels, so identical input gives
bit-identical output, and no path depends on the host. Every blur is
``_blur``. From ``_SPLIT_MIN_PIXELS`` up, octave 0's layers 0 to 3
blur each pass in two halves, one on a single helper thread, which
then builds octaves 1 and up while the caller blurs layers 4 and 5.
The caller always waits for the helper and raises either side's error,
and which thread blurs a plane or a line cannot change a byte.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ImageTooSmall, NonFiniteKeypoint, NonPositiveScale
from .imageio import GrayImage

# standard SIFT's values (Lowe, IJCV 2004)
_SCALES_PER_OCTAVE = 3
_BASE_SIGMA = 1.6  # blur of the pyramid's base, in its own pixels
_ASSUMED_BLUR = 0.5  # the input's own blur, in input pixels
_CONTRAST_THRESHOLD = 0.03  # least |DoG| on [0, 1] intensities
_PREFILTER = 0.5 * _CONTRAST_THRESHOLD  # least |DoG| of a scanned candidate
_EDGE_RATIO = 10.0  # greatest ratio of a point's principal curvatures
_ORIENTATION_BINS = 36
_PEAK_RATIO = 0.8  # a secondary orientation peak's least share of the top
_DESCRIPTOR_GRID = 4  # cells per side
_DESCRIPTOR_BINS = 8  # orientation bins per cell
_DESCRIPTOR_CLAMP = 0.2  # greatest entry of a unit descriptor
DESCRIPTOR_LEN = _DESCRIPTOR_GRID**2 * _DESCRIPTOR_BINS  # floats the store keeps
MIN_IMAGE_SIDE = 16
_MAX_REFINE_STEPS = 5
_GAUSS_TRUNCATE = 4.0
# an octave 0 at least this large is blurred in two halves and hands the
# upper octaves to the helper (see build_scale_space): the 512x512 octave
# 0 of a 256-px image is, 256x256 planes are not. Split, a 128x128 blur
# was slower, and 256x256 ones saved little while the helper's stack and
# arena raised the process's peak memory.
_SPLIT_MIN_PIXELS = 1 << 17
TWO_PI = 2.0 * math.pi
# a keypoint row: x, y, scale and orientation, then the descriptor
ROW_LEN = 4 + DESCRIPTOR_LEN


@dataclass(frozen=True, eq=False)
class Keypoints:
    """Detected features as one read-only float32 table, one row each.

    ``rows`` is a C-contiguous (n, ROW_LEN) array. Its columns are x
    and y, sub-pixel input-image coordinates (x = column, y = row),
    ``scale``, the absolute detection sigma in input-image units,
    orientation, the dominant gradient direction in [0, 2*pi), and the
    128 ``descriptors`` values; the two named ones are read-only views.
    A row is exactly the per-keypoint record the gallery store writes.
    The constructor takes a private float32 copy of any (n, ROW_LEN)
    array; a value that is NaN or infinite there raises
    NonFiniteKeypoint, and a scale of 0 or less, whose log a graph's
    edges would take, NonPositiveScale.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.float32, order="C")
        if rows.ndim != 2 or rows.shape[1] != ROW_LEN:
            raise ValueError(f"keypoint rows must be (n, {ROW_LEN}), got {rows.shape}")
        if not np.isfinite(rows).all():
            bad = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
            raise NonFiniteKeypoint(f"keypoint row {bad} holds a NaN or infinite value")
        if not (rows[:, 2] > 0).all():
            bad = int(np.flatnonzero(rows[:, 2] <= 0)[0])
            raise NonPositiveScale(f"keypoint row {bad} has scale {rows[bad, 2]} <= 0")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    scale = property(lambda self: self.rows[:, 2])
    descriptors = property(lambda self: self.rows[:, 4:])

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Keypoints):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)


@dataclass
class ScaleSpace:
    """Gaussian stacks, one list entry per octave.

    Octave o, layer s of the Gaussian stack carries absolute blur
    _BASE_SIGMA * 2**(o + s/_SCALES_PER_OCTAVE) relative to the pyramid
    base image, the input doubled; each octave halves the previous one,
    so an octave-o pixel spans 2**o / 2 input pixels. DoG layer k of an
    octave is Gaussian layer k + 1 minus layer k; no stack of them is
    kept, since the stages that read it form only the planes or voxel
    cubes they need, with the same float32 subtraction.
    """

    octaves: list[list[np.ndarray]]

    def pixel_scale(self, octave: int) -> float:
        """Input-image units per pixel of the given octave."""
        return 0.5 * (1 << octave)


class Candidate(NamedTuple):
    """Grid-level extremum: octave, DoG layer and integer column/row."""

    octave: int
    layer: int
    x: int
    y: int


class RejectReason(enum.Enum):
    MAX_ITERATIONS = "max_iterations"
    OUT_OF_BOUNDS = "out_of_bounds"
    LOW_CONTRAST = "low_contrast"
    EDGE_RESPONSE = "edge_response"


@dataclass(frozen=True)
class Rejection:
    reason: RejectReason


@dataclass(frozen=True)
class LocalizedPoint:
    """Sub-pixel refined extremum in its octave's pixel grid.

    ``x_oct``/``y_oct`` are the refined column/row and ``scale_oct`` the
    detection sigma, all in units of octave ``octave``'s pixels; times
    ``ScaleSpace.pixel_scale(octave)`` they give input-image units.
    """

    octave: int
    layer: int  # integer layer whose Gaussian image serves the windows
    x_oct: float
    y_oct: float
    scale_oct: float


def _upsample2x(a: np.ndarray) -> np.ndarray:
    """Bilinear 2x upsampling with out(i, j) = in(i/2, j/2)."""
    h, w = a.shape
    out = np.empty((2 * h, 2 * w), dtype=a.dtype)
    out[::2, ::2] = a
    out[::2, 1:-1:2] = 0.5 * (a[:, :-1] + a[:, 1:])
    out[::2, -1] = a[:, -1]
    even = out[::2]
    out[1:-1:2] = 0.5 * (even[:-1] + even[1:])
    out[-1] = even[-1]
    return out


def _blur(a: np.ndarray, sigma: float, split: bool = True) -> np.ndarray:
    """Blur ``a`` by ``sigma`` as scipy's ``gaussian_filter`` does.

    Like scipy, it filters along axis 0 into one float32 output, then
    along axis 1 in place, so the bytes are gaussian_filter's. With
    ``split``, a plane of at least ``_SPLIT_MIN_PIXELS`` runs each pass
    as two halves of whole lines, columns for axis 0 and rows for axis
    1, one on the helper thread and one here (see ``_beside``);
    scipy.ndimage releases the GIL while it filters. A line's output
    depends only on that line, so which thread computes it cannot change
    a byte. A blur on the helper, or beside work of the helper's, passes
    ``split=False``: a split there would wait for the helper's own queue.
    """
    # imported on first use: it costs more to import than all of graphsift
    from scipy import ndimage

    def along(axis: int, src: np.ndarray, dst: np.ndarray) -> None:
        ndimage.gaussian_filter1d(
            src, sigma, axis, output=dst, mode="mirror", truncate=_GAUSS_TRUNCATE
        )

    out = np.empty(a.shape, dtype=a.dtype)
    for axis, src in ((0, a), (1, out)):
        if not split or a.size < _SPLIT_MIN_PIXELS:
            along(axis, src, out)
            continue
        # each half holds whole lines of this pass
        src_a, src_b = np.array_split(src, 2, axis=1 - axis)
        out_a, out_b = np.array_split(out, 2, axis=1 - axis)
        _beside(lambda: along(axis, src_b, out_b), along, axis, src_a, out_a)
    return out


def _beside(here, task, *args):
    """``task(*args)``, run on the helper thread while ``here()`` runs on
    this one. The task is always waited for, so it never outlives the
    call; either side's exception propagates, this thread's when both raise.
    """
    future = _helper().submit(task, *args)
    try:
        here()
    finally:
        future.exception()  # waits, and raises nothing
    return future.result()


# The helper thread, started by the first large blur so that importing
# graphsift starts none. A forked child gets a fresh lock and no
# helper: its parent's thread does not exist there.
_helper_pool = None
_helper_lock = threading.Lock()


def _helper():
    global _helper_pool
    with _helper_lock:
        if _helper_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _helper_pool = ThreadPoolExecutor(1, thread_name_prefix="graphsift-blur")
        return _helper_pool


def _forget_helper() -> None:
    global _helper_pool, _helper_lock
    _helper_pool, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def build_scale_space(img: GrayImage) -> ScaleSpace:
    """Build the Gaussian pyramid.

    Intensities are mapped to [0, 1] floats and upsampled 2x; the input
    is assumed to carry ``_ASSUMED_BLUR`` of blur already, twice that
    once doubled, so the base image is blurred only by the difference
    needed to reach ``_BASE_SIGMA``.

    An octave 0 of at least ``_SPLIT_MIN_PIXELS`` blurs layers 0 to 3 in
    halves, then the helper builds octaves 1 and up while this thread
    blurs layers 4 and 5; a smaller one builds every octave here. Each
    blur's input and sigma, and so its bytes, are the same either way.
    """
    if min(img.width, img.height) < MIN_IMAGE_SIDE:
        raise ImageTooSmall(
            f"{img.width}x{img.height} below minimum "
            f"{MIN_IMAGE_SIDE}x{MIN_IMAGE_SIDE}"
        )
    base = _upsample2x(img.pixels.astype(np.float32) / np.float32(255.0))
    base = _blur(base, math.sqrt(_BASE_SIGMA**2 - (2.0 * _ASSUMED_BLUR) ** 2))

    s = _SCALES_PER_OCTAVE
    k = 2.0 ** (1.0 / s)
    layer_sigmas = _BASE_SIGMA * k ** np.arange(s + 3)
    # incremental blur from layer i-1 to layer i
    increments = np.sqrt(layer_sigmas[1:] ** 2 - layer_sigmas[:-1] ** 2)

    # the size check above leaves min(base.shape) >= 32: at least 3 octaves
    depth = int(math.floor(math.log2(min(base.shape) / 8.0))) + 1

    if base.size < _SPLIT_MIN_PIXELS:
        return ScaleSpace(octaves=_octaves(base, increments, depth))
    octave0 = _grow([base], increments[:s])
    upper = _beside(
        lambda: _grow(octave0, increments[s:], split=False),
        _octaves, octave0[s][::2, ::2], increments, depth - 1,
    )
    return ScaleSpace(octaves=[octave0, *upper])


def _grow(stack: list[np.ndarray], increments, split: bool = True) -> list[np.ndarray]:
    """``stack`` with the blur of its last layer by each increment appended."""
    for inc in increments:
        stack.append(_blur(stack[-1], float(inc), split))
    return stack


def _octaves(current: np.ndarray, increments, depth: int) -> list[list[np.ndarray]]:
    """``depth`` Gaussian stacks from ``current`` on. No blur here splits:
    the helper thread runs this too."""
    octaves = []
    for _ in range(depth):
        octaves.append(_grow([current], increments, split=False))
        # layer s = _SCALES_PER_OCTAVE has exactly twice the octave's base blur
        current = octaves[-1][_SCALES_PER_OCTAVE][::2, ::2]
    return octaves


def _strong_voxels(dog: np.ndarray) -> np.ndarray:
    """Row-major flat indices of the interior voxels of one DoG plane
    whose magnitude exceeds ``_PREFILTER``."""
    mask = np.abs(dog) > _PREFILTER
    mask[0] = mask[-1] = False
    mask[:, 0] = mask[:, -1] = False
    return np.flatnonzero(mask)


def _extrema(below: np.ndarray, mid: np.ndarray, above: np.ndarray) -> np.ndarray:
    """Row-major flat indices of the strong interior voxels of ``mid``
    that are strict extrema of their 26 neighbours in the three planes."""
    w = mid.shape[1]
    # the 26 compares run on the strong voxels alone, the mid plane
    # first since it rejects most
    flat = _strong_voxels(mid)
    center = mid.take(flat)
    gt = lt = True
    for dl, plane in ((0, mid), (-1, below), (1, above)):
        if flat.size == 0:
            break
        for off in (-w - 1, -w, -w + 1, -1, 0, 1, w - 1, w, w + 1):
            if dl == 0 and off == 0:
                continue
            neighbour = plane.take(flat + off)
            gt = gt & (center > neighbour)
            lt = lt & (center < neighbour)
        alive = gt | lt
        flat, center, gt, lt = flat[alive], center[alive], gt[alive], lt[alive]
    return flat


def detect_keypoints(ss: ScaleSpace) -> list[Candidate]:
    """Scan every octave's DoG stack for strict 26-neighborhood extrema.

    Candidates must clear half the contrast threshold; the full
    threshold is enforced after sub-pixel refinement. The DoG planes are
    formed one at a time as the scan climbs an octave, and the plane
    below is let go before the next one above is formed, so at most
    three are alive.
    """
    found = []
    for o, gauss in enumerate(ss.octaves):
        w = gauss[0].shape[1]
        mid, above = gauss[1] - gauss[0], gauss[2] - gauss[1]
        for layer in range(1, len(gauss) - 2):
            below, mid = mid, above
            above = gauss[layer + 2] - gauss[layer + 1]
            ys, xs = np.divmod(_extrema(below, mid, above), w)
            found.extend(
                Candidate(o, layer, x, y) for y, x in zip(ys.tolist(), xs.tolist())
            )
    found.sort()
    return found


def localize_keypoint(ss: ScaleSpace, cand: Candidate) -> LocalizedPoint | Rejection:
    """Quadratic sub-pixel refinement of one candidate extremum.

    Rejection (with a reason) is a normal outcome: the fit may fail to
    converge, drift out of the stack, land below the contrast
    threshold, or sit on an edge (spatial Hessian curvature ratio
    above ``_EDGE_RATIO``).
    """
    gauss = ss.octaves[cand.octave]
    n_layers = len(gauss) - 1  # DoG layers
    h, w = gauss[0].shape
    x, y, layer = cand.x, cand.y, cand.layer

    for _ in range(_MAX_REFINE_STEPS):
        # central differences on the 3x3x3 DoG voxel cube, as Python
        # floats: the same IEEE double arithmetic as numpy float64
        # scalars, at a fraction of the per-operation cost. The cube is
        # formed from the four Gaussian 3x3 slices under it with
        # detect_keypoints' float32 subtraction; lo/mid/hi are the DoG
        # layers below, at and above, each indexed [row][column]
        cube = np.array(
            [g[y - 1 : y + 2, x - 1 : x + 2] for g in gauss[layer - 1 : layer + 3]]
        )
        lo, mid, hi = (cube[1:] - cube[:-1]).tolist()
        v = mid[1][1]
        grad = np.array([
            0.5 * (mid[1][2] - mid[1][0]),
            0.5 * (mid[2][1] - mid[0][1]),
            0.5 * (hi[1][1] - lo[1][1]),
        ])
        dxx = mid[1][2] - 2 * v + mid[1][0]
        dyy = mid[2][1] - 2 * v + mid[0][1]
        dss = hi[1][1] - 2 * v + lo[1][1]
        dxy = 0.25 * (mid[2][2] - mid[2][0] - mid[0][2] + mid[0][0])
        dxs = 0.25 * (hi[1][2] - hi[1][0] - lo[1][2] + lo[1][0])
        dys = 0.25 * (hi[2][1] - hi[0][1] - lo[2][1] + lo[0][1])
        hess = np.array([[dxx, dxy, dxs], [dxy, dyy, dys], [dxs, dys, dss]])
        try:
            offset = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            return Rejection(RejectReason.MAX_ITERATIONS)
        ox, oy, ol = offset.tolist()
        if abs(ox) < 0.5 and abs(oy) < 0.5 and abs(ol) < 0.5:
            break
        x += round(ox)
        y += round(oy)
        layer += round(ol)
        if not (1 <= layer <= n_layers - 2 and 1 <= x <= w - 2 and 1 <= y <= h - 2):
            return Rejection(RejectReason.OUT_OF_BOUNDS)
    else:
        return Rejection(RejectReason.MAX_ITERATIONS)

    # numpy's dot, not a Python sum: its summation is part of the result
    value = v + 0.5 * float(grad @ offset)
    if abs(value) < _CONTRAST_THRESHOLD:
        return Rejection(RejectReason.LOW_CONTRAST)

    trace = dxx + dyy
    det = dxx * dyy - dxy * dxy
    r = _EDGE_RATIO
    if det <= 0 or trace * trace * r >= det * (r + 1) ** 2:
        return Rejection(RejectReason.EDGE_RESPONSE)

    scale_oct = _BASE_SIGMA * 2.0 ** ((layer + ol) / _SCALES_PER_OCTAVE)
    return LocalizedPoint(cand.octave, layer, x + ox, y + oy, scale_oct)


def _orientation_histogram(
    img: np.ndarray, x_oct: float, y_oct: float, scale_oct: float
) -> np.ndarray:
    """Gaussian-weighted gradient-orientation histogram around a point.

    Window sigma is 1.5x the keypoint scale, radius 3 sigma; gradients
    within 1 px of the image border are excluded. The raw histogram is
    smoothed once with the circular [1 4 6 4 1]/16 kernel.
    """
    h, w = img.shape
    sigma_w = 1.5 * scale_oct
    radius = int(round(3.0 * sigma_w))
    cx = int(round(x_oct))
    cy = int(round(y_oct))
    y0, y1 = max(cy - radius, 1), min(cy + radius, h - 2)
    x0, x1 = max(cx - radius, 1), min(cx + radius, w - 2)
    if y1 < y0 or x1 < x0:
        return np.zeros(_ORIENTATION_BINS)
    # the window with a 1-px rim, cast once
    win = img[y0 - 1 : y1 + 2, x0 - 1 : x1 + 2].astype(np.float64)
    dx = win[1:-1, 2:] - win[1:-1, :-2]
    dy = win[2:, 1:-1] - win[:-2, 1:-1]
    mag = np.hypot(dx, dy)
    ori = np.arctan2(dy, dx)
    oy = np.arange(y0 - cy, y1 + 1 - cy)[:, None]
    ox = np.arange(x0 - cx, x1 + 1 - cx)
    weight = np.exp(-(ox * ox + oy * oy) / (2.0 * sigma_w * sigma_w))
    n_bins = _ORIENTATION_BINS
    bins = np.rint(ori * (n_bins / TWO_PI)).astype(np.int64) % n_bins
    hist = np.bincount(bins.ravel(), weights=(weight * mag).ravel(), minlength=n_bins)
    # circular padding: wrap[i + 2] is hist[i], wrap[i] is hist[i - 2]
    wrap = np.concatenate((hist[-2:], hist, hist[:2]))
    return (6.0 * hist + 4.0 * (wrap[1:-3] + wrap[3:-1]) + wrap[:-4] + wrap[4:]) / 16.0


def assign_orientations(ss: ScaleSpace, point: LocalizedPoint) -> list[float]:
    """The point's orientations in [0, 2*pi): one per strict histogram
    peak within 80% of the maximum, else the first maximum bin, each
    refined by parabolic interpolation over its neighbours (0.0 for the
    all-zero histogram, which has no strict peak).
    """
    img = ss.octaves[point.octave][point.layer]
    n_bins = _ORIENTATION_BINS
    hist = _orientation_histogram(
        img, point.x_oct, point.y_oct, point.scale_oct
    ).tolist()
    peak_max = max(hist)
    floor = _PEAK_RATIO * peak_max
    # circular neighbours: hist[b - 1] wraps to the last bin by itself
    peak_bins = [
        b for b in range(n_bins)
        if hist[b] > hist[b - 1] and hist[b] > hist[(b + 1) % n_bins]
        and hist[b] >= floor
    ] or [hist.index(peak_max)]
    out = []
    for b in peak_bins:
        lv, cv, rv = hist[b - 1], hist[b], hist[(b + 1) % n_bins]
        denom = lv - 2.0 * cv + rv
        shift = 0.0 if denom == 0.0 else 0.5 * (lv - rv) / denom
        orientation = ((b + shift) % n_bins) * (TWO_PI / n_bins)
        out.append(orientation % TWO_PI)
    return out


def compute_descriptor(
    ss: ScaleSpace, point: LocalizedPoint, orientation: float
) -> np.ndarray | None:
    """Raw 4x4-cell, 8-orientation gradient histogram in the frame of
    ``point`` rotated by ``orientation`` (radians).

    Gradients inside the rotated window (cell width 3x the keypoint
    scale, 16x16 samples nominal) are accumulated with trilinear
    interpolation into a float64 128-vector; ``extract_features``
    normalizes it with the image's other descriptors. Returns None when
    the window does not fit inside the image (such keypoints are
    dropped).
    """
    img = ss.octaves[point.octave][point.layer]
    h, w = img.shape
    d = _DESCRIPTOR_GRID
    n_bins = _DESCRIPTOR_BINS
    hist_width = 3.0 * point.scale_oct
    half = int(round(hist_width * math.sqrt(2.0) * (d + 1) * 0.5))
    cx = int(round(point.x_oct))
    cy = int(round(point.y_oct))
    if cx - half < 1 or cx + half > w - 2 or cy - half < 1 or cy + half > h - 2:
        return None

    ox = np.arange(-half, half + 1)
    oy = ox[:, None]
    cos_t = math.cos(orientation)
    sin_t = math.sin(orientation)
    u = (ox * cos_t + oy * sin_t) / hist_width
    v = (-ox * sin_t + oy * cos_t) / hist_width
    ubin = u + 0.5 * d - 0.5
    vbin = v + 0.5 * d - 0.5
    # flat window positions of the kept samples; every sample-wise value
    # below is taken at these only
    keep = np.flatnonzero((ubin > -1) & (ubin < d) & (vbin > -1) & (vbin < d))
    u, v, ub, vb = u.take(keep), v.take(keep), ubin.take(keep), vbin.take(keep)
    # the window with a 1-px rim, cast once
    win = img[cy - half - 1 : cy + half + 2, cx - half - 1 : cx + half + 2]
    win = win.astype(np.float64)
    dx = (win[1:-1, 2:] - win[1:-1, :-2]).take(keep)
    dy = (win[2:, 1:-1] - win[:-2, 1:-1]).take(keep)
    mag = np.hypot(dx, dy)
    theta = np.arctan2(dy, dx)
    weight = np.exp(-(u * u + v * v) / (2.0 * (0.5 * d) ** 2))
    # theta - orientation lies in (-3 pi, pi]: adding 2 pi where it is
    # negative, twice, gives its float remainder modulo 2 pi bit for bit
    # (but for the sign of a zero, which no later step can see), at a
    # fraction of the cost of np.remainder
    rel = theta - orientation
    np.add(rel, TWO_PI, out=rel, where=rel < 0)
    np.add(rel, TWO_PI, out=rel, where=rel < 0)
    ob = rel * (n_bins / TWO_PI)
    m = weight * mag

    # each sample's cell and orientation bin, and its trilinear weight
    # pairs (1 - f, f); ob lies in [0, n_bins], so bin n_bins wraps to 0
    fv, fu, fo = np.floor(vb), np.floor(ub), np.floor(ob)
    cell = ((fv.astype(np.int64) + 1) * (d + 2) + fu.astype(np.int64) + 1) * n_bins
    o0 = fo.astype(np.int64)
    o0[o0 == n_bins] = 0
    o1 = o0 + 1
    o1[o1 == n_bins] = 0
    wv, wu, wo = np.empty((3, 2, keep.size))
    for pair, coord, whole in ((wv, vb, fv), (wu, ub, fu), (wo, ob, fo)):
        np.subtract(coord, whole, out=pair[1])
        np.subtract(1.0, pair[1], out=pair[0])
    # flat bins of the (d+2, d+2, n_bins) tensor and their weights, in
    # (dv, du, o0/o1, sample) order, the order bincount sums each bin in
    corner = np.array([[0, 1], [d + 2, d + 3]])[:, :, None, None] * n_bins
    bins = corner + np.stack((cell + o0, cell + o1))
    weights = m * wv[:, None, None] * wu[None, :, None] * wo
    hist = np.bincount(bins.ravel(), weights.ravel(), minlength=(d + 2) ** 2 * n_bins)
    return hist.reshape(d + 2, d + 2, n_bins)[1:-1, 1:-1].reshape(-1)


def _normalize_descriptors(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each row of ``raw`` to unit length with per-entry clamp.

    Clamp-and-renormalize is iterated to a fixed point so each result
    satisfies both the unit-norm and max-entry contracts. A unit vector
    with fewer than 1/clamp**2 nonzero entries cannot keep every entry
    at or below the clamp, so descriptors whose energy is that sparse
    never converge and are dropped as degenerate, as are all-zero rows.

    Every row goes through the float64 operations it would take alone:
    ``np.vecdot`` sums each row in ``ndarray.dot``'s order, and a row
    leaves the loop on the round its own test says it has converged.
    Returns the indices of the kept rows and their float32 unit rows.
    """
    norm = np.sqrt(np.vecdot(raw, raw))
    live = np.flatnonzero(norm)
    vec = raw[live] / norm[live, None]
    top = vec.max(axis=1)
    open_rows = np.flatnonzero(top > _DESCRIPTOR_CLAMP + 1e-7)
    for _ in range(512):
        if open_rows.size == 0:
            break
        sub = np.minimum(vec[open_rows], _DESCRIPTOR_CLAMP)
        norm = np.sqrt(np.vecdot(sub, sub))
        sub /= norm[:, None]
        vec[open_rows] = sub
        # top > clamp: the clamped entries stay the largest
        top[open_rows] = _DESCRIPTOR_CLAMP / norm
        open_rows = open_rows[top[open_rows] > _DESCRIPTOR_CLAMP + 1e-7]
    kept = top <= _DESCRIPTOR_CLAMP + 1e-6
    return live[kept], vec[kept].astype(np.float32)


def _sort_unique(rows: np.ndarray) -> np.ndarray:
    """Rows in (y, x, scale, orientation) order, keeping the first row of
    each run of equal keys; the sort is stable and -0.0 equals 0.0."""
    rows = rows[np.lexsort((rows[:, 3], rows[:, 2], rows[:, 0], rows[:, 1]))]
    keys = rows[:, :4]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return rows[first]


def extract_features(img: GrayImage) -> Keypoints:
    """Full detection pipeline; photometric normalization is the caller's job.

    Rows are sorted by (y, x, scale, orientation) and deduplicated on
    those keys, so identical input always produces identical tables.
    """
    ss = build_scale_space(img)
    heads = []
    hists = []
    for cand in detect_keypoints(ss):
        loc = localize_keypoint(ss, cand)
        if isinstance(loc, Rejection):
            continue
        px = ss.pixel_scale(loc.octave)
        for orientation in assign_orientations(ss, loc):
            hist = compute_descriptor(ss, loc, orientation)
            if hist is None:
                continue
            heads.append((loc.x_oct * px, loc.y_oct * px, loc.scale_oct * px, orientation))
            hists.append(hist)
    kept, unit = _normalize_descriptors(np.array(hists).reshape(-1, DESCRIPTOR_LEN))
    rows = np.empty((len(kept), ROW_LEN), dtype=np.float32)
    rows[:, :4] = np.array(heads).reshape(-1, 4)[kept]
    rows[:, 4:] = unit
    return Keypoints(_sort_unique(rows))
