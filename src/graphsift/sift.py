"""Scale/rotation/translation-invariant keypoint detection and description.

The pipeline is the staged one: build a difference-of-Gaussians scale
space, pick 26-neighborhood extrema, refine them with a quadratic fit
(rejecting low-contrast and edge-like points), assign dominant gradient
orientations, and describe each oriented point with a 4x4 grid of
8-orientation gradient histograms (128 values, unit norm, entries
clamped at 0.2).

Everything here is deterministic: no RNG, no threading, pure numpy and
scipy kernels, so identical input and config give bit-identical output.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .config import DESCRIPTOR_LEN, DetectorConfig
from .errors import ImageTooSmall, NonFiniteKeypoint
from .imageio import GrayImage

MIN_IMAGE_SIDE = 16
_MAX_REFINE_STEPS = 5
_GAUSS_TRUNCATE = 4.0
TWO_PI = 2.0 * math.pi
# a keypoint row: x, y, scale and orientation, then the descriptor
ROW_LEN = 4 + DESCRIPTOR_LEN


@dataclass(frozen=True, eq=False)
class Keypoints:
    """Detected features as one read-only float32 table, one row each.

    ``rows`` is a C-contiguous (n, ROW_LEN) array. Its columns are
    ``x``/``y``, sub-pixel input-image coordinates (x = column,
    y = row), ``scale``, the absolute detection sigma in input-image
    units, ``orientation``, the dominant gradient direction in
    [0, 2*pi), and the 128 ``descriptors`` values. A row is exactly the
    per-keypoint record the gallery store writes. The constructor takes
    a private float32 copy of any (n, ROW_LEN) array; a value that is
    NaN or infinite there raises NonFiniteKeypoint.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.float32, order="C")
        if rows.ndim != 2 or rows.shape[1] != ROW_LEN:
            raise ValueError(f"keypoint rows must be (n, {ROW_LEN}), got {rows.shape}")
        if not np.isfinite(rows).all():
            bad = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
            raise NonFiniteKeypoint(f"keypoint row {bad} holds a NaN or infinite value")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    # read-only views of the table's columns
    x = property(lambda self: self.rows[:, 0])
    y = property(lambda self: self.rows[:, 1])
    xy = property(lambda self: self.rows[:, :2])
    scale = property(lambda self: self.rows[:, 2])
    orientation = property(lambda self: self.rows[:, 3])
    descriptors = property(lambda self: self.rows[:, 4:])

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Keypoints):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)


@dataclass
class ScaleSpace:
    """Gaussian and DoG stacks, one list entry per octave.

    Octave o, layer s of the Gaussian stack carries absolute blur
    cfg.base_sigma * 2**(o + s/cfg.scales_per_octave) relative to the
    pyramid base image; each octave halves the previous one.
    ``first_scale`` converts octave-0 pixel units back to input-image
    units (0.5 when the input was doubled).
    """

    octaves: list[list[np.ndarray]]
    dog: list[list[np.ndarray]]
    first_scale: float

    @property
    def n_octaves(self) -> int:
        return len(self.octaves)

    def pixel_scale(self, octave: int) -> float:
        """Input-image units per pixel of the given octave."""
        return self.first_scale * (1 << octave)


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
    candidate: Candidate
    reason: RejectReason


@dataclass(frozen=True)
class LocalizedPoint:
    """Sub-pixel refined extremum, in both octave-grid and input coords."""

    octave: int
    layer: int  # integer layer whose Gaussian image serves the windows
    x: float
    y: float
    scale: float
    x_oct: float
    y_oct: float
    scale_oct: float


@dataclass(frozen=True)
class OrientedPoint:
    point: LocalizedPoint
    orientation: float  # radians in [0, 2*pi)


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


def _blur(a: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return a.copy()
    return ndimage.gaussian_filter(
        a, sigma, mode="mirror", truncate=_GAUSS_TRUNCATE
    )


def build_scale_space(img: GrayImage, cfg: DetectorConfig) -> ScaleSpace:
    """Build the Gaussian pyramid and its DoG stacks.

    Intensities are mapped to [0, 1] floats first; the input is assumed
    to carry ``cfg.assumed_blur`` of blur already, so the base image is
    blurred only by the difference needed to reach ``cfg.base_sigma``.
    """
    if min(img.width, img.height) < MIN_IMAGE_SIDE:
        raise ImageTooSmall(
            f"{img.width}x{img.height} below minimum "
            f"{MIN_IMAGE_SIDE}x{MIN_IMAGE_SIDE}"
        )
    base = img.pixels.astype(np.float32) / np.float32(255.0)
    initial_blur = cfg.assumed_blur
    first_scale = 1.0
    if cfg.double_input:
        base = _upsample2x(base)
        initial_blur = 2.0 * cfg.assumed_blur
        first_scale = 0.5
    diff = cfg.base_sigma**2 - initial_blur**2
    base = _blur(base, math.sqrt(max(diff, 0.01)))

    s = cfg.scales_per_octave
    k = 2.0 ** (1.0 / s)
    layer_sigmas = cfg.base_sigma * k ** np.arange(s + 3)
    # incremental blur from layer i-1 to layer i
    increments = np.sqrt(layer_sigmas[1:] ** 2 - layer_sigmas[:-1] ** 2)

    n_octaves = int(math.floor(math.log2(min(base.shape) / 8.0))) + 1
    n_octaves = max(n_octaves, 1)
    if cfg.max_octaves > 0:
        n_octaves = min(n_octaves, cfg.max_octaves)

    octaves = []
    dogs = []
    current = base
    for _ in range(n_octaves):
        stack = [current]
        for inc in increments:
            stack.append(_blur(stack[-1], float(inc)))
        octaves.append(stack)
        dogs.append([stack[i + 1] - stack[i] for i in range(s + 2)])
        # layer s has exactly twice the octave's base blur
        current = stack[s][::2, ::2]
    return ScaleSpace(octaves=octaves, dog=dogs, first_scale=first_scale)


def detect_keypoints(ss: ScaleSpace, cfg: DetectorConfig) -> list[Candidate]:
    """Scan every DoG stack for strict 26-neighborhood extrema.

    Candidates must clear half the contrast threshold; the full
    threshold is enforced after sub-pixel refinement.
    """
    prefilter = 0.5 * cfg.contrast_threshold
    found = []
    for o, stack in enumerate(ss.dog):
        w = stack[0].shape[1]
        for layer in range(1, len(stack) - 1):
            # flat indices of the strong interior voxels; the 26 compares
            # run on these alone, the mid plane first since it rejects most
            ys, xs = np.nonzero(np.abs(stack[layer][1:-1, 1:-1]) > prefilter)
            flat = (ys + 1) * w + xs + 1
            center = stack[layer].take(flat)
            gt = lt = True
            for dl in (0, -1, 1):
                if flat.size == 0:
                    break
                plane = stack[layer + dl]
                for off in (-w - 1, -w, -w + 1, -1, 0, 1, w - 1, w, w + 1):
                    if dl == 0 and off == 0:
                        continue
                    neighbour = plane.take(flat + off)
                    gt = gt & (center > neighbour)
                    lt = lt & (center < neighbour)
                alive = gt | lt
                flat, center, gt, lt = flat[alive], center[alive], gt[alive], lt[alive]
            ys, xs = np.divmod(flat, w)
            found.extend(
                Candidate(o, layer, x, y) for y, x in zip(ys.tolist(), xs.tolist())
            )
    found.sort()
    return found


def _cube(stack: list[np.ndarray], layer: int, y: int, x: int) -> np.ndarray:
    return np.stack(
        [
            stack[layer - 1][y - 1 : y + 2, x - 1 : x + 2],
            stack[layer][y - 1 : y + 2, x - 1 : x + 2],
            stack[layer + 1][y - 1 : y + 2, x - 1 : x + 2],
        ]
    ).astype(np.float64)


def _gradient(c: np.ndarray) -> np.ndarray:
    dx = 0.5 * (c[1, 1, 2] - c[1, 1, 0])
    dy = 0.5 * (c[1, 2, 1] - c[1, 0, 1])
    ds = 0.5 * (c[2, 1, 1] - c[0, 1, 1])
    return np.array([dx, dy, ds])


def _hessian(c: np.ndarray) -> np.ndarray:
    v = c[1, 1, 1]
    dxx = c[1, 1, 2] - 2 * v + c[1, 1, 0]
    dyy = c[1, 2, 1] - 2 * v + c[1, 0, 1]
    dss = c[2, 1, 1] - 2 * v + c[0, 1, 1]
    dxy = 0.25 * (c[1, 2, 2] - c[1, 2, 0] - c[1, 0, 2] + c[1, 0, 0])
    dxs = 0.25 * (c[2, 1, 2] - c[2, 1, 0] - c[0, 1, 2] + c[0, 1, 0])
    dys = 0.25 * (c[2, 2, 1] - c[2, 0, 1] - c[0, 2, 1] + c[0, 0, 1])
    return np.array([[dxx, dxy, dxs], [dxy, dyy, dys], [dxs, dys, dss]])


def localize_keypoint(
    ss: ScaleSpace, cand: Candidate, cfg: DetectorConfig
) -> LocalizedPoint | Rejection:
    """Quadratic sub-pixel refinement of one candidate extremum.

    Rejection (with a reason) is a normal outcome: the fit may fail to
    converge, drift out of the stack, land below the contrast
    threshold, or sit on an edge (spatial Hessian curvature ratio
    above ``cfg.edge_ratio``).
    """
    stack = ss.dog[cand.octave]
    n_layers = len(stack)
    h, w = stack[0].shape
    x, y, layer = cand.x, cand.y, cand.layer

    offset = grad = cube = hess = None
    for step in range(_MAX_REFINE_STEPS):
        cube = _cube(stack, layer, y, x)
        grad = _gradient(cube)
        hess = _hessian(cube)
        try:
            offset = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            return Rejection(cand, RejectReason.MAX_ITERATIONS)
        if np.all(np.abs(offset) < 0.5):
            break
        x += int(round(offset[0]))
        y += int(round(offset[1]))
        layer += int(round(offset[2]))
        if not (1 <= layer <= n_layers - 2 and 1 <= x <= w - 2 and 1 <= y <= h - 2):
            return Rejection(cand, RejectReason.OUT_OF_BOUNDS)
    else:
        return Rejection(cand, RejectReason.MAX_ITERATIONS)

    value = cube[1, 1, 1] + 0.5 * float(grad @ offset)
    if abs(value) < cfg.contrast_threshold:
        return Rejection(cand, RejectReason.LOW_CONTRAST)

    dxx, dxy, dyy = hess[0, 0], hess[0, 1], hess[1, 1]
    trace = dxx + dyy
    det = dxx * dyy - dxy * dxy
    r = cfg.edge_ratio
    if det <= 0 or trace * trace * r >= det * (r + 1) ** 2:
        return Rejection(cand, RejectReason.EDGE_RESPONSE)

    x_oct = x + float(offset[0])
    y_oct = y + float(offset[1])
    layer_ref = layer + float(offset[2])
    scale_oct = cfg.base_sigma * 2.0 ** (layer_ref / cfg.scales_per_octave)
    px = ss.pixel_scale(cand.octave)
    return LocalizedPoint(
        octave=cand.octave,
        layer=layer,
        x=x_oct * px,
        y=y_oct * px,
        scale=scale_oct * px,
        x_oct=x_oct,
        y_oct=y_oct,
        scale_oct=scale_oct,
    )


def _orientation_histogram(
    img: np.ndarray, x_oct: float, y_oct: float, scale_oct: float, n_bins: int
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
    hist = np.zeros(n_bins)
    if y1 < y0 or x1 < x0:
        return hist
    dx = img[y0 : y1 + 1, x0 + 1 : x1 + 2].astype(np.float64) - img[
        y0 : y1 + 1, x0 - 1 : x1
    ].astype(np.float64)
    dy = img[y0 + 1 : y1 + 2, x0 : x1 + 1].astype(np.float64) - img[
        y0 - 1 : y1, x0 : x1 + 1
    ].astype(np.float64)
    mag = np.hypot(dx, dy)
    ori = np.arctan2(dy, dx)
    oy = np.arange(y0 - cy, y1 + 1 - cy)[:, None]
    ox = np.arange(x0 - cx, x1 + 1 - cx)
    weight = np.exp(-(ox * ox + oy * oy) / (2.0 * sigma_w * sigma_w))
    bins = np.rint(ori * (n_bins / TWO_PI)).astype(np.int64) % n_bins
    hist = np.bincount(bins.ravel(), weights=(weight * mag).ravel(), minlength=n_bins)
    # circular padding: wrap[i + 2] is hist[i], wrap[i] is hist[i - 2]
    wrap = np.concatenate((hist[-2:], hist, hist[:2]))
    return (6.0 * hist + 4.0 * (wrap[1:-3] + wrap[3:-1]) + wrap[:-4] + wrap[4:]) / 16.0


def assign_orientations(
    ss: ScaleSpace, point: LocalizedPoint, cfg: DetectorConfig
) -> list[OrientedPoint]:
    """One oriented point per histogram peak within 80% of the maximum.

    Peaks are refined by parabolic interpolation over the neighboring
    bins. Always returns at least one orientation (0.0 for the
    degenerate all-zero histogram).
    """
    img = ss.octaves[point.octave][point.layer]
    n_bins = cfg.orientation_bins
    hist = _orientation_histogram(
        img, point.x_oct, point.y_oct, point.scale_oct, n_bins
    )
    peak_max = hist.max()
    if peak_max <= 0.0:
        return [OrientedPoint(point, 0.0)]
    wrap = np.concatenate((hist[-1:], hist, hist[:1]))
    left, right = wrap[:-2], wrap[2:]
    peak_bins = np.nonzero((hist > left) & (hist > right))[0]
    if peak_bins.size == 0:
        peak_bins = np.array([int(np.argmax(hist))])
    out = []
    for b in peak_bins:
        if hist[b] < cfg.peak_ratio * peak_max:
            continue
        lv, cv, rv = left[b], hist[b], right[b]
        denom = lv - 2.0 * cv + rv
        shift = 0.0 if denom == 0.0 else 0.5 * (lv - rv) / denom
        orientation = ((b + shift) % n_bins) * (TWO_PI / n_bins)
        out.append(OrientedPoint(point, orientation % TWO_PI))
    if not out:
        b = int(np.argmax(hist))
        out.append(OrientedPoint(point, (b * TWO_PI / n_bins) % TWO_PI))
    return out


def compute_descriptor(
    ss: ScaleSpace, oriented: OrientedPoint, cfg: DetectorConfig
) -> np.ndarray | None:
    """4x4-cell, 8-orientation gradient descriptor in the keypoint frame.

    Gradients inside the rotated window (cell width 3x the keypoint
    scale, 16x16 samples nominal) are accumulated with trilinear
    interpolation, then the vector is normalized to unit length with
    entries clamped at ``cfg.descriptor_clamp``. Returns None when the
    window does not fit inside the image (such keypoints are dropped).
    """
    point = oriented.point
    img = ss.octaves[point.octave][point.layer]
    h, w = img.shape
    d = cfg.descriptor_grid
    n_bins = cfg.descriptor_bins
    hist_width = 3.0 * point.scale_oct
    half = int(round(hist_width * math.sqrt(2.0) * (d + 1) * 0.5))
    cx = int(round(point.x_oct))
    cy = int(round(point.y_oct))
    if cx - half < 1 or cx + half > w - 2 or cy - half < 1 or cy + half > h - 2:
        return None

    ox = np.arange(-half, half + 1)
    oy = ox[:, None]
    cos_t = math.cos(oriented.orientation)
    sin_t = math.sin(oriented.orientation)
    u = (ox * cos_t + oy * sin_t) / hist_width
    v = (-ox * sin_t + oy * cos_t) / hist_width
    ubin = u + 0.5 * d - 0.5
    vbin = v + 0.5 * d - 0.5
    keep = (ubin > -1) & (ubin < d) & (vbin > -1) & (vbin < d)
    # every sample-wise value below is taken at the kept samples only
    u, v, ub, vb = u[keep], v[keep], ubin[keep], vbin[keep]
    rows, cols = np.nonzero(keep)
    flat = (cy - half + rows) * w + (cx - half + cols)
    dx = img.take(flat + 1).astype(np.float64) - img.take(flat - 1).astype(np.float64)
    dy = img.take(flat + w).astype(np.float64) - img.take(flat - w).astype(np.float64)
    mag = np.hypot(dx, dy)
    theta = np.arctan2(dy, dx)
    weight = np.exp(-(u * u + v * v) / (2.0 * (0.5 * d) ** 2))
    ob = ((theta - oriented.orientation) % TWO_PI) * (n_bins / TWO_PI)
    m = weight * mag

    u0 = np.floor(ub).astype(np.int64)
    v0 = np.floor(vb).astype(np.int64)
    o0 = np.floor(ob).astype(np.int64)
    fu = ub - u0
    fv = vb - v0
    fo = ob - o0
    o0 %= n_bins

    # trilinear weights and flat bins of the (d+2, d+2, n_bins) tensor, in
    # (dv, du, o0/o1, sample) order, the order bincount sums each bin in
    wv = np.stack((1.0 - fv, fv))[:, None, None]
    wu = np.stack((1.0 - fu, fu))[None, :, None]
    wo = np.stack((1.0 - fo, fo))
    cell = (v0 + 1) * (d + 2) + u0 + 1
    corner = np.array([[0, 1], [d + 2, d + 3]])[:, :, None, None]
    bins = (cell + corner) * n_bins + np.stack((o0, (o0 + 1) % n_bins))
    hist = np.bincount(
        bins.ravel(), (m * wv * wu * wo).ravel(), minlength=(d + 2) ** 2 * n_bins
    )
    vec = hist.reshape(d + 2, d + 2, n_bins)[1:-1, 1:-1].reshape(-1)
    return _finalize_descriptor(vec, cfg.descriptor_clamp)


def _finalize_descriptor(vec: np.ndarray, clamp: float) -> np.ndarray | None:
    """Normalize to unit length with per-entry clamp.

    Clamp-and-renormalize is iterated to a fixed point so the result
    satisfies both the unit-norm and max-entry contracts. A unit vector
    with fewer than 1/clamp**2 nonzero entries cannot keep every entry
    at or below the clamp, so descriptors whose energy is that sparse
    never converge and are dropped as degenerate.
    """
    norm = math.sqrt(vec.dot(vec))
    if norm == 0.0:
        return None
    vec = vec / norm
    top = vec.max()
    for _ in range(512):
        if top <= clamp + 1e-7:
            break
        np.minimum(vec, clamp, out=vec)
        norm = math.sqrt(vec.dot(vec))
        vec /= norm
        top = clamp / norm  # top > clamp: the clamped entries stay the largest
    if top > clamp + 1e-6:
        return None
    return vec.astype(np.float32)


def _sort_unique(rows: np.ndarray) -> np.ndarray:
    """Rows in (y, x, scale, orientation) order, keeping the first row of
    each run of equal keys; the sort is stable and -0.0 equals 0.0."""
    rows = rows[np.lexsort((rows[:, 3], rows[:, 2], rows[:, 0], rows[:, 1]))]
    keys = rows[:, :4]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return rows[first]


def extract_features(img: GrayImage, cfg: DetectorConfig | None = None) -> Keypoints:
    """Full detection pipeline; photometric normalization is the caller's job.

    Rows are sorted by (y, x, scale, orientation) and deduplicated on
    those keys, so identical input and config always produce identical
    tables.
    """
    if cfg is None:
        cfg = DetectorConfig()
    ss = build_scale_space(img, cfg)
    rows = []
    for cand in detect_keypoints(ss, cfg):
        loc = localize_keypoint(ss, cand, cfg)
        if isinstance(loc, Rejection):
            continue
        for oriented in assign_orientations(ss, loc, cfg):
            desc = compute_descriptor(ss, oriented, cfg)
            if desc is None:
                continue
            head = (loc.x, loc.y, loc.scale, oriented.orientation)
            rows.append(np.concatenate((head, desc)))
    return Keypoints(_sort_unique(np.array(rows, dtype=np.float32).reshape(-1, ROW_LEN)))
