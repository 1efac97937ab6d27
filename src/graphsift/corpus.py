"""Synthetic corpus: procedural textures standing in for face images.

Each subject is a fixed set of anisotropic Gaussian blobs (random
centers, principal widths, axis angles and signed amplitudes on a
mid-gray background). Such a field maps exactly under rotation, uniform
scaling and translation: transform the centers, rotate the axes, scale
the widths, and re-evaluate. Perturbed views are therefore rendered
analytically in the target frame, with no resampling step and no
interpolation error; the only difference between two views of one
subject is where the pixel grid samples the same continuous field.
The anisotropy matters: elongated blobs at varied angles give local
patches distinctive gradient structure, where round blobs would all
look alike.

Everything is keyed by numpy seed sequences ([seed, subject] for the
texture, [seed, subject, image] for the perturbation), so a corpus is
reproducible byte for byte.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imageio import GrayImage, save_pgm
from .sift import MIN_IMAGE_SIDE

MANIFEST_HEADER = "image_path,subject_id,image_id,group,role"

_BLOB_COUNT = (55, 76)  # inclusive-exclusive range
_BLOB_SIGMA = (1.3, 3.6)  # major-axis width
_BLOB_ASPECT = (0.30, 1.0)  # minor/major axis ratio
_BLOB_AMP = (60.0, 130.0)
_BACKGROUND = 110.0
_CENTER_RADIUS_FRAC = 0.28  # keeps content inside the frame at 1.25x scale
_ROTATION_MAX_DEG = 20.0
_SCALE_RANGE = (0.8, 1.25)
_TRANSLATION_MAX = 4.0
_BRIGHTNESS_MAX = 10.0


@dataclass(frozen=True)
class BlobTexture:
    """Blob parameters; centers are in pixels relative to the image
    center, angles give each blob's major axis, amplitudes are signed
    intensity offsets."""

    centers: np.ndarray
    major: np.ndarray
    minor: np.ndarray
    angles: np.ndarray
    amps: np.ndarray
    background: float


def make_texture(rng: np.random.Generator, size: int) -> BlobTexture:
    n = int(rng.integers(*_BLOB_COUNT))
    radius = _CENTER_RADIUS_FRAC * size * np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    centers = np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))
    major = rng.uniform(*_BLOB_SIGMA, n)
    minor = major * rng.uniform(*_BLOB_ASPECT, n)
    angles = rng.uniform(0.0, math.pi, n)
    amps = rng.uniform(*_BLOB_AMP, n) * rng.choice((-1.0, 1.0), n)
    return BlobTexture(centers, major, minor, angles, amps, _BACKGROUND)


def render_texture(
    tex: BlobTexture,
    size: int,
    rotation: float = 0.0,
    scale: float = 1.0,
    translation: tuple[float, float] = (0.0, 0.0),
    brightness: float = 0.0,
) -> GrayImage:
    """Evaluate the transformed blob field on a size x size pixel grid.

    ``rotation`` is radians counterclockwise about the image center,
    applied to the texture before scaling and translating. A blob with
    axes (major, minor) at angle a maps to one with axes scaled by the
    zoom at angle a + rotation; the field value at a transformed point
    equals the original value at the source point, exactly.
    """
    c, s = math.cos(rotation), math.sin(rotation)
    cx = scale * (c * tex.centers[:, 0] - s * tex.centers[:, 1]) + translation[0]
    cy = scale * (s * tex.centers[:, 0] + c * tex.centers[:, 1]) + translation[1]
    majors = scale * tex.major
    minors = scale * tex.minor
    angles = tex.angles + rotation

    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    gx, gy = np.meshgrid(coords, coords)
    field = np.full((size, size), tex.background + brightness)
    for bx, by, su, sv, ang, amp in zip(cx, cy, majors, minors, angles, tex.amps):
        dx = gx - bx
        dy = gy - by
        ca, sa = math.cos(ang), math.sin(ang)
        du = ca * dx + sa * dy
        dv = -sa * dx + ca * dy
        field += amp * np.exp(
            -(du * du / (2.0 * su * su) + dv * dv / (2.0 * sv * sv))
        )
    pixels = np.clip(np.rint(field), 0.0, 255.0).astype(np.uint8)
    return GrayImage(pixels)


def subject_texture(seed: int, subject_index: int, size: int) -> BlobTexture:
    return make_texture(np.random.default_rng([seed, subject_index]), size)


def _perturbation(seed: int, subject_index: int, image_index: int):
    """Random view parameters; image 0 is the canonical enrollment view."""
    if image_index == 0:
        return 0.0, 1.0, (0.0, 0.0), 0.0
    rng = np.random.default_rng([seed, subject_index, image_index])
    rotation = math.radians(rng.uniform(-_ROTATION_MAX_DEG, _ROTATION_MAX_DEG))
    scale = rng.uniform(*_SCALE_RANGE)
    translation = tuple(rng.uniform(-_TRANSLATION_MAX, _TRANSLATION_MAX, 2))
    brightness = rng.uniform(-_BRIGHTNESS_MAX, _BRIGHTNESS_MAX)
    return rotation, scale, translation, brightness


def _integer(name: str, value, least: int) -> int:
    """value as an int of at least least; a bool or a non-integer raises
    ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def generate_corpus(
    out_dir: str | Path,
    seed: int = 42,
    n_subjects: int = 10,
    images_per_subject: int = 4,
    size: int = 128,
) -> Path:
    """Write PGMs plus manifest.csv; returns the manifest path.

    Image 0 of each subject is the unperturbed train view, the rest are
    perturbed test views. The first half of the subjects form group G1,
    the rest G2; manifest paths are relative to the manifest itself.
    ``size`` is at least ``sift.MIN_IMAGE_SIDE``, the smallest side the
    detector takes.
    """
    seed = _integer("seed", seed, 0)
    n_subjects = _integer("n_subjects", n_subjects, 2)
    images_per_subject = _integer("images_per_subject", images_per_subject, 1)
    size = _integer("size", size, MIN_IMAGE_SIDE)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = [MANIFEST_HEADER]
    for s in range(n_subjects):
        tex = subject_texture(seed, s, size)
        subject_id = f"s{s:03d}"
        group = "G1" if s < n_subjects // 2 else "G2"
        for k in range(images_per_subject):
            rotation, scale, translation, brightness = _perturbation(seed, s, k)
            img = render_texture(tex, size, rotation, scale, translation, brightness)
            name = f"{subject_id}_i{k:02d}.pgm"
            save_pgm(img, out / name)
            role = "train" if k == 0 else "test"
            rows.append(f"{name},{subject_id},i{k:02d},{group},{role}")
    manifest = out / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest


@dataclass(frozen=True)
class ManifestRow:
    image_path: Path
    subject_id: str
    image_id: str
    group: str
    role: str


def read_manifest(path: str | Path) -> list[ManifestRow]:
    """Parse a manifest; relative image paths resolve against its folder."""
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines or lines[0] != MANIFEST_HEADER:
        raise ValueError(f"{path}: expected header {MANIFEST_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}: malformed row {ln!r}")
        img, subject_id, image_id, group, role = parts
        if role not in ("train", "test"):
            raise ValueError(f"{path}: unknown role {role!r}")
        img_path = Path(img)
        if not img_path.is_absolute():
            img_path = path.parent / img_path
        rows.append(ManifestRow(img_path, subject_id, image_id, group, role))
    return rows
