"""The blur's one helper thread (sift._blur): it starts at the first
plane large enough to split and never before, there is one for the
process however many CPUs it may use, an input whose upper octaves are
large too builds them on it without a hang, and a forked child neither
hangs on its parent's helper nor changes a byte. Each check runs in a
fresh interpreter, since this one may have started the helper already."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphsift
from test_sift_extract import KEYPOINT_TABLE_SHA256

SRC = Path(graphsift.__file__).resolve().parent.parent
PINNED = KEYPOINT_TABLE_SHA256[(2, 256)]

# digest(size) is test_sift_extract's pin: texture_image(2, 0, size)
PRELUDE = """
import hashlib, json, os, threading
from graphsift import extract_features
from graphsift.corpus import render_texture, subject_texture
from graphsift.imageio import histogram_equalize

def digest(size):
    img = histogram_equalize(render_texture(subject_texture(21, 2, size), size))
    return hashlib.sha256(extract_features(img).rows.tobytes()).hexdigest()

def threads():
    return [t.name for t in threading.enumerate() if t is not threading.main_thread()]
"""


def run(body: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PRELUDE + body],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


def test_small_planes_start_no_thread():
    # 128 px doubles to 256x256 planes, below the split
    assert run("digest(64); digest(128); print(json.dumps(threads()))") == []


def test_one_helper_for_every_large_blur():
    a, first, b, second = run(
        "a = digest(256); one = threads()\n"
        "print(json.dumps([a, one, digest(256), threads()]))"
    )
    assert first == ["graphsift-blur_0"]
    assert second == first
    assert a == b == PINNED


def test_large_upper_octaves_on_the_helper_do_not_hang():
    # octave 1 of a 400x384 input is 153600 pixels, above the split; the
    # helper builds it, and a split blur there would wait for itself
    # forever. Every plane must still be serial gaussian_filter's bytes.
    same, started = run("""
import math
import numpy as np
from scipy import ndimage
from graphsift import sift
from graphsift.imageio import GrayImage

img = GrayImage(np.random.default_rng(8).integers(0, 256, (384, 400), dtype=np.uint8))
ss = sift.build_scale_space(img)

def blur(a, sigma):
    return ndimage.gaussian_filter(a, sigma, mode="mirror", truncate=4.0)

sigmas = 1.6 * (2.0 ** (1.0 / 3)) ** np.arange(6)
increments = np.sqrt(sigmas[1:] ** 2 - sigmas[:-1] ** 2)
doubled = sift._upsample2x(img.pixels.astype(np.float32) / np.float32(255.0))
want = [blur(doubled, math.sqrt(1.6**2 - 1.0))]
same = []
for stack in ss.octaves:
    for inc in increments:
        want.append(blur(want[-1], float(inc)))
    same.append(len(stack) == 6
                and all(a.tobytes() == b.tobytes() for a, b in zip(stack, want)))
    want = [want[3][::2, ::2]]
print(json.dumps([same, threads()]))
""")
    assert same == [True] * 7
    assert started == ["graphsift-blur_0"]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here"
)
def test_one_cpu_starts_the_same_helper():
    # the split depends on the plane's size alone, not on the CPUs
    got, started = run(
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "print(json.dumps([digest(256), threads()]))"
    )
    assert started == ["graphsift-blur_0"]
    assert got == PINNED


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork here"
)
def test_forked_child_blurs_without_its_parents_helper():
    # the parent's helper thread does not exist in the child; a child
    # that submitted to it would wait forever
    parent, started, child, alive = run("""
import multiprocessing
ours = digest(256)
started = threads()
ctx = multiprocessing.get_context("fork")
recv, send = ctx.Pipe(duplex=False)
p = ctx.Process(target=lambda: send.send(digest(256)))
p.start()
got = recv.recv() if recv.poll(30) else None
p.join(5)
alive = p.is_alive()
if alive:
    p.kill()
print(json.dumps([ours, started, got, alive]))
""")
    assert started == ["graphsift-blur_0"]
    assert not alive
    assert child == parent == PINNED
