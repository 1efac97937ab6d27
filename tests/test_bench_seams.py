"""The benchmark's tracer (``perfbench/spans.py``) wraps library functions
at the module bindings their callers look up. A refactor that drops or
renames one of those bindings breaks the traced benchmark run; these
tests catch it with the library tests. The tracer module is loaded by
path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

from graphsift import facegraph, sift, store
from graphsift.corpus import render_texture, subject_texture
from graphsift.imageio import histogram_equalize

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_a_callable(spans):
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_stop_restores_the_originals(spans):
    bindings = [(module, attr) for module, attr, _, _ in spans.TARGETS]
    originals = [getattr(module, attr) for module, attr in bindings]
    tracer = spans.Tracer()
    try:
        tracer.start()
        wrapped = [getattr(module, attr) for module, attr in bindings]
    finally:
        tracer.stop()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(
        getattr(module, attr) is o for (module, attr), o in zip(bindings, originals)
    )


def test_traced_counts_equal_direct_recounts(spans, tmp_path):
    # the counts the tracer reads from the wrapped calls' arguments and
    # results, against the same quantities counted from the stages run
    # by hand: a refactor that changes what a stage returns, or how
    # often it is called, shows here
    img = histogram_equalize(render_texture(subject_texture(42, 3, 128), 128))
    path = tmp_path / "g.db"
    tracer = spans.Tracer()
    tracer.start()
    try:
        with tracer.request():
            g = facegraph.build_graph(sift.extract_features(img), "s", "i")
            store.save(store.GalleryDb(entries=(g,)), path)
            loaded = store.load(path)
    finally:
        tracer.stop()

    ss = sift.build_scale_space(img)
    candidates = sift.detect_keypoints(ss)
    accepted = [
        loc for loc in (sift.localize_keypoint(ss, c) for c in candidates)
        if not isinstance(loc, sift.Rejection)
    ]
    oriented = sum(len(sift.assign_orientations(ss, loc)) for loc in accepted)
    c = tracer.counts
    assert c["sift.scale_space.pixels"] == sum(
        a.size for octave in ss.octaves for a in octave
    )
    assert c["sift.extrema.candidates"] == len(candidates) > 0
    assert c["sift.localize.calls"] == len(candidates)
    assert c["sift.localize.accepted"] == len(accepted) > 0
    assert c["sift.orientation.calls"] == len(accepted)
    assert c["sift.orientation.points"] == oriented
    assert c["sift.descriptor.calls"] == oriented
    assert c["sift.extract.keypoints"] == g.n_vertices
    # one graph built from the extraction, one by store.load
    assert c["facegraph.build_graph.vertices"] == 2 * g.n_vertices
    assert loaded.entries[0].vertices == g.vertices
    assert c["store.save.bytes"] == c["store.load.bytes"] == path.stat().st_size
    names = {span[0] for span in tracer.spans}
    assert {"sift.scale_space", "sift.extrema", "store.save", "store.load"} <= names
