"""Span recording for the benchmark's traced run.

The tracer wraps graphsift's functions at the module binding their
caller looks up, so nothing inside the library changes. Each call
records one span: name, start, end, parent span and request id. Spans
stay in memory until the run ends. Counts (reject reasons, pair counts,
bytes) are read from the wrapped calls' arguments and return values.

A span's self time is its duration minus the time its child spans
cover, measured from each child's entry into its wrapper to its exit,
so the tracer's own bookkeeping is charged to ``trace.overhead_s`` and
not to the parent layer.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from graphsift import evaluation, facegraph, imageio, matcher, sift, store

REQUEST = "request"


def _count_load(c, args, kwargs, out):
    c["imageio.load.bytes"] += out.pixels.nbytes


def _count_scale_space(c, args, kwargs, out):
    c["sift.scale_space.pixels"] += sum(a.size for octave in out.octaves for a in octave)


def _count_extrema(c, args, kwargs, out):
    c["sift.extrema.candidates"] += len(out)


def _count_localize(c, args, kwargs, out):
    c["sift.localize.calls"] += 1
    if isinstance(out, sift.Rejection):
        c[f"sift.localize.reject.{out.reason.value}"] += 1
    else:
        c["sift.localize.accepted"] += 1


def _count_orientation(c, args, kwargs, out):
    c["sift.orientation.calls"] += 1
    c["sift.orientation.points"] += len(out)


def _count_descriptor(c, args, kwargs, out):
    c["sift.descriptor.calls"] += 1
    c["sift.descriptor.kept"] += out is not None


def _count_extract(c, args, kwargs, out):
    c["sift.extract.keypoints"] += len(out)


def _count_build_graph(c, args, kwargs, out):
    c["facegraph.build_graph.vertices"] += out.n_vertices


def _count_correspondence(c, args, kwargs, out):
    c["facegraph.correspondence.calls"] += 1
    c["facegraph.correspondence.pairs"] += len(out)


def _count_edge_arrays(c, args, kwargs, out):
    c["facegraph.edge_arrays.edges"] += len(out[0])


def _constraint(args, kwargs):
    if len(args) > 2:
        return args[2]
    return kwargs.get("constraint", matcher.Constraint.RPBMC)


def _match_name(args, kwargs):
    return f"matcher.match.{_constraint(args, kwargs).value}"


def _count_match(c, args, kwargs, out):
    c["matcher.match.calls"] += 1
    if out.constraint is matcher.Constraint.RPBMC:
        c["matcher.match.rpbmc.calls"] += 1
        c["matcher.rpbmc.inf"] += math.isinf(out.combined)


def _count_vertex(c, args, kwargs, out):
    # gibmc_vertex_score runs on the gibmc path only: one minimum per
    # gallery vertex enters the pairing
    c["matcher.gibmc.pairing_in"] += len(out[0])


def _count_protocol(c, args, kwargs, out):
    c["evaluation.claims"] += len(out.records)


def _count_save(c, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    c["store.save.bytes"] += os.path.getsize(path)


def _count_store_load(c, args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    c["store.load.bytes"] += os.path.getsize(path)


# (module, attribute, span name or name function, count function)
TARGETS = (
    (imageio, "load_image", "imageio.load", _count_load),
    (imageio, "histogram_equalize", "imageio.equalize", None),
    (sift, "extract_features", "sift.extract", _count_extract),
    (sift, "build_scale_space", "sift.scale_space", _count_scale_space),
    (sift, "detect_keypoints", "sift.extrema", _count_extrema),
    (sift, "localize_keypoint", "sift.localize", _count_localize),
    (sift, "assign_orientations", "sift.orientation", _count_orientation),
    (sift, "compute_descriptor", "sift.descriptor", _count_descriptor),
    (facegraph, "build_graph", "facegraph.build_graph", _count_build_graph),
    (store, "build_graph", "facegraph.build_graph", _count_build_graph),
    (matcher, "mutual_correspondence", "facegraph.correspondence", _count_correspondence),
    (matcher, "edge_component_arrays", "facegraph.edge_arrays", _count_edge_arrays),
    (matcher, "match", _match_name, _count_match),
    (evaluation, "match", _match_name, _count_match),
    (matcher, "gibmc_vertex_score", "matcher.vertex", _count_vertex),
    (matcher, "rpbmc_pairs", "matcher.pairing", None),
    (matcher, "gibmc_edge_score", "matcher.edge", None),
    (matcher, "weighted_mean", "matcher.weight", None),
    (matcher, "identify", "matcher.identify", None),
    (evaluation, "run_protocol", "evaluation.protocol", _count_protocol),
    (store, "save", "store.save", _count_save),
    (store, "load", "store.load", _count_store_load),
)


class NoTrace:
    """Stand-in for the timed runs: records nothing."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def request(self):
        return nullcontext()

    def paused(self):
        return nullcontext()


class Tracer:
    """Records spans around the wrapped library calls while installed."""

    def __init__(self):
        # (name, t_in, t0, t1, t_out, parent index, request id); t0..t1
        # is the wrapped call, t_in..t_out includes the wrapper itself
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.overhead_s = 0.0
        self._stack: list[tuple[int, str]] = []
        self._request = 0
        self._paused = False
        self._restore: list[tuple] = []

    def start(self) -> None:
        """Wrap the library's functions; set-up done before this records no spans."""
        for module, attr, name, count in TARGETS:
            fn = getattr(module, attr)
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def stop(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            span_name = name(args, kwargs) if callable(name) else name
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer._stack.append((index, span_name))
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                # a failed call keeps its span; the op is counted as failed
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (span_name, t_in, t0, t1, t1, parent, tracer._request)
                raise
            t1 = perf_counter()
            tracer._stack.pop()
            tracer._on_return(span_name, count, args, kwargs, out)
            t_out = perf_counter()
            tracer.spans[index] = (span_name, t_in, t0, t1, t_out, parent, tracer._request)
            tracer.overhead_s += (t0 - t_in) + (t_out - t1)
            return out

        return wrapper

    def _on_return(self, span_name, count, args, kwargs, out):
        if count is not None:
            count(self.counts, args, kwargs, out)
        if (
            span_name == "matcher.edge"
            and self._stack
            and self._stack[-1][1] == "matcher.match.gibmc"
        ):
            # pairs the gibmc edge stage runs on, after dedup by target
            self.counts["matcher.gibmc.pairing_kept"] += len(args[2])

    @contextmanager
    def request(self):
        """One benchmark op (image, protocol call or query) as a root span."""
        self._request += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append((index, REQUEST))
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[index] = (REQUEST, t0, t0, t1, t1, -1, self._request)

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def self_times(self) -> Counter:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, t_in, _, _, t_out, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t_out - t_in
        totals: Counter = Counter()
        for (name, _, t0, t1, _, _, _), child in zip(self.spans, covered):
            totals[name] += (t1 - t0) - child
        return totals

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span\tparent\trequest\tname\tstart\tend\n")
            for i, (name, _, t0, t1, _, parent, req) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{req}\t{name}\t{t0!r}\t{t1!r}\n")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", ".per_point", ".pairs_per_call")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    # a ratio whose base is 0 (layer not exercised) reads 0; its base
    # counts are reported beside it
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass over the workload's inputs."""
    self_s = tracer.self_times()
    c = tracer.counts
    out: dict[str, float] = {}
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_s"] = self_s[name] / passes
    for name in COUNTS:
        out[name] = c[name] / passes
    out["sift.localize.accept_ratio"] = _ratio(
        c["sift.localize.accepted"], c["sift.localize.calls"]
    )
    out["sift.orientation.per_point"] = _ratio(
        c["sift.orientation.points"], c["sift.orientation.calls"]
    )
    out["sift.descriptor.keep_ratio"] = _ratio(
        c["sift.descriptor.kept"], c["sift.descriptor.calls"]
    )
    out["facegraph.correspondence.pairs_per_call"] = _ratio(
        c["facegraph.correspondence.pairs"], c["facegraph.correspondence.calls"]
    )
    out["matcher.rpbmc.inf_share"] = _ratio(
        c["matcher.rpbmc.inf"], c["matcher.match.rpbmc.calls"]
    )
    out["matcher.gibmc.pairing_keep_ratio"] = _ratio(
        c["matcher.gibmc.pairing_kept"], c["matcher.gibmc.pairing_in"]
    )
    out["trace.unattributed_s"] = self_s[REQUEST] / passes
    out["trace.overhead_s"] = tracer.overhead_s / passes
    out["trace.spans"] = len(tracer.spans) / passes
    return out


SELF_TIME_SPANS = (
    "imageio.load",
    "imageio.equalize",
    "sift.scale_space",
    "sift.extrema",
    "sift.localize",
    "sift.orientation",
    "sift.descriptor",
    "sift.extract",
    "facegraph.build_graph",
    "facegraph.correspondence",
    "facegraph.edge_arrays",
    "matcher.match.gibmc",
    "matcher.match.rpbmc",
    "matcher.vertex",
    "matcher.pairing",
    "matcher.edge",
    "matcher.weight",
    "matcher.identify",
    "evaluation.protocol",
    "store.save",
    "store.load",
)

COUNTS = (
    "imageio.load.bytes",
    "sift.scale_space.pixels",
    "sift.extrema.candidates",
    "sift.localize.calls",
    "sift.localize.accepted",
    "sift.localize.reject.low_contrast",
    "sift.localize.reject.edge_response",
    "sift.localize.reject.out_of_bounds",
    "sift.localize.reject.max_iterations",
    "sift.orientation.calls",
    "sift.orientation.points",
    "sift.descriptor.calls",
    "sift.descriptor.kept",
    "sift.extract.keypoints",
    "facegraph.build_graph.vertices",
    "facegraph.correspondence.calls",
    "facegraph.correspondence.pairs",
    "facegraph.edge_arrays.edges",
    "matcher.match.calls",
    "matcher.match.rpbmc.calls",
    "matcher.rpbmc.inf",
    "matcher.gibmc.pairing_in",
    "matcher.gibmc.pairing_kept",
    "evaluation.claims",
    "store.save.bytes",
    "store.load.bytes",
)
