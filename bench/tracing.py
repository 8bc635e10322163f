"""Spans and counters recorded around the public functions of each layer.

The tracer replaces a module-level name in the namespace of the module that
*calls* it, so one function gets a span name per caller:
`swmparc.parcellation.sbr_rigid` is the global registration and
`swmparc.registration.sbr_rigid` the local one; `swmparc.parcellation.
quickbundles` is global QuickBundles and `swmparc.registration.quickbundles`
the local one.  Only public names are wrapped.  A name that no longer exists,
or a result that no longer has the shape a counter reads, makes the metrics
that depend on it null and prints a warning; the run goes on.

Each span records its name, start, end, parent span and thread.  Spans stay in
memory until `Tracer.dump` writes them.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.

Counters are deterministic: they come from wrapper arguments and return
values, never from clocks, so two runs of one program repeat them exactly.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time

FEATURES = (
    "length_mm",
    "dist_to_barycenter_mm",
    "mmea_mm",
    "plane_angle_deg",
    "direction_angle_deg",
    "shape_angle_deg",
)

# span name of the benchmark's own root spans around each command
BUILD_ATLAS = "cli.build_atlas"
PARCELLATE = "cli.parcellate"


class Tracer:
    """Span and counter store for one pass; one trace id per pass."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[tuple] = []          # (id, parent, name, thread, start, end)
        self.values: dict[str, list] = {}     # counter name -> observed values
        self.dead: set[str] = set()           # span names whose data is incomplete
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None                     # parent of spans on pool threads
        self._subject = None                  # subject array of the current global_align
        self._installed: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((sid, parent, name, threading.get_ident(), start, end))

    def root(self, name: str, fn, *args):
        """Call fn(*args) inside a root span; spans on other threads hang off it."""
        sid, parent = self._open()
        self._root = sid
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, name, start)
            self._root = None

    # -- counters -----------------------------------------------------------

    def add(self, key: str, value) -> None:
        with self._lock:
            self.values.setdefault(key, []).append(value)

    def total(self, key: str):
        return sum(self.values.get(key, ()))

    def duration(self, name: str) -> float:
        """Summed duration of the spans called `name` (busy time)."""
        return sum(s[5] - s[4] for s in self.spans if s[2] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def wall(self, name: str) -> float:
        """From the first `name` span's start to the last one's end."""
        spans = [s for s in self.spans if s[2] == name]
        return max(s[5] for s in spans) - min(s[4] for s in spans) if spans else 0.0

    def outside(self, name: str, child: str) -> float:
        """Summed duration of `name` spans minus the time their `child` spans cover."""
        kids: dict = {}
        for s in self.spans:
            if s[2] == child:
                kids.setdefault(s[1], []).append((s[4], s[5]))
        return sum((s[5] - s[4]) - _covered(kids.get(s[0], ()))
                   for s in self.spans if s[2] == name)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, target: str, name: str, on_return=None, on_call=None) -> None:
        """Replace `module:attr` (or `module:Class.method`) by a span wrapper.

        on_call(tracer, args, kwargs) runs before the call and
        on_return(tracer, args, kwargs, result) after it.
        """
        module_name, path = target.split(":")
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self._warn(f"{target} not found; metrics from span {name} are null")
            self.dead.add(name)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                tracer._hook(name, on_call, args, kwargs)
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)
            if on_return is not None:
                tracer._hook(name, on_return, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def _hook(self, name, hook, *hook_args) -> None:
        if name in self.dead:
            return
        try:
            hook(self, *hook_args)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError) as e:
            self._warn(f"counter on span {name} failed ({e!r}); its metrics are null")
            self.dead.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    @staticmethod
    def _warn(message: str) -> None:
        print(f"warning: trace: {message}", file=sys.stderr)

    def dump(self, path: str, **extra) -> None:
        spans = [dict(id=s[0], parent=s[1], name=s[2], thread=s[3], start=s[4], end=s[5])
                 for s in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(dict(trace_id=self.trace_id, spans=spans,
                           dead=sorted(self.dead), **extra), fh)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# -- counter hooks ----------------------------------------------------------

def _on_read(t, args, kwargs, result):
    t.add("tckio.read_triplets", sum(len(s) for s in result))


def _on_resample(t, args, kwargs, result):
    t.add("geometry.resample_streamlines", len(_arg(args, kwargs, 0, "streamlines")))


def _on_build_atlas(t, args, kwargs, atlas):
    for model in atlas.bundles:
        for interval in model.thresholds.values():
            if interval.informative:
                t.add("fitting.intervals", 1)
                t.add("fitting.fallbacks", int(interval.source != "fitted"))


def _on_atlas_mmea(t, args, kwargs, result):
    t.add("atlas.mmea_pairs", result.shape[0] * result.shape[1])


def _on_global_align(t, args, kwargs):
    t._subject = _arg(args, kwargs, 1, "subject_streamlines")


def _on_global_qb(t, args, kwargs, clusters):
    if _arg(args, kwargs, 0, "streamlines") is t._subject:
        t.add("clustering.global_subject_centroids", len(clusters))
        t.add("clustering.subject_singletons", sum(1 for c in clusters if c.count == 1))
    else:
        t.add("clustering.global_atlas_centroids", len(clusters))


def _on_global_sbr(t, args, kwargs, result):
    t.add("registration.global_evals", result.iterations)


def _on_bundle(t, args, kwargs, result):
    t.add("parcellation.candidates", len(result.decisions))
    t.add("parcellation.accepted", len(result.accepted_indices))
    for decision in result.decisions:
        for feature, ok in decision.passed.items():
            if not ok:
                t.add(f"parcellation.rejected.{feature}", 1)


def _on_lsnr(t, args, kwargs, result):
    t.add("registration.subject_neighborhood", len(result.neighborhood))
    t.add("registration.absent", int(result.absent))


def _on_neighborhood(t, args, kwargs, result):
    t.add("registration.neighborhood_members", len(result))


def _on_local_qb(t, args, kwargs, clusters):
    t.add("clustering.local_centroids", len(clusters))


def _on_local_sbr(t, args, kwargs, result):
    t.add("registration.local_evals", result.iterations)


def _on_mdf(t, args, kwargs, result):
    a = _arg(args, kwargs, 0, "A")
    n, m = result.shape
    k = len(a[0])
    t.add("distances.mdf_pairs", n * m * k)
    t.add("distances.mdf_block_bytes", n * m * k * 8)


def _on_candidates(t, args, kwargs, result):
    t.add("spatial.grid_candidates", len(result))


# (target, span name, on_return, on_call)
TARGETS = (
    ("swmparc.cli:read_tck", "tckio.read", _on_read, None),
    ("swmparc.serialization:read_tck", "tckio.read", _on_read, None),
    ("swmparc.serialization:write_tck", "tckio.write", None, None),
    ("swmparc.cli:resample_all", "geometry.resample", _on_resample, None),
    ("swmparc.cli:build_atlas", "atlas.build_atlas", _on_build_atlas, None),
    ("swmparc.cli:write_atlas", "serialization.write_atlas", None, None),
    ("swmparc.cli:read_atlas", "serialization.read_atlas", None, None),
    ("swmparc.cli:parcellate", "parcellation.parcellate", None, None),
    ("swmparc.cli:write_result", "serialization.write_result", None, None),
    ("swmparc.atlas:compute_feature_samples", "atlas.feature_samples", None, None),
    ("swmparc.atlas:pairwise_mmea", "atlas.mmea", _on_atlas_mmea, None),
    ("swmparc.atlas:select_best", "fitting.select_best", None, None),
    ("swmparc.parcellation:global_align", "parcellation.global_align", None, _on_global_align),
    ("swmparc.parcellation:quickbundles", "clustering.global_qb", _on_global_qb, None),
    ("swmparc.parcellation:sbr_rigid", "registration.global_sbr", _on_global_sbr, None),
    ("swmparc.parcellation:StreamlineGrid", "spatial.grid_build", None, None),
    ("swmparc.parcellation:parcellate_bundle", "parcellation.bundle", _on_bundle, None),
    ("swmparc.parcellation:lsnr", "registration.lsnr", _on_lsnr, None),
    ("swmparc.parcellation:pairwise_mmea", "parcellation.mmea", None, None),
    ("swmparc.registration:extract_neighborhood", "registration.neighborhood",
     _on_neighborhood, None),
    ("swmparc.registration:quickbundles", "clustering.local_qb", _on_local_qb, None),
    ("swmparc.registration:sbr_rigid", "registration.local_sbr", _on_local_sbr, None),
    ("swmparc.registration:bundle_min_distance", "distances.bmd", None, None),
    ("swmparc.distances:pairwise_mdf", "distances.pairwise_mdf", _on_mdf, None),
    ("swmparc.spatial:StreamlineGrid.sphere_candidates", "spatial.query", _on_candidates, None),
)


def install(trace_id: int) -> Tracer:
    tracer = Tracer(trace_id)
    for target, name, on_return, on_call in TARGETS:
        tracer.wrap(target, name, on_return=on_return, on_call=on_call)
    return tracer


# -- per-layer metrics --------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Span name -> summed self time (duration minus time covered by children)."""
    children: dict = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    out: dict[str, float] = {}
    for sid, _, name, _, start, end in spans:
        inner = [(max(a, start), min(b, end)) for a, b in children.get(sid, ()) if b > start and a < end]
        out[name] = out.get(name, 0.0) + (end - start) - _covered(inner)
    return out


def _ratio(a, b):
    return a / b if b else None


def _mean(values):
    return statistics.fmean(values) if values else None


def _busy(span: str):
    """Summed duration of a span name."""
    return "s", (span,), lambda t: t.duration(span)


def _sum(counter: str, *needs: str):
    return "count", needs, lambda t: t.total(counter)


def _max(counter: str, span: str):
    return "count", (span,), lambda t: max(t.values.get(counter, [0]))


def _avg(counter: str, span: str):
    return "count", (span,), lambda t: _mean(t.values.get(counter))


def _share(part: str, whole: str, *needs: str):
    return "ratio", needs, lambda t: _ratio(t.total(part), t.total(whole))


# name -> (unit, span names whose wrappers it needs, value from a finished Tracer)
METRICS = {
    # global stage
    "registration.global_sbr_s": _busy("registration.global_sbr"),
    "registration.global_evals": _sum("registration.global_evals", "registration.global_sbr"),
    "distances.bmd_calls": ("count", ("distances.bmd",), lambda t: t.count("distances.bmd")),
    "distances.bmd_s": _busy("distances.bmd"),
    "distances.mdf_pairs": _sum("distances.mdf_pairs", "distances.pairwise_mdf"),
    "clustering.global_qb_s": _busy("clustering.global_qb"),
    "clustering.global_subject_centroids": _sum(
        "clustering.global_subject_centroids", "clustering.global_qb", "parcellation.global_align"),
    "clustering.global_atlas_centroids": _sum(
        "clustering.global_atlas_centroids", "clustering.global_qb", "parcellation.global_align"),
    "clustering.subject_singleton_share": _share(
        "clustering.subject_singletons", "clustering.global_subject_centroids",
        "clustering.global_qb", "parcellation.global_align"),
    # local stage
    "registration.local_sbr_s": _busy("registration.local_sbr"),
    "registration.local_evals_sum": _sum("registration.local_evals", "registration.local_sbr"),
    "registration.local_evals_max": _max("registration.local_evals", "registration.local_sbr"),
    "clustering.local_qb_s": _busy("clustering.local_qb"),
    "clustering.local_centroids_mean": _avg("clustering.local_centroids", "clustering.local_qb"),
    "registration.neighborhood_s": _busy("registration.neighborhood"),
    "registration.subject_neighborhood_mean": _avg("registration.subject_neighborhood",
                                                   "registration.lsnr"),
    "registration.subject_neighborhood_max": _max("registration.subject_neighborhood",
                                                  "registration.lsnr"),
    "registration.absent_bundles": _sum("registration.absent", "registration.lsnr"),
    # bundle scheduling
    "parcellation.global_align_s": _busy("parcellation.global_align"),
    "parcellation.bundles_wall_s": ("s", ("parcellation.bundle",),
                                    lambda t: t.wall("parcellation.bundle")),
    "parcellation.bundle_busy_s": _busy("parcellation.bundle"),
    # features and decisions
    "parcellation.features_s": ("s", ("parcellation.bundle", "registration.lsnr"),
                                lambda t: t.outside("parcellation.bundle", "registration.lsnr")),
    "parcellation.mmea_s": _busy("parcellation.mmea"),
    "parcellation.candidates": _sum("parcellation.candidates", "parcellation.bundle"),
    "parcellation.accept_ratio": _share("parcellation.accepted", "parcellation.candidates",
                                        "parcellation.bundle"),
    **{f"parcellation.rejected.{f}": _sum(f"parcellation.rejected.{f}", "parcellation.bundle")
       for f in FEATURES},
    # spatial index
    "spatial.grid_build_s": _busy("spatial.grid_build"),
    "spatial.query_s": _busy("spatial.query"),
    "spatial.candidate_hit_ratio": _share("registration.neighborhood_members",
                                          "spatial.grid_candidates",
                                          "spatial.query", "registration.neighborhood"),
    # ingest and output
    "tckio.read_s": _busy("tckio.read"),
    "tckio.read_triplets": _sum("tckio.read_triplets", "tckio.read"),
    "tckio.write_s": _busy("tckio.write"),
    "geometry.resample_s": _busy("geometry.resample"),
    "geometry.resample_streamlines": _sum("geometry.resample_streamlines", "geometry.resample"),
    "serialization.read_atlas_s": _busy("serialization.read_atlas"),
    "serialization.write_atlas_s": _busy("serialization.write_atlas"),
    "serialization.write_result_s": _busy("serialization.write_result"),
    # atlas analysis
    "atlas.feature_samples_s": _busy("atlas.feature_samples"),
    "atlas.mmea_pairs": _sum("atlas.mmea_pairs", "atlas.mmea"),
    # computed from array shapes, not measured: the largest (K, n, m) float64
    # block one pairwise_mdf call asks for, and the point-distance values all
    # calls compute, direct and flipped
    "distances.mdf_peak_temp_mb": (
        "MB", ("distances.pairwise_mdf",),
        lambda t: max(t.values.get("distances.mdf_block_bytes", [0])) / 1e6),
    "distances.mdf_computed_mb": ("MB", ("distances.pairwise_mdf",),
                                  lambda t: 2 * t.total("distances.mdf_block_bytes") / 1e6),
    "fitting.select_best_s": _busy("fitting.select_best"),
    "fitting.select_best_calls": ("count", ("fitting.select_best",),
                                  lambda t: t.count("fitting.select_best")),
    "fitting.fallback_share": _share("fitting.fallbacks", "fitting.intervals", "atlas.build_atlas"),
    # the commands themselves, for shares of the end-to-end times
    "cli.build_atlas_s": _busy(BUILD_ATLAS),
    "cli.parcellate_s": _busy(PARCELLATE),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values of one pass; null where a wrapper is missing."""
    return {name: None if any(n in tracer.dead for n in needs) else value(tracer)
            for name, (_, needs, value) in METRICS.items()}
