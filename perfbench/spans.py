"""Spans and counters recorded by wrappers around the program's functions.

Each wrapper is installed on the module attribute its caller looks the name
up in (``pipeline.extract_chain``, not ``link.extract_chain``), so the
program runs unchanged apart from the timing calls.  A hook whose attribute
no longer exists is skipped with a warning naming it; the metrics it feeds
then read null instead of failing the run.

A span is ``(name, start, end, parent, position)``: ``parent`` indexes the
enclosing span (-1 for none) and ``position`` is the route index being
evaluated, or None outside ``predict_position``.  A layer's self time is its
spans' durations minus the time their child spans cover.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

POSITION_SPAN = "pipeline.position"

# (module, attribute, span name, counter observer name or None).  Several
# hooks may share a span name; their self times add up in that layer.
HOOKS = (
    ("cli", "load_config", "config.load", None),
    ("cli", "load_route", "config.load", None),
    ("cli", "load_map", "geometry.load_map", None),
    ("cli", "predict_route", "pipeline.predict_route", None),
    ("pipeline", "predict_position", POSITION_SPAN, None),
    # identify_position's own time is candidate-selection glue; counting it
    # there keeps identify.candidates_s whole if the passes are restructured.
    ("pipeline", "identify_position", "identify.candidates", None),
    ("identify", "initial_identification", "identify.candidates", "candidates"),
    ("identify", "classify_link", "identify.classify", None),
    ("identify", "visible_identification", "identify.visibility", "visible"),
    ("pipeline", "extract_chain", "link.extract_chain", "stages"),
    ("pipeline", "total_field", "link.total_field", "capped"),
    ("baselines", "total_field", "link.total_field", None),
    ("link", "recursive_chain", "fields.recursive_chain", None),
    ("link", "f_block", "geometry.f_block", None),
    ("kernels", "segment_triangles", "kernels", "kernel"),
    ("cli", "route_doppler", "doppler", None),
    ("cli", "route_velocities", "doppler.route_velocities", None),
    ("doppler", "route_velocities", "doppler.route_velocities", None),
)


def _observe_kernel(counts, args, kwargs, out):
    counts["kernels.triangles_tested"] += len(args[2])
    counts["kernels.hits"] += int(np.count_nonzero(np.isfinite(out)))


def _observe_candidates(counts, args, kwargs, out):
    counts["identify.candidates"] += sum(
        len(s.left) + len(s.right) for _cls, segs in out for s in segs)
    counts["identify.positions"] += len(out)


def _observe_visible(counts, args, kwargs, out):
    counts["identify.visible"] += sum(
        len(v.left) + len(v.right) for v in out.visible)


def _observe_stages(counts, args, kwargs, out):
    stages, _term = out
    counts["link.stages"] += len(stages)
    counts["link.chains"] += 1


def _observe_capped(counts, args, kwargs, out):
    counts["link.capped"] += int(bool(out.capped))
    counts["link.full_fields"] += 1


OBSERVERS = {
    "kernel": _observe_kernel,
    "candidates": _observe_candidates,
    "visible": _observe_visible,
    "stages": _observe_stages,
    "capped": _observe_capped,
}


def warn(message):
    print(f"perfbench: warning: {message}", file=sys.stderr)


class Tracer:
    """Records the spans and counts of one command at a time.

    ``install`` wraps the hooks for the next command, ``uninstall`` restores
    the program, and ``reset`` clears the record.  A missing hook or a
    failing counter is reported once per tracer, not once per command.
    """

    def __init__(self):
        self._saved = []
        self._warned = set()
        self._broken = set()          # observers that raised once
        self.installed = set()        # span names with at least one hook
        self.observed = set()         # observers installed and not broken
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._position = None

    def _warn_once(self, message):
        if message not in self._warned:
            self._warned.add(message)
            warn(message)

    def _wrap(self, name, fn, observer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            if name == POSITION_SPAN:
                tracer._position = tracer.counts["pipeline.positions"]
                tracer.counts["pipeline.positions"] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer._position)
                if name == POSITION_SPAN:
                    tracer._position = None
            if observer in tracer.observed:
                try:
                    OBSERVERS[observer](tracer.counts, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError) as exc:
                    tracer.observed.discard(observer)
                    tracer._broken.add(observer)
                    tracer._warn_once(f"counter '{observer}' on {name} failed "
                                      f"({exc!r}); its metrics are null")
            return out

        return wrapper

    def install(self, modules):
        """Wrap every hook found in ``modules`` (short name -> module)."""
        self.installed, self.observed = set(), set()
        for mod_name, attr, name, observer in HOOKS:
            fn = getattr(modules.get(mod_name), attr, None)
            if not callable(fn):
                self._warn_once(f"hook {mod_name}.{attr} not found; "
                                f"its metrics are null")
                continue
            self._saved.append((modules[mod_name], attr, fn))
            setattr(modules[mod_name], attr, self._wrap(name, fn, observer))
            self.installed.add(name)
            if observer is not None and observer not in self._broken:
                self.observed.add(observer)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` as a top-level span named ``name``."""
        self.installed.add(name)
        return self._wrap(name, fn, None)(*args)

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _pos in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _parent, _pos) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return out

    def durations(self, name):
        return [end - start for n, start, end, _p, _pos in self.spans
                if n == name]

    def count_spans(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, fh, command_index):
        for name, start, end, parent, pos in self.spans:
            fh.write(json.dumps({"command": command_index, "name": name,
                                 "start": start, "end": end,
                                 "parent": parent, "position": pos}) + "\n")


# Per-layer self-time metrics: metric -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "config.load_s": ("config.load",),
    "geometry.load_map_s": ("geometry.load_map",),
    "kernels.s": ("kernels",),
    "identify.classify_s": ("identify.classify",),
    "identify.candidates_s": ("identify.candidates",),
    "identify.visibility_s": ("identify.visibility",),
    "link.extract_chain_s": ("link.extract_chain",),
    "link.total_field_s": ("link.total_field",),
    "geometry.f_block_s": ("geometry.f_block",),
    "fields.recursive_chain_s": ("fields.recursive_chain",),
    "doppler.route_doppler_s": ("doppler", "doppler.route_velocities"),
    "pipeline.predict_route_s": ("pipeline.predict_route", POSITION_SPAN),
    "cli.write_s": ("cli",),
}


def _ratio(num, den):
    return num / den if den else None


def command_metrics(tracer):
    """Per-layer metrics of the one command ``tracer`` recorded.

    Times are self seconds; every other value is a count or a ratio of
    counts, which the same code and inputs must repeat exactly.
    """
    times = tracer.self_times()
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        if any(n in tracer.installed for n in names):
            out[metric] = sum(times.get(n, 0.0) for n in names)
        else:
            out[metric] = None

    c = tracer.counts

    def spans_of(name):
        return tracer.count_spans(name) if name in tracer.installed else None

    def observed(observer, value):
        return value() if observer in tracer.observed else None

    out["kernels.calls"] = spans_of("kernels")
    out["kernels.triangles_tested"] = observed(
        "kernel", lambda: c["kernels.triangles_tested"])
    out["kernels.hit_ratio"] = observed(
        "kernel", lambda: _ratio(c["kernels.hits"],
                                 c["kernels.triangles_tested"]))
    out["identify.candidates_per_position"] = observed(
        "candidates", lambda: _ratio(c["identify.candidates"],
                                     c["identify.positions"]))
    out["identify.visible_ratio"] = (
        _ratio(c["identify.visible"], c["identify.candidates"])
        if {"candidates", "visible"} <= tracer.observed else None)
    out["link.stages_per_position"] = observed(
        "stages", lambda: _ratio(c["link.stages"], c["link.chains"]))
    out["link.capped_fraction"] = observed(
        "capped", lambda: _ratio(c["link.capped"], c["link.full_fields"]))
    out["geometry.f_block_calls"] = spans_of("geometry.f_block")
    out["doppler.route_velocities_calls"] = spans_of("doppler.route_velocities")
    out["pipeline.positions"] = spans_of(POSITION_SPAN)
    return out
