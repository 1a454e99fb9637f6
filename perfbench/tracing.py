"""Spans at the layer boundaries listed in layers.json.

``Tracer.install`` rebinds every boundary to a wrapper that records a
span (boundary, start, end, parent span).  Spans are kept in flat
arrays until ``summary`` folds them into per-layer call counts and self
times (a span's duration minus the time its child spans cover), plus
the extra counters some boundaries feed from their arguments or
results.  Only the traced worker process ever installs a tracer.
"""

import importlib
import inspect
import json
import os
import time
from array import array
from pathlib import Path

LAYERS_FILE = Path(__file__).with_name("layers.json")

# Inclusive time of one boundary, reported as its own metric.
INCLUSIVE = {
    "wpo.badseq:write_run": "badseq.io.write_s",
    "wpo.badseq:read_run": "badseq.io.read_s",
    "wpo.badseq:generate": "badseq.generate_s",
    "wpo.badseq:audit_run": "badseq.audit_s",
    "wpo.badseq:verify_bad": "badseq.verify_bad_s",
}


def _add(key, value):
    def hook(extras, args, result):
        extras[key] += value(args, result)
    return hook


def _max(key, value):
    def hook(extras, args, result):
        extras[key] = max(extras[key], value(args, result))
    return hook


def _points(args, result):
    return len(args[0]) if hasattr(args[0], "__len__") else 0


# Counters fed by a boundary, keyed by the attribute name.
HOOKS = {
    "hardy": _add("ordinal.hardy_steps", lambda a, r: r.steps),
    "minimal_points": _add("vectors.points_in", _points),
    "maximal_points": _add("vectors.points_in", _points),
    "MonomialIdeal.intersect": _max("monomial.max_gens", lambda a, r: len(r.gens)),
    "parse_ideal": _max("monomial.max_gens", lambda a, r: len(r.gens)),
    "GeneralLowerSet.make": _max("lowerset.max_boxes", lambda a, r: len(r.rects)),
    "parse_gls": _max("lowerset.max_boxes", lambda a, r: len(r.rects)),
    "write_run": _add("badseq.io.bytes", lambda a, r: os.path.getsize(a[1])),
    "read_run": _add("badseq.io.bytes", lambda a, r: os.path.getsize(a[0])),
    "verify_bad": _add("badseq.pairs_checked", lambda a, r: r.pairs_checked),
}


def load_layers():
    with open(LAYERS_FILE) as fh:
        return json.load(fh)["layers"]


class Tracer:
    def __init__(self):
        layers = load_layers()
        self.layer_names = [layer["name"] for layer in layers]
        self.extra_names = [x for layer in layers for x in layer["extras"]]
        self.boundaries = [(k, b) for k, layer in enumerate(layers)
                           for b in layer["boundaries"]]
        self.missing = []
        self.reset()

    def reset(self):
        self.span_boundary = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.calls = [0] * len(self.boundaries)
        self.extras = dict.fromkeys(self.extra_names, 0)

    def _open(self, bid):
        idx = len(self.span_boundary)
        self.span_boundary.append(bid)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _wrap(self, bid, fn, hook):
        tracer = self
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # One call, one span per resumption: the work of a generator
            # happens while its consumer asks for the next item.
            def traced(*args, **kwargs):
                tracer.calls[bid] += 1
                items = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(bid)
                    start = clock()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        tracer.stack.pop()
                        tracer.span_start[idx] = start
                        tracer.span_end[idx] = end
                    yield item
        else:
            def traced(*args, **kwargs):
                tracer.calls[bid] += 1
                idx = tracer._open(bid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    tracer.stack.pop()
                    tracer.span_start[idx] = start
                    tracer.span_end[idx] = end
                if hook is not None:
                    hook(tracer.extras, args, result)
                return result

        return traced

    def install(self):
        """Rebind every boundary; unknown names go to ``missing``."""
        for bid, (_, target) in enumerate(self.boundaries):
            module, _, path = target.partition(":")
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(target)
                continue
            hook = HOOKS.get(path)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(bid, raw.__func__, hook)))
            else:
                setattr(owner, attr, self._wrap(bid, raw, hook))

    def summary(self) -> dict:
        """Per-layer calls and self time, and the extra counters."""
        n = len(self.span_boundary)
        child = [0.0] * n
        dur = [self.span_end[k] - self.span_start[k] for k in range(n)]
        for k in range(n):
            p = self.span_parent[k]
            if p >= 0:
                child[p] += dur[k]
        layer_of = [layer for layer, _ in self.boundaries]
        self_s = [0.0] * len(self.layer_names)
        inclusive = dict.fromkeys(INCLUSIVE.values(), 0.0)
        inclusive_of = {bid: INCLUSIVE[b] for bid, (_, b) in enumerate(self.boundaries)
                        if b in INCLUSIVE}
        for k in range(n):
            bid = self.span_boundary[k]
            self_s[layer_of[bid]] += dur[k] - child[k]
            if bid in inclusive_of:
                inclusive[inclusive_of[bid]] += dur[k]
        calls = [0] * len(self.layer_names)
        for bid, count in enumerate(self.calls):
            calls[layer_of[bid]] += count
        out = {}
        for k, name in enumerate(self.layer_names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        out.update(self.extras)
        out.update(inclusive)
        return out

    def boundary_calls(self) -> dict:
        return {b: self.calls[bid] for bid, (_, b) in enumerate(self.boundaries)}
