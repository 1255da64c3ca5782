"""In-memory span recorder for the traced benchmark run.

A span is (name, tag, start, end, parent, op): ``name`` is ``layer.call``
(the layer is the curvfun module the call enters), ``tag`` qualifies it
(dimension, node count, claim), ``parent`` is the index of the enclosing
span or -1, and ``op`` is the id of the benchmark operation it belongs to.
Spans are only recorded around calls the benchmark itself makes, so a
span's self time is the time spent inside that public call minus the
benchmark spans nested in it.
"""

import json
import time
from contextlib import nullcontext

_perf = time.perf_counter


class NullTracer:
    """Tracing switched off: every hook is a no-op."""

    enabled = False
    op = None

    def span(self, name, tag=""):
        return nullcontext()

    def count(self, name, value=1):
        pass


class Tracer:
    """Records spans and counters in memory; written out once at the end."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = None
        self._stack = []

    def span(self, name, tag=""):
        return _Span(self, name, tag)

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def durations(self, name, tag=None, prefix=None):
        """Durations in seconds of the spans with this name (and tag)."""
        out = []
        for s in self.spans:
            if s[0] != name:
                continue
            if tag is not None and s[1] != tag:
                continue
            if prefix is not None and not s[1].startswith(prefix):
                continue
            out.append(s[3] - s[2])
        return out

    def self_times(self):
        """Per-layer self time in seconds and the wall covered by root spans."""
        child = [0.0] * len(self.spans)
        root_wall = 0.0
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
            else:
                root_wall += s[3] - s[2]
        layers = {}
        for i, s in enumerate(self.spans):
            layer = s[0].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (s[3] - s[2]) - child[i]
        return layers, root_wall

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write(json.dumps({"counters": self.counters}, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name, tag):
        self.tracer = tracer
        self.rec = [name, tag, 0.0, 0.0, -1, None]

    def __enter__(self):
        tr = self.tracer
        rec = self.rec
        rec[4] = tr._stack[-1] if tr._stack else -1
        rec[5] = tr.op
        tr._stack.append(len(tr.spans))
        tr.spans.append(rec)
        rec[2] = _perf()
        return self

    def __exit__(self, *exc):
        self.rec[3] = _perf()
        self.tracer._stack.pop()
        return False
