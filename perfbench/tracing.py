"""Spans around the package's public functions, installed from outside.

The package itself is not edited: `Tracer.install` replaces each traced
function by a wrapper in every designcodes module namespace that holds it
(names imported with `from .x import f` are separate bindings), and each
traced method on its class.  `uninstall` puts the originals back.

A span is (id, parent id, root id, name, start, end); spans of one
top-level call share the root id.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute or Class.method, span name)
TARGETS = (
    ("field", "matrix_rank", "field.matrix_rank"),
    ("pspace", "superspaces", "pspace.superspaces"),
    ("pspace", "points_of_subspace", "pspace.points_of_subspace"),
    ("designs", "load_subspace_design", "designs.load"),
    ("designs", "verify_subspace_design", "designs.verify"),
    ("designs", "trivial_design", "designs.trivial_design"),
    ("designs", "projective_version", "designs.projective_version"),
    ("codes", "build_code", "codes.build_code"),
    ("codes", "BinaryCode.nullspace_basis", "codes.nullspace_basis"),
    ("codes", "BinaryCode.random_codeword", "codes.random_codeword"),
    ("codes", "BinaryCode.is_codeword", "codes.is_codeword"),
    ("decoders", "OneStepDecoder.__init__", "decoders.build"),
    ("decoders", "TwoStepDecoder.__init__", "decoders.build"),
    ("decoders", "OneStepDecoder.decode", "decoders.decode"),
    ("decoders", "TwoStepDecoder.decode", "decoders.decode"),
    ("decoders", "simulate", "decoders.simulate"),
    ("decoders", "measure_decoding_radius", "decoders.radius"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self._stack: list[tuple[int, int]] = []  # (span id, root id)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent, root = tracer._stack[-1] if tracer._stack else (None, sid)
            tracer._stack.append((sid, root))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, root, name, start, end))

        return traced

    def install(self, package) -> None:
        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == package.__name__ or key.startswith(package.__name__ + ".")
        ]
        for mod_name, attr, span_name in TARGETS:
            owner = getattr(package, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span_name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(span_name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self, start: float, end: float):
        """Per span name, over spans that began in [start, end): call count,
        total seconds, self seconds, and each call's duration."""
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _root, _name, s, e in self.spans:
            if parent is not None:
                child_time[parent] += e - s
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for sid, _parent, _root, name, s, e in self.spans:
            if start <= s < end:
                calls[name] += 1
                total[name] += e - s
                self_s[name] += e - s - child_time[sid]
                durations[name].append(e - s)
        return calls, total, self_s, durations
