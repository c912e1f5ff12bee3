"""Span tracer for the equiframes CLI, applied from outside the package.

Run as a child process:

    python perfbench/tracer.py --spans FILE --iteration N -- <cli arguments>

It imports ``equiframes``, wraps every public module-level function of each
module (once per function object, rebound in every module that imported it
by name), the classmethods of ``graphs.Graph`` and the arithmetic methods of
``scalar.ExtScalar``, then calls ``equiframes.cli.main``.  Spans stay in
memory and are written as JSON when the CLI returns.  ``CycInt`` is left
unwrapped on purpose: its calls are an order of magnitude more frequent and
tracing them would distort the complex workload far more than it informs.

The parent (``run.py``) turns the span files into per-layer metrics with
``self_times``; functions are found by walking modules, so renamed or
deleted functions simply stop appearing in ``wrapped``.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import pkgutil
import resource
import sys
import time
from collections import defaultdict

# Methods wrapped on classes, as {(module, class): {attribute: metric name}}.
# ``None`` means every classmethod the class defines, named after itself.
CLASS_TARGETS = {
    ("graphs", "Graph"): None,
    ("scalar", "ExtScalar"): {
        "__add__": "ext_add",
        "__sub__": "ext_sub",
        "__neg__": "ext_neg",
        "__mul__": "ext_mul",
        "__rmul__": "ext_mul",
        "conjugate": "ext_conjugate",
        "abs_sq": "ext_abs_sq",
    },
}


def _current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class RSSRise:
    """How far the process high-water mark ends above the RSS at entry."""

    def start(self, args, kwargs):
        return _current_rss_bytes()

    def finish(self, state, args, kwargs, result):
        return {"rss_rise_mb": max(0, _peak_rss_bytes() - state) / 2**20}


class WrittenBytes:
    """Size of the file named by the first (``path``) argument."""

    def start(self, args, kwargs):
        return None

    def finish(self, state, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}


class SRGOutcome:
    """Vertex count and the certified parameters (None when rejected)."""

    def start(self, args, kwargs):
        return None

    def finish(self, state, args, kwargs, result):
        graph = args[0] if args else kwargs["g"]
        params = list(result.params.as_tuple()) if result.ok else None
        return {"v": graph.order, "params": params}


PROBES = {
    "frames.verify_etf": RSSRise(),
    "frames.store_frame_exact": WrittenBytes(),
    "graphs.export_graph": WrittenBytes(),
    "graphs.srg_check": SRGOutcome(),
}


class Recorder:
    """Collects spans [name, layer, start, end, parent, iteration, extra]."""

    def __init__(self, iteration: int = 0, probes=None) -> None:
        self.iteration = iteration
        self.probes = PROBES if probes is None else probes
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        iteration = self.iteration
        probe = self.probes.get(name)
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = probe.start(args, kwargs) if probe else None
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, iteration, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if probe:
                try:
                    span[6] = probe.finish(state, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # signature changed: the probe's metric goes absent
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"wrapped": sorted(self.wrapped), "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def instrument(package, recorder: Recorder, class_targets=None):
    """Wrap the package's public functions and target methods in place.

    Returns a function that restores every attribute it replaced.
    """
    targets = CLASS_TARGETS if class_targets is None else class_targets
    modules = {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                wrappers[obj] = recorder.wrap(f"{layer}.{attr}", layer, obj)

    saved = []
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    for (layer, cls_name), methods in targets.items():
        cls = getattr(modules.get(layer), cls_name, None)
        if cls is None:
            continue
        if methods is None:
            methods = {
                attr: f"{cls_name}.{attr}"
                for attr, obj in vars(cls).items()
                if isinstance(obj, classmethod)
            }
        by_function = {}
        for attr, metric in methods.items():
            raw = vars(cls).get(attr)
            if raw is None:
                continue
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            if fn not in by_function:
                by_function[fn] = recorder.wrap(f"{layer}.{metric}", layer, fn)
            saved.append((cls, attr, raw))
            setattr(cls, attr, classmethod(by_function[fn]) if is_cm else by_function[fn])

    def restore() -> None:
        for owner, attr, obj in reversed(saved):
            setattr(owner, attr, obj)

    return restore


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(i)
    out = []
    for i, (_, _, start, end, *_rest) in enumerate(spans):
        clipped = [
            (max(spans[c][2], start), min(spans[c][3], end)) for c in children[i]
        ]
        out.append((end - start) - _covered((s, e) for s, e in clipped if e > s))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True, help="JSON file to write")
    parser.add_argument("--iteration", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import equiframes
    import equiframes.cli

    recorder = Recorder(args.iteration)
    instrument(equiframes, recorder)
    try:
        return equiframes.cli.main(cli_args)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
