"""Run one phqreg CLI verb with every public function of the package traced.

    python3 perfbench/tracer.py SPANS_PATH TRACE_ID CLI_ARG...

Every public function and public method defined in a ``phqreg`` module is
wrapped, and every module-level name bound to it is rebound to the wrapper,
``from ... import`` copies such as ``pipeline.session_acoustic_vector``
included, so a call through any binding opens a span. A missed binding would
read as zero time in that layer.

A span records its name (``<layer>:<qualname>``, the layer being the module
path below ``phqreg``), its parent span, its start and end in
``perf_counter_ns`` and, for a few functions, counters taken from arguments
and results. Spans stay in memory and are written as JSON lines to
SPANS_PATH when the verb ends. TRACE_ID is the id of the benchmark's span for
this verb: every span id starts with it and top-level spans name it as their
parent.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import os
import pkgutil
import resource
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index (-1: top level), start_ns, end_ns, counters]
        self.stack = [-1]

    def wrap(self, name, fn, counters=None):
        """Return ``fn`` wrapped in a span; ``counters`` is a ``(before, after)`` hook pair."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        signature = inspect.signature(fn) if counters else None
        before, after = counters or (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                state = before(bound.arguments) if before else None
            span = [name, stack[-1], clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counters:
                span[4] = after(state, bound.arguments, result)
            return result

        return traced

    def write(self, path, trace_id: str) -> None:
        """Write the spans as JSON lines; top-level spans name ``trace_id`` as their parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, counters) in enumerate(self.spans):
                record = {
                    "id": f"{trace_id}.{i}",
                    "parent": trace_id if parent < 0 else f"{trace_id}.{parent}",
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                }
                if counters:
                    record.update(counters)
                fh.write(json.dumps(record) + "\n")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _file_bytes(_state, args, _result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


def _window_counters(originals):
    def after(_state, args, result) -> dict:
        n = len(originals["face:downsample_indices"](args["seq"].timestamps))
        window, overlap = args["window"], args["overlap"]
        candidates = (n - window) // overlap + 1 if n >= window else 0
        return {"kept": len(result.windows), "candidates": candidates}

    return (None, after)


def _counter_hooks(originals) -> dict:
    """Counters recorded at the layer boundaries that the per-layer metrics need."""
    return {
        "audio:frame_signal": (None, lambda s, a, r: {"frames": len(r)}),
        "audio:session_acoustic_vector": (
            lambda a: _maxrss_kb(),
            lambda s, a, r: {"session": r.session_id, "rss_kb_before": s, "rss_kb_after": _maxrss_kb()},
        ),
        "corpus:load_wav": (None, _file_bytes),
        "corpus:load_landmarks": (None, _file_bytes),
        "corpus:load_transcript": (None, _file_bytes),
        "face:geometric_frames": (None, lambda s, a, r: {"frames": len(r)}),
        "face:fit_pca": (None, lambda s, a, r: {"q": r.q}),
        "face:window_sequence": _window_counters(originals),
        "models.lstm:forward": (None, lambda s, a, r: {"training": bool(a["training"])}),
        "models.lstm:lstm_train": (None, lambda s, a, r: {"best_epoch": r.best_epoch, "windows": len(a["X"])}),
        "models.svr:svr_train": (None, lambda s, a, r: {"smo_iters": r.n_iter}),
        "pipeline:write_feature_csv": (None, _file_bytes),
        "pipeline:read_feature_csv": (None, _file_bytes),
        "models:save_model": (None, _file_bytes),
        "models:load_model": (None, _file_bytes),
    }


def _public_callables(module):
    """(qualname, owner, attribute, raw member) for public functions and methods defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, module, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
            for mname, member in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                    yield f"{name}.{mname}", obj, mname, member


def instrument(tracer: Tracer, package) -> None:
    """Wrap every public callable of ``package`` and rebind every module-level reference to it."""
    modules = [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__, package.__name__ + ".")
    ]
    found = []
    for module in modules:
        layer = module.__name__[len(package.__name__) + 1:]
        found += [(f"{layer}:{q}", owner, attr, member) for q, owner, attr, member in _public_callables(module)]

    originals = {
        name: (member.__func__ if isinstance(member, (classmethod, staticmethod)) else member)
        for name, _, _, member in found
    }
    hooks = _counter_hooks(originals)
    wrappers = {}
    for name, owner, attr, member in found:
        wrapped = tracer.wrap(name, originals[name], hooks.get(name))
        if isinstance(member, (classmethod, staticmethod)):
            setattr(owner, attr, type(member)(wrapped))
        elif inspect.isclass(owner):
            setattr(owner, attr, wrapped)
        else:
            wrappers[id(member)] = (member, wrapped)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])


def main(argv) -> int:
    spans_path, trace_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    start = time.perf_counter_ns()
    import phqreg
    import phqreg.cli

    tracer.spans.append(["cli:import", -1, start, time.perf_counter_ns(), None])
    instrument(tracer, phqreg)
    try:
        return phqreg.cli.main(cli_args)
    finally:
        tracer.write(spans_path, trace_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
