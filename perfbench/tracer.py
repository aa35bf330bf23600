"""Per-layer tracing of one `zipk0` CLI job, and the layer metrics built from it.

Run as a script, it is one traced job in a fresh process:

    PYTHONPATH=src python3 perfbench/tracer.py JOB_ID k0 --group SL3 --mu 1,0 --p 3

It wraps every public function of each `zipk0` module (a layer) in a span
recorder, rebinding the wrapper in every module that imported the function
by name, then runs `zipk0.cli.main` in-process.  Spans stay in memory; at the
end it prints one JSON object with the CLI exit code, the report text and
the spans.  The program itself is not changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "rootdata", "grpalg", "invariants", "groebner", "lattice", "zipk")

# Span record: [name, start, end, parent index (-1 at the root), job id, extra].
NAME, START, END, PARENT, JOB, EXTRA = range(6)

STRONG_GROEBNER = "groebner.strong_groebner"
NORMAL_FORM = "groebner.normal_form"


class Tracer:
    """Span recorder for one job; wrappers close over it."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _open(self, name: str, extra=None) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job_id, extra]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        if name == STRONG_GROEBNER:
            return self._wrap_strong_groebner(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_strong_groebner(self, name: str, fn):
        """Also records a digest of the (gens, spec) input and the output size."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            gens = list(bound.arguments["gens"])
            bound.arguments["gens"] = gens
            digest = hash((tuple(tuple(sorted(g.items())) for g in gens), bound.arguments["spec"]))
            extra = {"input": digest}
            span = self._open(name, extra)
            try:
                gb = fn(*bound.args, **bound.kwargs)
            finally:
                self._close(span)
            extra["basis_out"] = len(gb.polys)
            return gb

        return traced


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions wherever they are bound."""
    package = importlib.import_module("zipk0")
    modules = [importlib.import_module(f"zipk0.{layer}") for layer in LAYERS]
    wrapped = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
    # Rebind in every module that did `from .x import f`, and in module-level
    # tables such as the CLI's command dispatch.
    for mod in [package, *modules]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]


def run_traced(job_id: str, cli_argv: list[str]) -> dict:
    tracer = Tracer(job_id)
    install(tracer)
    cli = importlib.import_module("zipk0.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(cli_argv)
    return {"exit": code, "report": out.getvalue(), "spans": tracer.spans}


# ---------------------------------------------------------------------------
# Layer metrics from the spans of a pass


def add_job_spans(acc: defaultdict, spans: list[list]) -> None:
    """Accumulate one job's spans: calls, self and total time per function,
    self time per layer, and the Groebner counters."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    inputs = set()
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        self_s = duration - child_time[i]
        acc[f"{name}.calls"] += 1
        acc[f"{name}.self_s"] += self_s
        acc[f"{name.split('.')[0]}.self_s"] += self_s
        # Total time counts only the outermost span of a recursive call chain.
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            acc[f"{name}.total_s"] += duration
        if name == NORMAL_FORM:
            caller = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
            phase = "completion_s" if caller == STRONG_GROEBNER else "membership_s"
            acc[f"{NORMAL_FORM}.{phase}"] += self_s
        elif name == STRONG_GROEBNER:
            inputs.add(span[EXTRA]["input"])
            acc[f"{STRONG_GROEBNER}.basis_out"] += span[EXTRA]["basis_out"]
    acc[f"{STRONG_GROEBNER}.distinct"] += len(inputs)


def finish_pass(acc: defaultdict) -> None:
    calls = acc[f"{STRONG_GROEBNER}.calls"]
    acc[f"{STRONG_GROEBNER}.distinct_frac"] = acc[f"{STRONG_GROEBNER}.distinct"] / calls if calls else 0.0


if __name__ == "__main__":
    result = run_traced(sys.argv[1], sys.argv[2:])
    json.dump(result, sys.stdout)
    sys.exit(result["exit"])
