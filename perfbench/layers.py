"""Per-layer spans, recorded from outside co2run by wrapping its functions.

`install` replaces each function named in LAYERS by a wrapper everywhere it
is bound: in its own module, in every co2run module that imported it by
name (`from .synthesis import synthesize` binds `runtime.synthesize`), and
inside module-level `lru_cache` objects built around it (`analysis._steps`
and `analysis._after` wrap `enabled_steps` and `apply_step` at import time,
so patching the module attribute alone would miss every call from the
honesty search). The rebuilt caches keep their size and start empty.

A wrapper records a span: group, start, end and parent. A call made while
a span of the same group is open (recursion, or render_system calling
render_contract) runs unrecorded, so a group's time is never counted twice.
All spans of one operation live in the forked child that runs it; the
child summarises them into calls, inclusive time and self time per group
(self time is a span's duration minus that of its child spans).
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# group -> (module, functions)
LAYERS = {
    "frontend.parse": ("co2run.frontend", ("parse_contract", "parse_global",
                                           "parse_named_contracts", "parse_system")),
    "frontend.emit": ("co2run.frontend", ("render_contract", "render_global", "render_process",
                                          "render_system", "global_to_json", "trace_to_jsonl")),
    "frontend.trace_load": ("co2run.frontend", ("trace_from_jsonl",)),
    "contracts.make_system": ("co2run.contracts", ("make_system",)),
    "contracts.enabled_moves": ("co2run.contracts", ("enabled_moves",)),
    "contracts.contract_step": ("co2run.contracts", ("contract_step",)),
    "choreo.canonicalize": ("co2run.choreo", ("canonicalize",)),
    "choreo.project": ("co2run.choreo", ("project",)),
    "choreo.well_formed": ("co2run.choreo", ("well_formed",)),
    "synthesis.synthesize": ("co2run.synthesis", ("synthesize",)),
    "runtime.run": ("co2run.runtime", ("run",)),
    "runtime.normalize": ("co2run.runtime", ("normalize",)),
    "runtime.enabled_steps": ("co2run.runtime", ("enabled_steps",)),
    "runtime.apply_step": ("co2run.runtime", ("apply_step",)),
    "runtime.system_digest": ("co2run.runtime", ("system_digest",)),
    "runtime.find_agreement": ("co2run.runtime", ("find_agreement",)),
    "analysis.check_honesty": ("co2run.analysis", ("check_honesty",)),
    "analysis.ready": ("co2run.analysis", ("ready",)),
    "analysis.weak_ready": ("co2run.analysis", ("weak_process_ready_set",)),
    "analysis.replay": ("co2run.analysis", ("check_trace_properties",)),
    "cli.main": ("co2run.cli", ("main",)),
}


# the calls of run() whose time runtime.scheduler_share adds up
SCHEDULER = ("runtime.enabled_steps", "runtime.apply_step", "runtime.system_digest")


def _note(group, args, result, notes):
    """Counts taken from arguments and results at the layer boundary."""
    if group == "frontend.parse":
        notes["parse_bytes"] += len(args[0])
    elif group == "synthesis.synthesize":
        notes["synthesize_ok"] += result.ok
    elif group == "runtime.find_agreement":
        notes["agreements"] += result is not None
    elif group == "runtime.run":
        notes["run_steps"] += len(result.steps)
    elif group == "analysis.check_honesty":
        notes["states_explored"] += result.states_explored
    elif group == "analysis.replay":
        notes["replay_steps"] += result.steps_replayed


class Recorder:
    """Spans of one operation, kept in memory until the operation ends."""

    def __init__(self):
        self.spans: list[list] = []  # [group, start, end, parent index]
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.notes: Counter = Counter()

    def call(self, group, fn, args, kwargs):
        if self.open[group]:
            return fn(*args, **kwargs)
        span = [group, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        self.open[group] += 1
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.open[group] -= 1
            self.stack.pop()
        _note(group, args, result, self.notes)
        return result

    def summary(self) -> dict:
        """Per group: calls, inclusive and self seconds; plus the scheduler
        time inside `run` and the boundary counts."""
        child = [0.0] * len(self.spans)
        for group, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_s = Counter(), Counter(), Counter()
        in_run = 0.0
        for i, (group, start, end, parent) in enumerate(self.spans):
            calls[group] += 1
            total[group] += end - start
            self_s[group] += end - start - child[i]
            if parent >= 0 and self.spans[parent][0] == "runtime.run" and group in SCHEDULER:
                in_run += end - start
        return {"calls": dict(calls), "total": dict(total), "self": dict(self_s),
                "scheduler_in_run": in_run, "notes": dict(self.notes)}


def _wrap(recorder, group, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(group, fn, args, kwargs)
    return wrapper


def install(recorder: Recorder):
    """Route every call of the LAYERS functions through `recorder`.

    Returns a function that puts the original bindings back.
    """
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "co2run"]
    undo = []
    for group, (module, names) in LAYERS.items():
        home = importlib.import_module(module)
        for name in names:
            original = getattr(home, name)
            wrapper = _wrap(recorder, group, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        replacement = wrapper
                    elif getattr(value, "__wrapped__", None) is original and hasattr(
                        value, "cache_info"
                    ):
                        size = value.cache_info().maxsize
                        replacement = functools.lru_cache(maxsize=size)(wrapper)
                    else:
                        continue
                    setattr(m, attr, replacement)
                    undo.append((m, attr, value))

    def restore():
        for m, attr, value in reversed(undo):
            setattr(m, attr, value)
    return restore
