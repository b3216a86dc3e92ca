"""Run one co2run CLI call in its own forked process, with a time limit.

The parent has imported co2run but never runs it, so every child starts
from the state of a fresh `co2run` process: the module-level caches
(`runtime._search_agreement`, `analysis._steps`, `analysis._after`) are
empty in each child and nothing one operation memoised can speed up the
next. Operations run one at a time, each waited for before the next starts.
"""
from __future__ import annotations

import io
import os
import pickle
import select
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Optional

OK, CRASH, TIMEOUT = "ok", "crash", "timeout"


@dataclass
class Outcome:
    status: str  # OK, CRASH or TIMEOUT: only OK carries a verdict
    code: Optional[int]  # the CLI's exit code, when status is OK
    seconds: float  # time to the verdict inside the child; the limit otherwise
    out: str
    detail: str  # the exception of a crash, or the tail of stderr
    peak_rss_mb: float
    layers: Optional[dict]  # the child's span summary, when traced


def _child(argv: list[str], recorder) -> dict:
    from co2run import cli

    out, err = io.StringIO(), io.StringIO()
    code, crash = None, None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors are exit codes
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - any exception is a crash, never a verdict
            crash = f"{type(exc).__name__}: {str(exc)[:200]}"
        seconds = time.perf_counter() - start
    return {
        "code": code,
        "crash": crash,
        "seconds": seconds,
        "out": out.getvalue(),
        "err": err.getvalue()[-500:],
        "layers": recorder.summary() if recorder is not None else None,
    }


def call_in_child(fn, limit: Optional[float] = None):
    """Call fn() in a forked child and wait for it to end.

    Returns (fn's result, the child's resource usage, whether it was killed
    for running past `limit` seconds). The result is None when the child
    was killed or died without returning.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    deadline = None if limit is None else time.perf_counter() + limit
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = pickle.dumps(fn())
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks, timed_out = [], False
    try:
        while True:
            remaining = None if deadline is None else deadline - time.perf_counter()
            if remaining is not None and (
                remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]
            ):
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, wait_status, usage = os.wait4(pid, 0)
    if timed_out or os.waitstatus_to_exitcode(wait_status) != 0 or not chunks:
        return None, usage, timed_out
    return pickle.loads(b"".join(chunks)), usage, False  # written by our own child


def run_isolated(argv: list[str], limit: float, recorder=None) -> Outcome:
    """Run `co2run <argv>` in a forked child and wait for it.

    A child still running after `limit` seconds is killed: the operation
    counts as a timeout and enters the latency distribution at the limit.
    An uncaught exception counts as a crash, also at the limit.
    """
    result, usage, timed_out = call_in_child(lambda: _child(argv, recorder), limit)
    peak = usage.ru_maxrss / 1024
    if timed_out:
        return Outcome(TIMEOUT, None, limit, "", f"killed after {limit:g} s", peak, None)
    if result is None:
        return Outcome(CRASH, None, limit, "", "the child died without a report", peak, None)
    if result["crash"] is not None:
        detail = f"{result['crash']} after {result['seconds']:.3f} s"
        return Outcome(CRASH, None, limit, result["out"], detail, peak, result["layers"])
    return Outcome(OK, result["code"], result["seconds"], result["out"], result["err"], peak,
                   result["layers"])
