"""CLI goldens: exit codes and stdout of every bundled fixture, pinned.

Covers `synth` on each contract file, `run --seed 0 --max-steps 300` on
each system (with the sha256 of its trace file), the same run under each
of the fuse-policy flags in FLAGS, `check` of that trace, and
`honesty --format json` for every participant of every system. The
expected values live in cli_goldens.json.

This module needs only the standard library, so it checks the goldens on
any supported Python, with or without pytest:

    PYTHONPATH=src python tests/goldens.py            # exit 1 listing mismatches
                                                      # and where each departs
    PYTHONPATH=src python tests/goldens.py --record   # rewrite cli_goldens.json

Record only for an intended change of behaviour. `test_cli_goldens.py`
runs the same cases under pytest.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from co2run.cli import main
from co2run.fixtures import CONTRACT_FILES, FIXTURES, fixture_path, fixture_text
from co2run.frontend import parse_system

GOLDENS = Path(__file__).with_name("cli_goldens.json")
RUN = ["--seed", "0", "--max-steps", "300"]
# broker policies that make some fixture fuse differently from the default
FLAGS = (["--fuse-min", "3"], ["--fuse-mode", "terminating"])


def _cases() -> dict[str, list[list[str]]]:
    """Case name -> the CLI calls it makes; the last call's output counts.
    "{trace}" stands for a trace file private to the case."""
    cases = {}
    for name in CONTRACT_FILES:
        cases[f"synth {name}"] = [["synth", str(fixture_path(name))]]
    for name in FIXTURES:
        path = str(fixture_path(name))
        run = ["run", path, *RUN, "--trace", "{trace}"]
        cases[f"run {name}"] = [run]
        for flag in FLAGS:
            cases[f"run {' '.join(flag)} {name}"] = [[*run, *flag]]
        cases[f"check {name}"] = [run, ["check", "{trace}", path]]
        for who, _ in parse_system(fixture_text(name)).processes:
            cases[f"honesty {name} {who}"] = [
                ["honesty", path, "--participant", who, "--format", "json"]
            ]
    return cases


CASES = _cases()


def observe(calls: list[list[str]], work: Path) -> dict:
    trace = work / "out.trace.jsonl"
    for argv in calls:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([str(trace) if a == "{trace}" else a for a in argv])
    seen = {"code": code, "stdout": out.getvalue()}
    if calls[-1][0] == "run":
        seen["trace_sha256"] = hashlib.sha256(trace.read_bytes()).hexdigest()
    return seen


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def observe_all() -> dict:
    observed = {}
    for case, calls in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as work:
            observed[case] = observe(calls, Path(work))
    return observed


def _first_difference(want: dict | None, got: dict | None) -> str:
    """The first stdout line where a case's observation departs from its
    golden, or else the first other field that does."""
    if want is None or got is None:
        return " (only observed)" if want is None else " (only in the goldens)"
    old = want["stdout"].splitlines() + ["(end)"]
    new = got["stdout"].splitlines() + ["(end)"]
    for i, (a, b) in enumerate(zip(old, new), 1):
        if a != b:
            return f": stdout line {i}\n  golden:   {a}\n  observed: {b}"
    key = next(k for k in sorted(want.keys() | got.keys()) if want.get(k) != got.get(k))
    return f": {key}\n  golden:   {want.get(key)}\n  observed: {got.get(key)}"


def _main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {GOLDENS.name} from the current behaviour")
    args = parser.parse_args(argv)
    observed = observe_all()
    if args.record:
        GOLDENS.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(observed)} cases to {GOLDENS}", file=sys.stderr)
        return 0
    goldens = load_goldens()
    bad = sorted(c for c in observed.keys() | goldens.keys() if observed.get(c) != goldens.get(c))
    for case in bad:
        print(f"mismatch: {case}{_first_difference(goldens.get(case), observed.get(case))}",
              file=sys.stderr)
    matched = sum(observed[c] == goldens.get(c) for c in observed)
    print(f"{matched} of {len(observed)} cases match {GOLDENS.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
