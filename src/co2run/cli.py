"""Command-line driver: synthesis, execution, honesty checks, trace checks.

Exit codes are a stable contract: 0 success, 1 synthesis found no
choreography, 2 parse errors, 3 a property or honesty violation, 4 a
precondition failure, 5 trace replay divergence, 6 an internal error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .analysis import (
    AnalysisError,
    ReplayError,
    check_honesty,
    check_trace_properties,
    culpable,
)
from .contracts import is_terminated, make_system
from .frontend import (
    ParseError,
    global_to_json,
    json_text,
    parse_named_contracts,
    parse_system,
    render_contract,
    render_global,
    trace_from_jsonl,
    trace_to_jsonl,
)
from .runtime import DEFAULT_POLICY, FUSE_MODES, FusePolicy, Trace, run, system_digest
from .synthesis import synthesize

EXIT_OK = 0
EXIT_NO_AGREEMENT = 1
EXIT_PARSE = 2
EXIT_VIOLATION = 3
EXIT_PRECONDITION = 4
EXIT_REPLAY = 5
EXIT_INTERNAL = 6


def _color_enabled() -> bool:
    mode = os.environ.get("CO2_COLOR", "auto")
    if mode == "never":
        return False
    return sys.stderr.isatty()


def _print_diagnostics(err: ParseError, path: str) -> None:
    red, reset = ("\x1b[31m", "\x1b[0m") if _color_enabled() else ("", "")
    for d in err.diagnostics:
        l1, c1, l2, c2 = d.span
        print(f"{path}:{l1}:{c1}-{l2}:{c2}: {red}{d.severity}{reset}: {d.message}", file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _report(payload: dict, args) -> bool:
    """Write the JSON report to `-o` when given, and print it under
    `--format json`; True when printed, so the caller prints no text."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
    if args.format == "json":
        print(text)
    return args.format == "json"


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_synth(args) -> int:
    contracts = {}
    for path in args.files:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        try:
            named = parse_named_contracts(text)
        except ParseError as exc:
            _print_diagnostics(exc, path)
            return EXIT_PARSE
        for name, c in named.items():
            if name in contracts:
                print(f"{path}: duplicate contract for {name}", file=sys.stderr)
                return EXIT_PARSE
            contracts[name] = c
    result = synthesize(make_system(contracts), max_configs=args.max_configs)
    if result.ok:
        g = result.global_type
        if args.format == "json":
            _emit(json_text({"globalType": global_to_json(g), "text": render_global(g)}),
                  args.output)
        else:
            _emit(render_global(g), args.output)
        return EXIT_OK
    lines = [f"no choreography: {result.reason}: {result.detail}"]
    if result.config:
        for name, c in result.config:
            lines.append(f"  {name}: {render_contract(c)}")
    if args.format == "json":
        _emit(json_text({
            "failure": result.reason,
            "detail": result.detail,
            "config": {n: render_contract(c) for n, c in (result.config or ())},
        }), args.output)
    else:
        _emit("\n".join(lines), args.output)
    return EXIT_NO_AGREEMENT


def _load_system(path: str, args):
    """The system in the file with the flags' fuse policy, or None after
    printing why it could not be read."""
    try:
        return parse_system(Path(path).read_text(), args.policy)
    except ParseError as exc:
        _print_diagnostics(exc, path)
        return None
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None


def _terminal_summary(trace: Trace) -> dict:
    sessions = []
    for name, t in trace.terminal.sessions:
        done = is_terminated(t)
        sessions.append({
            "session": name,
            "terminated": done,
            "culpable": sorted(culpable(trace.terminal, name)) if not done else [],
        })
    return {"steps": len(trace.steps), "sessions": sessions}


def cmd_run(args) -> int:
    system = _load_system(args.system, args)
    if system is None:
        return EXIT_PARSE
    trace = run(system, seed=args.seed, max_steps=args.max_steps,
                fairness_window=args.fairness_window)
    if args.trace:
        Path(args.trace).write_text(trace_to_jsonl(trace))
    summary = _terminal_summary(trace)
    if not _report(summary, args):
        print(f"ran {summary['steps']} steps; terminal digest {system_digest(trace.terminal)}")
        if not summary["sessions"]:
            print("no sessions were created")
        for s in summary["sessions"]:
            if s["terminated"]:
                print(f"session {s['session']}: terminated")
            else:
                who = ", ".join(s["culpable"]) or "nobody"
                print(f"session {s['session']}: not terminated; culpable: {who}")
    return EXIT_OK


def cmd_honesty(args) -> int:
    system = _load_system(args.system, args)
    if system is None:
        return EXIT_PARSE
    known = {name for name, _ in system.processes}
    if args.participant not in known:
        print(
            f"precondition: no participant {args.participant!r} "
            f"(have: {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    try:
        verdict = check_honesty(system, args.participant, state_bound=args.state_bound)
    except AnalysisError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    payload = {
        "participant": args.participant,
        "statesExplored": verdict.states_explored,
        "stateBound": args.state_bound,
        "unknownStates": verdict.unknown_states,
    }
    if verdict.violation_found:
        payload["result"] = "ViolationFound"
        payload["witnessLength"] = len(verdict.witness.steps)
        payload["reports"] = [
            {
                "session": r.session,
                "contractReadySets": [sorted(map(list, x)) for x in sorted(r.contract_ready_sets, key=sorted)],
                "processReadySet": sorted(map(list, r.process_ready_set)),
                "weakProcessReadySet": sorted(map(list, r.weak_process_ready_set)),
                "ready": r.ready,
            }
            for r in verdict.witness_reports
        ]
        if args.trace:
            Path(args.trace).write_text(trace_to_jsonl(verdict.witness))
            payload["witnessTrace"] = args.trace
    else:
        payload["result"] = "NoViolationUpToBound"
    if not _report(payload, args):
        if verdict.violation_found:
            print(f"{args.participant} is NOT honest in this context: "
                  f"violation after exploring {verdict.states_explored} states")
            for r in verdict.witness_reports:
                if r.ready is False:
                    print(f"  session {r.session}: process offers "
                          f"{sorted(r.weak_process_ready_set)} but the contract needs one of "
                          f"{[sorted(x) for x in sorted(r.contract_ready_sets, key=sorted)]}")
            if args.trace:
                print(f"  witness trace written to {args.trace}")
        else:
            undecided = (f"; the bound left {verdict.unknown_states} states undecided"
                         if verdict.unknown_states else "")
            print(f"no violation for {args.participant} up to {verdict.states_explored} states "
                  f"(state bound {args.state_bound}){undecided}")
    return EXIT_VIOLATION if verdict.violation_found else EXIT_OK


def cmd_check(args) -> int:
    system = _load_system(args.system, args)
    if system is None:
        return EXIT_PARSE
    try:
        steps, digests = trace_from_jsonl(Path(args.trace).read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = check_trace_properties(steps, digests, system)
    except ReplayError as exc:
        print(f"replay divergence: {exc}", file=sys.stderr)
        return EXIT_REPLAY
    payload = {
        "stepsReplayed": report.steps_replayed,
        "violations": list(report.violations),
        "terminatedSessions": list(report.terminated_sessions),
        "liveSessions": {s: list(c) for s, c in report.live_sessions},
    }
    if not _report(payload, args):
        print(f"replayed {report.steps_replayed} steps")
        for v in report.violations:
            print(f"violation: {v}")
        if not report.violations:
            print("all properties hold along the trace")
    return EXIT_VIOLATION if report.violations else EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def _count(text: str) -> int:
    """Argument type of the count flags: an int, refused when negative."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--fuse-min", type=int, default=DEFAULT_POLICY.min_participants, metavar="N",
                   help="minimum session size for default-policy fuses")
    p.add_argument("--fuse-mode", choices=FUSE_MODES,
                   default=DEFAULT_POLICY.mode, help="mode for default-policy fuses")
    p.add_argument("--prefer-smallest", action="store_true",
                   help="fuse the smallest compliant subset instead of the largest")
    p.add_argument("-o", "--output", default=None,
                   help="also write the JSON report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="co2run",
        description="Contract-oriented sessions: synthesis, execution, analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesise a choreography from named contracts")
    p.add_argument("files", nargs="+", help=".ctr files with 'Name: contract' entries")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--max-configs", type=_count, default=10_000)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("run", help="execute a system with the fair seeded scheduler")
    p.add_argument("system", help=".co2 system file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_count, default=10_000)
    p.add_argument("--fairness-window", type=_count, default=64)
    p.add_argument("--trace", default=None, help="write the trace as JSON lines")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("honesty", help="search for a readiness violation")
    p.add_argument("system", help=".co2 system file")
    p.add_argument("--participant", required=True)
    p.add_argument("--state-bound", type=_count, default=10_000)
    p.add_argument("--trace", default=None, help="write the witness trace here")
    _add_common(p)
    p.set_defaults(fn=cmd_honesty)

    p = sub.add_parser("check", help="replay a trace and check its properties")
    p.add_argument("trace", help=".trace.jsonl file")
    p.add_argument("system", help=".co2 system file the trace started from")
    _add_common(p)
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "fuse_min"):  # synth takes no fuse-policy flags
        try:
            args.policy = FusePolicy(args.fuse_min, args.fuse_mode, args.prefer_smallest)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.fn(args)
    except Exception as exc:  # a crash is no verdict; SystemExit and KeyboardInterrupt pass
        print(f"internal error: {type(exc).__name__}: {exc}".splitlines()[0], file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
