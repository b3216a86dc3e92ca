import json
import json.scanner
import os
import subprocess
import sys
import threading
from pathlib import Path
from random import Random

import pytest

import co2run
from co2run.cli import main
from co2run.contracts import make_system
from co2run.fixtures import CONTRACT_FILES, FIXTURES, fixture_path, fixture_text
from co2run.frontend import (
    ParseError,
    global_to_json,
    json_text,
    parse_global,
    parse_named_contracts,
    parse_system,
    render_contract,
    render_global,
    trace_from_jsonl,
)
from co2run.synthesis import synthesize
from corpus import broker_context, pair_context, random_global, recursive_pair_context
from corpus import retell_context, single_edit_mutants


TRIO = str(fixture_path("store_trio.ctr"))
PAIR = str(fixture_path("store_pair.ctr"))
S1 = str(fixture_path("store_s1.co2"))
SNAPSHOT = str(fixture_path("store_s1pp.co2"))
STUCK = str(fixture_path("stuck_pair.co2"))
ROBUST = str(fixture_path("robust_pair.co2"))


def test_synth_success(capsys):
    assert main(["synth", TRIO]) == 0
    out = capsys.readouterr().out.strip()
    assert parse_global(out)  # the output is itself parseable
    assert "quote" in out


def test_synth_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ctr"
    bad.write_text("A: B!int\nB: A?bool\n")
    assert main(["synth", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "stuck" in out


def test_synth_parse_error(tmp_path, capsys):
    f = tmp_path / "broken.ctr"
    f.write_text("A: b1?req . (+)\n")
    assert main(["synth", str(f)]) == 2


def test_synth_json_output_stable(capsys):
    assert main(["synth", PAIR, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["synth", PAIR, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["globalType"]["kind"] == "msg"


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("name", CONTRACT_FILES)
@pytest.mark.parametrize("bound", [1, 10_000])
def test_synth_json_is_what_json_dumps_writes(name, bound, capsys):
    code = main(["synth", str(fixture_path(name)), "--format", "json", "--max-configs", str(bound)])
    result = synthesize(make_system(parse_named_contracts(fixture_text(name))), bound)
    if result.ok:
        g = result.global_type
        payload = {"globalType": global_to_json(g), "text": render_global(g)}
    else:
        payload = {"failure": result.reason, "detail": result.detail,
                   "config": {n: render_contract(c) for n, c in result.config}}
    assert code == (0 if result.ok else 1)
    assert capsys.readouterr().out == _dumps(payload) + "\n"


def test_json_text_is_what_json_dumps_writes_on_corpus_global_types():
    rng = Random(3)
    for _ in range(300):
        g = random_global(rng)
        payload = {"globalType": global_to_json(g), "text": render_global(g), "a\u00e9": [(), {}]}
        assert json_text(payload) == _dumps(payload)


class DeepDecoder(json.JSONDecoder):
    """The standard decoder on its pure-Python scanner. From Python 3.12 on
    the C scanner's nesting limit is fixed; this one recurses in Python, so
    the recursion limit bounds it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.scan_once = json.scanner.py_make_scanner(self)


def _loads_deep(text: str):
    """`json.loads` of a text nested a few thousand levels deep: two frames
    a level, in a thread with the stack for them."""
    got, limit, size = [], sys.getrecursionlimit(), threading.stack_size(256 << 20)
    sys.setrecursionlimit(limit + 2 * text.count("{"))
    try:
        reader = threading.Thread(target=lambda: got.append(json.loads(text, cls=DeepDecoder)))
        reader.start()
        reader.join(timeout=60)
        assert not reader.is_alive()
    finally:
        threading.stack_size(size)
        sys.setrecursionlimit(limit)
    return got[0]


def test_synth_json_of_a_two_thousand_message_pair(tmp_path, capsys):
    """Deeper than the `json` encoder's nesting limit: the report is written
    off an explicit stack, and reads back as the text form."""
    n = 2_000
    path = tmp_path / "pair.ctr"
    path.write_text(f"A: {' . '.join(['B!a'] * n)}\nB: {' . '.join(['A?a'] * n)}\n")
    assert main(["synth", str(path)]) == 0
    text = capsys.readouterr().out
    assert main(["synth", str(path), "--format", "json"]) == 0
    assert _loads_deep(capsys.readouterr().out)["text"] + "\n" == text


def test_run_writes_trace_and_summary(tmp_path, capsys):
    trace = tmp_path / "out.trace.jsonl"
    assert main(["run", STUCK, "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "session s1: not terminated; culpable: A" in out
    assert "session s2: not terminated; culpable: B" in out
    assert trace.exists() and trace.read_text().strip()


def test_run_zero_steps(tmp_path, capsys):
    trace = tmp_path / "empty.trace.jsonl"
    assert main(["run", S1, "--max-steps", "0", "--trace", str(trace)]) == 0
    assert trace.read_text() == ""


def test_run_parse_error(tmp_path):
    f = tmp_path / "nope.co2"
    f.write_text("participant A {")
    assert main(["run", str(f)]) == 2


def test_synth_refuses_a_contract_naming_its_own_participant(tmp_path, capsys):
    # located at the entry's header, as a session block's error is
    f = tmp_path / "self.ctr"
    own_peer = "contract of A names A as its own peer"
    for text, span, message in (
            ("A: A!x\nB: end\n", "1:1-1:2", own_peer),
            ("B: end\n  A:\n    B?x . A!y\n", "2:3-2:4", own_peer),
            ("A: B!x . a!y\n", "1:1-1:2",
             "contract of A still mentions participant variables ['a']"),
            ("B: end\nA: B!x . rec x . y\n", "2:1-2:2",
             "contract of A has free recursion variables")):
        f.write_text(text)
        assert main(["synth", str(f)]) == 2
        assert capsys.readouterr().err == f"{f}:{span}: error: {message}\n"


@pytest.mark.parametrize("contract", ["A!x", "A?x"])
@pytest.mark.parametrize("command", ["run", "honesty", "check"])
def test_session_naming_its_own_participant_is_a_located_error(command, contract, tmp_path,
                                                               capsys):
    f = tmp_path / "self.co2"
    f.write_text(f"session s {{ A: {contract}  B: end }}\nparticipant A {{ do s {contract} }}\n")
    argv = {"run": ["run", str(f)],
            "honesty": ["honesty", str(f), "--participant", "A"],
            "check": ["check", str(tmp_path / "none.trace.jsonl"), str(f)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == (  # at the participant whose contract it is
        f"{f}:1:13-1:14: error: contract of A names A as its own peer\n")


def test_session_block_refuses_each_contract_at_its_participant(tmp_path, capsys):
    # with the message a `.ctr` entry gets for the same contract
    f = tmp_path / "open.co2"
    for contract, message in (
            ("B!x . a!y", "contract of A still mentions participant variables ['a']"),
            ("B!x . rec t . y", "contract of A has free recursion variables")):
        f.write_text(f"session s {{\n  A: {contract}  B: A?x }}\nparticipant B {{ 0 }}\n")
        assert main(["run", str(f)]) == 2
        assert capsys.readouterr().err == f"{f}:2:3-2:4: error: {message}\n"


def test_session_block_refuses_a_queue_at_its_first_name(tmp_path, capsys):
    # checked once the block's contracts are read: a queue may come first;
    # a second queue between the same ends would replace the first
    f = tmp_path / "queue.co2"
    for text, span, message in (
            ("session s { A: B!x  B: A?x queue A -> A : [x] }\n", "1:34-1:35",
             "queue A->A does not connect two distinct participants"),
            ("session s {\n  queue A -> C : []\n  A: B!x  B: A?x }\n", "2:9-2:10",
             "queue A->C does not connect two distinct participants"),
            ("session s { A: B!x . B!y  B: A?x . A?y\n"
             "  queue A -> B : [x]  queue A -> B : [y, x] }\n"
             "participant B { do s A?x }\n", "2:29-2:30", "duplicate queue A->B")):
        f.write_text(text)
        assert main(["run", str(f)]) == 2
        assert capsys.readouterr().err == f"{f}:{span}: error: {message}\n"


def test_honesty_violation(tmp_path, capsys):
    witness = tmp_path / "w.trace.jsonl"
    code = main(["honesty", S1, "--participant", "B1", "--trace", str(witness)])
    assert code == 3
    assert witness.exists()
    out = capsys.readouterr().out
    assert "NOT honest" in out


def test_honesty_clean(capsys):
    assert main(["honesty", ROBUST, "--participant", "B"]) == 0
    out = capsys.readouterr().out
    assert "no violation" in out


def test_honesty_counts_states_beyond_the_bound_as_unknown(capsys):
    s12 = str(fixture_path("store_s12.co2"))
    assert main(["honesty", s12, "--participant", "B2", "--state-bound", "10",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == "NoViolationUpToBound"
    assert report["statesExplored"] <= 10 and report["unknownStates"] > 0
    # the complete search leaves nothing unknown
    assert main(["honesty", s12, "--participant", "B2", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["statesExplored"], report["unknownStates"]) == (118, 0)
    # the text form says what the bound left open, and only when it did
    assert main(["honesty", s12, "--participant", "B2", "--state-bound", "10"]) == 0
    assert capsys.readouterr().out == ("no violation for B2 up to 10 states (state bound 10); "
                                       "the bound left 10 states undecided\n")
    assert main(["honesty", s12, "--participant", "B2"]) == 0
    assert capsys.readouterr().out == "no violation for B2 up to 118 states (state bound 10000)\n"


@pytest.mark.parametrize("argv", [
    ["honesty", S1, "--participant", "B1"],
    ["honesty", S1, "--participant", "B2", "--format", "json"],
    ["honesty", ROBUST, "--participant", "B", "--state-bound", "5"],
], ids=["violation", "json", "bounded"])
def test_depth_bound_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--depth-bound", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: co2run")
    assert "unrecognized arguments: --depth-bound 5" in err


def test_honesty_on_four_pairs_explores_only_the_checked_pair(tmp_path, capsys):
    # the other pairs share no name with A0, so their steps are never fired:
    # the answer is exact where the whole product hit the bound of 10,000
    # states and left 9,990 undecided
    text, who = pair_context(Random(0), 4, 4, False)
    f = tmp_path / "pairs.co2"
    f.write_text(text)
    assert main(["honesty", str(f), "--participant", who, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == "NoViolationUpToBound"
    assert (report["statesExplored"], report["unknownStates"]) == (13, 0)


def test_honesty_witness_of_a_pair_replays_on_the_whole_file(tmp_path, capsys):
    # the witness fires only B0's pair, and `check` replays it, digest by
    # digest, on the file that holds both pairs
    text, who = pair_context(Random(0), 2, 4, True)
    f, witness = tmp_path / "pairs.co2", tmp_path / "w.trace.jsonl"
    f.write_text(text)
    assert main(["honesty", str(f), "--participant", who, "--trace", str(witness)]) == 3
    steps = trace_from_jsonl(witness.read_text())[0]
    assert steps and {label.actor for label in steps} <= {"A0", "B0"}
    capsys.readouterr()
    assert main(["check", str(witness), str(f), "--format", "json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["stepsReplayed"] == len(steps)


def test_honesty_precondition(capsys):
    assert main(["honesty", SNAPSHOT, "--participant", "B1"]) == 4


def test_honesty_unknown_participant(capsys):
    assert main(["honesty", S1, "--participant", "Nobody"]) == 4
    assert "no participant" in capsys.readouterr().err


def test_honesty_json(capsys):
    assert main(["honesty", S1, "--participant", "B1", "--format", "json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "ViolationFound"
    assert data["reports"][0]["processReadySet"] == [["A", "order"]]


def test_check_ok_and_violation(tmp_path, capsys):
    good = tmp_path / "good.trace.jsonl"
    assert main(["run", ROBUST, "--seed", "5", "--trace", str(good)]) == 0
    capsys.readouterr()
    assert main(["check", str(good), ROBUST]) == 0

    bad = tmp_path / "bad.trace.jsonl"
    assert main(["run", STUCK, "--trace", str(bad)]) == 0
    capsys.readouterr()
    assert main(["check", str(bad), STUCK]) == 3
    out = capsys.readouterr().out
    assert "did not complete" in out


def test_check_tampered_trace(tmp_path, capsys):
    good = tmp_path / "good.trace.jsonl"
    assert main(["run", ROBUST, "--seed", "5", "--trace", str(good)]) == 0
    lines = good.read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    tampered = tmp_path / "tampered.trace.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    # the swapped records are out of step order, so the trace cannot be read
    assert main(["check", str(tampered), ROBUST]) == 2
    # renumbered to their new positions, they diverge on replay
    for i in (3, 4):
        lines[i] = json.dumps({**json.loads(lines[i]), "step": i + 1})
    tampered.write_text("\n".join(lines) + "\n")
    assert main(["check", str(tampered), ROBUST]) == 5


def test_replay_divergence_names_step_label_and_digests(tmp_path, capsys):
    good = tmp_path / "good.trace.jsonl"
    assert main(["run", ROBUST, "--seed", "5", "--trace", str(good)]) == 0
    lines = good.read_text().splitlines()
    record = json.loads(lines[3])
    true_digest = record["stateDigest"]
    record["stateDigest"] = "0123456789abcdef"
    lines[3] = json.dumps(record, sort_keys=True)
    tampered = tmp_path / "tampered.trace.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(tampered), ROBUST]) == 5
    err = capsys.readouterr().err
    label = trace_from_jsonl(good.read_text())[0][3]
    for part in ("step 4:", str(label), "expected 0123456789abcdef", true_digest):
        assert part in err


def test_replay_divergence_lists_the_enabled_labels(tmp_path, capsys):
    good = tmp_path / "good.trace.jsonl"
    assert main(["run", ROBUST, "--seed", "5", "--trace", str(good)]) == 0
    lines = good.read_text().splitlines()
    first = json.loads(lines[0])
    labels = trace_from_jsonl(good.read_text())[0]
    tampered = tmp_path / "tampered.trace.jsonl"
    tampered.write_text("\n".join([json.dumps({**first, "kind": "tau"})] + lines[1:]) + "\n")
    capsys.readouterr()
    assert main(["check", str(tampered), ROBUST]) == 5
    err = capsys.readouterr().err
    assert "step 1: no enabled step matches" in err
    assert str(labels[0]) in err.split("; enabled: ")[1]
    # one step past the terminal state, where nothing is enabled
    extra = json.dumps({**json.loads(lines[-1]), "step": len(lines) + 1})
    tampered.write_text("\n".join(lines + [extra]) + "\n")
    assert main(["check", str(tampered), ROBUST]) == 5
    err = capsys.readouterr().err
    assert f"step {len(lines) + 1}: no enabled step matches {labels[-1]}; enabled: none" in err


MISSING = object()  # the key is deleted from the record


@pytest.mark.parametrize("path, value", [
    ((), [1, 2]), ((), "hello"), (("fuseReport",), 5), (("fuseReport", "sigma"), 5),
    (("fuseReport", "pi"), [1]), (("fuseReport", "globalType"), 5),
    (("fuseReport", "participants"), 5),
    (("actor",), 5), (("kind",), 5), (("stateDigest",), [1]),
    (("actor",), MISSING), (("stateDigest",), MISSING),
    (("fuseReport", "session"), 5), (("peer",), [1]), (("fuseReport", "globalType", "from"), 1),
    # the tampered record is step 5 of its trace: 5.0 and True are not integers
    (("step",), MISSING), (("step",), 0), (("step",), 5.0), (("step",), True),
    (("fuseReport", "globalType"), {"kind": "choice", "branches": []}),
    (("fuseReport", "globalType"), {"kind": "choice", "branches": [{"kind": "end"}]}),
    (("fuseReport", "globalType"), {"kind": "par", "branches": []}),
    (("fuseReport", "globalType"), {"kind": "par", "branches": [{"kind": "end"}]}),
])
def test_check_rejects_malformed_trace_records(path, value, tmp_path, capsys):
    good = tmp_path / "good.trace.jsonl"
    assert main(["run", S1, "--seed", "0", "--trace", str(good)]) == 0
    lines = good.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if '"fuseReport"' in line)
    record = json.loads(lines[at])
    inner = record
    for key in path[:-1]:
        inner = inner[key]
    if not path:
        record = value
    elif value is MISSING:
        del inner[path[-1]]
    else:
        inner[path[-1]] = value
    lines[at] = json.dumps(record)
    tampered = tmp_path / "bad.trace.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(tampered), S1]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read trace: trace line {at + 1}: ")
    if value is MISSING:
        assert err.rstrip().endswith(f"missing {path[-1]!r}")


def test_check_reads_a_record_nested_too_deeply_for_json_as_a_located_refusal(tmp_path, capsys):
    """A fuse report whose global type nests 50,000 levels: `json.loads`
    raises RecursionError, which once left `check` as an internal error.
    The depth is past every supported interpreter's limit: the recursion
    limit (1,000) on 3.10 and 3.11, the C scanner's fixed nesting limit
    (8,000 on 3.12, 10,000 on 3.13) from 3.12 on."""
    good = tmp_path / "good.trace.jsonl"
    assert main(["run", S1, "--seed", "0", "--trace", str(good)]) == 0
    lines = good.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if '"fuseReport"' in line)
    record = json.loads(lines[at])
    record["fuseReport"]["globalType"] = "DEEP"
    depth = 50_000
    deep = '{"kind": "msg", "from": "A", "to": "B1", "sort": "a", "cont": ' * depth
    lines[at] = json.dumps(record).replace('"DEEP"', deep + '{"kind": "end"}' + "}" * depth)
    tampered = tmp_path / "deep.trace.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(tampered), S1]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read trace: trace line {at + 1}: nested too deeply to read: ")
    assert len(err.splitlines()) == 1


def test_honesty_text_output_does_not_depend_on_the_hash_seed():
    env = dict(os.environ, PYTHONPATH=str(Path(co2run.__file__).parents[1]))
    outs = set()
    for seed in ("1", "4"):
        done = subprocess.run(
            [sys.executable, "-m", "co2run.cli", "honesty", S1, "--participant", "B1"],
            env={**env, "PYTHONHASHSEED": seed}, capture_output=True, text=True,
        )
        assert done.returncode == 3
        outs.add(done.stdout)
    assert len(outs) == 1
    assert "[[('B2', 'bye')], [('B2', 'ok')]]" in outs.pop()


def test_fuse_min_flag_restricts_sessions(capsys):
    s12 = str(fixture_path("store_s12.co2"))
    for seed in ("0", "3", "11"):
        assert main([
            "run", s12, "--seed", seed, "--fuse-min", "3", "--format", "json"
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["sessions"]) == 1


@pytest.mark.parametrize("body", ["fuse", "(u) (fuse | tau . tell A @u { B!bool })"])
def test_fuse_policy_flags_reach_fuse_in_definition_bodies(body, tmp_path, capsys):
    path = tmp_path / "def_fuse.co2"
    path.write_text(
        "participant A { tell A @x { B!int } . F() }\n"
        "participant B { tell A @y { a?int } . do y a?int }\n"
        f"def F() = {body}\n"
    )
    assert main(["run", str(path)]) == 0
    assert "session s1" in capsys.readouterr().out
    assert main(["run", str(path), "--fuse-min", "3"]) == 0
    assert "no sessions were created" in capsys.readouterr().out


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_fuse_min_below_two_is_a_usage_error(n, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(fixture_path("subset_fuse.co2")), "--fuse-min", n])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: co2run")
    assert "sessions need at least two participants" in err


def test_a_min_that_is_no_ascii_number_is_a_located_error(tmp_path, capsys):
    path = tmp_path / "min.co2"
    path.write_text("participant A { tell A @x { b!m } . fuse(min=\u00b2) }\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:1:46-1:47: error: min= needs a number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["synth", PAIR, "--max-configs"],
    ["run", S1, "--max-steps"],
    ["run", S1, "--fairness-window"],
    ["honesty", S1, "--participant", "B1", "--state-bound"],
], ids=lambda argv: argv[-1])
def test_negative_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: co2run")
    assert f"argument {argv[-1]}: must not be negative, got -1" in err


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("command, name", [
    ("synth", "synthesize"),
    ("run", "run"),
    ("honesty", "check_honesty"),
    ("check", "check_trace_properties"),
])
@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"),
                                 MemoryError(), ValueError("first line\nsecond line")],
                         ids=lambda exc: type(exc).__name__)
def test_an_unexpected_exception_exits_6_with_one_line(command, name, exc, monkeypatch,
                                                         tmp_path, capsys):
    """A crash is never a verdict: whatever the command raises, it exits 6
    with `internal error: <type>: <first line of the message>` and no traceback."""
    empty = tmp_path / "empty.trace.jsonl"
    empty.write_text("")
    argv = {"synth": [PAIR], "run": [S1], "honesty": [S1, "--participant", "B1"],
            "check": [str(empty), S1]}[command]
    monkeypatch.setattr(co2run.cli, name, _raise(exc))
    assert main([command, *argv]) == 6
    captured = capsys.readouterr()
    first = str(exc).splitlines()[0] if str(exc) else ""
    assert captured.err == f"internal error: {type(exc).__name__}: {first}\n"
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("exc", [KeyboardInterrupt(), SystemExit(3)],
                         ids=lambda exc: type(exc).__name__)
def test_an_interrupt_or_an_exit_passes_through_the_guard(exc, monkeypatch):
    monkeypatch.setattr(co2run.cli, "synthesize", _raise(exc))
    with pytest.raises(type(exc)):
        main(["synth", PAIR])


def test_run_trace_of_a_thousand_message_pair_is_no_crash_passing_as_a_verdict(tmp_path, capsys):
    """A fuse report nested deeper than the standard `json` encoder allows
    made `run --trace` exit 1, the "no choreography" code, with a traceback.
    Now it exits 6; once traces no longer nest their global types it may
    exit 0, but never anything else."""
    system = tmp_path / "pair1000.co2"
    system.write_text(pair_context(Random(0), 1, 1000, False)[0])
    code = main(["run", str(system), "--trace", str(tmp_path / "out.trace.jsonl")])
    err = capsys.readouterr().err
    assert code in (0, 6), (code, err)
    assert "Traceback" not in err


# -- no input crashes the CLI -------------------------------------------------

DOCUMENTED_EXITS = range(6)  # 0 to 5; 6 is a crash
# a wrong value of another sort, or a plausible name, for a tampered field
TAMPERED_VALUES = (None, -1, 1.5, True, "", "A", "s1", [], {}, {"kind": "end"})


def _no_crash_inputs(family: str) -> list[tuple[str, str]]:
    """(file name, text) of the family's inputs: the fixtures, or 8 contexts
    a generator draws at a fixed seed; and 4 single-edit mutants of each."""
    rng = Random(f"no-crash:{family}")
    if family == "fixtures":
        texts = [(name, fixture_text(name)) for name in (*FIXTURES, *CONTRACT_FILES)]
    else:
        draw = {
            "pair": lambda: pair_context(rng, rng.randint(1, 2), rng.randint(1, 8),
                                         rng.random() < 0.5)[0],
            "recursive": lambda: recursive_pair_context(rng, rng.randint(1, 2), rng.randint(1, 3)),
            "broker": lambda: broker_context(rng, rng.randint(3, 5), rng.random() < 0.5),
            "retell": lambda: retell_context(rng, rng.randint(1, 3)),
        }[family]
        texts = [(f"{family}{i}.co2", draw()) for i in range(8)]
    return texts + [(f"mutant{j}-{name}", mutant) for name, text in texts
                    for j, mutant in enumerate(single_edit_mutants(rng, text, 4))]


def _tampered(lines: list[str], rng: Random):
    """Copies of a trace's lines, each with one field of one record changed:
    every field, `fuseReport`'s too, of its first fuse record and of one
    record drawn by `rng`."""
    fuses = [i for i, line in enumerate(lines) if '"fuseReport"' in line]
    for at in sorted({*fuses[:1], rng.randrange(len(lines))}):
        record = json.loads(lines[at])
        paths = [(key,) for key in record]
        paths += [("fuseReport", key) for key in record.get("fuseReport", ())]
        for path in paths:
            copy = json.loads(lines[at])
            inner = copy
            for key in path[:-1]:
                inner = inner[key]
            inner[path[-1]] = rng.choice(TAMPERED_VALUES)
            yield lines[:at] + [json.dumps(copy)] + lines[at + 1:]


@pytest.mark.parametrize("family", ["fixtures", "pair", "recursive", "broker", "retell"])
def test_no_input_crashes_the_cli(family, tmp_path, capsys):
    """Every subcommand exits with a documented code, never 6, and prints no
    traceback, on the fixtures, generated contexts and single-edit mutants
    of them: `synth` on contract files, `run --trace`, `honesty` for each
    participant, and `check` on each trace and on copies tampered one field
    at a time."""
    rng = Random(family)
    codes = []

    def cli(*argv):
        codes.append((argv[0], main([str(a) for a in argv])))
        assert codes[-1][1] in DOCUMENTED_EXITS, (name, argv, codes[-1][1])
        assert "Traceback" not in capsys.readouterr().err, (name, argv)

    for k, (name, text) in enumerate(_no_crash_inputs(family)):
        path = tmp_path / f"{k}-{name}"
        path.write_text(text)
        if name.endswith(".ctr"):
            cli("synth", path)
            continue
        try:
            participants = [who for who, _ in parse_system(text).processes]
        except ParseError:
            participants = ["A"]
        trace = tmp_path / f"{k}.trace.jsonl"
        cli("run", path, "--trace", trace, "--max-steps", 200)
        for who in participants:
            cli("honesty", path, "--participant", who, "--state-bound", 50)
        if not trace.exists() or not trace.read_text():
            continue
        cli("check", trace, path)
        for lines in _tampered(trace.read_text().splitlines(), rng):
            trace.write_text("\n".join(lines) + "\n")
            cli("check", trace, path)
    synth = {"synth"} if family == "fixtures" else set()
    assert {command for command, _ in codes} >= {"run", "honesty", "check", *synth}
