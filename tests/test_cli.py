import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import co2run
from co2run.cli import main
from co2run.fixtures import fixture_path
from co2run.frontend import parse_global, trace_from_jsonl
from corpus import pair_context


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
    # checked once the block's contracts are read: a queue may come first
    f = tmp_path / "queue.co2"
    for text, span, ends in (
            ("session s { A: B!x  B: A?x queue A -> A : [x] }\n", "1:34-1:35", "A->A"),
            ("session s {\n  queue A -> C : []\n  A: B!x  B: A?x }\n", "2:9-2:10", "A->C")):
        f.write_text(text)
        assert main(["run", str(f)]) == 2
        assert capsys.readouterr().err == (
            f"{f}:{span}: error: queue {ends} does not connect two distinct participants\n")


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
