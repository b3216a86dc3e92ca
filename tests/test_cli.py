import json
import os
import subprocess
import sys
from pathlib import Path

import co2run
from co2run.cli import main
from co2run.fixtures import fixture_path
from co2run.frontend import parse_global, trace_from_jsonl


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
