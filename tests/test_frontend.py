import json
import random

import pytest

from co2run.choreo import canonicalize
from co2run.contracts import END, RecVar, recv_choice, send_choice
from co2run.frontend import (
    ParseError,
    global_from_json,
    global_to_json,
    parse_contract,
    parse_global,
    parse_named_contracts,
    parse_system,
    render_contract,
    render_global,
    render_system,
    trace_from_jsonl,
    trace_to_jsonl,
)
from co2run.fixtures import CONTRACT_FILES, FIXTURES, fixture_text
from co2run.runtime import run
from co2run.analysis import check_trace_properties

from corpus import random_contract, random_global, regex_named_contracts


def test_parse_store_contract_structure():
    c = parse_contract("b1?req . b2?req . b1!quote . (b1?order . b2!ok + b1?bye . b2!bye)")
    assert c == recv_choice(
        "b1",
        [(
            "req",
            recv_choice(
                "b2",
                [(
                    "req",
                    send_choice([(
                        "b1",
                        "quote",
                        recv_choice(
                            "b1",
                            [
                                ("order", send_choice([("b2", "ok", END)])),
                                ("bye", send_choice([("b2", "bye", END)])),
                            ],
                        ),
                    )]),
                )],
            ),
        )],
    )


def test_parse_end_and_bare_variable():
    assert parse_contract("end") == END
    assert parse_contract("rec x . a!p . x").body == send_choice([("a", "p", RecVar("x"))])


def test_choice_order_is_representation_identity():
    assert parse_contract("a!x . end (+) b!y . end") == parse_contract(
        "b!y . end (+) a!x . end"
    )
    assert parse_contract("a?x + a?y") == parse_contract("a?y + a?x")


def test_mixed_choice_rejected():
    with pytest.raises(ParseError, match="choice"):
        parse_contract("a!x . end + a?y . end")


def test_mixed_sources_rejected():
    with pytest.raises(ParseError, match="one participant"):
        parse_contract("a?x + b?y")


def test_duplicate_branches_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_contract("a!x (+) a!x")
    with pytest.raises(ParseError, match="duplicate"):
        parse_contract("a?x . b!u + a?x")


def test_unguarded_recursion_rejected():
    with pytest.raises(ParseError, match="unguarded"):
        parse_contract("rec x . x")


def test_duplicate_participant_rejected():
    with pytest.raises(ParseError, match="duplicate participant"):
        parse_system("participant A { 0 } participant A { 0 }")


def test_undefined_call_rejected():
    with pytest.raises(ParseError, match="undefined"):
        parse_system("participant A { X() }")


def test_call_arity_mismatch_rejected():
    with pytest.raises(ParseError, match="arity mismatch calling X in participant A"):
        parse_system("participant A { X(u) } def X() = tau")
    with pytest.raises(ParseError, match="arity mismatch calling X in def Y"):
        parse_system("participant A { Y() } def X(u; a) = 0 def Y() = (u) X(u)")


def test_bad_calls_are_reported_in_source_order():
    # each at the name of the call it is about, not at the end of input
    for text, message, where in (
            ("participant A { tau . (Z() | X()) + do u b!p . X(u) } def X(u) = 0",
             "call to undefined process Z in participant A", (1, 24, 1, 25)),
            ("participant A { (u) (X(u, u) | Y()) } def X(u) = 0",
             "arity mismatch calling X in participant A", (1, 22, 1, 23)),
            ("def Y() = (u) X(u, u)\nparticipant A { Y() }\ndef X(u) = 0",
             "arity mismatch calling X in def Y", (1, 15, 1, 16))):
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert [(d.message, d.span) for d in exc.value.diagnostics] == [(message, where)]


def test_def_free_variable_rejected():
    # at the definition's name, before the rest of the file is read
    with pytest.raises(ParseError) as exc:
        parse_system("participant A { 0 }\ndef X(u) = do u b!p . X(u)\nparticipant B {")
    assert [(d.message, d.span) for d in exc.value.diagnostics] == [
        ("def X uses 'b' which is neither a parameter nor delimited", (2, 5, 2, 6))]


def test_diagnostics_carry_spans():
    text = "participant A { tell }"
    try:
        parse_system(text)
        assert False, "should not parse"
    except ParseError as err:
        assert err.diagnostics
        lines = text.splitlines()
        for d in err.diagnostics:
            l1, c1, l2, c2 = d.span
            assert 1 <= l1 <= len(lines) + 1
            assert c1 >= 1 and (l2, c2) >= (l1, c1)


def test_all_fixtures_parse_cleanly():
    for name in FIXTURES:
        parse_system(fixture_text(name))
    for name in CONTRACT_FILES:
        named = parse_named_contracts(fixture_text(name))
        assert len(named) >= 2


def test_named_contract_duplicate_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_named_contracts("A: end\nA: end\n")


def test_named_contracts_agree_with_the_regex_reader_on_fixtures():
    for name in CONTRACT_FILES:
        text = fixture_text(name)
        assert parse_named_contracts(text) == regex_named_contracts(text)


@pytest.mark.parametrize("text, message, span", [
    ("A: B!x . C?y . 5", "expected a contract", (1, 16, 1, 17)),
    ("Alpha: B!x (+) B?y", "internal-choice branches must send", (1, 16, 1, 17)),
    ("A: B!x\nB:   A?x . $", "unexpected character '$'", (2, 12, 2, 13)),
    ("A: B!x\n  A: B?y", "duplicate contract for A", (2, 3, 2, 4)),
    ("A: B!x\nb: A?x", "participant names start uppercase", (2, 1, 2, 2)),
    ("# lead\nx\nA: B!x", "expected 'Name: contract' entries", (2, 1, 2, 2)),
    ("A: B!x C: D!y", "trailing input after contract: 'C'", (1, 8, 1, 9)),
    # a bad choice is reported at its first branch at fault
    ("A: B?x + C?y", "external choice must receive from one participant, got ['B', 'C']",
     (1, 10, 1, 11)),
    ("A: B?x + B?y + (C?z)", "external choice must receive from one participant", (1, 16, 1, 17)),
    ("A: B?x + B!y", "external-choice branches must receive", (1, 10, 1, 11)),
    ("A: B!x (+) C!y (+) rec t . B?z", "internal-choice branches must send", (1, 20, 1, 23)),
])
def test_named_contract_diagnostics_carry_the_true_position(text, message, span):
    with pytest.raises(ParseError) as err:
        parse_named_contracts(text)
    (diag,) = err.value.diagnostics
    assert message in diag.message and diag.span == span


@pytest.mark.parametrize("body, message, span", [
    ("(x, Y) 0", "expected a delimited variable, found 'Y'", (1, 21, 1, 22)),
    ("(; a, tau) 0", "expected a delimited variable, found 'tau'", (1, 23, 1, 26)),
    ("(x, ; a) 0", "expected a delimited variable, found ';'", (1, 21, 1, 22)),
    ("(;; a) 0", "expected a delimited variable, found ';'", (1, 19, 1, 20)),
    ("fuse(bogus)", "unknown fuse option 'bogus'", (1, 22, 1, 27)),
    ("fuse(min=3, smallest, bogus)", "unknown fuse option 'bogus'", (1, 39, 1, 44)),
    # digits, but not ASCII ones: `int` fails on `²` and would read `٣` as 3
    ("fuse(min=\u00b2)", "min= needs a number", (1, 26, 1, 27)),
    ("fuse(min=2\u00b2)", "min= needs a number", (1, 26, 1, 28)),
    ("fuse(min=\u0663)", "min= needs a number", (1, 26, 1, 27)),
])
def test_bad_delimitation_or_fuse_option_is_reported_at_its_token(body, message, span):
    with pytest.raises(ParseError) as err:
        parse_system(f"participant A {{ {body} }}")
    (diag,) = err.value.diagnostics
    assert diag.message == message and diag.span == span


@pytest.mark.parametrize("text, span", [
    ("participant A { X(x,; a) } def X(u; b) = 0", (1, 21, 1, 22)),
    ("participant A { X(;; a) } def X(u; b) = 0", (1, 20, 1, 21)),
    ("participant A { X(x; a) } def X(u,; b) = 0", (1, 35, 1, 36)),
    ("participant A { X(x; a) } def X(;; b) = 0", (1, 34, 1, 35)),
])
def test_stray_semicolon_in_an_argument_list_is_rejected_at_it(text, span):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    (diag,) = err.value.diagnostics
    assert diag.message == "expected argument, found ';'" and diag.span == span


def test_contract_round_trip_fixtures_and_random():
    rng = random.Random(23)
    cases = []
    for name in CONTRACT_FILES:
        cases.extend(parse_named_contracts(fixture_text(name)).values())
    names = ["A", "B", "C"]
    for _ in range(600):
        me = rng.choice(names)
        peers = [n for n in names if n != me]
        cases.append(random_contract(rng, peers, depth=rng.randint(1, 4)))
    for c in cases:
        assert parse_contract(render_contract(c)) == c


def test_global_round_trip_random():
    rng = random.Random(29)
    for _ in range(400):
        g = canonicalize(random_global(rng))
        assert parse_global(render_global(g)) == g
        assert global_from_json(global_to_json(g)) == g
        assert global_from_json(json.loads(json.dumps(global_to_json(g)))) == g


def test_system_round_trip_fixtures():
    for name in FIXTURES:
        system = parse_system(fixture_text(name))
        again = parse_system(render_system(system))
        assert again == system, name


def test_render_global_stable():
    g = canonicalize(parse_global("A -> B : p ; (B -> C : q \\/ B -> A : p)"))
    assert render_global(g) == render_global(canonicalize(g))


def test_trace_round_trip_and_replay():
    system = parse_system(fixture_text("robust_pair.co2"))
    trace = run(system, seed=2, max_steps=400)
    text = trace_to_jsonl(trace)
    steps, digests = trace_from_jsonl(text)
    assert steps == trace.steps
    assert digests == trace.digests
    report = check_trace_properties(steps, digests, system)
    assert report.ok
    # serialization is byte-stable
    assert trace_to_jsonl(run(system, seed=2, max_steps=400)) == text


def test_empty_trace_file():
    system = parse_system(fixture_text("store_s1.co2"))
    empty = run(system, seed=0, max_steps=0)
    assert trace_to_jsonl(empty) == ""
    assert trace_from_jsonl("") == ((), ())


def test_fuse_record_carries_the_agreement():
    system = parse_system(fixture_text("store_s1.co2"))
    trace = run(system, seed=0, max_steps=200)
    records = [json.loads(line) for line in trace_to_jsonl(trace).splitlines()]
    fuse = next(r for r in records if r["kind"] == "fuse")
    assert fuse["fuseReport"]["participants"] == ["A", "B1", "B2"]
    g = global_from_json(fuse["fuseReport"]["globalType"])
    from test_choreo import G_STORE3_TEXT

    assert canonicalize(g) == canonicalize(parse_global(G_STORE3_TEXT))
    assert set(fuse["fuseReport"]["pi"].values()) == {"A", "B1", "B2"}


def test_delimitation_round_trip_in_definitions():
    src = (
        "participant A { X(; B) }\n"
        "def X(; b) = (y; b') tell A @y { b'!quote . b!address } . fuse\n"
        "participant B { 0 }\n"
    )
    system = parse_system(src)
    assert parse_system(render_system(system)) == system
