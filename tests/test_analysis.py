import dataclasses
import itertools
import random

import pytest

from co2run import analysis
from co2run.analysis import (
    AnalysisError,
    ReplayError,
    StateGraph,
    check_honesty,
    check_trace_properties,
    culpable,
    is_initial_for,
    process_ready_set,
    _replay_one,
    ready,
    weak_process_ready_set,
)
from co2run.contracts import is_terminated
from co2run.frontend import parse_system, trace_from_jsonl, trace_to_jsonl
from co2run.fixtures import FIXTURES, fixture_text
from co2run.runtime import StepLabel, apply_step, enabled_steps, normalize, run, system_digest

from corpus import pair_context, recursive_pair_context
from oracle import exculpation_within
from test_runtime import _drive, S1_PLAN, traced_contexts, walk


def _load(name):
    return parse_system(fixture_text(name))


def _post_fuse_store():
    return _drive(_load("store_s1.co2"), S1_PLAN)[0]


# -- culpability ----------------------------------------------------------------

def test_culpable_in_snapshot():
    s = _load("store_s1pp.co2")
    assert culpable(s, "s") == frozenset(["B1"])


def test_culpable_send_only():
    s = _load("do_int_bool.co2")
    assert culpable(s, "s") == frozenset(["A"])


def test_culpable_empty_when_terminated():
    s = _load("do_int_bool.co2")
    for _ in range(2):
        s, _ = apply_step(s, enabled_steps(s)[0])
    assert is_terminated(s.session("s"))
    assert culpable(s, "s") == frozenset()


def test_culpable_unknown_session():
    with pytest.raises(AnalysisError):
        culpable(_load("do_int_bool.co2"), "nope")


# -- ready sets -------------------------------------------------------------------

def test_ready_set_table_after_fusion():
    s = _post_fuse_store()
    assert process_ready_set(s, "A", "s1") == frozenset([("B1", "req")])
    assert process_ready_set(s, "B1", "s1") == frozenset()
    assert process_ready_set(s, "B2", "s1") == frozenset([("A", "req")])
    wa, _ = weak_process_ready_set(s, "A", "s1")
    wb1, _ = weak_process_ready_set(s, "B1", "s1")
    wb2, _ = weak_process_ready_set(s, "B2", "s1")
    assert wa == frozenset([("B1", "req")])
    assert wb1 == frozenset([("A", "req")])  # weakly ready: an internal step first
    assert wb2 == frozenset([("A", "req")])
    for who in ("A", "B1", "B2"):
        verdict, _ = ready(s, who)
        assert verdict is True


def test_snapshot_mismatch():
    s = _load("store_s1pp.co2")
    assert process_ready_set(s, "B1", "s") == frozenset([("A", "order")])
    verdict, reports = ready(s, "B1")
    assert verdict is False
    (report,) = reports
    assert report.contract_ready_sets == frozenset(
        [frozenset([("B2", "ok")]), frozenset([("B2", "bye")])]
    )
    assert report.weak_process_ready_set == frozenset([("A", "order")])


def test_shadowed_session_variable_is_not_ready():
    # a delimited variable spelled like the installed session refers to a
    # future, different session: the offer must not count towards this one
    src = """
    participant A { (s) do s B!int }
    participant B { do s A?int }
    session s {
      A: B!int
      B: A?int
    }
    """
    system = parse_system(src)
    assert process_ready_set(system, "A", "s") == frozenset()
    assert process_ready_set(system, "B", "s") == frozenset([("A", "int")])
    verdict, _ = ready(system, "A")
    assert verdict is False  # A's contract demands (B, int) but A acts elsewhere


def test_weak_ready_set_passes_through_a_do_on_another_session():
    # A must first act on s2 before it can offer what s1 asks of it
    s = parse_system("""
    participant A { do s2 B!x . do s1 C!y }
    participant B { do s2 A?x }
    participant C { do s1 A?y }
    session s1 {
      A: C!y
      C: A?y
    }
    session s2 {
      A: B!x
      B: A?x
    }
    """)
    assert process_ready_set(s, "A", "s1") == frozenset()
    assert weak_process_ready_set(s, "A", "s1") == (frozenset([("C", "y")]), False)
    assert weak_process_ready_set(s, "A", "s2") == (frozenset([("B", "x")]), False)
    assert ready(s, "A")[0] is True


def test_weak_ready_set_of_terminated_system():
    s = _load("do_int_bool.co2")
    for _ in range(2):
        s, _ = apply_step(s, enabled_steps(s)[0])
    w, exhausted = weak_process_ready_set(s, "A", "s")
    assert w == frozenset() and not exhausted


def test_weak_contains_immediate_on_reachable_states():
    rng = random.Random(17)
    sampled = 0
    for name in ("store_s1.co2", "robust_pair.co2", "group_honesty.co2"):
        system = _load(name)
        for _ in range(16):
            state = system
            for _ in range(rng.randrange(4, 16)):
                steps = enabled_steps(state)
                if not steps:
                    break
                state, _ = apply_step(state, steps[rng.randrange(len(steps))])
            for sname, t in state.sessions:
                for who in t.participants:
                    rdo = process_ready_set(state, who, sname)
                    wrdo, _ = weak_process_ready_set(state, who, sname, StateGraph(500))
                    assert rdo <= wrdo
                    sampled += 1
    assert sampled >= 100


def test_weak_ready_set_monotone_in_bound():
    s = _post_fuse_store()
    small, _ = weak_process_ready_set(s, "B1", "s1", StateGraph(2))
    big, exhausted = weak_process_ready_set(s, "B1", "s1", StateGraph(2000))
    assert small <= big and not exhausted


def _weak_by_reachability(graph, state, who, session):
    """W and the cut flag by brute force: the union of the immediate ready
    sets of every state `graph.successors` reaches from `state` by steps that
    leave the session alone; cut when one of them lies beyond the bound."""
    pairs, cut = set(), False
    seen, todo = {state}, [state]
    while todo:
        at = todo.pop()
        pairs |= process_ready_set(at, who, session)
        edges = graph.successors(at)
        cut |= edges is None
        for nxt, label in edges or ():
            if nxt not in seen and not (
                    label.actor == who and label.kind == "do" and label.session == session):
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(pairs), cut


# A cycles through internal steps, offering B!a on one side of the cycle
# and B!b on the other: every state on it must see both
SPINNING_OFFERS = """
participant A { tell A @x { B!a (+) B!b } . fuse . L(x) }
def L(u) = tau . (do u B!a + tau . M(u))
def M(u) = tau . (do u B!b + tau . L(u))
participant B { tell A @y { A?a + A?b } . (do y A?a + do y A?b) }
"""


def test_weak_ready_sets_and_cut_flags_agree_with_a_brute_force_union():
    # every question on one context shares its graph, so later questions
    # start from the sets earlier ones solved. The states are asked about in
    # walk order; deepest first; and deepest first once the walk's states
    # are expanded, so that an expanded state meets a successor solved with
    # a cut, as in the honesty search. Each set a question solves on the way
    # is checked once, and the asked state's at every question
    rng = random.Random(29)
    texts = [fixture_text(name) for name in FIXTURES] + [SPINNING_OFFERS]
    texts += [pair_context(rng, pairs, n, dishonest)[0]
              for pairs, n in ((1, 3), (2, 3), (2, 4)) for dishonest in (False, True)]
    texts += [recursive_pair_context(rng, pairs, n) for pairs, n in ((1, 2), (2, 3))]
    asked = cut = 0
    for text in texts:
        state = normalize(parse_system(text))
        states = [state]
        for _ in range(12):
            steps = enabled_steps(state)
            if not steps:
                break
            state, _ = apply_step(state, rng.choice(steps))
            states.append(state)
        for bound, (order, expand) in itertools.product(
                (1, 3, 10, 100, 10_000), ((1, False), (-1, False), (-1, True))):
            graph = StateGraph(bound)
            for state in states if expand else ():
                graph.successors(state)
            for state in states[::order]:
                for sname, t in state.sessions:
                    for who in t.participants:
                        before = graph.weak.keys() - {(who, sname, state)}
                        weak_process_ready_set(state, who, sname, graph)
                        expanded = len(graph.edges)
                        for key in graph.weak.keys() - before:
                            got = graph.weak[key]
                            assert got == _weak_by_reachability(graph, key[2], *key[:2]), (
                                text, bound, key[:2])
                            asked += 1
                            cut += got[1]
                        assert len(graph.edges) == expanded  # the question expanded all it reaches
    assert asked > 1_000 and 100 < cut < asked


def test_ready_vacuous_for_finished_contract():
    s = _load("do_int_bool.co2")
    s, _ = apply_step(s, enabled_steps(s)[0])  # A has sent; its contract is end
    verdict, reports = ready(s, "A")
    assert verdict is True
    assert reports[0].contract_ready_sets == frozenset()


def test_ready_not_hurt_by_extra_offer():
    base = _load("store_s1pp.co2")
    verdict, _ = ready(base, "B1")
    assert verdict is False
    # give B1 the notification branch it owes: readiness flips to true,
    # adding offers never flips it the other way
    richer = parse_system(fixture_text("store_s1pp.co2").replace(
        "do s A!order", "do s B2!ok . do s A!order + do s A!order"
    ))
    verdict2, _ = ready(richer, "B1")
    assert verdict2 is True


# -- honesty -----------------------------------------------------------------------

def test_initiality():
    assert is_initial_for(_load("store_s1.co2"), "B1")
    snapshot = _load("store_s1pp.co2")
    assert not is_initial_for(snapshot, "B1")
    with pytest.raises(AnalysisError):
        check_honesty(snapshot, "B1")


def test_buggy_buyer_is_dishonest():
    verdict = check_honesty(_load("store_s1.co2"), "B1", state_bound=10_000)
    assert verdict.violation_found
    report = next(r for r in verdict.witness_reports if r.ready is False)
    assert report.process_ready_set == frozenset([("A", "order")])
    assert report.contract_ready_sets == frozenset(
        [frozenset([("B2", "ok")]), frozenset([("B2", "bye")])]
    )
    # the witness replays to a state where B1 is culpable
    state = normalize(_load("store_s1.co2"))
    fired = {}
    for i, label in enumerate(verdict.witness.steps):
        state = _replay_one(fired, state, label, None, i + 1)
    assert culpable(state, report.session) == frozenset(["B1"])
    v, _ = ready(state, "B1")
    assert v is False


def test_store_and_second_buyer_have_no_violation_here():
    for who in ("A", "B2"):
        verdict = check_honesty(_load("store_s1.co2"), who, state_bound=10_000)
        assert not verdict.violation_found


def test_repaired_buyer_passes_the_honesty_check():
    src = fixture_text("store_s1.co2").replace(
        "tau . do y a!req . do y a?quote . do y a!order",
        "tau . do y a!req . do y a?quote . do y b2'!ok . do y a!order",
    )
    verdict = check_honesty(parse_system(src), "B1", state_bound=10_000)
    assert not verdict.violation_found


def test_multi_session_dishonesty():
    s = _load("stuck_pair.co2")
    for who in ("A", "B"):
        verdict = check_honesty(s, who, state_bound=10_000)
        assert verdict.violation_found, who
    verdict_c = check_honesty(s, "C", state_bound=10_000)
    assert not verdict_c.violation_found


def test_robust_variant_has_no_violations():
    s = _load("robust_pair.co2")
    for who in ("A", "B", "C"):
        verdict = check_honesty(s, who, state_bound=10_000)
        assert not verdict.violation_found, who


def test_group_honesty_example():
    s = _load("group_honesty.co2")
    assert check_honesty(s, "B").violation_found
    assert not check_honesty(s, "A").violation_found
    # yet the closed system progresses to completion
    t = run(s, seed=0, max_steps=100)
    assert all(is_terminated(x) for _, x in t.terminal.sessions)


def _count_expansions(monkeypatch) -> list:
    """The (state, participant) pairs `analysis` asks `enabled_steps` about,
    in order. Honesty and replay name one participant per call; the
    participant is None when every participant's steps are asked for."""
    calls = []

    def counted(state, participant=None):
        calls.append((state, participant))
        return enabled_steps(state, participant)
    monkeypatch.setattr(analysis, "enabled_steps", counted)
    return calls


def test_honest_pairs_progress_and_a_dishonest_twin_is_blamed():
    # the paper's theorem: honest participants give progress and session
    # fidelity; a participant that drops an action is found dishonest and
    # left culpable wherever its session stops
    for pairs in (1, 2):
        for n in range(2, 9):  # the twin draws the same sorts from the same seed
            text, who = pair_context(random.Random(n), pairs, n, dishonest=False)
            system = parse_system(text)
            verdict = check_honesty(system, who)
            assert not verdict.violation_found and verdict.unknown_states == 0, text
            for seed in range(5):
                trace = run(system, seed=seed)
                sessions = trace.terminal.sessions
                assert len(sessions) == pairs, (text, seed)
                assert all(is_terminated(t) for _, t in sessions), (text, seed)
                assert check_trace_properties(trace.steps, trace.digests, system).ok, (text, seed)

            text, who = pair_context(random.Random(n), pairs, n, dishonest=True)
            system = parse_system(text)
            assert check_honesty(system, who).violation_found, text
            for seed in range(5):
                terminal = run(system, seed=seed).terminal
                assert len(terminal.sessions) == pairs, (text, seed)
                for sname, t in terminal.sessions:  # every B<i> drops an action
                    assert not is_terminated(t), (text, seed)
                    blamed = {p for p in t.participants if p.startswith("B")}
                    assert culpable(terminal, sname) == blamed and len(blamed) == 1, (text, seed)


def test_honesty_expands_each_state_once_and_at_most_the_bound(monkeypatch):
    calls = _count_expansions(monkeypatch)
    system = _load("store_s12.co2")
    group = analysis._group(normalize(system), "B2")
    for bound in (1, 10, 50, 10_000):
        calls.clear()
        verdict = check_honesty(system, "B2", state_bound=bound)
        # each (state, member) pair once, and members only
        assert len(calls) == len(set(calls))
        assert all(who in group for _, who in calls)
        assert len({state for state, _ in calls}) <= bound
        assert verdict.states_explored <= bound
    # the complete search expands each of the 118 reachable states once
    assert len({state for state, _ in calls}) == verdict.states_explored == 118
    assert verdict.unknown_states == 0
    # of two pairs, only the checked one is ever asked for steps
    text, who = pair_context(random.Random(0), 2, 3, False)
    calls.clear()
    check_honesty(parse_system(text), who)
    assert {p for _, p in calls} == {"A0", "B0"}


def test_replay_expands_each_revisited_state_once(monkeypatch):
    system = _load("pingpong.co2")
    trace = run(system, seed=0, max_steps=300)
    assert len(trace.steps) == 300
    calls = _count_expansions(monkeypatch)
    assert check_trace_properties(trace.steps, trace.digests, system).steps_replayed == 300
    # replay asks for the label's actor only, once per (state, participant)
    assert 0 < len(calls) == len(set(calls)) < len(trace.steps)
    assert {who for _, who in calls} == {label.actor for label in trace.steps}


def test_exculpation_in_robust_fixture():
    s = _load("robust_pair.co2")
    seen = {normalize(s)}
    frontier = [normalize(s)]
    checked = 0
    while frontier:
        state = frontier.pop()
        for sname, _ in state.sessions:
            for who in culpable(state, sname):
                assert exculpation_within(state, who, sname, 200), (who, sname)
                checked += 1
        for step in enabled_steps(state):
            nxt, _ = apply_step(state, step)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert checked > 0


# -- trace properties ---------------------------------------------------------------

def test_robust_trace_satisfies_properties():
    s = _load("robust_pair.co2")
    t = run(s, seed=4, max_steps=500)
    report = check_trace_properties(t.steps, t.digests, s)
    assert report.ok
    assert sorted(report.terminated_sessions) == ["s1", "s2"]


def test_stuck_trace_reports_progress_violation():
    s = _load("stuck_pair.co2")
    t = run(s, seed=0, max_steps=500)
    report = check_trace_properties(t.steps, t.digests, s)
    assert not report.ok
    live = dict(report.live_sessions)
    assert live["s1"] == ("A",)
    assert live["s2"] == ("B",)


def test_label_directed_replay_picks_the_first_matching_successor():
    for name, system, trace in traced_contexts():
        fired, blind = {}, {}  # blind: replay without digests
        for i, (state, label, nxt) in enumerate(walk(system, trace)):
            successors = StateGraph().successors(state)
            digest = trace.digests[i]
            assert _replay_one(fired, state, label, digest, i + 1) == nxt == next(
                n for n, produced in successors if produced == label and system_digest(n) == digest
            ), (name, i)
            assert _replay_one(blind, state, label, None, i + 1) == next(
                n for n, produced in successors if produced == label), (name, i)


def test_a_forged_label_lists_every_participants_enabled_labels():
    system = parse_system(pair_context(random.Random(0), 2, 3, False)[0])
    trace = run(system, seed=0, max_steps=10)
    k = next(i for i, label in enumerate(trace.steps) if label.kind == "do")
    state = list(walk(system, trace))[k][0]
    enabled = [apply_step(state, s)[1] for s in enabled_steps(state)]
    assert len({label.actor for label in enabled}) > 1
    forged = dataclasses.replace(trace.steps[k], sort="r")
    with pytest.raises(ReplayError) as err:
        check_trace_properties(trace.steps[:k] + (forged,), trace.digests[:k + 1], system)
    assert str(err.value) == (f"step {k + 1}: no enabled step matches {forged}; "
                              f"enabled: {', '.join(map(str, enabled))}")


def test_a_digest_mismatch_lists_both_equal_label_branches():
    system = parse_system("""
    participant A {
      tau . tell A @x { B!int } . 0 | tau . 0
    }
    participant B { tau . 0 }
    """)
    state = normalize(system)
    taus = [s for s in enabled_steps(state) if s.actor == "A"]
    got = ", ".join(system_digest(apply_step(state, s)[0]) for s in taus)
    assert len(taus) == 2 and len(enabled_steps(state)) == 3
    with pytest.raises(ReplayError) as err:
        check_trace_properties((StepLabel("A", "tau"),), ("0" * 16,), system)
    assert str(err.value) == (f"step 1: state digest mismatch after {StepLabel('A', 'tau')}: "
                              f"expected {'0' * 16}, candidate successors have {got}")


def test_replay_disambiguates_identical_labels():
    # two parallel internal steps carry the same label; the recorded digests
    # must steer the replay onto the branch that was actually taken
    src = """
    participant A {
      tau . tell A @x { B!int } . 0 | tau . 0
    }
    participant B { 0 }
    """
    system = parse_system(src)
    state = normalize(system)
    from co2run.runtime import system_digest

    taus = [s for s in enabled_steps(state) if s.kind == "tau"]
    assert len(taus) == 2
    for chosen in taus:
        nxt, label = apply_step(state, chosen)
        report = check_trace_properties((label,), (system_digest(nxt),), system)
        assert report.ok


def test_tampered_trace_diverges():
    s = _load("robust_pair.co2")
    t = run(s, seed=4, max_steps=500)
    text = trace_to_jsonl(t)
    tampered = text.replace('"sort": "int"', '"sort": "bool"', 1)
    steps, digests = trace_from_jsonl(tampered)
    with pytest.raises(ReplayError):
        check_trace_properties(steps, digests, s)


def test_empty_trace_on_initial_system():
    s = _load("store_s1.co2")
    report = check_trace_properties((), (), s)
    assert report.ok and not report.live_sessions


def test_orphan_message_is_a_violation():
    s = parse_system("""
    participant A { 0 }
    participant B { 0 }
    session s {
      A: end
      B: end
      queue A -> B : [int]
    }
    """)
    report = check_trace_properties((), (), s)
    assert "initial state: orphan message A->B:int in s" in report.violations
