import random

import pytest

from co2run.choreo import canonicalize, project, well_formed
from co2run.contracts import (
    END,
    ContractError,
    head_normal,
    make_system,
    recv,
    recv_choice,
    send,
    send_choice,
)
from co2run.frontend import parse_contract, parse_global, parse_named_contracts
from co2run.fixtures import fixture_text
from co2run import synthesis
from co2run.synthesis import (
    MIXED_RACE,
    NOT_PROJECTABLE,
    STUCK,
    UNBOUNDED,
    answered,
    can_start,
    peer_actions,
    projection_matches,
    synthesize,
)

from corpus import corpus_system
from oracle import ALL_RUNS_COMPLETE, CYCLE_WITHOUT_PROGRESS, STUCK_CONFIG, _sccs, execution_oracle
from test_choreo import G_STORE2_TEXT, G_STORE3_TEXT


def _trio():
    return parse_named_contracts(fixture_text("store_trio.ctr"))


def _pair():
    return parse_named_contracts(fixture_text("store_pair.ctr"))


def test_store_trio_reproduces_choreography():
    result = synthesize(make_system(_trio()))
    assert result.ok
    assert canonicalize(result.global_type) == canonicalize(parse_global(G_STORE3_TEXT))


def test_store_pair_reproduces_choreography():
    result = synthesize(make_system(_pair()))
    assert result.ok
    assert canonicalize(result.global_type) == canonicalize(parse_global(G_STORE2_TEXT))


def test_minimal_two_party_exchange():
    t = make_system({"A1": send("A2", "int"), "A2": recv("A1", "int")})
    result = synthesize(t)
    assert result.ok
    assert canonicalize(result.global_type) == canonicalize(parse_global("A1 -> A2 : int"))


def test_sort_mismatch_is_stuck():
    t = make_system({"A": send("B", "int"), "B": recv("A", "bool")})
    result = synthesize(t)
    assert not result.ok and result.reason == STUCK


def test_unserved_third_party_is_stuck():
    t = make_system(
        {"A1": send("A2", "int"), "A2": recv("A1", "int"), "A3": recv("A1", "bool")}
    )
    result = synthesize(t)
    assert not result.ok and result.reason == STUCK


def test_compliant_store_and_empty():
    assert synthesize(make_system(_trio())).ok
    assert synthesize(make_system({})).ok


def test_synthesize_requires_empty_queues():
    t = make_system(
        {"A": END, "B": recv("A", "int")}, queues={("A", "B"): ["int"]}
    )
    with pytest.raises(ContractError):
        synthesize(t)


def test_synthesis_deterministic():
    t = make_system(_trio())
    assert synthesize(t) == synthesize(t)


def test_recursive_pair():
    contracts = {
        "A": parse_contract("rec t . B!ping . B?pong . t"),
        "B": parse_contract("rec t . A?ping . A!pong . t"),
    }
    result = synthesize(make_system(contracts))
    assert result.ok
    assert canonicalize(result.global_type) == canonicalize(
        parse_global("rec x . A -> B : ping ; B -> A : pong ; x")
    )


def test_independent_pairs_compose_in_parallel():
    contracts = {
        "A": send("B", "p"),
        "B": recv("A", "p"),
        "C": send("D", "q"),
        "D": recv("C", "q"),
    }
    result = synthesize(make_system(contracts))
    assert result.ok
    g = result.global_type
    assert g.participants == frozenset("ABCD")
    ok, _ = well_formed(g)
    assert ok


def test_receiver_may_offer_more_than_exercised():
    # the store accepts an order or a goodbye; the impersonating buyer
    # always orders, and the pair is still compliant
    result = synthesize(make_system(_pair()))
    assert result.ok
    view = project(result.global_type, "A")
    assert projection_matches(view, _pair()["A"])
    # the other direction would let A send something outside the plan
    assert not projection_matches(_pair()["A"], view)


def test_projection_matches_long_identical_chains():
    # interning makes two separately built equal chains the same node, so
    # the match needs no walk as deep as the chain
    def chain():
        c = END
        for i in range(600):
            c = send("B", "pq"[i % 2], c)
        return c

    assert projection_matches(chain(), chain())


def test_extra_send_branch_is_rejected():
    contracts = {
        "A": parse_contract("B!x (+) B!y"),
        "B": parse_contract("A?x"),
    }
    result = synthesize(make_system(contracts))
    assert not result.ok
    oracle = execution_oracle(make_system(contracts), 1)
    assert oracle.kind == STUCK_CONFIG


def test_send_permutation_choice_has_no_choreography():
    # A picks the order of two causally linked sends; no global type in this
    # grammar projects onto that internal choice, even though every bounded
    # execution happens to complete. Characterises a known boundary between
    # the synthesiser and the brute-force runner.
    contracts = {
        "A": parse_contract("B!p . C!q (+) C!q . B!p"),
        "B": parse_contract("A?p . C!p"),
        "C": parse_contract("B?p . A?q"),
    }
    result = synthesize(make_system(contracts))
    assert not result.ok and result.reason == MIXED_RACE
    assert execution_oracle(make_system(contracts), 1).kind == ALL_RUNS_COMPLETE


def test_cross_send_pair_has_no_choreography():
    # both parties send before receiving: queues absorb the race and every
    # bounded run completes, but a global type would need each participant
    # in two parallel branches at once, which single-threadedness forbids,
    # and any sequential ordering flips one party's send/receive order.
    contracts = {
        "A": parse_contract("B!p . B?q"),
        "B": parse_contract("A!q . A?p"),
    }
    t = make_system(contracts)
    result = synthesize(t)
    assert not result.ok and result.reason == STUCK
    assert execution_oracle(t, 1).kind == ALL_RUNS_COMPLETE
    # the two sequential candidates really do fail projection
    from co2run.choreo import ProjectionError
    from co2run.frontend import parse_global

    for text in ("A -> B : p ; B -> A : q", "B -> A : q ; A -> B : p"):
        g = parse_global(text)
        assert not all(
            projection_matches(project(g, n), c) for n, c in sorted(contracts.items())
        )
    par = parse_global("A -> B : p || B -> A : q")
    ok, _ = well_formed(par)
    assert not ok


def test_budget_exhaustion_is_reported_distinctly():
    t = make_system(_trio())
    r = synthesize(t, max_configs=1)
    assert not r.ok and r.reason == "unbounded"
    o = execution_oracle(t, 1, max_configs=2)
    assert o.kind == "budget-exhausted"


def _rejoining_choices(k: int) -> dict:
    """A picks l or r k times; each branch sends one private message and both
    go on with the next choice, so 2^i paths reach the i-th one."""
    a, b = END, END
    for _ in range(k):
        a = send_choice([("B", "l", send("B", "x", a)), ("B", "r", recv("B", "y", a))])
        b = recv_choice("A", [("l", recv("A", "x", b)), ("r", send("A", "y", b))])
    return {"A": a, "B": b}


def test_components_merge_groups_that_a_later_participant_links():
    """E, last, talks to A and to D: A's group and C and D's merge into one,
    placed at its first member, members in configuration order."""
    a, c, b = ("A", send("Z", "x")), ("C", send("D", "z")), ("B", recv("Z", "y"))
    d, e = ("D", recv("C", "z")), ("E", send("A", "x", send("D", "y")))
    assert synthesis._components((a, c, b, d, e)) == [(a, c, d, e), (b,)]
    assert synthesis._components((d, e, c, b, a)) == [(d, e, c, a), (b,)]


def test_components_drop_ended_participants():
    a, b, c = ("A", send("B", "x")), ("B", END), ("C", recv("A", "x"))
    assert synthesis._components((a, b, c)) == [(a, c)]
    assert synthesis._components((a, b)) == [(a,)]
    assert synthesis._components((b,)) == []


def test_components_peer_outside_the_configuration_links_nothing():
    a, c = ("A", send("Z", "x")), ("C", recv("Z", "y"))
    assert synthesis._components((a, c)) == [(a,), (c,)]
    b = ("B", recv("Z", "y", send("A", "w")))  # one peer outside, one inside
    assert synthesis._components((a, b, c)) == [(a, b), (c,)]


def test_rejoining_choices_derive_each_configuration_once(monkeypatch):
    k = 10
    system = make_system(_rejoining_choices(k))
    derived = []

    def components(config):
        derived.append(config)
        return split(config)

    split = synthesis._components
    monkeypatch.setattr(synthesis, "_components", components)
    assert synthesize(system).ok
    # a choice, and after each of its branches the private message: 3 per choice
    assert len(derived) == len(set(derived)) == 3 * k
    # the bound still counts every configuration of the unmemoized descent,
    # 3 + 2 * (the next choice's count) per choice
    visited = 3 * (2 ** k - 1)
    assert synthesize(system, max_configs=visited).ok
    spent = synthesize(system, max_configs=visited - 1)
    assert spent.reason == UNBOUNDED and spent.detail == f"more than {visited - 1} configurations"


def test_oracle_verdicts():
    assert execution_oracle(make_system(_trio()), 1).kind == ALL_RUNS_COMPLETE
    assert execution_oracle(make_system({"A": END}), 1).kind == ALL_RUNS_COMPLETE
    stuck = make_system({"A": send("B", "int"), "B": recv("A", "bool")})
    assert execution_oracle(stuck, 1).kind == STUCK_CONFIG


def test_oracle_flags_starved_participant_in_loop():
    contracts = {
        "A": parse_contract("rec t . B!p . t"),
        "B": parse_contract("rec t . A?p . t"),
        "C": parse_contract("A?q"),
    }
    t = make_system(contracts)
    assert execution_oracle(t, 1).kind == CYCLE_WITHOUT_PROGRESS
    assert not synthesize(t).ok


def test_oracle_accepts_late_join_of_finished_participant():
    # C's message can be consumed at any point while A and B loop; fairness
    # delivers it, so the loop is fine and a choreography exists
    contracts = {
        "A": parse_contract("rec t . B?q . t"),
        "B": parse_contract("C!p . (rec t . A!q . t)"),
        "C": parse_contract("B?p"),
    }
    t = make_system(contracts)
    assert execution_oracle(t, 1).kind == ALL_RUNS_COMPLETE
    result = synthesize(t)
    assert result.ok
    assert project(result.global_type, "C") == parse_contract("B?p")


def _reach(graph, v):
    seen, todo = {v}, [v]
    while todo:
        for w in graph[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def test_sccs_partition_the_nodes_into_mutually_reachable_sets_successors_first():
    rng = random.Random(43)
    for _ in range(400):
        n = rng.randint(1, 14)
        density = rng.random() * 0.35
        graph = {v: [w for w in range(n) if rng.random() < density] for v in range(n)}
        comps = _sccs(graph)
        assert sorted(v for c in comps for v in c) == list(range(n))
        where = {v: i for i, c in enumerate(comps) for v in c}
        reach = {v: _reach(graph, v) for v in graph}
        for v in graph:
            for w in graph:
                assert (where[v] == where[w]) == (w in reach[v] and v in reach[w])
            assert all(where[w] <= where[v] for w in graph[v])


def test_sccs_of_a_ten_thousand_node_cycle_and_path():
    """At the default recursion limit: the recursion runs on `descend`."""
    n = 10_000
    assert _sccs({v: [(v + 1) % n] for v in range(n)}) == [set(range(n))]
    path = {v: [v + 1] if v + 1 < n else [] for v in range(n)}
    assert _sccs(path) == [{v} for v in reversed(range(n))]


def test_synthesize_returns_canonical_global_types():
    # the CLI prints synthesize's global type without canonicalizing it again
    rng = random.Random(17)
    found = 0
    for _ in range(150):
        result = synthesize(make_system(corpus_system(rng)))
        if result.ok:
            found += 1
            assert canonicalize(result.global_type) == result.global_type
    assert found


@pytest.mark.parametrize("buffer_bound", [1, 2, 3])
def test_corpus_equivalence_small(buffer_bound):
    rng = random.Random(99)
    for _ in range(150):
        contracts = corpus_system(rng)
        system = make_system(contracts)
        result = synthesize(system)
        oracle = execution_oracle(system, buffer_bound)
        assert result.ok == (oracle.kind == ALL_RUNS_COMPLETE), contracts
        if result.ok:
            g = result.global_type
            ok, diags = well_formed(g)
            assert ok, diags
            for name, original in system.contracts:
                assert projection_matches(project(g, name), original)


def test_a_system_that_cannot_start_fails_at_its_first_step():
    # the agreement search skips such systems without synthesising them
    rng = random.Random(23)
    refused = 0
    for _ in range(300):
        system = make_system(corpus_system(rng))
        heads = {n: head_normal(c) for n, c in system.contracts}
        if not can_start(heads):
            refused += 1
            result = synthesize(system)
            assert result.reason in (STUCK, MIXED_RACE), system
            # the failing configuration is (a component of) the initial one
            assert set(result.config) <= set(heads.items()), system
    assert refused


def test_a_system_with_an_unanswered_head_fails():
    # the agreement search skips such systems too, on every assignment prefix
    rng = random.Random(23)
    refused = by_answered_alone = 0
    for _ in range(300):
        system = make_system(corpus_system(rng))
        heads = {n: head_normal(c) for n, c in system.contracts}
        actions = {n: peer_actions(c) for n, c in system.contracts}
        unanswered = not all(answered(n, h, actions) for n, h in heads.items())
        if unanswered or not can_start(heads):
            refused += 1
            by_answered_alone += unanswered and can_start(heads)
            assert not synthesize(system).ok, system
    assert refused and by_answered_alone


def test_a_participant_stuck_while_the_others_loop_is_not_projectable():
    # A and B ping forever and C waits for A, who never sends to C: the
    # descent closes the loop without C, so only the projection gate fails
    contracts = parse_named_contracts("A: rec t . B!ping . t\nB: rec t . A?ping . t\nC: A?go")
    heads = {n: head_normal(c) for n, c in contracts.items()}
    actions = {n: peer_actions(c) for n, c in contracts.items()}
    assert can_start(heads) and not answered("C", heads["C"], actions)
    result = synthesize(make_system(contracts))
    assert result.reason == NOT_PROJECTABLE, result


def test_peer_actions_read_every_depth_and_not_the_head_only():
    c = parse_contract("rec t . (A!x . t (+) B!y . C?z . rec u . D?w . u)")
    assert peer_actions(c) == ({"C", "D"}, {"A", "B"})
    assert peer_actions(END) == (frozenset(), frozenset())
