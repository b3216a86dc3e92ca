import random

import pytest

from co2run.choreo import canonicalize, project, well_formed
from co2run.contracts import ContractError, END, head_normal, make_system, recv, send
from co2run.frontend import parse_contract, parse_global, parse_named_contracts
from co2run.fixtures import fixture_text
from co2run.synthesis import MIXED_RACE, STUCK, can_start, projection_matches, synthesize

from corpus import corpus_system
from oracle import ALL_RUNS_COMPLETE, CYCLE_WITHOUT_PROGRESS, STUCK_CONFIG, execution_oracle
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
