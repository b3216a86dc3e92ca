import random

import pytest

from co2run.contracts import (
    ContractError,
    END,
    MoveLabel,
    Rec,
    RecVar,
    RECV,
    SEND,
    contract_ready_sets,
    contract_step,
    enabled_moves,
    head_normal,
    is_terminated,
    make_system,
    orphan_messages,
    rec,
    recv,
    recv_choice,
    send,
    send_choice,
    unfold,
)
from co2run.frontend import parse_contract

from corpus import random_raw_system

# The store contracts, instantiated with the agreed names.
CA = parse_contract("B1?req . B2?req . B1!quote . (B1?order . B2!ok + B1?bye . B2!bye)")
CB1 = parse_contract("A!req . A?quote . (B2!ok . A!order (+) B2!bye . A!bye)")
CB2 = parse_contract("A!req . (B1?ok . A?ok + B1?bye . A?bye)")
CB12 = parse_contract("A!req . A!req . A?quote . A!order . A?ok")


# -- unfolding ---------------------------------------------------------------

def test_unfold_end_is_fixed_point():
    assert unfold(END) == END


def test_unfold_substitutes_binder():
    loop = rec("x", send("A", "int", RecVar("x")))
    unfolded = unfold(loop)
    assert unfolded == send("A", "int", loop)


def test_unfold_identity_on_non_rec():
    c = recv("A", "int")
    assert unfold(c) is c


def test_head_normal_rejects_unproductive_recursion():
    # bypass the guarded constructor on purpose
    with pytest.raises(ContractError):
        head_normal(Rec("x", Rec("y", RecVar("x"))))


# -- ready sets -------------------------------------------------------------

def test_ready_sets_initial_store_contract():
    assert contract_ready_sets(CA) == frozenset([frozenset([("B1", "req")])])


def test_ready_sets_internal_choice_is_family_of_singletons():
    c = parse_contract("B2!ok . A!order (+) B2!bye . A!bye")
    assert contract_ready_sets(c) == frozenset(
        [frozenset([("B2", "ok")]), frozenset([("B2", "bye")])]
    )


def test_ready_sets_external_choice_is_one_set():
    c = parse_contract("B1?order . B2!ok + B1?bye . B2!bye")
    assert contract_ready_sets(c) == frozenset(
        [frozenset([("B1", "order"), ("B1", "bye")])]
    )


def test_ready_sets_end_demands_nothing():
    assert contract_ready_sets(END) == frozenset()


def test_ready_sets_recursion_transparent():
    loop = rec("x", send("A", "ping", RecVar("x")))
    assert contract_ready_sets(loop) == frozenset([frozenset([("A", "ping")])])


def test_ready_sets_reject_participant_variables():
    c = parse_contract("b!int")
    with pytest.raises(ContractError, match="unstipulated"):
        contract_ready_sets(c)


def test_ready_set_shapes_on_random_contracts():
    rng = random.Random(7)
    for _ in range(100):
        contracts = random_raw_system(rng)
        for c in contracts.values():
            node = head_normal(c)
            family = contract_ready_sets(c)
            if node == END:
                assert family == frozenset()
            elif hasattr(node, "source"):
                assert len(family) == 1
                assert len(next(iter(family))) == len(node.branches)
            else:
                assert len(family) == len(node.branches)
                assert all(len(x) == 1 for x in family)


# -- moves and steps ----------------------------------------------------------

def test_send_always_enabled():
    t = make_system({"A": send("B", "int"), "B": recv("A", "int")})
    assert enabled_moves(t) == (MoveLabel("A", "B", "int", SEND),)


def test_receive_enabled_only_on_matching_head():
    t = make_system(
        {"A": END, "B": recv("A", "int")}, queues={("A", "B"): ["int"]}
    )
    assert enabled_moves(t) == (MoveLabel("B", "A", "int", RECV),)
    empty = make_system({"A": END, "B": recv("A", "int")})
    assert enabled_moves(empty) == ()


def test_store_pair_first_steps():
    t = make_system({
        "A": parse_contract(
            "B12?req . B12?req . B12!quote . (B12?order . B12!ok + B12?bye . B12!bye)"
        ),
        "B12": parse_contract("A!req . A!req . A?quote . A!order . A?ok"),
    })
    t2 = contract_step(t, MoveLabel("B12", "A", "req", SEND))
    assert t2.queue("B12", "A") == ("req",)
    t3 = contract_step(t2, MoveLabel("A", "B12", "req", RECV))
    assert t3.queue("B12", "A") == ()


def test_illegal_move_raises():
    t = make_system({"A": send("B", "int"), "B": recv("A", "int")})
    with pytest.raises(ContractError, match="illegal move"):
        contract_step(t, MoveLabel("B", "A", "int", RECV))


def test_fifo_round_trip():
    t = make_system(
        {"A": send("B", "x", send("B", "y")), "B": recv("A", "x", recv("A", "y"))}
    )
    t1 = contract_step(t, MoveLabel("A", "B", "x", SEND))
    t2 = contract_step(t1, MoveLabel("A", "B", "y", SEND))
    assert t2.queue("A", "B") == ("x", "y")
    t3 = contract_step(t2, MoveLabel("B", "A", "x", RECV))
    assert t3.queue("A", "B") == ("y",)
    t4 = contract_step(t3, MoveLabel("B", "A", "y", RECV))
    assert t4.queue("A", "B") == ()
    assert is_terminated(t4)


def test_enabled_moves_sound_and_complete():
    # every label steps successfully iff listed, over reachable configs of
    # small random systems
    rng = random.Random(11)
    sorts = ("p", "q")
    for _ in range(30):
        system = make_system(random_raw_system(rng))
        seen = set()
        frontier = [system]
        while frontier and len(seen) < 200:
            t = frontier.pop()
            if t in seen:
                continue
            seen.add(t)
            enabled = set(enabled_moves(t))
            names = t.participants
            for actor in names:
                for peer in names:
                    if actor == peer:
                        continue
                    for sort in sorts:
                        for d in (SEND, RECV):
                            label = MoveLabel(actor, peer, sort, d)
                            try:
                                nxt = contract_step(t, label)
                                ok = True
                            except ContractError:
                                ok = False
                            assert ok == (label in enabled), (label, t)
                            if ok:
                                frontier.append(nxt)


# -- termination -------------------------------------------------------------

def test_terminated_all_end_empty_queues():
    assert is_terminated(make_system({"A": END, "B": END}))


def test_orphan_message_blocks_termination():
    # an undelivered message keeps the composite alive even with finished
    # contracts; derived from stepping a sender whose partner never listens
    t = make_system({"A": END, "B": END}, queues={("A", "B"): ["int"]})
    assert not is_terminated(t)
    assert orphan_messages(t) == (("A", "B", "int"),)


def test_waiting_contract_blocks_termination():
    assert not is_terminated(make_system({"A": recv("B", "int"), "B": END}))


@pytest.mark.parametrize("text", ["A!x", "A?x", "B!x . A!y", "B?x . A?y + B?z"])
def test_make_system_refuses_a_contract_naming_its_own_participant(text):
    # no queue joins a participant to itself, so the move could never fire
    with pytest.raises(ContractError, match="contract of A names A as its own peer"):
        make_system({"A": parse_contract(text), "B": END})


# -- structure ---------------------------------------------------------------

def test_free_participant_vars_of_store_contracts():
    c_b1 = parse_contract("a!req . a?quote . (b2'!ok . a!order (+) b2'!bye . a!bye)")
    assert c_b1.free_participant_vars == frozenset(["a", "b2'"])
    assert CA.free_participant_vars == frozenset()
    assert parse_contract("b!x").free_participant_vars == frozenset(["b"])


def test_choice_constructors_sort_and_check():
    c1 = send_choice([("B", "y", END), ("A", "x", END)])
    c2 = send_choice([("A", "x", END), ("B", "y", END)])
    assert c1 == c2
    with pytest.raises(ContractError):
        send_choice([("A", "x", END), ("A", "x", END)])
    with pytest.raises(ContractError):
        recv_choice("A", [("x", END), ("x", END)])
    with pytest.raises(ContractError):
        send_choice([])


def test_unguarded_recursion_rejected():
    with pytest.raises(ContractError, match="unguarded"):
        rec("x", RecVar("x"))


def test_make_system_rejects_open_contracts():
    with pytest.raises(ContractError):
        make_system({"A": RecVar("x")})
    with pytest.raises(ContractError):
        make_system({"A": parse_contract("b!int")})
