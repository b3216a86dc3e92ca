"""Hash-consed contract and global-type nodes: sharing, equality, depth."""
import copy
import pickle

import pytest

from co2run.choreo import GEND, GMsg, gchoice, gmsg
from co2run.contracts import (
    END,
    ContractError,
    Rec,
    RecVar,
    RecvChoice,
    SendChoice,
    make_system,
    recv,
    send,
    unfold,
)
from co2run.frontend import parse_contract

DEPTH = 20_000


def _chain(n, peer, last=END):
    """n messages exchanged with `peer`, alternating send and receive,
    built bottom-up without recursion."""
    c = last
    for i in range(n):
        c = SendChoice(((peer, "m", c),)) if i % 2 else RecvChoice(peer, (("m", c),))
    return c


def test_equal_terms_share_one_instance():
    a = parse_contract("rec x . B!req . (B?ok . x + B?no)")
    b = parse_contract("rec x . B!req . (B?no + B?ok . x)")
    assert a is b
    assert RecVar("x") is RecVar(var="x")
    assert GMsg("A", "B", "m", GEND) is gmsg("A", "B", "m")


def test_repr_and_hash_are_those_of_the_plain_dataclasses():
    c = send("B", "int", RecVar("x"))
    assert repr(c) == "SendChoice(branches=(('B', 'int', RecVar(var='x')),))"
    assert hash(c) == hash(((("B", "int", RecVar("x")),),))
    assert hash(RecVar("x")) == hash(("x",))
    assert repr(gchoice([gmsg("A", "B", "p"), gmsg("A", "B", "q")])) == (
        "GChoice(branches=(GMsg(src='A', dst='B', sort='p', cont=GEnd()), "
        "GMsg(src='A', dst='B', sort='q', cont=GEnd())))"
    )


def test_nodes_are_immutable_and_need_their_fields():
    c = recv("A", "int")
    with pytest.raises(AttributeError):
        c.source = "B"
    with pytest.raises(TypeError):
        Rec("x")


def test_pickle_and_copy_return_the_shared_instance():
    c = parse_contract("rec x . A!a . (A?b . x + A?c)")
    g = gchoice([gmsg("A", "B", "p"), gmsg("A", "C", "q")])
    for term in (c, g):
        assert pickle.loads(pickle.dumps(term)) is term
        assert copy.deepcopy(term) is term
        assert copy.copy(term) is term


def test_a_duplicate_outside_the_table_still_compares_equal():
    # what two threads racing on the table can produce
    c = send("B", "int", recv("B", "ack"))
    key = c._key
    del SendChoice._table[key]
    try:
        dup = SendChoice(*key)
        assert dup is not c
        assert dup == c and c == dup
        assert hash(dup) == hash(c)
        assert len({c, dup}) == 1
        assert dup != send("B", "int")
    finally:
        SendChoice._table[key] = c


def test_unfolding_is_memoised():
    loop = parse_contract("rec x . B!ping . B?pong . x")
    assert unfold(loop) is unfold(loop)
    assert unfold(loop) == send("B", "ping", recv("B", "pong", loop))


def test_deep_chain_needs_no_recursion():
    c = _chain(DEPTH, "B")
    d = _chain(DEPTH, "A")
    assert isinstance(hash(c), int)
    assert _chain(DEPTH, "B") is c
    assert c != d
    assert c.free_participant_vars == frozenset()
    assert c.mentioned_participants == frozenset(["B"])
    assert c.is_guarded and not c.free_rec_vars
    t = make_system({"A": c, "B": d})
    assert t.contract("A") is c

    open_ = _chain(DEPTH, "B", last=send("b", "m"))
    assert open_ != c
    assert open_.free_participant_vars == frozenset(["b"])
    with pytest.raises(ContractError, match="participant variables"):
        make_system({"A": open_, "B": d})
