"""Hash-consed contract, global-type and process nodes: sharing, equality,
depth, cached reprs and normal forms."""
import copy
import hashlib
import pickle

import pytest

from co2run.analysis import _replay_one
from co2run.choreo import GEND, GMsg, GPar, GRec, GRecVar, gchoice
from co2run.contracts import (
    END,
    ContractError,
    Frozen,
    Interned,
    Rec,
    RecVar,
    RecvChoice,
    SendChoice,
    make_system,
    recv,
    send,
    unfold,
)
from co2run.fixtures import FIXTURES, fixture_text
from co2run.frontend import parse_contract, parse_system
from co2run.runtime import (
    DEFAULT_POLICY,
    NIL,
    Call,
    Delim,
    FusePolicy,
    LatentContract,
    Par,
    PDo,
    PFuse,
    PNil,
    PTau,
    ProcDef,
    PTell,
    Sum,
    make_co2,
    normalize,
    normalize_proc,
    run,
    system_digest,
)

from corpus import reference_repr

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


def test_repr_and_hash_are_those_of_the_plain_dataclasses():
    c = send("B", "int", RecVar("x"))
    assert repr(c) == "SendChoice(branches=(('B', 'int', RecVar(var='x')),))"
    assert hash(c) == hash(((("B", "int", RecVar("x")),),))
    assert hash(RecVar("x")) == hash(("x",))
    assert repr(gchoice([GMsg("A", "B", "p", GEND), GMsg("A", "B", "q", GEND)])) == (
        "GChoice(branches=(GMsg(src='A', dst='B', sort='p', cont=GEnd()), "
        "GMsg(src='A', dst='B', sort='q', cont=GEnd())))"
    )


# one node of each hash-consed class
NODES = (
    END,
    RecVar("x"),
    Rec("x", send("B", "m", RecVar("x"))),
    send("B", "m"),
    recv("A", "int"),
    GEND,
    GRecVar("t"),
    GRec("t", GMsg("A", "B", "m", GRecVar("t"))),
    GMsg("A", "B", "m", GEND),
    gchoice([GMsg("A", "B", "p", GEND), GMsg("A", "B", "q", GEND)]),
    GPar((GMsg("A", "B", "m", GEND), GMsg("C", "D", "n", GEND))),
    PTau(),
    PTell("A", "x", send("B", "m")),
    PFuse(DEFAULT_POLICY),
    PDo("s", "B", "m", "send"),
    NIL,
    Sum(((PTau(), NIL),)),
    Par((NIL, Call("P", (), ()))),
    Delim(("x",), (), NIL),
    Call("P", ("x",), ("a",)),
)


def _node_classes(cls=Interned):
    subs = cls.__subclasses__()
    return {cls} if not subs else set().union(*map(_node_classes, subs))


def test_nodes_are_immutable_and_need_their_fields():
    assert {type(n) for n in NODES} == _node_classes() and len(NODES) == 20
    for node in NODES:
        text, key = repr(node), node._key
        field = node._fields[0] if node._fields else "_key"
        facts = [slot for slot in ("names", "participants", "mentioned_participants", "_hash")
                 if hasattr(node, slot)]
        assert len(facts) == 2, node  # the class's own cached facts, and the hash
        for name in (field, *facts):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.extra = None
        assert repr(node) == text and node._key == key and hash(node) == hash(key)
    with pytest.raises(TypeError):
        Rec("x")
    values = _system_values()
    assert {type(v) for v in values} == set(Frozen.__subclasses__()) - {Interned}
    for value in values:
        text, key, field = repr(value), value._key, value._fields[0]
        memo = [slot for slot in ("session_names", "_moves", "_unfoldings")
                if hasattr(value, slot)]
        for name in (field, "_hash", *memo):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = None
        assert repr(value) == text and value._key == key and hash(value) == hash(key)
        with pytest.raises(TypeError):
            type(value)(*key[:-1])


def _system_values():
    """One value of each `Frozen` class that is not hash-consed."""
    session = make_system({"A": send("B", "m"), "B": recv("A", "m")})
    definition = ProcDef(("u",), (), Call("P", ("u",), ()))
    latent = LatentContract("A", "x", send("B", "m"))
    system = make_co2({"A": NIL}, {"A": [latent]}, {"s": session}, {"P": definition})
    return session, definition, latent, system


def test_reference_repr_reads_no_cached_repr():
    inner = recv("Tamper", "n")  # fresh: no other test builds it
    node = send("Tamper", "m", inner)
    definition = ProcDef((), (), Sum(((PTell("A", "x", node), NIL),)))
    session = make_system({"A": node})
    system = make_co2({"A": Call("P", (), ())}, sessions={"s": session},
                      definitions={"P": definition})
    values = (inner, node, definition, session, system)
    texts = {v: repr(v) for v in values}
    expected = reference_repr(system)
    try:
        for v in values:
            object.__setattr__(v, "_repr", "junk")
        assert repr(node) == repr(session) == repr(system) == "junk"
        assert reference_repr(node) == texts[node]
        assert reference_repr((inner,)) == f"({texts[inner]},)"
        assert reference_repr(definition) == texts[definition]
        assert reference_repr(session) == texts[session]
        assert reference_repr(system) == expected == texts[system]
        assert texts[node] in expected
    finally:
        for v, text in texts.items():
            object.__setattr__(v, "_repr", text)


def test_pickle_and_copy_return_the_shared_instance():
    c = parse_contract("rec x . A!a . (A?b . x + A?c)")
    g = gchoice([GMsg("A", "B", "p", GEND), GMsg("A", "C", "q", GEND)])
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


# -- process nodes -------------------------------------------------------------

def test_equal_processes_share_one_instance():
    a = parse_system(fixture_text("pingpong.co2"))
    b = parse_system(fixture_text("pingpong.co2"))
    assert a.process("A") is b.process("A")
    assert a.definition("Pong").body is b.definition("Pong").body
    assert PTau() is PTau() and PNil() is NIL
    assert Call("P", ("u",), ()) is Call(name="P", session_args=("u",), part_args=())
    assert PFuse(DEFAULT_POLICY) is PFuse(policy=DEFAULT_POLICY)
    prefix = PDo("s", "B", "ping", "send")
    assert Sum(((prefix, NIL),)) is Sum(((PDo("s", "B", "ping", "send"), PNil()),))


def test_process_hash_and_equality_are_those_of_the_plain_dataclasses():
    tell = PTell("A", "x", send("B", "m"))
    p = Par((Sum(((tell, NIL),)), Call("P", ("x",), ())))
    assert hash(tell) == hash(("A", "x", send("B", "m")))
    assert hash(p) == hash(((Sum(((tell, NIL),)), Call("P", ("x",), ())),))
    assert p == Par((Sum(((PTell("A", "x", send("B", "m")), NIL),)), Call("P", ("x",), ())))
    assert p != Par((Call("P", ("x",), ()), Sum(((tell, NIL),))))
    assert Delim(("x",), (), p) != Delim((), ("x",), p)
    assert repr(p) == (
        "Par(parts=(Sum(branches=((PTell(target='A', session_var='x', "
        "contract=SendChoice(branches=(('B', 'm', End()),))), PNil()),)), "
        "Call(name='P', session_args=('x',), part_args=())))"
    )
    assert repr(PFuse(FusePolicy(3))) == (
        "PFuse(policy=FusePolicy(min_participants=3, mode='plain', prefer_smallest=False))"
    )


def test_process_pickle_and_copy_return_the_shared_instance():
    system = parse_system(fixture_text("store_s12.co2"))
    for _, p in system.processes:
        for term in (p, Delim(("x",), ("y",), p), PFuse(FusePolicy(3, "terminating"))):
            assert pickle.loads(pickle.dumps(term)) is term
            assert copy.deepcopy(term) is term
            assert copy.copy(term) is term
    assert pickle.loads(pickle.dumps(system)) == system


def test_normal_forms_are_cached_and_normal():
    a = Sum(((PDo("s", "B", "m", "send"), NIL),))
    b = Call("P", (), ())
    p = Par((Par((b, NIL)), a))
    n = normalize_proc(p)
    assert n == Par((a, b))  # sums sort before calls
    assert normalize_proc(p) is n and normalize_proc(n) is n
    assert normalize_proc(Par((NIL, NIL))) is NIL


def test_digest_is_sha256_of_the_plain_repr_at_every_state_of_every_fixture():
    for name in FIXTURES:
        system = parse_system(fixture_text(name))
        trace = run(system, seed=0, max_steps=300)
        state = normalize(system)
        assert system_digest(state) == _reference_digest(state)
        fired = {}
        for i, (label, digest) in enumerate(zip(trace.steps, trace.digests)):
            state = _replay_one(fired, state, label, digest, i + 1)
            assert _reference_digest(state) == digest, (name, i)
        assert state == trace.terminal


def _reference_digest(system):
    return hashlib.sha256(reference_repr(system).encode()).hexdigest()[:16]
