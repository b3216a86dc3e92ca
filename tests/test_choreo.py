import random

import pytest

from co2run.choreo import (
    GEND,
    GMsg,
    GPar,
    GRec,
    GRecVar,
    ProjectionError,
    canonicalize,
    gchoice,
    gpar,
    project,
    well_formed,
)
from co2run.contracts import END, Contract, Rec, RecVar, RecvChoice, SendChoice
from co2run.frontend import parse_contract, parse_global

from corpus import random_global

G_STORE3_TEXT = (
    "B1 -> A : req ; B2 -> A : req ; A -> B1 : quote ; "
    "(B1 -> B2 : ok ; B1 -> A : order ; A -> B2 : ok "
    "\\/ B1 -> B2 : bye ; B1 -> A : bye ; A -> B2 : bye)"
)
G_STORE2_TEXT = (
    "B12 -> A : req ; B12 -> A : req ; A -> B12 : quote ; "
    "B12 -> A : order ; A -> B12 : ok"
)


def test_participants_store_choreographies():
    assert parse_global(G_STORE3_TEXT).participants == frozenset(["A", "B1", "B2"])
    assert parse_global(G_STORE2_TEXT).participants == frozenset(["A", "B12"])
    assert GEND.participants == frozenset()


def test_has_recursion():
    assert parse_global("rec x . A -> B : ping ; x").has_recursion
    assert not parse_global(G_STORE3_TEXT).has_recursion
    assert not GEND.has_recursion
    # a binder without occurrences is not recursive behaviour
    assert not GRec("x", GMsg("A", "B", "p", GEND)).has_recursion


def test_has_end():
    assert parse_global(G_STORE2_TEXT).has_end
    assert not parse_global("rec x . A -> B : ping ; B -> A : pong ; x").has_end
    assert GEND.has_end


def test_projection_store_pair():
    g = parse_global(G_STORE2_TEXT)
    assert project(g, "B12") == parse_contract("A!req . A!req . A?quote . A!order . A?ok")
    assert project(g, "A") == parse_contract(
        "B12?req . B12?req . B12!quote . B12?order . B12!ok"
    )


def test_projection_store_trio():
    g = parse_global(G_STORE3_TEXT)
    assert project(g, "B2") == parse_contract("A!req . (B1?ok . A?ok + B1?bye . A?bye)")
    assert project(g, "B1") == parse_contract(
        "A!req . A?quote . (B2!ok . A!order (+) B2!bye . A!bye)"
    )
    assert project(g, "A") == parse_contract(
        "B1?req . B2?req . B1!quote . (B1?order . B2!ok + B1?bye . B2!bye)"
    )


def test_projection_skips_uninvolved():
    assert project(GMsg("A", "B", "int", GEND), "C") == END


def test_projection_of_unreceived_choice_fails():
    # the decider's branches must be told apart by everyone else
    g = gchoice([
        GMsg("A", "B", "p", GMsg("C", "B", "u", GEND)),
        GMsg("A", "B", "q", GMsg("C", "B", "v", GEND)),
    ])
    with pytest.raises(ProjectionError):
        project(g, "C")


def test_well_formed_accepts_store():
    ok, diags = well_formed(parse_global(G_STORE3_TEXT))
    assert ok and not diags


def test_well_formed_rejects_two_deciders():
    g = gchoice([GMsg("A", "B", "x", GEND), GMsg("C", "B", "y", GEND)])
    ok, diags = well_formed(g)
    assert not ok
    assert any("decider" in d or "decid" in d for d in diags)


def test_well_formed_rejects_overlapping_parallel():
    g = GPar((GMsg("A", "B", "x", GEND), GMsg("A", "C", "y", GEND)))
    ok, diags = well_formed(g)
    assert not ok
    assert any("share" in d for d in diags)


def test_parallel_participants_disjoint_union():
    g = gpar([GMsg("A", "B", "x", GEND), GMsg("C", "D", "y", GEND)])
    assert g.participants == frozenset(["A", "B", "C", "D"])
    ok, _ = well_formed(g)
    assert ok
    assert project(g, "C") == parse_contract("D!y")
    assert project(g, "E") == END


def test_canonicalize_sorts_choice_branches():
    g1 = gchoice([GMsg("A", "B", "q", GEND), GMsg("A", "B", "p", GEND)])
    g2 = gchoice([GMsg("A", "B", "p", GEND), GMsg("A", "B", "q", GEND)])
    assert canonicalize(g1) == canonicalize(g2)


def test_canonicalize_renames_binders():
    g = parse_global("rec y . A -> B : p ; y")
    assert canonicalize(g) == GRec("x0", GMsg("A", "B", "p", GRecVar("x0")))


def rename_rec_vars(c: Contract) -> Contract:
    """Rename recursion binders to x0, x1, ... in traversal order."""
    counter = [0]

    def walk(node: Contract, env: dict[str, str]) -> Contract:
        if isinstance(node, RecVar):
            return RecVar(env.get(node.var, node.var))
        if isinstance(node, Rec):
            fresh = f"x{counter[0]}"
            counter[0] += 1
            inner = dict(env)
            inner[node.var] = fresh
            return Rec(fresh, walk(node.body, inner))
        if isinstance(node, SendChoice):
            return SendChoice(
                tuple((to, sort, walk(cont, env)) for to, sort, cont in node.branches)
            )
        if isinstance(node, RecvChoice):
            return RecvChoice(
                node.source, tuple((sort, walk(cont, env)) for sort, cont in node.branches)
            )
        return node

    return walk(c, {})


def test_canonicalize_idempotent_and_preserving():
    rng = random.Random(3)
    for _ in range(80):
        g = random_global(rng)
        c = canonicalize(g)
        assert canonicalize(c) == c
        assert c.participants == g.participants
        assert c.has_recursion == g.has_recursion
        assert c.has_end == g.has_end
        for who in sorted(g.participants):
            assert rename_rec_vars(project(c, who)) == rename_rec_vars(project(g, who))


def test_projection_total_on_well_formed():
    rng = random.Random(5)
    for _ in range(60):
        g = random_global(rng)
        ok, _ = well_formed(g)
        assert ok
        for who in sorted(g.participants):
            project(g, who)  # must not raise
