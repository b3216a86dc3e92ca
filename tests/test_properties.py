"""Property tests: the values cached on term nodes against plain walkers."""
import copy
import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from co2run.choreo import GChoice, GEnd, GMsg, GPar, GRec, GRecVar  # noqa: E402
from co2run.contracts import (  # noqa: E402
    END,
    End,
    Rec,
    RecVar,
    RecvChoice,
    SendChoice,
    is_part_var,
    recv_choice,
    send_choice,
    subst_parts,
    subst_rec,
    unfold,
)
from co2run.frontend import parse_contract, render_contract  # noqa: E402
from co2run.runtime import (  # noqa: E402
    NIL,
    Call,
    Delim,
    FusePolicy,
    Par,
    PDo,
    PFuse,
    PNil,
    PTau,
    PTell,
    Sum,
    _proc_key,
    normalize_proc,
)

from corpus import reference_repr  # noqa: E402

PEERS = st.sampled_from(["A", "B", "C", "a", "b"])
SORTS = st.sampled_from(["p", "q", "r"])
REC_VARS = st.sampled_from(["x", "y"])
NAMES = st.sampled_from(["A", "B", "C", "D"])


def _contract_layer(children):
    sends = st.dictionaries(st.tuples(PEERS, SORTS), children, min_size=1, max_size=3).map(
        lambda d: send_choice([(to, sort, c) for (to, sort), c in d.items()])
    )
    recvs = st.tuples(PEERS, st.dictionaries(SORTS, children, min_size=1, max_size=3)).map(
        lambda t: recv_choice(t[0], t[1].items())
    )
    recs = st.builds(Rec, REC_VARS, children)
    return sends | recvs | recs


contracts = st.recursive(st.just(END) | st.builds(RecVar, REC_VARS), _contract_layer,
                         max_leaves=12)


def _global_layer(children):
    msgs = st.builds(GMsg, NAMES, NAMES, SORTS, children)
    many = st.lists(children, min_size=2, max_size=3).map(tuple)
    return msgs | st.builds(GRec, REC_VARS, children) | many.map(GChoice) | many.map(GPar)


global_types = st.recursive(st.just(GEnd()) | st.builds(GRecVar, REC_VARS), _global_layer,
                            max_leaves=12)


VARS = st.sampled_from(["x", "y"])
prefixes = (
    st.just(PTau())
    | st.builds(PTell, NAMES, VARS, contracts)
    | st.builds(PFuse, st.builds(FusePolicy, st.integers(2, 3),
                                 st.sampled_from(["plain", "terminating", "recursive"]),
                                 st.booleans()))
    | st.builds(PDo, st.sampled_from(["s", "x"]), PEERS, SORTS, st.sampled_from(["send", "recv"]))
)


def _process_layer(children):
    many = st.lists(children, max_size=3).map(tuple)
    sums = st.lists(st.tuples(prefixes, children), max_size=3).map(lambda bs: Sum(tuple(bs)))
    delims = st.builds(Delim, st.lists(VARS, max_size=2).map(tuple),
                       st.lists(VARS, max_size=2).map(tuple), children)
    return sums | many.map(Par) | delims


calls = st.builds(Call, st.sampled_from(["P", "Q"]), st.lists(VARS, max_size=2).map(tuple),
                  st.lists(PEERS, max_size=2).map(tuple))
processes = st.recursive(st.just(PNil()) | calls, _process_layer, max_leaves=12)


# -- reference walkers: recompute every cached value from scratch ----------

def _children(c):
    if isinstance(c, SendChoice):
        return [cont for _, _, cont in c.branches]
    if isinstance(c, RecvChoice):
        return [cont for _, cont in c.branches]
    if isinstance(c, Rec):
        return [c.body]
    return []


def _peers(c):
    if isinstance(c, SendChoice):
        return {to for to, _, _ in c.branches}
    if isinstance(c, RecvChoice):
        return {c.source}
    return set()


def ref_mentioned(c):
    return frozenset(_peers(c)).union(*(ref_mentioned(k) for k in _children(c)))


def ref_part_vars(c):
    return frozenset(p for p in ref_mentioned(c) if is_part_var(p))


def ref_free_rec(c):
    if isinstance(c, RecVar):
        return frozenset([c.var])
    if isinstance(c, Rec):
        return ref_free_rec(c.body) - {c.var}
    return frozenset().union(*(ref_free_rec(k) for k in _children(c)))


def ref_guarded(c, pending=frozenset()):
    if isinstance(c, RecVar):
        return c.var not in pending
    if isinstance(c, Rec):
        return ref_guarded(c.body, pending | {c.var})
    return all(ref_guarded(k) for k in _children(c))


def ref_hash(term):
    """The hash a frozen dataclass computes: its field tuple's, recursively."""
    def value(v):
        if isinstance(v, tuple):
            return tuple(value(x) for x in v)
        if isinstance(v, (End, RecVar, Rec, SendChoice, RecvChoice,
                          GEnd, GRecVar, GRec, GMsg, GChoice, GPar)):
            return _HashOf(ref_hash(v))
        return v
    return hash(tuple(value(getattr(term, f)) for f in term._fields))


class _HashOf:
    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def ref_participants(g):
    if isinstance(g, GMsg):
        return {g.src, g.dst} | ref_participants(g.cont)
    if isinstance(g, (GChoice, GPar)):
        return set().union(*(ref_participants(b) for b in g.branches))
    if isinstance(g, GRec):
        return ref_participants(g.body)
    return set()


def ref_subst_parts(c, mapping):
    if isinstance(c, SendChoice):
        return SendChoice(tuple((mapping.get(to, to), sort, ref_subst_parts(k, mapping))
                                for to, sort, k in c.branches))
    if isinstance(c, RecvChoice):
        return RecvChoice(mapping.get(c.source, c.source),
                          tuple((sort, ref_subst_parts(k, mapping)) for sort, k in c.branches))
    if isinstance(c, Rec):
        return Rec(c.var, ref_subst_parts(c.body, mapping))
    return c


def ref_subst_rec(c, var, replacement):
    if isinstance(c, RecVar):
        return replacement if c.var == var else c
    if isinstance(c, Rec):
        return c if c.var == var else Rec(c.var, ref_subst_rec(c.body, var, replacement))
    if isinstance(c, SendChoice):
        return SendChoice(tuple((to, sort, ref_subst_rec(k, var, replacement))
                                for to, sort, k in c.branches))
    if isinstance(c, RecvChoice):
        return RecvChoice(c.source, tuple((sort, ref_subst_rec(k, var, replacement))
                                          for sort, k in c.branches))
    return c


def ref_prefix_key(pr):
    if isinstance(pr, PTau):
        return (0,)
    if isinstance(pr, PTell):
        return (1, pr.target, pr.session_var, reference_repr(pr.contract))
    if isinstance(pr, PFuse):
        return (2, pr.policy.min_participants, pr.policy.mode, pr.policy.prefer_smallest)
    return (3, pr.session, pr.peer, pr.sort, pr.dir)


def ref_proc_key(p):
    if isinstance(p, PNil):
        return (0,)
    if isinstance(p, Sum):
        return (1, tuple((ref_prefix_key(pr), ref_proc_key(c)) for pr, c in p.branches))
    if isinstance(p, Par):
        return (2, tuple(ref_proc_key(q) for q in p.parts))
    if isinstance(p, Call):
        return (3, p.name, p.session_args, p.part_args)
    return (4, reference_repr(p))


def ref_normalize(p):
    """normalize_proc as a plain recursion: nothing read from a node's cache."""
    if isinstance(p, Par):
        parts = []
        for q in map(ref_normalize, p.parts):
            if isinstance(q, Par):
                parts.extend(q.parts)
            elif not isinstance(q, PNil):
                parts.append(q)
        if len(parts) < 2:
            return parts[0] if parts else NIL
        return Par(tuple(sorted(parts, key=ref_proc_key)))
    if isinstance(p, Sum):
        branches = sorted(((pr, ref_normalize(c)) for pr, c in p.branches),
                          key=lambda b: (ref_prefix_key(b[0]), ref_proc_key(b[1])))
        return Sum(tuple(branches)) if branches else NIL
    return p


# -- properties ---------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.one_of(contracts, global_types, processes, prefixes))
def test_cached_repr_is_the_dataclass_repr(term):
    assert repr(term) == reference_repr(term)
    assert repr(term) is repr(term)


@settings(max_examples=100, deadline=None)
@given(processes)
def test_cached_normal_form_and_sort_key_match_the_plain_recursion(p):
    n = normalize_proc(p)
    assert n == ref_normalize(p)
    assert normalize_proc(n) is n and normalize_proc(p) is n
    assert _proc_key(p) == ref_proc_key(p) and _proc_key(n) == ref_proc_key(n)


@settings(max_examples=100, deadline=None)
@given(contracts)
def test_cached_contract_values_match_the_walkers(c):
    assert c.mentioned_participants == ref_mentioned(c)
    assert c.free_participant_vars == ref_part_vars(c)
    assert c.free_rec_vars == ref_free_rec(c)
    assert c.is_guarded == ref_guarded(c)
    assert hash(c) == ref_hash(c)


@settings(max_examples=100, deadline=None)
@given(global_types)
def test_cached_global_values_match_the_walkers(g):
    assert g.participants == ref_participants(g)
    assert hash(g) == ref_hash(g)


@settings(max_examples=100, deadline=None)
@given(contracts.filter(lambda c: c.is_guarded))
def test_parse_of_render_is_the_same_node(c):
    assert parse_contract(render_contract(c)) is c


@settings(max_examples=100, deadline=None)
@given(st.one_of(contracts, global_types, processes))
def test_pickle_and_deepcopy_round_trips_compare_and_hash_equal(term):
    for twin in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
        assert twin == term and hash(twin) == hash(term)


@settings(max_examples=100, deadline=None)
@given(contracts, st.dictionaries(st.sampled_from(["a", "b", "c"]), NAMES))
def test_subst_parts_agrees_and_skips_untouched_terms(c, mapping):
    assert subst_parts(c, mapping) == ref_subst_parts(c, mapping)
    missed = {v: n for v, n in mapping.items() if v not in c.free_participant_vars}
    assert subst_parts(c, missed) is c


@settings(max_examples=100, deadline=None)
@given(contracts, REC_VARS, contracts)
def test_subst_rec_and_unfold_agree_with_the_walker(c, var, replacement):
    assert subst_rec(c, var, replacement) == ref_subst_rec(c, var, replacement)
    if isinstance(c, Rec):
        assert unfold(c) == ref_subst_rec(c.body, c.var, c)
