"""Property tests: the values cached on term nodes against plain walkers,
the parsers against the renderer, the former regex `.ctr` reader and the
former tokenizer and parser (`parse_oracle`), the parser's fuse policy,
`canonicalize` and the renderers against the walkers they replaced, the
move relation and ready sets against the former `enabled_moves`,
`contract_step` and `contract_ready_sets`, the honesty search against
the former one, which ran a readiness search per state, synthesis
against the execution oracle, and honesty, `run` and `check` against each
other through the paper's progress theorem."""
import copy
import itertools
import json
import pickle
import random
import re
from collections import deque
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Mapping, Optional

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from co2run import runtime, synthesis  # noqa: E402
from co2run.cli import main  # noqa: E402
from co2run.analysis import (  # noqa: E402
    AnalysisError,
    StateGraph,
    _group,
    _trace_to,
    check_honesty,
    culpable,
    is_initial_for,
    process_ready_set,
    ready,
)
from co2run.choreo import (  # noqa: E402
    GChoice,
    GEnd,
    GlobalType,
    GMsg,
    GPar,
    GRec,
    GRecVar,
    canonicalize,
    gchoice,
    gpar,
)
from co2run.contracts import (  # noqa: E402
    _MAX_UNFOLD,
    _lookup,
    END,
    RECV,
    SEND,
    Contract,
    ContractError,
    End,
    MoveLabel,
    ReadySet,
    Rec,
    RecVar,
    RecvChoice,
    SendChoice,
    contract_ready_sets,
    contract_step,
    enabled_moves,
    head_normal,
    is_part_name,
    is_part_var,
    is_terminated,
    make_system,
    recv_choice,
    send_choice,
    subst_parts,
    subst_rec,
    unfold,
)
from co2run.fixtures import FIXTURES, fixture_path, fixture_text  # noqa: E402
from co2run.frontend import (  # noqa: E402
    ParseError,
    parse_contract,
    parse_global,
    parse_named_contracts,
    parse_system,
    render_contract,
    render_global,
    render_process,
    render_system,
)
from co2run.frontend import lex  # noqa: E402
from co2run.frontend.emit import _dangling_rec  # noqa: E402
from co2run.runtime import (  # noqa: E402
    DEFAULT_POLICY,
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
    Process,
    Sum,
    Trace,
    _proc_key,
    apply_step,
    enabled_steps,
    make_co2,
    normalize,
    normalize_proc,
    proc_subst,
)

from corpus import SORTS as CORPUS_SORTS  # noqa: E402
from corpus import corpus_system, pair_context, random_global, reference_repr  # noqa: E402
from corpus import broker_context, recursive_pair_context, retell_context  # noqa: E402
from corpus import random_contract, regex_named_contracts, single_edit_mutants  # noqa: E402
from corpus import random_raw_system  # noqa: E402
from oracle import ALL_RUNS_COMPLETE, execution_oracle  # noqa: E402
import parse_oracle  # noqa: E402
from walk_oracle import _struct_key  # noqa: E402

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
# branches all led by A's sends: A decides unless two start with the same selection
one_sender_choices = st.lists(st.builds(GMsg, st.just("A"), NAMES, SORTS, global_types),
                              min_size=2, max_size=3).map(lambda bs: GChoice(tuple(bs)))


VARS = st.sampled_from(["x", "y"])
fuse_and_do_prefixes = (
    st.builds(PFuse, st.builds(FusePolicy, st.integers(2, 3),
                               st.sampled_from(["plain", "terminating", "recursive"]),
                               st.booleans()))
    | st.builds(PDo, st.sampled_from(["s", "x"]), PEERS, SORTS, st.sampled_from(["send", "recv"]))
)
prefixes = st.just(PTau()) | st.builds(PTell, PEERS, VARS, contracts) | fuse_and_do_prefixes


def _delim_free_layer(children):
    many = st.lists(children, max_size=3).map(tuple)
    sums = st.lists(st.tuples(prefixes, children), max_size=3).map(lambda bs: Sum(tuple(bs)))
    return sums | many.map(Par)


def _process_layer(children):
    # delimited participant variables include the lowercase peers, so they bind,
    # and "x", which may also be a session reference the delimitation leaves free
    delims = st.builds(Delim, st.lists(VARS, max_size=2).map(tuple),
                       st.lists(st.sampled_from(["a", "b", "x"]), max_size=2).map(tuple),
                       children)
    return _delim_free_layer(children) | delims


calls = st.builds(Call, st.sampled_from(["P", "Q"]), st.lists(VARS, max_size=2).map(tuple),
                  st.lists(PEERS, max_size=2).map(tuple))
processes = st.recursive(st.just(PNil()) | calls, _process_layer, max_leaves=12)
delim_free_processes = st.recursive(st.just(PNil()) | calls, _delim_free_layer, max_leaves=12)
# substitutions of the session references ("s" plays a session name) and of
# the participant variables the generated processes use
sigmas = st.dictionaries(st.sampled_from(["s", "x", "y"]), st.sampled_from(["s1", "y"]))
pis = st.dictionaries(st.sampled_from(["a", "b"]), st.sampled_from(["A", "D", "b"]))

# processes as a source file writes them: no calls (they need definitions), no
# empty sum or parallel, closed guarded contracts, and only non-empty
# delimitations, in both the `(x, y; a) P` and the `(; a) P` form
source_prefixes = (
    st.just(PTau())
    | st.builds(PTell, PEERS, VARS, contracts.filter(lambda c: c.is_guarded and not c.free_rec_vars))
    | fuse_and_do_prefixes
)


def _delimited(bodies):
    # built non-empty rather than filtered, so that three drawn processes
    # do not trip Hypothesis's filter_too_much health check
    def part_vars(min_size):
        return st.lists(st.sampled_from(["a", "b", "x"]), min_size=min_size,
                        max_size=2).map(tuple)

    session_vars = st.lists(VARS, min_size=1, max_size=2).map(tuple)
    names = st.tuples(session_vars, part_vars(0)) | st.tuples(st.just(()), part_vars(1))
    return st.builds(lambda n, body: Delim(*n, body), names, bodies)


def _source_layer(children, prefixes=source_prefixes):
    sums = st.lists(st.tuples(prefixes, children), min_size=1, max_size=3)
    pars = st.lists(children, min_size=2, max_size=3).map(tuple).map(Par)
    return sums.map(tuple).map(Sum) | pars | _delimited(children)


source_processes = _delimited(st.recursive(st.just(PNil()), _source_layer, max_leaves=10))

# the same, with many fuses that have the default options or min=3
fuse_prefixes = st.sampled_from([PFuse(DEFAULT_POLICY), PFuse(FusePolicy(3))]) | source_prefixes
fuse_source_processes = _delimited(st.recursive(
    st.sampled_from([NIL, Sum(((PFuse(DEFAULT_POLICY), NIL),))]),
    lambda children: _source_layer(children, fuse_prefixes), max_leaves=10))
# every policy the CLI's fuse flags can build (--fuse-min 2 or 3)
FLAG_POLICIES = [FusePolicy(n, mode, smallest) for n in (2, 3)
                 for mode in ("plain", "terminating", "recursive") for smallest in (False, True)]

# `.ctr` files: rendered contracts under uppercase headers (names may repeat),
# with comment lines, blank lines, indentation and line breaks inside a contract
ctr_gaps = st.sampled_from(["", "\n", "\n\n", "\n# note: A: B!x\n", "\n  \n"])
ctr_entries = st.lists(
    st.tuples(ctr_gaps, st.sampled_from(["", "  ", "\t"]), st.sampled_from(["A", "B1", "Cx'"]),
              st.sampled_from([":", " : ", ":\n  "]), contracts,
              st.sampled_from(["", "  # trailing", " ."])),
    max_size=4,
)


def _ctr_text(entries, breaks) -> str:
    lines = []
    for gap, indent, name, colon, c, tail in entries:
        body = render_contract(c).replace(" . ", " .\n    " if breaks else " . ")
        lines.append(f"{gap}{indent}{name}{colon}{body}{tail}")
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError


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


def ref_has_recursion(c):
    return isinstance(c, RecVar) or any(map(ref_has_recursion, _children(c)))


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


# -- the walkers that the cached `names`, `free_session_vars`,
# `free_participant_vars`, `has_recursion`, `has_end`, `_first` and `decider`,
# the parser's recorded calls and the renaming inside `proc_subst` replaced;
# kept verbatim as oracles ----------------------------------------------------

def _proc_identifiers(p, out: set[str]) -> None:
    if isinstance(p, Sum):
        for prefix, cont in p.branches:
            if isinstance(prefix, PTell):
                out.add(prefix.target)
                out.add(prefix.session_var)
                out |= prefix.contract.mentioned_participants
            elif isinstance(prefix, PDo):
                out.add(prefix.session)
                out.add(prefix.peer)
                out.add(prefix.sort)
            _proc_identifiers(cont, out)
    elif isinstance(p, Par):
        for part in p.parts:
            _proc_identifiers(part, out)
    elif isinstance(p, Delim):
        out.update(p.session_vars)
        out.update(p.part_vars)
        _proc_identifiers(p.body, out)
    elif isinstance(p, Call):
        out.add(p.name)
        out.update(p.session_args)
        out.update(p.part_args)


def _free_proc_vars(
    p: Process, bound_s: frozenset[str], bound_p: frozenset[str]
) -> set[str]:
    out: set[str] = set()
    if isinstance(p, Sum):
        for prefix, cont in p.branches:
            if isinstance(prefix, PTell):
                if not is_part_name(prefix.target) and prefix.target not in bound_p:
                    out.add(prefix.target)
                if prefix.session_var not in bound_s:
                    out.add(prefix.session_var)
                out |= {
                    v for v in prefix.contract.free_participant_vars if v not in bound_p
                }
            elif isinstance(prefix, PDo):
                if prefix.session not in bound_s:
                    out.add(prefix.session)
                if not is_part_name(prefix.peer) and prefix.peer not in bound_p:
                    out.add(prefix.peer)
            out |= _free_proc_vars(cont, bound_s, bound_p)
    elif isinstance(p, Par):
        for q in p.parts:
            out |= _free_proc_vars(q, bound_s, bound_p)
    elif isinstance(p, Delim):
        out |= _free_proc_vars(
            p.body, bound_s | frozenset(p.session_vars), bound_p | frozenset(p.part_vars)
        )
    elif isinstance(p, Call):
        out |= {u for u in p.session_args if u not in bound_s}
        out |= {
            a for a in p.part_args if not is_part_name(a) and a not in bound_p
        }
    return out


def _proc_calls(p: Process, out: dict) -> None:
    """The parser's call walk: every call, in pre-order, as a dict key."""
    if isinstance(p, Sum):
        for prefix, cont in p.branches:
            _proc_calls(cont, out)
    elif isinstance(p, Par):
        for q in p.parts:
            _proc_calls(q, out)
    elif isinstance(p, Delim):
        _proc_calls(p.body, out)
    elif isinstance(p, Call):
        out.setdefault((p.name, len(p.session_args), len(p.part_args)))


def proc_subst_walker(p: Process, smap: Mapping[str, str], pmap: Mapping[str, str]) -> Process:
    """Plain substitution over globally unique variables (no scoping).

    A process that mentions no key of either map is returned as it is."""
    if smap.keys().isdisjoint(p.names) and pmap.keys().isdisjoint(p.names):
        return p
    if isinstance(p, Sum):
        branches = []
        for prefix, cont in p.branches:
            if isinstance(prefix, PTell):
                prefix = PTell(
                    pmap.get(prefix.target, prefix.target),
                    smap.get(prefix.session_var, prefix.session_var),
                    subst_parts(prefix.contract, pmap),
                )
            elif isinstance(prefix, PDo):
                prefix = PDo(
                    smap.get(prefix.session, prefix.session),
                    pmap.get(prefix.peer, prefix.peer),
                    prefix.sort,
                    prefix.dir,
                )
            branches.append((prefix, proc_subst_walker(cont, smap, pmap)))
        return Sum(tuple(branches))
    if isinstance(p, Par):
        return Par(tuple(proc_subst_walker(q, smap, pmap) for q in p.parts))
    if isinstance(p, Call):
        return Call(
            p.name,
            tuple(smap.get(u, u) for u in p.session_args),
            tuple(pmap.get(a, a) for a in p.part_args),
        )
    return p


def has_recursion(g: GlobalType) -> bool:
    """True iff a recursion variable occurs (the session can loop)."""
    if isinstance(g, GRecVar):
        return True
    if isinstance(g, GMsg):
        return has_recursion(g.cont)
    if isinstance(g, (GChoice, GPar)):
        return any(has_recursion(b) for b in g.branches)
    if isinstance(g, GRec):
        return has_recursion(g.body)
    return False


def has_end(g: GlobalType) -> bool:
    """True iff the end term occurs syntactically (some path terminates)."""
    if isinstance(g, GEnd):
        return True
    if isinstance(g, GMsg):
        return has_end(g.cont)
    if isinstance(g, (GChoice, GPar)):
        return any(has_end(b) for b in g.branches)
    if isinstance(g, GRec):
        return has_end(g.body)
    return False


def first_interactions(g: GlobalType) -> Optional[tuple[str, frozenset[tuple[str, str]]]]:
    """Sender and (peer, sort) selections of the first interaction layer.

    Skips recursion binders. Returns None when the term carries no immediate
    interaction (end, a bare recursion variable) or when the first layer is
    ambiguous (a parallel term or branches led by different senders).
    """
    if isinstance(g, GMsg):
        return g.src, frozenset([(g.dst, g.sort)])
    if isinstance(g, GRec):
        return first_interactions(g.body)
    if isinstance(g, GChoice):
        parts = [first_interactions(b) for b in g.branches]
        if any(p is None for p in parts):
            return None
        senders = {p[0] for p in parts}  # type: ignore[index]
        if len(senders) != 1:
            return None
        sels: frozenset[tuple[str, str]] = frozenset()
        for p in parts:
            sels |= p[1]  # type: ignore[index]
        return senders.pop(), sels
    return None


def choice_decider(node: GChoice) -> Optional[str]:
    """The unique participant whose sends separate the branches, if any."""
    firsts = [first_interactions(b) for b in node.branches]
    if any(f is None for f in firsts):
        return None
    senders = {f[0] for f in firsts}  # type: ignore[index]
    if len(senders) != 1:
        return None
    selections: list[frozenset[tuple[str, str]]] = [f[1] for f in firsts]  # type: ignore[index]
    seen: set[tuple[str, str]] = set()
    for sel in selections:
        if sel & seen:
            return None  # two branches start with the same selection
        seen |= sel
    return senders.pop()


def _global_subterms(g):
    yield g
    if isinstance(g, (GChoice, GPar)):
        for b in g.branches:
            yield from _global_subterms(b)
    elif isinstance(g, GMsg):
        yield from _global_subterms(g.cont)
    elif isinstance(g, GRec):
        yield from _global_subterms(g.body)


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
    assert c.has_recursion == ref_has_recursion(c)
    assert c.is_guarded == ref_guarded(c)
    assert hash(c) == ref_hash(c)


@settings(max_examples=100, deadline=None)
@given(global_types)
def test_cached_global_values_match_the_walkers(g):
    assert g.participants == ref_participants(g)
    assert hash(g) == ref_hash(g)


@settings(max_examples=100, deadline=None)
@given(processes)
def test_cached_process_names_match_the_walker(p):
    out: set[str] = set()
    _proc_identifiers(p, out)
    assert p.names == out
    # binding every reference of the other kind leaves the free ones of one kind
    assert p.free_session_vars == _free_proc_vars(p, frozenset(), p.names)
    assert p.free_participant_vars == _free_proc_vars(p, p.names, frozenset())


def _calls_in(p: Process) -> tuple:
    calls: dict = {}
    _proc_calls(p, calls)
    return tuple(calls)


# processes as a source file writes them, making at least one call to P or Q
calling_source_processes = st.recursive(st.just(PNil()) | calls, _source_layer,
                                        max_leaves=10).filter(_calls_in)


@settings(max_examples=100, deadline=None)
@given(calling_source_processes)
def test_an_undefined_call_is_refused_at_the_first_call_the_walker_finds(p):
    text = f"participant A {{ {render_process(p)} }}"
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    name = _calls_in(p)[0][0]
    start = re.search(r"[PQ]\(", text).start()  # the first call written
    assert text[start] == name
    assert [(d.message, d.span) for d in exc.value.diagnostics] == [
        (f"call to undefined process {name} in participant A", (1, start + 1, 1, start + 2))]


@settings(max_examples=100, deadline=None)
@given(delim_free_processes, sigmas, pis)
def test_proc_subst_agrees_with_the_walker(p, smap, pmap):
    assert proc_subst(p, smap, pmap) == proc_subst_walker(p, smap, pmap)


@settings(max_examples=100, deadline=None)
@given(global_types | one_sender_choices)
def test_cached_global_facts_match_the_walkers(g):
    for node in _global_subterms(g):
        assert node.has_recursion == has_recursion(node)
        assert node.has_end == has_end(node)
        assert node._first == first_interactions(node)
        if isinstance(node, GChoice):
            assert node.decider == choice_decider(node)


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


@settings(max_examples=200, deadline=None)
@given(ctr_entries, st.booleans())
def test_named_contracts_agree_with_the_regex_reader(entries, breaks):
    text = _ctr_text(entries, breaks)
    assert _outcome(parse_named_contracts, text) == _outcome(regex_reader, text)


@settings(max_examples=300, deadline=None)
@given(ctr_entries, st.booleans(), st.data())
def test_named_contracts_agree_with_the_regex_reader_after_one_edit(entries, breaks, data):
    text = _ctr_text(entries, breaks)
    at = data.draw(st.integers(0, len(text)))
    cut = data.draw(st.integers(0, 1))
    # no "\r": before its first header the regex reader split lines at a lone
    # "\r" (`str.splitlines`), so a comment ended there, while the tokenizer,
    # and with it the grammar, ends a comment only at "\n"
    insert = data.draw(st.sampled_from(["", " ", "\n", "\t", "#", ":", ".", "A", "b", "!", "?",
                                        "(", ")", "+", "(+)", "0", "$"]))
    text = text[:at] + insert + text[at + cut:]
    assert _outcome(parse_named_contracts, text) == _outcome(regex_reader, text)


def regex_reader(text):
    """The former reader, refusing as the grammar now does a contract that
    names its own participant as peer or has free recursion or participant
    variables (the CLI refused these after reading)."""
    out = regex_named_contracts(text)
    if any(name in c.mentioned_participants or c.free_rec_vars or c.free_participant_vars
           for name, c in out.items()):
        raise ParseError([])
    return out


@settings(max_examples=200, deadline=None)
@given(source_processes)
def test_delimited_participant_body_survives_render_and_parse(p):
    system = make_co2({"A": p})
    assert parse_system(render_system(system)) == normalize(system)


# -- the CLI's fuse-policy rewrite, the two-pass `canonicalize` and the
# renderers before the parser took the policy, `canonicalize` became one walk
# and each renderer bracketed in one place; kept verbatim as oracles ---------

def override_policies_walker(system, override: FusePolicy):
    """Replace default fuse policies with the flags' policy, in definitions too."""
    if override == DEFAULT_POLICY:
        return system
    swap = {PFuse(DEFAULT_POLICY): PFuse(override)}

    def rewrite(p):
        if isinstance(p, Sum):
            return Sum(tuple((swap.get(pre, pre), rewrite(cont)) for pre, cont in p.branches))
        if isinstance(p, Par):
            return Par(tuple(rewrite(q) for q in p.parts))
        if isinstance(p, Delim):
            return Delim(p.session_vars, p.part_vars, rewrite(p.body))
        return p

    return system.replace(
        processes=tuple((n, rewrite(p)) for n, p in system.processes),
        definitions=tuple((n, d.replace(body=rewrite(d.body))) for n, d in system.definitions),
    )


def canonicalize_two_pass(g: GlobalType) -> GlobalType:
    """Flatten and sort choices/parallels, rename binders to x0, x1, ...

    Idempotent; preserves participants, recursion/end occurrence, and all
    projections up to the contracts' own canonical branch order.
    """

    def sort_pass(node: GlobalType, env: dict[str, int]) -> GlobalType:
        if isinstance(node, GMsg):
            return GMsg(node.src, node.dst, node.sort, sort_pass(node.cont, env))
        if isinstance(node, GRec):
            inner = dict(env)
            inner[node.var] = len(env)
            return GRec(node.var, sort_pass(node.body, inner))
        if isinstance(node, GChoice):
            bs = [sort_pass(b, env) for b in node.branches]
            bs.sort(key=lambda b: _struct_key(b, env))
            return gchoice(bs)
        if isinstance(node, GPar):
            bs = [sort_pass(b, env) for b in node.branches]
            bs.sort(key=lambda b: _struct_key(b, env))
            return gpar(bs)
        return node

    counter = [0]

    def rename(node: GlobalType, env: dict[str, str]) -> GlobalType:
        if isinstance(node, GRecVar):
            return GRecVar(env.get(node.var, node.var))
        if isinstance(node, GRec):
            fresh = f"x{counter[0]}"
            counter[0] += 1
            inner = dict(env)
            inner[node.var] = fresh
            return GRec(fresh, rename(node.body, inner))
        if isinstance(node, GMsg):
            return GMsg(node.src, node.dst, node.sort, rename(node.cont, env))
        if isinstance(node, GChoice):
            return GChoice(tuple(rename(b, env) for b in node.branches))
        if isinstance(node, GPar):
            return GPar(tuple(rename(b, env) for b in node.branches))
        return node

    return rename(sort_pass(g, {}), {})


def render_global_walker(g: GlobalType) -> str:
    if isinstance(g, GEnd):
        return "end"
    if isinstance(g, GRecVar):
        return g.var
    if isinstance(g, GRec):
        return f"rec {g.var} . {render_global_walker(g.body)}"
    if isinstance(g, GMsg):
        head = f"{g.src} -> {g.dst} : {g.sort}"
        if isinstance(g.cont, GEnd):
            return head
        tail = render_global_walker(g.cont)
        if isinstance(g.cont, (GChoice, GPar)):
            tail = f"({tail})"
        return f"{head} ; {tail}"
    if isinstance(g, GChoice):
        bits = []
        for i, b in enumerate(g.branches):
            text = render_global_walker(b)
            if isinstance(b, GChoice) or (i + 1 < len(g.branches) and _dangling_rec(b)):
                text = f"({text})"
            bits.append(text)
        return " \\/ ".join(bits)
    bits = []
    for i, b in enumerate(g.branches):
        text = render_global_walker(b)
        if isinstance(b, (GChoice, GPar)) or (
            i + 1 < len(g.branches) and _dangling_rec(b)
        ):
            text = f"({text})"
        bits.append(text)
    return " || ".join(bits)


def render_process_walker(p: Process) -> str:
    if isinstance(p, PNil):
        return "0"
    if isinstance(p, Sum):
        parts = []
        for prefix, cont in p.branches:
            head = render_process(Sum(((prefix, NIL),)))
            if isinstance(cont, PNil):
                parts.append(head)
            else:
                tail = render_process_walker(cont)
                if isinstance(cont, Sum) and len(cont.branches) > 1:
                    tail = f"({tail})"
                elif isinstance(cont, Par):
                    tail = f"({tail})"
                parts.append(f"{head} . {tail}")
        return " + ".join(parts)
    if isinstance(p, Par):
        bits = []
        for q in p.parts:
            text = render_process_walker(q)
            if isinstance(q, Sum) and len(q.branches) > 1:
                text = f"({text})"
            bits.append(text)
        return " | ".join(bits)
    if isinstance(p, Call):
        sess = ", ".join(p.session_args)
        parts = ", ".join(p.part_args)
        return f"{p.name}({sess}; {parts})" if parts else f"{p.name}({sess})"
    if isinstance(p, Delim):
        sess = ", ".join(p.session_vars)
        parts = ", ".join(p.part_vars)
        head = f"({sess}; {parts})" if parts else f"({sess})"
        body = render_process_walker(p.body)
        if isinstance(p.body, Par) or (
            isinstance(p.body, Sum) and len(p.body.branches) > 1
        ):
            body = f"({body})"
        return f"{head} {body}"
    raise ValueError(f"cannot render {type(p).__name__}")


def _policy_outcomes(text: str, policy: FusePolicy):
    """The parser's reading under `policy`, and the walker's rewrite of the
    default reading, normalized as every consumer of a system does."""
    rewritten = _outcome(lambda t: normalize(override_policies_walker(parse_system(t), policy)),
                         text)
    return _outcome(lambda t: parse_system(t, policy), text), rewritten


def test_parser_policy_matches_the_rewrite_on_fixtures():
    for name in FIXTURES:
        for policy in FLAG_POLICIES:
            parsed, rewritten = _policy_outcomes(fixture_text(name), policy)
            assert parsed == rewritten, (name, policy)


@settings(max_examples=100, deadline=None)
@given(fuse_source_processes, fuse_source_processes, fuse_source_processes, st.data())
def test_parser_policy_matches_the_rewrite_on_generated_systems(a, b, body, data):
    # the definition takes every variable the generated bodies may leave free
    definition = runtime.ProcDef(("s", "x", "y"), ("a", "b"), body)
    system = make_co2({"A": a, "B": b}, definitions={"F": definition})
    # a bare fuse becomes `fuse(min=2)` at random: the same options, written out
    text = re.sub(r"\bfuse\b(?!\()",
                  lambda m: "fuse(min=2)" if data.draw(st.booleans()) else m.group(),
                  render_system(system))
    for policy in FLAG_POLICIES:
        parsed, rewritten = _policy_outcomes(text, policy)
        assert parsed == rewritten, policy


def test_canonicalize_matches_the_two_passes_on_random_and_synthesised_terms(monkeypatch):
    rng = random.Random(31)
    for _ in range(500):
        g = random_global(rng)
        assert canonicalize(g) == canonicalize_two_pass(g)
    raw: list[GlobalType] = []

    def capture(g):
        raw.append(g)
        return canonicalize(g)

    monkeypatch.setattr(synthesis, "canonicalize", capture)
    rng = random.Random(37)
    for _ in range(300):
        synthesis.synthesize(make_system(corpus_system(rng)))
    assert len(raw) > 50
    for g in raw:
        assert canonicalize(g) == canonicalize_two_pass(g)


@settings(max_examples=200, deadline=None)
@given(global_types)
def test_canonicalize_matches_the_two_passes_on_parsed_terms(g):
    try:
        g = parse_global(render_global(g))
    except ParseError:
        hypothesis.assume(False)
    assert canonicalize(g) == canonicalize_two_pass(g)


@settings(max_examples=200, deadline=None)
@given(processes, global_types)
def test_renderers_match_the_walkers(p, g):
    assert render_process(p) == render_process_walker(p)
    assert render_global(g) == render_global_walker(g)


# The parent's move relation and ready sets, kept verbatim as oracles for
# `next_moves` and the functions read off it.

def enabled_moves_oracle(system: runtime.ContractSystem) -> tuple[MoveLabel, ...]:
    """Every label under which the system can step.

    Sends are always enabled (the queue accepts unboundedly) as long as the
    peer is part of the session; a receive is enabled only when the matching
    queue's head carries one of the expected sorts.
    """
    present = set(system.participants)
    moves: list[MoveLabel] = []
    for name, c in system.contracts:
        head = head_normal(c)
        if isinstance(head, SendChoice):
            for to, sort, _ in head.branches:
                if to in present:
                    moves.append(MoveLabel(name, to, sort, SEND))
        elif isinstance(head, RecvChoice):
            if head.source in present:
                q = system.queue(head.source, name)
                if q and any(q[0] == sort for sort, _ in head.branches):
                    moves.append(MoveLabel(name, head.source, q[0], RECV))
    return tuple(moves)


def contract_step_oracle(system: runtime.ContractSystem,
                         label: MoveLabel) -> runtime.ContractSystem:
    """Apply one send or receive; raises ContractError on a move T forbids."""
    head = head_normal(system.contract(label.actor))
    if label.dir == SEND:
        if not isinstance(head, SendChoice):
            raise ContractError(f"illegal move: {label.actor} is not at an internal choice")
        for to, sort, cont in head.branches:
            if to == label.peer and sort == label.sort:
                if to not in set(system.participants):
                    raise ContractError(f"illegal move: {to} is not in the session")
                q = system.queue(label.actor, label.peer)
                return with_queue(with_contract(system, label.actor, cont),
                                  label.actor, label.peer, q + (label.sort,))
        raise ContractError(f"illegal move: no branch {label.peer}!{label.sort}")
    if label.dir == RECV:
        if not isinstance(head, RecvChoice) or head.source != label.peer:
            raise ContractError(f"illegal move: {label.actor} does not expect {label.peer}")
        q = system.queue(label.peer, label.actor)
        if not q or q[0] != label.sort:
            raise ContractError(f"illegal move: queue {label.peer}->{label.actor} head mismatch")
        for sort, cont in head.branches:
            if sort == label.sort:
                return with_queue(with_contract(system, label.actor, cont),
                                  label.peer, label.actor, q[1:])
        raise ContractError(f"illegal move: sort {label.sort} not offered")
    raise ContractError(f"illegal move direction {label.dir!r}")


# `ContractSystem.with_contract` and `with_queue`, which only the oracle above
# calls since `contract_step` builds its successor in one call; moved here
# unchanged but for `self`, now the first argument `system`

def with_contract(system: runtime.ContractSystem, name: str, c: Contract) -> runtime.ContractSystem:
    return runtime.ContractSystem(
        tuple((n, c if n == name else old) for n, old in system.contracts),
        system.queues,
    )


def with_queue(system: runtime.ContractSystem, frm: str, to: str,
               msgs: tuple[str, ...]) -> runtime.ContractSystem:
    return runtime.ContractSystem(
        system.contracts,
        tuple(
            (f, t, msgs if (f, t) == (frm, to) else old) for f, t, old in system.queues
        ),
    )


def contract_ready_sets_oracle(c: Contract) -> frozenset[ReadySet]:
    """The family of interaction sets the contract offers next.

    An internal choice yields one singleton set per branch (the branches are
    mutually exclusive); an external choice yields a single set holding every
    (peer, sort) pair (all must be handled); a finished contract yields the
    empty family, so it demands nothing.
    """
    bad = c.free_participant_vars
    if bad:
        raise ContractError(f"unstipulated contract: free participant variables {sorted(bad)}")
    node = c
    for _ in range(_MAX_UNFOLD):
        if isinstance(node, Rec):
            node = node.body
            continue
        break
    if isinstance(node, SendChoice):
        return frozenset(frozenset([(to, sort)]) for to, sort, _ in node.branches)
    if isinstance(node, RecvChoice):
        return frozenset([frozenset((node.source, sort) for sort, _ in node.branches)])
    if isinstance(node, End):
        return frozenset()
    raise ContractError("ready sets of an open contract")


def _result(f, *args):
    """f's value, or ContractError when it raises one."""
    try:
        return f(*args)
    except ContractError:
        return ContractError


def test_moves_and_steps_agree_with_the_oracles_on_driven_sessions():
    rng = random.Random(41)
    states = labels = 0
    for i in range(350):
        contracts = corpus_system(rng)
        if i % 3 == 0:  # a session without one participant: moves towards it are not enabled
            del contracts[rng.choice(sorted(contracts))]
        t = make_system(contracts)
        for _ in range(40):
            states += 1
            moves = enabled_moves(t)
            assert moves == enabled_moves_oracle(t)
            for _, c in t.contracts:
                assert _result(contract_ready_sets, c) == _result(contract_ready_sets_oracle, c)
            names = t.participants
            for actor, peer, sort, direction in itertools.product(
                    names, names, CORPUS_SORTS + ("r",), (SEND, RECV)):
                label = MoveLabel(actor, peer, sort, direction)
                labels += 1
                if label in moves:
                    assert contract_step(t, label) == contract_step_oracle(t, label)
                else:
                    assert _result(contract_step, t, label) is ContractError
                    assert _result(contract_step_oracle, t, label) is ContractError
            if not moves:
                break
            t = contract_step(t, rng.choice(moves))
    assert states > 1500 and labels > 50_000


@settings(max_examples=200, deadline=None)
@given(contracts.filter(lambda c: not c.free_rec_vars and not c.free_participant_vars))
def test_ready_sets_agree_with_the_oracle_on_closed_contracts(c):
    assert _result(contract_ready_sets, c) == _result(contract_ready_sets_oracle, c)


# The parent's readiness and honesty search, kept verbatim as oracles for
# the search over one `StateGraph`: there, every state ran its own readiness
# search under a second bound, over module-level caches of the step functions.

_steps = lru_cache(maxsize=100_000)(enabled_steps)
_after = lru_cache(maxsize=100_000)(apply_step)


def weak_process_ready_set_oracle(
    system: runtime.Co2System, who: str, session: str, bound: int = 2_000
) -> tuple[frozenset[tuple[str, str]], bool]:
    """Interactions `who` can offer after steps that leave the session alone.

    Explores every reduction in which either somebody else moves, or `who`
    moves without performing a contractual action on this session, and
    unions the immediate ready sets along the way. Returns the pairs plus
    an exhausted flag telling whether the bound cut the exploration short.
    """
    pairs: set[tuple[str, str]] = set()
    seen = {system}
    queue = deque([system])
    truncated = False
    while queue:
        state = queue.popleft()
        pairs |= process_ready_set(state, who, session)
        for step in _steps(state):
            nxt, label = _after(state, step)
            if label.actor == who and label.kind == "do" and label.session == session:
                continue
            if nxt in seen:
                continue
            if len(seen) >= bound:
                truncated = True
                continue
            seen.add(nxt)
            queue.append(nxt)
    return frozenset(pairs), truncated


@dataclass(frozen=True)
class ReadySetReportOracle:
    participant: str
    session: str
    contract_ready_sets: frozenset[frozenset[tuple[str, str]]]
    process_ready_set: frozenset[tuple[str, str]]
    weak_process_ready_set: frozenset[tuple[str, str]]
    exhausted: bool
    ready: Optional[bool]  # None = unknown (bound hit before a verdict)


def ready_oracle(
    system: runtime.Co2System, who: str, bound: int = 2_000
) -> tuple[Optional[bool], tuple[ReadySetReportOracle, ...]]:
    """Is the participant ready in every session it is bound to?

    For each session holding a contract of `who`, some contract ready set
    must be covered by the weak process ready set. A finished contract has
    an empty family and demands nothing. The verdict is True, False, or
    None when the exploration bound was hit before the sets could cover.
    """
    reports = []
    for sname, t in system.sessions:
        if who not in t.participants:
            continue
        family = contract_ready_sets(t.contract(who))
        rdo = process_ready_set(system, who, sname)
        wrdo, truncated = weak_process_ready_set_oracle(system, who, sname, bound)
        if not family:
            verdict: Optional[bool] = True
        elif any(x <= wrdo for x in family):
            verdict = True
        elif truncated:
            verdict = None
        else:
            verdict = False
        reports.append(
            ReadySetReportOracle(
                participant=who,
                session=sname,
                contract_ready_sets=family,
                process_ready_set=rdo,
                weak_process_ready_set=wrdo,
                exhausted=truncated,
                ready=verdict,
            )
        )
    verdicts = {r.ready for r in reports}
    overall = False if False in verdicts else (None if None in verdicts else True)
    return overall, tuple(reports)


@dataclass(frozen=True)
class HonestyVerdictOracle:
    participant: str
    violation_found: bool
    states_explored: int
    state_bound: int
    depth_bound: int
    unknown_states: int
    witness: Optional[Trace] = None
    witness_reports: tuple[ReadySetReportOracle, ...] = ()


def check_honesty_oracle(
    system: runtime.Co2System,
    who: str,
    state_bound: int = 10_000,
    depth_bound: int = 2_000,
) -> HonestyVerdictOracle:
    """Search this context for a reachable state where `who` is not ready.

    The input must contain no latent or stipulated contract of `who` yet.
    A violation comes with the trace that reaches it, replayable from the
    normalized input; absence of one is only conclusive up to the bounds.
    """
    root = normalize(system)
    if not is_initial_for(root, who):
        raise AnalysisError(f"system is not {who}-initial")
    parent = {root: None}  # state -> (previous state, label); also the seen set
    queue = deque([root])
    explored = 0
    unknown = 0
    witness, witness_reports = None, ()
    while queue:
        state = queue.popleft()
        explored += 1
        verdict, reports = ready_oracle(state, who, depth_bound)
        if verdict is False:
            witness, witness_reports = _trace_to(state, parent), reports
            break
        if verdict is None:
            unknown += 1
        for step in _steps(state):
            nxt, label = _after(state, step)
            if nxt in parent or len(parent) >= state_bound:
                continue
            parent[nxt] = (state, label)
            queue.append(nxt)
    return HonestyVerdictOracle(
        participant=who,
        violation_found=witness is not None,
        states_explored=explored,
        state_bound=state_bound,
        depth_bound=depth_bound,
        unknown_states=unknown,
        witness=witness,
        witness_reports=witness_reports,
    )


def _report_outcome(reports) -> tuple:
    return tuple((r.session, r.contract_ready_sets, r.process_ready_set,
                  r.weak_process_ready_set, r.ready) for r in reports)


# A must act on s2 before it can offer what s1 asks of it
TWO_SESSIONS = """
participant A { do s2 B!x . do s1 C!y }
participant B { do s2 A?x }
participant C { do s1 A?y }
session s1 { A: C!y C: A?y }
session s2 { A: B!x B: A?x }
"""


def test_ready_agrees_with_the_oracle_on_walked_states():
    rng = random.Random(5)
    checked = 0
    for text in [*map(fixture_text, FIXTURES), TWO_SESSIONS]:
        root = normalize(parse_system(text))
        for walk in range(8):
            state = root
            for _ in range(walk and rng.randrange(16)):
                steps = enabled_steps(state)
                if not steps:
                    break
                state, _ = apply_step(state, rng.choice(steps))
            graph = StateGraph()  # shared, so later questions read solved sets
            for who, _ in state.processes:
                verdict, reports = ready(state, who, graph)
                want, want_reports = ready_oracle(state, who)
                assert (verdict, _report_outcome(reports)) == (
                    want, _report_outcome(want_reports)), (text, who)
                checked += len(reports)
    assert checked > 150
    _steps.cache_clear()
    _after.cache_clear()


def _honesty_outcome(verdict) -> tuple:
    """What both searches report: verdict, counts, witness and its reports."""
    return (
        verdict.violation_found,
        verdict.states_explored,
        verdict.unknown_states,
        verdict.witness and (verdict.witness.steps, verdict.witness.digests),
        _report_outcome(verdict.witness_reports),
    )


def test_honesty_agrees_with_the_oracle_on_fixtures_and_generated_pairs():
    # the search fires only the steps of `who`'s group; the oracle fires
    # every step. All but the count of states is compared with the oracle on
    # the whole context, and that count with the oracle on the context
    # restricted to the group's participants, pools and sessions
    contexts = [(fixture_text(name), who)
                for name in FIXTURES for who, _ in parse_system(fixture_text(name)).processes]
    rng = random.Random(2)
    sizes = [(1, n) for n in range(2, 13)] + [(2, n) for n in range(2, 6)]
    contexts += [pair_context(rng, pairs, n, dishonest)
                 for pairs, n in sizes for dishonest in (False, True)]
    outcomes = set()
    sliced = 0
    for text, who in contexts:
        system = parse_system(text)
        try:
            want = check_honesty_oracle(system, who)
        except AnalysisError:
            with pytest.raises(AnalysisError):
                check_honesty(system, who)
            continue
        got = check_honesty(system, who)
        assert want.unknown_states == 0 and want.states_explored < 10_000, who
        root = normalize(system)
        group = _group(root, who)
        if not {n for n, _ in root.processes} <= group:
            alone = runtime.Co2System(*(tuple(x for x in field if x[0] in group)
                                        for field in (root.processes, root.pools, root.sessions)),
                                      root.definitions)
            want = replace(want, states_explored=check_honesty_oracle(alone, who).states_explored)
            sliced += 1
        assert _honesty_outcome(got) == _honesty_outcome(want), (text, who)
        outcomes.add(got.violation_found)
    assert outcomes == {False, True}
    assert sliced >= 8  # every 2-pair context
    _steps.cache_clear()
    _after.cache_clear()


# The group rule: a step whose actor lies outside `who`'s group commutes with
# the group's steps, because it changes nothing a group member's steps or
# readiness read.

def _full_graph(root: runtime.Co2System, bound: int = 400) -> dict:
    """state -> (actor, successor) of every enabled step, up to `bound` states."""
    edges: dict = {}
    todo = [root]
    while todo and len(edges) < bound:
        state = todo.pop()
        if state not in edges:
            edges[state] = [(s.actor, apply_step(state, s)[0]) for s in enabled_steps(state)]
            todo.extend(nxt for _, nxt in edges[state] if nxt not in edges)
    return edges


def _what_the_group_holds(state: runtime.Co2System, group: frozenset) -> tuple:
    """The members' processes and pools, and every session holding a member."""
    return (tuple(x for x in state.processes if x[0] in group),
            tuple(x for x in state.pools if x[0] in group),
            tuple(x for x in state.sessions if group.intersection(x[1].participants)))


def _outside_steps_leave_the_group_alone(system: runtime.Co2System) -> int:
    """Check the group rule on every state of the full graph; returns how many
    steps lay outside the group checked."""
    root = normalize(system)
    edges = _full_graph(root)
    checked = 0
    for who, _ in root.processes:
        group = _group(root, who)
        for state, out in edges.items():
            held = _what_the_group_holds(state, group)
            for actor, nxt in out:
                if actor not in group:
                    assert _what_the_group_holds(nxt, group) == held, (render_system(root), who)
                    checked += 1
    return checked


# two pairs calling the same definitions, whose bodies name no participant
SHARED_DEFINITION = """
participant A0 { tell A0 @x { rec t . B0!m . B0?n . t } . fuse(recursive) . Ping(x; B0) }
participant B0 { tell A0 @y { rec t . A0?m . A0!n . t } . Pong(y; A0) }
participant A1 { tell A1 @x { rec t . B1!m . B1?n . t } . fuse(recursive) . Ping(x; B1) }
participant B1 { tell A1 @y { rec t . A1?m . A1!n . t } . Pong(y; A1) }
def Ping(u; a) = do u a!m . do u a?n . Ping(u; a)
def Pong(u; a) = do u a?m . do u a!n . Pong(u; a)
"""


# A reaches H only through the body of the definition it calls, and C's
# process names nobody: only its contract in s joins it to A and B
UNNAMED_LINKS = """
participant A { Ask() | do s B!x }
participant B { do s A?x }
participant C { tau }
participant H { fuse }
session s { A: B!x  B: A?x . C!y  C: B?y }
def Ask() = (u) tell H @u { G!m } . do u G!m
"""


def _pool_variable_context() -> runtime.Co2System:
    """A's free session variable x is the variable of B's latent in H's pool,
    and A's process names neither H nor B: H's fuse rewrites x in A's process."""
    system = parse_system("participant A { do x C!m }\nparticipant C { tau }\n"
                          "participant H { fuse }\n")
    pool = [runtime.LatentContract("B", "x", parse_contract("d?m")),
            runtime.LatentContract("D", "y", parse_contract("b!m"))]
    return make_co2(dict(system.processes), {"H": pool})


def test_honesty_group_of_two_pairs_sharing_definitions_is_one_pair():
    root = normalize(parse_system(SHARED_DEFINITION))
    assert {n for n in _group(root, "A0") if is_part_name(n)} == {"A0", "B0"}
    one_pair = "".join(line for line in SHARED_DEFINITION.splitlines(True) if "1 " not in line)
    verdict = check_honesty(root, "A0", state_bound=500)
    assert (verdict.violation_found, verdict.unknown_states) == (False, 0)
    assert verdict.states_explored == check_honesty(parse_system(one_pair), "A0").states_explored
    assert _outside_steps_leave_the_group_alone(root) > 0


def test_honesty_group_joins_a_free_session_variable_to_the_pool_holding_it():
    root = normalize(_pool_variable_context())
    assert {n for n in _group(root, "A") if is_part_name(n)} == {"A", "B", "C", "D", "H"}
    (fuse,) = [s for s in enabled_steps(root) if s.kind == "fuse"]
    after, _ = apply_step(root, fuse)
    assert after.process("A") != root.process("A")  # x became the new session
    assert _outside_steps_leave_the_group_alone(root) == 0  # nobody is outside A's group


def test_honesty_group_steps_outside_it_leave_the_group_alone():
    rng = random.Random(11)
    named = [SHARED_DEFINITION, UNNAMED_LINKS]
    texts = [fixture_text(name) for name in FIXTURES]
    texts += [pair_context(rng, pairs, n, dishonest)[0]
              for pairs, n in ((2, 2), (2, 3), (2, 4), (3, 2)) for dishonest in (False, True)]
    texts += [recursive_pair_context(rng, 2, n) for n in (2, 3)]
    texts += [broker_context(rng, k, agree) for k in (3, 4) for agree in (False, True)]
    mutants = [m for text in texts + named for m in single_edit_mutants(rng, text, 4)]
    systems = [_pool_variable_context(), *map(parse_system, named)]
    for text in texts + mutants:
        try:
            systems.append(parse_system(text))
        except ParseError:
            continue
    assert len(systems) > len(texts) + 20
    assert sum(map(_outside_steps_leave_the_group_alone, systems)) > 1_000


# -- the four system classes as the frozen dataclasses they were before they
# became `Frozen` values; kept verbatim as an oracle -------------------------

@dataclass(frozen=True)
class ContractSystem:
    """Stipulated contracts plus the full grid of FIFO queues.

    contracts is sorted by participant name; queues holds one entry
    (frm, to, messages) for every ordered pair of distinct participants.
    """

    contracts: tuple[tuple[str, Contract], ...]
    queues: tuple[tuple[str, str, tuple[str, ...]], ...]

    @property
    def participants(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.contracts)

    def contract(self, name: str) -> Contract:
        for n, c in self.contracts:
            if n == name:
                return c
        raise KeyError(name)

    def queue(self, frm: str, to: str) -> tuple[str, ...]:
        for f, t, msgs in self.queues:
            if f == frm and t == to:
                return msgs
        raise KeyError((frm, to))

    def with_contract(self, name: str, c: Contract) -> "ContractSystem":
        return ContractSystem(
            tuple((n, c if n == name else old) for n, old in self.contracts),
            self.queues,
        )

    def with_queue(self, frm: str, to: str, msgs: tuple[str, ...]) -> "ContractSystem":
        return ContractSystem(
            self.contracts,
            tuple(
                (f, t, msgs if (f, t) == (frm, to) else old) for f, t, old in self.queues
            ),
        )


@dataclass(frozen=True)
class ProcDef:
    session_params: tuple[str, ...]
    part_params: tuple[str, ...]
    body: Process


@dataclass(frozen=True)
class LatentContract:
    promiser: str
    session_var: str
    contract: Contract


@dataclass(frozen=True)
class Co2System:
    processes: tuple[tuple[str, Process], ...]
    pools: tuple[tuple[str, tuple[LatentContract, ...]], ...]
    sessions: tuple[tuple[str, ContractSystem], ...]
    definitions: tuple[tuple[str, ProcDef], ...] = ()

    def process(self, name: str) -> Process:
        return _lookup(self.processes, name)

    def pool(self, host: str) -> tuple[LatentContract, ...]:
        for n, k in self.pools:
            if n == host:
                return k
        return ()

    def session(self, name: str) -> ContractSystem:
        return _lookup(self.sessions, name)

    @property
    def session_names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.sessions)

    def definition(self, name: str) -> ProcDef:
        return _lookup(self.definitions, name)


_DATACLASS = {runtime.ContractSystem: ContractSystem, runtime.ProcDef: ProcDef,
              runtime.LatentContract: LatentContract, runtime.Co2System: Co2System}


def as_dataclass(value):
    """The value with every system value in it rebuilt, field by field, as
    the dataclass it was; term nodes are kept."""
    cls = _DATACLASS.get(type(value))
    if cls is not None:
        return cls(*(as_dataclass(getattr(value, f.name)) for f in fields(cls)))
    if isinstance(value, tuple):
        return tuple(as_dataclass(v) for v in value)
    return value


def _values_in(system):
    """The system and every session, latent contract and definition in it."""
    yield system
    yield from (t for _, t in system.sessions)
    yield from (k for _, pool in system.pools for k in pool)
    yield from (d for _, d in system.definitions)


def _walked_states(text, seed, steps):
    """The states of a seeded random run of the system in text."""
    rng = random.Random(seed)
    state = normalize(parse_system(text))
    yield state
    for _ in range(steps):
        enabled = enabled_steps(state)
        if not enabled:
            return
        state, _ = apply_step(state, rng.choice(enabled))
        yield state


def _check_against_the_dataclasses(states) -> dict[str, int]:
    """Hash, equality, repr, pickling and `replace` of every value in the
    states agree with its dataclass's; each value is paired with the next one
    of its class, whose fields it takes in `replace`. Counts the values."""
    groups: dict[type, list] = {}
    for state in states:
        for v in _values_in(state):
            groups.setdefault(type(v), []).append(v)
    for group in groups.values():
        for a, b in zip(group, group[1:] + group[:1]):
            old_a, old_b = as_dataclass(a), as_dataclass(b)
            assert repr(a) == repr(old_a) == reference_repr(a)
            assert hash(a) == hash(old_a)
            assert (a == b, a != b) == (old_a == old_b, old_a != old_b)
            if isinstance(a, runtime.Co2System):
                assert a.session_names == old_a.session_names
            for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
                assert type(copied) is type(a)
                assert copied == a and hash(copied) == hash(a) and repr(copied) == repr(a)
            for f in fields(old_a):
                new = getattr(b, f.name)
                changed = a.replace(**{f.name: new})
                want = replace(old_a, **{f.name: as_dataclass(new)})
                assert type(changed) is type(a)
                assert as_dataclass(changed) == want and repr(changed) == repr(want)
                assert hash(changed) == hash(want)
            assert a.replace() == a
            for change in (a.replace, partial(replace, old_a)):
                with pytest.raises(TypeError):
                    change(extra=None)
    return {cls.__name__: len(group) for cls, group in groups.items()}


def test_system_values_agree_with_the_dataclasses_on_fixture_states():
    counts = _check_against_the_dataclasses(
        state for name in FIXTURES for seed in (0, 1)
        for state in _walked_states(fixture_text(name), seed, 40))
    assert min(counts.values()) > 50 and len(counts) == 4


def test_system_values_agree_with_the_dataclasses_on_generated_states():
    rng = random.Random(7)
    texts = [pair_context(rng, rng.randint(1, 2), rng.randint(2, 6), rng.random() < 0.5)[0]
             for _ in range(6)]
    texts += [recursive_pair_context(rng, rng.randint(1, 2), rng.randint(2, 4)) for _ in range(6)]
    counts = _check_against_the_dataclasses(
        state for i, text in enumerate(texts) for state in _walked_states(text, i, 40))
    assert min(counts.values()) > 50 and len(counts) == 4


# -- the character-loop tokenizer and the token-object parser, before one
# pattern scanned a text into flat lists and loops read the chains; kept
# verbatim in `parse_oracle` ------------------------------------------------

PARSERS = (
    (parse_contract, parse_oracle.parse_contract),
    (parse_global, parse_oracle.parse_global),
    (parse_named_contracts, parse_oracle.parse_named_contracts),
    (parse_system, parse_oracle.parse_system),
)


def _parsed(parse, text):
    """What `parse` gives: a value, or the diagnostics or error it raises."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.diagnostics
    except Exception as exc:  # a crash must crash both alike
        return type(exc), str(exc)


def _same(got, want) -> bool:
    """The very same node, the same names bound to the very same nodes, or an
    equal system or failure."""
    if isinstance(want, dict):
        return list(got) == list(want) and all(got[k] is want[k] for k in want)
    if isinstance(want, (Contract, GlobalType)):
        return got is want
    return type(got) is type(want) and got == want


def _assert_parsed_as_by_the_oracle(text: str) -> None:
    for parse, oracle in PARSERS:
        got, want = _parsed(parse, text), _parsed(oracle, text)
        if isinstance(want, tuple) and want[0] is ValueError:
            # the oracle's one known crash: `int()` on a `min=` number of
            # digits that are not ASCII, such as `²`; the parser reports it
            assert "invalid literal for int()" in want[1], (text, want)
            assert [d.message for d in got] == ["min= needs a number"], (text, got)
            continue
        assert _same(got, want), (parse.__name__, text, got, want)


def _parser_inputs(rng: random.Random) -> list[str]:
    """The fixtures, corpus terms rendered to text, systems mid-run and
    generated contexts."""
    texts = [fixture_text(name) for name in FIXTURES]
    for _ in range(40):
        texts.append(render_contract(random_contract(rng, ["A", "B", "C", "x"])))
        texts.append(render_global(random_global(rng)))
        texts.append("".join(f"{n}: {render_contract(c)}\n"
                             for n, c in corpus_system(rng).items()))
    for pairs, n in ((1, 3), (2, 2)):
        texts.append(pair_context(rng, pairs, n, rng.random() < 0.5)[0])
        texts.append(recursive_pair_context(rng, pairs, n))
    for name in ("store_s1.co2", "subset_fuse.co2", "pingpong.co2"):
        *_, state = _walked_states(fixture_text(name), 5, 4)
        texts.append(render_system(state))
    return texts


def test_parsers_agree_with_the_oracle_on_inputs_and_their_single_edit_mutants():
    rng = random.Random(15)
    texts = _parser_inputs(rng)
    mutants = [m for text in texts for m in single_edit_mutants(rng, text, 20)]
    rejected = 0
    for text in texts + mutants:
        _assert_parsed_as_by_the_oracle(text)
        rejected += isinstance(_parsed(parse_system, text), tuple)
    assert len(mutants) > 2500 and rejected > 1500


def test_a_min_of_other_digits_is_reported_where_the_oracle_crashes_or_reads_it():
    for number in ("\u00b2", "3\u00b2, smallest"):
        _assert_parsed_as_by_the_oracle(f"participant A {{ fuse(min={number}) }}")
    # the oracle reads `٣` (ARABIC-INDIC DIGIT THREE) as 3; the parser refuses it
    text = "participant A { fuse(min=\u0663) }"
    assert parse_oracle.parse_system(text).process("A").branches[0][0].policy.min_participants == 3
    (diag,) = _parsed(parse_system, text)
    assert (diag.message, diag.span) == ("min= needs a number", (1, 26, 1, 27))


def test_a_comment_that_ends_the_text_keeps_the_end_of_input_column():
    for text in ("A: B!a # no newline", "A: B!a\n  # no newline", "A: B!a .\t# x",
                 "participant A { 0 } #", "A -> B : a ;  # x\n# y", "#"):
        _assert_parsed_as_by_the_oracle(text)
    (diag,) = _parsed(parse_contract, "A!a . # x")
    assert diag.span == (1, 7, 1, 7)


def test_every_code_point_tokenizes_as_by_the_oracle():
    """Every code point but the surrogates, alone, before and after `a`,
    before and after `1` and between two letters. Beyond ASCII both
    tokenizers read a character only through `str.isalpha`, `isalnum`,
    `isdigit` and `isdecimal` and the pattern's classes `\\w` and `\\d`, so
    the test sorts every code point by those six and runs each ASCII one
    and the first, last and a few seeded members of each class."""
    wide = "".join(chr(c) for c in range(0x80, 0x110000) if not 0xD800 <= c < 0xE000)
    word, decimal = set(re.findall(r"\w", wide)), set(re.findall(r"\d", wide))
    classes: dict[tuple, list[str]] = {}
    for c in wide:
        key = (c.isalpha(), c.isalnum(), c.isdigit(), c.isdecimal(), c in word, c in decimal)
        classes.setdefault(key, []).append(c)
    assert len(classes) >= 5  # none, letters, decimals, `²` and `½` alike
    rng = random.Random(15)
    chars = [chr(c) for c in range(0x80)] + ["²", "½"]
    for members in classes.values():
        chars += [members[0], members[-1]] + rng.sample(members, min(len(members), 20))

    def oracle_tokens(text):
        try:
            return [(t.text, t.span) for t in parse_oracle.tokenize(text)]
        except ParseError as exc:
            return exc.diagnostics

    def new_tokens(text):
        try:
            texts, starts = lex.tokenize(text)
        except ParseError as exc:
            return exc.diagnostics
        return [(t, lex.span(text, s, len(t))) for t, s in zip(texts[:-1], starts[:-1])]

    for c in chars:
        for text in (c, "a" + c, c + "a", "1" + c, c + "1", "a" + c + "b"):
            assert new_tokens(text) == oracle_tokens(text), text


# -- synthesis against the execution oracle -------------------------------------

CROSS_SEND = "cross-send"
SEND_PERMUTATION = "send-permutation choice"


def converse_boundary(result: synthesis.SynthResult) -> Optional[str]:
    """The named boundary a failed synthesis lies on, or None. A cross-send:
    stuck where two participants each head a send to the other, which queues
    absorb. A send-permutation choice: a race where the racing sender's
    choice sends to two peers or more, in an order no global type can fix."""
    heads = dict(result.config or ())
    targets = {n: {b[0] for b in c.branches} for n, c in heads.items()
               if isinstance(c, SendChoice)}
    if result.reason == synthesis.STUCK and any(
            n in targets.get(peer, ()) for n, peers in targets.items() for peer in peers):
        return CROSS_SEND
    if result.reason == synthesis.MIXED_RACE:
        racer = synthesis._senders(heads)[1][0][0]
        if len(targets[racer]) > 1:
            return SEND_PERMUTATION
    return None


@pytest.mark.parametrize("text, boundary", [
    ("A: B!p . B?q\nB: A!q . A?p", CROSS_SEND),
    ("A: B!p . C!q (+) C!q . B!p\nB: A?p . C!p\nC: B?p . A?q", SEND_PERMUTATION),
    ("A: B!p\nB: A?q", None),
    ("A: B!p . C!q (+) B!q\nB: A?p . C!p\nC: A?q", None),
])
def test_converse_boundaries_name_the_pinned_misses_and_nothing_else(text, boundary):
    system = make_system(parse_named_contracts(text))
    result = synthesis.synthesize(system)
    assert not result.ok and converse_boundary(result) == boundary
    complete = execution_oracle(system, 1).kind == ALL_RUNS_COMPLETE
    assert complete == (boundary is not None)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_synthesis_is_sound_and_its_misses_lie_on_named_boundaries(rng, buffer_bound):
    """A choreography means every run completes. A system whose every run
    completes but that has no choreography must lie on a named boundary;
    any other such miss is a defect, to be reported and kept as a regression."""
    contracts = random_raw_system(rng)
    system = make_system(contracts)
    result = synthesis.synthesize(system)
    complete = execution_oracle(system, buffer_bound).kind == ALL_RUNS_COMPLETE
    if result.ok:
        assert complete, contracts
    elif complete:
        assert converse_boundary(result) is not None, (contracts, result)


def _chain_length(node) -> int:
    """The number of messages before the end of a one-branch chain."""
    n = 0
    while isinstance(node, (SendChoice, RecvChoice, GMsg)):
        node = node.cont if isinstance(node, GMsg) else node.branches[0][-1]
        n += 1
    return n


def test_chains_of_ten_thousand_parse():
    """`.` and `;` chains, parentheses and `rec` bodies of ten thousand parse,
    synthesise, render and parse back, at the default recursion limit."""
    n = 10_000
    sorts = ["a", "b", "c"]
    a = " . ".join(f"B!{sorts[i % 3]}" for i in range(n))
    b = " . ".join(f"A?{sorts[i % 3]}" for i in range(n))
    assert _chain_length(parse_contract(a)) == n
    pair = parse_named_contracts(f"A: {a}\nB: {b}\n")
    assert [_chain_length(c) for c in pair.values()] == [n, n]
    g = parse_global(" ; ".join(f"A -> B : {sorts[i % 3]}" for i in range(n)))
    assert _chain_length(g) == n
    result = synthesis.synthesize(make_system(pair))
    assert result.ok and result.global_type is g
    assert parse_global(render_global(g)) is g
    assert [parse_contract(render_contract(c)) for c in pair.values()] == list(pair.values())
    assert parse_contract("(" * n + "A!a . end" + ")" * n) is parse_contract("A!a")
    nested = "".join(f"rec t{i} . " for i in range(n)) + "B!a . t0"
    assert render_contract(parse_contract(nested)) == nested


def test_a_context_of_two_thousand_messages_loads_runs_and_is_checked(tmp_path, capsys):
    text, who = pair_context(random.Random(0), 1, 2_000, False)
    path = tmp_path / "pair.co2"
    path.write_text(text)
    assert main(["run", str(path)]) == 0
    assert "ran 4003 steps" in capsys.readouterr().out
    assert main(["honesty", str(path), "--participant", who, "--state-bound", "50"]) == 0
    assert capsys.readouterr().out.startswith(f"no violation for {who} up to 50 states")


def test_no_source_file_sets_the_recursion_limit():
    sources = Path(runtime.__file__).parent.rglob("*.py")
    assert [p.name for p in sources if "setrecursionlimit" in p.read_text()] == []


# -- the paper's theorem as a cross-check of three verdicts: honesty gives
# progress, so no honest participant is culpable where a run stops ----------

THEOREM_STATE_BOUND = 3_000
THEOREM_MAX_STEPS = 1_000
THEOREM_SEEDS = (1, 2, 3)
CO2_FIXTURES = [name for name in FIXTURES if name.endswith(".co2")]


def _theorem_context(kind: str, rng: random.Random) -> str:
    if kind == "fixture":
        return fixture_text(rng.choice(CO2_FIXTURES))
    if kind == "pair":
        return pair_context(rng, rng.randint(1, 2), rng.randint(1, 5), rng.random() < 0.5)[0]
    if kind == "recursive":
        return recursive_pair_context(rng, rng.randint(1, 2), rng.randint(1, 3))
    if kind == "retell":
        return retell_context(rng, rng.randint(1, 3))
    return broker_context(rng, rng.randint(3, 4), rng.random() < 0.5)


def _rebound_by_fuses(installed, reports) -> list[tuple[str, str]]:
    """Each (session, key) where a fuse's sigma binds a session `installed`
    before it, one an earlier fuse made, or a variable an earlier fuse bound:
    the paper's fuse binds only variables, each to one fresh session."""
    installed, bound, found = set(installed), set(), []
    for report in reports:
        found += [(report["session"], k) for k in sorted(report["sigma"]) if k in installed | bound]
        installed.add(report["session"])
        bound.update(report["sigma"])
    return found


def _honest_participants(system) -> set[str]:
    """H: the participants whose honesty search finds no violation and leaves
    no state unknown; a context that is not initial for one leaves it out."""
    honest = set()
    for who, _ in system.processes:
        try:
            verdict = check_honesty(system, who, THEOREM_STATE_BOUND)
        except AnalysisError:
            continue
        if not verdict.violation_found and verdict.unknown_states == 0:
            honest.add(who)
    return honest


def _culpable_honest_where_runs_stop(system) -> tuple[int, list]:
    """How many of the seeded runs stop by themselves, and each (seed,
    session, participant) where one stops with a member of H culpable in an
    unfinished session."""
    honest = _honest_participants(system)
    stopped, found = 0, []
    for seed in THEOREM_SEEDS:
        trace = runtime.run(system, seed=seed, max_steps=THEOREM_MAX_STEPS)
        reports = [{"session": label.session, "sigma": dict(label.fuse.sigma)}
                   for label in trace.steps if label.kind == "fuse"]
        assert _rebound_by_fuses(system.session_names, reports) == [], seed
        if len(trace.steps) == THEOREM_MAX_STEPS:
            continue  # cut, not stopped: the theorem says nothing
        stopped += 1
        for sname, t in trace.terminal.sessions:
            if not is_terminated(t):
                found += [(seed, sname, who)
                          for who in sorted(culpable(trace.terminal, sname) & honest)]
    return stopped, found


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("fixture", "pair", "recursive", "broker", "retell")),
       st.randoms(use_true_random=False), st.booleans())
def test_no_honest_participant_is_culpable_where_a_run_stops(kind, rng, mutate):
    """Honesty gives progress: in a run that stops by itself (fewer than
    `max_steps` steps, so `enabled_steps` of its last state S is empty), no
    participant p of H is culpable in an unfinished session s of S. And in
    every run, each fuse binds only variables no earlier fuse bound.

    The argument, against the code's definitions. Let t be s's contract
    system at S and c = t.contract(p).
    1. `check_honesty` left no state unknown and found no violation, so it
       expanded every state reachable from the normalized context by steps of
       p's `_group` G, and `ready(·, p)` was True at each of them (None counts
       as unknown, False is a violation).
    2. Steps of participants outside G touch no member of G, and the
       enabledness of a member's step reads only G's names (the links of
       `_group`). Dropping the outsiders' steps from the run gives G-steps
       enabled from the root; they reach a state S' of the search whose
       members' processes, member hosts' pools and sessions holding members
       are those of S, up to the fresh names a `fuse` chose. Neither
       readiness nor culpability reads how those names are spelled.
    3. p culpable: `next_moves(t, p)` is not empty, so `head_normal(c)` is a
       `SendChoice` with a branch to a participant of t, or a `RecvChoice`
       whose source's queue to p holds one of its sorts at its head.
       Either way c is no `End`, so `contract_ready_sets(c)` is not empty,
       and `ready` True gives a ready set X in it with X <= W, W =
       `weak_process_ready_set(S', p, s)`.
    4. S has no enabled step, so S' has no enabled G-step, the graph gives S'
       no successors and W is `process_ready_set(S', p, s)`: the (peer, sort)
       of each `do s` with a participant-name peer that heads a branch of a
       top-level `Sum` of p's process, in the direction of c's head: sends
       for a `SendChoice`, receives otherwise.
    5. A receive's X holds (q, m) for every sort m it offers, the queue's head
       among them; a send's X is {(q, m)} for one branch. So p's process heads
       a branch with `do s q?m` or `do s q!m`, of the contract's direction.
       When q is a participant of t, `_prefix_enabled` finds the move in
       `next_moves(t, p)`: S has an enabled step, a contradiction. The named
       regression below is a context where a `do` of the other direction
       would cover X though it never fires.
    One case escapes the argument: a send branch to a peer outside t. Only a
    `session` block stipulates such a contract (a fused contract's sends
    all appear in the choreography it projects), and a participant with an
    unfinished contract in a block is not initial, so it is not in H.
    """
    text = _theorem_context(kind, rng)
    if mutate:
        text = single_edit_mutants(rng, text, 1)[0]
    try:
        system = parse_system(text)
    except ParseError:
        return
    _, found = _culpable_honest_where_runs_stop(system)
    assert found == [], (text, found)


def test_a_do_that_receives_what_the_contract_sends_is_no_honest_participant_culpable():
    """The single-edit mutant of a one-message `pair_context` that turns A0's
    `do xA0 B0!` into `do xA0 B0?`. Every run stops after both tells and the
    fuse, with A0 culpable in s1. `process_ready_set` once kept a `do`'s
    (peer, sort) whatever its direction, so honesty found A0 honest; it keeps
    only the `do`s of the contract head's direction, and A0 is dishonest."""
    text, _ = pair_context(random.Random(0), 1, 1, False)
    mutant = text.replace("do xA0 B0!", "do xA0 B0?")
    assert len(mutant) == len(text) and mutant != text
    system = parse_system(mutant)
    assert _honest_participants(system) == {"B0"}
    assert check_honesty(system, "A0").violation_found
    stopped, found = _culpable_honest_where_runs_stop(system)
    assert stopped == len(THEOREM_SEEDS)
    assert found == []
    for seed in THEOREM_SEEDS:
        terminal = runtime.run(system, seed=seed, max_steps=THEOREM_MAX_STEPS).terminal
        assert culpable(terminal, "s1") == {"A0"}


def test_no_honest_participant_is_culpable_where_a_run_stops_through_the_cli(tmp_path, capsys):
    """The property's twin on the `.co2` fixtures and four `retell_context`s,
    read off the CLI's JSON: `honesty` for every participant, then `run
    --trace` and `check`, whose culpable lists must hold no participant
    `honesty` found honest, and whose trace's fuse reports bind only
    variables no earlier fuse bound."""
    rng = random.Random(0)
    paths = [fixture_path(name) for name in CO2_FIXTURES]
    for i in range(4):
        paths.append(tmp_path / f"retell{i}.co2")
        paths[-1].write_text(retell_context(rng, i % 3 + 1))
    stopped = honest_seen = 0
    for path in paths:
        name, system = path.name, parse_system(path.read_text())
        path = str(path)
        honest = set()
        for who, _ in system.processes:
            code = main(["honesty", path, "--participant", who, "--format", "json"])
            out = capsys.readouterr().out
            if code == 0:
                report = json.loads(out)
                if report["unknownStates"] == 0:
                    honest.add(who)
            else:
                assert code in (3, 4), (name, who, code)
        honest_seen += len(honest)
        trace = tmp_path / f"{name}.trace.jsonl"
        for seed in THEOREM_SEEDS:
            argv = ["run", path, "--seed", str(seed), "--max-steps", str(THEOREM_MAX_STEPS)]
            assert main([*argv, "--trace", str(trace), "--format", "json"]) == 0
            records = [json.loads(line) for line in trace.read_text().splitlines()]
            reports = [r["fuseReport"] for r in records if r.get("kind") == "fuse"]
            assert _rebound_by_fuses(system.session_names, reports) == [], (name, seed)
            if json.loads(capsys.readouterr().out)["steps"] == THEOREM_MAX_STEPS:
                continue
            stopped += 1
            assert main(["check", str(trace), path, "--format", "json"]) in (0, 3)
            live = json.loads(capsys.readouterr().out)["liveSessions"]
            assert [(name, seed, s, who) for s, who_list in live.items()
                    for who in who_list if who in honest] == []
    assert stopped > 10 and honest_seen > 5, (stopped, honest_seen)
