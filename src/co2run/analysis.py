"""Culpability, readiness and bounded honesty checking.

A participant is culpable at a session when the session's contract state
enables a move of theirs: they owe the next interaction. A participant is
ready when, for each of its stipulated contracts, the process can
(eventually, moving only through steps that do not touch that session)
offer every interaction of one of the contract's ready sets. Honesty asks
for readiness in every reachable state; that is undecidable in general, so
`check_honesty` explores one context up to a state bound and reports either
a concrete counterexample trace or "no violation up to the bound".

Readiness reads only the checked participant's process and sessions, so
honesty fires only the steps of its `_group`; the others stay idle. Every
state a readiness question reaches is reachable from the context, so one
`StateGraph` per search serves both: it expands each state once, stops
expanding at its bound, and keeps each solved weak ready set, solved one
strongly connected component at a time, successors first (Tarjan's `_sccs`,
its recursion run on `contracts.descend`). Nothing is cached between searches.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, TypeVar

from .contracts import contract_ready_sets, enabled_moves, is_part_name, is_terminated
from .contracts import End, descend, head_normal, orphan_messages
from .runtime import (
    Co2System,
    PDo,
    StepLabel,
    Sum,
    Trace,
    apply_step,
    enabled_steps,
    normalize,
    proc_items,
    system_digest,
)

N = TypeVar("N")


class AnalysisError(Exception):
    pass


class ReplayError(Exception):
    """A trace does not replay against the system it claims to come from."""


class StateGraph:
    """The states one search reaches, each expanded at most once.

    Expanding a state fires each enabled step of a `group` member (of all
    without a group); at most `bound` states are expanded, and a state
    reached after that stays unexpanded: what lies beyond it is unknown.
    The graph also keeps the solved weak ready sets, keyed by
    (who, session, state). Build one per search.
    """

    def __init__(self, bound: int = 10_000, group: Optional[frozenset[str]] = None):
        self.bound = bound
        self.group = group
        self.edges: dict = {}  # expanded state -> its successors
        self.weak: dict = {}  # (who, session, state) -> (pairs, cut)
        self.fired: dict = {}  # replay: (state, participant) -> steps, (state, step) -> successor

    def successors(self, state: Co2System) -> Optional[tuple[tuple[Co2System, StepLabel], ...]]:
        """(successor, label) of each enabled step, in `enabled_steps` order;
        None when the state lies beyond the bound."""
        out = self.edges.get(state)
        if out is None and len(self.edges) < self.bound:
            group = self.group
            out = self.edges[state] = tuple(apply_step(state, s) for s in enabled_steps(state)
                                            if group is None or s.actor in group)
        return out


def culpable(system: Co2System, session: str) -> frozenset[str]:
    """Participants from whom the session currently expects a move."""
    try:
        t = system.session(session)
    except KeyError:
        raise AnalysisError(f"unknown session {session!r}")
    return frozenset(m.actor for m in enabled_moves(t))


def process_ready_set(system: Co2System, who: str, session: str) -> frozenset[tuple[str, str]]:
    """Interactions `who` can immediately attempt on the session.

    Collects the (peer, sort) of every do prefix on this session that heads
    a top-level choice branch of who's process, regardless of whether the
    session currently permits it.
    """
    try:
        proc = system.process(who)
    except KeyError:
        return frozenset()
    pairs: set[tuple[str, str]] = set()
    for item in proc_items(proc):
        if isinstance(item, Sum):
            for prefix, _ in item.branches:
                if (
                    isinstance(prefix, PDo)
                    and prefix.session == session
                    and is_part_name(prefix.peer)
                ):
                    pairs.add((prefix.peer, prefix.sort))
    return frozenset(pairs)


def weak_process_ready_set(
    system: Co2System, who: str, session: str, graph: Optional[StateGraph] = None
) -> tuple[frozenset[tuple[str, str]], bool]:
    """Interactions `who` can offer after steps that leave the session alone.

    W(s) is the immediate ready set of s united with W(s') over every step
    s -> s' but `who`'s own actions on this session. The states not solved
    yet are gathered, then solved one strongly connected component at a
    time, successors first. Returns W(system) and a cut flag: whether some
    state on the way lay beyond the graph's bound.
    """
    graph = StateGraph() if graph is None else graph
    solved = graph.weak
    if (who, session, system) in solved:
        return solved[who, session, system]
    kept: dict[Co2System, Optional[list[Co2System]]] = {}  # None: beyond the bound
    todo = [system]
    while todo:
        state = todo.pop()
        if state in kept:
            continue
        edges = graph.successors(state)
        kept[state] = nexts = None if edges is None else [
            nxt for nxt, label in edges
            if not (label.actor == who and label.kind == "do" and label.session == session)
        ]
        todo.extend(n for n in nexts or () if (who, session, n) not in solved)
    local = {s: [n for n in nexts or () if n in kept] for s, nexts in kept.items()}
    for scc in _sccs(local):
        pairs: set[tuple[str, str]] = set()
        cut = False
        for state in scc:
            pairs |= process_ready_set(state, who, session)
            cut |= kept[state] is None
            for n in kept[state] or ():
                if n not in scc:
                    more, more_cut = solved[who, session, n]
                    pairs |= more
                    cut |= more_cut
        result = (frozenset(pairs), cut)
        for state in scc:
            solved[who, session, state] = result
    return solved[who, session, system]


def _sccs(graph: dict[N, list[N]]) -> list[set[N]]:
    """The strongly connected components of a graph given as successor
    lists, successors' components first: Tarjan's algorithm, its recursion
    a generator run on `descend`."""
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    stack: list[N] = []
    on_stack: set[N] = set()
    out: list[set[N]] = []

    def connect(v: N):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in graph[v]:
            if w not in index:
                yield connect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp: set[N] = set()
            while v not in comp:
                w = stack.pop()
                on_stack.discard(w)
                comp.add(w)
            out.append(comp)

    for v in graph:
        if v not in index:
            descend(connect(v))
    return out


@dataclass(frozen=True)
class ReadySetReport:
    session: str
    contract_ready_sets: frozenset[frozenset[tuple[str, str]]]
    process_ready_set: frozenset[tuple[str, str]]
    weak_process_ready_set: frozenset[tuple[str, str]]
    ready: Optional[bool]  # None = unknown (bound hit before a verdict)


def ready(
    system: Co2System, who: str, graph: Optional[StateGraph] = None
) -> tuple[Optional[bool], tuple[ReadySetReport, ...]]:
    """Is the participant ready in every session it is bound to?

    For each session holding a contract of `who`, some contract ready set
    must be covered by the weak process ready set. A finished contract has
    an empty family and demands nothing. The verdict is True, False, or
    None when the graph's bound cut the search before the sets could cover.
    """
    reports = []
    for sname, t in system.sessions:
        if who not in t.participants:
            continue
        family = contract_ready_sets(t.contract(who))
        wrdo, cut = weak_process_ready_set(system, who, sname, graph)
        if not family or any(x <= wrdo for x in family):
            verdict: Optional[bool] = True
        else:
            verdict = None if cut else False
        reports.append(ReadySetReport(
            session=sname, contract_ready_sets=family, weak_process_ready_set=wrdo,
            process_ready_set=process_ready_set(system, who, sname), ready=verdict))
    verdicts = {r.ready for r in reports}
    overall = False if False in verdicts else (None if None in verdicts else True)
    return overall, tuple(reports)


# --------------------------------------------------------------------------
# Honesty
# --------------------------------------------------------------------------

def is_initial_for(system: Co2System, who: str) -> bool:
    """No latent or stipulated (unfinished) contract of `who` anywhere."""
    for _, pool in system.pools:
        if any(k.promiser == who for k in pool):
            return False
    for _, t in system.sessions:
        if who in t.participants and not isinstance(head_normal(t.contract(who)), End):
            return False
    return True


@dataclass(frozen=True)
class HonestyVerdict:
    violation_found: bool
    states_explored: int
    unknown_states: int  # reached states whose readiness the bound left open
    witness: Optional[Trace] = None
    witness_reports: tuple[ReadySetReport, ...] = ()


def check_honesty(system: Co2System, who: str, state_bound: int = 10_000) -> HonestyVerdict:
    """Search this context for a reachable state where `who` is not ready.

    The input must contain no latent or stipulated contract of `who` yet.
    The search is breadth-first and stops at the first state where `who`
    is not ready; at most `state_bound` states are expanded, for the search
    and its readiness questions together, `who`'s `_group` alone moving. A
    violation comes with the trace that reaches it, replayable from the
    normalized input; absence of one is only conclusive when no state was
    left unknown.
    """
    root = normalize(system)
    if not is_initial_for(root, who):
        raise AnalysisError(f"system is not {who}-initial")
    graph = StateGraph(state_bound, _group(root, who))
    parent = {root: None}  # state -> (previous state, label); also the seen set
    queue = deque([root])
    explored = unknown = 0
    witness, witness_reports = None, ()
    while queue:
        state = queue.popleft()
        edges = graph.successors(state)
        if edges is None:  # reached, but beyond the bound
            unknown += 1
            continue
        explored += 1
        verdict, reports = ready(state, who, graph)
        if verdict is False:
            witness, witness_reports = _trace_to(state, parent), reports
            break
        if verdict is None:
            unknown += 1
        for nxt, label in edges:
            if nxt not in parent:
                parent[nxt] = (state, label)
                queue.append(nxt)
    return HonestyVerdict(violation_found=witness is not None, states_explored=explored,
                          unknown_states=unknown, witness=witness, witness_reports=witness_reports)


def _group(root: Co2System, who: str) -> frozenset[str]:
    """`who`'s class of identifiers under these links: a participant to the
    participant names its process and the definitions it calls mention, and
    to its free variables; a pool host to each latent's promiser, variable
    and peers; a session to its participants and their peers. Sorts and
    definition names link nothing. Outsiders' steps touch no member."""
    up: dict[str, str] = {}  # union-find: identifier -> its parent

    def find(x: str) -> str:
        while up.setdefault(x, x) != x:
            x = up[x]
        return x

    def link(a: str, names) -> None:
        for n in names:
            up[find(n)] = find(a)

    defs = dict(root.definitions)
    for name, p in root.processes:
        link(name, p.free_session_vars | p.free_participant_vars)
        called, bodies = set(), [p]
        while bodies:
            names = bodies.pop().names
            link(name, (n for n in names if is_part_name(n) and n not in defs))
            for d in names & defs.keys() - called:
                called.add(d)
                bodies.append(defs[d].body)
    for host, pool in root.pools:
        for k in pool:
            link(host, (k.promiser, k.session_var, *k.contract.mentioned_participants))
    for sname, t in root.sessions:
        for pname, c in t.contracts:
            link(sname, (pname, *c.mentioned_participants))
    top = find(who)
    return frozenset(n for n in up if find(n) == top)


def _trace_to(state: Co2System, parent: dict) -> Trace:
    """The trace from the search's root to `state`, read back through `parent`."""
    labels: list[StepLabel] = []
    digests: list[str] = []
    at = state
    while parent[at] is not None:
        digests.append(system_digest(at))
        at, label = parent[at]
        labels.append(label)
    return Trace(tuple(reversed(labels)), tuple(reversed(digests)), state)


def _replay_one(graph: StateGraph, state: Co2System, label: StepLabel,
                expected_digest: Optional[str], number: int) -> Co2System:
    """Fire the enabled step carrying this label, the trace's step `number`.

    Only the label's actor's steps of the label's kind are fired, each once
    per state. Distinct branches can produce identical labels (two internal
    steps, say); when a digest is recorded it picks the right one. When no
    enabled step carries the label, the error lists the labels of every
    enabled step.
    """
    fired = graph.fired
    if (state, label.actor) not in fired:
        fired[state, label.actor] = enabled_steps(state, label.actor)
    candidates = []
    for step in fired[state, label.actor]:
        if step.kind == label.kind:
            if (state, step) not in fired:
                fired[state, step] = apply_step(state, step)
            nxt, produced = fired[state, step]
            if produced == label:
                candidates.append(nxt)
    if not candidates:
        enabled = ", ".join(str(produced) for _, produced in graph.successors(state)) or "none"
        raise ReplayError(f"step {number}: no enabled step matches {label}; enabled: {enabled}")
    for nxt in candidates:
        if expected_digest is None or system_digest(nxt) == expected_digest:
            return nxt
    got = ", ".join(system_digest(nxt) for nxt in candidates)
    raise ReplayError(f"step {number}: state digest mismatch after {label}: "
                      f"expected {expected_digest}, candidate successors have {got}")


# --------------------------------------------------------------------------
# Trace-level property checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyReport:
    steps_replayed: int
    violations: tuple[str, ...]
    live_sessions: tuple[tuple[str, tuple[str, ...]], ...]  # session -> culpable
    terminated_sessions: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_trace_properties(trace_steps, digests, system: Co2System) -> PropertyReport:
    """Replay a trace and assert the session-accountability properties.

    At every intermediate state each unfinished session must name at least
    one culpable participant, and every contractual step must have been
    permitted by the session at that instant (the replay itself enforces
    this: an impossible step diverges). At the end, unfinished sessions
    are reported as progress violations together with their culpable sets.
    """
    state = normalize(system)
    violations: list[str] = []

    faults: dict = {}  # (session name, session value) -> its violations, less the place

    def assert_culpability(s: Co2System, at: str) -> None:
        for sname, t in s.sessions:
            if (sname, t) not in faults:
                found = faults[sname, t] = []
                if not is_terminated(t):
                    if not culpable(s, sname):
                        found.append(f"session {sname} is unfinished but nobody is culpable")
                    for frm, to, msg in orphan_messages(t):
                        found.append(f"orphan message {frm}->{to}:{msg} in {sname}")
            violations.extend(f"{at}: {v}" for v in faults[sname, t])

    assert_culpability(state, "initial state")
    graph = StateGraph(len(trace_steps) + 1)  # a replayed loop revisits its states
    for i, label in enumerate(trace_steps):
        state = _replay_one(graph, state, label, digests[i] if digests else None, i + 1)
        assert_culpability(state, f"step {i + 1}")

    live = []
    done = []
    for sname, t in state.sessions:
        if is_terminated(t):
            done.append(sname)
        else:
            who = tuple(sorted(culpable(state, sname)))
            live.append((sname, who))
            violations.append(f"terminal state: session {sname} did not complete; "
                              f"culpable: {', '.join(who) or 'nobody'}")
    return PropertyReport(
        steps_replayed=len(trace_steps),
        violations=tuple(violations),
        live_sessions=tuple(live),
        terminated_sessions=tuple(done),
    )
