"""Culpability, readiness and bounded honesty checking.

A participant is culpable at a session when the session's contract state
enables a move of theirs: they owe the next interaction. A participant is
ready when, for each of its stipulated contracts, the process can
(eventually, moving only through steps that do not touch that session)
offer every interaction of one of the contract's ready sets. Honesty asks
for readiness in every reachable state; that is undecidable in general, so
`check_honesty` explores one context up to a state bound and reports either
a concrete counterexample trace or "no violation up to the bound".
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .contracts import contract_ready_sets, enabled_moves, is_part_name, is_terminated
from .contracts import End, head_normal, orphan_messages
from .runtime import (
    Co2System,
    PDo,
    Step,
    StepLabel,
    Sum,
    Trace,
    apply_step,
    enabled_steps,
    normalize,
    proc_items,
    system_digest,
)

# the explorations below revisit the same immutable states constantly
# (the readiness search runs inside the honesty search), so memoise the
# pure per-state step computations
_steps = lru_cache(maxsize=100_000)(enabled_steps)
_after = lru_cache(maxsize=100_000)(apply_step)


class AnalysisError(Exception):
    pass


class ReplayError(Exception):
    """A trace does not replay against the system it claims to come from."""


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


def _step_session(system: Co2System, step: Step) -> Optional[str]:
    if step.kind != "do":
        return None
    item = proc_items(system.process(step.actor))[step.item]
    assert isinstance(item, Sum) and step.branch is not None
    prefix = item.branches[step.branch][0]
    assert isinstance(prefix, PDo)
    return prefix.session


def weak_process_ready_set(
    system: Co2System, who: str, session: str, bound: int = 2_000
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
            if step.actor == who and step.kind == "do":
                if _step_session(state, step) == session:
                    continue
            nxt, _ = _after(state, step)
            if nxt in seen:
                continue
            if len(seen) >= bound:
                truncated = True
                continue
            seen.add(nxt)
            queue.append(nxt)
    return frozenset(pairs), truncated


@dataclass(frozen=True)
class ReadySetReport:
    participant: str
    session: str
    contract_ready_sets: frozenset[frozenset[tuple[str, str]]]
    process_ready_set: frozenset[tuple[str, str]]
    weak_process_ready_set: frozenset[tuple[str, str]]
    exhausted: bool
    ready: Optional[bool]  # None = unknown (bound hit before a verdict)


def ready(
    system: Co2System, who: str, bound: int = 2_000
) -> tuple[Optional[bool], tuple[ReadySetReport, ...]]:
    """Is the participant ready in every session it is bound to?

    For each session holding a contract of `who`, some contract ready set
    must be covered by the weak process ready set. A finished contract has
    an empty family and demands nothing. The verdict is True, False, or
    None when the exploration bound was hit before the sets could cover.
    """
    reports = []
    verdicts: list[Optional[bool]] = []
    for sname, t in system.sessions:
        if who not in t.participants:
            continue
        family = contract_ready_sets(t.contract(who))
        rdo = process_ready_set(system, who, sname)
        wrdo, truncated = weak_process_ready_set(system, who, sname, bound)
        if not family:
            verdict: Optional[bool] = True
        elif any(x <= wrdo for x in family):
            verdict = True
        elif truncated:
            verdict = None
        else:
            verdict = False
        verdicts.append(verdict)
        reports.append(
            ReadySetReport(
                participant=who,
                session=sname,
                contract_ready_sets=family,
                process_ready_set=rdo,
                weak_process_ready_set=wrdo,
                exhausted=truncated,
                ready=verdict,
            )
        )
    if any(v is False for v in verdicts):
        overall: Optional[bool] = False
    elif any(v is None for v in verdicts):
        overall = None
    else:
        overall = True
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
    participant: str
    violation_found: bool
    states_explored: int
    state_bound: int
    depth_bound: int
    unknown_states: int
    context: str = ""
    witness: Optional[Trace] = None
    witness_reports: tuple[ReadySetReport, ...] = ()


def check_honesty(
    system: Co2System,
    who: str,
    state_bound: int = 10_000,
    depth_bound: int = 2_000,
) -> HonestyVerdict:
    """Search this context for a reachable state where `who` is not ready.

    The input must contain no latent or stipulated contract of `who` yet.
    A violation comes with the trace that reaches it, replayable from the
    normalized input; absence of one is only conclusive up to the bounds.
    """
    root = normalize(system)
    if not is_initial_for(root, who):
        raise AnalysisError(f"system is not {who}-initial")
    context = f"context {system_digest(root)} of " + ", ".join(
        name for name, _ in root.processes
    )
    seen = {root}
    queue = deque([(root, (), ())])  # state, labels from root, digests
    explored = 0
    unknown = 0
    while queue:
        state, path, digests = queue.popleft()
        explored += 1
        verdict, reports = ready(state, who, depth_bound)
        if verdict is False:
            witness = Trace(path, digests, state)
            return HonestyVerdict(
                participant=who,
                violation_found=True,
                states_explored=explored,
                state_bound=state_bound,
                depth_bound=depth_bound,
                unknown_states=unknown,
                context=context,
                witness=witness,
                witness_reports=reports,
            )
        if verdict is None:
            unknown += 1
        for step in _steps(state):
            nxt, label = _after(state, step)
            if nxt in seen or len(seen) >= state_bound:
                continue
            seen.add(nxt)
            queue.append((nxt, path + (label,), digests + (system_digest(nxt),)))
    return HonestyVerdict(
        participant=who,
        violation_found=False,
        states_explored=explored,
        state_bound=state_bound,
        depth_bound=depth_bound,
        unknown_states=unknown,
        context=context,
    )


def _replay_one(
    state: Co2System, label: StepLabel, expected_digest: Optional[str], number: int
) -> Co2System:
    """Fire the enabled step carrying this label, the trace's step `number`.

    Distinct branches can produce identical labels (two internal steps,
    say); when a digest is recorded it picks the right one.
    """
    candidates = []
    for step in _steps(state):
        nxt, produced = _after(state, step)
        if produced == label:
            candidates.append(nxt)
    if not candidates:
        raise ReplayError(f"step {number}: no enabled step matches {label}")
    for nxt in candidates:
        if expected_digest is None or system_digest(nxt) == expected_digest:
            return nxt
    got = ", ".join(system_digest(nxt) for nxt in candidates)
    raise ReplayError(f"step {number}: state digest mismatch after {label}: "
                      f"expected {expected_digest}, candidate successors have {got}")


def exculpation_within(
    system: Co2System, who: str, session: str, depth_bound: int = 100
) -> bool:
    """Can the culpable participant discharge itself by its own moves?

    Looks for a sequence of internal/advertisement steps by `who` alone,
    followed by one contractual action of `who` on the session, after which
    `who` is no longer culpable there (or the session finished).
    """
    seen = {system}
    queue = deque([(system, 0)])
    while queue:
        state, depth = queue.popleft()
        for step in _steps(state):
            if step.actor != who:
                continue
            if step.kind == "do":
                if _step_session(state, step) != session:
                    continue
                nxt, _ = _after(state, step)
                t = nxt.session(session)
                if who not in culpable(nxt, session) or is_terminated(t):
                    return True
            elif step.kind in ("tau", "tell", "call") and depth + 1 < depth_bound:
                nxt, _ = _after(state, step)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, depth + 1))
    return False


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

    def assert_culpability(s: Co2System, at: str) -> None:
        for sname, t in s.sessions:
            if not is_terminated(t):
                if not culpable(s, sname):
                    violations.append(
                        f"{at}: session {sname} is unfinished but nobody is culpable"
                    )
                for frm, to, msg in orphan_messages(t):
                    violations.append(f"{at}: orphan message {frm}->{to}:{msg} in {sname}")

    assert_culpability(state, "initial state")
    for i, label in enumerate(trace_steps):
        state = _replay_one(state, label, digests[i] if digests else None, i + 1)
        assert_culpability(state, f"step {i + 1}")

    live = []
    done = []
    for sname, t in state.sessions:
        if is_terminated(t):
            done.append(sname)
        else:
            live.append((sname, tuple(sorted(culpable(state, sname)))))
            violations.append(
                f"terminal state: session {sname} did not complete; "
                f"culpable: {', '.join(sorted(culpable(state, sname))) or 'nobody'}"
            )
    return PropertyReport(
        steps_replayed=len(trace_steps),
        violations=tuple(violations),
        live_sessions=tuple(live),
        terminated_sessions=tuple(done),
    )
