"""Choreography synthesis: assign a global type to a system of contracts.

The synthesiser executes the contracts step by step with coupled send/receive
steps (one buffered message at a time), recording the interaction structure:

  * a configuration where every contract has finished becomes end;
  * a configuration seen earlier on the same path closes a recursion;
  * participants that no longer talk to each other are split into
    independent components joined in parallel;
  * a participant whose internal choice is fully matched by the head of the
    corresponding receiver decides a choice in the global type.

A configuration with an unmatched send branch, or with waiting participants
and nobody able to move, has no choreography. Whatever the descent produces
must finally project back onto the original contracts (extra, never-used
receive branches are tolerated — the receiver just offers more than the
session exercises); this gate catches any over-approximation of the descent.
`can_start` is the test of the first step on its own: the agreement search
uses it to skip systems that would fail there, without building them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .choreo import (
    GEND,
    GlobalType,
    GMsg,
    GRec,
    GRecVar,
    canonicalize,
    gchoice,
    gpar,
    project,
    well_formed,
    ProjectionError,
)
from .contracts import (
    Contract,
    ContractSystem,
    ContractError,
    End,
    RecvChoice,
    SendChoice,
    head_normal,
)

STUCK = "stuck"
MIXED_RACE = "mixed-race"
NOT_PROJECTABLE = "not-projectable"
UNBOUNDED = "unbounded"

Config = tuple[tuple[str, Contract], ...]
# a matched send branch: (receiver, sort, sender's continuation, receiver's)
Matched = tuple[str, str, Contract, Contract]


@dataclass(frozen=True)
class SynthResult:
    ok: bool
    global_type: Optional[GlobalType]
    reason: Optional[str]
    detail: str
    config: Optional[Config]

    @staticmethod
    def success(g: GlobalType) -> "SynthResult":
        return SynthResult(True, g, None, "", None)

    @staticmethod
    def failure(reason: str, detail: str, config: Optional[Config] = None) -> "SynthResult":
        return SynthResult(False, None, reason, detail, config)


class _Fail(Exception):
    def __init__(self, reason: str, detail: str, config: Optional[Config]):
        super().__init__(detail)
        self.reason = reason
        self.detail = detail
        self.config = config


def _components(config: Config) -> list[Config]:
    """Split the live participants along the talks-to graph."""
    live = [(n, c) for n, c in config if not isinstance(c, End)]
    names = [n for n, _ in live]
    present = set(names)
    adj: dict[str, set[str]] = {n: set() for n in names}
    for n, c in live:
        for peer in c.mentioned_participants:
            if peer in present and peer != n:
                adj[n].add(peer)
                adj[peer].add(n)
    seen: set[str] = set()
    comps: list[Config] = []
    for start in names:
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            n = stack.pop()
            if n in comp:
                continue
            comp.add(n)
            stack.extend(adj[n] - comp)
        seen |= comp
        comps.append(tuple((n, c) for n, c in live if n in comp))
    return comps


def _matched_branches(
    heads: Mapping[str, Contract], sender: str, head: SendChoice
) -> tuple[list[Matched], list[tuple[str, str]]]:
    """Split a send choice into branches a receiver is ready for and the rest.

    A branch (to, sort, cont) is matched when `to` currently sits at an
    external choice from `sender` offering `sort`; the matched tuple carries
    both continuations.
    """
    matched: list[Matched] = []
    unmatched: list[tuple[str, str]] = []
    for to, sort, cont in head.branches:
        peer = heads.get(to)
        ok = False
        if peer is not None and isinstance(peer, RecvChoice) and peer.source == sender:
            for psort, pcont in peer.branches:
                if psort == sort:
                    matched.append((to, sort, cont, pcont))
                    ok = True
                    break
        if not ok:
            unmatched.append((to, sort))
    return matched, unmatched


def _senders(
    heads: Mapping[str, Contract],
) -> tuple[list[tuple[str, list[Matched]]], list[tuple[str, list[tuple[str, str]]]]]:
    """The senders whose every branch is matched, with those branches, and
    the senders with some branches matched, with the unmatched ones."""
    full: list[tuple[str, list[Matched]]] = []
    partial: list[tuple[str, list[tuple[str, str]]]] = []
    for name, c in heads.items():
        if not isinstance(c, SendChoice):
            continue
        matched, unmatched = _matched_branches(heads, name, c)
        if matched and not unmatched:
            full.append((name, matched))
        elif matched:
            partial.append((name, unmatched))
    return full, partial


def can_start(heads: Mapping[str, Contract]) -> bool:
    """Can `synthesize` get past its first step from these head-normal forms?

    When some participant is live and no sender has every branch matched,
    the first step of every component fails, so the synthesis does: callers
    can skip building and synthesising such a system. True does not promise
    a choreography.
    """
    return bool(_senders(heads)[0]) or all(isinstance(c, End) for c in heads.values())


def synthesize(system: ContractSystem, max_configs: int = 10_000) -> SynthResult:
    """Derive a canonical global type for the system, or explain why not."""
    for frm, to, msgs in system.queues:
        if msgs:
            raise ContractError(f"synthesis needs empty queues; {frm}->{to} holds {msgs}")
    budget = [max_configs]
    fresh = [0]

    def norm(config: Config) -> Config:
        return tuple((n, head_normal(c)) for n, c in config)

    def go(config: Config, env: dict[Config, str], used: set[str]) -> GlobalType:
        live = [(n, c) for n, c in config if not isinstance(c, End)]
        if not live:
            return GEND
        key = tuple(live)
        if key in env:
            used.add(env[key])
            return GRecVar(env[key])
        budget[0] -= 1
        if budget[0] < 0:
            raise _Fail(UNBOUNDED, f"more than {max_configs} configurations", config)
        comps = _components(config)
        if len(comps) > 1:
            return gpar([go(comp, {}, used) for comp in comps])

        var = f"x{fresh[0]}"
        fresh[0] += 1
        env2 = dict(env)
        env2[key] = var
        inner_used: set[str] = set()
        g = _step(key, env2, inner_used)
        if var in inner_used:
            inner_used.discard(var)
            g = GRec(var, g)
        used |= inner_used
        return g

    def _step(config: Config, env: dict[Config, str], used: set[str]) -> GlobalType:
        full, partial = _senders(dict(config))
        if full:
            sender, matched = full[0]
            subs = []
            for to, sort, s_cont, r_cont in matched:
                nxt = norm(
                    tuple(
                        (n, s_cont if n == sender else r_cont if n == to else c)
                        for n, c in config
                    )
                )
                subs.append(GMsg(sender, to, sort, go(nxt, env, used)))
            return subs[0] if len(subs) == 1 else gchoice(subs)
        if partial:
            name, unmatched = partial[0]
            to, sort = unmatched[0]
            return _raise(
                MIXED_RACE,
                f"branch {name}->{to}:{sort} races ahead of any ready receiver",
                config,
            )
        waiting = ", ".join(n for n, c in config if not isinstance(c, End))
        return _raise(STUCK, f"no interaction can fire; waiting: {waiting}", config)

    def _raise(reason: str, detail: str, config: Config) -> GlobalType:
        raise _Fail(reason, detail, config)

    try:
        raw = go(norm(system.contracts), {}, set())
    except _Fail as f:
        return SynthResult.failure(f.reason, f.detail, f.config)

    g = canonicalize(raw)
    ok, diags = well_formed(g)
    if not ok:
        return SynthResult.failure(NOT_PROJECTABLE, "; ".join(diags), None)
    for name, original in system.contracts:
        try:
            view = project(g, name)
        except ProjectionError as exc:
            return SynthResult.failure(NOT_PROJECTABLE, str(exc), None)
        if not projection_matches(view, original):
            return SynthResult.failure(
                NOT_PROJECTABLE,
                f"projection onto {name} does not match its contract",
                None,
            )
    return SynthResult.success(g)


def projection_matches(view: Contract, actual: Contract) -> bool:
    """Does the projected contract agree with the stipulated one?

    Equality is taken up to unfolding and canonical branch order, and the
    stipulated contract may offer extra receive branches the choreography
    never exercises. Send branches must agree exactly: an extra send could
    be chosen at runtime and derail the session.
    """
    if view is actual:  # interning makes a matching projection the same node
        return True
    seen: set[tuple[Contract, Contract]] = set()

    def walk(a: Contract, b: Contract) -> bool:
        a = head_normal(a)
        b = head_normal(b)
        if (a, b) in seen:
            return True
        seen.add((a, b))
        if isinstance(a, End) and isinstance(b, End):
            return True
        if isinstance(a, SendChoice) and isinstance(b, SendChoice):
            if [(t, s) for t, s, _ in a.branches] != [(t, s) for t, s, _ in b.branches]:
                return False
            return all(
                walk(ca, cb)
                for (_, _, ca), (_, _, cb) in zip(a.branches, b.branches)
            )
        if isinstance(a, RecvChoice) and isinstance(b, RecvChoice):
            if a.source != b.source:
                return False
            offered = dict(b.branches)
            for sort, cont in a.branches:
                if sort not in offered or not walk(cont, offered[sort]):
                    return False
            return True
        return False

    return walk(view, actual)
