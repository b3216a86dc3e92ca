"""Choreography synthesis: assign a global type to a system of contracts.

The synthesiser executes the contracts step by step with coupled send/receive
steps (one buffered message at a time), recording the interaction structure:

  * a configuration where every contract has finished becomes end;
  * a configuration seen earlier on the same path closes a recursion;
  * participants that no longer talk to each other are split into
    independent components joined in parallel;
  * a participant whose internal choice is fully matched by the head of the
    corresponding receiver decides a choice in the global type.

Each configuration whose live contracts hold no recursion variable is
derived once per call: each step shrinks such a contract, so its derivation
meets no binder of the path and is the same on every path that reaches it,
and a choice whose branches rejoin reuses the shared tail. The
`max_configs` bound still counts every configuration the unmemoized descent
visits: a reuse is charged what the first derivation was.

A configuration with an unmatched send branch, or with waiting participants
and nobody able to move, has no choreography. Whatever the descent produces
must finally project back onto the original contracts (extra, never-used
receive branches are tolerated — the receiver just offers more than the
session exercises); this gate catches any over-approximation of the descent.
`can_start` (the first step on its own) and `answered` (can each first
action fire?) let the agreement search skip doomed systems unbuilt.
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
    ProjectionError,
)
from .contracts import (
    Contract,
    ContractSystem,
    ContractError,
    End,
    RecvChoice,
    SendChoice,
    descend,
    head_normal,
    post_order,
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
        super().__init__(SynthResult.failure(reason, detail, config))


def _components(config: Config) -> list[Config]:
    """Split the live participants into the groups that talk to each other,
    in the order of each group's first member, members in configuration order."""
    live = [(n, c) for n, c in config if not isinstance(c, End)]
    group = {n: [n] for n, _ in live}  # a participant -> its group's members
    for n, c in live:
        for peer in c.mentioned_participants:
            if group.get(peer, group[n]) is not group[n]:  # a live peer in another group
                group[n] += group[peer]
                group.update(dict.fromkeys(group[peer], group[n]))
    comps: dict[str, list] = {}  # one member of each group -> the group's live pairs
    for p in live:
        comps.setdefault(group[p[0]][0], []).append(p)
    return [tuple(comp) for comp in comps.values()]


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
    a choreography; `answered` asks more of each head.
    """
    return bool(_senders(heads)[0]) or all(isinstance(c, End) for c in heads.values())


def peer_actions(c: Contract) -> tuple[frozenset[str], frozenset[str]]:
    """The peers c receives from and sends to, at any depth (unfolding adds none)."""
    nodes = post_order(c)
    return (frozenset(n.source for n in nodes if isinstance(n, RecvChoice)),
            frozenset(b[0] for n in nodes if isinstance(n, SendChoice) for b in n.branches))


def answered(name: str, head: Contract, actions: Mapping[str, tuple]) -> bool:
    """Can the peers (`actions`: participant -> `peer_actions`) ever answer
    `name`'s head: does each send branch's target receive from `name`
    somewhere, does a receive's source send to it somewhere? If not, the head
    never fires, since `synthesize` moves a participant only through its head,
    a send once each branch meets a receive from the sender, a receive once its
    source sends to it. No interaction involves `name`, so the result is STUCK,
    MIXED_RACE or NOT_PROJECTABLE (projecting onto `name` gives no live contract)."""
    if isinstance(head, SendChoice):
        return all(to in actions and name in actions[to][0] for to, _, _ in head.branches)
    if isinstance(head, RecvChoice):
        return head.source in actions and name in actions[head.source][1]
    return True


def synthesize(system: ContractSystem, max_configs: int = 10_000) -> SynthResult:
    """Derive a canonical global type for the system, or explain why not.

    Each recursion-free configuration is derived once; `max_configs` still
    counts every configuration the unmemoized descent visits, so a spent
    bound fails (UNBOUNDED) where and as that descent fails."""
    for frm, to, msgs in system.queues:
        if msgs:
            raise ContractError(f"synthesis needs empty queues; {frm}->{to} holds {msgs}")
    budget = [max_configs]
    fresh = [0]
    # a recursion-free configuration -> its global type and the configurations
    # its derivation charged to the budget
    derived: dict[Config, tuple[GlobalType, int]] = {}

    def norm(config: Config) -> Config:
        return tuple((n, head_normal(c)) for n, c in config)

    def go(config: Config, env: dict[Config, str], used: set[str]):
        # a generator for `descend`: `yield` is a recursive call
        live = [(n, c) for n, c in config if not isinstance(c, End)]
        if not live:
            return GEND
        key = tuple(live)
        if key in env:
            used.add(env[key])
            return GRecVar(env[key])
        # each step shrinks a recursion-free contract, so such a configuration
        # meets no binder of the path: its derivation is the same on every path
        memo = not any(c.has_recursion for _, c in key)
        hit = derived.get(key) if memo else None
        if hit is not None and hit[1] <= budget[0]:  # else derive it: the bound fails as before
            budget[0] -= hit[1]
            return hit[0]
        before = budget[0]
        budget[0] -= 1
        if budget[0] < 0:
            raise _Fail(UNBOUNDED, f"more than {max_configs} configurations", config)
        comps = _components(config)
        if len(comps) > 1:
            parts = []
            for comp in comps:
                parts.append((yield go(comp, {}, used)))
            g = gpar(parts)
        else:
            g = yield interact(key, env, used)
        if memo:
            derived[key] = (g, before - budget[0])
        return g

    def interact(key: Config, env: dict[Config, str], used: set[str]):
        var = f"x{fresh[0]}"
        fresh[0] += 1
        env[key] = var  # the path's binders: added here, removed on the way back
        inner_used: set[str] = set()
        full, partial = _senders(dict(key))
        if full:
            sender, matched = full[0]
            subs = []
            for to, sort, s_cont, r_cont in matched:
                nxt = norm(
                    tuple(
                        (n, s_cont if n == sender else r_cont if n == to else c)
                        for n, c in key
                    )
                )
                subs.append(GMsg(sender, to, sort, (yield go(nxt, env, inner_used))))
            g = subs[0] if len(subs) == 1 else gchoice(subs)
        elif partial:
            name, unmatched = partial[0]
            to, sort = unmatched[0]
            raise _Fail(
                MIXED_RACE,
                f"branch {name}->{to}:{sort} races ahead of any ready receiver",
                key,
            )
        else:
            waiting = ", ".join(n for n, c in key if not isinstance(c, End))
            raise _Fail(STUCK, f"no interaction can fire; waiting: {waiting}", key)
        del env[key]
        if var in inner_used:
            inner_used.discard(var)
            g = GRec(var, g)
        used |= inner_used
        return g

    try:
        raw = descend(go(norm(system.contracts), {}, set()))
    except _Fail as f:
        return f.args[0]

    # a synthesised type has a decider at each choice and disjoint parallel
    # components, so of well_formed's checks only projection can fail
    g = canonicalize(raw)
    views, errors = [], []
    for name, original in system.contracts:
        try:
            views.append((name, project(g, name), original))
        except ProjectionError as exc:
            errors.append(str(exc))
    if errors:
        return SynthResult.failure(NOT_PROJECTABLE, "; ".join(errors), None)
    for name, view, original in views:
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
    pairs = [(view, actual)]  # every pair reached must agree, in whatever order
    while pairs:
        a, b = pairs.pop()
        a = head_normal(a)
        b = head_normal(b)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        if isinstance(a, SendChoice) and isinstance(b, SendChoice):
            if [(t, s) for t, s, _ in a.branches] != [(t, s) for t, s, _ in b.branches]:
                return False
            pairs += [(ca, cb) for (_, _, ca), (_, _, cb) in zip(a.branches, b.branches)]
        elif isinstance(a, RecvChoice) and isinstance(b, RecvChoice):
            offered = dict(b.branches)
            if a.source != b.source or any(sort not in offered for sort, _ in a.branches):
                return False
            pairs += [(cont, offered[sort]) for sort, cont in a.branches]
        elif not (isinstance(a, End) and isinstance(b, End)):
            return False
    return True
