"""Global types: the choreography view of a multiparty session.

A global type records every interaction of a session in one term. The key
operations are projection (extracting one participant's contract) and
well-formedness (every parallel composition splits the participants, every
choice has a single decider, and every participant is projectable).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .contracts import (
    Contract,
    Interned,
    Rec,
    RecVar,
    RecvChoice,
    SendChoice,
    END,
    frozen_union,
    recv,
    recv_choice,
    send,
    send_choice,
)


class ProjectionError(Exception):
    """The global type has no local view for the requested participant."""


class _Global(Interned):
    """Global-type nodes are hash-consed like contracts (see `contracts`);
    each caches the set of its `participants`."""

    __slots__ = ("participants",)

    def _derive(self) -> None:
        object.__setattr__(self, "participants", frozenset())


@dataclass(frozen=True, eq=False, init=False, repr=False)
class GEnd(_Global):
    __slots__ = ()


@dataclass(frozen=True, eq=False, init=False, repr=False)
class GRecVar(_Global):
    __slots__ = ("var",)
    var: str


@dataclass(frozen=True, eq=False, init=False, repr=False)
class GRec(_Global):
    __slots__ = ("var", "body")
    var: str
    body: "GlobalType"

    def _derive(self) -> None:
        object.__setattr__(self, "participants", self.body.participants)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class GMsg(_Global):
    __slots__ = ("src", "dst", "sort", "cont")
    src: str
    dst: str
    sort: str
    cont: "GlobalType"

    def _derive(self) -> None:
        parts = frozen_union(self.cont.participants, frozenset([self.src, self.dst]))
        object.__setattr__(self, "participants", parts)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class GChoice(_Global):
    __slots__ = ("branches",)
    branches: tuple["GlobalType", ...]

    def _derive(self) -> None:
        _derive_branches(self)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class GPar(_Global):
    __slots__ = ("branches",)
    branches: tuple["GlobalType", ...]

    def _derive(self) -> None:
        _derive_branches(self)


def _derive_branches(node: GChoice | GPar) -> None:
    parts: frozenset[str] = frozenset()
    for b in node.branches:
        parts = frozen_union(parts, b.participants)
    object.__setattr__(node, "participants", parts)


GlobalType = Union[GEnd, GRecVar, GRec, GMsg, GChoice, GPar]

GEND = GEnd()


def gmsg(src: str, dst: str, sort: str, cont: GlobalType = GEND) -> GMsg:
    if src == dst:
        raise ValueError(f"self-interaction {src}->{dst}")
    return GMsg(src, dst, sort, cont)


def gchoice(branches: Iterable[GlobalType]) -> GlobalType:
    flat: list[GlobalType] = []
    for b in branches:
        if isinstance(b, GChoice):
            flat.extend(b.branches)
        else:
            flat.append(b)
    if not flat:
        raise ValueError("empty choice")
    if len(flat) == 1:
        return flat[0]
    return GChoice(tuple(flat))


def gpar(branches: Iterable[GlobalType]) -> GlobalType:
    flat: list[GlobalType] = []
    for b in branches:
        if isinstance(b, GPar):
            flat.extend(b.branches)
        elif not isinstance(b, GEnd):
            flat.append(b)
    if not flat:
        return GEND
    if len(flat) == 1:
        return flat[0]
    return GPar(tuple(flat))


# --------------------------------------------------------------------------
# Structural predicates
# --------------------------------------------------------------------------

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


# --------------------------------------------------------------------------
# Choice deciders
# --------------------------------------------------------------------------

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


# --------------------------------------------------------------------------
# Projection
# --------------------------------------------------------------------------

def project(g: GlobalType, who: str) -> Contract:
    """Extract who's contract from a global type.

    Choices are projected as the deciding participant's internal choice;
    every other participant must either be told apart by what it receives
    (external-choice merge from one peer with distinct sorts) or behave
    identically in all branches.
    """
    if isinstance(g, GEnd):
        return END
    if isinstance(g, GRecVar):
        return RecVar(g.var)
    if isinstance(g, GRec):
        if who not in g.body.participants:
            return END
        body = project(g.body, who)
        if isinstance(body, RecVar) and body.var == g.var:
            return END
        if g.var not in body.free_rec_vars:
            return body
        return Rec(g.var, body)
    if isinstance(g, GMsg):
        cont = project(g.cont, who)
        if g.src == who:
            return send(g.dst, g.sort, cont)
        if g.dst == who:
            return recv(g.src, g.sort, cont)
        return cont
    if isinstance(g, GPar):
        sides = [b for b in g.branches if who in b.participants]
        if not sides:
            return END
        if len(sides) > 1:
            raise ProjectionError(f"{who} appears in more than one parallel branch")
        return project(sides[0], who)
    if isinstance(g, GChoice):
        decider = choice_decider(g)
        if decider is None:
            raise ProjectionError("choice without a unique decider")
        projs = [project(b, who) for b in g.branches]
        if who == decider:
            return _merge_internal(projs, who)
        return _merge_external(projs, who)
    raise ProjectionError(f"cannot project {type(g).__name__}")


def _merge_internal(projs: list[Contract], who: str) -> Contract:
    branches: dict[tuple[str, str], Contract] = {}
    for p in projs:
        if not isinstance(p, SendChoice):
            raise ProjectionError(f"not projectable for {who}: decider does not send first")
        for to, sort, cont in p.branches:
            prev = branches.get((to, sort))
            if prev is not None and prev != cont:
                raise ProjectionError(
                    f"not projectable for {who}: branch {to}!{sort} is ambiguous"
                )
            branches[(to, sort)] = cont
    return send_choice([(to, sort, cont) for (to, sort), cont in branches.items()])


def _merge_external(projs: list[Contract], who: str) -> Contract:
    first = projs[0]
    if all(p == first for p in projs):
        return first
    if all(isinstance(p, RecvChoice) for p in projs):
        sources = {p.source for p in projs}  # type: ignore[union-attr]
        if len(sources) == 1:
            source = sources.pop()
            branches: dict[str, Contract] = {}
            for p in projs:
                for sort, cont in p.branches:  # type: ignore[union-attr]
                    prev = branches.get(sort)
                    if prev is not None and prev != cont:
                        raise ProjectionError(
                            f"not projectable for {who}: sort {sort} is ambiguous"
                        )
                    branches[sort] = cont
            return recv_choice(source, list(branches.items()))
    raise ProjectionError(
        f"not projectable for {who}: branches differ and cannot be merged"
    )


# --------------------------------------------------------------------------
# Well-formedness
# --------------------------------------------------------------------------

def well_formed(g: GlobalType) -> tuple[bool, tuple[str, ...]]:
    """Check the choreography disciplines; returns (verdict, diagnostics)."""
    diags: list[str] = []

    def walk(node: GlobalType) -> None:
        if isinstance(node, GMsg):
            if node.src == node.dst:
                diags.append(f"self-interaction {node.src}->{node.dst}:{node.sort}")
            walk(node.cont)
        elif isinstance(node, GPar):
            seen: set[str] = set()
            for b in node.branches:
                ps = b.participants
                overlap = seen & ps
                if overlap:
                    diags.append(
                        f"parallel branches share participants {sorted(overlap)}"
                    )
                seen |= ps
                walk(b)
        elif isinstance(node, GChoice):
            if choice_decider(node) is None:
                diags.append("choice without a unique deciding participant")
            for b in node.branches:
                walk(b)
        elif isinstance(node, GRec):
            walk(node.body)

    walk(g)
    for who in sorted(g.participants):
        try:
            project(g, who)
        except ProjectionError as exc:
            diags.append(str(exc))
    return (not diags, tuple(diags))


# --------------------------------------------------------------------------
# Canonical form
# --------------------------------------------------------------------------

def _struct_key(g: GlobalType, env: dict[str, int]) -> tuple:
    # Binder-name-free structural key, so branch sorting is stable under
    # the alpha-renaming pass.
    if isinstance(g, GEnd):
        return (0,)
    if isinstance(g, GRecVar):
        return (1, env.get(g.var, -1))
    if isinstance(g, GMsg):
        return (2, g.src, g.dst, g.sort, _struct_key(g.cont, env))
    if isinstance(g, GRec):
        inner = dict(env)
        inner[g.var] = len(env)
        return (3, _struct_key(g.body, inner))
    if isinstance(g, GChoice):
        return (4, tuple(sorted(_struct_key(b, env) for b in g.branches)))
    return (5, tuple(sorted(_struct_key(b, env) for b in g.branches)))


def canonicalize(g: GlobalType) -> GlobalType:
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
