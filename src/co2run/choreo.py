"""Global types: the choreography view of a multiparty session.

A global type records every interaction of a session in one term. The key
operations are projection (extracting one participant's contract) and
well-formedness (every parallel composition splits the participants, every
choice has a single decider, and every participant is projectable).

Global-type nodes are hash-consed like contracts (`contracts.Interned`) and
carry facts computed once from their children's: `participants`,
`has_recursion` (a recursion variable occurs: the session can loop),
`has_end` (the end term occurs: some path terminates), the private `_first`
(see `_Global`) and, on a choice, its `decider`.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Union

from .contracts import (
    Contract,
    Interned,
    Rec,
    RecVar,
    RecvChoice,
    SendChoice,
    END,
    descend,
    each,
    fold,
    frozen_union,
    recv,
    recv_choice,
    send,
    send_choice,
)


class ProjectionError(Exception):
    """The global type has no local view for the requested participant."""


class _Global(Interned):
    """`_first` is the sender and (peer, sort) selections of the first
    interaction layer, recursion binders skipped; None when there is no
    immediate interaction (end, a bare recursion variable) or the layer is
    ambiguous (a parallel term, or branches led by different senders)."""

    __slots__ = ("participants", "has_recursion", "has_end", "_first")

    def _facts(self, participants, has_recursion, has_end, first=None) -> None:
        object.__setattr__(self, "participants", participants)
        object.__setattr__(self, "has_recursion", has_recursion)
        object.__setattr__(self, "has_end", has_end)
        object.__setattr__(self, "_first", first)


class GEnd(_Global):
    __slots__ = ()

    def _derive(self) -> None:
        self._facts(frozenset(), False, True)


class GRecVar(_Global):
    __slots__ = ("var",)
    var: str

    def _derive(self) -> None:
        self._facts(frozenset(), True, False)


class GRec(_Global):
    __slots__ = ("var", "body")
    var: str
    body: "GlobalType"

    def _derive(self) -> None:
        b = self.body
        self._facts(b.participants, b.has_recursion, b.has_end, b._first)


class GMsg(_Global):
    __slots__ = ("src", "dst", "sort", "cont")
    src: str
    dst: str
    sort: str
    cont: "GlobalType"

    def _derive(self) -> None:
        c = self.cont
        parts = frozen_union(c.participants, frozenset([self.src, self.dst]))
        first = (self.src, frozenset([(self.dst, self.sort)]))
        self._facts(parts, c.has_recursion, c.has_end, first)


class GChoice(_Global):
    """`decider` is the unique participant whose sends separate the
    branches: the one sender of every branch's first layer, when no two
    branches start with the same selection; None when there is none."""

    __slots__ = ("branches", "decider")
    branches: tuple["GlobalType", ...]

    def _derive(self) -> None:
        firsts = [b._first for b in self.branches]
        first = decider = None
        if None not in firsts and len({f[0] for f in firsts}) == 1:
            selections = frozenset().union(*(f[1] for f in firsts))
            first = (firsts[0][0], selections)
            if len(selections) == sum(len(f[1]) for f in firsts):
                decider = first[0]
        _derive_branches(self, first)
        object.__setattr__(self, "decider", decider)


class GPar(_Global):
    __slots__ = ("branches",)
    branches: tuple["GlobalType", ...]

    def _derive(self) -> None:
        _derive_branches(self, None)


def _derive_branches(node: GChoice | GPar, first) -> None:
    bs = node.branches
    parts = frozen_union(*(b.participants for b in bs))
    node._facts(parts, any(b.has_recursion for b in bs), any(b.has_end for b in bs), first)


GlobalType = Union[GEnd, GRecVar, GRec, GMsg, GChoice, GPar]

GEND = GEnd()


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
# Projection
# --------------------------------------------------------------------------

def project(g: GlobalType, who: str) -> Contract:
    """Extract who's contract from a global type.

    Choices are projected as the deciding participant's internal choice;
    every other participant must either be told apart by what it receives
    (external-choice merge from one peer with distinct sorts) or behave
    identically in all branches. End, and a recursion or parallel without
    who, project to end. A `fold`: each distinct node is projected once."""

    def step(g: GlobalType, got):
        if isinstance(g, GMsg):
            cont = yield got(g.cont)
            if g.src == who:
                return send(g.dst, g.sort, cont)
            if g.dst == who:
                return recv(g.src, g.sort, cont)
            return cont
        if isinstance(g, GRecVar):
            return RecVar(g.var)
        if isinstance(g, GRec):
            body = yield got(g.body)
            if isinstance(body, RecVar) and body.var == g.var:
                return END
            return Rec(g.var, body) if g.var in body.free_rec_vars else body
        if isinstance(g, GPar):
            sides = [b for b in g.branches if who in b.participants]
            if len(sides) > 1:
                raise ProjectionError(f"{who} appears in more than one parallel branch")
            return (yield got(sides[0]))
        if g.decider is None:
            raise ProjectionError("choice without a unique decider")
        projs = yield from each(got, g.branches)
        return (_merge_internal if who == g.decider else _merge_external)(projs, who)

    return fold(g, step, lambda n: END if who not in n.participants
                and isinstance(n, (GEnd, GRec, GPar)) else None)


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
    diags = list(fold(g, _diagnostics))
    for who in sorted(g.participants):
        try:
            project(g, who)
        except ProjectionError as exc:
            diags.append(str(exc))
    return (not diags, tuple(diags))


def _diagnostics(node: GlobalType, got):
    """node's discipline violations, in top-down order, duplicates kept."""
    if isinstance(node, GMsg):
        cont = yield got(node.cont)
        if node.src == node.dst:
            return (f"self-interaction {node.src}->{node.dst}:{node.sort}",) + cont
        return cont
    if isinstance(node, GPar):
        diags, seen = (), frozenset()
        for b in node.branches:
            overlap = seen & b.participants
            if overlap:
                diags += (f"parallel branches share participants {sorted(overlap)}",)
            seen |= b.participants
            diags += yield got(b)
        return diags
    if isinstance(node, GChoice):
        own = ("choice without a unique deciding participant",) if node.decider is None else ()
        return own + sum((yield from each(got, node.branches)), ())
    if isinstance(node, GRec):
        return (yield got(node.body))
    return ()


# --------------------------------------------------------------------------
# Canonical form
# --------------------------------------------------------------------------

def _struct_key(g: GlobalType, env: dict[str, int]):
    # Binder-name-free structural key, so branches sort the same however
    # their binders are named; a generator for `descend`, which reads a `;`
    # chain in one step, as the parser does.
    chain = []
    while isinstance(g, GMsg):
        chain.append((2, g.src, g.dst, g.sort))
        g = g.cont
    if isinstance(g, GEnd):
        key: tuple = (0,)
    elif isinstance(g, GRecVar):
        key = (1, env.get(g.var, -1))
    elif isinstance(g, GRec):
        key = (3, (yield _struct_key(g.body, {**env, g.var: len(env)})))
    else:
        keys = []
        for b in g.branches:
            keys.append((yield _struct_key(b, env)))
        key = (4 if isinstance(g, GChoice) else 5, tuple(sorted(keys)))
    for head in reversed(chain):
        key = (*head, key)
    return key


def canonicalize(g: GlobalType) -> GlobalType:
    """Sort choices/parallels and rename binders to x0, x1, ... in one walk.

    A choice's or parallel's branches are ordered by `_struct_key` under the
    binder levels of the enclosing recursions, and binders are numbered in
    pre-order of the sorted term. Idempotent on flattened terms (choices and
    parallels built by `gchoice`/`gpar`, the parser or `synthesize`, none
    directly inside another of its kind); preserves participants,
    recursion/end occurrence, and all projections up to the contracts' own
    canonical branch order.
    """
    counter = itertools.count()

    def walk(node: GlobalType, levels: dict[str, int], names: dict[str, str]):
        if isinstance(node, GRecVar):
            return GRecVar(names.get(node.var, node.var))
        if isinstance(node, GRec):
            fresh = f"x{next(counter)}"
            inner_levels = {**levels, node.var: len(levels)}
            return GRec(fresh, (yield walk(node.body, inner_levels, {**names, node.var: fresh})))
        if isinstance(node, GMsg):  # a `;` chain in one step
            chain = []
            while isinstance(node, GMsg):
                chain.append(node)
                node = node.cont
            tail = yield walk(node, levels, names)
            for m in reversed(chain):
                tail = GMsg(m.src, m.dst, m.sort, tail)
            return tail
        if isinstance(node, (GChoice, GPar)):
            keys = []
            for b in node.branches:
                keys.append((yield _struct_key(b, levels)))
            branches = []
            for i in sorted(range(len(keys)), key=keys.__getitem__):
                branches.append((yield walk(node.branches[i], levels, names)))
            return type(node)(tuple(branches))
        return node

    return descend(walk(g, {}, {}))
