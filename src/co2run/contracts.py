"""Behavioural contracts (local session types) and their FIFO-queue semantics.

A contract promises the communication behaviour of one participant: internal
choices of sends, external choices of receives, guarded recursion, or end.
A session holds one stipulated contract per participant plus one FIFO queue
per ordered pair of participants; sends append to a queue, receives pop the
matching head. `next_moves` is that transition relation, written once:
`enabled_moves` and `contract_step` are read off it.

Contract nodes (and the global-type nodes of `choreo` and the process
nodes of `runtime`) are hash-consed:

  * a node is built only through its class constructor (or the smart
    constructors below), which looks the fields up in a per-class table of
    live nodes and returns the existing instance when there is one, so
    equal terms usually share one instance;
  * every node carries values computed once, from its children's values,
    when it is built: its hash, `mentioned_participants` (every peer
    reference, names and variables), `free_participant_vars`,
    `free_rec_vars` and `is_guarded`; a `Rec` also memoises its one-step
    unfolding. Global-type nodes carry `participants`, `has_recursion`,
    `has_end`, their first interaction layer and, on a choice, the
    `decider`; prefix and process nodes carry `names`, their free session
    and participant variables and the calls they make;
  * every node caches its `repr` on first use, built from its children's
    and byte-identical to a plain dataclass's repr, so a repr-based digest
    formats only the nodes that are new;
  * equality never depends on sharing: identity is only a fast path, and a
    duplicate (made by two threads racing on the table, say) compares and
    hashes equal to the shared instance.

Everything here is immutable; operations are pure functions returning new
values, so concurrent use needs no locking.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

SEND = "send"
RECV = "recv"

# Cap on chained unfoldings while head-normalising; guarded contracts need at
# most one unfold per nested binder, so hitting this means a malformed input.
_MAX_UNFOLD = 1000

_NONE: frozenset[str] = frozenset()
_set = object.__setattr__


class ContractError(Exception):
    """A contract or contract-system invariant was violated."""


def is_part_name(ref: str) -> bool:
    """Participant names start with an uppercase letter."""
    return ref[:1].isupper()


def is_part_var(ref: str) -> bool:
    """Participant variables start with a lowercase letter."""
    return ref[:1].islower()


# --------------------------------------------------------------------------
# Hash-consed terms
# --------------------------------------------------------------------------

class Interned:
    """Base of hash-consed term nodes. It alone gives them construction,
    immutability, equality, hash, repr and pickling: they are not dataclasses.

    A subclass's fields are its annotations, listed in `_fields` and in its
    `__slots__`. Calling the class looks the field tuple up in the class's
    weak table and returns the live node with those fields, or builds one,
    runs `_derive` to attach the values it caches (through
    `object.__setattr__`: nodes refuse assignment and deletion), and records
    it. Pickling and copying rebuild through the constructor, so they return
    the shared instance too. The repr, `Class(field=value, ...)`, is built on
    first use from the children's cached reprs and kept in `_repr`.
    """

    __slots__ = ("_key", "_hash", "_repr", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._table = weakref.WeakValueDictionary()
        # the repr as a %-template over the field values: a first repr of a
        # deep term then recurses no deeper than a dataclass's would
        cls._repr_template = f"{cls.__qualname__}({', '.join(f + '=%r' for f in cls._fields)})"

    def __new__(cls, *args, **kwargs):
        if kwargs:
            args += tuple(kwargs.pop(f) for f in cls._fields[len(args):] if f in kwargs)
        table = cls._table
        node = table.get(args)
        if node is None:
            if kwargs or len(args) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                _set(node, name, value)
            _set(node, "_key", args)
            _set(node, "_hash", hash(args))  # the value a frozen dataclass would give
            node._derive()
            table[args] = node
        return node

    def _derive(self) -> None:
        """Attach the values the node caches, computed from its children's."""

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        text = getattr(self, "_repr", None)  # unset until first asked for
        if text is None:
            text = self._repr_template % self._key
            _set(self, "_repr", text)
        return text

    def __reduce__(self):
        return type(self), self._key


def frozen_union(*sets: frozenset[str]) -> frozenset[str]:
    """The union of sets, reusing an operand that already holds it, so the
    nodes of a long chain share one set object."""
    out = _NONE
    for s in sets:
        if not s <= out:
            out = s if out <= s else out | s
    return out


# --------------------------------------------------------------------------
# Contract AST
# --------------------------------------------------------------------------

class _Contract(Interned):
    __slots__ = (
        "mentioned_participants",
        "free_participant_vars",
        "free_rec_vars",
        "is_guarded",
        "_head_vars",  # free recursion variables not under a prefix
    )

    def _derive_choice(self, peers: Iterable[str], conts: Iterable["Contract"]) -> None:
        mentioned = part_vars = rec_vars = _NONE
        guarded = True
        for c in conts:
            mentioned = frozen_union(mentioned, c.mentioned_participants)
            part_vars = frozen_union(part_vars, c.free_participant_vars)
            rec_vars = frozen_union(rec_vars, c.free_rec_vars)
            guarded = guarded and c.is_guarded
        for p in peers:
            if p not in mentioned:
                mentioned = mentioned | {p}
                if is_part_var(p):
                    part_vars = part_vars | {p}
        _set(self, "mentioned_participants", mentioned)
        _set(self, "free_participant_vars", part_vars)
        _set(self, "free_rec_vars", rec_vars)
        _set(self, "is_guarded", guarded)
        _set(self, "_head_vars", _NONE)


class End(_Contract):
    __slots__ = ()

    def _derive(self) -> None:
        self._derive_choice((), ())


class RecVar(_Contract):
    __slots__ = ("var",)
    var: str

    def _derive(self) -> None:
        self._derive_choice((), ())
        free = frozenset([self.var])
        _set(self, "free_rec_vars", free)
        _set(self, "_head_vars", free)


class Rec(_Contract):
    __slots__ = ("var", "body", "_unfolded")
    var: str
    body: "Contract"

    def _derive(self) -> None:
        body, var = self.body, self.var
        _set(self, "mentioned_participants", body.mentioned_participants)
        _set(self, "free_participant_vars", body.free_participant_vars)
        _set(self, "free_rec_vars", body.free_rec_vars - {var})
        _set(self, "_head_vars", body._head_vars - {var})
        # guarded iff the body is and does not reach this binder prefix-free
        _set(self, "is_guarded", body.is_guarded and var not in body._head_vars)
        _set(self, "_unfolded", None)


class SendChoice(_Contract):
    """Internal choice: each branch is (peer, sort, continuation)."""

    __slots__ = ("branches",)
    branches: tuple[tuple[str, str, "Contract"], ...]

    def _derive(self) -> None:
        self._derive_choice([b[0] for b in self.branches], [b[2] for b in self.branches])


class RecvChoice(_Contract):
    """External choice: receive one of several sorts from a single peer."""

    __slots__ = ("source", "branches")
    source: str
    branches: tuple[tuple[str, "Contract"], ...]

    def _derive(self) -> None:
        self._derive_choice((self.source,), [b[1] for b in self.branches])


Contract = Union[End, RecVar, Rec, SendChoice, RecvChoice]

END = End()


def send_choice(branches: Iterable[tuple[str, str, Contract]]) -> SendChoice:
    """Build an internal choice in canonical branch order.

    Branches are sorted by (peer, sort), which makes commutativity and
    associativity of the choice operator an identity of representations.
    """
    bs = tuple(sorted(branches, key=lambda b: (b[0], b[1])))
    if not bs:
        raise ContractError("internal choice needs at least one branch")
    keys = [(to, sort) for to, sort, _ in bs]
    if len(set(keys)) != len(keys):
        raise ContractError("duplicate (peer, sort) in internal choice")
    return SendChoice(bs)


def recv_choice(source: str, branches: Iterable[tuple[str, Contract]]) -> RecvChoice:
    """Build an external choice in canonical branch order (sorted by sort)."""
    bs = tuple(sorted(branches, key=lambda b: b[0]))
    if not bs:
        raise ContractError("external choice needs at least one branch")
    sorts = [sort for sort, _ in bs]
    if len(set(sorts)) != len(sorts):
        raise ContractError("duplicate sort in external choice")
    return RecvChoice(source, bs)


def send(to: str, sort: str, cont: Contract = END) -> SendChoice:
    return SendChoice(((to, sort, cont),))  # one branch is already in canonical order


def recv(source: str, sort: str, cont: Contract = END) -> RecvChoice:
    return RecvChoice(source, ((sort, cont),))


def rec(var: str, body: Contract) -> Contract:
    node = Rec(var, body)
    if not node.is_guarded:
        raise ContractError(f"unguarded recursion on {var!r}")
    return node


# --------------------------------------------------------------------------
# Substitution and unfolding
# --------------------------------------------------------------------------

def subst_rec(c: Contract, var: str, replacement: Contract) -> Contract:
    """Substitute RecVar(var) by replacement; inner binders of var shadow.

    A subterm where var is not free is returned as it is, not rebuilt."""
    if var not in c.free_rec_vars:
        return c
    if isinstance(c, RecVar):
        return replacement
    if isinstance(c, Rec):
        return Rec(c.var, subst_rec(c.body, var, replacement))
    if isinstance(c, SendChoice):
        return SendChoice(
            tuple((to, sort, subst_rec(cont, var, replacement)) for to, sort, cont in c.branches)
        )
    return RecvChoice(
        c.source,
        tuple((sort, subst_rec(cont, var, replacement)) for sort, cont in c.branches),
    )


def subst_parts(c: Contract, mapping: Mapping[str, str]) -> Contract:
    """Instantiate participant variables according to mapping.

    A subterm that mentions no key of mapping is returned as it is."""
    if mapping.keys().isdisjoint(c.mentioned_participants):
        return c
    if isinstance(c, SendChoice):
        return SendChoice(
            tuple(
                (mapping.get(to, to), sort, subst_parts(cont, mapping))
                for to, sort, cont in c.branches
            )
        )
    if isinstance(c, RecvChoice):
        return RecvChoice(
            mapping.get(c.source, c.source),
            tuple((sort, subst_parts(cont, mapping)) for sort, cont in c.branches),
        )
    return Rec(c.var, subst_parts(c.body, mapping))


def unfold(c: Contract) -> Contract:
    """One-step unfolding of a top-level recursive binder; identity otherwise."""
    if not isinstance(c, Rec):
        return c
    if c._unfolded is None:
        _set(c, "_unfolded", subst_rec(c.body, c.var, c))
    return c._unfolded


def head_normal(c: Contract) -> Contract:
    """Unfold top-level binders until a choice or end surfaces."""
    for _ in range(_MAX_UNFOLD):
        if not isinstance(c, Rec):
            return c
        c = unfold(c)
    raise ContractError("recursion does not reach a prefix; contract is unguarded")


# --------------------------------------------------------------------------
# Ready sets
# --------------------------------------------------------------------------

ReadySet = frozenset[tuple[str, str]]


def contract_ready_sets(c: Contract) -> frozenset[ReadySet]:
    """The family of interaction sets the contract offers next.

    An internal choice yields one singleton set per branch (the branches are
    mutually exclusive); an external choice yields a single set holding every
    (peer, sort) pair (all must be handled); a finished contract yields the
    empty family, so it demands nothing.
    """
    bad = c.free_participant_vars
    if bad:
        raise ContractError(f"unstipulated contract: free participant variables {sorted(bad)}")
    node = head_normal(c)
    if isinstance(node, SendChoice):
        return frozenset(frozenset([(to, sort)]) for to, sort, _ in node.branches)
    if isinstance(node, RecvChoice):
        return frozenset([frozenset((node.source, sort) for sort, _ in node.branches)])
    if isinstance(node, End):
        return frozenset()
    raise ContractError("ready sets of an open contract")


# --------------------------------------------------------------------------
# Systems of contracts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MoveLabel:
    actor: str
    peer: str
    sort: str
    dir: str  # SEND or RECV


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


def make_system(
    contracts: Mapping[str, Contract],
    queues: Optional[Mapping[tuple[str, str], Sequence[str]]] = None,
) -> ContractSystem:
    """Compose named contracts with the (default empty) queue grid."""
    for name, c in contracts.items():
        if not is_part_name(name):
            raise ContractError(f"{name!r} is not a participant name")
        if c.free_rec_vars:
            raise ContractError(f"contract of {name} has free recursion variables")
        if not c.is_guarded:
            raise ContractError(f"contract of {name} has unguarded recursion")
        bad = c.free_participant_vars
        if bad:
            raise ContractError(
                f"contract of {name} still mentions participant variables {sorted(bad)}"
            )
        if name in c.mentioned_participants:
            raise ContractError(f"contract of {name} names {name} as its own peer")
    names = sorted(contracts)
    grid = {}
    for a in names:
        for b in names:
            if a != b:
                grid[(a, b)] = ()
    for (a, b), msgs in (queues or {}).items():
        if (a, b) not in grid:
            raise ContractError(f"queue {a}->{b} does not connect two distinct participants")
        grid[(a, b)] = tuple(msgs)
    return ContractSystem(
        tuple((n, contracts[n]) for n in names),
        tuple((a, b, grid[(a, b)]) for (a, b) in sorted(grid)),
    )


def next_moves(system: ContractSystem, name: str) -> tuple[tuple[MoveLabel, Contract], ...]:
    """The moves `name` can make next, each with the contract it leaves.

    A send is enabled as long as its peer is part of the session (the queue
    accepts unboundedly); a receive only when the queue from its peer
    carries one of the expected sorts at its head. A name outside the
    session has no moves."""
    contracts = dict(system.contracts)
    if name not in contracts:
        return ()
    head = head_normal(contracts[name])
    if isinstance(head, SendChoice):
        return tuple((MoveLabel(name, to, sort, SEND), cont)
                     for to, sort, cont in head.branches if to in contracts)
    if isinstance(head, RecvChoice) and head.source in contracts:
        q = system.queue(head.source, name)
        for sort, cont in head.branches:
            if q and q[0] == sort:
                return ((MoveLabel(name, head.source, sort, RECV), cont),)
    return ()


def enabled_moves(system: ContractSystem) -> tuple[MoveLabel, ...]:
    """Every label under which the system can step, participant by participant."""
    return tuple(m for name, _ in system.contracts for m, _ in next_moves(system, name))


def contract_step(system: ContractSystem, label: MoveLabel) -> ContractSystem:
    """Apply one of the actor's `next_moves`; raises ContractError on any other move."""
    for move, cont in next_moves(system, label.actor):
        if move == label:
            t = system.with_contract(label.actor, cont)
            if label.dir == SEND:
                q = system.queue(label.actor, label.peer)
                return t.with_queue(label.actor, label.peer, q + (label.sort,))
            return t.with_queue(label.peer, label.actor, system.queue(label.peer, label.actor)[1:])
    raise ContractError(f"illegal move: {label} is not enabled")


def is_terminated(system: ContractSystem) -> bool:
    """True iff every contract has finished and every queue is drained.

    An undelivered message keeps the system non-terminated even when all
    contracts are done (the orphan marks a broken exchange).
    """
    for _, c in system.contracts:
        if not isinstance(head_normal(c), End):
            return False
    return all(not msgs for _, _, msgs in system.queues)


def orphan_messages(system: ContractSystem) -> tuple[tuple[str, str, str], ...]:
    """Messages sitting in queues of an otherwise finished system."""
    if any(not isinstance(head_normal(c), End) for _, c in system.contracts):
        return ()
    return tuple(
        (frm, to, msgs[0]) for frm, to, msgs in system.queues if msgs
    )
