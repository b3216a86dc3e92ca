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
    `free_rec_vars`, `has_recursion` (a recursion variable occurs) and
    `is_guarded`; a `Rec` also memoises its one-step unfolding. Global-type
    nodes carry `participants`, `has_recursion`, `has_end`, their first
    interaction layer and, on a choice, the `decider`; prefix and process
    nodes carry `names` and their free session and participant variables;
  * every node caches its `repr` on first use, built from its children's
    and byte-identical to a plain dataclass's repr, so a repr-based digest
    formats only the nodes that are new;
  * equality never depends on sharing: identity is only a fast path, and a
    duplicate (made by two threads racing on the table, say) compares and
    hashes equal to the shared instance.

A `ContractSystem` is `Frozen` but not interned: a new session state each
step. Everything here is immutable and operations return new values.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from types import GeneratorType
from typing import Generator, Iterable, Mapping, Optional, Sequence, Union

SEND = "send"
RECV = "recv"

# Cap on chained unfoldings while head-normalising; guarded contracts need at
# most one unfold per nested binder, so hitting this means a malformed input.
_MAX_UNFOLD = 1000

_NONE: frozenset[str] = frozenset()
_set = object.__setattr__

# first reprs nested deeper than this go on children first, by `post_order`
_REPR_NESTING = 50
_repr_nesting = 0


class ContractError(Exception):
    """A contract or contract-system invariant was violated."""


def is_part_name(ref: str) -> bool:
    """Participant names start with an uppercase letter."""
    return ref[:1].isupper()


def is_part_var(ref: str) -> bool:
    """Participant variables start with a lowercase letter."""
    return ref[:1].islower()


# --------------------------------------------------------------------------
# Frozen values and hash-consed terms
# --------------------------------------------------------------------------

class Frozen:
    """Base of immutable values: not dataclasses, but with the same fields,
    equality, hash and repr.

    A subclass's fields are its annotations, listed in `_fields` and in its
    `__slots__`. Calling the class with the field values builds a value,
    computes its hash once and runs `_derive` to attach the values it caches
    (through `object.__setattr__`: values refuse assignment and deletion).
    The repr, `Class(field=value, ...)`, is built on first use from the
    children's cached reprs and kept in `_repr`; a child without one is
    formatted first, recursively while fewer than `_REPR_NESTING` first reprs
    are nested and children first on `post_order` below that. Pickling and
    copying rebuild through the constructor; `replace` builds a copy with some
    fields changed.
    """

    __slots__ = ("_key", "_hash", "_repr")
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(annotations)
        # the fields `children` scans, derived once per class: names hold no values
        cls._nested = tuple(i for i, f in enumerate(annotations.values())
                            if f not in ("str", "tuple[str, ...]"))
        cls._repr_template = f"{cls.__qualname__}({', '.join(f + '=%r' for f in cls._fields)})"

    def __new__(cls, *args, **kwargs):
        if kwargs:
            args += tuple(kwargs.pop(f) for f in cls._fields[len(args):] if f in kwargs)
        if kwargs or len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
        value = object.__new__(cls)
        for name, field in zip(cls._fields, args):
            _set(value, name, field)
        _set(value, "_key", args)
        _set(value, "_hash", hash(args))  # the value a frozen dataclass would give
        value._derive()
        return value

    def _derive(self) -> None:
        """Attach the values the value caches, computed from its fields'."""

    def replace(self, **changes):
        """A copy with the named fields changed, like `dataclasses.replace`."""
        args = tuple(changes.pop(f, v) for f, v in zip(self._fields, self._key))
        return type(self)(*args, **changes)  # a name left in changes is no field: TypeError

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
        global _repr_nesting
        text = getattr(self, "_repr", None)  # unset until first asked for
        if text is None:
            if _repr_nesting < _REPR_NESTING:  # `%` asks the children: a shallow recursion
                _repr_nesting += 1
                try:
                    text = self._repr_template % self._key
                finally:
                    _repr_nesting -= 1
                _set(self, "_repr", text)
            else:  # deep in a new term: children first, so `%` reads their cache
                for value in post_order(self, lambda v: getattr(v, "_repr", None) is not None):
                    _set(value, "_repr", value._repr_template % value._key)
                text = self._repr
        return text

    def __reduce__(self):
        return type(self), self._key


class Interned(Frozen):
    """Base of hash-consed term nodes: a `Frozen` value built only when the
    class's weak table holds no live node with the same fields, so equal
    terms built while one is alive are one instance (after pickling and
    copying too)."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = weakref.WeakValueDictionary()

    def __new__(cls, *args, **kwargs):
        if kwargs:  # a throwaway value orders the fields
            args = super().__new__(cls, *args, **kwargs)._key
        node = cls._table.get(args)
        if node is None:
            node = cls._table[args] = super().__new__(cls, *args)
        return node


# --------------------------------------------------------------------------
# Traversals: walkers run on `descend`'s stack, so no term is too deep for one
# --------------------------------------------------------------------------

def children(value: Frozen) -> list:
    """The `Frozen` values in the fields of `value`, in order, inside tuples too."""
    key = value._key
    out, todo = [], [key[i] for i in reversed(value._nested)]
    while todo:
        v = todo.pop()
        if isinstance(v, Frozen):
            out.append(v)
        elif type(v) is tuple:
            todo += reversed(v)
    return out


def post_order(root: Frozen, keep=None) -> list:
    """The distinct values under `root`, each after its children, by an
    explicit stack; one `keep` holds for is neither listed nor entered. Each
    shared node of interned terms comes once (Filliâtre & Conchon, 2006)."""
    order, seen = [], set()
    stack = [root]  # a value to enter, or a 1-tuple of one whose children are listed
    while stack:
        value = stack.pop()
        if type(value) is tuple:
            order.append(value[0])
        elif id(value) not in seen and not (keep is not None and keep(value)):
            seen.add(id(value))
            stack.append((value,))
            stack += reversed(children(value))
    return order


def fold(root: Frozen, step, known=lambda node: None):
    """root's value: `step(node, got)` is a generator that builds a node's
    value, writing `(yield got(child))` for each child's; a node `known` gives
    a value (never None) is neither stepped nor entered, and none is stepped
    twice (Filliâtre & Conchon, 2006). The steps run on `descend`, in a
    recursive walk's order, so the value and the first error are its."""
    done: dict = {}

    def got(node):  # a value at once, or a walker that steps node and keeps its value
        value = known(node)
        if value is None:
            value = done.get(id(node))
        return walk(node) if value is None else value

    def walk(node):
        value = done[id(node)] = yield from step(node, got)
        return value

    try:
        value = got(root)
        return descend(value) if type(value) is GeneratorType else value
    finally:
        del got, walk  # each refers to the other: a cycle that would keep `done` until a collection


def each(got, nodes: Iterable):
    """For a `fold` step: `(yield from each(got, nodes))` lists the nodes' values."""
    values = []
    for node in nodes:
        values.append((yield got(node)))
    return values


def descend(call: Generator):
    """Run `call` as a recursive function whose recursive calls are yielded
    generators, each sent back its return value (any other yielded value is
    sent straight back): the calls wait on an explicit stack, not Python's."""
    stack, value = [call], None
    while stack:
        try:
            value = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            if type(value) is GeneratorType:
                stack.append(value)
                value = None
    return value


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
        "has_recursion",
        "is_guarded",
        "_head_vars",  # free recursion variables not under a prefix
    )

    def _derive_choice(self, peers: Iterable[str], conts: Iterable["Contract"]) -> None:
        mentioned = part_vars = rec_vars = _NONE
        guarded, recursive = True, False
        for c in conts:
            mentioned = frozen_union(mentioned, c.mentioned_participants)
            part_vars = frozen_union(part_vars, c.free_participant_vars)
            rec_vars = frozen_union(rec_vars, c.free_rec_vars)
            guarded = guarded and c.is_guarded
            recursive = recursive or c.has_recursion
        for p in peers:
            if p not in mentioned:
                mentioned = mentioned | {p}
                if is_part_var(p):
                    part_vars = part_vars | {p}
        _set(self, "mentioned_participants", mentioned)
        _set(self, "free_participant_vars", part_vars)
        _set(self, "free_rec_vars", rec_vars)
        _set(self, "has_recursion", recursive)
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
        _set(self, "has_recursion", True)
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
        _set(self, "has_recursion", body.has_recursion)
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
    return _rebuild(c, lambda n: var not in n.free_rec_vars, {}, replacement)


def subst_parts(c: Contract, mapping: Mapping[str, str]) -> Contract:
    """Instantiate participant variables according to mapping.

    A subterm that mentions no key of mapping is returned as it is."""
    return _rebuild(c, lambda n: mapping.keys().isdisjoint(n.mentioned_participants), mapping)


def _rebuild(c: Contract, keep, mapping: Mapping[str, str], replacement=None) -> Contract:
    """c with peers renamed by mapping and variables replaced, but for subterms kept."""

    def step(n: Contract, got):
        if isinstance(n, SendChoice):
            branches = []
            for to, s, k in n.branches:
                branches.append((mapping.get(to, to), s, (yield got(k))))
            return SendChoice(tuple(branches))
        if isinstance(n, RecvChoice):
            branches = []
            for s, k in n.branches:
                branches.append((s, (yield got(k))))
            return RecvChoice(mapping.get(n.source, n.source), tuple(branches))
        return Rec(n.var, (yield got(n.body))) if isinstance(n, Rec) else replacement  # a `RecVar`

    return fold(c, step, lambda n: n if keep(n) else None)


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


class ContractSystem(Frozen):
    """Stipulated contracts plus the full grid of FIFO queues.

    contracts is sorted by participant name; queues holds one entry
    (frm, to, messages) for every ordered pair of distinct participants.
    """

    __slots__ = ("contracts", "queues", "_moves")
    contracts: tuple[tuple[str, Contract], ...]
    queues: tuple[tuple[str, str, tuple[str, ...]], ...]

    def _derive(self) -> None:
        _set(self, "_moves", {})

    @property
    def participants(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.contracts)

    def contract(self, name: str) -> Contract:
        return _lookup(self.contracts, name)

    def queue(self, frm: str, to: str) -> tuple[str, ...]:
        for f, t, msgs in self.queues:
            if f == frm and t == to:
                return msgs
        raise KeyError((frm, to))


def _lookup(pairs: tuple, name: str):
    for n, value in pairs:
        if n == name:
            return value
    raise KeyError(name)


def check_stipulated(name: str, c: Contract) -> None:
    """Raise ContractError if c, as `name`'s contract, is open, unguarded or names `name`."""
    if not is_part_name(name):
        raise ContractError(f"{name!r} is not a participant name")
    if c.free_rec_vars:
        raise ContractError(f"contract of {name} has free recursion variables")
    if not c.is_guarded:
        raise ContractError(f"contract of {name} has unguarded recursion")
    bad = c.free_participant_vars
    if bad:
        raise ContractError(
            f"contract of {name} still mentions participant variables {sorted(bad)}")
    if name in c.mentioned_participants:
        raise ContractError(f"contract of {name} names {name} as its own peer")


def make_system(
    contracts: Mapping[str, Contract],
    queues: Optional[Mapping[tuple[str, str], Sequence[str]]] = None,
) -> ContractSystem:
    """Compose named contracts with the (default empty) queue grid."""
    for name, c in contracts.items():
        check_stipulated(name, c)
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
    session has no moves. Worked out once per system and name."""
    moves = system._moves.get(name)
    if moves is None:
        moves = system._moves[name] = _next_moves(system, name)
    return moves


def _next_moves(system: ContractSystem, name: str) -> tuple[tuple[MoveLabel, Contract], ...]:
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
            sending = label.dir == SEND
            frm, to = (label.actor, label.peer) if sending else (label.peer, label.actor)
            queues = []
            for f, t, msgs in system.queues:
                if f == frm and t == to:
                    msgs = msgs + (label.sort,) if sending else msgs[1:]
                queues.append((f, t, msgs))
            contracts = tuple((n, cont if n == label.actor else c) for n, c in system.contracts)
            return ContractSystem(contracts, tuple(queues))
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
