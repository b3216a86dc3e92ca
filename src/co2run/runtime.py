"""The contract-oriented process calculus: systems, reductions, scheduler.

A world holds one process per participant, pools of advertised (latent)
contracts, and the sessions created so far. Processes advance through four
prefixes: internal steps, advertising a contract to a broker (tell), asking
a broker to create a session out of its pool (fuse), and performing a
contractual action inside a session (do). Fuse searches the pool for a
subset of latent contracts that can be assigned a choreography once their
participant variables are instantiated; the new session starts from those
stipulated contracts plus an empty queue grid, and the chosen substitutions
are applied across the whole system.

Systems are immutable; every reduction returns a fresh value. Delimitation
is compiled away: loading renames all bound and block-local variables to
globally unique identifiers, so substitutions can be applied globally.

Process and prefix nodes are hash-consed like contracts (`contracts.Interned`)
and carry, built from their children's, `names` (the identifiers they
mention), their free session and participant variables and the calls they
make; process nodes also cache their sort key and normal form. So minting
fresh names, substitution, the repr-based state digest, state hashing and
renormalization after a step cost time only for new nodes. This module alone
knows the binding rules: `_rename` resolves scopes, and substitution and the
parser's call checks read the cached facts.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

from .choreo import GlobalType
from .contracts import (
    Contract,
    ContractError,
    ContractSystem,
    End,
    Interned,
    MoveLabel,
    RecvChoice,
    SendChoice,
    contract_step,
    frozen_union,
    head_normal,
    is_part_name,
    is_part_var,
    make_system,
    next_moves,
    subst_parts,
)
from .synthesis import can_start, synthesize

PLAIN = "plain"
TERMINATING = "terminating"
RECURSIVE = "recursive"

_MODES = (PLAIN, TERMINATING, RECURSIVE)


class ReductionError(Exception):
    """An ill-formed system or a reduction that is not enabled."""


@dataclass(frozen=True)
class FusePolicy:
    min_participants: int = 2
    mode: str = PLAIN
    prefer_smallest: bool = False

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown fuse mode {self.mode!r}")
        if self.min_participants < 2:
            raise ValueError("sessions need at least two participants")


DEFAULT_POLICY = FusePolicy()


# --------------------------------------------------------------------------
# Process syntax
# --------------------------------------------------------------------------

_NONE: frozenset[str] = frozenset()
_set = object.__setattr__


class _Named(Interned):
    """Prefix and process nodes keep, computed from their children's,
    `names` (every identifier they mention: participant and session names
    and variables, sorts, called definitions), `free_session_vars` (the
    session references, names included, that no enclosing `Delim` binds),
    `free_participant_vars` (the same for lowercase participant references,
    a told contract's too) and `calls` (one `(definition, session arity,
    participant arity)` entry per call, in pre-order, first occurrences)."""

    __slots__ = ("names", "free_session_vars", "free_participant_vars", "calls")

    def _derive(self) -> None:
        self._facts(_NONE, _NONE, _NONE, ())

    def _facts(self, names, session_vars, participant_vars, calls) -> None:
        _set(self, "names", names)
        _set(self, "free_session_vars", session_vars)
        _set(self, "free_participant_vars", participant_vars)
        _set(self, "calls", calls)

    def _join(self, nodes: Sequence["_Named"]) -> None:
        """Attach the union of the nodes' facts, reusing a node's set or tuple
        when the others add nothing to it (`frozen_union`, inlined for speed)."""
        for slot in ("names", "free_session_vars", "free_participant_vars"):
            out = _NONE
            for q in nodes:
                s = getattr(q, slot)
                if not s <= out:
                    out = s if out <= s else out | s
            _set(self, slot, out)
        calls: tuple = ()
        for q in nodes:
            if not calls:
                calls = q.calls
            elif q.calls and q.calls is not calls:
                calls += tuple(c for c in q.calls if c not in calls)
        _set(self, "calls", calls)


class PTau(_Named):
    __slots__ = ()


class PTell(_Named):
    __slots__ = ("target", "session_var", "contract")
    target: str
    session_var: str
    contract: Contract

    def _derive(self) -> None:
        own = frozenset((self.target, self.session_var))
        target = _NONE if is_part_name(self.target) else frozenset((self.target,))
        parts = frozen_union(self.contract.free_participant_vars, target)
        names = frozen_union(self.contract.mentioned_participants, own)
        self._facts(names, frozenset((self.session_var,)), parts, ())


class PFuse(_Named):
    __slots__ = ("policy",)
    policy: FusePolicy


class PDo(_Named):
    __slots__ = ("session", "peer", "sort", "dir")
    session: str
    peer: str
    sort: str
    dir: str  # contracts.SEND or contracts.RECV

    def _derive(self) -> None:
        peer = _NONE if is_part_name(self.peer) else frozenset((self.peer,))
        self._facts(frozenset((self.session, self.peer, self.sort)), frozenset((self.session,)),
                    peer, ())


Prefix = Union[PTau, PTell, PFuse, PDo]


class _Proc(_Named):
    """Process nodes also keep their sort key and normal form, unset until used."""

    __slots__ = ("_sort_key", "_normal")


class PNil(_Proc):
    __slots__ = ()


class Sum(_Proc):
    __slots__ = ("branches",)
    branches: tuple[tuple[Prefix, "Process"], ...]

    def _derive(self) -> None:
        self._join(sum(self.branches, ()))  # every prefix and continuation


class Par(_Proc):
    __slots__ = ("parts",)
    parts: tuple["Process", ...]

    def _derive(self) -> None:
        self._join(self.parts)


class Delim(_Proc):
    __slots__ = ("session_vars", "part_vars", "body")
    session_vars: tuple[str, ...]
    part_vars: tuple[str, ...]
    body: "Process"

    def _derive(self) -> None:
        b = self.body
        self._facts(frozen_union(b.names, frozenset(self.session_vars + self.part_vars)),
                    b.free_session_vars.difference(self.session_vars),
                    b.free_participant_vars.difference(self.part_vars), b.calls)


class Call(_Proc):
    __slots__ = ("name", "session_args", "part_args")
    name: str
    session_args: tuple[str, ...]
    part_args: tuple[str, ...]

    def _derive(self) -> None:
        sargs, pargs = self.session_args, self.part_args
        self._facts(frozenset((self.name, *sargs, *pargs)), frozenset(sargs),
                    frozenset(a for a in pargs if not is_part_name(a)),
                    ((self.name, len(sargs), len(pargs)),))


Process = Union[PNil, Sum, Par, Delim, Call]

NIL = PNil()


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


def _lookup(pairs: tuple, name: str):
    for n, value in pairs:
        if n == name:
            return value
    raise KeyError(name)


def make_co2(
    processes: Mapping[str, Process],
    pools: Optional[Mapping[str, Sequence[LatentContract]]] = None,
    sessions: Optional[Mapping[str, ContractSystem]] = None,
    definitions: Optional[Mapping[str, ProcDef]] = None,
) -> Co2System:
    for name in processes:
        if not is_part_name(name):
            raise ReductionError(f"{name!r} is not a participant name")
    return Co2System(
        tuple(sorted(processes.items())),
        _pools(pools or {}),
        tuple(sorted((sessions or {}).items())),
        tuple(sorted((definitions or {}).items())),
    )


def _pools(
    pools: Mapping[str, Sequence[LatentContract]],
) -> tuple[tuple[str, tuple[LatentContract, ...]], ...]:
    """Pools in canonical order: hosts sorted, each pool sorted, none empty."""
    return tuple(
        (host, tuple(sorted(ks, key=_latent_key))) for host, ks in sorted(pools.items()) if ks
    )


def _latent_key(k: LatentContract) -> tuple:
    return (k.promiser, k.session_var, repr(k.contract))


# --------------------------------------------------------------------------
# Step labels and traces
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FuseReport:
    session: str
    participants: tuple[str, ...]
    sigma: tuple[tuple[str, str], ...]
    pi: tuple[tuple[str, str], ...]
    global_type: GlobalType


@dataclass(frozen=True)
class StepLabel:
    actor: str
    kind: str  # tau | tell | fuse | do | call
    session: Optional[str] = None
    peer: Optional[str] = None
    sort: Optional[str] = None
    dir: Optional[str] = None
    target: Optional[str] = None
    session_var: Optional[str] = None
    callee: Optional[str] = None
    fuse: Optional[FuseReport] = None


@dataclass(frozen=True)
class Trace:
    steps: tuple[StepLabel, ...]
    digests: tuple[str, ...]
    terminal: Co2System


def system_digest(system: Co2System) -> str:
    """Stable hash of a normalized system, used for trace replay checks."""
    return hashlib.sha256(repr(system).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# Identifier bookkeeping
# --------------------------------------------------------------------------

def collect_identifiers(system: Co2System) -> set[str]:
    out: set[str] = set()
    for name, p in system.processes:
        out.add(name)
        out |= p.names
    for host, pool in system.pools:
        out.add(host)
        for k in pool:
            out.add(k.promiser)
            out.add(k.session_var)
            out |= k.contract.mentioned_participants
    for sname, t in system.sessions:
        out.add(sname)
        for pname, c in t.contracts:
            out.add(pname)
            out |= c.mentioned_participants
        for _, _, msgs in t.queues:
            out.update(msgs)
    for dname, _ in system.definitions:
        out.add(dname)
    return out


def next_session_name(system: Co2System) -> str:
    taken = collect_identifiers(system)
    k = 1
    while f"s{k}" in taken:
        k += 1
    return f"s{k}"


# --------------------------------------------------------------------------
# Renaming and substitution
# --------------------------------------------------------------------------

class _Namer:
    def __init__(self, taken: set[str]):
        self.taken = taken

    def fresh(self, base: str) -> str:
        if base not in self.taken:
            self.taken.add(base)
            return base
        k = 1
        while f"{base}_{k}" in self.taken:
            k += 1
        name = f"{base}_{k}"
        self.taken.add(name)
        return name


def _rename(
    p: Process,
    smap: dict[str, str],
    pmap: dict[str, str],
    namer: _Namer,
    session_names: frozenset[str],
) -> Process:
    """Resolve every variable through the scope maps, minting bindings for
    unseen block-local variables and dropping delimiters along the way."""

    def sref(u: str) -> str:
        if u in smap:
            return smap[u]
        if u in session_names:
            return u
        smap[u] = namer.fresh(u)
        return smap[u]

    def pref(a: str) -> str:
        if a in pmap:
            return pmap[a]
        if is_part_name(a):
            return a
        pmap[a] = namer.fresh(a)
        return pmap[a]

    if isinstance(p, PNil):
        return p
    if isinstance(p, Sum):
        branches = []
        for prefix, cont in p.branches:
            if isinstance(prefix, PTell):
                cvars = prefix.contract.free_participant_vars
                prefix = PTell(
                    pref(prefix.target),
                    sref(prefix.session_var),
                    subst_parts(prefix.contract, {v: pref(v) for v in cvars}),
                )
            elif isinstance(prefix, PDo):
                prefix = PDo(sref(prefix.session), pref(prefix.peer), prefix.sort, prefix.dir)
            branches.append((prefix, _rename(cont, smap, pmap, namer, session_names)))
        return Sum(tuple(branches))
    if isinstance(p, Par):
        return Par(tuple(_rename(q, smap, pmap, namer, session_names) for q in p.parts))
    if isinstance(p, Delim):
        inner_s = dict(smap)
        inner_p = dict(pmap)
        for v in p.session_vars:
            inner_s[v] = namer.fresh(v)
        for v in p.part_vars:
            inner_p[v] = namer.fresh(v)
        return _rename(p.body, inner_s, inner_p, namer, session_names)
    if isinstance(p, Call):
        return Call(
            p.name,
            tuple(sref(u) for u in p.session_args),
            tuple(pref(a) for a in p.part_args),
        )
    raise ReductionError(f"cannot rename {type(p).__name__}")


def proc_subst(p: Process, smap: Mapping[str, str], pmap: Mapping[str, str]) -> Process:
    """Apply the substitutions of session variables (smap) and participant
    variables (pmap) at once: a renaming whose maps send every other free
    variable of p to itself, so no name is minted.

    p must hold no `Delim`, as a normalized process does: every reference in
    it is then free. A process whose free variables include no key of
    either map is returned as it is."""
    svars, pvars = p.free_session_vars, p.free_participant_vars
    if smap.keys().isdisjoint(svars) and pmap.keys().isdisjoint(pvars):
        return p
    smap = {u: smap.get(u, u) for u in svars}
    pmap = {a: pmap.get(a, a) for a in pvars}
    return _rename(p, smap, pmap, _Namer(set()), _NONE)


# --------------------------------------------------------------------------
# Structural normalization
# --------------------------------------------------------------------------

def _proc_key(p: Process) -> tuple:
    key = getattr(p, "_sort_key", None)
    if key is None:
        if isinstance(p, PNil):
            key = (0,)
        elif isinstance(p, Sum):
            key = (1, tuple((_prefix_key(pr), _proc_key(c)) for pr, c in p.branches))
        elif isinstance(p, Par):
            key = (2, tuple(_proc_key(q) for q in p.parts))
        elif isinstance(p, Call):
            key = (3, p.name, p.session_args, p.part_args)
        else:
            key = (4, repr(p))
        object.__setattr__(p, "_sort_key", key)
    return key


def _prefix_key(pr: Prefix) -> tuple:
    if isinstance(pr, PTau):
        return (0,)
    if isinstance(pr, PTell):
        return (1, pr.target, pr.session_var, repr(pr.contract))
    if isinstance(pr, PFuse):
        return (2, pr.policy.min_participants, pr.policy.mode, pr.policy.prefer_smallest)
    return (3, pr.session, pr.peer, pr.sort, pr.dir)


def normalize_proc(p: Process) -> Process:
    """Flatten parallels, drop nils, sort parts and branches; cached. A normal
    form's `_normal` is True, not itself (a reference cycle), and its subterms
    are normal, so renormalizing a term changed in one place sorts one level."""
    n = getattr(p, "_normal", None)
    if n is not None:
        return p if n is True else n
    if isinstance(p, Par):
        parts: list[Process] = []
        for q in p.parts:
            q = normalize_proc(q)
            if isinstance(q, Par):
                parts.extend(q.parts)
            elif not isinstance(q, PNil):
                parts.append(q)
        if len(parts) > 1:
            n = Par(tuple(sorted(parts, key=_proc_key)))
        else:
            n = parts[0] if parts else NIL
    elif isinstance(p, Sum):
        branches = tuple(
            sorted(
                ((pr, normalize_proc(c)) for pr, c in p.branches),
                key=lambda b: (_prefix_key(b[0]), _proc_key(b[1])),
            )
        )
        n = Sum(branches) if branches else NIL
    else:
        n = p
    object.__setattr__(n, "_normal", True)
    if n is not p:
        object.__setattr__(p, "_normal", n)
    return n


def normalize(system: Co2System) -> Co2System:
    """Flatten parallels, drop nils, rename variables apart, sort everything.

    Idempotent. Renaming keeps source names whenever they are globally
    unique, so loading a rendered system reproduces it exactly.
    """
    session_names = system.session_names
    # variables already advertised into a pool are allocated: process
    # occurrences of the same variable must keep referring to them
    pool_sessions: dict[str, str] = {}
    pool_parts: dict[str, str] = {}
    for _, pool in system.pools:
        for k in pool:
            pool_sessions[k.session_var] = k.session_var
            for v in k.contract.free_participant_vars:
                pool_parts[v] = v
    # renaming keeps participant, session and definition names and the pool
    # variables, and may rebind every other variable
    taken = {i for i in collect_identifiers(system) if is_part_name(i)} | session_names
    taken |= {n for n, _ in system.definitions} | pool_sessions.keys() | pool_parts.keys()
    namer = _Namer(taken)
    processes = {}
    for name, p in sorted(system.processes):
        processes[name] = normalize_proc(
            _rename(p, dict(pool_sessions), dict(pool_parts), namer, session_names)
        )
    pools: dict[str, list[LatentContract]] = {}
    for host, pool in system.pools:
        pools.setdefault(host, []).extend(pool)
    return make_co2(
        processes,
        pools,
        dict(system.sessions),
        dict(system.definitions),
    )


# --------------------------------------------------------------------------
# Enabled steps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    actor: str
    item: int
    branch: Optional[int]
    kind: str


def proc_items(p: Process) -> tuple[Process, ...]:
    """Top-level components of a participant's process (through parallel)."""
    if isinstance(p, PNil):
        return ()
    if isinstance(p, Par):
        return p.parts
    return (p,)


def _replace_item(p: Process, index: int, replacement: Process) -> Process:
    items = list(proc_items(p))
    items[index] = replacement
    return normalize_proc(Par(tuple(items)) if len(items) > 1 else replacement)


def _prefix_enabled(system: Co2System, actor: str, prefix: Prefix) -> bool:
    if isinstance(prefix, PTau):
        return True
    if isinstance(prefix, PTell):
        return is_part_name(prefix.target)
    if isinstance(prefix, PFuse):
        return (
            find_agreement(system.pool(actor), prefix.policy) is not None
        )
    if isinstance(prefix, PDo):
        if prefix.session not in system.session_names or not is_part_name(prefix.peer):
            return False
        move = MoveLabel(actor, prefix.peer, prefix.sort, prefix.dir)
        return any(m == move for m, _ in next_moves(system.session(prefix.session), actor))
    return False


# the step kind of each prefix, and of a call's unfolding
_KINDS = {PTau: "tau", PTell: "tell", PFuse: "fuse", PDo: "do", Call: "call"}


def enabled_steps(system: Co2System) -> tuple[Step, ...]:
    steps: list[Step] = []
    for actor, proc in system.processes:
        for i, item in enumerate(proc_items(proc)):
            if isinstance(item, Call):
                steps.append(Step(actor, i, None, "call"))
            elif isinstance(item, Sum):
                for j, (prefix, _) in enumerate(item.branches):
                    if _prefix_enabled(system, actor, prefix):
                        steps.append(Step(actor, i, j, _KINDS[type(prefix)]))
    return tuple(steps)


# --------------------------------------------------------------------------
# Agreement search
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Agreement:
    latents: tuple[LatentContract, ...]
    pi: tuple[tuple[str, str], ...]  # participant variables -> names
    system: ContractSystem
    global_type: GlobalType


def policy_check(g: GlobalType, policy: FusePolicy) -> bool:
    """Does the synthesised choreography satisfy the broker's policy?"""
    if len(g.participants) < policy.min_participants:
        return False
    if policy.mode == TERMINATING and g.has_recursion:
        return False
    if policy.mode == RECURSIVE and g.has_end:
        return False
    return True


@lru_cache(maxsize=4096)
def _search_agreement(
    pool: tuple[LatentContract, ...], policy: FusePolicy
) -> Optional[Agreement]:
    n = len(pool)
    kinds = [_head_kind(k.contract) for k in pool]
    variables_of = [sorted(k.contract.free_participant_vars) for k in pool]
    instances: dict[tuple, Contract] = {}  # (index, values of its variables) -> contract

    def instance(i: int, pi: dict[str, str]) -> Contract:
        key = (i, *(pi[v] for v in variables_of[i]))
        c = instances.get(key)
        if c is None:
            c = instances[key] = subst_parts(pool[i].contract, pi)
        return c

    sizes: Iterable[int] = range(2, n + 1) if policy.prefer_smallest else range(n, 1, -1)
    for size in sizes:
        for idxs in itertools.combinations(range(n), size):
            if not _may_start({kinds[i] for i in idxs}):
                continue
            latents = tuple(pool[i] for i in idxs)
            promisers = [k.promiser for k in latents]
            if len(set(promisers)) != size:
                continue
            if any(not is_part_var(k.session_var) for k in latents):
                continue
            owners: dict[str, set[str]] = {}
            for k in latents:
                for v in k.contract.free_participant_vars:
                    owners.setdefault(v, set()).add(k.promiser)
            names = set(promisers)
            variables = sorted(owners)
            candidates = [sorted(names - owners[v]) for v in variables]
            if any(not c for c in candidates):
                continue
            for assignment in itertools.product(*candidates):
                pi = dict(zip(variables, assignment))
                contracts = {pool[i].promiser: instance(i, pi) for i in idxs}
                if not can_start({p: head_normal(c) for p, c in contracts.items()}):
                    continue
                try:
                    t = make_system(contracts)
                except ContractError:
                    continue
                result = synthesize(t)
                if result.ok and policy_check(result.global_type, policy):
                    return Agreement(latents, tuple(sorted(pi.items())), t, result.global_type)
    return None


def _head_kind(c: Contract) -> Optional[type]:
    """The type of the contract's head-normal form, or None when
    `make_system` refuses the contract whatever its variables become."""
    if c.free_rec_vars or not c.is_guarded:
        return None
    return type(head_normal(c))


def _may_start(kinds: set[Optional[type]]) -> bool:
    """Can an assignment of a subset whose heads are of these kinds pass
    `can_start`? Not when a contract is refused outright, nor when some head
    is live but none sends or none receives: a fully matched sender needs a
    receiver."""
    return None not in kinds and (kinds <= {End} or {SendChoice, RecvChoice} <= kinds)


def find_agreement(
    pool: tuple[LatentContract, ...],
    policy: FusePolicy = DEFAULT_POLICY,
) -> Optional[Agreement]:
    """Search the pool for a fusable subset.

    Subsets are tried largest-first (smallest-first when the policy prefers
    it) and in pool order within a size; participant variables range over
    the subset's own promisers, never the variable's owner. The first subset
    whose instantiated contracts admit a policy-abiding choreography wins,
    which makes fuse deterministic. Returns None when no agreement exists:
    the fuse prefix simply stays blocked.

    Candidates that `synthesize` would reject at its first step are skipped
    before any system is built (`synthesis.can_start`, the test the
    synthesiser itself makes): a subset with a live contract but no send or
    no receive at the head, and an assignment under which no sender has
    every branch matched by its peer's head. Skipping never changes which
    agreement wins, only how fast the search gets there.
    """
    return _search_agreement(tuple(pool), policy)


# --------------------------------------------------------------------------
# Reductions
# --------------------------------------------------------------------------

def apply_step(system: Co2System, step: Step) -> tuple[Co2System, StepLabel]:
    """Fire one step: the reduction rule of its prefix, or a call's unfolding.

    The successor reuses the input's sorted fields and changes only those
    the step touches; only a grown or substituted pool and a new session
    are sorted again.
    """
    actor = step.actor
    proc = system.process(actor)
    items = proc_items(proc)
    item = items[step.item] if step.item < len(items) else None
    if isinstance(item, Call):
        prefix = item  # a call is its own prefix: the step unfolds it
    elif isinstance(item, Sum) and step.branch is not None and step.branch < len(item.branches):
        prefix, cont = item.branches[step.branch]
    else:
        raise ReductionError(f"{actor} has no branch {step.branch} at item {step.item}")
    if _KINDS[type(prefix)] != step.kind:
        raise ReductionError(f"item {step.item} of {actor} is not a {step.kind} step")

    def advance(replacement: Process) -> tuple[tuple[str, Process], ...]:
        new = _replace_item(proc, step.item, replacement)
        return tuple((n, new if n == actor else p) for n, p in system.processes)

    if isinstance(prefix, PTau):
        return replace(system, processes=advance(cont)), StepLabel(actor, "tau")

    if isinstance(prefix, PTell):
        if not is_part_name(prefix.target):
            raise ReductionError(f"tell target {prefix.target!r} is unresolved")
        latent = LatentContract(actor, prefix.session_var, prefix.contract)
        pools = {**dict(system.pools), prefix.target: (*system.pool(prefix.target), latent)}
        out = replace(system, processes=advance(cont), pools=_pools(pools))
        label = StepLabel(actor, "tell", target=prefix.target, session_var=prefix.session_var)
        return out, label

    if isinstance(prefix, PFuse):
        s = next_session_name(system)
        agreement = find_agreement(system.pool(actor), prefix.policy)
        if agreement is None:
            raise ReductionError(f"fuse of {actor} is not enabled: no agreement in the pool")
        sigma = {k.session_var: s for k in agreement.latents}  # each latent's variable -> s
        pi = dict(agreement.pi)
        fused = set(agreement.latents)
        pools = {
            host: [
                LatentContract(k.promiser, k.session_var, subst_parts(k.contract, pi))
                for k in pool
                if not (host == actor and k in fused)
            ]
            for host, pool in system.pools
        }
        out = Co2System(
            # substitution can disturb the canonical branch order, so re-normalize
            tuple((n, normalize_proc(proc_subst(p, sigma, pi))) for n, p in advance(cont)),
            _pools(pools),
            # stipulated contracts plus the empty queue grid
            tuple(sorted({**dict(system.sessions), s: agreement.system}.items())),
            system.definitions,
        )
        report = FuseReport(
            session=s,
            participants=tuple(agreement.system.participants),
            sigma=tuple(sorted(sigma.items())),
            pi=agreement.pi,
            global_type=agreement.global_type,
        )
        return out, StepLabel(actor, "fuse", session=s, fuse=report)

    if isinstance(prefix, PDo):
        if prefix.session not in system.session_names:
            raise ReductionError(f"session {prefix.session!r} is not installed")
        move = MoveLabel(actor, prefix.peer, prefix.sort, prefix.dir)
        try:
            t = contract_step(system.session(prefix.session), move)
        except ContractError as exc:
            raise ReductionError(f"do of {actor} not permitted by the session: {exc}") from exc
        sessions = tuple((n, t if n == prefix.session else u) for n, u in system.sessions)
        out = replace(system, processes=advance(cont), sessions=sessions)
        label = StepLabel(
            actor, "do", session=prefix.session, peer=prefix.peer, sort=prefix.sort, dir=prefix.dir
        )
        return out, label

    try:
        d = system.definition(prefix.name)
    except KeyError:
        raise ReductionError(f"undefined process {prefix.name!r}")
    if len(d.session_params) != len(prefix.session_args) or len(d.part_params) != len(
        prefix.part_args
    ):
        raise ReductionError(f"arity mismatch calling {prefix.name}")
    namer = _Namer(collect_identifiers(system))
    smap = dict(zip(d.session_params, prefix.session_args))
    pmap = dict(zip(d.part_params, prefix.part_args))
    body = _rename(d.body, smap, pmap, namer, system.session_names)
    return replace(system, processes=advance(body)), StepLabel(actor, "call", callee=prefix.name)


# --------------------------------------------------------------------------
# Scheduler
# --------------------------------------------------------------------------

def _step_key(system: Co2System, step: Step) -> tuple:
    item = proc_items(system.process(step.actor))[step.item]
    if step.kind == "call":
        return (step.actor, "call", item.name)
    return (step.actor, step.kind, _prefix_key(item.branches[step.branch][0]))


def run(
    system: Co2System,
    seed: int = 0,
    max_steps: int = 10_000,
    fairness_window: int = 64,
) -> Trace:
    """Drive the system with a seeded, fair random scheduler.

    Each round picks uniformly among the enabled steps, except that a step
    that has been continuously enabled for `fairness_window` rounds is
    served before any younger one. Identical inputs yield identical traces.
    """
    rng = random.Random(seed)
    state = normalize(system)
    ages: dict[tuple, int] = {}
    labels: list[StepLabel] = []
    digests: list[str] = []
    for _ in range(max_steps):
        steps = enabled_steps(state)
        if not steps:
            break
        keyed = [(s, _step_key(state, s)) for s in steps]
        ages = {k: ages.get(k, 0) + 1 for _, k in keyed}
        overdue = [s for s, k in keyed if ages[k] >= fairness_window]
        pool = overdue if overdue else list(steps)
        choice = pool[rng.randrange(len(pool))]
        chosen_key = dict(keyed)[choice]
        state, label = apply_step(state, choice)
        ages.pop(chosen_key, None)
        labels.append(label)
        digests.append(system_digest(state))
    return Trace(tuple(labels), tuple(digests), state)
