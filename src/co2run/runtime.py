"""The contract-oriented process calculus: systems, reductions, scheduler.

A world holds one process per participant, pools of advertised (latent)
contracts, and the sessions created so far. Processes advance through four
prefixes: internal steps, advertising a contract to a broker (tell), asking
a broker to create a session out of its pool (fuse), and performing a
contractual action inside a session (do). Fuse searches the pool for a
subset of latent contracts that can be assigned a choreography once their
participant variables are instantiated; the new session starts from those
stipulated contracts plus an empty queue grid, and the chosen substitutions
are applied across the whole system: pi, of participant variables, to every
process and pool; sigma, of the fused session variables, to every process.
A latent told on a variable sigma binds leaves every pool, for it could
never fuse into a fresh session, and a tell on an installed session's name
leaves no latent.

Systems are immutable; every reduction returns a fresh value. Delimitation
is compiled away: loading renames all bound and block-local variables to
globally unique identifiers, so substitutions can be applied globally.

Process and prefix nodes are hash-consed like contracts (`contracts.Interned`)
and carry, built from their children's, `names` (the identifiers they
mention) and their free session and participant variables; process nodes
also cache their sort key and normal form. So minting fresh names,
substitution, the repr-based state digest, state hashing and
renormalization after a step cost time only for new nodes. This module alone
knows the binding rules: `_rename` resolves scopes, and substitution and the
parser's definition checks read the cached facts.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Mapping, Optional, Sequence, Union

from .choreo import GlobalType
from .contracts import (
    Contract,
    ContractSystem,
    End,
    Frozen,
    Interned,
    MoveLabel,
    RecvChoice,
    SendChoice,
    _lookup,
    contract_step,
    descend,
    each,
    fold,
    frozen_union,
    head_normal,
    is_part_name,
    is_part_var,
    make_system,
    next_moves,
    post_order,
    subst_parts,
)
from .synthesis import answered, can_start, peer_actions, synthesize

PLAIN = "plain"
TERMINATING = "terminating"
RECURSIVE = "recursive"

FUSE_MODES = (PLAIN, TERMINATING, RECURSIVE)


class ReductionError(Exception):
    """An ill-formed system or a reduction that is not enabled."""


@dataclass(frozen=True)
class FusePolicy:
    min_participants: int = 2
    mode: str = PLAIN
    prefer_smallest: bool = False

    def __post_init__(self) -> None:
        if self.mode not in FUSE_MODES:
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
    session references, names included, that no enclosing `Delim` binds)
    and `free_participant_vars` (the same for lowercase participant
    references, a told contract's too)."""

    __slots__ = ("names", "free_session_vars", "free_participant_vars")

    def _derive(self) -> None:
        self._facts(_NONE, _NONE, _NONE)

    def _facts(self, names, session_vars, participant_vars) -> None:
        _set(self, "names", names)
        _set(self, "free_session_vars", session_vars)
        _set(self, "free_participant_vars", participant_vars)

    def _join(self, nodes: Sequence["_Named"]) -> None:
        """Attach the union of the nodes' facts."""
        for slot in ("names", "free_session_vars", "free_participant_vars"):
            _set(self, slot, frozen_union(*(getattr(q, slot) for q in nodes)))


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
        self._facts(names, frozenset((self.session_var,)), parts)


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
                    peer)


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
                    b.free_participant_vars.difference(self.part_vars))


class Call(_Proc):
    __slots__ = ("name", "session_args", "part_args")
    name: str
    session_args: tuple[str, ...]
    part_args: tuple[str, ...]

    def _derive(self) -> None:
        sargs, pargs = self.session_args, self.part_args
        self._facts(frozenset((self.name, *sargs, *pargs)), frozenset(sargs),
                    frozenset(a for a in pargs if not is_part_name(a)))


Process = Union[PNil, Sum, Par, Delim, Call]

NIL = PNil()


class ProcDef(Frozen):
    """`_unfoldings` memoises the renamed body per argument tuple when renaming
    mints no name (no `Delim`, only parameters free); else it is None."""

    __slots__ = ("session_params", "part_params", "body", "_unfoldings")
    session_params: tuple[str, ...]
    part_params: tuple[str, ...]
    body: Process

    def _derive(self) -> None:
        closed = (self.body.free_session_vars.issubset(self.session_params)
                  and self.body.free_participant_vars.issubset(self.part_params)
                  and not _binds(self.body))
        _set(self, "_unfoldings", {} if closed else None)


def _binds(p: Process) -> bool:
    """Does p hold a `Delim`?"""
    return any(isinstance(q, Delim) for q in post_order(p, lambda q: not isinstance(q, _Proc)))


class LatentContract(Frozen):
    __slots__ = ("promiser", "session_var", "contract")
    promiser: str
    session_var: str
    contract: Contract


class Co2System(Frozen):
    __slots__ = ("processes", "pools", "sessions", "definitions")
    processes: tuple[tuple[str, Process], ...]
    pools: tuple[tuple[str, tuple[LatentContract, ...]], ...]
    sessions: tuple[tuple[str, ContractSystem], ...]
    definitions: tuple[tuple[str, ProcDef], ...]

    @property
    def session_names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.sessions)

    def process(self, name: str) -> Process:
        return _lookup(self.processes, name)

    def pool(self, host: str) -> tuple[LatentContract, ...]:
        for n, k in self.pools:
            if n == host:
                return k
        return ()

    def session(self, name: str) -> ContractSystem:
        return _lookup(self.sessions, name)

    def definition(self, name: str) -> ProcDef:
        return _lookup(self.definitions, name)


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
    keep=None,
) -> Process:
    """Resolve every variable through the scope maps, minting bindings for
    unseen block-local variables and dropping delimiters along the way; a
    subtree `keep` holds for stays as it is. Top-down, left to right, by
    `descend`, so names are minted in the order they are met."""

    def sref(u: str, smap: dict[str, str]) -> str:
        if u in smap:
            return smap[u]
        if u in session_names:
            return u
        smap[u] = namer.fresh(u)
        return smap[u]

    def pref(a: str, pmap: dict[str, str]) -> str:
        if a in pmap:
            return pmap[a]
        if is_part_name(a):
            return a
        pmap[a] = namer.fresh(a)
        return pmap[a]

    def walk(p: Process, smap: dict[str, str], pmap: dict[str, str]):
        if isinstance(p, PNil) or keep is not None and keep(p):
            return p
        if isinstance(p, Sum):
            branches = []
            for prefix, cont in p.branches:
                if isinstance(prefix, PTell):
                    cvars = prefix.contract.free_participant_vars
                    prefix = PTell(pref(prefix.target, pmap), sref(prefix.session_var, smap),
                                   subst_parts(prefix.contract, {v: pref(v, pmap) for v in cvars}))
                elif isinstance(prefix, PDo):
                    prefix = PDo(sref(prefix.session, smap), pref(prefix.peer, pmap),
                                 prefix.sort, prefix.dir)
                branches.append((prefix, (yield walk(cont, smap, pmap))))
            return Sum(tuple(branches))
        if isinstance(p, Par):
            parts = []
            for q in p.parts:
                parts.append((yield walk(q, smap, pmap)))
            return Par(tuple(parts))
        if isinstance(p, Delim):  # its variables get fresh names, the session ones first
            inner_s = {**smap, **{v: namer.fresh(v) for v in p.session_vars}}
            inner_p = {**pmap, **{v: namer.fresh(v) for v in p.part_vars}}
            return (yield walk(p.body, inner_s, inner_p))
        if isinstance(p, Call):
            return Call(p.name, tuple(sref(u, smap) for u in p.session_args),
                        tuple(pref(a, pmap) for a in p.part_args))
        raise ReductionError(f"cannot rename {type(p).__name__}")

    return descend(walk(p, smap, pmap))


def proc_subst(p: Process, smap: Mapping[str, str], pmap: Mapping[str, str]) -> Process:
    """Apply the substitutions of session variables (smap) and participant
    variables (pmap) at once: a renaming whose maps send every other free
    variable of p to itself, so no name is minted.

    p must hold no `Delim`, as a normalized process does: every reference in
    it is then free. A subtree whose free variables include no key of
    either map is returned as it is."""

    def unchanged(q: Process) -> bool:
        return (smap.keys().isdisjoint(q.free_session_vars)
                and pmap.keys().isdisjoint(q.free_participant_vars))

    if unchanged(p):
        return p
    total_s = {u: smap.get(u, u) for u in p.free_session_vars}
    total_p = {a: pmap.get(a, a) for a in p.free_participant_vars}
    return _rename(p, total_s, total_p, _Namer(set()), _NONE, unchanged)


# --------------------------------------------------------------------------
# Structural normalization
# --------------------------------------------------------------------------

def _proc_key(p: Process) -> tuple:
    """p's sort key, cached in each process node, built children first."""
    return getattr(p, "_sort_key", None) or fold(p, _key_step, _known_key)


def _known_key(q) -> Optional[tuple]:  # a prefix is keyed with its sum: it is not entered
    return getattr(q, "_sort_key", None) if isinstance(q, _Proc) else ()


def _key_step(q: Process, got):
    if isinstance(q, Sum):
        keys = []
        for pr, c in q.branches:
            keys.append((_prefix_key(pr), (yield got(c))))
        key: tuple = (1, tuple(keys))
    elif isinstance(q, Par):
        key = (2, tuple((yield from each(got, q.parts))))
    elif isinstance(q, Call):
        key = (3, q.name, q.session_args, q.part_args)
    else:
        key = (0,) if isinstance(q, PNil) else (4, repr(q))
    _set(q, "_sort_key", key)
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
    are normal, so renormalizing a term changed in one place sorts one level.
    Only sums and parallels change; their parts are normalized first."""
    return _known_normal(p) or fold(p, _normal_step, _known_normal)


def _known_normal(q) -> Optional[Process]:
    """q's normal form once known; a nil, call, delimitation or prefix is its own."""
    n = getattr(q, "_normal", None) if isinstance(q, (Sum, Par)) else True
    return q if n is True else n


def _normal_step(q: Process, got):
    if isinstance(q, Par):
        parts: list[Process] = []
        for r in (yield from each(got, q.parts)):
            if isinstance(r, Par):
                parts.extend(r.parts)
            elif not isinstance(r, PNil):
                parts.append(r)
        n = Par(tuple(sorted(parts, key=_proc_key))) if len(parts) > 1 else \
            parts[0] if parts else NIL
    else:
        branches = []
        for pr, c in q.branches:
            branches.append((pr, (yield got(c))))
        branches.sort(key=lambda b: (_prefix_key(b[0]), _proc_key(b[1])))
        n = Sum(tuple(branches)) if branches else NIL
    _set(n, "_normal", True)
    if n is not q:
        _set(q, "_normal", n)
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


def _prefix_enabled(system: Co2System, actor: str, prefix: Union[Prefix, Call]) -> bool:
    """The one premise of the step firing `prefix`; a call, its own prefix,
    needs a definition with matching arities."""
    if isinstance(prefix, PTau):
        return True
    if isinstance(prefix, PTell):
        return is_part_name(prefix.target)
    if isinstance(prefix, PFuse):
        return find_agreement(system.pool(actor), prefix.policy) is not None
    if isinstance(prefix, PDo):
        if is_part_name(prefix.peer):
            for name, t in system.sessions:
                if name == prefix.session:
                    move = MoveLabel(actor, prefix.peer, prefix.sort, prefix.dir)
                    return any(m == move for m, _ in next_moves(t, actor))
        return False
    return any(n == prefix.name and len(d.session_params) == len(prefix.session_args)
               and len(d.part_params) == len(prefix.part_args) for n, d in system.definitions)


# the step kind of each prefix, and of a call's unfolding
_KINDS = {PTau: "tau", PTell: "tell", PFuse: "fuse", PDo: "do", Call: "call"}


def enabled_steps(system: Co2System, participant: Optional[str] = None) -> tuple[Step, ...]:
    """The enabled steps, participant by participant; only `participant`'s
    when one is named."""
    steps: list[Step] = []
    for actor, proc in system.processes:
        if participant is not None and actor != participant:
            continue
        for i, item in enumerate(proc_items(proc)):
            if isinstance(item, Call) and _prefix_enabled(system, actor, item):
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
    # per latent: head-normal form (None: refused whatever pi, as is one naming
    # its promiser, pi never mapping a variable to its owner), variables, peers
    heads = [None if k.contract.free_rec_vars or not k.contract.is_guarded
             or k.promiser in k.contract.mentioned_participants
             else head_normal(k.contract) for k in pool]
    variables_of = [sorted(k.contract.free_participant_vars) for k in pool]
    actions: dict[int, tuple] = {}  # index -> peer_actions, as subsets need them
    instances: dict[tuple, Contract] = {}  # (index, values of its variables) -> contract

    def instance(i: int, pi: dict[str, str]) -> Contract:
        key = (i, *(pi[v] for v in variables_of[i]))
        c = instances.get(key)
        if c is None:
            c = instances[key] = subst_parts(pool[i].contract, pi)
        return c

    def doomed(idxs: Sequence[int], names: set[str], variables: list[str], pi) -> bool:
        """Does pi leave a head unanswered whatever its completion? An unfixed
        variable, and a peer set that still names one, may stand for any name."""
        actions.update((i, peer_actions(pool[i].contract)) for i in idxs if i not in actions)
        acts = {pool[i].promiser: [names if any(map(is_part_var, got)) else got
                                   for got in ({pi.get(r, r) for r in a} for a in actions[i])]
                for i in idxs}
        acts.update((v, acts[pi[v]] if v in pi else (names, names)) for v in variables)
        return not all(answered(pool[i].promiser, heads[i], acts) for i in idxs)

    sizes: Iterable[int] = range(2, n + 1) if policy.prefer_smallest else range(n, 1, -1)
    for size in sizes:
        for idxs in itertools.combinations(range(n), size):
            # can_start never passes a refused contract, nor live heads lacking a send or a receive
            kinds = {type(heads[i]) for i in idxs}
            if type(None) in kinds or not (kinds <= {End} or {SendChoice, RecvChoice} <= kinds):
                continue
            latents = tuple(pool[i] for i in idxs)
            names = {k.promiser for k in latents}
            if len(names) != size or any(not is_part_var(k.session_var) for k in latents):
                continue
            owners: dict[str, set[str]] = {}
            for k in latents:
                for v in k.contract.free_participant_vars:
                    owners.setdefault(v, set()).add(k.promiser)
            variables = sorted(owners)
            candidates = [sorted(names - owners[v]) for v in variables]
            if any(not c for c in candidates):
                continue
            for pi in _assignments(variables, candidates, partial(doomed, idxs, names, variables)):
                contracts = {pool[i].promiser: instance(i, pi) for i in idxs}
                if not can_start({p: head_normal(c) for p, c in contracts.items()}):
                    continue
                t = make_system(contracts)
                result = synthesize(t)
                if result.ok and policy_check(result.global_type, policy):
                    return Agreement(latents, tuple(sorted(pi.items())), t, result.global_type)
    return None


def _assignments(variables: Sequence[str], candidates: Sequence[Sequence[str]], refuses):
    """`itertools.product(*candidates)` as assignments to `variables`, less the
    completions of each nonempty prefix that `refuses`: yields the one dict."""
    pi: dict[str, str] = {}
    tried = [0]  # per fixed depth, the candidates tried
    while tried:
        j = len(tried) - 1
        if j == len(variables):
            yield pi
            tried.pop()
        elif tried[j] == len(candidates[j]):
            tried.pop()
            del pi[variables[j]]
        else:
            pi[variables[j]] = candidates[j][tried[j]]
            tried[j] += 1
            if not refuses(pi):
                tried.append(0)


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

    Candidates that `synthesize` is sure to reject are skipped unbuilt, by
    its own tests `synthesis.can_start` and `synthesis.answered`, and so are
    contracts `make_system` refuses whatever the assignment. `answered`
    runs each time the walk over assignments (in `itertools.product` order)
    fixes a variable; a prefix that fails skips all its completions. Skipping
    never changes which agreement wins, only how fast; there is no budget.
    """
    return _search_agreement(tuple(pool), policy)


# --------------------------------------------------------------------------
# Reductions
# --------------------------------------------------------------------------

def apply_step(system: Co2System, step: Step) -> tuple[Co2System, StepLabel]:
    """Fire one step: the reduction rule of its prefix, or a call's unfolding.
    A step `enabled_steps` does not list raises ReductionError: one whose
    item, branch or kind is wrong, or whose prefix `_prefix_enabled` refuses.

    The successor reuses the input's sorted fields and changes only those
    the step touches; only a grown or substituted pool and a new session
    are sorted again.
    """
    actor = step.actor
    proc = system.process(actor)
    items = proc_items(proc)
    item = items[step.item] if step.item in range(len(items)) else None
    if isinstance(item, Call):
        prefix = item  # a call is its own prefix: the step unfolds it
    elif isinstance(item, Sum) and step.branch in range(len(item.branches)):
        prefix, cont = item.branches[step.branch]
    else:
        raise ReductionError(f"{actor} has no branch {step.branch} at item {step.item}")
    if _KINDS[type(prefix)] != step.kind:
        raise ReductionError(f"item {step.item} of {actor} is not a {step.kind} step")
    if not _prefix_enabled(system, actor, prefix):
        raise ReductionError(f"the {step.kind} step of {actor} at item {step.item} is not enabled")

    def advance(replacement: Process) -> tuple[tuple[str, Process], ...]:
        new = _replace_item(proc, step.item, replacement)
        return tuple((n, new if n == actor else p) for n, p in system.processes)

    if isinstance(prefix, PTau):
        return system.replace(processes=advance(cont)), StepLabel(actor, "tau")

    if isinstance(prefix, PTell):
        pools = system.pools
        if prefix.session_var not in system.session_names:  # else the latent could never fuse
            latent = LatentContract(actor, prefix.session_var, prefix.contract)
            pools = _pools({**dict(pools), prefix.target: (*system.pool(prefix.target), latent)})
        out = system.replace(processes=advance(cont), pools=pools)
        label = StepLabel(actor, "tell", target=prefix.target, session_var=prefix.session_var)
        return out, label

    if isinstance(prefix, PFuse):
        s = next_session_name(system)
        agreement = find_agreement(system.pool(actor), prefix.policy)
        sigma = {k.session_var: s for k in agreement.latents}  # each latent's variable -> s
        pi = dict(agreement.pi)
        # the fused latents, and any other latent told on a variable sigma binds, leave
        pools = {
            host: [LatentContract(k.promiser, k.session_var, subst_parts(k.contract, pi))
                   for k in pool if k.session_var not in sigma]
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
        move = MoveLabel(actor, prefix.peer, prefix.sort, prefix.dir)
        t = contract_step(system.session(prefix.session), move)
        sessions = tuple((n, t if n == prefix.session else u) for n, u in system.sessions)
        out = system.replace(processes=advance(cont), sessions=sessions)
        label = StepLabel(
            actor, "do", session=prefix.session, peer=prefix.peer, sort=prefix.sort, dir=prefix.dir
        )
        return out, label

    d = system.definition(prefix.name)
    memo, key = d._unfoldings, (prefix.session_args, prefix.part_args)
    body = memo.get(key) if memo is not None else None
    if body is None:
        namer = _Namer(collect_identifiers(system))
        smap = dict(zip(d.session_params, prefix.session_args))
        pmap = dict(zip(d.part_params, prefix.part_args))
        body = _rename(d.body, smap, pmap, namer, system.session_names)
        if memo is not None:
            memo[key] = body
    return system.replace(processes=advance(body)), StepLabel(actor, "call", callee=prefix.name)


def touched(system: Co2System, label: StepLabel) -> Iterable[str]:
    """The participants whose enabled steps the step labelled `label` can
    have changed, `system` being the state it reached. A tau or a call
    changes only the actor's process, a tell also its target's pool, a do
    also its session, and a fuse every process, pool and the session names;
    `_prefix_enabled` reads only the actor's process, `pool(actor)`, the
    session a do names and the definition a call names, which no step
    changes."""
    if label.kind == "fuse":
        return [n for n, _ in system.processes]
    if label.kind == "tell":
        return {label.actor, label.target}
    if label.kind == "do":
        return system.session(label.session).participants
    return (label.actor,)


# --------------------------------------------------------------------------
# Scheduler
# --------------------------------------------------------------------------

class Revisits:
    """What one walk, a `run` or a replay, derived at the states it reaches
    more than once.

    `record(state)` hands out the dict in which the walk keeps what it
    derives at `state`. On a first visit that is a throwaway dict, and the
    state is remembered only by its hash, cached when it was built; from the
    second visit on it is the dict kept under the state itself. So a walk
    that never returns keeps no state, and a looping one derives each of its
    states at most twice. Two states sharing a hash only keep a record that
    is not needed.
    """

    __slots__ = ("seen", "kept")

    def __init__(self) -> None:
        self.seen: set[int] = set()  # the hash of every state met
        self.kept: dict[Co2System, dict] = {}  # state met again -> its record

    def record(self, state: Co2System) -> dict:
        h = hash(state)
        if h not in self.seen:
            self.seen.add(h)
            return {}
        got = self.kept.get(state)
        if got is None:
            got = self.kept[state] = {}
        return got


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

    Each participant's enabled steps are kept, and after a step only those
    of the participants it `touched` are recomputed: the actor, a tell's
    target, the participants of a do's session, everyone after a fuse.
    At a state the run reaches again, the enabled steps and the chosen
    step's successor come from its `Revisits` record.
    """
    rng = random.Random(seed)
    state = normalize(system)
    own = {actor: [] for actor, _ in state.processes}  # actor -> its (step, key) pairs, in order
    ages: dict[tuple, int] = {}
    labels: list[StepLabel] = []
    digests: list[str] = []
    stale: Iterable[str] = own  # at first, every participant
    revisits = Revisits()
    for _ in range(max_steps):
        known = revisits.record(state)  # actor -> its pairs, step -> (successor, label)
        for actor in stale:
            if actor in own:
                pairs = known.get(actor)
                if pairs is None:
                    pairs = known[actor] = [(s, _step_key(state, s))
                                            for s in enabled_steps(state, actor)]
                own[actor] = pairs
        keyed = [sk for pairs in own.values() for sk in pairs]
        if not keyed:
            break
        ages = {k: ages.get(k, 0) + 1 for _, k in keyed}
        pool = [sk for sk in keyed if ages[sk[1]] >= fairness_window] or keyed
        choice, chosen_key = pool[rng.randrange(len(pool))]
        fired = known.get(choice)
        if fired is None:
            fired = known[choice] = apply_step(state, choice)
        state, label = fired
        stale = touched(state, label)
        ages.pop(chosen_key, None)
        labels.append(label)
        digests.append(system_digest(state))
    return Trace(tuple(labels), tuple(digests), state)
