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

Process nodes are hash-consed like contracts (`contracts.Interned`) and also
cache their sort key and normal form, so the repr-based state digest, state
hashing and renormalization after a step cost time only for new nodes.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

from .choreo import GlobalType, has_recursion, has_end
from .contracts import (
    Contract,
    ContractError,
    ContractSystem,
    Interned,
    MoveLabel,
    enabled_moves,
    contract_step,
    is_part_name,
    is_part_var,
    make_system,
    subst_parts,
)
from .synthesis import synthesize

PLAIN = "plain"
TERMINATING = "terminating"
RECURSIVE = "recursive"

_MODES = (PLAIN, TERMINATING, RECURSIVE)


class RuntimeError_(Exception):
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

@dataclass(frozen=True, eq=False, init=False, repr=False)
class PTau(Interned):
    __slots__ = ()


@dataclass(frozen=True, eq=False, init=False, repr=False)
class PTell(Interned):
    __slots__ = ("target", "session_var", "contract")
    target: str
    session_var: str
    contract: Contract


@dataclass(frozen=True, eq=False, init=False, repr=False)
class PFuse(Interned):
    __slots__ = ("policy",)
    policy: FusePolicy


@dataclass(frozen=True, eq=False, init=False, repr=False)
class PDo(Interned):
    __slots__ = ("session", "peer", "sort", "dir")
    session: str
    peer: str
    sort: str
    dir: str  # contracts.SEND or contracts.RECV


Prefix = Union[PTau, PTell, PFuse, PDo]


class _Proc(Interned):
    """Process nodes also keep their sort key and normal form, unset until used."""

    __slots__ = ("_sort_key", "_normal")


@dataclass(frozen=True, eq=False, init=False, repr=False)
class PNil(_Proc):
    __slots__ = ()


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Sum(_Proc):
    __slots__ = ("branches",)
    branches: tuple[tuple[Prefix, "Process"], ...]


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Par(_Proc):
    __slots__ = ("parts",)
    parts: tuple["Process", ...]


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Delim(_Proc):
    __slots__ = ("session_vars", "part_vars", "body")
    session_vars: tuple[str, ...]
    part_vars: tuple[str, ...]
    body: "Process"


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Call(_Proc):
    __slots__ = ("name", "session_args", "part_args")
    name: str
    session_args: tuple[str, ...]
    part_args: tuple[str, ...]


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
            raise RuntimeError_(f"{name!r} is not a participant name")
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

def _proc_identifiers(p: Process, out: set[str]) -> None:
    if isinstance(p, Sum):
        for prefix, cont in p.branches:
            if isinstance(prefix, PTell):
                out.add(prefix.target)
                out.add(prefix.session_var)
                out |= prefix.contract.mentioned_participants
            elif isinstance(prefix, PDo):
                out.add(prefix.session)
                out.add(prefix.peer)
                out.add(prefix.sort)
            _proc_identifiers(cont, out)
    elif isinstance(p, Par):
        for part in p.parts:
            _proc_identifiers(part, out)
    elif isinstance(p, Delim):
        out.update(p.session_vars)
        out.update(p.part_vars)
        _proc_identifiers(p.body, out)
    elif isinstance(p, Call):
        out.add(p.name)
        out.update(p.session_args)
        out.update(p.part_args)


def collect_identifiers(system: Co2System) -> set[str]:
    out: set[str] = set()
    for name, p in system.processes:
        out.add(name)
        _proc_identifiers(p, out)
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
    raise RuntimeError_(f"cannot rename {type(p).__name__}")


def proc_subst(p: Process, smap: Mapping[str, str], pmap: Mapping[str, str]) -> Process:
    """Plain substitution over globally unique variables (no scoping)."""
    if isinstance(p, Sum):
        branches = []
        for prefix, cont in p.branches:
            if isinstance(prefix, PTell):
                prefix = PTell(
                    pmap.get(prefix.target, prefix.target),
                    smap.get(prefix.session_var, prefix.session_var),
                    subst_parts(prefix.contract, pmap),
                )
            elif isinstance(prefix, PDo):
                prefix = PDo(
                    smap.get(prefix.session, prefix.session),
                    pmap.get(prefix.peer, prefix.peer),
                    prefix.sort,
                    prefix.dir,
                )
            branches.append((prefix, proc_subst(cont, smap, pmap)))
        return Sum(tuple(branches))
    if isinstance(p, Par):
        return Par(tuple(proc_subst(q, smap, pmap) for q in p.parts))
    if isinstance(p, Call):
        return Call(
            p.name,
            tuple(smap.get(u, u) for u in p.session_args),
            tuple(pmap.get(a, a) for a in p.part_args),
        )
    return p


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
    taken = collect_identifiers(system) - _all_variables(system)
    # variables already advertised into a pool are allocated: process
    # occurrences of the same variable must keep referring to them
    pool_sessions: dict[str, str] = {}
    pool_parts: dict[str, str] = {}
    for _, pool in system.pools:
        for k in pool:
            pool_sessions[k.session_var] = k.session_var
            for v in k.contract.free_participant_vars:
                pool_parts[v] = v
    taken |= set(pool_sessions) | set(pool_parts)
    namer = _Namer(set(taken))
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


def _all_variables(system: Co2System) -> set[str]:
    """Identifiers that the renaming pass may rebind (variables only)."""
    session_names = system.session_names
    ids = collect_identifiers(system)
    fixed = {i for i in ids if is_part_name(i) or i in session_names}
    fixed |= {n for n, _ in system.definitions}
    return ids - fixed


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
        t = system.session(prefix.session)
        return MoveLabel(actor, prefix.peer, prefix.sort, prefix.dir) in enabled_moves(t)
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
    sigma: tuple[tuple[str, str], ...]  # session variables -> the one fresh name
    pi: tuple[tuple[str, str], ...]  # participant variables -> names
    system: ContractSystem
    global_type: GlobalType


def policy_check(g: GlobalType, policy: FusePolicy) -> bool:
    """Does the synthesised choreography satisfy the broker's policy?"""
    if len(g.participants) < policy.min_participants:
        return False
    if policy.mode == TERMINATING and has_recursion(g):
        return False
    if policy.mode == RECURSIVE and has_end(g):
        return False
    return True


@lru_cache(maxsize=4096)
def _search_agreement(
    pool: tuple[LatentContract, ...], policy: FusePolicy
) -> Optional[Agreement]:
    n = len(pool)
    sizes: Iterable[int] = range(2, n + 1) if policy.prefer_smallest else range(n, 1, -1)
    for size in sizes:
        for idxs in itertools.combinations(range(n), size):
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
                try:
                    t = make_system(
                        {k.promiser: subst_parts(k.contract, pi) for k in latents}
                    )
                except ContractError:
                    continue
                result = synthesize(t)
                if result.ok and policy_check(result.global_type, policy):
                    return Agreement(
                        latents,
                        (),
                        tuple(sorted(pi.items())),
                        t,
                        result.global_type,
                    )
    return None


def find_agreement(
    pool: tuple[LatentContract, ...],
    policy: FusePolicy = DEFAULT_POLICY,
    session_name: str = "s",
) -> Optional[Agreement]:
    """Search the pool for a fusable subset.

    Subsets are tried largest-first (smallest-first when the policy prefers
    it) and in pool order within a size; participant variables range over
    the subset's own promisers, never the variable's owner. The first subset
    whose instantiated contracts admit a policy-abiding choreography wins,
    which makes fuse deterministic. Returns None when no agreement exists:
    the fuse prefix simply stays blocked.
    """
    hit = _search_agreement(tuple(pool), policy)
    if hit is None:
        return None
    sigma = tuple(sorted((k.session_var, session_name) for k in hit.latents))
    return Agreement(hit.latents, sigma, hit.pi, hit.system, hit.global_type)


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
        raise RuntimeError_(f"{actor} has no branch {step.branch} at item {step.item}")
    if _KINDS[type(prefix)] != step.kind:
        raise RuntimeError_(f"item {step.item} of {actor} is not a {step.kind} step")

    def advance(replacement: Process) -> tuple[tuple[str, Process], ...]:
        new = _replace_item(proc, step.item, replacement)
        return tuple((n, new if n == actor else p) for n, p in system.processes)

    if isinstance(prefix, PTau):
        return replace(system, processes=advance(cont)), StepLabel(actor, "tau")

    if isinstance(prefix, PTell):
        if not is_part_name(prefix.target):
            raise RuntimeError_(f"tell target {prefix.target!r} is unresolved")
        latent = LatentContract(actor, prefix.session_var, prefix.contract)
        pools = {**dict(system.pools), prefix.target: (*system.pool(prefix.target), latent)}
        out = replace(system, processes=advance(cont), pools=_pools(pools))
        label = StepLabel(actor, "tell", target=prefix.target, session_var=prefix.session_var)
        return out, label

    if isinstance(prefix, PFuse):
        s = next_session_name(system)
        agreement = find_agreement(system.pool(actor), prefix.policy, s)
        if agreement is None:
            raise RuntimeError_(f"fuse of {actor} is not enabled: no agreement in the pool")
        sigma = dict(agreement.sigma)
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
            raise RuntimeError_(f"session {prefix.session!r} is not installed")
        move = MoveLabel(actor, prefix.peer, prefix.sort, prefix.dir)
        try:
            t = contract_step(system.session(prefix.session), move)
        except ContractError as exc:
            raise RuntimeError_(f"do of {actor} not permitted by the session: {exc}") from exc
        sessions = tuple((n, t if n == prefix.session else u) for n, u in system.sessions)
        out = replace(system, processes=advance(cont), sessions=sessions)
        label = StepLabel(
            actor, "do", session=prefix.session, peer=prefix.peer, sort=prefix.sort, dir=prefix.dir
        )
        return out, label

    try:
        d = system.definition(prefix.name)
    except KeyError:
        raise RuntimeError_(f"undefined process {prefix.name!r}")
    if len(d.session_params) != len(prefix.session_args) or len(d.part_params) != len(
        prefix.part_args
    ):
        raise RuntimeError_(f"arity mismatch calling {prefix.name}")
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
