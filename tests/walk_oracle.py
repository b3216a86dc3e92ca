"""The recursive term walkers the library had before every walker ran on
`contracts.fold` or `contracts.descend`: each recursed once per node level,
so each was bound by Python's recursion limit. Kept verbatim, with the
imports they need, as the oracle the differential walker tests compare the
library against. Two changes: each calls its own copies, and the copies of
`_proc_key` and `normalize_proc` keep their results in dicts of their own,
not in the nodes' `_sort_key` and `_normal` slots, so the library's caches
stay the library's. A `repr` oracle is `corpus.reference_repr`.
`synthesize` also derives a configuration again on every path that
reaches it, so it is the differential oracle of the library's memo of
recursion-free configurations and of how that memo charges the bound.
"""
from __future__ import annotations

import itertools

from co2run.choreo import (
    GEnd,
    GEND,
    GChoice,
    GlobalType,
    GMsg,
    GPar,
    GRec,
    GRecVar,
    ProjectionError,
    _merge_external,
    _merge_internal,
    gchoice,
    gpar,
)
from co2run.contracts import (
    END,
    SEND,
    Contract,
    ContractError,
    ContractSystem,
    End,
    Rec,
    RecVar,
    RecvChoice,
    SendChoice,
    head_normal,
    is_part_name,
    recv,
    send,
)
from co2run.frontend.emit import _args, _require, _text
from co2run.runtime import (
    NIL,
    Call,
    Delim,
    PDo,
    PFuse,
    PNil,
    PTau,
    PTell,
    Par,
    Process,
    ReductionError,
    Sum,
    _Namer,
)
from co2run.synthesis import (
    MIXED_RACE,
    NOT_PROJECTABLE,
    STUCK,
    UNBOUNDED,
    Config,
    SynthResult,
    _components,
    _Fail,
    _senders,
)

_NONE: frozenset[str] = frozenset()


# --------------------------------------------------------------------------
# contracts
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


def subst_parts(c: Contract, mapping) -> Contract:
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


# --------------------------------------------------------------------------
# choreo
# --------------------------------------------------------------------------

def project(g: GlobalType, who: str) -> Contract:
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
        if g.decider is None:
            raise ProjectionError("choice without a unique decider")
        projs = [project(b, who) for b in g.branches]
        if who == g.decider:
            return _merge_internal(projs, who)
        return _merge_external(projs, who)
    raise ProjectionError(f"cannot project {type(g).__name__}")


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
            if node.decider is None:
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


def _struct_key(g: GlobalType, env: dict[str, int]) -> tuple:
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
    counter = itertools.count()

    def walk(node: GlobalType, levels: dict[str, int], names: dict[str, str]) -> GlobalType:
        if isinstance(node, GRecVar):
            return GRecVar(names.get(node.var, node.var))
        if isinstance(node, GRec):
            fresh = f"x{next(counter)}"
            inner_levels = {**levels, node.var: len(levels)}
            return GRec(fresh, walk(node.body, inner_levels, {**names, node.var: fresh}))
        if isinstance(node, GMsg):
            return GMsg(node.src, node.dst, node.sort, walk(node.cont, levels, names))
        if isinstance(node, (GChoice, GPar)):
            branches = sorted(node.branches, key=lambda b: _struct_key(b, levels))
            return type(node)(tuple(walk(b, levels, names) for b in branches))
        return node

    return walk(g, {}, {})


# --------------------------------------------------------------------------
# synthesis
# --------------------------------------------------------------------------

def synthesize(system: ContractSystem, max_configs: int = 10_000) -> SynthResult:
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
        env[key] = var  # the path's binders: added here, removed on the way back
        inner_used: set[str] = set()
        g = _step(key, env, inner_used)
        del env[key]
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
            raise _Fail(
                MIXED_RACE,
                f"branch {name}->{to}:{sort} races ahead of any ready receiver",
                config,
            )
        waiting = ", ".join(n for n, c in config if not isinstance(c, End))
        raise _Fail(STUCK, f"no interaction can fire; waiting: {waiting}", config)

    try:
        raw = go(norm(system.contracts), {}, set())
    except _Fail as f:
        return f.args[0]

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


# --------------------------------------------------------------------------
# runtime
# --------------------------------------------------------------------------

def _binds(p: Process) -> bool:
    """Does p hold a `Delim`?"""
    if isinstance(p, Sum):
        return any(_binds(cont) for _, cont in p.branches)
    return isinstance(p, Delim) or isinstance(p, Par) and any(map(_binds, p.parts))


def _rename(p, smap, pmap, namer, session_names):
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


def proc_subst(p, smap, pmap):
    svars, pvars = p.free_session_vars, p.free_participant_vars
    if smap.keys().isdisjoint(svars) and pmap.keys().isdisjoint(pvars):
        return p
    smap = {u: smap.get(u, u) for u in svars}
    pmap = {a: pmap.get(a, a) for a in pvars}
    return _rename(p, smap, pmap, _Namer(set()), _NONE)


_sort_keys: dict = {}
_normals: dict = {}


def _proc_key(p: Process) -> tuple:
    key = _sort_keys.get(p)
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
        _sort_keys[p] = key
    return key


def _prefix_key(pr) -> tuple:
    if isinstance(pr, PTau):
        return (0,)
    if isinstance(pr, PTell):
        return (1, pr.target, pr.session_var, repr(pr.contract))
    if isinstance(pr, PFuse):
        return (2, pr.policy.min_participants, pr.policy.mode, pr.policy.prefer_smallest)
    return (3, pr.session, pr.peer, pr.sort, pr.dir)


def normalize_proc(p: Process) -> Process:
    n = _normals.get(p)
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
    _normals[n] = True
    if n is not p:
        _normals[p] = n
    return n


# --------------------------------------------------------------------------
# frontend.emit
# --------------------------------------------------------------------------

def render_contract(c: Contract) -> str:
    if isinstance(c, End):
        return "end"
    if isinstance(c, RecVar):
        return c.var
    if isinstance(c, Rec):
        return f"rec {c.var} . {render_contract(c.body)}"
    if isinstance(c, SendChoice):
        parts = [_branch_text(f"{to}!{sort}", cont) for to, sort, cont in c.branches]
        return " (+) ".join(parts)
    parts = [_branch_text(f"{c.source}?{sort}", cont) for sort, cont in c.branches]
    return " + ".join(parts)


def _branch_text(head: str, cont: Contract) -> str:
    if isinstance(cont, End):
        return head
    tail = render_contract(cont)
    if _needs_parens(cont):
        tail = f"({tail})"
    return f"{head} . {tail}"


def _needs_parens(c: Contract) -> bool:
    if isinstance(c, SendChoice):
        return len(c.branches) > 1
    if isinstance(c, RecvChoice):
        return len(c.branches) > 1
    return isinstance(c, Rec)


def _dangling_rec(g: GlobalType) -> bool:
    if isinstance(g, GRec):
        return True
    if isinstance(g, GMsg):
        if isinstance(g.cont, (GChoice, GPar)):
            return False  # rendered in parentheses
        return _dangling_rec(g.cont)
    if isinstance(g, GPar):
        return _dangling_rec(g.branches[-1])
    return False


def render_global(g: GlobalType) -> str:
    if isinstance(g, GEnd):
        return "end"
    if isinstance(g, GRecVar):
        return g.var
    if isinstance(g, GRec):
        return f"rec {g.var} . {render_global(g.body)}"
    if isinstance(g, GMsg):
        head = f"{g.src} -> {g.dst} : {g.sort}"
        if isinstance(g.cont, GEnd):
            return head
        tail = render_global(g.cont)
        if isinstance(g.cont, (GChoice, GPar)):
            tail = f"({tail})"
        return f"{head} ; {tail}"
    sep, nested = (" \\/ ", GChoice) if isinstance(g, GChoice) else (" || ", (GChoice, GPar))
    last = len(g.branches) - 1
    bits = []
    for i, b in enumerate(g.branches):
        text = render_global(b)
        if isinstance(b, nested) or i < last and _dangling_rec(b):
            text = f"({text})"
        bits.append(text)
    return sep.join(bits)


def global_to_json(g: GlobalType) -> dict:
    if isinstance(g, GEnd):
        return {"kind": "end"}
    if isinstance(g, GRecVar):
        return {"kind": "var", "var": g.var}
    if isinstance(g, GRec):
        return {"kind": "rec", "var": g.var, "body": global_to_json(g.body)}
    if isinstance(g, GMsg):
        return {
            "kind": "msg",
            "from": g.src,
            "to": g.dst,
            "sort": g.sort,
            "cont": global_to_json(g.cont),
        }
    if isinstance(g, GChoice):
        return {"kind": "choice", "branches": [global_to_json(b) for b in g.branches]}
    return {"kind": "par", "branches": [global_to_json(b) for b in g.branches]}


def global_from_json(data: dict) -> GlobalType:
    if not isinstance(data, dict):
        raise ValueError(f"a global-type node is not an object: {data!r}")
    kind = _text(data, "kind")
    if kind == "end":
        return GEND
    if kind == "var":
        return GRecVar(_text(data, "var"))
    if kind == "rec":
        return GRec(_text(data, "var"), global_from_json(data["body"]))
    if kind == "msg":
        src, dst, sort = (_text(data, key) for key in ("from", "to", "sort"))
        return GMsg(src, dst, sort, global_from_json(data["cont"]))
    if kind in ("choice", "par"):
        branches = data["branches"]
        _require(isinstance(branches, list), "global-type branches are not a list", branches)
        _require(len(branches) >= 2, f"a {kind} needs two or more branches", branches)
        return (GChoice if kind == "choice" else GPar)(tuple(map(global_from_json, branches)))
    raise ValueError(f"unknown global-type node {kind!r}")


def render_prefix(p) -> str:
    if isinstance(p, PTau):
        return "tau"
    if isinstance(p, PTell):
        return f"tell {p.target} @{p.session_var} {{ {render_contract(p.contract)} }}"
    if isinstance(p, PFuse):
        opts = []
        if p.policy.min_participants != 2:
            opts.append(f"min={p.policy.min_participants}")
        if p.policy.mode != "plain":
            opts.append(p.policy.mode)
        if p.policy.prefer_smallest:
            opts.append("smallest")
        return f"fuse({', '.join(opts)})" if opts else "fuse"
    mark = "!" if p.dir == SEND else "?"
    return f"do {p.session} {p.peer}{mark}{p.sort}"


def _operand(p: Process, in_par: bool = False) -> str:
    text = render_process(p)
    if isinstance(p, Sum) and len(p.branches) > 1 or isinstance(p, Par) and not in_par:
        return f"({text})"
    return text


def render_process(p: Process) -> str:
    if isinstance(p, PNil):
        return "0"
    if isinstance(p, Sum):
        parts = []
        for prefix, cont in p.branches:
            if isinstance(cont, PNil):
                parts.append(render_prefix(prefix))
            else:
                parts.append(f"{render_prefix(prefix)} . {_operand(cont)}")
        return " + ".join(parts)
    if isinstance(p, Par):
        return " | ".join(_operand(q, in_par=True) for q in p.parts)
    if isinstance(p, Call):
        return p.name + _args(p.session_args, p.part_args)
    if isinstance(p, Delim):
        return f"{_args(p.session_vars, p.part_vars)} {_operand(p.body)}"
    raise ValueError(f"cannot render {type(p).__name__}")
