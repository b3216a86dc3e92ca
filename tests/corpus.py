"""Seeded random generators for contracts, systems and global types.

The corpus mixes three populations: projections of random well-formed
choreographies (compliant by construction), raw random contract systems
(mostly non-compliant), and single-contract mutations of the projections
(near-misses). All draws are driven by an explicit Random instance, so a
fixed seed reproduces the corpus exactly. `reference_repr` recomputes the
repr the term nodes cache, and `regex_named_contracts` is the regex-driven
`.ctr` reader the grammar's `named_contracts` production replaced.
"""
from __future__ import annotations

import dataclasses
import random
import re

from co2run.choreo import (
    GEND,
    GlobalType,
    GMsg,
    GRec,
    GRecVar,
    gchoice,
    project,
    well_formed,
)
from co2run.contracts import (
    Contract,
    END,
    Interned,
    Rec,
    RecVar,
    RecvChoice,
    SendChoice,
    recv_choice,
    send_choice,
)
from co2run.frontend import Diagnostic, ParseError, parse_contract

SORTS = ("p", "q")
NAMES = ("A", "B", "C")


# --------------------------------------------------------------------------
# Raw contracts
# --------------------------------------------------------------------------

def random_contract(
    rng: random.Random, peers: list[str], depth: int = 4, allow_rec: bool = True
) -> Contract:
    use_rec = allow_rec and rng.random() < 0.25
    body = _contract_node(rng, peers, depth, "t" if use_rec else None)
    if use_rec and "t" in _used_vars(body) and Rec("t", body).is_guarded:
        return Rec("t", body)
    return _strip_var(body)


def _contract_node(rng, peers, depth, rec_var):
    if depth <= 0:
        if rec_var and rng.random() < 0.5:
            return RecVar(rec_var)
        return END
    roll = rng.random()
    if roll < 0.15:
        return END
    if rec_var and roll < 0.25:
        return RecVar(rec_var)
    if roll < 0.65:
        k = 1 if rng.random() < 0.7 else 2
        pool = [(p, s) for p in peers for s in SORTS]
        picks = rng.sample(pool, min(k, len(pool)))
        return send_choice(
            [(p, s, _contract_node(rng, peers, depth - 1, rec_var)) for p, s in picks]
        )
    src = rng.choice(peers)
    k = 1 if rng.random() < 0.7 else 2
    sorts = rng.sample(SORTS, min(k, len(SORTS)))
    return recv_choice(
        src, [(s, _contract_node(rng, peers, depth - 1, rec_var)) for s in sorts]
    )


def _used_vars(c: Contract) -> set[str]:
    if isinstance(c, RecVar):
        return {c.var}
    if isinstance(c, Rec):
        return _used_vars(c.body) - {c.var}
    if isinstance(c, SendChoice):
        return set().union(*(_used_vars(b[2]) for b in c.branches)) if c.branches else set()
    if isinstance(c, RecvChoice):
        return set().union(*(_used_vars(b[1]) for b in c.branches)) if c.branches else set()
    return set()


def _strip_var(c: Contract) -> Contract:
    """Replace stray recursion variables by end (used when the binder is dropped)."""
    if isinstance(c, RecVar):
        return END
    if isinstance(c, Rec):
        return Rec(c.var, _strip_var(c.body))
    if isinstance(c, SendChoice):
        return SendChoice(tuple((t, s, _strip_var(k)) for t, s, k in c.branches))
    if isinstance(c, RecvChoice):
        return RecvChoice(c.source, tuple((s, _strip_var(k)) for s, k in c.branches))
    return c


def random_raw_system(rng: random.Random) -> dict[str, Contract]:
    names = list(NAMES[: rng.randint(2, 3)])
    out = {}
    for n in names:
        peers = [m for m in names if m != n]
        out[n] = random_contract(rng, peers, depth=rng.randint(1, 4))
    return out


# --------------------------------------------------------------------------
# Well-formed choreographies and their projections
# --------------------------------------------------------------------------

def random_global(rng: random.Random, tries: int = 60) -> GlobalType:
    for _ in range(tries):
        names = list(NAMES[: rng.randint(2, 3)])
        want_rec = rng.random() < 0.3
        g = _global_node(rng, names, rng.randint(1, 4), "t" if want_rec else None)
        if _free_gvars(g):
            if isinstance(g, GMsg):
                g = GRec("t", g)  # every variable sits under the head message
            else:
                g = _strip_gvar(g)
        if isinstance(g, GRecVar) or g == GEND:
            continue
        ok, _ = well_formed(g)
        if ok and len(g.participants) >= 2:
            return g
    # a safe fallback that is always well-formed
    return GMsg("A", "B", "p", GEND)


def _free_gvars(g: GlobalType) -> set[str]:
    if isinstance(g, GRecVar):
        return {g.var}
    if isinstance(g, GRec):
        return _free_gvars(g.body) - {g.var}
    if isinstance(g, GMsg):
        return _free_gvars(g.cont)
    if hasattr(g, "branches"):
        out: set[str] = set()
        for b in g.branches:
            out |= _free_gvars(b)
        return out
    return set()


def _strip_gvar(g: GlobalType) -> GlobalType:
    if isinstance(g, GRecVar):
        return GEND
    if isinstance(g, GRec):
        return GRec(g.var, _strip_gvar(g.body))
    if isinstance(g, GMsg):
        return GMsg(g.src, g.dst, g.sort, _strip_gvar(g.cont))
    if hasattr(g, "branches"):
        return type(g)(tuple(_strip_gvar(b) for b in g.branches))
    return g


def _global_node(rng, names, depth, rec_var):
    if depth <= 0:
        if rec_var and rng.random() < 0.6:
            return GRecVar(rec_var)
        return GEND
    roll = rng.random()
    if roll < 0.1:
        return GEND
    if roll < 0.6:
        src, dst = rng.sample(names, 2)
        return GMsg(src, dst, rng.choice(SORTS), _global_node(rng, names, depth - 1, rec_var))
    if roll < 0.85 or rec_var is not None:
        src = rng.choice(names)
        peers = [m for m in names if m != src]
        pool = [(p, s) for p in peers for s in SORTS]
        picks = rng.sample(pool, 2)
        return gchoice(
            [GMsg(src, p, s, _global_node(rng, names, depth - 1, rec_var)) for p, s in picks]
        )
    body = _global_node(rng, names, depth - 1, "t")
    if isinstance(body, GMsg):
        return GRec("t", body)
    return body


def projected_system(rng: random.Random) -> dict[str, Contract]:
    from co2run.choreo import ProjectionError
    from co2run.contracts import ContractError, make_system

    for _ in range(40):
        g = random_global(rng)
        try:
            out = {name: project(g, name) for name in sorted(g.participants)}
            make_system(out)  # validate closedness and guardedness
            return out
        except (ContractError, ProjectionError):
            continue
    return {"A": send_choice([("B", "p", END)]), "B": recv_choice("A", [("p", END)])}


# --------------------------------------------------------------------------
# Mutations
# --------------------------------------------------------------------------

def mutate_system(rng: random.Random, contracts: dict[str, Contract]) -> dict[str, Contract]:
    out = dict(contracts)
    victim = rng.choice(sorted(out))
    out[victim] = _mutate(rng, out[victim], sorted(out))
    return out


def _mutate(rng, c: Contract, names) -> Contract:
    roll = rng.random()
    if isinstance(c, SendChoice):
        branches = list(c.branches)
        i = rng.randrange(len(branches))
        to, sort, cont = branches[i]
        if roll < 0.3:
            new_sort = SORTS[1 - SORTS.index(sort)] if sort in SORTS else SORTS[0]
            if all((b[0], new_sort) != (to, b[1]) for b in branches):
                branches[i] = (to, new_sort, cont)
        elif roll < 0.5 and len(branches) > 1:
            del branches[i]
        elif roll < 0.7:
            branches[i] = (to, sort, END)
        else:
            branches[i] = (to, sort, _mutate(rng, cont, names)) if not isinstance(
                cont, type(END)
            ) else (to, sort, cont)
        try:
            return send_choice(branches)
        except Exception:
            return c
    if isinstance(c, RecvChoice):
        branches = list(c.branches)
        i = rng.randrange(len(branches))
        sort, cont = branches[i]
        if roll < 0.3:
            new_sort = SORTS[1 - SORTS.index(sort)] if sort in SORTS else SORTS[0]
            if all(new_sort != b[0] for b in branches):
                branches[i] = (new_sort, cont)
        elif roll < 0.5 and len(branches) > 1:
            del branches[i]
        elif roll < 0.7:
            branches[i] = (sort, END)
        else:
            branches[i] = (sort, _mutate(rng, cont, names))
        try:
            return recv_choice(c.source, branches)
        except Exception:
            return c
    if isinstance(c, Rec):
        return Rec(c.var, _mutate(rng, c.body, names))
    return c


def corpus_system(rng: random.Random) -> dict[str, Contract]:
    roll = rng.random()
    if roll < 0.4:
        return projected_system(rng)
    if roll < 0.6:
        return mutate_system(rng, projected_system(rng))
    return random_raw_system(rng)


# --------------------------------------------------------------------------
# Reference values
# --------------------------------------------------------------------------

def reference_repr(value) -> str:
    """The repr a plain dataclass gives, rebuilt field by field, never reading
    a cached string: a term node's fields are its `_fields`, a plain
    dataclass's are read through `dataclasses.fields`."""
    if isinstance(value, Interned):
        return _fields_repr(value, value._fields)
    if dataclasses.is_dataclass(value):
        return _fields_repr(value, [f.name for f in dataclasses.fields(value)])
    if isinstance(value, tuple):
        items = [reference_repr(v) for v in value]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    return repr(value)


def _fields_repr(value, names) -> str:
    fields = ", ".join(f"{n}={reference_repr(getattr(value, n))}" for n in names)
    return f"{type(value).__qualname__}({fields})"


_HEADER = re.compile(r"^\s*([A-Z][A-Za-z0-9_']*)\s*:", re.M)


def regex_named_contracts(text: str) -> dict[str, Contract]:
    """Parse `Name: contract` entries; a contract runs until the next header.

    The former `parse_named_contracts`, kept verbatim except that each body
    is parsed without a line offset, so its diagnostics carry no position."""
    headers = list(_HEADER.finditer(text))
    if not headers:
        stripped = [
            ln for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")
        ]
        if not stripped:
            return {}
        raise ParseError(
            [Diagnostic("error", "expected 'Name: contract' entries", (1, 1, 1, 1))]
        )
    leading = text[: headers[0].start()]
    if any(ln.strip() and not ln.strip().startswith("#") for ln in leading.splitlines()):
        raise ParseError(
            [Diagnostic("error", "text before the first 'Name:' header", (1, 1, 1, 1))]
        )
    out: dict[str, Contract] = {}
    for i, m in enumerate(headers):
        name = m.group(1)
        end = headers[i + 1].start() if i + 1 < len(headers) else len(text)
        body = text[m.end() : end]
        line = text[: m.end()].count("\n") + 1
        if name in out:
            raise ParseError(
                [Diagnostic("error", f"duplicate contract for {name}", (line, 1, line, 1))]
            )
        out[name] = parse_contract(body)
    return out
