"""Rendering and serialization: text forms, global-type JSON, trace files."""
from __future__ import annotations

import json
from typing import Optional

from ..choreo import (
    GEnd,
    GEND,
    GChoice,
    GMsg,
    GPar,
    GRec,
    GRecVar,
    GlobalType,
)
from ..contracts import (
    Contract,
    End,
    Rec,
    RecVar,
    RecvChoice,
    SendChoice,
    SEND,
)
from ..runtime import (
    Call,
    Co2System,
    Delim,
    FuseReport,
    PFuse,
    PNil,
    PTau,
    PTell,
    Par,
    Prefix,
    Process,
    StepLabel,
    Sum,
    Trace,
)


# --------------------------------------------------------------------------
# Contracts
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


# --------------------------------------------------------------------------
# Global types
# --------------------------------------------------------------------------

def _dangling_rec(g: GlobalType) -> bool:
    # a trailing recursion binder would swallow a following choice or
    # parallel separator, because its body extends as far right as possible
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
    # a choice brackets nested choices, a parallel nested choices and parallels,
    # and both a branch before the last that ends in a recursion binder
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


# --------------------------------------------------------------------------
# Processes and systems
# --------------------------------------------------------------------------

def render_prefix(p: Prefix) -> str:
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


def _args(sess: tuple[str, ...], parts: tuple[str, ...]) -> str:
    """`(s, t; a, b)`, the `;` only before participants."""
    return f"({', '.join(sess)}; {', '.join(parts)})" if parts else f"({', '.join(sess)})"


def _operand(p: Process, in_par: bool = False) -> str:
    """p after a prefix or a delimitation, or as a part of a parallel
    (`in_par`): a choice of several branches is bracketed, and so is a
    parallel except inside a parallel."""
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


def render_system(system: Co2System) -> str:
    lines: list[str] = []
    for name, proc in system.processes:
        lines.append(f"participant {name} {{")
        lines.append(f"  {render_process(proc)}")
        lines.append("}")
    for sname, t in system.sessions:
        lines.append(f"session {sname} {{")
        for pname, c in t.contracts:
            lines.append(f"  {pname}: {render_contract(c)}")
        for frm, to, msgs in t.queues:
            if msgs:
                lines.append(f"  queue {frm} -> {to} : [{', '.join(msgs)}]")
        lines.append("}")
    for dname, d in system.definitions:
        lines.append(f"def {dname}{_args(d.session_params, d.part_params)} = "
                     f"{render_process(d.body)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Traces
# --------------------------------------------------------------------------

# the optional `StepLabel` fields a trace record carries, with their JSON keys
_LABEL_FIELDS = (("session", "session"), ("peer", "peer"), ("sort", "sort"), ("dir", "dir"),
                 ("target", "target"), ("session_var", "sessionVar"), ("callee", "callee"))


def _label_to_json(step: int, label: StepLabel, digest: str) -> dict:
    record: dict = {"step": step, "actor": label.actor, "kind": label.kind}
    for field, key in _LABEL_FIELDS:
        value = getattr(label, field)
        if value is not None:
            record[key] = value
    if label.fuse is not None:
        record["fuseReport"] = {
            "session": label.fuse.session,
            "participants": list(label.fuse.participants),
            "sigma": dict(label.fuse.sigma),
            "pi": dict(label.fuse.pi),
            "globalType": global_to_json(label.fuse.global_type),
        }
    record["stateDigest"] = digest
    return record


def trace_to_jsonl(trace: Trace) -> str:
    lines = [
        json.dumps(_label_to_json(i + 1, label, digest), sort_keys=True)
        for i, (label, digest) in enumerate(zip(trace.steps, trace.digests))
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str) -> tuple[tuple[StepLabel, ...], tuple[str, ...]]:
    """The labels and state digests of a trace; ValueError names the line of a
    record that cannot be read or whose `step` is not its position from 1."""
    steps: list[StepLabel] = []
    digests: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno} is not valid JSON: {exc}") from exc
        try:
            label = _label_from_json(record)
            number = record["step"]
            _require(type(number) is int and number == len(steps) + 1,
                     f"step is not {len(steps) + 1}", number)
            steps.append(label)
            digests.append(_text(record, "stateDigest"))
        except KeyError as exc:
            raise ValueError(f"trace line {lineno}: missing {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from None
    return tuple(steps), tuple(digests)


def _require(ok: bool, what: str, value) -> None:
    if not ok:
        raise ValueError(f"{what}: {value!r}")


def _text(data: dict, key: str, optional: bool = False) -> Optional[str]:
    """The string under `key`; KeyError when it is missing and not
    `optional`, None when it is missing or null and `optional`."""
    value = data.get(key) if optional else data[key]
    _require(isinstance(value, str) or optional and value is None, f"{key} is not a string", value)
    return value


def _label_from_json(record) -> StepLabel:
    _require(isinstance(record, dict), "a record is not an object", record)
    fuse: Optional[FuseReport] = None
    if "fuseReport" in record:
        fr = record["fuseReport"]
        _require(isinstance(fr, dict), "fuseReport is not an object", fr)
        parts = fr["participants"]
        _require(isinstance(parts, list) and all(isinstance(p, str) for p in parts),
                 "fuseReport participants are not a list of names", parts)
        for key in ("sigma", "pi"):
            names = fr[key]
            _require(isinstance(names, dict) and all(isinstance(v, str) for v in names.values()),
                     f"fuseReport {key} is not an object of names", names)
        fuse = FuseReport(
            session=_text(fr, "session"),
            participants=tuple(parts),
            sigma=tuple(sorted(fr["sigma"].items())),
            pi=tuple(sorted(fr["pi"].items())),
            global_type=global_from_json(fr["globalType"]),
        )
    return StepLabel(
        actor=_text(record, "actor"),
        kind=_text(record, "kind"),
        fuse=fuse,
        **{field: _text(record, key, optional=True) for field, key in _LABEL_FIELDS},
    )
