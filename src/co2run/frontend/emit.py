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
    descend,
    each,
    fold,
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
    DEFAULT_POLICY,
    Delim,
    FuseReport,
    PDo,
    PFuse,
    PNil,
    PTau,
    PTell,
    Par,
    Process,
    StepLabel,
    Sum,
    Trace,
)


# --------------------------------------------------------------------------
# Text forms
# --------------------------------------------------------------------------

def _emit(root) -> str:
    """The text of a contract, global type, prefix or process: `_pieces`
    lists a node's texts and nodes, left to right, and each node is expanded
    in turn off an explicit stack, so the text is joined once, in linear time."""
    out, stack = [], [root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            stack += reversed(_pieces(item))
    return "".join(out)


def render_contract(c: Contract) -> str:
    return _emit(c)


def render_global(g: GlobalType) -> str:
    return _emit(g)


def render_process(p: Process) -> str:
    return _emit(p)


def _pieces(node) -> list:
    if isinstance(node, (End, GEnd)):
        return ["end"]
    if isinstance(node, (RecVar, GRecVar)):
        return [node.var]
    if isinstance(node, (Rec, GRec)):
        return [f"rec {node.var} . ", node.body]
    if isinstance(node, SendChoice):
        return _joined(" (+) ", [_branch(f"{to}!{sort}", cont) for to, sort, cont in node.branches])
    if isinstance(node, RecvChoice):
        source = node.source
        return _joined(" + ", [_branch(f"{source}?{sort}", cont) for sort, cont in node.branches])
    if isinstance(node, GMsg):
        head = f"{node.src} -> {node.dst} : {node.sort}"
        if isinstance(node.cont, GEnd):
            return [head]
        return [f"{head} ; ", *_bracketed(node.cont, isinstance(node.cont, (GChoice, GPar)))]
    if isinstance(node, (GChoice, GPar)):
        # a choice brackets nested choices, a parallel nested choices and parallels,
        # and both a branch before the last that ends in a recursion binder
        sep, nested = (" \\/ ", GChoice) if isinstance(node, GChoice) else (" || ", (GChoice, GPar))
        last = len(node.branches) - 1
        return _joined(sep, [_bracketed(b, isinstance(b, nested) or i < last and _dangling_rec(b))
                             for i, b in enumerate(node.branches)])
    if isinstance(node, PTau):
        return ["tau"]
    if isinstance(node, PTell):
        return [f"tell {node.target} @{node.session_var} {{ ", node.contract, " }"]
    if isinstance(node, PFuse):
        opts = []
        if node.policy.min_participants != DEFAULT_POLICY.min_participants:
            opts.append(f"min={node.policy.min_participants}")
        if node.policy.mode != DEFAULT_POLICY.mode:
            opts.append(node.policy.mode)
        if node.policy.prefer_smallest:
            opts.append("smallest")
        return [f"fuse({', '.join(opts)})" if opts else "fuse"]
    if isinstance(node, PDo):
        return [f"do {node.session} {node.peer}{'!' if node.dir == SEND else '?'}{node.sort}"]
    if isinstance(node, PNil):
        return ["0"]
    if isinstance(node, Sum):
        return _joined(" + ", [[p] if isinstance(k, PNil) else [p, " . ", *_operand(k)]
                               for p, k in node.branches])
    if isinstance(node, Par):
        return _joined(" | ", [_operand(q, in_par=True) for q in node.parts])
    if isinstance(node, Call):
        return [node.name + _args(node.session_args, node.part_args)]
    if isinstance(node, Delim):
        return [f"{_args(node.session_vars, node.part_vars)} ", *_operand(node.body)]
    raise ValueError(f"cannot render {type(node).__name__}")


def _joined(sep: str, parts: list[list]) -> list:
    out: list = []
    for part in parts:
        out += [sep, *part] if out else part
    return out


def _bracketed(node, brackets: bool) -> list:
    return ["(", node, ")"] if brackets else [node]


def _branch(head: str, cont: Contract) -> list:
    if isinstance(cont, End):
        return [head]
    many = isinstance(cont, (SendChoice, RecvChoice)) and len(cont.branches) > 1
    return [f"{head} . ", *_bracketed(cont, many or isinstance(cont, Rec))]


def _operand(p: Process, in_par: bool = False) -> list:
    """p after a prefix or a delimitation, or as a part of a parallel
    (`in_par`): a choice of several branches is bracketed, and so is a
    parallel except inside a parallel."""
    return _bracketed(p, isinstance(p, Sum) and len(p.branches) > 1
                      or isinstance(p, Par) and not in_par)


def _dangling_rec(g: GlobalType) -> bool:
    # a trailing recursion binder would swallow a following choice or
    # parallel separator, because its body extends as far right as possible
    while not isinstance(g, GRec):
        if isinstance(g, GMsg) and not isinstance(g.cont, (GChoice, GPar)):
            g = g.cont  # a choice or parallel continuation is rendered in parentheses
        elif isinstance(g, GPar):
            g = g.branches[-1]
        else:
            return False
    return True


def global_to_json(g: GlobalType) -> dict:
    return fold(g, _json_step)  # a shared node's object is shared too


def _json_step(n: GlobalType, got):
    if isinstance(n, GMsg):
        return {"kind": "msg", "from": n.src, "to": n.dst, "sort": n.sort,
                "cont": (yield got(n.cont))}
    if isinstance(n, GEnd):
        return {"kind": "end"}
    if isinstance(n, GRecVar):
        return {"kind": "var", "var": n.var}
    if isinstance(n, GRec):
        return {"kind": "rec", "var": n.var, "body": (yield got(n.body))}
    kind = "choice" if isinstance(n, GChoice) else "par"
    return {"kind": kind, "branches": (yield from each(got, n.branches))}


def json_text(value) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for dicts with string
    keys, lists, tuples and scalars, written off an explicit stack as `_emit`
    writes text, so no nesting is too deep for it. Keys and scalars go
    through `json.dumps`, so they are escaped as it escapes them."""
    out, stack = [], [(value, "\n")]  # text, or a value and the break before its lines
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif item[0] and isinstance(item[0], (dict, list, tuple)):
            v, newline = item
            inner = newline + "  "
            if isinstance(v, dict):
                brackets = "{}"
                entries = [(f"{inner}{json.dumps(k)}: ", x) for k, x in sorted(v.items())]
            else:
                brackets, entries = "[]", [(inner, x) for x in v]
            pieces = []
            for i, (head, x) in enumerate(entries):
                pieces += [("," if i else brackets[0]) + head, (x, inner)]
            stack += [newline + brackets[1], *reversed(pieces)]
        else:
            out.append(json.dumps(item[0]))
    return "".join(out)


def global_from_json(data: dict) -> GlobalType:
    return descend(_from_json(data))


def _from_json(data: dict):
    # a generator for `descend`: `yield` reads a child
    if not isinstance(data, dict):
        raise ValueError(f"a global-type node is not an object: {data!r}")
    kind = _text(data, "kind")
    if kind == "end":
        return GEND
    if kind == "var":
        return GRecVar(_text(data, "var"))
    if kind == "rec":
        return GRec(_text(data, "var"), (yield _from_json(data["body"])))
    if kind == "msg":
        src, dst, sort = (_text(data, key) for key in ("from", "to", "sort"))
        return GMsg(src, dst, sort, (yield _from_json(data["cont"])))
    if kind in ("choice", "par"):
        branches = data["branches"]
        _require(isinstance(branches, list), "global-type branches are not a list", branches)
        _require(len(branches) >= 2, f"a {kind} needs two or more branches", branches)
        nodes = []
        for b in branches:
            nodes.append((yield _from_json(b)))
        return (GChoice if kind == "choice" else GPar)(tuple(nodes))
    raise ValueError(f"unknown global-type node {kind!r}")


# --------------------------------------------------------------------------
# Systems
# --------------------------------------------------------------------------

def _args(sess: tuple[str, ...], parts: tuple[str, ...]) -> str:
    """`(s, t; a, b)`, the `;` only before participants."""
    return f"({', '.join(sess)}; {', '.join(parts)})" if parts else f"({', '.join(sess)})"


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
