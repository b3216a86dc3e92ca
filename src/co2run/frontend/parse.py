"""Recursive-descent parsers for contracts, global types, `.ctr` files of
named contracts and system files. Every choice is decided by the next token
or two; nothing backtracks. The parser reads the tokenizer's flat lists of
token texts and offsets by index. A loop reads each `.` chain (contracts,
processes) and `;` chain (global types) and builds its nodes from the last
prefix back; parentheses and `rec` bodies nest on an explicit stack
(`contracts.descend`), so no input is too deep for Python's recursion limit.

Case separates the lexical classes: participant names start uppercase,
variables (participant, session and recursion alike) and sorts lowercase.
Internal choice is written `(+)`, external choice `+`; a missing
continuation after a prefix means end. A `rec x .` body extends as far
right as possible, so choices after it sit inside the binder unless
parenthesised.

System files hold `participant NAME { process }` blocks, `def` blocks for
named processes, and (for snapshots mid-execution) `session` blocks with
stipulated contracts and queue contents.
"""
from __future__ import annotations

from dataclasses import replace
from typing import NoReturn, Optional

from ..contracts import (
    Contract,
    ContractError,
    END,
    RecVar,
    check_stipulated,
    descend,
    is_part_name,
    make_system,
    rec,
    recv,
    recv_choice,
    send,
    send_choice,
    RecvChoice,
    SendChoice,
)
from ..choreo import GEND, GlobalType, GMsg, GRec, GRecVar, gchoice, gpar
from ..contracts import RECV, SEND
from ..runtime import (
    Call,
    Co2System,
    DEFAULT_POLICY,
    FUSE_MODES,
    Delim,
    FusePolicy,
    NIL,
    Par,
    PDo,
    PFuse,
    PTau,
    PTell,
    Prefix,
    ProcDef,
    Process,
    Sum,
    make_co2,
    normalize,
)
from .lex import Diagnostic, ParseError, span, tokenize

_PREFIXES = frozenset(("tau", "tell", "fuse", "do"))  # the process prefixes
# words that open a process or a contract, so never a delimited name
_KEYWORDS = _PREFIXES | {"end", "rec"}


def _is_ident(t: str) -> bool:
    return t[:1].isalpha()


class _Parser:
    """Reads the tokenizer's flat lists by index: `texts[pos]` is the next
    token, and `texts[pos + 1]` is always there, since the lists end in two
    end-of-input tokens. A diagnostic's span is worked out from its token's
    index only when it is raised."""

    def __init__(self, text: str):
        self.text = text
        self.texts, self.starts = tokenize(text)
        self.pos = 0
        self.fuse_policy = DEFAULT_POLICY  # what a fuse with the default options gets
        self.block = ""  # the system-file block being read, as a call's refusal names it
        self.calls: list = []  # per call read: its name's token index, block and arities

    # -- token plumbing ----------------------------------------------------

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def eat(self) -> str:
        t = self.texts[self.pos]
        self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            self.fail(f"expected {text!r}, found {self.texts[self.pos]!r}")
        self.pos += 1

    def ident(self, what: str = "identifier") -> str:
        t = self.texts[self.pos]
        if not _is_ident(t):
            self.fail(f"expected {what}, found {t or 'end of input'!r}")
        self.pos += 1
        return t

    def name(self, what: str, upper: bool, message: str) -> str:
        """An identifier that starts uppercase exactly when `upper`."""
        t = self.ident(what)
        if is_part_name(t) != upper:
            self.fail(message, self.pos - 1)
        return t

    def fail(self, message: str, at: Optional[int] = None) -> NoReturn:
        """Raise one diagnostic at token index `at`, by default the next token."""
        i = self.pos if at is None else at
        where = span(self.text, self.starts[i], len(self.texts[i]))
        raise ParseError([Diagnostic("error", message, where)])

    def done(self) -> bool:
        return self.texts[self.pos] == ""

    def checked(self, at: int, make, *args, **kwargs):
        """`make(*args, **kwargs)`, with the ContractError or ValueError it
        raises made a diagnostic at token index `at`."""
        try:
            return make(*args, **kwargs)
        except (ContractError, ValueError) as exc:
            self.fail(str(exc), at)

    # -- contracts -----------------------------------------------------------

    # these and their global-type and process twins are generators for
    # `descend`: `yield` is a nested parse

    def contract(self):
        units = [(self.pos, (yield self.contract_unit()))]  # each with its first token
        op = None
        while self.texts[self.pos] in ("(+)", "+"):
            tok = self.eat()
            if op is None:
                op = tok
            elif op != tok:
                self.fail("cannot mix internal and external choice", self.pos - 1)
            units.append((self.pos, (yield self.contract_unit())))
        if op is None:
            return units[0][1]
        internal = op == "(+)"
        for i, u in units:
            if not isinstance(u, SendChoice if internal else RecvChoice):
                self.fail("internal-choice branches must send" if internal
                          else "external-choice branches must receive", i)
        sources = [None if internal else u.source for _, u in units]
        for (i, _), source in zip(units, sources):
            if source != sources[0]:
                self.fail("external choice must receive from one participant, "
                          f"got {sorted(set(sources))}", i)
        branches = [b for _, u in units for b in u.branches]
        if internal:
            return self.checked(units[0][0], send_choice, branches)
        return self.checked(units[0][0], recv_choice, sources[0], branches)

    def contract_unit(self):
        """A `.` chain of prefixes and what ends it; the loop reads the
        prefixes and the nodes are built from the last one back."""
        texts = self.texts
        chain = []
        cont: Contract = END
        while texts[self.pos + 1] in ("!", "?") and texts[self.pos] not in ("end", "rec") \
                and _is_ident(texts[self.pos]):
            part, direction = texts[self.pos], texts[self.pos + 1]
            self.pos += 2
            chain.append((part, direction, self.name("sort", False, "sorts are lowercase")))
            if not self.accept("."):
                break
        else:  # the chain ends in something other than a prefix
            cont = yield self._contract_atom()
        for part, direction, sort in reversed(chain):
            cont = send(part, sort, cont) if direction == "!" else recv(part, sort, cont)
        return cont

    def _contract_atom(self):
        t = self.texts[self.pos]
        if t == "(":
            self.pos += 1
            c = yield self.contract()
            self.expect(")")
            return c
        if not _is_ident(t):
            self.fail(f"expected a contract, found {t!r}")
        self.pos += 1
        if t == "end":
            return END
        if t == "rec":
            i = self.pos
            var = self.name("recursion variable", False, "recursion variables are lowercase")
            self.expect(".")
            return self.checked(i, rec, var, (yield self.contract()))
        if is_part_name(t):
            self.fail("a bare identifier here is a recursion variable (lowercase)", self.pos - 1)
        return RecVar(t)

    def named_contracts(self) -> dict[str, Contract]:
        """`Name: contract` entries; a header is the first token on its line."""
        out: dict[str, Contract] = {}
        texts = self.texts
        while not self.done():
            i = self.pos
            name = texts[i]
            starts_line = i == 0 or self.text.find("\n", self.starts[i - 1], self.starts[i]) >= 0
            if not _is_ident(name) or texts[i + 1] != ":" or not starts_line:
                if out:
                    self.fail(f"trailing input after contract: {name!r}")
                self.fail("expected 'Name: contract' entries")
            if not is_part_name(name):
                self.fail("participant names start uppercase", i)
            if name in out:
                self.fail(f"duplicate contract for {name}", i)
            self.pos += 2  # the name and ':'
            c = out[name] = descend(self.contract())
            self.checked(i, check_stipulated, name, c)
        return out

    # -- global types ----------------------------------------------------------

    def global_type(self):
        parts = [(yield self.global_par())]
        while self.accept("\\/"):
            parts.append((yield self.global_par()))
        return gchoice(parts) if len(parts) > 1 else parts[0]

    def global_par(self):
        parts = [(yield self.global_seq())]
        while self.accept("||"):
            parts.append((yield self.global_seq()))
        return gpar(parts) if len(parts) > 1 else parts[0]

    def global_seq(self):
        """A `;` chain of interactions and what ends it, read by a loop like
        a contract's `.` chain."""
        texts = self.texts
        chain = []
        cont: GlobalType = GEND
        while texts[self.pos + 1] == "->" and texts[self.pos] not in ("end", "rec") \
                and _is_ident(texts[self.pos]):
            i = self.pos
            src = texts[i]
            self.pos += 2
            j = self.pos
            dst = self.ident("participant name")
            self.expect(":")
            sort = self.ident("sort")
            for at, name in ((i, src), (j, dst)):
                if not is_part_name(name):
                    self.fail("interactions connect participant names", at)
            if src == dst:
                self.fail("a participant cannot message itself", j)
            chain.append((src, dst, sort))
            if not self.accept(";"):
                break
        else:  # the chain ends in something other than an interaction
            cont = yield self._global_atom()
        for src, dst, sort in reversed(chain):
            cont = GMsg(src, dst, sort, cont)
        return cont

    def _global_atom(self):
        t = self.texts[self.pos]
        if t == "(":
            self.pos += 1
            g = yield self.global_type()
            self.expect(")")
            return g
        if not _is_ident(t):
            self.fail(f"expected a global type, found {t!r}")
        self.pos += 1
        if t == "end":
            return GEND
        if t == "rec":
            var = self.ident("recursion variable")
            self.expect(".")
            return GRec(var, (yield self.global_type()))
        if is_part_name(t):
            self.fail("a bare identifier here is a recursion variable (lowercase)", self.pos - 1)
        return GRecVar(t)

    # -- processes ---------------------------------------------------------------

    def process(self):
        parts = [(yield self.proc_sum())]
        while self.accept("|"):
            parts.append((yield self.proc_sum()))
        if len(parts) == 1:
            return parts[0]
        return Par(tuple(parts))

    def proc_sum(self):
        first = self.pos
        terms = [(yield self.proc_term())]
        while self.accept("+"):
            terms.append((yield self.proc_term()))
        if len(terms) == 1:
            return terms[0]
        branches = []
        for term in terms:
            if not isinstance(term, Sum):
                self.fail("choice branches must be prefix-guarded", first)
            branches.extend(term.branches)
        return Sum(tuple(branches))

    def proc_term(self):
        """A `.` chain of prefixes and delimitations and what ends it, read by
        a loop; the nodes are built from the last one back."""
        texts = self.texts
        chain: list = []  # prefixes, and (sessions, participants) of delimitations
        while True:
            t = texts[self.pos]
            if t == "(" and (texts[self.pos + 1] == ";" or self._binder(texts[self.pos + 1])):
                # a delimitation `(x, y; a) P`: no process starts this way, and
                # its names are lowercase variables
                self.pos += 1
                start = self.pos
                sess, parts = self._arg_lists("a delimited variable")
                for i in range(start, self.pos):
                    if _is_ident(texts[i]) and not self._binder(texts[i]):
                        self.fail(f"expected a delimited variable, found {texts[i]!r}", i)
                self.expect(")")
                chain.append((tuple(sess), tuple(parts)))
                continue
            if t not in _PREFIXES:
                body = yield self._proc_atom()
                break
            chain.append(self._prefix())
            if not self.accept("."):
                body = NIL
                break
        for link in reversed(chain):
            if type(link) is tuple:
                body = Delim(link[0], link[1], body)
            else:
                body = Sum(((link, body),))
        return body

    def _proc_atom(self):
        t = self.texts[self.pos]
        if t == "0":
            self.pos += 1
            return NIL
        if t == "(":
            self.pos += 1
            p = yield self.process()
            self.expect(")")
            return p
        if not _is_ident(t):
            self.fail(f"expected a process, found {t!r}")
        if self.texts[self.pos + 1] == "(":
            if not is_part_name(t):
                self.fail("process definitions are named uppercase")
            i = self.pos
            self.pos += 2  # the name and (
            sess_args, part_args = self._arg_lists("argument")
            self.expect(")")
            self.calls.append((i, self.block, len(sess_args), len(part_args)))
            return Call(t, tuple(sess_args), tuple(part_args))
        self.fail(f"expected a process, found {t!r}")

    def _prefix(self) -> Prefix:
        t = self.eat()
        if t == "tau":
            return PTau()
        if t == "tell":
            target = self.ident("participant")
            self.expect("@")
            i = self.pos
            handle = self.name("session variable", False, "session handles are lowercase variables")
            self.expect("{")
            contract = descend(self.contract())
            self.expect("}")
            free = contract.free_rec_vars
            if free:
                self.fail(f"unbound recursion variable {sorted(free)[0]!r}", i)
            return PTell(target, handle, contract)
        if t == "fuse":
            return PFuse(self._policy())
        sess = self.ident("session reference")  # do
        peer = self.ident("participant")
        d = self.texts[self.pos]
        if d not in ("!", "?"):
            self.fail("a contractual action needs a direction (! or ?)")
        self.pos += 1
        sort = self.name("sort", False, "sorts are lowercase")
        return PDo(sess, peer, sort, SEND if d == "!" else RECV)

    @staticmethod
    def _binder(t: str) -> bool:
        return _is_ident(t) and not is_part_name(t) and t not in _KEYWORDS

    def _policy(self) -> FusePolicy:
        """The options after `fuse`; options equal to the default ones, written
        or not, give the parser's `fuse_policy`."""
        if not self.accept("("):
            return self.fuse_policy
        policy = DEFAULT_POLICY  # each option written changes one field
        while True:
            i = self.pos
            t = self.eat()
            if t == "min":
                self.expect("=")
                j = self.pos
                if not (self.texts[j].isascii() and self.texts[j].isdigit()):
                    self.fail("min= needs a number")  # `²` and `٣` are digits, not ASCII ones
                policy = self.checked(j, replace, policy, min_participants=int(self.eat()))
            elif t in FUSE_MODES and t != DEFAULT_POLICY.mode:
                policy = replace(policy, mode=t)
            elif t == "smallest":
                policy = replace(policy, prefer_smallest=True)
            else:
                self.fail(f"unknown fuse option {t or 'end of input'!r}", i)
            if self.accept(","):
                continue
            self.expect(")")
            return self.fuse_policy if policy == DEFAULT_POLICY else policy

    def _arg_lists(self, noun: str) -> tuple[list[str], list[str]]:
        """`sessions; participants` before a `)`: a `;` only before the
        second list, and a `;` or `,` always followed by a name."""
        sess: list[str] = []
        parts: list[str] = []
        current = sess
        if self.accept(";"):
            current = parts
        elif self.at(")"):
            return sess, parts
        while True:
            i = self.pos
            current.append(self.ident(noun))
            if self.accept(","):
                continue
            if self.accept(";"):
                if current is parts:
                    self.fail("too many ';' in argument list", i)
                current = parts
                continue
            return sess, parts

    # -- system files -----------------------------------------------------------

    def system_file(self) -> Co2System:
        processes: dict[str, Process] = {}
        sessions: dict[str, object] = {}
        definitions: dict[str, ProcDef] = {}
        while not self.done():
            t = self.texts[self.pos]
            if t not in ("participant", "def", "session"):
                self.fail("expected 'participant', 'def' or 'session' at top level")
            self.pos += 1
            i = self.pos
            if t == "participant":
                name = self.name("participant name", True, "participant names start uppercase")
                if name in processes:
                    self.fail(f"duplicate participant {name}", i)
                self.block = f"participant {name}"
                self.expect("{")
                processes[name] = descend(self.process())
                self.expect("}")
            elif t == "def":
                name = self.name("definition name", True, "definition names start uppercase")
                if name in definitions:
                    self.fail(f"duplicate definition {name}", i)
                self.block = f"def {name}"
                self.expect("(")
                sess_params, part_params = self._arg_lists("argument")
                self.expect(")")
                self.expect("=")
                body = descend(self.process())
                free = body.free_session_vars.difference(sess_params)
                free |= body.free_participant_vars.difference(part_params)
                if free:
                    self.fail(f"def {name} uses {sorted(free)[0]!r} which is neither a parameter "
                              "nor delimited", i)
                definitions[name] = ProcDef(tuple(sess_params), tuple(part_params), body)
            else:
                name = self.name("session name", False, "session names start lowercase")
                if name in sessions:
                    self.fail(f"duplicate session {name}", i)
                self.expect("{")
                sessions[name] = self._session_body()
                self.expect("}")
        for i, block, n_session, n_part in self.calls:  # once every definition is known
            d = definitions.get(self.texts[i])
            if d is None:
                self.fail(f"call to undefined process {self.texts[i]} in {block}", i)
            if len(d.session_params) != n_session or len(d.part_params) != n_part:
                self.fail(f"arity mismatch calling {self.texts[i]} in {block}", i)
        return normalize(make_co2(processes, {}, sessions, definitions))  # type: ignore[arg-type]

    def _session_body(self):
        contracts: dict[str, Contract] = {}
        queues: dict[tuple[str, str], tuple[str, ...]] = {}
        ends: list[tuple[int, str, str]] = []  # each queue's first name and its two ends
        while not self.at("}"):
            if self.accept("queue"):
                i = self.pos
                frm = self.ident("participant name")
                self.expect("->")
                to = self.ident("participant name")
                ends.append((i, frm, to))
                self.expect(":")
                self.expect("[")
                msgs: list[str] = []
                if not self.at("]"):
                    while True:
                        msgs.append(self.ident("sort"))
                        if not self.accept(","):
                            break
                self.expect("]")
                queues[(frm, to)] = tuple(msgs)
                continue
            i = self.pos
            name = self.name("participant name", True,
                             "stipulated contracts belong to named participants")
            if name in contracts:
                self.fail(f"duplicate contract for {name}", i)
            self.expect(":")
            c = contracts[name] = descend(self.contract())
            self.checked(i, check_stipulated, name, c)
        for i, frm, to in ends:  # once every contract of the block is read
            if frm == to or frm not in contracts or to not in contracts:
                self.fail(f"queue {frm}->{to} does not connect two distinct participants", i)
        return make_system(contracts, queues)


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def parse_contract(text: str) -> Contract:
    p = _Parser(text)
    c = descend(p.contract())
    if not p.done():
        p.fail(f"trailing input after contract: {p.texts[p.pos]!r}")
    return c


def parse_global(text: str) -> GlobalType:
    p = _Parser(text)
    g = descend(p.global_type())
    if not p.done():
        p.fail(f"trailing input after global type: {p.texts[p.pos]!r}")
    return g


def parse_system(text: str, policy: FusePolicy = DEFAULT_POLICY) -> Co2System:
    """Parse a system file; every `fuse` with the default options gets `policy`."""
    p = _Parser(text)
    p.fuse_policy = policy
    return p.system_file()


def parse_named_contracts(text: str) -> dict[str, Contract]:
    """Parse a `.ctr` file: `Name: contract` entries, each header starting a line."""
    return _Parser(text).named_contracts()
