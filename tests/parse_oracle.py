"""The tokenizer and parser the front end had before one pattern scanned a
text into flat lists of token texts and offsets and loops read the `.` and
`;` chains: a loop over characters building a `Token` per token, and a
recursive-descent `_Parser` over those tokens that recursed once per chain
prefix. Kept verbatim, with the imports they need, as the oracle the
differential parser tests compare the front end against: on every input
both must give the very same node or the same diagnostics. Only the
well-formedness checks follow the front end's: `check_stipulated` refuses a
`.ctr` entry or a session block's contract at its participant, a
definition's free variable is refused at its name once its body is read,
a bad call at the call's name once every definition is known, and a
session block's queue at its first name once the block's contracts are
read.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from co2run.choreo import GEND, GlobalType, GMsg, GRec, GRecVar, gchoice, gpar
from co2run.contracts import (
    END,
    RECV,
    SEND,
    Contract,
    ContractError,
    Rec,
    RecVar,
    RecvChoice,
    SendChoice,
    check_stipulated,
    is_part_name,
    make_system,
    recv,
    recv_choice,
    send,
    send_choice,
)
from co2run.frontend.lex import Diagnostic, ParseError, Span
from co2run.runtime import (
    DEFAULT_POLICY,
    NIL,
    Call,
    Co2System,
    Delim,
    FusePolicy,
    Par,
    PDo,
    PFuse,
    PTau,
    PTell,
    ProcDef,
    Process,
    Sum,
    make_co2,
    normalize,
)


@dataclass(frozen=True)
class Token:
    kind: str  # ident, number, punct, eof
    text: str
    span: Span


_PUNCT3 = ("(+)",)
_PUNCT2 = ("->", "\\/", "||")
_PUNCT1 = "{}()[];:,.!?+|@="


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    diags: list[Diagnostic] = []
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(Token("ident", text[i:j], (line, col, line, col + j - i)))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("number", text[i:j], (line, col, line, col + j - i)))
            col += j - i
            i = j
            continue
        if text[i : i + 3] in _PUNCT3:
            tokens.append(Token("punct", text[i : i + 3], (line, col, line, col + 3)))
            i += 3
            col += 3
            continue
        if text[i : i + 2] in _PUNCT2:
            tokens.append(Token("punct", text[i : i + 2], (line, col, line, col + 2)))
            i += 2
            col += 2
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, (line, col, line, col + 1)))
            i += 1
            col += 1
            continue
        diags.append(
            Diagnostic("error", f"unexpected character {ch!r}", (line, col, line, col + 1))
        )
        i += 1
        col += 1
    if diags:
        raise ParseError(diags)
    tokens.append(Token("eof", "", (line, col, line, col)))
    return tokens


# words that open a process or a contract, so never a delimited name
_KEYWORDS = frozenset(("tau", "tell", "fuse", "do", "end", "rec"))


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.fuse_policy = DEFAULT_POLICY  # what a fuse with the default options gets
        self.block = ""  # the system-file block being read, as a call's refusal names it
        self.calls: list = []  # per call read: its name's token, block and arities

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("punct", "ident")

    def eat(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def accept(self, text: str) -> Optional[Token]:
        if self.at(text):
            return self.eat()
        return None

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.eat()
        return self.fail(f"expected {text!r}, found {self.peek().text!r}")

    def ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "ident":
            return self.fail(f"expected {what}, found {t.text or 'end of input'!r}")
        return self.eat()

    def fail(self, message: str, span=None):
        self.diags.append(Diagnostic("error", message, span or self.peek().span))
        raise ParseError(self.diags)

    def done(self) -> bool:
        return self.peek().kind == "eof"

    # -- contracts -----------------------------------------------------------

    def contract(self) -> Contract:
        units = [(self.peek(), self.contract_unit())]  # each with its first token
        op = None
        while self.at("(+)") or self.at("+"):
            tok = self.eat()
            if op is None:
                op = tok.text
            elif op != tok.text:
                self.fail("cannot mix internal and external choice", tok.span)
            units.append((self.peek(), self.contract_unit()))
        if op is None:
            return units[0][1]
        internal = op == "(+)"
        for tok, u in units:
            if not isinstance(u, SendChoice if internal else RecvChoice):
                self.fail("internal-choice branches must send" if internal
                          else "external-choice branches must receive", tok.span)
        sources = [None if internal else u.source for _, u in units]
        for (tok, _), source in zip(units, sources):
            if source != sources[0]:
                self.fail("external choice must receive from one participant, "
                          f"got {sorted(set(sources))}", tok.span)
        branches = [b for _, u in units for b in u.branches]
        try:
            return send_choice(branches) if internal else recv_choice(sources[0], branches)
        except ContractError as exc:
            self.fail(str(exc), units[0][0].span)

    def contract_unit(self) -> Contract:
        t = self.peek()
        if self.at("("):
            self.eat()
            c = self.contract()
            self.expect(")")
            return c
        if t.kind != "ident":
            self.fail(f"expected a contract, found {t.text!r}")
        if t.text == "end":
            self.eat()
            return END
        if t.text == "rec":
            self.eat()
            var = self.ident("recursion variable")
            if is_part_name(var.text):
                self.fail("recursion variables are lowercase", var.span)
            self.expect(".")
            node = Rec(var.text, self.contract())
            if not node.is_guarded:
                self.fail(f"unguarded recursion on {var.text!r}", var.span)
            return node
        nxt = self.peek(1)
        if nxt.text in ("!", "?"):
            part = self.eat()
            dir_tok = self.eat()
            sort = self.ident("sort")
            if is_part_name(sort.text):
                self.fail("sorts are lowercase", sort.span)
            cont: Contract = END
            if self.accept("."):
                cont = self.contract_unit()
            if dir_tok.text == "!":
                return send(part.text, sort.text, cont)
            return recv(part.text, sort.text, cont)
        var = self.eat()
        if is_part_name(var.text):
            self.fail("a bare identifier here is a recursion variable (lowercase)", var.span)
        return RecVar(var.text)

    def named_contracts(self) -> dict[str, Contract]:
        """`Name: contract` entries; a header is the first token on its line."""
        out: dict[str, Contract] = {}
        while not self.done():
            name = self.peek()
            starts_line = self.pos == 0 or self.tokens[self.pos - 1].span[0] < name.span[0]
            if name.kind != "ident" or self.peek(1).text != ":" or not starts_line:
                if out:
                    self.fail(f"trailing input after contract: {name.text!r}")
                self.fail("expected 'Name: contract' entries")
            if not is_part_name(name.text):
                self.fail("participant names start uppercase", name.span)
            if name.text in out:
                self.fail(f"duplicate contract for {name.text}", name.span)
            self.pos += 2  # the name and ':'
            c = out[name.text] = self.contract()
            try:
                check_stipulated(name.text, c)
            except ContractError as exc:
                self.fail(str(exc), name.span)
        return out

    # -- global types ----------------------------------------------------------

    def global_type(self) -> GlobalType:
        parts = [self.global_par()]
        while self.accept("\\/"):
            parts.append(self.global_par())
        return gchoice(parts) if len(parts) > 1 else parts[0]

    def global_par(self) -> GlobalType:
        parts = [self.global_seq()]
        while self.accept("||"):
            parts.append(self.global_seq())
        return gpar(parts) if len(parts) > 1 else parts[0]

    def global_seq(self) -> GlobalType:
        t = self.peek()
        if self.at("("):
            self.eat()
            g = self.global_type()
            self.expect(")")
            return g
        if t.kind != "ident":
            self.fail(f"expected a global type, found {t.text!r}")
        if t.text == "end":
            self.eat()
            return GEND
        if t.text == "rec":
            self.eat()
            var = self.ident("recursion variable")
            self.expect(".")
            return GRec(var.text, self.global_type())
        if self.peek(1).text == "->":
            src = self.eat()
            self.eat()  # ->
            dst = self.ident("participant name")
            self.expect(":")
            sort = self.ident("sort")
            for tok in (src, dst):
                if not is_part_name(tok.text):
                    self.fail("interactions connect participant names", tok.span)
            if src.text == dst.text:
                self.fail("a participant cannot message itself", dst.span)
            cont: GlobalType = GEND
            if self.accept(";"):
                cont = self.global_seq()
            return GMsg(src.text, dst.text, sort.text, cont)
        var = self.eat()
        if is_part_name(var.text):
            self.fail("a bare identifier here is a recursion variable (lowercase)", var.span)
        return GRecVar(var.text)

    # -- processes ---------------------------------------------------------------

    def process(self) -> Process:
        parts = [self.proc_sum()]
        while self.accept("|"):
            parts.append(self.proc_sum())
        if len(parts) == 1:
            return parts[0]
        return Par(tuple(parts))

    def proc_sum(self) -> Process:
        first_tok = self.peek()
        terms = [self.proc_term()]
        while self.accept("+"):
            terms.append(self.proc_term())
        if len(terms) == 1:
            return terms[0]
        branches = []
        for term in terms:
            if not isinstance(term, Sum):
                self.fail("choice branches must be prefix-guarded", first_tok.span)
            branches.extend(term.branches)
        return Sum(tuple(branches))

    def proc_term(self) -> Process:
        t = self.peek()
        if t.text == "0":
            self.eat()
            return NIL
        if self.at("("):
            self.eat()
            if self.at(";") or self._binder(self.peek()):
                # a delimitation `(x, y; a) P`: no process starts this way, and
                # its names are lowercase variables
                start = self.pos
                sess, parts = self._arg_lists("a delimited variable")
                for tok in self.tokens[start : self.pos]:
                    if tok.kind == "ident" and not self._binder(tok):
                        self.fail(f"expected a delimited variable, found {tok.text!r}", tok.span)
                self.expect(")")
                return Delim(tuple(sess), tuple(parts), self.proc_term())
            p = self.process()
            self.expect(")")
            return p
        if t.kind != "ident":
            self.fail(f"expected a process, found {t.text!r}")
        if t.text == "tau":
            self.eat()
            return Sum(((PTau(), self._cont()),))
        if t.text == "tell":
            self.eat()
            target = self.ident("participant")
            self.expect("@")
            handle = self.ident("session variable")
            if is_part_name(handle.text):
                self.fail("session handles are lowercase variables", handle.span)
            self.expect("{")
            contract = self.contract()
            self.expect("}")
            self._check_contract(contract, handle.span)
            return Sum(((PTell(target.text, handle.text, contract), self._cont()),))
        if t.text == "fuse":
            self.eat()
            policy = self._policy()
            return Sum(((PFuse(policy), self._cont()),))
        if t.text == "do":
            self.eat()
            sess = self.ident("session reference")
            peer = self.ident("participant")
            d = self.peek()
            if d.text not in ("!", "?"):
                self.fail("a contractual action needs a direction (! or ?)")
            self.eat()
            sort = self.ident("sort")
            if is_part_name(sort.text):
                self.fail("sorts are lowercase", sort.span)
            prefix = PDo(sess.text, peer.text, sort.text, SEND if d.text == "!" else RECV)
            return Sum(((prefix, self._cont()),))
        if self.peek(1).text == "(":
            name = self.eat()
            if not is_part_name(name.text):
                self.fail("process definitions are named uppercase", name.span)
            self.eat()  # (
            sess_args, part_args = self._arg_lists("argument")
            self.expect(")")
            self.calls.append((name, self.block, len(sess_args), len(part_args)))
            return Call(name.text, tuple(sess_args), tuple(part_args))
        self.fail(f"expected a process, found {t.text!r}")

    def _cont(self) -> Process:
        if self.accept("."):
            return self.proc_term()
        return NIL

    def _check_contract(self, c: Contract, span) -> None:
        free = c.free_rec_vars
        if free:
            self.fail(f"unbound recursion variable {sorted(free)[0]!r}", span)

    @staticmethod
    def _binder(t: Token) -> bool:
        return t.kind == "ident" and not is_part_name(t.text) and t.text not in _KEYWORDS

    def _policy(self) -> FusePolicy:
        """The options after `fuse`; options equal to the default ones, written
        or not, give the parser's `fuse_policy`."""
        if not self.accept("("):
            return self.fuse_policy
        minimum = 2
        mode = "plain"
        smallest = False
        while True:
            t = self.eat()
            if t.text == "min":
                self.expect("=")
                num = self.peek()
                if num.kind != "number":
                    self.fail("min= needs a number")
                self.eat()
                minimum = int(num.text)
                if minimum < 2:
                    self.fail("sessions need at least two participants", num.span)
            elif t.text in ("terminating", "recursive"):
                mode = t.text
            elif t.text == "smallest":
                smallest = True
            else:
                self.fail(f"unknown fuse option {t.text or 'end of input'!r}", t.span)
            if self.accept(","):
                continue
            self.expect(")")
            policy = FusePolicy(minimum, mode, smallest)
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
            t = self.ident(noun)
            current.append(t.text)
            if self.accept(","):
                continue
            if self.accept(";"):
                if current is parts:
                    self.fail("too many ';' in argument list", t.span)
                current = parts
                continue
            return sess, parts

    # -- system files -----------------------------------------------------------

    def system_file(self) -> Co2System:
        processes: dict[str, Process] = {}
        sessions: dict[str, object] = {}
        definitions: dict[str, ProcDef] = {}
        while not self.done():
            t = self.peek()
            if t.text == "participant":
                self.eat()
                name = self.ident("participant name")
                if not is_part_name(name.text):
                    self.fail("participant names start uppercase", name.span)
                if name.text in processes:
                    self.fail(f"duplicate participant {name.text}", name.span)
                self.block = f"participant {name.text}"
                self.expect("{")
                processes[name.text] = self.process()
                self.expect("}")
            elif t.text == "def":
                self.eat()
                name = self.ident("definition name")
                if not is_part_name(name.text):
                    self.fail("definition names start uppercase", name.span)
                if name.text in definitions:
                    self.fail(f"duplicate definition {name.text}", name.span)
                self.block = f"def {name.text}"
                self.expect("(")
                sess_params, part_params = self._arg_lists("argument")
                self.expect(")")
                self.expect("=")
                body = self.process()
                free = body.free_session_vars.difference(sess_params)
                free |= body.free_participant_vars.difference(part_params)
                if free:
                    self.fail(
                        f"def {name.text} uses {sorted(free)[0]!r} which is neither a parameter "
                        f"nor delimited", name.span
                    )
                definitions[name.text] = ProcDef(
                    tuple(sess_params), tuple(part_params), body
                )
            elif t.text == "session":
                self.eat()
                name = self.ident("session name")
                if is_part_name(name.text):
                    self.fail("session names start lowercase", name.span)
                if name.text in sessions:
                    self.fail(f"duplicate session {name.text}", name.span)
                self.expect("{")
                sessions[name.text] = self._session_body()
                self.expect("}")
            else:
                self.fail(
                    "expected 'participant', 'def' or 'session' at top level"
                )
        for name, block, n_session, n_part in self.calls:
            if name.text not in definitions:
                self.fail(f"call to undefined process {name.text} in {block}", name.span)
            d = definitions[name.text]
            if len(d.session_params) != n_session or len(d.part_params) != n_part:
                self.fail(f"arity mismatch calling {name.text} in {block}", name.span)
        system = make_co2(processes, {}, sessions, definitions)  # type: ignore[arg-type]
        return normalize(system)

    def _session_body(self):
        contracts: dict[str, Contract] = {}
        queues: dict[tuple[str, str], tuple[str, ...]] = {}
        ends: list[tuple[Token, Token]] = []
        while not self.at("}"):
            t = self.peek()
            if t.text == "queue":
                self.eat()
                frm = self.ident("participant name")
                self.expect("->")
                to = self.ident("participant name")
                self.expect(":")
                self.expect("[")
                msgs: list[str] = []
                if not self.at("]"):
                    while True:
                        msgs.append(self.ident("sort").text)
                        if not self.accept(","):
                            break
                self.expect("]")
                queues[(frm.text, to.text)] = tuple(msgs)
                ends.append((frm, to))
                continue
            name = self.ident("participant name")
            if not is_part_name(name.text):
                self.fail("stipulated contracts belong to named participants", name.span)
            if name.text in contracts:
                self.fail(f"duplicate contract for {name.text}", name.span)
            self.expect(":")
            c = contracts[name.text] = self.contract()
            try:
                check_stipulated(name.text, c)
            except ContractError as exc:
                self.fail(str(exc), name.span)
        for frm, to in ends:
            if frm.text == to.text or frm.text not in contracts or to.text not in contracts:
                self.fail(f"queue {frm.text}->{to.text} does not connect two distinct "
                          "participants", frm.span)
        return make_system(contracts, queues)


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def parse_contract(text: str) -> Contract:
    p = _Parser(tokenize(text))
    c = p.contract()
    if not p.done():
        p.fail(f"trailing input after contract: {p.peek().text!r}")
    return c


def parse_global(text: str) -> GlobalType:
    p = _Parser(tokenize(text))
    g = p.global_type()
    if not p.done():
        p.fail(f"trailing input after global type: {p.peek().text!r}")
    return g


def parse_system(text: str, policy: FusePolicy = DEFAULT_POLICY) -> Co2System:
    """Parse a system file; every `fuse` with the default options gets `policy`."""
    p = _Parser(tokenize(text))
    p.fuse_policy = policy
    return p.system_file()


def parse_named_contracts(text: str) -> dict[str, Contract]:
    """Parse a `.ctr` file: `Name: contract` entries, each header starting a line."""
    return _Parser(tokenize(text)).named_contracts()
