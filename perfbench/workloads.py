"""Seeded inputs for the four workloads, each with its expected verdict.

Every expected verdict comes from how the input was built, never from
running co2run: a sequential pair or a ring has exactly the choreography it
was written from, a projection of a global type has a choreography with the
same interactions, a send of a sort nobody offers blocks synthesis, a pool
whose decoys can talk to nobody fuses exactly its core, a finite protocol
fires a countable number of steps, and a participant that drops its last
promised action is dishonest. The fixture verdicts are written out by hand,
as the repository's own tests fix them.

A generator takes a `random.Random` made from the benchmark seed. The seed
changes labels, directions, shapes and orders; the sizes follow fixed
schedules, so the work in a workload is about the same for every seed.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

SORTS = ("a", "b", "c", "d", "e", "f")
POISON = "poison"

# (exit code, stdout, work dir) -> None when the verdict is right, else why not
Check = Callable[[int, str, Path], Optional[str]]


@dataclass
class Op:
    family: str
    argv: list[str]
    check: Check


@dataclass
class Family:
    name: str
    sizes: str
    why: str


@dataclass
class Workload:
    name: str
    families: list[Family]
    ops: list[Op] = field(default_factory=list)
    # operations beyond the seed commit's reach: run once per traced run,
    # outside the timed passes, and counted only as probes
    probes: list[Op] = field(default_factory=list)


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def _expect_code(code: int, want: int) -> Optional[str]:
    return None if code == want else f"exit code {code}, expected {want}"


def expect_choreography(text: str) -> Check:
    def check(code, out, _):
        return _expect_code(code, 0) or (
            None if out.strip() == text else "output differs from the known choreography"
        )
    return check


_INTERACTION = re.compile(r"([A-Z]\w*) -> ([A-Z]\w*) : ([a-z]\w*)")


def expect_interactions(labels: frozenset) -> Check:
    def check(code, out, _):
        bad = _expect_code(code, 0)
        if bad:
            return bad
        got = frozenset(_INTERACTION.findall(out))
        return None if got == labels else f"interactions {sorted(got ^ labels)} differ"
    return check


def expect_no_choreography() -> Check:
    def check(code, out, _):
        return _expect_code(code, 1) or (
            None if out.startswith("no choreography: ") else "missing the no-choreography report"
        )
    return check


def expect_run(steps: int, terminated: int, live: int, fused: Optional[list[str]] = None,
               trace: Optional[str] = None) -> Check:
    """`run --format json`: step count, session outcomes and, for a broker
    pool, the participants named in the trace's one fuse report."""
    def check(code, out, work):
        bad = _expect_code(code, 0)
        if bad:
            return bad
        summary = json.loads(out)
        if summary["steps"] != steps:
            return f"{summary['steps']} steps, expected {steps}"
        done = sum(s["terminated"] for s in summary["sessions"])
        if (done, len(summary["sessions"]) - done) != (terminated, live):
            return f"sessions {summary['sessions']} are not {terminated} done + {live} live"
        if fused is not None:
            records = [json.loads(line) for line in (work / trace).read_text().splitlines()]
            reports = [sorted(r["fuseReport"]["participants"]) for r in records
                       if "fuseReport" in r]
            if reports != ([sorted(fused)] if fused else []):
                return f"fused {reports}, expected {sorted(fused)}"
        return None
    return check


def expect_check(code_want: int, steps: int, unfinished: int) -> Check:
    """`check --format json`: replayed steps, and exactly `unfinished`
    violations, each one a session that did not complete."""
    def check(code, out, _):
        bad = _expect_code(code, code_want)
        if bad:
            return bad
        report = json.loads(out)
        if report["stepsReplayed"] != steps:
            return f"replayed {report['stepsReplayed']}, expected {steps}"
        v = report["violations"]
        if len(v) != unfinished or not all("did not complete" in x for x in v):
            return f"violations {v}"
        return None
    return check


def expect_honesty(code_want: int) -> Check:
    result = {0: "NoViolationUpToBound", 3: "ViolationFound"}.get(code_want)

    def check(code, out, _):
        bad = _expect_code(code, code_want)
        if bad or result is None:
            return bad
        got = json.loads(out)["result"]
        return None if got == result else f"result {got}, expected {result}"
    return check


# --------------------------------------------------------------------------
# Contract and global-type text
# --------------------------------------------------------------------------

def _seq(head: str, cont: Optional[tuple[str, bool]]) -> tuple[str, bool]:
    """`head . cont` as (text, is a choice); None is end."""
    if cont is None:
        return head, False
    text, choice = cont
    return f"{head} . ({text})" if choice else f"{head} . {text}", False


def _chain(heads: list[str], cont: Optional[tuple[str, bool]] = None):
    for head in reversed(heads):
        cont = _seq(head, cont)
    return cont


def _choice(alternatives: list[tuple[str, bool]], sep: str) -> tuple[str, bool]:
    return sep.join(f"({t})" if c else t for t, c in alternatives), True


def _msg_heads(msgs, who):
    """Contract prefixes of `who` for a list of (src, dst, sort) messages."""
    out = []
    for src, dst, sort in msgs:
        if who == src:
            out.append(f"{dst}!{sort}")
        elif who == dst:
            out.append(f"{src}?{sort}")
    return out


def _ctr(contracts: dict[str, str]) -> str:
    return "".join(f"{name}: {text}\n" for name, text in contracts.items())


# --------------------------------------------------------------------------
# synth
# --------------------------------------------------------------------------

def seq_pair(rng: random.Random, n: int) -> tuple[str, str]:
    """A and B exchange n messages in a seeded order; returns (.ctr, G)."""
    msgs = [("A", "B", rng.choice(SORTS)) if rng.random() < 0.5 else ("B", "A", rng.choice(SORTS))
            for _ in range(n)]
    text = {p: _chain(_msg_heads(msgs, p))[0] for p in ("A", "B")}
    return _ctr(text), " ; ".join(f"{s} -> {d} : {x}" for s, d, x in msgs)


def ring(rng: random.Random, parties: int, rounds: int) -> tuple[str, str]:
    """A token travels P0 -> P1 -> ... -> P0, `rounds` times."""
    names = [f"P{i}" for i in range(parties)]
    msgs = [(names[i], names[(i + 1) % parties], rng.choice(SORTS))
            for _ in range(rounds) for i in range(parties)]
    text = {p: _chain(_msg_heads(msgs, p))[0] for p in names}
    return _ctr(text), " ; ".join(f"{s} -> {d} : {x}" for s, d, x in msgs)


def random_global(rng: random.Random, parties: int, blocks: int, choices: int) -> list:
    """A sequence of blocks; the last one is always a plain message.

    A block is ("msg", src, dst, sort) or ("choice", decider, receiver,
    [(sort, private messages between the two)]): every branch of a choice
    continues with all later blocks, so any other participant sees the same
    behaviour in each branch and its projection needs no merge.
    """
    names = [f"R{i}" for i in range(parties)]
    # evenly spaced choices with one private message per branch: the shape,
    # and so the cost, is the same for every seed
    at = {(j + 1) * blocks // (choices + 1) for j in range(choices)}
    out = []
    for i in range(blocks):
        src, dst = rng.sample(names, 2)
        if i in at:
            branches = []
            for sort in rng.sample(SORTS, 2):
                a, b = (src, dst) if rng.random() < 0.5 else (dst, src)
                branches.append((sort, [(a, b, rng.choice(SORTS))]))
            out.append(("choice", src, dst, branches))
        else:
            out.append(("msg", src, dst, rng.choice(SORTS)))
    return out


def project_global(g: list, who: str, poison: bool = False):
    """Contract text of `who` in g; with poison, the last send carries a sort
    that its receiver does not offer."""
    def go(i):
        if i == len(g):
            return None
        block = g[i]
        rest = go(i + 1)
        if block[0] == "msg":
            _, src, dst, sort = block
            if poison and i == len(g) - 1:
                sort = POISON if who == src else sort
            heads = _msg_heads([(src, dst, sort)], who)
            return _chain(heads, rest) if heads else rest
        _, decider, receiver, branches = block
        if who not in (decider, receiver):
            return rest
        alternatives = []
        for sort, private in branches:
            first = f"{receiver}!{sort}" if who == decider else f"{decider}?{sort}"
            alternatives.append(_chain([first] + _msg_heads(private, who), rest))
        return _choice(alternatives, " (+) " if who == decider else " + ")
    return go(0)


def global_interactions(g: list) -> frozenset:
    out = set()
    for block in g:
        if block[0] == "msg":
            out.add(block[1:])
        else:
            _, decider, receiver, branches = block
            for sort, private in branches:
                out.add((decider, receiver, sort))
                out.update(private)
    return frozenset(out)


def global_ctr(g: list, parties: int, poison: bool = False) -> str:
    text = {}
    for i in range(parties):
        proj = project_global(g, f"R{i}", poison)
        if proj is not None:
            text[f"R{i}"] = proj[0]
    return _ctr(text)


# --------------------------------------------------------------------------
# execute, broker and honesty systems
# --------------------------------------------------------------------------

def _do(session: str, heads: list[str]) -> list[str]:
    return [f"do {session} {h}" for h in heads]


def pair_protocol(rng: random.Random, a: str, b: str, n: int):
    """n messages alternating a -> b and b -> a, with seeded sorts; the
    alternation keeps the number of reachable states the same for every
    seed."""
    return [((a, b) if j % 2 == 0 else (b, a)) + (rng.choice(SORTS),) for j in range(n)]


def finite_pair(a: str, b: str, msgs, drop: Optional[str] = None) -> str:
    """Participants a (broker of its own pool) and b run `msgs` to the end.
    The participant named by `drop` leaves out its last action."""
    out = []
    for who, fuse in ((a, ["fuse"]), (b, [])):
        heads = _msg_heads(msgs, who)
        actions = _do(f"x{who}", heads[:-1] if who == drop else heads)
        steps = [f"tell {a} @x{who} {{ {_chain(heads)[0]} }}"] + fuse + actions
        out.append(f"participant {who} {{\n  {' . '.join(steps)}\n}}\n")
    return "".join(out)


def recursive_pair(a: str, b: str, msgs) -> str:
    """a and b repeat `msgs` forever under a recursion-only fuse policy."""
    out = []
    for who, fuse in ((a, ["fuse(recursive)"]), (b, [])):
        heads = _msg_heads(msgs, who)
        contract = f"rec t . {_chain(heads, ('t', False))[0]}"
        steps = [f"tell {a} @x{who} {{ {contract} }}"] + fuse + [f"Loop{who}(x{who})"]
        out.append(f"participant {who} {{\n  {' . '.join(steps)}\n}}\n")
        out.append(f"def Loop{who}(u) = {' . '.join(_do('u', heads))} . Loop{who}(u)\n")
    return "".join(out)


def broker_system(members: list[tuple[str, str, list[str]]]) -> str:
    """Broker Br fuses its pool; each (name, contract, actions) member tells
    Br its contract on session variable x<name>, then performs its actions.

    A gate session g makes every member report to Br after its tell, and Br
    fuses only once all have reported: the agreement search runs once, on
    the whole pool, whatever order the scheduler picks.
    """
    names = [name for name, _, _ in members]
    out = ["session g {\n  Br: " + " . ".join(f"{n}?ready" for n in names) + "\n"]
    out += [f"  {n}: Br!ready\n" for n in names] + ["}\n"]
    out.append("participant Br {\n  " + " . ".join(f"do g {n}?ready" for n in names)
               + " . fuse\n}\n")
    for name, contract, actions in members:
        steps = [f"tell Br @x{name} {{ {contract} }}", "do g Br!ready"] + _do(f"x{name}", actions)
        out.append(f"participant {name} {{\n  {' . '.join(steps)}\n}}\n")
    return "".join(out)


# --------------------------------------------------------------------------
# The workloads
# --------------------------------------------------------------------------

class _Writer:
    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def __call__(self, suffix: str, text: str) -> str:
        self.count += 1
        path = self.work / f"in{self.count:03d}{suffix}"
        path.write_text(text)
        return str(path)


SEQ_SIZES = (25, 50, 75, 100, 150, 200, 250, 300)
RING_SIZES = ((3, 10), (4, 8), (5, 6), (6, 5), (8, 4)) * 2
GLOBAL_SIZES = ((3, 24, 2), (4, 32, 3), (4, 40, 3), (5, 48, 3))
GLOBAL_REPS = 4
SEQ_BEYOND = (600, 800)


def synth(rng: random.Random, write: _Writer, fixtures: Path) -> Workload:
    w = Workload("synth", [
        Family("seq_pair", f"n={SEQ_SIZES[0]}-{SEQ_SIZES[-1]} messages",
               "long '.' chains: parse depth and super-linear synthesis"),
        Family("ring", "3-8 parties x 4-10 rounds",
               "many participants, one sender at a time"),
        Family("projection", "3-5 parties, 24-48 blocks, 2-3 choices",
               "choices and third parties exercise project and canonicalize"),
        Family("poisoned", "as projection", "the failing verdict: no choreography"),
        Family("seq_pair_beyond (probe)", "n=600, 800",
               "RecursionError at the seed commit; depth-safety target"),
    ])
    for n in SEQ_SIZES:
        ctr, g = seq_pair(rng, n)
        w.ops.append(Op(f"seq_pair{n}", ["synth", write(".ctr", ctr)], expect_choreography(g)))
    for parties, rounds in RING_SIZES:
        ctr, g = ring(rng, parties, rounds)
        w.ops.append(Op(f"ring{parties}x{rounds}", ["synth", write(".ctr", ctr)], expect_choreography(g)))
    for parties, blocks, choices in GLOBAL_SIZES:
        for _ in range(GLOBAL_REPS):
            g = random_global(rng, parties, blocks, choices)
            w.ops.append(Op(f"projection{blocks}", ["synth", write(".ctr", global_ctr(g, parties))],
                            expect_interactions(global_interactions(g))))
            w.ops.append(Op(f"poisoned{blocks}",
                            ["synth", write(".ctr", global_ctr(g, parties, poison=True))],
                            expect_no_choreography()))
    for n in SEQ_BEYOND:
        ctr, g = seq_pair(rng, n)
        w.probes.append(Op(f"seq_pair{n}", ["synth", write(".ctr", ctr)], expect_choreography(g)))
    return w


PINGPONG_STEPS = (100, 200, 300, 400, 500)
FINITE_SIZES = ((1, 10), (1, 20), (1, 30), (2, 6), (2, 10), (2, 14), (3, 4), (3, 6),
                (3, 8), (4, 3), (4, 4), (4, 5))
RECURSIVE_SIZES = ((1, 2, 100), (1, 3, 200), (2, 2, 150), (2, 3, 200), (3, 2, 150),
                   (3, 3, 200), (2, 2, 250), (1, 2, 300))


def execute(rng: random.Random, write: _Writer, fixtures: Path) -> Workload:
    w = Workload("execute", [
        Family("pingpong", f"fixture, {PINGPONG_STEPS[0]}-{PINGPONG_STEPS[-1]} steps",
               "the bundled recursive session, cut at --max-steps"),
        Family("finite_pairs", "1-4 pairs x 3-30 messages",
               "digest and apply cost grow with the number and size of terms"),
        Family("recursive_pairs", "1-3 pairs x 2-3 message loops, 100-300 steps",
               "sessions that never end: check reports each one"),
    ])
    trace = str(write.work / "run.trace.jsonl")  # rewritten by every run op

    def run_then_check(family, system, cut, steps, done, live):
        """`run` (cut at --max-steps when given) and `check` of its trace."""
        limit = ["--max-steps", str(cut)] if cut else []
        w.ops.append(Op(family, ["run", system, "--seed", str(rng.randrange(1000)), *limit,
                                 "--trace", trace, "--format", "json"],
                        expect_run(steps, done, live)))
        w.ops.append(Op(family + "_check", ["check", trace, system, "--format", "json"],
                        expect_check(3 if live else 0, steps, live)))

    pingpong = str(fixtures / "pingpong.co2")
    for steps in PINGPONG_STEPS:
        run_then_check(f"pingpong{steps}", pingpong, steps, steps, 0, 1)
    for pairs, n in FINITE_SIZES:
        text = "".join(finite_pair(f"A{i}", f"B{i}", pair_protocol(rng, f"A{i}", f"B{i}", n))
                       for i in range(pairs))
        # no cut: the run ends when every session has terminated
        run_then_check(f"finite{pairs}x{n}", write(".co2", text), None, pairs * (3 + 2 * n),
                       pairs, 0)
    for pairs, n, steps in RECURSIVE_SIZES:
        text = "".join(recursive_pair(f"A{i}", f"B{i}", pair_protocol(rng, f"A{i}", f"B{i}", n))
                       for i in range(pairs))
        run_then_check(f"recursive{pairs}x{n}", write(".co2", text), steps, steps, 0, pairs)
    return w


def _client(sorts):
    """A client that sends first to its variable peer s, then alternates."""
    heads = [f"s{'!' if i % 2 == 0 else '?'}{x}" for i, x in enumerate(sorts)]
    return _chain(heads)[0], heads


def _server(client: str, sorts, last: Optional[str] = None):
    """A server with the client's name fixed; `last` replaces its last sort."""
    sorts = list(sorts)
    if last:
        sorts[-1] = last
    heads = [f"{client}{'?' if i % 2 == 0 else '!'}{x}" for i, x in enumerate(sorts)]
    return _chain(heads)[0], heads


NOAGREE_SIZES = (3, 4, 5) * 5
DECOY_SIZES = (3, 4, 5, 6) * 5
CANDIDATE_SIZES = (3, 4, 5, 6) * 4
NOAGREE_BEYOND = (7,)


def _noagree(rng: random.Random, k: int) -> str:
    """k participants that each send first on their variable peer: no two can
    ever meet, so no subset fuses and every assignment is tried."""
    members = []
    for i in range(k):
        sorts = rng.sample(SORTS, 2)
        contract, heads = _client(sorts)
        members.append((f"C{i}", contract, heads))
    rng.shuffle(members)
    return broker_system(members)


def broker(rng: random.Random, write: _Writer, fixtures: Path) -> Workload:
    w = Workload("broker", [
        Family("no_agreement", f"k={min(NOAGREE_SIZES)}-{max(NOAGREE_SIZES)} clients",
               "every subset and assignment fails: the full search"),
        Family("hidden_core", f"k={min(DECOY_SIZES)}-{max(DECOY_SIZES)}",
               "a compliant client/server pair among servers nobody can serve"),
        Family("candidates", f"k={min(CANDIDATE_SIZES)}-{max(CANDIDATE_SIZES)}",
               "the client's peer variable has k-1 candidate servers, one right"),
        Family("no_agreement_beyond (probe)", "k=7",
               "runs past the time limit at the seed commit; fuse budget target"),
    ])
    trace = str(write.work / "run.trace.jsonl")

    def op(family, text, k, messages, fused):
        """k tells, k reports to Br and k receipts; then, with an agreement,
        the fuse and both sides of every message of the core."""
        steps = 3 * k + (1 + 2 * messages if fused else 0)
        argv = ["run", write(".co2", text), "--seed", str(rng.randrange(1000)),
                "--trace", trace, "--format", "json"]
        # the gate session g always terminates; s1 exists only with an agreement
        return Op(family, argv, expect_run(steps, 2 if fused else 1, 0, fused or [], trace))

    for k in NOAGREE_SIZES:
        w.ops.append(op(f"no_agreement{k}", _noagree(rng, k), k, 0, None))
    for k in DECOY_SIZES:
        # decoys are servers waiting for a sort that no client sends
        sorts = rng.sample(SORTS, 3)
        client, client_acts = _client(sorts)
        server, server_acts = _server("C", sorts)
        members = [("C", client, client_acts), ("S", server, server_acts)]
        for i in range(k - 2):
            decoy, acts = _server("C", [f"{POISON}{i}"] + sorts[1:])
            members.append((f"D{i}", decoy, acts))
        rng.shuffle(members)
        w.ops.append(op(f"hidden_core{k}", broker_system(members), k, len(sorts), ["C", "S"]))
    for k in CANDIDATE_SIZES:
        # k-1 servers agree with the client up to the last message; one of
        # them, at a seeded place in the pool, agrees on that as well
        sorts = rng.sample(SORTS, 4)
        client, client_acts = _client(sorts)
        members = [("C", client, client_acts)]
        right = rng.randrange(k - 1)
        for i in range(k - 1):
            server, acts = _server("C", sorts, None if i == right else f"{POISON}{i}")
            members.append((f"S{i}", server, acts))
        rng.shuffle(members)
        w.ops.append(op(f"candidates{k}", broker_system(members), k, len(sorts),
                        ["C", f"S{right}"]))
    for k in NOAGREE_BEYOND:
        w.probes.append(op(f"no_agreement{k}", _noagree(rng, k), k, 0, None))
    return w


# (fixture, participant, exit code). All but the last are fixed by
# tests/test_acceptance.py, tests/test_cli.py and tests/test_analysis.py.
# In store_s12, B2's process performs its contract action for action, so no
# reachable state finds it unready; its pool of four contracts makes every
# explored state decide a pending fuse again.
HONESTY_FIXTURES = (
    ("store_s1.co2", "B1", 3),
    ("store_s1.co2", "A", 0),
    ("store_s1.co2", "B2", 0),
    ("store_s1pp.co2", "B1", 4),
    ("robust_pair.co2", "A", 0),
    ("robust_pair.co2", "B", 0),
    ("robust_pair.co2", "C", 0),
    ("stuck_pair.co2", "A", 3),
    ("stuck_pair.co2", "B", 3),
    ("stuck_pair.co2", "C", 0),
    ("group_honesty.co2", "A", 0),
    ("group_honesty.co2", "B", 3),
    ("store_s12.co2", "B2", 0),
)
# store_s1 with B1 repaired, as in tests/test_analysis.py: honest
REPAIR = ("tau . do y a!req . do y a?quote . do y a!order",
          "tau . do y a!req . do y a?quote . do y b2'!ok . do y a!order")
# (pairs, messages per pair), each run honest and dishonest
HONESTY_SIZES = ((1, 3), (1, 4), (1, 5), (1, 6), (1, 8), (1, 10), (1, 12)) * 2 + (
    (2, 2), (2, 3), (2, 4)) * 2 + ((2, 5),)


def honesty(rng: random.Random, write: _Writer, fixtures: Path) -> Workload:
    w = Workload("honesty", [
        Family("fixtures", f"{len(HONESTY_FIXTURES) + 1} contexts",
               "verdicts written by hand, as the repository's tests fix them"),
        Family("pairs", "1-2 concurrent pairs x 2-12 messages",
               "state space grows as the product of the pairs"),
    ])
    for name, who, code in HONESTY_FIXTURES:
        w.ops.append(Op(f"fixture_{name[:-4]}_{who}",
                        ["honesty", str(fixtures / name), "--participant", who, "--format", "json"],
                        expect_honesty(code)))
    repaired = (fixtures / "store_s1.co2").read_text().replace(*REPAIR)
    w.ops.append(Op("fixture_store_s1_repaired_B1",
                    ["honesty", write(".co2", repaired), "--participant", "B1", "--format", "json"],
                    expect_honesty(0)))
    for pairs, n in HONESTY_SIZES:
        for dishonest in (False, True):
            # the checked participant drops its own last action exactly when
            # the context is dishonest, and so does every other pair's B.
            who = "B0" if dishonest else "A0"
            text = []
            for i in range(pairs):
                a, b = f"A{i}", f"B{i}"
                drop = (who if i == 0 else b) if dishonest else None
                text.append(finite_pair(a, b, pair_protocol(rng, a, b, n), drop))
            w.ops.append(Op(f"pairs{pairs}x{n}_{'dishonest' if dishonest else 'honest'}",
                            ["honesty", write(".co2", "".join(text)), "--participant", who,
                             "--format", "json"],
                            expect_honesty(3 if dishonest else 0)))
    return w


WORKLOADS = {"synth": synth, "execute": execute, "broker": broker, "honesty": honesty}


def build(name: str, seed: int, work: Path, fixtures: Path) -> Workload:
    """Write the named workload's inputs into `work` and return its ops."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), _Writer(work), fixtures)
