"""Reference checkers the test suite compares the library against.

`execution_oracle` is the independent brute-force check of synthesis: it
explores every bounded-queue run of the raw FIFO semantics (k-bounded runs,
after Deniélou & Yoshida, ICALP 2013) and looks for stuck states and
starved loops, judging each loop by its strongly connected component
(`_sccs`). `exculpation_within` searches for the moves by which a culpable
participant discharges itself. `reference_run` is `runtime.run`'s scheduler
with no memo: it asks every participant for its steps and fires the chosen
one at every round.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Optional, TypeVar

from co2run.analysis import culpable
from co2run.contracts import (
    ContractSystem,
    End,
    MoveLabel,
    RECV,
    SEND,
    contract_step,
    descend,
    enabled_moves,
    head_normal,
    is_terminated,
)
from co2run.runtime import Co2System, Trace, _step_key, apply_step, enabled_steps, normalize
from co2run.runtime import system_digest

ALL_RUNS_COMPLETE = "all-runs-complete"
STUCK_CONFIG = "stuck-config"
CYCLE_WITHOUT_PROGRESS = "cycle-without-progress"
BUDGET_EXHAUSTED = "budget-exhausted"

N = TypeVar("N")


@dataclass(frozen=True)
class OracleResult:
    kind: str
    witness: Optional[ContractSystem] = None


def _bounded_moves(system: ContractSystem, bound: int) -> tuple[MoveLabel, ...]:
    moves = []
    for m in enabled_moves(system):
        if m.dir == SEND and len(system.queue(m.actor, m.peer)) >= bound:
            continue
        moves.append(m)
    return tuple(moves)


def _sccs(graph: dict[N, list[N]]) -> list[set[N]]:
    """The strongly connected components of a graph given as successor
    lists, successors' components first: Tarjan's algorithm, its recursion
    a generator run on `descend`."""
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    stack: list[N] = []
    on_stack: set[N] = set()
    out: list[set[N]] = []

    def connect(v: N):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in graph[v]:
            if w not in index:
                yield connect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp: set[N] = set()
            while v not in comp:
                w = stack.pop()
                on_stack.discard(w)
                comp.add(w)
            out.append(comp)

    for v in graph:
        if v not in index:
            descend(connect(v))
    return out


def execution_oracle(
    system: ContractSystem, buffer_bound: int = 1, max_configs: int = 200_000
) -> OracleResult:
    """Exhaustively run the FIFO semantics with bounded queues.

    Fails on the first reachable configuration that is stuck short of
    termination. Loops are judged under a fair scheduler: a reachable cycle
    is acceptable as long as every unfinished participant has some enabled
    move within it (fairness will serve the move, inside the loop or out of
    it) and every message circulating in the loop stays consumable. A loop
    that starves a waiting participant, or carries a message nobody can
    ever receive, has no choreography behind it.
    """
    if buffer_bound < 1:
        raise ValueError("buffer_bound must be at least 1")
    graph: dict[ContractSystem, list[tuple[MoveLabel, ContractSystem]]] = {}
    frontier = [system]
    while frontier:
        state = frontier.pop()
        if state in graph:
            continue
        if len(graph) >= max_configs:
            return OracleResult(BUDGET_EXHAUSTED)
        moves = _bounded_moves(state, buffer_bound)
        if not moves and not is_terminated(state):
            return OracleResult(STUCK_CONFIG, state)
        edges = []
        for m in moves:
            nxt = contract_step(state, m)
            edges.append((m, nxt))
            frontier.append(nxt)
        graph[state] = edges

    for scc in _sccs({s: [nxt for _, nxt in edges] for s, edges in graph.items()}):
        some = next(iter(scc))
        if len(scc) == 1 and all(nxt != some for _, nxt in graph[some]):
            continue  # no cycle through this component
        movers: set[str] = set()
        consumable: set[tuple[str, str]] = set()
        for state in scc:
            for m, _ in graph[state]:
                movers.add(m.actor)
                if m.dir == RECV:
                    consumable.add((m.peer, m.actor))
        unfinished = {
            n for n, c in some.contracts if not isinstance(head_normal(c), End)
        }
        if unfinished - movers:
            return OracleResult(CYCLE_WITHOUT_PROGRESS, some)
        for frm, to, _ in some.queues:
            if (frm, to) in consumable:
                continue
            if all(state.queue(frm, to) for state in scc):
                return OracleResult(CYCLE_WITHOUT_PROGRESS, some)
    return OracleResult(ALL_RUNS_COMPLETE)


def exculpation_within(system: Co2System, who: str, session: str, max_moves: int = 100) -> bool:
    """Can the culpable participant discharge itself by its own moves?

    Looks for a sequence of fewer than `max_moves` internal/advertisement
    steps by `who` alone, followed by one contractual action of `who` on the
    session, after which `who` is no longer culpable there (or the session
    finished).
    """
    seen = {system}
    queue = deque([(system, 0)])
    while queue:
        state, moves = queue.popleft()
        for step in enabled_steps(state):
            if step.actor != who:
                continue
            if step.kind == "do":
                nxt, label = apply_step(state, step)
                if label.session != session:
                    continue
                if who not in culpable(nxt, session) or is_terminated(nxt.session(session)):
                    return True
            elif step.kind in ("tau", "tell", "call") and moves + 1 < max_moves:
                nxt, _ = apply_step(state, step)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, moves + 1))
    return False


def reference_run(system: Co2System, seed: int = 0, max_steps: int = 10_000,
                  fairness_window: int = 64) -> Trace:
    """The trace `runtime.run` must yield: the same seeded, fair choice
    among the enabled steps, each round asking every participant for its
    steps and firing the chosen one afresh."""
    rng = random.Random(seed)
    state = normalize(system)
    ages: dict = {}
    labels, digests = [], []
    for _ in range(max_steps):
        keyed = [(s, _step_key(state, s)) for s in enabled_steps(state)]
        if not keyed:
            break
        ages = {k: ages.get(k, 0) + 1 for _, k in keyed}
        pool = [sk for sk in keyed if ages[sk[1]] >= fairness_window] or keyed
        choice, key = pool[rng.randrange(len(pool))]
        state, label = apply_step(state, choice)
        ages.pop(key, None)
        labels.append(label)
        digests.append(system_digest(state))
    return Trace(tuple(labels), tuple(digests), state)
