"""Acceptance criteria, one test per criterion, each timed against its budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""
import random
import time
from collections import deque

from co2run.analysis import (
    check_honesty,
    check_trace_properties,
    culpable,
    exculpation_within,
    process_ready_set,
    ready,
    weak_process_ready_set,
)
from co2run.choreo import canonicalize, project, well_formed
from co2run.cli import main
from co2run.contracts import enabled_moves, is_terminated, make_system, MoveLabel
from co2run.frontend import (
    parse_contract,
    parse_global,
    parse_named_contracts,
    parse_system,
    render_contract,
    render_global,
    render_system,
)
from co2run.fixtures import CONTRACT_FILES, FIXTURES, fixture_path, fixture_text
from co2run.runtime import (
    FusePolicy,
    apply_step,
    enabled_steps,
    find_agreement,
    normalize,
    policy_check,
    proc_items,
    run,
)
from co2run.synthesis import (
    ALL_RUNS_COMPLETE,
    execution_oracle,
    projection_matches,
    synthesize,
)

from corpus import corpus_system, random_contract, random_global
from test_choreo import G_STORE2_TEXT, G_STORE3_TEXT
from test_runtime import _drive, S1_PLAN


class _timer:
    def __init__(self, number: int, description: str, budget: float):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(
            f"ACCEPTANCE {self.number} {status}: {self.description} "
            f"({elapsed:.2f}s, budget {self.budget:g}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} over budget"
        return False


def _load(name):
    return parse_system(fixture_text(name))


def test_criterion_1_choreography_reproduction(capsys):
    with _timer(1, "both store choreographies reproduced exactly", 2.0):
        t0 = time.perf_counter()
        assert main(["synth", str(fixture_path("store_trio.ctr"))]) == 0
        out3 = capsys.readouterr().out.strip()
        assert time.perf_counter() - t0 < 1.0
        t1 = time.perf_counter()
        assert main(["synth", str(fixture_path("store_pair.ctr"))]) == 0
        out2 = capsys.readouterr().out.strip()
        assert time.perf_counter() - t1 < 1.0
        assert parse_global(out3) == canonicalize(parse_global(G_STORE3_TEXT))
        assert parse_global(out2) == canonicalize(parse_global(G_STORE2_TEXT))


def test_criterion_2_subset_fusion():
    with _timer(2, "fuse selects the compliant pair and rejects the triple", 1.0):
        from co2run.runtime import LatentContract

        pool = (
            LatentContract("A1", "x", parse_contract("a!int")),
            LatentContract("A2", "y", parse_contract("a'?int")),
            LatentContract("A3", "z", parse_contract("b?bool")),
        )
        # subsets are searched largest-first, so the returned pair proves
        # every three-party instantiation failed synthesis
        agreement = find_agreement(pool)
        assert agreement is not None
        assert tuple(k.promiser for k in agreement.latents) == ("A1", "A2")
        assert canonicalize(agreement.global_type) == canonicalize(
            parse_global("A1 -> A2 : int")
        )
        # and the fixture run ends with the pair served, the third latent parked
        t = run(_load("subset_fuse.co2"), seed=0, max_steps=100)
        fuses = [l for l in t.steps if l.kind == "fuse"]
        assert len(fuses) == 1 and fuses[0].fuse.participants == ("A1", "A2")
        assert is_terminated(t.terminal.session(fuses[0].fuse.session))


def test_criterion_3_do_permission():
    with _timer(3, "only the contract-permitted action fires, step for step", 1.0):
        state = _load("do_int_bool.co2")
        steps = enabled_steps(state)
        assert [(s.actor, s.kind) for s in steps] == [("A", "do")]
        state, label = apply_step(state, steps[0])
        assert (label.actor, label.peer, label.sort, label.dir) == ("A", "B", "int", "send")
        assert state.session("s").queue("A", "B") == ("int",)
        steps = enabled_steps(state)
        assert [(s.actor, s.kind) for s in steps] == [("B", "do")]
        state, label = apply_step(state, steps[0])
        assert (label.actor, label.peer, label.sort, label.dir) == ("B", "A", "int", "recv")
        assert is_terminated(state.session("s"))
        assert all(not q for _, _, q in state.session("s").queues)
        assert not enabled_steps(state)


def test_criterion_4_ready_set_numerics():
    with _timer(4, "ready-set table at the freshly fused store session", 1.0):
        state, _ = _drive(_load("store_s1.co2"), S1_PLAN)
        assert process_ready_set(state, "A", "s1") == frozenset([("B1", "req")])
        assert process_ready_set(state, "B1", "s1") == frozenset()
        assert process_ready_set(state, "B2", "s1") == frozenset([("A", "req")])
        assert weak_process_ready_set(state, "A", "s1")[0] == frozenset([("B1", "req")])
        assert weak_process_ready_set(state, "B1", "s1")[0] == frozenset([("A", "req")])
        assert weak_process_ready_set(state, "B2", "s1")[0] == frozenset([("A", "req")])
        for who in ("A", "B1", "B2"):
            verdict, _ = ready(state, who)
            assert verdict is True, who


def test_criterion_5_dishonesty_witness():
    with _timer(5, "honesty check convicts the buyer that skips the notification", 10.0):
        verdict = check_honesty(_load("store_s1.co2"), "B1", state_bound=10_000)
        assert verdict.violation_found
        report = next(r for r in verdict.witness_reports if r.ready is False)
        assert report.process_ready_set == frozenset([("A", "order")])
        assert report.contract_ready_sets == frozenset(
            [frozenset([("B2", "ok")]), frozenset([("B2", "bye")])]
        )
        assert culpable(verdict.witness.terminal, report.session) == frozenset(["B1"])
        # the CLI agrees, with its documented exit code
        assert main([
            "honesty", str(fixture_path("store_s1.co2")), "--participant", "B1"
        ]) == 3


def test_criterion_6_multi_session_progress_pair(capsys):
    with _timer(6, "stuck pair blames A and B; robust pair finishes for 32 seeds", 10.0):
        stuck = _load("stuck_pair.co2")
        t = run(stuck, seed=0, max_steps=1_000)
        assert not enabled_steps(t.terminal)
        assert culpable(t.terminal, "s1") == frozenset(["A"])
        assert culpable(t.terminal, "s2") == frozenset(["B"])
        robust = _load("robust_pair.co2")
        for seed in range(32):
            trace = run(robust, seed=seed, max_steps=1_000)
            assert len(trace.terminal.sessions) == 2, seed
            assert all(is_terminated(x) for _, x in trace.terminal.sessions), seed
            report = check_trace_properties(trace.steps, trace.digests, robust)
            assert report.ok, (seed, report.violations)


def test_criterion_7_fuse_variant_gating():
    with _timer(7, "policy floors and modes gate which sessions may start", 3.0):
        t0 = time.perf_counter()
        # a three-participant floor only ever creates the big store session
        s12 = _load("store_s12.co2")
        state, _ = _drive(
            s12, [("tell", "A"), ("tell", "B1"), ("tell", "B2"), ("tell", "B12")]
        )
        pool = state.pool("A")
        floored = find_agreement(pool, FusePolicy(min_participants=3))
        assert set(k.promiser for k in floored.latents) == {"A", "B1", "B2"}
        s12_floor = parse_system(
            fixture_text("store_s12.co2").replace("fuse .", "fuse(min=3) .")
        )
        for seed in range(8):
            trace = run(s12_floor, seed=seed, max_steps=400, fairness_window=16)
            for label in trace.steps:
                if label.kind == "fuse":
                    assert label.fuse.participants == ("A", "B1", "B2"), seed
        assert time.perf_counter() - t0 < 1.0
        t1 = time.perf_counter()
        g2 = parse_global(G_STORE2_TEXT)
        g3 = parse_global(G_STORE3_TEXT)
        assert policy_check(g2, FusePolicy(mode="terminating"))
        assert policy_check(g3, FusePolicy(mode="terminating"))
        assert not policy_check(g2, FusePolicy(min_participants=3))
        assert time.perf_counter() - t1 < 1.0
        t2 = time.perf_counter()
        loop = parse_global("rec x . A -> B : ping ; B -> A : pong ; x")
        assert policy_check(loop, FusePolicy(mode="recursive"))
        assert not policy_check(loop, FusePolicy(mode="terminating"))
        pp = run(_load("pingpong.co2"), seed=0, max_steps=60)
        fuses = [l for l in pp.steps if l.kind == "fuse"]
        assert len(fuses) == 1  # created under the recursive-only policy
        assert canonicalize(fuses[0].fuse.global_type) == canonicalize(loop)
        assert time.perf_counter() - t2 < 1.0


def _explore(system, cap=10_000):
    root = normalize(system)
    seen = {root}
    queue = deque([root])
    while queue:
        state = queue.popleft()
        yield state
        for step in enabled_steps(state):
            if step.kind == "do":
                item = proc_items(state.process(step.actor))[step.item]
                prefix = item.branches[step.branch][0]
                move = MoveLabel(step.actor, prefix.peer, prefix.sort, prefix.dir)
                assert move in enabled_moves(state.session(prefix.session))
            nxt, _ = apply_step(state, step)
            if nxt not in seen and len(seen) < cap:
                seen.add(nxt)
                queue.append(nxt)


def test_criterion_8_accountability_suite():
    with _timer(8, "culpability, fidelity and exculpation over every fixture", 60.0):
        for name in FIXTURES:
            for state in _explore(_load(name)):
                for sname, t in state.sessions:
                    if not is_terminated(t):
                        assert culpable(state, sname), (name, sname)
        checked = 0
        for state in _explore(_load("robust_pair.co2")):
            for sname, _ in state.sessions:
                for who in culpable(state, sname):
                    assert exculpation_within(state, who, sname, 200), (who, sname)
                    checked += 1
        assert checked > 0


def test_criterion_9_oracle_equivalence():
    with _timer(9, "synthesis agrees with the bounded-execution oracle, 500 systems", 120.0):
        rng = random.Random(20260810)
        successes = 0
        for i in range(500):
            contracts = corpus_system(rng)
            system = make_system(contracts)
            result = synthesize(system)
            oracle = execution_oracle(system, 1)
            assert result.ok == (oracle.kind == ALL_RUNS_COMPLETE), (i, contracts)
            if result.ok:
                successes += 1
                g = result.global_type
                ok, diags = well_formed(g)
                assert ok, diags
                for pname, original in system.contracts:
                    assert projection_matches(project(g, pname), original), (i, pname)
        assert successes >= 100  # the corpus genuinely exercises both verdicts
        assert 500 - successes >= 100


def test_criterion_10_frontend_round_trip():
    with _timer(10, "parse/render identity on fixtures and 1000 generated terms", 30.0):
        for name in FIXTURES:
            system = parse_system(fixture_text(name))  # zero diagnostics: no raise
            assert parse_system(render_system(system)) == system
        for name in CONTRACT_FILES:
            named = parse_named_contracts(fixture_text(name))
            for c in named.values():
                assert parse_contract(render_contract(c)) == c
        rng = random.Random(424242)
        names = ["A", "B", "C"]
        for _ in range(600):
            me = rng.choice(names)
            peers = [n for n in names if n != me]
            c = random_contract(rng, peers, depth=rng.randint(1, 4))
            assert parse_contract(render_contract(c)) == c
        for _ in range(400):
            g = canonicalize(random_global(rng))
            assert parse_global(render_global(g)) == g
