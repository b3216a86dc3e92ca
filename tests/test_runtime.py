import functools
import hashlib
import itertools
import random
from collections import Counter
from typing import Iterable, Optional

import pytest

from co2run import runtime
from co2run.choreo import canonicalize, well_formed
from co2run.contracts import (
    ContractError,
    Rec,
    RecVar,
    is_part_var,
    is_terminated,
    make_system,
    send,
    subst_parts,
)
from co2run.frontend import parse_contract, parse_global, parse_system
from co2run.fixtures import FIXTURES, fixture_text
from co2run.runtime import (
    DEFAULT_POLICY,
    Agreement,
    Call,
    Delim,
    FusePolicy,
    LatentContract,
    proc_items,
    NIL,
    Par,
    PTell,
    ProcDef,
    ReductionError,
    Step,
    Sum,
    apply_step,
    collect_identifiers,
    enabled_steps,
    find_agreement,
    make_co2,
    normalize,
    normalize_proc,
    policy_check,
    run,
    system_digest,
)
from co2run.synthesis import synthesize

from corpus import broker_context, corpus_system, pair_context, random_contract
from corpus import recursive_pair_context
from test_choreo import G_STORE2_TEXT, G_STORE3_TEXT


def _load(name):
    return parse_system(fixture_text(name))


def _drive(state, plan):
    """Apply (kind, actor) steps in order; returns (state, labels)."""
    labels = []
    for kind, actor in plan:
        step = next(
            s for s in enabled_steps(state) if s.kind == kind and s.actor == actor
        )
        state, label = apply_step(state, step)
        labels.append(label)
    return state, labels


S1_PLAN = [("tell", "A"), ("tell", "B1"), ("tell", "B2"), ("fuse", "A")]


# -- normalization -----------------------------------------------------------

def test_normalize_proc_drops_nil_and_flattens():
    p = Par((Par((NIL, NIL)), NIL))
    assert normalize_proc(p) == NIL
    q = parse_system("participant A { tau . 0 | 0 }").process("A")
    assert isinstance(q, Sum)  # the nil side vanished


def test_normalize_idempotent_on_fixtures():
    for name in ("store_s1.co2", "robust_pair.co2", "pingpong.co2", "store_s1pp.co2"):
        s = _load(name)
        assert normalize(s) == s


def test_reductions_preserve_normal_form():
    # every reachable state along random walks is its own normal form, so
    # visited sets never split over representation noise; in particular
    # advertised handles keep linking pools to their process occurrences
    import random

    from co2run.fixtures import FIXTURES

    rng = random.Random(5)
    for name in FIXTURES:
        system = _load(name)
        for _ in range(4):
            state = system
            for _ in range(rng.randrange(2, 14)):
                steps = enabled_steps(state)
                if not steps:
                    break
                state, _ = apply_step(state, steps[rng.randrange(len(steps))])
                assert normalize(state) == state, name


def test_normalize_preserves_enabled_steps():
    for name in ("store_s1.co2", "robust_pair.co2", "subset_fuse.co2"):
        s = _load(name)
        before = sorted((st.actor, st.kind) for st in enabled_steps(s))
        after = sorted((st.actor, st.kind) for st in enabled_steps(normalize(s)))
        assert before == after


def test_shadowed_delimitation_renamed_apart():
    src = """
    participant A {
      tell A @x { B!int } . (x) do x B!int
    }
    participant B { 0 }
    """
    s = parse_system(src)
    # the delimited x is distinct from the advertised handle
    tells = [st for st in enabled_steps(s) if st.kind == "tell"]
    assert tells
    ids = collect_identifiers(s)
    assert "x" in ids and "x_1" in ids


# -- tell ----------------------------------------------------------------------

def test_tell_appends_latent_to_target_pool():
    s = _load("store_s1.co2")
    s2, labels = _drive(s, [("tell", "B1")])
    (host, pool), = s2.pools
    assert host == "A"
    assert pool[0].promiser == "B1"
    assert labels[0].kind == "tell" and labels[0].target == "A"


def test_tell_to_self():
    s = _load("store_s1.co2")
    s2, _ = _drive(s, [("tell", "A")])
    assert s2.pool("A")[0].promiser == "A"


def test_choosing_a_branch_discards_siblings():
    src = """
    participant A { tau . 0 + tell B @x { B!int } . do x B!int }
    participant B { 0 }
    """
    s = parse_system(src)
    tau_step = next(st for st in enabled_steps(s) if st.kind == "tau")
    s2, _ = apply_step(s, tau_step)
    assert s2.process("A") == NIL
    assert not s2.pools


# -- agreement and fuse ---------------------------------------------------------

def test_find_agreement_reproduces_store_substitution():
    s = _load("store_s1.co2")
    s2, _ = _drive(s, [("tell", "A"), ("tell", "B1"), ("tell", "B2")])
    agreement = find_agreement(s2.pool("A"))
    assert agreement is not None
    assert tuple(k.promiser for k in agreement.latents) == ("A", "B1", "B2")
    assert dict(agreement.pi) == {
        "a": "A", "a'": "A", "b1": "B1", "b1'": "B1", "b2": "B2", "b2'": "B2"
    }
    assert canonicalize(agreement.global_type) == canonicalize(parse_global(G_STORE3_TEXT))


def test_find_agreement_empty_pool():
    assert find_agreement(()) is None


def test_initial_store_offers_exactly_three_tells():
    s = _load("store_s1.co2")
    assert sorted((st.actor, st.kind) for st in enabled_steps(s)) == [
        ("A", "tell"), ("B1", "tell"), ("B2", "tell"),
    ]


def test_contract_mixing_names_and_variables():
    # the seller commits to one specific buyer but any shipper
    pool = (
        LatentContract(
            "A", "x",
            parse_contract("B!price . B?ack . a!request . a?tracking . B!tracking"),
        ),
        LatentContract("B", "y", parse_contract("A?price . A!ack . A?tracking")),
        LatentContract("S", "z", parse_contract("c?request . c!tracking")),
    )
    agreement = find_agreement(pool)
    assert agreement is not None
    assert tuple(k.promiser for k in agreement.latents) == ("A", "B", "S")
    assert dict(agreement.pi) == {"a": "S", "c": "A"}
    # without the named buyer on board there is no agreement at all
    assert find_agreement((pool[0], pool[2])) is None


def test_shared_variable_across_advertised_contracts():
    # fusing the first contract pins down b, which the second contract reuses
    src = """
    participant A {
      tell A @x { b!request } . fuse .
      tell A @y { b!invoice } . fuse . (do x b!request | do y b!invoice)
    }
    participant B {
      tell A @z { a?request } .
      tell A @w { a2?invoice } .
      (do z a?request | do w a2?invoice)
    }
    """
    s = parse_system(src)
    plan = [("tell", "A"), ("tell", "B"), ("fuse", "A")]
    state, labels = _drive(s, plan)
    assert dict(labels[-1].fuse.pi)["b"] == "B"
    # the not-yet-advertised second contract now names B explicitly
    items = [
        it for it in proc_items(state.process("A")) if isinstance(it, Sum)
    ]
    tell_prefixes = [
        pre for it in items for pre, _ in it.branches if pre.__class__.__name__ == "PTell"
    ]
    assert len(tell_prefixes) == 1
    assert tell_prefixes[0].contract.free_participant_vars == frozenset()
    assert "B" in str(tell_prefixes[0].contract)
    # and the whole thing still runs to completion
    t = run(s, seed=0, max_steps=200)
    assert len(t.terminal.sessions) == 2
    assert all(is_terminated(x) for _, x in t.terminal.sessions)


def test_find_agreement_picks_compliant_subset():
    pool = (
        LatentContract("A1", "x", parse_contract("a!int")),
        LatentContract("A2", "y", parse_contract("a'?int")),
        LatentContract("A3", "z", parse_contract("b?bool")),
    )
    agreement = find_agreement(pool)
    assert agreement is not None
    assert tuple(k.promiser for k in agreement.latents) == ("A1", "A2")
    assert canonicalize(agreement.global_type) == canonicalize(parse_global("A1 -> A2 : int"))


def test_fuse_installs_session_and_substitutes():
    s = _load("store_s1.co2")
    s2, labels = _drive(s, S1_PLAN)
    (sname, t), = s2.sessions
    assert sname == "s1"
    assert set(t.participants) == {"A", "B1", "B2"}
    assert all(not msgs for _, _, msgs in t.queues)
    report = labels[-1].fuse
    assert report.participants == ("A", "B1", "B2")
    assert set(dict(report.sigma)) == {"x", "y", "z"}
    assert set(dict(report.sigma).values()) == {"s1"}
    # no fused variable survives anywhere in the system
    leftover = collect_identifiers(s2) & (set(dict(report.sigma)) | set(dict(report.pi)))
    assert not leftover
    assert not s2.pools
    # reduction results stay in normal form
    assert normalize(s2) == s2


def test_fuse_blocked_without_agreement():
    s = _load("store_s1.co2")
    s2, _ = _drive(s, [("tell", "A")])
    assert not any(st.kind == "fuse" for st in enabled_steps(s2))
    with pytest.raises(ReductionError):
        apply_step(s2, Step("A", 0, 0, "fuse"))


def test_step_kind_must_match_its_prefix():
    s = normalize(_load("store_s1.co2"))
    tell = next(st for st in enabled_steps(s) if st.actor == "A")
    assert tell.kind == "tell"
    with pytest.raises(ReductionError):
        apply_step(s, Step("A", tell.item, tell.branch, "tau"))


def test_honest_store_completes():
    # repair the buyer so it notifies before ordering: the whole session
    # then runs to completion under any seed
    src = fixture_text("store_s1.co2").replace(
        "tau . do y a!req . do y a?quote . do y a!order",
        "tau . do y a!req . do y a?quote . do y b2'!ok . do y a!order",
    )
    honest = parse_system(src)
    for seed in range(8):
        t = run(honest, seed=seed, max_steps=500)
        (sname, sess), = t.terminal.sessions
        assert is_terminated(sess), seed


def test_fuse_reports_are_legal_agreements():
    for name, plan in (
        ("store_s1.co2", S1_PLAN),
        ("store_s2.co2", [("tell", "A"), ("tell", "B12"), ("fuse", "A")]),
    ):
        s = _load(name)
        s2, labels = _drive(s, plan)
        report = labels[-1].fuse
        pi = dict(report.pi)
        sigma = dict(report.sigma)
        assert len(set(sigma.values())) == 1
        ok, diags = well_formed(report.global_type)
        assert ok, diags
        assert set(report.global_type.participants) <= set(report.participants)


def test_policy_check_gates():
    g2 = parse_global(G_STORE2_TEXT)
    g3 = parse_global(G_STORE3_TEXT)
    loop = parse_global("rec x . A -> B : ping ; B -> A : pong ; x")
    assert not policy_check(g2, FusePolicy(min_participants=3))
    assert policy_check(g3, FusePolicy(min_participants=3))
    assert policy_check(g3, FusePolicy(mode="terminating"))
    assert not policy_check(loop, FusePolicy(mode="terminating"))
    assert policy_check(loop, FusePolicy(mode="recursive"))
    assert not policy_check(g3, FusePolicy(mode="recursive"))


def test_s12_policy_and_order_select_the_session():
    s = _load("store_s12.co2")
    plan = [("tell", "A"), ("tell", "B1"), ("tell", "B2"), ("tell", "B12")]
    s2, _ = _drive(s, plan)
    pool = s2.pool("A")
    # largest-first: the three-party agreement wins
    big = find_agreement(pool)
    assert set(k.promiser for k in big.latents) == {"A", "B1", "B2"}
    # smallest-first: the two-party agreement wins
    small = find_agreement(pool, FusePolicy(prefer_smallest=True))
    assert set(k.promiser for k in small.latents) == {"A", "B12"}
    assert canonicalize(small.global_type) == canonicalize(parse_global(G_STORE2_TEXT))
    # a three-participant floor can only ever build the big session
    floored = find_agreement(pool, FusePolicy(min_participants=3))
    assert set(k.promiser for k in floored.latents) == {"A", "B1", "B2"}


# -- the pruned agreement search ---------------------------------------------

def exhaustive_agreement(
    pool: tuple[LatentContract, ...], policy: FusePolicy
) -> Optional[Agreement]:
    """The agreement search before it skipped candidates that `synthesize`
    rejects at its first step: every subset, every assignment."""
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
                    return Agreement(latents, tuple(sorted(pi.items())), t, result.global_type)
    return None


_VARIABLES = ("u", "v", "w")


def _latent(promiser, text, session_var=None):
    return LatentContract(promiser, session_var or "x" + promiser.lower(), parse_contract(text))


def _decoy(rng, names):
    """A latent the search must get past: a random contract, sometimes on an
    existing promiser, naming its own promiser, or never instantiable."""
    roll = rng.random()
    promiser = rng.choice(names) if roll < 0.15 else f"D{rng.randrange(3)}"
    if roll < 0.25:
        contract = RecVar("t") if rng.random() < 0.5 else Rec("t", RecVar("t"))
    else:
        peers = [p for p in names + list(_VARIABLES) if p != promiser or roll < 0.35]
        contract = random_contract(rng, peers, depth=rng.randint(1, 2))
    session_var = "X" if rng.random() < 0.05 else "x" + promiser.lower()
    return LatentContract(promiser, session_var, contract)


def _random_pool(rng):
    """A corpus system with some peers turned into variables, plus decoys,
    in random order: at most five latents."""
    pool = []
    contracts = corpus_system(rng)
    for name, c in contracts.items():
        hidden = [p for p in sorted(c.mentioned_participants) if rng.random() < 0.5]
        c = subst_parts(c, {p: rng.choice(_VARIABLES) for p in hidden})
        pool.append(LatentContract(name, "x" + name.lower(), c))
    while len(pool) < 5 and rng.random() < 0.5:
        pool.append(_decoy(rng, sorted(contracts)))
    rng.shuffle(pool)
    return tuple(pool)


POLICIES = (
    DEFAULT_POLICY,
    FusePolicy(prefer_smallest=True),
    FusePolicy(3, "terminating"),
    FusePolicy(mode="recursive"),
)


def _store_s12_pool():
    """Broker A's pool once all four store participants have told it."""
    s = _load("store_s12.co2")
    s2, _ = _drive(s, [("tell", "A"), ("tell", "B1"), ("tell", "B2"), ("tell", "B12")])
    return s2.pool("A")


def _client(sorts, peer="s"):
    """A client that sends first to its variable peer, then alternates."""
    return " . ".join(f"{peer}{'!?'[i % 2]}{x}" for i, x in enumerate(sorts))


def _server(sorts):
    """A server of client C, the dual of `_client(sorts)`."""
    return " . ".join(f"C{'?!'[i % 2]}{x}" for i, x in enumerate(sorts))


def _broker_pools(rng):
    """Pools shaped like the benchmark's broker workload, shuffled: a client
    with k-1 candidate servers, all but one poisoned in their last sort; a
    client/server core among servers waiting for a sort nobody sends; and
    clients that all send first, on one shared variable or each on its own."""
    sorts = ["a", "b", "c", "d", "e"]
    pools = []
    for k in (3, 4, 5, 6):
        msgs = rng.sample(sorts, 4)
        right = rng.randrange(k - 1)
        servers = [_latent(f"S{i}", _server(msgs if i == right else msgs[:-1] + [f"z{i}"]))
                   for i in range(k - 1)]
        pools.append([_latent("C", _client(msgs))] + servers)
        msgs = rng.sample(sorts, 3)
        decoys = [_latent(f"D{i}", _server([f"z{i}"] + msgs[1:])) for i in range(k - 2)]
        pools.append([_latent("C", _client(msgs)), _latent("S", _server(msgs))] + decoys)
    for k in (3, 4, 5):
        pools.append([_latent(f"C{i}", _client(rng.sample(sorts, 2))) for i in range(k)])
        pools.append([_latent(f"C{i}", _client(rng.sample(sorts, 2), f"s{i}")) for i in range(k)])
    for pool in pools:
        rng.shuffle(pool)
    return [tuple(pool) for pool in pools]


def test_pruned_search_agrees_with_the_exhaustive_one(monkeypatch):
    # synthesize is a pure function of the system: both searches share its
    # results under all four policies, which halves the test's time
    shared = functools.lru_cache(maxsize=None)(synthesize)
    monkeypatch.setattr(runtime, "synthesize", shared)
    monkeypatch.setitem(globals(), "synthesize", shared)
    rng = random.Random(10)
    pools = [_random_pool(rng) for _ in range(1_000)]
    found = Counter()
    for pool in pools + _broker_pools(rng) + [_store_s12_pool()]:
        for policy in POLICIES:
            expected = exhaustive_agreement(pool, policy)
            assert find_agreement(pool, policy) == expected, (pool, policy)
            found[policy, expected is not None] += 1
    # every policy both finds agreements and comes up empty
    assert all(found[policy, hit] for policy in POLICIES for hit in (True, False)), found


def test_a_latent_naming_its_own_promiser_past_its_head_never_fuses():
    # the head is answered and starts the session, so only the rule that a
    # contract may not name its own participant refuses it
    assert find_agreement((_latent("A", "B!m . A!n"), _latent("B", "A?m"))) is None


def test_fuse_with_a_variable_bound_to_a_promiser_without_a_dual_action():
    # v may only become A, although A never receives the a that P sends on v:
    # the branch that sends it is never taken
    pool = (_latent("P", "A?x . v!a + A?y"), _latent("A", "P!y"), _latent("Q", "end"))
    agreement = find_agreement(pool)
    assert tuple(k.promiser for k in agreement.latents) == ("P", "A", "Q")
    assert dict(agreement.pi) == {"v": "A"}
    assert agreement.global_type == parse_global("A -> P : y")


def test_fuse_with_two_variables_bound_to_one_promiser():
    # the assignment is no matching: both clients name the same server
    pool = (_latent("C1", "s!a"), _latent("C2", "t!b"), _latent("S", "C1?a . C2?b"))
    agreement = find_agreement(pool)
    assert tuple(k.promiser for k in agreement.latents) == ("C1", "C2", "S")
    assert dict(agreement.pi) == {"s": "S", "t": "S"}


def _synthesize_calls(monkeypatch, pool):
    """The agreement found in the pool and the systems synthesised on the way."""
    runtime._search_agreement.cache_clear()  # an earlier test may have searched the pool
    calls = []
    monkeypatch.setattr(runtime, "synthesize", lambda t: calls.append(t) or synthesize(t))
    return find_agreement(pool), calls


def test_store_s12_search_prunes_the_four_party_assignments(monkeypatch):
    # 7 variables with 3 candidates each: every assignment of the 4-subset
    # fails; testing complete assignments only, 753 systems are synthesised
    # before {A, B1, B2} wins
    agreement, calls = _synthesize_calls(monkeypatch, _store_s12_pool())
    assert {k.promiser for k in agreement.latents} == {"A", "B1", "B2"}
    assert len(calls) <= 130


def test_candidate_servers_are_refused_before_synthesis(monkeypatch):
    # only the subset of C and the server its variable names can answer every
    # head; testing complete assignments only, 79 systems are synthesised
    msgs = ["a", "b", "c", "d"]
    servers = [_latent(f"S{i}", _server(msgs if i == 3 else msgs[:-1] + [f"z{i}"]))
               for i in range(5)]
    agreement, calls = _synthesize_calls(monkeypatch, (_latent("C", _client(msgs)), *servers))
    assert [k.promiser for k in agreement.latents] == ["C", "S3"]
    assert len(calls) <= 5


def test_no_agreement_pool_of_twelve_never_synthesises(monkeypatch):
    # twelve clients that each send first on their variable peer, as in the
    # benchmark's no-agreement pools: no subset has a receiver at its head
    calls = []
    monkeypatch.setattr(runtime, "synthesize", lambda *args: calls.append(args))
    pool = tuple(_latent(f"C{i}", f"s!q{i} . s?r{i}") for i in range(12))
    assert find_agreement(pool) is None
    assert calls == []


# -- do ---------------------------------------------------------------------------

def test_do_respects_the_contract():
    s = _load("do_int_bool.co2")
    steps = enabled_steps(s)
    assert [(st.actor, st.kind) for st in steps] == [("A", "do")]
    s2, label = apply_step(s, steps[0])
    assert label.sort == "int" and label.dir == "send"
    assert s2.session("s").queue("A", "B") == ("int",)
    steps2 = enabled_steps(s2)
    assert [(st.actor, st.kind) for st in steps2] == [("B", "do")]
    s3, _ = apply_step(s2, steps2[0])
    assert is_terminated(s3.session("s"))
    assert not enabled_steps(s3)


def test_do_on_unknown_session_not_enabled():
    src = """
    participant A { do x B!int }
    participant B { 0 }
    """
    s = parse_system(src)
    assert not enabled_steps(s)


# -- tau and call -----------------------------------------------------------------

def test_tau_consumes_prefix():
    s = _load("store_s1.co2")
    s2, _ = _drive(s, [("tell", "B1")])
    s3, label = _drive(s2, [("tau", "B1")])
    assert label[0].kind == "tau"


def test_call_unfolds_one_level():
    src = """
    participant A { Loop() }
    def Loop() = tau . Loop()
    """
    s = parse_system(src)
    s2, label = _drive(s, [("call", "A")])
    assert label[0].kind == "call" and label[0].callee == "Loop"
    assert any(st.kind == "tau" for st in enabled_steps(s2))
    s3, _ = _drive(s2, [("tau", "A")])
    assert [st.kind for st in enabled_steps(s3)] == ["call"]


def test_pingpong_runs_forever_but_deterministically():
    s = _load("pingpong.co2")
    t = run(s, seed=5, max_steps=50)
    assert len(t.steps) == 50
    fuses = [l for l in t.steps if l.kind == "fuse"]
    assert len(fuses) == 1
    assert not fuses[0].fuse.global_type.has_end
    # the session satisfies the policy it was created under
    assert policy_check(fuses[0].fuse.global_type, FusePolicy(mode="recursive"))


# -- the unfolding memo ------------------------------------------------------------

def _fresh_unfolding(state, call):
    """The call's body renamed as every unfolding was before the memo: with a
    namer that knows every identifier of the state."""
    d = state.definition(call.name)
    smap = dict(zip(d.session_params, call.session_args))
    pmap = dict(zip(d.part_params, call.part_args))
    namer = runtime._Namer(collect_identifiers(state))
    return runtime._rename(d.body, smap, pmap, namer, state.session_names)


def _memoised_call_steps(system, seed, steps):
    """Drive a seeded random run. At each call step the successor must hold
    a fresh renaming of the definition, and so must the definition's memo
    when it keeps one. Returns how many call steps went through a memo."""
    rng = random.Random(seed)
    state = normalize(system)
    memoised = 0
    for _ in range(steps):
        enabled = enabled_steps(state)
        if not enabled:
            break
        step = rng.choice(enabled)
        nxt, _ = apply_step(state, step)
        if step.kind == "call":
            proc = state.process(step.actor)
            call = proc_items(proc)[step.item]
            fresh = _fresh_unfolding(state, call)
            assert nxt.process(step.actor) == runtime._replace_item(proc, step.item, fresh)
            memo = state.definition(call.name)._unfoldings
            if memo is not None:
                assert memo[(call.session_args, call.part_args)] == fresh
                memoised += 1
        state = nxt
    return memoised


@pytest.mark.parametrize("name", FIXTURES)
def test_memoised_unfoldings_are_fresh_renamings_on_fixtures(name):
    memoised = sum(_memoised_call_steps(_load(name), seed, 300) for seed in (0, 1))
    if name == "pingpong.co2":
        assert memoised > 100


@pytest.mark.parametrize("seed", range(6))
def test_memoised_unfoldings_are_fresh_renamings_on_recursive_pairs(seed):
    rng = random.Random(seed)
    system = parse_system(recursive_pair_context(rng, rng.randint(1, 3), rng.randint(2, 4)))
    assert _memoised_call_steps(system, seed, 200) > 10


_TELL_X = Sum(((PTell("A", "x", send("B", "int")), Call("Make", (), ())),))


@pytest.mark.parametrize("body", [Delim(("x",), (), _TELL_X), _TELL_X], ids=["binds", "free"])
def test_a_body_that_mints_names_mints_fresh_ones_at_each_unfolding(body):
    # a free variable that is no parameter is refused by the parser, not by the API
    s = make_co2({"A": Call("Make", (), ())}, definitions={"Make": ProcDef((), (), body)})
    assert s.definition("Make")._unfoldings is None
    s1, _ = _drive(s, [("call", "A")])
    s2, _ = _drive(s1, [("tell", "A"), ("call", "A")])
    told = [proc_items(t.process("A"))[0].branches[0][0].session_var for t in (s1, s2)]
    assert told[0] != told[1]
    assert told[1] not in collect_identifiers(s1)


def test_pingpong_renames_each_body_once_per_argument_tuple(monkeypatch):
    system = _load("pingpong.co2")
    bodies = {system.definition(n).body: n for n in ("Ping", "Pong")}
    renamed = Counter()
    rename = runtime._rename

    def counting(p, smap, pmap, namer, session_names, *keep):
        if p in bodies:
            renamed[bodies[p], tuple(smap.values()), tuple(pmap.values())] += 1
        return rename(p, smap, pmap, namer, session_names, *keep)

    monkeypatch.setattr(runtime, "_rename", counting)
    trace = run(system, seed=0, max_steps=300)
    calls = Counter(label.callee for label in trace.steps if label.kind == "call")
    assert calls["Ping"] >= 50 and calls["Pong"] >= 50
    # B unfolds Pong once on its variable y before A's fuse binds y to s1
    assert set(renamed) == {("Ping", ("s1",), ()), ("Pong", ("y",), ()), ("Pong", ("s1",), ())}
    assert set(renamed.values()) == {1}


# -- scheduler ---------------------------------------------------------------------

def test_run_deterministic():
    s = _load("store_s12.co2")
    t1 = run(s, seed=9, max_steps=300)
    t2 = run(s, seed=9, max_steps=300)
    assert t1.steps == t2.steps
    assert t1.digests == t2.digests
    assert system_digest(t1.terminal) == system_digest(t2.terminal)


def test_run_zero_steps():
    t = run(_load("store_s1.co2"), seed=0, max_steps=0)
    assert t.steps == ()


def test_stuck_system_yields_no_steps():
    s = _load("stuck_pair.co2")
    t = run(s, seed=0, max_steps=100)
    assert not enabled_steps(t.terminal)
    assert run(t.terminal, seed=1, max_steps=50).steps == ()


def test_fairness_serves_persistent_step():
    src = """
    participant A { do s B!int }
    participant B { do s A?int }
    participant C { Spin() }
    session s {
      A: B!int
      B: A?int
    }
    def Spin() = tau . Spin()
    """
    s = parse_system(src)
    t = run(s, seed=13, max_steps=400, fairness_window=8)
    assert any(l.kind == "do" and l.actor == "A" for l in t.steps)
    assert any(l.kind == "do" and l.actor == "B" for l in t.steps)
    assert is_terminated(t.terminal.session("s"))


@functools.lru_cache(maxsize=None)
def traced_contexts() -> tuple:
    """(name, system, trace) of seeded `run`s of every fixture, generated
    pair and recursive-pair contexts, and broker contexts, which are heavy
    in `tell` and `fuse`."""
    rng = random.Random(3)
    systems = [(name, _load(name)) for name in FIXTURES]
    for pairs in (1, 2):
        systems.append((f"pairs{pairs}", parse_system(pair_context(rng, pairs, 4, pairs == 2)[0])))
        systems.append((f"recursive{pairs}", parse_system(recursive_pair_context(rng, pairs, 3))))
    for k, agree in ((3, True), (5, True), (4, False)):
        systems.append((f"broker{k}", parse_system(broker_context(rng, k, agree))))
    return tuple((f"{name}@{seed}", system, run(system, seed=seed, max_steps=150))
                 for name, system in systems for seed in (0, 1))


def walk(system, trace):
    """Each state of a `run` trace, with the label of the step taken from it
    and the successor: that of the first enabled step carrying the label and
    the recorded digest."""
    state = normalize(system)
    for label, digest in zip(trace.steps, trace.digests):
        nxt = next(n for n, produced in (apply_step(state, s) for s in enabled_steps(state))
                   if produced == label and system_digest(n) == digest)
        yield state, label, nxt
        state = nxt


def test_touched_participants_are_the_only_ones_whose_steps_change():
    kinds = set()
    for name, system, trace in traced_contexts():
        state = normalize(system)
        own = {actor: enabled_steps(state, actor) for actor, _ in state.processes}
        for i, (_, label, nxt) in enumerate(walk(system, trace)):
            for who in runtime.touched(nxt, label):
                if who in own:
                    own[who] = enabled_steps(nxt, who)
            assert sum(own.values(), ()) == enabled_steps(nxt), (name, i, label)
            kinds.add(label.kind)
    assert kinds == {"tau", "tell", "fuse", "do", "call"}


def _enumerating_run(system, seed, max_steps, fairness_window):
    """The scheduler of `run`, asking every participant for its enabled
    steps at every round."""
    rng = random.Random(seed)
    state = normalize(system)
    ages: dict = {}
    labels, digests = [], []
    for _ in range(max_steps):
        keyed = [(s, runtime._step_key(state, s)) for s in enabled_steps(state)]
        if not keyed:
            break
        ages = {k: ages.get(k, 0) + 1 for _, k in keyed}
        pool = [sk for sk in keyed if ages[sk[1]] >= fairness_window] or keyed
        choice, key = pool[rng.randrange(len(pool))]
        state, label = apply_step(state, choice)
        ages.pop(key, None)
        labels.append(label)
        digests.append(system_digest(state))
    return tuple(labels), tuple(digests)


@pytest.mark.parametrize("window", [4, 64])
def test_run_traces_equal_those_of_a_scheduler_enumerating_every_participant(window):
    for name, system, _ in traced_contexts():
        trace = run(system, seed=5, max_steps=120, fairness_window=window)
        assert (trace.steps, trace.digests) == _enumerating_run(system, 5, 120, window), name


def test_make_co2_rejects_lowercase_participant():
    with pytest.raises(ReductionError):
        make_co2({"a": NIL})


# Digests recorded before contract and global-type nodes were hash-consed;
# the trace format depends on them, so a change to the term core must not
# move them.
PINGPONG_SEED0_DIGESTS_SHA256 = (
    "ac5507327a034e6a53a9a881ac0972f0c25dcb7e34cc6c0d7062a92d360509b1"
)
STORE_S1_SEED3_DIGESTS = (
    "e009be5d80a393fe", "7777ef65f593900c", "f8c2e7ade25316f9", "3c39790c386dd25a",
    "2063a6f36339eb2c", "73c2e0627e943d07", "958b3c2778cef16c", "e846cc22b61f5790",
    "5151a48aa955a89a", "2b47c433a3bc3721", "8121350321c12348",
)


def test_run_digests_are_pinned():
    t = run(_load("pingpong.co2"), seed=0)
    assert len(t.digests) == 10_000
    assert t.digests[:3] == ("24e96e4cccf71baa", "fafc6acc581138ff", "5474b5a58b5ebf10")
    joined = "\n".join(t.digests).encode()
    assert hashlib.sha256(joined).hexdigest() == PINGPONG_SEED0_DIGESTS_SHA256
    assert system_digest(t.terminal) == "0e04fe11368c29be"

    t = run(_load("store_s1.co2"), seed=3)
    assert t.digests == STORE_S1_SEED3_DIGESTS
    assert system_digest(t.terminal) == "8121350321c12348"
