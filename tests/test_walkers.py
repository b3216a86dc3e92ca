"""Differential tests of the term walkers against `walk_oracle`, the
recursive walkers they replaced: on the fixtures, on corpus terms, systems
and contexts, on systems mid-run and on single-edit mutants of their texts,
each walker must give what its recursive twin gives, the very same node
when the result is a term, and the same error when it raises."""
from __future__ import annotations

import gc
import random
import sys
import weakref

import pytest

import walk_oracle as oracle
from co2run import choreo, contracts, runtime, synthesis
from co2run.choreo import (
    GEND,
    GChoice,
    GlobalType,
    GMsg,
    GPar,
    GRec,
    ProjectionError,
    canonicalize,
    project,
    well_formed,
)
from co2run.contracts import (
    Contract,
    ContractError,
    Rec,
    make_system,
    subst_parts,
    subst_rec,
)
from co2run.fixtures import CONTRACT_FILES, FIXTURES, fixture_text
from co2run.frontend import (
    ParseError,
    global_from_json,
    global_to_json,
    parse_named_contracts,
    parse_system,
    render_contract,
    render_global,
    render_process,
)
from co2run.frontend import parse as parse_module
from co2run.runtime import _binds, _Namer, _proc_key, normalize_proc, proc_subst
from co2run.synthesis import projection_matches, synthesize
from corpus import (
    broker_context,
    corpus_system,
    pair_context,
    projected_system,
    random_contract,
    random_global,
    random_raw_system,
    recursive_pair_context,
    reference_repr,
    rejoining_system,
    single_edit_mutants,
)


def _outcome(f, *args):
    """What f gives: a value, or the type and text of what it raises."""
    try:
        return f(*args)
    except (ProjectionError, ContractError, ValueError, KeyError, runtime.ReductionError) as exc:
        return type(exc), str(exc)


def _same(got, want) -> bool:
    if isinstance(want, (Contract, GlobalType, runtime._Named)):
        return got is want
    return type(got) is type(want) and got == want


# -- inputs ------------------------------------------------------------------

def _contexts(rng: random.Random) -> list[str]:
    texts = [fixture_text(name) for name in FIXTURES]
    for pairs, n in ((1, 4), (2, 3), (1, 9)):
        texts.append(pair_context(rng, pairs, n, rng.random() < 0.5)[0])
        texts.append(recursive_pair_context(rng, pairs, n))
    for k in (3, 4):
        texts += [broker_context(rng, k, True), broker_context(rng, k, False)]
    return texts


def _raw_systems(texts: list[str], monkeypatch) -> list[runtime.Co2System]:
    """The systems the texts hold, as parsed, before `normalize`."""
    out = []
    with monkeypatch.context() as m:
        m.setattr(parse_module, "normalize", lambda system: system)
        for text in texts:
            try:
                out.append(parse_system(text))
            except (ParseError, RecursionError):
                pass
    return out


def _contract_systems(rng: random.Random) -> list[dict[str, Contract]]:
    out = [parse_named_contracts(fixture_text(name)) for name in CONTRACT_FILES]
    for _ in range(60):
        out += [projected_system(rng), corpus_system(rng), random_raw_system(rng)]
    return out


def _contracts(systems: list[dict[str, Contract]], rng: random.Random) -> list[Contract]:
    out = [c for system in systems for c in system.values()]
    out += [random_contract(rng, ["A", "B", "C", "x", "y"]) for _ in range(150)]
    return out


# -- contracts ---------------------------------------------------------------

def test_substitutions_and_renderings_of_contracts_agree_with_the_oracle():
    rng = random.Random(19)
    contracts = _contracts(_contract_systems(rng), rng)
    rebuilt = 0
    for c in contracts:
        assert render_contract(c) == oracle.render_contract(c)
        mapping = {v: rng.choice("ABC") for v in c.mentioned_participants if rng.random() < 0.7}
        assert subst_parts(c, mapping) is oracle.subst_parts(c, mapping)
        for node in _subterms(c):
            if isinstance(node, Rec):
                got = subst_rec(node.body, node.var, node)
                assert got is oracle.subst_rec(node.body, node.var, node)
                rebuilt += got is not node.body
    assert rebuilt > 20


def _subterms(c: Contract):
    stack = [c]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Rec):
            stack.append(node.body)
        elif hasattr(node, "branches"):
            stack += [b[-1] for b in node.branches]


def test_first_reprs_agree_with_the_reference_on_new_terms_and_systems(monkeypatch):
    rng = random.Random(23)
    for c in [random_contract(rng, ["A", "B", "x"], depth=6) for _ in range(60)]:
        assert repr(c) == reference_repr(c)
    for g in [random_global(rng) for _ in range(60)]:
        assert repr(g) == reference_repr(g)
    for system in _raw_systems(_contexts(rng), monkeypatch):
        for s in (system, runtime.normalize(system)):
            assert repr(s) == reference_repr(s)


# -- global types --------------------------------------------------------------

def _globals(rng: random.Random) -> list[GlobalType]:
    """Corpus and synthesised global types, and ill-formed ones built from
    them: choices and parallels of any two, self-interactions, and those nested."""
    out = [random_global(rng) for _ in range(200)]
    for g, h in zip(out[:100], out[100:]):
        bad = [GChoice((g, h)), GPar((g, h)), GMsg("A", "A", "a", g)]
        out += bad + [GRec("x", bad[0]), GPar((bad[2], bad[0])), GChoice((bad[1], bad[2]))]
    for system in _contract_systems(rng):
        try:
            result = synthesize(make_system(system))
        except ContractError:
            continue
        if result.ok:
            out.append(result.global_type)
    return out


def test_projection_and_well_formedness_agree_with_the_oracle():
    rng = random.Random(29)
    failed = 0
    for g in _globals(rng):
        assert _same(_outcome(well_formed, g), oracle.well_formed(g))
        for who in sorted(g.participants) + ["Z"]:
            got, want = _outcome(project, g, who), _outcome(oracle.project, g, who)
            assert _same(got, want), (g, who, got, want)
            failed += isinstance(want, tuple)
    assert failed > 20


def test_canonical_forms_renderings_and_json_agree_with_the_oracle():
    rng = random.Random(31)
    for g in _globals(rng):
        assert canonicalize(g) is oracle.canonicalize(g)
        assert render_global(g) == oracle.render_global(g)
        data = global_to_json(g)
        assert data == oracle.global_to_json(g)
        assert global_from_json(data) is oracle.global_from_json(data) is g


@pytest.mark.parametrize("data", [
    [], {"kind": "msg", "from": "A", "to": "B"}, {"kind": "rec", "var": 3, "body": {}},
    {"kind": "par", "branches": [{"kind": "end"}]}, {"kind": "choice", "branches": {}},
    {"kind": "rec", "var": "x", "body": {"kind": "loop"}},
    {"kind": "par", "branches": [{"kind": "end"}, {"kind": "var"}]},
], ids=str)
def test_malformed_json_global_types_fail_as_in_the_oracle(data):
    assert _outcome(global_from_json, data) == _outcome(oracle.global_from_json, data)


# -- synthesis -----------------------------------------------------------------

def test_synthesis_and_projection_matching_agree_with_the_oracle():
    rng = random.Random(37)
    outcomes = set()
    for contracts in _contract_systems(rng):
        try:
            system = make_system(contracts)
        except ContractError:
            continue
        got, want = synthesize(system), oracle.synthesize(system)
        assert got == want, (contracts, got, want)
        outcomes.add(want.reason)
        if got.ok:
            for name, c in system.contracts:
                view = project(got.global_type, name)
                assert projection_matches(view, c) == oracle.projection_matches(view, c)
        for (a, ca), (b, cb) in zip(system.contracts, system.contracts[1:]):
            assert projection_matches(ca, cb) == oracle.projection_matches(ca, cb)
    assert len(outcomes) >= 3


def test_memoized_synthesis_agrees_with_the_oracle_at_every_bound(monkeypatch):
    """`synthesize` derives each recursion-free configuration once and charges
    a reuse what the first derivation charged; the oracle derives it on
    every path. The whole results agree at every bound, binding or not."""
    derived = {"memo": 0, "oracle": 0}

    def counting(side, split):
        def components(config):
            derived[side] += 1
            return split(config)
        return components

    monkeypatch.setattr(synthesis, "_components", counting("memo", synthesis._components))
    monkeypatch.setattr(oracle, "_components", counting("oracle", oracle._components))
    rng = random.Random(7)
    outcomes: dict = {}
    for _ in range(30):
        for contracts in (corpus_system(rng), random_raw_system(rng), projected_system(rng),
                          rejoining_system(rng, rng.randint(1, 8), rng.random() < 0.3)):
            try:
                system = make_system(contracts)
            except ContractError:
                continue
            for bound in (*range(1, 81), 10_000):
                got = synthesize(system, max_configs=bound)
                want = oracle.synthesize(system, max_configs=bound)
                assert got == want, (contracts, bound, got, want)
                outcomes[want.reason] = outcomes.get(want.reason, 0) + 1
    assert len(outcomes) == 5 and outcomes["unbounded"] > 300, outcomes
    assert derived["memo"] < derived["oracle"] * 0.8, derived


def test_synthesis_keeps_well_formed_types():
    """`synthesize` no longer calls `well_formed`: what it returns must pass it."""
    rng = random.Random(5)
    ok = 0
    for _ in range(400):
        for contracts in (random_raw_system(rng), corpus_system(rng), projected_system(rng)):
            try:
                result = synthesize(make_system(contracts))
            except ContractError:
                continue
            if result.ok:
                ok += 1
                assert well_formed(result.global_type) == (True, ())
    assert ok > 300


# -- processes -------------------------------------------------------------------

def _mutated_contexts(rng: random.Random) -> list[str]:
    texts = _contexts(rng)
    return texts + [m for text in texts for m in single_edit_mutants(rng, text, 12)]


def test_renaming_and_normal_forms_agree_with_the_oracle(monkeypatch):
    rng = random.Random(41)
    systems = _raw_systems(_mutated_contexts(rng), monkeypatch)
    assert len(systems) > 60
    for system in systems:
        processes = [p for _, p in system.processes] + [d.body for _, d in system.definitions]
        for p in processes:
            assert _binds(p) == oracle._binds(p)
            assert render_process(p) == oracle.render_process(p)
            taken = runtime.collect_identifiers(system)
            got = _outcome(runtime._rename, p, {}, {}, _Namer(set(taken)), system.session_names)
            want = _outcome(oracle._rename, p, {}, {}, _Namer(set(taken)), system.session_names)
            assert _same(got, want), (p, got, want)
            if isinstance(want, tuple):
                continue
            n = normalize_proc(want)
            assert n is oracle.normalize_proc(want)
            assert _proc_key(n) == oracle._proc_key(n)
            svars, pvars = sorted(n.free_session_vars), sorted(n.free_participant_vars)
            smap = {u: rng.choice(["s1", "s2", u]) for u in svars if rng.random() < 0.5}
            pmap = {a: rng.choice(["A", "B", a]) for a in pvars if rng.random() < 0.5}
            assert proc_subst(n, smap, pmap) is oracle.proc_subst(n, smap, pmap)
        assert runtime.normalize(system) == _oracle_normalize(system)


def _oracle_normalize(system: runtime.Co2System) -> runtime.Co2System:
    """`runtime.normalize` with the oracle's renaming and normal forms."""
    pool_sessions, pool_parts = {}, {}
    for _, pool in system.pools:
        for k in pool:
            pool_sessions[k.session_var] = k.session_var
            pool_parts.update((v, v) for v in k.contract.free_participant_vars)
    taken = {i for i in runtime.collect_identifiers(system) if i[:1].isupper()}
    taken |= system.session_names | {n for n, _ in system.definitions}
    namer = _Namer(taken | pool_sessions.keys() | pool_parts.keys())
    processes = {
        name: oracle.normalize_proc(oracle._rename(p, dict(pool_sessions), dict(pool_parts),
                                                   namer, system.session_names))
        for name, p in sorted(system.processes)
    }
    return runtime.make_co2(processes, dict(system.pools), dict(system.sessions),
                            dict(system.definitions))


# -- `fold` and both paths of a first repr ----------------------------------------------

@pytest.mark.parametrize("nesting", [0, 1, 3])
def test_the_differentials_hold_when_folds_go_children_first(nesting, monkeypatch):
    """At the default `_REPR_NESTING` these inputs are shallow enough that
    every first repr recurses; below `nesting` reprs they go on `post_order`
    instead, and the walkers must still agree with the oracle."""
    monkeypatch.setattr(contracts, "_REPR_NESTING", nesting)
    for differential in (
        test_substitutions_and_renderings_of_contracts_agree_with_the_oracle,
        test_projection_and_well_formedness_agree_with_the_oracle,
        test_canonical_forms_renderings_and_json_agree_with_the_oracle,
    ):
        gc.collect()  # a term left from an earlier run would bring its cached values
        differential()
    for differential in (
        test_first_reprs_agree_with_the_reference_on_new_terms_and_systems,
        test_renaming_and_normal_forms_agree_with_the_oracle,
    ):
        gc.collect()
        differential(monkeypatch)


@pytest.mark.parametrize("nesting", [0, 1, 3, contracts._REPR_NESTING])
def test_a_deep_choice_without_a_decider_fails_before_a_parallel_inside_it(
        nesting, monkeypatch):
    """Projecting onto C meets the choice first, as a recursive walk from the
    top does: a post-order that raised the first error it stepped would
    meet the parallel naming C on both sides first."""
    monkeypatch.setattr(contracts, "_REPR_NESTING", nesting)
    par = GPar((GMsg("C", "D", "x", GEND), GMsg("E", "C", "y", GEND)))
    g: GlobalType = GChoice((GMsg("A", "B", "a", par), GMsg("B", "A", "b", GEND)))
    for i in range(60):
        g = GMsg("A", "B", f"m{i}", g)
    want = (ProjectionError, "choice without a unique decider")
    assert _outcome(oracle.project, g, "C") == want
    assert _outcome(project, g, "C") == want
    deeper = (ProjectionError, "C appears in more than one parallel branch")
    assert _outcome(project, par, "C") == deeper


def test_a_fold_steps_only_the_nodes_its_steps_ask_for(monkeypatch):
    """Projecting onto A asks for the parallel's side naming A: the C–D side
    is never stepped, however deep the parallel lies."""
    def chain(src, dst, n, tag, cont=GEND):
        for i in range(n):
            cont = GMsg(src, dst, f"{tag}{i}", cont)
        return cont

    g = chain("A", "B", 60, "lead", GPar((chain("A", "B", 100, "ab"), chain("C", "D", 100, "cd"))))
    steps = 0

    def counting_fold(root, step, known):
        def counted(node, got):
            nonlocal steps
            steps += 1
            return step(node, got)
        return contracts.fold(root, counted, known)

    monkeypatch.setattr(choreo, "fold", counting_fold)
    assert project(g, "A") is oracle.project(g, "A")
    assert steps == 60 + 1 + 100  # the lead, the parallel and the A–B side


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_walkers_run_within_a_constant_stack_depth():
    """Fresh deep terms are walked within 150 frames of the caller's depth:
    projection, a first repr, substitution and normal forms."""
    n = 10_000
    g: GlobalType = GEND
    c: Contract = contracts.END
    for i in range(n):
        g = GMsg("A", "B", f"deep{i}", g)
        c = contracts.send("x", f"deep{i}", c)
    sums = []
    for side in ("l", "r"):
        p: runtime.Process = runtime.NIL
        for i in range(3_000):
            p = runtime.Sum(((runtime.PDo("s", "B", f"{side}{i}", contracts.SEND), p),))
        sums.append(p)
    par = runtime.Par((sums[1], sums[0]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        projected = project(g, "A")
        text = repr(g)
        renamed = subst_parts(c, {"x": "B"})
        normal = normalize_proc(par)
    finally:
        sys.setrecursionlimit(limit)
    assert projected.branches[0][:2] == ("B", f"deep{n - 1}")
    assert text.startswith(f"GMsg(src='A', dst='B', sort='deep{n - 1}', cont=GMsg(")
    assert renamed.mentioned_participants == {"B"}
    assert normal.parts == tuple(sums)


def test_a_fold_leaves_no_reference_cycle():
    """With the collector off, what a fold's steps built is freed as soon as
    nothing outside the fold holds it."""
    g: GlobalType = GEND
    for i in range(6):
        g = GMsg("A", "B", f"acyclic{i}", g)
    gc.disable()
    try:
        c = project(g, "A")
        built = []
        while c is not contracts.END:
            built.append(weakref.ref(c))
            c = c.branches[0][2]
        assert len(built) == 6
        assert [r for r in built if r() is not None] == []
    finally:
        gc.enable()
