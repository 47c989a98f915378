"""Karel program coverage: properties of the DSL, worlds and the interpreter."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexplore.envs.karel.env import KarelEnv, heuristic_world_policy, random_world_policy
from graphexplore.envs.karel.graph import mask_from_report, program_to_graph
from graphexplore.envs.karel.lang import TEXT_TOKENS, render_program, sample_program
from graphexplore.envs.karel.machine import execute
from graphexplore.envs.karel.worlds import WorldConfig, sample_world
from graphexplore.episode import run_episode

seeds = st.integers(0, 2**32 - 1)
configs = st.builds(
    WorldConfig,
    grid_side=st.integers(1, 8),
    wall_density=st.floats(0.0, 0.9),
    marker_density=st.floats(0.0, 1.0),
    max_marker_count=st.integers(1, 9),
)


def program_for(seed):
    return sample_program(np.random.default_rng(seed))


def preorder(stmts):
    for stmt in stmts:
        yield stmt
        yield from preorder(stmt.body)
        yield from preorder(stmt.orelse)


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_statement_and_branch_ids_number_the_program_in_preorder(seed):
    program = program_for(seed)
    stmts = list(preorder(program.body))
    assert [s.stmt_id for s in stmts] == list(range(program.n_statements))
    is_site = [s.kind in ("if", "ifElse", "while") for s in stmts]
    assert [s.branch_id for s, site in zip(stmts, is_site) if site] == list(range(program.n_branches))
    assert all(s.branch_id == -1 for s, site in zip(stmts, is_site) if not site)


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_token_ids_map_the_source_tokens(seed):
    program = program_for(seed)
    text = render_program(program)
    for punct in "(){}":
        text = text.replace(punct, f" {punct} ")
    reference = [TEXT_TOKENS.index("<int>" if tok.isdigit() else tok) for tok in text.split()]
    assert list(program.token_ids) == reference
    assert KarelEnv(program).program is program


def program_digest(count):
    """SHA-256 over what sample_program draws for seeds 0..count-1: the
    rendered text, every statement's (stmt_id, branch_id) in pre-order, the
    counts, the token ids and the generator state the draw leaves behind."""
    digest = hashlib.sha256()
    for seed in range(count):
        rng = np.random.default_rng(seed)
        program = sample_program(rng)
        ids = [(s.stmt_id, s.branch_id) for s in preorder(program.body)]
        digest.update(repr((render_program(program), ids, program.n_statements,
                            program.n_branches, program.token_ids,
                            rng.bit_generator.state)).encode())
    return digest.hexdigest()


def test_sampled_programs_are_pinned():
    # Every Karel pin and protocol runs on these programs; a new digest changes them all.
    assert program_digest(200) == "20502c5c16e971fcc7590304425836e544e6605a9bc9f7df9d21e7fc5078eed9"


def world_policy_mean(make_policy, count=10):
    rng = np.random.default_rng(0)
    covs = []
    for i in range(count):
        env = KarelEnv(sample_program(rng))
        _, traj = run_episode(env, make_policy(WorldConfig()), budget=env.budget, seed=i)
        covs.append(traj.final_coverage)
    return float(np.mean(covs))


def test_world_policy_means_are_pinned():
    assert world_policy_mean(random_world_policy) == 0.6807952069716776
    assert world_policy_mean(heuristic_world_policy) == 0.6370452069716775


@pytest.mark.parametrize("action", [3, SimpleNamespace(size=2, tokens=(0, 11, 0, 0))],
                         ids=["int", "size-and-tokens"])
def test_step_rejects_an_action_that_is_not_a_world(action):
    env = KarelEnv(program_for(0))
    env.reset(np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"action must be a KarelWorld, got {type(action).__name__}$"):
        env.step(action)


@settings(max_examples=50, deadline=None)
@given(seeds, configs, seeds)
def test_coverage_mask_sums_to_covered_units(program_seed, config, world_seed):
    program = program_for(program_seed)
    report = execute(program, sample_world(config, world_seed))
    assert mask_from_report(program_to_graph(program), report).sum() == report.covered()


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_each_coverage_unit_sits_on_its_statement_or_anchor_node(seed):
    # mask_from_report writes report unit i to node unit_nodes[i]; the mask's
    # sum cannot tell a misplaced unit from a placed one.
    program = program_for(seed)
    graph = program_to_graph(program)
    units = graph.unit_nodes.tolist()
    assert len(units) == program.n_statements + 2 * program.n_branches
    assert len(set(units)) == len(units)
    edges = set(graph.edges)
    for stmt in preorder(program.body):
        node = units[stmt.stmt_id]
        assert graph.node_kinds[node] == stmt.kind
        if stmt.branch_id >= 0:
            t, f = units[program.n_statements + 2 * stmt.branch_id:][:2]
            assert (graph.node_kinds[t], graph.node_kinds[f]) == ("true-anchor", "false-anchor")
            assert {(node, t, 1), (node, f, 1)} <= edges


@settings(max_examples=50, deadline=None)
@given(seeds, configs, seeds, st.one_of(st.integers(1, 50), st.just(1000)))
def test_execute_stays_within_its_step_cap(program_seed, config, world_seed, step_cap):
    program = program_for(program_seed)
    world = sample_world(config, world_seed)
    report = execute(program, world, step_cap=step_cap)
    assert report.steps <= step_cap
    assert report.error in (None, "wall_crash", "no_marker", "marker_overflow", "step_cap")
    assert report.world is not None and report.world.side == world.side


@settings(max_examples=30, deadline=None)
@given(seeds, configs, seeds)
def test_final_coverage_is_the_joint_coverage_of_the_proposed_worlds(program_seed, config,
                                                                    episode_seed):
    program = program_for(program_seed)
    env = KarelEnv(program)
    history, traj = run_episode(env, random_world_policy(config), budget=env.budget,
                                seed=episode_seed)
    stmt_hit = np.zeros(program.n_statements, dtype=bool)
    branch_hit = np.zeros((program.n_branches, 2), dtype=bool)
    for report in (execute(program, rec.action) for rec in history.records[1:]):
        stmt_hit |= report.stmt_hit.astype(bool)
        branch_hit |= report.branch_hit.astype(bool)
    units = program.n_statements + 2 * program.n_branches
    assert traj.final_coverage == (stmt_hit.sum() + branch_hit.sum()) / max(units, 1)
