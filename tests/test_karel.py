"""Karel program coverage: properties of the DSL, worlds and the interpreter."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexplore.envs.karel import (
    TEXT_TOKENS,
    KarelEnv,
    WorldConfig,
    execute,
    mask_from_report,
    parse,
    program_to_graph,
    random_world_policy,
    render_program,
    sample_program,
    sample_world,
    tokens_to_world,
    world_to_tokens,
)
from graphexplore.envs.karel.lang import _tokenize
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


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_parse_inverts_render(seed):
    program = program_for(seed)
    again = parse(render_program(program))
    assert again == program
    assert again.source == program.source


def test_parse_inverts_render_of_one_line_source():
    program = parse("def run() { move if (frontIsClear) { turnLeft } }")
    assert parse(render_program(program)) == program


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_token_ids_map_the_source_tokens(seed):
    program = program_for(seed)
    reference = [TEXT_TOKENS.index("<int>" if tok.kind == "int" else tok.text)
                 for tok in _tokenize(program.source)[:-1]]
    assert list(program.token_ids) == reference
    assert KarelEnv(program).program is program


@settings(max_examples=50, deadline=None)
@given(configs, seeds)
def test_world_token_form_round_trips(config, seed):
    world = sample_world(config, seed)
    assert tokens_to_world(world.side, world_to_tokens(world)) == world


@settings(max_examples=50, deadline=None)
@given(seeds, configs, seeds)
def test_coverage_mask_sums_to_covered_units(program_seed, config, world_seed):
    program = program_for(program_seed)
    report = execute(program, sample_world(config, world_seed))
    assert mask_from_report(program_to_graph(program), report).sum() == report.covered()


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
