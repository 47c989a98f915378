"""Karel program coverage: properties of the DSL, worlds and the interpreter."""

import hashlib
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexplore.envs.karel.env import KarelEnv, heuristic_world_policy, random_world_policy
from graphexplore.envs.karel.graph import program_to_graph
from graphexplore.envs.karel.lang import ACTIONS, sample_program
from graphexplore.envs.karel.machine import execute
from graphexplore.envs.karel.worlds import WorldConfig, sample_world
from graphexplore.episode import run_episode
from reference import reference_execute

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


def _render_cond(cond):
    if cond.name == "not":
        return f"not({_render_cond(cond.inner)})"
    return cond.name


def _render_block(stmts, indent):
    pad = "  " * indent
    lines = []
    for s in stmts:
        if s.kind in ACTIONS:
            lines.append(pad + s.kind)
        elif s.kind == "repeat":
            lines.append(pad + f"repeat ({s.count}) {{")
            lines.extend(_render_block(s.body, indent + 1))
            lines.append(pad + "}")
        elif s.kind == "ifElse":
            lines.append(pad + f"ifElse ({_render_cond(s.cond)}) {{")
            lines.extend(_render_block(s.body, indent + 1))
            lines.append(pad + "} {")
            lines.extend(_render_block(s.orelse, indent + 1))
            lines.append(pad + "}")
        else:
            lines.append(pad + f"{s.kind} ({_render_cond(s.cond)}) {{")
            lines.extend(_render_block(s.body, indent + 1))
            lines.append(pad + "}")
    return lines


def render_program(program):
    """The program's source text in the DSL's concrete syntax (see lang)."""
    lines = ["def run() {"]
    lines.extend(_render_block(program.body, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


# The source-text token vocabulary the program digest hashes ids of; every
# integer literal collapses onto the single <int> id.
TEXT_TOKENS = (
    "def", "run", "(", ")", "{", "}",
    "move", "turnLeft", "turnRight", "putMarker", "pickMarker",
    "if", "ifElse", "while", "repeat", "not",
    "frontIsClear", "leftIsClear", "rightIsClear",
    "markersPresent", "noMarkersPresent",
    "<int>",
)


def token_ids(program):
    """TEXT_TOKENS ids of the program's rendered source, one per word or bracket."""
    return tuple(TEXT_TOKENS.index("<int>" if tok.isdigit() else tok)
                 for tok in re.findall(r"\w+|[(){}]", render_program(program)))


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
                            program.n_branches, token_ids(program),
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
    world = sample_world(config, world_seed)
    env = KarelEnv(program)
    env.reset(np.random.default_rng(0))
    covered = env.step(world)
    assert env.observe().coverage.sum() == covered == execute(program, world).covered()


@settings(max_examples=50, deadline=None)
@given(seeds, configs, seeds)
def test_each_coverage_unit_sits_on_its_statement_or_anchor_node(seed, config, world_seed):
    # KarelEnv.observe places each unit hit on its statement or anchor node;
    # the coverage sum cannot tell a misplaced unit from a placed one.
    program = program_for(seed)
    graph = program_to_graph(program)
    units = graph.unit_nodes.tolist()
    assert len(units) == program.n_statements + 2 * program.n_branches
    assert len(set(units)) == len(units)
    env = KarelEnv(program)
    env.reset(np.random.default_rng(0))
    world = sample_world(config, world_seed)
    env.step(world)
    coverage = env.observe().coverage
    report = execute(program, world)
    edges = set(graph.edges)
    for stmt in preorder(program.body):
        node = units[stmt.stmt_id]
        assert graph.node_kinds[node] == stmt.kind
        assert coverage[node] == report.stmt_hit[stmt.stmt_id]
        if stmt.branch_id >= 0:
            t, f = units[program.n_statements + 2 * stmt.branch_id:][:2]
            assert (graph.node_kinds[t], graph.node_kinds[f]) == ("true-anchor", "false-anchor")
            assert {(node, t, 1), (node, f, 1)} <= edges
            assert coverage[[t, f]].tolist() == report.branch_hit[stmt.branch_id].tolist()
    assert not coverage[np.setdiff1d(np.arange(graph.node_count), units)].any()


@settings(max_examples=50, deadline=None)
@given(seeds, configs, seeds, st.one_of(st.integers(1, 50), st.just(1000)))
def test_execute_stays_within_its_step_cap(program_seed, config, world_seed, step_cap):
    program = program_for(program_seed)
    world = sample_world(config, world_seed)
    report = execute(program, world, step_cap=step_cap)
    assert report.steps <= step_cap
    assert report.error in (None, "wall_crash", "no_marker", "marker_overflow", "step_cap")


@settings(max_examples=300, deadline=None)
@given(seeds, st.builds(WorldConfig, grid_side=st.integers(1, 8), wall_density=st.floats(0.0, 0.95),
                        marker_density=st.floats(0.0, 1.0), max_marker_count=st.integers(1, 9)),
       seeds, st.one_of(st.integers(1, 50), st.just(1000)))
def test_execute_matches_the_reference_interpreter(program_seed, config, world_seed, step_cap):
    program = program_for(program_seed)
    world = sample_world(config, world_seed)
    report = execute(program, world, step_cap=step_cap)
    want = reference_execute(program, world, step_cap=step_cap)
    for name in ("stmt_hit", "branch_hit"):
        got, ref = getattr(report, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape and np.array_equal(got, ref)
    assert (report.error, report.steps) == (want.error, want.steps)


def world_digest(config, count=200):
    """SHA-256 over the grid bytes, hero and facing that sample_world draws
    for seeds 0..count-1."""
    digest = hashlib.sha256()
    for seed in range(count):
        world = sample_world(config, seed)
        digest.update(world.grid.tobytes())
        digest.update(repr((world.hero, world.facing)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("config, want", [
    (WorldConfig(), "c468ed039208cb9f6d7992e225baa126470018149fe9a3df263eae5f2ad1488e"),
    # 26 of the side-1 draws and 8 of the density-0.95 draws are all wall and
    # take the forced-open branch.
    (WorldConfig(grid_side=1), "0b9ab052e276d3fbbc2ecb994f90c8885d9d051577912ff87bb8c50152df8cc8"),
    (WorldConfig(wall_density=0.95),
     "69443a7b310e92d30b17854fde6c1c5410b968360e03185eba8ba8b51b054792"),
    (WorldConfig(marker_density=1.0),
     "72f6485662a8fe765da98bc6a7b7e428026cfe9e22573c035637a02c359731a5"),
], ids=["default", "side-1", "walls-0.95", "markers-1.0"])
def test_sampled_worlds_are_pinned(config, want):
    # The Karel world policies and their pins draw from sample_world.
    assert world_digest(config) == want


@pytest.mark.parametrize("field, value", [
    ("grid_side", 0), ("wall_density", 1.0), ("marker_density", -0.1), ("max_marker_count", 10),
])
def test_world_config_rejects_a_bad_value_at_construction(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        WorldConfig(**{field: value})


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
