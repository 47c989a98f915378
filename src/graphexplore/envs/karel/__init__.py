"""Grid-robot program coverage: the DSL's AST, renderer and program sampler,
interpreter, coverage graphs, world distributions, and the constant-graph
exploration environment."""

from .lang import (
    ACTIONS,
    TESTS,
    TEXT_TOKENS,
    Cond,
    KarelProgram,
    Stmt,
    render_program,
    sample_program,
)
from .machine import CoverageReport, KarelWorld, execute
from .graph import (
    FEATURE_WIDTH,
    NODE_KINDS,
    NUM_EDGE_TYPES,
    KarelGraph,
    mask_from_report,
    program_to_graph,
)
from .worlds import (
    WorldConfig,
    sample_world,
    valid_execution_heuristic,
)
from .env import (
    KarelEnv,
    heuristic_world_policy,
    random_world_policy,
)
