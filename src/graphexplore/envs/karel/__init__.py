"""Grid-robot program coverage, one submodule each: `lang` (the DSL's AST,
renderer and program sampler), `machine` (the interpreter and its coverage
report), `graph` (coverage graphs), `worlds` (world distributions and the
valid-execution heuristic) and `env` (the constant-graph exploration
environment and its world policies)."""
