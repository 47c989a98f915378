"""Grid-robot DSL: the program AST, its canonical renderer, and the random
program sampler that is the only source of programs.

The concrete syntax is what render_program emits:

    def run() {
      move
      if (frontIsClear) {
        move
      }
      ifElse (markersPresent) {
        pickMarker
      } {
        putMarker
      }
      while (not(leftIsClear)) {
        turnRight
      }
      repeat (3) {
        putMarker
      }
    }

Statements carry pre-order stmt ids; every condition site (if/ifElse/while)
carries a pre-order branch id with true/false outcome slots. repeat is
unconditional and owns no branch site.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, replace

ACTIONS = ("move", "turnLeft", "turnRight", "putMarker", "pickMarker")
TESTS = (
    "frontIsClear",
    "leftIsClear",
    "rightIsClear",
    "markersPresent",
    "noMarkersPresent",
)

# Source-text token vocabulary of KarelProgram.token_ids, which the pinned
# program digest hashes. All integer literals collapse onto the single <int> id.
TEXT_TOKENS = (
    "def", "run", "(", ")", "{", "}",
    "move", "turnLeft", "turnRight", "putMarker", "pickMarker",
    "if", "ifElse", "while", "repeat", "not",
    "frontIsClear", "leftIsClear", "rightIsClear",
    "markersPresent", "noMarkersPresent",
    "<int>",
)
_TEXT_IDS = {tok: i for i, tok in enumerate(TEXT_TOKENS)}
_TEXT_TOKEN = re.compile(r"\w+|[(){}]")


@dataclass(frozen=True)
class Cond:
    name: str  # one of TESTS, or "not"
    inner: object = None  # Cond when name == "not"


@dataclass(frozen=True)
class Stmt:
    kind: str  # one of ACTIONS, "if", "ifElse", "while" or "repeat"
    stmt_id: int
    cond: object = None  # Cond for if/ifElse/while
    body: tuple = ()  # then-block or loop body
    orelse: tuple = ()  # ifElse only
    count: int = 0  # repeat only
    branch_id: int = -1  # if/ifElse/while only


@dataclass(frozen=True)
class KarelProgram:
    body: tuple
    n_statements: int
    n_branches: int
    token_ids: tuple = field(compare=False, default=())  # TEXT_TOKENS ids of the rendered text


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
    """Canonical source text, the DSL's concrete syntax."""
    lines = ["def run() {"]
    lines.extend(_render_block(program.body, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


# The frozen program distribution: control nesting depth and statement budget.
MAX_DEPTH = 4
MAX_STATEMENTS = 20


def sample_program(rng):
    """Random program in the frozen grammar: control nesting up to MAX_DEPTH,
    a global budget of 2..MAX_STATEMENTS statements, repeat counts 2..5,
    conditions uniform over the five tests with an occasional not() wrapper. A
    stand-in distribution for the published corpus, which is not bundled."""
    budget = [int(rng.integers(2, MAX_STATEMENTS + 1))]
    # Each statement takes its id (and a condition site its branch id) before
    # its children are drawn, which numbers both in pre-order.
    stmt_ids, branch_ids = itertools.count(), itertools.count()

    def cond():
        name = TESTS[int(rng.integers(len(TESTS)))]
        c = Cond(name=name)
        if rng.random() < 0.25:
            c = Cond(name="not", inner=c)
        return c

    def block(depth):
        stmts = []
        n = int(rng.integers(1, 4))
        for _ in range(n):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            stmt_id = next(stmt_ids)
            roll = rng.random()
            # keyword arguments evaluate left to right: branch_id, cond, body, orelse
            if depth >= MAX_DEPTH or roll < 0.55:
                stmts.append(Stmt(ACTIONS[int(rng.integers(len(ACTIONS)))], stmt_id))
            elif roll < 0.70:
                stmts.append(Stmt("if", stmt_id, branch_id=next(branch_ids), cond=cond(),
                                  body=block(depth + 1)))
            elif roll < 0.80:
                stmts.append(Stmt("ifElse", stmt_id, branch_id=next(branch_ids), cond=cond(),
                                  body=block(depth + 1), orelse=block(depth + 1)))
            elif roll < 0.90:
                stmts.append(Stmt("while", stmt_id, branch_id=next(branch_ids), cond=cond(),
                                  body=block(depth + 1)))
            else:
                stmts.append(Stmt("repeat", stmt_id, count=int(rng.integers(2, 6)),
                                  body=block(depth + 1)))
        # budget exhaustion can leave a block empty; that is grammatical
        return tuple(stmts)

    # block(1) runs first, so the next unused ids are the counts
    program = KarelProgram(block(1), next(stmt_ids), next(branch_ids))
    tokens = _TEXT_TOKEN.findall(render_program(program))
    return replace(program, token_ids=tuple(_TEXT_IDS["<int>" if tok.isdigit() else tok]
                                            for tok in tokens))
