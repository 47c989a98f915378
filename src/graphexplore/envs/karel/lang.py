"""Grid-robot DSL: the program AST and the random program sampler that is
the only source of programs.

In concrete syntax (the text the pinned program digest in the tests hashes):

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
from dataclasses import dataclass

ACTIONS = ("move", "turnLeft", "turnRight", "putMarker", "pickMarker")
TESTS = (
    "frontIsClear",
    "leftIsClear",
    "rightIsClear",
    "markersPresent",
    "noMarkersPresent",
)

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
    return KarelProgram(block(1), next(stmt_ids), next(branch_ids))
