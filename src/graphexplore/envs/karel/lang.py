"""Grid-robot DSL front end: tokenizer, recursive-descent parser, canonical
renderer, and a random program sampler.

Concrete syntax (frozen):

    def run() {
      move
      if (frontIsClear) { move }
      ifElse (markersPresent) { pickMarker } { putMarker }
      while (not(leftIsClear)) { turnRight }
      repeat (3) { putMarker }
    }

Statements carry pre-order stmt ids; every condition site (if/ifElse/while)
carries a pre-order branch id with true/false outcome slots. repeat is
unconditional and owns no branch site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ACTIONS = ("move", "turnLeft", "turnRight", "putMarker", "pickMarker")
TESTS = (
    "frontIsClear",
    "leftIsClear",
    "rightIsClear",
    "markersPresent",
    "noMarkersPresent",
)
CONTROL = ("if", "ifElse", "while", "repeat")

# Source-text token vocabulary for bag-of-words / sequence program encoders.
# All integer literals collapse onto the single <int> id.
TEXT_TOKENS = (
    "def", "run", "(", ")", "{", "}",
    "move", "turnLeft", "turnRight", "putMarker", "pickMarker",
    "if", "ifElse", "while", "repeat", "not",
    "frontIsClear", "leftIsClear", "rightIsClear",
    "markersPresent", "noMarkersPresent",
    "<int>",
)
TEXT_VOCAB = len(TEXT_TOKENS)
_TEXT_IDS = {tok: i for i, tok in enumerate(TEXT_TOKENS)}


class ParseError(ValueError):
    def __init__(self, line, col, message):
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Cond:
    name: str  # one of TESTS, or "not"
    inner: object = None  # Cond when name == "not"


@dataclass(frozen=True)
class Stmt:
    kind: str  # one of ACTIONS or CONTROL
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
    source: str = field(compare=False, default="")
    token_ids: tuple = field(compare=False, default=())  # TEXT_TOKENS ids of source


@dataclass
class _Token:
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch in "(){}":
            tokens.append(_Token("punct", ch, line, col))
            col += 1
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.next_stmt_id = 0
        self.next_branch_id = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.advance()
        if tok.text != text:
            got = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise ParseError(tok.line, tok.col, f"expected {text!r}, got {got}")
        return tok

    def parse_program(self, source):
        self.expect("def")
        self.expect("run")
        self.expect("(")
        self.expect(")")
        body = self.parse_block()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(tok.line, tok.col, f"expected end of input, got {tok.text!r}")
        return KarelProgram(
            body=body,
            n_statements=self.next_stmt_id,
            n_branches=self.next_branch_id,
            source=source,
            token_ids=tuple(_TEXT_IDS["<int>" if t.kind == "int" else t.text]
                            for t in self.tokens[:-1]),
        )

    def parse_block(self):
        self.expect("{")
        stmts = []
        while self.peek().text != "}":
            if self.peek().kind == "eof":
                tok = self.peek()
                raise ParseError(tok.line, tok.col, "expected '}', got end of input")
            stmts.append(self.parse_stmt())
        self.advance()
        return tuple(stmts)

    def parse_stmt(self):
        tok = self.advance()
        stmt_id = self.next_stmt_id
        self.next_stmt_id += 1
        if tok.text in ACTIONS:
            return Stmt(kind=tok.text, stmt_id=stmt_id)
        if tok.text in ("if", "ifElse", "while"):
            branch_id = self.next_branch_id
            self.next_branch_id += 1
            self.expect("(")
            cond = self.parse_cond()
            self.expect(")")
            body = self.parse_block()
            orelse = self.parse_block() if tok.text == "ifElse" else ()
            return Stmt(
                kind=tok.text,
                stmt_id=stmt_id,
                cond=cond,
                body=body,
                orelse=orelse,
                branch_id=branch_id,
            )
        if tok.text == "repeat":
            self.expect("(")
            count_tok = self.advance()
            if count_tok.kind != "int":
                raise ParseError(
                    count_tok.line, count_tok.col, f"expected a repeat count, got {count_tok.text!r}"
                )
            count = int(count_tok.text)
            if count < 1:
                raise ParseError(count_tok.line, count_tok.col, "repeat count must be >= 1")
            self.expect(")")
            body = self.parse_block()
            return Stmt(kind="repeat", stmt_id=stmt_id, body=body, count=count)
        expected = ", ".join(ACTIONS + CONTROL)
        got = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ParseError(tok.line, tok.col, f"expected a statement ({expected}), got {got}")

    def parse_cond(self):
        tok = self.advance()
        if tok.text == "not":
            self.expect("(")
            inner = self.parse_cond()
            self.expect(")")
            return Cond(name="not", inner=inner)
        if tok.text in TESTS:
            return Cond(name=tok.text)
        expected = ", ".join(TESTS + ("not",))
        got = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ParseError(tok.line, tok.col, f"expected a condition ({expected}), got {got}")


def parse(text):
    """Parse source text into a KarelProgram with pre-order stmt/branch ids."""
    return _Parser(text).parse_program(text)


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
    """Canonical source text; parsing it back yields an equal AST."""
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
            roll = rng.random()
            if depth >= MAX_DEPTH or roll < 0.55:
                stmts.append(Stmt(ACTIONS[int(rng.integers(len(ACTIONS)))], 0))
            elif roll < 0.70:
                stmts.append(Stmt("if", 0, cond=cond(), body=block(depth + 1)))
            elif roll < 0.80:
                # keyword arguments evaluate left to right: cond, body, orelse
                stmts.append(Stmt("ifElse", 0, cond=cond(), body=block(depth + 1),
                                  orelse=block(depth + 1)))
            elif roll < 0.90:
                stmts.append(Stmt("while", 0, cond=cond(), body=block(depth + 1)))
            else:
                stmts.append(Stmt("repeat", 0, count=int(rng.integers(2, 6)),
                                  body=block(depth + 1)))
        # budget exhaustion can leave a block empty; that is grammatical
        return tuple(stmts)

    # Placeholder ids; parsing the canonical text assigns the pre-order ones.
    return parse(render_program(KarelProgram(block(1), 0, 0)))
