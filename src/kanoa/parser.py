"""Recursive-descent parser for mission problem files.

The concrete syntax is newline-insensitive: statements start with a
keyword, so separators (newlines, semicolons) are skipped as trivia.
``//`` introduces a comment running to end of line.  See
``docs/grammar.md`` for the full EBNF.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DslSyntaxError
from .problem import (
    AtomicTaskDef,
    Capability,
    CompoundTaskDef,
    ConstraintSpec,
    DistanceEntry,
    Location,
    MissionTaskRef,
    ProblemSpec,
    Rect,
    RobotDef,
)

_PUNCT = "{}(),=/"


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind  # "ident" | "int" | "number" | a punct char | "eof"
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind!r}, {self.value!r}, {self.line}:{self.column})"


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r;":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            start = i
            start_col = col
            i += 1
            col += 1
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
                col += 1
            lexeme = text[start:i]
            if lexeme.count(".") > 1 or lexeme.endswith("."):
                raise DslSyntaxError(
                    f"malformed number {lexeme!r}", line, start_col, ("number",)
                )
            kind = "number" if "." in lexeme else "int"
            tokens.append(Token(kind, lexeme, line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("ident", text[start:i], line, start_col))
            continue
        raise DslSyntaxError(
            f"unexpected character {ch!r}", line, col, expected=("token",)
        )
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, expected) -> DslSyntaxError:
        tok = self.cur
        got = repr(tok.value) if tok.kind != "eof" else "end of input"
        exp = ", ".join(sorted(expected))
        return DslSyntaxError(
            f"expected {exp}, got {got}", tok.line, tok.column, expected
        )

    def at_keyword(self, word: str) -> bool:
        return self.cur.kind == "ident" and self.cur.value == word

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.fail((f"'{word}'",))
        return self.advance()

    def expect_punct(self, ch: str) -> Token:
        if self.cur.kind != ch:
            raise self.fail((f"'{ch}'",))
        return self.advance()

    def expect_ident(self, what="identifier") -> str:
        if self.cur.kind != "ident":
            raise self.fail((what,))
        return self.advance().value

    def expect_int(self, what="integer") -> int:
        if self.cur.kind != "int":
            raise self.fail((what,))
        return int(self.advance().value)

    def expect_rational(self, what="number") -> Fraction:
        # int, decimal, or int/int
        if self.cur.kind not in ("int", "number"):
            raise self.fail((what,))
        first = self.advance()
        if first.kind == "int" and self.cur.kind == "/":
            self.advance()
            if self.cur.kind != "int":
                raise self.fail(("denominator",))
            denom = self.advance()
            if int(denom.value) == 0:
                raise DslSyntaxError(
                    "zero denominator", denom.line, denom.column, ("nonzero integer",)
                )
            return Fraction(int(first.value), int(denom.value))
        return Fraction(first.value)

    def expect_prob(self) -> float:
        if self.cur.kind not in ("int", "number"):
            raise self.fail(("probability",))
        return float(self.advance().value)

    # -- grammar -------------------------------------------------------------

    def parse_problem(self) -> ProblemSpec:
        locations, distances = self.parse_world()
        atomics, compounds = self.parse_tasks()
        robots = self.parse_robots()
        mission_tasks, constraints = self.parse_mission()
        if self.cur.kind != "eof":
            raise self.fail(("end of input",))
        return ProblemSpec(
            locations=tuple(locations),
            distances=tuple(distances),
            atomic_tasks=tuple(atomics),
            compound_tasks=tuple(compounds),
            robots=tuple(robots),
            mission_tasks=tuple(mission_tasks),
            constraints=tuple(constraints),
        )

    def parse_world(self):
        self.expect_keyword("world")
        self.expect_punct("{")
        locations, distances = [], []
        while not self.cur.kind == "}":
            if self.at_keyword("loc"):
                self.advance()
                name = self.expect_ident("location id")
                self.expect_punct("(")
                x = self.expect_int("x coordinate")
                self.expect_punct(",")
                y = self.expect_int("y coordinate")
                self.expect_punct(")")
                locations.append(Location(name, x, y))
            elif self.at_keyword("dist"):
                self.advance()
                frm = self.expect_ident("location id")
                to = self.expect_ident("location id")
                self.expect_punct("=")
                d = self.expect_int("distance")
                distances.append(DistanceEntry(frm, to, d))
            else:
                raise self.fail(("'loc'", "'dist'", "'}'"))
        self.expect_punct("}")
        return locations, distances

    def parse_tasks(self):
        self.expect_keyword("tasks")
        self.expect_punct("{")
        atomics, compounds = [], []
        while not self.cur.kind == "}":
            if self.at_keyword("atomic"):
                self.advance()
                name = self.expect_ident("task id")
                self.expect_keyword("robots")
                k = self.expect_int("robot count")
                atomics.append(AtomicTaskDef(name, k))
            elif self.at_keyword("compound"):
                self.advance()
                name = self.expect_ident("task id")
                self.expect_punct("=")
                ordered = False
                if self.at_keyword("ordered"):
                    self.advance()
                    ordered = True
                self.expect_punct("{")
                subtasks = [self.expect_ident("subtask id")]
                while self.cur.kind == ",":
                    self.advance()
                    subtasks.append(self.expect_ident("subtask id"))
                self.expect_punct("}")
                compounds.append(CompoundTaskDef(name, tuple(subtasks), ordered))
            else:
                raise self.fail(("'atomic'", "'compound'", "'}'"))
        self.expect_punct("}")
        return atomics, compounds

    def parse_robots(self):
        self.expect_keyword("robots")
        self.expect_punct("{")
        robots = []
        while not self.cur.kind == "}":
            self.expect_keyword("robot")
            name = self.expect_ident("robot id")
            self.expect_keyword("at")
            loc = self.expect_ident("location id")
            self.expect_keyword("velocity")
            vel = self.expect_rational("velocity")
            self.expect_punct("{")
            caps = []
            while not self.cur.kind == "}":
                self.expect_keyword("can")
                task = self.expect_ident("atomic task id")
                self.expect_keyword("time")
                t = self.expect_int("required time")
                self.expect_keyword("prob")
                p = self.expect_prob()
                caps.append(Capability(task, t, p))
            self.expect_punct("}")
            robots.append(RobotDef(name, loc, vel, tuple(caps)))
        self.expect_punct("}")
        return robots

    def parse_mission(self):
        self.expect_keyword("mission")
        self.expect_punct("{")
        tasks, constraints = [], []
        while not self.cur.kind == "}":
            if self.at_keyword("task"):
                self.advance()
                task = self.expect_ident("task id")
                self.expect_keyword("at")
                loc = self.expect_ident("location id")
                tasks.append(MissionTaskRef(task, loc))
            elif self.at_keyword("time"):
                self.advance()
                budget = self.expect_int("time budget")
                constraints.append(ConstraintSpec(kind="timeAvailable", budget=budget))
            elif self.at_keyword("maxidle"):
                self.advance()
                subject = self.expect_ident("robot id or 'all'")
                budget = self.expect_int("idle budget")
                constraints.append(
                    ConstraintSpec(kind="maxIdle", subject=subject, budget=budget)
                )
            elif self.at_keyword("boundary"):
                self.advance()
                subject = self.expect_ident("robot id or 'all'")
                self.expect_punct("(")
                x1 = self.expect_int("x coordinate")
                self.expect_punct(",")
                y1 = self.expect_int("y coordinate")
                self.expect_punct(")")
                self.expect_punct("(")
                x2 = self.expect_int("x coordinate")
                self.expect_punct(",")
                y2 = self.expect_int("y coordinate")
                self.expect_punct(")")
                constraints.append(
                    ConstraintSpec(
                        kind="boundary", subject=subject, rect=Rect(x1, y1, x2, y2)
                    )
                )
            else:
                raise self.fail(("'task'", "'time'", "'maxidle'", "'boundary'", "'}'"))
        self.expect_punct("}")
        return tasks, constraints


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem file into an (unvalidated) AST.

    Raises :class:`DslSyntaxError` with a 1-based position and the set of
    acceptable tokens on malformed input.
    """
    return _Parser(tokenize(text)).parse_problem()
