"""Recursive-descent parser for mission problem files.

The concrete syntax is newline-insensitive: statements start with a
keyword, so separators (newlines, semicolons) are skipped as trivia.
``//`` introduces a comment running to end of line.  See
``docs/grammar.md`` for the full EBNF.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

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

# typed terms of the grammar: (token kind, what the error calls it)
_LOC = ("ident", "location id")
_TASK = ("ident", "task id")
_SUBJECT = ("ident", "robot id or 'all'")
_SUBTASK = ("ident", "subtask id")


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "number" | a punct char | "eof"
    value: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with an "eof" token.

    Digits are ASCII.  A number or identifier is scanned over every
    character that Unicode counts as a digit, so that a digit of another
    script is reported where it stands, as an unexpected character.
    """
    tokens = []
    line, line_start = 1, 0  # line number and offset of its first character
    i, n = 0, len(text)
    while i < n:
        ch, start = text[i], i
        column = start - line_start + 1
        i += 1
        if ch in " \t\r;\n":
            if ch == "\n":
                line, line_start = line + 1, i
            continue
        if text.startswith("//", start):
            end = text.find("\n", i)
            i = n if end < 0 else end
            continue
        if ch in _PUNCT:
            kind = ch
        elif ch.isdigit() or (ch == "-" and text[i : i + 1].isdigit()):
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            kind = "number" if "." in text[start:i] else "int"
        elif ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            kind = "ident"
        else:
            raise _unexpected(ch, line, column)
        lexeme = text[start:i]
        if not lexeme.isascii():
            for k, c in enumerate(lexeme):
                if c.isdigit() and not c.isascii():
                    raise _unexpected(c, line, column + k)
        if kind == "number" and (lexeme.count(".") > 1 or lexeme.endswith(".")):
            raise DslSyntaxError(
                f"malformed number {lexeme!r}", line, column, ("number",)
            )
        tokens.append(Token(kind, lexeme, line, column))
    tokens.append(Token("eof", "", line, n - line_start + 1))
    return tokens


def _unexpected(ch, line, column) -> DslSyntaxError:
    return DslSyntaxError(f"unexpected character {ch!r}", line, column, ("token",))


def _convert(convert, tok: Token):
    """``convert(tok.value)``; a number past Python's limit on the digits
    of an integer string is a syntax error at the token."""
    try:
        return convert(tok.value)
    except ValueError:
        raise DslSyntaxError(
            f"number too long ({len(tok.value)} characters)", tok.line, tok.column,
            ("shorter number",),
        ) from None


def _of(items, record) -> tuple:
    return tuple(x for x in items if isinstance(x, record))


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def fail(self, expected) -> DslSyntaxError:
        tok = self.cur
        got = repr(tok.value) if tok.kind != "eof" else "end of input"
        exp = ", ".join(sorted(expected))
        return DslSyntaxError(
            f"expected {exp}, got {got}", tok.line, tok.column, expected
        )

    def expect(self, term):
        """Consume the current token and return its value.

        ``term`` is a keyword or punctuation character that must appear as
        written, or a typed term ``(kind, what)``: an "ident", an "int"
        (whose value is an int) or a "number" (an int or a decimal, as
        text), which the error calls ``what``.
        """
        tok = self.cur
        if isinstance(term, str):
            kind, ok, what = None, tok.value == term, f"'{term}'"
        else:
            kind, what = term
            ok = tok.kind == kind or (kind == "number" and tok.kind == "int")
        if not ok:
            raise self.fail((what,))
        self.pos += 1
        return _convert(int, tok) if kind == "int" else tok.value

    # -- shared rules --------------------------------------------------------

    def seq(self, *terms) -> list:
        """The values of the typed terms among ``terms``, parsed in order."""
        values = [self.expect(t) for t in terms]
        return [v for t, v in zip(terms, values) if not isinstance(t, str)]

    def braced(self, item) -> list:
        """``"{" { item } "}"``: what each item returned, in order."""
        self.expect("{")
        items = []
        while self.cur.kind != "}":
            items.append(item())
        self.pos += 1
        return items

    def block(self, keyword: str, statements: dict) -> list:
        """``keyword "{" { statement } "}"``, where each statement starts
        with a keyword of ``statements``, whose rule parses the rest."""
        self.expect(keyword)

        def statement():
            rule = statements.get(self.cur.value)
            if rule is None:
                raise self.fail([f"'{w}'" for w in statements] + ["'}'"])
            self.pos += 1
            return rule()

        return self.braced(statement)

    def point(self) -> list[int]:
        """``"(" INT "," INT ")"``: a location, or a corner of a boundary."""
        return self.seq(
            "(", ("int", "x coordinate"), ",", ("int", "y coordinate"), ")"
        )

    # -- grammar -------------------------------------------------------------

    def parse_problem(self) -> ProblemSpec:
        seq, point = self.seq, self.point
        world = self.block("world", {
            "loc": lambda: Location(*seq(_LOC), *point()),
            "dist": lambda: DistanceEntry(
                *seq(_LOC, _LOC, "=", ("int", "distance"))
            ),
        })
        tasks = self.block("tasks", {
            "atomic": lambda: AtomicTaskDef(
                *seq(_TASK, "robots", ("int", "robot count"))
            ),
            "compound": self.compound,
        })
        self.expect("robots")
        robots = self.braced(self.robot)
        mission = self.block("mission", {
            "task": lambda: MissionTaskRef(*seq(_TASK, "at", _LOC)),
            "time": lambda: ConstraintSpec(
                "timeAvailable", budget=self.expect(("int", "time budget"))
            ),
            "maxidle": lambda: ConstraintSpec(
                "maxIdle", *seq(_SUBJECT), budget=self.expect(("int", "idle budget"))
            ),
            "boundary": lambda: ConstraintSpec(
                "boundary", *seq(_SUBJECT), Rect(*point(), *point())
            ),
        })
        self.expect(("eof", "end of input"))
        return ProblemSpec(
            locations=_of(world, Location),
            distances=_of(world, DistanceEntry),
            atomic_tasks=_of(tasks, AtomicTaskDef),
            compound_tasks=_of(tasks, CompoundTaskDef),
            robots=tuple(robots),
            mission_tasks=_of(mission, MissionTaskRef),
            constraints=_of(mission, ConstraintSpec),
        )

    def compound(self) -> CompoundTaskDef:
        name = self.expect(_TASK)
        self.expect("=")
        ordered = self.cur.value == "ordered"
        if ordered:
            self.pos += 1
        subtasks = self.seq("{", _SUBTASK)
        while self.cur.kind == ",":
            subtasks += self.seq(",", _SUBTASK)
        self.expect("}")
        return CompoundTaskDef(name, tuple(subtasks), ordered)

    def robot(self) -> RobotDef:
        name, loc = self.seq("robot", ("ident", "robot id"), "at", _LOC, "velocity")
        return RobotDef(name, loc, self.rational(), tuple(self.braced(self.capability)))

    def rational(self) -> Fraction:
        # int, decimal, or int/int
        tok = self.cur
        value = self.expect(("number", "velocity"))
        if "." in value or self.cur.kind != "/":
            return _convert(Fraction, tok)
        self.pos += 1
        denom = self.cur
        d = self.expect(("int", "denominator"))
        if d == 0:
            raise DslSyntaxError(
                "zero denominator", denom.line, denom.column, ("nonzero integer",)
            )
        return Fraction(_convert(int, tok), d)

    def capability(self) -> Capability:
        task, t, p = self.seq(
            "can", ("ident", "atomic task id"), "time", ("int", "required time"),
            "prob", ("number", "probability"),
        )
        return Capability(task, t, float(p))


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem file into an (unvalidated) AST.

    Raises :class:`DslSyntaxError` with a 1-based position and the set of
    acceptable tokens on malformed input.
    """
    return _Parser(tokenize(text)).parse_problem()
