from fractions import Fraction

import pytest

from kanoa.errors import DslSyntaxError
from kanoa.parser import parse_problem
from kanoa.problem import (
    AtomicTaskDef,
    Capability,
    ConstraintSpec,
    Location,
    MissionTaskRef,
    ProblemSpec,
    RobotDef,
)

MINIMAL = """
world { loc depot (0, 0) }
tasks { atomic check robots 1 }
robots { robot r1 at depot velocity 1 { can check time 3 prob 0.9 } }
mission { task check at depot; time 10 }
"""


def test_minimal_golden_ast():
    spec = parse_problem(MINIMAL)
    expected = ProblemSpec(
        locations=(Location("depot", 0, 0),),
        distances=(),
        atomic_tasks=(AtomicTaskDef("check", 1),),
        compound_tasks=(),
        robots=(
            RobotDef("r1", "depot", Fraction(1), (Capability("check", 3, 0.9),)),
        ),
        mission_tasks=(MissionTaskRef("check", "depot"),),
        constraints=(ConstraintSpec(kind="timeAvailable", budget=10),),
    )
    assert spec == expected


def test_empty_input_position():
    with pytest.raises(DslSyntaxError) as info:
        parse_problem("")
    assert (info.value.line, info.value.column) == (1, 1)
    assert "'world'" in info.value.expected


def test_hospital_counts(hospital_text):
    spec = parse_problem(hospital_text)
    assert len(spec.locations) == 8
    assert sum(1 for l in spec.locations if l.id.startswith("room")) == 6
    assert len(spec.robots) == 5
    assert len(spec.mission_tasks) == 6


def test_comments_and_separators():
    spec = parse_problem(
        "world { loc a (1, 2) // trailing comment\n loc b (3, 4) }\n"
        "tasks { atomic t robots 1 }\n"
        "robots { robot r at a velocity 2 { can t time 1 prob 1 } }\n"
        "mission { task t at b; time 5 }"
    )
    assert [l.id for l in spec.locations] == ["a", "b"]


def test_fractional_and_decimal_velocity():
    spec = parse_problem(
        "world { loc a (0,0) } tasks { atomic t robots 1 }"
        " robots { robot r at a velocity 1/3 { can t time 1 prob 1 }"
        " robot s at a velocity 0.5 { can t time 1 prob 1 } }"
        " mission { task t at a; time 5 }"
    )
    assert spec.robots[0].velocity == Fraction(1, 3)
    assert spec.robots[1].velocity == Fraction(1, 2)


@pytest.mark.parametrize("old, literal, column", [
    ("0.9", "0.9.5", 63), ("velocity 1", "velocity 1.2.3", 37),
], ids=["prob", "velocity"])
def test_number_with_two_dots_reports_position(old, literal, column):
    with pytest.raises(DslSyntaxError) as info:
        parse_problem(MINIMAL.replace(old, literal))
    number = literal.split()[-1]
    assert str(info.value) == f"4:{column}: malformed number {number!r}"
    assert (info.value.line, info.value.column) == (4, column)


@pytest.mark.parametrize("old, literal, column", [
    ("0.9", "0.", 63), ("velocity 1", "velocity 2.", 37),
], ids=["prob", "velocity"])
def test_number_ending_in_dot_reports_position(old, literal, column):
    # docs/grammar.md: NUMBER = INT | INT "." digit { digit }
    with pytest.raises(DslSyntaxError) as info:
        parse_problem(MINIMAL.replace(old, literal))
    number = literal.split()[-1]
    assert str(info.value) == f"4:{column}: malformed number {number!r}"
    assert (info.value.line, info.value.column) == (4, column)


def test_negative_coordinates():
    spec = parse_problem(
        "world { loc a (-3, -4) } tasks { atomic t robots 1 }"
        " robots { robot r at a velocity 1 { can t time 1 prob 1 } }"
        " mission { task t at a; time 5; boundary all (-10, -10) (10, 10) }"
    )
    assert (spec.locations[0].x, spec.locations[0].y) == (-3, -4)
    rect = spec.constraints[1].rect
    assert (rect.x_min, rect.y_min, rect.x_max, rect.y_max) == (-10, -10, 10, 10)


MALFORMED = [
    "",
    "world",
    "world {",
    "world { loc }",
    "world { loc a }",
    "world { loc a (1 }",
    "world { loc a (1, }",
    "world { loc a (1, 2 }",
    "world { dist a = 3 }",
    "world { dist a b 3 }",
    "world { loc a (0,0) } tasks",
    "world { loc a (0,0) } tasks { atomic }",
    "world { loc a (0,0) } tasks { atomic t robots }",
    "world { loc a (0,0) } tasks { compound c = { } }",
    "world { loc a (0,0) } tasks { compound c = ordered t }",
    "world { loc a (0,0) } tasks { atomic t robots 1 } robots { robot }",
    "world { loc a (0,0) } tasks { atomic t robots 1 } robots { robot r at }",
    "world { loc a (0,0) } tasks { atomic t robots 1 }"
    " robots { robot r at a velocity x { } }",
    "world { loc a (0,0) } tasks { atomic t robots 1 }"
    " robots { robot r at a velocity 1 { can t time prob 1 } }",
    "world { loc a (0,0) } tasks { atomic t robots 1 }"
    " robots { robot r at a velocity 1 { can t time 1 prob } }",
    "world { loc a (0,0) } tasks { atomic t robots 1 }"
    " robots { robot r at a velocity 1 { can t time 1 prob 1 } } mission {",
    "world { loc a (0,0) } tasks { atomic t robots 1 }"
    " robots { robot r at a velocity 1 { can t time 1 prob 1 } }"
    " mission { task t }",
    "world { loc a (0,0) } tasks { atomic t robots 1 }"
    " robots { robot r at a velocity 1 { can t time 1 prob 1 } }"
    " mission { task t at a; time }",
    "world { loc a (0,0) } tasks { atomic t robots 1 }"
    " robots { robot r at a velocity 1 { can t time 1 prob 1 } }"
    " mission { task t at a; time 5 } extra",
    "world { loc a (0,0) @ }",
    "world { loc a (0,0) } tasks { atomic t robots 1 }"
    " robots { robot r at a velocity 1/0 { } }"
    " mission { task t at a; time 5 }",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_diagnose_never_crash(text):
    with pytest.raises(DslSyntaxError) as info:
        parse_problem(text)
    err = info.value
    assert err.line >= 1 and err.column >= 1
    assert err.expected  # the acceptable-token set is always reported
    assert str(err.line) in str(err)


def test_malformed_corpus_size():
    assert len(MALFORMED) >= 20


@pytest.mark.parametrize("old, new, line, column, char", [
    ("(0, 0)", "(0, ²)", 2, 23, "²"),
    ("velocity 1", "velocity ١", 4, 37, "١"),
    ("velocity 1", "velocity 1.²", 4, 39, "²"),
], ids=["superscript_coordinate", "arabic_indic_velocity", "superscript_after_dot"])
def test_non_ascii_digit_is_unexpected_character(old, new, line, column, char):
    # docs/grammar.md: digits are ASCII 0-9
    with pytest.raises(DslSyntaxError) as info:
        parse_problem(MINIMAL.replace(old, new))
    err = info.value
    assert str(err) == f"{line}:{column}: unexpected character {char!r}"
    assert (err.line, err.column, err.expected) == (line, column, ("token",))


@pytest.mark.parametrize("text, line, column", [
    ("// c", 1, 5),
    ("world { loc a (0, 0) } // trailing", 1, 35),
    ("world {}\ntasks {}  // no newline", 2, 24),
])
def test_end_of_input_after_comment_reports_its_column(text, line, column):
    with pytest.raises(DslSyntaxError) as info:
        parse_problem(text)
    err = info.value
    assert "got end of input" in str(err)
    assert (err.line, err.column) == (line, column)
