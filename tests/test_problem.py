import pytest

from cartanforge import expr as ex
from cartanforge import problem as pb
from cartanforge.errors import (
    DuplicateDefinition,
    MissingArgument,
    ParseError,
    UnknownCoordinate,
)


def test_toml_subset_scalars_and_arrays():
    tree = pb.parse_toml_subset("""
# comment
[bundle]
base = ["t"]           # trailing comment
fiber = ["q"]
flag = true
n = 3
x = 1.5e-1

[numeric]
box = [["q", -1, 1], ["t", 0, 2.0]]
""")
    assert tree["bundle"]["base"] == ["t"]
    assert tree["bundle"]["flag"] is True
    assert tree["bundle"]["n"] == 3
    assert tree["bundle"]["x"] == 0.15
    assert tree["numeric"]["box"][0] == ["q", -1, 1]


def test_toml_subset_nested_tables():
    tree = pb.parse_toml_subset("[connection.flat]\ngamma = [[\"0\"]]\n")
    assert tree["connection"]["flat"]["gamma"] == [["0"]]


def test_toml_duplicate_table():
    with pytest.raises(DuplicateDefinition):
        pb.parse_toml_subset("[lagrangian]\nL = \"0\"\n[lagrangian]\nL = \"1\"\n")


def test_toml_duplicate_key():
    with pytest.raises(DuplicateDefinition):
        pb.parse_toml_subset("[bundle]\nbase = [\"t\"]\nbase = [\"s\"]\n")


def test_toml_syntax_error_position():
    with pytest.raises(ParseError) as err:
        pb.parse_toml_subset("[bundle]\nbase + [\"t\"]\n")
    assert err.value.line == 2


MINIMAL = """
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "1/2*d(q,t)^2"
"""


def test_build_minimal_problem():
    p = pb.build_problem(pb.parse_toml_subset(MINIMAL))
    assert p.chart.base_names == ("t",)
    assert p.lagrangian.L == p.chart.parse("1/2*d(q,t)^2")
    assert not p.connections and not p.sections


def test_unknown_coordinate_rejected():
    bad = MINIMAL.replace("1/2*d(q,t)^2", "z + d(q,t)")
    with pytest.raises(UnknownCoordinate):
        pb.build_problem(pb.parse_toml_subset(bad))


@pytest.mark.parametrize("extra, lagrangian, error, text", [
    ("", "d(z,t)", UnknownCoordinate,
     "lagrangian.L: 'z' is not a fiber coordinate"),
    ('[section.line]\ncomponents = ["z"]\n', "1/2*d(q,t)^2", UnknownCoordinate,
     "section.line.components: 'z' is not a coordinate of this chart"),
    ('[numeric]\nrequire = ["q > x1"]\n', "1/2*d(q,t)^2", ParseError,
     "numeric.require: guard threshold 'x1' is not a number"),
])
def test_expression_errors_name_their_table_and_key(extra, lagrangian, error, text):
    bad = MINIMAL.replace("1/2*d(q,t)^2", lagrangian) + extra
    with pytest.raises(error) as err:
        pb.build_problem(pb.parse_toml_subset(bad))
    assert str(err.value) == text


def test_missing_lagrangian():
    with pytest.raises(ParseError):
        pb.build_problem(pb.parse_toml_subset("[bundle]\nbase = [\"t\"]\nfiber = [\"q\"]\n"))


def test_connection_shape_checked():
    text = MINIMAL + "\n[connection.flat]\ngamma = [[\"0\", \"0\"]]\n"
    with pytest.raises(ParseError):
        pb.build_problem(pb.parse_toml_subset(text))


def test_jetfield_missing_F():
    text = MINIMAL + "\n[jetfield.bad]\nG = [[[\"0\"]]]\n"
    with pytest.raises(MissingArgument):
        pb.build_problem(pb.parse_toml_subset(text))


def test_jetfield_integral_sections_must_exist():
    text = MINIMAL + """
[jetfield.dyn]
F = [["d(q,t)"]]
integral_sections = ["nope"]
"""
    with pytest.raises(MissingArgument):
        pb.build_problem(pb.parse_toml_subset(text))


def test_guards_parse():
    text = MINIMAL + "\n[numeric]\nrequire = [\"abs(q) > 0.1\"]\n"
    p = pb.build_problem(pb.parse_toml_subset(text))
    g = p.numeric.guards[0]
    assert g.op == ">" and g.threshold == 0.1
    assert g.holds({"q": 0.5}) and not g.holds({"q": 0.0})


def test_box_names_validated():
    text = MINIMAL + "\n[numeric]\nbox = [[\"z\", 0, 1]]\n"
    with pytest.raises(UnknownCoordinate):
        pb.build_problem(pb.parse_toml_subset(text))


def test_corpus_problems_parse():
    import os
    root = os.path.join(os.path.dirname(__file__), "..", "problems")
    names = sorted(os.listdir(root))
    assert len(names) == 6
    for f in names:
        p = pb.parse_problem(os.path.join(root, f))
        assert p.lagrangian is not None
