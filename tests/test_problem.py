import pytest

from cartanforge import cli
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


@pytest.mark.parametrize("text, message", [
    ("[numeric]\nsamples = \u0663\n", "cannot read value '\u0663' (line 2, col 12)"),
    ("[numeric]\ntol = \u0661.5\n", "cannot read value '\u0661.5' (line 2, col 10)"),
    ("[numeric]\nsamples = 1\u0663\n", "cannot read value '1\u0663' (line 2, col 13)"),
    ("[b\u0663]\n", "expected ']' after table name (line 1, col 3)"),
    ("[numeric]\ns\u00e9ed = 3\n", "expected '=' after key 's' (line 2, col 2)"),
    ("[\u00e9]\n", "expected a name, found '\u00e9' (line 1, col 2)"),
], ids=["digit", "decimal", "trailing-digit", "table", "key-letter", "table-letter"])
def test_toml_numbers_and_bare_keys_are_ascii(text, message):
    # int(), float() and str.isalnum() take any Unicode digit or letter:
    # samples = \u0663 used to read as 3, and [b\u0663] as a table name
    with pytest.raises(ParseError) as err:
        pb.parse_toml_subset(text)
    assert str(err.value) == message


def test_toml_ascii_numbers_keep_their_forms():
    tree = pb.parse_toml_subset(
        "[numeric]\nsamples = 1_000\ntol = -1.5e-3\nseed = +7\nx = 2E2\n"
        "[vectorfield.a-b_1]\n")
    assert tree["numeric"] == {"samples": 1000, "tol": -0.0015, "seed": 7, "x": 200.0}
    assert tree["vectorfield"] == {"a-b_1": {}}


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
    ('[numeric]\nrequire = ["q > \u0660.5"]\n', "1/2*d(q,t)^2", ParseError,
     "numeric.require: guard threshold '\u0660.5' is not a number"),
    # the threshold reads by the reader's number rule: `inf`, `nan` and
    # `-infinity` are no numbers there (`tol = inf` cannot be read either),
    # and `1e400` spells inf; a threshold must be finite
    ('[numeric]\nrequire = ["q > nan"]\n', "1/2*d(q,t)^2", ParseError,
     "numeric.require: guard threshold 'nan' is not a number"),
    ('[numeric]\nrequire = ["q < inf"]\n', "1/2*d(q,t)^2", ParseError,
     "numeric.require: guard threshold 'inf' is not a number"),
    ('[numeric]\nrequire = ["q > -infinity"]\n', "1/2*d(q,t)^2", ParseError,
     "numeric.require: guard threshold '-infinity' is not a number"),
    ('[numeric]\nrequire = ["q > 1e400"]\n', "1/2*d(q,t)^2", ParseError,
     "numeric.require: guard threshold '1e400' is not finite"),
    ('[numeric]\nrequire = ["q < -1e400"]\n', "1/2*d(q,t)^2", ParseError,
     "numeric.require: guard threshold '-1e400' is not finite"),
    pytest.param('[numeric]\nrequire = ["q > 1' + "0" * 400 + '"]\n',
                 "1/2*d(q,t)^2", ParseError,
                 f"numeric.require: guard threshold '1{'0' * 400}' is not finite",
                 id="401-digit-threshold"),
    ('[vectorfield.v]\nfiber = ["d(q,t)"]\n', "1/2*d(q,t)^2", UnknownCoordinate,
     "vectorfield v components must live on the total space"),
    ("", "d(q,t)^2*²", ParseError, "lagrangian.L: unexpected character '²' (line 1, col 10)"),
    ("", "d(q,t)^²", ParseError, "lagrangian.L: unexpected character '²' (line 1, col 8)"),
])
def test_expression_errors_name_their_table_and_key(extra, lagrangian, error, text,
                                                     tmp_path, capsys):
    bad = MINIMAL.replace("1/2*d(q,t)^2", lagrangian) + extra
    with pytest.raises(error) as err:
        pb.build_problem(pb.parse_toml_subset(bad))
    assert str(err.value) == text
    path = tmp_path / "bad.toml"
    path.write_text(bad, encoding="utf-8")
    assert cli.main(["derive-el", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


@pytest.mark.parametrize("text, message", [
    ("①*q", "unexpected character '①' (line 1, col 1)"),
    ("q*0.5e²", "unexpected character '²' (line 1, col 7)"),
    ("٣*x", "unexpected character '٣' (line 1, col 1)"),
])
def test_only_ascii_digits_are_digits(text, message):
    # str.isdigit() is true of '①', '²' and '٣'; none is a number here
    with pytest.raises(ParseError) as err:
        ex.parse(text)
    assert str(err.value) == message


def test_missing_lagrangian():
    with pytest.raises(ParseError):
        pb.build_problem(pb.parse_toml_subset("[bundle]\nbase = [\"t\"]\nfiber = [\"q\"]\n"))


def test_connection_shape_checked():
    text = MINIMAL + "\n[connection.flat]\ngamma = [[\"0\", \"0\"]]\n"
    with pytest.raises(ParseError):
        pb.build_problem(pb.parse_toml_subset(text))


# (block, key, nesting depth) of every expression table, and the keys each
# block requires, with valid values, on MINIMAL's chart (one base, one fiber)
TABLES = [("connection", "gamma", 2), ("vectorfield", "base", 1),
          ("vectorfield", "fiber", 1), ("section", "components", 1),
          ("jetfield", "F", 2), ("jetfield", "G", 3), ("diffeo", "base", 1),
          ("diffeo", "fiber", 1), ("diffeo", "base_inverse", 1)]
REQUIRED = {"connection": {"gamma": '[["0"]]'}, "vectorfield": {},
            "section": {"components": '["q"]'}, "jetfield": {"F": '[["d(q,t)"]]'},
            "diffeo": {"fiber": '["q"]'}}


def _table_case(block, key, value):
    """MINIMAL and a [block.x] table whose `key` is `value` (None: absent)."""
    lines = {**REQUIRED[block], key: value}
    return MINIMAL + f"\n[{block}.x]\n" + "".join(
        f"{k} = {v}\n" for k, v in lines.items() if v is not None)


@pytest.mark.parametrize("block, key, depth, case", [
    (block, key, depth, case) for block, key, depth in TABLES
    for case in ("scalar", "rows", "leaf", "missing")
    if case != "missing" or key in REQUIRED[block]])
def test_expression_table_errors(block, key, depth, case):
    value, error, text = {
        "scalar": ('"0"', ParseError, "expected an array, found str"),
        "rows": ('["0", "0"]', ParseError, "expected 1 rows, found 2"),
        "leaf": ("[" * depth + "1" + "]" * depth, ParseError,
                 "expected expression strings"),
        "missing": (None, MissingArgument, None)}[case]
    with pytest.raises(error) as err:
        pb.build_problem(pb.parse_toml_subset(_table_case(block, key, value)))
    assert str(err.value) == (f"{block}.x.{key}: {text}" if text
                              else f"[{block}.x] needs {key}")


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
    # every form float() took before keeps its value, stored as a float;
    # space around the threshold is any the expression scanner skips
    for threshold, value in (("5", 5.0), ("-0.5", -0.5), ("1_0e-1", 1.0),
                             ("1e-3", 1e-3), ("-5\u00a0", -5.0)):
        text = MINIMAL + f'\n[numeric]\nrequire = ["q < {threshold}"]\n'
        g = pb.build_problem(pb.parse_toml_subset(text)).numeric.guards[0]
        assert type(g.threshold) is float and g.threshold == value


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
