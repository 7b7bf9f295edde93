"""Declarative problem files: a TOML-subset reader and the Problem model.

The file format supports exactly what problem declarations need: `[table]`
and `[table.name]` headers, `key = value` pairs with string, number, boolean
and (nested) array values, and `#` comments.  Duplicate tables or keys are
rejected rather than merged.  `_number` reads every number, a guard's
threshold too (ASCII, and no `inf` or `nan`); a threshold, a box bound and a
tolerance must be finite.  Positions are ``errors.location``'s, as in `expr`.

Blocks: [bundle], [lagrangian], [connection.NAME], [vectorfield.NAME],
[section.NAME], [jetfield.NAME], [diffeo.NAME], [numeric].  Expressions are
strings in the engine's grammar and may reference jet coordinates d(y,x).
Tables of expressions are nested arrays in fiber-major order: connection
`gamma[A][mu]`, jet field `F[A][rho]` and `G[A][rho][mu]`; the base and
fiber components of vector fields, sections and diffeos are flat arrays.
One reader, `_expr_table`, checks each table's shape and returns it keyed
by coordinate name, or by a tuple of names for a nested table.
"""

from __future__ import annotations

import math

from . import expr as ex
from .chart import SectionE, make_chart
from .connection import Connection, JetField2
from .errors import (
    CartanforgeError,
    DuplicateDefinition,
    MissingArgument,
    ParseError,
    UnknownCoordinate,
    UnknownVariable,
    location,
)
from .forms import FiberedMap, VectorField, total_space
from .lagrangian import Lagrangian
from .record import Record, field


# ---------------------------------------------------------------------------
# TOML-subset reader
# ---------------------------------------------------------------------------

# TOML bare keys are ASCII letters, digits, '_' and '-' ('.' joins them):
# str.isalnum() also takes '٣' or 'é'
_BARE = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                  "0123456789_-.")


def _number(token):
    """The int or float an ASCII token spells (`1_000`, `+7`, `-1.5e-3`,
    `1e400` is inf), else None; int() and float() take any Unicode digit."""
    if token.isascii():
        try:
            return float(token) if any(s in token for s in ".eE") else int(token)
        except ValueError:
            pass
    return None


def _real(number):
    """`number` as a float; an int too large for one is inf of its sign."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


class _Reader:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, *location(self.text, self.pos))

    def peek(self):
        return self.text[self.pos:self.pos + 1]   # "" at the end of the text

    def skip_ws(self, newlines=False):
        while self.pos < len(self.text):
            c = self.peek()
            if c == "#":
                while self.peek() not in ("\n", ""):
                    self.pos += 1
            elif c in " \t\r" or (newlines and c == "\n"):
                self.pos += 1
            else:
                break

    def read_bare(self):
        start = self.pos
        while self.peek() in _BARE:
            self.pos += 1
        if start == self.pos:
            self.error(f"expected a name, found {self.peek()!r}")
        return self.text[start:self.pos]

    def read_string(self):
        start = self.pos + 1   # past the opening quote
        self.pos = start
        while self.peek() not in ('"', "\n", ""):
            self.pos += 1
        if self.peek() != '"':
            self.error("unterminated string")
        self.pos += 1
        return self.text[start:self.pos - 1]

    def read_value(self):
        self.skip_ws()
        c = self.peek()
        if c == '"':
            return self.read_string()
        if c == "[":
            self.pos += 1
            arr = []
            while True:
                self.skip_ws(newlines=True)
                if self.peek() == "]":
                    self.pos += 1
                    return arr
                arr.append(self.read_value())
                self.skip_ws(newlines=True)
                if self.peek() == ",":
                    self.pos += 1
                elif self.peek() != "]":
                    self.error("expected ',' or ']' in array")
        start = self.pos
        while self.pos < len(self.text) and self.peek() not in " \t\r\n#,]":
            self.pos += 1
        token = self.text[start:self.pos]
        if token in ("true", "false"):
            return token == "true"
        value = _number(token)
        if value is None:
            self.error(f"cannot read value {token!r}")
        return value


def parse_toml_subset(text):
    rd = _Reader(text)
    root = {}
    current = root
    current_path = ()
    while True:
        rd.skip_ws(newlines=True)
        if rd.pos >= len(rd.text):
            return root
        if rd.peek() == "[":
            rd.pos += 1
            rd.skip_ws()
            name = rd.read_bare()
            rd.skip_ws()
            if rd.peek() != "]":
                rd.error("expected ']' after table name")
            rd.pos += 1
            parts = tuple(name.split("."))
            node = root
            for i, part in enumerate(parts):
                if i == len(parts) - 1:
                    if part in node:
                        raise DuplicateDefinition(
                            f"table [{name}] defined twice")
                    node[part] = {}
                    node = node[part]
                else:
                    node = node.setdefault(part, {})
                    if not isinstance(node, dict):
                        rd.error(f"{part!r} is not a table")
            current = node
            current_path = parts
            continue
        key = rd.read_bare()
        rd.skip_ws()
        if rd.peek() != "=":
            rd.error(f"expected '=' after key {key!r}")
        rd.pos += 1
        value = rd.read_value()
        if key in current:
            where = ".".join(current_path) or "top level"
            raise DuplicateDefinition(f"key {key!r} defined twice in {where}")
        current[key] = value


# ---------------------------------------------------------------------------
# problem model
# ---------------------------------------------------------------------------

class Guard(Record):
    expr: object
    op: str         # '>' or '<'
    threshold: float

    def holds(self, point):
        v = ex.evaluate_numeric(self.expr, point)
        return v > self.threshold if self.op == ">" else v < self.threshold


def parse_guard(chart, text):
    """`expr > t` or `expr < t`, t a finite number by the reader's rule."""
    for op in (">", "<"):
        if op in text:
            left, right = text.split(op, 1)
            thr = _number(right.strip())
            if thr is None or not math.isfinite(_real(thr)):
                raise ParseError(f"numeric.require: guard threshold {right.strip()!r} "
                                 f"is not {'a number' if thr is None else 'finite'}")
            return Guard(_parse_at(chart, "numeric.require", left.strip()), op,
                         _real(thr))
    raise ParseError(f"guard {text!r} needs '>' or '<'")


class NumericSettings(Record):
    seed: int = 20240808
    samples: int = 100
    tol: float = 1e-9
    tol_fd: float = 1e-6
    symmetry_samples: int = 200
    box: dict = field(default_factory=dict)   # var -> (lo, hi)
    guards: tuple = ()


class VectorFieldDecl(Record):
    vf: VectorField
    symmetry: object = None   # True/False expectation, or None
    check: str = "symbolic"   # or "numeric"


class SectionDecl(Record):
    section: SectionE
    solution: object = None   # True/False expectation, or None


class JetFieldDecl(Record):
    jf: JetField2
    el_solution: object = None
    integral_sections: tuple = ()


class DiffeoDecl(Record):
    diffeo: FiberedMap
    symmetry: object = None


class Problem(Record):
    chart: object
    lagrangian: Lagrangian
    connections: dict = field(default_factory=dict)
    vectorfields: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)
    jetfields: dict = field(default_factory=dict)
    diffeos: dict = field(default_factory=dict)
    numeric: NumericSettings = NumericSettings()


_KINDS = {bool: "a boolean", int: "an integer", float: "a number",
          str: "a string", list: "an array", dict: "a table"}


def _is_a(value, kind):
    """TOML typing: a number is an int or a float, never a boolean."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _value(body, table, key, kind, default=None):
    """body[key], checked to be of `kind`; `default` when it is absent."""
    if key not in body:
        return default
    value = body[key]
    if not _is_a(value, kind):
        where = f"{table}.{key}" if table else key
        raise ParseError(f"{where}: expected {_KINDS[kind]}, "
                         f"found {type(value).__name__}")
    return value


def _sample_count(num, key, default):
    """numeric.<key>, at least 1: no samples would pass every sampled
    check vacuously."""
    n = _value(num, "numeric", key, int, default)
    if n < 1:
        raise ParseError(f"numeric.{key}: expected at least 1, found {n}")
    return n


def _tolerance(num, key, default):
    """numeric.<key>, finite and at least 0: a negative one fails every check."""
    t = _real(_value(num, "numeric", key, float, default))
    if not 0 <= t < math.inf:
        raise ParseError(f"numeric.{key}: expected finite and at least 0, found {t}")
    return t


def _strings(body, table, key, default=()):
    """An array of strings under `key`."""
    value = _value(body, table, key, list, default)
    for item in value:
        if not isinstance(item, str):
            raise ParseError(f"{table}.{key}: expected an array of strings, "
                             f"found {type(item).__name__} in it")
    return value


def _tables(tree, group):
    """name -> body of the [group.name] tables, in name order."""
    named = _value(tree, "", group, dict, {})
    return {n: _value(named, group, n, dict) for n in sorted(named)}


def _parse_at(chart, where, text):
    """chart.parse(text); an error in the text names `where`, the table and
    key, and keeps its class."""
    try:
        return chart.parse(text)
    except (ParseError, UnknownCoordinate, UnknownVariable) as err:
        raise type(err)(f"{where}: {err}") from None


def _expr_table(chart, body, table, key, axes, default=None):
    """{name, or tuple of names: Expr} from `body[key]`, a nested array of
    expression strings with one level per name tuple in `axes` (fiber
    names first); `default` stands in for an absent key, and without one
    the key is required."""
    rows = body.get(key, default)
    if rows is None:
        raise MissingArgument(f"[{table}] needs {key}")
    where = f"{table}.{key}"
    out = {}

    def read(rows, index):
        names = axes[len(index)]
        if not isinstance(rows, list):
            raise ParseError(
                f"{where}: expected an array, found {type(rows).__name__}")
        if len(rows) != len(names):
            raise ParseError(f"{where}: expected {len(names)} rows, found {len(rows)}")
        for name, row in zip(names, rows):
            if len(index) + 1 < len(axes):
                read(row, index + (name,))
            elif not isinstance(row, str):
                raise ParseError(f"{where}: expected expression strings")
            else:
                out[index + (name,) if index else name] = _parse_at(chart, where, row)
    read(rows, ())
    return out


def _build_connection(chart, body, name):
    return Connection(chart, _expr_table(chart, body, f"connection.{name}", "gamma",
                                         (chart.fiber_names, chart.base_names)))


def _build_vectorfield(chart, body, name):
    table = f"vectorfield.{name}"
    comps = {**_expr_table(chart, body, table, "base", (chart.base_names,),
                           ["0"] * chart.n_plus_1),
             **_expr_table(chart, body, table, "fiber", (chart.fiber_names,),
                           ["0"] * chart.n_fields)}
    allowed = set(chart.e_coords())
    for c in comps.values():
        if ex.free_vars(c) - allowed:
            raise UnknownCoordinate(
                f"vectorfield {name} components must live on the total space")
    check = _value(body, table, "check", str, "symbolic")
    if check not in ("symbolic", "numeric"):
        raise ParseError(f'{table}.check: expected "symbolic" or "numeric", '
                         f"found {check!r}")
    return VectorFieldDecl(VectorField(total_space(chart), comps),
                           _value(body, table, "symmetry", bool), check)


def _build_section(chart, body, name):
    table = f"section.{name}"
    comps = _expr_table(chart, body, table, "components", (chart.fiber_names,))
    return SectionDecl(SectionE(chart, tuple(comps.values())),
                       _value(body, table, "solution", bool))


def _build_jetfield(chart, body, name):
    table = f"jetfield.{name}"
    axes = (chart.fiber_names, chart.base_names)
    F = _expr_table(chart, body, table, "F", axes)
    G = (_expr_table(chart, body, table, "G", axes + (chart.base_names,))
         if "G" in body else {})
    return JetFieldDecl(JetField2(chart, F, G),
                        _value(body, table, "el_solution", bool),
                        tuple(_strings(body, table, "integral_sections")))


def _build_diffeo(chart, body, name):
    table = f"diffeo.{name}"
    base = (chart.base_names,)
    fmap = FiberedMap(
        chart,
        _expr_table(chart, body, table, "base", base, list(chart.base_names)),
        _expr_table(chart, body, table, "fiber", (chart.fiber_names,)),
        base_inverse=(_expr_table(chart, body, table, "base_inverse", base)
                      if "base_inverse" in body else None))
    return DiffeoDecl(fmap, _value(body, table, "symmetry", bool))


def build_problem(tree):
    """The Problem a parsed file declares; a value of the wrong type is a
    ParseError naming its table and key."""
    bundle = _value(tree, "", "bundle", dict, {})
    if "base" not in bundle or "fiber" not in bundle:
        raise ParseError("a [bundle] block with base and fiber is required")
    chart = make_chart(_strings(bundle, "bundle", "base"),
                       _strings(bundle, "bundle", "fiber"))

    lag_text = _value(_value(tree, "", "lagrangian", dict, {}),
                      "lagrangian", "L", str)
    if lag_text is None:
        raise ParseError("a [lagrangian] block with L is required")
    lag = Lagrangian(chart, _parse_at(chart, "lagrangian.L", lag_text))

    connections = {n: _build_connection(chart, body, n)
                   for n, body in _tables(tree, "connection").items()}
    vectorfields = {n: _build_vectorfield(chart, body, n)
                    for n, body in _tables(tree, "vectorfield").items()}
    sections = {n: _build_section(chart, body, n)
                for n, body in _tables(tree, "section").items()}
    jetfields = {n: _build_jetfield(chart, body, n)
                 for n, body in _tables(tree, "jetfield").items()}
    diffeos = {n: _build_diffeo(chart, body, n)
               for n, body in _tables(tree, "diffeo").items()}
    for jname, decl in jetfields.items():
        for sname in decl.integral_sections:
            if sname not in sections:
                raise MissingArgument(
                    f"jetfield {jname} references unknown section {sname!r}")

    num = _value(tree, "", "numeric", dict, {})
    box = {}
    for entry in _value(num, "numeric", "box", list, ()):
        if (not isinstance(entry, list) or len(entry) != 3
                or not isinstance(entry[0], str)
                or not all(_is_a(b, float) for b in entry[1:])):
            raise ParseError('numeric.box: expected ["name", lo, hi] entries, '
                             f"found {entry!r}")
        name, lo, hi = chart.canonical_name(entry[0]), _real(entry[1]), _real(entry[2])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParseError(f"numeric.box: expected finite bounds, found {entry!r}")
        if lo > hi:
            raise ParseError(f"numeric.box: expected lo <= hi, found {entry!r}")
        if name in box:
            raise ParseError(f"numeric.box: {name!r} is given twice, found {entry!r}")
        box[name] = (lo, hi)
    guards = tuple(parse_guard(chart, g)
                   for g in _strings(num, "numeric", "require"))
    d = NumericSettings     # each field's default
    numeric = NumericSettings(
        seed=_value(num, "numeric", "seed", int, d.seed),
        samples=_sample_count(num, "samples", d.samples),
        tol=_tolerance(num, "tol", d.tol),
        tol_fd=_tolerance(num, "tol_fd", d.tol_fd),
        symmetry_samples=_sample_count(num, "symmetry_samples",
                                       d.symmetry_samples),
        box=box,
        guards=guards)

    return Problem(chart, lag, connections, vectorfields, sections,
                   jetfields, diffeos, numeric)


def parse_problem(path):
    """The Problem in the file at `path`; a file that cannot be read as
    UTF-8 text is a CartanforgeError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        reason = err.strerror if isinstance(err, OSError) else "not UTF-8 text"
        raise CartanforgeError(f"cannot read {path}: {reason}") from None
    return build_problem(parse_toml_subset(text))
