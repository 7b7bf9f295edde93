"""Numeric verification layer and the executable identity catalog.

``run_identity_catalog`` makes every entry but a skip one way: a verdict
function returns (ok, max_dev, witness, detail), and a ``NumericDomain``
it raises fails that entry alone, with the error's text and no max_dev.
Zero tests share one function, ``zero_verdict``: a structural zero passes
at once; anything else is sampled, and passes within tol with the detail
``numeric zero (seed S, N points)``.  The catalog's theorems (``cartan-*``,
``energy-*``, ``legendre-*``, ``curvature-*``, ``diffeo-*``) sample so, and
``symmetry[...]`` only under ``check = "numeric"``; the
``noether-conservation[...]`` entries are ``noether.check_conservation``'s
verdict, as ``noether --along`` is.  Every sampled check (``zero_verdict``,
``numeric_check``, the finite-difference check of dL/dz) samples by one rule:

- the stream is a ``random.Random`` seeded from the problem's numeric
  settings, so two runs with the same seed produce byte-identical reports;
- variables are drawn in sorted order, each uniform on its ``box`` interval
  (name -> (lo, hi)), or on [-1, 1] where the box declares none, as
  ``lo + (hi - lo) * rng.random()``, ``random.uniform``'s own expression;
- a point violating a declared guard (for example a determinant kept away
  from zero) is redrawn, at most _MAX_DRAWS times (``draw_point``); a guard
  that fails to evaluate raises its own error;
- at each point the check evaluates its expressions in one order: a, then
  b, of each pair for ``sample_worst``; L, dL/dz, L at z + h, then L at
  z - h for the finite-difference check of dL/dz.  The first domain error
  is raised with the point attached;
- the result is the worst deviation and its witness, the first point that
  reached it, rounded to 12 decimals ({} when no deviation is positive).
  The first NaN deviation is the worst and stays, so the check fails.

Each check runs as one generated kernel (``_Kernel``): a single function
whose statements come from ``expr.emit_numeric``.  It draws every
coordinate the check or a guard reads into a local, tests the guards
inline, computes each distinct subtree once per point and keeps the worst
deviation and its witness in locals; the witness dict is built once, at the
end.  The finite-difference checks of a problem share one kernel: L is
computed once per point, and each coordinate's branch adds dL/dz and the
subtrees of L that contain the shifted coordinate.  A kernel performs the
rule's operations, each a (subtree, point) evaluation, on the same values,
so values, witnesses and stream state are the rule's bit for bit.  It
records each expression it emits, a finite-difference end with its
(z, +-h), in the rule's order.  When one raises, the kernel returns the
point it was at, whose draws are done as the rule's are; ``_raise_at``
evaluates there the guards and the record with the tree walk
``expr.evaluate_numeric`` and raises the rule's first error, in the tree
walk's words.
"""

from __future__ import annotations

import functools
import random

from . import expr as ex
from .canonical import (
    contact_basis,
    contact_reduce,
    is_holonomic,
    prolong_diffeo,
)
from .chart import prolong_section
from .connection import curvature, integral_residual2
from .errors import NumericDomain
from .forms import (
    Form,
    bracket,
    exterior_d,
    jet_space,
    pullback,
    volume_form,
)
from .lagrangian import (
    cartan_forms,
    derive_el,
    energy_density,
    energy_intrinsic,
    jetfield_el,
    legendre_difference,
    vartheta_intrinsic,
)
from .noether import check_conservation, noether_current, total_variation
from .problem import NumericSettings
from .record import Record, field


class IdentityCheck(Record):
    name: str
    lhs: object                 # Expr or Form
    rhs: object
    box: dict = field(default_factory=dict)
    samples: int = NumericSettings.samples
    tol: float = NumericSettings.tol
    seed: int = NumericSettings.seed
    guards: tuple = ()


class CheckResult(Record):
    name: str
    status: str                 # pass | fail | skip
    max_dev: object = None      # float for numeric checks
    witness: dict = field(default_factory=dict)
    detail: str = ""

    def as_json_obj(self):
        return {"name": self.name, "status": self.status,
                "max_dev": self.max_dev, "witness": self.witness}


_MAX_DRAWS = 1000  # draws per point before the guards count as unsatisfiable
_NO_POINT = "could not draw a sample point satisfying the guards"
_FD_STEP = 1e-5    # central-difference step of the dL/dz check


def intervals(names, box):
    """(name, lo, hi) for each name in sorted order; [-1, 1] where `box`
    declares no interval."""
    return tuple((n, *box.get(n, (-1.0, 1.0))) for n in sorted(names))


def draw_point(rng, cells, guards=()):
    """One point from the (name, lo, hi) `cells`, redrawn until every guard
    holds, at most _MAX_DRAWS times.  Each coordinate is ``random.uniform``'s
    own expression, so it equals ``rng.uniform(lo, hi)`` bit for bit."""
    rand = rng.random
    for _ in range(_MAX_DRAWS):
        pt = {n: lo + (hi - lo) * rand() for n, lo, hi in cells}
        if not guards or all(g.holds(pt) for g in guards):
            return pt
    raise NumericDomain(_NO_POINT)


def _raise_at(pt, guards, evals):
    """Raise the sampling rule's error at `pt`, a point where a kernel
    raised: a guard's own error, else the first of `evals` to fail, with
    `pt` attached.  Each of `evals` is (expression, coordinate, step): the
    expression at `pt` with `step` added to that coordinate, if any."""
    for g in guards:
        g.holds(pt)
    for e, z, step in evals:
        try:
            ex.evaluate_numeric(e, {**pt, z: pt[z] + step} if z else pt)
        except NumericDomain as err:
            raise NumericDomain(f"{err} at point {_round_point(pt)}") from err
    raise AssertionError(f"a kernel raised at {pt}, but its replay did not")


class _Kernel:
    """One generated function that samples a check by the module's rule,
    with every value in a local.

    A call draws the `names` and every guard's variables as the cells
    ``intervals`` gives on `box`, each into its local, plus at most one of
    the `extras` no cell draws, at its sorted place; redraws until the
    `guards` hold; computes the `shared` expressions; then runs one of the
    `branches`: a function that emits its statements through this object
    and returns its deviations' text.  Every expression goes through
    ``expr.emit_numeric``, so each distinct subtree is one local.  Branches
    whose statements are the same text are emitted once; ``run`` replays
    a branch's record, the shared and its ``value`` calls, when it raised."""

    def __init__(self, names, box, guards, shared, branches, extras=()):
        names = set(names).union(*(ex.free_vars(g.expr) for g in guards))
        cells = intervals(names, box)
        self.cells, self.guards = cells, guards
        # extra name -> the _kernel arguments that draw it
        self.extras = {n: (self._gap(n), lo, hi - lo) for n, lo, hi in
                       intervals(set(extras) - names, box)}
        self.names = {ex.var(n): f"x{i}" for i, (n, _, _) in enumerate(cells)}
        self.lines, self.bound, self.src, self.evals = [], {}, [], []
        self.consts = tuple([v for _, lo, hi in cells for v in (lo, hi - lo)]
                            + [g.threshold for g in guards])
        gaps = {gap for gap, _, _ in self.extras.values()}
        wit = "".join(f"x{i}, " for i in range(len(cells)))
        wit += "xe, " if self.extras else ""
        self.depth = 0
        self.put("def _kernel(_rand, _samples, _branch, _gap, le, we, _k):")
        self.depth = 1
        if self.consts:
            self.put("".join([*(f"l{i}, w{i}, " for i in range(len(cells))),
                              *(f"t{j}, " for j in range(len(guards)))])
                     + "= _k")
        self.put("worst, wit, xe = 0.0, None, 0.0")
        self.put("try:")
        self.depth = 2
        self.put("for _ in range(_samples):")
        self.depth = 3
        if guards:
            self.put("for _ in _DRAWS:")
            self.depth = 4
        for i in range(len(cells) + 1):
            if i in gaps:
                self.put(f"if _gap == {i}: xe = le + we * _rand()")
            if i < len(cells):
                self.put(f"x{i} = l{i} + w{i} * _rand()")
        for j, g in enumerate(guards):
            v = self.value(g.expr)
            self.put(f"if not {v} {'>' if g.op == '>' else '<'} t{j}: continue")
        if guards:
            self.put("break")
            self.depth = 3
            self.put("else:")
            self.put("    raise _NumericDomain(_NO_POINT)")
        self.evals = []   # the guards replay through Guard.holds
        for e in shared:
            self.value(e)
        bodies, self.branch_of, self.replays = [], [], []
        for branch in branches:
            body, evals = self._branch(branch)
            if body not in bodies:
                bodies.append(body)
            self.branch_of.append(bodies.index(body))
            self.replays.append(self.evals + evals)
        for b, body in enumerate(bodies):
            if len(bodies) > 1:
                self.put(f"{'elif' if b else 'if'} _branch == {b}:")
            pad = "    " * (self.depth + (len(bodies) > 1))
            self.src += [pad + line for line in body]
        self.put("if dev > worst or dev != dev and worst == worst:")
        self.put(f"    worst, wit = dev, ({wit})")
        self.depth = 1
        self.put("except _Rerun:")
        self.put(f"    return None, ({wit})")
        self.put("return worst, wit")
        ns = dict(ex.NUMERIC_NS, _DRAWS=range(_MAX_DRAWS), _NO_POINT=_NO_POINT,
                  _NumericDomain=NumericDomain, p={}, **self.bound)
        exec(compile("\n".join(self.src), "<sampling kernel>", "exec"), ns)
        self.fn = ns["_kernel"]

    def _gap(self, name):
        """How many cells sort before `name`."""
        return sum(n < name for n, _, _ in self.cells)

    def put(self, line):
        self.src.append("    " * self.depth + line)

    def value(self, e, names=None, shift=(None, 0.0)):
        """Emit and record the statements computing `e`; the local or literal
        holding it.  `names` defaults to the subtrees every branch sees;
        `shift` is (coordinate, step) when `names` adds `step` to it."""
        self.evals.append((e, *shift))
        start = len(self.lines)
        out = ex.emit_numeric(e, self.names if names is None else names,
                              self.lines, self.bound)
        for line in self.lines[start:]:
            self.put(line)
        return out

    def _branch(self, branch):
        """The statements of one branch, unindented, ending with `dev`, and
        the expressions it records."""
        saved = self.src, self.depth, self.names, self.evals
        self.src, self.depth, self.names, self.evals = [], 0, dict(self.names), []
        devs = branch(self)
        self.put(f"dev = {devs[0] if devs else '0.0'}")
        for dev in devs[1:]:
            self.put(f"t = {dev}")
            self.put("if t > dev or t != t: dev = t")
        out = self.src, self.evals
        self.src, self.depth, self.names, self.evals = saved
        return out

    def run(self, rng, samples, branch, extra=None):
        """The worst deviation of `branch` over `samples` points, drawing
        `extra` too if it is one of the extras, and its witness rounded by
        `_round_point`.  When an operation raised, the kernel returns None
        and the point it was at; `_raise_at` replays there the guards and
        the branch's record to raise the error."""
        worst, wit = self.fn(rng.random, samples, self.branch_of[branch],
                             *self.extras.get(extra, (-1, 0.0, 0.0)), self.consts)
        if wit is None:
            return worst, {}
        pt = dict(zip((n for n, _, _ in self.cells), wit))
        if extra in self.extras:
            pt[extra] = wit[-1]
        if worst is None:
            _raise_at(pt, self.guards, self.replays[branch])
        return worst, _round_point(pt)


def sample_worst(pairs, rng, names, box, guards, samples):
    """The largest |a - b| over the expression `pairs` at `samples` seeded
    points, and its witness ({} if no deviation is positive; a NaN
    deviation is the worst).  Guard variables join `names`; a domain error
    names its point."""
    kernel = _Kernel(names, box, guards, (),
                     (lambda k: [f"abs({k.value(a)} - {k.value(b)})"
                                 for a, b in pairs],))
    return kernel.run(rng, samples, 0)


def zero_verdict(x, seed, box, guards, samples, tol, names=()):
    """(ok, max_dev, witness, detail): is `x`, an Expr, a Form or a list of
    them, zero?  The module's zero test, sampling on ``random.Random(seed)``
    and drawing `names` besides the variables of `x`."""
    coeffs = [c for e in (x if isinstance(x, list) else [x]) for c in
              (e.coeffs.values() if isinstance(e, Form) else (e,))
              if not c.is_zero()]
    if not coeffs:
        return True, 0.0, {}, ""
    worst, witness = sample_worst(
        [(c, ex.ZERO) for c in coeffs], random.Random(seed),
        set(names).union(*map(ex.free_vars, coeffs)), box, guards, samples)
    ok = worst <= tol
    word = "zero" if ok else "nonzero"
    return ok, worst, witness, f"numeric {word} (seed {seed}, {samples} points)"


def numeric_check(check: IdentityCheck):
    """Sample both sides; pass iff the worst deviation stays within tol."""
    lhs, rhs = check.lhs, check.rhs
    if isinstance(lhs, Form) or isinstance(rhs, Form):
        pairs = [(lhs.coeffs.get(k, ex.ZERO), rhs.coeffs.get(k, ex.ZERO))
                 for k in set(lhs.coeffs) | set(rhs.coeffs)]
    else:
        pairs = [(lhs, rhs)]
    names = set().union(*(ex.free_vars(e) for pair in pairs for e in pair))
    worst, witness = sample_worst(pairs, random.Random(check.seed), names,
                                  check.box, check.guards, check.samples)
    status = "pass" if worst <= check.tol else "fail"
    return CheckResult(check.name, status, worst, witness, _nan(worst))


def _nan(worst, detail=""):
    """`detail`, naming a NaN worst deviation."""
    if worst == worst:
        return detail
    return f"{detail}; NaN deviation" if detail else "NaN deviation"


def _round_point(pt):
    return {k: round(v, 12) for k, v in sorted(pt.items())}


def finite_differences(lag, rng, box, guards, samples):
    """One zero-argument run per coordinate, in the order of `lag.partials`:
    each returns the worst relative gap between the tabled dL/dz and a
    central difference of L, with its witness.  The runs draw from the one
    stream `rng` in the order they are called, through one kernel: its
    shared statements compute L at the point; a coordinate's branch then
    computes dL/dz and, at z +- _FD_STEP, only the subtrees of L that
    contain z.  A run that raises leaves the stream where it stopped.  A
    coordinate that neither L nor a guard reads is drawn as the run's extra
    cell."""
    L, coords = lag.L, list(lag.partials.items())

    def branch(z, partial):
        def emit(k):
            if z in k.extras:
                k.names[ex.var(z)] = "xe"
            got = k.value(partial)
            if z in L.fvs():
                x = k.names[ex.var(z)]
                k.put(f"zp = {x} + {_FD_STEP!r}")
                k.put(f"zm = {x} - {_FD_STEP!r}")
            ends, seen = [], k.names
            for shifted, step in (("zp", _FD_STEP), ("zm", -_FD_STEP)):
                seen = {e: v for e, v in seen.items() if z not in e.fvs()}
                seen[ex.var(z)] = shifted
                ends.append(k.value(L, seen, (z, step)))
            k.put(f"want = ({ends[0]} - {ends[1]}) / {2 * _FD_STEP!r}")
            return [f"abs({got} - want) / (1.0 + abs(want))"]
        return emit

    kernel = _Kernel(ex.free_vars(L), box, guards, (L,),
                     [branch(z, d) for z, d in coords], [z for z, _ in coords])
    return [functools.partial(kernel.run, rng, samples, i, z)
            for i, (z, _) in enumerate(coords)]


# ---------------------------------------------------------------------------
# the identity catalog
# ---------------------------------------------------------------------------

def _exact(ok, detail):
    """The verdict of a structural check: a fail carries `detail`."""
    return ok, 0.0 if ok else None, {}, "" if ok else detail


def _all_zero(residuals):
    """Pass iff every (key, residual) is zero; a fail names the first key."""
    bad = next((k for k, r in residuals if not r.is_zero()), None)
    return _exact(bad is None, f"non-zero residual {bad}")


def _within(tol, run):
    """A finite-difference verdict: the worst gap of `run` is within tol."""
    worst, witness = run()
    return worst <= tol, worst, witness, ""


def _expected(want, *zero_args):
    """The numeric symmetry fallback: pass iff the zero test says `want`."""
    got, worst, witness, _ = zero_verdict(*zero_args)
    return got == want, worst, witness, "numeric fallback"


def _conserved(numeric, *args):
    """The conservation verdict, by ``noether.check_conservation``: sampled
    under the numeric check, else the residual's structural zero."""
    rep = check_conservation(*args)
    sampled = numeric and not rep.residual.is_zero()
    return (rep.conserved if sampled else rep.residual.is_zero(), rep.max_dev,
            rep.witness, "numeric fallback" if sampled else "")


def _skip(name, why):
    return CheckResult(name, "skip", None, {}, why)


def _seeded_gamma_tables(problem, rng, count):
    """`count` tables gamma^A_mu, each affine in the total-space coordinates
    with coefficients drawn from {-2, ..., 2} / {1, 2}."""
    ch = problem.chart

    def coeff():
        return ex.rat(rng.randint(-2, 2), rng.choice((1, 2)))
    return [{(y, x): ex.add(coeff(), *(ex.mul(coeff(), ex.var(n))
                                       for n in ch.e_coords()))
             for y in ch.fiber_names for x in ch.base_names}
            for _ in range(count)]


def run_identity_catalog(problem, seed=None, samples=None, tol=None):
    """Run every applicable identity for a problem; deterministic order."""
    num = problem.numeric
    seed = num.seed if seed is None else seed
    samples = num.samples if samples is None else samples
    tol = num.tol if tol is None else tol
    ch = problem.chart
    lag = problem.lagrangian
    at = (seed, num.box, num.guards, samples, tol)   # a theorem's zero test
    entries = []

    def check(name, decide, *args):
        # decide(*args) is (ok, max_dev, witness, detail); a domain error
        # fails this entry alone, with its text
        try:
            ok, worst, witness, detail = decide(*args)
        except NumericDomain as err:
            ok, worst, witness, detail = False, None, {}, str(err)
        entries.append(CheckResult(name, "pass" if ok else "fail", worst,
                                   witness, _nan(worst, detail)))
        return ok

    # finite-difference validation of the table of dL/dz that every
    # construction reads
    fds = finite_differences(lag, random.Random(seed), num.box, num.guards,
                             samples)
    for coord, run in zip(lag.partials, fds):
        check(f"finite-difference[dL/d{coord}]", _within, num.tol_fd, run)

    # canonical forms: both construction paths and closedness of the
    # Poincare-Cartan sequence
    cf = cartan_forms(lag)
    check("cartan-intrinsic-vs-display", zero_verdict,
          cf.vartheta - vartheta_intrinsic(lag), *at)
    check("cartan-domega-closed", zero_verdict, exterior_d(cf.omega), *at)

    # contact annihilation for every declared section
    for sname, decl in sorted(problem.sections.items()):
        res = is_holonomic(prolong_section(decl.section)).residuals
        check(f"contact-annihilation[{sname}]", _all_zero, zip(
            (f"theta^{y}" for y in ch.fiber_names), res))

    # energy and Legendre identities need at least one connection
    if problem.connections:
        gammas = _seeded_gamma_tables(problem, random.Random(seed + 1), 3)
        for cname, conn in sorted(problem.connections.items()):
            # the declared connection, then its three seeded shifts
            energies = [energy_density(lag, c) for c in
                        (conn, *(conn.shift(t) for t in gammas))]
            check(f"energy-intrinsic-vs-display[{cname}]", zero_verdict, [
                energy_intrinsic(lag, e.connection) - e.density()
                for e in energies], *at)
            check(f"legendre-linearity[{cname}]", zero_verdict, [
                volume_form(jet_space(ch)).scale(ex.sub(e1.E, energies[0].E))
                - legendre_difference(lag, table)
                for e1, table in zip(energies[1:], gammas)], *at)

            frame, R = conn.horizontal_frame(), curvature(conn)
            check(f"curvature-bracket[{cname}]", zero_verdict, [
                ex.sub(R.coefficient(y, xm, xn), br.component(y))
                for i, xm in enumerate(ch.base_names)
                for j, xn in enumerate(ch.base_names) if i < j
                for br in (bracket(frame[i], frame[j]),)
                for y in ch.fiber_names], *at)
    else:
        for name in ("energy-intrinsic-vs-display", "legendre-linearity",
                     "curvature-bracket"):
            entries.append(_skip(name, "no connections declared"))

    # sections marked as solutions (or explicitly not)
    el = derive_el(lag)
    for sname, decl in sorted(problem.sections.items()):
        if decl.solution is None:
            continue
        res = el.residuals_along(decl.section)
        vanished = all(r.is_zero() for r in res.values())
        if decl.solution:
            check(f"el-solution[{sname}]", _exact, vanished,
                  _residual_text(res))
        else:
            check(f"el-control[{sname}]", _exact, not vanished,
                  "control section unexpectedly solves the equations")

    # symmetries and conservation
    sym_fields = []
    any_symmetry_decl = any(d.symmetry is not None
                            for d in problem.vectorfields.values())
    for vname_, decl in sorted(problem.vectorfields.items()):
        if decl.symmetry is None:
            continue
        rep = total_variation(lag, decl.vf)
        name, want = f"symmetry[{vname_}]", bool(decl.symmetry)
        if decl.check == "numeric" and not rep.is_symmetry:
            ok = check(name, _expected, want, rep.variation, seed, num.box,
                       num.guards, num.symmetry_samples, tol)
        else:
            ok = check(name, _exact, rep.is_symmetry == want,
                       f"delta = {ex.to_text(rep.variation)}")
        if want and ok:
            sym_fields.append((vname_, decl))
    if not any_symmetry_decl:
        entries.append(_skip("symmetry", "no symmetry expectations declared"))

    solutions = [(n, d) for n, d in sorted(problem.sections.items()) if d.solution]
    for vname_, decl in sym_fields:
        cur = noether_current(lag, decl.vf)
        for sname, sdecl in solutions:
            check(f"noether-conservation[{vname_},{sname}]", _conserved,
                  decl.check == "numeric", cur, sdecl.section, samples, tol,
                  seed, num.box, num.guards)

    # declared jet fields
    prob_el = jetfield_el(lag)
    for jname, decl in sorted(problem.jetfields.items()):
        if decl.el_solution is None:
            continue
        rep = prob_el.check(decl.jf)
        ok = rep.solves() == bool(decl.el_solution)
        check(f"jetfield-el[{jname}]", _exact, ok, "" if ok else (
            f"sopde={rep.is_sopde} omega_residual={rep.omega_residual.describe()}"))
        for sname in decl.integral_sections:
            fr, gr = integral_residual2(
                decl.jf, prolong_section(problem.sections[sname].section))
            check(f"jetfield-integral[{jname},{sname}]", _all_zero,
                  ((f"{g}({','.join(k)})", r)
                   for g, res in (("F", fr), ("G", gr)) for k, r in res.items()))

    # declared diffeomorphisms preserve the contact module
    for dname, decl in sorted(problem.diffeos.items()):
        cm = prolong_diffeo(decl.diffeo)
        check(f"diffeo-contact[{dname}]", zero_verdict, [
            contact_reduce(pullback(cm, th)).reduced for th in contact_basis(ch)],
            *at)
        if decl.symmetry:
            check(f"diffeo-symmetry[{dname}]", zero_verdict,
                  pullback(cm, cf.theta) - cf.theta, *at)

    return SuiteReport(tuple(entries))


def _residual_text(res):
    return "; ".join(f"{k}: {ex.to_text(v)}" for k, v in sorted(res.items()))


class SuiteReport(Record):
    entries: tuple

    @property
    def passed(self):
        return all(e.status != "fail" for e in self.entries)

    def to_text(self):
        lines = []
        for e in self.entries:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[e.status]
            extra = ""
            if e.max_dev is not None:
                extra = f"  max_dev={e.max_dev:.3e}"
            if e.detail:
                extra += f"  ({e.detail})"
            lines.append(f"[{mark}] {e.name}{extra}")
        verdict = "all checks passed" if self.passed else "FAILURES present"
        lines.append(verdict)
        return "\n".join(lines)

    def to_json(self):
        import json   # only JSON output uses it
        return json.dumps({"suite": [e.as_json_obj() for e in self.entries]},
                          sort_keys=True, indent=2)
