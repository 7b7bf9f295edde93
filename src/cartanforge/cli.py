"""Command line front end.

    cartanforge <command> <problem.toml> [options]

Commands: derive-el, cartan-forms, energy, legendre-diff, curvature,
check-section, jetfield-el, symmetry, noether, verify.  Exit code 0 on
success or all-pass, 1 when `verify` reports failures or standard output
closes before the report is written, 2 on usage or parse errors.
`--format json` renders every command as a stable document.

`legendre-diff` reads the table named by --connection as the gamma
displacement (connections and displacement tables have the same shape).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import expr as ex
from .canonical import is_holonomic
from .chart import prolong_section
from .connection import curvature, integral_residual
from .errors import CartanforgeError, InvalidArgument, MissingArgument
from .harness import run_identity_catalog
from .lagrangian import cartan_forms, derive_el, energy_density, jetfield_el, \
    legendre_difference
from .noether import check_conservation, noether_current, total_variation
from .problem import parse_problem


def _render(payload, fmt):
    if fmt == "json":
        import json   # only JSON output uses it
        return json.dumps(payload, sort_keys=True, indent=2)
    lines = []
    for r in payload.get("results", []):
        value = r.get("expression", r.get("form", ""))
        lines.append(f"{r['name']} = {value}")
        for k in sorted(r.get("metadata", {})):
            lines.append(f"  {k}: {r['metadata'][k]}")
    return "\n".join(lines)


def _result(name, value, metadata=None, kind="expression"):
    out = {"name": name, kind: value}
    if metadata:
        out["metadata"] = metadata
    return out


def _need(value, flag, cmd):
    if value is None:
        raise MissingArgument(f"{cmd} requires {flag}")
    return value


def _samples(args, default):
    if args.samples is None:
        return default
    if args.samples < 1:
        raise InvalidArgument(f"--samples must be at least 1, got {args.samples}")
    return args.samples


def _tol(args, default):
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise InvalidArgument(f"--tol must be finite and at least 0, got {args.tol}")
    return default if args.tol is None else args.tol


def _named(mapping, name, what):
    if name not in mapping:
        raise MissingArgument(f"no {what} named {name!r} is declared")
    return mapping[name]


def cmd_derive_el(problem, args):
    sys_ = derive_el(problem.lagrangian)
    results = [_result(f"EL[{y}]", ex.to_text(c))
               for y, c in sorted(sys_.components.items())]
    return {"command": "derive-el", "inputs": {}, "results": results}, 0


def cmd_cartan_forms(problem, args):
    cf = cartan_forms(problem.lagrangian)
    results = [
        _result("vartheta", cf.vartheta.describe(), kind="form"),
        _result("Theta", cf.theta.describe(), kind="form"),
        _result("Omega", cf.omega.describe(), kind="form"),
    ]
    return {"command": "cartan-forms", "inputs": {}, "results": results}, 0


def cmd_energy(problem, args):
    name = _need(args.connection, "--connection", "energy")
    conn = _named(problem.connections, name, "connection")
    e = energy_density(problem.lagrangian, conn)
    results = [_result("E", ex.to_text(e.E),
                       metadata={"connection": name})]
    return {"command": "energy", "inputs": {"connection": name},
            "results": results}, 0


def cmd_legendre_diff(problem, args):
    name = _need(args.connection, "--connection", "legendre-diff")
    conn = _named(problem.connections, name, "connection")
    form = legendre_difference(problem.lagrangian, conn.gamma)
    results = [_result("legendre-difference", form.describe(), kind="form",
                       metadata={"gamma": name})]
    return {"command": "legendre-diff", "inputs": {"gamma": name},
            "results": results}, 0


def cmd_curvature(problem, args):
    name = _need(args.connection, "--connection", "curvature")
    conn = _named(problem.connections, name, "connection")
    R = curvature(conn)
    ch = problem.chart
    results = []
    for y, comp in zip(ch.fiber_names, R.form.comps):
        results.append(_result(f"R[{y}]", comp.describe(), kind="form"))
    results.append(_result("flat", str(R.is_zero()).lower(),
                           metadata={"connection": name}))
    return {"command": "curvature", "inputs": {"connection": name},
            "results": results}, 0


def cmd_check_section(problem, args):
    name = _need(args.section, "--section", "check-section")
    decl = _named(problem.sections, name, "section")
    phi = decl.section
    results = []
    res = derive_el(problem.lagrangian).residuals_along(phi)
    solves = all(v.is_zero() for v in res.values())
    for y, v in sorted(res.items()):
        results.append(_result(f"EL-residual[{y}]", ex.to_text(v)))
    results.append(_result("solves-field-equations", str(solves).lower()))
    rep = is_holonomic(prolong_section(phi))
    results.append(_result("prolongation-holonomic", str(rep.holonomic).lower()))
    if args.connection:
        conn = _named(problem.connections, args.connection, "connection")
        ires = integral_residual(conn, phi)
        for (y, x), v in sorted(ires.items()):
            results.append(_result(f"integral-residual[{y},{x}]", ex.to_text(v)))
    return {"command": "check-section", "inputs": {"section": name},
            "results": results}, 0


def cmd_jetfield_el(problem, args):
    prob = jetfield_el(problem.lagrangian)
    results = [_result(f"equation[{y}]", ex.to_text(c) + " = 0")
               for y, c in sorted(prob.equations.items())]
    if args.jetfield:
        decl = _named(problem.jetfields, args.jetfield, "jet field")
        rep = prob.check(decl.jf)
        results.append(_result("sopde", str(rep.is_sopde).lower()))
        results.append(_result("omega-contraction", rep.omega_residual.describe(),
                               kind="form"))
        results.append(_result("solves", str(rep.solves()).lower()))
    else:
        sol = prob.solve()
        meta = {"rank": sol.rank, "consistent": sol.consistent,
                "free": list(sol.free)}
        for u in sorted(sol.pivots):
            results.append(_result(f"solution[{u}]", ex.to_text(sol.pivots[u])))
        results.append(_result("solve-report", "linear solve", metadata=meta))
    return {"command": "jetfield-el",
            "inputs": {"jetfield": args.jetfield or ""}, "results": results}, 0


def cmd_symmetry(problem, args):
    name = _need(args.vectorfield, "--vectorfield", "symmetry")
    decl = _named(problem.vectorfields, name, "vector field")
    rep = total_variation(problem.lagrangian, decl.vf)
    results = [
        _result("total-variation", ex.to_text(rep.variation)),
        _result("is-symmetry", str(rep.is_symmetry).lower()),
        _result("prolongation", rep.prolonged.describe(), kind="form"),
    ]
    return {"command": "symmetry", "inputs": {"vectorfield": name},
            "results": results}, 0


def cmd_noether(problem, args):
    name = _need(args.vectorfield, "--vectorfield", "noether")
    decl = _named(problem.vectorfields, name, "vector field")
    samples = _samples(args, problem.numeric.samples)
    cur = noether_current(problem.lagrangian, decl.vf)
    results = [_result("current", cur.J.describe(), kind="form")]
    inputs = {"vectorfield": name}
    if args.along:
        sdecl = _named(problem.sections, args.along, "section")
        # one residual serves both verdicts
        nrep = check_conservation(cur, sdecl.section, samples=samples,
                                  tol=_tol(args, problem.numeric.tol),
                                  seed=args.seed if args.seed is not None
                                  else problem.numeric.seed,
                                  box=problem.numeric.box,
                                  guards=problem.numeric.guards)
        results.append(_result("conserved-symbolic",
                               str(nrep.residual.is_zero()).lower()))
        results.append(_result("conserved-numeric", str(nrep.conserved).lower(),
                               metadata={"max_dev": nrep.max_dev}))
        inputs["along"] = args.along
    return {"command": "noether", "inputs": inputs, "results": results}, 0


def cmd_verify(problem, args):
    report = run_identity_catalog(problem, seed=args.seed,
                                  samples=_samples(args, None),
                                  tol=_tol(args, None))
    code = 0 if report.passed else 1
    if args.format == "json":
        return report.to_json(), code
    return report.to_text(), code


COMMANDS = {
    "derive-el": cmd_derive_el,
    "cartan-forms": cmd_cartan_forms,
    "energy": cmd_energy,
    "legendre-diff": cmd_legendre_diff,
    "curvature": cmd_curvature,
    "check-section": cmd_check_section,
    "jetfield-el": cmd_jetfield_el,
    "symmetry": cmd_symmetry,
    "noether": cmd_noether,
    "verify": cmd_verify,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="cartanforge",
        description="field-theory toolkit over declarative problem files")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("problem", help="path to the problem file")
    p.add_argument("--connection")
    p.add_argument("--vectorfield")
    p.add_argument("--section")
    p.add_argument("--jetfield")
    p.add_argument("--along", "--check-along", dest="along")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float)
    return p


def run_command(command, problem, args):
    """Dispatch a parsed problem; returns (rendered output, exit code)."""
    out, code = COMMANDS[command](problem, args)
    if isinstance(out, str):
        return out, code
    return _render(out, args.format), code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        problem = parse_problem(args.problem)
        out, code = run_command(args.command, problem, args)
    except CartanforgeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`| head`); point stdout at devnull so the
        # interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
