#!/usr/bin/env python3
"""cartanforge benchmark: three workloads, a known-answer gate, a traced run.

Run from the repository root:

    python3 bench/run.py --workload strings --seed 1 --seconds 40 --trace 0

``--workload`` is ``strings``, ``fields-sampled``, ``model-sweep`` or ``all``.
With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
a separate traced run reports per-layer spans, expression sizes and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See ``bench/README.md``.

This process generates all load; it runs one worker process at a time
(``bench/worker.py``), each repetition of an item in a fresh interpreter,
alternating ``PYTHONHASHSEED`` between passes so every output digest is
compared across hash seeds.  Only the standard library is used.
"""

import argparse
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
import tomllib
from fractions import Fraction

from spans import TARGETS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
HASH_SEEDS = ("0", "1")
SETUP_PROBES = 6            # set-up-only workers per timed run
WORKER_TIMEOUT_S = 100     # keeps a run inside 180 s when a worker hangs

# a workload is a list of items; "tail" names the item reported as item_s.tail
WORKLOADS = {
    "strings": {"problems": ("nambu_string", "polyakov_string"),
                "samples": None, "tail": "nambu_string"},
    "fields-sampled": {"problems": ("free_particle", "harmonic_oscillator",
                                    "wave_1p1", "maxwell"),
                       "samples": 1000, "tail": "maxwell"},
    "model-sweep": {"models": 150},
}

E2E = {"setup_s": "s", "run_s": "s", "checks_per_s": "1/s",
       "item_s.tail": "s", "peak_rss_mb": "MB"}

# per-layer metrics in the result line: times only of spans that every
# workload enters, counts of the rest; every span is printed above it
PER_LAYER = (
    "expr.add.calls", "expr.add.self_s", "expr.mul.calls", "expr.mul.self_s",
    "expr.pow_.calls", "expr.pow_.self_s",
    "expr.differentiate.calls", "expr.differentiate.s",
    "expr.evaluate_numeric.calls", "expr.evaluate_numeric.s",
    "expr.substitute.s", "expr.parse.calls", "expr.to_text.calls",
    "forms.exterior_d.calls", "forms.exterior_d.s", "forms.wedge.s",
    "forms.interior.s", "forms.pullback.calls",
    "canonical.contract_with_dL.calls", "canonical.contact_reduce.calls",
    "canonical.prolong_diffeo.calls", "connection.curvature.calls",
    "lagrangian.energy_density.calls", "lagrangian.cartan_forms.s",
    "lagrangian.derive_el.s", "lagrangian.jetfield_el.s",
    "lagrangian.legendre_difference.calls", "lagrangian.solve.calls",
    "noether.total_variation.calls", "noether.noether_current.calls",
    "noether.check_conservation.calls",
    "harness.numeric_check.calls", "harness.draw_point.calls",
    "harness.guard.accept_ratio",
    "size.omega.terms", "size.omega.nodes", "size.el.terms", "size.el.nodes",
    "size.jet_eq.terms", "size.jet_eq.nodes",
    "trace.overhead_pct",
)

# model-sweep: random first-order Lagrangians on this chart
CHART = (("x0", "x1"), ("u", "w"))
VELOCITIES = tuple(f"d({y},{x})" for y in CHART[1] for x in CHART[0])
POINTS_PER_MODEL = 2
FD_STEP, FD_TOL = 1e-5, 1e-6
MODEL_CHECKS = 2 + len(VELOCITIES)     # round trip, d(Omega), momenta


class WorkerFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# known answers for verify workloads, read from the problem files directly
# ---------------------------------------------------------------------------

def expected_checks(path):
    """Check names and statuses the catalog must report for a problem,
    derived from its declarations (parsed with tomllib, not the engine)."""
    with open(path, "rb") as fh:
        doc = tomllib.load(fh)
    base, fiber = doc["bundle"]["base"], doc["bundle"]["fiber"]
    jet = base + fiber + [f"d({y},{x})" for y in fiber for x in base]
    out = [f"finite-difference[dL/d{c}]" for c in jet]
    out += ["cartan-intrinsic-vs-display", "cartan-domega-closed"]
    sections = doc.get("section", {})
    out += [f"contact-annihilation[{s}]" for s in sorted(sections)]
    for c in sorted(doc.get("connection", {})):
        out += [f"energy-intrinsic-vs-display[{c}]",
                f"legendre-linearity[{c}]", f"curvature-bracket[{c}]"]
    for s in sorted(sections):
        if "solution" in sections[s]:
            kind = "el-solution" if sections[s]["solution"] else "el-control"
            out.append(f"{kind}[{s}]")
    fields = doc.get("vectorfield", {})
    declared = [v for v in sorted(fields) if "symmetry" in fields[v]]
    out += [f"symmetry[{v}]" for v in declared]
    solutions = [s for s in sorted(sections) if sections[s].get("solution")]
    out += [f"noether-conservation[{v},{s}]"
            for v in declared if fields[v]["symmetry"] for s in solutions]
    jets = doc.get("jetfield", {})
    for j in sorted(jets):
        if "el_solution" in jets[j]:
            out.append(f"jetfield-el[{j}]")
            out += [f"jetfield-integral[{j},{s}]"
                    for s in jets[j].get("integral_sections", [])]
    diffeos = doc.get("diffeo", {})
    for d in sorted(diffeos):
        out.append(f"diffeo-contact[{d}]")
        if diffeos[d].get("symmetry"):
            out.append(f"diffeo-symmetry[{d}]")
    missing = [name for name, flag in (("connection", doc.get("connection")),
                                       ("symmetry", declared)) if not flag]
    if missing:   # the catalog reports skips here; no workload uses one
        raise SystemExit(f"{path}: workload problems must declare {missing}")
    return out


# ---------------------------------------------------------------------------
# model-sweep inputs and their independent reference
# ---------------------------------------------------------------------------

def _coef(rng):
    return Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 4)))


def make_model(rng):
    """Polynomial kinetic and potential terms, plus sin/cos/exp half the time."""
    terms = []
    for _ in range(rng.randint(2, 4)):
        pair = rng.sample(VELOCITIES, 2) if rng.random() < 0.5 \
            else [rng.choice(VELOCITIES)] * 2
        weight = rng.choice((None, None, "u", "w", "x0", "u^2", "w*x1"))
        terms.append(pair + ([weight] if weight else []))
    for _ in range(rng.randint(1, 3)):
        powers = [(n, rng.randint(0, 2)) for n in ("u", "w", "x0", "x1")]
        mono = [n if k == 1 else f"{n}^{k}" for n, k in powers if k]
        terms.append(mono or ["u"])
    if rng.random() < 0.5:
        arg = rng.choice(("u", "w", "u + w", "x0 - w", "2*u", "d(u,x1)"))
        extra = rng.choice((None, "d(w,x0)", "u"))
        terms.append([f"{rng.choice(('sin', 'cos', 'exp'))}({arg})"]
                     + ([extra] if extra else []))
    text = ""
    for factors in terms:
        c = _coef(rng)
        sign = rng.choice(("+", "-"))
        body = "*".join([str(c)] + factors)
        text += (f" {sign} " if text else ("-" if sign == "-" else "")) + body
    return text


def reference(text):
    """The Lagrangian as a plain Python float function of a point dict."""
    py = re.sub(r"d\((\w+),(\w+)\)", r"v_\1_\2", text).replace("^", "**")
    code = compile(py, "<model>", "eval")
    env = {"__builtins__": {}, "sin": math.sin, "cos": math.cos,
           "exp": math.exp}

    def f(pt):
        return eval(code, env, {re.sub(r"d\((\w+),(\w+)\)", r"v_\1_\2", k): v
                                for k, v in pt.items()})
    return f


def model_inputs(seed, count):
    rng = random.Random(seed)
    models = [make_model(rng) for _ in range(count)]
    names = CHART[0] + CHART[1] + VELOCITIES
    points = [[{n: rng.uniform(-1.0, 1.0) for n in names}
               for _ in range(POINTS_PER_MODEL)] for _ in models]
    return models, points


def gate_models(models, points, gates):
    """Failed known-answer checks of one model batch: parse(to_text(L)) == L,
    d(Omega) == 0, and every momentum against a central difference."""
    failed = 0
    for text, pts, gate in zip(models, points, gates):
        failed += (not gate["roundtrip"]) + (not gate["dd_zero"])
        f = reference(text)
        for v in VELOCITIES:
            for pt, got in zip(pts, gate["momenta"][v]):
                hi, lo = dict(pt), dict(pt)
                hi[v] += FD_STEP
                lo[v] -= FD_STEP
                want = (f(hi) - f(lo)) / (2 * FD_STEP)
                if not abs(got - want) <= FD_TOL * (1 + abs(want)):
                    failed += 1
                    break
    return failed


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

def run_worker(job, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.abspath("src"))
    # byte-code caching as after an install, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run([sys.executable, WORKER], input=json.dumps(job),
                              capture_output=True, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise WorkerFailed(f"worker timed out after {err.timeout} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise WorkerFailed(f"worker exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout)


class Workload:
    """Items of one workload, their jobs and their known answers."""

    def __init__(self, name, seed):
        spec = WORKLOADS[name]
        self.name = name
        self.tail = spec.get("tail")
        if "problems" in spec:
            self.items = list(spec["problems"])
            self.paths = {p: os.path.join("problems", p + ".toml")
                          for p in self.items}
            self.expected = {p: expected_checks(self.paths[p])
                             for p in self.items}
            self.jobs = {p: {"kind": "verify", "problem": self.paths[p],
                             "seed": seed, "samples": spec["samples"]}
                         for p in self.items}
        else:
            self.items = ["models"]
            self.models, self.points = model_inputs(seed, spec["models"])
            self.jobs = {"models": {"kind": "models", "chart": CHART,
                                    "models": self.models,
                                    "points": self.points}}

    def checks(self, item):
        if item == "models":
            return MODEL_CHECKS * len(self.models)
        return len(self.expected[item])

    def gate(self, item, res):
        """Failed known-answer checks of one worker result."""
        if item == "models":
            return gate_models(self.models, self.points, res["gates"])
        want, got = self.expected[item], res["checks"]
        return sum(g != [w, "pass"] for g, w in zip(got, want)) \
            + abs(len(got) - len(want))


class Tally:
    """Known-answer results of one run, and the outputs that must repeat
    exactly across its workers: digests, and expression sizes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seen = {}      # (item, what) -> {value: [hash seeds]}
        self.errors = []

    def run(self, wl, item, hash_seed, **extra):
        job = dict(wl.jobs[item], **extra)
        checks = wl.checks(item)
        self.attempted += checks
        try:
            res = run_worker(job, hash_seed)
        except WorkerFailed as err:
            self.failed += checks
            self.errors.append(f"{item}: {err}")
            return None
        self.failed += wl.gate(item, res)
        for what in ("digest", "sizes"):
            if what in res:
                value = json.dumps(res[what], sort_keys=True)
                self.seen.setdefault((item, what), {}) \
                    .setdefault(value, []).append(hash_seed)
        return res

    def finish(self):
        """One determinism check per item and output: a single value across
        all workers and hash seeds.  Returns {(item, what): value}."""
        for (item, what), seen in self.seen.items():
            self.attempted += 1
            seeds = {s for ss in seen.values() for s in ss}
            if len(seen) != 1:
                self.failed += 1
                self.errors.append(f"{item}: {len(seen)} distinct {what}")
            elif len(seeds) < 2:
                self.errors.append(f"{item}: {what} seen under one hash "
                                   "seed only")
        return {key: json.loads(next(iter(seen)))
                for key, seen in self.seen.items() if len(seen) == 1}


def schedule(items, seconds, min_reps, run_one):
    """Call run_one(item, rep) round-robin over items.  An item runs again
    while its last duration still fits in `seconds`, and at least min_reps
    times; returns the repetition count of each item."""
    start = time.monotonic()
    reps = dict.fromkeys(items, 0)
    last = dict.fromkeys(items, 0.0)
    ran = True
    while ran:
        ran = False
        for item in items:
            if reps[item] >= min_reps and \
                    time.monotonic() - start + last[item] > seconds:
                continue
            t = time.monotonic()
            run_one(item, reps[item])
            last[item] = time.monotonic() - t
            reps[item] += 1
            ran = True
    return reps


# ---------------------------------------------------------------------------
# timed run: end-to-end metrics
# ---------------------------------------------------------------------------

def timed_run(wl, seconds):
    """Times are at the reference host speed (``Speedometer`` in worker.py);
    each timed unit, a problem's verify or one model, counts at the median
    of its repetitions."""
    tally = Tally()
    setups = []
    for i in range(SETUP_PROBES):
        item = wl.items[i % len(wl.items)]
        try:
            setups.append(run_worker(dict(wl.jobs[item], setup_only=True),
                                     HASH_SEEDS[i % 2]))
        except WorkerFailed as err:
            tally.errors.append(f"set-up: {err}")
    results = {item: [] for item in wl.items}

    def one(item, rep):
        res = tally.run(wl, item, HASH_SEEDS[rep % 2])
        if res is not None:
            results[item].append(res)
            setups.append(res)

    reps = schedule(wl.items, seconds, 2, one)
    digests = tally.finish()
    if any(not r for r in results.values()) or not setups:
        return tally, None
    runs = [r for rs in results.values() for r in rs]

    def units(field):
        """Each timed unit's median over its repetitions."""
        if wl.tail:
            reps_of_unit = ([r[field][0] for r in results[item]]
                            for item in wl.items)
        else:
            reps_of_unit = zip(*(r[field] for r in results["models"]))
        return [statistics.median(ts) for ts in reps_of_unit]

    unit_s = units("work_ref_s")
    run_s = sum(unit_s)
    checks = sum(wl.checks(item) for item in wl.items)
    table = {"setup_s": (statistics.median(r["setup_ref_s"] for r in setups),
                         "s"),
             "run_s": (run_s, "s"),
             "checks_per_s": (checks / run_s, "1/s")}
    if wl.tail:
        for item, t in zip(wl.items, unit_s):
            table[f"verify_s.{item}"] = (t, "s")
        tail = unit_s[wl.items.index(wl.tail)]
    else:
        tail = statistics.quantiles(unit_s, n=10)[8]
        table["models_per_s"] = (len(unit_s) / run_s, "1/s")
        table["model_s.p50"] = (statistics.median(unit_s), "s")
        table["model_s.p90"] = (tail, "s")
    table["item_s.tail"] = (tail, "s")
    table["peak_rss_mb"] = (max(
        statistics.median(r["maxrss_kb"] for r in rs)
        for rs in results.values()) / 1024, "MB")
    table["fail_ratio"] = (tally.failed / tally.attempted, "ratio")
    table["wall.setup_s"] = (statistics.median(r["setup_s"] for r in setups),
                             "s")
    table["wall.run_s"] = (sum(units("work_s")), "s")
    table["host.slowdown"] = (statistics.median(r["slowdown"] for r in runs),
                              "x")
    return tally, (table, reps, len(setups), digests)


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def traced_run(wl, seconds):
    """Each repetition runs an item untraced, then traced.  Spans are
    averaged over an item's repetitions and summed over items; the overhead
    compares traced with untraced work time."""
    tally = Tally()
    spans, setup_spans, rows, sizes = {}, {}, {}, {}
    plain_s = {item: [] for item in wl.items}
    traced_s = {item: [] for item in wl.items}

    def one(item, rep):
        # both runs count sizes, under different hash seeds
        res = tally.run(wl, item, HASH_SEEDS[rep % 2], sizes=True)
        if res is not None:
            plain_s[item].append(sum(res["work_ref_s"]))
        res = tally.run(wl, item, HASH_SEEDS[(rep + 1) % 2], trace=True,
                        sizes=True)
        if res is None:
            return
        traced_s[item].append(sum(res["work_ref_s"]))
        for name, rec in res["spans"]["work"].items():
            _accumulate(spans, (item, name), rec)
        for name, rec in res["spans"]["setup"].items():
            _accumulate(setup_spans, (item, name), rec)
        for name, parent, *rec in res["spans_by_parent"]:
            _accumulate(rows, (item, name, parent), rec)
        sizes[item] = res["sizes"]

    reps = schedule(wl.items, seconds, 1, one)
    tally.finish()
    if any(not t for t in traced_s.values()) or \
            any(not t for t in plain_s.values()):
        return tally, None
    per_rep = {item: len(traced_s[item]) for item in wl.items}
    overhead = 100 * (
        sum(statistics.median(t) for t in traced_s.values())
        / sum(statistics.median(t) for t in plain_s.values()) - 1)
    return tally, (_per_rep(spans, per_rep), _per_rep(setup_spans, per_rep),
                   rows, sizes, overhead, reps)


def _per_rep(table, per_rep):
    """(item, name) -> totals  ==>  name -> sum over items of per-rep mean."""
    out = {}
    for (item, name), rec in table.items():
        _accumulate(out, name, [v / per_rep[item] for v in rec])
    return out


def _accumulate(table, key, rec):
    acc = table.setdefault(key, [0, 0.0, 0.0])
    for i in range(3):
        acc[i] += rec[i]


def layer_metrics(spans, setup_spans, rows, sizes, overhead, reps):
    out = {}
    for target in TARGETS:
        name = f"{target[0]}.{target[-1]}"
        calls, incl, self_s = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (int(calls) if float(calls).is_integer()
                                else calls, "count")
        out[f"{name}.s"] = (incl, "s")
        out[f"{name}.self_s"] = (self_s, "s")
    out["problem.parse_problem.s"] = (
        setup_spans.get("problem.parse_problem", (0, 0.0))[1], "s")
    # accepted points over Guard.holds attempts, over guarded items
    # (exact while each problem declares at most one guard, as all do)
    holds, accepted = 0, 0
    for item in {i for (i, n, p) in rows
                 if (n, p) == ("problem.holds", "harness.draw_point")}:
        holds += rows[(item, "problem.holds", "harness.draw_point")][0]
        accepted += sum(r[0] for (i, n, _), r in rows.items()
                        if i == item and n == "harness.draw_point")
    out["harness.guard.accept_ratio"] = (accepted / holds if holds else 1.0,
                                         "ratio")
    for family in ("omega", "el", "jet_eq"):
        for field in ("coeffs", "terms", "nodes"):
            out[f"size.{family}.{field}"] = (
                sum(s[family][field] for s in sizes.values()), "count")
    out["trace.overhead_pct"] = (overhead, "%")
    return out


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_table(title, table):
    print(f"== {title}")
    for name, (value, unit) in table.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")


def run_workload(name, seed, seconds, trace):
    wl = Workload(name, seed)
    metrics = None
    if not trace:
        tally, measured = timed_run(wl, seconds)
        if measured is not None:
            table, reps, n_setups, digests = measured
            print_table(f"{name}: timed; repetitions {_reps(reps, wl)}; "
                        f"{n_setups} set-ups", table)
            for (item, _), digest in digests.items():
                print(f"  digest {item:<32} {digest}")
            metrics = {k: table[k] for k in E2E}
    else:
        tally, measured = traced_run(wl, seconds)
        if measured is not None:
            spans, _, _, sizes, _, reps = measured
            table = layer_metrics(*measured)
            print(f"== {name}: traced; repetitions {_reps(reps, wl)}; "
                  "per repetition: calls, inclusive s, self s")
            for fn in sorted(spans, key=lambda k: -spans[k][2]):
                calls, incl, self_s = spans[fn]
                print(f"  {fn:<34} {calls:>10.0f} {incl:>10.4f} {self_s:>10.4f}")
            for item, sz in sizes.items():
                print(f"  sizes {item}: " + "; ".join(
                    f"{fam} {v['coeffs']} coeffs {v['terms']} terms "
                    f"{v['nodes']} nodes" for fam, v in sz.items()))
            print_table(f"{name}: per-layer", {
                k: v for k, v in table.items()
                if k in PER_LAYER or not k.endswith(("calls", "s")) or v[0]})
            metrics = {k: table[k] for k in PER_LAYER}
    for err in tally.errors:
        print(f"  error: {err}")
    return tally, metrics


def _reps(reps, wl):
    text = ", ".join(f"{item} {n}" for item, n in reps.items())
    if wl.tail is None:
        text += f" (of {len(wl.models)} models each)"
    return text


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cartanforge", "__init__.py")):
        print("bench: run from the cartanforge repository root "
              "(src/cartanforge not found)", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics, complete = {}, True
    for name in names:
        tally, got = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += tally.attempted
        failed += tally.failed
        if got is None:
            complete = False
            continue
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in got.items()})
    if not complete:
        print("bench: a workload produced no measurement", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
