"""One benchmark item in a fresh interpreter.

The runner (``bench/run.py``) starts this script once per repetition of a
workload item, writes a JSON job to its standard input and reads one JSON
result from its standard output.  A job is one of

* ``{"kind": "verify", "problem": PATH, "seed": N, "samples": N|null}``:
  ``run_identity_catalog`` on one problem file;
* ``{"kind": "models", "chart": [BASE, FIBER], "models": [TEXT, ...],
  "points": [[POINT, ...], ...]}``: the model-construction pipeline on each
  Lagrangian text, ending with the momenta dL/d(v) at the given points,
  which the runner's known-answer gate checks;

with optional ``"setup_only": true`` (stop after set-up), ``"trace": true``
(wrap the engine's public functions, see ``spans.py``) and ``"sizes": true``
(count nodes and terms of the constructed expressions).

Set-up is ``import cartanforge`` plus problem parsing or chart construction;
it is timed apart from the work.  Every timed span is reported twice: as
wall time, and corrected for the host's speed (see ``Speedometer``).
Outputs are hashed with SHA-256 so the runner can compare them across
processes and ``PYTHONHASHSEED`` values.
"""

import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from types import SimpleNamespace

PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 0.3
# About the probe's duration inside a worker running the engine on an idle
# machine like the one the baseline was taken on.  A fixed scale: changing
# it changes every reported time.
REFERENCE_PROBE_S = 0.003

_PROBE_KEYS = [(i % 13, str(i % 7), (i % 3, i % 5)) for i in range(97)]
_PROBE_TABLE = {k: i for i, k in enumerate(_PROBE_KEYS)}
# a random cycle through 2^17 list slots: each step is a dependent load
_order = random.Random(1).sample(range(1 << 17), 1 << 17)
_PROBE_NEXT = [0] * (1 << 17)
for _a, _b in zip(_order, _order[1:] + _order[:1]):
    _PROBE_NEXT[_a] = _b
del _order, _a, _b
gc.freeze()     # keep the probe's table out of the engine's collections


def _probe():
    """Fixed pure-Python work in two halves of about equal time: tuple
    hashing, dict lookups and int arithmetic, then a chase through a random
    cycle in a 5 MB list, which the engine's heap keeps out of cache.
    Other tenants slow both the processor and the memory system.  The
    numeric workloads feel the first most and nambu's big expressions the
    second; either half alone mis-corrected one of them by 10-13%.  The
    probe allocates no object the garbage collector tracks, so it never
    sets off a collection of the engine's heap."""
    acc = 0
    for i in range(4000):
        k = _PROBE_KEYS[i % 97]
        acc = (acc * 31 + _PROBE_TABLE[k] + hash(k)) % 1000003
    j = 0
    for _ in range(5000):
        j = _PROBE_NEXT[j]
    return acc + j


class Speedometer:
    """Times ``_probe`` every PROBE_INTERVAL_S (on SIGALRM) while the worker
    runs.  The machine's cores are shared with other tenants, whose load
    slows this process by up to 2x for seconds at a time; a span's time
    scaled by REFERENCE_PROBE_S over the probe's median duration around that
    span is its time at the reference speed.  Probe time is excluded from
    every span."""

    def __init__(self):
        self.probes = []    # (start, duration)
        self.spent = 0.0    # seconds spent probing so far

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()

    def _tick(self, *_):
        t = time.perf_counter()
        _probe()
        end = time.perf_counter()
        self.probes.append((t, end - t))
        self.spent += end - t

    def mark(self):
        return time.perf_counter(), self.spent

    def clock(self):
        """perf_counter without the time spent probing."""
        return time.perf_counter() - self.spent

    def spans(self, marks):
        """[(wall s, reference s)] for (start mark, end mark) pairs; called
        after stop() so every span has probes on both sides."""
        out = []
        for (t0, s0), (t1, s1) in marks:
            wall = (t1 - t0) - (s1 - s0)
            near = [d for t, d in self.probes
                    if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S]
            out.append((wall, wall * REFERENCE_PROBE_S / statistics.median(near)))
        return out


def main():
    job = json.load(sys.stdin)
    speed = Speedometer()
    # without tracing, the tracer is a bare label holder
    tracer = SimpleNamespace(item=None)
    speed.start()
    m0 = speed.mark()
    import cartanforge as cf
    if job.get("trace"):
        from spans import Tracer
        tracer = Tracer(speed.clock)
        tracer.install()
        tracer.item = "setup"
    if job["kind"] == "verify":
        state = cf.parse_problem(job["problem"])
    else:
        state = cf.make_chart(*job["chart"])
    marks = [(m0, speed.mark())]
    out = {}
    if not job.get("setup_only"):
        run = run_verify if job["kind"] == "verify" else run_models
        out.update(run(cf, state, job, tracer, speed, marks))
    speed.stop()
    timed = speed.spans(marks)
    out["setup_s"], out["setup_ref_s"] = timed[0]
    out["work_s"] = [w for w, _ in timed[1:]]
    out["work_ref_s"] = [r for _, r in timed[1:]]
    out["slowdown"] = statistics.median(d for _, d in speed.probes) \
        / REFERENCE_PROBE_S
    if job.get("trace"):
        # span times at the reference speed of the spans they belong to
        scale = {"setup": timed[0][1] / timed[0][0],
                 "work": sum(out["work_ref_s"]) / sum(out["work_s"])}
        out["spans"] = {item: {name: [c, s * scale[item], self_s * scale[item]]
                               for name, (c, s, self_s)
                               in tracer.totals(item).items()}
                        for item in scale}
        out["spans_by_parent"] = tracer.by_parent("work")
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)


def run_verify(cf, problem, job, tracer, speed, marks):
    from cartanforge.harness import run_identity_catalog
    tracer.item = "work"
    m = speed.mark()
    report = run_identity_catalog(problem, seed=job["seed"],
                                  samples=job["samples"])
    text = report.to_json()
    marks.append((m, speed.mark()))
    out = {"digest": hashlib.sha256(text.encode()).hexdigest(),
           "checks": [[e.name, e.status] for e in report.entries]}
    if job.get("sizes"):
        tracer.item = "sizes"
        lag = problem.lagrangian
        out["sizes"] = sizes(cf.cartan_forms(lag).omega.coeffs.values(),
                             cf.derive_el(lag).components.values(),
                             cf.jetfield_el(lag).equations.values())
    return out


def run_models(cf, chart, job, tracer, speed, marks):
    from cartanforge import expr as ex
    digest = hashlib.sha256()
    gates, built = [], []
    for text, points in zip(job["models"], job["points"]):
        tracer.item = "work"
        m = speed.mark()
        L = chart.parse(text)
        lag = cf.Lagrangian(chart, L)
        el = cf.derive_el(lag)
        omega = cf.cartan_forms(lag).omega
        d_omega = cf.exterior_d(omega)
        jet = cf.jetfield_el(lag)
        sol = jet.solve()
        momenta = {}
        for y in chart.fiber_names:
            for x in chart.base_names:
                p = lag.momentum(y, x)
                momenta[f"d({y},{x})"] = [ex.evaluate_numeric(p, pt)
                                          for pt in points]
        lines = [ex.to_text(L)]
        lines += [f"EL[{y}] = {ex.to_text(c)}"
                  for y, c in sorted(el.components.items())]
        lines.append(f"Omega = {omega.describe()}")
        lines.append(f"dOmega = {d_omega.describe()}")
        lines.append(f"rank={sol.rank} consistent={sol.consistent} "
                     f"free={','.join(sol.free)}")
        lines += [f"{g} = {ex.to_text(e)}" for g, e in sorted(sol.pivots.items())]
        lines += [f"p[{v}] = {vals!r}" for v, vals in momenta.items()]
        marks.append((m, speed.mark()))
        digest.update(("\n".join(lines) + "\n").encode())

        # the round trip is the gate's own probe: untimed, outside "work"
        tracer.item = "gate"
        gates.append({"roundtrip": chart.parse(ex.to_text(L)) == L,
                      "dd_zero": d_omega.is_zero(),
                      "momenta": momenta})
        if job.get("sizes"):
            built.append((omega, el, jet))
    out = {"digest": digest.hexdigest(), "gates": gates}
    if job.get("sizes"):
        out["sizes"] = sizes(
            [c for om, _, _ in built for c in om.coeffs.values()],
            [c for _, el, _ in built for c in el.components.values()],
            [c for _, _, jet in built for c in jet.equations.values()])
    return out


def sizes(omega, el, jet_eq):
    """Coefficients, terms (summands of each top-level sum) and nodes (every
    tree node, a repeated subtree counted at each use) of three families."""
    from cartanforge import expr as ex
    out = {}
    for label, exprs in (("omega", omega), ("el", el), ("jet_eq", jet_eq)):
        exprs = list(exprs)
        out[label] = {
            "coeffs": len(exprs),
            "terms": sum(len(e.terms) if isinstance(e, ex.Add)
                         else int(not e.is_zero()) for e in exprs),
            "nodes": sum(_nodes(ex, e) for e in exprs)}
    return out


def _nodes(ex, e):
    count, stack = 0, [e]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, ex.Add):
            stack.extend(node.terms)
        elif isinstance(node, ex.Mul):
            stack.extend(node.factors)
        elif isinstance(node, ex.Pow):
            stack.append(node.base)
        elif isinstance(node, ex.Func):
            stack.append(node.arg)
    return count


if __name__ == "__main__":
    main()
