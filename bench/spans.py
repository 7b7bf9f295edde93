"""Spans around calls into cartanforge's public functions, kept in memory.

``Tracer.install`` replaces each function listed in ``TARGETS`` by a timing
wrapper, in every ``cartanforge`` module namespace that binds it (so
``from .forms import exterior_d`` call sites are covered too) and on the
classes for methods.  The program's code is not changed.

Each span is aggregated in memory under (item, function, parent function):
call count, inclusive seconds (outermost calls only, so recursion is not
counted twice) and self seconds (duration minus the time of child spans).
``item`` is a label the caller sets, so set-up, timed work and the
benchmark's own checks are kept apart.
"""

import sys
import time

# (module, attribute) for functions, (module, class, method) for methods;
# the span name is "module.function", methods use the short names the
# benchmark reports ("lagrangian.solve", "canonical.contract_with_dL").
TARGETS = [
    ("expr", "add"), ("expr", "mul"), ("expr", "pow_"),
    ("expr", "differentiate"), ("expr", "substitute"),
    ("expr", "evaluate_numeric"), ("expr", "parse"), ("expr", "to_text"),
    ("forms", "wedge"), ("forms", "exterior_d"), ("forms", "interior"),
    ("forms", "pullback"),
    ("canonical", "VerticalEndomorphism", "contract_with_dL"),
    ("canonical", "contact_reduce"), ("canonical", "prolong_diffeo"),
    ("connection", "curvature"),
    ("lagrangian", "energy_density"), ("lagrangian", "cartan_forms"),
    ("lagrangian", "derive_el"), ("lagrangian", "jetfield_el"),
    ("lagrangian", "legendre_difference"),
    ("lagrangian", "ELJetProblem", "solve"),
    ("noether", "total_variation"), ("noether", "noether_current"),
    ("noether", "check_conservation"),
    ("harness", "run_identity_catalog"), ("harness", "numeric_check"),
    ("harness", "draw_point"),
    ("problem", "Guard", "holds"),
    ("problem", "parse_problem"),
]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.item = ""
        self.stats = {}     # (item, name, parent) -> [calls, incl_s, self_s]
        self._stack = []    # open spans: [name, seconds covered by children]
        self._depth = {}    # name -> open spans of that name

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "cartanforge" or n.startswith("cartanforge.")]
        for target in TARGETS:
            module = sys.modules["cartanforge." + target[0]]
            if len(target) == 3:
                cls = getattr(module, target[1])
                orig = getattr(cls, target[2])
                setattr(cls, target[2],
                        self.wrap(f"{target[0]}.{target[2]}", orig))
                continue
            orig = getattr(module, target[1])
            wrapper = self.wrap(f"{target[0]}.{target[1]}", orig)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def wrap(self, name, fn):
        stats, stack, depth = self.stats, self._stack, self._depth
        clock = self.clock
        tracer = self

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += dur
                key = (tracer.item, name, parent)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                if not depth[name]:
                    rec[1] += dur
                rec[2] += dur - frame[1]

        return span

    def totals(self, item):
        """name -> [calls, inclusive s, self s] over all parents."""
        out = {}
        for (it, name, _), rec in self.stats.items():
            if it == item:
                acc = out.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
        return out

    def by_parent(self, item):
        """[name, parent, calls, inclusive s, self s] rows for one item."""
        return sorted([name, parent, *rec]
                      for (it, name, parent), rec in self.stats.items()
                      if it == item)
