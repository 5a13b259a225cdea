"""Span tracing of sphwass from the outside, and the per-layer metrics.

The package binds imported names at import time (``experiments`` holds its
own reference to ``integrator.run``, ``integrator`` its own to
``sph.compute_density``), so each target is wrapped on the module or class
where its caller looks it up.  Nothing under ``src/`` changes; the
original attributes are put back when the tracer closes.
"""

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np


def _n_particles(args):
    return args[0].n


def _elements(args):
    return int(np.size(args[1]))  # args[0] is the kernel or interaction


def _lp_entries(args):
    return args[0].n * args[1].n


# (owner, attribute, span name, count of work done per call).  Only the 2D
# kernel is listed: no workload runs the 1D family.
TARGETS = (
    ("sphwass.config", "load_config", "config.load", None),
    ("sphwass.config", "plan_from_config", "config.plan", None),
    ("sphwass.experiments", "run_convergence_study", "experiments.study", None),
    ("sphwass.experiments", "emit_report", "experiments.report", None),
    ("sphwass.experiments", "preset", "initial", None),
    ("sphwass.experiments", "equipartition", "initial", None),
    ("sphwass.experiments", "sample_iid", "initial", None),
    ("sphwass.experiments", "select_h", "initial", None),
    ("sphwass.experiments", "run", "integrator.run", None),
    ("sphwass.experiments", "compute_density", "sph.density", _n_particles),
    ("sphwass.integrator", "compute_density", "sph.density", _n_particles),
    ("sphwass.integrator", "compute_accelerations", "sph.accel", _n_particles),
    ("sphwass.sph", "f_theta", "forces.f_theta", None),
    ("sphwass.kernels:WendlandCubic2D", "value_from_sq", "kernels.value", _elements),
    ("sphwass.kernels:WendlandCubic2D", "grad_scale_from_sq", "kernels.grad", _elements),
    ("sphwass.forces:MorseInteraction", "force_scale", "forces.morse", _elements),
    ("sphwass.transport", "wasserstein1", "transport.w1", _lp_entries),
    ("sphwass.transport", "w1_lp", "transport.lp", _lp_entries),
    ("sphwass.transport", "linprog", "transport.linprog", None),
)


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records one span per call: name, start, end, parent span, count.

    Spans stay in memory as parallel lists until :meth:`dump`.  Calls that
    return an LP plan are kept in ``lp_solves`` as ``(mu, nu, plan)`` so the
    plans can be certified after the timed study.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names, self.starts, self.ends, self.parents, self.counts = [], [], [], [], []
        self.lp_solves = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        try:
            for owner, attr, name, count in self.targets:
                obj = _resolve(owner)
                # the class __dict__ entry, not the bound function getattr gives
                original = obj.__dict__[attr]
                self._saved.append((obj, attr, original))
                setattr(obj, attr, self._wrap(original, name, count))
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Put every wrapped attribute back, last wrapped first."""
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def _open(self, name, count):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counts.append(count)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        keep_plan = name == "transport.lp"

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, count(args) if count else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep_plan:
                self.lp_solves.append((args[0], args[1], result[1]))
            return result

        return traced

    @contextmanager
    def span(self, name, count=0):
        """A span opened by the benchmark itself, e.g. the root of a study."""
        idx = self._open(name, count)
        try:
            yield idx
        finally:
            self._close(idx)

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents, self.counts))

    def dump(self, path):
        """Write the spans as JSON rows ``[name, start, end, parent, count]``."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans()}, fh)


def self_times(spans):
    """Duration minus the time covered by direct children, per span.

    Calls run on one thread, so the children of a span do not overlap and
    the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, root):
    """Per-layer metrics of the spans under ``root`` (one traced study).

    ``*_s`` are self times except ``integrator.run_s``, ``transport.w1_s``,
    ``transport.lp_s``, ``transport.linprog_s``, ``experiments.report_s``,
    ``experiments.report_density_s``, ``initial.s`` and ``config.load_s``,
    which include their children.  ``sph.pairs`` counts the pair entries the
    kernel and interaction evaluated inside each sph call; a call that
    evaluated fewer than n^2 of them pruned pairs with cell lists.
    """
    own = self_times(spans)
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    selected = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in selected:
            selected.add(i)

    self_s, incl_s, calls, counts = (defaultdict(float), defaultdict(float),
                                     defaultdict(int), defaultdict(int))
    child_counts = defaultdict(int)  # (parent, child name) -> summed count
    accel_children = defaultdict(int)  # integrator.run span -> sph.accel calls
    for i in sorted(selected):
        name, _, _, parent, count = spans[i]
        self_s[name] += own[i]
        calls[name] += 1
        counts[name] += count
        pname = names[parent] if parent >= 0 else None
        if pname != name:  # nested calls of one name count once
            incl_s[name] += dur[i]
        child_counts[parent, name] += count
        if name == "sph.accel" and pname == "integrator.run":
            accel_children[parent] += 1
        if name == "sph.density" and pname == "experiments.report":
            incl_s["experiments.report_density"] += dur[i]

    sph_spans = [i for i in selected if names[i] in ("sph.density", "sph.accel")]
    pairs, pruned = 0, 0
    for i in sph_spans:
        done = max(child_counts[i, leaf]
                   for leaf in ("kernels.value", "kernels.grad", "forces.morse"))
        pairs += done
        pruned += 0 < done < spans[i][4] ** 2
    steps = sum(n - 1 for n in accel_children.values())  # run() evaluates once before step 1
    elements = counts["kernels.value"] + counts["kernels.grad"]
    kernel_s = self_s["kernels.value"] + self_s["kernels.grad"]

    return {
        "sph.density_s": self_s["sph.density"],
        "sph.density_calls": calls["sph.density"],
        "sph.accel_s": self_s["sph.accel"],
        "sph.accel_calls": calls["sph.accel"],
        "sph.pairs": pairs,
        "sph.ns_per_pair": _ratio(
            incl_s["sph.density"] + incl_s["sph.accel"], pairs, 1e9),
        "sph.cell_calls_frac": _ratio(pruned, len(sph_spans)),
        "kernels.value_s": self_s["kernels.value"],
        "kernels.value_calls": calls["kernels.value"],
        "kernels.grad_s": self_s["kernels.grad"],
        "kernels.elements": elements,
        "kernels.ns_per_element": _ratio(kernel_s, elements, 1e9),
        "forces.f_theta_s": self_s["forces.f_theta"],
        "forces.morse_s": self_s["forces.morse"],
        "forces.morse_elements": counts["forces.morse"],
        "integrator.run_s": incl_s["integrator.run"],
        "integrator.steps": steps,
        "integrator.self_s": self_s["integrator.run"],
        "integrator.us_per_step_self": _ratio(self_s["integrator.run"], steps, 1e6),
        "transport.w1_s": incl_s["transport.w1"],
        "transport.w1_calls": calls["transport.w1"],
        "transport.lp_s": incl_s["transport.lp"],
        "transport.lp_calls": calls["transport.lp"],
        "transport.linprog_s": incl_s["transport.linprog"],
        "transport.lp_self_s": self_s["transport.lp"],
        "transport.lp_entries": counts["transport.lp"],
        "experiments.study_self_s": self_s["experiments.study"],
        "experiments.report_s": incl_s["experiments.report"],
        "experiments.report_density_s": incl_s["experiments.report_density"],
        "initial.s": incl_s["initial"],
        "config.load_s": incl_s["config.load"],
    }


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0
