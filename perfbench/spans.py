"""Span tracing from outside the library.

A `Tracer` replaces each public function of the traced ibmsim modules, in
every module namespace where callers look it up, with a wrapper that records
a span (name, start, end, parent). Spans are aggregated in memory per
(name, parent) as call count, total time and time covered by child spans, so
a span's self time is its duration minus its children's. Hooks attached to a
few spans count work (pairs, draws, bytes) at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

# Modules whose public functions become spans; each is one layer.
LAYER_MODULES = ("configuration", "potentials", "dynamics", "pointprocess", "tagged",
                 "forms", "analysis", "persistence", "pipelines", "cli")

# Methods that callers reach through the class, with their span names.
METHOD_SPANS = {
    ("potentials", "PotentialSpec", "pair_gradient_factor"): "potentials.pair_gradient_factor",
    ("potentials", "PotentialSpec", "phi_gradient"): "potentials.phi_gradient",
    ("pointprocess", "GibbsChain", "step"): "pointprocess.gibbs.step",
}

LARGE_N = 1000  # simulate calls with at least this many particles count as large


class Tracer:
    """In-memory span aggregation; `install` patches, `uninstall` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # frames: [name, child time]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = {}
        self.counts = Counter()

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """Wrapper recording one span per call; `hook(tracer, args, kwargs)`
        may return replacement args and a callback run with (result, self_s)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = None
            if hook is not None:
                args, kwargs, after = hook(self, args, kwargs)
            parent = self.stack[-1] if self.stack else None
            frame = [name, 0.0]
            self.stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self.stack.pop()
                self.record(name, parent[0] if parent else None, duration, frame[1])
                if parent is not None:
                    parent[1] += duration
            if after is not None:
                after(result, duration - frame[1])
            return result

        return traced

    def record(self, name: str, parent: str | None, duration: float, child: float) -> None:
        agg = self.spans.get((name, parent))
        if agg is None:
            agg = self.spans[(name, parent)] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += child

    def calls(self, name: str) -> int:
        return sum(v[0] for (n, _), v in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(v[1] - v[2] for (n, _), v in self.spans.items() if n == name)

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules and the listed
        methods, replacing each wherever an ibmsim module holds it."""
        modules = [importlib.import_module(f"ibmsim.{m}") for m in LAYER_MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(value)] = (value, self.wrap(name, value, HOOKS.get(name)))
        holders = [m for key, m in sys.modules.items()
                   if m is not None and (key == "ibmsim" or key.startswith("ibmsim."))]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for (mod_name, cls_name, meth), name in METHOD_SPANS.items():
            cls = getattr(importlib.import_module(f"ibmsim.{mod_name}"), cls_name)
            self._patch(cls, meth, self.wrap(name, vars(cls)[meth], HOOKS.get(name)))

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# hooks: counts measured at a span boundary
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, key, default=None):
    return args[index] if len(args) > index else kwargs.get(key, default)


def _label_noise(tracer, args, kwargs):
    if _arg(args, kwargs, 4, "round_key", 0) != 0:
        tracer.counts["dynamics.noise_redraws"] += 1
    return args, kwargs, None


def _simulate(tracer, args, kwargs):
    initial, params = _arg(args, kwargs, 0, "initial"), _arg(args, kwargs, 2, "params")
    n = len(initial)
    steps = n * int(round(params.t_end / params.dt))

    def after(traj, self_s):
        c = tracer.counts
        c["dynamics.particle_steps"] += steps
        c["dynamics.step_halvings"] += traj.diagnostics.get("step_halvings", 0)
        c["dynamics.capped_forces"] += traj.diagnostics.get("capped_forces", 0)
        if n >= LARGE_N:
            c["dynamics.simulate_large.particle_steps"] += steps
            c["dynamics.simulate_large.self_s"] += self_s

    return args, kwargs, after


def _pair_gradient_factor(tracer, args, kwargs):
    tracer.counts["potentials.pair_gradient_factor.pairs"] += int(
        getattr(_arg(args, kwargs, 1, "r"), "size", 1))
    return args, kwargs, None


def _gibbs_step(tracer, args, kwargs):
    chain = args[0]
    before = chain.accepted

    def after(_result, _self_s):
        tracer.counts["pointprocess.gibbs.proposals"] += 1
        tracer.counts["pointprocess.gibbs.accepted"] += chain.accepted - before

    return args, kwargs, after


def _palm_condition(tracer, args, kwargs):
    sampler = _arg(args, kwargs, 0, "sampler")

    def counted(draw_seed):
        tracer.counts["pointprocess.palm.draws"] += 1
        return sampler(draw_seed)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, sampler=counted)
    return args, kwargs, None


def _dpp_sample(tracer, args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")

    def after(config, _self_s):
        tracer.counts["pointprocess.dpp.kept"] += len(config)
        tracer.counts["pointprocess.dpp.matrix_eigenvalues"] += spec.n_matrix

    return args, kwargs, after


def _write_trajectory(tracer, args, kwargs):
    path = _arg(args, kwargs, 1, "path")

    def after(_result, _self_s):
        tracer.counts["persistence.write_trajectory.bytes"] += os.path.getsize(path)

    return args, kwargs, after


def _read_trajectory(tracer, args, kwargs):
    tracer.counts["persistence.read_trajectory.bytes"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))
    return args, kwargs, None


HOOKS = {
    "dynamics.label_noise": _label_noise,
    "dynamics.simulate": _simulate,
    "potentials.pair_gradient_factor": _pair_gradient_factor,
    "pointprocess.gibbs.step": _gibbs_step,
    "pointprocess.palm_condition": _palm_condition,
    "pointprocess.sample_dyson_sine": _dpp_sample,
    "pointprocess.sample_ginibre": _dpp_sample,
    "persistence.write_trajectory": _write_trajectory,
    "persistence.read_trajectory": _read_trajectory,
}


# ---------------------------------------------------------------------------
# per-layer metrics from one traced iteration
# ---------------------------------------------------------------------------

CALLS = ("configuration.label", "configuration.kappa", "dynamics.label_noise",
         "dynamics.simulate", "potentials.pair_gradient_factor",
         "pointprocess.palm_condition", "forms.gamma_k")

SELF_TIMES = (
    "configuration.label", "configuration.kappa", "configuration.iota",
    "dynamics.label_noise", "dynamics.simulate",
    "potentials.pair_gradient_factor", "potentials.phi_gradient",
    "pointprocess.gibbs.step", "pointprocess.palm_condition",
    "pointprocess.sample_poisson", "pointprocess.sample_dyson_sine",
    "pointprocess.sample_ginibre",
    "tagged.environment_process", "tagged.environment_via_iota",
    "forms.check_iota_identity", "forms.check_product_formula", "forms.gamma_k",
    "forms.symmetrize", "forms.exchange_energy",
    "analysis.pair_correlation_separation", "analysis.pair_correlation_disk",
    "analysis.msd", "analysis.explosion_scan",
    "persistence.write_trajectory", "persistence.read_trajectory",
    "pipelines.run_pipeline", "cli.main",
)

COUNTS = ("dynamics.particle_steps", "dynamics.noise_redraws", "dynamics.step_halvings",
          "dynamics.capped_forces", "potentials.pair_gradient_factor.pairs",
          "pointprocess.gibbs.proposals", "persistence.write_trajectory.bytes",
          "persistence.read_trajectory.bytes")


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics, by name, from the tracer's aggregates."""
    c = tracer.counts
    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = tracer.calls(name)
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = tracer.self_s(name)
    for name in COUNTS:
        out[name] = c[name]
    out["dynamics.simulate.us_per_particle_step"] = _ratio(
        out["dynamics.simulate.self_s"], c["dynamics.particle_steps"], 1e6)
    out["dynamics.simulate_large.us_per_particle_step"] = _ratio(
        c["dynamics.simulate_large.self_s"], c["dynamics.simulate_large.particle_steps"], 1e6)
    out["pointprocess.gibbs.accept_ratio"] = _ratio(
        c["pointprocess.gibbs.accepted"], c["pointprocess.gibbs.proposals"])
    out["pointprocess.palm.draws_per_accept"] = _ratio(
        c["pointprocess.palm.draws"], out["pointprocess.palm_condition.calls"])
    out["pointprocess.dpp.kept_fraction"] = _ratio(
        c["pointprocess.dpp.kept"], c["pointprocess.dpp.matrix_eigenvalues"])
    return out
