"""In-memory spans around forgesim's public functions, and the per-layer
metrics computed from them.

The tracer wraps every public function of each layer module and rebinds the
wrapper at every name the original is bound under in the forgesim package
(``cli.parse_events`` as well as ``events.parse_events``), so calls through
any import path are recorded. Functions that run once per element (one
arrival, one input row, one table cell) are left unwrapped: a span per
element would cost more than the work it times and hold millions of spans in
memory. Their time shows in the self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from types import ModuleType

PACKAGE = "forgesim"

LAYERS = ("cli", "simulate", "master", "yule", "gof", "em",
          "events", "snapshots", "estimators", "report")

PER_ELEMENT = {"simulate.step", "events.month_index", "events.month_label",
               "report.format_value"}


# The histograms a bootstrap runs on, each tagged on its gof operation: a
# heavy-tailed null (Yule, n=5000), a light-tailed alternative (geometric,
# n=5000), one large null sample (Yule, n=1e5) and a forge-log month. The
# MLE, sampling and replica rates are also reported per sample, so a change
# that speeds up one at another's cost shows.
SAMPLES = ("null", "alternative", "large", "month")

# Per-layer metrics and their units, in the order they are reported.
LAYER_UNITS = {
    "setup.modules_loaded": "count",
    "cli.self_s": "s",
    "simulate.arrivals_per_s": "1/s",
    "simulate.nonlinear_arrivals_per_s": "1/s",
    "simulate.replicate_self_s": "s",
    "master.steps_per_s": "1/s",
    "yule.mle_calls": "count",
    "yule.mle_s_per_call": "s",
    "yule.sample_draws_per_s": "1/s",
    "yule.cdf_s": "s",
    "gof.replicas_per_s": "1/s",
    "gof.ks_s_per_call": "s",
    "gof.bootstrap_self_s": "s",
    "gof.failed_replicas": "count",
    **{f"{metric}.{sample}": unit
       for sample in SAMPLES
       for metric, unit in (("yule.mle_s_per_call", "s"), ("yule.sample_draws_per_s", "1/s"),
                            ("gof.replicas_per_s", "1/s"))},
    "em.iterations": "count",
    "em.s_per_iteration": "s",
    "events.parse_rows_per_s": "1/s",
    "snapshots.snapshot_calls": "count",
    "snapshots.months_per_s": "1/s",
    "snapshots.summarize_s": "s",
    "snapshots.distributions_s": "s",
    "snapshots.entry_exit_s": "s",
    "estimators.classify_s": "s",
    "estimators.collab_counts_self_s": "s",
    "estimators.entry_rates_s": "s",
    "report.rows_written": "count",
    "report.write_rows_per_s": "1/s",
    "report.digest_mib_per_s": "MiB/s",
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows_in_table(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#")) - 1


# What each span records about its work, from the call's arguments and result.
NOTES = {
    "simulate.run": lambda a, k, r: {"steps": _arg(a, k, 0, "params").n_steps,
                                     "alpha": _arg(a, k, 0, "params").alpha},
    "simulate.replicate": lambda a, k, r: {"alpha": _arg(a, k, 0, "params").alpha},
    "master.iterate_master": lambda a, k, r: {"steps": _arg(a, k, 1, "n_max_steps") - 1},
    "yule.sample": lambda a, k, r: {"draws": len(r)},
    "gof.bootstrap_pvalue": lambda a, k, r: {"replicas": r.n_bootstrap, "failed": r.n_failed},
    "em.em_fit": lambda a, k, r: {"iterations": r.iterations},
    "events.parse_events": lambda a, k, r: {"rows": len(r.log) + len(r.errors) + len(r.duplicates)},
    # rows are counted from the file after the round, not inside the caller's span
    "report.write_table": lambda a, k, r: {"path": str(r)},
    "report.sha256_file": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
}


class Tracer:
    """Records one span per call: [name, start, end, parent index, op, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap the layers' public functions at every binding; return their names."""
        modules = [m for n, m in sys.modules.items()
                   if isinstance(m, ModuleType) and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            if layer == "cli":
                public = [n for n in vars(module) if n == "main" or n.startswith("cmd_")]
            else:
                public = list(getattr(module, "__all__", ()))
            for attr in public:
                fn = getattr(module, attr, None)
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and name not in PER_ELEMENT):
                    originals[id(fn)] = (name, fn)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    setattr(module, attr, wrappers[id(value)])
        return sorted(name for name, _ in originals.values())


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list], modules_loaded: int,
                  op_samples: list[str | None]) -> dict[str, float]:
    """Per-layer metrics of one traced round; a layer the round never calls reads 0.

    op_samples[k] names the SAMPLES entry that operation k bootstraps, or is
    None; the per-sample metrics count only the spans of those operations.
    """
    own = self_times(spans)

    def pick(name, where=lambda note: True, sample=None):
        return [i for i, s in enumerate(spans) if s[0] == name and where(s[5] or {})
                and (sample is None or (s[4] is not None and op_samples[s[4]] == sample))]

    def busy(idx):
        return float(sum(spans[i][2] - spans[i][1] for i in idx))

    def noted(idx, key):
        return sum(spans[i][5][key] for i in idx)

    def self_of(idx):
        return float(sum(own[i] for i in idx))

    linear = pick("simulate.run", lambda n: n["alpha"] == 1.0)
    nonlinear = pick("simulate.run", lambda n: n["alpha"] != 1.0)
    mle = pick("yule.fit_rho_weighted")
    boot = pick("gof.bootstrap_pvalue")
    ks = pick("gof.ks_statistic")
    em = pick("em.em_fit")
    snaps = pick("snapshots.snapshot_at")
    writes = pick("report.write_table")
    digests = pick("report.sha256_file")
    rows = sum(_rows_in_table(spans[i][5]["path"]) for i in writes)
    per_sample = {}
    for sample in SAMPLES:
        fits = pick("yule.fit_rho_weighted", sample=sample)
        draws = pick("yule.sample", sample=sample)
        boots = pick("gof.bootstrap_pvalue", sample=sample)
        per_sample[f"yule.mle_s_per_call.{sample}"] = _ratio(busy(fits), len(fits))
        per_sample[f"yule.sample_draws_per_s.{sample}"] = _ratio(noted(draws, "draws"), busy(draws))
        per_sample[f"gof.replicas_per_s.{sample}"] = _ratio(noted(boots, "replicas"), busy(boots))
    return {
        "setup.modules_loaded": float(modules_loaded),
        "cli.self_s": self_of([i for i, s in enumerate(spans) if s[0].startswith("cli.")]),
        "simulate.arrivals_per_s": _ratio(noted(linear, "steps"), busy(linear)),
        "simulate.nonlinear_arrivals_per_s": _ratio(noted(nonlinear, "steps"), busy(nonlinear)),
        "simulate.replicate_self_s": self_of(pick("simulate.replicate", lambda n: n["alpha"] == 1.0)),
        "master.steps_per_s": _ratio(noted(pick("master.iterate_master"), "steps"),
                                     busy(pick("master.iterate_master"))),
        "yule.mle_calls": float(len(mle)),
        "yule.mle_s_per_call": _ratio(busy(mle), len(mle)),
        "yule.sample_draws_per_s": _ratio(noted(pick("yule.sample"), "draws"), busy(pick("yule.sample"))),
        "yule.cdf_s": busy(pick("yule.cdf")),
        "gof.replicas_per_s": _ratio(noted(boot, "replicas"), busy(boot)),
        "gof.ks_s_per_call": _ratio(busy(ks), len(ks)),
        "gof.bootstrap_self_s": self_of(boot),
        "gof.failed_replicas": float(noted(boot, "failed")),
        **per_sample,
        "em.iterations": float(noted(em, "iterations")),
        "em.s_per_iteration": _ratio(busy(em), noted(em, "iterations")),
        "events.parse_rows_per_s": _ratio(noted(pick("events.parse_events"), "rows"),
                                          busy(pick("events.parse_events"))),
        "snapshots.snapshot_calls": float(len(snaps)),
        "snapshots.months_per_s": _ratio(len(snaps), busy(snaps)),
        "snapshots.summarize_s": busy(pick("snapshots.summarize")),
        "snapshots.distributions_s": busy(pick("snapshots.project_size_distribution")
                                          + pick("snapshots.developer_degree_distribution")),
        "snapshots.entry_exit_s": busy(pick("snapshots.entry_exit_counts")),
        "estimators.classify_s": busy(pick("estimators.classify_collaborative")),
        "estimators.collab_counts_self_s": self_of(pick("estimators.collaborative_entry_counts")),
        "estimators.entry_rates_s": busy(pick("estimators.relative_entry_rates")),
        "report.rows_written": float(rows),
        "report.write_rows_per_s": _ratio(rows, busy(writes)),
        "report.digest_mib_per_s": _ratio(noted(digests, "bytes") / 2**20, busy(digests)),
    }
