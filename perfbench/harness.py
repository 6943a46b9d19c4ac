"""Workloads, measurement loops and metrics of the density-softmax benchmark.

Every workload runs the same lifecycle, in one process, with one caller and
BLAS pinned to one thread, repeated until the run's seconds are used:

    build_datasets -> train_pipeline -> save_container -> load_container
    -> a serving slice: phase A, a closed loop of batch-1 ``predict`` calls
       from one caller, then phase B, offline batches of 1,000 rows

so every workload reports every metric. The workloads differ in where the
time goes:

* ``train_kde``: the default architecture with a KDE density and 15 ERM
  epochs. ERM dominates ``train_s``; it exercises the autodiff tape at
  BLAS-sized 128x128 matmuls and bypasses the flow.
* ``train_flow``: the same pipeline with a coupling flow and ERM cut to two
  epochs, so ``flow_fit`` dominates. It exercises the tape on 128x16
  matrices, where time goes to Python overhead, and bypasses the KDE.
* ``serve_kde``: a short (3 ERM epochs) KDE model. Each of five rounds sets
  up a fresh model (build, train, save, load, warm up: that is its
  ``setup_s``) and serves it for a tenth of the run per phase, so serving
  dominates the run. Serving never touches the tape or the optimizer.

In the train workloads ``setup_s`` is ``build_datasets``, timed SETUP_CALLS
times before every repetition; the model of the first repetition is saved,
loaded and warmed up once, and after every repetition it serves a short
slice of each phase, so serving samples the whole run.

Repetition i uses experiment seed ``seed + REP_SEED_STRIDE * i``
(repetition 0 uses the workload seed itself); timings are medians over all
repetitions, quality figures are means over the first ``Workload.reps``
repetitions, which always run, so they are a pure function of the seed.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
import traceback
import types
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from density_softmax import autodiff, density, optim, predictor, serialize
from density_softmax import config as ds_config
from density_softmax import metrics as M
from density_softmax import model as ds_model

import blasfloor
import checks
import spans

RESULTS_DIR = Path(__file__).resolve().parent / "results"
REP_SEED_STRIDE = 10007
POOL_TAGS = ("iid_test", "shifted_1", "shifted_2", "shifted_3", "shifted_4",
             "shifted_5", "ood")
SETUP_CALLS = 20  # build_datasets calls timed before each train repetition
WARMUP_CALLS = 50  # batch-1 calls on a freshly loaded model before serving
# End-to-end quality metrics; ece_shifted_5 and flow_final_nll go to the run
# record only: neither can be reported by every workload (ECE at shift 5 is
# ~0.006 on the near-uniform train_flow model and spreads over 30% between
# seeds; a KDE has no training loss).
QUALITY = ("iid_accuracy", "nll_shifted_5", "ood_auroc", "erm_final_loss")
QUALITY_RECORD = ("ece_shifted_5", "flow_final_nll")

_now = time.perf_counter


@dataclass(frozen=True)
class Workload:
    density: str
    erm_epochs: int
    flow_epochs: int
    reps: int  # repetitions that always run; quality is their mean
    slice_share: float  # one serving slice per phase, as a share of the run
    serve: bool = False  # every repetition sets up and serves a fresh model


WORKLOADS = {
    "train_kde": Workload("kde", erm_epochs=15, flow_epochs=0, reps=12,
                          slice_share=1 / 60),
    "train_flow": Workload("flow", erm_epochs=2, flow_epochs=20, reps=10,
                           slice_share=1 / 60),
    "serve_kde": Workload("kde", erm_epochs=3, flow_epochs=0, reps=5,
                          slice_share=1 / 10, serve=True),
}


@dataclass(frozen=True)
class Scale:
    """Problem size: FULL is the benchmark, TINY only checks the harness."""

    overrides: dict = field(default_factory=dict)
    reps: int | None = None  # None: the workload's own count
    b1_min: int = 2000  # >= 10 samples above p99
    batch_rows: int = 1000  # rows per phase-B batch; batch-1 results cross-checked
    batches_min: int = 10
    floor_reps: int = 200


FULL = Scale()
TINY = Scale(
    overrides={"dataset": {"n_per_class": 64, "n_test_per_class": 16, "ood": {"n": 16}},
               "encoder": {"width": 8, "depth": 2},
               "train": {"epochs": 1, "batch_size": 32},
               "density": {"flow": {"epochs": 1, "batch_size": 32,
                                    "hidden_units": 4, "hidden_layers": 1}},
               "reopt": {"epochs": 1, "batch_size": 32}},
    reps=2, b1_min=30, batch_rows=16, batches_min=2, floor_reps=3)


def _merge(doc: dict, overrides: dict) -> dict:
    for key, value in overrides.items():
        if isinstance(value, dict):
            _merge(doc.setdefault(key, {}), value)
        else:
            doc[key] = value
    return doc


def experiment(w: Workload, seed: int, scale: Scale):
    """The workload's config, parsed by the same code the CLI uses."""
    doc = {"seed": seed, "dataset": {"generator": "two_moons"},
           "train": {"epochs": w.erm_epochs, "optimizer": {"lr": 1e-3}},
           "density": {"kind": w.density, "flow": {"epochs": w.flow_epochs}}}
    return ds_config.parse_config(_merge(doc, scale.overrides))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


class Ops:
    """Operations attempted and failed; an operation fails if it raised or
    any check on its output found a problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.update(problems)

    def raised(self, exc: Exception) -> list[str]:
        traceback.print_exception(exc, file=sys.stderr)
        return [f"raised {type(exc).__name__}"]


# -- tracing ----------------------------------------------------------------

def serve_setup(model, path: Path, req: "Requests", scale: Scale, ops: Ops):
    """Save, load and warm up; returns (seconds, loaded model).

    The loaded model must predict bit for bit what the in-memory one does."""
    check = req.pool[req.b1_rows[:scale.batch_rows]]
    t0 = _now()
    serialize.save_container(serialize.density_softmax_container(model), path)
    loaded = serialize.load_container(path)
    for i in range(WARMUP_CALLS):
        loaded.predict(req.pool[i:i + 1])
    theirs = loaded.predict(check)
    dt = _now() - t0
    mine = model.predict(check)
    same = (np.array_equal(mine.probs, theirs.probs)
            and np.array_equal(mine.scaled_likelihood, theirs.scaled_likelihood))
    ops.record([] if same else ["loaded container predicts differently from the model"])
    return dt, loaded


SPANS = [
    (predictor, "train_pipeline"), (predictor, "reoptimize_classifier"),
    (predictor, "erm_train"), (predictor, "init_model"), (predictor, "kde_fit"),
    (predictor, "flow_fit"), (predictor, "compute_scale"), (predictor, "softmax"),
    (predictor.DensitySoftmaxModel, "predict"),
    (ds_model.Encoder, "encode"), (ds_model.Encoder, "encode_tape"),
    (ds_model.Classifier, "logits"),
    (autodiff.Tensor, "backward"), (optim.Adam, "step"),
    (density.FlowModel, "nll_loss"), (density.FlowModel, "log_density"),
    (density.KdeModel, "log_density"), (density.ScaledDensity, "scaled_likelihood"),
    (serialize, "save_container"), (serialize, "load_container"),
    (serialize, "density_softmax_container"),
    (ds_config, "build_datasets"),
    (sys.modules[__name__], "serve_setup"),
]


def span_name(owner, attr: str) -> str:
    return attr if isinstance(owner, types.ModuleType) else f"{owner.__name__}.{attr}"


@contextmanager
def tracing(gc_pauses: bool = True, memory: bool = False):
    tracer = spans.Tracer(gc_pauses=gc_pauses, memory=memory)
    with tracer:
        for owner, attr in SPANS:
            tracer.wrap(owner, attr, span_name(owner, attr))
        yield tracer


def total(items) -> float:
    return sum(s.duration for s in items)


# -- one repetition: set-up and training -------------------------------------


@dataclass
class Rep:
    cfg: object
    sets: dict
    result: object | None
    train_s: float
    setup_s: list[float]
    tracer: spans.Tracer | None = None


def train_rep(cfg, setup_calls: int, ops: Ops) -> Rep:
    """Time `setup_calls` build_datasets calls, then one train_pipeline call.

    Train set-up is sampled before every repetition rather than all at the
    start, so its median spans the whole run like train_s does (50 calls in
    the first 50 ms of a run varied 2x from one run to the next)."""
    setup = []
    for _ in range(setup_calls):
        t0 = _now()
        sets = ds_config.build_datasets(cfg)
        setup.append(_now() - t0)
    gc.collect()
    result, dt = None, float("nan")
    try:
        t0 = _now()
        result = predictor.train_pipeline(sets["train"], cfg.encoder, cfg.train,
                                          cfg.density, cfg.reopt, cfg.k)
        dt = _now() - t0
    except Exception as exc:  # a failed operation; keep measuring
        ops.record(ops.raised(exc))
    return Rep(cfg, sets, result, dt, setup)


def check_rep(rep: Rep, ops: Ops) -> dict:
    """Check one trained model; returns its predictions per evaluation set."""
    r = rep.result
    problems = checks.trace_problems({"erm": r.erm_loss_trace,
                                      "density": r.density_loss_trace,
                                      "reopt": r.reopt_loss_trace})
    problems += checks.train_scale_problems(r.model, rep.sets["train"].features)
    preds = {}
    for tag in POOL_TAGS:
        preds[tag] = r.model.predict(rep.sets[tag].features)
        problems += [f"{tag}: {p}" for p in checks.model_problems(r.model, preds[tag])]
    ops.record(problems)
    return preds


def quality(rep: Rep, preds: dict) -> dict:
    sets, bins = rep.sets, rep.cfg.bins
    iid, s5 = sets["iid_test"], sets["shifted_5"]
    out = {
        "iid_accuracy": M.accuracy(preds["iid_test"].probs, iid.labels),
        "nll_shifted_5": M.negative_log_likelihood(preds["shifted_5"].probs, s5.labels),
        "ood_auroc": M.auroc(-preds["iid_test"].scaled_likelihood,
                             -preds["ood"].scaled_likelihood),
        "erm_final_loss": rep.result.erm_loss_trace[-1],
        "ece_shifted_5": M.expected_calibration_error(preds["shifted_5"].probs,
                                                      s5.labels, bins),
    }
    if rep.result.density_loss_trace:
        out["flow_final_nll"] = rep.result.density_loss_trace[-1]
    return out


# -- serving ------------------------------------------------------------------


@dataclass(frozen=True)
class Requests:
    """The rows served: a pool from every evaluation set of the workload
    seed, and the seeded order of batch-1 rows and batches drawn from it."""

    pool: np.ndarray
    b1_rows: np.ndarray
    batches: np.ndarray


def requests(cfg, seed: int, scale: Scale) -> Requests:
    sets = ds_config.build_datasets(cfg)
    pool = np.vstack([sets[tag].features for tag in POOL_TAGS])
    rng = np.random.default_rng([seed, 1])
    return Requests(pool, rng.integers(0, len(pool), size=200_000),
                    rng.integers(0, len(pool), size=(400, scale.batch_rows)))


@dataclass
class Phases:
    b1_s: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    kept: list = field(default_factory=list)  # (row, probs, s, problems) of the first requests
    requests: int = 0
    batches: int = 0


def _b1_request(model, req: Requests, ph: Phases, keep: bool, ops: Ops) -> None:
    j = int(req.b1_rows[ph.requests % len(req.b1_rows)])
    pred = None
    try:
        t0 = _now()
        pred = model.predict(req.pool[j:j + 1])
        ph.b1_s.append(_now() - t0)
        problems = checks.model_problems(model, pred)
    except Exception as exc:  # a failed operation; keep measuring
        problems = ops.raised(exc)
    if keep and pred is not None:
        ph.kept.append((j, pred.probs[0], pred.scaled_likelihood[0], problems))
    else:
        ops.record(problems)
    ph.requests += 1


def _batch_request(model, req: Requests, ph: Phases, ops: Ops) -> None:
    x = req.pool[req.batches[ph.batches % len(req.batches)]]
    try:
        t0 = _now()
        pred = model.predict(x)
        ph.batch_s.append(_now() - t0)
        ops.record(checks.model_problems(model, pred))
    except Exception as exc:  # a failed operation; keep measuring
        ops.record(ops.raised(exc))
    ph.batches += 1


def serve_slice(model, req: Requests, ph: Phases, slice_s: float, keep: bool,
                scale: Scale, ops: Ops) -> None:
    """Phase A for slice_s seconds (one caller, batch-1 requests back to
    back), then phase B for slice_s seconds (offline batches); at least one
    call each. When `keep`, the first batch_rows batch-1 results are kept
    for the cross-check, however long that takes. Each output is checked
    outside the timed call."""
    until = _now() + slice_s
    while True:
        _b1_request(model, req, ph, keep and ph.requests < scale.batch_rows, ops)
        if _now() >= until and (not keep or ph.requests >= scale.batch_rows):
            break
    until = _now() + slice_s
    while True:
        _batch_request(model, req, ph, ops)
        if _now() >= until:
            break


def cross_check(model, req: Requests, ph: Phases, ops: Ops):
    """Each kept batch-1 prediction must match the same row predicted in a
    batch. Returns the batched prediction, the kept batch-1 probs and the
    largest relative difference of s between the two (for the record: s
    inherits the absolute rounding of log p, which reaches ~1e-12 when
    |log p| is in the hundreds)."""
    rows = np.array([k[0] for k in ph.kept])
    pred = model.predict(req.pool[rows])
    probs = np.array([k[1] for k in ph.kept])
    s = np.array([k[2] for k in ph.kept])
    bad = checks.batch_mismatch_rows(probs, pred.probs)
    for (_, _, _, problems), mismatch in zip(ph.kept, bad):
        ops.record(problems + (["batch-1 differs from batched prediction"] if mismatch else []))
    s_rel = float(np.max(np.abs(s - pred.scaled_likelihood) / pred.scaled_likelihood))
    return pred, probs, s_rel


def serve_figures(ph: Phases, scale: Scale) -> dict:
    """Batch-1 latency and batch throughput of the serving phases.

    The end-to-end figures are the mean batch-1 latency (with one caller in
    a closed loop, the inverse of its request rate) and rows served per
    second of batch time. On a shared host, latency switches between a fast
    and a slow level from one second to the next; the median then jumps to
    whichever level held for most of a run (IQR/median 0.21 and 0.32 over
    ten seeds of train_flow), while the mean moves with the share of time
    spent at each level."""
    b1 = np.array(ph.b1_s)
    p99 = float(np.percentile(b1, 99))
    return {"predict_b1_mean_ms": float(np.mean(b1)) * 1e3,
            "predict_b1_p50_ms": float(np.median(b1)) * 1e3,
            "predict_b1_p99_ms": p99 * 1e3,
            "predict_b1000_rows_per_s": scale.batch_rows * len(ph.batch_s) / sum(ph.batch_s),
            "b1_samples": len(b1), "b1_samples_above_p99": int((b1 > p99).sum()),
            "batches": len(ph.batch_s)}


# -- one pass: repetitions until the budget is used -----------------------------


@dataclass
class Pass:
    reps: list[Rep]
    phases: Phases
    setup_s: list[float]
    first_served: object  # the loaded model whose batch-1 results were kept
    peak_rss_mb: float
    container_mb: float

    @property
    def done(self) -> list[Rep]:
        return [r for r in self.reps if r.result is not None]


def measure(w: Workload, seed: int, scale: Scale, req: Requests, path: Path,
            first: int, budget: float, min_reps: int, ops: Ops,
            trace: bool = False) -> Pass:
    """Repetitions (set-up, training, serving slices) until `budget` seconds
    have passed and at least `min_reps` ran; each repetition gets its own
    tracer when `trace`."""
    reps, ph, setups = [], Phases(), []
    served = first_served = None
    slice_s = budget * w.slice_share
    start = _now()
    while len(reps) < min_reps or _now() - start < budget:
        cfg = experiment(w, seed + REP_SEED_STRIDE * (first + len(reps)), scale)
        with (tracing() if trace else nullcontext()) as tracer:
            rep = train_rep(cfg, 1 if w.serve else SETUP_CALLS, ops)
            rep.tracer = tracer
            if rep.result is not None and (w.serve or served is None):
                dt, served = serve_setup(rep.result.model, path, req, scale, ops)
                if first_served is None:
                    first_served = served
                if w.serve:
                    rep.setup_s = [rep.setup_s[0] + rep.train_s + dt]
            if served is not None:
                serve_slice(served, req, ph, slice_s, served is first_served, scale, ops)
        reps.append(rep)
        setups += rep.setup_s
    if served is None:
        raise RuntimeError("every train_pipeline call failed")
    while ph.requests < scale.b1_min:
        _b1_request(served, req, ph, False, ops)
    while ph.batches < scale.batches_min:
        _batch_request(served, req, ph, ops)
    return Pass(reps, ph, setups, first_served, peak_rss_mb(), path.stat().st_size / 1e6)


def end_to_end(p: Pass, scale: Scale) -> dict:
    figures = serve_figures(p.phases, scale)
    return {"setup_s": median(p.setup_s),
            "train_s": median(r.train_s for r in p.done),
            "predict_b1_mean_ms": figures["predict_b1_mean_ms"],
            "predict_b1000_rows_per_s": figures["predict_b1000_rows_per_s"],
            "peak_rss_mb": p.peak_rss_mb}


# -- per-layer figures ----------------------------------------------------------


def train_layers(tracer: spans.Tracer) -> dict:
    """Per-layer figures of one traced train_pipeline call."""
    pipe = tracer.select("train_pipeline")[0]
    gc_s, gc_n = tracer.gc_within(pipe)
    log_density = (tracer.select("KdeModel.log_density", under="train_pipeline")
                   + tracer.select("FlowModel.log_density", under="train_pipeline"))
    out = {
        "runtime.gc_pause_ms": gc_s * 1e3,
        "runtime.gc_collections": gc_n,
        "predictor.pipeline_self_s": pipe.self_time,
        "predictor.reopt_s": total(tracer.select("reoptimize_classifier")),
        "density.fit_ms": total(tracer.select("kde_fit") + tracer.select("flow_fit")) * 1e3,
        "density.compute_scale_ms": total(tracer.select("compute_scale")) * 1e3,
        "density.log_density_ms_per_1k": (total(log_density)
                                          / sum(s.rows for s in log_density) * 1e6),
    }
    for stage, layer, prefix, forward in (
            ("erm_train", "model", "erm", "Encoder.encode_tape"),
            ("flow_fit", "density", "flow", "FlowModel.nll_loss")):
        stage_spans = tracer.select(stage)
        steps = len(tracer.select("Adam.step", under=stage))
        if not stage_spans or not steps:
            continue
        out[f"{layer}.{prefix}_step_ms"] = total(stage_spans) / steps * 1e3
        out[f"{layer}.{prefix}_forward_ms"] = (
            total(tracer.select(forward, under=stage)) / steps * 1e3)
        out[f"autodiff.{prefix}_backward_ms"] = (
            total(tracer.select("Tensor.backward", under=stage)) / steps * 1e3)
        out[f"optim.{prefix}_step_ms"] = (
            total(tracer.select("Adam.step", under=stage)) / steps * 1e3)
    return out


def serve_layers(tracer: spans.Tracer, batch: int) -> dict:
    """Per-layer figures of the traced serving calls (set-up excluded)."""
    out = {}
    for rows, tag, unit in ((1, "b1", 1e6), (batch, "b1000", 1e3)):
        calls = [p for p in tracer.select("DensitySoftmaxModel.predict", rows=rows)
                 if not tracer.has_ancestor(p, "serve_setup")]
        if not calls:
            continue
        unit_name = "us" if rows == 1 else "ms"

        def per_call(*names):
            return median(sum(total(tracer.children(p, n)) for n in names)
                          for p in calls) * unit

        out[f"model.encode_{tag}_{unit_name}"] = per_call("Encoder.encode")
        out[f"density.{tag}_{unit_name}"] = per_call("ScaledDensity.scaled_likelihood")
        out[f"predictor.head_{tag}_{unit_name}"] = per_call("Classifier.logits", "softmax")
        if rows == 1:
            out["predictor.predict_b1_self_us"] = median(p.self_time for p in calls) * 1e6
    predicts = tracer.select("DensitySoftmaxModel.predict")
    if predicts:
        encoded = tracer.select("Encoder.encode", under="DensitySoftmaxModel.predict")
        out["model.encode_rows"] = (sum(s.rows for s in encoded)
                                    / sum(p.rows for p in predicts))
    for span, key in (("save_container", "serialize.save_ms"),
                      ("load_container", "serialize.load_ms"),
                      ("build_datasets", "data.build_datasets_ms")):
        found = tracer.select(span)
        if found:
            out[key] = median(s.duration for s in found) * 1e3
    return out


def rep_layers(rep: Rep, scale: Scale) -> dict:
    return {**train_layers(rep.tracer), **serve_layers(rep.tracer, scale.batch_rows)}


def medians(dicts: list[dict]) -> dict:
    """Median of each key over the dicts that have it."""
    keys = dict.fromkeys(k for d in dicts for k in d)
    return {k: median(d[k] for d in dicts if k in d) for k in keys}


def step_floors(rep: Rep, scale: Scale) -> dict:
    """BLAS floor and GFLOP per step of ERM and of the flow."""
    cfg, model = rep.cfg, rep.result.model
    n = rep.sets["train"].n
    erm_shapes = [w.data.shape for w in model.encoder.net.weight_tensors()]
    erm_shapes.append(model.classifier.theta.data.shape)
    flow_shapes = [w.data.shape for w in model.density.inner.weight_tensors()]
    return {"erm": blasfloor.step_floor(erm_shapes, n, cfg.train.batch_size,
                                        scale.floor_reps),
            "flow": blasfloor.step_floor(flow_shapes, n, cfg.density.flow.batch_size,
                                         scale.floor_reps)}


def stage_shares(rep: Rep) -> dict:
    """Share of train_s taken by ERM and flow_fit, from one traced call."""
    pipe = rep.tracer.select("train_pipeline")[0]
    return {f"{stage}_share": total(rep.tracer.select(stage)) / pipe.duration
            for stage in ("erm_train", "flow_fit")}


def per_layer(w: Workload, seed: int, scale: Scale, req: Requests, untraced: Pass,
              traced: Pass, ops: Ops, details: dict) -> dict:
    """Layer figures of the traced pass, completed by two short probes.

    The probe is a 2-epoch ERM + 2-epoch flow pipeline: traced, it gives the
    flow step figures of workloads whose own pipeline fits no flow; traced
    with tracemalloc (plus three phase-B batches), it gives the allocation
    peaks, and its ERM step against the plain traced probe's gives the
    tracemalloc overhead."""
    out = medians([rep_layers(r, scale) for r in traced.done])
    probe_cfg = experiment(replace(w, density="flow", erm_epochs=min(w.erm_epochs, 2),
                                   flow_epochs=2), seed, scale)
    with tracing() as tracer:
        probe = train_rep(probe_cfg, 1, ops)
    probe.tracer = tracer
    check_rep(probe, ops)
    probe_layers = train_layers(tracer)
    for key, value in probe_layers.items():
        out.setdefault(key, value)

    mem_ph = Phases()
    with tracing(gc_pauses=False, memory=True) as mem_tracer:
        train_rep(probe_cfg, 1, ops)
        for _ in range(3):
            _batch_request(traced.first_served, req, mem_ph, ops)
    for stage, layer, prefix in (("erm_train", "model", "erm"),
                                 ("flow_fit", "density", "flow")):
        out[f"{layer}.{prefix}_alloc_peak_mb"] = (
            mem_tracer.select(stage)[0].alloc_peak / 2**20)
    out["density.b1000_alloc_peak_mb"] = max(
        s.alloc_peak for s in mem_tracer.select("ScaledDensity.scaled_likelihood",
                                                rows=scale.batch_rows)) / 2**20
    out["trace.memtrace_overhead_pct"] = (train_layers(mem_tracer)["model.erm_step_ms"]
                                          / probe_layers["model.erm_step_ms"] - 1) * 100

    floors = step_floors(probe, scale)
    for prefix, layer in (("erm", "model"), ("flow", "density")):
        out[f"{layer}.{prefix}_blas_floor_ms"] = floors[prefix]["floor_ms"]
        out[f"{layer}.{prefix}_over_floor"] = (out[f"{layer}.{prefix}_step_ms"]
                                               / floors[prefix]["floor_ms"])
    out["model.erm_gflop"] = floors["erm"]["gflop"]
    out["serialize.container_mb"] = untraced.container_mb
    out["density.floor_frac"] = details["floor_frac"]

    figures, traced_fig = details["phases"], serve_figures(traced.phases, scale)
    out["predict_b1_p50_ms"] = figures["predict_b1_p50_ms"]
    out["predict_b1_p99_ms"] = figures["predict_b1_p99_ms"]
    e2e = details["untraced"]
    out["trace.overhead_setup_s"] = median(traced.setup_s) - e2e["setup_s"]
    out["trace.overhead_train_s"] = median(r.train_s for r in traced.done) - e2e["train_s"]
    for key in ("predict_b1_mean_ms", "predict_b1_p99_ms", "predict_b1000_rows_per_s"):
        out[f"trace.overhead_{key}"] = traced_fig[key] - figures[key]
    out["trace.overhead_peak_rss_mb"] = traced.peak_rss_mb - untraced.peak_rss_mb
    details.update(floors=floors, traced_phases=traced_fig,
                   **stage_shares(traced.done[0]))
    return out


# -- a run ------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> dict:
    """One run: end-to-end metrics, or with `trace` per-layer metrics from
    an untraced pass, a traced pass of the same length and the probes."""
    w = WORKLOADS[workload]
    ops = Ops()
    min_reps = scale.reps or w.reps
    req = requests(experiment(w, seed, scale), seed, scale)
    budget = seconds * (0.42 if trace else 1.0)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"container-{os.getpid()}.json"
    try:
        p = measure(w, seed, scale, req, path, 0, budget,
                    2 if trace else min_reps, ops)
        if trace:
            traced = measure(w, seed, scale, req, path, len(p.reps), budget, 2, ops,
                             trace=True)
    finally:
        path.unlink(missing_ok=True)

    e2e = end_to_end(p, scale)
    done = p.done
    preds = [check_rep(r, ops) for r in done]
    batched, kept_probs, s_rel = cross_check(p.first_served, req, p.phases, ops)
    first = done[0].result
    details = {
        "reps": len(p.reps), "train_s_all": [r.train_s for r in p.reps],
        "setup_s_all": p.setup_s, "phases": serve_figures(p.phases, scale),
        "floor_frac": float(np.mean(batched.scaled_likelihood
                                    <= density.LIKELIHOOD_FLOOR)),
        "tied_rows": checks.tied_rows(batched.probs),
        "b1_vs_batch_max_s_rel_diff": s_rel,
        "digests": {"erm": checks.digest(first.erm_loss_trace),
                    "flow": checks.digest(first.density_loss_trace),
                    "reopt": checks.digest(first.reopt_loss_trace),
                    "served_probs": checks.digest(kept_probs, batched.probs)},
    }
    per_rep = [quality(r, q) for r, q in zip(done[:min_reps], preds[:min_reps])]
    details["quality_reps"] = per_rep
    for key in QUALITY + QUALITY_RECORD:
        values = [q[key] for q in per_rep if key in q]
        if values:
            (e2e if key in QUALITY else details)[key] = float(np.mean(values))
    if not trace:
        return {"metrics": e2e, "ops": ops, "details": details}

    for r in traced.done:
        check_rep(r, ops)
    cross_check(traced.first_served, req, traced.phases, ops)
    details["untraced"] = e2e
    out = per_layer(w, seed, scale, req, p, traced, ops, details)
    return {"metrics": out, "ops": ops, "details": details}
