#!/usr/bin/env python3
"""The hrt benchmark: closed-loop workloads driven through hrt's public API.

Run from the repository root:

    python3 bench/run.py --workload train_default --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

One process at a time generates the load, single-threaded, with every
BLAS/OpenMP thread variable pinned to 1 before numpy is imported.  The seed
drives the generated dataset, the model initialisation and the training order.

``--trace 0`` reports the end-to-end metrics.  A run measures in ``WORKERS``
processes, one after another, each for an equal share of ``--seconds``: on a
shared VM, back-to-back processes running the same code can settle at speeds
far apart.  Each worker sets up ``SETUP_REPS`` times and warms up; then,
until its share of the time is spent, it sets up once more and runs one unit
of work on what it set up; then it sets up ``SETUP_REPS`` times again.  It
checks its outputs and prints its own table; the run pools the workers'
measurements, prints a table of the named metrics with units and sample
counts, and ends with one JSON result as the last line of standard output.

``samples_per_s`` is the workload's throughput over one repeated unit of
work: an epoch (``train_*``), a gzsl eval pass over 240 samples
(``eval_gzsl``) or a ``gen -> train -> eval`` round trip (``cli_roundtrip``).
The unit is cut into pieces at each ``HrtModel.forward`` and
``optimizer_step`` return; on ``cli_roundtrip`` also at each subcommand's
launch, start, import of hrt and exit (the subprocesses stamp their own
times, see ``traced_cli.py``; the clock is ``CLOCK_MONOTONIC``, shared by
all processes).  Pieces of one kind do the same work: a ``sample`` piece is
one sample's forward pass (in training also the previous sample's loss and
backward), a ``step`` piece the last sample's loss and backward and the
optimizer step, and so on (``train_pieces``, ``eval_pieces``,
``cli_pieces``).  Each kind counts at the mean of its fastest
``FASTEST_SHARE`` of the pieces measured in the whole run (at least one),
times the number of pieces of that kind in the unit.  This covers all the
work of the unit and filters out the time other tenants of the host took
from it, which moves the per-second throughput by up to 2x from one second
to the next.  ``setup_s`` is built the same way: the sum over the set-up
steps (generate, write, read, build; on ``eval_gzsl`` also checkpoint save
and load) of each step's fastest time over all workers' set-ups, which are
spread over the run so that they meet the same host as the units do.

Each worker also prints its overall throughput (``*_wall``) and its step,
pass or round-trip latencies (median and the highest percentile with ten
samples beyond it); the run prints the time of each kind of piece in a unit
(``unit.*``) and the median set-up (``setup_s_median``).  These carry no
bound.

``--trace 1`` runs in one process.  It alternates untraced and traced slices
of the same work (an epoch, an eval pass or a round trip), with every hrt
entry point wrapped (see ``hooks.py``), reports the per-layer metrics and the
tracing overhead, checks that tracing changes no output, and writes the spans
to ``.bench_out/``.

``--workload all`` runs every workload in its own process.

Warm-up: a process's first eval pass, and the first epoch of every training
call (each trains a fresh model for ``MIN_EPOCHS`` epochs), are dropped from
the timed metrics (caches, allocator and the interpreter's specialisation
warm up).  Their cost is not added to ``setup_s``: a 200-epoch ``hrt train``
pays it once.  ``cli_roundtrip`` keeps the cold start, because every CLI call
pays it.

Exit code 0 when every output check passes, 1 when one fails (the result is
still printed), 2 when the benchmark cannot run at all (no result printed).
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
clock = time.perf_counter

# Why each workload exists is recorded in BENCHMARK.json.  Overrides are
# config overlays over hrt.config.DEFAULTS, exactly as `hrt --config` takes.
WORKLOADS = {
    "train_default": ("train", {}),
    "eval_gzsl": ("eval", {}),
    "train_wide_grid": ("train", {
        "synthetic": {"r_patches": 36, "d_feat": 128, "samples_per_class": 20},
        "model": {"k_em": 1, "k_td": 3}}),
    "cli_roundtrip": ("cli", {
        "synthetic": {"samples_per_class": 10}, "train": {"epochs": 1}}),
}
SETUP_REPS = 10
# On a shared VM, back-to-back processes running the same code have kept
# speeds up to 1.6x apart for seconds on end, so a run measures in this many
# processes, one after another, and pools their pieces.
WORKERS = 2
# The host switches between a fast speed and one about 1.6x slower (another
# tenant on the same core, presumably), and the slow share of a run varies
# from run to run.  In every run measured, more than this share of the pieces
# ran at the fast speed, so a kind of piece counts at the mean of its fastest
# pieces in this share.
FASTEST_SHARE = 0.01
# each run must end within 180 s
RUN_TIMEOUT_S = 170
# the loss check compares the last epoch with the first; on train_wide_grid
# the second epoch's loss often exceeds the first (RMSprop's running average
# starts at zero), the third's sometimes does too (seed 703), and the fourth's
# was below it on every seed tried
MIN_EPOCHS = 4
SUBPROCESS_TIMEOUT_S = 60
# the draws of hrt.rng.SeededRng that cut the data generation into pieces
RNG_DRAWS = ("SeededRng.normal", "SeededRng.uniform", "SeededRng.integers",
             "SeededRng.permutation", "SeededRng.choice")

END_TO_END = {"setup_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}
# Per-layer metrics come from the traced slices.  "per_sample" is per forward
# pass.  A layer's time is its self time (hooks.py).  tensor.einsum.* covers
# the einsum and matmul ops (both np.einsum kernels): time and GMAC/s are
# forward only, MACs are forward plus the computed backward.  data.*,
# semantics.compact_s and the checkpoint times are per call, from the set-up
# in-process and from the CLI subprocesses on cli_roundtrip.  A layer that a
# workload never runs reads 0.
PER_LAYER = {
    "routing.em.ms_per_sample": "ms",
    "routing.primary.ms_per_sample": "ms",
    "routing.inverted.ms_per_sample": "ms",
    "encoder.attention.ms_per_sample": "ms",
    "decoder.ms_per_sample": "ms",
    "losses.ms_per_sample": "ms",
    "tensor.backward.ms_per_sample": "ms",
    "optim.step_ms": "ms",
    "model.forward.ms_per_sample": "ms",
    "routing.em.forward_share": "ratio",
    "routing.em.step_share": "ratio",
    "tensor.einsum.ms_per_sample": "ms",
    "tensor.einsum.macs_per_sample": "count",
    "tensor.einsum.gmacs_per_s": "GMAC/s",
    "tensor.ops_per_sample": "count",
    "tensor.bytes_out_per_sample": "B",
    "data.generate_s": "s",
    "data.save_s": "s",
    "data.load_s": "s",
    "semantics.compact_s": "s",
    "train.save_checkpoint_ms": "ms",
    "train.load_checkpoint_ms": "ms",
    "data.dir_bytes": "B",
    "train.checkpoint_bytes": "B",
    "cli.gen_s": "s",
    "cli.train_s": "s",
    "cli.eval_s": "s",
    "trace.layer_coverage": "ratio",
    "trace.overhead_share": "ratio",
}
# counts derived from operand and output shapes, not measured
COMPUTED = ("tensor.einsum.macs_per_sample", "tensor.bytes_out_per_sample")
# layers whose self times partition a traced step (trace.layer_coverage)
STEP_LAYERS = ("routing.primary", "routing.em", "routing.inverted",
               "encoder.attention", "decoder", "losses", "tensor.backward",
               "optim")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)] if ordered else 0.0


def tail_percentile(n):
    """Highest of p99/p95/p90/p80 with at least ten samples beyond it."""
    for p in (99, 95, 90, 80):
        if n * (1 - p / 100) >= 10:
            return p
    return None


def fastest_piece_s(seconds):
    """Mean of the fastest ``FASTEST_SHARE`` of ``seconds`` (at least one)."""
    k = max(1, math.ceil(FASTEST_SHARE * len(seconds)))
    return statistics.fmean(heapq.nsmallest(k, seconds))


def fastest_unit_s(pools, unit):
    """Time of one unit of work from repetitions of it.  ``pools[kind]``
    holds the seconds of every piece of that kind measured; pieces of one
    kind do the same work, and a unit holds ``unit[kind]`` of them, each
    counted at ``fastest_piece_s`` of its kind."""
    return sum(n * fastest_piece_s(pools[kind]) for kind, n in unit.items())


def train_pieces(start, forwards, steps, per_epoch):
    """Cut training that began at ``start`` into pieces at each forward's
    and each optimizer step's return.  Returns ``(epoch, kind, seconds)``
    for each piece, where the kind is ``epoch`` (up to an epoch's first
    forward), ``batch`` (from a step to the next minibatch's first forward),
    ``sample`` (the previous sample's loss and backward and this sample's
    forward) or ``step`` (the last sample's loss and backward and the
    optimizer step)."""
    events = sorted([(t, False) for t in forwards] + [(t, True) for t in steps])
    pieces, last, after_step, done = [], start, True, 0
    for t, is_step in events:
        if is_step:
            kind = "step"
        elif not after_step:
            kind = "sample"
        else:
            kind = "batch" if done % per_epoch else "epoch"
        pieces.append((done // per_epoch, kind, t - last))
        done += is_step
        last, after_step = t, is_step
    return pieces


def eval_pieces(start, forwards, end, n_seen):
    """Cut a gzsl ``evaluate`` pass into pieces at each forward's return.
    Returns ``(kind, seconds)`` for each piece, where the kind is ``start``
    (up to the first forward), ``switch`` (scoring test_seen and the first
    forward of test_unseen), ``end`` (scoring test_unseen) or ``sample``
    (one forward)."""
    cuts = [start] + forwards + [end]
    kinds = ["sample"] * (len(cuts) - 1)
    kinds[0], kinds[n_seen], kinds[-1] = "start", "switch", "end"
    return list(zip(kinds, [b - a for a, b in zip(cuts, cuts[1:])]))


def add_unit(run, pieces):
    """Pool the ``(kind, seconds)`` pieces of one unit of work into
    ``run.pools``.  Every unit must hold the same pieces: returns False, and
    pools nothing, for one that does not."""
    unit = dict(collections.Counter(kind for kind, _ in pieces))
    if not pieces or run.unit and unit != run.unit:
        return False
    run.unit = unit
    run.units += 1
    for kind, seconds in pieces:
        run.pools.setdefault(kind, []).append(seconds)
    return True


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def environment(seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "seed": seed, "commit": commit}


class Run:
    """Outcome of one benchmark run: checks, operation counts, metrics."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = \
            workload, seed, seconds, trace
        self.checks: dict[str, tuple[bool, str]] = {}   # name -> ok, detail
        self.attempted = 0
        self.failed = 0
        self.named: list[tuple[str, float, str, str]] = []
        self.metrics: dict[str, float] = {}
        self.setup_times: dict[str, list[float]] = {}   # step -> seconds
        # pools[kind]: seconds of every piece of that kind; unit[kind]: how
        # many pieces of that kind one unit of work holds (fastest_unit_s)
        self.pools: dict[str, list[float]] = {}
        self.unit: dict[str, int] = {}
        self.units = 0
        self.unit_samples = 0
        self.digests: list[str] = []   # outputs that must repeat exactly

    def check(self, name, ok, detail=""):
        """Record a check; one made again keeps its first failure."""
        if self.checks.get(name, (True, ""))[0]:
            self.checks[name] = (bool(ok), detail)

    def report(self, name, value, unit, samples):
        self.named.append((name, value, unit, samples))

    def record_peak_rss(self, children=False):
        """Peak resident memory of this process, or of the largest child
        process waited for."""
        who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
        mb = resource.getrusage(who).ru_maxrss / 1024
        self.metrics["peak_rss_mb"] = mb
        self.report("peak_rss_mb", mb, "MB",
                    "largest CLI process" if children else "this process")

    def operation(self, fn, *args, **kwargs):
        """Run one counted operation; an exception counts as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    @property
    def correct(self):
        return all(ok for ok, _ in self.checks.values())

    def result(self):
        units = PER_LAYER if self.trace else END_TO_END
        return {"correct": self.correct, "attempted": max(1, self.attempted),
                "failed": self.failed,
                "metrics": {k: {"value": self.metrics.get(k, 0.0), "unit": u}
                            for k, u in units.items()}}


# -- set-up ------------------------------------------------------------------


def setup(run, config, work, checkpoint, reps=SETUP_REPS):
    """Generate, write, read and build (and save and load a checkpoint)
    ``reps`` times; add each step's times to ``run.setup_times`` and,
    in a traced run, record the set-up layer metrics (the tracer times the
    compaction inside the build).  Return the dataset and model of the last
    repetition.

    The generation is cut into pieces at each return of a ``SeededRng``
    draw: for one seed it makes the same draws in the same order, so piece
    ``generate.<i>`` does the same work in every repetition."""
    from hooks import StepClock, Tracer
    from hrt import (HrtModel, SyntheticSpec, generate_synthetic,
                     load_checkpoint, load_features, save_checkpoint,
                     save_dataset)
    from hrt.config import model_config_for

    params = dict(config["synthetic"])
    params.pop("seed")
    spec, seed = SyntheticSpec(**params), run.seed
    data, ckpt = work / "setup" / "data", work / "setup" / "model.ckpt"
    steps = ["generate", "save", "load", "build"] + \
        (["save_ckpt", "load_ckpt"] if checkpoint else [])
    tracer = Tracer() if run.trace else None
    if tracer:
        tracer.install()
    try:
        with StepClock("hrt.rng", *RNG_DRAWS) as draws:
            for _ in range(reps):
                # a process holds one dataset and model, not one per
                # repetition
                generated = dataset = model = loaded = None
                shutil.rmtree(work / "setup", ignore_errors=True)
                draws.stamps.clear()
                t = [clock()]
                generated = generate_synthetic(spec, seed)
                t.append(clock())
                cuts = [t[0]] + draws.stamps + [t[1]]
                save_dataset(generated, data)
                t.append(clock())
                dataset = load_features(data)
                t.append(clock())
                model = HrtModel.build(model_config_for(config, dataset),
                                       dataset.semantics.attr_vectors,
                                       dataset.semantics.class_attr, seed=seed)
                t.append(clock())
                if checkpoint:
                    save_checkpoint(model, ckpt, experiment_config=config)
                    t.append(clock())
                    loaded = load_checkpoint(ckpt)
                    t.append(clock())
                # of the thousands of generation pieces only the fastest
                # of each is kept, to keep the process's memory its own
                for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
                    kept = run.setup_times.setdefault(f"generate.{i}", [b - a])
                    kept[0] = min(kept[0], b - a)
                for key, a, b in zip(steps[1:], t[1:], t[2:]):
                    run.setup_times.setdefault(key, []).append(b - a)
                run.setup_times.setdefault("total", []).append(t[-1] - t[0])
    finally:
        if tracer:
            tracer.uninstall()
    run.check("setup: dataset read back equals the generated one",
              (dataset.features == generated.features).all()
              and (dataset.labels == generated.labels).all())
    if checkpoint:
        run.check("setup: checkpoint round trip keeps every parameter",
                  all((loaded.params[k].data == p.data).all()
                      for k, p in model.params.items()))
        model = loaded
    if tracer:
        t = {k: step_s(run.setup_times, k) for k in steps}
        check_calls(run, tracer.calls, expected_calls(builds=reps))
        compact = tracer.totals()["semantics.compact"]
        run.metrics.update({
            "data.generate_s": t["generate"], "data.save_s": t["save"],
            "data.load_s": t["load"],
            "semantics.compact_s": compact["self_s"] / compact["count"],
            "train.save_checkpoint_ms": 1000 * t.get("save_ckpt", 0.0),
            "train.load_checkpoint_ms": 1000 * t.get("load_ckpt", 0.0),
            "data.dir_bytes": dir_bytes(data),
            "train.checkpoint_bytes": ckpt.stat().st_size if checkpoint else 0})
    return dataset, model, data


def step_s(times, step):
    """Fastest time of a set-up step: the sum over its pieces of
    ``fastest_piece_s``."""
    return sum(fastest_piece_s(v) for k, v in times.items()
               if k.split(".")[0] == step)


def report_setup(run):
    """``setup_s``: the sum over set-up steps of ``step_s``."""
    times = run.setup_times
    if not times:
        return
    steps = list(dict.fromkeys(k.split(".")[0] for k in times if k != "total"))
    run.metrics["setup_s"] = sum(step_s(times, step) for step in steps)
    n = len(times["total"])
    run.report("setup_s", run.metrics["setup_s"], "s",
               f"{n} of each of {len(steps)} steps")
    for step in steps:
        run.report(f"setup.{step}_ms", 1000 * step_s(times, step), "ms",
                   f"{n}")
    run.report("setup_s_median", median(times["total"]), "s", f"{n} set-ups")


def loss_and_optimizer(config, model, dataset):
    from hrt import LossConfig, OptimizerConfig
    from hrt.config import gamma_offsets
    gamma = gamma_offsets(config, model.config.num_classes,
                          dataset.seen_classes, dataset.unseen_classes)
    return (LossConfig(lambda1=config["loss"]["lambda1"],
                       lambda2=config["loss"]["lambda2"],
                       gamma_per_class=gamma),
            OptimizerConfig(**config["optimizer"]), gamma)


# -- traced-run metrics --------------------------------------------------------


def layer_metrics(totals, samples, steps, traced_s, untraced_s):
    """Per-layer metrics from span totals over ``samples`` forward passes."""
    def total(name, key="self_s"):
        return totals.get(name, {}).get(key, 0)

    def per_sample_ms(name, key="self_s"):
        return 1000 * total(name, key) / samples if samples else 0.0

    kernels = [totals[f"tensor.{k}"] for k in ("einsum", "matmul")
               if f"tensor.{k}" in totals]
    kernel_s = sum(k["self_s"] for k in kernels)
    fwd_macs = sum(k["macs_fwd"] for k in kernels)
    ops = [v for v in totals.values() if v["is_op"]]
    forward_s = total("model.forward", "incl_s")
    m = {f"{layer}.ms_per_sample": per_sample_ms(layer)
         for layer in STEP_LAYERS if layer != "optim"}
    m.update({
        "optim.step_ms": 1000 * total("optim") / steps if steps else 0.0,
        "model.forward.ms_per_sample": per_sample_ms("model.forward", "incl_s"),
        "routing.em.forward_share": total("routing.em") / forward_s if forward_s else 0.0,
        "routing.em.step_share": total("routing.em") / traced_s if traced_s else 0.0,
        "tensor.einsum.ms_per_sample": 1000 * kernel_s / samples if samples else 0.0,
        "tensor.einsum.macs_per_sample":
            (fwd_macs + sum(k["macs_bwd"] for k in kernels)) / samples if samples else 0.0,
        "tensor.einsum.gmacs_per_s": fwd_macs / kernel_s / 1e9 if kernel_s else 0.0,
        "tensor.ops_per_sample": sum(o["count"] for o in ops) / samples if samples else 0.0,
        "tensor.bytes_out_per_sample":
            sum(o["bytes"] for o in ops) / samples if samples else 0.0,
        "trace.layer_coverage":
            sum(total(layer) for layer in STEP_LAYERS) / traced_s if traced_s else 0.0,
        "trace.overhead_share": traced_s / untraced_s - 1 if untraced_s else 0.0,
    })
    return m


def expected_calls(forwards=0, train_samples=0, steps=0, builds=0):
    """Call count of every layer hook for a phase with these totals."""
    from hooks import layer_targets
    counts = dict.fromkeys(layer_targets(), 0)
    for target in ("hrt.model.HrtModel.forward", "hrt.model.encode",
                   "hrt.encoder.batched_primary_capsules",
                   "hrt.encoder.batched_em_routing",
                   "hrt.encoder.inverted_routing",
                   "hrt.model.adjust_class_attributes",
                   "hrt.model.content_attribute_scores",
                   "hrt.model.class_scores"):
        counts[target] = forwards
    for target in ("hrt.train.cross_entropy", "hrt.train.calibration_loss",
                   "hrt.train.attribute_regression_loss", "hrt.train.predict",
                   "hrt.tensor.Tensor.backward"):
        counts[target] = train_samples
    counts["hrt.train.optimizer_step"] = steps
    counts["hrt.model.compact_semantics"] = builds
    return counts


def check_calls(run, calls, expected):
    from hooks import HookError, expect_calls
    try:
        expect_calls(calls, expected)
        ok, detail = True, ""
    except HookError as e:
        ok, detail = False, str(e)
    run.check("trace: every hook called the expected number of times", ok,
              detail)


def check_trace(run, tracer, expected):
    """Call counts, per-sample op counts, and the spans written out."""
    check_calls(run, tracer.calls, expected)
    counts = tracer.per_sample_op_counts()
    run.check("trace: op count, bytes and MACs repeat exactly for every "
              "traced sample",
              counts.shape[0] > 0 and (counts == counts[0]).all(),
              f"{len(set(map(tuple, counts.tolist())))} distinct rows")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{run.workload}-seed{run.seed}.npz",
                workload=run.workload, seed=run.seed)


# -- workloads -----------------------------------------------------------------


def until_deadline(run, op, at_least):
    """Call ``op`` at least ``at_least`` times, and again while a call of
    average length would end less than half a call past ``--seconds``;
    return its results."""
    results = []
    start = clock()
    while len(results) < at_least or \
            clock() - start + (clock() - start) / len(results) / 2 < run.seconds:
        results.append(op())
    return results


def alternate(run, plain, traced):
    """Traced run: alternate ``plain()`` and ``traced()`` calls (at least two
    of each) for ``--seconds``, so that drift in machine speed cancels out of
    the tracing overhead.  Returns (plain results, traced results)."""
    pairs = until_deadline(run, lambda: (plain(), traced()), 2)
    return [p for p, _ in pairs], [t for _, t in pairs]


def under(tracer, op):
    """``op`` as a callable that runs with ``tracer``'s hooks installed."""
    def traced():
        with tracer:
            return op()
    return traced


def train_phase(run, dataset, model, loss_config, opt_config, epochs, batch):
    """Train ``model`` for ``epochs``; each minibatch is one operation.
    Returns (history, seconds, per-step seconds, pieces), where the pieces
    are those of ``train_pieces``."""
    from hooks import StepClock
    from hrt import train
    with StepClock() as steps, \
            StepClock("hrt.model", "HrtModel.forward") as forwards:
        t0 = clock()
        try:
            history = train(dataset, model, loss_config, opt_config,
                            epochs=epochs, seed=run.seed, batch_size=batch)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            history = None
        t1 = clock()
    run.attempted += len(steps.stamps) + (history is None)
    run.failed += history is None
    per_epoch = math.ceil(dataset.splits["train"].size / batch)
    return history, t1 - t0, [b - a for a, b in zip([t0] + steps.stamps,
                                                      steps.stamps)], \
        train_pieces(t0, forwards.stamps, steps.stamps, per_epoch)


def report_timing(run, name, seconds, unit_ms=True):
    """Median and the highest tail percentile with ten samples beyond it."""
    scale = 1000 if unit_ms else 1
    unit = "ms" if unit_ms else "s"
    n = f"{len(seconds)}"
    run.report(f"{name}_p50", scale * median(seconds), unit, n)
    p = tail_percentile(len(seconds))
    if p:
        run.report(f"{name}_p{p}", scale * percentile(seconds, p), unit, n)


def run_train(run, config, work):
    from hooks import Tracer
    from hrt import HrtModel
    dataset, model, _ = setup(run, config, work, checkpoint=False)
    loss_config, opt_config, _ = loss_and_optimizer(config, model, dataset)
    batch = config["train"]["batch_size"]
    n = dataset.splits["train"].size
    per_epoch = math.ceil(n / batch)

    def train_fresh_model(epochs):
        model_copy = HrtModel(model.config, model.semantics, seed=run.seed)
        return train_phase(run, dataset, model_copy, loss_config, opt_config,
                           epochs, batch)

    if run.trace:
        train_fresh_model(1)   # warm-up
        tracer = Tracer()
        one_epoch = lambda: train_fresh_model(1)  # noqa: E731
        plain, traced = alternate(run, one_epoch, under(tracer, one_epoch))
        histories = [history_csv(h) for h, _, _, _ in plain + traced]
        run.check("trace: traced history equals the untraced one byte for byte",
                  histories[0] and all(h == histories[0] for h in histories))
        k = len(traced)
        check_trace(run, tracer, expected_calls(
            forwards=k * n, train_samples=k * n, steps=k * per_epoch))
        run.metrics.update(layer_metrics(
            tracer.totals(), k * n, k * per_epoch,
            sum(s for _, s, _, _ in traced), sum(s for _, s, _, _ in plain)))
        return

    def set_up_and_train():
        fresh_dataset, fresh_model, _ = setup(run, config, work, False, reps=1)
        return train_phase(run, fresh_dataset, fresh_model, loss_config,
                           opt_config, MIN_EPOCHS, batch)

    # each call sets up again and trains the fresh model for MIN_EPOCHS
    # epochs; epoch 0 is the warm-up
    dataset = model = None
    calls = until_deadline(run, set_up_and_train, 1)
    histories = [h for h, _, _, _ in calls]
    steps = [s for _, _, call_steps, _ in calls for s in call_steps]
    run.check("train: one optimizer step per minibatch",
              len(steps) == len(calls) * MIN_EPOCHS * per_epoch,
              f"{len(steps)} steps for {len(calls)} x {MIN_EPOCHS} epochs "
              f"of {per_epoch}")
    run.check("train: every history row is finite",
              all(h and all(math.isfinite(v) for row in h for v in
                            (row.ce, row.cal, row.reg, row.total, row.train_acc))
                  for h in histories))
    run.check("train: last epoch's total loss is below the first",
              all(h and h[-1].total < h[0].total for h in histories),
              f"{[row.total for row in histories[0] or []]}")
    run.check("train: every fresh model trains to the same history",
              all(history_csv(h) == history_csv(histories[0])
                  for h in histories))
    # epoch 0 of each call is the warm-up
    cut = [h and len(pieces) == MIN_EPOCHS * (n + per_epoch)
           and all([add_unit(run, [(kind, sec) for e, kind, sec in pieces
                                   if e == epoch])
                    for epoch in range(1, MIN_EPOCHS)])
           for h, _, _, pieces in calls]
    run.check("train: every timed epoch is cut into the same pieces", all(cut))
    run.unit_samples = n
    run.report("train_samples_per_s_wall",
               sum(map(bool, histories)) * MIN_EPOCHS * n
               / sum(s for _, s, _, _ in calls), "1/s",
               f"{len(calls)} x {MIN_EPOCHS} epochs x {n} samples")
    report_timing(run, "train_step_ms", steps)


def history_csv(history):
    return [h.csv_row() for h in history or []]


def run_eval(run, config, work):
    from hooks import StepClock, Tracer
    from hrt import evaluate
    dataset, model, _ = setup(run, config, work, checkpoint=True)
    _, _, gamma = loss_and_optimizer(config, model, dataset)
    per_pass = sum(dataset.splits[s].size for s in ("test_seen", "test_unseen"))

    held = {"dataset": dataset, "model": model}

    def one_pass():
        t0 = clock()
        metrics = run.operation(evaluate, held["model"], held["dataset"],
                                mode="gzsl", gamma=gamma)
        return metrics and metrics.to_dict(), t0, clock()

    def set_up_and_pass():
        held.clear()
        held["dataset"], held["model"], _ = setup(run, config, work, True,
                                                  reps=1)
        return one_pass()

    dataset = model = None
    one_pass()   # warm-up
    if run.trace:
        tracer = Tracer()
        plain, traced = alternate(run, one_pass, under(tracer, one_pass))
        results = [m for m, _, _ in plain + traced]
        check_trace(run, tracer,
                    expected_calls(forwards=len(traced) * per_pass))
        run.metrics.update(layer_metrics(
            tracer.totals(), len(traced) * per_pass, 0,
            sum(b - a for _, a, b in traced), sum(b - a for _, a, b in plain)))
    else:
        with StepClock("hrt.model", "HrtModel.forward") as forwards:
            passes = until_deadline(run, set_up_and_pass, 3)
        results = [m for m, _, _ in passes]
        times = [b - a for _, a, b in passes]
        stamps, ok = forwards.stamps, []
        n_seen = held["dataset"].splits["test_seen"].size
        for metrics, a, b in passes:
            inside = stamps[bisect.bisect(stamps, a):bisect.bisect(stamps, b)]
            if metrics:
                ok.append(len(inside) == per_pass and add_unit(
                    run, eval_pieces(a, inside, b, n_seen)))
        run.check("eval: every pass is cut into the same pieces", all(ok))
        run.unit_samples = per_pass
        run.report("eval_samples_per_s_wall",
                   sum(map(bool, results)) * per_pass / sum(times), "1/s",
                   f"{len(times)} passes x {per_pass} samples")
        report_timing(run, "eval_pass_ms", times)
    zsl = run.operation(evaluate, held["model"], held["dataset"], mode="zsl")
    values = [r[k] for r in results if r for k in ("tr", "ts", "h")]
    values += [zsl.t1] if zsl else []
    run.check("eval: tr, ts, h and t1 lie in [0, 1]",
              values and all(0.0 <= v <= 1.0 for v in values))
    results = [r for r in results if r]
    run.check("eval: repeated passes give bit-identical metrics"
              + (", traced or not" if run.trace else ""),
              results and all(r == results[0] for r in results),
              f"{len(results)} passes")


def cli_command(run, argv, env):
    """Run one hrt subcommand as a subprocess; return (ok, start, end)."""
    run.attempted += 1
    start = clock()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
        ok = proc.returncode == 0
        if not ok:
            sys.stderr.write(f"{argv} exited {proc.returncode}:\n{proc.stderr}\n")
    except (OSError, subprocess.SubprocessError) as e:
        sys.stderr.write(f"{argv} failed: {e}\n")
        ok = False
    run.failed += not ok
    return ok, start, clock()


def cli_pieces(name, start, end, stamps, per_epoch, n_seen):
    """Pieces of one subcommand that ran as a subprocess from ``start`` to
    ``end``, named ``<subcommand>.<kind>``: ``launch`` (up to the start of
    ``traced_cli.py``) and ``import`` (of hrt); then ``gen`` is one ``run``
    piece, ``train`` is cut as by ``train_pieces`` with a ``start`` piece
    (up to the first forward) and an ``exit`` piece (after the last step),
    and ``eval`` is cut as by ``eval_pieces``."""
    began, forwards, steps = stamps["imported"], stamps["forwards"], \
        stamps["steps"]
    pieces = [("launch", stamps["started"] - start),
              ("import", began - stamps["started"])]
    if name == "train" and steps:
        trained = [(kind, sec) for _, kind, sec in
                   train_pieces(began, forwards, steps, per_epoch)]
        # the first also reads the data and builds the model
        pieces += [("start", trained[0][1])] + trained[1:]
        pieces.append(("exit", end - steps[-1]))
    elif name == "eval" and forwards:
        pieces += eval_pieces(began, forwards, end, n_seen)
    else:
        pieces.append(("run", end - began))
    return [(f"{name}.{kind}", sec) for kind, sec in pieces]


def merge_totals(traces):
    """Sum the span totals and hook call counts written by traced_cli.py."""
    totals, calls = {}, {}
    for t in traces:
        for target, count in t["calls"].items():
            calls[target] = calls.get(target, 0) + count
        for name, tot in t["totals"].items():
            if name not in totals:
                totals[name] = dict(tot)
                continue
            for key, val in tot.items():
                if key != "is_op":
                    totals[name][key] += val
    return totals, calls


def run_cli(run, config, work):
    dataset, _, setup_data = setup(run, config, work, checkpoint=False)
    overlay = work / "overlay.json"
    overlay.write_text(json.dumps(WORKLOADS[run.workload][1]), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    count = [0]

    train_n = dataset.splits["train"].size
    per_epoch = math.ceil(train_n / config["train"]["batch_size"])
    n_seen = dataset.splits["test_seen"].size

    def roundtrip(traced=False):
        """gen -> train -> eval in fresh directories; None if one fails."""
        rt = work / f"rt{count[0]}"
        count[0] += 1
        rt.mkdir()
        data, out, ev = str(rt / "data"), str(rt / "run"), str(rt / "eval")
        common = ["--config", str(overlay)]
        cmds = {"gen": ["gen", "--out", data, "--seed", str(run.seed)],
                "train": ["train", "--data", data, "--out", out,
                          "--seed", str(run.seed)],
                "eval": ["eval", "--checkpoint", str(rt / "run" / "model.ckpt"),
                         "--data", data, "--mode", "gzsl", "--out", ev]}
        result = {"times": {}, "traces": [], "pieces": []}
        mode = "spans" if traced else "stamps"
        for name, args in cmds.items():
            record = rt / f"{name}.{mode}.json"
            ok, start, end = cli_command(
                run, [sys.executable, str(ROOT / "bench" / "traced_cli.py"),
                      mode, str(record)] + args + common, env)
            if not ok:
                return None
            result["times"][name] = end - start
            recorded = json.loads(record.read_text())
            if traced:
                result["traces"].append(recorded)
            else:
                result["pieces"] += cli_pieces(name, start, end, recorded,
                                               per_epoch, n_seen)
        (rt / "data" / "config.json").unlink()   # the echoed config
        result.update({
            "metrics": (rt / "eval" / "metrics.json").read_bytes(),
            "history": (rt / "run" / "history.csv").read_bytes(),
            "data": {f.name: f.read_bytes() for f in (rt / "data").iterdir()},
            "dir_bytes": dir_bytes(rt / "data"),
            "ckpt_bytes": (rt / "run" / "model.ckpt").stat().st_size})
        shutil.rmtree(rt)
        return result

    if run.trace:
        plain, traced = alternate(run, roundtrip, lambda: roundtrip(True))
    else:
        def set_up_and_roundtrip():
            setup(run, config, work, checkpoint=False, reps=1)
            return roundtrip()

        plain, traced = until_deadline(run, set_up_and_roundtrip, 1), []
    ok = [r for r in plain + traced if r]
    run.check("cli: every subcommand exits 0", len(ok) == len(plain + traced))
    run.check("cli: metrics.json and history.csv are byte-identical across "
              "round trips" + (", traced or not" if run.trace else ""),
              ok and all(r["metrics"] == ok[0]["metrics"]
                         and r["history"] == ok[0]["history"] for r in ok))
    reference = {f.name: f.read_bytes() for f in setup_data.iterdir()}
    run.check("cli: hrt gen writes the same dataset bytes as the API",
              ok and ok[0]["data"] == reference)
    values = [json.loads(ok[0]["metrics"])[k] for k in ("tr", "ts", "h")] \
        if ok else []
    run.check("cli: tr, ts and h lie in [0, 1]",
              values and all(0.0 <= v <= 1.0 for v in values))
    plain = [r for r in plain if r]
    run.digests += [hashlib.sha256(r["metrics"] + r["history"]).hexdigest()
                    for r in ok]
    epochs = config["train"]["epochs"]
    per_pass = sum(dataset.splits[s].size for s in ("test_seen", "test_unseen"))
    per_rt = epochs * train_n + per_pass
    cli_s = {c: median([r["times"][c] for r in plain])
             for c in ("gen", "train", "eval")}

    if not run.trace:
        rt_s = [sum(r["times"].values()) for r in plain]
        # launch and import of each subcommand; gen; train's pieces and its
        # exit; eval's pieces
        cut = [len(r["pieces"]) == 9 + epochs * (train_n + per_epoch) + per_pass
               and add_unit(run, r["pieces"]) for r in plain]
        run.check("cli: every round trip is cut into the same pieces", all(cut))
        run.unit_samples = per_rt
        report_timing(run, "roundtrip_s", rt_s, unit_ms=False)
        for name, value in cli_s.items():
            run.report(f"cli.{name}_s", value, "s", f"{len(plain)}")
        return

    traced = [r for r in traced if r]
    totals, calls = merge_totals(t for r in traced for t in r["traces"])
    k = len(traced)
    expected = expected_calls(forwards=k * per_rt,
                              train_samples=k * epochs * train_n,
                              steps=k * epochs * per_epoch, builds=k)
    expected.update({"hrt.cli.generate_synthetic": k, "hrt.cli.save_dataset": k,
                     "hrt.cli.load_features": 2 * k,
                     "hrt.cli.save_checkpoint": k, "hrt.cli.load_checkpoint": k})
    check_calls(run, calls, expected)

    def model_s(results):
        return sum(r["times"]["train"] + r["times"]["eval"] for r in results)

    run.metrics.update(layer_metrics(totals, k * per_rt,
                                     k * epochs * per_epoch, model_s(traced),
                                     model_s(plain)))

    def per_call(name):
        tot = totals.get(name)
        return tot["self_s"] / tot["count"] if tot else 0.0

    run.metrics.update({
        "data.generate_s": per_call("data.generate"),
        "data.save_s": per_call("data.save"),
        "data.load_s": per_call("data.load"),
        "semantics.compact_s": per_call("semantics.compact"),
        "train.save_checkpoint_ms": 1000 * per_call("train.save_checkpoint"),
        "train.load_checkpoint_ms": 1000 * per_call("train.load_checkpoint"),
        "data.dir_bytes": ok[0]["dir_bytes"],
        "train.checkpoint_bytes": ok[0]["ckpt_bytes"]})
    run.metrics.update({f"cli.{c}_s": v for c, v in cli_s.items()})


RUNNERS = {"train": run_train, "eval": run_eval, "cli": run_cli}


# -- command line --------------------------------------------------------------


def run_workload(args):
    from hrt.config import load_config
    kind, overrides = WORKLOADS[args.workload]
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    config = load_config(overrides=overrides)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        RUNNERS[kind](run, config, work)
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        run.check("workload ran to completion", False, repr(e))
    # the peak of the work, not of the set-ups below that only time set-up
    run.record_peak_rss(children=kind == "cli")
    try:
        if not run.trace:
            # the host's slow spells last about a second, so set-ups are
            # spread over the run: a block before the units, one before
            # each unit (a training unit is several seconds long), and a
            # block after them
            setup(run, config, work, checkpoint=kind == "eval")
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        run.check("set-up after the units ran to completion", False, repr(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.trace:
        report_setup(run)
        run.report("failed_share", run.failed / max(1, run.attempted),
                   "ratio", f"{run.failed}/{run.attempted} operations")
    return run


def run_workers(args):
    """``--trace 0``: run the workload in ``WORKERS`` processes one after
    another, each for an equal share of ``--seconds``, and pool their unit
    pieces and set-up times."""
    kind = WORKLOADS[args.workload][0]
    run = Run(args.workload, args.seed, args.seconds, 0)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    peak, units = 0.0, []
    for i in range(WORKERS):
        # its own process group, so that a timeout also ends its CLI children
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds / WORKERS), "--trace", "0",
             "--worker"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as e:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker {i} ran past {RUN_TIMEOUT_S} s") from e
        sys.stderr.write(err)
        lines = out.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"worker {i} exited {proc.returncode}")
        for line in lines[:-1]:
            print(f"worker {i}: {line}")
        w = json.loads(lines[-1])
        run.check(f"worker {i}: every output check passes", w["correct"])
        run.attempted += w["attempted"]
        run.failed += w["failed"]
        units.append(w["unit"])
        run.units += w["units"]
        for piece, seconds in w["pools"].items():
            run.pools.setdefault(piece, []).extend(seconds)
        run.unit, run.unit_samples = w["unit"], w["unit_samples"]
        run.digests += w["digests"]
        for step, times in w["setup_times"].items():
            run.setup_times.setdefault(step, []).extend(times)
        peak = max(peak, w["peak_rss_mb"])
    run.check("every worker cuts the unit of work into the same pieces",
              all(u == units[0] for u in units))
    if kind == "cli":
        run.check("cli: metrics.json and history.csv are byte-identical "
                  "across all round trips of all workers",
                  len(run.digests) >= 2 and len(set(run.digests)) == 1,
                  f"{len(set(run.digests))} distinct of {len(run.digests)}")
    samples_per_s = run.unit_samples / fastest_unit_s(run.pools, run.unit) \
        if run.units else 0.0
    run.metrics["samples_per_s"] = samples_per_s
    run.report(f"{kind}_samples_per_s", samples_per_s, "1/s",
               f"{run.units} units from {WORKERS} processes")
    for piece, n in run.unit.items() if run.units else ():
        run.report(f"unit.{piece}_ms",
                   1000 * n * fastest_piece_s(run.pools[piece]), "ms",
                   f"{n} per unit, {len(run.pools[piece])} measured")
    report_setup(run)
    run.metrics["peak_rss_mb"] = peak
    run.report("peak_rss_mb", peak, "MB", f"largest of {WORKERS} processes")
    run.report("failed_share", run.failed / max(1, run.attempted), "ratio",
               f"{run.failed}/{run.attempted} operations")
    return run


def print_run(run, env=None):
    if env:
        print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {run.workload} seed {run.seed} seconds {run.seconds} "
          f"trace {run.trace}")
    for name, value, unit, samples in run.named:
        print(f"{run.workload:16s} {name:28s} {value:14.6g} {unit:6s} n={samples}")
    if run.trace:
        for name, unit in PER_LAYER.items():
            print(f"{run.workload:16s} {name:34s} "
                  f"{run.metrics.get(name, 0.0):14.6g} {unit}"
                  + (" (computed)" if name in COMPUTED else ""))
    for name, (ok, detail) in run.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail and not ok else ""))
    if env is None:   # a worker: hand the raw measurements to run_workers
        print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                          "failed": run.failed, "pools": run.pools,
                          "unit": run.unit, "units": run.units,
                          "unit_samples": run.unit_samples,
                          "digests": run.digests,
                          "setup_times": run.setup_times,
                          "peak_rss_mb": run.metrics["peak_rss_mb"]}))
    else:
        print(json.dumps(run.result()))


def run_all(args):
    """Every workload in its own process; exit 1 if any check fails."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def check_benchmark_json():
    """The metrics this script emits must be the ones BENCHMARK.json lists."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path.name}: {e}") from e
    for key, mine in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec.get(key, [])}
        if listed != mine:
            raise BenchError(f"{path.name} {key} does not match bench/run.py")
    if {w["name"] for w in spec.get("workloads", [])} != set(WORKLOADS):
        raise BenchError(f"{path.name} workloads do not match bench/run.py")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "hrt" / "__init__.py").is_file():
            raise BenchError(f"no hrt sources under {SRC}")
        check_benchmark_json()
        sys.path.insert(0, str(SRC))
        if args.workload == "all":
            return run_all(args)
        if args.trace or args.worker:
            run = run_workload(args)
        else:
            run = run_workers(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print_run(run, None if args.worker else environment(args.seed))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
