"""The benchmark's workloads and the measurements taken on them.

Every workload is a closed loop on one simulated cluster: a step starts
only when the previous one has finished. Training workloads call
``runner.run`` once per repetition (one epoch each) until the time budget
is spent; ``codec-rt`` pushes seeded gradients through
pack -> encode -> decode -> unpack. Only public entry points are driven;
timing and tracing wrap public names from outside (see spans.py).
"""

from __future__ import annotations

import csv
import hashlib
import resource
import statistics
import sys
import traceback
from collections import Counter
from functools import partial
from itertools import count
from pathlib import Path
from time import perf_counter

import numpy as np

import adacomp
from adacomp import nn, optim, runner, sim, wire
from adacomp.config import ExperimentConfig
from adacomp.metrics import MetricsWriter

from spans import Tracer

GLOBAL_BATCH = 128


def _cnn(learners: int) -> dict:
    return {"model": {"kind": "cnn", "in_maps": 1, "conv_maps": [8, 16], "fc_hidden": 64,
                      "classes": 10},
            "dataset": {"kind": "digits", "train": 2048, "test": 512},
            "learners": learners}


TRAINING = {
    # single-worker baseline; nn forward/backward dominates the step
    "cnn-n1": _cnn(1),
    # same task and compute at 32 learners: 32 packs and 1,024 unpacks per layer per step
    "cnn-n32": _cnn(32),
    # layer-wide top-k: argsort-bound, vectorised unpack, formula payload bits, little compute
    "mlp-topk-n16": {
        "model": {"kind": "mlp", "input_dim": 64, "hidden": [256, 256], "classes": 10},
        "dataset": {"kind": "gaussians", "classes": 10, "dim": 64, "train": 4096, "test": 512},
        "codec": {"fc": {"kind": "topk", "fraction": 0.01}},
        "learners": 16},
}

# codec-rt layers as (elements, bin size): bin 500 uses 2-byte wire entries,
# bin 50 the 1-byte path. No training path calls decode, so only this
# workload measures it.
CODEC_LAYERS = ((1_048_576, 500), (262_144, 50))
CODEC_POOL = 4          # gradient sets generated at set-up and cycled; the residue carries over
CODEC_SETUPS = 3        # set-up is repeated and its median reported
# set-up samples a training run gathers, spread evenly over its time; one
# epoch of mlp-topk-n16 takes seconds, so its repetitions alone give too few
SETUP_SAMPLES = 40

# per-layer metric -> the span whose self time per step it sums
TIME_METRICS = {
    "nn.forward_ms": "nn.forward",
    "nn.backward_ms": "nn.backward",
    "codec.pack_ms": "codec.pack",
    "codec.unpack_ms": "codec.unpack",
    "baselines.pack_ms": "baselines.pack",
    "baselines.unpack_ms": "baselines.unpack",
    "wire.payload_bits_ms": "wire.payload_bits",
    "wire.encode_ms": "wire.encode",
    "wire.decode_ms": "wire.decode",
    "sim.sync_self_ms": "sim.sync_step",
    "sim.evaluate_ms": "sim.evaluate",
    "optim.update_ms": "optim.update",
    "metrics.residue_p95_ms": "metrics.residue_p95",
    "metrics.write_ms": "metrics.write",
    "data.shard_ms": "data.shard",
    "runner.self_ms": "runner.run",
}
# per-layer metric -> the span whose calls per step it counts
CALL_METRICS = {
    "codec.pack_calls": "codec.pack",
    "codec.unpack_calls": "codec.unpack",
    "baselines.unpack_calls": "baselines.unpack",
    "optim.update_calls": "optim.update",
}

END_TO_END_UNITS = {"step_ms_p50": "ms", "step_ms_p90": "ms", "wall_ms_per_step": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**{m: "ms" for m in TIME_METRICS}, "nn.calls": "count",
                   **{m: "count" for m in CALL_METRICS},
                   "codec.selected_fraction": "share", "wire.bits_per_element": "bit",
                   "data.generate_ms": "ms", "trace.overhead_pct": "%"}


def patch_layers(tracer: Tracer, counts: Counter) -> None:
    """Trace every layer boundary, at the names callers look up."""
    def count_selected(result):
        packed = result[0]
        counts["entries"] += packed.entry_count()
        counts["elements"] += packed.element_count

    for owner, attr, span, observe in (
            (sim, "pack", "codec.pack", count_selected),
            (adacomp, "pack", "codec.pack", count_selected),
            (sim, "unpack", "codec.unpack", None),
            (adacomp, "unpack", "codec.unpack", None),
            (sim, "ls_pack", "baselines.pack", None),
            (sim, "topk_pack", "baselines.pack", None),
            (sim, "onebit_pack", "baselines.pack", None),
            (sim, "identity_pack", "baselines.pack", None),
            (sim, "unpack_topk", "baselines.unpack", None),
            (sim, "unpack_onebit", "baselines.unpack", None),
            (sim, "unpack_dense", "baselines.unpack", None),
            (sim, "payload_bits", "wire.payload_bits", None),
            (wire, "encode", "wire.encode", None),
            (adacomp, "encode", "wire.encode", None),
            (wire, "decode", "wire.decode", None),
            (adacomp, "decode", "wire.decode", None),
            (nn.Model, "forward", "nn.forward", None),
            (nn.Model, "backward", "nn.backward", None),
            (optim.SGDMomentum, "update", "optim.update", None),
            (optim.Adam, "update", "optim.update", None),
            (sim.Cluster, "evaluate", "sim.evaluate", None),
            (sim.Cluster, "pooled_abs_residue", "metrics.residue_p95", None),
            (sim, "nearest_rank_percentile", "metrics.residue_p95", None),
            (MetricsWriter, "write_step", "metrics.write", None),
            (MetricsWriter, "write_epoch", "metrics.write", None),
            (runner, "synth_digits", "data.generate", None),
            (runner, "synth_gaussians", "data.generate", None),
            (sim, "shard", "data.shard", None)):
        tracer.patch(owner, attr, span, observe)


class Pass:
    """What the repetitions of one mode, traced or not, gathered."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        self.attempted = 0         # run() calls or round trips, set-up probes included
        self.probes = 0
        self.failed = 0
        self.steps = 0
        self.step_ms: list[float] = []
        self.setup_s: list[float] = []
        self.wall_s = 0.0          # measured wall time after set-up
        self.digests: list[str] = []
        self.bits = 0
        self.elements = 0
        self.last: dict = {}

    def instrument(self, step_owner, step_attr: str, step_span: str, observe_build=None) -> None:
        self.tracer.patch(step_owner, step_attr, step_span)
        if observe_build is not None:
            self.tracer.patch(runner, "build_cluster", "sim.build_cluster", observe_build)
        if self.traced:
            patch_layers(self.tracer, self.counts)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def layer_metrics(self) -> dict:
        self_ns, calls = self.tracer.totals()
        out = {m: self_ns[span] / 1e6 / self.steps for m, span in TIME_METRICS.items()}
        out.update({m: calls[span] / self.steps for m, span in CALL_METRICS.items()})
        out["nn.calls"] = (calls["nn.forward"] + calls["nn.backward"]) / self.steps
        out["codec.selected_fraction"] = self.counts["entries"] / max(self.counts["elements"], 1)
        out["wire.bits_per_element"] = self.bits / self.elements
        out["data.generate_ms"] = self_ns["data.generate"] / 1e6 / self.attempted
        return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _last_epoch_loss(path: Path) -> float:
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["kind"] == "epoch"]
    return float(rows[-1]["train_loss"])


def train_config(name: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig.from_dict({**TRAINING[name], "optimizer": {"kind": "sgd", "lr": 0.05},
                                       "minibatch": GLOBAL_BATCH, "epochs": 1, "seed": seed})


def train_once(p: Pass, name: str, cfg: ExperimentConfig, out_dir: Path) -> None:
    """One ``runner.run`` call, checked: it must not raise or diverge, must
    run every step and must leave the weights identical on every rank."""
    clusters: list = []
    p.instrument(sim.Cluster, "sync_step", "sim.sync_step", clusters.append)
    first = len(p.tracer.spans)
    p.attempted += 1
    try:
        summary = p.tracer.wrap("runner.run", runner.run)(cfg, out_dir)
    except Exception:
        traceback.print_exc()
        p.fail(f"{name} run {p.attempted} raised")
        return
    finally:
        p.tracer.restore()
    steps = [s for s in p.tracer.spans[first:] if s[0] == "sim.sync_step"]
    cluster = clusters[-1]
    if summary["diverged"] is not None:
        p.fail(f"{name} run {p.attempted} diverged at {summary['diverged']}")
    elif not cluster.weights_identical():
        p.fail(f"{name} run {p.attempted}: weights differ between ranks")
    elif not summary["steps"] == len(steps) == cluster.steps_per_epoch:
        p.fail(f"{name} run {p.attempted}: ran {len(steps)} of {cluster.steps_per_epoch} steps")
    else:
        root = p.tracer.spans[first]
        p.setup_s.append((steps[0][1] - root[1]) / 1e9)
        p.wall_s += (root[2] - steps[0][1]) / 1e9
        p.steps += len(steps)
        p.step_ms += [(s[2] - s[1]) / 1e6 for s in steps]
        p.digests.append(_sha256(out_dir / "metrics.csv"))
        p.bits += sum(summary["total_payload_bits_per_layer"].values())
        p.elements += len(steps) * cfg.learners * sum(cluster.layer_sizes)
        p.last = {"final_test_error": summary["final_test_error"],
                  "compression_rate": summary["mean_rate_overall"],
                  "final_loss": _last_epoch_loss(out_dir / "metrics.csv")}


class _FirstStep(BaseException):
    """Ends a set-up probe at its first step; not an Exception, so nothing
    in the program catches it."""


def probe_setup(p: Pass, name: str, cfg: ExperimentConfig, out_dir: Path) -> None:
    """One ``runner.run`` call stopped as its first step starts: a set-up
    sample without the cost of an epoch."""
    def first_step(cluster):
        raise _FirstStep(perf_counter())

    original = sim.Cluster.sync_step
    sim.Cluster.sync_step = first_step
    p.attempted += 1
    p.probes += 1
    started = perf_counter()
    try:
        runner.run(cfg, out_dir)
        p.fail(f"{name} set-up probe: run() returned without a step")
    except _FirstStep as stop:
        p.setup_s.append(stop.args[0] - started)
    except Exception:
        traceback.print_exc()
        p.fail(f"{name} set-up probe raised")
    finally:
        sim.Cluster.sync_step = original


class RoundTrip:
    """The codec-rt step: every layer through pack -> encode -> decode ->
    unpack, each looked up on the package at call time. The residues carry
    from step to step."""

    def __init__(self, seed: int):
        """Seeded heavy-tailed (Student-t, 3 dof) gradient sets, fresh
        residues and bin configs."""
        rng = np.random.default_rng(seed)
        self.grads = [[adacomp.GradientVector(li, rng.standard_t(3, size=n).astype(np.float32))
                       for li, (n, _) in enumerate(CODEC_LAYERS)] for _ in range(CODEC_POOL)]
        self.states = [adacomp.CodecState.zeros(n) for n, _ in CODEC_LAYERS]
        self.cfgs = [adacomp.BinConfig(bin_size=b) for _, b in CODEC_LAYERS]
        self.done = 0

    def step(self) -> list:
        grads = self.grads[self.done % CODEC_POOL]
        self.done += 1
        out = []
        for li, (gv, cfg) in enumerate(zip(grads, self.cfgs)):
            packed, self.states[li] = adacomp.pack(self.states[li], gv, cfg)
            encoded = adacomp.encode(packed)
            decoded = adacomp.decode(encoded)
            out.append((packed, encoded, decoded, adacomp.unpack(decoded)))
        return out


def expected_dense(p) -> np.ndarray:
    """Dense form of a pack built straight from its entries."""
    counts = np.fromiter((len(b) for b in p.bins), dtype=np.int64, count=p.num_bins)
    entries = [e for b in p.bins for e in b]
    index = (np.fromiter((i for i, _ in entries), dtype=np.int64, count=len(entries))
             + np.repeat(np.arange(p.num_bins, dtype=np.int64) * p.bin_size, counts))
    codes = np.fromiter((c for _, c in entries), dtype=np.float32, count=len(entries))
    out = np.zeros(p.element_count, dtype=np.float32)
    out[index] = codes * np.float32(p.scale)
    return out


def codec_once(p: Pass, rt: RoundTrip) -> None:
    """One checked round trip: decode(encode(p)) must equal p and unpack
    must give exactly the packed values."""
    p.instrument(rt, "step", "bench.round_trip")
    first = len(p.tracer.spans)
    p.attempted += 1
    try:
        layers = rt.step()
    except Exception:
        traceback.print_exc()
        p.fail(f"codec-rt step {p.attempted} raised")
        return
    finally:
        p.tracer.restore()
    span = p.tracer.spans[first]
    p.step_ms.append((span[2] - span[1]) / 1e6)
    p.wall_s += (span[2] - span[1]) / 1e9   # nothing runs between round trips
    p.steps += 1
    problems = []
    for packed, encoded, decoded, dense in layers:
        if decoded != packed:
            problems.append(f"decode(encode(p)) != p for layer {packed.layer_id}")
        elif not np.array_equal(dense.values, expected_dense(packed)):
            problems.append(f"unpack differs from the packed values for layer {packed.layer_id}")
        p.bits += encoded.declared_bits
        p.elements += packed.element_count
    if problems:
        p.fail(f"codec-rt step {p.attempted}: " + "; ".join(problems))


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload for ``seconds``; returns the result object whose
    JSON form is the benchmark's last output line. Untraced, it also holds
    a ``report`` of every end-to-end metric, None where one does not apply.

    With ``trace`` the repetitions alternate between an untraced and a
    traced pass, so warm-up does not bias the tracing overhead and the
    traced metrics.csv can be checked against the untraced one."""
    start = perf_counter()
    deadline = start + seconds
    training = name in TRAINING
    base = Pass(traced=False)
    passes = [base, Pass(traced=True)] if trace else [base]
    if training:
        cfg = train_config(name, seed)
        once = partial(train_once, name=name, cfg=cfg, out_dir=out_dir)
    else:
        for _ in range(CODEC_SETUPS):
            started = perf_counter()
            rt = RoundTrip(seed)
            base.setup_s.append(perf_counter() - started)
        once = partial(codec_once, rt=rt)
    longest = 0.0
    for i in count():
        started = perf_counter()
        once(passes[i % len(passes)])
        longest = max(longest, perf_counter() - started)
        if training and not trace:
            # keep the set-up samples on schedule, SETUP_SAMPLES by the deadline
            while len(base.setup_s) < SETUP_SAMPLES * min(1, (perf_counter() - start) / seconds):
                probe_setup(base, name, cfg, out_dir / "setup-probe")
        if i + 1 >= len(passes) and perf_counter() + longest > deadline:
            break
    digests = [d for p in passes for d in p.digests]
    if digests:
        # every run of one workload, code and seed, traced or not, must
        # write the same metrics.csv bytes; a run off the majority fails
        common, _ = Counter(digests).most_common(1)[0]
        for d in digests:
            if d != common:
                base.fail(f"{name}: metrics.csv sha256 {d[:12]} differs from {common[:12]}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    if not all(p.step_ms for p in passes):
        return result

    p50 = statistics.median(base.step_ms)
    if trace:
        layered = passes[1]
        values = layered.layer_metrics()
        values["trace.overhead_pct"] = 100.0 * (statistics.median(layered.step_ms) / p50 - 1.0)
        layered.tracer.write(out_dir / "spans.jsonl")
        result["metrics"] = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER_UNITS.items()}
        return result
    values = {"step_ms_p50": p50,
              "step_ms_p90": nearest_rank(base.step_ms, 90),
              "wall_ms_per_step": 1e3 * base.wall_s / base.steps,
              "setup_s": statistics.median(base.setup_s),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    result["metrics"] = {m: {"value": values[m], "unit": u} for m, u in END_TO_END_UNITS.items()}
    result["report"] = {
        **{m: (values[m], u) for m, u in END_TO_END_UNITS.items()},
        "train_samples_per_s": (GLOBAL_BATCH * base.steps / base.wall_s if training else None,
                                "samples/s"),
        "compression_rate": (base.last["compression_rate"] if training
                             else 32.0 * base.elements / base.bits, "x"),
        "final_test_error": (base.last.get("final_test_error"), "share"),
        "final_loss": (base.last.get("final_loss"), "nats"),
        "error_rate": (failed / attempted, "share"),
        "timed_steps": (len(base.step_ms), "count"),
        "runs": (base.attempted - base.probes, "count"),
        "setup_probes": (base.probes, "count"),
    }
    return result
