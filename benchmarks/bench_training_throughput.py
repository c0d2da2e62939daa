"""Training throughput: the vectorised fast path vs the seed implementation.

Times one ``MGAModel.fit`` epoch (DAE pre-training excluded) in four
configurations over the same OpenMP tuning dataset:

* ``seed``  — the frozen snapshot of the original implementation
  (``_seed_baseline``): float64, reallocating gradient accumulation,
  per-gate GRU matmuls with two ``concat`` copies per step, ``np.add.at``
  scatters, and block-diagonal batches rebuilt + frozen modalities
  re-encoded for every minibatch of every epoch.
* ``naive`` — the new engine with every fast-path switch off (float64,
  ``np.add.at``, no batch/frozen caching): isolates how much comes from the
  engine itself (in-place grads, iterative backward, fused GRU) vs the
  caching/layout/dtype switches.
* ``fast``  — the eager fast path: float32, sorted-segment (``reduceat``)
  message passing over cached CSR edge layouts, cached block-diagonal
  batches and precomputed frozen-modality features, tape replay off.
* ``tape``  — ``fast`` plus tape record/replay (the default training
  configuration): each minibatch's backward graph is compiled once and
  replayed from arena buffers on every later visit.  A persistent
  :class:`~repro.nn.TapeRunner` is shared across the warmup and timed fits
  so the timed epochs are pure replay; the bench asserts the tape loss
  history is bit-identical to the eager ``fast`` history.

Writes ``BENCH_training_throughput.json`` at the repository root via the
shared harness.  Run directly (``python benchmarks/bench_training_throughput.py
[--quick]``) or through pytest.
"""

import argparse
import json
import time

import numpy as np

from repro.core.mga import MGAModel
from repro.datasets.openmp import OpenMPDatasetBuilder
from repro.kernels import registry
from repro.nn import TapeRunner, runtime as nn_runtime, use_fast_segment_ops
from repro.simulator.microarch import SKYLAKE_4114
from repro.tuners.space import thread_search_space

from _harness import time_call, write_bench_json
from _seed_baseline import SeedMGATrainer


def _build_dataset(num_kernels: int, num_inputs: int):
    space = thread_search_space(SKYLAKE_4114)
    builder = OpenMPDatasetBuilder(SKYLAKE_4114, list(space), seed=0)
    dataset = builder.build(registry.openmp_kernels()[:num_kernels],
                            np.geomspace(1e5, 1e8, num_inputs))
    graphs = [s.graph for s in dataset.samples]
    vectors = np.stack([s.vector for s in dataset.samples])
    extra = dataset.counter_matrix()
    labels = dataset.labels()
    return dataset, graphs, vectors, extra, labels


def _seed_epoch_seconds(data, epochs: int, repeats: int) -> float:
    """Epoch time of the frozen seed implementation on the same dataset."""
    dataset, graphs, vectors, extra, labels = data
    # the frozen modalities are pre-fitted exactly as in the other configs;
    # the seed loop re-encodes / re-scales them per minibatch regardless
    frozen = MGAModel(graph_feature_dim=graphs[0].feature_dim,
                      vector_dim=vectors.shape[1], extra_dim=extra.shape[1],
                      num_classes=dataset.num_configs, seed=0, dtype="float64")
    frozen.dae.fit(vectors, epochs=2)
    frozen.extra_scaler.fit(frozen.prepare_extra(extra))
    trainer = SeedMGATrainer(graphs[0].feature_dim, dataset.num_configs,
                             frozen.dae, frozen.extra_scaler,
                             frozen.prepare_extra, seed=0)
    timing = time_call(
        lambda: trainer.fit(graphs, vectors, extra, labels, epochs=epochs),
        repeats=repeats, warmup=1)
    return timing["best_s"] / epochs


def _epoch_seconds(model: MGAModel, data, epochs: int, fast_ops: bool,
                   cache_batches: bool, precompute_frozen: bool,
                   repeats: int) -> float:
    _, graphs, vectors, extra, labels = data
    model.dae.fit(vectors, epochs=2)
    model.extra_scaler.fit(model.prepare_extra(extra))

    def fit_once():
        model.fit(graphs, vectors, extra, labels, epochs=epochs,
                  dae_epochs=0, cache_batches=cache_batches,
                  precompute_frozen=precompute_frozen, tape=False)

    with use_fast_segment_ops(fast_ops):
        timing = time_call(fit_once, repeats=repeats, warmup=1)
    return timing["best_s"] / epochs


def _paired_fast_tape(data, epochs: int, repeats: int, model_kwargs: dict):
    """Eager fast path vs tape replay, timed as interleaved pairs.

    Single-core CI boxes drift by tens of percent on multi-second
    timescales, and sequential best-of-N blocks absorb that drift into
    whichever configuration happened to run during the quiet window.
    Alternating the two fits and taking the median of per-pair ratios
    cancels the drift.  The tape runner (plan cache + gradient arena)
    persists across all fits, so every timed tape epoch is pure replay;
    each fit's loss history is asserted bit-identical between the two
    configurations.
    """
    _, graphs, vectors, extra, labels = data
    models = {}
    for name in ("fast", "tape"):
        m = MGAModel(dtype="float32", **model_kwargs)
        m.dae.fit(vectors, epochs=2)
        m.extra_scaler.fit(m.prepare_extra(extra))
        models[name] = m
    runner = TapeRunner()
    histories = {"fast": [], "tape": []}
    times = {"fast": [], "tape": []}

    def fit_once(name: str, timed: bool) -> None:
        start = time.perf_counter()
        history = models[name].fit(
            graphs, vectors, extra, labels, epochs=epochs, dae_epochs=0,
            cache_batches=True, precompute_frozen=True,
            tape=(name == "tape"),
            tape_runner=runner if name == "tape" else None)
        elapsed = time.perf_counter() - start
        histories[name].append(history["loss"])
        if timed:
            times[name].append(elapsed)

    with use_fast_segment_ops(True):
        for name in ("fast", "tape"):
            fit_once(name, timed=False)  # warmup; records the tape plans
        for _ in range(3 * repeats):
            for name in ("fast", "tape"):
                fit_once(name, timed=True)
    if histories["tape"] != histories["fast"]:
        raise AssertionError(
            "tape replay diverged from the eager fast path: loss histories "
            "must be bit-identical")
    ratios = sorted(f / t for f, t in zip(times["fast"], times["tape"]))
    return {
        "fast_s": min(times["fast"]) / epochs,
        "tape_s": min(times["tape"]) / epochs,
        "tape_speedup_vs_eager": ratios[len(ratios) // 2],
        "num_parameters": models["fast"].num_parameters(),
    }


def run(quick: bool = False) -> dict:
    num_kernels, num_inputs = (6, 3) if quick else (12, 4)
    epochs = 2 if quick else 4
    repeats = 2 if quick else 3
    data = _build_dataset(num_kernels, num_inputs)
    dataset, graphs, vectors, extra, labels = data
    model_kwargs = dict(
        graph_feature_dim=graphs[0].feature_dim, vector_dim=vectors.shape[1],
        extra_dim=extra.shape[1], num_classes=dataset.num_configs, seed=0)

    seed_s = _seed_epoch_seconds(data, epochs, repeats)

    naive_model = MGAModel(dtype="float64", **model_kwargs)
    naive_s = _epoch_seconds(naive_model, data, epochs, fast_ops=False,
                             cache_batches=False, precompute_frozen=False,
                             repeats=repeats)

    paired = _paired_fast_tape(data, epochs, repeats, model_kwargs)
    fast_s, tape_s = paired["fast_s"], paired["tape_s"]
    tape_speedup = paired["tape_speedup_vs_eager"]

    n = len(labels)
    result = {
        "quick": quick,
        # active array backend behind repro.nn.backend.xp (numpy or
        # checked)
        "backend": nn_runtime.config().backend,
        "num_samples": n,
        "num_parameters": paired["num_parameters"],
        "epoch_seconds": {
            "seed": seed_s,
            "naive": naive_s,
            "fast": fast_s,
            "tape": tape_s,
        },
        "samples_per_second": {
            "seed": n / seed_s,
            "naive": n / naive_s,
            "fast": n / fast_s,
            "tape": n / tape_s,
        },
        "speedup_vs_seed": seed_s / tape_s,
        "speedup_vs_naive": naive_s / tape_s,
        "tape_speedup_vs_eager": tape_speedup,
        # dimensionless ratios survive hardware changes; the CI regression
        # gate diffs them against benchmarks/baselines/ with a tolerance
        "gate_metrics": {
            "training_speedup_vs_seed": seed_s / tape_s,
            "training_speedup_vs_naive": naive_s / tape_s,
            "tape_speedup_vs_eager": tape_speedup,
        },
    }
    write_bench_json("training_throughput", result)
    return result


def test_training_throughput(once, capsys):
    result = once(run, quick=True)
    with capsys.disabled():
        print("\n" + json.dumps(
            {k: result[k] for k in ("epoch_seconds", "speedup_vs_seed",
                                    "speedup_vs_naive",
                                    "tape_speedup_vs_eager")}, indent=2))
    # quick mode on noisy CI hardware: require a conservative margin of the
    # full-size ≥3x-vs-seed target.  Tape replay measures 1.10-1.35x over
    # the eager fast path on this single-core box depending on allocator
    # pressure (the bs=32 step is ~90% raw array math, so the replay win is
    # bounded by the eliminated graph/allocator overhead); the paired-median
    # statistic keeps the floor check stable
    assert result["speedup_vs_seed"] >= 2.0
    assert result["tape_speedup_vs_eager"] >= 1.02


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small dataset / few epochs (CI mode)")
    args = parser.parse_args()
    summary = run(quick=args.quick)
    print(json.dumps(summary, indent=2))
    if not args.quick and summary["speedup_vs_seed"] < 3.0:
        raise SystemExit("training fast path regressed below 3x vs seed")
