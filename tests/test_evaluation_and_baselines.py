"""Metrics, devmap baselines and experiment-runner smoke tests."""

import numpy as np
import pytest

from repro.datasets import DevMapDatasetBuilder
from repro.evaluation import geometric_mean, geomean_speedup, normalized_speedup, speedups_from_times
from repro.evaluation.experiments.common import (
    evaluate_fold,
    normalized_table,
    search_tuner_speedups,
)
from repro.kernels import registry
from repro.pipeline import run_experiment
from repro.simulator.microarch import TAHITI_7970
from repro.tuners import OpenTunerLike
from repro.tuners.devmap_baselines import (
    DeepTuneBaseline,
    GreweBaseline,
    Inst2VecBaseline,
    StaticMappingBaseline,
    XGBoostLikeBaseline,
)


class TestMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.0, 0.0, 8.0]) == pytest.approx(4.0)  # ignores 0
        assert geometric_mean([]) == 0.0

    def test_speedups_from_times(self):
        sp = speedups_from_times([2.0, 3.0], [1.0, 6.0])
        np.testing.assert_allclose(sp, [2.0, 0.5])
        with pytest.raises(ValueError):
            speedups_from_times([1.0], [1.0, 2.0])

    def test_geomean_speedup_and_normalisation(self):
        assert geomean_speedup([4.0, 4.0], [2.0, 1.0]) == pytest.approx(
            np.sqrt(2.0 * 4.0))
        assert normalized_speedup(3.0, 4.0) == pytest.approx(0.75)
        assert normalized_speedup(3.0, 0.0) == 0.0


class TestDevmapBaselines:
    @pytest.fixture(scope="class")
    def devmap(self, extractor):
        specs = registry.opencl_kernels()[:18]
        return DevMapDatasetBuilder(TAHITI_7970, extractor=extractor,
                                    seed=2).build(specs, points_per_kernel=3)

    @pytest.mark.parametrize("baseline_cls", [StaticMappingBaseline,
                                              GreweBaseline, DeepTuneBaseline,
                                              Inst2VecBaseline,
                                              XGBoostLikeBaseline])
    def test_baseline_fit_predict_interface(self, devmap, baseline_cls):
        idx = list(range(len(devmap)))
        train, val = idx[: int(0.8 * len(idx))], idx[int(0.8 * len(idx)):]
        baseline = baseline_cls()
        if isinstance(baseline, (DeepTuneBaseline, Inst2VecBaseline)):
            baseline.epochs = 5
        baseline.fit(devmap, train)
        preds = baseline.predict(devmap, val)
        assert preds.shape == (len(val),)
        assert set(np.unique(preds)) <= {0, 1}

    def test_static_mapping_predicts_majority(self, devmap):
        baseline = StaticMappingBaseline().fit(devmap)
        labels = devmap.labels()
        majority = int(np.bincount(labels).argmax())
        preds = baseline.predict(devmap, list(range(len(devmap))))
        assert np.all(preds == majority)


class TestExperimentRunners:
    @pytest.fixture(scope="class")
    def fig1_run(self):
        return run_experiment("fig1", overrides={"max_kernels": 6,
                                                 "num_inputs": 4})

    def test_fig1a_has_interior_structure(self, fig1_run):
        times = fig1_run.result["fig1a"]
        assert len(times) == 8
        assert all(t > 0 for t in times.values())
        # more threads is not monotonically better at this working set
        assert min(times, key=times.get) != 1

    def test_fig1b_small(self, fig1_run):
        result = fig1_run.result["fig1b"]
        assert 0.0 <= result["percent_non_default"] <= 100.0
        assert sum(result["histogram"].values()) == result["num_combinations"]
        assert "Figure 1a" in fig1_run.text and "Figure 1b" in fig1_run.text

    def test_fig8_predicted_config_improves_time_and_counters(self):
        run = run_experiment("fig8")
        result = run.result
        assert result["predicted_time"] <= result["default_time"]
        norm = result["normalized_counters"]
        # cache behaviour should stay in the same ballpark under the tuned
        # config (the paper reports reductions; our analytic cache model only
        # partially reproduces that, see EXPERIMENTS.md)
        assert norm["PAPI_L1_DCM"][0] <= norm["PAPI_L1_DCM"][1] * 1.2
        assert norm["PAPI_L3_LDM"][0] <= norm["PAPI_L3_LDM"][1] * 1.2
        assert "Figure 8" in run.text

    def test_search_tuner_speedups_shape(self, small_openmp_dataset):
        ds = small_openmp_dataset
        val_idx = list(range(0, len(ds), 3))
        sp = search_tuner_speedups(ds, val_idx, OpenTunerLike, budget=4, seed=0)
        assert sp.shape == (len(val_idx),)
        assert np.all(sp > 0)

    def test_evaluate_fold_and_normalized_table(self, small_openmp_dataset):
        ds = small_openmp_dataset
        train_idx, val_idx = ds.kfold_by_kernel(k=4, seed=1)[0]
        fold = evaluate_fold(ds, train_idx, val_idx, include_search=False,
                             include_dl=("MGA",), epochs=6, seed=0)
        assert {"Default", "MGA", "Oracle"} <= set(fold)
        table = normalized_table([fold])
        assert table["Oracle"][0] == pytest.approx(1.0)
        assert 0.0 < table["MGA"][0] <= 1.05

    def test_tuning_time_comparison_shape(self):
        run = run_experiment("tuning_time", overrides={
            "budget": 4, "train_kernels": 4, "train_inputs": 2, "epochs": 3})
        result = run.result
        assert {"MGA", "ytopt", "OpenTuner", "BLISS"} <= set(result)
        # MGA needs only the profiling executions; search tuners need `budget`
        assert result["MGA"]["kernel_executions"] == 2.0
        for name in ("ytopt", "OpenTuner", "BLISS"):
            assert result[name]["kernel_executions"] >= 4
            assert (result[name]["simulated_tuning_seconds"]
                    > result["MGA"]["simulated_tuning_seconds"])
        assert "Tuning-cost" in run.text
