"""Unified experiment pipeline: specs, registry, stage cache, CLI, parity."""

import json
import os

import numpy as np
import pytest

from repro.pipeline import (
    EXPERIMENT_MODULES,
    ExperimentSpec,
    Report,
    experiment_names,
    get_experiment,
    get_stage_impl,
    load_all,
    run_experiment,
)
from repro.pipeline.cli import main as cli_main

ALL_EXPERIMENTS = ["fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                   "table3", "tuning_time"]

#: tiny-but-real fig4 configuration reused by several tests
FIG4_SMALL = dict(max_kernels=4, num_inputs=2, folds=2, epochs=2, budget=3)


def _deep_equal(a, b, path="result"):
    """Strict structural + bitwise equality of two experiment results."""
    assert type(a) is type(b), (path, type(a), type(b))
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for k in a:
            _deep_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _deep_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), path
    elif hasattr(a, "speedups") and hasattr(a, "name"):    # ApproachResult
        assert a.name == b.name, path
        assert np.array_equal(a.speedups, b.speedups), path
    elif a.__class__.__name__.endswith("Dataset"):
        assert len(a.samples) == len(b.samples), path
    else:
        assert a == b, (path, a, b)


# ----------------------------------------------------------------------
# registry + spec round-trips
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_figure_and_table_is_registered(self):
        assert experiment_names() == ALL_EXPERIMENTS
        entries = load_all()
        assert sorted(entries) == sorted(ALL_EXPERIMENTS)

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_spec_validates_and_impls_resolve(self, name):
        spec = get_experiment(name).spec
        spec.validate()
        assert spec.stages[-1].kind == Report.kind
        for stage in spec.stages:
            assert callable(get_stage_impl(stage.impl))

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_spec_config_round_trip(self, name):
        spec = get_experiment(name).spec
        # through real JSON, as the CLI `describe --json` output would be
        config = json.loads(json.dumps(spec.to_config()))
        restored = ExperimentSpec.from_config(config)
        assert restored == spec
        restored.validate()

    def test_unknown_experiment_and_parameter_errors(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig42")
        with pytest.raises(TypeError, match="unknown parameter"):
            run_experiment("fig8", overrides={"bogus": 1}, cache_dir=None)

    def test_registry_module_table_is_importable(self):
        for name, module in EXPERIMENT_MODULES.items():
            assert module.startswith("repro.evaluation.experiments.")


# ----------------------------------------------------------------------
# stage cache behaviour
# ----------------------------------------------------------------------
class TestStageCache:
    def test_hit_miss_heal_and_identical_results(self, tmp_path):
        cache = str(tmp_path / "stages")
        r1 = run_experiment("fig4", overrides=FIG4_SMALL, cache_dir=cache)
        assert [s.cache for s in r1.stages] == ["miss", "miss", "miss",
                                                "uncached"]
        r2 = run_experiment("fig4", overrides=FIG4_SMALL, cache_dir=cache)
        assert [s.cache for s in r2.stages] == ["hit", "hit", "hit",
                                                "uncached"]
        _deep_equal(r1.result, r2.result)

        # training-only change: dataset + search stages are reused
        r3 = run_experiment("fig4", overrides=dict(FIG4_SMALL, epochs=3),
                            cache_dir=cache)
        assert [s.cache for s in r3.stages] == ["hit", "hit", "miss",
                                                "uncached"]

        # identical recipe across experiments: fig1 reuses fig4's dataset
        r4 = run_experiment("fig1",
                            overrides=dict(max_kernels=4, num_inputs=2),
                            cache_dir=cache)
        assert r4.stages[0].cache == "hit"
        assert r4.stages[0].key == r1.stages[0].key

        # corrupted payload -> integrity check fails -> miss + heal
        key = r1.stages[0].key
        payload = os.path.join(cache, key[:2], key, "arrays.npz")
        with open(payload, "r+b") as fh:
            fh.seek(64)
            fh.write(b"\xde\xad\xbe\xef")
        r5 = run_experiment("fig4", overrides=FIG4_SMALL, cache_dir=cache)
        assert [s.cache for s in r5.stages] == ["miss", "hit", "hit",
                                                "uncached"]
        _deep_equal(r1.result, r5.result)
        r6 = run_experiment("fig4", overrides=FIG4_SMALL, cache_dir=cache)
        assert r6.stages[0].cache == "hit"

    def test_cached_model_artifact_round_trips(self, tmp_path):
        cache = str(tmp_path / "stages")
        kw = dict(budget=3, train_kernels=3, train_inputs=2, epochs=2)
        r1 = run_experiment("tuning_time", overrides=kw, cache_dir=cache)
        r2 = run_experiment("tuning_time", overrides=kw, cache_dir=cache)
        assert [s.cache for s in r2.stages] == ["hit", "hit", "hit",
                                                "uncached"]
        for name in ("OpenTuner", "ytopt", "BLISS"):
            assert r1.result[name] == r2.result[name]
        # the cached tuner must predict identically (wall time may differ)
        m1, m2 = dict(r1.result["MGA"]), dict(r2.result["MGA"])
        m1.pop("inference_wall_seconds")
        m2.pop("inference_wall_seconds")
        assert m1 == m2

    def test_codec_preserves_numpy_scalar_types(self):
        """np.float64 subclasses float; it must still round-trip typed."""
        from repro.pipeline.codec import decode_value, encode_value

        payload = {"f64": np.float64(1.5), "f32": np.float32(0.25),
                   "i64": np.int64(7), "b": np.bool_(True),
                   "plain": 1.5, "n": None}
        tree, arrays = encode_value(payload)
        decoded = decode_value(json.loads(json.dumps(tree)), arrays)
        for key in payload:
            assert type(decoded[key]) is type(payload[key]), key
            assert decoded[key] == payload[key] or (
                decoded[key] is None and payload[key] is None), key

    def test_cache_disabled_runs_everything(self):
        r = run_experiment("fig8", cache_dir=None)
        assert [s.cache for s in r.stages] == ["disabled", "uncached"]
        assert r.result["predicted_time"] <= r.result["default_time"]


# ----------------------------------------------------------------------
# byte-identity with the pre-pipeline experiment code
# ----------------------------------------------------------------------
class TestLegacyParity:
    def test_search_stage_matches_serial_tune_loop(self, small_openmp_dataset):
        """The campaign-backed search equals the old hand-rolled loop."""
        from repro.evaluation.experiments.common import search_tuner_speedups
        from repro.tuners import SearchSpace, YtoptTuner

        ds = small_openmp_dataset
        val_idx = list(range(len(ds)))
        new = search_tuner_speedups(ds, val_idx, YtoptTuner, budget=4, seed=3)

        # the pre-pipeline implementation, verbatim
        space = SearchSpace(ds.configs)
        per_kernel = {}
        for i in val_idx:
            per_kernel.setdefault(ds.samples[i].kernel_uid, []).append(i)
        old = np.zeros(len(val_idx))
        position = {i: pos for pos, i in enumerate(val_idx)}
        for j, (kernel, indices) in enumerate(sorted(per_kernel.items())):
            by_scale = sorted(indices, key=lambda i: ds.samples[i].scale)
            ref_ids = sorted({by_scale[0], by_scale[len(by_scale) // 2],
                              by_scale[-1]})
            ref_times = np.stack([ds.samples[i].times for i in ref_ids])

            def objective(config, _times=ref_times, _space=space):
                column = _times[:, _space.index_of(config)]
                return float(np.exp(np.mean(np.log(np.maximum(column,
                                                              1e-15)))))

            result = YtoptTuner(budget=4, seed=3 + j).tune(objective, space)
            chosen = space.index_of(result.best_config)
            for i in indices:
                old[position[i]] = ds.samples[i].speedup_of(chosen)
        np.testing.assert_array_equal(new, old)

    def test_fig4_pipeline_matches_hand_rolled_flow(self):
        """The fig4 spec == the old build/evaluate_fold/normalize flow, bit
        for bit."""
        from repro.evaluation.experiments.common import (
            build_openmp_dataset,
            evaluate_fold,
            normalized_table,
            select_openmp_kernels,
        )
        from repro.simulator.microarch import COMET_LAKE_8C
        from repro.tuners.space import thread_search_space

        space = thread_search_space(COMET_LAKE_8C)
        specs = select_openmp_kernels(FIG4_SMALL["max_kernels"])
        dataset = build_openmp_dataset(COMET_LAKE_8C, space, specs,
                                       num_inputs=FIG4_SMALL["num_inputs"],
                                       seed=0)
        fold_results = []
        for train_idx, val_idx in dataset.kfold_by_kernel(
                k=FIG4_SMALL["folds"], seed=0):
            fold_results.append(evaluate_fold(
                dataset, train_idx, val_idx, include_search=True,
                epochs=FIG4_SMALL["epochs"], budget=FIG4_SMALL["budget"],
                seed=0))
        old_table = normalized_table(fold_results)

        new = run_experiment("fig4", overrides=FIG4_SMALL,
                             cache_dir=None).result
        assert list(new["normalized"]) == list(old_table)
        for name in old_table:
            assert old_table[name] == new["normalized"][name], name
        for old_fold, new_fold in zip(fold_results, new["fold_results"]):
            assert list(old_fold) == list(new_fold)
            for name in old_fold:
                np.testing.assert_array_equal(old_fold[name].speedups,
                                              new_fold[name].speedups)

    def test_workers_do_not_change_results(self):
        kw = dict(budget=3, train_kernels=3, train_inputs=2, epochs=2)
        serial = run_experiment("tuning_time", overrides=kw, workers=1,
                                cache_dir=None).result
        fanned = run_experiment("tuning_time", overrides=kw, workers=3,
                                cache_dir=None).result
        for name in ("OpenTuner", "ytopt", "BLISS"):
            assert serial[name] == fanned[name], name

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(TypeError, match="unknown parameter"):
            run_experiment("fig1", overrides={"max_loops": 4})


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_list_shows_every_experiment(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in rows] == ALL_EXPERIMENTS
        for row in rows:
            assert row["stages"], row["name"]
            assert all(stage["registered"] for stage in row["stages"])

    def test_describe(self, capsys):
        assert cli_main(["describe", "fig4", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["name"] == "fig4"
        assert {"arch", "epochs", "budget", "seed"} <= set(row["params"])
        assert cli_main(["describe", "nope"]) == 1

    def test_run_twice_hits_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "stages")
        args = ["run", "fig8", "--json", "--cache", cache,
                "--set", "target_bytes=8e6"]
        assert cli_main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli_main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert [s["cache"] for s in first["stages"]] == ["miss", "uncached"]
        assert [s["cache"] for s in second["stages"]] == ["hit", "uncached"]
        assert first["result"] == second["result"]
        assert first["result"]["predicted_time"] <= first["result"]["default_time"]

    def test_run_text_output(self, capsys, tmp_path):
        assert cli_main(["run", "fig8", "--no-cache",
                         "--set", "target_bytes=8e6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out

    def test_bad_override_reports_error(self, capsys):
        assert cli_main(["run", "fig8", "--no-cache", "--set", "bogus=1"]) == 1

    def test_set_accepts_python_style_literals(self):
        from repro.pipeline.cli import _parse_overrides

        parsed = _parse_overrides(["a=False", "b=True", "c=None",
                                   "d=false", "e=3", "f=comet_lake",
                                   "g=[1, 2]"])
        assert parsed == {"a": False, "b": True, "c": None, "d": False,
                          "e": 3, "f": "comet_lake", "g": [1, 2]}

    def test_set_rejects_shape_mismatches(self, capsys):
        # a bare string for a list/bool/numeric parameter is always a typo
        assert cli_main(["run", "table3", "--no-cache",
                         "--set", "include_baselines=Grewe et al."]) == 1
        assert "expects a list" in capsys.readouterr().err
        assert cli_main(["run", "fig4", "--no-cache",
                         "--set", "include_search=no"]) == 1
        assert "expects true/false" in capsys.readouterr().err
        assert cli_main(["run", "fig8", "--no-cache",
                         "--set", "target_bytes=big"]) == 1
        assert "expects a number" in capsys.readouterr().err
        # None-default count parameters reject bare strings too
        assert cli_main(["run", "fig7", "--no-cache",
                         "--set", "max_apps=foo"]) == 1
        assert "expects a number or null" in capsys.readouterr().err

    def test_stale_staging_dirs_are_swept(self, tmp_path):
        import time

        from repro.pipeline.cache import StageCache

        root = tmp_path / "stages"
        stale = root / "ab" / ".staging-123-abcdef"
        fresh = root / "ab" / ".staging-456-fedcba"
        for d in (stale, fresh):
            d.mkdir(parents=True)
        old = time.time() - 7200
        os.utime(stale, (old, old))
        StageCache(root)
        assert not stale.exists()       # orphan of a killed run: swept
        assert fresh.exists()           # recent (possibly active): kept
