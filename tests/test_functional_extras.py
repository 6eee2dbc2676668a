"""Additional functional-mode tests: disagreement metric, epochs, seeds."""

from repro.composite import CompositeConfig, CompositePredictor
from repro.harness.functional import run_functional
from repro.harness.presets import ExperimentScale
from repro.workloads import generate_trace


def _composite(per=256, **overrides):
    from dataclasses import replace

    config = CompositeConfig(epoch_instructions=1000).homogeneous(per).plain()
    return CompositePredictor(replace(config, **overrides) if overrides else config)


class TestDisagreement:
    def test_paper_claim_confident_components_rarely_disagree(self):
        """Section V-A: highly-confident predictors disagree <0.03% of
        the time.  Functional mode (no in-flight store races) is the
        right setting for this number; we allow an order of magnitude
        of slack over the paper's 0.03%."""
        total_multi = 0
        total_disagree = 0
        for wl in ("coremark", "linpack", "mpeg2dec", "sunspider"):
            result = run_functional(
                generate_trace(wl, 15_000), _composite(1024)
            )
            total_multi += result.multi_confident_loads
            total_disagree += result.disagreements
        assert total_multi > 500  # the metric is meaningful
        assert total_disagree / total_multi < 0.01

    def test_disagreement_fraction_bounds(self):
        result = run_functional(generate_trace("v8", 8000), _composite())
        assert 0.0 <= result.disagreement_fraction <= 1.0
        assert result.disagreements <= result.multi_confident_loads


class TestEpochTicks:
    def test_tick_epochs_false_skips_epoch_machinery(self):
        predictor = _composite(accuracy_monitor="m-am")
        fired = []
        original = predictor.monitor.end_epoch
        predictor.monitor.end_epoch = lambda: fired.append(1) or original()
        run_functional(generate_trace("coremark", 5000), predictor,
                       tick_epochs=False)
        assert fired == []

    def test_tick_epochs_true_fires(self):
        predictor = _composite(accuracy_monitor="m-am")
        fired = []
        original = predictor.monitor.end_epoch
        predictor.monitor.end_epoch = lambda: fired.append(1) or original()
        run_functional(generate_trace("coremark", 5000), predictor)
        assert len(fired) == 5  # 5000 instructions / 1000-epoch


class TestScaleSeeds:
    def test_runs_cross_product(self):
        scale = ExperimentScale(
            "t", workloads=("a", "b"), trace_length=1000,
            seed=0, extra_seeds=(1, 2),
        )
        assert scale.seeds == (0, 1, 2)
        assert len(scale.runs()) == 6
        assert ("b", 2) in scale.runs()

    def test_default_single_seed(self):
        scale = ExperimentScale("t", ("a",), 1000)
        assert scale.runs() == (("a", 0),)

    def test_seed_changes_functional_results(self):
        a = run_functional(generate_trace("coremark", 6000, seed=0),
                           _composite())
        b = run_functional(generate_trace("coremark", 6000, seed=1),
                           _composite())
        assert a.predicted_loads != b.predicted_loads


class TestClearCaches:
    def test_clear_caches_empties_the_vector_trace_memo(self):
        from repro.harness import functional_vec, runner

        run_functional(generate_trace("coremark", 3000), _composite(),
                       backend="vector")
        assert functional_vec._TRACE_CACHE, "vector run memoized nothing"
        runner.clear_caches()
        assert functional_vec._TRACE_CACHE == {}
