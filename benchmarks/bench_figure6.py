"""Figure 6: associativity sweep of the 2 KiB filter cache, Parsec."""

from conftest import run_once

from repro.experiments.figures import figure6


def test_figure6_filter_cache_associativity_sweep(benchmark, options):
    result = run_once(benchmark, figure6, **options)
    print("\n" + result.to_markdown())
    # Direct-mapped filter caches suffer conflict misses; 4-way is within a
    # small margin of fully associative (the paper picks 4-way).
    assert result.geomeans["4-way"] <= result.geomeans["1-way"] + 0.02
    assert abs(result.geomeans["4-way"] - result.geomeans["32-way"]) < 0.15
