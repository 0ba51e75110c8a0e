"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import batch  # noqa: E402
import serve_mixed  # noqa: E402
from spans import SpanRecorder, install_layer_wrappers, self_times  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        # id, parent, trace, name, start, end
        (1, None, "t", "root", 0, 100),
        (2, 1, "t", "a", 10, 30),
        (3, 1, "t", "b", 20, 50),    # overlaps a: the union counts once
        (4, 1, "t", "c", 90, 120),   # only [90, 100) lies inside root
        (5, 2, "t", "d", 12, 18),
    ]
    assert self_times(spans) == {1: 100 - 40 - 10, 2: 20 - 6, 3: 30,
                                 4: 30, 5: 6}


def test_recorder_self_time_matches_the_span_arithmetic():
    recorder = SpanRecorder()

    def leaf():
        return sum(range(2000))

    def middle():
        return leaf() + leaf()

    def outer():
        return middle() + leaf()

    leaf = recorder.wrap("leaf", leaf)
    middle = recorder.wrap("middle", middle)
    outer = recorder.wrap("outer", recorder.wrap("outer", outer))
    for _ in range(3):
        outer()
    stats = recorder.stats()
    # The doubled "outer" wrapper folds into one span per call.
    assert {n: s["calls"] for n, s in stats.items()} == {
        "outer": 3, "middle": 3, "leaf": 9}
    spans = recorder.spans()
    by_span = self_times(spans)
    for name, doc in stats.items():
        assert doc["self_ns"] == sum(by_span[s[0]] for s in spans
                                     if s[3] == name)


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(list(range(100)), 95)        # 5 samples beyond
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)        # 9 samples beyond
    assert percentile(list(range(1000)), 99) == 989
    assert percentile(list(range(1, 21)), 50) == 10
    p, value = tail_percentile(list(range(62)))
    assert p == 83 and value == 51              # 10 samples beyond
    assert tail_percentile(list(range(5000))) == (99, 4949)


def test_times_are_scaled_to_the_reference_host_speed():
    slow = [2 * batch.CALIBRATION_REFERENCE_S] * 5
    assert batch.host_speed(slow) == 0.5
    p = batch.Pass(wall_s=0.0, sim_ns=0, hosts=1, submit_s=[4.0],
                   read_s=[2.0], attempted=2, failed=0, checks=[],
                   digest="", speed=0.5).at_reference_speed(10.0)
    assert (p.wall_s, p.submit_s, p.read_s) == (5.0, [2.0], [1.0])


def test_every_block_of_a_deck_carries_the_same_mix():
    import random
    from collections import Counter

    blocks = math.gcd(*serve_mixed.MIX.values())
    size = sum(serve_mixed.MIX.values()) // blocks
    per_block = Counter({kind: n // blocks
                         for kind, n in serve_mixed.MIX.items()})
    decks = [serve_mixed.deck(serve_mixed.MIX, random.Random(seed))
             for seed in (1, 2)]
    assert decks[0] != decks[1]
    for requests in decks:
        assert Counter(requests) == Counter(serve_mixed.MIX)
        for start in range(0, len(requests), size):
            assert Counter(requests[start:start + size]) == per_block


def test_forced_failed_request_raises_error_ratio(tmp_path):
    mix = {"repeat": 6, "fresh": 2, "invoice": 4, "usage": 2}
    rnd = serve_mixed.run_round(0, tmp_path, setups=1, mix=mix,
                                force_fail=2)
    assert rnd.attempted == 2 * sum(mix.values())
    assert rnd.failed == 2
    assert rnd.failed / rnd.attempted > 0
    verdicts = {name: ok for name, ok, _detail in rnd.checks}
    assert verdicts.pop("every response is 2xx") is False
    assert all(verdicts.values()), rnd.checks


def _traced_counts(run):
    recorder = SpanRecorder()
    uninstall = install_layer_wrappers(recorder)
    try:
        out = run()
    finally:
        uninstall()
    return out, {name: doc["calls"] for name, doc in recorder.stats().items()}


def test_traced_and_untraced_figure_digests_are_equal():
    plain = batch.figures_pass(["fig4"], "")
    traced, counts = _traced_counts(lambda: batch.figures_pass(["fig4"], ""))
    again, counts_again = _traced_counts(
        lambda: batch.figures_pass(["fig4"], ""))
    assert plain.digest == traced.digest == again.digest
    assert counts == counts_again
    assert counts["runner.run_spec"] == plain.counts["points"]
    assert counts["acct.on_tick"] == plain.counts["ticks"]
    assert counts["engine.run"] > 0


def test_traced_and_untraced_fleet_digests_are_equal():
    from repro.fleet import FleetSpec, run_fleet

    fleet = FleetSpec(hosts=40, guests=2, prevalence=0.2, scale=0.02,
                      seed=3, sync_mix=((0, 0.8), (2_000_000, 0.2)))
    plain = batch.fleet_digest(run_fleet(fleet).report())
    traced, counts = _traced_counts(
        lambda: batch.fleet_digest(run_fleet(fleet).report()))
    assert plain == traced
    assert counts["fleet.expand"] == 1
    assert counts["runner.run_spec"] > 0


def test_uninstall_restores_every_entry_point():
    from spans import layer_targets

    before = [owner.__dict__[attr] for owner, attr, _n, _t
              in layer_targets()]
    uninstall = install_layer_wrappers(SpanRecorder())
    uninstall()
    after = [owner.__dict__[attr] for owner, attr, _n, _t in layer_targets()]
    assert all(a is b for a, b in zip(before, after))
