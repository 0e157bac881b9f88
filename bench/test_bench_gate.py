"""Self-test of the benchmark: the gate must catch a wrong answer, and a
traced pass must wrap every target and report every per-layer metric."""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
from probe import PERIOD_S, QUIET_S, Probe  # noqa: E402

SEARCH_D1 = ["search", "--curve", "d1", "--height", "13", "--json-only"]
SEARCH_X = ["search", "--curve", "x", "--height", "2", "--json-only"]
FAMILY = ["family", "verify", "--t", "-4/7", "--json-only"]


def _altered(result, old, new):
    changed = dict(result)
    changed["stdout"] = result["stdout"].replace(old, new)
    assert changed["stdout"] != result["stdout"]
    return changed


def test_gate_accepts_correct_answers():
    reply = run.run_child([SEARCH_D1, SEARCH_X, FAMILY])
    attempted, failed, answers, errors = gate.tally(reply["results"])
    assert (attempted, failed, errors) == (3, 0, [])
    assert answers[0]["points"] == sorted(gate.SEARCH_POINTS["d1"])


def test_dropped_search_point_is_a_failed_operation():
    results = run.run_child([SEARCH_D1, SEARCH_X])["results"]
    dropped = '{"chart": "affine", "u": "-4/13", "v": "57/2197"}\n'
    results[0] = _altered(results[0], dropped, "")
    attempted, failed, _, errors = gate.tally(results)
    assert (attempted, failed) == (2, 1)
    assert errors[0]["argv"] == SEARCH_D1


def test_wrong_order_exit_code_or_exception_is_a_failed_operation():
    result = run.run_child([FAMILY])["results"][0]
    wrong_order = _altered(result, '"order": 13', '"order": 12')
    wrong_exit = dict(result, exit_code=1)
    raised = dict(result, exit_code=None, error="ZeroDivisionError: boom")
    attempted, failed, _, _ = gate.tally([result, wrong_order, wrong_exit, raised])
    assert (attempted, failed) == (4, 3)


def test_traced_pass_reports_every_per_layer_metric():
    reply = run.run_child([FAMILY], trace=True)
    assert reply["trace"]["absent"] == []
    metrics = run.layer_metrics(reply)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) | {"trace.overhead_ratio"} == {m["name"] for m in spec["per_layer"]}
    assert metrics["cli.calls"] == 1
    assert metrics["family.build_family_instance.calls"] == 1
    assert metrics["elliptic.point_order.calls"] == 1
    assert metrics["hyperelliptic.count_points.calls"] == 0
    assert metrics["cli.reports"] == 1


def test_candidate_count_matches_height_enumeration():
    # 0, +-1, +-2, +-1/2
    assert run.candidate_count(2) == 7


def test_probe_ticks_while_entered_and_its_time_is_counted():
    probe = Probe()
    with probe:
        end = time.perf_counter() + 3.5 * PERIOD_S
        while time.perf_counter() < end:
            pass
    ticks = len(probe.times)
    assert 2 <= ticks <= 4
    assert probe.total_s == pytest.approx(sum(probe.times))
    time.sleep(1.5 * PERIOD_S)  # the timer is off after the block
    assert len(probe.times) == ticks


def test_host_scale_is_quiet_time_over_mean_probe_time():
    assert run.host_scale({"probe_s": [QUIET_S, 3 * QUIET_S]}) == pytest.approx(0.5)
    with pytest.raises(run.BenchmarkError):
        run.host_scale({"probe_s": []})


def test_command_scale_uses_the_probes_during_or_nearest_the_command():
    at = [0.2 * i for i in range(11)]  # probes from 0 s to 2 s
    times = [QUIET_S] * 5 + [2 * QUIET_S] * 6  # the host halves its speed at 1 s
    reply = {"probe_at": at, "probe_s": times}
    # a long command sees every probe during it
    assert run.command_scale(reply, {"start": -0.1, "end": 2.1}) == pytest.approx(11 / 17)
    # a short command sees the five nearest: 0.6 to 1.4 s, three of them slow
    assert run.command_scale(reply, {"start": 0.95, "end": 1.05}) == pytest.approx(5 / 8)
    assert run.command_scale(reply, {"start": 0.0, "end": 0.1}) == pytest.approx(1.0)
