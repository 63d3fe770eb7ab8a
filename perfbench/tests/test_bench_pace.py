"""Host-speed normalisation arithmetic and probe windows (no timing asserts)."""

import math
import signal

import numpy
import pytest

import pace


def test_probes_at_reference_speed_only_remove_their_own_time():
    probes = {"python": [pace.REF_S["python"]] * 4}
    assert pace.at_reference_speed(2.0, probes) == pytest.approx(2.0 - 4 * pace.REF_S["python"])


def test_probes_twice_as_slow_halve_the_time():
    probes = {"python": [2 * pace.REF_S["python"]] * 3}
    spent = 3 * 2 * pace.REF_S["python"]
    assert pace.at_reference_speed(4.0, probes) == pytest.approx((4.0 - spent) / 2)


def test_speed_is_the_time_mean_of_the_probe_speeds():
    ref = pace.REF_S["python"]
    probes = {"python": [ref, ref / 3]}  # speeds 1 and 3: mean 2
    assert pace.at_reference_speed(1.0, probes) == pytest.approx((1.0 - 4 * ref / 3) * 2)


def test_kinds_combine_by_geometric_mean():
    probes = {"python": [pace.REF_S["python"] / 4], "numpy": [pace.REF_S["numpy"]]}
    expected = (1.0 - pace.probe_time(probes)) * math.sqrt(4 * 1)
    assert pace.at_reference_speed(1.0, probes) == pytest.approx(expected)


def test_every_window_holds_each_of_its_kinds():
    probe = pace.Probe()
    probe.open_window()
    assert {k: len(v) for k, v in probe.close_window().items()} == {"python": 1}
    probe.open_window(numpy)
    assert {k: len(v) for k, v in probe.close_window().items()} == {"python": 1, "numpy": 1}


def test_handler_takes_the_window_kinds_in_turn():
    probe = pace.Probe()
    probe.open_window(numpy)
    for _ in range(6):
        probe._handler(None, None)  # what each SIGALRM does
    assert {k: len(v) for k, v in probe.close_window().items()} == {"python": 4, "numpy": 4}


def test_stop_disarms_the_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = pace.Probe()
    probe.start()
    probe.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
