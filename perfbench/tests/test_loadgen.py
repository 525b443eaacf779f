"""Due-time and lag arithmetic of the open-loop sender, on a fake clock."""

import pytest
from loadgen import lags, latencies, paced_offsets, send_open_loop


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def test_sender_sleeps_to_absolute_deadlines():
    clock = FakeClock()
    dues = [100.5, 101.0, 101.25]
    sent = send_open_loop(dues, lambda i: None, clock, clock.sleep)
    assert sent == dues
    assert clock.sleeps == [0.5, 0.5, 0.25]
    assert lags(dues, sent) == [0.0, 0.0, 0.0]


def test_a_stall_does_not_push_later_requests_back():
    clock = FakeClock()
    dues = [100.1, 100.2, 100.3, 100.9]

    def send(index: int) -> None:
        if index == 0:
            clock.now += 0.35  # the first send stalls past two deadlines

    sent = send_open_loop(dues, send, clock, clock.sleep)
    # Requests 1 and 2 go out late, immediately; request 3 is on time
    # again because the sender sleeps to its deadline, not a gap.
    assert sent == pytest.approx([100.1, 100.45, 100.45, 100.9])
    assert lags(dues, sent) == pytest.approx([0.0, 0.25, 0.15, 0.0])


def test_latency_counts_from_the_due_time():
    dues = [10.0, 10.5, 11.0]
    received = [10.02, 10.9, None]
    assert latencies(dues, received) == pytest.approx([0.02, 0.4, None])


def test_paced_offsets_scale_a_unit_rate_process():
    arrivals = [5.0, 6.0, 8.0]
    assert paced_offsets(arrivals, 2.0, previous=4.0) == [0.5, 1.0, 2.0]
    assert paced_offsets(arrivals, 40.0, previous=4.0) == pytest.approx(
        [0.025, 0.05, 0.1])
    with pytest.raises(ValueError):
        paced_offsets(arrivals, 0.0)
