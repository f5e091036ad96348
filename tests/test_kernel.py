import pytest

from cyclotest.kernel import Kernel, KernelConfig, KernelError


class FakeClock:
    """Deterministic monotonic time; sleeping and work advance it."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds

    def work(self, seconds):
        self.now += seconds


def _kernel(config, step=lambda inputs, sys_time_ms: {}, clock=None):
    clock = clock or FakeClock()
    return Kernel(config, step, monotonic=clock.monotonic, sleep=clock.sleep), clock


class TestSimulatedTime:
    def test_first_cycle_advances_from_zero(self):
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100))
        record, _ = kernel.run_cycle({})
        assert record.sys_time_ms == 100

    def test_time_advances_by_period_regardless_of_wall_time(self):
        clock = FakeClock()
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100),
                            lambda inputs, sys_time_ms: clock.work(0.5), clock)
        records = [kernel.run_cycle({})[0] for _ in range(5)]
        assert [r.sys_time_ms for r in records] == [100, 200, 300, 400, 500]

    def test_step_sees_the_record_time_and_returns_the_outputs(self):
        seen = []

        def step(inputs, sys_time_ms):
            seen.append((inputs, sys_time_ms))
            return {"out": inputs["in"] + 1}

        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100), step)
        record, outputs = kernel.run_cycle({"in": 4})
        assert seen == [({"in": 4}, record.sys_time_ms)]
        assert outputs == {"out": 5}

    def test_instant_step_cycle_completes(self):
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100))
        record, _ = kernel.run_cycle({})
        assert record.overrun is False
        assert record.exec_time_us == 0

    def test_non_positive_period_rejected(self):
        for period in (0, -5):
            with pytest.raises(KernelError, match="cycle period must be positive"):
                _kernel(KernelConfig(cycle_period_ms=period))


class TestPacingAndOverrun:
    def _slow(self, clock, seconds):
        return lambda inputs, sys_time_ms: clock.work(seconds)

    def test_non_streaming_overrun_flagged(self):
        clock = FakeClock()
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100, streaming=False),
                            self._slow(clock, 0.150), clock)
        record, _ = kernel.run_cycle({})
        assert record.overrun is True

    def test_streaming_never_flags_overrun(self):
        clock = FakeClock()
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100, streaming=True),
                            self._slow(clock, 0.150), clock)
        assert kernel.run_cycle({})[0].overrun is False
        assert clock.sleeps == []  # next cycle starts immediately

    def test_non_streaming_sleeps_out_the_period(self):
        clock = FakeClock()
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100, streaming=False),
                            self._slow(clock, 0.020), clock)
        kernel.run_cycle({})
        assert len(clock.sleeps) == 1
        assert clock.sleeps[0] == pytest.approx(0.080, abs=0.001)


class TestFailingStep:
    def test_exception_propagates_and_records_no_cycle(self):
        def explode(inputs, sys_time_ms):
            raise ValueError("boom")

        kernel, _ = _kernel(KernelConfig(), explode)
        with pytest.raises(ValueError, match="boom"):
            kernel.run_cycle({})
        assert kernel.records == []


class TestDeterminism:
    def test_identical_runs_identical_records(self):
        logs = []
        for _ in range(2):
            kernel, _ = _kernel(KernelConfig(cycle_period_ms=250))
            for _ in range(10):
                kernel.run_cycle({})
            logs.append("\n".join(r.to_json(deterministic=True) for r in kernel.records))
        assert logs[0] == logs[1]

    def test_monotonic_strictly_increasing(self):
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=250))
        records = [kernel.run_cycle({})[0] for _ in range(20)]
        assert [r.cycle_index for r in records] == list(range(20))
        deltas = {
            b.sys_time_ms - a.sys_time_ms for a, b in zip(records, records[1:])
        }
        assert deltas == {250}
