import pytest
from oracles import ReferenceKernel

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
        kernel.run_cycle({})
        assert kernel.records[0].sys_time_ms == 100

    def test_time_advances_by_period_regardless_of_wall_time(self):
        clock = FakeClock()
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100),
                            lambda inputs, sys_time_ms: clock.work(0.5), clock)
        for _ in range(5):
            kernel.run_cycle({})
        assert [r.sys_time_ms for r in kernel.records] == [100, 200, 300, 400, 500]

    def test_step_sees_the_record_time_and_returns_the_outputs(self):
        seen = []

        def step(inputs, sys_time_ms):
            seen.append((inputs, sys_time_ms))
            return {"out": inputs["in"] + 1}

        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100), step)
        outputs = kernel.run_cycle({"in": 4})
        assert seen == [({"in": 4}, kernel.records[0].sys_time_ms)]
        assert seen[0][1] == kernel.sys_time_ms == 100
        assert outputs == {"out": 5}

    def test_instant_step_cycle_completes(self):
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100))
        kernel.run_cycle({})
        assert kernel.records[0].overrun is False
        assert kernel.records[0].exec_time_us == 0

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
        kernel.run_cycle({})
        assert kernel.records[0].overrun is True

    def test_streaming_never_flags_overrun(self):
        clock = FakeClock()
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100, streaming=True),
                            self._slow(clock, 0.150), clock)
        kernel.run_cycle({})
        assert kernel.records[0].overrun is False
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
        for _ in range(20):
            kernel.run_cycle({})
        records = kernel.records
        assert [r.cycle_index for r in records] == list(range(20))
        deltas = {
            b.sys_time_ms - a.sys_time_ms for a, b in zip(records, records[1:])
        }
        assert deltas == {250}


class TestDerivedRecords:
    """The records derived from the measured times equal those of a kernel
    that builds each record as its cycle ends."""

    # seconds each successive cycle's step takes, by the scripted clock
    WORK = [0.0, 0.020, 0.150, 0.100, 0.1000011, 0.0, 0.250, 0.001]

    @pytest.mark.parametrize("streaming", [True, False])
    @pytest.mark.parametrize("period", [100, 250])
    def test_records_equal_the_reference_kernels(self, streaming, period):
        runs = []
        for make in (Kernel, ReferenceKernel):
            clock = FakeClock()
            work = iter(self.WORK)

            def step(inputs, sys_time_ms, clock=clock, work=work):
                clock.work(next(work))
                return {"t": sys_time_ms}

            kernel = make(KernelConfig(cycle_period_ms=period, streaming=streaming), step,
                          monotonic=clock.monotonic, sleep=clock.sleep)
            outputs = [kernel.run_cycle({}) for _ in self.WORK]
            runs.append((kernel.records, clock.sleeps, outputs))
        (records, sleeps, outputs), (ref_records, ref_sleeps, ref_outputs) = runs
        assert records == ref_records
        assert [r.to_json() for r in records] == [r.to_json() for r in ref_records]
        assert sleeps == ref_sleeps
        assert outputs == [out for _, out in ref_outputs]
        assert any(r.overrun for r in records) is (not streaming and period == 100)
