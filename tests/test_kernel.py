import pytest

from cyclotest.kernel import (
    CycleContext,
    DuplicateId,
    Kernel,
    KernelConfig,
    KernelError,
    SubsystemPanic,
)


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


def _kernel(config, clock=None):
    clock = clock or FakeClock()
    return Kernel(config, monotonic=clock.monotonic, sleep=clock.sleep), clock


class TestSimulatedTime:
    def test_first_cycle_advances_from_zero(self):
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100))
        record = kernel.run_cycle()
        assert record.sys_time_ms == 100

    def test_time_advances_by_period_regardless_of_wall_time(self):
        kernel, clock = _kernel(KernelConfig(cycle_period_ms=100))
        kernel.register_subsystem("slow", lambda ctx: clock.work(0.5))
        records = [kernel.run_cycle() for _ in range(5)]
        assert [r.sys_time_ms for r in records] == [100, 200, 300, 400, 500]

    def test_constant_within_cycle(self):
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100))
        seen = []
        kernel.register_subsystem("first", lambda ctx: seen.append(ctx.sys_time_ms))
        kernel.register_subsystem("second", lambda ctx: seen.append(ctx.sys_time_ms))
        kernel.run_cycle()
        assert seen[0] == seen[1]

    def test_zero_subsystems_cycle_completes(self):
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100))
        record = kernel.run_cycle()
        assert record.overrun is False
        assert record.exec_time_us == 0


class TestPacingAndOverrun:
    def test_non_streaming_overrun_flagged(self):
        clock = FakeClock()
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100, streaming=False), clock)
        kernel.register_subsystem("slow", lambda ctx: clock.work(0.150))
        record = kernel.run_cycle()
        assert record.overrun is True

    def test_streaming_never_flags_overrun(self):
        clock = FakeClock()
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100, streaming=True), clock)
        kernel.register_subsystem("slow", lambda ctx: clock.work(0.150))
        assert kernel.run_cycle().overrun is False
        assert clock.sleeps == []  # next cycle starts immediately

    def test_non_streaming_sleeps_out_the_period(self):
        clock = FakeClock()
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=100, streaming=False), clock)
        kernel.register_subsystem("fast", lambda ctx: clock.work(0.020))
        kernel.run_cycle()
        assert len(clock.sleeps) == 1
        assert clock.sleeps[0] == pytest.approx(0.080, abs=0.001)


class TestRegistration:
    def test_duplicate_id(self):
        kernel, _ = _kernel(KernelConfig())
        kernel.register_subsystem("csut", lambda ctx: None)
        with pytest.raises(DuplicateId):
            kernel.register_subsystem("csut", lambda ctx: None)

    def test_register_after_start_rejected(self):
        kernel, _ = _kernel(KernelConfig())
        kernel.run_cycle()
        with pytest.raises(KernelError, match="after the run started"):
            kernel.register_subsystem("late", lambda ctx: None)

    def test_declared_order_preserved(self):
        kernel, _ = _kernel(KernelConfig())
        calls = []
        for sid in ("set-mediator", "csut", "get-mediator"):
            kernel.register_subsystem(sid, lambda ctx, s=sid: calls.append(s))
        kernel.run_cycle()
        assert calls == ["set-mediator", "csut", "get-mediator"]

    def test_subsystem_panic_carries_id(self):
        kernel, _ = _kernel(KernelConfig())

        def explode(ctx):
            raise ValueError("boom")

        kernel.register_subsystem("csut", explode)
        with pytest.raises(SubsystemPanic) as err:
            kernel.run_cycle()
        assert err.value.subsystem_id == "csut"


class TestDeterminism:
    def test_identical_runs_identical_records(self):
        logs = []
        for _ in range(2):
            kernel, _ = _kernel(KernelConfig(cycle_period_ms=250))
            kernel.register_subsystem("noop", lambda ctx: None)
            for _ in range(10):
                kernel.run_cycle()
            logs.append("\n".join(r.to_json(deterministic=True) for r in kernel.records))
        assert logs[0] == logs[1]

    def test_monotonic_strictly_increasing(self):
        kernel, _ = _kernel(KernelConfig(cycle_period_ms=250))
        records = [kernel.run_cycle() for _ in range(20)]
        deltas = {
            b.sys_time_ms - a.sys_time_ms for a, b in zip(records, records[1:])
        }
        assert deltas == {250}
