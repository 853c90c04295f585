"""Acceptance tests for the serving subsystem (repro.serve).

The ISSUE's bar: replaying a deterministic trace must report a cache hit
rate > 0 and lose zero jobs under one injected device failure — the
faulted job retried on another device with a byte-identical count — and
a cache-enabled replay must spend strictly less total simulated device
time than a cache-disabled replay of the same trace.
"""

import pytest

from repro.bench.experiments import serve_experiment
from repro.core.distributed import distributed_count_triangles
from repro.cpu.forward import forward_count_cpu
from repro.errors import OutOfDeviceMemoryError, ReproError
from repro.gpusim.device import DEVICES
from repro.serve import (DONE, PATH_DISTRIBUTED, SHED_FLEET_DEAD, Fleet,
                         FleetScheduler, TraceConfig, build_graph_pool,
                         generate_trace, serve_trace, size_fleet_memory)
from repro.serve.scheduler import FALLBACK_PART_LADDER

CONFIG = TraceConfig(seed=7, duration_ms=12_000.0, rate_per_s=2.5)


@pytest.fixture(scope="module")
def pool():
    return build_graph_pool(CONFIG)


@pytest.fixture(scope="module")
def memory(pool):
    return size_fleet_memory(pool, CONFIG, DEVICES["gtx980"])


def _replay(pool, memory, inject=None, cache=True):
    fleet = Fleet.homogeneous("gtx980", 4, memory_bytes=memory)
    if inject is not None:
        fleet.inject_failure(*inject)
    report = serve_trace(fleet, generate_trace(CONFIG, pool),
                         cache_enabled=cache)
    return report


@pytest.fixture(scope="module")
def base(pool, memory):
    """Fault-free cache-enabled replay (the reference outcome)."""
    return _replay(pool, memory)


class TestFleet:
    def test_parse_spec(self):
        fleet = Fleet.parse("gtx980x2,c2050")
        assert len(fleet) == 3
        assert [d.key for d in fleet] == ["gtx980", "gtx980", "c2050"]
        assert "2x GTX 980" in fleet.describe()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ReproError):
            Fleet.parse("warp9000")
        with pytest.raises(ReproError):
            Fleet.parse("")

    def test_inject_failure_validation(self):
        fleet = Fleet.homogeneous("gtx980", 2)
        with pytest.raises(ReproError):
            fleet.inject_failure(5, at_ms=0.0)
        with pytest.raises(ReproError):
            fleet.inject_failure(0, at_ms=-1.0)
        fleet.inject_failure(1, at_ms=100.0)
        assert fleet[1].alive_at(99.0) and not fleet[1].alive_at(100.0)
        assert fleet.healthy(200.0) == [fleet[0]]


class TestTraceDeterminism:
    def test_same_config_same_trace(self, pool):
        a = generate_trace(CONFIG, pool)
        b = generate_trace(CONFIG, pool)
        assert len(a) == len(b) > 10
        for ja, jb in zip(a, b):
            assert (ja.arrival_ms, ja.priority, ja.deadline_ms,
                    ja.fingerprint) == (jb.arrival_ms, jb.priority,
                                        jb.deadline_ms, jb.fingerprint)

    def test_replay_is_deterministic(self, pool, memory, base):
        again = _replay(pool, memory)
        for ja, jb in zip(base.jobs, again.jobs):
            assert (ja.status, ja.device_index, ja.start_ms, ja.finish_ms,
                    ja.triangles) == (jb.status, jb.device_index,
                                      jb.start_ms, jb.finish_ms,
                                      jb.triangles)


class TestAcceptance:
    def test_all_jobs_complete_with_cache_hits_and_fallbacks(self, base):
        assert len(base.lost) == 0
        assert len(base.done) == len(base.jobs)
        assert base.cache_hit_rate > 0
        assert base.fallbacks > 0          # the whale took the split path
        assert base.throughput_jobs_per_s > 0

    def test_counts_match_cpu_oracle(self, base, pool):
        truth = {j.fingerprint: None for j in base.jobs}
        by_fp = {}
        for g in pool:
            from repro.serve.cache import graph_fingerprint
            by_fp[graph_fingerprint(g)] = forward_count_cpu(g).triangles
        for j in base.done:
            assert j.triangles == by_fp[j.fingerprint], j.job_id
        assert set(truth) <= set(by_fp)

    def test_zero_lost_under_injected_failure_identical_counts(
            self, base, pool, memory):
        victim = next(j for j in base.done
                      if j.device_index >= 0 and j.finish_ms > j.start_ms)
        fault_at = (victim.start_ms + victim.finish_ms) / 2
        faulted = _replay(pool, memory,
                          inject=(victim.device_index, fault_at))

        assert faulted.faults >= 1
        assert len(faulted.lost) == 0
        v = faulted.jobs[victim.job_id]
        assert v.status == DONE
        assert v.attempts >= 1                      # it was retried...
        assert v.device_index != victim.device_index  # ...elsewhere
        # byte-identical counts across the whole trace
        for a, b in zip(base.jobs, faulted.jobs):
            assert a.triangles == b.triangles

    def test_cache_strictly_reduces_total_service_time(
            self, base, pool, memory):
        nocache = _replay(pool, memory, cache=False)
        assert len(nocache.lost) == 0
        assert nocache.cache_hit_rate == 0
        assert base.total_service_ms < nocache.total_service_ms
        for a, b in zip(base.jobs, nocache.jobs):
            assert a.triangles == b.triangles

    def test_whole_fleet_dead_sheds_pending_jobs(self, pool, memory):
        # Undispatchable jobs go through the shed path with a typed
        # reason — a bare ``lost`` is reserved for retry exhaustion.
        fleet = Fleet.from_keys(["gtx980"], memory_bytes=memory)
        fleet.inject_failure(0, at_ms=0.0)
        report = serve_trace(fleet, generate_trace(CONFIG, pool))
        assert len(report.shed) == len(report.jobs) > 0
        assert len(report.lost) == 0
        for job in report.shed:
            assert job.shed is not None
            assert job.shed.reason == SHED_FLEET_DEAD
            assert job.shed.job_id == job.job_id

    def test_scheduler_argument_validation(self, memory):
        fleet = Fleet.from_keys(["gtx980"], memory_bytes=memory)
        with pytest.raises(ReproError):
            FleetScheduler(fleet, max_attempts=0)
        with pytest.raises(ReproError):
            FleetScheduler(fleet, backoff_ms=-1.0)


def _ladder(graph, spec, num_gpus, options):
    """The fallback ladder run afresh at one gang size (no memo)."""
    for parts in FALLBACK_PART_LADDER:
        try:
            return distributed_count_triangles(graph, device=spec,
                                               num_gpus=num_gpus,
                                               num_parts=parts,
                                               options=options)
        except OutOfDeviceMemoryError:
            continue
    return None


class _UnmemoizedSplit(FleetScheduler):
    """Reference scheduler: every fallback attempt runs the ladder."""

    def _run_distributed(self, job, spec, num_gpus):
        return _ladder(job.graph, spec, num_gpus, job.options)


class TestDistributedReplay:
    """The whale is split before and after device 1 fails, so the gang
    shrinks from 4 to 3; the split's subgraph jobs still run once."""

    FAIL_AT_MS = 5_000.0      # between the whale's first and second split

    def _replay(self, pool, memory, scheduler_cls):
        fleet = Fleet.homogeneous("gtx980", 4, memory_bytes=memory)
        fleet.inject_failure(1, self.FAIL_AT_MS)
        scheduler = scheduler_cls(fleet)
        return scheduler, scheduler.run(generate_trace(CONFIG, pool))

    @pytest.fixture(scope="class")
    def replay(self, pool, memory):
        return self._replay(pool, memory, FleetScheduler)

    def test_split_on_both_sides_of_the_failure(self, replay):
        _, report = replay
        starts = [j.start_ms for j in report.jobs
                  if j.path == PATH_DISTRIBUTED and j.status == DONE]
        assert min(starts) < self.FAIL_AT_MS < max(starts)

    def test_each_subgraph_job_launches_once(self, replay, memory):
        scheduler, report = replay
        spec = DEVICES["gtx980"].with_memory(memory)
        split = {j.fingerprint: j for j in report.jobs
                 if j.path == PATH_DISTRIBUTED}
        subgraph_jobs = sum(len(_ladder(j.graph, spec, 1, j.options).jobs)
                            for j in split.values())
        kernel_calls = report.host_profiler.breakdown()["kernel"]["calls"]
        assert kernel_calls == len(scheduler._gpu_memo) + subgraph_jobs

    def test_jobs_match_a_fresh_split_at_each_gang_size(self, replay, pool,
                                                        memory):
        _, report = replay
        _, reference = self._replay(pool, memory, _UnmemoizedSplit)

        def outcome(j):
            return (j.status, j.path, j.start_ms, j.finish_ms, j.triangles)

        assert ([outcome(j) for j in report.jobs]
                == [outcome(j) for j in reference.jobs])
        spec = DEVICES["gtx980"].with_memory(memory)
        for j in report.jobs:
            if j.path != PATH_DISTRIBUTED or j.status != DONE:
                continue
            gang = 4 if j.start_ms < self.FAIL_AT_MS else 3
            want = _ladder(j.graph, spec, gang, j.options)
            assert j.finish_ms == j.start_ms + want.total_ms
            assert j.triangles == want.triangles


class TestServeExperiment:
    def test_experiment_and_report_render(self):
        exp = serve_experiment(fleet_spec="gtx980x3",
                               duration_ms=6_000.0, rate_per_s=2.0,
                               seed=3)
        assert exp.report.faults >= 1
        assert len(exp.report.lost) == 0
        assert exp.cache_service_win > 1.0
        text = exp.report.format_report()
        assert "==SERVE==" in text
        assert "preprocessing cache hit rate" in text
        assert "serve:" in exp.summary()
        csv = exp.report.jobs_csv()
        assert csv.startswith("job_id,")
        assert len(csv.splitlines()) == len(exp.report.jobs) + 1


class TestServeCli:
    def test_cli_serve_subcommand(self, tmp_path, capsys):
        from repro.bench.cli import main
        assert main(["serve", "--duration", "4", "--rate", "1.5",
                     "--fleet", "gtx980x2", "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "==SERVE==" in out
        assert (tmp_path / "serve_jobs.csv").exists()
