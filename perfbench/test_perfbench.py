"""Tests of the benchmark itself:  python -m pytest perfbench -q"""

from __future__ import annotations

import json

import pytest

import run  # first: pins BLAS threads and puts src/ on sys.path
import calibrate
import jobs
import spans
import workloads
from graphsand.scenario import load_scenario


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        for job in workloads.generate(workload, seed):
            job.write(tmp_path / name)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
               for f in files)
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes()
               for f in files)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_files_load(tmp_path, workload):
    for job in [workloads.warmup(workload)] + workloads.generate(workload, 3):
        cfg = load_scenario(job.write(tmp_path))
        if "vertices" in job.expect:
            assert sorted(cfg.graph.vertices) == job.expect["vertices"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_one_mix_passes_its_checks(tmp_path, workload):
    mix, paths = run.set_up(workload, 5, tmp_path)
    speed = []
    samples, traced, mixes = run.run_cycles(mix, paths, tmp_path, 0.0,
                                            speed=speed)
    assert mixes == 1 and traced == []
    assert [s.job for s in samples] == [job.name for job in mix]
    assert [s.reason for s in samples if not s.ok] == []
    assert len(speed) == len(samples) + 1
    metrics, detail = run.end_to_end(samples, speed, ([0.5], [0.01, 0.01]),
                                     workloads.TAIL_Q[workload])
    assert all(m["value"] > 0 for m in metrics.values())
    assert detail["samples"] == len(mix)


def test_bad_jobs_count_as_failed_and_the_run_goes_on(tmp_path):
    good = workloads.warmup("growth")
    guard = workloads.Job("guard-bad", "simulate", dict(
        good.scenario, graph={"kind": "truncated_z", "radius": 3},
        source=[{"start": 0.0, "end": 0.05, "values": {"0": 90.0}}]))
    slow = workloads.Job("slow-bad", "simulate",
                         dict(good.scenario, runtime_budget_s=1e-9),
                         expect=good.expect)
    wrong = workloads.Job("wrong-bad", "simulate", good.scenario,
                          expect={"vertices": ["nowhere"]})
    mix = [good, guard, slow, wrong, good]
    paths = [job.write(tmp_path) for job in mix]
    samples, _, _ = run.run_cycles(mix, paths, tmp_path, 0.0)
    assert [s.ok for s in samples] == [True, False, False, False, True]
    assert "exit code 2" in samples[1].reason
    assert "budget" in samples[2].reason
    assert "vertex set" in samples[3].reason
    kernel = [calibrate.REFERENCE_S] * 6
    metrics, detail = run.end_to_end(samples, kernel, ([0.5], kernel[:2]), 80)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(
        2 / sum(s.seconds for s in samples))
    assert detail["wall"]["job_s_p50"] == metrics["job_s_p50"]["value"]


def _current(module, attribute):
    owner, attr = spans._resolve(module, attribute)
    return getattr(owner, attr)


def test_wrappers_restore_the_originals(tmp_path):
    originals = [_current(m, a) for m, a, _ in spans.TARGETS]
    tracer = spans.Tracer()
    job = workloads.warmup("transport")
    path = job.write(tmp_path)
    with spans.installed(tracer):
        wrapped = [_current(m, a) for m, a, _ in spans.TARGETS]
        sample = jobs.run_job(job, path, tmp_path, tracer)
    assert sample.ok, sample.reason
    assert tracer.missing == []
    assert all(w is not o and w.__wrapped__ is o
               for w, o in zip(wrapped, originals))
    assert all(_current(m, a) is o
               for (m, a, _), o in zip(spans.TARGETS, originals))
    # both bindings of the oracle were hit: the CLI's and verify_potential's
    assert tracer.calls["transport.oracle"] == 2
    assert tracer.calls["transport.lipschitz"] == 1


def test_layer_self_times_add_up_to_the_job(tmp_path):
    tracer = spans.Tracer()
    job = workloads.warmup("pflow")
    path = job.write(tmp_path)
    with spans.installed(tracer):
        for _ in range(3):
            assert jobs.run_job(job, path, tmp_path, tracer).ok
        load_scenario(path)  # outside a job's root span: not recorded
    metrics = spans.layer_metrics(tracer, 0.0)
    assert tracer.jobs == 3
    assert metrics["evolution.steps"]["value"] == 50
    assert metrics["proximal.resolvent_calls"]["value"] == 50
    assert tracer.calls["scenario.parse"] == 3
    assert 0.9 < metrics["trace.coverage"]["value"] <= 1.0


def test_tail_is_a_fixed_percentile():
    assert run.tail(list(range(200)), 90) == (179, 20)
    assert run.tail(list(range(1, 11)), 80) == (8, 2)
    for q in workloads.TAIL_Q.values():
        assert run.tail(list(range(run.tail_samples(q))), q)[1] >= run.TAIL_BEYOND


def test_times_are_scaled_by_the_kernel_around_each_job():
    samples = [jobs.Sample("a", 0.2, True), jobs.Sample("b", 0.4, True)]
    ref = calibrate.REFERENCE_S
    # the machine runs at half speed around the second job
    metrics, detail = run.end_to_end(samples, [ref, ref, 3 * ref],
                                     ([1.0], [2 * ref, 2 * ref]), 50)
    assert metrics["job_s_p50"]["value"] == pytest.approx(0.2)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(2 / 0.4)
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)
    assert detail["wall"]["jobs_per_s"] == pytest.approx(2 / 0.6)


def test_metric_names_match_benchmark_json(tmp_path):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    mix, paths = run.set_up("pflow", 1, tmp_path)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        plain, traced, _ = run.run_cycles(mix[:1], paths[:1], tmp_path, 0.0,
                                          tracer)
    e2e, _ = run.end_to_end(plain, [0.01] * (len(plain) + 1),
                            ([0.5], [0.01, 0.01]), 90)
    for kind, metrics in (("end_to_end", e2e),
                          ("per_layer", run.per_layer(tracer, plain, traced))):
        assert {m["name"]: m["unit"] for m in declared[kind]} == \
            {name: m["unit"] for name, m in metrics.items()}
