"""Tests of the benchmark's own code: corpus, checks, caps and layer hooks.

    python3 -m pytest perfbench/tests -q
"""

from itertools import product

from click.testing import CliRunner

from corpus import WORKLOADS, check, reduced_words
from layers import Tracer, mark_count, merge, reduce_basis, report, smith_stage
from run import Worker
from worker import PROBE_REF_S, SpeedProbe, fork_case, import_krlab, run_case
from krlab import qamod
from krlab.braid import parse
from krlab.cube import build_complex


def test_word_generator_counts_reduced_words():
    words = reduced_words(3, 3)
    assert len(words) == 53
    assert len(set(words)) == 53
    for w in words:
        letters = [int(t) for t in w.split()]
        assert all(a != -b for a, b in zip(letters, letters[1:]))
    assert len(WORKLOADS["skein-words"].cases) == 106


def test_reduce_basis_closed_form_matches_enumeration():
    C = build_complex(parse("1 1"), 1)
    _, hi, _ = qamod._resolve_window(C, 8, 1)
    top = hi + 1 + 1  # two_stage_homology expands up to hi + n + 1, here n = 1
    marks = mark_count(C)
    direct = 0
    for parts in C.summands.values():
        for part in parts:
            for par in (0, 1):
                for _, gx in part.mf.basis(par):
                    budget = (top - gx) // 2
                    if budget >= 0:
                        direct += sum(
                            1 for m in product(range(budget + 1), repeat=marks) if sum(m) <= budget
                        )
    assert direct > 0
    assert reduce_basis(C, top) == direct


def test_smith_calls_are_staged_by_shift():
    assert smith_stage(qamod.SliceMatrix((0,), (0,), 1, {})) == "qamod.smith1"
    assert smith_stage(qamod.SliceMatrix((0,), (0,), 0, {})) == "qamod.smith2"


def _run(cases, refs, cap_s=10.0):
    cli, skein = import_krlab()
    runner = CliRunner()
    return [run_case(runner, cli, skein, case, refs, cap_s) for case in cases]


def test_corrupted_reference_counts_as_one_failure():
    cases = WORKLOADS["skein-words"].cases[:3]
    runner = CliRunner()
    cli, _ = import_krlab()
    refs = {c.ident: runner.invoke(cli.main, c.argv()).stdout for c in cases}
    assert all(reason is None for _, reason in _run(cases, refs))
    refs[cases[1].ident] = refs[cases[1].ident].replace("krlab/1", "krlab/0")
    reasons = [reason for _, reason in _run(cases, refs)]
    assert reasons == [None, "output differs from the reference", None]


def test_both_checks_cross_check_and_skein_part():
    case = WORKLOADS["both-default"].cases[0]
    doc = '{"cross_check": "MISMATCH", "skein": {"n": 1}}'
    refs = {case.ident: '{"n": 1}'}
    assert check(case, 0, doc, refs) == "cross_check is 'MISMATCH'"
    assert check(case, 0, doc.replace("MISMATCH", "MATCH"), refs) is None
    assert check(case, 3, doc, refs) == "exit code 3"


def test_case_over_its_cap_fails_with_reason():
    case = WORKLOADS["both-default"].cases[0]
    [(seconds, reason)] = _run([case], {}, cap_s=0.01)
    assert reason == "exceeded the 0.01 s cap"
    assert seconds < 5


def test_traced_homology_reports_layers():
    cli, _ = import_krlab()
    tracer = Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(cli.main, ["homology", "--braid", "1 1", "--xwindow", "4"])
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    assert cli.build_complex is build_complex
    layers = report(merge([tracer.state()]), 1.0)
    m = {k: v["value"] for k, v in layers["metrics"].items()}
    assert layers["missing_hooks"] == []
    assert m["qamod.smith1_calls"] > 0 and m["qamod.smith2_calls"] > 0
    assert m["qamod.reduce_basis"] >= m["qamod.reduce_survivors"] > 0
    assert "cube.build_self_s" not in layers["absent"]
    assert "skein.recursion_calls" in layers["absent"]


def test_missing_hook_target_is_reported(monkeypatch):
    monkeypatch.delattr(qamod, "_detect_tails")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["krlab.qamod._detect_tails"]
    assert "qamod.tails_s" in report(tracer.state(), 0.0)["absent"]


def test_forked_case_reports_time_rss_and_trace():
    cli, skein = import_krlab()
    workload = WORKLOADS["skein-words"]
    case = workload.cases[1]
    refs = {case.ident: CliRunner().invoke(cli.main, case.argv()).stdout}
    doc = fork_case(CliRunner(), cli, skein, workload, refs, 1, True)
    assert doc["reason"] is None and doc["seconds"] > 0 and doc["maxrss_kb"] > 0
    assert doc["trace"]["calls"]["skein.evaluate"] == 1


def test_probed_case_reports_seconds_at_reference_speed():
    cli, skein = import_krlab()
    workload = WORKLOADS["skein-words"]
    case = workload.cases[1]
    refs = {case.ident: CliRunner().invoke(cli.main, case.argv()).stdout}
    doc = fork_case(CliRunner(), cli, skein, workload, refs, 1, False, SpeedProbe())
    assert doc["reason"] is None and doc["slowdown"] > 0
    assert doc["norm_seconds"] == doc["seconds"] / doc["slowdown"]


def test_probe_time_is_left_out_of_the_case():
    probe = SpeedProbe()
    probe.start()
    probe.sample()  # as the SIGPROF handler would, during the case
    probe.sample()
    probe.stop()
    n = len(probe.samples)  # 3, or more if the timer fired too
    assert n >= 3
    assert probe.inside_s() == sum(probe.samples[:-1])
    assert probe.slowdown() == sum(probe.samples) / n / PROBE_REF_S


def test_worker_set_up_is_timed_at_reference_speed():
    worker = Worker(WORKLOADS["skein-words"], 1)
    worker.close()
    assert worker.setup_wall_s > 0 and worker.setup_s > 0
    assert worker.proc.returncode == 0


def test_failing_count_is_reported_and_case_still_runs(monkeypatch):
    import layers

    def broken(C, top):
        raise TypeError("changed signature")

    monkeypatch.setattr(layers, "reduce_basis", broken)
    cli, _ = import_krlab()
    tracer = Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(cli.main, ["homology", "--braid", "1 1", "--xwindow", "4"])
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    assert tracer.missing == ["counts at qamod.reduce: TypeError('changed signature')"]
