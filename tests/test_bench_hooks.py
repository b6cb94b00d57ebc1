"""The benchmark's files still fit the program.

perfbench/layers.py times the layers from outside by replacing functions
such as qamod.smith and qamod._reduce_complex; if one of them is renamed,
its per-layer metrics would silently read zero.  perfbench/corpus.py and
refs/ hold the benchmark's cases and the exact output each must print.
These tests load both by path, without changing them, and run the program
through them.
"""

import importlib.util
import sys
from pathlib import Path

from click.testing import CliRunner

from krlab import cli, skein

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


def test_every_hook_is_found_and_the_homology_layers_run():
    tracer = load("layers").Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(cli.main, ["both", "--braid", "1 1", "--format", "json"])
    finally:
        tracer.uninstall()
    assert result.exit_code == 0, result.output
    state = tracer.state()
    assert state["missing"] == []
    assert state["calls"]["qamod.smith1"] > 0
    assert state["calls"]["qamod.reduce"] > 0
    assert state["count"]["qamod.reduce_survivors"] > 0


def test_skein_outputs_equal_the_references_byte_for_byte():
    corpus = load("corpus")
    workload = corpus.WORKLOADS["skein-words"]
    refs = corpus.load_refs(workload.name)
    runner = CliRunner()
    differ = []
    for case in workload.cases:
        skein._memo.clear()  # each benchmark case starts from an empty memo
        result = runner.invoke(cli.main, case.argv())
        assert result.exit_code == 0, (case.ident, result.output)
        if result.stdout != refs[case.ident]:
            differ.append(case.ident)
    assert len(workload.cases) == 106
    assert differ == []
