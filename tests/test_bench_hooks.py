"""The benchmark's layer tracer still finds every entry point it wraps.

perfbench/layers.py times the layers from outside by replacing functions
such as qamod.smith and qamod._reduce_complex; if one of them is renamed,
its per-layer metrics would silently read zero.  This loads the tracer by
path, without changing it, and runs one small `both` through it.
"""

import importlib.util
from pathlib import Path

from click.testing import CliRunner

from krlab import cli

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_is_found_and_the_homology_layers_run():
    tracer = load_layers().Tracer()
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
