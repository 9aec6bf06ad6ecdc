import importlib
import importlib.util
from pathlib import Path

import pytest
import yaml

from coastsim.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SCENARIO_DIR = ROOT / "scenarios"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the benchmark's traced mode looks each (module, attribute) up by name,
    # a method in its class __dict__: removing or renaming one breaks every
    # `--trace 1` run
    for name, modname, attr in _load_tracer().TRACED:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(meth)), name
        else:
            assert callable(getattr(owner, attr, None)), name


@pytest.mark.skipif(not getattr(yaml, "__with_libyaml__", False),
                    reason="PyYAML built without libyaml")
def test_scenarios_parse_with_libyaml(yaml_loaders_built):
    # the pure-Python parser is several times slower on every set-up: a
    # return to yaml.safe_load must fail here, not only on the benchmark
    load_scenario(SCENARIO_DIR / "storm_loiter.yaml")
    assert yaml_loaders_built == [yaml.CSafeLoader]
