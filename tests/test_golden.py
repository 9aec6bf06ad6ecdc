"""Pinned output digests of the shipped scenarios.

Byte identity within one build is checked by test_runner; these digests
catch a change that quietly alters results across builds. A change that
moves a digest on purpose says why in CHANGES.md and re-pins it here.

The digests are for numpy 2.4.x on x86-64 Linux: another platform or numpy
release may round a transcendental or a matrix product differently in the
last bit.
"""

import hashlib
from pathlib import Path

import pytest

from coastsim.runner import emit_outputs, run_simulation
from coastsim.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# scenario -> sha256 of (states.csv, events.jsonl, metrics.json)
GOLDEN = {
    "calm_cruise": (
        "b1a227eeffabb8199ec4d4b5b8a9eb5552ec48c1b18a43508a1017d82b17d192",
        "6aff799a2d6ba601f42d0c48976fcc06957e8a85979f7cac97029b6235bf7e33",
        "0eeeb4d22c545dea9cada90031b79eaf394140688e7979a47c8937b37457edfd",
    ),
    "storm_loiter": (
        "50ce510ea1fb723d3b1f56d66a15f7e36e44caa60cabc6464bf1c2021bfa45dd",
        "639d9fe60da71f8a98483ff0a2f33981e229cd7e8562a59fbec01b57a622a7fb",
        "f02b1ff2fe43776e4d8eb0cb4eef22b85c5b9adf97b7b5d036a3c92cb176b1b1",
    ),
    "calm_search": (
        "08df9651eb45067036a87178b53fcc0fca3822507af3a864cc00769d26a8c172",
        "fc3f527291b69cab3f63676b0f9c1665ea2b587dc2831250f7f4de6d72127409",
        "02f4c7b8583092ef061ec496ffca1584131309ae945e8dbdb203d5b6e8b86f01",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_digests(name, tmp_path):
    log = run_simulation(load_scenario(SCENARIO_DIR / f"{name}.yaml"))
    written = emit_outputs(log, tmp_path)
    digests = tuple(hashlib.sha256(Path(written[kind]).read_bytes()).hexdigest()
                    for kind in ("states", "events", "metrics"))
    assert digests == GOLDEN[name]
