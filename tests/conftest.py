"""Shared fixtures: bundled example models and a small mutable model document."""

import copy
import pathlib

import pytest

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"

# A minimal but complete document: one component with one seff, one instance,
# one container, one scenario that calls through and collects the result.
# Tests deep-copy it and break exactly one thing at a time.
_MINIMAL = {
    "dictionary": {"labelTypes": [{"name": "Color", "values": ["Red", "Blue"]}]},
    "components": [
        {
            "id": "comp.a",
            "name": "Alpha",
            "labels": ["Color.Red"],
            "signatures": [{"id": "svc", "name": "serve", "parameters": ["p"]}],
            "seffs": {
                "svc": [
                    {"type": "variable", "id": "s0",
                     "assignments": ["out.Color.Blue := p.Color.Red"]},
                    {"type": "return", "id": "s1",
                     "assignments": ["RETURN.Color.Blue := out.Color.Blue"]},
                ]
            },
        }
    ],
    "assembly": {
        "instances": [{"id": "inst.a", "component": "comp.a"}],
        "connectors": [],
    },
    "deployment": {
        "containers": [{"id": "host", "name": "Host", "labels": ["Color.Blue"]}],
        "allocations": {"inst.a": "host"},
    },
    "usageScenarios": [
        {
            "id": "scn",
            "name": "walk",
            "userLabels": ["Color.Red"],
            "actions": [
                {"type": "variable", "id": "u0",
                 "assignments": ["v.Color.Red := TRUE"]},
                {"type": "call", "id": "u1", "instance": "inst.a",
                 "signature": "svc", "bindings": {"p": "v"}, "result": "got"},
            ],
        }
    ],
}


def minimal_model_data():
    return copy.deepcopy(_MINIMAL)


@pytest.fixture
def model_data():
    """Fresh deep copy of the minimal document, safe to mutate."""
    return minimal_model_data()


@pytest.fixture(scope="session")
def models_dir():
    return MODELS_DIR


@pytest.fixture(scope="session")
def shop_path(models_dir):
    return models_dir / "online_shop.json"


@pytest.fixture(scope="session")
def shop_no_encrypt_path(models_dir):
    return models_dir / "online_shop_no_encrypt.json"


@pytest.fixture(scope="session")
def geo_constraints_path(models_dir):
    return models_dir / "geo.constraints"


def unchecked_model(data):
    """Build a model as the loader does, but without its cross-reference
    checks, as code that builds models without the loader may."""
    from flowcheck.loader import _Builder

    return _Builder(None).build(data)


def call_chain_model_data(levels: int, entries=(0,)) -> dict:
    """``c0 -> c1 -> ...``, ``levels`` deep, with one scenario ``u{n}``
    entering at each level of ``entries``; a scenario entering at level
    ``e`` nests ``levels - e`` calls."""
    components, instances, connectors = [], [], []
    for k in range(levels):
        actions = [{"type": "variable", "id": f"c{k}.work", "assignments": ["x.T.V := p.T.V"]}]
        if k + 1 < levels:
            actions.append({"type": "call", "id": f"c{k}.call", "role": "next",
                            "signature": f"c{k + 1}.run", "bindings": {"p": "x"}})
            connectors.append({"instance": f"i{k}", "role": "next", "target": f"i{k + 1}"})
        actions.append({"type": "return", "id": f"c{k}.ret",
                        "assignments": ["RETURN.T.V := x.T.V"]})
        components.append({"id": f"c{k}", "name": f"C{k}", "labels": ["T.V"] if k % 2 else [],
                           "signatures": [{"id": f"c{k}.run", "parameters": ["p"]}],
                           "seffs": {f"c{k}.run": actions}})
        instances.append({"id": f"i{k}", "component": f"c{k}"})
    scenarios = [
        {"id": f"u{n}", "name": f"u{n}", "userLabels": [],
         "actions": [{"type": "variable", "id": f"u{n}.data", "assignments": ["d.T.V := TRUE"]},
                     {"type": "call", "id": f"u{n}.call", "instance": f"i{level}",
                      "signature": f"c{level}.run", "bindings": {"p": "d"}}]}
        for n, level in enumerate(entries)
    ]
    return {"dictionary": {"labelTypes": [{"name": "T", "values": ["V"]}]},
            "components": components,
            "assembly": {"instances": instances, "connectors": connectors},
            "deployment": {"containers": [{"id": "h", "name": "h", "labels": []}],
                           "allocations": {f"i{k}": "h" for k in range(levels)}},
            "usageScenarios": scenarios}
