"""Deterministic random models and constraint texts for differential tests.

``random_small_model`` generates valid little models (at most ten
sequence elements) from a seed, emitting a manifest document and pushing
it through the regular loader, so the generator can never hand out a
model the loader would reject.
"""

import random

from flowcheck import loader
from flowcheck.model import ArchitectureModel, RETURN_VARIABLE


def _render(node) -> str:
    tag = node[0]
    if tag == "const":
        return "TRUE" if node[1] else "FALSE"
    if tag == "ref":
        _, var, type_name, value = node
        return f"{var}.{type_name or '*'}.{value or '*'}"
    if tag == "not":
        return "!" + _render(node[1])
    op = " & " if tag == "and" else " | "
    return "(" + op.join(_render(operand) for operand in node[1:]) + ")"


def random_small_model(seed: int) -> ArchitectureModel:
    """A valid pseudo-random model; same seed, same model.

    Shape: up to three label types with up to three values, one or two
    components (with an optional cross-component call), one scenario.
    Every extracted sequence stays within ten elements.  Scopes are kept
    as ordered lists so the draw sequence never depends on hash order.
    """
    rng = random.Random(seed)
    type_names = [f"T{i}" for i in range(rng.randint(1, 3))]
    label_types = [
        {"name": name, "values": [f"V{i}" for i in range(rng.randint(1, 3))]}
        for name in type_names
    ]
    pairs = [(lt["name"], value) for lt in label_types for value in lt["values"]]

    def some_labels(limit=2):
        count = rng.randint(0, min(limit, len(pairs)))
        return sorted(f"{t}.{v}" for t, v in rng.sample(pairs, count))

    def random_term(scope: list, arity, depth=0):
        roll = rng.random()
        if depth >= 2 or roll < 0.4:
            if rng.random() < 0.2:
                return ("const", rng.random() < 0.5)
            var = rng.choice(scope + ["ghost"])  # absent variables read as FALSE
            if arity == 2:
                return ("ref", var, None, None)
            if arity == 1:
                return ("ref", var, rng.choice(type_names), None)
            type_name, value = rng.choice(pairs)
            return ("ref", var, type_name, value)
        if roll < 0.55:
            return ("not", random_term(scope, arity, depth + 1))
        tag = "and" if rng.random() < 0.5 else "or"
        return (tag, random_term(scope, arity, depth + 1), random_term(scope, arity, depth + 1))

    def random_assignment(target, scope: list) -> str:
        arity = rng.choice((0, 0, 0, 1, 2))
        if arity == 0:
            type_name, value = rng.choice(pairs)
            head = f"{target}.{type_name}.{value}"
        elif arity == 1:
            head = f"{target}.{rng.choice(type_names)}.*"
        else:
            head = f"{target}.*.*"
        return f"{head} := {_render(random_term(scope, arity))}"

    def bring_into_scope(scope: list, name: str) -> None:
        if name not in scope:
            scope.append(name)

    def variable_action(action_id, scope: list, prefix) -> dict:
        texts = []
        for _ in range(rng.randint(1, 2)):
            fresh = f"{prefix}{len(scope)}"
            target = rng.choice(scope + [fresh]) if scope else fresh
            texts.append(random_assignment(target, scope))
            bring_into_scope(scope, target)
        return {"type": "variable", "id": action_id, "assignments": texts}

    def return_action(action_id, scope: list) -> dict:
        texts = [
            random_assignment(RETURN_VARIABLE, scope) for _ in range(rng.randint(0, 2))
        ]
        return {"type": "return", "id": action_id, "assignments": texts}

    # callee component (optional)
    use_callee = rng.random() < 0.7
    components = []
    callee_params = []
    callee_returns = False
    if use_callee:
        callee_params = [f"p{i}" for i in range(rng.randint(0, 2))]
        callee_returns = rng.random() < 0.6
        scope = list(callee_params)
        actions = []
        if rng.random() < 0.7 or not callee_returns:
            actions.append(variable_action("b.act0", scope, "b"))
        if callee_returns:
            actions.append(return_action("b.ret", scope))
        components.append(
            {
                "id": "comp.b",
                "name": "Callee",
                "labels": some_labels(),
                "signatures": [
                    {"id": "svc.b", "name": "serve", "parameters": callee_params}
                ],
                "seffs": {"svc.b": actions},
            }
        )

    # entry component
    entry_params = [f"q{i}" for i in range(rng.randint(0, 2))]
    entry_returns = rng.random() < 0.5
    scope = list(entry_params)
    actions = []
    call_used = False
    if not scope and (callee_params or rng.random() < 0.5):
        actions.append(variable_action("a.act0", scope, "a"))
    if use_callee and rng.random() < 0.8:
        bindings = {param: rng.choice(scope) for param in callee_params}
        call = {
            "type": "call",
            "id": "a.call",
            "role": "partner",
            "signature": "svc.b",
            "bindings": bindings,
        }
        if callee_returns and rng.random() < 0.7:
            call["result"] = "reply"
            bring_into_scope(scope, "reply")
            if rng.random() < 0.5:
                call["resultAssignments"] = [
                    random_assignment(rng.choice(scope), scope)
                ]
        actions.append(call)
        call_used = True
    if len(actions) < 2 and rng.random() < 0.6:
        actions.append(variable_action("a.act1", scope, "a"))
    if entry_returns:
        actions.append(return_action("a.ret", scope))
    if not actions:
        actions.append(variable_action("a.act0", scope, "a"))
    components.append(
        {
            "id": "comp.a",
            "name": "Entry",
            "labels": some_labels(),
            "signatures": [{"id": "svc.a", "name": "enter", "parameters": entry_params}],
            "seffs": {"svc.a": actions},
        }
    )

    instances = [{"id": "inst.a", "component": "comp.a"}]
    connectors = []
    if use_callee:
        instances.append({"id": "inst.b", "component": "comp.b"})
        if call_used:
            connectors.append({"instance": "inst.a", "role": "partner", "target": "inst.b"})

    containers = [{"id": f"node{i}", "name": f"node{i}", "labels": some_labels()} for i in range(rng.randint(1, 2))]
    allocations = {
        instance["id"]: rng.choice(containers)["id"] for instance in instances
    }

    # usage: define user variables (one action at most keeps sequences
    # within the ten-element budget), then call the entry signature
    user_scope: list[str] = []
    user_actions = []
    if entry_params or rng.random() < 0.7:
        user_actions.append(variable_action("u.act0", user_scope, "u"))
    call = {
        "type": "call",
        "id": "u.call",
        "instance": "inst.a",
        "signature": "svc.a",
        "bindings": {param: rng.choice(user_scope) for param in entry_params},
    }
    if entry_returns and rng.random() < 0.7:
        call["result"] = "outcome"
    user_actions.append(call)

    data = {
        "dictionary": {"labelTypes": label_types},
        "components": components,
        "assembly": {"instances": instances, "connectors": connectors},
        "deployment": {"containers": containers, "allocations": allocations},
        "usageScenarios": [
            {
                "id": "scn",
                "name": "generated",
                "userLabels": some_labels(),
                "actions": user_actions,
            }
        ],
    }
    # looked up on the module, so a test can rewrite the document on its way
    return loader.model_from_data(data)


def random_constraints(model: ArchitectureModel, seed: int, count: int = 3) -> list[str]:
    """Constraint texts drawn from the model's dictionary, seed-stable."""
    rng = random.Random(seed ^ 0x5EED)
    pairs = [(lt.name, value) for lt in model.dictionary.label_types for value in lt.values]
    texts = []
    for index in range(count):
        def leaf(prefix):
            if not pairs or rng.random() < 0.15:
                return ("const", True)
            type_name, value = rng.choice(pairs)
            return ("ref", prefix, type_name, value)

        def term(prefix, depth=0):
            roll = rng.random()
            if depth >= 2 or roll < 0.45:
                return leaf(prefix)
            if roll < 0.6:
                return ("not", term(prefix, depth + 1))
            tag = "and" if rng.random() < 0.5 else "or"
            return (tag, term(prefix, depth + 1), term(prefix, depth + 1))

        node_term = term("node")
        data_term = term("data") if rng.random() < 0.8 else ("const", True)
        texts.append(
            f"VIOLATION c{index} WHERE {_render(node_term)} AND DATA {_render(data_term)}"
        )
    return texts
