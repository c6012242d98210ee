"""Deterministic random models and constraint texts for differential tests.

``random_small_model`` generates valid little models (at most ten
sequence elements) from a seed, emitting a manifest document and pushing
it through the regular loader, so the generator can never hand out a
model the loader would reject.  ``long_run_model`` does the same for
models whose sequences hold long runs of elements that change nothing,
and ``repeat_run_model`` for models whose actions repeat the action
just before them.
"""

import itertools
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


def long_run_model(seed: int) -> tuple[ArchitectureModel, list[str]]:
    """A valid model whose sequences hold long runs of elements that
    change nothing, with constraint texts for it; same seed, same pair.

    A forwarding service copies its parameter onto itself for tens of
    actions, with a call into a service on another instance, and so on
    another node, inside the run, and an occasional real change.  A
    service without parameters makes each call into it push the empty
    frame.  Scenarios differ in how many actions come before the same
    call, so one call context starts at several element positions.  At
    least one constraint is a plain condition and one references data.
    """
    rng = random.Random(seed)
    pairs = [("T", value) for value in "ABC"] + [("Loc", "In"), ("Loc", "Out")]

    def labels():
        return sorted(f"{t}.{v}" for t, v in rng.sample(pairs, rng.randint(0, 3)))

    def variable(action_id, text):
        return {"type": "variable", "id": action_id, "assignments": [text]}

    def forward(var, count, prefix):
        return [variable(f"{prefix}{k}", f"{var}.*.* := {var}.*.*") for k in range(count)]

    def service(name, parameters, actions):
        return {"id": f"c.{name}", "name": name, "labels": labels(),
                "signatures": [{"id": f"{name}.run", "name": "run", "parameters": parameters}],
                "seffs": {f"{name}.run": actions}}

    def ret(name, var):
        return {"type": "return", "id": f"{name}.ret", "assignments": [f"RETURN.*.* := {var}.*.*"]}

    side_var = rng.choice(["p", "q"])  # q is unbound: the side call binds nothing
    middle = {"type": "call", "id": "fwd.side", "role": "side", "signature": "side.run",
              "bindings": {"p": "in"} if side_var == "p" else {}}
    if rng.random() < 0.5:
        middle["result"] = "back"
    run = forward("in", rng.randint(5, 30), "fwd.a") + [middle] + forward("in", rng.randint(5, 30), "fwd.b")
    for k in range(rng.randint(0, 2)):
        change = rng.choice(["in.T.A := !in.T.A", "in.T.B := TRUE", "out.*.* := in.*.*"])
        run.insert(rng.randrange(len(run) + 1), variable(f"fwd.c{k}", change))
    components = [
        service("fwd", ["in"], run + [ret("fwd", "in")]),
        service("side", ["p"] if side_var == "p" else [],
                forward(side_var, rng.randint(1, 8), "side.f") + [ret("side", side_var)]),
        service("bare", [], forward("z", rng.randint(1, 5), "bare.f") + [ret("bare", "z")]),
    ]
    containers = [{"id": f"h{k}", "name": f"h{k}", "labels": labels()} for k in range(2)]

    scenarios = []
    for s in range(rng.randint(2, 4)):
        start = "d.T.A := TRUE" if rng.random() < 0.7 else "d.*.* := TRUE"  # few contexts
        actions = [variable(f"u{s}.d", start)]
        actions += forward("d", rng.randint(0, 12), f"u{s}.pad")  # a start offset of its own
        calls = [{"type": "call", "id": f"u{s}.fwd", "instance": "i.fwd",
                  "signature": "fwd.run", "bindings": {"in": "d"}, "result": "r"}]
        if rng.random() < 0.6:
            calls.insert(rng.randint(0, 1), {"type": "call", "id": f"u{s}.bare",
                                             "instance": "i.bare", "signature": "bare.run",
                                             "bindings": {}})
        actions += calls + [variable(f"u{s}.e", "e.*.* := r.*.*")] + forward("e", rng.randint(0, 5), f"u{s}.tail")
        scenarios.append({"id": f"scn{s}", "name": f"scn{s}", "userLabels": labels(),
                          "actions": actions})

    data = {
        "dictionary": {"labelTypes": [{"name": "T", "values": ["A", "B", "C"]},
                                      {"name": "Loc", "values": ["In", "Out"]}]},
        "components": components,
        "assembly": {"instances": [{"id": f"i.{name}", "component": f"c.{name}"}
                                   for name in ("fwd", "side", "bare")],
                     "connectors": [{"instance": "i.fwd", "role": "side", "target": "i.side"}]},
        "deployment": {"containers": containers,
                       "allocations": {"i.fwd": "h0", "i.side": "h1",
                                       "i.bare": rng.choice(["h0", "h1"])}},
        "usageScenarios": scenarios,
    }
    nodes = ["TRUE", "node.Loc.Out", "!node.Loc.Out", "node.Loc.In | node.T.A", "!node.T.B"]
    datas = ["data.T.A", "data.T.A & !data.T.B", "!data.T.C", "data.Loc.In | data.T.B"]
    texts = [f"VIOLATION plain WHERE {rng.choice(nodes)} AND DATA TRUE"]
    texts += [f"VIOLATION ref{k} WHERE {rng.choice(nodes)} AND DATA {rng.choice(datas)}"
              for k in range(rng.randint(1, 3))]
    return loader.model_from_data(data), texts


# each entry is one action's assignments; an action repeats as a run
REPEATED_ACTIONS = [
    ["k.T.A := TRUE"], ["k.T.* := FALSE"], ["k.*.* := FALSE"],  # constant sets and clears
    ["in.T.A := in.T.A"], ["in.T.* := in.T.*"], ["in.*.* := in.*.*"],  # self-copies
    ["fresh.*.* := fresh.*.*"],  # a self-copy that creates its variable
    ["out.*.* := in.*.*"], ["in.T.* := k.T.*"],  # copies from another variable
    ["in.T.A := !in.T.A"],  # a self-toggle, which each repetition changes
    ["in.T.A := TRUE", "out.T.A := in.T.A"],  # one op reads what another writes
    ["in.T.B := k.T.A", "k.T.A := !in.T.B"],
    ["in.T.A := in.T.A", "in.T.B := in.T.A"],
    ["in.T.* := FALSE", "in.T.A := in.T.A"],  # a self-copy after a clear of its region
    ["out.T.C := TRUE", "back.*.* := in.*.*"],
]


def repeat_run_model(seed: int) -> tuple[ArchitectureModel, list[str]]:
    """A valid model whose actions come in runs that repeat one action,
    with constraint texts for it; same seed, same pair.

    The runs are drawn from :data:`REPEATED_ACTIONS`.  Calls cut some of
    them: into a service without actions, whose result assignments
    rewrite what the run reads, or into a service that changes its
    parameter and returns it as the call's result.  The user repeats
    actions too, around the calls.  Scenarios bind different frames into
    one service, so its body is walked under several call contexts.
    """
    rng = random.Random(seed)
    pairs = [("T", value) for value in "ABC"] + [("Loc", "In"), ("Loc", "Out")]
    counter = itertools.count()

    def labels():
        return sorted(f"{t}.{v}" for t, v in rng.sample(pairs, rng.randint(0, 3)))

    def run(texts=None):
        texts = texts or rng.choice(REPEATED_ACTIONS)
        return [{"type": "variable", "id": f"a{next(counter)}", "assignments": texts}
                for _ in range(rng.randint(1, 5))]

    def cut():
        call = {"type": "call", "id": f"a{next(counter)}", "role": "empty", "signature": "empty.run",
                "bindings": {}}
        if rng.random() < 0.7:
            call["resultAssignments"] = [rng.choice(["in.T.B := TRUE", "k.*.* := FALSE",
                                                     "in.T.A := !in.T.A"])]
        if rng.random() < 0.3:
            call.update(role="side", signature="side.run", bindings={"p": "in"},
                        result=rng.choice(["in", "k", "back"]))
        return call

    def service(name, parameters, actions):
        return {"id": f"c.{name}", "name": name, "labels": labels(),
                "signatures": [{"id": f"{name}.run", "name": "run", "parameters": parameters}],
                "seffs": {f"{name}.run": actions}}

    body = []
    for _ in range(rng.randint(3, 6)):
        actions = run()
        if rng.random() < 0.4:  # the same action on both sides of a call
            actions += [cut()] + run(actions[0]["assignments"])
        body += actions
    body.append({"type": "return", "id": "fwd.ret", "assignments": ["RETURN.*.* := out.*.*"]})
    side = run(["p.T.C := !p.T.C"]) + [{"type": "return", "id": "side.ret",
                                         "assignments": ["RETURN.*.* := p.*.*"]}]
    components = [service("fwd", ["in", "k"], body), service("side", ["p"], side),
                  service("empty", [], [])]
    containers = [{"id": f"h{k}", "name": f"h{k}", "labels": labels()} for k in range(2)]

    scenarios = []
    for s in range(rng.randint(2, 4)):
        start = rng.choice(["d.T.A := TRUE", "d.*.* := TRUE", "d.Loc.In := TRUE"])
        actions = run([start]) + run(["e.T.B := d.T.A"])
        for _ in range(rng.randint(1, 2)):
            call = {"type": "call", "id": f"a{next(counter)}", "instance": "i.fwd",
                    "signature": "fwd.run", "bindings": {"in": "d", "k": "e"}}
            if rng.random() < 0.5:
                call["result"] = "d"
            actions += [call] + run(rng.choice([["e.*.* := d.*.*"], ["d.T.C := !d.T.C"]]))
        scenarios.append({"id": f"scn{s}", "name": f"scn{s}", "userLabels": labels(),
                          "actions": actions})

    data = {
        "dictionary": {"labelTypes": [{"name": "T", "values": ["A", "B", "C"]},
                                      {"name": "Loc", "values": ["In", "Out"]}]},
        "components": components,
        "assembly": {"instances": [{"id": f"i.{name}", "component": f"c.{name}"}
                                   for name in ("fwd", "side", "empty")],
                     "connectors": [{"instance": "i.fwd", "role": role, "target": f"i.{role}"}
                                    for role in ("side", "empty")]},
        "deployment": {"containers": containers,
                       "allocations": {"i.fwd": "h0", "i.side": rng.choice(["h0", "h1"]),
                                       "i.empty": "h1"}},
        "usageScenarios": scenarios,
    }
    nodes = ["TRUE", "node.Loc.Out", "!node.Loc.Out", "node.Loc.In | node.T.A"]
    datas = ["TRUE", "data.T.A", "data.T.A & !data.T.B", "!data.T.C", "data.Loc.In | data.T.B"]
    texts = [f"VIOLATION r{k} WHERE {rng.choice(nodes)} AND DATA {rng.choice(datas)}"
             for k in range(rng.randint(1, 3))]
    return loader.model_from_data(data), texts
