"""Seeded workload generators with expected results derived by construction.

Each generator builds a *spec*: the model as plain Python data in which
every assignment is kept in structured form next to the text it renders
to.  ``render_model`` turns a spec into the JSON document flowcheck
reads; ``expected_report`` walks the same spec with a small label
tracker of its own and produces the exact report and exit code that
``flowcheck analyze`` must print.  The tracker shares no code with
flowcheck: labels are bits of its own numbering, and it understands only
the restricted assignment forms the generators emit:

* ``v.T.V := term`` where ``term`` combines concrete references and
  ``TRUE``/``FALSE`` with ``&``, ``|`` and ``!``;
* ``v.T.* := w.T.*`` (copy one label type);
* ``v.*.* := w.*.*`` (copy every label).

Defective models are a clean spec with one injected defect.  They must be
refused with exit code 2, an empty report, and an error output that names
the injected element (``Case.needle``).
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass

RETURN = "RETURN"

GEO = (
    "geo",
    ("ref", "node", "ServerLocation", "nonEU"),
    ("and", ("ref", "data", "DataSensitivity", "Personal"),
     ("not", ("ref", "data", "Encryption", "Encrypted"))),
)

CORE_TYPES = [
    ("ServerLocation", ["EU", "nonEU"]),
    ("DataSensitivity", ["Personal", "Internal", "Public"]),
    ("Encryption", ["Encrypted"]),
    ("Integrity", ["Verified", "Tampered"]),
]

ATTR_NAMES = [
    "Tier", "Zone", "Retention", "Audit", "Region", "Tenant", "Backup",
    "Compliance", "Channel", "Format", "Origin", "Priority", "Consent",
    "Purpose", "Lifecycle", "Protocol", "Availability", "Owner",
    "Classification", "Jurisdiction", "Storage", "Transport", "Identity",
    "Logging", "Masking", "Quota",
]

DEFECT_KINDS = ("unknown-label", "dangling-connector", "unbound-parameter")


@dataclass
class Case:
    """One analysis input together with the verdict it must produce."""

    name: str
    model: dict  # JSON document
    constraints: str  # constraints file text
    code: int  # expected exit code
    stdout: str  # expected standard output, byte for byte
    elements: int  # extracted sequence elements (0 when refused)
    needle: str | None = None  # must appear in the error output of a refusal


# ---------------------------------------------------------------------------
# rendering


def term_text(term) -> str:
    tag = term[0]
    if tag == "const":
        return "TRUE" if term[1] else "FALSE"
    if tag == "ref":
        _, var, type_name, value = term
        return f"{var}.{type_name or '*'}.{value or '*'}"
    if tag == "not":
        return "!" + _operand(term[1])
    op = " & " if tag == "and" else " | "
    return _operand(term[1]) + op + _operand(term[2])


def _operand(term) -> str:
    text = term_text(term)
    return f"({text})" if term[0] in ("and", "or") else text


def assignment_text(assignment) -> str:
    var, type_name, value, rhs = assignment
    return f"{var}.{type_name or '*'}.{value or '*'} := {term_text(rhs)}"


def constraints_text(constraints) -> str:
    return "".join(
        f"VIOLATION {name} WHERE {term_text(node)} AND DATA {term_text(data)}\n"
        for name, node, data in constraints
    )


def _action_data(action) -> dict:
    out = {k: v for k, v in action.items() if k not in ("assign", "bindings")}
    if "assign" in action:
        out["assignments"] = [assignment_text(a) for a in action["assign"]]
    if "bindings" in action:
        out["bindings"] = dict(action["bindings"])
    return out


def render_model(spec) -> dict:
    return {
        "dictionary": {
            "labelTypes": [{"name": n, "values": list(v)} for n, v in spec["types"]]
        },
        "components": [
            {
                "id": c["id"],
                "name": c["id"],
                "labels": c["labels"],
                "signatures": [
                    {"id": sid, "parameters": list(params)}
                    for sid, params in c["signatures"]
                ],
                "seffs": {
                    sid: [_action_data(a) for a in actions]
                    for sid, actions in c["seffs"].items()
                },
            }
            for c in spec["components"]
        ],
        "assembly": {
            "instances": [{"id": i, "component": c} for i, c in spec["instances"]],
            "connectors": [
                {"instance": i, "role": r, "target": t} for i, r, t in spec["connectors"]
            ],
        },
        "deployment": {
            "containers": [
                {"id": h, "name": h, "labels": labels} for h, labels in spec["containers"]
            ],
            "allocations": dict(spec["allocations"]),
        },
        "usageScenarios": [
            {
                "id": s["id"],
                "name": s["id"],
                "userLabels": s["userLabels"],
                "actions": [_action_data(a) for a in s["actions"]],
            }
            for s in spec["scenarios"]
        ],
    }


# ---------------------------------------------------------------------------
# expected results by construction


class _Tracker:
    """Walks a spec the way the analysis defines it and records matches."""

    def __init__(self, spec):
        self.bit = {}
        self.type_mask = {}
        for type_name, values in spec["types"]:
            mask = 0
            for value in values:
                self.bit[(type_name, value)] = len(self.bit)
                mask |= 1 << self.bit[(type_name, value)]
            self.type_mask[type_name] = mask
        self.components = {c["id"]: c for c in spec["components"]}
        self.instance_component = dict(spec["instances"])
        self.connectors = {(i, r): t for i, r, t in spec["connectors"]}
        container_mask = {h: self.mask(labels) for h, labels in spec["containers"]}
        self.node_mask = {}
        for instance, component in spec["instances"]:
            host = dict(spec["allocations"]).get(instance)
            self.node_mask[instance] = self.mask(
                self.components[component]["labels"]
            ) | container_mask.get(host, 0)
        self.constraints = spec["constraints"]
        self.lines = [[] for _ in self.constraints]
        self._node_ok = {}
        self.elements = 0
        self.sequence = 0
        self.position = 0

    def mask(self, labels) -> int:
        out = 0
        for label in labels:
            out |= 1 << self.bit[tuple(label.split("."))]
        return out

    def truth(self, term, lookup) -> bool:
        tag = term[0]
        if tag == "const":
            return term[1]
        if tag == "ref":
            return lookup(term[1]) >> self.bit[(term[2], term[3])] & 1 == 1
        if tag == "not":
            return not self.truth(term[1], lookup)
        if tag == "and":
            return self.truth(term[1], lookup) and self.truth(term[2], lookup)
        return self.truth(term[1], lookup) or self.truth(term[2], lookup)

    # frames are [variables dict, one set of satisfying names per constraint]

    def new_frame(self, variables):
        frame = [variables, [set() for _ in self.constraints]]
        self.refresh(frame, variables)
        return frame

    def refresh(self, frame, names) -> None:
        variables, satisfying = frame
        for index, (_, _, data) in enumerate(self.constraints):
            matched = satisfying[index]
            for name in names:
                mask = variables[name]
                if self.truth(data, lambda _var: mask):
                    matched.add(name)
                else:
                    matched.discard(name)

    def apply(self, frame, assignments) -> None:
        variables = frame[0]
        pre = dict(variables)
        for var, type_name, value, rhs in assignments:
            current = variables.get(var, 0)
            if type_name is None:
                current = pre.get(rhs[1], 0)
            elif value is None:
                region = self.type_mask[type_name]
                current = (current & ~region) | (pre.get(rhs[1], 0) & region)
            else:
                bit = 1 << self.bit[(type_name, value)]
                if self.truth(rhs, lambda name: pre.get(name, 0)):
                    current |= bit
                else:
                    current &= ~bit
            variables[var] = current
        self.refresh(frame, {a[0] for a in assignments})

    def emit(self, element_id, node_mask, frame) -> None:
        node_ok = self._node_ok.get(node_mask)
        if node_ok is None:
            node_ok = [
                self.truth(node, lambda _var: node_mask)
                for _, node, _ in self.constraints
            ]
            self._node_ok[node_mask] = node_ok
        for index, (name, _, _) in enumerate(self.constraints):
            matched = frame[1][index]
            if node_ok[index] and matched:
                self.lines[index].append(
                    f"CONSTRAINT {name} SEQ {self.sequence} ELEM {self.position} "
                    f"NODE {element_id} VARS {','.join(sorted(matched))}"
                )
        self.position += 1
        self.elements += 1

    def call(self, stack, action, caller_mask, instance, signature) -> None:
        caller = stack[-1][0]
        stack.append(self.new_frame({p: caller[v] for p, v in action["bindings"]}))
        self.emit(action["id"], caller_mask, stack[-1])
        self.expand(stack, instance, signature)
        returned = stack.pop()[0]
        frame = stack[-1]
        if action.get("result") is not None:
            frame[0][action["result"]] = returned.get(RETURN, 0)
            self.refresh(frame, [action["result"]])
        self.emit(action["id"], caller_mask, frame)

    def expand(self, stack, instance, signature) -> None:
        component = self.components[self.instance_component[instance]]
        node_mask = self.node_mask[instance]
        for action in component["seffs"][signature]:
            if action["type"] == "call":
                callee = self.connectors[(instance, action["role"])]
                self.call(stack, action, node_mask, callee, action["signature"])
            else:
                self.apply(stack[-1], action["assign"])
                self.emit(action["id"], node_mask, stack[-1])

    def run(self, scenarios) -> None:
        for index, scenario in enumerate(scenarios):
            self.sequence, self.position = index, 0
            user_mask = self.mask(scenario["userLabels"])
            stack = [self.new_frame({})]
            self.emit(scenario["id"], user_mask, stack[-1])
            for action in scenario["actions"]:
                if action["type"] == "call":
                    self.call(stack, action, user_mask, action["instance"], action["signature"])
                else:
                    self.apply(stack[-1], action["assign"])
                    self.emit(action["id"], user_mask, stack[-1])


def expected_report(spec) -> tuple[str, int, int]:
    """(standard output, exit code, element count) of analysing ``spec``."""
    tracker = _Tracker(spec)
    tracker.run(spec["scenarios"])
    lines = [line for per_constraint in tracker.lines for line in per_constraint]
    total = len(lines)
    lines.append(f"TOTAL {total} violations")
    return "\n".join(lines) + "\n", (1 if total else 0), tracker.elements


def clean_case(name, spec) -> Case:
    stdout, code, elements = expected_report(spec)
    return Case(name, render_model(spec), constraints_text(spec["constraints"]),
                code, stdout, elements)


# ---------------------------------------------------------------------------
# defects


def defective_case(name, spec, kind, rng) -> Case:
    """A copy of ``spec`` with one injected defect, which must be refused."""
    spec = copy.deepcopy(spec)
    tag = f"{rng.randrange(10**6):06d}"
    if kind == "unknown-label":
        _, labels = rng.choice(spec["containers"])
        type_name = rng.choice([n for n, _ in spec["types"]])
        needle = f"{type_name}.Undeclared{tag}"
        labels.append(needle)
    elif kind == "dangling-connector":
        index = rng.randrange(len(spec["connectors"]))
        instance, role, _ = spec["connectors"][index]
        needle = f"inst.missing{tag}"
        spec["connectors"][index] = (instance, role, needle)
    elif kind == "unbound-parameter":
        calls = [
            action
            for holder in _action_lists(spec)
            for action in holder
            if action["type"] == "call" and action["bindings"]
        ]
        action = rng.choice(calls)
        needle = f"ghost{tag}"
        param, _ = action["bindings"][0]
        action["bindings"][0] = (param, needle)
    else:
        raise ValueError(f"unknown defect kind {kind!r}")
    return Case(name, render_model(spec), constraints_text(spec["constraints"]),
                2, "", 0, needle)


def _action_lists(spec):
    for component in spec["components"]:
        yield from component["seffs"].values()
    for scenario in spec["scenarios"]:
        yield scenario["actions"]


# ---------------------------------------------------------------------------
# shared building blocks


def _types(attr_count, values):
    attrs = [(name, [f"{name[:3].lower()}{k}" for k in range(values)])
             for name in ATTR_NAMES[:attr_count]]
    return CORE_TYPES + attrs, attrs


def _spec(types):
    return {
        "types": types,
        "components": [],
        "instances": [],
        "connectors": [],
        "containers": [],
        "allocations": [],
        "scenarios": [],
        "constraints": [],
    }


def _label(rng, attrs) -> str:
    name, values = rng.choice(attrs)
    return f"{name}.{rng.choice(values)}"


def _hosts(rng, spec, attrs, count):
    """Half of the hosts in the EU, half outside; each with attribute labels."""
    hosts = []
    for index in range(count):
        location = "EU" if index % 2 == 0 else "nonEU"
        labels = sorted({f"ServerLocation.{location}", _label(rng, attrs), _label(rng, attrs)})
        spec["containers"].append((f"host{index}", labels))
        hosts.append(f"host{index}")
    return hosts


def _attr_constraint(rng, name, attrs):
    (t1, v1), (t2, v2), (t3, v3) = (
        (n, rng.choice(vs)) for n, vs in rng.sample(attrs, 3)
    )
    node = ("and", ("ref", "node", t1, v1), ("not", ("ref", "node", "ServerLocation", "EU")))
    data = ("or", ("ref", "data", t2, v2), ("ref", "data", t3, v3))
    return (name, node, data)


# ---------------------------------------------------------------------------
# fleet-load: a broad architecture, loading dominates


def fleet_spec(rng, components=400, signatures=3, scenarios=4, attr_types=26):
    """Hundreds of components with distinct assignment texts; few short flows.

    Components sit in four tiers; every seff above the last tier calls one
    component of the next tier, so each flow nests exactly three calls deep
    and every model extracts the same number of elements.  Every variable name carries
    its component and signature, so assignment texts rarely repeat.
    """
    types, attrs = _types(attr_types, 4)
    spec = _spec(types)
    hosts = _hosts(rng, spec, attrs, 12)
    tiers = 4
    per_tier = components // tiers
    for index in range(components):
        tier = index // per_tier
        cid = f"c{index}"
        instance = f"inst.{cid}"
        labels = sorted({_label(rng, attrs) for _ in range(rng.randint(1, 2))})
        sigs, seffs = [], {}
        for k in range(signatures):
            sid = f"{cid}.op{k}"
            params = [f"req{index}_{k}", f"ctx{index}_{k}"]
            sigs.append((sid, params))
            scope = list(params)
            actions = []
            for n in range(4):
                assign = []
                for m in range(2):
                    target = f"v{index}_{k}_{n}{m}" if rng.random() < 0.5 else rng.choice(scope)
                    assign.append(_random_assignment(rng, target, scope, types, attrs))
                for a in assign:
                    if a[0] not in scope:
                        scope.append(a[0])
                actions.append({"type": "variable", "id": f"{sid}.a{n}", "assign": assign})
                if n == 1 and tier < tiers - 1:
                    target = (tier + 1) * per_tier + rng.randrange(per_tier)
                    role = f"r{k}"
                    op = rng.randrange(signatures)
                    result = f"res{index}_{k}"
                    actions.append({
                        "type": "call", "id": f"{sid}.call", "role": role,
                        "signature": f"c{target}.op{op}",
                        "bindings": [(f"req{target}_{op}", rng.choice(scope)),
                                     (f"ctx{target}_{op}", rng.choice(scope))],
                        "result": result,
                    })
                    spec["connectors"].append((instance, role, f"inst.c{target}"))
                    scope.append(result)
            actions.append({
                "type": "return", "id": f"{sid}.ret",
                "assign": [(RETURN, None, None, ("ref", rng.choice(scope), None, None))],
            })
            seffs[sid] = actions
        spec["components"].append(
            {"id": cid, "labels": labels, "signatures": sigs, "seffs": seffs}
        )
        spec["instances"].append((instance, cid))
        spec["allocations"].append((instance, rng.choice(hosts)))
    for s in range(scenarios):
        actions = [_user_data_action(rng, f"s{s}.data", ["order", "profile"], attrs)]
        for call in range(2):
            target = rng.randrange(per_tier)
            k = rng.randrange(signatures)
            actions.append({
                "type": "call", "id": f"s{s}.call{call}", "instance": f"inst.c{target}",
                "signature": f"c{target}.op{k}",
                "bindings": [(f"req{target}_{k}", "order"), (f"ctx{target}_{k}", "profile")],
                "result": f"out{call}",
            })
        spec["scenarios"].append(
            {"id": f"s{s}", "userLabels": ["ServerLocation.EU"], "actions": actions}
        )
    spec["constraints"] = [GEO] + [_attr_constraint(rng, f"rule{i}", attrs) for i in range(2)]
    return spec


def _random_assignment(rng, target, scope, types, attrs):
    roll = rng.random()
    source = rng.choice(scope)
    if roll < 0.15:
        return (target, None, None, ("ref", source, None, None))
    if roll < 0.3:
        name, _ = rng.choice(attrs)
        return (target, name, None, ("ref", source, name, None))
    name, values = rng.choice(types)
    value = rng.choice(values)
    if roll < 0.5:
        return (target, name, value, ("const", rng.random() < 0.7))
    refs = []
    for _ in range(rng.randint(1, 3)):
        ref_name, ref_values = rng.choice(types)
        ref = ("ref", rng.choice(scope), ref_name, rng.choice(ref_values))
        refs.append(("not", ref) if rng.random() < 0.3 else ref)
    term = refs[0]
    for ref in refs[1:]:
        term = ("and" if rng.random() < 0.5 else "or", term, ref)
    return (target, name, value, term)


def _user_data_action(rng, action_id, names, attrs):
    assign = []
    for name in names:
        sensitivity = rng.choice(["Personal", "Internal", "Public"])
        assign.append((name, "DataSensitivity", sensitivity, ("const", True)))
        assign.append((name, "Encryption", "Encrypted", ("const", rng.random() < 0.5)))
        attr, values = rng.choice(attrs)
        assign.append((name, attr, rng.choice(values), ("const", True)))
    return {"type": "variable", "id": action_id, "assign": assign}


# ---------------------------------------------------------------------------
# shared-callee: many flows through one call chain, extraction and
# propagation dominate


def shared_callee_spec(rng, scenarios=100, chain=3, actions=300):
    """Every scenario calls the same chain of ``chain`` seffs.

    Most actions forward ``in.*.* := in.*.*``; a few mark a stage or copy
    into a local.  The last seff runs outside the EU and drops the
    encryption of its input two actions before it returns, so only
    scenarios that send personal data violate, on a handful of elements.
    """
    types, attrs = _types(4, 3)
    types = types + [("Stage", [f"S{i}" for i in range(chain)])]
    spec = _spec(types)
    locations = ["EU"] * (chain - 1) + ["nonEU"]
    for level in range(chain):
        cid = f"svc{level}"
        instance = f"inst.{cid}"
        sid = f"{cid}.handle"
        host = f"host{level}"
        spec["containers"].append(
            (host, sorted({f"ServerLocation.{locations[level]}", _label(rng, attrs)}))
        )
        body = []
        call_at = actions // 2 if level < chain - 1 else None
        for n in range(actions):
            aid = f"{sid}.a{n}"
            if n == call_at:
                body.append({
                    "type": "call", "id": f"{sid}.next", "role": "next",
                    "signature": f"svc{level + 1}.handle",
                    "bindings": [("in", "in")], "result": "res",
                })
                spec["connectors"].append((instance, "next", f"inst.svc{level + 1}"))
            if level == chain - 1 and n == actions - 2:
                assign = [("in", "Encryption", "Encrypted", ("const", False))]
            elif n % 50 == 7:
                assign = [("in", "Stage", f"S{level}", ("const", True))]
            elif n % 50 == 31:
                assign = [("copy", None, None, ("ref", "in", None, None))]
            else:
                assign = [("in", None, None, ("ref", "in", None, None))]
            body.append({"type": "variable", "id": aid, "assign": assign})
        body.append({
            "type": "return", "id": f"{sid}.ret",
            "assign": [(RETURN, None, None, ("ref", "in", None, None))],
        })
        spec["components"].append({
            "id": cid, "labels": [], "signatures": [(sid, ["in"])], "seffs": {sid: body},
        })
        spec["instances"].append((instance, cid))
        spec["allocations"].append((instance, host))
    for s in range(scenarios):
        personal = rng.random() < 0.1
        assign = [
            ("d", "DataSensitivity", "Personal" if personal else rng.choice(["Internal", "Public"]),
             ("const", True)),
            ("d", "Encryption", "Encrypted", ("const", True)),
        ]
        name, values = rng.choice(attrs)
        assign.append(("d", name, rng.choice(values), ("const", True)))
        spec["scenarios"].append({
            "id": f"flow{s}", "userLabels": ["ServerLocation.EU"],
            "actions": [
                {"type": "variable", "id": f"flow{s}.data", "assign": assign},
                {"type": "call", "id": f"flow{s}.call", "instance": "inst.svc0",
                 "signature": "svc0.handle", "bindings": [("in", "d")], "result": "r"},
            ],
        })
    spec["constraints"] = [
        GEO,
        ("tamper", ("not", ("ref", "node", "Integrity", "Tampered")),
         ("ref", "data", "Integrity", "Tampered")),
    ]
    return spec


# ---------------------------------------------------------------------------
# wide-frames: one flow with hundreds of parameters, query dominates


def wide_frames_spec(rng, parameters=300, actions=3000):
    """One scenario binds ``parameters`` variables into one long seff.

    Each action sets one label on one parameter.  Every snapshot holds
    all parameters, and the seff runs outside the EU, so every constraint
    scans every parameter at every element.  A few personal parameters
    lose their encryption near the end, which yields a moderate report.
    """
    types, attrs = _types(8, 4)
    spec = _spec(types)
    spec["containers"] = [("host.eu", ["ServerLocation.EU"]),
                          ("host.far", ["ServerLocation.nonEU", _label(rng, attrs)])]
    params = [f"p{i}" for i in range(parameters)]
    personal = sorted(rng.sample(range(parameters), parameters // 5))
    exposed = rng.sample(personal, min(3, len(personal)))
    exposed_at = sorted(rng.sample(range(max(0, actions - 40), actions), len(exposed)))
    exposure = dict(zip(exposed_at, exposed))
    body = []
    for n in range(actions):
        if n in exposure:
            assign = [(f"p{exposure[n]}", "Encryption", "Encrypted", ("const", False))]
        else:
            target = rng.choice(params)
            name, values = rng.choice(attrs)
            if rng.random() < 0.7:
                rhs = ("const", rng.random() < 0.8)
            else:
                source_name, source_values = rng.choice(attrs)
                rhs = ("ref", rng.choice(params), source_name, rng.choice(source_values))
            assign = [(target, name, rng.choice(values), rhs)]
        body.append({"type": "variable", "id": f"w.a{n}", "assign": assign})
    body.append({"type": "return", "id": "w.ret",
                 "assign": [(RETURN, None, None, ("ref", params[0], None, None))]})
    spec["components"] = [
        {"id": "wide", "labels": [], "signatures": [("wide.ingest", params)],
         "seffs": {"wide.ingest": body}},
        {"id": "sink", "labels": [], "signatures": [("sink.drop", ["x"])],
         "seffs": {"sink.drop": [{"type": "return", "id": "k.ret", "assign": []}]}},
    ]
    spec["instances"] = [("inst.wide", "wide"), ("inst.sink", "sink")]
    spec["connectors"] = [("inst.wide", "audit", "inst.sink")]
    spec["allocations"] = [("inst.wide", "host.far"), ("inst.sink", "host.eu")]
    user = []
    personal_set = set(personal)
    for i in range(parameters):
        sensitivity = "Personal" if i in personal_set else rng.choice(["Internal", "Public"])
        user.append((f"u{i}", "DataSensitivity", sensitivity, ("const", True)))
        user.append((f"u{i}", "Encryption", "Encrypted", ("const", True)))
    spec["scenarios"] = [{
        "id": "ingest", "userLabels": ["ServerLocation.EU"],
        "actions": [
            {"type": "variable", "id": "u.data", "assign": user},
            {"type": "call", "id": "u.call", "instance": "inst.wide",
             "signature": "wide.ingest",
             "bindings": [(f"p{i}", f"u{i}") for i in range(parameters)],
             "result": "r"},
        ],
    }]
    spec["constraints"] = [
        GEO,
        ("tamper", ("ref", "node", "ServerLocation", "nonEU"),
         ("ref", "data", "Integrity", "Tampered")),
    ]
    return spec


# ---------------------------------------------------------------------------
# workloads

GENERATORS = {
    "fleet-load": fleet_spec,
    "shared-callee": shared_callee_spec,
    "wide-frames": wide_frames_spec,
}


def make_cases(workload, seed, clean=4, **sizes) -> list[Case]:
    """``clean`` models plus one defective model of each defect kind."""
    generate = GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    specs = [generate(random.Random(rng.random()), **sizes) for _ in range(clean)]
    cases = [clean_case(f"{workload}-{i}", spec) for i, spec in enumerate(specs)]
    for i, kind in enumerate(DEFECT_KINDS):
        cases.append(defective_case(f"{workload}-{kind}", specs[i % clean], kind, rng))
    return cases


def write_case(case, directory) -> tuple[str, str]:
    model_path = directory / f"{case.name}.json"
    constraints_path = directory / f"{case.name}.constraints"
    model_path.write_text(json.dumps(case.model, indent=1), encoding="utf-8")
    constraints_path.write_text(case.constraints, encoding="utf-8")
    return str(model_path), str(constraints_path)
