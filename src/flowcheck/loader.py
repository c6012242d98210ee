"""Load and save architecture models as JSON documents.

A model document has five members: ``dictionary``, ``components``,
``assembly``, ``deployment`` and ``usageScenarios``.  Each member is
either given inline or as a string holding a path to a JSON file,
resolved relative to the document's own location.

Loading walks the document once.  The builder collects *structural*
defects (wrong JSON shapes or types, unparseable assignment texts,
unknown labels) and checks each entry against its siblings as it reads
it (duplicate ids, names, assignments, variable scope, Return placement,
seff coverage).  The dictionary's own defects come from
:attr:`~flowcheck.labels.DataDictionary.defects`, found while it lays
out its bits, and :func:`~flowcheck.model.validate_model` then makes the
cross-reference checks.  Semantic defects are reported, local ones
first, only when there is no structural defect, and a single
:class:`ModelLoadError` carries all of them.  Behaviour is restricted to
straight-line actions; any other action type (branches, loops, forks,
...) is rejected here.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import terms
from .errors import DictionaryError, ModelLoadError, TermSyntaxError
from .labels import DataDictionary, LabelSet, LabelType, is_identifier
from .model import (
    RETURN_VARIABLE,
    ArchitectureModel,
    Assembly,
    AssemblyInstance,
    Assignment,
    Component,
    Connector,
    Container,
    Deployment,
    ExternalCall,
    ReturnAction,
    Seff,
    Signature,
    SystemCall,
    UsageScenario,
    VariableAction,
    assignment_from_text,
    validate_model,
)

__all__ = [
    "load_model",
    "load_model_text",
    "model_from_data",
    "serialize_model",
    "model_to_json",
    "save_model",
]

# json.loads raises JSONDecodeError (a ValueError) on bad syntax, a plain
# ValueError on an integer literal past the digit limit, and RecursionError
# on a document nested too deeply for its recursive decoder
_JSON_ERRORS = (ValueError, RecursionError)


def load_model(path, timings=None) -> ArchitectureModel:
    """Load, construct and validate a model from a JSON file; ``timings``
    (:class:`~flowcheck.analysis.Timings`) gets the json and build parts."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelLoadError([f"cannot read model file '{path}': {exc}"]) from None
    return load_model_text(text, base_dir=path.parent, source=str(path), timings=timings)


def load_model_text(text: str, base_dir=None, source: str = "<text>",
                    timings=None) -> ArchitectureModel:
    try:
        data = json.loads(text)
    except _JSON_ERRORS as exc:
        raise ModelLoadError([f"{source}: malformed JSON: {exc}"]) from None
    if timings:
        timings.split("json")
    return model_from_data(data, base_dir=base_dir, timings=timings)


def model_from_data(data, base_dir=None, timings=None) -> ArchitectureModel:
    """Construct and validate a model from an already-parsed document."""
    builder = _Builder(base_dir)
    model = builder.build(data)
    if timings:
        timings.split("build")
    # structural defects make follow-up semantic noise likely; semantic
    # defects are reported only for a structurally sound document
    defects = builder.defects or builder.semantic + validate_model(model)
    if defects:
        raise ModelLoadError(defects)
    return model


def _quoted(text: str) -> str:
    """An assignment text as a defect line quotes it: at most 200 characters."""
    return text if len(text) <= 200 else text[:200] + "..."


def _assignment_defects(a: Assignment, known, return_target: bool):
    """Owner-independent defect suffixes for one parsed assignment, each
    distinct suffix once, in first-seen order.  ``known`` holds the pairs
    of :meth:`~flowcheck.labels.DataDictionary.known_pairs`; only an
    assignment that names another pair has its defects worded."""
    arity = (a.target_type is None) + (a.target_value is None)
    pairs = known[arity]
    if (a.target_var == RETURN_VARIABLE) == return_target and (a.target_type, a.target_value) in pairs:
        for _, _, type_name, value in a.refs:
            if (type_name, value) not in pairs:
                break
        else:
            return ()
    target = ("ref", a.target_var, a.target_type, a.target_value)
    out = []
    if return_target:
        if a.target_var != RETURN_VARIABLE:
            out.append(f"return assignments must target {RETURN_VARIABLE}")
    elif a.target_var == RETURN_VARIABLE:
        out.append(f"variable name {RETURN_VARIABLE} is reserved")
    for _, var, type_name, value in (target, *a.refs):  # the target has the arity
        ref_arity = terms.wildcard_arity(type_name, value)
        if ref_arity != arity:
            out.append(f"reference '{var}' has wildcard arity {ref_arity}, target has {arity}")
        if type_name is not None and (type_name, None) not in known[1]:
            out.append(f"unknown label type '{type_name}'")
        elif value is not None and (type_name, value) not in known[0]:
            out.append(f"unknown value '{value}' for label type '{type_name}'")
    return tuple(dict.fromkeys(out))


class _Builder:
    def __init__(self, base_dir):
        self.base_dir = Path(base_dir) if base_dir is not None else None
        self.defects: list[str] = []  # structural
        self.semantic: list[str] = []  # local semantic
        self.dictionary = DataDictionary(())
        self.signature_owner: dict[str, str] = {}  # signature id -> component id
        # The parse cache interns assignment texts, so verdicts are cached per
        # Assignment object; one dict per return_target flag, because a tuple
        # key per lookup would feed the cyclic collector during the build.
        self.verdicts: tuple[dict[Assignment, tuple[str, ...]], ...] = ({}, {})

    def defect(self, message: str) -> None:
        self.defects.append(message)

    def build(self, data) -> ArchitectureModel:
        if not isinstance(data, dict):
            self.defect("model document must be a JSON object")
            data = {}
        dictionary_data = self._member(data, "dictionary", dict, {})
        self.dictionary = self._dictionary(dictionary_data)
        self.known = self.dictionary.known_pairs()
        self.semantic.extend(self.dictionary.defects)
        components = self._components(self._member(data, "components", list, []))
        assembly = self._assembly(self._member(data, "assembly", dict, {}))
        deployment = self._deployment(self._member(data, "deployment", dict, {}))
        scenarios = self._scenarios(self._member(data, "usageScenarios", list, []))
        return ArchitectureModel(self.dictionary, components, assembly, deployment, scenarios)

    def _member(self, data, name, expected_type, default):
        value = data.get(name)
        if value is None:
            return default
        if isinstance(value, str):
            value = self._load_ref(name, value)
            if value is None:
                return default
        if not isinstance(value, expected_type):
            self.defect(f"member '{name}' must be a {expected_type.__name__}")
            return default
        return value

    def _load_ref(self, name, ref):
        if self.base_dir is None:
            self.defect(f"member '{name}': file reference '{ref}' needs a base directory")
            return None
        path = self.base_dir / ref
        try:
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            self.defect(f"member '{name}': cannot read '{path}': {exc}")
            return None
        try:
            return json.loads(text)
        except _JSON_ERRORS as exc:
            self.defect(f"member '{name}': malformed JSON in '{path}': {exc}")
            return None

    def _list(self, obj, key, where) -> list:
        value = obj.get(key, [])
        if isinstance(value, list):
            return value
        self.defect(f"{where}: '{key}' must be a list")
        return []

    # -- member builders ----------------------------------------------------

    def _dictionary(self, data) -> DataDictionary:
        types = []
        for entry in self._list(data, "labelTypes", "dictionary"):
            if not isinstance(entry, dict):
                self.defect("dictionary: each label type must be an object")
                continue
            name = self._str(entry, "name", "dictionary label type")
            values = entry.get("values", [])
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                owner = "dictionary label type" if name is None else f"label type '{name}'"
                self.defect(f"{owner}: 'values' must be a list of strings")
                values = []
            if name is not None:
                types.append(LabelType(name, values))
        return DataDictionary(types)

    def _labels(self, obj, key, where) -> LabelSet:
        raw = obj.get(key)
        if raw is None:
            raw = []
        if not isinstance(raw, list):
            self.defect(f"{where}: '{key}' must be a list of 'Type.Value' strings")
            raw = []
        bit_of = self.dictionary.bit
        bits = []
        for item in raw:
            if not isinstance(item, str) or item.count(".") != 1:
                self.defect(f"{where}: label {item!r} must be a 'Type.Value' string")
                continue
            type_name, _, value = item.partition(".")
            try:
                bits.append(bit_of(type_name, value))
            except DictionaryError:
                self.defect(f"{where}: label '{item}' is not in the dictionary")
        # OR-ing bits into a growing int copies it each time; a byte
        # buffer sets each bit in place and converts once
        buf = bytearray((max(bits) >> 3) + 1 if bits else 0)
        for bit in bits:
            buf[bit >> 3] |= 1 << (bit & 7)
        return self.dictionary.set_from_mask(int.from_bytes(buf, "little"))

    @staticmethod
    def _at(where, action_id):
        return where if action_id is None else f"{where}, action '{action_id}'"

    def _assignments(self, raw, where, action_id=None) -> tuple:
        # hot path at scale; defect prefixes are only built on defects
        if raw is None:
            raw = []
        if not isinstance(raw, list):
            self.defect(f"{self._at(where, action_id)}: assignments must be a list of strings")
            return ()
        try:  # one C-level pass over a list that has no defect
            return tuple(map(assignment_from_text, raw))
        except (TypeError, TermSyntaxError):
            pass  # not a string, or not a term: word each defect below
        out = []
        for text in raw:
            if not isinstance(text, str):
                self.defect(f"{self._at(where, action_id)}: assignment {text!r} must be a string")
                continue
            try:
                out.append(assignment_from_text(text))
            except TermSyntaxError as exc:
                self.defect(f"{self._at(where, action_id)}: assignment '{_quoted(text)}': {exc}")
        return tuple(out)

    def _bindings(self, raw, where) -> tuple:
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            self.defect(f"{where}: 'bindings' must be an object mapping parameter to variable")
            return ()
        out = []
        for param, var in raw.items():
            if not isinstance(var, str):
                self.defect(f"{where}: binding for '{param}' must name a variable")
                continue
            out.append((param, var))
        return tuple(out)

    def _str(self, obj, key, where, default=None):
        value = obj.get(key, default)
        if value is None:
            self.defect(f"{where}: missing '{key}'")
            return None
        if not isinstance(value, str) or not value:
            self.defect(f"{where}: '{key}' must be a non-empty string")
            return None
        return value

    def _components(self, raw) -> tuple:
        components = []
        seen: set[str] = set()
        for entry in raw:
            if not isinstance(entry, dict):
                self.defect("components: each entry must be an object")
                continue
            cid = self._str(entry, "id", "component")
            if cid is None:
                continue
            where = f"component '{cid}'"
            duplicate = cid in seen
            if duplicate:
                self.semantic.append(f"duplicate component id '{cid}'")
            seen.add(cid)
            name = entry.get("name", cid)
            labels = self._labels(entry, "labels", where)
            signatures = []
            for sig in self._list(entry, "signatures", where):
                if not isinstance(sig, dict):
                    self.defect(f"{where}: each signature must be an object")
                    continue
                sig_id = self._str(sig, "id", f"{where} signature")
                if sig_id is None:
                    continue
                params = sig.get("parameters", [])
                if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
                    self.defect(f"{where}: signature '{sig_id}': parameters must be strings")
                    params = []
                signatures.append(Signature(sig_id, sig.get("name", sig_id), tuple(params)))
                if not duplicate:
                    self._check_signature(cid, sig_id, params)
            params_of = {s.id: s.parameters for s in reversed(signatures)}  # first one wins
            seffs = []
            raw_seffs = entry.get("seffs", {})
            if not isinstance(raw_seffs, dict):
                self.defect(f"{where}: 'seffs' must map signature ids to action lists")
                raw_seffs = {}
            for sig_id, raw_actions in raw_seffs.items():
                owner = f"{where}, seff '{sig_id}'"
                if not isinstance(raw_actions, list):
                    self.defect(f"{where}: seff '{sig_id}' must be a list of actions")
                    raw_actions = []
                scope = set(params_of[sig_id]) if sig_id in params_of else None
                seffs.append(Seff(sig_id, self._actions(raw_actions, owner, True, scope)))
                if scope is None:
                    self.semantic.append(f"{owner}: component does not provide this signature")
            for sig_id in sorted(params_of.keys() - raw_seffs.keys()):
                self.semantic.append(f"{where}: no seff for provided signature '{sig_id}'")
            components.append(
                Component(cid, name, labels, tuple(signatures), tuple(seffs))
            )
        return tuple(components)

    def _check_signature(self, component_id, sig_id, params) -> None:
        other = self.signature_owner.get(sig_id)
        if other is not None:
            self.semantic.append(
                f"duplicate signature id '{sig_id}' (components '{other}' and '{component_id}')"
            )
            return
        self.signature_owner[sig_id] = component_id
        seen: set[str] = set()
        for param in params:
            if param in terms.RESERVED_WORDS or param == RETURN_VARIABLE:
                self.semantic.append(f"signature '{sig_id}': parameter name '{param}' is reserved")
            elif not is_identifier(param):
                self.semantic.append(
                    f"signature '{sig_id}': parameter {param!r} is not a valid identifier"
                )
            if param in seen:
                self.semantic.append(f"signature '{sig_id}': duplicate parameter '{param}'")
            seen.add(param)

    def _actions(self, raw, where, seff: bool, scope: set[str] | None) -> tuple:
        """Build one seff's or scenario's actions; with ``scope``, the variables
        in scope at the start, check each against the ones before it."""
        semantic, verdicts, known = self.semantic, self.verdicts, self.known
        actions = []
        seen: set[str] = set()
        last = len(raw) - 1
        for position, entry in enumerate(raw):
            action = self._action(entry, where, seff=seff)
            if action is None:
                continue
            actions.append(action)
            if scope is None:
                continue
            aid = action.id
            if aid in seen:
                semantic.append(f"{where}, action '{aid}': duplicate action id")
            seen.add(aid)
            is_return = False
            # variable actions come first: scaled models are almost all of them
            if isinstance(action, VariableAction):
                assignments = action.assignments
            elif isinstance(action, ReturnAction):
                is_return = True
                # by position in raw: an entry that did not build is a
                # structural defect, and those hide every semantic one
                if position != last:
                    semantic.append(f"{where}, action '{aid}': Return must be the final action")
                assignments = action.assignments
            else:  # ExternalCall or SystemCall
                for _, var in action.bindings:
                    if var not in scope:
                        semantic.append(f"{where}, action '{aid}': binding references "
                                        f"variable '{var}' not in scope")
                if action.result_variable == RETURN_VARIABLE:
                    semantic.append(f"{where}, action '{aid}': variable name "
                                    f"{RETURN_VARIABLE} is reserved")
                if action.result_variable is not None:
                    scope.add(action.result_variable)
                assignments = action.result_assignments
            cache = verdicts[is_return]
            for a in assignments:
                suffixes = cache.get(a)
                if suffixes is None:
                    suffixes = cache[a] = _assignment_defects(a, known, is_return)
                for suffix in suffixes:
                    semantic.append(f"{where}, action '{aid}': assignment '{_quoted(a.text)}': {suffix}")
                if not is_return:
                    scope.add(a.target_var)
        return tuple(actions)

    def _action(self, entry, where, *, seff: bool):
        if not isinstance(entry, dict):
            self.defect(f"{where}: each action must be an object")
            return None
        aid = entry.get("id")
        if not isinstance(aid, str) or not aid:
            self._str(entry, "id", f"{where} action")  # records the precise defect
            return None
        kind = entry.get("type")
        if kind == "variable":
            assignments = self._assignments(entry.get("assignments"), where, aid)
            return VariableAction(aid, assignments)
        here = f"{where}, action '{aid}'"
        if kind == "return":
            if not seff:
                self.defect(f"{here}: 'return' actions are only allowed inside seffs")
                return None
            return ReturnAction(aid, self._assignments(entry.get("assignments"), here))
        if kind == "call":
            signature = self._str(entry, "signature", here)
            bindings = self._bindings(entry.get("bindings"), here)
            result = entry.get("result")
            if result is not None and (not isinstance(result, str) or not result):
                self.defect(f"{here}: 'result' must be a non-empty string")
                result = None
            result_assignments = self._assignments(entry.get("resultAssignments"), here)
            if signature is None:
                return None
            if seff:
                role = self._str(entry, "role", here)
                if role is None:
                    return None
                return ExternalCall(aid, role, signature, bindings, result, result_assignments)
            instance = self._str(entry, "instance", here)
            if instance is None:
                return None
            return SystemCall(aid, instance, signature, bindings, result, result_assignments)
        self.defect(f"{here}: unsupported action type {kind!r}")
        return None

    def _assembly(self, raw) -> Assembly:
        instances = []
        seen: set = set()
        for entry in self._list(raw, "instances", "assembly"):
            if not isinstance(entry, dict):
                self.defect("assembly: each instance must be an object")
                continue
            iid = self._str(entry, "id", "assembly instance")
            component = self._str(entry, "component", f"assembly instance '{iid}'")
            if iid is not None and component is not None:
                if iid in seen:
                    self.semantic.append(f"duplicate assembly instance id '{iid}'")
                seen.add(iid)
                instances.append(AssemblyInstance(iid, component))
        connectors = []
        seen = set()
        for entry in self._list(raw, "connectors", "assembly"):
            if not isinstance(entry, dict):
                self.defect("assembly: each connector must be an object")
                continue
            instance = self._str(entry, "instance", "connector")
            role = self._str(entry, "role", "connector")
            target = self._str(entry, "target", "connector")
            if instance is not None and role is not None and target is not None:
                if (instance, role) in seen:
                    self.semantic.append(
                        f"connector ({instance}, {role}): duplicate connector for this role"
                    )
                seen.add((instance, role))
                connectors.append(Connector(instance, role, target))
        return Assembly(tuple(instances), tuple(connectors))

    def _deployment(self, raw) -> Deployment:
        containers = []
        seen: set[str] = set()
        for entry in self._list(raw, "containers", "deployment"):
            if not isinstance(entry, dict):
                self.defect("deployment: each container must be an object")
                continue
            cid = self._str(entry, "id", "container")
            if cid is None:
                continue
            if cid in seen:
                self.semantic.append(f"duplicate container id '{cid}'")
            seen.add(cid)
            containers.append(
                Container(cid, entry.get("name", cid), self._labels(entry, "labels", f"container '{cid}'"))
            )
        allocations = []
        raw_alloc = raw.get("allocations", {})
        if not isinstance(raw_alloc, dict):
            self.defect("deployment: 'allocations' must map instance ids to container ids")
            raw_alloc = {}
        for instance_id, container_id in raw_alloc.items():
            if not isinstance(container_id, str):
                self.defect(f"allocation of '{instance_id}': container id must be a string")
                continue
            allocations.append((instance_id, container_id))
        return Deployment(tuple(containers), tuple(allocations))

    def _scenarios(self, raw) -> tuple:
        scenarios = []
        seen: set[str] = set()
        for entry in raw:
            if not isinstance(entry, dict):
                self.defect("usageScenarios: each entry must be an object")
                continue
            sid = self._str(entry, "id", "usage scenario")
            if sid is None:
                continue
            where = f"scenario '{sid}'"
            user_labels = self._labels(entry, "userLabels", where)
            duplicate = sid in seen
            actions = self._actions(
                self._list(entry, "actions", where), where, False, None if duplicate else set()
            )
            if duplicate:
                self.semantic.append(f"duplicate usage scenario id '{sid}'")
            seen.add(sid)
            scenarios.append(
                UsageScenario(sid, entry.get("name", sid), user_labels, actions)
            )
        return tuple(scenarios)


# ---------------------------------------------------------------------------
# serialization


def serialize_model(model: ArchitectureModel) -> dict:
    """Inverse of :func:`model_from_data`; always inlines all members."""
    return {
        "dictionary": {
            "labelTypes": [
                {"name": lt.name, "values": list(lt.values)}
                for lt in model.dictionary.label_types
            ]
        },
        "components": [_component_data(c) for c in model.components],
        "assembly": {
            "instances": [
                {"id": i.id, "component": i.component_id} for i in model.assembly.instances
            ],
            "connectors": [
                {"instance": c.instance_id, "role": c.role, "target": c.target_instance_id}
                for c in model.assembly.connectors
            ],
        },
        "deployment": {
            "containers": [
                {"id": c.id, "name": c.name, "labels": c.labels.names()}
                for c in model.deployment.containers
            ],
            "allocations": dict(model.deployment.allocations),
        },
        "usageScenarios": [_scenario_data(s) for s in model.scenarios],
    }


def _component_data(component: Component) -> dict:
    return {
        "id": component.id,
        "name": component.name,
        "labels": component.labels.names(),
        "signatures": [
            {"id": s.id, "name": s.name, "parameters": list(s.parameters)}
            for s in component.signatures
        ],
        "seffs": {
            seff.signature_id: [_action_data(a) for a in seff.actions]
            for seff in component.seffs
        },
    }


def _scenario_data(scenario: UsageScenario) -> dict:
    return {
        "id": scenario.id,
        "name": scenario.name,
        "userLabels": scenario.user_labels.names(),
        "actions": [_action_data(a) for a in scenario.actions],
    }


def _action_data(action) -> dict:
    if isinstance(action, ReturnAction):
        return {
            "type": "return",
            "id": action.id,
            "assignments": [a.text for a in action.assignments],
        }
    if isinstance(action, (ExternalCall, SystemCall)):
        data = {"type": "call", "id": action.id}
        if isinstance(action, ExternalCall):
            data["role"] = action.role
        else:
            data["instance"] = action.instance_id
        data["signature"] = action.signature_id
        data["bindings"] = dict(action.bindings)
        if action.result_variable is not None:
            data["result"] = action.result_variable
        if action.result_assignments:
            data["resultAssignments"] = [a.text for a in action.result_assignments]
        return data
    # variable action, user or seff side
    return {
        "type": "variable",
        "id": action.id,
        "assignments": [a.text for a in action.assignments],
    }


def model_to_json(model: ArchitectureModel, indent: int | None = None) -> str:
    return json.dumps(serialize_model(model), indent=indent)


def save_model(model: ArchitectureModel, path, indent: int | None = 2) -> None:
    Path(path).write_text(model_to_json(model, indent=indent) + "\n", encoding="utf-8")
