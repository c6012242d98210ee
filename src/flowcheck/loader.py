"""Load and save architecture models as JSON documents.

A model document has five members: ``dictionary``, ``components``,
``assembly``, ``deployment`` and ``usageScenarios``.  Each member is
either given inline or as a string holding a path to a JSON file,
resolved relative to the document's own location.

Loading walks the document once.  The builder collects *structural*
defects (wrong JSON shapes or types, unparseable assignment texts,
unknown labels) and checks each entry against its siblings as it reads
it (duplicate ids, names, assignments, variable scope, Return placement,
seff coverage); an action is built and checked in the one branch for its
type.  It builds the scenarios and the seffs that they reach, found in
the document's members first.  Each other seff goes through the same
walk, which words each defect alike but keeps only its calls and whether
it ends in a Return, and it builds its actions on first read; its texts
are tested in batches after the build, and the document is walked again,
building every seff, if that test cannot pass one.
The dictionary's own defects come from
:attr:`~flowcheck.labels.DataDictionary.defects`, found while it lays
out its bits, and :func:`~flowcheck.model.validate_model` then makes the
cross-reference checks, from the seffs' calls.  Semantic defects are
reported, local ones first, only when there is no structural defect, and
a single :class:`ModelLoadError` carries all of them.  Behaviour is
restricted to straight-line actions; any other action type (branches,
loops, forks, ...) is rejected here.

Memory: a file's text is freed once decoded, before the build, and the
assignments that one walk of the document parses share one ``str`` per
distinct variable, label-type and label-value name, through a table that
the builder owns and passes to each parse.  A seff that no scenario
reaches keeps its raw action list, and no records, until its first read,
which parses its texts with a table of its own.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import repeat
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
    _Unbuilt,
    _Unparsed,
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
    "read_text",
]

# json.loads raises JSONDecodeError (a ValueError) on bad syntax, a plain
# ValueError on an integer literal past the digit limit, and RecursionError
# on a document nested too deeply for its recursive decoder
_JSON_ERRORS = (ValueError, RecursionError)


def read_text(path) -> str:
    """The file's text without a leading byte order mark, read with the
    UTF-8 codec the interpreter has loaded at start-up, not ``utf-8-sig``."""
    return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")


def load_model(path, timings=None) -> ArchitectureModel:
    """Load, construct and validate a model from a JSON file; ``timings``
    (:class:`~flowcheck.analysis.Timings`) gets the json and build parts."""
    path = Path(path)
    try:  # no name holds the text, so it is freed before the build
        data = _decode(read_text(path), str(path), timings)
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelLoadError([f"cannot read model file '{path}': {exc}"]) from None
    return model_from_data(data, base_dir=path.parent, timings=timings)


def load_model_text(text: str, base_dir=None, source: str = "<text>",
                    timings=None) -> ArchitectureModel:
    return model_from_data(_decode(text, source, timings), base_dir=base_dir, timings=timings)


def _decode(text: str, source: str, timings):
    try:
        data = json.loads(text)
    except _JSON_ERRORS as exc:
        raise ModelLoadError([f"{source}: malformed JSON: {exc}"]) from None
    if timings:
        timings.split("json")
    return data


def model_from_data(data, base_dir=None, timings=None) -> ArchitectureModel:
    """Construct and validate a model from an already-parsed document.

    A seff that no usage scenario reaches keeps its raw action list from
    ``data``, and builds its actions from it on first read; the caller
    must not change those lists while the model lives."""
    for eager in (False, True):  # eager, to word each defect the test may have seen
        builder = _Builder(base_dir, eager)
        model = builder.build(data)
        if builder.sound:
            break
    structural, semantic = builder.defects, builder.semantic
    del builder  # the checks below need none of its tables
    if timings:
        timings.split("build")
    # structural defects make follow-up semantic noise likely; semantic
    # defects are reported only for a structurally sound document
    defects = structural or semantic + validate_model(model)
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


def _built(dictionary, raw, where, params) -> tuple:
    """The actions of a seff that no usage scenario reaches, built on their
    first read as a load builds them; only a list changed since the load
    can fail, and then raises :class:`ModelLoadError`."""
    builder = _Builder(None)
    builder.dictionary, builder.known = dictionary, dictionary.known_pairs()
    actions = builder._actions(raw, where, True, set(params))
    if builder.defects or builder.semantic:
        raise ModelLoadError(builder.defects or builder.semantic)
    return actions


def _strings(values) -> bool:
    return all(map(isinstance, values, repeat(str)))


def _reached(components, assembly, scenarios) -> set | None:
    """The (component id, signature id) of each seff that a usage scenario
    reaches in the document's members; None when they are too malformed
    to tell."""
    try:
        component_of = {i["id"]: i["component"] for i in assembly["instances"]}
        target = {(c["instance"], c["role"]): c["target"] for c in assembly.get("connectors", [])}
        seffs = {(c["id"], sig): actions for c in components
                 for sig, actions in c.get("seffs", {}).items()}
        seen, todo = set(), [(None, a) for s in scenarios for a in s["actions"]
                             if a.get("type") == "call"]
        for caller, action in todo:  # grows by the calls of each seff reached
            instance = action["instance"] if caller is None else target.get((caller, action["role"]))
            key = (instance, component_of.get(instance), action["signature"])
            if key not in seen:
                seen.add(key)
                todo += [(instance, a) for a in seffs.get(key[1:], ()) if a.get("type") == "call"]
        return {key[1:] for key in seen}
    except (KeyError, TypeError, AttributeError):
        return None


class _Builder:
    def __init__(self, base_dir, eager=False):
        self.base_dir = Path(base_dir) if base_dir is not None else None
        # Eager, every seff is built as it is read.  If not, ``sound`` tells
        # whether the texts of the seffs it only walked passed their test.
        self.eager = eager
        self.defects: list[str] = []  # structural
        self.semantic: list[str] = []  # local semantic
        self.dictionary = DataDictionary(())
        self.signature_owner: dict[str, str] = {}  # signature id -> component id
        # The parse cache interns assignment texts, so verdicts are cached per
        # Assignment object; one dict per return_target flag, because a tuple
        # key per lookup would feed the cyclic collector during the build.
        self.verdicts: tuple[dict[Assignment, tuple[str, ...]], ...] = ({}, {})
        self.unchecked: tuple[list[str], list[str]] = ([], [])  # texts, by return target
        self.names: dict[str, str] = {}  # one str per name that its parses store

    def defect(self, message: str) -> None:
        self.defects.append(message)

    def build(self, data) -> ArchitectureModel:
        if not isinstance(data, dict):
            self.defect("model document must be a JSON object")
            data = {}
        # each member is read once; a defect in reading it goes where it is built
        members = {name: self._member(data, name, kind) for name, kind in (
            ("dictionary", dict), ("components", list), ("assembly", dict),
            ("deployment", dict), ("usageScenarios", list))}
        self.reached = None if self.eager else _reached(
            *(members[name][0] for name in ("components", "assembly", "usageScenarios")))
        self.dictionary = self._dictionary(self._take(members["dictionary"]))
        self.known = self.dictionary.known_pairs()
        self.semantic.extend(self.dictionary.defects)
        components = self._components(self._take(members["components"]))
        assembly = self._assembly(self._take(members["assembly"]))
        deployment = self._deployment(self._take(members["deployment"]))
        scenarios = self._scenarios(self._take(members["usageScenarios"]))
        self.sound = all(_strings(texts) and terms.check_assignments(
            texts, self.known, RETURN_VARIABLE, return_target)
            for return_target, texts in enumerate(self.unchecked) if texts)
        return ArchitectureModel(self.dictionary, components, assembly, deployment, scenarios)

    def _member(self, data, name, expected_type) -> tuple:
        """The member, read from its file if it names one, and the defect
        that left it empty, or None."""
        value = data.get(name)
        if isinstance(value, str):
            if self.base_dir is None:
                return expected_type(), (f"member '{name}': file reference '{value}' "
                                         "needs a base directory")
            path = self.base_dir / value
            try:  # no name holds the text, so it is freed once decoded
                value = json.loads(read_text(path))
            except (OSError, UnicodeDecodeError) as exc:
                return expected_type(), f"member '{name}': cannot read '{path}': {exc}"
            except _JSON_ERRORS as exc:
                return expected_type(), f"member '{name}': malformed JSON in '{path}': {exc}"
        if value is None:
            return expected_type(), None
        if not isinstance(value, expected_type):
            return expected_type(), f"member '{name}' must be a {expected_type.__name__}"
        return value, None

    def _take(self, member):
        value, defect = member
        if defect:
            self.defect(defect)
        return value

    def _objects(self, entries, message):
        """The entries that are objects; each other one records ``message``."""
        for entry in entries:
            if isinstance(entry, dict):
                yield entry
            else:
                self.defect(message)

    def _list(self, obj, key, where) -> list:
        value = obj.get(key, [])
        if isinstance(value, list):
            return value
        self.defect(f"{where}: '{key}' must be a list")
        return []

    # -- member builders ----------------------------------------------------

    def _dictionary(self, data) -> DataDictionary:
        types = []
        for entry in self._objects(self._list(data, "labelTypes", "dictionary"),
                                   "dictionary: each label type must be an object"):
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

    def _assignments(self, raw, where, action_id=None, unchecked=None):
        """The parsed records of a list of texts; given ``unchecked``, the
        texts themselves, which join it for the batch test."""
        # hot path at scale; defect prefixes are only built on defects
        if raw is None:
            raw = []
        if not isinstance(raw, list):
            self.defect(f"{self._at(where, action_id)}: assignments must be a list of strings")
            return ()
        if unchecked is not None:
            unchecked += raw
            return raw
        try:  # C-level passes over a list that has no defect
            out = tuple(map(assignment_from_text, raw))
            for a in out:  # parse each new record, so that a defect is worded below
                if type(a) is _Unparsed:
                    a.parse(self.names)
        except (TypeError, TermSyntaxError):  # not a string, or not a term
            out = []
            for text in raw:
                if not isinstance(text, str):
                    self.defect(f"{self._at(where, action_id)}: assignment {text!r} must be a string")
                    continue
                try:
                    out.append(assignment_from_text(text).parse(self.names))
                except TermSyntaxError as exc:
                    self.defect(f"{self._at(where, action_id)}: assignment '{_quoted(text)}': {exc}")
            out = tuple(out)
        return out

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
        for entry in self._objects(raw, "components: each entry must be an object"):
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
            for sig in self._objects(self._list(entry, "signatures", where),
                                     f"{where}: each signature must be an object"):
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
                params = params_of.get(sig_id)
                scope = None if params is None else set(params)
                if self.reached is None or params is None or (cid, sig_id) in self.reached:
                    seffs.append(Seff(sig_id, self._actions(raw_actions, owner, True, scope)))
                else:  # its actions are built on first read
                    seffs.append(_Unbuilt(sig_id, partial(_built, self.dictionary, raw_actions, owner, params),
                                          *self._actions(raw_actions, owner, True, scope, walk=True)))
                if params is None:
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

    def _actions(self, raw, where, seff: bool, scope: set[str] | None, walk=False) -> tuple:
        """Build one seff's or scenario's actions, each in the branch for its
        type; with ``scope``, the variables in scope at the start, check each
        against the ones before it.  An entry that does not build leaves a
        structural defect, which hides every semantic one, so its checks may
        stop half made.

        ``walk``, for a seff that no usage scenario reaches, makes the same
        checks and words each defect alike, but parses no text: the texts
        join the batch test, and the scope learns their targets only when a
        call binds a variable not in it.  It builds only the calls, and
        returns them with whether the seff ends in a Return."""
        semantic, verdicts, known = self.semantic, self.verdicts, self.known
        if scope is None:  # not checked: its semantic defects go nowhere
            semantic, scope = [], set()
        texts, return_texts = self.unchecked if walk else (None, None)
        learnt = walk and len(texts)  # the texts before it are in scope, or another seff's
        actions = []  # walking, the calls only
        seen: set[str] = set()
        last = len(raw) - 1
        kind = None
        # positions count objects only, as a non-object leaves a structural defect
        for position, entry in enumerate(self._objects(raw, f"{where}: each action must be an object")):
            aid = entry.get("id")
            if not isinstance(aid, str) or not aid:
                self._str(entry, "id", f"{where} action")  # records the precise defect
                continue
            if aid in seen:
                semantic.append(f"{where}, action '{aid}': duplicate action id")
            seen.add(aid)
            kind = entry.get("type")
            is_return = kind == "return"
            if kind == "variable":  # first: scaled models are almost all of them
                assignments = self._assignments(entry.get("assignments"), where, aid, texts)
                if not walk:
                    actions.append(VariableAction(aid, assignments))
            elif is_return:
                here = f"{where}, action '{aid}'"
                if not seff:
                    self.defect(f"{here}: 'return' actions are only allowed inside seffs")
                    continue
                if position != last:
                    semantic.append(f"{here}: Return must be the final action")
                assignments = self._assignments(entry.get("assignments"), here, unchecked=return_texts)
                if not walk:
                    actions.append(ReturnAction(aid, assignments))
            elif kind == "call":
                here = f"{where}, action '{aid}'"
                signature = self._str(entry, "signature", here)
                bindings = self._bindings(entry.get("bindings"), here)
                if walk and not scope.issuperset([var for _, var in bindings]):
                    # the targets of the texts before it, read as a text that
                    # passes the batch test parses; a text not a str fails it
                    scope.update([text.partition(".")[0].strip() for text in texts[learnt:]
                                  if isinstance(text, str)])
                    learnt = len(texts)
                result = entry.get("result")
                if result is not None and (not isinstance(result, str) or not result):
                    self.defect(f"{here}: 'result' must be a non-empty string")
                    result = None
                assignments = self._assignments(entry.get("resultAssignments"), here, unchecked=texts)
                if walk:  # records that parse on first use
                    assignments = tuple(map(assignment_from_text, assignments)) if _strings(assignments) else ()
                if signature is None:
                    continue
                target = self._str(entry, "role" if seff else "instance", here)
                if target is None:
                    continue
                call = ExternalCall if seff else SystemCall
                actions.append(call(aid, target, signature, bindings, result, assignments))
                for _, var in bindings:
                    if var not in scope:
                        semantic.append(f"{here}: binding references variable '{var}' not in scope")
                if result == RETURN_VARIABLE:
                    semantic.append(f"{here}: variable name {RETURN_VARIABLE} is reserved")
                if result is not None:
                    scope.add(result)
            else:
                self.defect(f"{where}, action '{aid}': unsupported action type {kind!r}")
                continue
            if walk:  # the batch test checks its texts
                continue
            cache = verdicts[is_return]
            for a in assignments:
                suffixes = cache.get(a)
                if suffixes is None:
                    suffixes = cache[a] = _assignment_defects(a, known, is_return)
                for suffix in suffixes:
                    semantic.append(f"{where}, action '{aid}': assignment '{_quoted(a.text)}': {suffix}")
                if not is_return:
                    scope.add(a.target_var)
        return (tuple(actions), kind == "return") if walk else tuple(actions)

    def _assembly(self, raw) -> Assembly:
        instances = []
        seen: set = set()
        for entry in self._objects(self._list(raw, "instances", "assembly"),
                                   "assembly: each instance must be an object"):
            iid = self._str(entry, "id", "assembly instance")
            component = self._str(entry, "component", f"assembly instance '{iid}'")
            if iid is not None and component is not None:
                if iid in seen:
                    self.semantic.append(f"duplicate assembly instance id '{iid}'")
                seen.add(iid)
                instances.append(AssemblyInstance(iid, component))
        connectors = []
        seen = set()
        for entry in self._objects(self._list(raw, "connectors", "assembly"),
                                   "assembly: each connector must be an object"):
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
        for entry in self._objects(self._list(raw, "containers", "deployment"),
                                   "deployment: each container must be an object"):
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
        for entry in self._objects(raw, "usageScenarios: each entry must be an object"):
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
