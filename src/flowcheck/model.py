"""Architecture description model: components, assembly, deployment, usage.

The model is a plain immutable object graph.  Components provide
signatures and implement them with straight-line behaviour descriptions
(ordered actions, no branches or loops); an assembly instantiates
components and wires required roles to provider instances; a deployment
allocates instances to containers; usage scenarios describe how users
interact with the assembled system.

Each record is a ``NamedTuple``, built by a C-level tuple fill and
defined at import, which every command pays, at a fraction of a frozen
dataclass's cost.  Three are slotted classes instead: an
:class:`Assignment`, parsed on first use, a :class:`Seff`, which holds
its build function until its actions are first read, and the
:class:`ArchitectureModel`, which holds its lookup index.

``validate_model`` makes the cross-reference checks and returns one
message per defect instead of stopping at the first.  It reads each
seff's calls and whether it ends in a Return, which a seff that no usage
scenario reaches has before its actions are built, on first read.  Among
the checks is the call depth: extraction expands calls at most
``DEFAULT_MAX_CALL_DEPTH`` deep, so a model that would need more is
refused when it is loaded.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import terms
from .errors import UnknownElementError
from .labels import DataDictionary, LabelSet

__all__ = [
    "RETURN_VARIABLE",
    "DEFAULT_MAX_CALL_DEPTH",
    "call_depth_message",
    "Assignment",
    "assignment_from_text",
    "clear_parse_cache",
    "Signature",
    "VariableAction",
    "ExternalCall",
    "ReturnAction",
    "Seff",
    "Component",
    "AssemblyInstance",
    "Connector",
    "Assembly",
    "Container",
    "Deployment",
    "SystemCall",
    "UsageScenario",
    "ArchitectureModel",
    "validate_model",
]

# Reserved variable carrying a callee's return data across the call boundary.
RETURN_VARIABLE = "RETURN"

# Nested calls that extraction expands; deeper chains are cut off.
DEFAULT_MAX_CALL_DEPTH = 64


def call_depth_message(chain) -> str:
    """Why a call chain past the depth limit is refused; ``chain`` holds
    the ids of the calls, the user call first."""
    return f"call depth exceeded ({DEFAULT_MAX_CALL_DEPTH} nested calls): " + " -> ".join(chain)


class Assignment:
    """One ``target := term`` label assignment.  A record holds only its
    ``text`` until :meth:`parse`, or the first read of another field,
    fills them all (or raises :class:`~flowcheck.errors.TermSyntaxError`).
    The loader passes its table of names to :meth:`parse`, so that one
    load's records share one ``str`` per name; a first read shares none.

    ``target_type`` / ``target_value`` are ``None`` for wildcard
    segments; ``rhs`` is the term AST from :mod:`flowcheck.terms`, where
    one ``"and"`` or ``"or"`` node holds every operand of a chain, and
    ``refs`` holds its references, left to right.

    Equality is identity: :func:`assignment_from_text` interns instances
    by source text, and identity hashing keeps cache lookups flat instead
    of rehashing the term AST on every use.
    """

    __slots__ = ("text", "target_var", "target_type", "target_value", "rhs", "refs")

    def parse(self, names: dict[str, str] | None = None) -> Assignment:
        """This record with its fields filled; the text is parsed once, its
        names looked up in ``names`` (see :func:`flowcheck.terms.read_assignment`)."""
        if type(self) is not Assignment:
            (self.target_var, self.target_type, self.target_value), self.rhs, self.refs = (
                terms.read_assignment(self.text, names))
            self.__class__ = Assignment
        return self

    def wildcard_arity(self) -> int:
        return terms.wildcard_arity(self.target_type, self.target_value)

    def __reduce__(self):  # a copy is the interned record; this one stays unparsed
        return assignment_from_text, (self.text,)


class _Unparsed(Assignment):
    """A record not parsed yet: with the parse state in the class, a
    parsed record reads its fields as plain slots."""

    __slots__ = ()

    def __getattr__(self, name):  # only a field not filled yet is missing
        if name not in Assignment.__slots__[1:]:  # every field but the text
            raise AttributeError(name)
        return getattr(self.parse(), name)


@lru_cache(maxsize=65536)
def assignment_from_text(text: str) -> Assignment:
    """The one record of an assignment text, memoized on the exact source
    string; the text is parsed on first use.

    Models generated at scale repeat identical assignment strings many
    times; caching keeps loading linear in the number of distinct texts.
    """
    if not isinstance(text, str):
        raise TypeError(f"assignment text must be a str, not {type(text).__name__}")
    record = _Unparsed.__new__(_Unparsed)
    record.text = text
    return record


def clear_parse_cache() -> None:
    """Drop memoized parses and shapes; used by benchmarks to start from
    cold state."""
    assignment_from_text.cache_clear()
    terms.parse_shape.cache_clear()


class Signature(NamedTuple):
    id: str
    name: str
    parameters: tuple[str, ...]


class VariableAction(NamedTuple):
    """Sets or clears labels on data-flow variables."""

    id: str
    assignments: tuple[Assignment, ...]


class ExternalCall(NamedTuple):
    """A call through a required role to some provider's signature."""

    id: str
    role: str
    signature_id: str
    bindings: tuple[tuple[str, str], ...]  # (parameter, caller variable)
    result_variable: str | None
    result_assignments: tuple[Assignment, ...]


class ReturnAction(NamedTuple):
    """Final action of a Seff; its assignments fill the RETURN variable."""

    id: str
    assignments: tuple[Assignment, ...]


class _Record:
    """A slotted record, immutable as the tuple-backed ones, that
    compares, hashes, prints and copies by the fields in ``_fields``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field '{name}'")

    __delattr__ = __setattr__

    def _values(self) -> tuple:  # an unbuilt seff read here becomes a Seff
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if not isinstance(other, _Record) or other._fields != self._fields:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        values = self._values()
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, values))})"

    def __reduce__(self):
        values = self._values()
        return type(self), values


class Seff(_Record):
    """Behaviour of one provided signature: an ordered list of actions,
    its external calls, and whether it ends in a Return, which derive
    from the actions and take no part in comparing or copying."""

    __slots__ = ("signature_id", "actions", "calls", "returns")
    _fields = ("signature_id", "actions")

    def __init__(self, signature_id: str, actions: tuple):
        _Record.__init__(self, signature_id, actions,
                         tuple([a for a in actions if isinstance(a, ExternalCall)]),
                         bool(actions) and isinstance(actions[-1], ReturnAction))


class _Unbuilt(Seff):
    """A seff whose ``actions`` slot holds the function that builds them,
    until their first read makes it a plain :class:`Seff`."""

    __slots__ = ()

    def __init__(self, *fields):  # the signature id, the build function, calls, returns
        for name, value in zip(Seff.__slots__, fields):
            getattr(Seff, name).__set__(self, value)

    @property
    def actions(self):
        Seff.actions.__set__(self, Seff.actions.__get__(self)())
        object.__setattr__(self, "__class__", Seff)
        return self.actions


class Component(NamedTuple):
    id: str
    name: str
    labels: LabelSet
    signatures: tuple[Signature, ...]
    seffs: tuple[Seff, ...]


class AssemblyInstance(NamedTuple):
    id: str
    component_id: str


class Connector(NamedTuple):
    instance_id: str
    role: str
    target_instance_id: str


class Assembly(NamedTuple):
    instances: tuple[AssemblyInstance, ...]
    connectors: tuple[Connector, ...]


class Container(NamedTuple):
    id: str
    name: str
    labels: LabelSet


class Deployment(NamedTuple):
    containers: tuple[Container, ...]
    allocations: tuple[tuple[str, str], ...]  # (instance id, container id)


class SystemCall(NamedTuple):
    """A user-side call to a signature of an assembled instance."""

    id: str
    instance_id: str
    signature_id: str
    bindings: tuple[tuple[str, str], ...]
    result_variable: str | None
    result_assignments: tuple[Assignment, ...]


class UsageScenario(NamedTuple):
    id: str
    name: str
    user_labels: LabelSet
    actions: tuple


class ArchitectureModel(_Record):
    """The complete input to an analysis run.  A slotted class and not a
    tuple, so that :func:`index_of` can attach a lookup index on first
    use; a copy builds its own."""

    __slots__ = ("dictionary", "components", "assembly", "deployment", "scenarios", "_index")
    _fields = __slots__[:-1]

    def __init__(self, dictionary, components, assembly, deployment, scenarios):
        _Record.__init__(self, dictionary, components, assembly, deployment, scenarios)


# ---------------------------------------------------------------------------
# lookup index


class ModelIndex:
    """By-id lookup tables plus cached node label masks."""

    def __init__(self, model: ArchitectureModel):
        # no back reference to the model: the model holds its index, and a
        # cycle would keep a refused model alive until the cyclic collector runs
        self.components = {c.id: c for c in model.components}
        self.signature_owner: dict[str, tuple[Component, Signature]] = {}
        for component in model.components:
            for signature in component.signatures:
                self.signature_owner.setdefault(signature.id, (component, signature))
        self.seffs: dict[tuple[str, str], Seff] = {}
        for component in model.components:
            for seff in component.seffs:
                self.seffs.setdefault((component.id, seff.signature_id), seff)
        self.instances = {i.id: i for i in model.assembly.instances}
        self.connectors = {
            (c.instance_id, c.role): c.target_instance_id for c in model.assembly.connectors
        }
        self.containers = {c.id: c for c in model.deployment.containers}
        self.allocation: dict[str, str] = {}
        for instance_id, container_id in model.deployment.allocations:
            self.allocation.setdefault(instance_id, container_id)
        self.scenarios = {s.id: s for s in model.scenarios}

    def instance(self, instance_id: str) -> AssemblyInstance:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise UnknownElementError(f"unknown assembly instance '{instance_id}'") from None

    def component_of(self, instance_id: str) -> Component:
        instance = self.instance(instance_id)
        try:
            return self.components[instance.component_id]
        except KeyError:
            raise UnknownElementError(
                f"instance '{instance_id}' names unknown component '{instance.component_id}'"
            ) from None

    def seff_for(self, instance_id: str, signature_id: str) -> Seff:
        component = self.component_of(instance_id)
        try:
            return self.seffs[(component.id, signature_id)]
        except KeyError:
            raise UnknownElementError(
                f"component '{component.id}' provides no seff for signature '{signature_id}'"
            ) from None

    def resolve_call(self, caller_instance_id: str, role: str) -> str:
        try:
            return self.connectors[(caller_instance_id, role)]
        except KeyError:
            raise UnknownElementError(
                f"no connector for role '{role}' of instance '{caller_instance_id}'"
            ) from None

    def scenario(self, scenario_id: str) -> UsageScenario:
        try:
            return self.scenarios[scenario_id]
        except KeyError:
            raise UnknownElementError(f"unknown usage scenario '{scenario_id}'") from None

    def node_mask(self, instance_id: str) -> int:
        """Component labels joined with the allocated container's labels."""
        mask = self.component_of(instance_id).labels.mask
        container_id = self.allocation.get(instance_id)
        if container_id is not None and container_id in self.containers:
            mask |= self.containers[container_id].labels.mask
        return mask


def index_of(model: ArchitectureModel) -> ModelIndex:
    index = getattr(model, "_index", None)
    if index is None:
        index = ModelIndex(model)
        object.__setattr__(model, "_index", index)
    return index


# ---------------------------------------------------------------------------
# validation


def validate_model(model: ArchitectureModel) -> list[str]:
    """Cross-reference checks, which follow an id to the entry it names.

    Returns one message per defect.  The loader has already checked each
    entry against its siblings while reading the document.
    """
    index = index_of(model)
    signature_owner = index.signature_owner
    defects: list[str] = []

    def call_defects(call) -> list[str]:
        """What is wrong with ``call``, each without saying where; the
        caller words that only for a call with a defect, which few have."""
        resolved = signature_owner.get(call.signature_id)
        if resolved is None:
            return [f"unknown signature '{call.signature_id}'"]
        component, signature = resolved
        found = []
        params = set(signature.parameters)
        for param, _ in call.bindings:
            if param not in params:
                found.append(
                    f"binding names unknown parameter '{param}' of signature '{signature.id}'")
        # the callee frame holds only bound parameters, so an unbound one
        # would fail the first call that passes it on
        bound = {param for param, _ in call.bindings}
        for param in signature.parameters:
            if param not in bound:
                found.append(f"parameter '{param}' of signature '{signature.id}' is not bound")
        if call.result_variable is not None:
            seff = index.seffs.get((component.id, signature.id))
            if not (seff and seff.returns):
                found.append(
                    f"result variable set but seff of '{signature.id}' has no Return action")
        return found

    for component in model.components:
        for seff in component.seffs:
            owner = signature_owner.get(seff.signature_id)
            # a seff for a signature its component does not provide is not checked
            if owner is not None and owner[0] is component:
                for action in seff.calls:
                    for defect in call_defects(action):
                        defects.append(f"component '{component.id}', seff "
                                       f"'{seff.signature_id}', action '{action.id}': {defect}")

    # each instance is allocated, and its component and external calls resolve
    for instance in model.assembly.instances:
        if instance.id not in index.allocation:
            defects.append(f"instance '{instance.id}' is not allocated to any container")
        component = index.components.get(instance.component_id)
        if component is None:
            defects.append(
                f"instance '{instance.id}': unknown component '{instance.component_id}'"
            )
            continue
        for action in [call for seff in component.seffs for call in seff.calls]:
            target_id = index.connectors.get((instance.id, action.role))
            if target_id is None:
                defects.append(f"instance '{instance.id}', call '{action.id}': "
                               f"no connector for role '{action.role}'")
                continue
            target = index.instances.get(target_id)
            provider = signature_owner.get(action.signature_id)
            if target and provider and target.component_id != provider[0].id:
                defects.append(
                    f"instance '{instance.id}', call '{action.id}': connector target "
                    f"'{target_id}' does not provide signature '{action.signature_id}'"
                )

    for connector in model.assembly.connectors:
        where = f"connector ({connector.instance_id}, {connector.role})"
        if connector.instance_id not in index.instances:
            defects.append(f"{where}: unknown source instance")
        if connector.target_instance_id not in index.instances:
            defects.append(f"{where}: unknown target instance '{connector.target_instance_id}'")

    for instance_id, container_id in model.deployment.allocations:
        where = f"allocation of '{instance_id}'"
        if instance_id not in index.instances:
            defects.append(f"{where}: unknown instance")
        if container_id not in index.containers:
            defects.append(f"{where}: unknown container '{container_id}'")

    depths: dict = {}
    too_deep: set = set()
    for scenario in model.scenarios:
        for action in scenario.actions:
            if not isinstance(action, SystemCall):
                continue
            where = f"scenario '{scenario.id}', action '{action.id}'"
            instance = index.instances.get(action.instance_id)
            if instance is None:
                defects.append(f"{where}: unknown instance '{action.instance_id}'")
                continue
            provider = signature_owner.get(action.signature_id)
            if provider is not None and provider[0].id != instance.component_id:
                defects.append(
                    f"{where}: instance '{instance.id}' does not provide "
                    f"signature '{action.signature_id}'"
                )
            for defect in call_defects(action):
                defects.append(f"{where}: {defect}")
            # one defect per (instance, signature) pair nested too deeply
            pair = (instance.id, action.signature_id)
            tail = None if pair in too_deep else _too_deep(index, depths, *pair, 1)
            if tail is not None:
                too_deep.add(pair)
                defects.append(f"{where}: " + call_depth_message((action.id,) + tail))

    return defects


def _too_deep(index: ModelIndex, memo: dict, instance_id, signature_id, depth):
    """The ids of the calls below the pair that lead past the depth limit
    first, or None when the pair's expansion fits at call depth ``depth``.

    The walk follows the calls that resolve in extraction's order, so it
    names the chain that extraction stops at.  ``memo`` keeps the answer
    per pair and depth, and each step goes one call deeper, so the walk
    ends on a cycle too and enters each pair at most once per depth.
    """
    if depth > DEFAULT_MAX_CALL_DEPTH:
        return ()
    key = (instance_id, signature_id, depth)
    if key not in memo:
        memo[key] = None
        instance = index.instances.get(instance_id)
        seff = instance and index.seffs.get((instance.component_id, signature_id))
        for action in seff.calls if seff else ():
            target = index.connectors.get((instance_id, action.role))
            tail = target and _too_deep(index, memo, target, action.signature_id, depth + 1)
            if tail is not None:
                memo[key] = (action.id,) + tail
                break
    return memo[key]
