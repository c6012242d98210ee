"""Architecture description model: components, assembly, deployment, usage.

The model is a plain immutable object graph.  Components provide
signatures and implement them with straight-line behaviour descriptions
(ordered actions, no branches or loops); an assembly instantiates
components and wires required roles to provider instances; a deployment
allocates instances to containers; usage scenarios describe how users
interact with the assembled system.

Action records are the one part of the graph constructed in bulk
(generated models hold many thousand), so they are tuple-backed records
rather than frozen dataclasses: construction is a C-level tuple fill.

``validate_model`` makes the cross-reference checks and returns one
message per defect instead of stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import terms
from .errors import UnknownElementError
from .labels import DataDictionary, LabelSet

__all__ = [
    "RETURN_VARIABLE",
    "Assignment",
    "assignment_from_text",
    "clear_parse_cache",
    "Signature",
    "VariableAction",
    "UserVariableAction",
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
    "node_labels_for_instance",
]

# Reserved variable carrying a callee's return data across the call boundary.
RETURN_VARIABLE = "RETURN"


@dataclass(frozen=True, slots=True, eq=False)
class Assignment:
    """One parsed ``target := term`` label assignment.

    ``target_type`` / ``target_value`` are ``None`` for wildcard
    segments; ``rhs`` is the term AST from :mod:`flowcheck.terms`.

    Equality is identity: :func:`assignment_from_text` interns instances
    by source text, and identity hashing keeps cache lookups flat instead
    of rehashing the term AST on every use.
    """

    target_var: str
    target_type: str | None
    target_value: str | None
    rhs: tuple
    text: str

    def wildcard_arity(self) -> int:
        return terms.wildcard_arity(self.target_type, self.target_value)


@lru_cache(maxsize=65536)
def assignment_from_text(text: str) -> Assignment:
    """Parse assignment text, memoized on the exact source string.

    Models generated at scale repeat identical assignment strings many
    times; caching keeps loading linear in the number of distinct texts.
    """
    (var, type_name, value), rhs = terms.parse_assignment(text)
    return Assignment(var, type_name, value, rhs, text)


def clear_parse_cache() -> None:
    """Drop memoized parses; used by benchmarks to start from cold state."""
    assignment_from_text.cache_clear()


@dataclass(frozen=True, slots=True)
class Signature:
    id: str
    name: str
    parameters: tuple[str, ...]


class VariableAction(NamedTuple):
    """Sets or clears labels on data-flow variables."""

    id: str
    assignments: tuple[Assignment, ...]


class UserVariableAction(VariableAction):
    """A variable action issued by the user side of a scenario."""


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


@dataclass(frozen=True, slots=True)
class Seff:
    """Behaviour of one provided signature: an ordered list of actions."""

    signature_id: str
    actions: tuple


@dataclass(frozen=True, slots=True)
class Component:
    id: str
    name: str
    labels: LabelSet
    signatures: tuple[Signature, ...]
    seffs: tuple[Seff, ...]


@dataclass(frozen=True, slots=True)
class AssemblyInstance:
    id: str
    component_id: str


@dataclass(frozen=True, slots=True)
class Connector:
    instance_id: str
    role: str
    target_instance_id: str


@dataclass(frozen=True, slots=True)
class Assembly:
    instances: tuple[AssemblyInstance, ...]
    connectors: tuple[Connector, ...]


@dataclass(frozen=True, slots=True)
class Container:
    id: str
    name: str
    labels: LabelSet


@dataclass(frozen=True, slots=True)
class Deployment:
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


@dataclass(frozen=True, slots=True)
class UsageScenario:
    id: str
    name: str
    user_labels: LabelSet
    actions: tuple


@dataclass(frozen=True)
class ArchitectureModel:
    """The complete input to an analysis run.

    Not slotted: a lazily built lookup index is attached on first use.
    """

    dictionary: DataDictionary
    components: tuple[Component, ...]
    assembly: Assembly
    deployment: Deployment
    scenarios: tuple[UsageScenario, ...]


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
        self._node_masks: dict[str, int] = {}

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
        mask = self._node_masks.get(instance_id)
        if mask is None:
            component = self.component_of(instance_id)
            mask = component.labels.mask
            container_id = self.allocation.get(instance_id)
            if container_id is not None and container_id in self.containers:
                mask |= self.containers[container_id].labels.mask
            self._node_masks[instance_id] = mask
        return mask


def index_of(model: ArchitectureModel) -> ModelIndex:
    index = getattr(model, "_index", None)
    if index is None:
        index = ModelIndex(model)
        object.__setattr__(model, "_index", index)
    return index


def node_labels_for_instance(model: ArchitectureModel, instance_id: str) -> LabelSet:
    """Labels of the node an instance runs on: component plus container."""
    index = index_of(model)
    return model.dictionary.set_from_mask(index.node_mask(instance_id))


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

    def check_call(where: str, call) -> None:
        resolved = signature_owner.get(call.signature_id)
        if resolved is None:
            defects.append(f"{where}: unknown signature '{call.signature_id}'")
            return
        component, signature = resolved
        params = set(signature.parameters)
        for param, _ in call.bindings:
            if param not in params:
                defects.append(
                    f"{where}: binding names unknown parameter '{param}' "
                    f"of signature '{signature.id}'"
                )
        if call.result_variable is not None:
            seff = index.seffs.get((component.id, signature.id))
            if not (seff and seff.actions and isinstance(seff.actions[-1], ReturnAction)):
                defects.append(
                    f"{where}: result variable set but seff of "
                    f"'{signature.id}' has no Return action"
                )

    for component in model.components:
        for seff in component.seffs:
            owner = signature_owner.get(seff.signature_id)
            if owner is None or owner[0] is not component:
                continue  # a seff for a signature its component does not provide
            for action in seff.actions:
                if isinstance(action, ExternalCall):
                    where = f"component '{component.id}', seff '{seff.signature_id}'"
                    check_call(f"{where}, action '{action.id}'", action)

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
        for seff in component.seffs:
            for action in seff.actions:
                if not isinstance(action, ExternalCall):
                    continue
                where = f"instance '{instance.id}', call '{action.id}'"
                target_id = index.connectors.get((instance.id, action.role))
                if target_id is None:
                    defects.append(f"{where}: no connector for role '{action.role}'")
                    continue
                target = index.instances.get(target_id)
                provider = signature_owner.get(action.signature_id)
                if target and provider and target.component_id != provider[0].id:
                    defects.append(
                        f"{where}: connector target '{target_id}' does not provide "
                        f"signature '{action.signature_id}'"
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
            check_call(where, action)

    return defects
