"""High-level facade tying the pipeline together.

The shape mirrors how the analysis reads in code: find all sequences,
evaluate the data flows once, then query the propagated results as often
as needed.

    analysis = DataFlowAnalysis.from_file("model.json")
    sequences = analysis.find_all_sequences()
    propagated = analysis.evaluate_data_flows(sequences)
    violations = analysis.query_data_flow(
        propagated[0],
        lambda node: node.has_node_characteristic("ServerLocation", "nonEU")
        and any(
            v.has_data_characteristic("DataSensitivity", "Personal")
            and not v.has_data_characteristic("Encryption", "Encrypted")
            for v in node.variables
        ),
    )
"""

from __future__ import annotations

from .constraints import Constraint, Violation, query, query_many
from .extraction import ActionSequence, find_all_sequences
from .loader import load_model
from .model import ArchitectureModel
from .propagation import PropagatedSequence, evaluate_all

__all__ = ["DataFlowAnalysis"]


class DataFlowAnalysis:
    """One model, analysed end to end."""

    def __init__(self, model: ArchitectureModel, *, max_call_depth: int = 64):
        self.model = model
        self.max_call_depth = max_call_depth

    @classmethod
    def from_file(cls, path, **kwargs) -> "DataFlowAnalysis":
        return cls(load_model(path), **kwargs)

    def find_all_sequences(self) -> list[ActionSequence]:
        return find_all_sequences(self.model, max_call_depth=self.max_call_depth)

    def evaluate_data_flows(self, sequences=None) -> list[PropagatedSequence]:
        """Propagate labels; extracts the sequences first when not given."""
        if sequences is None:
            sequences = self.find_all_sequences()
        return evaluate_all(self.model, sequences)

    def query_data_flow(
        self,
        propagated: PropagatedSequence,
        predicate,
        *,
        sequence_index: int = 0,
        name: str = "query",
    ) -> list[Violation]:
        """Match one propagated sequence against a constraint.

        ``predicate`` is either a :class:`Constraint` or a callable
        taking an element result and returning truth.
        """
        if isinstance(predicate, Constraint):
            return query(propagated, predicate, sequence_index=sequence_index)
        violations = []
        for element_index, result in enumerate(propagated.results):
            if predicate(result):
                violations.append(
                    Violation(
                        name,
                        sequence_index,
                        element_index,
                        result.element.element_id,
                        (),
                    )
                )
        return violations

    def query_all(self, propagated_sequences, constraints) -> dict[str, list[Violation]]:
        """Evaluate many constraints against already-propagated results."""
        return query_many(propagated_sequences, constraints)
