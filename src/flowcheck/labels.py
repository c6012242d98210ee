"""Characteristic labels and the data dictionary that scopes them.

A :class:`DataDictionary` declares every label type and its values up
front; all labels attached to nodes or data during an analysis must come
from that closed vocabulary.  The dictionary walks its declaration once:
the same loop assigns each (type, value) pair a bit position in
declaration order and records every well-formedness defect on
``defects``.  A set of labels is then a single integer mask, so the
propagation hot path works on plain ints.  :class:`LabelSet` wraps such
a mask; :class:`Label` objects are made only when a caller iterates a
set or the dictionary.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import DictionaryError

__all__ = [
    "is_identifier",
    "Label",
    "LabelType",
    "DataDictionary",
    "LabelSet",
]

def is_identifier(name: object) -> bool:
    """True for ``[A-Za-z_][A-Za-z0-9_]*``: an ASCII Python identifier."""
    return isinstance(name, str) and name.isascii() and name.isidentifier()


class Label(NamedTuple):
    """One (type, value) characteristic, e.g. ``Encryption.Encrypted``."""

    type: str
    value: str

    def __str__(self) -> str:
        return f"{self.type}.{self.value}"


class LabelType(NamedTuple("LabelType", [("name", str), ("values", tuple[str, ...])])):
    """A named label type together with its closed set of values."""

    __slots__ = ()

    def __new__(cls, name: str, values: Iterable[str]):
        return super().__new__(cls, name, tuple(values))


class DataDictionary:
    """The closed vocabulary of label types and values for one analysis.

    Construction is the only walk over ``label_types``.  It lays out the
    bits (the first declaration of a type name wins, a repeated value
    keeps its first bit, so each type's bits are contiguous) and fills
    ``defects`` with one message per violation of well-formedness:
    unique type names, at least one value per type, unique values within
    a type, and every name a plain identifier.  Bits are kept as
    ``(type, value)`` keys, not as :class:`Label` objects.

    Equality is structural (same types with the same values in the same
    order).  The dictionary also owns small caches for lowered
    assignment programs and the ``keep`` masks their ops share, so a
    freshly loaded model starts with cold caches.
    """

    __slots__ = (
        "label_types",
        "defects",
        "_bit_of",
        "_keys",
        "_values_of",
        "_type_masks",
        "_universe",
        "_hash",
        "lower_cache",
        "keep_cache",
    )

    def __init__(self, label_types: Iterable[LabelType]):
        self.label_types = tuple(label_types)
        defects: list[str] = []
        bit_of: dict[tuple[str, str], int] = {}  # insertion order is bit order
        values_of: dict[str, tuple[str, ...]] = {}
        type_masks: dict[str, int] = {}
        for lt in self.label_types:
            name = lt.name
            # an invalid name is reported at every declaration, and its
            # values are not checked
            checked = is_identifier(name)
            if not checked:
                defects.append(f"label type name {name!r} is not a valid identifier")
            if name in values_of:
                if checked:
                    defects.append(f"duplicate label type name '{name}'")
                continue
            values_of[name] = lt.values
            if checked and not lt.values:
                defects.append(f"label type '{name}' declares no values")
            first = len(bit_of)
            for value in lt.values:
                key = (name, value)
                repeated = key in bit_of
                if not repeated:
                    bit_of[key] = len(bit_of)
                if not checked:
                    continue
                if not is_identifier(value):
                    defects.append(
                        f"label type '{name}': value {value!r} is not a valid identifier"
                    )
                elif repeated:
                    defects.append(f"label type '{name}': duplicate value '{value}'")
            type_masks[name] = ((1 << (len(bit_of) - first)) - 1) << first
        self.defects = tuple(defects)
        self._bit_of = bit_of
        self._keys = tuple(bit_of)
        self._values_of = values_of
        self._type_masks = type_masks
        self._universe = (1 << len(bit_of)) - 1
        self._hash = hash(self.label_types)
        self.lower_cache: dict = {}
        self.keep_cache: dict = {}

    # -- vocabulary lookups -------------------------------------------------

    def has_label(self, type_name: str, value: str) -> bool:
        return (type_name, value) in self._bit_of

    def known_pairs(self) -> tuple:
        """The (type, value) pairs a reference may name, by wildcard arity."""
        return self._bit_of, {(t, None) for t in self._values_of}, {(None, None)}

    def values_of(self, type_name: str) -> tuple[str, ...]:
        try:
            return self._values_of[type_name]
        except KeyError:
            raise DictionaryError(f"unknown label type '{type_name}'") from None

    def bit(self, type_name: str, value: str) -> int:
        """Bit position of a (type, value) pair; raises for unknown pairs."""
        try:
            return self._bit_of[type_name, value]
        except KeyError:
            if type_name not in self._values_of:
                raise DictionaryError(f"unknown label type '{type_name}'") from None
            raise DictionaryError(
                f"unknown value '{value}' for label type '{type_name}'"
            ) from None

    @property
    def size(self) -> int:
        """Number of distinct (type, value) pairs."""
        return len(self._keys)

    @property
    def universe_mask(self) -> int:
        return self._universe

    def type_mask(self, type_name: str) -> int:
        try:
            return self._type_masks[type_name]
        except KeyError:
            raise DictionaryError(f"unknown label type '{type_name}'") from None

    def set_from_mask(self, mask: int) -> LabelSet:
        return LabelSet(self, mask)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, DataDictionary):
            return NotImplemented
        return self.label_types == other.label_types

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # a copy starts with empty caches
        return DataDictionary, (self.label_types,)

    def __repr__(self) -> str:
        return f"DataDictionary({len(self.label_types)} types, {self.size} labels)"


class LabelSet:
    """An immutable set of labels bound to one :class:`DataDictionary`.

    Backed by a bit mask; :class:`Label` objects are made on first
    iteration and cached.
    """

    __slots__ = ("_dictionary", "_mask", "_decoded")

    def __init__(self, dictionary: DataDictionary, mask: int = 0):
        self._dictionary = dictionary
        self._mask = mask
        self._decoded = None

    @property
    def dictionary(self) -> DataDictionary:
        return self._dictionary

    @property
    def mask(self) -> int:
        return self._mask

    def has(self, type_name: str, value: str) -> bool:
        return bool(self._mask >> self._dictionary.bit(type_name, value) & 1)

    def __contains__(self, label: Label) -> bool:
        """Membership test; the label must exist in the dictionary."""
        return self.has(label.type, label.value)

    def _set_keys(self) -> list[tuple[str, str]]:
        """The (type, value) keys of the set bits, in bit order."""
        keys = self._dictionary._keys
        # one pass over the binary digits, lowest bit first
        digits = reversed(bin(self._mask))
        return [keys[bit] for bit, digit in enumerate(digits) if digit == "1"]

    def _decode(self) -> tuple[Label, ...]:
        if self._decoded is None:
            self._decoded = tuple(Label(t, v) for t, v in self._set_keys())
        return self._decoded

    def __iter__(self) -> Iterator[Label]:
        return iter(self._decode())

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __bool__(self) -> bool:
        return self._mask != 0

    def names(self) -> list[str]:
        """``Type.Value`` strings sorted by type then value."""
        return sorted(f"{t}.{v}" for t, v in self._set_keys())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelSet):
            return NotImplemented
        return self._mask == other._mask and self._dictionary == other._dictionary

    def __hash__(self) -> int:
        return hash((self._mask, self._dictionary))

    def __repr__(self) -> str:
        inner = ", ".join(self.names())
        return "{" + inner + "}"
