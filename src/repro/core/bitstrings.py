"""Exact bit strings — the currency of verification complexity.

Definition 2.1 measures a scheme by the *length in bits* of the labels
(deterministic) or certificates (randomized) it ships, so this library never
exchanges Python objects between nodes: provers emit :class:`BitString`
labels, randomized verifiers emit :class:`BitString` certificates, and every
field inside them is packed at an explicit width.  The sizes the benchmarks
report are therefore the honest sizes of the encodings, not estimates.

A :class:`BitString` is an immutable ``(value, length)`` pair where ``value``
is the big-endian integer reading of the bits.  :class:`BitWriter` and
:class:`BitReader` provide sequential packing/unpacking so schemes can define
small codecs without bit-twiddling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

# Bit expansions of every byte value, most-significant bit first.  One table
# lookup per byte turns bit extraction into an O(length) pass instead of the
# O(length) big-int shifts (each itself O(length / 64) word operations) that a
# per-index ``value >> i`` loop costs.
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple((byte >> (7 - i)) & 1 for i in range(8)) for byte in range(256)
)


@dataclass(frozen=True)
class BitString:
    """An immutable sequence of bits.

    ``value`` holds the bits read big-endian (first bit = most significant);
    ``length`` may exceed the bit length of ``value`` (leading zeros count).

    >>> BitString.from_int(5, 4).bits()
    [0, 1, 0, 1]
    >>> (BitString.from_int(1, 2) + BitString.from_int(3, 2)).bits()
    [0, 1, 1, 1]
    """

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("bit string length must be non-negative")
        if self.value < 0:
            raise ValueError("bit string value must be non-negative")
        if self.value.bit_length() > self.length:
            raise ValueError(
                f"value {self.value} does not fit in {self.length} bits"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "BitString":
        """The zero-length bit string."""
        return BitString(0, 0)

    @staticmethod
    def from_int(value: int, width: int) -> "BitString":
        """Encode ``value`` in exactly ``width`` bits (big-endian)."""
        return BitString(value, width)

    @staticmethod
    def from_bits(bits: Iterable[int]) -> "BitString":
        """Build from an iterable of 0/1 values.

        >>> BitString.from_bits([1, 0, 1]).value
        5
        """
        value = 0
        length = 0
        for bit in bits:
            if bit not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {bit}")
            value = (value << 1) | bit
            length += 1
        return BitString(value, length)

    @staticmethod
    def concat(parts: Sequence["BitString"]) -> "BitString":
        """Concatenate many bit strings left-to-right."""
        value = 0
        length = 0
        for part in parts:
            value = (value << part.length) | part.value
            length += part.length
        return BitString(value, length)

    # -- views -------------------------------------------------------------

    def bit_tuple(self) -> Tuple[int, ...]:
        """The bits as an immutable tuple, first bit first — memoized.

        Extraction runs once per instance via a single ``int.to_bytes`` pass
        and a 256-entry expansion table; repeated callers (the fingerprint
        layer evaluates label polynomials on every verification trial) hit
        the cache.  The cache lives outside the dataclass fields, so
        equality and hashing are untouched.
        """
        cached = getattr(self, "_bit_cache", None)
        if cached is None:
            if self.length == 0:
                cached = ()
            else:
                nbytes = (self.length + 7) // 8
                expansions = _BYTE_BITS
                flat: List[int] = []
                for byte in self.value.to_bytes(nbytes, "big"):
                    flat.extend(expansions[byte])
                cached = tuple(flat[8 * nbytes - self.length :])
            object.__setattr__(self, "_bit_cache", cached)
        return cached

    def bits(self) -> List[int]:
        """The bits as a list, first bit first."""
        return list(self.bit_tuple())

    def __iter__(self) -> Iterator[int]:
        return iter(self.bit_tuple())

    def __len__(self) -> int:
        return self.length

    def __add__(self, other: "BitString") -> "BitString":
        return BitString(
            (self.value << other.length) | other.value, self.length + other.length
        )

    def slice(self, start: int, width: int) -> "BitString":
        """The ``width`` bits beginning at offset ``start`` (0 = first bit)."""
        if start < 0 or width < 0 or start + width > self.length:
            raise ValueError(
                f"slice [{start}, {start + width}) out of range for length {self.length}"
            )
        shift = self.length - start - width
        mask = (1 << width) - 1
        return BitString((self.value >> shift) & mask, width)

    def to_hex(self) -> str:
        """Hex rendering, useful in logs; zero-padded to the nibble."""
        nibbles = (self.length + 3) // 4
        return f"{self.value:0{max(nibbles, 1)}x}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitString({self.to_hex()}, len={self.length})"


def bits_for(value_count: int) -> int:
    """Minimum width that can represent ``value_count`` distinct values.

    >>> bits_for(1)
    0
    >>> bits_for(2)
    1
    >>> bits_for(1000)
    10
    """
    if value_count < 1:
        raise ValueError("need at least one representable value")
    return (value_count - 1).bit_length()


def bits_for_max(max_value: int) -> int:
    """Width needed to store integers in ``[0, max_value]``."""
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    return bits_for(max_value + 1)


class BitWriter:
    """Sequential packer producing a :class:`BitString`.

    >>> writer = BitWriter()
    >>> writer.write_uint(3, 4)
    >>> writer.write_flag(True)
    >>> writer.finish().bits()
    [0, 0, 1, 1, 1]
    """

    def __init__(self) -> None:
        self._value = 0
        self._length = 0

    def write_uint(self, value: int, width: int) -> None:
        """Append ``value`` in exactly ``width`` bits."""
        if value < 0:
            raise ValueError("write_uint encodes non-negative integers only")
        if value.bit_length() > width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._length += width

    def write_flag(self, flag: bool) -> None:
        """Append a single bit."""
        self.write_uint(1 if flag else 0, 1)

    def write_bitstring(self, bit_string: BitString) -> None:
        """Append an existing bit string verbatim."""
        self._value = (self._value << bit_string.length) | bit_string.value
        self._length += bit_string.length

    def write_varuint(self, value: int) -> None:
        """Append a self-delimiting unsigned integer (4-bit groups, LEB-style).

        Each group is 1 continuation bit + 3 payload bits; small numbers stay
        small and no external width needs to be agreed upon.
        """
        if value < 0:
            raise ValueError("varuint encodes non-negative integers only")
        groups = []
        while True:
            groups.append(value & 0b111)
            value >>= 3
            if value == 0:
                break
        for index, group in enumerate(groups):
            continuation = 1 if index + 1 < len(groups) else 0
            self.write_uint((continuation << 3) | group, 4)

    @property
    def length(self) -> int:
        """Bits written so far."""
        return self._length

    def finish(self) -> BitString:
        """Return everything written as one bit string."""
        return BitString(self._value, self._length)


#: How many already-read bits a :class:`BitReader` keeps above the unread
#: ones before it drops them (see :meth:`BitReader._advance`).
_READ_WINDOW = 1024


class BitReader:
    """Sequential unpacker over a :class:`BitString`, in one pass.

    Fields are read straight off the bit string's integer: the field ending
    ``rest`` bits before the end is ``(value >> rest) & mask``.  A shift
    costs the length of what it keeps, so the reader drops the bits it has
    read once more than :data:`_READ_WINDOW` of them sit above the unread
    ones; a field then costs its width plus at most the window, and a whole
    label its length.

    Raises :class:`ValueError` on over-read (and on a negative width), which
    verifiers treat as a malformed label (and therefore reject) — a forged
    label must never crash the verifier.
    """

    __slots__ = ("_value", "_held", "_rest")

    def __init__(self, bit_string: BitString):
        self._value = bit_string.value  # the unread bits, below _held - _rest read ones
        self._held = bit_string.length
        self._rest = bit_string.length  # bits not yet read

    def _advance(self, rest: int) -> None:
        """Move to ``rest`` unread bits, dropping read bits past the window."""
        self._rest = rest
        if self._held - rest > _READ_WINDOW:
            self._value &= (1 << rest) - 1
            self._held = rest

    def read_uint(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer."""
        rest = self._rest - width
        if width < 0 or rest < 0:
            raise ValueError(
                f"cannot read {width} bits with {self._rest} remaining"
            )
        value = self._value
        self._advance(rest)
        return (value >> rest) & ((1 << width) - 1)

    def read_flag(self) -> bool:
        """Read a single bit as a boolean."""
        return self.read_uint(1) == 1

    def read_bitstring(self, width: int) -> BitString:
        """Read ``width`` bits as a fresh bit string."""
        return BitString(self.read_uint(width), width)

    def read_varuint(self) -> int:
        """Inverse of :meth:`BitWriter.write_varuint`."""
        value = self._value
        rest = self._rest
        result = 0
        shift = 0
        while True:
            rest -= 4
            if rest < 0:
                raise ValueError(f"varuint runs past the end ({self._rest} bits remained)")
            group = (value >> rest) & 0b1111
            result |= (group & 0b111) << shift
            if not group & 0b1000:
                break
            shift += 3
            if shift > 96:  # defensive: forged labels must not loop forever
                raise ValueError("varuint too long")
        self._advance(rest)
        return result

    @property
    def remaining(self) -> int:
        """Bits not yet consumed."""
        return self._rest

    def expect_exhausted(self) -> None:
        """Raise unless every bit has been consumed (strict codecs)."""
        if self._rest != 0:
            raise ValueError(f"{self._rest} unread bits remain")
