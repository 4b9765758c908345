"""Tests for repro.core.bitstrings — the bit-accounting foundation."""

import pytest
from hypothesis import given, strategies as st

from repro.core.bitstrings import (
    BitReader,
    BitString,
    BitWriter,
    bits_for,
    bits_for_max,
)


class TestBitString:
    def test_empty(self):
        empty = BitString.empty()
        assert empty.length == 0
        assert empty.bits() == []

    def test_from_int_roundtrip(self):
        bs = BitString.from_int(0b1011, 4)
        assert bs.bits() == [1, 0, 1, 1]
        assert bs.value == 11

    def test_leading_zeros_count(self):
        bs = BitString.from_int(1, 8)
        assert bs.length == 8
        assert bs.bits() == [0] * 7 + [1]

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValueError):
            BitString.from_int(16, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BitString(-1, 4)
        with pytest.raises(ValueError):
            BitString(0, -1)

    def test_from_bits(self):
        assert BitString.from_bits([1, 0, 1]).value == 5
        assert BitString.from_bits([]).length == 0

    def test_from_bits_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitString.from_bits([0, 2])

    def test_concat(self):
        joined = BitString.concat(
            [BitString.from_int(1, 2), BitString.from_int(3, 2), BitString.empty()]
        )
        assert joined.bits() == [0, 1, 1, 1]
        assert joined.length == 4

    def test_add_operator(self):
        assert (BitString.from_int(1, 1) + BitString.from_int(0, 1)).bits() == [1, 0]

    def test_slice(self):
        bs = BitString.from_bits([1, 0, 1, 1, 0])
        assert bs.slice(1, 3).bits() == [0, 1, 1]
        assert bs.slice(0, 0).length == 0
        assert bs.slice(5, 0).length == 0

    def test_slice_out_of_range(self):
        bs = BitString.from_int(3, 4)
        with pytest.raises(ValueError):
            bs.slice(2, 3)
        with pytest.raises(ValueError):
            bs.slice(-1, 2)

    def test_equality_includes_length(self):
        assert BitString.from_int(1, 2) != BitString.from_int(1, 3)
        assert BitString.from_int(1, 2) == BitString.from_int(1, 2)

    def test_hashable(self):
        assert len({BitString.from_int(1, 2), BitString.from_int(1, 2)}) == 1

    def test_iteration_and_len(self):
        bs = BitString.from_bits([1, 1, 0])
        assert list(bs) == [1, 1, 0]
        assert len(bs) == 3

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
    def test_bits_roundtrip_property(self, bits):
        assert BitString.from_bits(bits).bits() == bits

    @given(
        st.lists(st.integers(min_value=0, max_value=1), max_size=64),
        st.lists(st.integers(min_value=0, max_value=1), max_size=64),
    )
    def test_concat_is_list_concat(self, left, right):
        joined = BitString.from_bits(left) + BitString.from_bits(right)
        assert joined.bits() == left + right

    @given(st.data())
    def test_slice_matches_list_slice(self, data):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=64))
        bs = BitString.from_bits(bits)
        start = data.draw(st.integers(0, len(bits)))
        width = data.draw(st.integers(0, len(bits) - start))
        assert bs.slice(start, width).bits() == bits[start : start + width]


class TestWidthHelpers:
    def test_bits_for(self):
        assert bits_for(1) == 0
        assert bits_for(2) == 1
        assert bits_for(3) == 2
        assert bits_for(256) == 8
        assert bits_for(257) == 9

    def test_bits_for_max(self):
        assert bits_for_max(0) == 0
        assert bits_for_max(1) == 1
        assert bits_for_max(255) == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            bits_for(0)
        with pytest.raises(ValueError):
            bits_for_max(-1)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_width_is_sufficient_and_tight(self, value):
        width = bits_for_max(value)
        assert value < 2**width or value == 0
        if width > 0:
            assert 2 ** (width - 1) <= max(value, 1)


class TestWriterReader:
    def test_uint_roundtrip(self):
        writer = BitWriter()
        writer.write_uint(5, 4)
        writer.write_uint(0, 3)
        writer.write_uint(1, 1)
        reader = BitReader(writer.finish())
        assert reader.read_uint(4) == 5
        assert reader.read_uint(3) == 0
        assert reader.read_uint(1) == 1
        reader.expect_exhausted()

    def test_flag_roundtrip(self):
        writer = BitWriter()
        writer.write_flag(True)
        writer.write_flag(False)
        reader = BitReader(writer.finish())
        assert reader.read_flag() is True
        assert reader.read_flag() is False

    def test_uint_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_uint(8, 3)
        with pytest.raises(ValueError):
            writer.write_uint(-1, 3)

    def test_bitstring_embedding(self):
        inner = BitString.from_bits([1, 0, 1])
        writer = BitWriter()
        writer.write_uint(2, 2)
        writer.write_bitstring(inner)
        reader = BitReader(writer.finish())
        assert reader.read_uint(2) == 2
        assert reader.read_bitstring(3) == inner

    def test_over_read_raises(self):
        reader = BitReader(BitString.from_int(1, 1))
        reader.read_uint(1)
        with pytest.raises(ValueError):
            reader.read_uint(1)

    def test_expect_exhausted_raises_on_leftover(self):
        reader = BitReader(BitString.from_int(1, 2))
        reader.read_uint(1)
        with pytest.raises(ValueError):
            reader.expect_exhausted()

    def test_remaining(self):
        reader = BitReader(BitString.from_int(0, 5))
        assert reader.remaining == 5
        reader.read_uint(2)
        assert reader.remaining == 3

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=20))
    def test_varuint_roundtrip(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_varuint(value)
        reader = BitReader(writer.finish())
        assert [reader.read_varuint() for _ in values] == values
        reader.expect_exhausted()

    def test_varuint_small_values_are_small(self):
        writer = BitWriter()
        writer.write_varuint(7)
        assert writer.length == 4  # one 4-bit group

    def test_varuint_rejects_negative(self):
        with pytest.raises(ValueError):
            BitWriter().write_varuint(-1)

    def test_writer_length_tracks(self):
        writer = BitWriter()
        assert writer.length == 0
        writer.write_uint(0, 9)
        assert writer.length == 9

    @given(st.integers(min_value=0, max_value=2**60))
    def test_varuint_length_is_logarithmic(self, value):
        writer = BitWriter()
        writer.write_varuint(value)
        groups = max(1, (value.bit_length() + 2) // 3)
        assert writer.length == 4 * groups


def _slice_reader(bit_string):
    """The reference decoder: every field through ``BitString.slice``."""
    offset = 0

    def read(width):
        nonlocal offset
        piece = bit_string.slice(offset, width)
        offset += width
        return piece

    return read


def _reference_varuint(read):
    value = shift = 0
    while True:
        group = read(4).value
        value |= (group & 0b111) << shift
        shift += 3
        if not group & 0b1000:
            return value
        if shift > 96:
            raise ValueError("varuint too long")


class TestOnePassReader:
    """BitReader reads what BitString.slice reads, and fails where it fails."""

    WIDTHS = (0, 1, 2, 3, 7, 8, 63, 64, 65, 100, 129, 700)

    @pytest.mark.parametrize("seed", range(40))
    def test_fields_match_slices(self, seed):
        import random

        rng = random.Random(seed)
        # Long enough, in some cases, for the reader to drop read bits.
        length = rng.choice((0, 1, 5, 64, 65, 300, 1500, 4000))
        bit_string = BitString(rng.getrandbits(length) if length else 0, length)
        reader, reference = BitReader(bit_string), _slice_reader(bit_string)
        left = length
        while left:
            width = min(left, rng.choice(self.WIDTHS))
            kind = rng.randrange(3)
            if kind == 0:
                assert reader.read_uint(width) == reference(width).value
            elif kind == 1:
                assert reader.read_bitstring(width) == reference(width)
            else:
                assert reader.read_flag() == (reference(1).value == 1)
                width = 1
            left -= width
            assert reader.remaining == left
        # The last field ended on the last bit; a zero-width read still works.
        assert reader.read_uint(0) == 0
        reader.expect_exhausted()

    @pytest.mark.parametrize("seed", range(20))
    def test_over_reads_and_negative_widths_raise(self, seed):
        import random

        rng = random.Random(100 + seed)
        length = rng.choice((0, 1, 9, 70, 2000))
        bit_string = BitString(rng.getrandbits(length) if length else 0, length)
        start = rng.randint(0, length)
        for width in (length - start + 1, length - start + 65, -1, -64):
            reader = BitReader(bit_string)
            reader.read_uint(start)
            with pytest.raises(ValueError):
                bit_string.slice(start, width)
            with pytest.raises(ValueError):
                reader.read_uint(width)
            with pytest.raises(ValueError):
                reader.read_bitstring(width)
        reader = BitReader(bit_string)
        reader.read_uint(length)
        with pytest.raises(ValueError):
            reader.read_flag()

    @pytest.mark.parametrize("seed", range(40))
    def test_varuints_match_the_group_by_group_decode(self, seed):
        """On arbitrary bits — forged labels — both decoders return the same
        values and raise at the same varuint."""
        import random

        rng = random.Random(200 + seed)
        length = rng.choice((3, 4, 13, 64, 200, 1500))
        # Bias towards continuation bits so long and runaway varuints occur.
        bits = [
            1 if index % 4 == 0 and rng.random() < 0.8 else rng.randrange(2)
            for index in range(length)
        ]
        bit_string = BitString.from_bits(bits)
        reader, reference = BitReader(bit_string), _slice_reader(bit_string)
        while True:
            try:
                expected = _reference_varuint(reference)
            except ValueError:
                with pytest.raises(ValueError):
                    reader.read_varuint()
                return
            assert reader.read_varuint() == expected

    def test_varuint_too_long(self):
        runaway = BitString.from_bits([1, 0, 0, 0] * 40)
        with pytest.raises(ValueError, match="varuint too long"):
            BitReader(runaway).read_varuint()
        # Thirty-two continued groups and a final one still decode.
        writer = BitWriter()
        writer.write_varuint(2**99 - 1)
        assert BitReader(writer.finish()).read_varuint() == 2**99 - 1

    def test_varuint_past_the_end_is_not_too_long(self):
        with pytest.raises(ValueError) as raised:
            BitReader(BitString.from_bits([1, 0, 0, 0, 1, 0])).read_varuint()
        assert "too long" not in str(raised.value)


class TestLabelDecoders:
    """Scheme label parsers reject truncated and extended labels."""

    @staticmethod
    def _damaged(label):
        """Every strict prefix of interest, and the label extended."""
        for cut in sorted({1, 2, 3, 4, 5, label.length // 2, label.length - 1}):
            if 0 < cut <= label.length:
                yield BitString(label.value >> cut, label.length - cut)
        for extra in (1, 4, 9):
            yield BitString(label.value << extra, label.length + extra)
            yield BitString((label.value << extra) | 1, label.length + extra)

    def test_mst_unpack(self):
        from repro.graphs.generators import mst_configuration
        from repro.schemes.mst import MSTPLS, _unpack

        config = mst_configuration(12, seed=3)
        for label in MSTPLS().prover(config).values():
            _unpack(label)
            for damaged in self._damaged(label):
                with pytest.raises(ValueError):
                    _unpack(damaged)

    def test_unif_unpack(self):
        from repro.graphs.generators import uniform_configuration
        from repro.schemes.uniformity import UnifPLS

        config = uniform_configuration(6, 20, equal=True, seed=4)
        for label in UnifPLS().prover(config).values():
            UnifPLS._unpack(label)
            for damaged in self._damaged(label):
                with pytest.raises(ValueError):
                    UnifPLS._unpack(damaged)
