"""Regression tests for the Huffman hot-path rework.

Covers the three overhaul guarantees: one-shot encoding emits the same
bit stream as the seed per-bit MSB loop, the table-driven decoder agrees
with the canonical bit-serial walk on every code (including codes longer
than the root table), and a table builds its decoder exactly once.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.bitio import BitReader, BitWriter
from repro.compression.huffman import (
    DECODE_ROOT_BITS,
    HuffmanDecoder,
    HuffmanTable,
    reverse_bits,
)
from repro.errors import CorruptStreamError


class TestDecoderCache:
    def test_decoder_built_once_per_table(self, monkeypatch):
        """The per-page decode paths call build_decoder repeatedly; the
        construction must happen once per table instance."""
        builds = []
        original = HuffmanDecoder.__init__

        def counting_init(self, table, *args, **kwargs):
            builds.append(id(table))
            original(self, table, *args, **kwargs)

        monkeypatch.setattr(HuffmanDecoder, "__init__", counting_init)
        table = HuffmanTable.from_frequencies([5, 3, 2, 1])
        first = table.build_decoder()
        for _ in range(10):
            assert table.build_decoder() is first
        assert builds.count(id(table)) == 1

    def test_distinct_tables_get_distinct_decoders(self):
        a = HuffmanTable.from_frequencies([5, 3, 2, 1])
        b = HuffmanTable.from_frequencies([5, 3, 2, 1])
        assert a == b  # equality ignores derived decoder state
        assert a.build_decoder() is not b.build_decoder()


class TestOneShotEncode:
    def test_codes_lsb_is_bit_reversal(self):
        rng = random.Random(7)
        for freqs in [[9, 5, 3, 2, 1, 1]] + [
            [rng.randint(0, 40) for _ in range(286)] for _ in range(50)
        ]:
            table = HuffmanTable.from_frequencies(freqs)
            for code, code_lsb, length in zip(
                table.codes, table.codes_lsb, table.lengths
            ):
                if length:
                    assert code_lsb == reverse_bits(code, length)

    def test_codes_lsb_of_oversubscribed_lengths(self):
        """Decoders build tables straight from stream headers, so a
        corrupt, oversubscribed length set must still build: canonical
        codes then exceed 16 bits (symbol 4 here gets 65536) and the
        reversal keeps only the low ``length`` bits, as reverse_bits does."""
        lengths = [1, 1, 1, 1, 15] + [0] * 251
        table = HuffmanTable.from_lengths(lengths)
        assert table.codes[4] == 65536
        for code, code_lsb, length in zip(
            table.codes, table.codes_lsb, table.lengths
        ):
            assert code_lsb == reverse_bits(code, length)
        table.build_decoder()

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
    def test_matches_seed_msb_bit_loop(self, symbols):
        """One write_bits call per symbol == the seed's per-bit loop."""
        freqs = [0] * (max(symbols) + 1)
        for s in symbols:
            freqs[s] += 1
        table = HuffmanTable.from_frequencies(freqs)
        fast = BitWriter()
        slow = BitWriter()
        for s in symbols:
            table.encode(fast, s)
            slow.write_bits_msb(table.codes[s], table.lengths[s])
        assert fast.getvalue() == slow.getvalue()


def _serial_decode(decoder: HuffmanDecoder, reader: BitReader) -> int:
    """The seed decoder: canonical counts/offsets walk, one bit at a time."""
    code = 0
    for length in range(1, decoder._max_len + 1):
        code = (code << 1) | reader.read_bit()
        bucket = decoder._symbols_by_length[length]
        index = code - decoder._first_code[length]
        if 0 <= index < len(bucket):
            return bucket[index]
    raise CorruptStreamError("invalid Huffman code in stream")


class TestTableDecoder:
    def _round_trip(self, freqs, symbols):
        table = HuffmanTable.from_frequencies(freqs)
        writer = BitWriter()
        for s in symbols:
            table.encode(writer, s)
        blob = writer.getvalue()
        decoder = table.build_decoder()
        fast_reader, slow_reader = BitReader(blob), BitReader(blob)
        for expected in symbols:
            assert decoder.decode(fast_reader) == expected
            assert _serial_decode(decoder, slow_reader) == expected

    def test_short_codes_via_root_table(self):
        self._round_trip([100, 50, 25, 12], [0, 1, 2, 3] * 20)

    def test_codes_longer_than_root_table(self):
        """Fibonacci frequencies force max-depth codes past the root, so
        the decoder must take the slow path — and still agree."""
        freqs = [1, 1]
        for _ in range(25):
            freqs.append(freqs[-1] + freqs[-2])
        table = HuffmanTable.from_frequencies(freqs)
        assert max(table.lengths) > DECODE_ROOT_BITS
        rare = table.lengths.index(max(table.lengths))
        common = table.lengths.index(min(l for l in table.lengths if l))
        self._round_trip(freqs, [rare, common, rare, rare, common])

    def test_truncated_stream_raises(self):
        table = HuffmanTable.from_frequencies([1, 1, 1, 1, 1, 1, 1])
        writer = BitWriter()
        table.encode(writer, 3)
        blob = writer.getvalue()
        decoder = table.build_decoder()
        reader = BitReader(blob)
        decoder.decode(reader)
        # The zero padding of the flushed byte is not a valid full
        # symbol run forever: exhausting the stream must raise.
        with pytest.raises(CorruptStreamError):
            for _ in range(20):
                decoder.decode(reader)

    @given(
        st.lists(st.integers(0, 60), min_size=2, max_size=400),
        st.integers(1, 4),
    )
    def test_agrees_with_serial_decoder_property(self, symbols, root_bits):
        """Differential: tiny root tables force constant slow-path use;
        both decoders must emit identical symbols from identical bits."""
        freqs = [0] * (max(symbols) + 1)
        for s in symbols:
            freqs[s] += 1
        table = HuffmanTable.from_frequencies(freqs)
        writer = BitWriter()
        for s in symbols:
            table.encode(writer, s)
        blob = writer.getvalue()
        small = HuffmanDecoder(table, root_bits=root_bits)
        full = HuffmanDecoder(table)
        readers = [BitReader(blob) for _ in range(3)]
        for expected in symbols:
            assert small.decode(readers[0]) == expected
            assert full.decode(readers[1]) == expected
            assert _serial_decode(full, readers[2]) == expected
