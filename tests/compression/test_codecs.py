"""Codec-level unit tests: format handling, registry, ratios."""

import zlib

import pytest

from repro.compression import deflate, zstd_like
from repro.compression import (
    DeflateCodec,
    LzFastCodec,
    ZstdLikeCodec,
    available_codecs,
    compression_ratio,
    get_codec,
    space_savings,
)
from repro.compression.bitio import BitWriter
from repro.compression.huffman import HuffmanTable
from repro.errors import ConfigError, CorruptStreamError
from repro.sfm.page import PAGE_SIZE


class TestRegistry:
    def test_all_codecs_registered(self):
        assert available_codecs() == ["deflate", "lzfast", "zstd-like"]

    def test_get_codec_with_kwargs(self):
        codec = get_codec("deflate", window_size=1024)
        assert codec.window_size == 1024

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigError):
            get_codec("snappy")


class TestRoundTrips:
    def test_round_trip_spectrum(self, codec, sample_buffers):
        for data in sample_buffers:
            assert codec.decompress(codec.compress(data)) == data

    def test_deterministic(self, codec, json_pages):
        assert codec.compress(json_pages[0]) == codec.compress(json_pages[0])

    def test_incompressible_falls_back_to_stored(self, codec, random_pages):
        blob = codec.compress(random_pages[0])
        # Stored mode: small bounded header only.
        assert len(blob) <= len(random_pages[0]) + 16
        assert codec.decompress(blob) == random_pages[0]


class TestCorruption:
    def test_bad_magic_rejected(self, codec, json_pages):
        blob = bytearray(codec.compress(json_pages[0]))
        blob[0] ^= 0xFF
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(blob))

    def test_truncated_stream_rejected(self, codec, json_pages):
        blob = codec.compress(json_pages[0])
        with pytest.raises(CorruptStreamError):
            codec.decompress(blob[: len(blob) // 2])


#: An oversubscribed length set: four 1-bit codes already use the whole
#: code space, so the 15-bit code after them is 65536, past 16 bits.
_OVERSUBSCRIBED = [1, 1, 1, 1, 15]


class TestOversubscribedHeaders:
    """A corrupt header whose code lengths oversubscribe the code space
    must surface as CorruptStreamError, like any other stored corruption."""

    def test_zstd_like_literal_lengths(self):
        payload = b"abcd" * 8
        lengths = _OVERSUBSCRIBED + [0] * (256 - len(_OVERSUBSCRIBED))
        writer = BitWriter()
        writer.write_bits(zstd_like._MAGIC, 8)
        writer.write_bits(zstd_like._MODE_COMPRESSED, 8)
        zstd_like._write_varint_bits(writer, len(payload))
        writer.write_bits(zlib.crc32(payload), 32)
        writer.align_to_byte()
        zstd_like._write_varint_bits(writer, len(payload))
        for length in lengths:
            writer.write_bits(length, 4)
        writer.write_bits(0, len(payload))  # one 1-bit code per literal
        zstd_like._write_varint_bits(writer, 1)  # one sequence:
        zstd_like._write_varint_bits(writer, len(payload))  # all literals,
        zstd_like._write_varint_bits(writer, 0)  # no match
        with pytest.raises(CorruptStreamError):
            ZstdLikeCodec().decompress(writer.getvalue())

    def test_deflate_litlen_lengths(self):
        payload = b"abcd" * 8
        # Code-length alphabet: 0, 1, 15 and 18 (zero run), 2 bits each.
        cl_lengths = [0] * deflate._NUM_CODELEN
        for symbol in (0, 1, 15, 18):
            cl_lengths[symbol] = 2
        cl_table = HuffmanTable.from_lengths(cl_lengths)
        zero_runs = [138, 138, 35]  # symbol 18 covers 11..138 zeros
        assert len(_OVERSUBSCRIBED) + sum(zero_runs) == (
            deflate._NUM_LITLEN + deflate._NUM_DIST
        )
        writer = BitWriter()
        writer.write_bits(deflate._MAGIC, 8)
        writer.write_bits(deflate._MODE_HUFFMAN, 8)
        deflate._write_varint(writer, len(payload))
        writer.write_bits(zlib.crc32(payload), 32)
        for length in cl_lengths:
            writer.write_bits(length, 3)
        deflate._write_varint_bits(writer, len(_OVERSUBSCRIBED) + len(zero_runs))
        for length in _OVERSUBSCRIBED:
            cl_table.encode(writer, length)
        for run in zero_runs:
            cl_table.encode(writer, 18)
            writer.write_bits(run - 11, 7)
        writer.write_bits(0, 64)
        with pytest.raises(CorruptStreamError):
            DeflateCodec().decompress(writer.getvalue())


class TestRatios:
    def test_ratio_ordering_on_text(self, json_pages):
        """Deflate (entropy-coded) beats the byte-aligned fast codec."""
        data = json_pages[0]
        deflate = compression_ratio(data, DeflateCodec())
        lzfast = compression_ratio(data, LzFastCodec())
        assert deflate > lzfast > 1.2

    def test_zeros_compress_massively(self):
        data = bytes(PAGE_SIZE)
        for cls in (DeflateCodec, LzFastCodec, ZstdLikeCodec):
            assert compression_ratio(data, cls()) > 10

    def test_space_savings_complements_ratio(self, json_pages):
        codec = DeflateCodec()
        ratio = compression_ratio(json_pages[0], codec)
        savings = space_savings(json_pages[0], codec)
        assert savings == pytest.approx(1.0 - 1.0 / ratio)

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            compression_ratio(b"", DeflateCodec())


class TestWindowEffect:
    def test_smaller_window_never_improves_ratio(self, text_pages):
        """The Fig. 8 mechanism: shrinking the window cannot help."""
        data = b"".join(text_pages[:2])[:PAGE_SIZE]
        big = len(DeflateCodec(window_size=4096).compress(data))
        small = len(DeflateCodec(window_size=256).compress(data))
        assert small >= big


class TestSpecs:
    def test_specs_reflect_algorithm_classes(self):
        """lzo-class is fastest; deflate-class is slowest but densest."""
        deflate = DeflateCodec.spec
        lzfast = LzFastCodec.spec
        zstd = ZstdLikeCodec.spec
        assert lzfast.compress_cycles_per_byte < zstd.compress_cycles_per_byte
        assert zstd.compress_cycles_per_byte < deflate.compress_cycles_per_byte

    def test_mean_cycles_near_paper_constant(self):
        """zstd/lzo average anchors EQ3.4's 7.65 cycles/byte."""
        mean = (
            LzFastCodec.spec.mean_cycles_per_byte
            + ZstdLikeCodec.spec.mean_cycles_per_byte
        ) / 2
        assert 3.0 < mean < 9.0

    def test_throughput_helpers(self):
        spec = ZstdLikeCodec.spec
        assert spec.compress_throughput_bps(2.6e9) == pytest.approx(
            2.6e9 / spec.compress_cycles_per_byte
        )

    def test_deflate_window_cap(self):
        with pytest.raises(ConfigError):
            DeflateCodec(window_size=64 * 1024)

    def test_lzfast_window_bounds(self):
        with pytest.raises(ConfigError):
            LzFastCodec(window_size=1 << 20)
