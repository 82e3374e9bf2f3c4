"""LZ77 string matching shared by the Deflate-style and zstd-style codecs.

The tokenizer slides over the input keeping a hash-chain index of 3-byte
prefixes (the classic zlib structure). Two engines produce bit-identical
token streams:

* the **native engine** (``lz77_tokenize`` in ``_hotpath.c``, loaded via
  :mod:`repro.compression._native`) — used whenever the host compiler
  produced it, the software stand-in for the paper's accelerator;
* the **scalar engine** (:meth:`Lz77Matcher._tokenize_packed_scalar`) — the
  seed's fully inlined hash-chain walk, the reference the native engine
  must match and the fallback whenever the library does not load.

The equivalence argument is structural, not statistical: the C kernel is
a statement-for-statement translation of the scalar walk — the same
chain build, the same one-byte quick-reject and early break, the same
chain budget and the same greedy/lazy rules — so the token sequence, and
therefore every compressed byte downstream, is identical. The test suite
enforces this against a verbatim copy of the seed tokenizer and with a
scalar-vs-C differential corpus.

Packed token encoding (``PACKED`` prefix helpers below):

* ``0 <= t <= 255`` — a literal byte ``t``.
* ``t >= 512`` — a match: ``t = (distance << 9) | length``. Lengths are
  3..258 so they fit 9 bits, and ``distance >= 1`` guarantees the two
  ranges never collide.

The window size is a first-class parameter because the multi-channel
experiments (Fig. 8) study exactly what happens when the effective window
shrinks from 4 KiB to 1 KiB as pages are split across DIMMs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, List, Union

import numpy as np

from repro.compression import _native
from repro.errors import ConfigError

MIN_MATCH = 3
MAX_MATCH = 258

_HASH_SHIFT = 16
_HASH_MULT = 2654435761
_HASH_BITS = 15
_HASH_MASK = (1 << _HASH_BITS) - 1

#: Bits reserved for the match length in a packed token.
PACKED_LENGTH_BITS = 9
PACKED_LENGTH_MASK = (1 << PACKED_LENGTH_BITS) - 1

#: Head-table scratch for the native tokenizer (the kernel re-memsets it
#: per call); allocated lazily, shared process-wide (single-threaded).
_NATIVE_HEAD_SCRATCH = None


@dataclass(frozen=True)
class Literal:
    """A single uncompressed byte."""

    byte: int

    def __post_init__(self) -> None:
        if not 0 <= self.byte <= 255:
            raise ValueError(f"literal byte out of range: {self.byte}")


@dataclass(frozen=True)
class Match:
    """A back-reference: copy ``length`` bytes from ``distance`` back."""

    length: int
    distance: int

    def __post_init__(self) -> None:
        if not MIN_MATCH <= self.length <= MAX_MATCH:
            raise ValueError(f"match length out of range: {self.length}")
        if self.distance < 1:
            raise ValueError(f"match distance out of range: {self.distance}")


Token = Union[Literal, Match]


def _hash3(data: bytes, i: int) -> int:
    """Hash the 3 bytes at ``data[i:i+3]`` into the chain-table index."""
    key = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)
    return ((key * _HASH_MULT) >> _HASH_SHIFT) & _HASH_MASK


class Lz77Matcher:
    """Greedy/lazy hash-chain matcher with a configurable window.

    ``max_chain`` bounds how many chain entries are probed per position and
    is the usual speed/ratio knob (zlib levels tune the same parameter).
    """

    def __init__(
        self,
        window_size: int = 32 * 1024,
        min_match: int = MIN_MATCH,
        max_match: int = MAX_MATCH,
        max_chain: int = 64,
        lazy: bool = True,
    ) -> None:
        if window_size < 16:
            raise ConfigError(f"window_size too small: {window_size}")
        if not MIN_MATCH <= min_match <= max_match <= MAX_MATCH:
            raise ConfigError(
                f"bad match bounds: min={min_match} max={max_match}"
            )
        self.window_size = window_size
        self.min_match = min_match
        self.max_match = max_match
        self.max_chain = max_chain
        self.lazy = lazy

    def tokenize_packed(self, data: bytes) -> array:
        """Convert ``data`` into a packed LZ77 token stream.

        Runs the native kernel when it is loaded and the scalar walk
        otherwise; both emit the identical token sequence (the
        compressed formats depend on it).
        """
        lib = _native.load()
        if lib is None or not data:
            return self._tokenize_packed_scalar(data)
        global _NATIVE_HEAD_SCRATCH
        if _NATIVE_HEAD_SCRATCH is None:
            _NATIVE_HEAD_SCRATCH = np.empty(1 << _HASH_BITS, dtype=np.int32)
        n = len(data)
        data_np = np.frombuffer(data, dtype=np.uint8)  # keeps `data` alive
        prev = np.empty(n, dtype=np.int32)
        out = np.empty(n, dtype=np.int64)  # every token consumes >= 1 byte
        ntok = lib.lz77_tokenize(
            data_np.ctypes.data,
            n,
            self.window_size,
            self.min_match,
            self.max_match,
            self.max_chain,
            1 if self.lazy else 0,
            _NATIVE_HEAD_SCRATCH.ctypes.data,
            prev.ctypes.data,
            out.ctypes.data,
        )
        tokens = array("q")
        tokens.frombytes(out[:ntok].tobytes())
        return tokens

    def _tokenize_packed_scalar(self, data: bytes) -> array:
        """Scalar reference engine: one fully inlined hash-chain scan."""
        n = len(data)
        tokens = array("q")
        append = tokens.append
        if n == 0:
            return tokens
        min_match = self.min_match
        window_size = self.window_size
        max_match = self.max_match
        max_chain = self.max_chain
        lazy = self.lazy
        lazy_limit = n - min_match - 1  # last pos where lazy defer is legal

        # Build the complete hash chains in one tight rolling-hash pass.
        # The seed tokenizer interleaved insertion with scanning, but it
        # inserted every position 0..n-3 exactly once, in increasing
        # order — so the finished chain structure is the same, and a walk
        # starting at prev[pos] (instead of the head table) visits
        # exactly the candidates the interleaved walk saw when position
        # ``pos`` was scanned: chains only ever point backwards.
        prev = [-1] * n
        if n >= 3:
            head = [-1] * (1 << _HASH_BITS)
            mult = _HASH_MULT
            mask = _HASH_MASK
            key = data[0] | (data[1] << 8)
            for i, byte in enumerate(data[2:]):
                key |= byte << 16
                h = (key * mult >> _HASH_SHIFT) & mask
                prev[i] = head[h]
                head[h] = i
                key >>= 8

        def best_match(
            pos: int,
            # Default-arg binding turns every hot-loop load into a fast
            # local instead of a closure cell dereference.
            data=data,
            prev=prev,
            n=n,
            min_match=min_match,
            max_match=max_match,
            max_chain=max_chain,
            window_size=window_size,
        ) -> int:
            """Packed match token for ``data[pos:]``, or 0 for none."""
            if pos + min_match > n:
                return 0
            candidate = prev[pos]
            floor = pos - window_size
            if floor < 0:
                floor = 0
            if candidate < floor:
                return 0
            best_len = min_match - 1
            best_dist = 0
            max_len = max_match if n - pos > max_match else n - pos
            chain_budget = max_chain
            # Quick-reject target: the byte a candidate must match at
            # offset ``best_len`` to possibly beat the current best.
            # Hoisted out of the loop (it only changes when best_len
            # does); ``pos + best_len < n`` holds because best_len stays
            # strictly below max_len <= n - pos.
            target = data[pos + best_len]
            while candidate >= floor and chain_budget > 0:
                chain_budget -= 1
                # Any candidate mismatching the target byte cannot produce
                # a strictly longer match, so skipping it never changes
                # the selected token.
                if data[candidate + best_len] != target:
                    candidate = prev[candidate]
                    continue
                length = 0
                # Chunked extension: compare 32-byte slices, then settle
                # the tail bytewise. Equivalent to the bytewise loop
                # (bytes are immutable, so overlapping slices are fine).
                while (
                    length + 32 <= max_len
                    and data[candidate + length : candidate + length + 32]
                    == data[pos + length : pos + length + 32]
                ):
                    length += 32
                while (
                    length < max_len
                    and data[candidate + length] == data[pos + length]
                ):
                    length += 1
                if length > best_len:
                    best_len = length
                    best_dist = pos - candidate
                    if length >= max_len:
                        break
                    target = data[pos + best_len]
                candidate = prev[candidate]
            if best_len >= min_match:
                return (best_dist << PACKED_LENGTH_BITS) | best_len
            return 0

        pos = 0
        # Carried lazy result: best_match(pos) already computed by the
        # previous iteration's deferral check against the same chains.
        pending = -1
        # ``prev[pos] < 0`` means best_match must return 0 (no chain to
        # walk) — skip the call entirely in that common case.
        while pos < n:
            if pending >= 0:
                match = pending
                pending = -1
            else:
                match = best_match(pos) if prev[pos] >= 0 else 0
            if match == 0:
                append(data[pos])
                pos += 1
                continue
            if lazy and pos <= lazy_limit:
                # One-step lazy evaluation, as zlib does: if deferring by
                # one byte yields a strictly longer match, emit a literal.
                next_match = (
                    best_match(pos + 1) if prev[pos + 1] >= 0 else 0
                )
                if (
                    next_match != 0
                    and (next_match & PACKED_LENGTH_MASK)
                    > (match & PACKED_LENGTH_MASK)
                ):
                    append(data[pos])
                    pos += 1
                    pending = next_match
                    continue
            append(match)
            pos += match & PACKED_LENGTH_MASK
        return tokens

    def tokenize(self, data: bytes) -> List[Token]:
        """Convert ``data`` into a list of LZ77 tokens.

        Thin adapter over :meth:`tokenize_packed`, kept for tests and any
        consumer that wants the readable object form.
        """
        mask = PACKED_LENGTH_MASK
        return [
            Literal(t)
            if t < 256
            else Match(length=t & mask, distance=t >> PACKED_LENGTH_BITS)
            for t in self.tokenize_packed(data)
        ]


def pack_tokens(tokens: Iterable[Token]) -> array:
    """Convert object tokens to the packed representation."""
    out = array("q")
    for token in tokens:
        if isinstance(token, Literal):
            out.append(token.byte)
        else:
            out.append((token.distance << PACKED_LENGTH_BITS) | token.length)
    return out


def extend_match(out: bytearray, start: int, length: int) -> None:
    """Append ``length`` bytes copied from ``out[start:]`` (may overlap).

    Non-overlapping spans are a single slice copy; overlapping spans
    (distance < length, the RLE case) replicate the periodic seed by
    doubling instead of appending byte-by-byte.
    """
    distance = len(out) - start
    if distance >= length:
        out += out[start : start + length]
        return
    chunk = bytes(out[start:])
    while len(chunk) < length:
        chunk += chunk
    out += chunk[:length]


def detokenize(tokens: Iterable[Token]) -> bytes:
    """Reconstruct the original bytes from an LZ77 token stream."""
    out = bytearray()
    for token in tokens:
        if isinstance(token, Literal):
            out.append(token.byte)
        else:
            start = len(out) - token.distance
            if start < 0:
                raise ValueError(
                    f"match distance {token.distance} exceeds output "
                    f"length {len(out)}"
                )
            extend_match(out, start, token.length)
    return bytes(out)


def detokenize_packed(tokens: Iterable[int]) -> bytes:
    """Reconstruct the original bytes from a packed token stream.

    Literal *runs* are appended in bulk (one slice assignment per run)
    instead of byte-by-byte; matches keep the doubling copy of
    :func:`extend_match`.
    """
    if isinstance(tokens, array) and tokens.typecode == "q":
        return _detokenize_packed_fast(tokens)
    out = bytearray()
    mask = PACKED_LENGTH_MASK
    for token in tokens:
        if token < 256:
            out.append(token)
        else:
            distance = token >> PACKED_LENGTH_BITS
            start = len(out) - distance
            if start < 0:
                raise ValueError(
                    f"match distance {distance} exceeds output "
                    f"length {len(out)}"
                )
            extend_match(out, start, token & mask)
    return bytes(out)


def _detokenize_packed_fast(tokens: array) -> bytes:
    """Bulk detokenizer for packed ``array('q')`` streams.

    Vectorizes the literal fills: consecutive literal tokens become one
    ``bytes`` conversion + slice append, and matches are located up front
    with numpy so the Python loop only runs once per match.
    """
    ntok = len(tokens)
    if ntok == 0:
        return b""
    tok_np = np.frombuffer(tokens, dtype=np.int64)
    match_idx = np.flatnonzero(tok_np >= 256)
    if len(match_idx) == 0:
        return tok_np.astype(np.uint8).tobytes()
    out = bytearray()
    mask = PACKED_LENGTH_MASK
    lit8 = tok_np.astype(np.uint8)  # match slots hold garbage, never read
    cursor = 0
    for mi in match_idx.tolist():
        if mi > cursor:
            out += lit8[cursor:mi].tobytes()
        token = tokens[mi]
        distance = token >> PACKED_LENGTH_BITS
        start = len(out) - distance
        if start < 0:
            raise ValueError(
                f"match distance {distance} exceeds output "
                f"length {len(out)}"
            )
        extend_match(out, start, token & mask)
        cursor = mi + 1
    if cursor < ntok:
        out += lit8[cursor:].tobytes()
    return bytes(out)


def token_stream_cost(tokens: Iterable[Token]) -> int:
    """Total decoded length implied by a token stream, in bytes."""
    total = 0
    for token in tokens:
        total += 1 if isinstance(token, Literal) else token.length
    return total


def token_stream_cost_packed(tokens: Iterable[int]) -> int:
    """Total decoded length implied by a packed token stream, in bytes."""
    total = 0
    mask = PACKED_LENGTH_MASK
    for token in tokens:
        total += 1 if token < 256 else token & mask
    return total
