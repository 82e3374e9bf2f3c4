"""Two-queue Huffman code lengths vs the heap build they replaced.

``code_lengths_from_frequencies`` builds its tree with two FIFO queues
(sorted leaves, merged nodes in creation order, the leaf winning weight
ties). That is the same tree a heap keyed by ``(weight, creation
order)`` builds, so every length — and therefore every encoded byte —
must match the heap implementation kept verbatim below as the oracle.
"""

import heapq
import random
from typing import Dict, List, Sequence

import pytest

from repro.compression.huffman import (
    MAX_CODE_LENGTH,
    code_lengths_from_frequencies,
)
from repro.errors import ConfigError


def heap_code_lengths(
    frequencies: Sequence[int], max_length: int = MAX_CODE_LENGTH
) -> List[int]:
    """The heap-built implementation, verbatim (oracle only)."""
    if max_length < 1:
        raise ConfigError(f"max_length must be >= 1, got {max_length}")
    n = len(frequencies)
    used = [s for s in range(n) if frequencies[s] > 0]
    lengths = [0] * n
    if not used:
        return lengths
    if len(used) == 1:
        # A single-symbol alphabet still needs a 1-bit code so the decoder
        # can consume something.
        lengths[used[0]] = 1
        return lengths

    # Heap items: (weight, tiebreak, [symbols...depth bookkeeping]).
    heap: List = []
    depths = [0] * n
    groups: Dict[int, List[int]] = {}
    tiebreak = 0
    for s in used:
        groups[tiebreak] = [s]
        heapq.heappush(heap, (frequencies[s], tiebreak))
        tiebreak += 1
    while len(heap) > 1:
        w1, g1 = heapq.heappop(heap)
        w2, g2 = heapq.heappop(heap)
        merged = groups.pop(g1) + groups.pop(g2)
        for s in merged:
            depths[s] += 1
        groups[tiebreak] = merged
        heapq.heappush(heap, (w1 + w2, tiebreak))
        tiebreak += 1

    for s in used:
        lengths[s] = min(depths[s], max_length)

    # Repair Kraft sum if clamping overflowed it.
    kraft = sum(1 << (max_length - lengths[s]) for s in used)
    budget = 1 << max_length
    if kraft > budget:
        # Lengthen the shortest codes (cheapest in bits-lost) until valid.
        order = sorted(used, key=lambda s: (lengths[s], -frequencies[s]))
        idx = 0
        while kraft > budget:
            s = order[idx % len(order)]
            if lengths[s] < max_length:
                kraft -= 1 << (max_length - lengths[s])
                lengths[s] += 1
                kraft += 1 << (max_length - lengths[s])
            idx += 1
    return lengths


def _fibonacci(count: int) -> List[int]:
    weights = [1, 1]
    while len(weights) < count:
        weights.append(weights[-1] + weights[-2])
    return weights[:count]


def _random_vector(rng: random.Random, size: int) -> List[int]:
    """Heavy ties: weights from a tiny range, ~40% of symbols unused."""
    top = rng.choice([1, 2, 3, 8, 1000])
    return [
        rng.randint(1, top) if rng.random() < 0.6 else 0 for _ in range(size)
    ]


def _assert_same(frequencies, max_length=MAX_CODE_LENGTH):
    expected = heap_code_lengths(frequencies, max_length)
    assert code_lengths_from_frequencies(frequencies, max_length) == expected
    assert (
        code_lengths_from_frequencies(tuple(frequencies), max_length)
        == expected
    )


class TestMatchesHeapBuild:
    @pytest.mark.parametrize("size", [2, 19, 30, 256, 286])
    def test_randomized_vectors_with_ties(self, size):
        rng = random.Random(size)
        for _ in range(300):
            frequencies = _random_vector(rng, size)
            used = sum(1 for f in frequencies if f)
            for max_length in (5, 7, 15):
                if used <= 1 << max_length:
                    _assert_same(frequencies, max_length)

    @pytest.mark.parametrize("size", [2, 19, 286])
    def test_single_used_symbol(self, size):
        for symbol in (0, size - 1, size // 2):
            frequencies = [0] * size
            frequencies[symbol] = 9
            _assert_same(frequencies)
            assert code_lengths_from_frequencies(frequencies)[symbol] == 1

    def test_all_zero(self):
        _assert_same([0] * 30)

    @pytest.mark.parametrize("max_length", [7, 15])
    def test_fibonacci_weights_force_clamping(self, max_length):
        for count in (max_length + 2, 19, 30, 40):
            frequencies = _fibonacci(count)
            # Unclamped, the deepest leaf sits at count - 1 > max_length.
            assert max(heap_code_lengths(frequencies, 64)) > max_length
            _assert_same(frequencies, max_length)
            shuffled = list(frequencies)
            random.Random(count).shuffle(shuffled)
            _assert_same(shuffled, max_length)

    def test_equal_weights_fill_the_budget_exactly(self):
        for max_length in (5, 7):
            _assert_same([1] * (1 << max_length), max_length)


class TestOversubscribedAlphabet:
    def test_more_symbols_than_codes_raises(self):
        # 33 used symbols cannot all get distinct codes of <= 5 bits;
        # without the up-front check the Kraft repair cycles forever.
        with pytest.raises(ConfigError):
            code_lengths_from_frequencies([1] * 33, max_length=5)

    def test_zero_frequencies_do_not_count(self):
        lengths = code_lengths_from_frequencies([1] * 32 + [0] * 8, 5)
        assert lengths == [5] * 32 + [0] * 8
