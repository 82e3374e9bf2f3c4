"""Fleet page content: the GF(2) noise pages equal the scalar xorshift.

``page_for`` builds each noise page as the XOR of one-bit basis pages
(xorshift32 is linear over GF(2)). Every page must be byte-identical to
the scalar per-byte generator it replaced, kept verbatim below.
"""

import random

from repro.fleet.traffic import _noise_page, _xorshift_page, page_for
from repro.sfm.page import PAGE_SIZE


def scalar_page_for(seed: int, key: int) -> bytes:
    """The per-byte xorshift implementation, verbatim (oracle only)."""
    if key % 5 == 4:
        state = ((seed * 1_000_003 + key) * 2654435761 + 1) & 0xFFFFFFFF
        out = bytearray(PAGE_SIZE)
        for i in range(PAGE_SIZE):
            state ^= (state << 13) & 0xFFFFFFFF
            state ^= state >> 17
            state ^= (state << 5) & 0xFFFFFFFF
            out[i] = state & 0xFF
        return bytes(out)
    unit = bytes([(seed + key * 7 + j) % 251 for j in range(64)])
    return (unit * (PAGE_SIZE // len(unit)))[:PAGE_SIZE]


class TestPageFor:
    def test_random_pages_match_scalar_reference(self):
        rng = random.Random(13)
        for _ in range(250):
            seed = rng.randrange(1 << 16)
            noise_key = rng.randrange(1 << 24) * 5 + 4
            for key in (noise_key, rng.randrange(1 << 26)):
                assert page_for(seed, key) == scalar_page_for(seed, key)

    def test_extreme_states(self):
        assert _noise_page(0) == bytes(PAGE_SIZE) == _xorshift_page(0)
        for state in (1, 1 << 31, 0xFFFFFFFF, 0x80000001):
            assert _noise_page(state) == _xorshift_page(state)
