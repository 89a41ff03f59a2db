import numpy as np
import pytest

from chaosclt.errors import ValidationError
from chaosclt.streams import (BLOCK_SIZE, CHUNK_NORMALS, KEY_LIMIT,
                              STREAM_PROTOCOL, block_chisquare,
                              block_generator, block_normals, row_chunks)


def philox_at(seed, stream, counter):
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bg.advance(counter)
    return np.random.Generator(bg)


class TestLayout:
    def test_protocol_version(self):
        assert STREAM_PROTOCOL == 4

    def test_normals_sit_at_the_block_offset(self):
        # substream 0 kept the protocol-1 layout, so every normal stream
        # (paths, chaos samples) is unchanged
        got = block_normals(5, 2, 3, 7, 4)
        want = philox_at(5, 2, 3 << 96).standard_normal((7, 4))
        assert np.array_equal(got, want)

    def test_chisquare_sits_halfway_through_the_block(self):
        got = block_chisquare(5, 2, 3, 6, 9.0)
        want = philox_at(5, 2, (3 << 96) + (1 << 95)).chisquare(9.0, size=6)
        assert np.array_equal(got, want)

    def test_prefix_property(self):
        full = block_chisquare(1, 0, 0, BLOCK_SIZE, 40.0)
        assert np.array_equal(block_chisquare(1, 0, 0, 10, 40.0), full[:10])
        normals = block_normals(1, 0, 0, BLOCK_SIZE, 4)
        assert np.array_equal(block_normals(1, 0, 0, 10, 4), normals[:10])


class TestRowChunks:
    @pytest.mark.parametrize("count", [1, 37, BLOCK_SIZE])
    @pytest.mark.parametrize("width", [1, 4, 600, 8192, CHUNK_NORMALS + 1])
    def test_chunks_cover_the_rows_in_order(self, count, width):
        chunks = list(row_chunks(count, width))
        assert chunks[0][0] == 0 and chunks[-1][1] == count
        assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
        assert all((hi - lo) * width <= max(CHUNK_NORMALS, width)
                   for lo, hi in chunks)
        # every chunk but the last is as large as the constant allows
        full = max(1, CHUNK_NORMALS // width)
        assert all(hi - lo == full for lo, hi in chunks[:-1])

    @pytest.mark.parametrize("width", [3, 600, 8192])
    def test_chunks_from_one_generator_are_one_whole_draw(self, width):
        count = BLOCK_SIZE - 5
        whole = block_normals(7, 2, 4, count, width)
        generator = block_generator(7, 2, 4)
        chunks = [block_normals(7, 2, 4, hi - lo, width, generator)
                  for lo, hi in row_chunks(count, width)]
        assert len(chunks) > 1 or width == 3
        assert np.array_equal(np.concatenate(chunks), whole)


class TestKeyRange:
    def test_largest_key_accepted(self):
        block_generator(KEY_LIMIT - 1, KEY_LIMIT - 1, 0)

    @pytest.mark.parametrize("seed, stream", [(KEY_LIMIT + 1, 0),
                                              (KEY_LIMIT, 0),
                                              (1, KEY_LIMIT + 1)])
    def test_keys_beyond_64_bits_rejected(self, seed, stream):
        # before the check, seed 2**64 + 1 silently reproduced seed 1
        with pytest.raises(ValidationError, match="2\\*\\*64"):
            block_generator(seed, stream, 0)

    def test_negative_and_bad_substream_rejected(self):
        with pytest.raises(ValidationError):
            block_generator(-1, 0, 0)
        with pytest.raises(ValidationError, match="substream"):
            block_generator(0, 0, 0, substream=2)
