import ast
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import chaosclt
from chaosclt import chaos, experiments, ratio, streams
from chaosclt.errors import ValidationError
from chaosclt.kernels import DenseKernel
from chaosclt.stationary import CovarianceFunction, sample_paths
from chaosclt.streams import (BLOCK_SIZE, CHUNK_NORMALS, KEY_LIMIT,
                              STREAM_PROTOCOL, block_chisquare,
                              block_generator, block_normals, block_threads,
                              replica_blocks, row_chunks, run_blocks)


def sfc64_at(seed, stream, block, substream):
    words = np.array([seed, stream, block, substream],
                     dtype="<u8").view("<u4")
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(words)))


# First normals and chi-square(3) draws of block_normals(*key, 1, 3) and
# block_chisquare(*key, 2, 3.0), recorded with numpy 2.4.  A numpy upgrade
# that changes SeedSequence, SFC64 or its normal or chi-square samplers
# changes every seeded output and fails here.
FROZEN_DRAWS = [
    ((0, 0, 0),
     [-0.6739084659445024, 0.6576525606487069, -0.371815860727009],
     [1.0091654077769185, 2.7517531011100984]),
    ((20260809, 1, 3),
     [1.0661554642693098, 0.9427626640350247, 0.9576702127386484],
     [1.62930453410668, 2.325332256706993]),
    ((KEY_LIMIT - 1, KEY_LIMIT - 1, 0),
     [-1.2842735968155186, -1.2393498620522123, 0.5986485600281772],
     [6.660570334999702, 6.633761485357633]),
]


class TestLayout:
    def test_protocol_version(self):
        assert STREAM_PROTOCOL == 7

    def test_normals_come_from_substream_0(self):
        got = block_normals(5, 2, 3, 7, 4)
        want = sfc64_at(5, 2, 3, 0).standard_normal((7, 4))
        assert np.array_equal(got, want)

    def test_chisquare_comes_from_substream_1(self):
        got = block_chisquare(5, 2, 3, 6, 9.0)
        want = sfc64_at(5, 2, 3, 1).chisquare(9.0, size=6)
        assert np.array_equal(got, want)

    def test_prefix_property(self):
        full = block_chisquare(1, 0, 0, BLOCK_SIZE, 40.0)
        assert np.array_equal(block_chisquare(1, 0, 0, 10, 40.0), full[:10])
        normals = block_normals(1, 0, 0, BLOCK_SIZE, 4)
        assert np.array_equal(block_normals(1, 0, 0, 10, 4), normals[:10])

    @pytest.mark.parametrize("key, normals, chisquare", FROZEN_DRAWS)
    def test_first_draws_are_frozen(self, key, normals, chisquare):
        assert block_normals(*key, 1, 3)[0].tolist() == normals
        assert block_chisquare(*key, 2, 3.0).tolist() == chisquare

    def test_keys_that_share_entropy_words_as_ints_differ(self):
        # SeedSequence([2**32, 5, 0, 0]) equals SeedSequence([0,
        # 5 * 2**32 + 1, 0, 0]): numpy writes each int in as many 32-bit
        # words as it needs, so the key is written in fixed-width words
        a = block_normals(1 << 32, 5, 0, 1, 4)
        b = block_normals(0, 5 * (1 << 32) + 1, 0, 1, 4)
        assert not np.array_equal(a, b)


# every numpy BitGenerator class, and the SeedSequence that seeds them
_GENERATOR_NAMES = {
    name for name, obj in vars(np.random).items()
    if isinstance(obj, type) and issubclass(obj, np.random.BitGenerator)
} | {"SeedSequence"}


def test_only_streams_names_bit_generators():
    # one owner of the stream protocol: every other module draws through
    # chaosclt.streams
    offenders = []
    for path in sorted(Path(chaosclt.__file__).parent.glob("*.py")):
        if path.name == "streams.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            offenders += [f"{path.name}:{node.lineno} {name}"
                          for name in names if name in _GENERATOR_NAMES]
    assert "Philox" in _GENERATOR_NAMES and "SFC64" in _GENERATOR_NAMES
    assert not offenders


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


class TestBlockNormalsOut:
    def test_draw_into_out_is_the_allocating_draw(self):
        out = np.full((37, 5), np.nan)
        got = block_normals(5, 2, 3, 37, 5, out=out)
        assert got is out
        assert np.array_equal(out, block_normals(5, 2, 3, 37, 5))

    @pytest.mark.parametrize("width", [3, 600, 8192])
    def test_chunks_into_one_buffer_are_one_whole_draw(self, width):
        count = BLOCK_SIZE - 5
        whole = block_normals(7, 2, 4, count, width)
        chunks = list(row_chunks(count, width))
        generator = block_generator(7, 2, 4)
        buffer = np.empty((chunks[0][1], width))
        got = np.empty((count, width))
        for lo, hi in chunks:
            got[lo:hi] = block_normals(7, 2, 4, hi - lo, width, generator,
                                       out=buffer[:hi - lo])
        assert np.array_equal(got, whole)

    @pytest.mark.parametrize("out", [
        np.empty((4, 6)),                        # wrong shape
        np.empty((4, 6)).T,                      # right shape, not C order
        np.empty((6, 8))[:, :4],                 # a strided view
        np.empty((6, 4), dtype=np.float32),
        np.empty(24)])
    def test_bad_out_is_rejected_naming_the_shape(self, out):
        if out.shape == (6, 4) and out.dtype == np.float64:
            assert not out.flags.c_contiguous
        with pytest.raises(ValidationError, match=r"shape \(6, 4\)"):
            block_normals(1, 0, 0, 6, 4, out=out)

    def test_read_only_out_is_rejected(self):
        out = np.empty((6, 4))
        out.flags.writeable = False
        with pytest.raises(ValidationError, match=r"writable"):
            block_normals(1, 0, 0, 6, 4, out=out)


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


class TestRunBlocks:
    @staticmethod
    def record(n_replicas, threads):
        """The (block, start, count) triples run_blocks ran, in the order
        they started, with the thread that ran each."""
        runs = []

        def worker(block, start, count):
            runs.append(((block, start, count), threading.get_ident()))

        run_blocks(n_replicas, worker, threads)
        return runs

    @pytest.mark.parametrize("n_replicas", [1, BLOCK_SIZE, BLOCK_SIZE + 1,
                                            5 * BLOCK_SIZE + 37])
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_every_block_runs_exactly_once(self, n_replicas, threads):
        blocks = sorted(b for b, _ in self.record(n_replicas, threads))
        assert blocks == list(replica_blocks(n_replicas))

    def test_shared_queue_under_frequent_thread_switches(self):
        # more workers than cores, switching every microsecond: a block
        # lost or handed out twice by the shared queue shows as a count,
        # and a queue that two threads cannot read at once raises (a
        # generator did in most runs of this size)
        n_replicas = 20000 * BLOCK_SIZE
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [self.record(n_replicas, 8) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for run in runs:
            assert sorted(b for b, _ in run) == list(
                replica_blocks(n_replicas))

    def test_fewer_blocks_than_threads(self):
        runs = self.record(BLOCK_SIZE + 1, 8)
        assert len(runs) == 2
        assert len({thread for _, thread in runs}) <= 2

    @pytest.mark.parametrize("threads", [1, 8])
    def test_one_block_runs_on_the_calling_thread(self, threads):
        assert self.record(BLOCK_SIZE, threads) == [
            ((0, 0, BLOCK_SIZE), threading.get_ident())]

    def test_no_replicas_runs_nothing(self):
        assert self.record(0, 2) == []

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_worker_exception_propagates(self, threads):
        def worker(block, start, count):
            if block == 3:
                raise RuntimeError("block 3 failed")

        with pytest.raises(RuntimeError, match="block 3 failed"):
            run_blocks(5 * BLOCK_SIZE, worker, threads)


class PoolRefused(Exception):
    pass


@pytest.fixture
def pool_requests(monkeypatch):
    """max_workers of every thread pool run_blocks asks for; each request
    raises PoolRefused, so no pool thread ever starts."""
    requests = []

    def refuse(max_workers):
        requests.append(max_workers)
        raise PoolRefused

    monkeypatch.setattr(streams, "ThreadPoolExecutor", refuse)
    return requests


@pytest.fixture
def four_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)


class TestBlockThreads:
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_boundary(self, four_cpus, threads):
        assert block_threads(threads, 15) == 1
        assert block_threads(threads, 16) == min(threads, 4)

    def test_capped_at_the_usable_cpus(self):
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        assert block_threads(100000, 64) == cpus
        assert block_threads(1, 64) == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert block_threads(100000, 64) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert block_threads(100000, 64) == 1

    @pytest.mark.parametrize("threads", [0, -3, True, 2.5, "2"])
    def test_samplers_reject_a_bad_thread_count(self, threads):
        # checked before the small-block shortcut, so the 4-variate
        # replicas below, which never get a pool, reject it too
        F = chaos.ChaosSum({1: DenseKernel(np.ones(4))})
        with pytest.raises(ValidationError, match="threads"):
            chaos.sample_batch(F, 10, seed=1, threads=threads)
        with pytest.raises(ValidationError, match="threads"):
            sample_paths(CovarianceFunction.fgn(0.7), 4, 10, seed=1,
                         threads=threads)

    def test_lent_work_arrays_with_more_workers_than_cores(self, four_cpus):
        # four pool threads share sample_batch's queue of work arrays on
        # any box, switching as often as the interpreter allows; two blocks
        # drawing into one array at once would change some replica
        F = chaos.ChaosSum({2: DenseKernel(np.diag(np.arange(1.0, 17.0)))})
        M = 16 * BLOCK_SIZE + 5
        want = chaos.sample_batch(F, M, seed=4, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = chaos.sample_batch(F, M, seed=4, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    def test_huge_threads_asks_for_one_pool_thread_per_cpu(
            self, four_cpus, pool_requests):
        F = chaos.ChaosSum({1: DenseKernel(np.ones(16))})
        with pytest.raises(PoolRefused):
            chaos.sample_batch(F, 64 * BLOCK_SIZE, seed=1, threads=100000)
        assert pool_requests == [4]

    def test_sample_ratio_batch_starts_no_pool(self, four_cpus,
                                               pool_requests):
        fam = ratio.RatioFamily(lam=100.0, rho_const=1.0, sigma1=1.0,
                                sigma2=1.0)
        M = 3 * BLOCK_SIZE + 5
        ratio.sample_ratio_batch(fam, M, seed=8, stream=2)
        assert pool_requests == []

    def test_run_ratio_starts_no_pool(self, four_cpus, pool_requests):
        config = dict(lambda_grid=[10.0, 1000.0],
                      replicas=2 * BLOCK_SIZE + 3, seed=13)
        a = experiments.run_ratio(experiments.RatioConfig(**config))
        b = experiments.run_ratio(experiments.RatioConfig(**config,
                                                          threads=3))
        assert pool_requests == []
        assert a.to_csv_string() == b.to_csv_string()

    def test_wide_sample_batch_asks_for_two_workers(self, four_cpus,
                                                    pool_requests):
        F = chaos.ChaosSum({1: DenseKernel(np.ones(600))})
        with pytest.raises(PoolRefused):
            chaos.sample_batch(F, BLOCK_SIZE + 1, seed=1, threads=2)
        assert pool_requests == [2]

    def test_long_sample_paths_asks_for_two_workers(self, four_cpus,
                                                    pool_requests):
        with pytest.raises(PoolRefused):
            sample_paths(CovarianceFunction.fgn(0.7), 4096, BLOCK_SIZE + 1,
                         seed=1, threads=2)
        assert pool_requests == [2]
