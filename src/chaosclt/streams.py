"""Seeded random streams with block-granular replica indexing.

Every Monte Carlo routine in this package draws replica r from the
generator of block r // BLOCK_SIZE of a stream keyed by (seed, stream);
inside a block, replica r owns row r % BLOCK_SIZE of a single vectorized
draw.  Two consequences:

* runs are bit-reproducible for a fixed (seed, stream), and
* parallel workers that process whole blocks produce output identical to
  a serial run, because no generator is ever shared across blocks.
  run_blocks hands the blocks to at most `threads` workers from one shared
  queue, so the thread count never changes an output.  The calling thread
  is one of those workers: w workers start w - 1 threads, and a single
  worker starts none.

A `threads` setting is a cap, not a demand.  A sampler that has one asks
block_threads(threads, variates_per_replica) how many workers to use: one,
the calling thread alone, when a full block holds fewer than
MIN_POOL_VARIATES variates, else `threads` capped at the CPUs this process
may use.  Below that size the GIL-held part of a block's work (seeding
its generators, a few small ufunc calls) is so large a share that a
second worker adds mostly the hand-over of the GIL.  Measured on a
2-vCPU x86-64 box (numpy 2.4, M = 16384, 16 blocks, the two worker counts
alternating op by op, 100 ops each, two to six rounds; sample_batch on a
dense I2 of dim w), the median op time on two workers, the calling
thread and one started thread, over that on the calling thread alone:

    caller              variates per replica   2 workers / 1 worker
    sample_ratio_batch     5                   1.22 .. 1.42
    sample_batch           2                   1.71 .. 1.71
    sample_batch           4                   1.01 .. 1.30
    sample_batch           8                   0.76 .. 1.03
    sample_batch          12                   0.71 .. 0.81
    sample_batch          16                   0.63 .. 0.87
    sample_batch          64                   0.56 .. 0.71
    sample_paths (n = 2)   4                   1.08 .. 1.25
    sample_paths (n = 4)   8                   0.84 .. 1.15
    sample_paths (n = 6)  12                   0.74 .. 1.01
    sample_paths (n = 8)  16                   0.68 .. 0.78
    sample_paths (n = 64) 128                  0.54 .. 0.68

so the crossover lies near 8 variates a replica, and a second worker
starts from 16 (2**14 in a block of BLOCK_SIZE rows) on, where it paid in
every round.  The ratio sampler, at 5, has no threads setting and runs on
the calling thread.

Layout of stream protocol 7 (STREAM_PROTOCOL).  seed, stream and block
are integers in [0, 2**64).  Substream s (0 or 1) of block b is an SFC64
generator seeded by numpy's SeedSequence from the entropy (seed, stream,
b, s), each value written as two little-endian 32-bit words
(block_generator):

* substream 0 holds the block's standard normals (block_normals), drawn
  row-major as one (count, width) matrix;
* substream 1 holds the block's auxiliary variates (block_chisquare), one
  per row.

Distinct keys give distinct entropy, and SeedSequence hashes it into
SFC64 states that are independent for all practical purposes; that
hashing, not a partition of one counter range, is what keeps blocks and
substreams apart.  Protocols 1 to 4 drew from one Philox stream keyed by
(seed, stream), block b at counter b * 2**96 and its substream 1 at
b * 2**96 + 2**95; protocol 5 changed every seeded Monte Carlo output,
for SFC64's faster normals (about 1.4 times Philox's rate with numpy 2.4
on one core of a 2-vCPU x86-64 box).

Each substream is consumed in row order, so the first k rows of a block
are the same whatever its row count, and the two substreams are separate
generators, so the normals do not depend on how many uniforms the
auxiliary draws consume.  For the same reason a block may be drawn in
several row chunks from its one generator (block_generator, then
block_normals with that generator, chunk after chunk in row order): the
chunks hold the bits of one whole-block draw.  The circulant path sampler
(stationary.PathSampler.sample_chunks) draws, transforms and reduces a
block in chunks of at most CHUNK_NORMALS normals (row_chunks), so a
worker holds a few MiB whatever the path length; chaos.sample_batch draws
and evaluates every sum the same way.  Both draw each chunk with
block_normals(..., out=) straight into a work array, which gives the bits
of the allocating draw: the sampler's one work array, which holds a
chunk's spectra and then its paths, lives for the whole block, and
sample_batch allocates one chunk array per worker on the calling thread,
once per call, and lends it to one block at a time.
Chunking is not part of the protocol and changes no output: each row
is computed on its own (an FFT of a pair of rows, a row-wise einsum) or
in a BLAS product of one fixed shape, as BLAS rounding can depend on the
shape (sample_batch evaluates its whole work array).  Protocol 1 had
substream 0 only; protocol 2 added substream 1 for the ratio family's
chi-square draws, so seeded ratio outputs differ between the two while
every other stream is unchanged.

What each experiment keys its streams by: the ratio sweep reads stream
i for the i-th lambda grid point.  The rates experiment reads stream 0
for its whole n grid: replica r draws one path of length max(n_grid) and
every grid point n reads its first n entries.  Protocol 2 read stream i
for the i-th n, with an independent path per grid point, so protocol 3
changed every seeded rates output and nothing else.  chaos.sample_batch
reads stream `stream` (default 0), one row of F.dim normals per replica:
as the Gaussian vector itself, or, when F is I1 + I2 or I2 with its
order-2 kernel in eigen-form (every dense order-2 kernel), as the
coordinates of that vector in the kernel's eigenbasis.  Protocol 3 read
every row as the Gaussian vector, so protocol 4 changed the seeded
sample_batch outputs of eigen-form sums and nothing else.  Protocol 5
also evaluates eigen-form sums row by row, so their replicas no longer
depend on a block's row count.

Protocol 6 changed how the circulant path sampler reads its normals
(stationary.PathSampler.transform), and only that: rows 2j and 2j+1 of a
block are one pair, read as 2n complex numbers, and one complex FFT of
them gives replica 2j as its real part and replica 2j+1 as its imaginary
part.  Protocol 5 made one path per row by a real inverse FFT of a
Hermitian half-spectrum, so every seeded rates and sample_paths output
changed, while the ratio family, sample_batch and the dense sampler route
kept their bits.  Rows are drawn, transformed and chunked in pairs
(row_chunks over pairs of rows); a block with an odd row count draws the
partner of its last row and drops that path, so no replica depends on
the replica count, the chunking or the thread count.

Protocol 7 changed chaos.sample_batch on sums outside the eigen-form,
and only that: their blocks are chunked too, each chunk evaluated at the
work array's fixed shape.  Protocol 6 evaluated such a block whole, so a
replica's bits changed with M; those outputs moved by rounding.  The
eigen-form is now picked by construction alone (orthonormal_terms, true
only for the eigen-form that chaos.as_rank_one builds of a dense order-2
kernel), so a rank-one sum with an identity Gram in value left it.

BLOCK_SIZE is a fixed protocol constant; changing it changes every stream.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import ValidationError, checked_integer

STREAM_PROTOCOL = 7

BLOCK_SIZE = 1024

# Most normals in one row chunk of a block: 1 MiB of float64.  Not part of
# the stream protocol; smaller chunks stay in cache but pay more per-call
# overhead, larger ones raise the working set.
CHUNK_NORMALS = 1 << 17

# Fewest variates in a full block for which run_blocks gets more than one
# worker (block_threads): 16 a replica at BLOCK_SIZE 1024.  Not part of the
# stream protocol; the module docstring has the crossover it comes from.
MIN_POOL_VARIATES = 1 << 14

# seed and stream each fill one 64-bit slot of the SeedSequence entropy
KEY_LIMIT = 1 << 64


def _key(value, name: str) -> int:
    """value as one 64-bit key word, else a ValidationError naming it.

    An exact int in range passes as it is; anything else goes through
    checked_integer, so 1.5, True and NaN are rejected rather than cast to
    another stream's key, and an integral float such as 3.0 is 3.
    """
    if type(value) is int and 0 <= value < KEY_LIMIT:
        return value
    value = checked_integer(value, name, 0)
    if value >= KEY_LIMIT:
        raise ValidationError(f"{name} must be below 2**64, got {value}")
    return value


def block_generator(seed: int, stream: int, block: int,
                    substream: int = 0) -> np.random.Generator:
    """Generator for one substream (0 or 1) of one replica block of the
    (seed, stream) stream: SFC64 seeded by SeedSequence hashing of
    (seed, stream, block, substream), each as two 32-bit words.

    seed, stream and block must be integers in [0, 2**64); an integral
    float counts as its integer, and anything else raises a
    ValidationError (_key).
    """
    seed, stream, block = (_key(seed, "seed"), _key(stream, "stream"),
                           _key(block, "block"))
    if substream not in (0, 1):
        raise ValidationError(f"substream must be 0 or 1, got {substream}")
    # fixed-width words: numpy splits a Python int of 2**32 or more into
    # several words, so plain [seed, stream, ...] entropy would give e.g.
    # (2**32, 5) and (0, 5 * 2**32 + 1) the same words and the same stream
    words = np.array([seed, stream, block, substream], dtype="<u8").view("<u4")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


def block_normals(seed: int, stream: int, block: int, count: int,
                  width: int,
                  generator: np.random.Generator | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Draw a (count, width) standard normal matrix for one block.

    Row i is replica block * BLOCK_SIZE + i.  The first k rows are
    identical no matter how many rows are requested, so partial blocks
    are consistent with full ones.

    generator, if given, must be block_generator(seed, stream, block); the
    draw continues where its previous one stopped, so the rows come after
    those already drawn (a row chunk of the block, see row_chunks).

    out, if given, must be a writable C-contiguous float64 array of shape
    (count, width); the draw fills it, with the bits of the allocating
    draw, and returns it.
    """
    if generator is None:
        generator = block_generator(seed, stream, block)
    if out is None:
        return generator.standard_normal((count, width))
    if not (isinstance(out, np.ndarray) and out.shape == (count, width)
            and out.dtype == np.float64 and out.flags.c_contiguous
            and out.flags.writeable):
        raise ValidationError(
            f"out must be a writable C-contiguous float64 array of shape "
            f"{(count, width)}")
    return generator.standard_normal(out=out)


def row_chunks(count: int, width: int):
    """Yield (lo, hi) row ranges covering 0..count in order, each holding
    at most CHUNK_NORMALS normals of the given row width (one row if a
    single row is wider)."""
    rows = max(1, CHUNK_NORMALS // width)
    for lo in range(0, count, rows):
        yield lo, min(lo + rows, count)


def block_chisquare(seed: int, stream: int, block: int, count: int,
                    df: float) -> np.ndarray:
    """Draw count chi-square(df) variates for one block, df > 0.

    They come from the block's auxiliary substream, so they are independent
    of block_normals for the same block; entry i belongs to replica
    block * BLOCK_SIZE + i, and the first k entries do not depend on count.
    """
    return block_generator(seed, stream, block, substream=1).chisquare(
        df, size=count)


def replica_blocks(n_replicas: int):
    """Yield (block_index, start, count) triples covering 0..n_replicas."""
    block = 0
    start = 0
    while start < n_replicas:
        count = min(BLOCK_SIZE, n_replicas - start)
        yield block, start, count
        block += 1
        start += count


def block_threads(threads: int, variates_per_replica: int) -> int:
    """Workers for run_blocks over blocks of variates_per_replica variates
    a replica, given the cap `threads`.

    1 when a full block holds fewer than MIN_POOL_VARIATES variates: its
    blocks are too short to pay for a second thread, and run on the
    calling thread.  Otherwise threads, capped at the CPUs this process may
    use (os.sched_getaffinity where it exists, else os.cpu_count), so a large
    setting never starts more threads than can run at once.  threads must
    be an integer >= 1, else a ValidationError is raised.
    """
    threads = checked_integer(threads, "threads", 1)
    if BLOCK_SIZE * variates_per_replica < MIN_POOL_VARIATES:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(threads, cpus)


def run_blocks(n_replicas: int, worker, threads: int = 1) -> None:
    """Apply worker(block, start, count) once to every replica block.

    worker must write results into preassigned slots (e.g.
    out[start:start+count]).  threads is a cap: the blocks go to at most
    min(threads, blocks) workers from one shared queue.  The calling
    thread is always one of them: one worker runs every block there and
    starts no thread; w workers start w - 1 threads (_drain_on_threads)
    and each of the w takes the next block until none is left.  Samplers
    pass block_threads(threads, variates_per_replica), which is 1 for
    blocks too small to pay for a second thread and never more than the
    usable CPUs.  Which thread runs a block never changes an output,
    because each block owns a disjoint stream and disjoint output rows.

    An exception raised by worker propagates on the calling thread.  Once
    a block has raised, no worker starts another; the blocks already
    running on other threads finish first, and the first exception raised
    is the one re-raised.
    """
    blocks = list(replica_blocks(n_replicas))
    workers = min(threads, len(blocks))
    if workers <= 1:
        for block, start, count in blocks:
            worker(block, start, count)
        return
    # a list iterator, not a generator: two threads may call next on it at
    # once, which a generator refuses ("generator already executing")
    queue = iter(blocks)
    errors = []

    def drain():
        for block, start, count in queue:
            if errors:
                return
            try:
                worker(block, start, count)
            except BaseException as exc:
                errors.append(exc)
                return

    _drain_on_threads(workers, drain)
    if errors:
        raise errors[0]


def _drain_on_threads(workers: int, drain) -> None:
    """Run drain, which raises nothing, on workers - 1 new threads and on
    the calling thread at once, and return when every one has returned."""
    started = [threading.Thread(target=drain) for _ in range(workers - 1)]
    for thread in started:
        thread.start()
    drain()
    for thread in started:
        thread.join()
