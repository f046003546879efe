"""Batched functional-graph kernels over (rows, n) arrays of 1-based images.

Row r of ``images`` is one mapping [n] -> [n] (or one parent array, the
root self-parented).  Each kernel answers one question for every row at
once, in numpy, and is cross-checked in the tests against the scalar
per-value functions in ``core``, ``runs`` and ``bijections``.  Entries
must lie in [1, n]: callers generate them, and the kernels do not check
them.  The bijections return labels in the input's dtype, so a caller
may pass the narrowest unsigned type that holds n.

``_climb`` is the one pointer-doubling walk, and each cycle is known by
its largest label.  ``cycles`` counts those cycle maxima, for the suffix
and contracted-prefix tables of the brute-force oracle; the batched tree
bijection relinks them and finds ancestor maxima.  ``mapping_to_tree``
and ``tree_to_mapping`` are the tree bijection of ``bijections``;
``run_starts`` is the run-start predicate of ``runs``;
``encode_partition`` is the run-partition bijection, a partition given as
each label's block index, and ``partition_tables``, which depends on the
block indices alone, then ``decode_links`` is its inverse, so
``verify-all`` decodes a block's two link arrays through one set of
tables.  Its serial block checks over the 352 blocks of [7]^7 take
about 0.86-0.90 s on a 2-core box (best of 5), and under cProfile
about 1.0 s: 0.24 s in the two ``encode_partition`` calls, 0.17 s in
the decode (0.09 s of tables, 0.07 s of links), 0.14 s in
``mapping_to_tree``, 0.14 s in ``tree_to_mapping`` and 0.12 s in
``cycles``.
``run_counts`` scatters in row blocks of at most ``_BLOCK_CELLS`` cells,
so its temporaries stay in cache and its memory does not grow with the
rows; ``block_rows`` is that rule, and the Monte Carlo sampler draws by
it too.  ``pooled_sum`` spreads such batched work over worker processes
(the oracle's prefix ranges, the Monte Carlo chunks and ``verify-all``'s
array blocks), and ``pool_size`` says how many it starts.  ``block_runs``
is the one job cut, one run of whole blocks per process, for
``mc --trees`` chunks, ``verify-all``'s arrays and the oracle's
prefixes; ``product_rows`` is the one enumeration of [n]^k, so a job is
a row range and builds its own rows.

The brute-force oracle's array engine lives here too: ``_tally_blocks``
tallies every array with a range of prefixes through the tables of
``_suffix_tables``, and ``exact.brute_force_tables`` cuts the prefixes
into its jobs.  Each cell's class fits one byte, so ``_tally_blocks``
bincounts a block's cells two at a time, as the uint16 a + 256 b of two
neighbours, and once per job folds the pair slots back by adding both
cells of each pair; the fold treats the two bytes alike, so byte order
does not matter.  The short-axis reductions of the suffix tables are
row products or column loops, as in ``any_per_row``.  The oracle counts
runs with ``np.bitwise_count``, new in numpy 2.0, so the package needs
numpy 2.0 or later.  This module and ``montecarlo`` are the only ones
that import numpy (and this one ``multiprocessing``) when they load;
every other module loads them on first use, so commands that draw or
scan no array start without them.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from typing import NamedTuple

import numpy as np

_BLOCK_CELLS = 1 << 16  # cells per block_rows block: an int64 block is 512 KiB
# The brute-force oracle's suffix is the last 4 entries: each job tabulates its n^4
# values, 2,401 at n = 7, and the prefixes before it are dealt to the jobs.
_FREE_ENTRIES = 4


def pool_size(workers: int, jobs: int) -> int:
    """Processes a pool of ``workers`` starts for ``jobs`` jobs: at most the jobs and the CPUs."""
    return max(1, min(workers, jobs, os.cpu_count() or 1))


def pooled_sum(func, jobs: list[tuple], workers: int):
    """sum(func(*job) for job in jobs), on ``pool_size(workers, len(jobs))`` processes.

    A pool uses the platform's default start method, so ``func`` must be
    a module-level function that any start method can pickle.
    """
    processes = pool_size(workers, len(jobs))
    if processes == 1:
        return sum(func(*job) for job in jobs)
    with multiprocessing.Pool(processes) as pool:
        return sum(pool.starmap(func, jobs))


def block_runs(rows: int, step: int, workers: int) -> list[tuple[int, int]]:
    """Rows [0, rows) as one contiguous run of whole ``step``-row blocks per process.

    ``pool_size(workers, blocks)`` runs; the cuts fall on block boundaries,
    so the runs hold the blocks of one pass over all the rows.
    """
    blocks = -(-rows // step)
    parts = pool_size(workers, blocks)
    cuts = [min(rows, blocks * j // parts * step) for j in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def product_rows(n: int, k: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo, ..., hi - 1 of [n]^k in ``itertools.product`` order, as intp: r in base n, plus 1."""
    return np.arange(lo, hi, dtype=np.intp)[:, None] // n ** np.arange(k - 1, -1, -1) % n + 1


def _smaller_preimage_marks(block: np.ndarray) -> np.ndarray:
    """(k, n) bool: [r, j - 1] is True when some column i < j of row r maps to j.

    One flat scatter: cell (r, i) with image j > i marks flat index
    r (n + 1) + j of a zeroed bool array of shape (k, n + 1), and every
    non-ascent marks flat index 0, which is row 0's column 0 and is
    dropped with the rest of column 0.
    """
    k, n = block.shape
    idx = block + np.arange(0, k * (n + 1), n + 1)[:, None]
    np.multiply(idx, block > np.arange(1, n + 1), out=idx)
    marked = np.zeros(k * (n + 1), dtype=bool)
    marked[idx] = True
    return marked.reshape(k, n + 1)[:, 1:]


def block_rows(rows: int, n: int) -> int:
    """Rows in one block of at most ``_BLOCK_CELLS`` cells, or one row when n exceeds it.

    The block size is a constant, not an option: it changes the speed
    and the memory, never the result.
    """
    return max(1, min(rows, _BLOCK_CELLS // max(n, 1)))


def run_counts(images: np.ndarray) -> np.ndarray:
    """Run count of each row: n minus the nodes j that some column i < j maps to.

    ``_smaller_preimage_marks`` scatters one ``block_rows`` block at a
    time, so the int64 index array and the bool array stay in cache
    however many rows come in.
    """
    rows, n = images.shape
    step = block_rows(rows, n)
    counts = np.empty(rows, dtype=np.intp)
    for start in range(0, rows, step):
        block = images[start:start + step]
        counts[start:start + len(block)] = n - np.count_nonzero(
            _smaller_preimage_marks(block), axis=1)
    return counts


def run_starts(images: np.ndarray) -> np.ndarray:
    """Run-start mask: [r, j - 1] is True when no column i < j of row r maps to j.

    One scatter over all rows, so callers pass blocks of a bounded size.
    """
    return ~_smaller_preimage_marks(images)


def any_per_row(mask: np.ndarray) -> np.ndarray:
    """mask.any(axis=1) as a bool matrix product, several times faster along a short row."""
    return mask @ np.ones(mask.shape[1], dtype=bool)


def _offsets(rows: int, n: int) -> np.ndarray:
    """(rows, 1) column r n - 1: added to 1-based labels of row r it gives their flat indices."""
    return (np.arange(rows) * n - 1)[:, None]


def _climb(pointers: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pointer doubling over flat indices: (g, top) after k = ceil(log2 n) squarings.

    g = f^(2^k) and top[i] is the largest 0-based label of f^0(i), ...,
    f^(2^k - 1)(i).  Since 2^k >= n, g[i] lies on the cycle that the path
    from i reaches, top[g[i]] is that cycle's largest label, and top[i]
    covers every node on the path from i to that cycle.  Flat indices let
    ``np.take`` gather without per-axis fancy indexing.
    """
    rows = len(pointers)
    # labels in the narrowest dtype: gathering bytes instead of int64 halves the cost
    top = np.broadcast_to(np.arange(n, dtype=np.min_scalar_type(n - 1)), (rows, n))
    g = pointers
    for _ in range((n - 1).bit_length()):
        top = np.maximum(top, np.take(top, g, mode="clip"))
        g = np.take(g, g, mode="clip")
    return g, top


def cycles(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each node's path ends, and each row's number of cycles, by pointer doubling.

    top[g[i]] is the largest label of the cycle that the path from i
    reaches, so a row has as many cycles as nodes i with top[g[i]] = i,
    the cycle maxima that ``mapping_to_tree`` relinks.  Returns
    g = f^(2^k) as 1-based labels, shaped like ``images``, and the cycle
    counts as intp.
    """
    rows, n = images.shape
    offsets = _offsets(rows, n)
    g, top = _climb(images + offsets, n)
    cycle_max = np.take(top, g, mode="clip")
    # a row product counts faster than count_nonzero along the short axis, in a dtype that holds n
    count = (cycle_max == np.arange(n)) @ np.ones(n, dtype=np.min_scalar_type(n))
    return g - offsets, count.astype(np.intp)


def mapping_to_tree(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parent arrays and marks of ``bijections.mapping_to_tree``, row by row.

    With the cycle maxima c_1 > ... > c_t and d_i = f(c_i), c_i takes the
    parent d_{i+1}, c_t becomes the root and d_1 the mark.  ``_climb``
    marks node c as a cycle maximum exactly when the cycle its path
    reaches peaks at c, which only c's own cycle can.  Only the peaks
    are relinked: their flat indices come in increasing order, row after
    row, and every row has one, so each peak but a row's first takes the
    image of the peak before it, the first is the root, and the image of
    the last is the mark.
    """
    rows, n = images.shape
    g, top = _climb(images + _offsets(rows, n), n)
    peaks = np.flatnonzero(np.take(top, g, mode="clip") == np.arange(n))
    row = peaks // n
    first = np.ones(len(peaks), dtype=bool)
    first[1:] = row[1:] != row[:-1]
    peak_images = np.take(images, peaks)
    relinked = np.empty_like(peak_images)
    relinked[1:] = peak_images[:-1]
    relinked[first] = peaks[first] - row[first] * n + 1
    parents = images.copy()
    parents.reshape(-1)[peaks] = relinked
    last = np.ones_like(first)  # the peak before a row's first is its row's last
    last[:-1] = first[1:]
    return parents, peak_images[last]


def tree_to_mapping(parents: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Images of ``bijections.tree_to_mapping`` for each (parent array, mark) row.

    A node on the path from the mark to the root is a right-to-left
    maximum of that path exactly when it exceeds all its strict
    ancestors.  So the first maximum m_1 is the largest node of the path,
    which ``_climb`` finds from the mark, and each later one m_(k+1) is
    the largest strict ancestor of m_k, which it finds from m_k's parent;
    the root is its own.  Only the maxima are re-wired: m_1 maps to the
    mark and m_(k+1) to the parent of m_k, so the walk takes one step per
    maximum, and a row whose walk has reached the root writes to a spare
    last cell.  Every other node keeps its parent.
    """
    rows, n = parents.shape
    offsets = _offsets(rows, n)
    up = parents + offsets
    _, best = _climb(up, n)
    starts = offsets + 1  # added to a 0-based label of row r, its flat index
    above = np.take(best, up) + starts  # the largest strict ancestor; a root's own
    images = np.empty(rows * n + 1, dtype=parents.dtype)
    images[:-1] = parents.reshape(-1)
    cur = np.take(best, marks + offsets[:, 0]) + starts[:, 0]
    images[cur] = marks
    for _ in range(n - 1):
        nxt = np.take(above, cur, mode="clip")
        images[np.where(nxt != cur, nxt, rows * n)] = np.take(parents, cur, mode="clip")
        cur = nxt
    return images[:-1].reshape(rows, n)


def encode_partition(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run partition of each row as (block index of each label, link of each block).

    As in ``bijections.encode_partition``, a label t is a block's top
    exactly when it is not down[f(t)], the largest smaller preimage of its
    image, and any other label j shares the block of f(j) > j.  Blocks
    are numbered by decreasing top, 0 for the largest, so one scan down
    the labels numbers each top by the tops it has passed and gives every
    other label the block of its image, which it has already placed.
    links[r, b] is f(top of block b), and 0 past the last block.  The
    scans read and write whole columns, so they work on a transposed copy
    of ``images``, one contiguous row per label, through flat indices.
    """
    rows, n = images.shape
    columns = np.ascontiguousarray(images.T)  # columns[i]: the image of label i + 1 in each row
    labels = np.arange(1, n + 1, dtype=images.dtype)[:, None]
    every = np.arange(rows)
    wide = every * (n + 1)  # row starts of the (rows, n + 1) down table
    down = np.zeros(rows * (n + 1), dtype=images.dtype)
    # the cell of each ascent's image, and column 0 for the rest
    ascents = columns * (columns > labels) + wide
    for i, targets in enumerate(ascents, 1):  # later labels overwrite: j keeps its largest smaller preimage
        down[targets] = i
    tops = np.take(down, columns + wide) != labels
    image_cells = (columns - 1).astype(np.intp) * rows + every  # where each image sits in placed
    placed = np.empty((n, rows), dtype=images.dtype)  # the block of each label, by label
    links = np.zeros(rows * n + 1, dtype=images.dtype)  # the spare last cell collects the non-tops
    starts = every * n
    passed = np.zeros(rows, dtype=images.dtype)
    for j in range(n - 1, -1, -1):
        top = tops[j]
        placed[j] = np.where(top, passed, np.take(placed, image_cells[j], mode="clip"))
        links[np.where(top, starts + passed, rows * n)] = columns[j]
        passed += top
    return np.ascontiguousarray(placed.T), links[:-1].reshape(rows, n)


class PartitionTables(NamedTuple):
    """What ``decode_links`` needs of a block-index array, whatever the links.

    pick: the flat index of each label's image in its row's links followed
    by the labels 1, ..., n, that is, the link of the label's block at
    the block's top and the next larger label of the block elsewhere.
    pred: the next smaller label in each label's block, or 0.  tops: each
    block's largest label, 0 past the last block.  unordered: the rows
    whose tops do not strictly decrease with the block index.
    """

    pick: np.ndarray
    pred: np.ndarray
    tops: np.ndarray
    unordered: np.ndarray


def partition_tables(blocks: np.ndarray) -> PartitionTables:
    """The tables of each row of ``blocks``, from one scan up its labels.

    ``blocks`` numbers each row's blocks 0, 1, ... without gaps.  Labels
    are kept in the narrowest type that holds n and ``blocks``' values.
    """
    rows, n = blocks.shape
    label = np.promote_types(blocks.dtype, np.min_scalar_type(n))
    offsets = _offsets(rows, n)
    slots = blocks + (offsets + 1)  # flat (row, block) indices
    last = np.zeros(rows * n, dtype=label)  # per slot, the largest label placed so far
    pred = np.empty((rows, n), dtype=label)
    for a in range(1, n + 1):
        slot = slots[:, a - 1]
        pred[:, a - 1] = last[slot]
        last[slot] = a
    # a label's predecessor picks the label, past the links; a block's least writes the spare cell
    pick = np.append(slots, 0)
    pick[np.where(pred > 0, pred + offsets, rows * n)] = np.arange(rows * n, rows * n + n)
    # flat neighbours: block b + 1 needs a smaller top than block b, or none
    rising = np.zeros((rows, n), dtype=bool)
    rising.reshape(-1)[1:] = (last[1:] >= last[:-1]) & (last[1:] > 0)
    rising[:, 0] = False  # a row's block 0 follows the row before
    return PartitionTables(pick[:-1].reshape(rows, n), pred, last.reshape(rows, n),
                           any_per_row(rising))


def decode_links(tables: PartitionTables, links: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images rebuilt from a row's partition tables and links, and which pairs are valid.

    ``links`` holds each row's links in its first columns, 0 after them,
    and the images come back in its dtype.  Within a block each label
    maps to the next larger one and the top to the block's link.  As
    ``bijections.decode_partition`` proves, a pair re-encodes to itself
    exactly when the tops strictly decrease with the block index and no
    block with top t and link x has pred[x] < t < x.
    """
    pick, pred, tops, unordered = tables
    rows, n = tops.shape
    images = np.take(np.concatenate((links.reshape(-1), np.arange(1, n + 1, dtype=links.dtype))),
                     pick)
    # an unused link 0 reads the cell before its row (clipped to 0); tops < 0 is false there
    forbidden = (np.take(pred, links + _offsets(rows, n), mode="clip") < tops) & (tops < links)
    return images, ~(any_per_row(forbidden) | unordered)


def _ascent_bits(images: np.ndarray) -> np.ndarray:
    """Per row, the set {f(i) : f(i) > i} over columns i = 1, 2, ..., as bit f(i) - 1."""
    nodes = np.arange(1, images.shape[1] + 1)
    bits = np.where(images > nodes, np.left_shift(1, images - 1), 0)
    return functools.reduce(np.bitwise_or, bits.T)  # column by column: faster than reduce(axis=1)


def _suffix_tables(n: int, p: int) -> tuple[np.ndarray, ...]:
    """Tabulate the n^(n-p) suffixes once, for arrays whose first p entries vary.

    One ``cycles`` walk over the suffix block, with the p prefix
    nodes held as fixed points, gives for each suffix r and node y the
    first prefix node on the path from y (0 when the path ends on a suffix
    cycle) and the number of cycles inside the suffix.  A cell's key, in
    base q = p + 2, is

        (min(inner cycles, 2) + 3 [the suffix has a fixed point]) q^p
        + sum_i code_i q^(p - 1 - i),

    where code_i is that first prefix node for y = y_i, except that a
    prefix fixed point y_i = i is coded p + 1.  A second walk, over every
    contracted map of {0, ..., p} (0 a sink) that the codes spell, counts
    the cycles through the prefix.

    Returns (codes, classes, ascents).  codes[i, y - 1, r] is prefix
    entry i's share of the key when that entry is y and the suffix is r,
    and codes[0] also carries the suffix's share; classes[key] is
    (n + 1) (conn + tree); ascents[r] holds the suffix's ascent targets as
    bits.
    """
    s, q = n - p, p + 2
    block = np.empty((n ** s, n), dtype=np.intp)
    block[:, :p] = np.arange(1, p + 1)
    block[:, p:] = np.indices((n,) * s).reshape(s, n ** s).T + 1
    ends, inner = cycles(block)
    suffix_fixed = any_per_row(block[:, p:] == np.arange(p + 1, n + 1))
    suffix_share = (np.minimum(inner - p, 2) + 3 * suffix_fixed) * q ** p

    key_type = np.min_scalar_type(6 * q ** p - 1)
    first_in_prefix = np.where(ends <= p, ends, 0).T
    codes = np.empty((p, n, n ** s), dtype=key_type)
    for i in range(p):
        codes[i] = first_in_prefix
        codes[i, i] = p + 1
        codes[i] *= q ** (p - 1 - i)
    codes[0] += suffix_share.astype(key_type)

    contracted_keys = np.indices((q,) * p).reshape(p, q ** p).T
    own = contracted_keys == p + 1
    contracted = np.ones((q ** p, p + 1), dtype=np.intp)
    contracted[:, 1:] = np.where(own, np.arange(2, p + 2), contracted_keys + 1)
    prefix_cycles = cycles(contracted)[1] - 1  # the sink's loop is not a cycle
    suffix_cycles = np.arange(3)[:, None]  # 0, 1, or at least 2
    conn = suffix_cycles + prefix_cycles == 1
    suffix_fixed_axis = np.array([False, True])[:, None, None]
    tree = conn & (suffix_fixed_axis | own.any(axis=1))
    # int first: bool + bool would be a logical or
    classes = ((n + 1) * (conn.astype(int) + tree)).astype(np.min_scalar_type(3 * n + 2))

    mask_type = np.min_scalar_type((1 << n) - 1)
    return codes, classes.reshape(-1), _ascent_bits(block).astype(mask_type)


def _classes(tables: tuple[np.ndarray, ...], prefixes: np.ndarray) -> np.ndarray:
    """Class runs + (n + 1) (conn + tree) of each (prefix row, suffix) cell.

    Row k holds the cells of prefix k, with the suffixes in the order of
    ``itertools.product``, so cell (k, r) is the array prefix k + suffix r.
    """
    codes, classes, ascents = tables
    n = codes.shape[1]
    key = codes[0][prefixes[:, 0] - 1]
    for i in range(1, prefixes.shape[1]):
        key += codes[i][prefixes[:, i] - 1]
    out = np.take(classes, key)  # np.take gathers faster than fancy indexing
    prefix_ascents = _ascent_bits(prefixes).astype(ascents.dtype)
    out += n - np.bitwise_count(ascents | prefix_ascents[:, None])
    return out


def _tally_blocks(n: int, p: int, lo: int, hi: int) -> np.ndarray:
    """Run-count tallies (tree, mapping, connected) over every array whose prefix is in [lo, hi).

    The prefixes are rows lo, ..., hi - 1 of [n]^p, which the job builds
    with ``product_rows``, so a pool job pickles four integers.

    Split f in [n]^n into its prefix P = (1, ..., p) and suffix S = (p + 1,
    ..., n).  Lemma: the cycles of f are the cycles inside S plus one for
    each cycle of the contracted map i -> c_i on P, where c_i is the first
    node of P on the path f(i), f(f(i)), ... and c_i = 0 when that path
    ends on a cycle inside S (0 is a sink).  A cycle of f either avoids P,
    and lies inside S, or meets P, and its P nodes in order form a cycle
    of the contraction; a contracted cycle comes from exactly one such
    cycle of f.  Every component of a functional graph holds one cycle, so
    f is connected exactly when it has one cycle; a connected f is the
    parent array of a rooted tree exactly when its cycle is a fixed point,
    that is, when P or S has one; and the run starts are the nodes that no
    ascent of P or S targets, the union of the two ascent sets.

    So each job tabulates the suffixes once (``_suffix_tables``) and then
    classifies one ``block_rows`` block of prefixes at a time by table
    lookups and popcounts.  Every array is still counted once and no
    formula is called.

    The cells are tallied two at a time.  A class fits one byte (3 (n + 1)
    <= 256 for n <= 84), so a block's first even number of cells, viewed
    as uint16, holds a + 256 b for each pair of neighbours a, b, and
    ``np.bincount`` tallies those pairs into 256 K slots, K = 3 (n + 1),
    with an odd last cell counted alone.  That halves the intp copy that
    ``np.bincount`` makes of its input and spreads the increments over
    256 K slots instead of K, so fewer of them wait on the last one to the
    same slot.  Once per job the slots fold back into K classes: as a
    (K, 256) table, its row sums count one cell of each pair and its first
    K column sums the other.  The fold adds both cells alike, so it does
    not matter which byte the platform puts first.
    """
    tables = _suffix_tables(n, p)
    rows = product_rows(n, p, lo, hi)  # intp: _ascent_bits shifts 1 << (f - 1), past uint8 at n >= 9
    step = block_rows(len(rows), n ** (n - p))
    k = 3 * (n + 1)
    pairs = np.zeros(256 * k, dtype=np.int64)
    counts = np.zeros(k, dtype=np.int64)
    for start in range(0, len(rows), step):
        cells = _classes(tables, rows[start:start + step]).reshape(-1)
        even = len(cells) & ~1
        pairs += np.bincount(cells[:even].view(np.uint16), minlength=256 * k)
        if even < len(cells):
            counts[cells[-1]] += 1
    by_pair = pairs.reshape(k, 256)
    counts += by_pair.sum(axis=1) + by_pair[:, :k].sum(axis=0)
    # rows: not connected, connected but not a tree, tree
    by_class = counts.reshape(3, n + 1)
    return np.stack([by_class[2], by_class.sum(axis=0), by_class[1] + by_class[2]])
