"""Test-side builders of best_match's columns (frames that share one block's rows, or sets packed into one) and of its chunk budget."""

import numpy as np

from vloc.database import _pack
from vloc.matching import _Candidates


def columns(block, starts, stops) -> tuple:
    """Frames starts[i]:stops[i] of block as best_match reads them: (block, int64 starts, int64 stops).

    The block is kept, its rows scored in place, while the starts do not
    decrease, as a database keeps its frames. Frames whose starts decrease
    have their rows copied, in frame order, into a new block (_pack), as
    Database._init copies them.
    """
    starts, stops = np.asarray(starts, dtype=np.int64), np.asarray(stops, dtype=np.int64)
    if (starts[1:] < starts[:-1]).any():
        return _pack([block.array[a:b] for a, b in zip(starts.tolist(), stops.tolist())])
    return block, starts, stops


def packed(sets) -> tuple:
    """Sets that own their rows as a scan's columns: the rows copied, in order, into one block (_pack)."""
    return _pack([ds.array for ds in sets])


def as_candidates(pairs) -> _Candidates:
    """The (frame_id, DescriptorSet) pairs as a scan's columns: uint64 ids and their sets' rows packed into one block."""
    pairs = list(pairs)
    ids = np.array([fid for fid, _ in pairs], dtype=np.uint64)
    return _Candidates(ids, *packed(ds for _, ds in pairs))


def chunk_bytes(cols: int, m: int) -> int:
    """The _E_BYTES that gives an m-row query chunks of at most cols frame rows: a float32 product of cols x m."""
    return 4 * cols * m
