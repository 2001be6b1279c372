"""Test-side packing of (frame_id, DescriptorSet) pairs into best_match's columns."""

import numpy as np

from vloc.database import _pack
from vloc.matching import _Candidates


def as_candidates(pairs) -> _Candidates:
    """The pairs as a scan's columns: uint64 ids and their sets' rows of one block (_pack)."""
    pairs = list(pairs)
    ids = np.array([fid for fid, _ in pairs], dtype=np.uint64)
    return _Candidates(ids, *_pack([ds for _, ds in pairs]))
