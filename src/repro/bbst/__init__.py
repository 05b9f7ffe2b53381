"""Bucket-based Binary Search Tree (BBST) - the paper's core data structure.

A BBST answers, for the four *corner* cells of the 3x3 block around a query
point (the 2-sided "case 3" of Fig. 1):

* an O~(1)-approximate range count in O~(1) time (Lemma 4/5), and
* a uniform random point from the counted region in O~(1) expected time
  (Section IV-E),

while using only O(|S(c)|) space per cell (Lemma 2).

Structure (Definition 3 and Section IV-B):

* the x-sorted points of a cell are packed into *buckets* of ``ceil(log2 m)``
  consecutive points, each recording its min/max x and y;
* a balanced binary search tree is built over the buckets keyed on the bucket
  min-x (``T_min``) or max-x (``T_max``);
* every node stores the buckets whose key equals the node median (lists
  ``B_min`` / ``B_max``, sorted by bucket min-y / max-y) and all buckets of
  its subtree (arrays ``A_min`` / ``A_max``, again y-sorted), enabling the
  second binary search along the y axis.

:class:`~repro.bbst.cell_index.CellIndex` bundles the two trees of one cell;
:class:`~repro.bbst.join_index.BBSTJoinIndex` bundles the grid plus the
bucket envelopes of every cell as flat arrays and exposes the upper-bounding
and sampling primitives that :class:`repro.core.bbst_sampler.BBSTSampler`
consumes.  Its batch primitives count a corner cell's qualifying buckets
with an x-pruned scan of the envelopes (the same count the tree query
returns); only the scalar ``vectorized=False`` oracle builds the
``CellIndex`` trees.
"""

from repro.bbst.bucket import Bucket, build_buckets, bucket_capacity_for
from repro.bbst.cell_index import CellIndex
from repro.bbst.join_index import BBSTJoinIndex, CellContribution
from repro.bbst.tree import BBST, KeyMode, YCondition

__all__ = [
    "Bucket",
    "build_buckets",
    "bucket_capacity_for",
    "BBST",
    "KeyMode",
    "YCondition",
    "CellIndex",
    "BBSTJoinIndex",
    "CellContribution",
]
