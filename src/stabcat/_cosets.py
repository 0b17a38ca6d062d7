"""Per-block tables, and the block-local stabilizer cosets of N.

A block's table maps its key (:meth:`stabcat.concat.BlockExpander.key`)
to a class, each key classified once by its owner's ``classify`` under
``functools.cache``; the exhaustive counting check in :mod:`stabcat.distance`
reads one per block.  That check does not visit every word of N: it
splits N into the block-local stabilizer words T0 = sum T0_i
(:func:`block_local`) and a complement of them, and every word that
shares a complement part f takes, in block i, each key of f's coset
modulo T0_i, independently of the other blocks.  :class:`CosetClasses`
holds each coset's set of classes, and its
:meth:`~CosetClasses.outcome` gives the claims' extremes over all
2^dim(T0) such words at once.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache, partial
from itertools import chain

from .symplectic import Rref, lowest_bit, xor_rows


def block_local(rows, exp) -> list[list[int]]:
    """Per block of the expander ``exp``, a basis of the words of
    span(rows) in S that vanish outside it.

    ``rows`` carry their stabilizer residue above bit 2n.  One
    :class:`Rref` per block takes each row with the block's bits cleared
    (the outside bits and the residue low) and its tag ``1 << (4n + j)``
    high; an echelon row with no bit below 4n tags a combination of the
    rows that is zero outside the block and in S.
    """
    tag = 4 * exp.n
    block = (1 << (2 * exp.block_width)) - 1  # every bit of a key
    local = []
    for i in range(exp.n_blocks):
        outside = ~exp.word(block, i)
        acc = Rref()
        for j, x in enumerate(rows):
            acc.add((x & outside) | (1 << (tag + j)))
        local.append([xor_rows(rows, t >> tag) for t in acc.rows
                      if lowest_bit(t) >= tag])
    return local


class CosetClasses:
    """Block tables over the cosets of the block-local stabilizer words.

    ``local[i]`` spans T0_i (:func:`block_local`).  Block i's table maps
    a key to the frozenset of the classes that ``classes``
    (:class:`stabcat.distance.ClassTables`) gives the keys of its coset
    key + key_i(T0_i).  The tables read like those of ``classes``, so
    the same signature walk reads either.
    """

    def __init__(self, classes, local) -> None:
        self.classes = classes
        self.exp = exp = classes.exp
        self.spans = []
        for i, words in enumerate(local):
            span = [0]
            for t in words:
                key = exp.key(t, i)
                span += [s ^ key for s in span]
            self.spans.append(span)
        self.tables = [cache(partial(self.classify, i))
                       for i in range(len(local))]

    def classify(self, i: int, key: int) -> frozenset:
        """The class set of the coset of block i's ``key``."""
        table = self.classes.tables[i]
        return frozenset([table(key ^ s) for s in self.spans[i]])

    def outcome(self, sets: tuple) -> tuple[int, int, int]:
        """(min nonzero blocks, min distinct tuples, max multiplicity)
        over the words whose blocks take classes from ``sets``, one
        class set per block.

        Each block takes any class of its set, whatever the others take:
        zero wherever it can, a tuple shared with as many blocks as hold
        it, and for the blocks that must take a tuple (no class 0 or 1)
        the fewest tuples that meet all of their sets.
        """
        counts = Counter(chain.from_iterable(s - {0, 1} for s in sets))
        forced = [s for s in sets if s.isdisjoint((0, 1))]
        return (sum(0 not in s for s in sets), min_hitting_set(forced),
                max(counts.values(), default=0))


def min_hitting_set(sets) -> int | float:
    """Fewest elements meeting every one of ``sets`` (inf if one is empty).

    Branches on the elements of the smallest set: exact, and exponential
    only in the number of sets.
    """
    if not sets:
        return 0
    first = min(sets, key=len)
    return 1 + min((min_hitting_set([s for s in sets if x not in s])
                    for x in first), default=math.inf)
