"""Max-parity games solved by Zielonka's attractor algorithm (Zielonka, TCS
1998), without recursion and with one predecessor index per game.

Player 0 wins a play iff the highest priority seen infinitely often is even.
A node without a successor loses for its owner, who cannot move.

`solve_parity` does the shared work once per game:

* The predecessor index is built once, in CSR form: `poff` (an `array` of
  offsets) and `psrc` (the sources, grouped by target).
* The current region is a `bytearray` mark.  An attractor counts an opponent
  node's out-degree into the region only when it first reaches that node, so
  its cost is the edges it attracts through, not the size of the region.
* Stuck nodes are peeled off once, before the main loop.  What an attractor
  leaves behind is a trap: a node outside Attr_i(T) that belongs to player i
  has no edge into it, and one that belongs to the opponent keeps an edge
  outside it.  So if a region has no stuck node, neither has any subregion
  the algorithm goes on to solve.
* Zielonka's two recursive calls per region run from an explicit stack of
  frames, so deep games need no recursion and the interpreter's recursion
  limit is left alone.

A frame owns its region as an `array` in increasing priority, so the nodes of
top priority are its tail.  While its subregions are solved it keeps only its
attractor, which lies outside every region solved above it on the stack, so
memory stays linear in the game however deep the recursion goes; a finished
frame hands its parent the lists of nodes each player won.  Strategy moves go
into one per-node array, and the frame that settles a node last writes its
move last.  Every choice follows list order (node ids, priorities, attraction
order), never set order, so the same game always gets the same strategies.

No set or dict grows with the game: the result is a winner and a positional
move per node, in flat sequences.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import not_ as _empty
from typing import Sequence


@dataclass
class ParityGame:
    owner: Sequence[int]  # 0 or 1 per node
    priority: Sequence[int]
    succ: Sequence[Sequence[int]]

    def node_count(self) -> int:
        return len(self.owner)


def _predecessors(succ: Sequence[Sequence[int]]) -> tuple[array, array]:
    """CSR predecessor index: the sources of the edges into w are
    `psrc[poff[w]:poff[w + 1]]`, in increasing order."""
    n = len(succ)
    count = [0] * (n + 1)
    for s in succ:
        for w in s:
            count[w + 1] += 1
    poff = array("i", accumulate(count))
    del count
    fill = [0] * n  # small ints: an `array` would box every read
    psrc = array("i", bytes(4 * poff[n]))
    for v, s in enumerate(succ):
        for w in s:
            psrc[poff[w] + fill[w]] = v
            fill[w] += 1
    return poff, psrc


def solve_parity(pg: ParityGame) -> tuple[bytearray, array]:
    """Solve every node: returns (winner, move), where `winner[v]` is the
    player who wins from v and, wherever that player owns v, `move[v]` is
    the successor its positional winning strategy picks.  Other entries of
    `move` mean nothing."""
    owner, priority, succ = pg.owner, pg.priority, pg.succ
    n = pg.node_count()

    def by_priority(nodes) -> array:
        return array("i", sorted(nodes, key=priority.__getitem__))

    # Every node in increasing priority.  Sorting makes one int object per
    # node for a while, so it comes before the other per-node arrays exist.
    order = by_priority(range(n))
    poff, psrc = _predecessors(succ)
    # 1: in the current region; 2: attracted by the running attractor, and
    # still counted as a live successor; 0: outside the region.
    mark = bytearray(b"\x01") * n
    move = array("i", [-1]) * n
    # An opponent node's successors the running attractor has not taken yet,
    # once it met the node with more left than one; else 0.
    live = array("i", bytes(4 * n))

    def attract(target, player: int) -> array:
        """Player-`player` attractor of `target` within the region, in
        breadth-first order.  Records a move towards the target for the
        player's attracted nodes and takes the attractor out of the region."""
        for v in target:
            mark[v] = 2
        attracted = array("i", target)
        counted = array("i")
        for w in attracted:  # grows while it is read: a FIFO queue
            for v in psrc[poff[w]:poff[w + 1]]:
                if mark[v] != 1:
                    continue
                if owner[v] == player:
                    move[v] = w
                else:
                    d = live[v]
                    if not d:
                        for x in succ[v]:
                            if mark[x]:
                                d += 1
                        if d > 1:
                            counted.append(v)
                    if d > 1:
                        live[v] = d - 1
                        continue
                mark[v] = 2
                attracted.append(v)
        for v in counted:
            live[v] = 0
        for v in attracted:
            mark[v] = 0
        return attracted

    winner = bytearray(n)
    # Nodes stuck without a move lose for their owner.
    stuck = list(compress(range(n), map(_empty, succ)))
    for player in (0, 1):
        for v in attract([v for v in stuck if owner[v] == player], 1 - player):
            winner[v] = 1 - player

    # Zielonka's recursion on the rest.  A frame is [stage, nodes, p]: at
    # stage 0 `nodes` is the region to solve, in increasing priority, and
    # owned by the frame; at stage 1 it is A, player p % 2's attractor of the
    # region's top priority p, and the frame waits for the region minus A; at
    # stage 2 it is B, the opponent's attractor of what the opponent won
    # there, and the frame waits for the region minus B.  Each finished frame
    # leaves [won by 0, won by 1] on `results`.
    results: list[list[array]] = []
    stack = [[0, array("i", compress(order, map(mark.__getitem__, order))), 0]]
    del order
    while stack:
        frame = stack[-1]
        stage, nodes, p = frame
        if stage == 0:
            if not nodes:
                results.append([array("i"), array("i")])
                stack.pop()
                continue
            p = priority[nodes[-1]]
            k = bisect_left(nodes, p, key=priority.__getitem__)
            top = nodes[k:]
            del nodes[k:]
            a = attract(top, p & 1)
            if len(a) > len(top):
                nodes = array("i", compress(nodes, map(mark.__getitem__, nodes)))
            frame[:] = 1, a, p
            stack.append([0, nodes, 0])
            continue
        i = p & 1
        for v in nodes:
            mark[v] = 1
        sub = results.pop()
        if stage == 2:
            sub[1 - i] += nodes
            results.append(sub)
            stack.pop()
        elif not sub[1 - i]:
            # Player i wins the whole region: its top nodes may move anywhere
            # inside it.
            for v in nodes:
                if priority[v] == p and owner[v] == i:
                    move[v] = next(w for w in succ[v] if mark[w])
            sub[i] += nodes
            results.append(sub)
            stack.pop()
        else:
            b = attract(sub[1 - i], 1 - i)
            frame[:] = 2, b, p
            rest = nodes + sub[i]
            stack.append([0, by_priority(compress(rest, map(mark.__getitem__, rest))), 0])
    for v in results.pop()[1]:
        winner[v] = 1
    return winner, move
