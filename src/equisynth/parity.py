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

A frame owns its region as a list in increasing priority, so the nodes of top
priority are its tail.  While its subregions are solved it keeps only its
attractor, which lies outside every region solved above it on the stack, so
memory stays linear in the game however deep the recursion goes; a finished
frame hands its parent the lists of nodes each player won.  Strategy moves go
into one per-node array, and the frame that settles a node last writes its
move last.  Every choice follows list order (node ids, priorities, attraction
order), never set order, so the same game always gets the same strategies.

Returns full winning regions plus positional strategies on them.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress


@dataclass
class ParityGame:
    owner: list[int]  # 0 or 1 per node
    priority: list[int]
    succ: list[list[int]]

    def node_count(self) -> int:
        return len(self.owner)


def _predecessors(succ: list[list[int]]) -> tuple[array, array]:
    """CSR predecessor index: the sources of the edges into w are
    `psrc[poff[w]:poff[w + 1]]`, in increasing order."""
    n = len(succ)
    fill = [0] * (n + 1)
    for s in succ:
        for w in s:
            fill[w + 1] += 1
    for w in range(n):
        fill[w + 1] += fill[w]
    poff = array("i", fill)
    psrc = array("i", bytes(4 * fill[n]))
    for v, s in enumerate(succ):
        for w in s:
            psrc[fill[w]] = v
            fill[w] += 1
    return poff, psrc


def solve_parity(pg: ParityGame):
    """Partition nodes into the two winning regions with positional strategies.

    Returns (win0, win1, strat0, strat1); strategies cover the owner's nodes
    inside its region (nodes that still have a move there)."""
    owner, priority, succ = pg.owner, pg.priority, pg.succ
    n = pg.node_count()
    poff, psrc = _predecessors(succ)
    # 1: in the current region; 2: attracted by the running attractor, and
    # still counted as a live successor; 0: outside the region.
    mark = bytearray(b"\x01") * n
    move = [-1] * n

    def attract(target: list[int], player: int) -> list[int]:
        """Player-`player` attractor of `target` within the region, in
        breadth-first order.  Records a move towards the target for the
        player's attracted nodes and takes the attractor out of the region."""
        for v in target:
            mark[v] = 2
        attracted = list(target)
        live: dict[int, int] = {}
        for w in attracted:  # grows while it is read: a FIFO queue
            for v in psrc[poff[w]:poff[w + 1]]:
                if mark[v] != 1:
                    continue
                if owner[v] == player:
                    move[v] = w
                else:
                    d = live.get(v)
                    if d is None:
                        d = 0
                        for x in succ[v]:
                            if mark[x]:
                                d += 1
                    if d > 1:
                        live[v] = d - 1
                        continue
                mark[v] = 2
                attracted.append(v)
        for v in attracted:
            mark[v] = 0
        return attracted

    # Nodes stuck without a move lose for their owner.
    won: list[list[int]] = [[], []]
    for player in (0, 1):
        stuck = [v for v in range(n) if not succ[v] and owner[v] == player]
        won[1 - player] += attract(stuck, 1 - player)

    # Zielonka's recursion on the rest.  A frame is [stage, nodes, p]: at
    # stage 0 `nodes` is the region to solve, in increasing priority, and
    # owned by the frame; at stage 1 it is A, player p % 2's attractor of the
    # region's top priority p, and the frame waits for the region minus A; at
    # stage 2 it is B, the opponent's attractor of what the opponent won
    # there, and the frame waits for the region minus B.  Each finished frame
    # leaves [won by 0, won by 1] on `results`.
    results: list[list[list[int]]] = []
    stack = [[0, sorted(compress(range(n), mark), key=priority.__getitem__), 0]]
    while stack:
        frame = stack[-1]
        stage, nodes, p = frame
        if stage == 0:
            if not nodes:
                results.append([[], []])
                stack.pop()
                continue
            p = priority[nodes[-1]]
            k = bisect_left(nodes, p, key=priority.__getitem__)
            top = nodes[k:]
            del nodes[k:]
            a = attract(top, p & 1)
            if len(a) > len(top):
                nodes = list(compress(nodes, map(mark.__getitem__, nodes)))
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
            rest = [v for v in chain(nodes, sub[i]) if mark[v]]
            rest.sort(key=priority.__getitem__)
            stack.append([0, rest, 0])
    for player, nodes in enumerate(results.pop()):
        won[player] += nodes

    w0, w1 = set(won[0]), set(won[1])
    s0 = {v: move[v] for v in won[0] if owner[v] == 0}
    s1 = {v: move[v] for v in won[1] if owner[v] == 1}
    return w0, w1, s0, s1
