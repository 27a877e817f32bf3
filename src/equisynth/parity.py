"""Max-parity games solved block by block, with attractors and Zielonka's
algorithm (Zielonka, TCS 1998) without recursion.

Player 0 wins a play iff the highest priority seen infinitely often is even.
A node without a successor loses for its owner, who cannot move.

`solve_parity` takes the nodes in blocks, in an order where each block's
edges stay inside it or lead to earlier blocks (a game without blocks is
one block): the bottom-up order of Friedmann and Lange ("Solving Parity
Games in Practice", ATVA 2009), given by the caller, so no SCC pass and no
sort of the whole game.  Per block:

* **Exits.**  A successor in an earlier block already has a winner.  One
  pass over the block's edges counts each node's live successors and, where
  an attractor will need them, lists the predecessors inside the block.  A
  stuck node counts as having an exit won by its owner's opponent.
* **One priority.**  When all the block's nodes share a priority, the
  player i of its parity wins everything outside the opponent's attractor
  of the exits the opponent won.
* **Otherwise** the attractors of the exits won by 0, then by 1, are taken
  out, and Zielonka's algorithm solves the rest: a subgame, since a node
  that leads out of it leads into its opponent's part.

An exit is never in the region, so an attractor counts the exits the other
player won as live successors and never reaches past them into the smaller
block.  Within the region an attractor counts an opponent node's live
successors only when it first reaches that node, so its cost is the edges
it attracts through.  Zielonka's recursive calls run from an explicit stack
of frames, each owning its region as an `array` in increasing priority, so
the interpreter's recursion limit is left alone.

Every choice follows list order (node ids, priorities, attraction order),
never set order, so the same game always gets the same strategies, and the
step that settles a node last writes its move last.  Predecessor lists live
only while their block is solved; the result is a winner and a positional
move per node, in flat sequences.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence


@dataclass
class ParityGame:
    owner: Sequence[int]  # 0 or 1 per node
    priority: Sequence[int]
    succ: Sequence[Sequence[int]]

    def node_count(self) -> int:
        return len(self.owner)


def solve_parity(pg: ParityGame, blocks: Optional[Iterable[Iterable[int]]] = None,
                 weight: Optional[Sequence[int]] = None) -> tuple[bytearray, array]:
    """Solve every node: returns (winner, move), where `winner[v]` is the
    player who wins from v and, wherever that player owns v, `move[v]` is
    the successor its positional winning strategy picks.  Other entries of
    `move` mean nothing.

    `blocks` partitions the nodes, in an order where every edge stays in its
    block or leads to an earlier one; without it the game is one block.
    Two rules pick player 0's moves where any winning move would do:

    * a player-0 node in the attractor of the exits won by 0 moves to a
      successor whose own successors are all exits won by 0, the one with
      the least `weight` summed over those exits, then the lowest id;
    * in a one-priority block won by 0, a node moves to its first successor
      in the won part whose successors all lie there too, else to its first
      successor won by 0.

    `weight` is read only at exits; without it every exit weighs 0."""
    owner, priority, succ = pg.owner, pg.priority, pg.succ
    n = pg.node_count()
    winner = bytearray(n)
    move = array("i", [-1]) * n
    # 1: in the current region; 2: attracted by the running attractor, and
    # still counted as a live successor; 0: outside the region.
    mark = bytearray(n)
    # An opponent node's successors the running attractor has not taken yet.
    # Zielonka's attractors fill it when they first meet a node with more
    # left than one and reset it after; the exits' attractors start from the
    # block pass's counts.
    live = array("i", bytes(4 * n))
    # Predecessors inside the block being solved; None elsewhere.
    preds: list[Optional[list[int]]] = [None] * n

    def by_priority(nodes) -> array:
        return array("i", sorted(nodes, key=priority.__getitem__))

    def attract(target, player: int) -> array:
        """Player-`player` attractor of `target` within the region, in
        breadth-first order.  Records a move towards the target for the
        player's attracted nodes and takes the attractor out of the region."""
        for v in target:
            mark[v] = 2
        attracted = array("i", target)
        counted = array("i")
        for w in attracted:  # grows while it is read: a FIFO queue
            for v in preds[w]:
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

    def zielonka(region) -> None:
        """Solve the subgame on `region`, whose nodes are marked 1 and each
        has a successor in it.  A frame is [stage, nodes, p]: at stage 0
        `nodes` is the region to solve, in increasing priority, and owned by
        the frame; at stage 1 it is A, player p % 2's attractor of the
        region's top priority p, and the frame waits for the region minus A;
        at stage 2 it is B, the opponent's attractor of what the opponent
        won there, and the frame waits for the region minus B.  Each
        finished frame leaves [won by 0, won by 1] on `results`."""
        results: list[list[array]] = []
        stack = [[0, by_priority(region), 0]]
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
                # Player i wins the whole region: its top nodes may move
                # anywhere inside it.
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

    def attract_exits(seeds: list[int], player: int) -> None:
        """Take out of the region the attractor of the exits `player` won,
        from the block pass's `seeds`, and give it to `player`."""
        won = attract(seeds, player)
        if player:
            for v in won:
                winner[v] = 1
            return
        # Successors whose own successors are all exits won by 0, by their
        # summed exit weight.
        settled = {u: sum(map(weight.__getitem__, succ[u])) if weight else 0
                   for u in seeds if owner[u]}
        for v in won:
            if not owner[v]:
                best = min(((settled[u], u) for u in succ[v] if u in settled), default=None)
                if best is not None:
                    move[v] = best[1]

    def link(nodes: list[int]) -> None:
        """List the in-block predecessors of the block's nodes."""
        for v in nodes:
            preds[v] = []
        for v in nodes:
            for w in succ[v]:
                if mark[w]:
                    preds[w].append(v)

    for block in (range(n),) if blocks is None else blocks:
        nodes = list(block)
        for v in nodes:
            mark[v] = 1
        tops = set(map(priority.__getitem__, nodes))
        # Zielonka needs the predecessors; a one-priority block needs them
        # only for an attractor with something to attract.
        linked = len(tops) > 1
        if linked:
            for v in nodes:
                preds[v] = []
        # One pass over the block's edges counts, per node, its successors
        # that are not exits won by its opponent: the live count for the
        # opponent's attractor.  A node with an exit its owner won is
        # attracted by its owner, moving there; one whose every successor is
        # an exit won by the opponent, or with none, by the opponent.  A
        # block with one priority, of parity i (else i is -1), reads only
        # the opponent's seeds: i's stay in the part i wins, whose closing
        # loop gives i's nodes their moves.
        i = next(iter(tops)) & 1 if len(tops) == 1 else -1
        seeds: tuple[list[int], list[int]] = ([], [])
        for v in nodes:
            o = owner[v]
            d = 0
            out = -1
            for w in succ[v]:
                if mark[w]:
                    if linked:
                        preds[w].append(v)
                    d += 1
                elif winner[w] == o:
                    d += 1
                    if out < 0:
                        out = w
            live[v] = d
            if out >= 0:
                if o != i:
                    move[v] = out
                    seeds[o].append(v)
            elif not d and 1 - o != i:
                seeds[1 - o].append(v)
        if i >= 0:
            if seeds[1 - i]:
                link(nodes)
                attract_exits(seeds[1 - i], 1 - i)
            # Player i wins the rest (marked 1).
            rest = [v for v in nodes if mark[v]]
            for v in rest:
                if owner[v] != i:
                    continue
                s = succ[v]
                if i:
                    move[v] = next(w for w in s if mark[w] or winner[w])
                    continue
                move[v] = next((w for w in s if mark[w] and all(map(mark.__getitem__, succ[w]))),
                               -1)
                if move[v] < 0:
                    move[v] = next(w for w in s if mark[w] or not winner[w])
            if i:
                for v in rest:
                    winner[v] = 1
        else:
            attract_exits(seeds[0], 0)
            attract_exits(seeds[1], 1)
            rest = [v for v in nodes if mark[v]]
            for v in rest:
                live[v] = 0
            zielonka(rest)
        for v in nodes:
            mark[v] = 0
            preds[v] = None
    return winner, move
