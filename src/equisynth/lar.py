"""Muller-to-parity reduction through latest appearance records.

The record is a permutation of the color alphabet, most recently seen color
first.  Reading color c moves it to the front; the *hit* is the 1-based
position c came from.  Along any run, the largest hit occurring infinitely
often equals the number of colors seen infinitely often, and at those
moments the record prefix of that length is exactly the set of recurring
colors.  Assigning priority 2h to an accepted prefix set and 2h+1 to a
rejected one therefore turns any Muller condition into a max-parity one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

Record = tuple[int, ...]  # permutation of color indices, most recent first


@dataclass(frozen=True)
class LarState:
    record: Record
    hit: int  # 0 before any color was read


def initial_record(color_count: int) -> Record:
    return tuple(range(color_count))


def lar_step(state: LarState, color: int) -> LarState:
    pos = state.record.index(color)
    record = (color,) + state.record[:pos] + state.record[pos + 1 :]
    return LarState(record, pos + 1)


def lar_priority(state: LarState, accept: Callable[[frozenset[int]], bool]) -> int:
    """Max-parity priority of a record state; even means accepted."""
    if state.hit == 0:
        return 0
    prefix = frozenset(state.record[: state.hit])
    return 2 * state.hit if accept(prefix) else 2 * state.hit + 1
