"""Shared exception types.

Exit-code mapping lives in the CLI: input problems exit 2, resource caps
exit 3, verification failures exit 4.
"""
from __future__ import annotations

import functools


class InvalidInput(ValueError):
    """Malformed game/comm-graph/predicate/profile input."""


def rejects_malformed(what: str):
    """Decorate a reader of decoded JSON so that a document of the wrong
    shape (a list where an object belongs, a missing key, text where a
    number belongs, ...) raises InvalidInput instead of a bare Python error."""

    def decorate(read):
        @functools.wraps(read)
        def wrapper(*args, **kwargs):
            try:
                return read(*args, **kwargs)
            except InvalidInput:
                raise
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                raise InvalidInput(f"malformed {what}: {type(exc).__name__}: {exc}") from exc

        return wrapper

    return decorate


class CapExceeded(RuntimeError):
    """A configured resource cap was hit; raised with a diagnostic message."""


class StateCapExceeded(CapExceeded):
    pass


class LarCapExceeded(CapExceeded):
    pass


class ProfileInputRejected(ValueError):
    """A profile machine received an observation inconsistent with a single
    honest deviation (malformed messages, impossible vertex, ...)."""


class NormednessViolation(ValueError):
    """A profile broke one of the message-discipline conditions."""


class StrategyUndefined(RuntimeError):
    """A strategy had no entry for a reachable state of the verification product."""
