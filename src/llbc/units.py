"""Currency-unit registry.

The set of currency units is open: scripts may deal in any unit token that
the active registry knows about. The default registry covers the usual
suspects; a deployment can extend it with a plain text file (one token per
line, ``#`` comments allowed) pointed at by the ``LLBC_UNITS`` environment
variable or passed explicitly.
"""
from __future__ import annotations

import os
import re

DEFAULT_UNITS = frozenset({"satoshi", "btc", "ampere", "doge"})

# The keywords of the script syntax.
KEYWORDS = frozenset({"txn", "choose", "inl", "inr"})

# A unit token or an address name: letters, digits and underscores, not
# all digits, and neither ``_``, a disposal, nor a keyword, so that a
# script can write it.
NAME_RE = re.compile(r"(?!(?:\d+|_|%s)\Z)[A-Za-z0-9_]+\Z" % "|".join(sorted(KEYWORDS)))

UNITS_ENV_VAR = "LLBC_UNITS"


def check_unit(token: str) -> None:
    """Raise ValueError unless ``token`` is a valid unit token: a name
    that a script can write as a unit literal."""
    if not NAME_RE.match(token):
        raise ValueError(f"invalid currency unit token: {token!r}")


def load_units(path: str) -> frozenset[str]:
    """Read a unit registry file: one token per line."""
    units = set()
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            check_unit(line)
            units.add(line)
    return frozenset(units)


def active_units() -> frozenset[str]:
    """The registry for this process: defaults plus any LLBC_UNITS file."""
    path = os.environ.get(UNITS_ENV_VAR)
    if path:
        return DEFAULT_UNITS | load_units(path)
    return DEFAULT_UNITS
