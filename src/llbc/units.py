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

# A unit token or an address name: letters, digits and underscores, not
# all digits.
NAME_RE = re.compile(r"(?!\d+$)[A-Za-z0-9_]+\Z")

# The keywords of the script syntax. Neither they nor ``_``, a disposal,
# can be written as a unit.
KEYWORDS = frozenset({"txn", "choose", "inl", "inr"})

UNITS_ENV_VAR = "LLBC_UNITS"


def check_unit(token: str) -> None:
    """Raise ValueError unless ``token`` is a valid unit token: a name
    that a script can write as a unit literal."""
    if not NAME_RE.match(token) or token == "_" or token in KEYWORDS:
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
