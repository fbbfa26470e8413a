"""wzcert: exact mod-p certification of level-one eigenform congruence hypotheses.

The library computes truncated q-expansions of level-one modular forms,
mod-p Hecke eigen systems, tame inertial characters of symmetric powers,
and packages per-prime verdicts into machine-readable certificates.
"""

__version__ = "0.1.0"

TOOL_VERSION = __version__

# the layout of disk cache entries; bump it whenever an entry computed for the
# same key would change, so that older entries read as misses
CACHE_SCHEMA = 2
