"""wzcert: exact mod-p certification of level-one eigenform congruence hypotheses.

The library computes truncated q-expansions of level-one modular forms,
mod-p Hecke eigen systems, tame inertial characters of symmetric powers,
and packages per-prime verdicts into machine-readable certificates.
"""

__version__ = "0.1.0"

TOOL_VERSION = __version__

# the layout of the disk cache files; bump it whenever it changes or an entry
# computed for the same key would change, so that older files read as misses
CACHE_SCHEMA = 3
