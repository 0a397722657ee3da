"""The fusion-certificate checker's import path inside the certifier package.

The checker lives in :mod:`repro.core.replay`, next to the off-load
certificate checker; this module keeps ``repro.analysis.absint.replay``
importable for callers and tracers that name it.
"""

from repro.core.replay import REPLAY_TRIP_LIMIT, check_fusion_certificate

__all__ = ["REPLAY_TRIP_LIMIT", "check_fusion_certificate"]
