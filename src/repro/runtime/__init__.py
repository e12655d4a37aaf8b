"""The RV runtime: weak-keyed indexing trees, lazy monitor GC, dispatch."""

from .engine import SYSTEMS, MonitoringEngine, PropertyRuntime
from .gc_strategies import (
    STRATEGY_NAMES,
    AllParamsDead,
    CoenableGc,
    GcStrategy,
    NoGc,
    StateBasedGc,
    make_strategy,
)
from .indexing import IndexingTree, JoinIndex, Leaf
from .instance import MonitorInstance
from .refs import ParamLedger
from .rvmap import RVMap
from .rvset import RVSet
from .statistics import MonitorStats
from .tracelog import ReplayToken, TraceRecorder, replay

__all__ = [
    "SYSTEMS",
    "MonitoringEngine",
    "PropertyRuntime",
    "STRATEGY_NAMES",
    "AllParamsDead",
    "CoenableGc",
    "GcStrategy",
    "NoGc",
    "StateBasedGc",
    "make_strategy",
    "IndexingTree",
    "JoinIndex",
    "Leaf",
    "MonitorInstance",
    "ParamLedger",
    "RVMap",
    "RVSet",
    "MonitorStats",
    "ReplayToken",
    "TraceRecorder",
    "replay",
]
