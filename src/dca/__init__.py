"""Dendritic-cell anomaly detection: a population of simulated immune
cells fuses multi-channel sensor signals, tags sampled antigen labels
with a mature/semi-mature context, and aggregates presentations into
per-label anomaly verdicts."""

import logging

from .analysis import (AntigenVerdict, PairedTTestResult, RunSummary,
                       aggregate, classify, count_errors, paired_t_test,
                       process_mag)
from .core import (Context, InvalidWeights, SignalVector, WeightMatrix,
                   fuse_signals)
from .datasets import (LabelledItem, SignalMapping, item_to_signals,
                       load_items, load_uci, order_stream, run_bc_experiment,
                       select_attributes, synthetic_items)
from .streams import (Event, EventDrivenRunner, ScenarioConfig, SignalMask,
                      StreamClient, TissueServer, derive_signals,
                      generate_scenario, read_log, replay,
                      run_portscan_experiment, write_log)
from .tissue import (CellSnapshot, MigrationRecord, PopulationConfig, Tissue,
                     read_migration_log, write_migration_log)

__version__ = "0.1.0"

# warnings (a dropped server client) reach only the handlers an
# application configures, not logging's last-resort stderr handler
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AntigenVerdict", "CellSnapshot", "Context", "Event", "EventDrivenRunner",
    "InvalidWeights", "LabelledItem", "MigrationRecord", "PairedTTestResult",
    "PopulationConfig", "RunSummary", "ScenarioConfig", "SignalMapping",
    "SignalMask", "SignalVector", "StreamClient", "Tissue", "TissueServer",
    "WeightMatrix", "aggregate", "classify", "count_errors",
    "derive_signals", "fuse_signals", "generate_scenario", "item_to_signals",
    "load_items", "load_uci", "order_stream", "paired_t_test", "process_mag",
    "read_log", "read_migration_log", "replay", "run_bc_experiment",
    "run_portscan_experiment", "select_attributes", "synthetic_items",
    "write_log", "write_migration_log",
]
