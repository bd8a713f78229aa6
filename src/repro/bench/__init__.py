"""Experiment harness: method factories, shared contexts, reporting, and one
runner per paper table/figure."""

from .methods import (DEFAULT_Z_MULTIPLE, METHOD_ORDER, make_methods,
                      scaled_higgs_config)
from .context import (DEFAULT_SCALE, ExperimentContext, build_context,
                      clear_context_cache, get_context)
from .reporting import format_table, save_rows
from . import experiments

__all__ = [
    "DEFAULT_Z_MULTIPLE", "METHOD_ORDER", "make_methods", "scaled_higgs_config",
    "DEFAULT_SCALE", "ExperimentContext", "build_context",
    "clear_context_cache", "get_context",
    "format_table", "save_rows",
    "experiments",
]
