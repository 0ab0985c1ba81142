"""Virtual-time streaming substrate: system contract and simulation engine.

Names are read from their modules on first use: the engine imports the
system contract through this package, and must not load the engines (which
import the engine core) with it.
"""

from __future__ import annotations

from repro import _lazy_exports

_EXPORTS = {
    "EmitResult": "repro.streaming.system",
    "ERSystem": "repro.streaming.system",
    "PipelineCosts": "repro.streaming.system",
    "PipelineStats": "repro.streaming.system",
    "PipelinedStreamingEngine": "repro.streaming.pipelined",
    "RunResult": "repro.streaming.engine",
    "StreamingEngine": "repro.streaming.engine",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
