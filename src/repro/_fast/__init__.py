"""Optional compiled core (a hand-written CPython extension).

``repro._fast._corec`` holds C twins of the simulator's hot paths — the
scheduler dispatch loop, the receive buffer, the chunk reassembler and the
SRP delivery sweep.  The extension is *opt-in*: a plain checkout (or a
plain ``pip install``) never needs a C compiler, and everything runs on the
pure-Python implementations.  Build it with::

    python tools/build_accel.py

Selection happens in :mod:`repro.core.accel`; this package only answers
"is the extension importable?".  Setting ``REPRO_PURE=1`` in the
environment refuses the import outright — the escape hatch for bisecting a
suspected accel bug or for pinning a benchmark to the pure interpreter.

This module must stay import-cycle-free: it is imported by the lowest
layers (``sim.scheduler``, ``srp.ordering``) and therefore must not import
anything else from :mod:`repro`.
"""

from __future__ import annotations

import os

corec = None
if os.environ.get("REPRO_PURE", "").strip().lower() not in ("1", "true", "yes"):
    try:
        from . import _corec as corec  # type: ignore[no-redef]
    except ImportError:
        corec = None

#: Active implementation slots, read by the hot call sites each call
#: (``None`` selects the pure-Python path).  They live HERE, in the leaf
#: package, because the modules that read them (``sim.scheduler``,
#: ``srp.engine``) sit below :mod:`repro.core` in the import graph; the
#: :mod:`repro.core.accel` facade is the only writer.
scheduler_run_until = None        #: compiled EventScheduler.run_until loop
engine_try_deliver = None         #: compiled TotemSrp._try_deliver sweep
engine_on_batch = None            #: compiled TotemSrp.on_batch
engine_broadcast_batched = None   #: compiled TotemSrp._broadcast_batched
engine_is_duplicate_batch = None  #: compiled TotemSrp.is_duplicate_batch
codec_encode = None               #: compiled encode_packet (DATA/BATCH)
codec_decode = None               #: compiled decode_packet (DATA/BATCH)
cpu_submit = None                 #: compiled NodeCpu.submit
cpu_finish = None                 #: compiled NodeCpu._finish body

__all__ = [
    "corec",
    "scheduler_run_until",
    "engine_try_deliver",
    "engine_on_batch",
    "engine_broadcast_batched",
    "engine_is_duplicate_batch",
    "codec_encode",
    "codec_decode",
    "cpu_submit",
    "cpu_finish",
]
