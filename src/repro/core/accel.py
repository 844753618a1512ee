"""Select the compiled or pure-Python implementation of each hot path.

The repo ships every hot path twice: a pure-Python implementation (the
reference — always present, always correct) and an optional C twin in
:mod:`repro._fast`.  This facade is the single switch between them.  The
hot call sites read a slot attribute on :mod:`repro._fast` per call::

    fast = _fast.scheduler_run_until
    if fast is not None:
        return fast(self, t)
    ...pure implementation...

so flipping modes rebinds a handful of attributes and takes effect
immediately, even for objects constructed earlier.  The equivalence tests
use exactly that to run one world pure and one compiled in a single
process and compare delivery logs byte for byte.

The slots live on :mod:`repro._fast` (an import-graph leaf) rather than
here because the modules reading them sit *below* :mod:`repro.core`; this
facade is their only writer.

Modes
-----
* ``compiled`` — the default whenever ``repro._fast._corec`` imports
  (i.e. it was built with ``python tools/build_accel.py`` and
  ``REPRO_PURE`` is unset).
* ``pure`` — the reference implementations; always available.

:func:`activate` runs once from the bottom of ``repro/__init__.py`` (by
which point every module the C core needs is loaded) and selects
``compiled`` when available.  ``REPRO_PURE=1`` in the environment refuses
the extension import entirely (see :mod:`repro._fast`), making ``pure``
the only mode — the escape hatch for bisecting a suspected accel bug or
pinning a benchmark to the interpreter.

State containers (:class:`repro._fast._corec.ReceiveBuffer`,
``Reassembler``) are chosen at *construction* time by factories in
``srp.ordering`` / ``srp.packing`` — an engine built in compiled mode
keeps its compiled buffers even if the mode later flips (both the C and
pure sweeps accept either container, so mixed worlds stay correct).
"""

from __future__ import annotations

from functools import partial

from .. import _fast
from .._fast import corec

_mode = "pure"
_bound = False
_activated = False


def available() -> bool:
    """Whether the compiled extension imported (built, and not REPRO_PURE)."""
    return corec is not None


def mode() -> str:
    """The active mode: ``"compiled"`` or ``"pure"``."""
    return _mode


def enabled() -> bool:
    """Whether the compiled implementations are active right now."""
    return _mode == "compiled"


def _bind() -> None:
    """Hand the C core the Python objects it compares against / constructs.

    Deferred (not at module import) because ``SrpState`` lives in
    :mod:`repro.srp.engine`, which sits above the modules that read the
    slots — by the time anything calls :func:`use_compiled` the engine
    module is importable without a cycle.
    """
    global _bound
    if _bound or corec is None:
        return
    from ..errors import (
        ChecksumError,
        CodecError,
        SimulationError,
        TransportError,
    )
    from ..core.base import ReplicationEngine
    from ..net.simlan import LanPort, SimLan
    from ..net.stack import NodeCpu, _PortDeliver
    from ..srp.engine import SrpState, TotemSrp
    from ..types import DeliveredMessage, DeliveryLog, RingId
    from ..wire.packets import (
        BATCH_BASE_BYTES,
        BATCH_MAX_PACKETS,
        BATCH_SUB_HEADER_BYTES,
        CHUNK_HEADER_BYTES,
        BatchPacket,
        Chunk,
        ChunkKind,
        DataPacket,
    )

    corec.bind(SimulationError, DeliveredMessage, ChunkKind.APP,
               SrpState.RECOVERY,
               Chunk, DataPacket, BatchPacket, RingId,
               CodecError, ChecksumError,
               TransportError, DeliveryLog.on_deliver,
               partial, SimLan._fanout, NodeCpu._finish,
               _PortDeliver, ReplicationEngine._recv_cost,
               TotemSrp._try_deliver, NodeCpu.submit,
               LanPort.broadcast, LanPort.unicast,
               ReplicationEngine.on_packet, ReplicationEngine.recv_batch,
               TotemSrp.on_batch,
               CHUNK_HEADER_BYTES, BATCH_BASE_BYTES,
               BATCH_SUB_HEADER_BYTES, BATCH_MAX_PACKETS)
    _bound = True


def use_compiled() -> None:
    """Switch every hot path to the C implementations.

    Raises :class:`RuntimeError` when the extension is unavailable
    (not built, or disabled via ``REPRO_PURE=1``).
    """
    global _mode, _activated
    if corec is None:
        raise RuntimeError(
            "compiled core unavailable: build it with "
            "`python tools/build_accel.py` (and unset REPRO_PURE)")
    _bind()
    _activated = True
    _fast.scheduler_run_until = corec.run_until
    _fast.engine_try_deliver = corec.try_deliver
    _fast.engine_on_batch = corec.on_batch
    _fast.engine_broadcast_batched = corec.broadcast_batched
    _fast.engine_is_duplicate_batch = corec.is_duplicate_batch
    _fast.codec_encode = corec.encode_packet
    _fast.codec_decode = corec.decode_packet
    _fast.cpu_submit = corec.cpu_submit
    _fast.cpu_finish = corec.cpu_finish
    _mode = "compiled"


def use_pure() -> None:
    """Switch every hot path to the pure-Python reference implementations."""
    global _mode, _activated
    _activated = True
    _fast.scheduler_run_until = None
    _fast.engine_try_deliver = None
    _fast.engine_on_batch = None
    _fast.engine_broadcast_batched = None
    _fast.engine_is_duplicate_batch = None
    _fast.codec_encode = None
    _fast.codec_decode = None
    _fast.cpu_submit = None
    _fast.cpu_finish = None
    _mode = "pure"


def activate() -> None:
    """Select the default mode: compiled when built, pure otherwise.

    Runs once; later calls are no-ops, so an explicit :func:`use_pure` or
    :func:`use_compiled` is never overridden.  Called from the bottom of
    ``repro/__init__.py`` so every program has the fast paths armed
    without further ceremony.
    """
    global _activated
    if _activated:
        return
    _activated = True
    if corec is not None:
        use_compiled()
