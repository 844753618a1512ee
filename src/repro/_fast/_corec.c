/* _corec: hand-written CPython acceleration of the simulator's hot paths.
 *
 * Design rule (docs/PERFORMANCE.md): ALL simulation state stays in ordinary
 * Python objects — the scheduler's heap list, the clock's `_now` float,
 * the engines' dicts and ints.  The C code here only
 * *executes* over that state, so `copy.deepcopy` world-forking
 * (repro.check explore), canonical digests and pickling all keep working
 * unchanged, and every function has a byte-for-byte-equivalent pure-Python
 * twin selected by the `repro.core.accel` facade.
 *
 * Compiled pieces:
 *   run_until(scheduler, t)       — the event-dispatch inner loop
 *   ReceiveBuffer                 — seq-ordered packet store (srp/ordering)
 *   Reassembler                   — chunk reassembly      (srp/packing)
 *   try_deliver(engine)           — contiguous delivery sweep
 *   on_batch(engine, batch, net)  — inline frame-train apply + one sweep
 *   encode_data / encode_batch /
 *   decode_data / decode_batch    — wire codec for the data hot kinds
 *
 * Anything rare (membership, recovery, foreign traffic, fragmentation
 * tails) bails out to the engine's Python methods, which keeps the
 * compiled surface small and the protocol logic in one place.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <string.h>

/* ---------------------------------------------------------------------
 * cached objects, bound once from Python via _corec.bind(...)
 * ------------------------------------------------------------------- */

static PyObject *g_sim_error;        /* repro.errors.SimulationError */
static PyObject *g_delivered_cls;    /* repro.types.DeliveredMessage */
static PyObject *g_chunk_app;        /* ChunkKind.APP */
static PyObject *g_state_recovery;   /* SrpState.RECOVERY */

/* interned attribute-name strings */
static PyObject *s_heap, *s_popleft, *s_clock, *s_now_attr,
    *s_dead, *s_events_processed, *s_seq, *s_sender, *s_ring_id, *s_chunks,
    *s_kind, *s_flags, *s_data, *s_msg_id, *s_recv_buffer, *s_delivered_seq,
    *s_stable_seq, *s_reassembler, *s_stats, *s_on_deliver, *s_config,
    *s_safe_delivery, *s_my_aru, *s_msgs_delivered, *s_bytes_delivered,
    *s_packets_received, *s_duplicate_packets,
    *s_stopped, *s_ring_aliases, *s_last_token, *s_state,
    *s_cancel_retrans, *s_retrans_timer, *s_absorb_recovery, *s_on_data;

static PyObject *g_empty_bytes;      /* b"" (for join) */
static PyObject *s_join, *s_get, *s_feed, *s_insert;

/* wire classes + codec errors (bound alongside the rest) */
static PyObject *g_chunk_cls;        /* repro.wire.packets.Chunk */
static PyObject *g_data_cls;         /* repro.wire.packets.DataPacket */
static PyObject *g_batch_cls;        /* repro.wire.packets.BatchPacket */
static PyObject *g_ring_cls;         /* repro.types.RingId */
static PyObject *g_codec_error;      /* repro.errors.CodecError */
static PyObject *g_checksum_error;   /* repro.errors.ChecksumError */
static long long g_chunk_hdr;        /* CHUNK_HEADER_BYTES */
static long long g_batch_base;       /* BATCH_BASE_BYTES */
static long long g_batch_sub;        /* BATCH_SUB_HEADER_BYTES */
static long long g_batch_max;        /* BATCH_MAX_PACKETS */

static PyObject *g_empty_tuple;      /* () */
static PyObject *g_flag_whole;       /* int(FIRST | LAST) == 3 */

static PyObject *s_queue, *s_bytes, *s_max_payload, *s_enable_packing,
    *s_next_msg_id, *s_partial, *s_next_packet_chunks, *s_packer,
    *s_transport, *s_broadcast_data, *s_broadcast_batch,
    *s_packets_broadcast, *s_node_id, *s_packets, *s_wire_size_attr,
    *s_has, *s_representative, *s_validate;

/* CPU-pipeline / delivery-log fast paths (third coverage round) */
static PyObject *g_transport_error;  /* repro.errors.TransportError */
static PyObject *g_dlog_on_deliver;  /* DeliveryLog.on_deliver (plain fn) */
static PyObject *g_partial_cls;      /* functools.partial (deferred cost) */
static PyObject *g_zero;             /* int(0) */

/* dispatch-site shortcuts (fourth coverage round): the *scheduled*
 * callbacks stay ordinary bound methods (the explorer and deepcopy
 * snapshots depend on that), but when the compiled run_until loop pops
 * one whose function body already has a C twin, it dispatches straight
 * to the twin instead of paying the Python wrapper frame. */
static PyObject *g_fanout_fn;        /* SimLan._fanout */
static PyObject *g_cpu_finish_fn;    /* NodeCpu._finish */
static PyObject *g_portdeliver_cls;  /* net.stack._PortDeliver */
static PyObject *g_recv_cost_fn;     /* ReplicationEngine._recv_cost */
static PyObject *g_try_deliver_fn;   /* TotemSrp._try_deliver */
static PyObject *g_cpu_submit_fn;    /* NodeCpu.submit */
static PyObject *g_port_broadcast_fn; /* LanPort.broadcast */
static PyObject *g_port_unicast_fn;  /* LanPort.unicast */
static PyObject *g_on_packet_fn;     /* ReplicationEngine.on_packet */
static PyObject *g_recv_batch_fn;    /* ReplicationEngine.recv_batch */
static PyObject *g_srp_on_batch_fn;  /* TotemSrp.on_batch */

static PyObject *s_messages, *s_finish, *s_running, *s_append, *s_counter,
    *s_recv_cost_fn, *s_stack_attr, *s_func_attr, *s_args_attr, *s_handler,
    *s_busy_time, *s_operations, *s_scheduler,
    *s_dispatch_meth, *s_cpu_attr, *s_network_attr, *s_recv_lan,
    *s_srp_attr, *s_srp_pub, *s_recv_batch, *s_on_batch_meth,
    *s_cpu_recv, *s_cpu_byte_recv, *s_cpu_msg, *s_cpu_dup,
    *s_cpu_byte_dup, *s_try_deliver, *s_submit, *s_wire_size_meth,
    *s_observer, *s_faults, *s_down, *s_send_blocked, *s_recv_blocked,
    *s_blocked_pairs, *s_partition, *s_burst_loss, *s_drop_serials,
    *s_extra_loss, *s_loss_rate, *s_tx_serial, *s_generations, *s_channels,
    *s_channel_receivers, *s_medium_free, *s_fanout_attr, *s_frames_offered,
    *s_frames_sent, *s_deliveries, *s_frames_blocked, *s_payload_bytes,
    *s_wire_bytes, *s_frame_overhead, *s_min_frame, *s_latency, *s_bandwidth,
    *s_lan_attr, *s_node_attr, *s_generation_attr;

static int dispatch_event(PyObject *cb, PyObject *cargs);

static int
intern_all(void)
{
#define INTERN(var, name) \
    if (!(var = PyUnicode_InternFromString(name))) return -1;
    INTERN(s_heap, "_heap")
    INTERN(s_popleft, "popleft")
    INTERN(s_clock, "clock")
    INTERN(s_now_attr, "_now")
    INTERN(s_dead, "_dead")
    INTERN(s_events_processed, "_events_processed")
    INTERN(s_seq, "seq")
    INTERN(s_sender, "sender")
    INTERN(s_ring_id, "ring_id")
    INTERN(s_chunks, "chunks")
    INTERN(s_kind, "kind")
    INTERN(s_flags, "flags")
    INTERN(s_data, "data")
    INTERN(s_msg_id, "msg_id")
    INTERN(s_recv_buffer, "recv_buffer")
    INTERN(s_delivered_seq, "_delivered_seq")
    INTERN(s_stable_seq, "_stable_seq")
    INTERN(s_reassembler, "_reassembler")
    INTERN(s_stats, "stats")
    INTERN(s_on_deliver, "on_deliver")
    INTERN(s_config, "config")
    INTERN(s_safe_delivery, "safe_delivery")
    INTERN(s_my_aru, "my_aru")
    INTERN(s_msgs_delivered, "msgs_delivered")
    INTERN(s_bytes_delivered, "bytes_delivered")
    INTERN(s_packets_received, "packets_received")
    INTERN(s_duplicate_packets, "duplicate_packets")
    INTERN(s_stopped, "_stopped")
    INTERN(s_ring_aliases, "_ring_aliases")
    INTERN(s_last_token, "_last_token")
    INTERN(s_state, "state")
    INTERN(s_cancel_retrans, "_cancel_token_retrans_timer")
    INTERN(s_retrans_timer, "_token_retrans_timer")
    INTERN(s_absorb_recovery, "_absorb_recovery_progress")
    INTERN(s_on_data, "on_data")
    INTERN(s_join, "join")
    INTERN(s_get, "get")
    INTERN(s_feed, "feed")
    INTERN(s_insert, "insert")
    INTERN(s_queue, "_queue")
    INTERN(s_bytes, "_bytes")
    INTERN(s_max_payload, "_max_payload")
    INTERN(s_enable_packing, "_enable_packing")
    INTERN(s_next_msg_id, "_next_msg_id")
    INTERN(s_partial, "_partial")
    INTERN(s_next_packet_chunks, "next_packet_chunks")
    INTERN(s_packer, "_packer")
    INTERN(s_transport, "transport")
    INTERN(s_broadcast_data, "broadcast_data")
    INTERN(s_broadcast_batch, "broadcast_batch")
    INTERN(s_packets_broadcast, "packets_broadcast")
    INTERN(s_node_id, "node_id")
    INTERN(s_packets, "packets")
    INTERN(s_wire_size_attr, "_wire_size")
    INTERN(s_has, "has")
    INTERN(s_representative, "representative")
    INTERN(s_validate, "validate")
    INTERN(s_messages, "messages")
    INTERN(s_finish, "_finish")
    INTERN(s_running, "_running")
    INTERN(s_append, "append")
    INTERN(s_counter, "_counter")
    INTERN(s_recv_cost_fn, "_recv_cost_fn")
    INTERN(s_stack_attr, "_stack")
    INTERN(s_func_attr, "func")
    INTERN(s_args_attr, "args")
    INTERN(s_handler, "_handler")
    INTERN(s_busy_time, "busy_time")
    INTERN(s_operations, "operations")
    INTERN(s_scheduler, "_scheduler")
    INTERN(s_dispatch_meth, "_dispatch")
    INTERN(s_cpu_attr, "_cpu")
    INTERN(s_network_attr, "_network")
    INTERN(s_recv_lan, "_recv_lan_config")
    INTERN(s_srp_attr, "_srp")
    INTERN(s_srp_pub, "srp")
    INTERN(s_recv_batch, "recv_batch")
    INTERN(s_on_batch_meth, "on_batch")
    INTERN(s_cpu_recv, "cpu_per_recv")
    INTERN(s_cpu_byte_recv, "cpu_per_byte_recv")
    INTERN(s_cpu_msg, "cpu_per_msg")
    INTERN(s_cpu_dup, "cpu_per_dup_recv")
    INTERN(s_cpu_byte_dup, "cpu_per_byte_dup")
    INTERN(s_try_deliver, "_try_deliver")
    INTERN(s_submit, "submit")
    INTERN(s_wire_size_meth, "wire_size")
    INTERN(s_observer, "observer")
    INTERN(s_faults, "faults")
    INTERN(s_down, "down")
    INTERN(s_send_blocked, "send_blocked")
    INTERN(s_recv_blocked, "recv_blocked")
    INTERN(s_blocked_pairs, "blocked_pairs")
    INTERN(s_partition, "partition")
    INTERN(s_burst_loss, "burst_loss")
    INTERN(s_drop_serials, "drop_serials")
    INTERN(s_extra_loss, "extra_loss_rate")
    INTERN(s_loss_rate, "loss_rate")
    INTERN(s_tx_serial, "_tx_serial")
    INTERN(s_generations, "_generations")
    INTERN(s_channels, "_channels")
    INTERN(s_channel_receivers, "_channel_receivers")
    INTERN(s_medium_free, "_medium_free_at")
    INTERN(s_fanout_attr, "_fanout")
    INTERN(s_frames_offered, "frames_offered")
    INTERN(s_frames_sent, "frames_sent")
    INTERN(s_deliveries, "deliveries")
    INTERN(s_frames_blocked, "frames_blocked")
    INTERN(s_payload_bytes, "payload_bytes")
    INTERN(s_wire_bytes, "wire_bytes")
    INTERN(s_frame_overhead, "frame_overhead")
    INTERN(s_min_frame, "min_frame")
    INTERN(s_latency, "latency")
    INTERN(s_bandwidth, "bandwidth_bps")
    INTERN(s_lan_attr, "_lan")
    INTERN(s_node_attr, "_node")
    INTERN(s_generation_attr, "_generation")
#undef INTERN
    if (!(g_empty_bytes = PyBytes_FromStringAndSize("", 0)))
        return -1;
    if (!(g_empty_tuple = PyTuple_New(0)))
        return -1;
    if (!(g_flag_whole = PyLong_FromLong(3)))
        return -1;
    if (!(g_zero = PyLong_FromLong(0)))
        return -1;
    return 0;
}

/* _corec.bind(sim_error, delivered_cls, chunk_app, state_recovery,
 *             chunk_cls, data_cls, batch_cls, ring_cls,
 *             codec_error, checksum_error,
 *             transport_error, dlog_on_deliver, partial_cls,
 *             fanout_fn, cpu_finish_fn,
 *             portdeliver_cls, recv_cost_fn, try_deliver_fn, cpu_submit_fn,
 *             port_broadcast_fn, port_unicast_fn,
 *             chunk_header_bytes, batch_base_bytes, batch_sub_bytes,
 *             batch_max_packets) */
static PyObject *
corec_bind(PyObject *self, PyObject *args)
{
    PyObject *err, *dcls, *app, *rec, *ccls, *pcls, *bcls, *rcls,
        *cerr, *crcerr, *terr, *dlogfn, *partcls,
        *fanoutfn, *cfinfn, *pdcls, *rcostfn,
        *tdfn, *csubfn, *pbfn, *pufn, *onpktfn, *recvbfn, *srponbfn;
    int chunk_hdr, batch_base, batch_sub, batch_max;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOOOOOOOOOOOOOiiii",
                          &err, &dcls, &app, &rec,
                          &ccls, &pcls, &bcls, &rcls, &cerr, &crcerr,
                          &terr, &dlogfn, &partcls,
                          &fanoutfn, &cfinfn,
                          &pdcls, &rcostfn, &tdfn, &csubfn, &pbfn, &pufn,
                          &onpktfn, &recvbfn, &srponbfn,
                          &chunk_hdr, &batch_base, &batch_sub, &batch_max))
        return NULL;
    if (!PyType_Check(dcls)
            || !PyType_IsSubtype((PyTypeObject *)dcls, &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "DeliveredMessage must be a tuple subclass");
        return NULL;
    }
    if (!PyType_Check(ccls) || !PyType_Check(pcls) || !PyType_Check(bcls)
            || !PyType_Check(rcls)) {
        PyErr_SetString(PyExc_TypeError,
                        "Chunk/DataPacket/BatchPacket/RingId must be types");
        return NULL;
    }
    Py_XSETREF(g_sim_error, Py_NewRef(err));
    Py_XSETREF(g_delivered_cls, Py_NewRef(dcls));
    Py_XSETREF(g_chunk_app, Py_NewRef(app));
    Py_XSETREF(g_state_recovery, Py_NewRef(rec));
    Py_XSETREF(g_chunk_cls, Py_NewRef(ccls));
    Py_XSETREF(g_data_cls, Py_NewRef(pcls));
    Py_XSETREF(g_batch_cls, Py_NewRef(bcls));
    Py_XSETREF(g_ring_cls, Py_NewRef(rcls));
    Py_XSETREF(g_codec_error, Py_NewRef(cerr));
    Py_XSETREF(g_checksum_error, Py_NewRef(crcerr));
    Py_XSETREF(g_transport_error, Py_NewRef(terr));
    Py_XSETREF(g_dlog_on_deliver, Py_NewRef(dlogfn));
    Py_XSETREF(g_partial_cls, Py_NewRef(partcls));
    Py_XSETREF(g_fanout_fn, Py_NewRef(fanoutfn));
    Py_XSETREF(g_cpu_finish_fn, Py_NewRef(cfinfn));
    Py_XSETREF(g_portdeliver_cls, Py_NewRef(pdcls));
    Py_XSETREF(g_recv_cost_fn, Py_NewRef(rcostfn));
    Py_XSETREF(g_try_deliver_fn, Py_NewRef(tdfn));
    Py_XSETREF(g_cpu_submit_fn, Py_NewRef(csubfn));
    Py_XSETREF(g_port_broadcast_fn, Py_NewRef(pbfn));
    Py_XSETREF(g_port_unicast_fn, Py_NewRef(pufn));
    Py_XSETREF(g_on_packet_fn, Py_NewRef(onpktfn));
    Py_XSETREF(g_recv_batch_fn, Py_NewRef(recvbfn));
    Py_XSETREF(g_srp_on_batch_fn, Py_NewRef(srponbfn));
    g_chunk_hdr = chunk_hdr;
    g_batch_base = batch_base;
    g_batch_sub = batch_sub;
    g_batch_max = batch_max;
    Py_RETURN_NONE;
}

static int
check_bound(void)
{
    if (g_delivered_cls == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_corec.bind() has not been called");
        return -1;
    }
    return 0;
}

/* ---------------------------------------------------------------------
 * small helpers
 * ------------------------------------------------------------------- */

/* Read an integer attribute as long long.  -1 with error set on failure. */
static int
attr_as_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    long long r = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (r == -1 && PyErr_Occurred())
        return -1;
    *out = r;
    return 0;
}

static int
attr_set_ll(PyObject *obj, PyObject *name, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return r;
}

/* attr += delta, via ordinary attribute access (visible to Python). */
static int
attr_add_ll(PyObject *obj, PyObject *name, long long delta)
{
    long long v;
    if (attr_as_ll(obj, name, &v) < 0)
        return -1;
    return attr_set_ll(obj, name, v + delta);
}

/* Python-number attribute as double. */
static int
attr_as_double(PyObject *obj, PyObject *name, double *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    double d = PyFloat_AsDouble(v);
    Py_DECREF(v);
    if (d == -1.0 && PyErr_Occurred())
        return -1;
    *out = d;
    return 0;
}

/* attr += delta for float attributes (same IEEE add as the pure `+=`). */
static int
attr_add_double(PyObject *obj, PyObject *name, double delta)
{
    double v;
    if (attr_as_double(obj, name, &v) < 0)
        return -1;
    PyObject *nv = PyFloat_FromDouble(v + delta);
    if (nv == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, nv);
    Py_DECREF(nv);
    return r;
}

/* ---------------------------------------------------------------------
 * heap entry comparison + pop (mirrors heapq over [when, counter, cb, args])
 * ------------------------------------------------------------------- */

/* entry a < entry b under the (when, counter) key.  1/0, -1 on error. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    if (!PyList_Check(a) || PyList_GET_SIZE(a) < 2
            || !PyList_Check(b) || PyList_GET_SIZE(b) < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "heap entries must be [when, counter, cb, args] lists");
        return -1;
    }
    PyObject *wa = PyList_GET_ITEM(a, 0);
    PyObject *wb = PyList_GET_ITEM(b, 0);
    if (PyFloat_CheckExact(wa) && PyFloat_CheckExact(wb)) {
        double da = PyFloat_AS_DOUBLE(wa), db = PyFloat_AS_DOUBLE(wb);
        if (da < db)
            return 1;
        if (da > db)
            return 0;
    }
    else {
        int r = PyObject_RichCompareBool(wa, wb, Py_LT);
        if (r != 0)
            return r;               /* strictly less, or error */
        r = PyObject_RichCompareBool(wb, wa, Py_LT);
        if (r < 0)
            return -1;
        if (r == 1)
            return 0;               /* strictly greater */
    }
    /* equal when: counters are unique ints, compare them */
    PyObject *ca = PyList_GET_ITEM(a, 1);
    PyObject *cb = PyList_GET_ITEM(b, 1);
    if (PyLong_CheckExact(ca) && PyLong_CheckExact(cb)) {
        long long la = PyLong_AsLongLong(ca);
        long long lb = PyLong_AsLongLong(cb);
        if ((la == -1 || lb == -1) && PyErr_Occurred())
            return -1;
        return la < lb;
    }
    return PyObject_RichCompareBool(ca, cb, Py_LT);
}

/* heapq._siftup clone, entries only.  0 / -1. */
static int
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < n) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < n) {
            int r = entry_lt(PyList_GET_ITEM(heap, childpos),
                             PyList_GET_ITEM(heap, rightpos));
            if (r < 0)
                goto fail;
            if (!r)
                childpos = rightpos;
        }
        PyObject *child = PyList_GET_ITEM(heap, childpos);
        Py_INCREF(child);
        PyList_SetItem(heap, pos, child);   /* steals child ref */
        pos = childpos;
        childpos = 2 * pos + 1;
        n = PyList_GET_SIZE(heap);          /* callbacks cannot run here, but stay safe */
    }
    PyList_SetItem(heap, pos, newitem);     /* steals newitem ref */
    /* sift down toward the root (heapq does this as part of _siftup via
     * _siftdown(startpos, pos)) */
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        PyObject *item = PyList_GET_ITEM(heap, pos);
        int r = entry_lt(item, parent);
        if (r < 0)
            return -1;
        if (!r)
            break;
        Py_INCREF(parent);
        Py_INCREF(item);
        PyList_SetItem(heap, parentpos, item);
        PyList_SetItem(heap, pos, parent);
        pos = parentpos;
    }
    return 0;
fail:
    Py_DECREF(newitem);
    return -1;
}

/* Pop the smallest entry.  New reference; NULL on error (or empty heap). */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from empty heap");
        return NULL;
    }
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (PyList_GET_SIZE(heap) == 0)
        return last;                        /* it was the only entry */
    PyObject *smallest = PyList_GET_ITEM(heap, 0);
    Py_INCREF(smallest);
    PyList_SetItem(heap, 0, last);          /* steals last ref */
    if (heap_siftup(heap, 0) < 0) {
        Py_DECREF(smallest);
        return NULL;
    }
    return smallest;
}

/* heapq.heappush clone (append + siftdown toward the root).  0 / -1. */
static int
heap_push(PyObject *heap, PyObject *entry)
{
    if (PyList_Append(heap, entry) < 0)
        return -1;
    Py_ssize_t pos = PyList_GET_SIZE(heap) - 1;
    while (pos > 0) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        PyObject *item = PyList_GET_ITEM(heap, pos);
        int r = entry_lt(item, parent);
        if (r < 0)
            return -1;
        if (!r)
            break;
        Py_INCREF(parent);
        Py_INCREF(item);
        PyList_SetItem(heap, parentpos, item);
        PyList_SetItem(heap, pos, parent);
        pos = parentpos;
    }
    return 0;
}

/* ---------------------------------------------------------------------
 * run_until(scheduler, t): the dispatch inner loop
 * ------------------------------------------------------------------- */

/* Timestamp of a heap entry as a double; validates the entry shape. */
static int
entry_when(PyObject *entry, double *out)
{
    if (!PyList_Check(entry) || PyList_GET_SIZE(entry) != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "heap entries must be [when, counter, cb, args] lists");
        return -1;
    }
    double w = PyFloat_AsDouble(PyList_GET_ITEM(entry, 0));
    if (w == -1.0 && PyErr_Occurred())
        return -1;
    *out = w;
    return 0;
}

/* Set clock._now = when (write-through so callbacks observe the time). */
static int
clock_set(PyObject *clock, double when)
{
    PyObject *v = PyFloat_FromDouble(when);
    if (v == NULL)
        return -1;
    int r = PyObject_SetAttr(clock, s_now_attr, v);
    Py_DECREF(v);
    return r;
}

static PyObject *
corec_run_until(PyObject *self, PyObject *args)
{
    PyObject *sched;
    double t;
    if (!PyArg_ParseTuple(args, "Od", &sched, &t))
        return NULL;
    PyObject *heap = PyObject_GetAttr(sched, s_heap);
    PyObject *clock = NULL;
    if (heap == NULL || !PyList_Check(heap))
        goto type_fail;
    clock = PyObject_GetAttr(sched, s_clock);
    if (clock == NULL)
        goto fail;
    double now;
    if (attr_as_double(clock, s_now_attr, &now) < 0)
        goto fail;

    long long events = 0;

    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *top = PyList_GET_ITEM(heap, 0);
        double when;
        if (entry_when(top, &when) < 0)
            goto flush_fail;
        if (when > t)
            break;
        PyObject *entry = heap_pop(heap);
        if (entry == NULL)
            goto flush_fail;
        PyObject *cb = PyList_GET_ITEM(entry, 2);
        if (cb == Py_None) {
            /* tombstone: discard with the live accounting */
            if (attr_add_ll(sched, s_dead, -1) < 0) {
                Py_DECREF(entry);
                goto flush_fail;
            }
            Py_DECREF(entry);
            continue;
        }
        Py_INCREF(cb);
        if (PyList_SetItem(entry, 2, Py_NewRef(Py_None)) < 0) {
            Py_DECREF(cb);
            Py_DECREF(entry);
            goto flush_fail;
        }
        if (when != now) {
            /* Flush the batched event count on every clock advance so
             * mid-run observers read an accurate monotone value. */
            if (attr_add_ll(sched, s_events_processed, events) < 0) {
                Py_DECREF(cb);
                Py_DECREF(entry);
                goto fail;
            }
            events = 0;
            if (clock_set(clock, when) < 0) {
                Py_DECREF(cb);
                Py_DECREF(entry);
                goto fail;
            }
            now = when;
        }
        PyObject *cargs = PyList_GET_ITEM(entry, 3);
        Py_INCREF(cargs);
        int dres = dispatch_event(cb, cargs);
        Py_DECREF(cargs);
        Py_DECREF(cb);
        Py_DECREF(entry);
        if (dres < 0)
            goto flush_fail;
        events++;

        /* Same-timestamp run: drain heap entries sharing `when` without
         * touching the clock. */
        while (PyList_GET_SIZE(heap) > 0) {
            top = PyList_GET_ITEM(heap, 0);
            double w2;
            if (entry_when(top, &w2) < 0)
                goto flush_fail;
            if (w2 != when)
                break;
            entry = heap_pop(heap);
            if (entry == NULL)
                goto flush_fail;
            cb = PyList_GET_ITEM(entry, 2);
            if (cb == Py_None) {
                if (attr_add_ll(sched, s_dead, -1) < 0) {
                    Py_DECREF(entry);
                    goto flush_fail;
                }
                Py_DECREF(entry);
                continue;
            }
            Py_INCREF(cb);
            if (PyList_SetItem(entry, 2, Py_NewRef(Py_None)) < 0) {
                Py_DECREF(cb);
                Py_DECREF(entry);
                goto flush_fail;
            }
            cargs = PyList_GET_ITEM(entry, 3);
            Py_INCREF(cargs);
            dres = dispatch_event(cb, cargs);
            Py_DECREF(cargs);
            Py_DECREF(cb);
            Py_DECREF(entry);
            if (dres < 0)
                goto flush_fail;
            events++;
        }
    }

    if (attr_add_ll(sched, s_events_processed, events) < 0)
        goto fail;
    if (t > now && clock_set(clock, t) < 0)
        goto fail;
    Py_DECREF(heap);
    Py_DECREF(clock);
    Py_RETURN_NONE;

type_fail:
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError, "scheduler._heap must be a list");
    goto fail;
flush_fail:
    /* mirror the pure loop's try/finally: never lose fired events */
    {
        PyObject *etype, *evalue, *etb;
        PyErr_Fetch(&etype, &evalue, &etb);
        (void)attr_add_ll(sched, s_events_processed, events);
        PyErr_Restore(etype, evalue, etb);
    }
fail:
    Py_XDECREF(heap);
    Py_XDECREF(clock);
    return NULL;
}

/* ---------------------------------------------------------------------
 * ReceiveBuffer: sequence-ordered packet store (see srp/ordering.py)
 * ------------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *packets;          /* dict: seq (int) -> DataPacket */
    long long my_aru;
    long long high_seq;
    long long gc_floor;
} RBObject;

static PyTypeObject RBType;     /* forward */

static PyObject *
rb_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    RBObject *self = (RBObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->packets = PyDict_New();
    if (self->packets == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    self->my_aru = self->high_seq = self->gc_floor = 0;
    return (PyObject *)self;
}

static int
rb_traverse(RBObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->packets);
    return 0;
}

static int
rb_clear_gc(RBObject *self)
{
    Py_CLEAR(self->packets);
    return 0;
}

static void
rb_dealloc(RBObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_CLEAR(self->packets);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* insert(packet) -> bool: the C twin of ReceiveBuffer.insert. */
static PyObject *
rb_insert(RBObject *self, PyObject *packet)
{
    PyObject *seq_obj = PyObject_GetAttr(packet, s_seq);
    if (seq_obj == NULL)
        return NULL;
    long long seq = PyLong_AsLongLong(seq_obj);
    if (seq == -1 && PyErr_Occurred()) {
        Py_DECREF(seq_obj);
        return NULL;
    }
    if (seq <= self->gc_floor) {
        Py_DECREF(seq_obj);
        Py_RETURN_FALSE;
    }
    int dup = PyDict_Contains(self->packets, seq_obj);
    if (dup < 0) {
        Py_DECREF(seq_obj);
        return NULL;
    }
    if (dup) {
        Py_DECREF(seq_obj);
        Py_RETURN_FALSE;
    }
    if (PyDict_SetItem(self->packets, seq_obj, packet) < 0) {
        Py_DECREF(seq_obj);
        return NULL;
    }
    Py_DECREF(seq_obj);
    if (seq > self->high_seq)
        self->high_seq = seq;
    if (seq == self->my_aru + 1) {
        long long aru = seq;
        for (;;) {
            PyObject *probe = PyLong_FromLongLong(aru + 1);
            if (probe == NULL)
                return NULL;
            int present = PyDict_Contains(self->packets, probe);
            Py_DECREF(probe);
            if (present < 0)
                return NULL;
            if (!present)
                break;
            aru++;
        }
        self->my_aru = aru;
    }
    Py_RETURN_TRUE;
}

static PyObject *
rb_has(RBObject *self, PyObject *seq_obj)
{
    long long seq = PyLong_AsLongLong(seq_obj);
    if (seq == -1 && PyErr_Occurred())
        return NULL;
    if (seq <= self->gc_floor || seq <= self->my_aru)
        Py_RETURN_TRUE;
    int present = PyDict_Contains(self->packets, seq_obj);
    if (present < 0)
        return NULL;
    return PyBool_FromLong(present);
}

static PyObject *
rb_get(RBObject *self, PyObject *seq_obj)
{
    PyObject *packet = PyDict_GetItemWithError(self->packets, seq_obj);
    if (packet == NULL) {
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_NONE;
    }
    return Py_NewRef(packet);
}

static PyObject *
rb_has_gaps_up_to(RBObject *self, PyObject *upto_obj)
{
    long long upto = PyLong_AsLongLong(upto_obj);
    if (upto == -1 && PyErr_Occurred())
        return NULL;
    return PyBool_FromLong(self->my_aru < upto);
}

/* gc_below(seq) -> int: drop packets with sequence <= seq (stable
 * everywhere).  The C twin of ReceiveBuffer.gc_below: same clamp to
 * my_aru, same per-seq pop walk over the dict, same collected count. */
static PyObject *
rb_gc_below(RBObject *self, PyObject *seq_obj)
{
    long long seq = PyLong_AsLongLong(seq_obj);
    if (seq == -1 && PyErr_Occurred())
        return NULL;
    if (seq > self->my_aru)
        seq = self->my_aru;
    if (seq <= self->gc_floor)
        return PyLong_FromLong(0);
    long long collected = 0;
    for (long long s = self->gc_floor + 1; s <= seq; s++) {
        PyObject *key = PyLong_FromLongLong(s);
        if (key == NULL)
            return NULL;
        int present = PyDict_Contains(self->packets, key);
        if (present > 0 && PyDict_DelItem(self->packets, key) == 0) {
            collected++;
        }
        else if (present < 0 || PyErr_Occurred()) {
            Py_DECREF(key);
            return NULL;
        }
        Py_DECREF(key);
    }
    self->gc_floor = seq;
    return PyLong_FromLongLong(collected);
}

static Py_ssize_t
rb_len(RBObject *self)
{
    return PyDict_Size(self->packets);
}

static PyObject *
rb_reduce(RBObject *self, PyObject *unused)
{
    /* (cls, (), (packets, my_aru, high_seq, gc_floor)) — deepcopy/pickle */
    return Py_BuildValue("(O()(OLLL))", Py_TYPE(self), self->packets,
                         self->my_aru, self->high_seq, self->gc_floor);
}

static PyObject *
rb_setstate(RBObject *self, PyObject *state)
{
    PyObject *packets;
    long long aru, high, floor_;
    if (!PyArg_ParseTuple(state, "O!LLL", &PyDict_Type, &packets,
                          &aru, &high, &floor_))
        return NULL;
    Py_XSETREF(self->packets, Py_NewRef(packets));
    self->my_aru = aru;
    self->high_seq = high;
    self->gc_floor = floor_;
    Py_RETURN_NONE;
}

static PyObject *rb_get_my_aru(RBObject *self, void *c)
{ return PyLong_FromLongLong(self->my_aru); }
static PyObject *rb_get_high_seq(RBObject *self, void *c)
{ return PyLong_FromLongLong(self->high_seq); }
static PyObject *rb_get_gc_floor(RBObject *self, void *c)
{ return PyLong_FromLongLong(self->gc_floor); }
static PyObject *rb_get_packets(RBObject *self, void *c)
{ return Py_NewRef(self->packets); }

static int
rb_set_ll(RBObject *self, PyObject *value, void *closure)
{
    long long v = PyLong_AsLongLong(value);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *(long long *)((char *)self + (Py_ssize_t)closure) = v;
    return 0;
}

static PyGetSetDef rb_getset[] = {
    {"my_aru", (getter)rb_get_my_aru, NULL, NULL, NULL},
    {"high_seq", (getter)rb_get_high_seq, NULL, NULL, NULL},
    {"gc_floor", (getter)rb_get_gc_floor, NULL, NULL, NULL},
    {"_packets", (getter)rb_get_packets, NULL, NULL, NULL},
    {"_my_aru", (getter)rb_get_my_aru, (setter)rb_set_ll, NULL,
     (void *)offsetof(RBObject, my_aru)},
    {"_high_seq", (getter)rb_get_high_seq, (setter)rb_set_ll, NULL,
     (void *)offsetof(RBObject, high_seq)},
    {"_gc_floor", (getter)rb_get_gc_floor, (setter)rb_set_ll, NULL,
     (void *)offsetof(RBObject, gc_floor)},
    {NULL}
};

static PyMethodDef rb_methods[] = {
    {"insert", (PyCFunction)rb_insert, METH_O, "Store a packet; False on duplicate."},
    {"has", (PyCFunction)rb_has, METH_O, "Whether seq was ever received."},
    {"get", (PyCFunction)rb_get, METH_O, "Packet at seq, or None."},
    {"has_gaps_up_to", (PyCFunction)rb_has_gaps_up_to, METH_O,
     "True when some packet <= upto is missing."},
    {"gc_below", (PyCFunction)rb_gc_below, METH_O,
     "Drop packets with sequence <= seq; returns the number collected."},
    {"__reduce__", (PyCFunction)rb_reduce, METH_NOARGS, NULL},
    {"__setstate__", (PyCFunction)rb_setstate, METH_O, NULL},
    {NULL}
};

static PySequenceMethods rb_as_sequence = {
    .sq_length = (lenfunc)rb_len,
};

static PyTypeObject RBType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._fast._corec.ReceiveBuffer",
    .tp_basicsize = sizeof(RBObject),
    .tp_dealloc = (destructor)rb_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Compiled seq-ordered packet store (state in a Python dict).",
    .tp_traverse = (traverseproc)rb_traverse,
    .tp_clear = (inquiry)rb_clear_gc,
    .tp_methods = rb_methods,
    .tp_getset = rb_getset,
    .tp_as_sequence = &rb_as_sequence,
    .tp_new = rb_new,
};

/* ---------------------------------------------------------------------
 * Reassembler: chunk reassembly (see srp/packing.py)
 * ------------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *partial;          /* dict: (sender, msg_id) -> [bytes, ...] */
} ReasmObject;

static PyObject *
reasm_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    ReasmObject *self = (ReasmObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->partial = PyDict_New();
    if (self->partial == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static int
reasm_traverse(ReasmObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->partial);
    return 0;
}

static int
reasm_clear_gc(ReasmObject *self)
{
    Py_CLEAR(self->partial);
    return 0;
}

static void
reasm_dealloc(ReasmObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_CLEAR(self->partial);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* The shared C core of feed(); sender/chunk are borrowed refs. */
static PyObject *
reasm_feed_impl(ReasmObject *self, PyObject *sender, PyObject *chunk)
{
    PyObject *flags_obj = PyObject_GetAttr(chunk, s_flags);
    if (flags_obj == NULL)
        return NULL;
    long flags = PyLong_AsLong(flags_obj);
    Py_DECREF(flags_obj);
    if (flags == -1 && PyErr_Occurred())
        return NULL;
    if ((flags & 3) == 3)                   /* FLAG_WHOLE: the hot case */
        return PyObject_GetAttr(chunk, s_data);
    PyObject *msg_id = PyObject_GetAttr(chunk, s_msg_id);
    if (msg_id == NULL)
        return NULL;
    PyObject *key = PyTuple_Pack(2, sender, msg_id);
    Py_DECREF(msg_id);
    if (key == NULL)
        return NULL;
    if (flags & 1) {                        /* FLAG_FIRST */
        PyObject *data = PyObject_GetAttr(chunk, s_data);
        if (data == NULL) {
            Py_DECREF(key);
            return NULL;
        }
        PyObject *fragments = PyList_New(1);
        if (fragments == NULL) {
            Py_DECREF(data);
            Py_DECREF(key);
            return NULL;
        }
        PyList_SET_ITEM(fragments, 0, data);    /* steals */
        int r = PyDict_SetItem(self->partial, key, fragments);
        Py_DECREF(fragments);
        Py_DECREF(key);
        if (r < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    PyObject *fragments = PyDict_GetItemWithError(self->partial, key);
    if (fragments == NULL) {
        Py_DECREF(key);
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_NONE;                     /* FIRST lost to a membership change */
    }
    PyObject *data = PyObject_GetAttr(chunk, s_data);
    if (data == NULL) {
        Py_DECREF(key);
        return NULL;
    }
    int r = PyList_Append(fragments, data);
    Py_DECREF(data);
    if (r < 0) {
        Py_DECREF(key);
        return NULL;
    }
    if (flags & 2) {                        /* FLAG_LAST: complete */
        PyObject *joined = PyObject_CallMethodObjArgs(
            g_empty_bytes, s_join, fragments, NULL);
        if (joined == NULL) {
            Py_DECREF(key);
            return NULL;
        }
        if (PyDict_DelItem(self->partial, key) < 0) {
            Py_DECREF(key);
            Py_DECREF(joined);
            return NULL;
        }
        Py_DECREF(key);
        return joined;
    }
    Py_DECREF(key);
    Py_RETURN_NONE;
}

static PyObject *
reasm_feed(ReasmObject *self, PyObject *args)
{
    PyObject *sender, *chunk;
    if (!PyArg_ParseTuple(args, "OO", &sender, &chunk))
        return NULL;
    return reasm_feed_impl(self, sender, chunk);
}

static PyObject *
reasm_pending_count(ReasmObject *self, PyObject *unused)
{
    return PyLong_FromSsize_t(PyDict_Size(self->partial));
}

static PyObject *
reasm_clear(ReasmObject *self, PyObject *unused)
{
    PyDict_Clear(self->partial);
    Py_RETURN_NONE;
}

static PyObject *
reasm_reduce(ReasmObject *self, PyObject *unused)
{
    return Py_BuildValue("(O()(O))", Py_TYPE(self), self->partial);
}

static PyObject *
reasm_setstate(ReasmObject *self, PyObject *state)
{
    PyObject *partial;
    if (!PyArg_ParseTuple(state, "O!", &PyDict_Type, &partial))
        return NULL;
    Py_XSETREF(self->partial, Py_NewRef(partial));
    Py_RETURN_NONE;
}

static PyObject *reasm_get_partial(ReasmObject *self, void *c)
{ return Py_NewRef(self->partial); }

static PyGetSetDef reasm_getset[] = {
    {"_partial", (getter)reasm_get_partial, NULL, NULL, NULL},
    {NULL}
};

static PyMethodDef reasm_methods[] = {
    {"feed", (PyCFunction)reasm_feed, METH_VARARGS,
     "Feed one chunk; returns the completed payload or None."},
    {"pending_count", (PyCFunction)reasm_pending_count, METH_NOARGS, NULL},
    {"clear", (PyCFunction)reasm_clear, METH_NOARGS, NULL},
    {"__reduce__", (PyCFunction)reasm_reduce, METH_NOARGS, NULL},
    {"__setstate__", (PyCFunction)reasm_setstate, METH_O, NULL},
    {NULL}
};

static PyTypeObject ReasmType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._fast._corec.Reassembler",
    .tp_basicsize = sizeof(ReasmObject),
    .tp_dealloc = (destructor)reasm_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Compiled chunk reassembler (state in a Python dict).",
    .tp_traverse = (traverseproc)reasm_traverse,
    .tp_clear = (inquiry)reasm_clear_gc,
    .tp_methods = reasm_methods,
    .tp_getset = reasm_getset,
    .tp_new = reasm_new,
};

/* ---------------------------------------------------------------------
 * try_deliver(engine): the contiguous delivery sweep
 * ------------------------------------------------------------------- */

/* DeliveredMessage via tuple.__new__(cls, fields) — skips the NamedTuple's
 * Python-level __new__ frame; the instance is indistinguishable. */
static PyObject *
make_delivered(PyObject *fields)
{
    PyObject *onearg = PyTuple_Pack(1, fields);
    if (onearg == NULL)
        return NULL;
    PyObject *msg = PyTuple_Type.tp_new(
        (PyTypeObject *)g_delivered_cls, onearg, NULL);
    Py_DECREF(onearg);
    return msg;
}

static PyObject *
corec_try_deliver(PyObject *self, PyObject *engine)
{
    if (check_bound() < 0)
        return NULL;
    PyObject *config = PyObject_GetAttr(engine, s_config);
    if (config == NULL)
        return NULL;
    PyObject *safe_obj = PyObject_GetAttr(config, s_safe_delivery);
    Py_DECREF(config);
    if (safe_obj == NULL)
        return NULL;
    int safe_delivery = PyObject_IsTrue(safe_obj);
    Py_DECREF(safe_obj);
    if (safe_delivery < 0)
        return NULL;
    long long stable;
    if (attr_as_ll(engine, s_stable_seq, &stable) < 0)
        return NULL;
    PyObject *rb = PyObject_GetAttr(engine, s_recv_buffer);
    if (rb == NULL)
        return NULL;
    int rb_fast = PyObject_TypeCheck(rb, &RBType);
    long long limit;
    if (safe_delivery) {
        limit = stable;
    }
    else if (rb_fast) {
        limit = ((RBObject *)rb)->my_aru;
    }
    else if (attr_as_ll(rb, s_my_aru, &limit) < 0) {
        Py_DECREF(rb);
        return NULL;
    }
    long long delivered;
    if (attr_as_ll(engine, s_delivered_seq, &delivered) < 0) {
        Py_DECREF(rb);
        return NULL;
    }
    if (delivered >= limit) {               /* nothing contiguous to hand up */
        Py_DECREF(rb);
        Py_RETURN_NONE;
    }
    PyObject *reasm = PyObject_GetAttr(engine, s_reassembler);
    PyObject *ring = NULL, *stats = NULL, *on_deliver = NULL;
    PyObject *dlog_messages = NULL;
    if (reasm == NULL)
        goto fail;
    ring = PyObject_GetAttr(engine, s_ring_id);
    if (ring == NULL)
        goto fail;
    stats = PyObject_GetAttr(engine, s_stats);
    if (stats == NULL)
        goto fail;
    on_deliver = PyObject_GetAttr(engine, s_on_deliver);
    if (on_deliver == NULL)
        goto fail;
    /* When the sink is exactly DeliveryLog.on_deliver (the default wiring:
     * one list append per message), append to its ``messages`` list
     * directly instead of paying a Python frame per delivery.  Detected by
     * function identity, so any override or wrapper takes the generic
     * call. */
    if (g_dlog_on_deliver != NULL && PyMethod_Check(on_deliver)
            && PyMethod_GET_FUNCTION(on_deliver) == g_dlog_on_deliver) {
        dlog_messages = PyObject_GetAttr(
            PyMethod_GET_SELF(on_deliver), s_messages);
        if (dlog_messages == NULL)
            goto fail;
        if (!PyList_CheckExact(dlog_messages))
            Py_CLEAR(dlog_messages);        /* unusual sink: generic call */
    }
    int reasm_fast = PyObject_TypeCheck(reasm, &ReasmType);
    /* delivered_in = config_id or packet.ring_id (truthiness, like the
     * pure sweep's ``config_id or ring_id``) */
    int ring_truthy = PyObject_IsTrue(ring);
    if (ring_truthy < 0)
        goto fail;

    while (delivered < limit) {
        long long seq = delivered + 1;
        PyObject *seq_obj = PyLong_FromLongLong(seq);
        if (seq_obj == NULL)
            goto fail;
        PyObject *packet;
        if (rb_fast) {
            packet = PyDict_GetItemWithError(
                ((RBObject *)rb)->packets, seq_obj);
            if (packet == NULL && PyErr_Occurred()) {
                Py_DECREF(seq_obj);
                goto fail;
            }
            Py_XINCREF(packet);
        }
        else {
            packet = PyObject_CallMethodObjArgs(rb, s_get, seq_obj, NULL);
            if (packet == NULL) {
                Py_DECREF(seq_obj);
                goto fail;
            }
            if (packet == Py_None) {
                Py_DECREF(packet);
                packet = NULL;
            }
        }
        if (packet == NULL) {               /* gap: stop at the front */
            Py_DECREF(seq_obj);
            break;
        }
        delivered = seq;
        if (PyObject_SetAttr(engine, s_delivered_seq, seq_obj) < 0) {
            Py_DECREF(seq_obj);
            Py_DECREF(packet);
            goto fail;
        }
        int safe = seq <= stable;
        PyObject *chunks = PyObject_GetAttr(packet, s_chunks);
        if (chunks == NULL || !PyTuple_Check(chunks)) {
            Py_XDECREF(chunks);
            Py_DECREF(seq_obj);
            Py_DECREF(packet);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "packet.chunks must be a tuple");
            goto fail;
        }
        PyObject *sender = PyObject_GetAttr(packet, s_sender);
        PyObject *pkt_ring = sender ? PyObject_GetAttr(packet, s_ring_id) : NULL;
        if (pkt_ring == NULL) {
            Py_XDECREF(sender);
            Py_DECREF(chunks);
            Py_DECREF(seq_obj);
            Py_DECREF(packet);
            goto fail;
        }
        Py_ssize_t nchunks = PyTuple_GET_SIZE(chunks);
        for (Py_ssize_t i = 0; i < nchunks; i++) {
            PyObject *chunk = PyTuple_GET_ITEM(chunks, i);
            PyObject *kind = PyObject_GetAttr(chunk, s_kind);
            if (kind == NULL)
                goto chunk_fail;
            int is_app = (kind == g_chunk_app);
            Py_DECREF(kind);
            if (!is_app)
                continue;                   /* recovery chunks absorbed on receipt */
            PyObject *payload;
            if (reasm_fast)
                payload = reasm_feed_impl((ReasmObject *)reasm, sender, chunk);
            else
                payload = PyObject_CallMethodObjArgs(
                    reasm, s_feed, sender, chunk, NULL);
            if (payload == NULL)
                goto chunk_fail;
            if (payload == Py_None) {
                Py_DECREF(payload);
                continue;
            }
            if (attr_add_ll(stats, s_msgs_delivered, 1) < 0
                    || attr_add_ll(stats, s_bytes_delivered,
                                   (long long)PyBytes_GET_SIZE(payload)) < 0) {
                Py_DECREF(payload);
                goto chunk_fail;
            }
            PyObject *fields = PyTuple_Pack(
                6, sender, seq_obj, payload, pkt_ring,
                safe ? Py_True : Py_False, ring_truthy ? ring : pkt_ring);
            Py_DECREF(payload);
            if (fields == NULL)
                goto chunk_fail;
            PyObject *msg = make_delivered(fields);
            Py_DECREF(fields);
            if (msg == NULL)
                goto chunk_fail;
            if (dlog_messages != NULL) {
                int ar = PyList_Append(dlog_messages, msg);
                Py_DECREF(msg);
                if (ar < 0)
                    goto chunk_fail;
            }
            else {
                PyObject *res = PyObject_CallOneArg(on_deliver, msg);
                Py_DECREF(msg);
                if (res == NULL)
                    goto chunk_fail;
                Py_DECREF(res);
            }
            continue;
        chunk_fail:
            Py_DECREF(sender);
            Py_DECREF(pkt_ring);
            Py_DECREF(chunks);
            Py_DECREF(seq_obj);
            Py_DECREF(packet);
            goto fail;
        }
        Py_DECREF(sender);
        Py_DECREF(pkt_ring);
        Py_DECREF(chunks);
        Py_DECREF(seq_obj);
        Py_DECREF(packet);
    }
    Py_DECREF(rb);
    Py_DECREF(reasm);
    Py_DECREF(ring);
    Py_DECREF(stats);
    Py_DECREF(on_deliver);
    Py_XDECREF(dlog_messages);
    Py_RETURN_NONE;
fail:
    Py_XDECREF(rb);
    Py_XDECREF(reasm);
    Py_XDECREF(ring);
    Py_XDECREF(stats);
    Py_XDECREF(on_deliver);
    Py_XDECREF(dlog_messages);
    return NULL;
}

/* ---------------------------------------------------------------------
 * on_batch(engine, batch, network): apply a frame train inline, then one
 * delivery sweep (see TotemSrp.on_batch)
 * ------------------------------------------------------------------- */

/* Whether `rid` names the engine's current ring, via the same
 * identity / alias-memo / == ladder as _buffer_for_ring.
 * 1 = current, 0 = something else (old ring / foreign), -1 = error. */
static int
ring_is_current(PyObject *engine, PyObject *rid)
{
    PyObject *my_ring = PyObject_GetAttr(engine, s_ring_id);
    if (my_ring == NULL)
        return -1;
    if (rid == my_ring) {
        Py_DECREF(my_ring);
        return 1;
    }
    int result = -1;
    PyObject *aliases = PyObject_GetAttr(engine, s_ring_aliases);
    if (aliases == NULL)
        goto done;
    PyObject *key = PyLong_FromVoidPtr((void *)rid);
    if (key == NULL)
        goto done;
    int memoed = PyDict_Contains(aliases, key);
    if (memoed < 0) {
        Py_DECREF(key);
        goto done;
    }
    if (memoed) {
        Py_DECREF(key);
        result = 1;
        goto done;
    }
    int eq = PyObject_RichCompareBool(rid, my_ring, Py_EQ);
    if (eq < 0) {
        Py_DECREF(key);
        goto done;
    }
    if (eq && PyDict_SetItem(aliases, key, rid) < 0) {
        Py_DECREF(key);
        goto done;
    }
    Py_DECREF(key);
    result = eq ? 1 : 0;
done:
    Py_XDECREF(aliases);
    Py_DECREF(my_ring);
    return result;
}

/* engine.on_data(packet, network, deliver=False) for one carried packet:
 * the current-ring path in C; old-ring stragglers and foreign traffic are
 * rare and bail to the Python method (which owns the membership
 * consequences and their statistics). */
static PyObject *
apply_carried(PyObject *engine, PyObject *packet, PyObject *network)
{
    PyObject *rid = PyObject_GetAttr(packet, s_ring_id);
    if (rid == NULL)
        return NULL;
    int current = ring_is_current(engine, rid);
    Py_DECREF(rid);
    if (current < 0)
        return NULL;
    if (!current)
        return PyObject_CallMethodObjArgs(
            engine, s_on_data, packet, network, Py_False, NULL);
    PyObject *seq_obj = PyObject_GetAttr(packet, s_seq);
    if (seq_obj == NULL)
        return NULL;
    /* --- current-ring fast path (mirrors on_data with deliver=False) --- */
    PyObject *stats = PyObject_GetAttr(engine, s_stats);
    if (stats == NULL) {
        Py_DECREF(seq_obj);
        return NULL;
    }
    if (attr_add_ll(stats, s_packets_received, 1) < 0) {
        Py_DECREF(stats);
        Py_DECREF(seq_obj);
        return NULL;
    }
    PyObject *rb = PyObject_GetAttr(engine, s_recv_buffer);
    if (rb == NULL) {
        Py_DECREF(stats);
        Py_DECREF(seq_obj);
        return NULL;
    }
    PyObject *inserted_obj;
    if (PyObject_TypeCheck(rb, &RBType))
        inserted_obj = rb_insert((RBObject *)rb, packet);
    else
        inserted_obj = PyObject_CallMethodObjArgs(rb, s_insert, packet, NULL);
    Py_DECREF(rb);
    if (inserted_obj == NULL) {
        Py_DECREF(stats);
        Py_DECREF(seq_obj);
        return NULL;
    }
    int inserted = PyObject_IsTrue(inserted_obj);
    Py_DECREF(inserted_obj);
    if (inserted < 0) {
        Py_DECREF(stats);
        Py_DECREF(seq_obj);
        return NULL;
    }
    if (!inserted) {
        int r = attr_add_ll(stats, s_duplicate_packets, 1);
        Py_DECREF(stats);
        Py_DECREF(seq_obj);
        if (r < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    Py_DECREF(stats);
    /* Token-retransmit evidence: packet.seq > last_token.seq means the
     * successor got our token (paper §2). */
    PyObject *last_token = PyObject_GetAttr(engine, s_last_token);
    if (last_token == NULL) {
        Py_DECREF(seq_obj);
        return NULL;
    }
    if (last_token != Py_None) {
        PyObject *tok_seq = PyObject_GetAttr(last_token, s_seq);
        if (tok_seq == NULL) {
            Py_DECREF(last_token);
            Py_DECREF(seq_obj);
            return NULL;
        }
        int gt = PyObject_RichCompareBool(seq_obj, tok_seq, Py_GT);
        Py_DECREF(tok_seq);
        if (gt < 0) {
            Py_DECREF(last_token);
            Py_DECREF(seq_obj);
            return NULL;
        }
        if (gt) {
            /* `if self._token_retrans_timer is not None:` inlined — the
             * timer is armed at most once per rotation, so on almost every
             * packet this is a no-op and the method call can be skipped. */
            PyObject *timer = PyObject_GetAttr(engine, s_retrans_timer);
            if (timer == NULL) {
                Py_DECREF(last_token);
                Py_DECREF(seq_obj);
                return NULL;
            }
            int armed = timer != Py_None;
            Py_DECREF(timer);
            if (armed) {
                PyObject *r = PyObject_CallMethodObjArgs(
                    engine, s_cancel_retrans, NULL);
                if (r == NULL) {
                    Py_DECREF(last_token);
                    Py_DECREF(seq_obj);
                    return NULL;
                }
                Py_DECREF(r);
            }
        }
    }
    Py_DECREF(last_token);
    Py_DECREF(seq_obj);
    /* RECOVERY absorbs progress; otherwise deliver=False means done. */
    PyObject *state = PyObject_GetAttr(engine, s_state);
    if (state == NULL)
        return NULL;
    int in_recovery = (state == g_state_recovery);
    Py_DECREF(state);
    if (in_recovery) {
        PyObject *r = PyObject_CallMethodObjArgs(
            engine, s_absorb_recovery, NULL);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    Py_RETURN_NONE;
}

static PyObject *
corec_on_batch(PyObject *self, PyObject *args)
{
    PyObject *engine, *batch, *network;
    if (!PyArg_ParseTuple(args, "OOO", &engine, &batch, &network))
        return NULL;
    if (check_bound() < 0)
        return NULL;
    PyObject *packets = PyObject_GetAttr(batch, s_packets);
    if (packets == NULL)
        return NULL;
    if (!PyTuple_Check(packets)) {
        Py_DECREF(packets);
        PyErr_SetString(PyExc_TypeError, "batch.packets must be a tuple");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(packets); i++) {
        PyObject *r = apply_carried(engine, PyTuple_GET_ITEM(packets, i),
                                    network);
        if (r == NULL) {
            Py_DECREF(packets);
            return NULL;
        }
        Py_DECREF(r);
    }
    Py_DECREF(packets);
    PyObject *state = PyObject_GetAttr(engine, s_state);
    if (state == NULL)
        return NULL;
    int in_recovery = (state == g_state_recovery);
    Py_DECREF(state);
    if (in_recovery)
        Py_RETURN_NONE;
    /* The explorer patches instances' _try_deliver; honour it. */
    PyObject *td = PyObject_GetAttr(engine, s_try_deliver);
    if (td == NULL)
        return NULL;
    PyObject *r;
    if (PyMethod_Check(td) && PyMethod_GET_FUNCTION(td) == g_try_deliver_fn)
        r = corec_try_deliver(NULL, engine);
    else
        r = PyObject_CallNoArgs(td);
    Py_DECREF(td);
    return r;
}

/* ---------------------------------------------------------------------
 * packet construction (Chunk / DataPacket / BatchPacket)
 *
 * The wire classes are frozen dataclasses; their generated __init__ is a
 * Python frame doing one object.__setattr__ per field.  The C constructors
 * allocate via tp_new and write the fields with PyObject_GenericSetAttr —
 * exactly what object.__setattr__ does — so the resulting instances are
 * indistinguishable (same type, same __dict__, same eq/hash/repr).
 * ------------------------------------------------------------------- */

static PyObject *
plain_new(PyObject *cls)
{
    PyTypeObject *tp = (PyTypeObject *)cls;
    return tp->tp_new(tp, g_empty_tuple, NULL);
}

/* Chunk(kind, msg_id, flags, data); all arguments borrowed. */
static PyObject *
make_chunk(PyObject *kind, PyObject *msg_id, PyObject *flags, PyObject *data)
{
    PyObject *obj = plain_new(g_chunk_cls);
    if (obj == NULL)
        return NULL;
    if (PyObject_GenericSetAttr(obj, s_kind, kind) < 0
            || PyObject_GenericSetAttr(obj, s_msg_id, msg_id) < 0
            || PyObject_GenericSetAttr(obj, s_flags, flags) < 0
            || PyObject_GenericSetAttr(obj, s_data, data) < 0) {
        Py_DECREF(obj);
        return NULL;
    }
    return obj;
}

/* DataPacket(sender, ring_id, seq, chunks); ws is the precomputed wire
 * size (or Py_None to leave the lazy cache unset, as decode does).
 * `_wire_size` is excluded from ==/hash/repr and from digests, so eager
 * caching is unobservable. */
static PyObject *
make_data_packet(PyObject *sender, PyObject *ring, PyObject *seq,
                 PyObject *chunks, PyObject *ws)
{
    PyObject *obj = plain_new(g_data_cls);
    if (obj == NULL)
        return NULL;
    if (PyObject_GenericSetAttr(obj, s_sender, sender) < 0
            || PyObject_GenericSetAttr(obj, s_ring_id, ring) < 0
            || PyObject_GenericSetAttr(obj, s_seq, seq) < 0
            || PyObject_GenericSetAttr(obj, s_chunks, chunks) < 0
            || PyObject_GenericSetAttr(obj, s_wire_size_attr, ws) < 0) {
        Py_DECREF(obj);
        return NULL;
    }
    return obj;
}

static PyObject *
make_batch_packet(PyObject *packets, PyObject *ws)
{
    PyObject *obj = plain_new(g_batch_cls);
    if (obj == NULL)
        return NULL;
    if (PyObject_GenericSetAttr(obj, s_packets, packets) < 0
            || PyObject_GenericSetAttr(obj, s_wire_size_attr, ws) < 0) {
        Py_DECREF(obj);
        return NULL;
    }
    return obj;
}

/* ---------------------------------------------------------------------
 * Packer.next_batch fast path (see srp/packing.py)
 *
 * Operates on the packer's ordinary state (`_queue._queue` deque,
 * `_queue._bytes`, `_next_msg_id`, `_partial`) through generic attribute
 * access.  The whole-message greedy fill runs in C; anything touching
 * fragmentation (an in-flight `_partial`, or a message larger than one
 * packet) delegates that packet slot to the packer's own
 * `next_packet_chunks`, keeping the rare logic in one (Python) place.
 * ------------------------------------------------------------------- */

/* packer._allocate_msg_id() as a C read-modify-write. */
static PyObject *
alloc_msg_id(PyObject *packer)
{
    long long msg_id;
    if (attr_as_ll(packer, s_next_msg_id, &msg_id) < 0)
        return NULL;
    long long next = (msg_id + 1) & 0xFFFFFFFFLL;
    if (next == 0)
        next = 1;
    if (attr_set_ll(packer, s_next_msg_id, next) < 0)
        return NULL;
    return PyLong_FromLongLong(msg_id);
}

/* Returns a new list of chunk lists (possibly empty). */
static PyObject *
packer_next_batch_impl(PyObject *packer, long long max_packets)
{
    PyObject *batch = NULL, *sq = NULL, *dq = NULL, *chunks = NULL;
    long long max_payload;

    if ((batch = PyList_New(0)) == NULL)
        return NULL;
    if ((sq = PyObject_GetAttr(packer, s_queue)) == NULL)
        goto fail;
    if ((dq = PyObject_GetAttr(sq, s_queue)) == NULL)
        goto fail;
    if (attr_as_ll(packer, s_max_payload, &max_payload) < 0)
        goto fail;
    PyObject *packing_obj = PyObject_GetAttr(packer, s_enable_packing);
    if (packing_obj == NULL)
        goto fail;
    int packing = PyObject_IsTrue(packing_obj);
    Py_DECREF(packing_obj);
    if (packing < 0)
        goto fail;

    while (PyList_GET_SIZE(batch) < max_packets) {
        PyObject *partial = PyObject_GetAttr(packer, s_partial);
        if (partial == NULL)
            goto fail;
        int resuming = (partial != Py_None);
        Py_DECREF(partial);
        if (resuming) {
            /* In-flight fragmented message: its next fragment must lead
             * this packet — delegate the slot to the Python packer. */
            chunks = PyObject_CallMethodNoArgs(packer, s_next_packet_chunks);
            if (chunks == NULL)
                goto fail;
        }
        else {
            long long budget = max_payload;
            if ((chunks = PyList_New(0)) == NULL)
                goto fail;
            for (;;) {
                Py_ssize_t pending = PyObject_Size(dq);
                if (pending < 0)
                    goto fail;
                if (pending == 0)
                    break;
                PyObject *payload = PySequence_GetItem(dq, 0);
                if (payload == NULL)
                    goto fail;
                Py_ssize_t plen = PyObject_Size(payload);
                if (plen < 0) {
                    Py_DECREF(payload);
                    goto fail;
                }
                long long need = g_chunk_hdr + plen;
                if (need > budget) {
                    Py_DECREF(payload);
                    if (PyList_GET_SIZE(chunks) > 0)
                        break;          /* start the next packet instead */
                    /* Message alone exceeds a packet: fragmentation —
                     * delegate this whole slot (nothing consumed yet). */
                    Py_CLEAR(chunks);
                    chunks = PyObject_CallMethodNoArgs(
                        packer, s_next_packet_chunks);
                    if (chunks == NULL)
                        goto fail;
                    break;
                }
                /* queue.dequeue(): popleft + byte-count update */
                PyObject *popped = PyObject_CallMethodNoArgs(dq, s_popleft);
                if (popped == NULL) {
                    Py_DECREF(payload);
                    goto fail;
                }
                Py_DECREF(popped);
                if (attr_add_ll(sq, s_bytes, -(long long)plen) < 0) {
                    Py_DECREF(payload);
                    goto fail;
                }
                PyObject *msg_id = alloc_msg_id(packer);
                if (msg_id == NULL) {
                    Py_DECREF(payload);
                    goto fail;
                }
                PyObject *chunk = make_chunk(g_chunk_app, msg_id,
                                             g_flag_whole, payload);
                Py_DECREF(msg_id);
                Py_DECREF(payload);
                if (chunk == NULL)
                    goto fail;
                int r = PyList_Append(chunks, chunk);
                Py_DECREF(chunk);
                if (r < 0)
                    goto fail;
                budget -= need;
                if (!packing)
                    break;
            }
        }
        Py_ssize_t produced = PyObject_Size(chunks);
        if (produced < 0)
            goto fail;
        if (produced == 0) {
            Py_CLEAR(chunks);
            break;
        }
        int r = PyList_Append(batch, chunks);
        Py_CLEAR(chunks);
        if (r < 0)
            goto fail;
    }
    Py_DECREF(sq);
    Py_DECREF(dq);
    return batch;

fail:
    Py_XDECREF(batch);
    Py_XDECREF(sq);
    Py_XDECREF(dq);
    Py_XDECREF(chunks);
    return NULL;
}

/* next_batch(packer, max_packets) — module-level twin of
 * Packer.next_batch for tests and the engine fast path. */
static PyObject *
corec_packer_next_batch(PyObject *self, PyObject *args)
{
    PyObject *packer;
    long long max_packets;
    if (!PyArg_ParseTuple(args, "OL", &packer, &max_packets))
        return NULL;
    if (check_bound() < 0)
        return NULL;
    return packer_next_batch_impl(packer, max_packets);
}

/* ---------------------------------------------------------------------
 * broadcast_batched(engine, token, allowance): the token-visit send path
 * (see TotemSrp._broadcast_batched)
 * ------------------------------------------------------------------- */

static PyObject *
corec_broadcast_batched(PyObject *self, PyObject *args)
{
    PyObject *engine, *token;
    long long allowance;
    if (!PyArg_ParseTuple(args, "OOL", &engine, &token, &allowance))
        return NULL;
    if (check_bound() < 0)
        return NULL;

    PyObject *packer = PyObject_GetAttr(engine, s_packer);
    if (packer == NULL)
        return NULL;
    long long cap = allowance < g_batch_max ? allowance : g_batch_max;
    PyObject *lists = packer_next_batch_impl(packer, cap);
    Py_DECREF(packer);
    if (lists == NULL)
        return NULL;
    Py_ssize_t n = PyList_GET_SIZE(lists);
    if (n == 0) {
        Py_DECREF(lists);
        return PyLong_FromLong(0);
    }

    PyObject *node_id = NULL, *ring = NULL, *rb = NULL, *packets = NULL,
        *stats = NULL, *transport = NULL;
    long long seq;
    if ((node_id = PyObject_GetAttr(engine, s_node_id)) == NULL)
        goto fail;
    if ((ring = PyObject_GetAttr(engine, s_ring_id)) == NULL)
        goto fail;
    if (attr_as_ll(token, s_seq, &seq) < 0)
        goto fail;
    if ((rb = PyObject_GetAttr(engine, s_recv_buffer)) == NULL)
        goto fail;
    int rb_fast = PyObject_TypeCheck(rb, &RBType);
    if ((packets = PyList_New(n)) == NULL)
        goto fail;

    long long packets_ws = 0;       /* Σ per-packet wire sizes (for batch) */
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *chunk_list = PyList_GET_ITEM(lists, i);
        PyObject *chunks = PySequence_Tuple(chunk_list);
        if (chunks == NULL)
            goto fail;
        /* wire size: CHUNK_HEADER_BYTES per chunk + payload bytes */
        Py_ssize_t nc = PyTuple_GET_SIZE(chunks);
        long long ws = g_chunk_hdr * nc;
        for (Py_ssize_t c = 0; c < nc; c++) {
            PyObject *data = PyObject_GetAttr(PyTuple_GET_ITEM(chunks, c),
                                              s_data);
            if (data == NULL) {
                Py_DECREF(chunks);
                goto fail;
            }
            Py_ssize_t dlen = PyObject_Size(data);
            Py_DECREF(data);
            if (dlen < 0) {
                Py_DECREF(chunks);
                goto fail;
            }
            ws += dlen;
        }
        packets_ws += ws;
        seq += 1;
        PyObject *seq_obj = PyLong_FromLongLong(seq);
        PyObject *ws_obj = seq_obj ? PyLong_FromLongLong(ws) : NULL;
        PyObject *packet = ws_obj ? make_data_packet(node_id, ring, seq_obj,
                                                     chunks, ws_obj) : NULL;
        Py_XDECREF(seq_obj);
        Py_XDECREF(ws_obj);
        Py_DECREF(chunks);
        if (packet == NULL)
            goto fail;
        PyObject *inserted;
        if (rb_fast)
            inserted = rb_insert((RBObject *)rb, packet);
        else
            inserted = PyObject_CallMethodObjArgs(rb, s_insert, packet, NULL);
        if (inserted == NULL) {
            Py_DECREF(packet);
            goto fail;
        }
        Py_DECREF(inserted);
        PyList_SET_ITEM(packets, i, packet);    /* steals */
    }
    Py_DECREF(lists);
    lists = NULL;

    if (attr_set_ll(token, s_seq, seq) < 0)
        goto fail_nolists;
    if ((stats = PyObject_GetAttr(engine, s_stats)) == NULL)
        goto fail_nolists;
    if (attr_add_ll(stats, s_packets_broadcast, n) < 0)
        goto fail_nolists;
    Py_CLEAR(stats);
    if ((transport = PyObject_GetAttr(engine, s_transport)) == NULL)
        goto fail_nolists;

    PyObject *sent;
    if (n == 1) {
        sent = PyObject_CallMethodObjArgs(
            transport, s_broadcast_data, PyList_GET_ITEM(packets, 0), NULL);
    }
    else {
        PyObject *ptuple = PyList_AsTuple(packets);
        if (ptuple == NULL)
            goto fail_nolists;
        PyObject *bws = PyLong_FromLongLong(
            g_batch_base + g_batch_sub * n + packets_ws);
        PyObject *bp = bws ? make_batch_packet(ptuple, bws) : NULL;
        Py_XDECREF(bws);
        Py_DECREF(ptuple);
        if (bp == NULL)
            goto fail_nolists;
        sent = PyObject_CallMethodObjArgs(transport, s_broadcast_batch,
                                          bp, NULL);
        Py_DECREF(bp);
    }
    if (sent == NULL)
        goto fail_nolists;
    Py_DECREF(sent);
    Py_DECREF(transport);
    Py_DECREF(packets);
    Py_DECREF(rb);
    Py_DECREF(ring);
    Py_DECREF(node_id);
    return PyLong_FromLongLong(n);

fail:
    Py_XDECREF(lists);
fail_nolists:
    Py_XDECREF(node_id);
    Py_XDECREF(ring);
    Py_XDECREF(rb);
    Py_XDECREF(packets);
    Py_XDECREF(stats);
    Py_XDECREF(transport);
    return NULL;
}

/* ---------------------------------------------------------------------
 * is_duplicate_batch(engine, batch) -> bool | NotImplemented
 * (see TotemSrp.is_duplicate_batch; NotImplemented = bail to Python)
 * ------------------------------------------------------------------- */

static PyObject *
corec_is_duplicate_batch(PyObject *self, PyObject *args)
{
    PyObject *engine, *batch;
    if (!PyArg_ParseTuple(args, "OO", &engine, &batch))
        return NULL;
    if (check_bound() < 0)
        return NULL;
    PyObject *rid = PyObject_GetAttr(batch, s_ring_id);
    if (rid == NULL)
        return NULL;
    int current = ring_is_current(engine, rid);
    Py_DECREF(rid);
    if (current < 0)
        return NULL;
    if (!current)
        Py_RETURN_NOTIMPLEMENTED;   /* old/foreign ring: Python decides */

    PyObject *packets = NULL, *rb = NULL;
    if ((packets = PyObject_GetAttr(batch, s_packets)) == NULL)
        goto fail;
    if ((rb = PyObject_GetAttr(engine, s_recv_buffer)) == NULL)
        goto fail;
    int rb_fast = PyObject_TypeCheck(rb, &RBType);

    Py_ssize_t n = PySequence_Size(packets);
    if (n < 0)
        goto fail;
    int all_seen = 1;
    for (Py_ssize_t i = 0; i < n && all_seen; i++) {
        PyObject *packet = PySequence_GetItem(packets, i);
        if (packet == NULL)
            goto fail;
        PyObject *seq_obj = PyObject_GetAttr(packet, s_seq);
        Py_DECREF(packet);
        if (seq_obj == NULL)
            goto fail;
        int seen;
        if (rb_fast) {
            PyObject *h = rb_has((RBObject *)rb, seq_obj);
            seen = h == NULL ? -1 : PyObject_IsTrue(h);
            Py_XDECREF(h);
        }
        else {
            PyObject *h = PyObject_CallMethodObjArgs(rb, s_has, seq_obj,
                                                     NULL);
            seen = h == NULL ? -1 : PyObject_IsTrue(h);
            Py_XDECREF(h);
        }
        Py_DECREF(seq_obj);
        if (seen < 0)
            goto fail;
        all_seen = seen;
    }
    Py_DECREF(packets);
    Py_DECREF(rb);
    return PyBool_FromLong(all_seen);

fail:
    Py_XDECREF(packets);
    Py_XDECREF(rb);
    return NULL;
}

/* ---------------------------------------------------------------------
 * wire codec: DATA / BATCH encode + decode (see wire/codec.py)
 *
 * Only the two data-plane packet kinds are compiled; control traffic
 * (TOKEN / JOIN / COMMIT_TOKEN) is rare and returns NotImplemented so
 * codec.py falls through to the pure implementation.  The byte layout
 * constants below mirror codec.py's struct formats; the accel-equivalence
 * tests compare pure and compiled encodings byte for byte, so drift is
 * caught immediately.
 * ------------------------------------------------------------------- */

#define CODEC_MAGIC   0x746D        /* "tm" */
#define CODEC_VERSION 1
#define CODEC_HDR     4             /* >HBB */
#define CODEC_CRC     4             /* >I */
#define PTYPE_DATA    1
#define PTYPE_BATCH   5

/* CRC-32 (IEEE, reflected) — identical to zlib.crc32. */
static unsigned int g_crc_table[256];

static void
crc_table_init(void)
{
    for (unsigned int i = 0; i < 256; i++) {
        unsigned int c = i;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
        g_crc_table[i] = c;
    }
}

static unsigned int
crc32_of(const unsigned char *buf, Py_ssize_t len)
{
    unsigned int c = 0xFFFFFFFFU;
    for (Py_ssize_t i = 0; i < len; i++)
        c = g_crc_table[(c ^ buf[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFU;
}

/* Growable big-endian byte writer. */
typedef struct {
    unsigned char *buf;
    Py_ssize_t len, cap;
} Writer;

static int
writer_reserve(Writer *w, Py_ssize_t extra)
{
    if (w->len + extra <= w->cap)
        return 0;
    Py_ssize_t cap = w->cap ? w->cap * 2 : 256;
    while (cap < w->len + extra)
        cap *= 2;
    unsigned char *nb = PyMem_Realloc(w->buf, cap);
    if (nb == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    w->buf = nb;
    w->cap = cap;
    return 0;
}

static int
w_bytes(Writer *w, const unsigned char *p, Py_ssize_t n)
{
    if (writer_reserve(w, n) < 0)
        return -1;
    memcpy(w->buf + w->len, p, n);
    w->len += n;
    return 0;
}

static int
w_u8(Writer *w, unsigned int v)
{
    unsigned char b = (unsigned char)v;
    return w_bytes(w, &b, 1);
}

static int
w_u16(Writer *w, unsigned int v)
{
    unsigned char b[2] = { (unsigned char)(v >> 8), (unsigned char)v };
    return w_bytes(w, b, 2);
}

static int
w_u32(Writer *w, unsigned long long v)
{
    unsigned char b[4] = { (unsigned char)(v >> 24), (unsigned char)(v >> 16),
                           (unsigned char)(v >> 8), (unsigned char)v };
    return w_bytes(w, b, 4);
}

static int
w_u64(Writer *w, unsigned long long v)
{
    unsigned char b[8] = {
        (unsigned char)(v >> 56), (unsigned char)(v >> 48),
        (unsigned char)(v >> 40), (unsigned char)(v >> 32),
        (unsigned char)(v >> 24), (unsigned char)(v >> 16),
        (unsigned char)(v >> 8), (unsigned char)v };
    return w_bytes(w, b, 8);
}

/* Read attr as unsigned with a range ceiling.  0 ok; -1 error; 1 = value
 * out of the struct field's range (caller bails to Python, which raises
 * the same struct.error the pure codec would). */
static int
attr_as_uint(PyObject *obj, PyObject *name, unsigned long long limit,
             unsigned long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    if (!PyLong_Check(v)) {
        PyObject *idx = PyNumber_Index(v);
        Py_DECREF(v);
        if (idx == NULL) {
            PyErr_Clear();
            return 1;
        }
        v = idx;
    }
    int neg = Py_SIZE(v) < 0;
    unsigned long long u = PyLong_AsUnsignedLongLong(v);
    Py_DECREF(v);
    if (u == (unsigned long long)-1 && PyErr_Occurred()) {
        PyErr_Clear();
        return 1;
    }
    if (neg || u > limit)
        return 1;
    *out = u;
    return 0;
}

/* Encode one DataPacket body (ring + fixed + chunks) into w.
 * 0 ok; -1 error; 1 = bail to the pure codec. */
static int
encode_data_body(Writer *w, PyObject *packet, int sub_packet)
{
    unsigned long long v;
    int r;
    if (!sub_packet) {
        PyObject *ring = PyObject_GetAttr(packet, s_ring_id);
        if (ring == NULL)
            return -1;
        if ((r = attr_as_uint(ring, s_seq, 0xFFFFFFFFULL, &v)) != 0
                || w_u32(w, v) < 0) {
            Py_DECREF(ring);
            return r ? r : -1;
        }
        if ((r = attr_as_uint(ring, s_representative, 0xFFFFFFFFULL,
                              &v)) != 0
                || w_u32(w, v) < 0) {
            Py_DECREF(ring);
            return r ? r : -1;
        }
        Py_DECREF(ring);
        if ((r = attr_as_uint(packet, s_sender, 0xFFFFFFFFULL, &v)) != 0
                || w_u32(w, v) < 0)
            return r ? r : -1;
        if ((r = attr_as_uint(packet, s_seq, 0xFFFFFFFFFFFFFFFFULL, &v)) != 0
                || w_u64(w, v) < 0)
            return r ? r : -1;
    }
    PyObject *chunks = PyObject_GetAttr(packet, s_chunks);
    if (chunks == NULL)
        return -1;
    if (!PyTuple_Check(chunks)) {
        Py_DECREF(chunks);
        return 1;
    }
    Py_ssize_t nc = PyTuple_GET_SIZE(chunks);
    if (nc > 0xFFFF || w_u16(w, (unsigned int)nc) < 0) {
        Py_DECREF(chunks);
        return nc > 0xFFFF ? 1 : -1;
    }
    for (Py_ssize_t i = 0; i < nc; i++) {
        PyObject *chunk = PyTuple_GET_ITEM(chunks, i);
        unsigned long long kind, flags, msg_id;
        if ((r = attr_as_uint(chunk, s_kind, 0xFFULL, &kind)) != 0
                || (r = attr_as_uint(chunk, s_flags, 0xFFULL, &flags)) != 0
                || (r = attr_as_uint(chunk, s_msg_id, 0xFFFFFFFFULL,
                                     &msg_id)) != 0) {
            Py_DECREF(chunks);
            return r;
        }
        PyObject *data = PyObject_GetAttr(chunk, s_data);
        if (data == NULL) {
            Py_DECREF(chunks);
            return -1;
        }
        if (!PyBytes_Check(data)) {
            Py_DECREF(data);
            Py_DECREF(chunks);
            return 1;
        }
        Py_ssize_t dlen = PyBytes_GET_SIZE(data);
        if (dlen > 0xFFFF) {
            Py_DECREF(data);
            Py_DECREF(chunks);
            return 1;
        }
        if (w_u8(w, (unsigned int)kind) < 0
                || w_u8(w, (unsigned int)flags) < 0
                || w_u32(w, msg_id) < 0
                || w_u16(w, (unsigned int)dlen) < 0
                || w_bytes(w, (unsigned char *)PyBytes_AS_STRING(data),
                           dlen) < 0) {
            Py_DECREF(data);
            Py_DECREF(chunks);
            return -1;
        }
        Py_DECREF(data);
    }
    Py_DECREF(chunks);
    return 0;
}

/* encode(packet) -> bytes | NotImplemented (control kinds, odd values) */
static PyObject *
corec_encode(PyObject *self, PyObject *packet)
{
    if (check_bound() < 0)
        return NULL;
    int is_data = (PyObject *)Py_TYPE(packet) == g_data_cls;
    int is_batch = !is_data && (PyObject *)Py_TYPE(packet) == g_batch_cls;
    if (!is_data && !is_batch)
        Py_RETURN_NOTIMPLEMENTED;

    Writer w = {NULL, 0, 0};
    int r = -1;
    if (w_u16(&w, CODEC_MAGIC) < 0 || w_u8(&w, CODEC_VERSION) < 0
            || w_u8(&w, is_data ? PTYPE_DATA : PTYPE_BATCH) < 0)
        goto out;
    if (is_data) {
        r = encode_data_body(&w, packet, 0);
        if (r != 0)
            goto out;
    }
    else {
        /* packet.validate() first, exactly like the pure path. */
        PyObject *ok = PyObject_CallMethodNoArgs(packet, s_validate);
        if (ok == NULL) {
            r = -1;
            goto out;
        }
        Py_DECREF(ok);
        PyObject *packets = PyObject_GetAttr(packet, s_packets);
        if (packets == NULL) {
            r = -1;
            goto out;
        }
        if (!PyTuple_Check(packets) || PyTuple_GET_SIZE(packets) == 0) {
            Py_DECREF(packets);
            r = 1;
            goto out;
        }
        Py_ssize_t np = PyTuple_GET_SIZE(packets);
        PyObject *first = PyTuple_GET_ITEM(packets, 0);
        PyObject *ring = PyObject_GetAttr(first, s_ring_id);
        if (ring == NULL) {
            Py_DECREF(packets);
            r = -1;
            goto out;
        }
        unsigned long long v;
        if ((r = attr_as_uint(ring, s_seq, 0xFFFFFFFFULL, &v)) != 0
                || w_u32(&w, v) < 0
                || (r = attr_as_uint(ring, s_representative, 0xFFFFFFFFULL,
                                     &v)) != 0
                || w_u32(&w, v) < 0) {
            Py_DECREF(ring);
            Py_DECREF(packets);
            if (r == 0)
                r = -1;
            goto out;
        }
        Py_DECREF(ring);
        if ((r = attr_as_uint(first, s_sender, 0xFFFFFFFFULL, &v)) != 0
                || w_u32(&w, v) < 0
                || (r = attr_as_uint(first, s_seq, 0xFFFFFFFFFFFFFFFFULL,
                                     &v)) != 0
                || w_u64(&w, v) < 0
                || (np > 0xFFFF ? (r = 1) : 0)
                || w_u16(&w, (unsigned int)np) < 0) {
            Py_DECREF(packets);
            if (r == 0)
                r = -1;
            goto out;
        }
        for (Py_ssize_t i = 0; i < np; i++) {
            r = encode_data_body(&w, PyTuple_GET_ITEM(packets, i), 1);
            if (r != 0) {
                Py_DECREF(packets);
                goto out;
            }
        }
        Py_DECREF(packets);
        r = 0;
    }
    if (w_u32(&w, crc32_of(w.buf, w.len)) < 0) {
        r = -1;
        goto out;
    }
    {
        PyObject *result = PyBytes_FromStringAndSize((char *)w.buf, w.len);
        PyMem_Free(w.buf);
        return result;
    }
out:
    PyMem_Free(w.buf);
    if (r == 1)
        Py_RETURN_NOTIMPLEMENTED;
    return NULL;
}

/* Big-endian readers over a bounds-checked cursor. */
typedef struct {
    const unsigned char *buf;
    Py_ssize_t len, pos;
} Reader;

static int
r_need(Reader *r, Py_ssize_t n)
{
    return r->pos + n <= r->len ? 0 : -1;
}

static unsigned int
r_u8(Reader *r)
{
    return r->buf[r->pos++];
}

static unsigned int
r_u16(Reader *r)
{
    unsigned int v = ((unsigned int)r->buf[r->pos] << 8) | r->buf[r->pos + 1];
    r->pos += 2;
    return v;
}

static unsigned long long
r_u32(Reader *r)
{
    unsigned long long v = ((unsigned long long)r->buf[r->pos] << 24)
        | ((unsigned long long)r->buf[r->pos + 1] << 16)
        | ((unsigned long long)r->buf[r->pos + 2] << 8)
        | r->buf[r->pos + 3];
    r->pos += 4;
    return v;
}

static unsigned long long
r_u64(Reader *r)
{
    unsigned long long v = 0;
    for (int i = 0; i < 8; i++)
        v = (v << 8) | r->buf[r->pos + i];
    r->pos += 8;
    return v;
}

/* Parse one chunk vector (count + chunks).  Returns a new tuple, NULL
 * with error set, or NULL with *bail=1 (non-APP chunk kind). */
static PyObject *
decode_chunks(Reader *rd, const char *truncated_msg,
              const char *short_msg, int *bail)
{
    *bail = 0;
    if (r_need(rd, 2) < 0) {
        PyErr_SetString(g_codec_error, short_msg);
        return NULL;
    }
    unsigned int nc = r_u16(rd);
    PyObject *chunks = PyTuple_New(nc);
    if (chunks == NULL)
        return NULL;
    for (unsigned int i = 0; i < nc; i++) {
        if (r_need(rd, 8) < 0) {
            PyErr_SetString(g_codec_error, short_msg);
            Py_DECREF(chunks);
            return NULL;
        }
        unsigned int kind = r_u8(rd);
        unsigned int flags = r_u8(rd);
        unsigned long long msg_id = r_u32(rd);
        unsigned int dlen = r_u16(rd);
        if (kind != 0) {
            /* ENCAPSULATED (recovery traffic): let Python build the
             * enum-typed chunk. */
            *bail = 1;
            Py_DECREF(chunks);
            return NULL;
        }
        if (r_need(rd, dlen) < 0) {
            PyErr_SetString(g_codec_error, truncated_msg);
            Py_DECREF(chunks);
            return NULL;
        }
        PyObject *data = PyBytes_FromStringAndSize(
            (const char *)rd->buf + rd->pos, dlen);
        rd->pos += dlen;
        if (data == NULL) {
            Py_DECREF(chunks);
            return NULL;
        }
        PyObject *msg_id_obj = PyLong_FromUnsignedLongLong(msg_id);
        PyObject *flags_obj = msg_id_obj ? PyLong_FromLong(flags) : NULL;
        PyObject *chunk = flags_obj ? make_chunk(g_chunk_app, msg_id_obj,
                                                 flags_obj, data) : NULL;
        Py_XDECREF(msg_id_obj);
        Py_XDECREF(flags_obj);
        Py_DECREF(data);
        if (chunk == NULL) {
            Py_DECREF(chunks);
            return NULL;
        }
        PyTuple_SET_ITEM(chunks, i, chunk);
    }
    return chunks;
}

static PyObject *
make_ring_id(unsigned long long seq, unsigned long long rep)
{
    PyObject *seq_obj = PyLong_FromUnsignedLongLong(seq);
    PyObject *rep_obj = seq_obj ? PyLong_FromUnsignedLongLong(rep) : NULL;
    PyObject *ring = rep_obj ? PyObject_CallFunctionObjArgs(
        g_ring_cls, seq_obj, rep_obj, NULL) : NULL;
    Py_XDECREF(seq_obj);
    Py_XDECREF(rep_obj);
    return ring;
}

/* decode(data) -> packet | NotImplemented (control kinds / non-bytes). */
static PyObject *
corec_decode(PyObject *self, PyObject *data)
{
    if (check_bound() < 0)
        return NULL;
    if (!PyBytes_Check(data))
        Py_RETURN_NOTIMPLEMENTED;

    Reader rd = {(const unsigned char *)PyBytes_AS_STRING(data),
                 PyBytes_GET_SIZE(data), 0};
    if (rd.len < CODEC_HDR + CODEC_CRC)
        return PyErr_Format(g_codec_error, "packet too short: %zd bytes",
                            rd.len);
    Py_ssize_t body_len = rd.len - CODEC_CRC;
    unsigned int expected =
        ((unsigned int)rd.buf[body_len] << 24)
        | ((unsigned int)rd.buf[body_len + 1] << 16)
        | ((unsigned int)rd.buf[body_len + 2] << 8)
        | rd.buf[body_len + 3];
    unsigned int actual = crc32_of(rd.buf, body_len);
    if (expected != actual)
        return PyErr_Format(g_checksum_error,
                            "CRC mismatch: expected 0x%x, got 0x%x",
                            expected, actual);
    rd.len = body_len;
    unsigned int magic = r_u16(&rd);
    unsigned int version = r_u8(&rd);
    unsigned int ptype = r_u8(&rd);
    if (magic != CODEC_MAGIC)
        return PyErr_Format(g_codec_error, "bad magic 0x%x", magic);
    if (version != CODEC_VERSION)
        return PyErr_Format(g_codec_error, "unsupported version %u", version);
    if (ptype != PTYPE_DATA && ptype != PTYPE_BATCH)
        Py_RETURN_NOTIMPLEMENTED;   /* control kinds: pure codec's job */

    const char *short_msg = ptype == PTYPE_DATA
        ? "truncated or malformed DATA packet"
        : "truncated or malformed BATCH packet";
    if (r_need(&rd, 8 + 14) < 0) {      /* ring (>II) + fixed (>IQH) */
        PyErr_SetString(g_codec_error, short_msg);
        return NULL;
    }
    unsigned long long ring_seq = r_u32(&rd);
    unsigned long long ring_rep = r_u32(&rd);
    unsigned long long sender = r_u32(&rd);
    unsigned long long first_seq = r_u64(&rd);
    /* The trailing u16 of >IQH (chunk count for DATA, packet count for
     * BATCH) is still unconsumed here: decode_chunks reads the DATA one
     * itself; the BATCH branch consumes it explicitly below. */
    int bail = 0;

    if (ptype == PTYPE_DATA) {
        PyObject *chunks = decode_chunks(&rd, "chunk data truncated",
                                         short_msg, &bail);
        if (chunks == NULL) {
            if (bail)
                Py_RETURN_NOTIMPLEMENTED;
            return NULL;
        }
        PyObject *ring = make_ring_id(ring_seq, ring_rep);
        if (ring == NULL) {
            Py_DECREF(chunks);
            return NULL;
        }
        PyObject *sender_obj = PyLong_FromUnsignedLongLong(sender);
        PyObject *seq_obj = sender_obj
            ? PyLong_FromUnsignedLongLong(first_seq) : NULL;
        PyObject *packet = seq_obj ? make_data_packet(
            sender_obj, ring, seq_obj, chunks, Py_None) : NULL;
        Py_XDECREF(sender_obj);
        Py_XDECREF(seq_obj);
        Py_DECREF(ring);
        Py_DECREF(chunks);
        return packet;          /* pure codec ignores trailing bytes too */
    }

    /* BATCH */
    unsigned int count = r_u16(&rd);
    if (count < 1) {
        PyErr_SetString(g_codec_error, "batch carries no packets");
        return NULL;
    }
    if ((long long)count > g_batch_max)
        return PyErr_Format(g_codec_error,
                            "batch carries %u packets (max %lld)",
                            count, g_batch_max);
    PyObject *ring = make_ring_id(ring_seq, ring_rep);
    if (ring == NULL)
        return NULL;
    PyObject *sender_obj = PyLong_FromUnsignedLongLong(sender);
    if (sender_obj == NULL) {
        Py_DECREF(ring);
        return NULL;
    }
    PyObject *packets = PyTuple_New(count);
    if (packets == NULL) {
        Py_DECREF(sender_obj);
        Py_DECREF(ring);
        return NULL;
    }
    for (unsigned int i = 0; i < count; i++) {
        PyObject *chunks = decode_chunks(&rd, "batch chunk data truncated",
                                         short_msg, &bail);
        if (chunks == NULL) {
            Py_DECREF(packets);
            Py_DECREF(sender_obj);
            Py_DECREF(ring);
            if (bail)
                Py_RETURN_NOTIMPLEMENTED;
            return NULL;
        }
        PyObject *seq_obj = PyLong_FromUnsignedLongLong(first_seq + i);
        PyObject *packet = seq_obj ? make_data_packet(
            sender_obj, ring, seq_obj, chunks, Py_None) : NULL;
        Py_XDECREF(seq_obj);
        Py_DECREF(chunks);
        if (packet == NULL) {
            Py_DECREF(packets);
            Py_DECREF(sender_obj);
            Py_DECREF(ring);
            return NULL;
        }
        PyTuple_SET_ITEM(packets, i, packet);
    }
    Py_DECREF(sender_obj);
    Py_DECREF(ring);
    if (rd.pos != rd.len) {
        PyErr_Format(g_codec_error, "batch has %zd trailing bytes",
                     rd.len - rd.pos);
        Py_DECREF(packets);
        return NULL;
    }
    PyObject *batch = make_batch_packet(packets, Py_None);
    Py_DECREF(packets);
    return batch;
}

/* ---------------------------------------------------------------------
 * ReplicationEngine._recv_cost twin (see core/base.py)
 *
 * The receive CPU-cost classifier runs once per arriving frame — the
 * duplicate check (rb_has on the current ring) and the wire-size sum are
 * the hot parts.  Old-ring / foreign traffic and non-data packets that
 * subclass the wire types return NotImplemented so the pure classifier
 * (with its alias ladder) decides; the float expressions below are kept
 * as separate statements so the compiler cannot contract them into FMA
 * forms that round differently from CPython's mul-then-add.
 * ------------------------------------------------------------------- */

/* packet.wire_size() for a DataPacket, with the same lazy `_wire_size`
 * caching as the pure method (the cache field is excluded from ==/repr
 * and digests, so eager filling is unobservable).  -1 on error. */
static long long
data_wire_size(PyObject *packet)
{
    PyObject *cached = PyObject_GetAttr(packet, s_wire_size_attr);
    if (cached == NULL)
        return -1;
    if (cached != Py_None) {
        long long v = PyLong_AsLongLong(cached);
        Py_DECREF(cached);
        if (v == -1 && PyErr_Occurred())
            return -1;
        return v;
    }
    Py_DECREF(cached);
    PyObject *chunks = PyObject_GetAttr(packet, s_chunks);
    if (chunks == NULL)
        return -1;
    if (!PyTuple_Check(chunks)) {
        Py_DECREF(chunks);
        PyErr_SetString(PyExc_TypeError, "packet.chunks must be a tuple");
        return -1;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(chunks);
    long long size = (long long)g_chunk_hdr * n;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *data = PyObject_GetAttr(PyTuple_GET_ITEM(chunks, i),
                                          s_data);
        if (data == NULL) {
            Py_DECREF(chunks);
            return -1;
        }
        Py_ssize_t dlen = PyObject_Size(data);
        Py_DECREF(data);
        if (dlen < 0) {
            Py_DECREF(chunks);
            return -1;
        }
        size += dlen;
    }
    Py_DECREF(chunks);
    PyObject *ws = PyLong_FromLongLong(size);
    if (ws == NULL)
        return -1;
    int sr = PyObject_GenericSetAttr(packet, s_wire_size_attr, ws);
    Py_DECREF(ws);
    return sr < 0 ? -1 : size;
}

/* BatchPacket.wire_size() with the same per-sub-packet + batch caching
 * as the pure method.  -1 on error. */
static long long
batch_wire_size(PyObject *batch)
{
    PyObject *cached = PyObject_GetAttr(batch, s_wire_size_attr);
    if (cached == NULL)
        return -1;
    if (cached != Py_None) {
        long long v = PyLong_AsLongLong(cached);
        Py_DECREF(cached);
        if (v == -1 && PyErr_Occurred())
            return -1;
        return v;
    }
    Py_DECREF(cached);
    PyObject *packets = PyObject_GetAttr(batch, s_packets);
    if (packets == NULL)
        return -1;
    if (!PyTuple_Check(packets)) {
        Py_DECREF(packets);
        PyErr_SetString(PyExc_TypeError, "batch.packets must be a tuple");
        return -1;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(packets);
    long long size = (long long)g_batch_base + (long long)g_batch_sub * n;
    for (Py_ssize_t i = 0; i < n; i++) {
        long long sub = data_wire_size(PyTuple_GET_ITEM(packets, i));
        if (sub < 0) {
            Py_DECREF(packets);
            return -1;
        }
        size += sub;
    }
    Py_DECREF(packets);
    PyObject *ws = PyLong_FromLongLong(size);
    if (ws == NULL)
        return -1;
    int sr = PyObject_GenericSetAttr(batch, s_wire_size_attr, ws);
    Py_DECREF(ws);
    return sr < 0 ? -1 : size;
}

/* Count of chunks in `chunks` (a tuple) carrying FLAG_LAST — each one
 * completes a message and is charged per-message protocol work. */
static long long
count_completed(PyObject *chunks, long long *out)
{
    if (!PyTuple_Check(chunks)) {
        PyErr_SetString(PyExc_TypeError, "packet.chunks must be a tuple");
        return -1;
    }
    long long completed = 0;
    Py_ssize_t n = PyTuple_GET_SIZE(chunks);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *flags_obj = PyObject_GetAttr(PyTuple_GET_ITEM(chunks, i),
                                               s_flags);
        if (flags_obj == NULL)
            return -1;
        long flags = PyLong_AsLong(flags_obj);
        Py_DECREF(flags_obj);
        if (flags == -1 && PyErr_Occurred())
            return -1;
        if (flags & 2)                      /* FLAG_LAST */
            completed++;
    }
    *out += completed;
    return 0;
}

/* Whether `packet` (a current-ring DataPacket) was already received.
 * 1 / 0, 2 = bail to Python (old/foreign ring), -1 = error. */
static int
recv_cost_is_dup_data(PyObject *srp, PyObject *packet)
{
    PyObject *rid = PyObject_GetAttr(packet, s_ring_id);
    if (rid == NULL)
        return -1;
    int current = ring_is_current(srp, rid);
    Py_DECREF(rid);
    if (current < 0)
        return -1;
    if (!current)
        return 2;
    PyObject *rb = PyObject_GetAttr(srp, s_recv_buffer);
    if (rb == NULL)
        return -1;
    PyObject *seq_obj = PyObject_GetAttr(packet, s_seq);
    if (seq_obj == NULL) {
        Py_DECREF(rb);
        return -1;
    }
    PyObject *h;
    if (PyObject_TypeCheck(rb, &RBType))
        h = rb_has((RBObject *)rb, seq_obj);
    else
        h = PyObject_CallMethodObjArgs(rb, s_has, seq_obj, NULL);
    Py_DECREF(seq_obj);
    Py_DECREF(rb);
    if (h == NULL)
        return -1;
    int dup = PyObject_IsTrue(h);
    Py_DECREF(h);
    return dup;
}

/* The classifier itself: a new float, NotImplemented (new ref) to bail
 * to the pure method, or NULL on error.  `rrp` is the engine bound into
 * stack._recv_cost_fn. */
static PyObject *
recv_cost_impl(PyObject *rrp, PyObject *packet)
{
    PyObject *lan = PyObject_GetAttr(rrp, s_recv_lan);
    if (lan == NULL)
        return NULL;
    if (lan == Py_None) {
        Py_DECREF(lan);
        return PyFloat_FromDouble(0.0);
    }
    int is_data = (Py_TYPE(packet) == (PyTypeObject *)g_data_cls);
    int is_batch = !is_data
        && (Py_TYPE(packet) == (PyTypeObject *)g_batch_cls);
    if (!is_data && !is_batch) {
        /* A subclass of either wire type must take the pure branches. */
        int inst = PyObject_IsInstance(packet, g_data_cls);
        if (inst == 0)
            inst = PyObject_IsInstance(packet, g_batch_cls);
        if (inst != 0) {
            Py_DECREF(lan);
            if (inst < 0)
                return NULL;
            Py_RETURN_NOTIMPLEMENTED;
        }
        /* Control traffic (tokens, joins): flat per-frame + per-byte. */
        PyObject *szo = PyObject_CallMethodNoArgs(packet, s_wire_size_meth);
        if (szo == NULL)
            goto fail;
        double size = PyFloat_AsDouble(szo);
        Py_DECREF(szo);
        if (size == -1.0 && PyErr_Occurred())
            goto fail;
        double per_recv, per_byte;
        if (attr_as_double(lan, s_cpu_recv, &per_recv) < 0
                || attr_as_double(lan, s_cpu_byte_recv, &per_byte) < 0)
            goto fail;
        Py_DECREF(lan);
        double t = per_byte * size;
        return PyFloat_FromDouble(per_recv + t);
    }

    long long size = is_data ? data_wire_size(packet)
                             : batch_wire_size(packet);
    if (size < 0)
        goto fail;
    PyObject *srp = PyObject_GetAttr(rrp, s_srp_attr);
    if (srp == NULL)
        goto fail;
    int dup = 0;
    if (srp != Py_None) {
        if (is_data) {
            dup = recv_cost_is_dup_data(srp, packet);
        }
        else {
            /* Reuse the compiled batch duplicate check (it, too, bails
             * NotImplemented for non-current rings). */
            PyObject *t = PyTuple_Pack(2, srp, packet);
            PyObject *v = t ? corec_is_duplicate_batch(NULL, t) : NULL;
            Py_XDECREF(t);
            if (v == NULL)
                dup = -1;
            else if (v == Py_NotImplemented)
                dup = 2;
            else
                dup = PyObject_IsTrue(v);
            Py_XDECREF(v);
        }
    }
    Py_DECREF(srp);
    if (dup < 0)
        goto fail;
    if (dup == 2) {
        Py_DECREF(lan);
        Py_RETURN_NOTIMPLEMENTED;
    }
    double cost;
    if (dup) {
        double per_dup, per_byte_dup;
        if (attr_as_double(lan, s_cpu_dup, &per_dup) < 0
                || attr_as_double(lan, s_cpu_byte_dup, &per_byte_dup) < 0)
            goto fail;
        double t = per_byte_dup * (double)size;
        cost = per_dup + t;
    }
    else {
        long long completed = 0;
        if (is_data) {
            PyObject *chunks = PyObject_GetAttr(packet, s_chunks);
            int r = chunks ? count_completed(chunks, &completed) : -1;
            Py_XDECREF(chunks);
            if (r < 0)
                goto fail;
        }
        else {
            PyObject *packets = PyObject_GetAttr(packet, s_packets);
            if (packets == NULL || !PyTuple_Check(packets)) {
                Py_XDECREF(packets);
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_TypeError,
                                    "batch.packets must be a tuple");
                goto fail;
            }
            Py_ssize_t np = PyTuple_GET_SIZE(packets);
            for (Py_ssize_t i = 0; i < np; i++) {
                PyObject *chunks = PyObject_GetAttr(
                    PyTuple_GET_ITEM(packets, i), s_chunks);
                int r = chunks ? count_completed(chunks, &completed) : -1;
                Py_XDECREF(chunks);
                if (r < 0) {
                    Py_DECREF(packets);
                    goto fail;
                }
            }
            Py_DECREF(packets);
        }
        double per_recv, per_byte, per_msg;
        if (attr_as_double(lan, s_cpu_recv, &per_recv) < 0
                || attr_as_double(lan, s_cpu_byte_recv, &per_byte) < 0
                || attr_as_double(lan, s_cpu_msg, &per_msg) < 0)
            goto fail;
        double t = per_byte * (double)size;
        cost = per_recv + t;
        t = per_msg * (double)completed;
        cost = cost + t;
    }
    Py_DECREF(lan);
    return PyFloat_FromDouble(cost);

fail:
    Py_DECREF(lan);
    return NULL;
}

/* ---------------------------------------------------------------------
 * SimLan.transmit fast path (see net/simlan.py)
 *
 * The fault-free, loss-free, unobserved frame path — the entirety of
 * benchmark traffic — runs in C: serial/generation bookkeeping, medium
 * occupancy, stats, and the single fanout event.  The *presence* of any
 * fault feature (loss rate, scripted drops, burst model, blocked nodes,
 * partition) or an attached observer bails to the pure method before any
 * state is touched, so loss draws keep consuming the RNG stream from
 * exactly the same code as always.
 * ------------------------------------------------------------------- */

/* Attribute is an empty container / falsy flag.  1 yes, 0 no, -1 error. */
static int
attr_is_falsy(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    int t = PyObject_IsTrue(v);
    Py_DECREF(v);
    return t < 0 ? -1 : !t;
}

/* Attribute is None.  1 yes, 0 no, -1 error. */
static int
attr_is_none(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    int r = (v == Py_None);
    Py_DECREF(v);
    return r;
}

/* packet.wire_size() for any packet type.  -1 on error. */
static long long
any_wire_size(PyObject *packet)
{
    if (Py_TYPE(packet) == (PyTypeObject *)g_data_cls)
        return data_wire_size(packet);
    if (Py_TYPE(packet) == (PyTypeObject *)g_batch_cls)
        return batch_wire_size(packet);
    PyObject *szo = PyObject_CallMethodNoArgs(packet, s_wire_size_meth);
    if (szo == NULL)
        return -1;
    long long v = PyLong_AsLongLong(szo);
    Py_DECREF(szo);
    if (v == -1 && PyErr_Occurred())
        return -1;
    return v;
}

/* Mirror EventScheduler.schedule(when, cb, *args): past check, counter
 * draw, heap push.  Steals nothing; 0 / -1. */
static int
schedule_event(PyObject *sched, double when, PyObject *cb, PyObject *cargs)
{
    PyObject *clock = PyObject_GetAttr(sched, s_clock);
    if (clock == NULL)
        return -1;
    double now;
    if (attr_as_double(clock, s_now_attr, &now) < 0) {
        Py_DECREF(clock);
        return -1;
    }
    Py_DECREF(clock);
    PyObject *when_obj = PyFloat_FromDouble(when);
    if (when_obj == NULL)
        return -1;
    if (when < now) {
        PyObject *now_obj = PyFloat_FromDouble(now);
        if (now_obj != NULL)
            PyErr_Format(g_sim_error,
                         "cannot schedule event in the past: %S < %S",
                         when_obj, now_obj);
        Py_XDECREF(now_obj);
        Py_DECREF(when_obj);
        return -1;
    }
    PyObject *counter = PyObject_GetAttr(sched, s_counter);
    PyObject *cnt = counter ? PyIter_Next(counter) : NULL;
    Py_XDECREF(counter);
    if (cnt == NULL) {
        Py_DECREF(when_obj);
        return -1;
    }
    PyObject *entry = PyList_New(4);
    if (entry == NULL) {
        Py_DECREF(cnt);
        Py_DECREF(when_obj);
        return -1;
    }
    PyList_SET_ITEM(entry, 0, when_obj);    /* steals */
    PyList_SET_ITEM(entry, 1, cnt);
    PyList_SET_ITEM(entry, 2, Py_NewRef(cb));
    PyList_SET_ITEM(entry, 3, Py_NewRef(cargs));
    PyObject *heap = PyObject_GetAttr(sched, s_heap);
    if (heap == NULL || !PyList_Check(heap)) {
        if (heap != NULL && !PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "scheduler._heap must be a list");
        Py_XDECREF(heap);
        Py_DECREF(entry);
        return -1;
    }
    int r = heap_push(heap, entry);
    Py_DECREF(heap);
    Py_DECREF(entry);
    return r;
}

/* SimLan.transmit body for the plain case.  `dest` NULL = broadcast;
 * `generation` is the port's generation (never NULL from the LanPort
 * shortcut).  1 = handled, 0 = bail to the pure method (no state was
 * touched), -1 = error. */
static int
lan_transmit_impl(PyObject *lan, PyObject *src, PyObject *packet,
                  PyObject *dest, PyObject *generation)
{
    /* ---- bail probes: nothing below mutates ---- */
    int r = attr_is_none(lan, s_observer);
    if (r <= 0)
        return r;
    PyObject *faults = PyObject_GetAttr(lan, s_faults);
    if (faults == NULL)
        return -1;
    int plain =
        (r = attr_is_falsy(faults, s_down)) > 0
        && (r = attr_is_falsy(faults, s_send_blocked)) > 0
        && (r = attr_is_falsy(faults, s_recv_blocked)) > 0
        && (r = attr_is_falsy(faults, s_blocked_pairs)) > 0
        && (r = attr_is_falsy(faults, s_drop_serials)) > 0
        && (r = attr_is_none(faults, s_partition)) > 0
        && (r = attr_is_none(faults, s_burst_loss)) > 0;
    if (r < 0 || !plain) {
        Py_DECREF(faults);
        return r < 0 ? -1 : 0;
    }
    PyObject *config = PyObject_GetAttr(lan, s_config);
    if (config == NULL) {
        Py_DECREF(faults);
        return -1;
    }
    double loss_rate, extra_loss;
    if (attr_as_double(config, s_loss_rate, &loss_rate) < 0
            || attr_as_double(faults, s_extra_loss, &extra_loss) < 0) {
        Py_DECREF(config);
        Py_DECREF(faults);
        return -1;
    }
    Py_DECREF(faults);
    if (loss_rate + extra_loss > 0.0) {
        Py_DECREF(config);
        return 0;                       /* loss draws stay in Python */
    }
    /* Structural probes: the bookkeeping dicts must be plain dicts. */
    PyObject *txs = NULL, *gens = NULL, *chans = NULL, *chrecv = NULL,
        *stats = NULL, *sched = NULL, *fanout = NULL;
    int handled = -1;
    if ((txs = PyObject_GetAttr(lan, s_tx_serial)) == NULL
            || (gens = PyObject_GetAttr(lan, s_generations)) == NULL
            || (chans = PyObject_GetAttr(lan, s_channels)) == NULL
            || (chrecv = PyObject_GetAttr(lan, s_channel_receivers)) == NULL
            || (stats = PyObject_GetAttr(lan, s_stats)) == NULL
            || (sched = PyObject_GetAttr(lan, s_scheduler)) == NULL)
        goto done;
    if (!PyDict_CheckExact(txs) || !PyDict_CheckExact(gens)
            || !PyDict_CheckExact(chans) || !PyDict_CheckExact(chrecv)) {
        handled = 0;
        goto done;
    }
    PyObject *channel = PyDict_GetItemWithError(chans, src);  /* borrowed */
    if (channel == NULL) {
        if (PyErr_Occurred())
            goto done;
        channel = g_zero;
    }
    PyObject *receivers = PyDict_GetItemWithError(chrecv, channel);
    if (receivers == NULL && PyErr_Occurred())
        goto done;
    if (receivers != NULL && !PyDict_CheckExact(receivers)) {
        handled = 0;
        goto done;
    }

    /* ---- committed: mirror the pure mutation order exactly ---- */
    {
        if (attr_add_ll(stats, s_frames_offered, 1) < 0)
            goto done;
        PyObject *cur = PyDict_GetItemWithError(txs, src);  /* borrowed */
        if (cur == NULL && PyErr_Occurred())
            goto done;
        long long serial = 0;
        if (cur != NULL) {
            serial = PyLong_AsLongLong(cur);
            if (serial == -1 && PyErr_Occurred())
                goto done;
        }
        serial += 1;
        PyObject *serial_obj = PyLong_FromLongLong(serial);
        if (serial_obj == NULL)
            goto done;
        if (PyDict_SetItem(txs, src, serial_obj) < 0) {
            Py_DECREF(serial_obj);
            goto done;
        }
        if (generation != NULL && generation != Py_None) {
            PyObject *curgen = PyDict_GetItemWithError(gens, src);
            if (curgen == NULL && PyErr_Occurred()) {
                Py_DECREF(serial_obj);
                goto done;
            }
            int neq = curgen == NULL ? 1
                : PyObject_RichCompareBool(curgen, generation, Py_NE);
            if (neq != 0) {
                Py_DECREF(serial_obj);
                if (neq < 0)
                    goto done;
                handled = attr_add_ll(stats, s_frames_blocked, 1) < 0
                    ? -1 : 1;           /* dead incarnation's port */
                goto done;
            }
        }
        /* faults.can_send is True: down and send_blocked probed falsy. */
        long long payload = any_wire_size(packet);
        if (payload < 0) {
            Py_DECREF(serial_obj);
            goto done;
        }
        long long frame_overhead, min_frame;
        double bw, latency;
        if (attr_as_ll(config, s_frame_overhead, &frame_overhead) < 0
                || attr_as_ll(config, s_min_frame, &min_frame) < 0
                || attr_as_double(config, s_bandwidth, &bw) < 0
                || attr_as_double(config, s_latency, &latency) < 0) {
            Py_DECREF(serial_obj);
            goto done;
        }
        long long frame = payload + frame_overhead;
        if (frame < min_frame)
            frame = min_frame;
        double wire_time = (double)frame * 8.0 / bw;
        PyObject *clock = PyObject_GetAttr(sched, s_clock);
        double now;
        if (clock == NULL || attr_as_double(clock, s_now_attr, &now) < 0) {
            Py_XDECREF(clock);
            Py_DECREF(serial_obj);
            goto done;
        }
        Py_DECREF(clock);
        double start;
        if (attr_as_double(lan, s_medium_free, &start) < 0) {
            Py_DECREF(serial_obj);
            goto done;
        }
        if (now > start)
            start = now;
        double done_t = start + wire_time;
        PyObject *done_obj = PyFloat_FromDouble(done_t);
        if (done_obj == NULL
                || PyObject_SetAttr(lan, s_medium_free, done_obj) < 0) {
            Py_XDECREF(done_obj);
            Py_DECREF(serial_obj);
            goto done;
        }
        Py_DECREF(done_obj);
        long long wire = payload + frame_overhead;
        if (attr_add_ll(stats, s_frames_sent, 1) < 0
                || attr_add_ll(stats, s_payload_bytes, payload) < 0
                || attr_add_ll(stats, s_wire_bytes,
                               wire > min_frame ? wire : min_frame) < 0
                || attr_add_double(stats, s_busy_time, wire_time) < 0) {
            Py_DECREF(serial_obj);
            goto done;
        }
        double arrival;
        if (Py_TYPE(packet) == (PyTypeObject *)g_batch_cls) {
            /* head-frame arrival: start + wire_time(first) + latency */
            PyObject *subs = PyObject_GetAttr(packet, s_packets);
            if (subs == NULL || !PyTuple_Check(subs)
                    || PyTuple_GET_SIZE(subs) == 0) {
                Py_XDECREF(subs);
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_TypeError,
                                    "batch.packets must be a non-empty tuple");
                Py_DECREF(serial_obj);
                goto done;
            }
            long long w0 = data_wire_size(PyTuple_GET_ITEM(subs, 0));
            Py_DECREF(subs);
            if (w0 < 0) {
                Py_DECREF(serial_obj);
                goto done;
            }
            long long f0 = w0 + frame_overhead;
            if (f0 < min_frame)
                f0 = min_frame;
            double wt0 = (double)f0 * 8.0 / bw;
            arrival = start + wt0;
            arrival = arrival + latency;
        }
        else {
            arrival = done_t + latency;
        }
        /* fanout list, in attachment (dict insertion) order */
        fanout = PyList_New(0);
        if (fanout == NULL) {
            Py_DECREF(serial_obj);
            goto done;
        }
        long long delivered = 0;
        if (receivers != NULL && dest != NULL) {
            int present = PyDict_Contains(receivers, dest);
            if (present < 0) {
                Py_DECREF(serial_obj);
                goto done;
            }
            if (present) {
                PyObject *deliver = PyDict_GetItemWithError(receivers, dest);
                PyObject *pair =
                    deliver ? PyTuple_Pack(2, deliver, dest) : NULL;
                int ar = pair ? PyList_Append(fanout, pair) : -1;
                Py_XDECREF(pair);
                if (ar < 0) {
                    Py_DECREF(serial_obj);
                    goto done;
                }
                delivered++;
            }
        }
        else if (receivers != NULL) {
            PyObject *node, *deliver;
            Py_ssize_t pos = 0;
            while (PyDict_Next(receivers, &pos, &node, &deliver)) {
                int self_send = PyObject_RichCompareBool(node, src, Py_EQ);
                if (self_send < 0) {
                    Py_DECREF(serial_obj);
                    goto done;
                }
                if (self_send)
                    continue;
                PyObject *pair = PyTuple_Pack(2, deliver, node);
                int ar = pair ? PyList_Append(fanout, pair) : -1;
                Py_XDECREF(pair);
                if (ar < 0) {
                    Py_DECREF(serial_obj);
                    goto done;
                }
                delivered++;
            }
        }
        if (delivered > 0
                && attr_add_ll(stats, s_deliveries, delivered) < 0) {
            Py_DECREF(serial_obj);
            goto done;
        }
        if (PyList_GET_SIZE(fanout) > 0) {
            PyObject *cb = PyObject_GetAttr(lan, s_fanout_attr);
            PyObject *cargs =
                cb ? PyTuple_Pack(4, src, packet, fanout, serial_obj) : NULL;
            int sr = cargs ? schedule_event(sched, arrival, cb, cargs) : -1;
            Py_XDECREF(cargs);
            Py_XDECREF(cb);
            if (sr < 0) {
                Py_DECREF(serial_obj);
                goto done;
            }
        }
        Py_DECREF(serial_obj);
        handled = 1;
    }

done:
    Py_DECREF(config);
    Py_XDECREF(txs);
    Py_XDECREF(gens);
    Py_XDECREF(chans);
    Py_XDECREF(chrecv);
    Py_XDECREF(stats);
    Py_XDECREF(sched);
    Py_XDECREF(fanout);
    return handled;
}

/* ---------------------------------------------------------------------
 * NodeCpu pipeline: submit / finish (see net/stack.py)
 *
 * The single-server FIFO CPU is the per-frame glue between the LAN and
 * the protocol engines: every send and receive passes through
 * ``submit -> (scheduled) _finish``, each of which bills and schedules a
 * job (the idle one / the next queued one).  These C twins share that
 * billing while keeping the *scheduled entry*
 * byte-identical to the pure path: ``[when, counter, cpu._finish,
 * (fn, args)]`` with a fresh bound method, so the explorer's entry
 * classification (NodeCpu ownership, LanPort transmit detection) and
 * deepcopy world-forking see exactly the pure scheduler state.
 * ------------------------------------------------------------------- */

/* A job's cost in seconds: evaluate the (possibly deferred) cost and
 * reject a negative one.  New reference, or NULL with the error set — the
 * caller has marked and scheduled nothing yet, so a rejected job cannot
 * leave the CPU "running" with no finish event on the heap. */
static PyObject *
cpu_job_cost(PyObject *cost)
{
    PyObject *costv;
    if (g_partial_cls != NULL
            && Py_TYPE(cost) == (PyTypeObject *)g_partial_cls) {
        /* A queued frame's deferred cost (see _PortDeliver):
         * partial(stack._recv_cost_fn, packet) */
        PyObject *rcfn = PyObject_GetAttr(cost, s_func_attr);
        PyObject *pargs = rcfn ? PyObject_GetAttr(cost, s_args_attr) : NULL;
        if (pargs == NULL) {
            Py_XDECREF(rcfn);
            return NULL;
        }
        if (PyMethod_Check(rcfn)
                && PyMethod_GET_FUNCTION(rcfn) == g_recv_cost_fn
                && PyTuple_Check(pargs) && PyTuple_GET_SIZE(pargs) == 1) {
            /* ReplicationEngine._recv_cost in C; NotImplemented bails
             * to the pure classifier (old-ring / foreign traffic). */
            costv = recv_cost_impl(PyMethod_GET_SELF(rcfn),
                                   PyTuple_GET_ITEM(pargs, 0));
            if (costv == Py_NotImplemented) {
                Py_DECREF(costv);
                costv = PyObject_CallNoArgs(cost);
            }
        }
        else {
            costv = PyObject_CallNoArgs(cost);
        }
        Py_DECREF(pargs);
        Py_DECREF(rcfn);
    }
    else if (PyCallable_Check(cost)) {
        costv = PyObject_CallNoArgs(cost);
    }
    else {
        costv = Py_NewRef(cost);
    }
    if (costv == NULL)
        return NULL;
    int neg = PyObject_RichCompareBool(costv, g_zero, Py_LT);
    if (neg != 0) {
        if (neg > 0)
            PyErr_Format(g_transport_error, "negative CPU cost %S", costv);
        Py_DECREF(costv);
        return NULL;
    }
    return costv;
}

/* Bill a validated cost (steals `costv`) and schedule cpu._finish(fn,
 * fnargs) that many seconds from now.  0 / -1. */
static int
cpu_schedule_job(PyObject *cpu, PyObject *costv, PyObject *fn,
                 PyObject *fnargs)
{
    PyObject *stats = PyObject_GetAttr(cpu, s_stats);
    if (stats == NULL)
        goto fail_cost;
    PyObject *busy = PyObject_GetAttr(stats, s_busy_time);
    PyObject *newbusy = busy ? PyNumber_Add(busy, costv) : NULL;
    Py_XDECREF(busy);
    if (newbusy == NULL) {
        Py_DECREF(stats);
        goto fail_cost;
    }
    int sr = PyObject_SetAttr(stats, s_busy_time, newbusy);
    Py_DECREF(newbusy);
    if (sr < 0 || attr_add_ll(stats, s_operations, 1) < 0) {
        Py_DECREF(stats);
        goto fail_cost;
    }
    Py_DECREF(stats);

    PyObject *sched = PyObject_GetAttr(cpu, s_scheduler);
    if (sched == NULL)
        goto fail_cost;
    PyObject *clock = PyObject_GetAttr(sched, s_clock);
    PyObject *now_obj = clock ? PyObject_GetAttr(clock, s_now_attr) : NULL;
    Py_XDECREF(clock);
    if (now_obj == NULL)
        goto fail_sched;
    PyObject *when = PyNumber_Add(now_obj, costv);
    if (when == NULL) {
        Py_DECREF(now_obj);
        goto fail_sched;
    }
    int past = PyObject_RichCompareBool(when, now_obj, Py_LT);
    if (past != 0) {
        if (past > 0)
            PyErr_Format(g_sim_error,
                         "cannot schedule event in the past: %S < %S",
                         when, now_obj);
        Py_DECREF(when);
        Py_DECREF(now_obj);
        goto fail_sched;
    }
    Py_DECREF(now_obj);
    PyObject *counter = PyObject_GetAttr(sched, s_counter);
    PyObject *cnt = counter ? PyIter_Next(counter) : NULL;
    Py_XDECREF(counter);
    if (cnt == NULL) {
        Py_DECREF(when);
        goto fail_sched;
    }
    PyObject *finish = PyObject_GetAttr(cpu, s_finish);
    PyObject *args2 = finish ? PyTuple_Pack(2, fn, fnargs) : NULL;
    if (args2 == NULL) {
        Py_XDECREF(finish);
        Py_DECREF(cnt);
        Py_DECREF(when);
        goto fail_sched;
    }
    PyObject *entry = PyList_New(4);
    if (entry == NULL) {
        Py_DECREF(args2);
        Py_DECREF(finish);
        Py_DECREF(cnt);
        Py_DECREF(when);
        goto fail_sched;
    }
    PyList_SET_ITEM(entry, 0, when);        /* steals */
    PyList_SET_ITEM(entry, 1, cnt);
    PyList_SET_ITEM(entry, 2, finish);
    PyList_SET_ITEM(entry, 3, args2);
    PyObject *heap = PyObject_GetAttr(sched, s_heap);
    if (heap == NULL || !PyList_Check(heap)) {
        if (heap != NULL && !PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "scheduler._heap must be a list");
        Py_XDECREF(heap);
        Py_DECREF(entry);
        goto fail_sched;
    }
    int pr = heap_push(heap, entry);
    Py_DECREF(heap);
    Py_DECREF(entry);
    Py_DECREF(sched);
    Py_DECREF(costv);
    return pr;

fail_sched:
    Py_DECREF(sched);
fail_cost:
    Py_DECREF(costv);
    return -1;
}

/* The tail of NodeCpu._finish: begin the next queued job or go idle.  A
 * queued job whose cost is rejected is dropped and the one behind it is
 * tried, so the CPU never stays "running" with nothing scheduled; the
 * (last) rejection is raised once a job started or the queue drained,
 * earlier ones chained as its context like the pure recursion.  0 / -1. */
static int
cpu_start_next(PyObject *cpu)
{
    PyObject *queue = PyObject_GetAttr(cpu, s_queue);
    if (queue == NULL)
        return -1;
    PyObject *etype = NULL, *evalue = NULL, *etb = NULL;
    int r;
    for (;;) {
        Py_ssize_t n = PySequence_Size(queue);
        if (n < 0) {
            r = -1;
            break;
        }
        if (n == 0) {
            r = PyObject_SetAttr(cpu, s_running, Py_False);
            break;
        }
        PyObject *trip = PyObject_CallMethodObjArgs(queue, s_popleft, NULL);
        if (trip == NULL) {
            r = -1;
            break;
        }
        if (!PyTuple_CheckExact(trip) || PyTuple_GET_SIZE(trip) != 3) {
            Py_DECREF(trip);
            PyErr_SetString(PyExc_TypeError,
                            "CPU queue entries must be (cost, fn, args) tuples");
            r = -1;
            break;
        }
        PyObject *costv = cpu_job_cost(PyTuple_GET_ITEM(trip, 0));
        if (costv == NULL) {
            Py_DECREF(trip);
            if (!PyErr_ExceptionMatches(PyExc_Exception)) {
                r = -1;         /* KeyboardInterrupt & co: not a rejection */
                break;
            }
            if (etype != NULL)
                _PyErr_ChainExceptions(etype, evalue, etb);
            PyErr_Fetch(&etype, &evalue, &etb);
            continue;
        }
        r = cpu_schedule_job(cpu, costv, PyTuple_GET_ITEM(trip, 1),
                             PyTuple_GET_ITEM(trip, 2));
        Py_DECREF(trip);
        break;
    }
    Py_DECREF(queue);
    if (etype != NULL) {
        if (r < 0)
            _PyErr_ChainExceptions(etype, evalue, etb);
        else
            PyErr_Restore(etype, evalue, etb);
        return -1;
    }
    return r;
}

/* NodeCpu.submit body.  0 / -1. */
static int
cpu_submit_impl(PyObject *cpu, PyObject *cost, PyObject *fn,
                PyObject *fnargs)
{
    PyObject *running = PyObject_GetAttr(cpu, s_running);
    if (running == NULL)
        return -1;
    int busy = PyObject_IsTrue(running);
    Py_DECREF(running);
    if (busy < 0)
        return -1;
    if (busy) {
        PyObject *queue = PyObject_GetAttr(cpu, s_queue);
        if (queue == NULL)
            return -1;
        PyObject *trip = PyTuple_Pack(3, cost, fn, fnargs);
        if (trip == NULL) {
            Py_DECREF(queue);
            return -1;
        }
        PyObject *res = PyObject_CallMethodObjArgs(queue, s_append, trip,
                                                   NULL);
        Py_DECREF(trip);
        Py_DECREF(queue);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    /* Validate before marking the CPU busy (see cpu_job_cost). */
    PyObject *costv = cpu_job_cost(cost);
    if (costv == NULL)
        return -1;
    if (PyObject_SetAttr(cpu, s_running, Py_True) < 0) {
        Py_DECREF(costv);
        return -1;
    }
    return cpu_schedule_job(cpu, costv, fn, fnargs);
}

/* cpu_submit(cpu, cost, fn, args): compiled NodeCpu.submit. */
static PyObject *
corec_cpu_submit(PyObject *self, PyObject *args)
{
    PyObject *cpu, *cost, *fn, *fnargs;
    if (!PyArg_ParseTuple(args, "OOOO!", &cpu, &cost, &fn,
                          &PyTuple_Type, &fnargs))
        return NULL;
    if (check_bound() < 0)
        return NULL;
    if (cpu_submit_impl(cpu, cost, fn, fnargs) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* NodeCpu._finish body — run the job, then start the next one (even when
 * the job raised, like the pure try/finally).  0 / -1. */
static PyObject *
call_recv_handler(PyObject *handler, PyObject *fnargs)
{
    /* handler(packet, network) with the engine's batch receive chain
     * inlined: on_packet -> recv_batch -> TotemSrp.on_batch are all thin
     * known bodies ending in the compiled on_batch, and batch frames are
     * the bulk of upward traffic.  Any patched link in the chain
     * (instance attribute or subclass override) fails the bound-function
     * identity checks and takes the generic call below. */
    if (g_on_packet_fn != NULL && PyMethod_Check(handler)
            && PyMethod_GET_FUNCTION(handler) == g_on_packet_fn
            && PyTuple_GET_SIZE(fnargs) == 2
            && Py_TYPE(PyTuple_GET_ITEM(fnargs, 0))
               == (PyTypeObject *)g_batch_cls) {
        PyObject *owner = PyMethod_GET_SELF(handler);
        PyObject *stopped = PyObject_GetAttr(owner, s_stopped);
        if (stopped == NULL)
            return NULL;
        int is_stopped = PyObject_IsTrue(stopped);
        Py_DECREF(stopped);
        if (is_stopped < 0)
            return NULL;
        if (is_stopped)
            Py_RETURN_NONE;     /* dead incarnation: drop the frame */
        PyObject *recvb = PyObject_GetAttr(owner, s_recv_batch);
        if (recvb == NULL)
            return NULL;
        int plain = PyMethod_Check(recvb)
            && PyMethod_GET_FUNCTION(recvb) == g_recv_batch_fn;
        Py_DECREF(recvb);
        if (plain) {
            PyObject *srp = PyObject_GetAttr(owner, s_srp_pub);
            if (srp == NULL)
                return NULL;
            PyObject *onb = PyObject_GetAttr(srp, s_on_batch_meth);
            if (onb == NULL) {
                Py_DECREF(srp);
                return NULL;
            }
            plain = PyMethod_Check(onb)
                && PyMethod_GET_FUNCTION(onb) == g_srp_on_batch_fn;
            Py_DECREF(onb);
            if (plain) {
                PyObject *t = PyTuple_Pack(3, srp,
                                           PyTuple_GET_ITEM(fnargs, 0),
                                           PyTuple_GET_ITEM(fnargs, 1));
                Py_DECREF(srp);
                if (t == NULL)
                    return NULL;
                PyObject *r = corec_on_batch(NULL, t);
                Py_DECREF(t);
                return r;
            }
            Py_DECREF(srp);
        }
    }
    return PyObject_Call(handler, fnargs, NULL);
}

static int
cpu_finish_impl(PyObject *cpu, PyObject *fn, PyObject *fnargs)
{
    PyObject *res;
    if (g_port_broadcast_fn != NULL && PyMethod_Check(fn)
             && (PyMethod_GET_FUNCTION(fn) == g_port_broadcast_fn
                 || PyMethod_GET_FUNCTION(fn) == g_port_unicast_fn)
             && PyTuple_GET_SIZE(fnargs)
                == (PyMethod_GET_FUNCTION(fn) == g_port_broadcast_fn ? 1 : 2)) {
        /* LanPort.broadcast / .unicast inlined -> lan_transmit_impl,
         * which bails back to the pure transmit (generic call below)
         * whenever the LAN has an observer, faults, or a loss rate. */
        int uni = PyMethod_GET_FUNCTION(fn) == g_port_unicast_fn;
        PyObject *port = PyMethod_GET_SELF(fn);
        PyObject *lan = PyObject_GetAttr(port, s_lan_attr);
        PyObject *node = lan ? PyObject_GetAttr(port, s_node_attr) : NULL;
        PyObject *gen = node ? PyObject_GetAttr(port, s_generation_attr) : NULL;
        if (gen == NULL) {
            Py_XDECREF(node);
            Py_XDECREF(lan);
            res = NULL;
        }
        else {
            PyObject *dest = uni ? PyTuple_GET_ITEM(fnargs, 0) : NULL;
            PyObject *packet = PyTuple_GET_ITEM(fnargs, uni ? 1 : 0);
            int tr = lan_transmit_impl(lan, node, packet, dest, gen);
            Py_DECREF(gen);
            Py_DECREF(node);
            Py_DECREF(lan);
            if (tr < 0)
                res = NULL;
            else if (tr > 0)
                res = Py_NewRef(Py_None);
            else
                res = PyObject_Call(fn, fnargs, NULL);
        }
    }
    else {
        /* A received frame's job is the installed handler itself (see
         * _PortDeliver); anything else takes its generic call. */
        res = call_recv_handler(fn, fnargs);
    }
    if (res == NULL) {
        PyObject *etype, *evalue, *etb;
        PyErr_Fetch(&etype, &evalue, &etb);
        if (cpu_start_next(cpu) < 0) {
            /* both raised: the finally's exception wins, chained */
            _PyErr_ChainExceptions(etype, evalue, etb);
            return -1;
        }
        PyErr_Restore(etype, evalue, etb);
        return -1;
    }
    Py_DECREF(res);
    return cpu_start_next(cpu);
}

/* cpu_finish(cpu, fn, args): module-level wrapper for NodeCpu._finish. */
static PyObject *
corec_cpu_finish(PyObject *self, PyObject *args)
{
    PyObject *cpu, *fn, *fnargs;
    if (!PyArg_ParseTuple(args, "OOO!", &cpu, &fn, &PyTuple_Type, &fnargs))
        return NULL;
    if (check_bound() < 0)
        return NULL;
    if (cpu_finish_impl(cpu, fn, fnargs) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---------------------------------------------------------------------
 * scheduler dispatch shortcuts
 *
 * The compiled run_until pops ordinary bound methods off the heap (the
 * scheduled state must stay pure-identical for the explorer and for
 * deepcopy world-forking), but most of them — CPU finish, LAN fanout —
 * have C twins.
 * dispatch_event() recognises them by function identity and runs the
 * twin directly, skipping the Python wrapper frame.  A callback whose
 * method was patched (instrumentation, mocks) has a different __func__
 * and takes the generic call path.
 * ------------------------------------------------------------------- */

/* SimLan._fanout body: cargs = (src, packet, targets, serial).  0 / -1. */
static int
fanout_impl(PyObject *lan, PyObject *cargs)
{
    PyObject *src = PyTuple_GET_ITEM(cargs, 0);
    PyObject *packet = PyTuple_GET_ITEM(cargs, 1);
    PyObject *targets = PyTuple_GET_ITEM(cargs, 2);
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(targets); i++) {
        PyObject *pair = PyList_GET_ITEM(targets, i);
        Py_INCREF(pair);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            Py_DECREF(pair);
            PyErr_SetString(PyExc_TypeError,
                            "fanout targets must be (deliver, node) tuples");
            return -1;
        }
        PyObject *deliver = PyTuple_GET_ITEM(pair, 0);
        int inlined = 0;
        if (g_portdeliver_cls != NULL
                && Py_TYPE(deliver) == (PyTypeObject *)g_portdeliver_cls) {
            /* _PortDeliver.__call__ inlined:
             *   stack._cpu.submit(partial(stack._recv_cost_fn, packet),
             *                     stack._handler or stack._dispatch,
             *                     packet, self._network)
             * — but only when stack._cpu.submit is the real NodeCpu
             * method (a mocked or patched CPU takes the generic call). */
            PyObject *stack = PyObject_GetAttr(deliver, s_stack_attr);
            PyObject *network =
                stack ? PyObject_GetAttr(deliver, s_network_attr) : NULL;
            PyObject *cpu =
                network ? PyObject_GetAttr(stack, s_cpu_attr) : NULL;
            PyObject *submeth =
                cpu ? PyObject_GetAttr(cpu, s_submit) : NULL;
            if (submeth == NULL) {
                Py_XDECREF(cpu);
                Py_XDECREF(network);
                Py_XDECREF(stack);
                Py_DECREF(pair);
                return -1;
            }
            if (PyMethod_Check(submeth)
                    && PyMethod_GET_FUNCTION(submeth) == g_cpu_submit_fn) {
                PyObject *dispatch = PyObject_GetAttr(stack, s_handler);
                if (dispatch == Py_None)
                    Py_SETREF(dispatch,
                              PyObject_GetAttr(stack, s_dispatch_meth));
                PyObject *rcfn =
                    dispatch ? PyObject_GetAttr(stack, s_recv_cost_fn) : NULL;
                PyObject *cost = rcfn ? PyObject_CallFunctionObjArgs(
                    g_partial_cls, rcfn, packet, NULL) : NULL;
                Py_XDECREF(rcfn);
                PyObject *fnargs =
                    cost ? PyTuple_Pack(2, packet, network) : NULL;
                int r = fnargs == NULL ? -1
                    : cpu_submit_impl(cpu, cost, dispatch, fnargs);
                Py_XDECREF(fnargs);
                Py_XDECREF(cost);
                Py_XDECREF(dispatch);
                if (r < 0) {
                    Py_DECREF(submeth);
                    Py_DECREF(cpu);
                    Py_DECREF(network);
                    Py_DECREF(stack);
                    Py_DECREF(pair);
                    return -1;
                }
                inlined = 1;
            }
            Py_DECREF(submeth);
            Py_DECREF(cpu);
            Py_DECREF(network);
            Py_DECREF(stack);
        }
        if (!inlined) {
            PyObject *r = PyObject_CallFunctionObjArgs(deliver, src,
                                                       packet, NULL);
            if (r == NULL) {
                Py_DECREF(pair);
                return -1;
            }
            Py_DECREF(r);
        }
        Py_DECREF(pair);
    }
    return 0;
}

/* Run one scheduler event.  0 / -1 with the callback's exception set. */
static int
dispatch_event(PyObject *cb, PyObject *cargs)
{
    if (PyMethod_Check(cb) && PyTuple_CheckExact(cargs)) {
        PyObject *fn = PyMethod_GET_FUNCTION(cb);
        PyObject *owner = PyMethod_GET_SELF(cb);
        Py_ssize_t n = PyTuple_GET_SIZE(cargs);
        if (fn == g_cpu_finish_fn && n == 2
                && PyTuple_CheckExact(PyTuple_GET_ITEM(cargs, 1)))
            return cpu_finish_impl(owner, PyTuple_GET_ITEM(cargs, 0),
                                   PyTuple_GET_ITEM(cargs, 1));
        if (fn == g_fanout_fn && n == 4
                && PyList_Check(PyTuple_GET_ITEM(cargs, 2)))
            return fanout_impl(owner, cargs);
    }
    PyObject *res = PyObject_Call(cb, cargs, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* ---------------------------------------------------------------------
 * module definition
 * ------------------------------------------------------------------- */

static PyMethodDef corec_methods[] = {
    {"bind", corec_bind, METH_VARARGS,
     "bind(SimulationError, DeliveredMessage, ChunkKind.APP, "
     "SrpState.RECOVERY): cache the Python objects the fast paths need."},
    {"run_until", corec_run_until, METH_VARARGS,
     "run_until(scheduler, t): compiled event-dispatch inner loop."},
    {"try_deliver", corec_try_deliver, METH_O,
     "try_deliver(engine): compiled contiguous delivery sweep."},
    {"next_batch", corec_packer_next_batch, METH_VARARGS,
     "next_batch(packer, max_packets): compiled Packer.next_batch."},
    {"broadcast_batched", corec_broadcast_batched, METH_VARARGS,
     "broadcast_batched(engine, token, allowance): token-visit send path."},
    {"on_batch", corec_on_batch, METH_VARARGS,
     "on_batch(engine, batch, network): apply a frame train, deliver once."},
    {"is_duplicate_batch", corec_is_duplicate_batch, METH_VARARGS,
     "is_duplicate_batch(engine, batch) -> bool | NotImplemented."},
    {"encode_packet", corec_encode, METH_O,
     "encode_packet(packet) -> bytes | NotImplemented (control kinds)."},
    {"decode_packet", corec_decode, METH_O,
     "decode_packet(data) -> packet | NotImplemented (control kinds)."},
    {"cpu_submit", corec_cpu_submit, METH_VARARGS,
     "cpu_submit(cpu, cost, fn, args): compiled NodeCpu.submit."},
    {"cpu_finish", corec_cpu_finish, METH_VARARGS,
     "cpu_finish(cpu, fn, args): compiled NodeCpu._finish body."},
    {NULL}
};

static struct PyModuleDef corec_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._fast._corec",
    .m_doc = "Hand-written CPython acceleration of the simulator hot paths.",
    .m_size = -1,
    .m_methods = corec_methods,
};

PyMODINIT_FUNC
PyInit__corec(void)
{
    if (intern_all() < 0)
        return NULL;
    crc_table_init();
    PyObject *module = PyModule_Create(&corec_module);
    if (module == NULL)
        return NULL;
    if (PyType_Ready(&RBType) < 0
            || PyModule_AddObjectRef(module, "ReceiveBuffer",
                                     (PyObject *)&RBType) < 0)
        goto fail;
    if (PyType_Ready(&ReasmType) < 0
            || PyModule_AddObjectRef(module, "Reassembler",
                                     (PyObject *)&ReasmType) < 0)
        goto fail;
    return module;
fail:
    Py_DECREF(module);
    return NULL;
}
