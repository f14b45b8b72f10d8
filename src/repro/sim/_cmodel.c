/* Compiled model layer for repro: scheduler core + worker machines.
 *
 * Two hand-written CPython objects that mirror the pure-Python model
 * hot path bit for bit:
 *
 * - SchedCore executes repro.cpu.scheduler.CpuScheduler's burst
 *   lifecycle (submit placement, idle-CPU scoring, run queues, work
 *   stealing, SMT sibling re-rate, completion accounting) over raw C
 *   arrays, calling back into Python only where the reference does —
 *   the perf model's hooks, kernel scheduling, handle cancellation,
 *   and the burst's `done` completion — in exactly the reference's
 *   order.  CompiledCpuScheduler owns one and delegates to it.
 *
 * - CWorker is repro.services.instance._WorkerMachine in C: one
 *   replica worker that registers itself as the event callback for
 *   whatever it waits on and drives the endpoint handler generator
 *   with send/throw, chaining through already-processed events inline.
 *   An endpoint built from an application spec carries a flat plan
 *   (repro.apps.runtime.compile_plan); the worker executes that plan
 *   itself, with no generator and no ServiceContext, drawing demands
 *   from the random streams' prefetch buffers and making plain
 *   (non-resilient) calls and responses through a C copy of
 *   Deployment.dispatch / RpcFabric / ServiceInstance.enqueue.
 *
 * Both consume the kernel's shared insertion counter identically to
 * their Python references on every path, so golden digests are
 * byte-for-byte unchanged (the determinism contract pinned by
 * tests/golden).  Rare paths — yield-protocol violations, expired or
 * failed requests, escalations — call the shared Python helpers
 * rather than duplicating their logic.
 *
 * Like _ckernel.c, the module is inert until configure() hands it the
 * Python-side types and helpers; repro.sim.kernel.model_module() calls
 * configure() immediately after import.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>   /* PyMemberDef layout (pre-3.12 headers) */
#include <stdint.h>
#include <math.h>
#include <string.h>

#if PY_VERSION_HEX < 0x030A0000
#  error "repro.sim._cmodel requires Python 3.10+ (PyIter_Send)"
#endif

/* Keep in sync with repro.cpu.scheduler._MIN_RATE. */
#define MIN_RATE 1e-9

/* ------------------------------------------------------------------ */
/* Module state (configured once by repro.sim.kernel)                  */
/* ------------------------------------------------------------------ */

typedef struct {
    int configured;
    PyObject *event_type;      /* repro.sim.events.Event */
    PyObject *pending;         /* repro.sim.events._PENDING */
    PyObject *sim_error;       /* repro._errors.SimulationError */
    PyObject *sim_type;        /* repro.sim.engine.Simulator */
    PyObject *burst_type;      /* repro.cpu.burst.CpuBurst */
    PyObject *group_type;      /* repro.cpu.burst.TaskGroup */
    PyObject *request_type;    /* repro.services.request.Request */
    PyObject *instance_type;   /* repro.services.instance.ServiceInstance */
    PyObject *context_type;    /* repro.services.instance.ServiceContext */
    PyObject *protocol_error;  /* instance._worker_protocol_error */
    PyObject *sched_error;     /* repro._errors.SchedulingError */
    PyObject *memmodel_type;   /* repro.memory.system.MemorySystemModel */
    PyObject *str_throw, *str_succeed, *str_fail, *str_cancel;
    PyObject *str_value, *str_get, *str_resolve, *str_respond;
    PyObject *str_tracer, *str_record, *str_handler;
    PyObject *str_sim, *str_rpc;
    PyObject *str_epoch, *str_mem_load, *str_total, *str_intensity;
    /* Slot offsets (stable across subclasses). */
    Py_ssize_t ev_sim, ev_callbacks, ev_value, ev_ok, ev_defused,
               ev_qcounter;
    Py_ssize_t sim_now, sim_push_ready;
    Py_ssize_t b_demand, b_group, b_done, b_submitted, b_started,
               b_finished, b_cpu_index, b_wall;
    Py_ssize_t g_group_id, g_profile, g_cpu_time, g_last_ccx, g_completed;
    Py_ssize_t rq_endpoint, rq_done, rq_started, rq_completed, rq_deadline;
    Py_ssize_t in_deployment, in_spec, in_queue, in_outstanding,
               in_completed, in_pause, in_group, in_demand_factor;
    /* Endpoint plans and the plain fabric (configure_plans). */
    PyObject *allof_type;      /* repro.sim.events.AllOf */
    PyObject *store_type;      /* repro.sim.resources.Store */
    PyObject *resource_type;   /* repro.sim.resources.Resource */
    PyObject *deployment_type, *rpc_type, *registry_type, *balancer_type;
    PyObject *standard_normal, *standard_uniform;  /* stream refills */
    PyObject *batch_demand, *query_demand;  /* repro.apps.runtime */
    PyObject *request_ids;     /* repro.services.request._request_ids */
    PyObject *arrive_fn, *hop_succeed_fn;   /* this module's hop targets */
    PyObject *zero, *one, *kw_payload_parent;
    PyObject *s_next_standard, *s_state, *s_lognormal_source,
             *s_lognormal_params, *s_lognormal_params_for, *s_lognormal,
             *s_uniform, *s_resilience, *s_registry, *s_balancers,
             *s_lookups, *s_policy, *s_round_robin, *s_instances, *s_next,
             *s_pick, *s_messages_sent, *s_hop_latency, *s_arrive,
             *s_enqueue, *s_getters, *s_items, *s_capacity, *s_popleft,
             *s_append, *s_dispatch, *s_deployment, *s_rpc, *s_streams,
             *s_scheduler, *s_core, *s_plan, *s_lock, *s_acquire,
             *s_release, *s_putters, *s_in_use, *s_waiters, *s_plans;
    Py_ssize_t sim_schedule2, ss_buffer, ss_cursor;
    Py_ssize_t rq_id, rq_service, rq_payload, rq_parent, rq_created,
               rq_enqueued, rq_instance_id, rq_attempt;
    Py_ssize_t in_accepting, in_breaker, in_instance_id, in_shared,
               in_local_id;
} ModelState;

static ModelState M;

static inline PyObject *
slot_get(PyObject *obj, Py_ssize_t offset)
{
    return *(PyObject **)((char *)obj + offset);
}

static inline void
slot_store(PyObject *obj, Py_ssize_t offset, PyObject *value)
{
    PyObject **slot = (PyObject **)((char *)obj + offset);
    PyObject *old = *slot;
    Py_INCREF(value);
    *slot = value;
    Py_XDECREF(old);
}

/* Truthiness of _ok/_defused (True/False/None in this codebase). */
static inline int
truthy(PyObject *obj)
{
    if (obj == Py_True)
        return 1;
    if (obj == Py_False || obj == Py_None || obj == NULL)
        return 0;
    int r = PyObject_IsTrue(obj);
    if (r < 0) {
        PyErr_Clear();
        return 0;
    }
    return r;
}

/* value of a float-bearing slot; -1.0 with error set on failure. */
static inline double
as_double(PyObject *obj)
{
    if (PyFloat_CheckExact(obj))
        return PyFloat_AS_DOUBLE(obj);
    return PyFloat_AsDouble(obj);
}

/* slot += delta for PyLong-bearing counter slots. */
static int
slot_add_long(PyObject *obj, Py_ssize_t offset, long delta)
{
    PyObject *cur = slot_get(obj, offset);
    long long v = PyLong_AsLongLong(cur);
    if (v == -1 && PyErr_Occurred())
        return -1;
    PyObject *next = PyLong_FromLongLong(v + delta);
    if (next == NULL)
        return -1;
    slot_store(obj, offset, next);
    Py_DECREF(next);
    return 0;
}

/* slot += delta for float-bearing accumulator slots. */
static int
slot_add_double(PyObject *obj, Py_ssize_t offset, double delta)
{
    double v = as_double(slot_get(obj, offset));
    if (v == -1.0 && PyErr_Occurred())
        return -1;
    PyObject *next = PyFloat_FromDouble(v + delta);
    if (next == NULL)
        return -1;
    slot_store(obj, offset, next);
    Py_DECREF(next);
    return 0;
}

/* `Event(sim).fail(exc)` — deferred escalation on the next slot. */
static int
escalate(PyObject *sim, PyObject *exc)
{
    PyObject *event = PyObject_CallOneArg(M.event_type, sim);
    if (event == NULL)
        return -1;
    PyObject *res = PyObject_CallMethodOneArg(event, M.str_fail, exc);
    Py_DECREF(event);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* done.succeed(value) / done.fail(value), inlined for exact Event /
 * exact Simulator. */
static int
trigger(PyObject *done, PyObject *value, int ok)
{
    if (Py_TYPE(done) != (PyTypeObject *)M.event_type
        || (!ok && !PyExceptionInstance_Check(value))) {
        PyObject *res = PyObject_CallMethodOneArg(
            done, ok ? M.str_succeed : M.str_fail, value);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    if (slot_get(done, M.ev_value) != M.pending) {
        PyObject *msg = PyUnicode_FromFormat(
            "%R has already been triggered", done);
        if (msg != NULL) {
            PyErr_SetObject(M.sim_error, msg);
            Py_DECREF(msg);
        }
        return -1;
    }
    slot_store(done, M.ev_ok, ok ? Py_True : Py_False);
    slot_store(done, M.ev_value, value);
    PyObject *esim = slot_get(done, M.ev_sim);
    if (esim == NULL) {
        PyErr_SetString(PyExc_AttributeError, "sim");
        return -1;
    }
    PyObject *push = (Py_TYPE(esim) == (PyTypeObject *)M.sim_type)
        ? slot_get(esim, M.sim_push_ready) : NULL;
    PyObject *res;
    if (push != NULL)
        res = PyObject_CallOneArg(push, done);
    else {
        res = PyObject_GetAttrString(esim, "_push_ready");
        if (res != NULL) {
            PyObject *bound = res;
            res = PyObject_CallOneArg(bound, done);
            Py_DECREF(bound);
        }
    }
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static inline int
trigger_succeed(PyObject *done, PyObject *value)
{
    return trigger(done, value, 1);
}

/* A fresh pending Event on `sim`, equivalent to `Event(sim)` for the
 * exact Event type but without entering the interpreter. */
static PyObject *
make_event(PyObject *sim)
{
    PyTypeObject *type = (PyTypeObject *)M.event_type;
    PyObject *event = type->tp_alloc(type, 0);
    if (event == NULL)
        return NULL;
    PyObject *callbacks = PyList_New(0);
    if (callbacks == NULL) {
        Py_DECREF(event);
        return NULL;
    }
    Py_INCREF(sim);
    *(PyObject **)((char *)event + M.ev_sim) = sim;
    *(PyObject **)((char *)event + M.ev_callbacks) = callbacks;
    Py_INCREF(M.pending);
    *(PyObject **)((char *)event + M.ev_value) = M.pending;
    Py_INCREF(Py_None);
    *(PyObject **)((char *)event + M.ev_ok) = Py_None;
    Py_INCREF(Py_False);
    *(PyObject **)((char *)event + M.ev_defused) = Py_False;
    PyObject *zero = PyLong_FromLong(0);
    if (zero == NULL) {
        Py_DECREF(event);
        return NULL;
    }
    *(PyObject **)((char *)event + M.ev_qcounter) = zero;
    return event;
}

/* ------------------------------------------------------------------ */
/* SchedCore: the CPU scheduler's burst lifecycle                      */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *burst;       /* strong; NULL when the CPU is not running */
    PyObject *handle;      /* strong; the pending completion entry */
    double rate;
    double segment_start;
    double remaining;
    double start_time;     /* burst.started_at, as a double */
} CRun;

typedef struct {
    PyObject **buf;        /* ring of strong burst references */
    Py_ssize_t head, len, cap;   /* cap is a power of two (or 0) */
} CQueue;

typedef struct {
    int *allowed;          /* ascending online CPU ids of the mask */
    int n_allowed;
    uint64_t *mask;        /* bitmask over CPU ids, nwords words */
} GroupInfo;

typedef struct SchedCoreObject {
    PyObject_HEAD
    PyObject *sim;             /* Simulator */
    PyObject *kschedule;       /* bound kernel.schedule */
    PyObject *perf_model;
    PyObject *perf_cpi;        /* bound perf hooks, looked up once */
    PyObject *perf_on_start;
    PyObject *perf_on_complete;
    PyObject *perf_breakdown;  /* bound breakdown (fast perf path only) */
    PyObject *infl_cache;      /* the model's _inflation_cache dict */
    PyObject *register_cb;     /* bound wrapper._core_register */
    PyObject *groups;          /* dict: TaskGroup -> PyLong gid */
    PyObject **cpus;           /* [n] strong Cpu objects */
    PyObject **complete_cbs;   /* [n] strong CCompleteCB */
    PyObject **cpu_longs;      /* [n] cached PyLong(i) */
    PyObject **ccx_longs;      /* [n] cached PyLong(ccx_of[i]) */
    PyObject **ccx_objs;       /* [n] cached cpu.ccx.index */
    PyObject **node_objs;      /* [n] cached cpu.node.index */
    CRun *run;                 /* [n] */
    CQueue *queues;            /* [n] */
    int *depths;               /* [n] mirrors queues[i].len */
    char *idle;                /* [n] */
    char *online;              /* [n] */
    int *sibling;              /* [n]; -1 = no SMT sibling */
    int *core_of;              /* [n] */
    int *ccx_of;               /* [n] */
    int *busy_threads;         /* [n_cores] */
    double *busy_time;         /* [n] */
    double *freq_factor;       /* [total_cores + 1] */
    uint64_t **steal_mask;     /* [n] x nwords eligibility bits */
    GroupInfo *ginfo;
    Py_ssize_t n_groups, ginfo_cap;
    Py_ssize_t idle_count;
    double smt_factor[2];
    double bw_capacity, bw_weight;
    long long dispatched, stolen;
    int n, n_cores, total_cores, active_cores, nwords;
    int fast_perf;             /* perf_model is exactly MemorySystemModel
                                  with no counter sink: hooks inlined */
    int has_capacity;          /* bandwidth congestion model enabled */
} SchedCoreObject;

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    SchedCoreObject *core;     /* strong (collected via GC) */
    int cpu;
} CCompleteCBObject;

static PyTypeObject SchedCore_Type;
static PyTypeObject CCompleteCB_Type;

static int core_complete(SchedCoreObject *c, int cpu);

/* ---- queue ring ---- */

static int
cq_push(CQueue *q, PyObject *burst)
{
    if (q->len == q->cap) {
        Py_ssize_t ncap = q->cap ? q->cap * 2 : 8;
        PyObject **nbuf = PyMem_New(PyObject *, ncap);
        if (nbuf == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < q->len; i++)
            nbuf[i] = q->buf[(q->head + i) & (q->cap - 1)];
        PyMem_Free(q->buf);
        q->buf = nbuf;
        q->cap = ncap;
        q->head = 0;
    }
    Py_INCREF(burst);
    q->buf[(q->head + q->len) & (q->cap - 1)] = burst;
    q->len++;
    return 0;
}

/* Pop the oldest burst; ownership transferred to the caller. */
static PyObject *
cq_popleft(CQueue *q)
{
    PyObject *burst = q->buf[q->head];
    q->buf[q->head] = NULL;
    q->head = (q->head + 1) & (q->cap - 1);
    q->len--;
    return burst;
}

/* Remove the burst at `pos` (deque `del q[pos]` semantics); ownership
 * of the removed reference is transferred to the caller. */
static PyObject *
cq_remove_at(CQueue *q, Py_ssize_t pos)
{
    Py_ssize_t mask = q->cap - 1;
    PyObject *burst = q->buf[(q->head + pos) & mask];
    for (Py_ssize_t i = pos; i < q->len - 1; i++)
        q->buf[(q->head + i) & mask] = q->buf[(q->head + i + 1) & mask];
    q->buf[(q->head + q->len - 1) & mask] = NULL;
    q->len--;
    return burst;
}

/* ---- group registry ---- */

static GroupInfo *
core_group(SchedCoreObject *c, PyObject *group)
{
    PyObject *gid = PyDict_GetItemWithError(c->groups, group);
    if (gid != NULL)
        return &c->ginfo[PyLong_AS_LONG(gid)];
    if (PyErr_Occurred())
        return NULL;
    /* First submission of this group: the wrapper's registration
     * callback resolves (and validates) the allowed-CPU tuple through
     * the reference _allowed_for, keeping both layers coherent. */
    PyObject *ids = PyObject_CallOneArg(c->register_cb, group);
    if (ids == NULL)
        return NULL;
    PyObject *fast = PySequence_Fast(ids, "allowed ids must be a sequence");
    Py_DECREF(ids);
    if (fast == NULL)
        return NULL;
    Py_ssize_t n_allowed = PySequence_Fast_GET_SIZE(fast);
    if (c->n_groups == c->ginfo_cap) {
        Py_ssize_t ncap = c->ginfo_cap ? c->ginfo_cap * 2 : 8;
        GroupInfo *ng = PyMem_Resize(c->ginfo, GroupInfo, ncap);
        if (ng == NULL) {
            Py_DECREF(fast);
            PyErr_NoMemory();
            return NULL;
        }
        c->ginfo = ng;
        c->ginfo_cap = ncap;
    }
    GroupInfo *info = &c->ginfo[c->n_groups];
    info->allowed = PyMem_New(int, n_allowed > 0 ? n_allowed : 1);
    info->mask = PyMem_New(uint64_t, c->nwords);
    if (info->allowed == NULL || info->mask == NULL) {
        PyMem_Free(info->allowed);
        PyMem_Free(info->mask);
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    memset(info->mask, 0, c->nwords * sizeof(uint64_t));
    info->n_allowed = (int)n_allowed;
    for (Py_ssize_t i = 0; i < n_allowed; i++) {
        long cpu = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if ((cpu == -1 && PyErr_Occurred()) || cpu < 0 || cpu >= c->n) {
            PyMem_Free(info->allowed);
            PyMem_Free(info->mask);
            Py_DECREF(fast);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError,
                                "allowed CPU id out of range");
            return NULL;
        }
        info->allowed[i] = (int)cpu;
        info->mask[cpu >> 6] |= (uint64_t)1 << (cpu & 63);
    }
    Py_DECREF(fast);
    /* Mirror _allowed_for's steal-eligibility update: every CPU in the
     * mask may steal any burst queued on any CPU of the mask. */
    for (Py_ssize_t i = 0; i < n_allowed; i++) {
        uint64_t *row = c->steal_mask[info->allowed[i]];
        for (int w = 0; w < c->nwords; w++)
            row[w] |= info->mask[w];
    }
    gid = PyLong_FromSsize_t(c->n_groups);
    if (gid == NULL || PyDict_SetItem(c->groups, group, gid) < 0) {
        Py_XDECREF(gid);
        PyMem_Free(info->allowed);
        PyMem_Free(info->mask);
        return NULL;
    }
    Py_DECREF(gid);
    c->n_groups++;
    return info;
}

/* ---- execution ---- */

/* MemorySystemModel.cpi_inflation inlined: epoch-stamped cache of the
 * static breakdown plus the optional bandwidth congestion term.  The
 * cache dict and its (epoch, static) tuples are shared with the Python
 * method, so mixing callers stays coherent. */
static double
fast_cpi(SchedCoreObject *c, PyObject *burst, int cpu, int *error)
{
    PyObject *model = c->perf_model;
    PyObject *group = slot_get(burst, M.b_group);
    long long gid = PyLong_AsLongLong(slot_get(group, M.g_group_id));
    if (gid == -1 && PyErr_Occurred())
        goto fail;
    PyObject *epoch_obj = PyObject_GetAttr(model, M.str_epoch);
    if (epoch_obj == NULL)
        goto fail;
    PyObject *key = PyLong_FromLongLong((gid << 20) | cpu);
    if (key == NULL) {
        Py_DECREF(epoch_obj);
        goto fail;
    }
    PyObject *cached = PyDict_GetItemWithError(c->infl_cache, key);
    double static_infl;
    int hit = 0;
    if (cached != NULL && PyTuple_CheckExact(cached)
        && PyTuple_GET_SIZE(cached) == 2) {
        int same = PyObject_RichCompareBool(
            PyTuple_GET_ITEM(cached, 0), epoch_obj, Py_EQ);
        if (same < 0) {
            Py_DECREF(key);
            Py_DECREF(epoch_obj);
            goto fail;
        }
        if (same) {
            static_infl = as_double(PyTuple_GET_ITEM(cached, 1));
            hit = 1;
        }
    }
    else if (cached == NULL && PyErr_Occurred()) {
        Py_DECREF(key);
        Py_DECREF(epoch_obj);
        goto fail;
    }
    if (!hit) {
        PyObject *argv[3] = {group, c->ccx_objs[cpu], c->node_objs[cpu]};
        PyObject *breakdown =
            PyObject_Vectorcall(c->perf_breakdown, argv, 3, NULL);
        if (breakdown == NULL) {
            Py_DECREF(key);
            Py_DECREF(epoch_obj);
            goto fail;
        }
        PyObject *total = PyObject_GetAttr(breakdown, M.str_total);
        Py_DECREF(breakdown);
        if (total == NULL) {
            Py_DECREF(key);
            Py_DECREF(epoch_obj);
            goto fail;
        }
        PyObject *entry = PyTuple_Pack(2, epoch_obj, total);
        if (entry == NULL || PyDict_SetItem(c->infl_cache, key, entry) < 0) {
            Py_XDECREF(entry);
            Py_DECREF(total);
            Py_DECREF(key);
            Py_DECREF(epoch_obj);
            goto fail;
        }
        Py_DECREF(entry);
        static_infl = as_double(total);
        Py_DECREF(total);
    }
    Py_DECREF(key);
    Py_DECREF(epoch_obj);
    if (static_infl == -1.0 && PyErr_Occurred())
        goto fail;
    PyObject *profile = slot_get(group, M.g_profile);
    if (profile == NULL || profile == Py_None || !c->has_capacity)
        return static_infl;
    PyObject *load = PyObject_GetAttr(model, M.str_mem_load);
    if (load == NULL)
        goto fail;
    double mem_load = as_double(load);
    Py_DECREF(load);
    PyObject *inten = PyObject_GetAttr(profile, M.str_intensity);
    if (inten == NULL)
        goto fail;
    double intensity = as_double(inten);
    Py_DECREF(inten);
    if (PyErr_Occurred())
        goto fail;
    double overload = (mem_load - c->bw_capacity) / c->bw_capacity;
    if (overload < 0.0)
        overload = 0.0;
    return static_infl + c->bw_weight * intensity * overload;
fail:
    *error = 1;
    return 0.0;
}

/* MemorySystemModel.on_burst_start/complete inlined (no counter sink):
 * the running memory-intensity load stays canonical on the model. */
static int
fast_mem_load_delta(SchedCoreObject *c, PyObject *burst, double sign)
{
    PyObject *group = slot_get(burst, M.b_group);
    PyObject *profile = slot_get(group, M.g_profile);
    if (profile == NULL || profile == Py_None)
        return 0;
    PyObject *load = PyObject_GetAttr(c->perf_model, M.str_mem_load);
    if (load == NULL)
        return -1;
    double v = as_double(load);
    Py_DECREF(load);
    PyObject *inten = PyObject_GetAttr(profile, M.str_intensity);
    if (inten == NULL)
        return -1;
    double intensity = as_double(inten);
    Py_DECREF(inten);
    if (PyErr_Occurred())
        return -1;
    PyObject *next = PyFloat_FromDouble(v + sign * intensity);
    if (next == NULL)
        return -1;
    int rv = PyObject_SetAttr(c->perf_model, M.str_mem_load, next);
    Py_DECREF(next);
    return rv;
}

/* CpuScheduler._rate: frequency boost x SMT factor / CPI inflation. */
static double
core_rate(SchedCoreObject *c, PyObject *burst, int cpu, int *error)
{
    int sib = c->sibling[cpu];
    int sibling_busy = (sib >= 0 && c->run[sib].burst != NULL);
    double inflation;
    if (c->fast_perf) {
        inflation = fast_cpi(c, burst, cpu, error);
        if (*error)
            return 0.0;
    }
    else {
        PyObject *argv[2] = {burst, c->cpus[cpu]};
        PyObject *res = PyObject_Vectorcall(c->perf_cpi, argv, 2, NULL);
        if (res == NULL) {
            *error = 1;
            return 0.0;
        }
        inflation = as_double(res);
        Py_DECREF(res);
        if (inflation == -1.0 && PyErr_Occurred()) {
            *error = 1;
            return 0.0;
        }
    }
    if (inflation < 1.0)
        inflation = 1.0;
    double rate = c->freq_factor[c->active_cores]
        * c->smt_factor[sibling_busy] / inflation;
    return rate > MIN_RATE ? rate : MIN_RATE;
}

static int core_re_rate_sibling(SchedCoreObject *c, int cpu);

/* CpuScheduler._start. */
static int
core_start(SchedCoreObject *c, int cpu, PyObject *burst, int rerate_sibling)
{
    PyObject *now_obj = slot_get(c->sim, M.sim_now);
    double now = as_double(now_obj);
    if (now == -1.0 && PyErr_Occurred())
        return -1;
    slot_store(burst, M.b_started, now_obj);
    slot_store(burst, M.b_cpu_index, c->cpu_longs[cpu]);
    if (c->idle[cpu]) {
        c->idle[cpu] = 0;
        c->idle_count--;
    }
    int core = c->core_of[cpu];
    if (++c->busy_threads[core] == 1)
        c->active_cores++;
    if (c->fast_perf) {
        if (fast_mem_load_delta(c, burst, 1.0) < 0)
            return -1;
    }
    else {
        PyObject *argv[2] = {burst, c->cpus[cpu]};
        PyObject *res = PyObject_Vectorcall(c->perf_on_start, argv, 2,
                                            NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    int error = 0;
    double rate = core_rate(c, burst, cpu, &error);
    if (error)
        return -1;
    double demand = as_double(slot_get(burst, M.b_demand));
    if (demand == -1.0 && PyErr_Occurred())
        return -1;
    PyObject *when = PyFloat_FromDouble(now + demand / rate);
    if (when == NULL)
        return -1;
    PyObject *kargv[2] = {when, c->complete_cbs[cpu]};
    PyObject *handle = PyObject_Vectorcall(c->kschedule, kargv, 2, NULL);
    Py_DECREF(when);
    if (handle == NULL)
        return -1;
    CRun *r = &c->run[cpu];
    Py_INCREF(burst);
    r->burst = burst;
    r->handle = handle;          /* ownership transferred */
    r->rate = rate;
    r->segment_start = now;
    r->remaining = demand;
    r->start_time = now;
    c->dispatched++;
    if (rerate_sibling)
        return core_re_rate_sibling(c, cpu);
    return 0;
}

/* CpuScheduler._re_rate_sibling. */
static int
core_re_rate_sibling(SchedCoreObject *c, int cpu)
{
    int sib = c->sibling[cpu];
    if (sib < 0)
        return 0;
    CRun *r = &c->run[sib];
    if (r->burst == NULL)
        return 0;
    double now = as_double(slot_get(c->sim, M.sim_now));
    if (now == -1.0 && PyErr_Occurred())
        return -1;
    double elapsed = now - r->segment_start;
    double remaining = r->remaining - elapsed * r->rate;
    r->remaining = remaining > 0.0 ? remaining : 0.0;
    c->busy_time[sib] += elapsed;
    r->segment_start = now;
    PyObject *res = PyObject_CallMethodNoArgs(r->handle, M.str_cancel);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    int error = 0;
    double rate = core_rate(c, r->burst, sib, &error);
    if (error)
        return -1;
    r->rate = rate;
    PyObject *when = PyFloat_FromDouble(now + r->remaining / rate);
    if (when == NULL)
        return -1;
    PyObject *kargv[2] = {when, c->complete_cbs[sib]};
    PyObject *handle = PyObject_Vectorcall(c->kschedule, kargv, 2, NULL);
    Py_DECREF(when);
    if (handle == NULL)
        return -1;
    Py_SETREF(r->handle, handle);
    return 0;
}

/* CpuScheduler._steal_from: oldest burst on `victim` allowing `cpu`. */
static PyObject *
core_steal_from(SchedCoreObject *c, int victim, int cpu)
{
    CQueue *q = &c->queues[victim];
    Py_ssize_t mask = q->cap - 1;
    for (Py_ssize_t pos = 0; pos < q->len; pos++) {
        PyObject *burst = q->buf[(q->head + pos) & mask];
        PyObject *group = slot_get(burst, M.b_group);
        GroupInfo *info = core_group(c, group);
        if (info == NULL)
            return NULL;    /* registration error; PyErr set */
        if (info->mask[cpu >> 6] & ((uint64_t)1 << (cpu & 63))) {
            PyObject *taken = cq_remove_at(q, pos);
            c->depths[victim]--;
            return taken;
        }
    }
    return Py_None;   /* borrowed sentinel: no eligible burst */
}

static int
cmp_victim(const void *a, const void *b)
{
    /* sorted((-depth, v)): deeper first, lower id on ties. */
    const int *va = (const int *)a, *vb = (const int *)b;
    if (va[1] != vb[1])
        return vb[1] - va[1];
    return va[0] - vb[0];
}

/* CpuScheduler._steal_for: deepest eligible queue, then the sorted
 * fallback order.  Returns a new reference, Py_None (borrowed) when
 * nothing is stealable, NULL on error. */
static PyObject *
core_steal_for(SchedCoreObject *c, int cpu)
{
    const uint64_t *row = c->steal_mask[cpu];
    int best = -1, bestd = 0;
    for (int v = 0; v < c->n; v++) {
        if (!(row[v >> 6] & ((uint64_t)1 << (v & 63))))
            continue;
        int d = c->depths[v];
        if (d > bestd) {
            bestd = d;
            best = v;
        }
    }
    if (best < 0)
        return Py_None;
    PyObject *stolen = core_steal_from(c, best, cpu);
    if (stolen != Py_None)
        return stolen;    /* burst or NULL (error) */
    /* The deepest queue held no eligible burst: walk every nonempty
     * eligible victim by (depth desc, id asc), skipping `best`. */
    int *order = PyMem_New(int, 2 * c->n);
    if (order == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    int count = 0;
    for (int v = 0; v < c->n; v++) {
        if (!(row[v >> 6] & ((uint64_t)1 << (v & 63))))
            continue;
        if (c->depths[v] > 0) {
            order[2 * count] = v;
            order[2 * count + 1] = c->depths[v];
            count++;
        }
    }
    qsort(order, count, 2 * sizeof(int), cmp_victim);
    for (int i = 0; i < count; i++) {
        int victim = order[2 * i];
        if (victim == best)
            continue;
        stolen = core_steal_from(c, victim, cpu);
        if (stolen != Py_None) {
            PyMem_Free(order);
            return stolen;
        }
    }
    PyMem_Free(order);
    return Py_None;
}

/* CpuScheduler._dispatch_next. */
static int
core_dispatch_next(SchedCoreObject *c, int cpu)
{
    CQueue *q = &c->queues[cpu];
    if (q->len) {
        PyObject *burst = cq_popleft(q);
        c->depths[cpu]--;
        int rv = core_start(c, cpu, burst, 0);
        Py_DECREF(burst);
        return rv;
    }
    PyObject *stolen = core_steal_for(c, cpu);
    if (stolen == NULL)
        return -1;
    if (stolen != Py_None) {
        c->stolen++;
        int rv = core_start(c, cpu, stolen, 0);
        Py_DECREF(stolen);
        return rv;
    }
    c->idle[cpu] = 1;
    c->idle_count++;
    return 0;
}

/* CpuScheduler._complete (scheduled per-CPU via CCompleteCB). */
static int
core_complete(SchedCoreObject *c, int cpu)
{
    CRun *r = &c->run[cpu];
    if (r->burst == NULL) {
        PyErr_SetString(PyExc_AssertionError,
                        "completion fired on idle CPU");
        return -1;
    }
    PyObject *now_obj = slot_get(c->sim, M.sim_now);
    double now = as_double(now_obj);
    if (now == -1.0 && PyErr_Occurred())
        return -1;
    PyObject *burst = r->burst;      /* take over the run's reference */
    PyObject *handle = r->handle;
    double start_time = r->start_time;
    c->busy_time[cpu] += now - r->segment_start;
    r->burst = NULL;
    r->handle = NULL;
    Py_DECREF(handle);               /* already fired; just release */
    int core = c->core_of[cpu];
    if (--c->busy_threads[core] == 0)
        c->active_cores--;

    int rv = -1;
    slot_store(burst, M.b_finished, now_obj);
    double wall = now - start_time;
    PyObject *wall_obj = PyFloat_FromDouble(wall);
    if (wall_obj == NULL)
        goto done;
    slot_store(burst, M.b_wall, wall_obj);
    PyObject *group = slot_get(burst, M.b_group);
    if (slot_add_double(group, M.g_cpu_time, wall) < 0) {
        Py_DECREF(wall_obj);
        goto done;
    }
    slot_store(group, M.g_last_ccx, c->ccx_longs[cpu]);
    if (slot_add_long(group, M.g_completed, 1) < 0) {
        Py_DECREF(wall_obj);
        goto done;
    }
    if (c->fast_perf) {
        Py_DECREF(wall_obj);
        if (fast_mem_load_delta(c, burst, -1.0) < 0)
            goto done;
    }
    else {
        PyObject *argv[3] = {burst, c->cpus[cpu], wall_obj};
        PyObject *res = PyObject_Vectorcall(c->perf_on_complete, argv, 3,
                                            NULL);
        Py_DECREF(wall_obj);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
    }
    if (core_dispatch_next(c, cpu) < 0)
        goto done;
    if (core_re_rate_sibling(c, cpu) < 0)
        goto done;
    rv = trigger_succeed(slot_get(burst, M.b_done), burst);
done:
    Py_DECREF(burst);
    return rv;
}

/* CpuScheduler._pick_idle_cpu: lowest id among the minimal
 * (whole-core-idle, ccx-local) scores over the allowed idle CPUs. */
static int
core_pick_idle(SchedCoreObject *c, GroupInfo *info, int last_ccx)
{
    int best = -1, best_score = 4;
    const int *allowed = info->allowed;
    int n_allowed = info->n_allowed;
    for (int i = 0; i < n_allowed; i++) {
        int cpu = allowed[i];
        if (!c->idle[cpu])
            continue;
        int sib = c->sibling[cpu];
        int whole = (sib >= 0 && c->run[sib].burst != NULL) ? 1 : 0;
        int local = (last_ccx >= 0 && c->ccx_of[cpu] == last_ccx) ? 0 : 1;
        int score = whole * 2 + local;
        if (score < best_score) {
            best = cpu;
            best_score = score;
            if (score == 0)
                break;
        }
    }
    return best;
}

/* CpuScheduler.submit. */
static int
core_submit(SchedCoreObject *c, PyObject *burst)
{
    PyObject *group = slot_get(burst, M.b_group);
    if (group == NULL) {
        PyErr_SetString(PyExc_AttributeError, "group");
        return -1;
    }
    GroupInfo *info = core_group(c, group);
    if (info == NULL)
        return -1;
    slot_store(burst, M.b_submitted, slot_get(c->sim, M.sim_now));
    if (c->idle_count > 0) {
        PyObject *ccx = slot_get(group, M.g_last_ccx);
        int last_ccx = (ccx == Py_None || ccx == NULL)
            ? -1 : (int)PyLong_AsLong(ccx);
        if (last_ccx == -1 && PyErr_Occurred())
            return -1;
        int cpu = core_pick_idle(c, info, last_ccx);
        if (cpu >= 0)
            return core_start(c, cpu, burst, 1);
    }
    /* Shortest allowed queue, lowest id on ties (first occurrence of
     * the minimum over the ascending mask — all three reference
     * branches reduce to this one scan). */
    const int *allowed = info->allowed;
    int target = allowed[0];
    int shortest = c->depths[target];
    if (shortest) {
        for (int i = 1; i < info->n_allowed; i++) {
            int depth = c->depths[allowed[i]];
            if (depth < shortest) {
                shortest = depth;
                target = allowed[i];
                if (!depth)
                    break;
            }
        }
    }
    if (cq_push(&c->queues[target], burst) < 0)
        return -1;
    c->depths[target]++;
    return 0;
}

static PyObject *
SchedCore_submit(SchedCoreObject *c, PyObject *burst)
{
    if (core_submit(c, burst) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ServiceContext.submit_demand's hot core: scale the demand by the
 * replica's factor, build the burst and its completion event without
 * entering the interpreter, and submit — returning the done event. */
static PyObject *
core_submit_demand(SchedCoreObject *c, PyObject *instance, PyObject *demand)
{
    PyObject *factor = slot_get(instance, M.in_demand_factor);
    PyObject *group = slot_get(instance, M.in_group);
    if (factor == NULL || group == NULL) {
        PyErr_SetString(PyExc_AttributeError, "demand_factor");
        return NULL;
    }
    PyObject *scaled;
    if (PyFloat_CheckExact(demand) && PyFloat_CheckExact(factor))
        scaled = PyFloat_FromDouble(PyFloat_AS_DOUBLE(demand)
                                    * PyFloat_AS_DOUBLE(factor));
    else
        scaled = PyNumber_Multiply(demand, factor);
    if (scaled == NULL)
        return NULL;
    double value = as_double(scaled);
    if (value == -1.0 && PyErr_Occurred()) {
        Py_DECREF(scaled);
        return NULL;
    }
    if (value < 0.0) {
        /* CpuBurst.__init__'s validation, message included. */
        PyObject *msg = PyUnicode_FromFormat("negative CPU demand: %S",
                                             scaled);
        if (msg != NULL) {
            PyErr_SetObject(M.sched_error, msg);
            Py_DECREF(msg);
        }
        Py_DECREF(scaled);
        return NULL;
    }
    PyObject *done = make_event(c->sim);
    if (done == NULL) {
        Py_DECREF(scaled);
        return NULL;
    }
    PyTypeObject *burst_type = (PyTypeObject *)M.burst_type;
    PyObject *burst = burst_type->tp_alloc(burst_type, 0);
    if (burst == NULL) {
        Py_DECREF(scaled);
        Py_DECREF(done);
        return NULL;
    }
    PyObject *wall = PyFloat_FromDouble(0.0);
    if (wall == NULL) {
        Py_DECREF(scaled);
        Py_DECREF(done);
        Py_DECREF(burst);
        return NULL;
    }
    /* Mirror CpuBurst.__init__'s slot assignments exactly. */
    *(PyObject **)((char *)burst + M.b_demand) = scaled;
    Py_INCREF(group);
    *(PyObject **)((char *)burst + M.b_group) = group;
    Py_INCREF(done);
    *(PyObject **)((char *)burst + M.b_done) = done;
    Py_INCREF(Py_None);
    *(PyObject **)((char *)burst + M.b_submitted) = Py_None;
    Py_INCREF(Py_None);
    *(PyObject **)((char *)burst + M.b_started) = Py_None;
    Py_INCREF(Py_None);
    *(PyObject **)((char *)burst + M.b_finished) = Py_None;
    Py_INCREF(Py_None);
    *(PyObject **)((char *)burst + M.b_cpu_index) = Py_None;
    *(PyObject **)((char *)burst + M.b_wall) = wall;
    int rv = core_submit(c, burst);
    Py_DECREF(burst);
    if (rv < 0) {
        Py_DECREF(done);
        return NULL;
    }
    return done;
}

static PyObject *
SchedCore_submit_demand(SchedCoreObject *c, PyObject *const *args,
                        Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "submit_demand(instance, demand) takes 2 arguments");
        return NULL;
    }
    if (!PyObject_TypeCheck(args[0], (PyTypeObject *)M.instance_type)) {
        PyErr_SetString(PyExc_TypeError,
                        "submit_demand() expects a ServiceInstance");
        return NULL;
    }
    return core_submit_demand(c, args[0], args[1]);
}

static PyObject *
SchedCore_busy_time(SchedCoreObject *c, PyObject *arg)
{
    long cpu = PyLong_AsLong(arg);
    if (cpu == -1 && PyErr_Occurred())
        return NULL;
    if (cpu < 0 || cpu >= c->n) {
        PyErr_SetString(PyExc_IndexError, "cpu index out of range");
        return NULL;
    }
    double total = c->busy_time[cpu];
    CRun *r = &c->run[cpu];
    if (r->burst != NULL) {
        double now = as_double(slot_get(c->sim, M.sim_now));
        if (now == -1.0 && PyErr_Occurred())
            return NULL;
        total += now - r->segment_start;
    }
    return PyFloat_FromDouble(total);
}

static PyObject *
SchedCore_queue_depth(SchedCoreObject *c, PyObject *Py_UNUSED(ignored))
{
    long long total = 0;
    for (int i = 0; i < c->n; i++)
        total += c->depths[i];
    return PyLong_FromLongLong(total);
}

static PyObject *
SchedCore_is_idle(SchedCoreObject *c, PyObject *arg)
{
    long cpu = PyLong_AsLong(arg);
    if (cpu == -1 && PyErr_Occurred())
        return NULL;
    if (cpu < 0 || cpu >= c->n)
        Py_RETURN_FALSE;
    return PyBool_FromLong(c->idle[cpu]);
}

static PyObject *
SchedCore_bursts_dispatched(SchedCoreObject *c, PyObject *Py_UNUSED(ig))
{
    return PyLong_FromLongLong(c->dispatched);
}

static PyObject *
SchedCore_bursts_stolen(SchedCoreObject *c, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(c->stolen);
}

static PyObject *
SchedCore_stats(SchedCoreObject *c, PyObject *Py_UNUSED(ignored))
{
    int running = 0;
    long long queued = 0;
    for (int i = 0; i < c->n; i++) {
        if (c->run[i].burst != NULL)
            running++;
        queued += c->depths[i];
    }
    return Py_BuildValue("(iLn)", running, queued, c->idle_count);
}

/* ---- construction / teardown ---- */

static int
load_int_list(PyObject *wrapper, const char *name, int **out, int n,
              int none_value)
{
    PyObject *seq = PyObject_GetAttrString(wrapper, name);
    if (seq == NULL)
        return -1;
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    Py_DECREF(seq);
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s has unexpected length", name);
        return -1;
    }
    int *arr = PyMem_New(int, n > 0 ? n : 1);
    if (arr == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    for (int i = 0; i < n; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(fast, i);
        if (item == Py_None)
            arr[i] = none_value;
        else {
            long v = PyLong_AsLong(item);
            if (v == -1 && PyErr_Occurred()) {
                PyMem_Free(arr);
                Py_DECREF(fast);
                return -1;
            }
            arr[i] = (int)v;
        }
    }
    Py_DECREF(fast);
    *out = arr;
    return 0;
}

static void
SchedCore_dealloc(SchedCoreObject *c)
{
    PyObject_GC_UnTrack(c);
    Py_XDECREF(c->sim);
    Py_XDECREF(c->kschedule);
    Py_XDECREF(c->perf_model);
    Py_XDECREF(c->perf_cpi);
    Py_XDECREF(c->perf_on_start);
    Py_XDECREF(c->perf_on_complete);
    Py_XDECREF(c->perf_breakdown);
    Py_XDECREF(c->infl_cache);
    Py_XDECREF(c->register_cb);
    Py_XDECREF(c->groups);
    for (int i = 0; i < c->n; i++) {
        if (c->cpus != NULL)
            Py_XDECREF(c->cpus[i]);
        if (c->complete_cbs != NULL)
            Py_XDECREF(c->complete_cbs[i]);
        if (c->cpu_longs != NULL)
            Py_XDECREF(c->cpu_longs[i]);
        if (c->ccx_longs != NULL)
            Py_XDECREF(c->ccx_longs[i]);
        if (c->ccx_objs != NULL)
            Py_XDECREF(c->ccx_objs[i]);
        if (c->node_objs != NULL)
            Py_XDECREF(c->node_objs[i]);
        if (c->run != NULL) {
            Py_XDECREF(c->run[i].burst);
            Py_XDECREF(c->run[i].handle);
        }
        if (c->queues != NULL) {
            CQueue *q = &c->queues[i];
            for (Py_ssize_t j = 0; j < q->len; j++)
                Py_XDECREF(q->buf[(q->head + j) & (q->cap - 1)]);
            PyMem_Free(q->buf);
        }
        if (c->steal_mask != NULL)
            PyMem_Free(c->steal_mask[i]);
    }
    for (Py_ssize_t g = 0; g < c->n_groups; g++) {
        PyMem_Free(c->ginfo[g].allowed);
        PyMem_Free(c->ginfo[g].mask);
    }
    PyMem_Free(c->ginfo);
    PyMem_Free(c->cpus);
    PyMem_Free(c->complete_cbs);
    PyMem_Free(c->cpu_longs);
    PyMem_Free(c->ccx_longs);
    PyMem_Free(c->ccx_objs);
    PyMem_Free(c->node_objs);
    PyMem_Free(c->run);
    PyMem_Free(c->queues);
    PyMem_Free(c->depths);
    PyMem_Free(c->idle);
    PyMem_Free(c->online);
    PyMem_Free(c->sibling);
    PyMem_Free(c->core_of);
    PyMem_Free(c->ccx_of);
    PyMem_Free(c->busy_threads);
    PyMem_Free(c->busy_time);
    PyMem_Free(c->freq_factor);
    PyMem_Free(c->steal_mask);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static int
SchedCore_traverse(SchedCoreObject *c, visitproc visit, void *arg)
{
    Py_VISIT(c->sim);
    Py_VISIT(c->kschedule);
    Py_VISIT(c->perf_model);
    Py_VISIT(c->perf_cpi);
    Py_VISIT(c->perf_on_start);
    Py_VISIT(c->perf_on_complete);
    Py_VISIT(c->perf_breakdown);
    Py_VISIT(c->infl_cache);
    Py_VISIT(c->register_cb);
    Py_VISIT(c->groups);
    for (int i = 0; i < c->n; i++) {
        if (c->cpus != NULL)
            Py_VISIT(c->cpus[i]);
        if (c->complete_cbs != NULL)
            Py_VISIT(c->complete_cbs[i]);
        if (c->run != NULL) {
            Py_VISIT(c->run[i].burst);
            Py_VISIT(c->run[i].handle);
        }
        if (c->queues != NULL) {
            CQueue *q = &c->queues[i];
            for (Py_ssize_t j = 0; j < q->len; j++)
                Py_VISIT(q->buf[(q->head + j) & (q->cap - 1)]);
        }
    }
    return 0;
}

static int
SchedCore_clear_impl(SchedCoreObject *c)
{
    Py_CLEAR(c->kschedule);
    Py_CLEAR(c->perf_cpi);
    Py_CLEAR(c->perf_on_start);
    Py_CLEAR(c->perf_on_complete);
    Py_CLEAR(c->perf_breakdown);
    Py_CLEAR(c->infl_cache);
    Py_CLEAR(c->register_cb);
    Py_CLEAR(c->groups);
    for (int i = 0; i < c->n; i++) {
        if (c->complete_cbs != NULL)
            Py_CLEAR(c->complete_cbs[i]);
        if (c->run != NULL) {
            Py_CLEAR(c->run[i].burst);
            Py_CLEAR(c->run[i].handle);
        }
        if (c->queues != NULL) {
            CQueue *q = &c->queues[i];
            for (Py_ssize_t j = 0; j < q->len; j++)
                Py_CLEAR(q->buf[(q->head + j) & (q->cap - 1)]);
            q->len = 0;
            q->head = 0;
        }
    }
    return 0;
}

static PyObject *CCompleteCB_new_for(SchedCoreObject *core, int cpu);

static PyObject *
SchedCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *wrapper;
    if (!M.configured) {
        PyErr_SetString(PyExc_RuntimeError,
                        "repro.sim._cmodel.configure() has not been called");
        return NULL;
    }
    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "SchedCore() takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O", &wrapper))
        return NULL;
    SchedCoreObject *c = (SchedCoreObject *)type->tp_alloc(type, 0);
    if (c == NULL)
        return NULL;
    c->sim = PyObject_GetAttrString(wrapper, "sim");
    c->kschedule = PyObject_GetAttrString(wrapper, "_kschedule");
    c->perf_model = PyObject_GetAttrString(wrapper, "perf_model");
    c->register_cb = PyObject_GetAttrString(wrapper, "_core_register");
    c->groups = PyDict_New();
    if (c->sim == NULL || c->kschedule == NULL || c->perf_model == NULL
        || c->register_cb == NULL || c->groups == NULL)
        goto fail;
    /* The perf hooks are bound once: the model is fixed for the
     * scheduler's lifetime (the deployment constructs both together). */
    c->perf_cpi = PyObject_GetAttrString(c->perf_model, "cpi_inflation");
    c->perf_on_start = PyObject_GetAttrString(c->perf_model,
                                              "on_burst_start");
    c->perf_on_complete = PyObject_GetAttrString(c->perf_model,
                                                 "on_burst_complete");
    if (c->perf_cpi == NULL || c->perf_on_start == NULL
        || c->perf_on_complete == NULL)
        goto fail;

    PyObject *cpus_list = PyObject_GetAttrString(wrapper, "_cpus");
    if (cpus_list == NULL)
        goto fail;
    PyObject *fast = PySequence_Fast(cpus_list, "_cpus must be a sequence");
    Py_DECREF(cpus_list);
    if (fast == NULL)
        goto fail;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n < 1 || n > 1 << 20) {
        Py_DECREF(fast);
        PyErr_SetString(PyExc_ValueError, "unreasonable CPU count");
        goto fail;
    }
    c->n = (int)n;
    c->nwords = (c->n + 63) / 64;
    c->cpus = PyMem_New(PyObject *, n);
    c->complete_cbs = PyMem_New(PyObject *, n);
    c->cpu_longs = PyMem_New(PyObject *, n);
    c->ccx_longs = PyMem_New(PyObject *, n);
    c->ccx_objs = PyMem_New(PyObject *, n);
    c->node_objs = PyMem_New(PyObject *, n);
    c->run = PyMem_New(CRun, n);
    c->queues = PyMem_New(CQueue, n);
    c->depths = PyMem_New(int, n);
    c->idle = PyMem_New(char, n);
    c->online = PyMem_New(char, n);
    c->busy_time = PyMem_New(double, n);
    c->steal_mask = PyMem_New(uint64_t *, n);
    if (c->cpus == NULL || c->complete_cbs == NULL || c->cpu_longs == NULL
        || c->ccx_longs == NULL || c->ccx_objs == NULL
        || c->node_objs == NULL || c->run == NULL || c->queues == NULL
        || c->depths == NULL || c->idle == NULL || c->online == NULL
        || c->busy_time == NULL || c->steal_mask == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        c->cpus[i] = NULL;
        c->complete_cbs[i] = NULL;
        c->cpu_longs[i] = NULL;
        c->ccx_longs[i] = NULL;
        c->ccx_objs[i] = NULL;
        c->node_objs[i] = NULL;
        c->run[i].burst = NULL;
        c->run[i].handle = NULL;
        c->queues[i].buf = NULL;
        c->queues[i].head = c->queues[i].len = c->queues[i].cap = 0;
        c->depths[i] = 0;
        c->idle[i] = 0;
        c->online[i] = 0;
        c->busy_time[i] = 0.0;
        c->steal_mask[i] = NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *cpu = PySequence_Fast_GET_ITEM(fast, i);
        Py_INCREF(cpu);
        c->cpus[i] = cpu;
        c->cpu_longs[i] = PyLong_FromSsize_t(i);
        c->steal_mask[i] = PyMem_New(uint64_t, c->nwords);
        if (c->cpu_longs[i] == NULL || c->steal_mask[i] == NULL) {
            Py_DECREF(fast);
            if (!PyErr_Occurred())
                PyErr_NoMemory();
            goto fail;
        }
        memset(c->steal_mask[i], 0, c->nwords * sizeof(uint64_t));
    }
    Py_DECREF(fast);

    if (load_int_list(wrapper, "_sibling_index", &c->sibling, c->n, -1) < 0
        || load_int_list(wrapper, "_core_index", &c->core_of, c->n, -1) < 0
        || load_int_list(wrapper, "_ccx_index", &c->ccx_of, c->n, -1) < 0)
        goto fail;
    for (int i = 0; i < c->n; i++) {
        c->ccx_longs[i] = PyLong_FromLong(c->ccx_of[i]);
        if (c->ccx_longs[i] == NULL)
            goto fail;
    }

    PyObject *tc = PyObject_GetAttrString(wrapper, "total_cores");
    if (tc == NULL)
        goto fail;
    c->total_cores = (int)PyLong_AsLong(tc);
    Py_DECREF(tc);
    if (c->total_cores == -1 && PyErr_Occurred())
        goto fail;
    PyObject *btl = PyObject_GetAttrString(wrapper,
                                           "_busy_threads_per_core");
    if (btl == NULL)
        goto fail;
    Py_ssize_t n_cores = PySequence_Size(btl);
    Py_DECREF(btl);
    if (n_cores < 0)
        goto fail;
    c->n_cores = (int)n_cores;
    c->busy_threads = PyMem_New(int, c->n_cores > 0 ? c->n_cores : 1);
    if (c->busy_threads == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    memset(c->busy_threads, 0, c->n_cores * sizeof(int));

    PyObject *freq = PyObject_GetAttrString(wrapper, "_freq_factor");
    if (freq == NULL)
        goto fail;
    PyObject *ffast = PySequence_Fast(freq, "_freq_factor");
    Py_DECREF(freq);
    if (ffast == NULL)
        goto fail;
    Py_ssize_t n_freq = PySequence_Fast_GET_SIZE(ffast);
    if (n_freq != c->total_cores + 1) {
        Py_DECREF(ffast);
        PyErr_SetString(PyExc_ValueError,
                        "_freq_factor length != total_cores + 1");
        goto fail;
    }
    c->freq_factor = PyMem_New(double, n_freq);
    if (c->freq_factor == NULL) {
        Py_DECREF(ffast);
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < n_freq; i++) {
        c->freq_factor[i] =
            as_double(PySequence_Fast_GET_ITEM(ffast, i));
        if (c->freq_factor[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(ffast);
            goto fail;
        }
    }
    Py_DECREF(ffast);

    PyObject *smt = PyObject_GetAttrString(wrapper, "_smt_factor");
    if (smt == NULL)
        goto fail;
    int bad_smt = (!PyTuple_Check(smt) || PyTuple_GET_SIZE(smt) != 2);
    if (!bad_smt) {
        c->smt_factor[0] = as_double(PyTuple_GET_ITEM(smt, 0));
        c->smt_factor[1] = as_double(PyTuple_GET_ITEM(smt, 1));
    }
    Py_DECREF(smt);
    if (bad_smt) {
        PyErr_SetString(PyExc_ValueError, "_smt_factor must be a 2-tuple");
        goto fail;
    }
    if (PyErr_Occurred())
        goto fail;

    PyObject *online = PyObject_GetAttrString(wrapper, "_online_ids");
    if (online == NULL)
        goto fail;
    PyObject *ofast = PySequence_Fast(online, "_online_ids");
    Py_DECREF(online);
    if (ofast == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(ofast); i++) {
        long cpu = PyLong_AsLong(PySequence_Fast_GET_ITEM(ofast, i));
        if ((cpu == -1 && PyErr_Occurred()) || cpu < 0 || cpu >= c->n) {
            Py_DECREF(ofast);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError,
                                "online CPU id out of range");
            goto fail;
        }
        c->online[cpu] = 1;
        c->idle[cpu] = 1;
        c->idle_count++;
    }
    Py_DECREF(ofast);

    /* Inline the perf hooks when the model is exactly MemorySystemModel
     * with no counter sink (the overwhelmingly common configuration);
     * anything else — subclasses, protocol implementations, hardware
     * counter collection — goes through the bound Python hooks. */
    if (M.memmodel_type != NULL
        && Py_TYPE(c->perf_model) == (PyTypeObject *)M.memmodel_type) {
        PyObject *sink = PyObject_GetAttrString(c->perf_model,
                                                "counter_sink");
        if (sink == NULL)
            goto fail;
        int plain = (sink == Py_None);
        Py_DECREF(sink);
        if (plain) {
            c->perf_breakdown = PyObject_GetAttrString(c->perf_model,
                                                       "breakdown");
            c->infl_cache = PyObject_GetAttrString(c->perf_model,
                                                   "_inflation_cache");
            if (c->perf_breakdown == NULL || c->infl_cache == NULL)
                goto fail;
            if (!PyDict_Check(c->infl_cache)) {
                PyErr_SetString(PyExc_TypeError,
                                "_inflation_cache must be a dict");
                goto fail;
            }
            PyObject *config = PyObject_GetAttrString(c->perf_model,
                                                      "config");
            if (config == NULL)
                goto fail;
            PyObject *cap = PyObject_GetAttrString(config,
                                                   "bandwidth_capacity");
            PyObject *weight = PyObject_GetAttrString(config,
                                                      "bandwidth_weight");
            Py_DECREF(config);
            if (cap == NULL || weight == NULL) {
                Py_XDECREF(cap);
                Py_XDECREF(weight);
                goto fail;
            }
            if (cap != Py_None) {
                c->has_capacity = 1;
                c->bw_capacity = as_double(cap);
            }
            c->bw_weight = as_double(weight);
            Py_DECREF(cap);
            Py_DECREF(weight);
            if (PyErr_Occurred())
                goto fail;
            for (int i = 0; i < c->n; i++) {
                PyObject *ccx = PyObject_GetAttrString(c->cpus[i], "ccx");
                if (ccx == NULL)
                    goto fail;
                c->ccx_objs[i] = PyObject_GetAttrString(ccx, "index");
                Py_DECREF(ccx);
                if (c->ccx_objs[i] == NULL)
                    goto fail;
                PyObject *node = PyObject_GetAttrString(c->cpus[i],
                                                        "node");
                if (node == NULL)
                    goto fail;
                c->node_objs[i] = PyObject_GetAttrString(node, "index");
                Py_DECREF(node);
                if (c->node_objs[i] == NULL)
                    goto fail;
            }
            c->fast_perf = 1;
        }
    }
    for (int i = 0; i < c->n; i++) {
        c->complete_cbs[i] = CCompleteCB_new_for(c, i);
        if (c->complete_cbs[i] == NULL)
            goto fail;
    }
    return (PyObject *)c;
fail:
    Py_DECREF(c);
    return NULL;
}

static PyMethodDef SchedCore_methods[] = {
    {"submit", (PyCFunction)SchedCore_submit, METH_O,
     "Make a burst runnable (CpuScheduler.submit)."},
    {"submit_demand", (PyCFunction)SchedCore_submit_demand, METH_FASTCALL,
     "submit_demand(instance, demand) -> Event\n"
     "Scale, wrap and submit one CPU demand (ServiceContext fast path)."},
    {"busy_time", (PyCFunction)SchedCore_busy_time, METH_O,
     "Accumulated busy time of one logical CPU."},
    {"queue_depth", (PyCFunction)SchedCore_queue_depth, METH_NOARGS,
     "Bursts currently waiting in run queues."},
    {"is_idle", (PyCFunction)SchedCore_is_idle, METH_O,
     "True when the CPU is online and not executing."},
    {"bursts_dispatched", (PyCFunction)SchedCore_bursts_dispatched,
     METH_NOARGS, "Total bursts started."},
    {"bursts_stolen", (PyCFunction)SchedCore_bursts_stolen, METH_NOARGS,
     "Total bursts obtained via work stealing."},
    {"stats", (PyCFunction)SchedCore_stats, METH_NOARGS,
     "(running, queued, idle) counts for repr()."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject SchedCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cmodel.SchedCore",
    .tp_basicsize = sizeof(SchedCoreObject),
    .tp_dealloc = (destructor)SchedCore_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "C core of CompiledCpuScheduler (see repro.cpu.scheduler).",
    .tp_traverse = (traverseproc)SchedCore_traverse,
    .tp_clear = (inquiry)SchedCore_clear_impl,
    .tp_methods = SchedCore_methods,
    .tp_new = SchedCore_new,
};

/* ---- the per-CPU completion callable ---- */

static PyObject *
CCompleteCB_vectorcall(PyObject *self, PyObject *const *Py_UNUSED(args),
                       size_t nargsf, PyObject *kwnames)
{
    CCompleteCBObject *cb = (CCompleteCBObject *)self;
    if (PyVectorcall_NARGS(nargsf) != 0
        || (kwnames != NULL && PyTuple_GET_SIZE(kwnames) > 0)) {
        PyErr_SetString(PyExc_TypeError,
                        "completion callback takes no arguments");
        return NULL;
    }
    if (core_complete(cb->core, cb->cpu) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static void
CCompleteCB_dealloc(CCompleteCBObject *cb)
{
    PyObject_GC_UnTrack(cb);
    Py_XDECREF(cb->core);
    Py_TYPE(cb)->tp_free((PyObject *)cb);
}

static int
CCompleteCB_traverse(CCompleteCBObject *cb, visitproc visit, void *arg)
{
    Py_VISIT(cb->core);
    return 0;
}

static int
CCompleteCB_clear(CCompleteCBObject *cb)
{
    Py_CLEAR(cb->core);
    return 0;
}

static PyTypeObject CCompleteCB_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cmodel.CCompleteCB",
    .tp_basicsize = sizeof(CCompleteCBObject),
    .tp_dealloc = (destructor)CCompleteCB_dealloc,
    .tp_vectorcall_offset = offsetof(CCompleteCBObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
        | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Scheduled completion callback for one logical CPU.",
    .tp_traverse = (traverseproc)CCompleteCB_traverse,
    .tp_clear = (inquiry)CCompleteCB_clear,
};

static PyObject *
CCompleteCB_new_for(SchedCoreObject *core, int cpu)
{
    CCompleteCBObject *cb =
        PyObject_GC_New(CCompleteCBObject, &CCompleteCB_Type);
    if (cb == NULL)
        return NULL;
    cb->vectorcall = CCompleteCB_vectorcall;
    Py_INCREF(core);
    cb->core = core;
    cb->cpu = cpu;
    PyObject_GC_Track(cb);
    return (PyObject *)cb;
}

/* ------------------------------------------------------------------ */
/* Endpoint plans: the application-spec interpreter in C               */
/* ------------------------------------------------------------------ */

/* Keep in sync with repro.apps.runtime.OP_*. */
enum { OP_COMPUTE = 0, OP_CALL = 1, OP_GATHER = 2, OP_CACHE = 3,
       OP_BATCH = 4, OP_QUERY = 5, OP_RETURN = 6 };

/* One named random stream's _StreamState plus a cached view of the
 * numpy prefetch buffer it currently holds.  A draw reads the buffer
 * and bumps the state's cursor exactly as _StreamState.next_standard
 * does; only a refill calls back into Python (numpy), so every value
 * is the one the reference draws, and Python and C consumers of one
 * stream stay interleaved correctly. */
typedef struct {
    PyObject *state;       /* strong; NULL until the first draw */
    PyObject *buf;         /* strong; the array `view` was taken from */
    Py_buffer view;
    Py_ssize_t len;        /* doubles in `view` */
} StreamRef;

static void
stream_forget(StreamRef *r)
{
    if (r->buf != NULL) {
        PyBuffer_Release(&r->view);
        Py_CLEAR(r->buf);
    }
}

static void
stream_clear(StreamRef *r)
{
    stream_forget(r);
    Py_CLEAR(r->state);
}

/* state.next_standard(refill) without entering the interpreter unless
 * the buffer is empty or spent. */
static int
stream_draw(StreamRef *r, PyObject *refill, double *out)
{
    PyObject *state = r->state;
    PyObject *buf = slot_get(state, M.ss_buffer);
    PyObject *cur = slot_get(state, M.ss_cursor);
    if (buf == NULL || cur == NULL) {
        PyErr_SetString(PyExc_AttributeError,
                        "random stream state is not initialised");
        return -1;
    }
    if (buf != r->buf) {
        stream_forget(r);
        if (buf != Py_None) {
            if (PyObject_GetBuffer(buf, &r->view,
                                   PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
                return -1;
            const char *fmt = r->view.format;
            if (r->view.itemsize != (Py_ssize_t)sizeof(double)
                || fmt == NULL || (strcmp(fmt, "d") != 0
                                   && strcmp(fmt, "<d") != 0
                                   && strcmp(fmt, "=d") != 0)) {
                PyBuffer_Release(&r->view);
                PyErr_SetString(PyExc_TypeError,
                                "random stream buffer must hold float64");
                return -1;
            }
            Py_INCREF(buf);
            r->buf = buf;
            r->len = r->view.len / (Py_ssize_t)sizeof(double);
        }
    }
    Py_ssize_t cursor = PyLong_AsSsize_t(cur);
    if (cursor == -1 && PyErr_Occurred())
        return -1;
    if (r->buf == NULL || cursor >= r->len) {
        PyObject *value = PyObject_CallMethodOneArg(
            state, M.s_next_standard, refill);
        if (value == NULL)
            return -1;
        *out = PyFloat_AsDouble(value);
        Py_DECREF(value);
        return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
    }
    *out = ((const double *)r->view.buf)[cursor];
    PyObject *next = PyLong_FromSsize_t(cursor + 1);
    if (next == NULL)
        return -1;
    slot_store(state, M.ss_cursor, next);
    Py_DECREF(next);
    return 0;
}

/* streams._state(name, kind), bound into `r` on first use. */
static int
stream_bind(StreamRef *r, PyObject *streams, PyObject *name, PyObject *kind)
{
    if (r->state != NULL)
        return 0;
    PyObject *argv[3] = {streams, name, kind};
    r->state = PyObject_VectorcallMethod(M.s_state, argv, 3, NULL);
    return r->state == NULL ? -1 : 0;
}

/* A lognormal demand source with a fixed mean (a compute or cache op):
 * the resolved streams._lognormal_source(name, mean, cv). */
typedef struct {
    int ready;
    int constant;          /* cv == 0: every draw is the mean */
    double mean, mu, sigma;
} Lognormal;

typedef struct {
    int code;
    PyObject *op;          /* borrowed from the plan tuple */
    StreamRef demand;      /* the endpoint's demand.<service>.<endpoint> */
    StreamRef aux;         /* a cache op's svc.<service>.cache stream */
    Lognormal src[2];      /* compute: [0]; cache: [0] hit, [1] miss */
} PlanStep;

/* One endpoint plan bound to one replica's random streams (shared by
 * the replica's workers). */
typedef struct {
    PyObject_HEAD
    PyObject *plan;        /* Endpoint.plan (strong) */
    PyObject *streams;     /* the deployment's RandomStreams */
    PyObject *params;      /* streams._lognormal_params: (mean, cv) ->
                              (mu, sigma), shared with the reference */
    PyObject *local_id;    /* the replica's local_id */
    Py_ssize_t n;
    PlanStep *steps;
} CPlanObject;

static PyTypeObject CPlan_Type;

#define OP_ITEM(op, i) PyTuple_GET_ITEM((op), (i))

/* The op's code when its layout is the one repro.apps.runtime.
 * compile_plan gives that code, else -1: an unrecognised plan is
 * driven through its handler generator instead. */
static int
plan_op_code(PyObject *op, int last)
{
    if (!PyTuple_CheckExact(op) || PyTuple_GET_SIZE(op) < 2
        || !PyLong_CheckExact(OP_ITEM(op, 0)))
        return -1;
    long code = PyLong_AsLong(OP_ITEM(op, 0));
    Py_ssize_t n = PyTuple_GET_SIZE(op);
#define F(i) PyFloat_CheckExact(OP_ITEM(op, i))
#define S(i) PyUnicode_CheckExact(OP_ITEM(op, i))
    int ok;
    switch (code) {
    case OP_COMPUTE:
        ok = n == 4 && F(1) && F(2) && S(3);
        break;
    case OP_CALL:
        ok = n == 4 && S(1) && S(2);
        break;
    case OP_GATHER:
        ok = n == 2 && PyTuple_CheckExact(OP_ITEM(op, 1))
            && PyTuple_GET_SIZE(OP_ITEM(op, 1)) > 0;
        for (Py_ssize_t i = 0; ok && i < PyTuple_GET_SIZE(OP_ITEM(op, 1));
             i++) {
            PyObject *call = PyTuple_GET_ITEM(OP_ITEM(op, 1), i);
            ok = PyTuple_CheckExact(call) && PyTuple_GET_SIZE(call) == 3
                && PyUnicode_CheckExact(PyTuple_GET_ITEM(call, 0))
                && PyUnicode_CheckExact(PyTuple_GET_ITEM(call, 1));
        }
        break;
    case OP_CACHE:
        ok = n == 7 && F(1) && F(2) && F(3) && F(4) && S(5) && S(6);
        break;
    case OP_BATCH:         /* interpreted by runtime.batch_demand */
        ok = n == 9;
        break;
    case OP_QUERY:
        ok = n == 5 && F(1) && F(2) && F(3) && S(4);
        break;
    case OP_RETURN:
        ok = n == 2;
        break;
    default:
        ok = 0;
    }
#undef F
#undef S
    if (!ok || (code == OP_RETURN) != last)
        return -1;
    return (int)code;
}

/* A CPlan for `plan`, or None (new reference) when its layout is not
 * recognised. */
static PyObject *
cplan_new(PyObject *plan, PyObject *streams, PyObject *local_id)
{
    if (!PyTuple_CheckExact(plan) || PyTuple_GET_SIZE(plan) < 1)
        Py_RETURN_NONE;
    Py_ssize_t n = PyTuple_GET_SIZE(plan);
    for (Py_ssize_t i = 0; i < n; i++)
        if (plan_op_code(PyTuple_GET_ITEM(plan, i), i == n - 1) < 0)
            Py_RETURN_NONE;
    PyObject *params = PyObject_GetAttr(streams, M.s_lognormal_params);
    if (params == NULL)
        return NULL;
    if (!PyDict_CheckExact(params)) {
        Py_DECREF(params);
        Py_RETURN_NONE;
    }
    CPlanObject *p = (CPlanObject *)CPlan_Type.tp_alloc(&CPlan_Type, 0);
    if (p == NULL) {
        Py_DECREF(params);
        return NULL;
    }
    p->params = params;
    p->steps = PyMem_Calloc(n, sizeof(PlanStep));
    if (p->steps == NULL) {
        Py_DECREF(p);
        return PyErr_NoMemory();
    }
    p->n = n;
    Py_INCREF(plan);
    p->plan = plan;
    Py_INCREF(streams);
    p->streams = streams;
    Py_INCREF(local_id);
    p->local_id = local_id;
    for (Py_ssize_t i = 0; i < n; i++) {
        p->steps[i].op = PyTuple_GET_ITEM(plan, i);
        p->steps[i].code = plan_op_code(p->steps[i].op, i == n - 1);
    }
    return (PyObject *)p;
}

static void
CPlan_dealloc(CPlanObject *p)
{
    if (p->steps != NULL) {
        for (Py_ssize_t i = 0; i < p->n; i++) {
            stream_clear(&p->steps[i].demand);
            stream_clear(&p->steps[i].aux);
        }
        PyMem_Free(p->steps);
    }
    Py_XDECREF(p->plan);
    Py_XDECREF(p->streams);
    Py_XDECREF(p->params);
    Py_XDECREF(p->local_id);
    Py_TYPE(p)->tp_free((PyObject *)p);
}

static PyTypeObject CPlan_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cmodel.CPlan",
    .tp_basicsize = sizeof(CPlanObject),
    .tp_dealloc = (destructor)CPlan_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "An endpoint plan bound to one replica (internal).",
};

/* ---- the plain fabric: Deployment.dispatch / RpcFabric, in C ---- */

/* obj.<name> += 1 on a plain (dict-backed) Python object. */
static int
attr_increment(PyObject *obj, PyObject *name)
{
    PyObject *cur = PyObject_GetAttr(obj, name);
    if (cur == NULL)
        return -1;
    PyObject *next = PyNumber_Add(cur, M.one);
    Py_DECREF(cur);
    if (next == NULL)
        return -1;
    int rv = PyObject_SetAttr(obj, name, next);
    Py_DECREF(next);
    return rv;
}

/* `hop_latency == 0` (1, 0, or -1 on error). */
static int
hop_is_zero(PyObject *hop)
{
    if (PyFloat_CheckExact(hop))
        return PyFloat_AS_DOUBLE(hop) == 0.0;
    return PyObject_RichCompareBool(hop, M.zero, Py_EQ);
}

/* sim.schedule2(sim.now + hop, fn, a, b) — one network hop. */
static int
schedule_hop(PyObject *sim, PyObject *hop, PyObject *fn, PyObject *a,
             PyObject *b)
{
    PyObject *now = slot_get(sim, M.sim_now);
    PyObject *when;
    if (PyFloat_CheckExact(now) && PyFloat_CheckExact(hop))
        when = PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                                  + PyFloat_AS_DOUBLE(hop));
    else
        when = PyNumber_Add(now, hop);
    if (when == NULL)
        return -1;
    PyObject *argv[4] = {when, fn, a, b};
    PyObject *handle = PyObject_Vectorcall(slot_get(sim, M.sim_schedule2),
                                           argv, 4, NULL);
    Py_DECREF(when);
    if (handle == NULL)
        return -1;
    Py_DECREF(handle);
    return 0;
}

/* obj.<name>(arg), discarding the result. */
static int
call_method1(PyObject *obj, PyObject *name, PyObject *arg)
{
    PyObject *res = PyObject_CallMethodOneArg(obj, name, arg);
    Py_XDECREF(res);
    return res ? 0 : -1;
}

/* owner.<name> (a deque) and its length. */
static PyObject *
deque_attr(PyObject *owner, PyObject *name, Py_ssize_t *len)
{
    PyObject *deque = PyObject_GetAttr(owner, name);
    if (deque == NULL)
        return NULL;
    *len = PyObject_Size(deque);
    if (*len < 0) {
        Py_DECREF(deque);
        return NULL;
    }
    return deque;
}

/* ServiceInstance.enqueue + Store.try_put for an exact ServiceInstance;
 * shedding (shut down, full queue) and subclassed stores run the
 * reference method. */
static int
instance_enqueue(PyObject *instance, PyObject *request)
{
    PyObject *queue = slot_get(instance, M.in_queue);
    PyObject *done = slot_get(request, M.rq_done);
    if (!truthy(slot_get(instance, M.in_accepting)) || queue == NULL
        || Py_TYPE(queue) != (PyTypeObject *)M.store_type || done == NULL
        || Py_TYPE(done) != (PyTypeObject *)M.event_type)
        return call_method1(instance, M.s_enqueue, request);
    Py_ssize_t waiting, queued;
    PyObject *getters = deque_attr(queue, M.s_getters, &waiting);
    if (getters == NULL)
        return -1;
    PyObject *items = deque_attr(queue, M.s_items, &queued);
    PyObject *capacity = items ? PyObject_GetAttr(queue, M.s_capacity)
                               : NULL;
    int rv = -1;
    if (capacity == NULL)
        goto done;
    if (waiting == 0 && capacity != Py_None) {
        Py_ssize_t cap = PyLong_AsSsize_t(capacity);
        if (cap == -1 && PyErr_Occurred())
            goto done;
        if (queued >= cap) {
            /* Full: the reference sheds the request. */
            rv = call_method1(instance, M.s_enqueue, request);
            goto done;
        }
    }
    slot_store(request, M.rq_enqueued,
               slot_get(slot_get(done, M.ev_sim), M.sim_now));
    slot_store(request, M.rq_instance_id,
               slot_get(instance, M.in_instance_id));
    if (waiting > 0) {
        /* A parked worker takes it directly. */
        PyObject *getter = PyObject_CallMethodNoArgs(getters, M.s_popleft);
        rv = getter ? trigger_succeed(getter, request) : -1;
        Py_XDECREF(getter);
    }
    else
        rv = call_method1(items, M.s_append, request);
    if (rv == 0)
        rv = slot_add_long(instance, M.in_outstanding, 1);
done:
    Py_DECREF(getters);
    Py_XDECREF(items);
    Py_XDECREF(capacity);
    return rv;
}

/* RpcFabric._arrive(request, instance) as a schedule2 target. */
static PyObject *
cmodel_arrive(PyObject *Py_UNUSED(module), PyObject *const *args,
              Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_arrive(request, instance)");
        return NULL;
    }
    PyObject *request = args[0], *instance = args[1];
    int rv;
    if (Py_TYPE(request) != (PyTypeObject *)M.request_type
        || Py_TYPE(instance) != (PyTypeObject *)M.instance_type
        || slot_get(request, M.rq_deadline) != Py_None) {
        /* Deadlines (expiry in flight) and subclasses: the reference. */
        PyObject *deployment = PyObject_GetAttr(instance, M.s_deployment);
        PyObject *rpc = deployment
            ? PyObject_GetAttr(deployment, M.s_rpc) : NULL;
        Py_XDECREF(deployment);
        if (rpc == NULL)
            return NULL;
        PyObject *argv[3] = {rpc, request, instance};
        PyObject *res = PyObject_VectorcallMethod(M.s_arrive, argv, 3, NULL);
        Py_DECREF(rpc);
        return res;
    }
    rv = instance_enqueue(instance, request);
    if (rv < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* The return hop's trigger (rpc._trigger_succeed) as a schedule2 target. */
static PyObject *
cmodel_hop_succeed(PyObject *Py_UNUSED(module), PyObject *const *args,
                   Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_hop_succeed(done, response)");
        return NULL;
    }
    if (trigger_succeed(args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* RpcFabric.deliver on an exact RpcFabric. */
static int
fabric_deliver(PyObject *rpc, PyObject *sim, PyObject *request,
               PyObject *instance)
{
    if (attr_increment(rpc, M.s_messages_sent) < 0)
        return -1;
    PyObject *hop = PyObject_GetAttr(rpc, M.s_hop_latency);
    if (hop == NULL)
        return -1;
    int zero = hop_is_zero(hop);
    int rv;
    if (zero < 0)
        rv = -1;
    else if (zero) {
        PyObject *argv[2] = {request, instance};
        PyObject *res = cmodel_arrive(NULL, argv, 2);
        rv = res ? 0 : -1;
        Py_XDECREF(res);
    }
    else
        rv = schedule_hop(sim, hop, M.arrive_fn, request, instance);
    Py_DECREF(hop);
    return rv;
}

/* RpcFabric.respond on an exact RpcFabric. */
static int
fabric_respond(PyObject *rpc, PyObject *sim, PyObject *done,
               PyObject *response)
{
    if (attr_increment(rpc, M.s_messages_sent) < 0)
        return -1;
    PyObject *hop = PyObject_GetAttr(rpc, M.s_hop_latency);
    if (hop == NULL)
        return -1;
    int zero = hop_is_zero(hop);
    int rv;
    if (zero < 0)
        rv = -1;
    else if (zero)
        rv = trigger_succeed(done, response);
    else
        rv = schedule_hop(sim, hop, M.hop_succeed_fn, done, response);
    Py_DECREF(hop);
    return rv;
}

/* LoadBalancer.pick(now): the healthy round-robin probe inline, every
 * other case (other policies, breakers, a non-accepting cursor replica,
 * no replicas) through the reference method. */
static PyObject *
balancer_pick(PyObject *balancer, PyObject *now)
{
    PyObject *policy = PyObject_GetAttr(balancer, M.s_policy);
    if (policy == NULL)
        return NULL;
    int rr = policy == M.s_round_robin
        || (PyUnicode_CheckExact(policy)
            && PyUnicode_Compare(policy, M.s_round_robin) == 0);
    Py_DECREF(policy);
    if (rr) {
        PyObject *instances = PyObject_GetAttr(balancer, M.s_instances);
        if (instances == NULL)
            return NULL;
        PyObject *next = PyObject_GetAttr(balancer, M.s_next);
        if (next == NULL) {
            Py_DECREF(instances);
            return NULL;
        }
        PyObject *picked = NULL;
        Py_ssize_t n = PyList_CheckExact(instances)
            ? PyList_GET_SIZE(instances) : 0;
        if (n > 0 && PyLong_CheckExact(next)) {
            Py_ssize_t start = PyLong_AsSsize_t(next);
            if (start == -1 && PyErr_Occurred()) {
                Py_DECREF(instances);
                Py_DECREF(next);
                return NULL;
            }
            if (start >= n)
                start %= n;
            PyObject *inst = start >= 0
                ? PyList_GET_ITEM(instances, start) : NULL;
            if (inst != NULL
                && Py_TYPE(inst) == (PyTypeObject *)M.instance_type
                && truthy(slot_get(inst, M.in_accepting))
                && slot_get(inst, M.in_breaker) == Py_None) {
                PyObject *cursor = PyLong_FromSsize_t(
                    start + 1 < n ? start + 1 : 0);
                if (cursor == NULL
                    || PyObject_SetAttr(balancer, M.s_next, cursor) < 0) {
                    Py_XDECREF(cursor);
                    Py_DECREF(instances);
                    Py_DECREF(next);
                    return NULL;
                }
                Py_DECREF(cursor);
                Py_INCREF(inst);
                picked = inst;
            }
        }
        Py_DECREF(instances);
        Py_DECREF(next);
        if (picked != NULL)
            return picked;
    }
    PyObject *argv[2] = {balancer, now};
    return PyObject_VectorcallMethod(M.s_pick, argv, 2, NULL);
}

/* Store.get() for an exact Store on an exact Simulator. */
static PyObject *
store_get(PyObject *queue, PyObject *sim)
{
    Py_ssize_t n, blocked;
    PyObject *item = NULL, *putters = NULL, *pair = NULL;
    PyObject *items = deque_attr(queue, M.s_items, &n);
    if (items == NULL)
        return NULL;
    PyObject *event = make_event(sim);
    if (event == NULL)
        goto fail;
    if (n == 0) {
        PyObject *getters = PyObject_GetAttr(queue, M.s_getters);
        int rv = getters ? call_method1(getters, M.s_append, event) : -1;
        Py_XDECREF(getters);
        if (rv < 0)
            goto fail;
        Py_DECREF(items);
        return event;
    }
    item = PyObject_CallMethodNoArgs(items, M.s_popleft);
    putters = item ? deque_attr(queue, M.s_putters, &blocked) : NULL;
    if (putters == NULL)
        goto fail;
    if (blocked > 0) {
        /* _admit_blocked_putter, as Store.get inlines it. */
        pair = PyObject_CallMethodNoArgs(putters, M.s_popleft);
        if (pair == NULL)
            goto fail;
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError, "blocked put must be a pair");
            goto fail;
        }
        if (call_method1(items, M.s_append, PyTuple_GET_ITEM(pair, 1)) < 0
            || trigger_succeed(PyTuple_GET_ITEM(pair, 0), Py_None) < 0)
            goto fail;
    }
    if (trigger_succeed(event, item) < 0)
        goto fail;
    Py_DECREF(items);
    Py_DECREF(item);
    Py_DECREF(putters);
    Py_XDECREF(pair);
    return event;
fail:
    Py_XDECREF(event);
    Py_DECREF(items);
    Py_XDECREF(item);
    Py_XDECREF(putters);
    Py_XDECREF(pair);
    return NULL;
}

/* lock.acquire(), inlined for an exact Resource. */
static PyObject *
resource_acquire(PyObject *lock)
{
    if (Py_TYPE(lock) != (PyTypeObject *)M.resource_type)
        return PyObject_CallMethodNoArgs(lock, M.s_acquire);
    PyObject *sim = PyObject_GetAttr(lock, M.str_sim);
    if (sim == NULL)
        return NULL;
    PyObject *event = make_event(sim);
    Py_DECREF(sim);
    if (event == NULL)
        return NULL;
    PyObject *in_use = PyObject_GetAttr(lock, M.s_in_use);
    PyObject *capacity = in_use
        ? PyObject_GetAttr(lock, M.s_capacity) : NULL;
    int free_slot = capacity
        ? PyObject_RichCompareBool(in_use, capacity, Py_LT) : -1;
    Py_XDECREF(capacity);
    int rv = -1;
    if (free_slot > 0) {
        PyObject *next = PyNumber_Add(in_use, M.one);
        if (next != NULL && PyObject_SetAttr(lock, M.s_in_use, next) == 0)
            rv = trigger_succeed(event, lock);
        Py_XDECREF(next);
    }
    else if (free_slot == 0) {
        PyObject *waiters = PyObject_GetAttr(lock, M.s_waiters);
        rv = waiters ? call_method1(waiters, M.s_append, event) : -1;
        Py_XDECREF(waiters);
    }
    Py_XDECREF(in_use);
    if (rv < 0) {
        Py_DECREF(event);
        return NULL;
    }
    return event;
}

/* lock.release(), inlined for an exact Resource. */
static int
resource_release(PyObject *lock)
{
    if (Py_TYPE(lock) != (PyTypeObject *)M.resource_type) {
        PyObject *res = PyObject_CallMethodNoArgs(lock, M.s_release);
        Py_XDECREF(res);
        return res ? 0 : -1;
    }
    PyObject *in_use = PyObject_GetAttr(lock, M.s_in_use);
    if (in_use == NULL)
        return -1;
    int held = PyObject_RichCompareBool(in_use, M.zero, Py_GT);
    if (held <= 0) {
        Py_DECREF(in_use);
        if (held == 0)
            PyErr_SetString(M.sim_error,
                            "release() without a matching acquire()");
        return -1;
    }
    Py_ssize_t waiting;
    PyObject *waiters = deque_attr(lock, M.s_waiters, &waiting);
    int rv = -1;
    if (waiters != NULL && waiting > 0) {
        /* The slot passes straight to the oldest waiter. */
        PyObject *next = PyObject_CallMethodNoArgs(waiters, M.s_popleft);
        if (next != NULL) {
            rv = trigger_succeed(next, lock);
            Py_DECREF(next);
        }
    }
    else if (waiters != NULL) {
        PyObject *fewer = PyNumber_Subtract(in_use, M.one);
        if (fewer != NULL)
            rv = PyObject_SetAttr(lock, M.s_in_use, fewer);
        Py_XDECREF(fewer);
    }
    Py_XDECREF(waiters);
    Py_DECREF(in_use);
    return rv;
}

/* The callback AllOf._check attaches to each gathered call: resolves
 * `outer` (the event the worker waits on) exactly when the reference
 * AllOf triggers — failed on the first failure, succeeded once every
 * call succeeded.  The success value is None: a plan discards it. */
typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *outer;
    Py_ssize_t remaining;
} GatherObject;

static PyObject *
Gather_vectorcall(PyObject *self, PyObject *const *args, size_t nargsf,
                  PyObject *kwnames)
{
    GatherObject *g = (GatherObject *)self;
    if (PyVectorcall_NARGS(nargsf) != 1
        || (kwnames != NULL && PyTuple_GET_SIZE(kwnames) > 0)) {
        PyErr_SetString(PyExc_TypeError, "gather expects one event");
        return NULL;
    }
    PyObject *event = args[0];
    int ok = truthy(slot_get(event, M.ev_ok));
    if (!ok)
        slot_store(event, M.ev_defused, Py_True);
    if (slot_get(g->outer, M.ev_value) != M.pending)
        Py_RETURN_NONE;     /* already resolved: failures just claimed */
    int rv = 0;
    if (!ok)
        rv = trigger(g->outer, slot_get(event, M.ev_value), 0);
    else if (--g->remaining == 0)
        rv = trigger_succeed(g->outer, Py_None);
    if (rv < 0)
        return NULL;
    Py_RETURN_NONE;
}

static void
Gather_dealloc(GatherObject *g)
{
    PyObject_GC_UnTrack(g);
    Py_XDECREF(g->outer);
    Py_TYPE(g)->tp_free((PyObject *)g);
}

static int
Gather_traverse(GatherObject *g, visitproc visit, void *arg)
{
    Py_VISIT(g->outer);
    return 0;
}

static int
Gather_clear(GatherObject *g)
{
    Py_CLEAR(g->outer);
    return 0;
}

static PyTypeObject Gather_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cmodel.Gather",
    .tp_basicsize = sizeof(GatherObject),
    .tp_dealloc = (destructor)Gather_dealloc,
    .tp_vectorcall_offset = offsetof(GatherObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
        | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "AllOf over one plan op's calls (internal).",
    .tp_traverse = (traverseproc)Gather_traverse,
    .tp_clear = (inquiry)Gather_clear,
};

/* AllOf(sim, events): the C gather when every event is an Event of
 * `sim`, else the reference class (which raises on a mix). */
static PyObject *
gather_events(PyObject *sim, PyObject *events)
{
    Py_ssize_t n = PyTuple_GET_SIZE(events);
    int native = n > 0;
    for (Py_ssize_t i = 0; native && i < n; i++) {
        PyObject *event = PyTuple_GET_ITEM(events, i);
        native = PyObject_TypeCheck(event, (PyTypeObject *)M.event_type)
            && slot_get(event, M.ev_sim) == sim;
    }
    if (!native)
        return PyObject_CallFunctionObjArgs(M.allof_type, sim, events, NULL);
    PyObject *outer = make_event(sim);
    if (outer == NULL)
        return NULL;
    GatherObject *g = PyObject_GC_New(GatherObject, &Gather_Type);
    if (g == NULL) {
        Py_DECREF(outer);
        return NULL;
    }
    g->vectorcall = Gather_vectorcall;
    Py_INCREF(outer);
    g->outer = outer;
    g->remaining = n;
    PyObject_GC_Track(g);
    for (Py_ssize_t i = 0; i < n; i++) {
        /* event.add_callback(self._check) */
        PyObject *event = PyTuple_GET_ITEM(events, i);
        PyObject *callbacks = slot_get(event, M.ev_callbacks);
        int rv;
        if (callbacks == NULL || callbacks == Py_None) {
            PyObject *res = Gather_vectorcall((PyObject *)g, &event, 1,
                                              NULL);
            rv = res ? 0 : -1;
            Py_XDECREF(res);
        }
        else if (PyList_Check(callbacks))
            rv = PyList_Append(callbacks, (PyObject *)g);
        else {
            PyErr_SetString(PyExc_TypeError,
                            "event callbacks must be a list");
            rv = -1;
        }
        if (rv < 0) {
            Py_DECREF(g);
            Py_DECREF(outer);
            return NULL;
        }
    }
    Py_DECREF(g);
    return outer;
}

/* A Request built exactly as Deployment.dispatch's plain path does. */
static PyObject *
new_request(PyObject *service, PyObject *endpoint, PyObject *done,
            PyObject *payload, PyObject *parent, PyObject *created_at)
{
    PyObject *rid = PyIter_Next(M.request_ids);
    if (rid == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "request ids exhausted");
        return NULL;
    }
    PyTypeObject *type = (PyTypeObject *)M.request_type;
    PyObject *r = type->tp_alloc(type, 0);
    if (r == NULL) {
        Py_DECREF(rid);
        return NULL;
    }
#define SET_SLOT(offset, value) do {                                  \
        PyObject *v_ = (value);                                       \
        Py_INCREF(v_);                                                \
        *(PyObject **)((char *)r + (offset)) = v_;                    \
    } while (0)
    *(PyObject **)((char *)r + M.rq_id) = rid;
    SET_SLOT(M.rq_service, service);
    SET_SLOT(M.rq_endpoint, endpoint);
    SET_SLOT(M.rq_payload, payload);
    SET_SLOT(M.rq_parent, parent);
    SET_SLOT(M.rq_done, done);
    SET_SLOT(M.rq_created, created_at);
    SET_SLOT(M.rq_enqueued, Py_None);
    SET_SLOT(M.rq_started, Py_None);
    SET_SLOT(M.rq_completed, Py_None);
    SET_SLOT(M.rq_instance_id, Py_None);
    SET_SLOT(M.rq_deadline, Py_None);
    SET_SLOT(M.rq_attempt, M.one);
#undef SET_SLOT
    return r;
}

/* ------------------------------------------------------------------ */
/* CWorker: one replica worker as a C state machine                    */
/* ------------------------------------------------------------------ */

/* Keep in sync with repro.services.instance._BOOT.._RUN; W_PLAN runs
 * an endpoint plan with no handler generator. */
enum { W_BOOT = 0, W_GET = 1, W_PAUSE = 2, W_RUN = 3, W_PLAN = 4 };

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *instance;     /* ServiceInstance */
    PyObject *deployment;
    PyObject *sim;
    PyObject *rpc;          /* the deployment's fabric */
    PyObject *rpc_respond;  /* bound rpc.respond */
    PyObject *resolve;      /* bound spec.resolve */
    PyObject *queue_get;    /* bound queue.get */
    PyObject *queue;        /* the queue when an exact Store on an exact
                               Simulator (gets inlined), else NULL */
    PyObject *core;         /* the scheduler's SchedCore, or NULL (then
                               every endpoint runs its handler) */
    PyObject *plans;        /* instance._plans, shared by the replica's
                               workers: endpoint name -> CPlan, or None
                               for an endpoint driven through its
                               handler */
    PyObject *request;      /* in-flight request, per state */
    PyObject *handler;      /* endpoint handler generator while W_RUN */
    CPlanObject *plan;      /* the plan running while W_PLAN */
    PyObject *lock;         /* a query op's shared lock once acquired */
    Py_ssize_t pc;          /* next op of `plan` */
    double serial;          /* a query op's serial demand */
    int phase;              /* a query op's progress (see plan_run) */
    int fast_fabric;        /* exact Deployment + RpcFabric: plain calls
                               and responses run in C */
    int state;
} CWorkerObject;

static PyTypeObject CWorker_Type;

static int worker_begin(CWorkerObject *w, PyObject *request);
static int worker_drive(CWorkerObject *w, PyObject *value, int failed);

/* self.state = _GET; self.queue.get().callbacks.append(self) */
static int
worker_next_get(CWorkerObject *w)
{
    w->state = W_GET;
    PyObject *event = w->queue != NULL ? store_get(w->queue, w->sim)
                                       : PyObject_CallNoArgs(w->queue_get);
    if (event == NULL)
        return -1;
    PyObject *callbacks = slot_get(event, M.ev_callbacks);
    int rv;
    if (callbacks == NULL || !PyList_Check(callbacks)) {
        PyErr_SetString(PyExc_SystemError,
                        "store get event has no callback list");
        rv = -1;
    }
    else
        rv = PyList_Append(callbacks, (PyObject *)w);
    Py_DECREF(event);
    return rv;
}

/* instance._fail_request(request, exc) + next queue get. */
static int
worker_fail_request(CWorkerObject *w, PyObject *request, PyObject *exc,
                    int then_get)
{
    PyObject *res = PyObject_CallMethod(w->instance, "_fail_request", "OO",
                                        request, exc);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return then_get ? worker_next_get(w) : 0;
}

/* The drive loop hit a yield-protocol violation: clear state and hand
 * off to the shared Python helper (throw in, park forever). */
static int
worker_protocol_error(CWorkerObject *w, PyObject *message)
{
    PyObject *request = w->request;
    PyObject *handler = w->handler;
    w->request = NULL;
    w->handler = NULL;
    PyObject *res = PyObject_CallFunctionObjArgs(
        M.protocol_error, w->instance, handler, request, message, NULL);
    Py_XDECREF(request);
    Py_XDECREF(handler);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Fetch the pending exception normalized, with traceback attached.
 * Returns a new reference to the exception instance. */
static PyObject *
fetch_exception(void)
{
    PyObject *type, *val, *tb;
    PyErr_Fetch(&type, &val, &tb);
    if (type == NULL) {
        PyErr_SetString(PyExc_SystemError,
                        "error return without exception set");
        return NULL;
    }
    PyErr_NormalizeException(&type, &val, &tb);
    if (tb != NULL && val != NULL)
        PyException_SetTraceback(val, tb);
    Py_XDECREF(type);
    Py_XDECREF(tb);
    return val;
}

/* The handler (or plan) raised `exc` (a new reference, consumed): an
 * Exception fails the request and the worker takes the next one;
 * anything else escalates on the next processing slot. */
static int
worker_raise(CWorkerObject *w, PyObject *exc)
{
    PyObject *request = w->request;
    w->request = NULL;
    Py_CLEAR(w->handler);
    Py_CLEAR(w->plan);
    Py_CLEAR(w->lock);
    w->phase = 0;
    int is_exc = PyObject_IsInstance(exc, PyExc_Exception);
    int rv;
    if (is_exc > 0)
        rv = worker_fail_request(w, request, exc, 1);
    else
        rv = is_exc == 0 ? escalate(w->sim, exc) : -1;
    Py_XDECREF(request);
    Py_DECREF(exc);
    return rv;
}

/* Completion bookkeeping + respond + next get (machine._finish). */
static int
worker_finish(CWorkerObject *w, PyObject *response)
{
    PyObject *request = w->request;
    w->request = NULL;
    Py_CLEAR(w->handler);
    Py_CLEAR(w->plan);
    int rv = -1;
    slot_store(request, M.rq_completed, slot_get(w->sim, M.sim_now));
    if (slot_add_long(w->instance, M.in_completed, 1) < 0)
        goto done;
    if (slot_add_long(w->instance, M.in_outstanding, -1) < 0)
        goto done;
    PyObject *tracer = PyObject_GetAttr(w->deployment, M.str_tracer);
    if (tracer == NULL)
        goto done;
    if (tracer != Py_None) {
        PyObject *res = PyObject_CallMethodOneArg(tracer, M.str_record,
                                                  request);
        if (res == NULL) {
            Py_DECREF(tracer);
            goto done;
        }
        Py_DECREF(res);
    }
    Py_DECREF(tracer);
    PyObject *done_ev = slot_get(request, M.rq_done);
    if (w->fast_fabric) {
        if (fabric_respond(w->rpc, w->sim, done_ev, response) < 0)
            goto done;
    }
    else {
        PyObject *argv[2] = {done_ev, response};
        PyObject *res = PyObject_Vectorcall(w->rpc_respond, argv, 2, NULL);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
    }
    rv = worker_next_get(w);
done:
    Py_DECREF(request);
    return rv;
}

/* ---- plan ops (each returns the event the reference handler yields,
 * or NULL with the exception the reference handler raises) ---- */

/* ServiceContext.submit_demand(demand): the scheduler core's one-call
 * submit. */
static PyObject *
plan_submit(CWorkerObject *w, double demand)
{
    PyObject *value = PyFloat_FromDouble(demand);
    if (value == NULL)
        return NULL;
    PyObject *event = core_submit_demand((SchedCoreObject *)w->core,
                                         w->instance, value);
    Py_DECREF(value);
    return event;
}

/* ServiceContext.compute(mean, cv): one lognormal draw on the
 * endpoint's demand stream, then submit. */
static PyObject *
plan_compute(CWorkerObject *w, PlanStep *s, int which, PyObject *mean,
             PyObject *cv, PyObject *name)
{
    Lognormal *src = &s->src[which];
    if (!src->ready) {
        PyObject *argv[4] = {w->plan->streams, name, mean, cv};
        PyObject *res = PyObject_VectorcallMethod(
            M.s_lognormal_source, argv, 4, NULL);
        if (res == NULL)
            return NULL;
        if (!PyTuple_CheckExact(res) || PyTuple_GET_SIZE(res) != 3) {
            Py_DECREF(res);
            PyErr_SetString(PyExc_TypeError,
                            "_lognormal_source must return a 3-tuple");
            return NULL;
        }
        PyObject *state = PyTuple_GET_ITEM(res, 0);
        src->mean = PyFloat_AS_DOUBLE(mean);
        src->constant = state == Py_None;
        if (!src->constant) {
            src->mu = PyFloat_AsDouble(PyTuple_GET_ITEM(res, 1));
            src->sigma = PyFloat_AsDouble(PyTuple_GET_ITEM(res, 2));
            if (s->demand.state == NULL) {
                Py_INCREF(state);
                s->demand.state = state;
            }
        }
        Py_DECREF(res);
        if (PyErr_Occurred())
            return NULL;
        src->ready = 1;
    }
    if (src->constant)
        return plan_submit(w, src->mean);
    double z;
    if (stream_draw(&s->demand, M.standard_normal, &z) < 0)
        return NULL;
    return plan_submit(w, exp(src->mu + src->sigma * z));
}

/* Deployment.dispatch's plain path for a call the C fabric can take;
 * NULL without an exception set when it cannot (resilience, subclasses,
 * an unknown service), so the caller dispatches through Python. */
static PyObject *
plan_call_fast(CWorkerObject *w, PyObject *service, PyObject *endpoint,
               PyObject *payload)
{
    if (!w->fast_fabric)
        return NULL;
    PyObject *resilience = PyObject_GetAttr(w->deployment, M.s_resilience);
    if (resilience == NULL)
        return NULL;
    Py_DECREF(resilience);
    if (resilience != Py_None)
        return NULL;
    PyObject *rpc = NULL, *balancers = NULL, *balancer = NULL;
    PyObject *now = NULL, *done = NULL, *request = NULL, *instance = NULL;
    PyObject *registry = PyObject_GetAttr(w->deployment, M.s_registry);
    if (registry == NULL)
        goto fail;
    rpc = PyObject_GetAttr(w->deployment, M.str_rpc);
    if (rpc == NULL)
        goto fail;
    if (Py_TYPE(registry) != (PyTypeObject *)M.registry_type
        || Py_TYPE(rpc) != (PyTypeObject *)M.rpc_type)
        goto cleanup;
    balancers = PyObject_GetAttr(registry, M.s_balancers);
    if (balancers == NULL)
        goto fail;
    if (!PyDict_CheckExact(balancers))
        goto cleanup;
    balancer = PyDict_GetItemWithError(balancers, service);
    if (balancer == NULL) {
        if (PyErr_Occurred())
            goto fail;
        goto cleanup;    /* unknown service: dispatch raises */
    }
    Py_INCREF(balancer);
    if (Py_TYPE(balancer) != (PyTypeObject *)M.balancer_type)
        goto cleanup;
    now = Py_NewRef(slot_get(w->sim, M.sim_now));
    done = make_event(w->sim);
    if (done == NULL)
        goto fail;
    request = new_request(service, endpoint, done, payload, w->request, now);
    if (request == NULL || attr_increment(registry, M.s_lookups) < 0)
        goto fail;
    instance = balancer_pick(balancer, now);
    if (instance == NULL || fabric_deliver(rpc, w->sim, request, instance) < 0)
        goto fail;
    goto cleanup;   /* done: the call is on the wire */
fail:
    Py_CLEAR(done);
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_SystemError, "plain call failed silently");
cleanup:
    Py_XDECREF(registry);
    Py_XDECREF(rpc);
    Py_XDECREF(balancers);
    Py_XDECREF(balancer);
    Py_XDECREF(now);
    Py_XDECREF(request);
    Py_XDECREF(instance);
    return done;
}

/* ServiceContext.call(service, endpoint, payload=payload). */
static PyObject *
plan_call(CWorkerObject *w, PyObject *service, PyObject *endpoint,
          PyObject *payload)
{
    PyObject *done = plan_call_fast(w, service, endpoint, payload);
    if (done != NULL || PyErr_Occurred())
        return done;
    PyObject *argv[5] = {w->deployment, service, endpoint, payload,
                         w->request};
    return PyObject_VectorcallMethod(M.s_dispatch, argv, 3,
                                     M.kw_payload_parent);
}

/* ServiceContext.gather(*[ctx.call(...) for each call]). */
static PyObject *
plan_gather(CWorkerObject *w, PyObject *calls)
{
    Py_ssize_t n = PyTuple_GET_SIZE(calls);
    PyObject *events = PyTuple_New(n);
    if (events == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *call = PyTuple_GET_ITEM(calls, i);
        PyObject *event = plan_call(w, PyTuple_GET_ITEM(call, 0),
                                    PyTuple_GET_ITEM(call, 1),
                                    PyTuple_GET_ITEM(call, 2));
        if (event == NULL) {
            Py_DECREF(events);
            return NULL;
        }
        PyTuple_SET_ITEM(events, i, event);
    }
    PyObject *all = gather_events(w->sim, events);
    Py_DECREF(events);
    return all;
}

/* runtime.query_demand(streams, op, payload): a numeric payload is
 * drawn here from the stream's buffer; anything else (and every invalid
 * argument) goes through the reference helper, which raises. */
static int
plan_query_demand(CWorkerObject *w, PlanStep *s, double *out)
{
    CPlanObject *p = w->plan;
    PyObject *op = s->op;
    PyObject *payload = slot_get(w->request, M.rq_payload);
    double scale = PyFloat_AS_DOUBLE(OP_ITEM(op, 2));
    double cv = PyFloat_AS_DOUBLE(OP_ITEM(op, 3));
    double cost = 0.0;
    int numeric = 0;
    if (PyFloat_CheckExact(payload)) {
        cost = PyFloat_AS_DOUBLE(payload) * scale;
        numeric = 1;
    }
    else if (PyLong_CheckExact(payload)) {
        double value = PyLong_AsDouble(payload);
        if (value == -1.0 && PyErr_Occurred())
            PyErr_Clear();
        else {
            cost = value * scale;
            numeric = 1;
        }
    }
    if (numeric && cost > 0.0 && cv == 0.0) {
        *out = cost;
        return 0;
    }
    if (!numeric || !(cost > 0.0) || !(cv > 0.0)) {
        PyObject *argv[3] = {p->streams, op, payload};
        PyObject *demand = PyObject_Vectorcall(M.query_demand, argv, 3,
                                               NULL);
        if (demand == NULL)
            return -1;
        *out = PyFloat_AsDouble(demand);
        Py_DECREF(demand);
        return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
    }
    PyObject *mean = PyFloat_FromDouble(cost);
    if (mean == NULL)
        return -1;
    PyObject *key = PyTuple_Pack(2, mean, OP_ITEM(op, 3));
    if (key == NULL) {
        Py_DECREF(mean);
        return -1;
    }
    PyObject *params = PyDict_GetItemWithError(p->params, key);
    Py_DECREF(key);
    if (params != NULL)
        Py_INCREF(params);
    else if (!PyErr_Occurred()) {
        PyObject *argv[3] = {p->streams, mean, OP_ITEM(op, 3)};
        params = PyObject_VectorcallMethod(M.s_lognormal_params_for, argv,
                                           3, NULL);
    }
    Py_DECREF(mean);
    if (params == NULL)
        return -1;
    double mu = 0.0, sigma = 0.0;
    if (PyTuple_Check(params) && PyTuple_GET_SIZE(params) == 2) {
        mu = PyFloat_AsDouble(PyTuple_GET_ITEM(params, 0));
        sigma = PyFloat_AsDouble(PyTuple_GET_ITEM(params, 1));
    }
    else
        PyErr_SetString(PyExc_TypeError, "lognormal params must be a pair");
    Py_DECREF(params);
    if (PyErr_Occurred())
        return -1;
    if (stream_bind(&s->demand, p->streams, OP_ITEM(op, 4),
                    M.s_lognormal) < 0)
        return -1;
    double z;
    if (stream_draw(&s->demand, M.standard_normal, &z) < 0)
        return -1;
    *out = exp(mu + sigma * z);
    return 0;
}

/* End the running plan with `exc` (a new reference, consumed), as the
 * reference handler's raise does: a held query lock is released first
 * (the handler's `finally`), then an Exception fails the request and
 * anything else escalates on the next processing slot. */
static int
plan_throw(CWorkerObject *w, PyObject *exc, int lock_held)
{
    if (lock_held && w->lock != NULL) {
        PyObject *lock = w->lock;
        w->lock = NULL;
        int released = resource_release(lock);
        Py_DECREF(lock);
        if (released < 0) {
            /* An exception raised in `finally` replaces the one in
             * flight, which becomes its context. */
            PyObject *raised = fetch_exception();
            if (raised == NULL) {
                Py_DECREF(exc);
                return -1;
            }
            PyException_SetContext(raised, exc);
            exc = raised;
        }
    }
    return worker_raise(w, exc);
}

/* The plan yielded something that is not an event of this simulator:
 * as _worker_protocol_error does for a handler, the error is raised at
 * the yield, the request fails, and the worker parks for good behind a
 * discarded queue get. */
static int
plan_protocol_error(CWorkerObject *w, PyObject *message, int lock_held)
{
    if (message == NULL)
        return -1;
    PyObject *error = PyObject_CallOneArg(M.sim_error, message);
    Py_DECREF(message);
    if (error == NULL)
        return -1;
    if (lock_held && w->lock != NULL) {
        PyObject *lock = w->lock;
        w->lock = NULL;
        int released = resource_release(lock);
        Py_DECREF(lock);
        if (released < 0) {
            Py_DECREF(error);
            return -1;
        }
    }
    PyObject *request = w->request;
    w->request = NULL;
    Py_CLEAR(w->plan);
    int rv = worker_fail_request(w, request, error, 0);
    Py_XDECREF(request);
    Py_DECREF(error);
    if (rv < 0)
        return -1;
    PyObject *discarded = PyObject_CallNoArgs(w->queue_get);
    if (discarded == NULL)
        return -1;
    Py_DECREF(discarded);
    return 0;
}

/* Interpret the plan from `pc` until it waits on an event or ends — the
 * reference handler generator (runtime._plan_handler), step for step.
 * A query op moves through `phase`: 0 draw and submit the parallel
 * part; 1 acquire the shared lock; 2 submit the serial part under it;
 * 3 release it (the handler's `finally`) and move on. */
static int
plan_run(CWorkerObject *w)
{
    for (;;) {
        PlanStep *s = &w->plan->steps[w->pc];
        PyObject *op = s->op;
        PyObject *event = NULL;
        int lock_held = 0;
        switch (s->code) {
        case OP_COMPUTE:
            w->pc++;
            event = plan_compute(w, s, 0, OP_ITEM(op, 1), OP_ITEM(op, 2),
                                 OP_ITEM(op, 3));
            break;
        case OP_CALL:
            w->pc++;
            event = plan_call(w, OP_ITEM(op, 1), OP_ITEM(op, 2),
                              OP_ITEM(op, 3));
            break;
        case OP_GATHER:
            w->pc++;
            event = plan_gather(w, OP_ITEM(op, 1));
            break;
        case OP_CACHE: {
            w->pc++;
            double z;
            if (stream_bind(&s->aux, w->plan->streams, OP_ITEM(op, 6),
                            M.s_uniform) < 0
                || stream_draw(&s->aux, M.standard_uniform, &z) < 0)
                break;
            /* RandomStreams.uniform(name, 0.0, 1.0) */
            int hit = 0.0 + (1.0 - 0.0) * z < PyFloat_AS_DOUBLE(OP_ITEM(op, 1));
            event = plan_compute(w, s, hit ? 0 : 1, OP_ITEM(op, hit ? 2 : 3),
                                 OP_ITEM(op, 4), OP_ITEM(op, 5));
            break;
        }
        case OP_BATCH: {
            w->pc++;
            PyObject *argv[4] = {w->plan->streams, op,
                                 slot_get(w->request, M.rq_payload),
                                 w->plan->local_id};
            PyObject *demand = PyObject_Vectorcall(M.batch_demand, argv, 4,
                                                   NULL);
            if (demand != NULL) {
                event = core_submit_demand((SchedCoreObject *)w->core,
                                           w->instance, demand);
                Py_DECREF(demand);
            }
            break;
        }
        case OP_QUERY:
            if (w->phase == 0) {
                double demand;
                w->phase = 1;
                if (plan_query_demand(w, s, &demand) < 0)
                    break;
                double fraction = PyFloat_AS_DOUBLE(OP_ITEM(op, 1));
                w->serial = demand * fraction;
                event = plan_submit(w, demand * (1.0 - fraction));
            }
            else if (w->phase == 1) {
                w->phase = 2;
                PyObject *shared = slot_get(w->instance, M.in_shared);
                PyObject *lock = shared
                    ? PyObject_GetItem(shared, M.s_lock) : NULL;
                if (lock == NULL) {
                    if (!PyErr_Occurred())
                        PyErr_SetString(PyExc_AttributeError, "shared");
                    break;
                }
                event = resource_acquire(lock);
                if (event != NULL)
                    w->lock = lock;
                else
                    Py_DECREF(lock);
            }
            else if (w->phase == 2) {
                w->phase = 3;
                lock_held = 1;
                event = plan_submit(w, w->serial);
            }
            else {
                PyObject *lock = w->lock;
                w->lock = NULL;
                w->phase = 0;
                w->pc++;
                int rv = lock ? resource_release(lock) : -1;
                Py_XDECREF(lock);
                if (rv < 0) {
                    if (!PyErr_Occurred())
                        PyErr_SetString(PyExc_SystemError,
                                        "query lock lost");
                    break;
                }
                continue;
            }
            break;
        default: {  /* OP_RETURN */
            PyObject *response = OP_ITEM(op, 1);
            Py_INCREF(response);
            int rv = worker_finish(w, response);
            Py_DECREF(response);
            return rv;
        }
        }
        if (event == NULL) {
            PyObject *exc = fetch_exception();
            return exc ? plan_throw(w, exc, lock_held) : -1;
        }
        /* The handler's `yield event`, as the worker drives it. */
        if (!PyObject_TypeCheck(event, (PyTypeObject *)M.event_type)) {
            PyObject *message = PyUnicode_FromFormat(
                "process yielded a non-event: %R", event);
            Py_DECREF(event);
            return plan_protocol_error(w, message, lock_held);
        }
        if (slot_get(event, M.ev_sim) != w->sim) {
            Py_DECREF(event);
            return plan_protocol_error(w, PyUnicode_FromString(
                "yielded event belongs to another simulator"), lock_held);
        }
        PyObject *callbacks = slot_get(event, M.ev_callbacks);
        if (callbacks == NULL || callbacks == Py_None) {
            /* Already processed: resume inline. */
            if (truthy(slot_get(event, M.ev_ok))) {
                Py_DECREF(event);
                continue;
            }
            slot_store(event, M.ev_defused, Py_True);
            PyObject *exc = slot_get(event, M.ev_value);
            Py_INCREF(exc);
            Py_DECREF(event);
            return plan_throw(w, exc, lock_held);
        }
        int rv = PyList_Check(callbacks)
            ? PyList_Append(callbacks, (PyObject *)w) : -1;
        if (rv < 0 && !PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "event callbacks must be a list");
        Py_DECREF(event);
        return rv;
    }
}

/* W_PLAN wake: the awaited event was processed. */
static int
plan_resume(CWorkerObject *w, PyObject *event)
{
    if (truthy(slot_get(event, M.ev_ok)))
        return plan_run(w);
    slot_store(event, M.ev_defused, Py_True);
    PyObject *exc = slot_get(event, M.ev_value);
    Py_INCREF(exc);
    /* Only the serial part of a query op waits inside the `try`. */
    PlanStep *s = &w->plan->steps[w->pc];
    return plan_throw(w, exc, s->code == OP_QUERY && w->phase == 3);
}

/* machine._drive: pump the endpoint handler generator. */
static int
worker_drive(CWorkerObject *w, PyObject *value, int failed)
{
    PyObject *handler = w->handler;
    Py_INCREF(handler);
    Py_XINCREF(value);
    int rv = 0;
    for (;;) {
        PyObject *target = NULL;
        if (failed) {
            target = PyObject_CallMethodOneArg(handler, M.str_throw, value);
            Py_CLEAR(value);
            if (target == NULL)
                goto handler_raised;
        }
        else {
            PySendResult sr = PyIter_Send(handler, value ? value : Py_None,
                                          &target);
            Py_CLEAR(value);
            if (sr == PYGEN_RETURN) {
                rv = worker_finish(w, target);
                Py_DECREF(target);
                break;
            }
            if (sr == PYGEN_ERROR)
                goto handler_raised;
        }
        /* The handler yielded `target`. */
        if (!PyObject_TypeCheck(target, (PyTypeObject *)M.event_type)) {
            PyObject *msg = PyUnicode_FromFormat(
                "process yielded a non-event: %R", target);
            Py_DECREF(target);
            rv = msg ? worker_protocol_error(w, msg) : -1;
            Py_XDECREF(msg);
            break;
        }
        if (slot_get(target, M.ev_sim) != w->sim) {
            Py_DECREF(target);
            PyObject *msg = PyUnicode_FromString(
                "yielded event belongs to another simulator");
            rv = msg ? worker_protocol_error(w, msg) : -1;
            Py_XDECREF(msg);
            break;
        }
        PyObject *callbacks = slot_get(target, M.ev_callbacks);
        if (callbacks == NULL || callbacks == Py_None) {
            /* Already processed: resume inline. */
            if (truthy(slot_get(target, M.ev_ok)))
                failed = 0;
            else {
                slot_store(target, M.ev_defused, Py_True);
                failed = 1;
            }
            value = slot_get(target, M.ev_value);
            Py_XINCREF(value);
            Py_DECREF(target);
            continue;
        }
        if (!PyList_Check(callbacks)) {
            Py_DECREF(target);
            PyErr_SetString(PyExc_TypeError,
                            "event callbacks must be a list");
            rv = -1;
            break;
        }
        rv = PyList_Append(callbacks, (PyObject *)w);
        Py_DECREF(target);
        break;

    handler_raised:
        if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
            PyObject *exc = fetch_exception();
            if (exc == NULL) {
                rv = -1;
                break;
            }
            PyObject *stop_value = PyObject_GetAttr(exc, M.str_value);
            Py_DECREF(exc);
            if (stop_value == NULL) {
                rv = -1;
                break;
            }
            rv = worker_finish(w, stop_value);
            Py_DECREF(stop_value);
            break;
        }
        /* Handler bug or modelled failure (or a BaseException). */
        PyObject *exc = fetch_exception();
        rv = exc ? worker_raise(w, exc) : -1;
        break;
    }
    Py_DECREF(handler);
    return rv;
}

/* machine._begin: pause gate -> deadline -> the endpoint's plan, or
 * its handler generator when it has none. */
static int
worker_begin(CWorkerObject *w, PyObject *request)
{
    /* `request` is owned by the caller throughout. */
    for (;;) {
        PyObject *pause = slot_get(w->instance, M.in_pause);
        if (pause == NULL || pause == Py_None)
            break;
        PyObject *callbacks = slot_get(pause, M.ev_callbacks);
        if (callbacks == NULL || callbacks == Py_None) {
            /* Already processed: a failed gate escalates, a succeeded
             * one re-checks the gate. */
            if (!truthy(slot_get(pause, M.ev_ok))) {
                slot_store(pause, M.ev_defused, Py_True);
                PyObject *exc = slot_get(pause, M.ev_value);
                return escalate(w->sim, exc ? exc : Py_None);
            }
            continue;
        }
        if (!PyList_Check(callbacks)) {
            PyErr_SetString(PyExc_TypeError,
                            "event callbacks must be a list");
            return -1;
        }
        Py_INCREF(request);
        Py_XSETREF(w->request, request);
        w->state = W_PAUSE;
        return PyList_Append(callbacks, (PyObject *)w);
    }
    PyObject *now_obj = slot_get(w->sim, M.sim_now);
    slot_store(request, M.rq_started, now_obj);
    PyObject *deadline = slot_get(request, M.rq_deadline);
    if (deadline != NULL && deadline != Py_None) {
        double now = as_double(now_obj);
        double dl = as_double(deadline);
        if (PyErr_Occurred())
            return -1;
        if (now >= dl) {
            PyObject *res = PyObject_CallMethod(
                w->instance, "_expire_request", "O", request);
            if (res == NULL)
                return -1;
            Py_DECREF(res);
            return worker_next_get(w);
        }
    }
    PyObject *context = NULL, *endpoint_spec = NULL;
    PyObject *handler_fn = NULL, *handler = NULL;
    PyObject *name = slot_get(request, M.rq_endpoint);
    PyObject *cplan = PyDict_GetItemWithError(w->plans, name);
    if (cplan == NULL) {
        /* First request for this endpoint: bind its plan, if any. */
        if (PyErr_Occurred())
            return -1;
        endpoint_spec = PyObject_CallOneArg(w->resolve, name);
        if (endpoint_spec == NULL)
            goto construction_failed;
        PyObject *plan = PyObject_GetAttr(endpoint_spec, M.s_plan);
        if (plan == NULL) {
            if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                goto construction_failed;
            PyErr_Clear();
            plan = Py_NewRef(Py_None);
        }
        if (plan == Py_None || w->core == NULL) {
            /* Drive the handler: no plan, or no C core to submit to. */
            Py_DECREF(plan);
            cplan = Py_NewRef(Py_None);
        }
        else {
            PyObject *streams = PyObject_GetAttr(w->deployment,
                                                 M.s_streams);
            cplan = streams ? cplan_new(plan, streams,
                                        slot_get(w->instance, M.in_local_id))
                            : NULL;
            Py_XDECREF(streams);
            Py_DECREF(plan);
        }
        if (cplan == NULL)
            goto construction_failed;
        int rv = PyDict_SetItem(w->plans, name, cplan);
        Py_DECREF(cplan);   /* the dict keeps it */
        if (rv < 0)
            goto construction_failed;
    }
    if (cplan != Py_None) {
        Py_XDECREF(endpoint_spec);
        Py_INCREF(request);
        Py_XSETREF(w->request, request);
        Py_INCREF(cplan);
        Py_XSETREF(w->plan, (CPlanObject *)cplan);
        w->pc = 0;
        w->phase = 0;
        w->state = W_PLAN;
        return plan_run(w);
    }
    context = PyObject_CallFunctionObjArgs(M.context_type, w->instance,
                                           request, NULL);
    if (context == NULL)
        goto construction_failed;
    if (endpoint_spec == NULL) {
        endpoint_spec = PyObject_CallOneArg(w->resolve, name);
        if (endpoint_spec == NULL)
            goto construction_failed;
    }
    handler_fn = PyObject_GetAttr(endpoint_spec, M.str_handler);
    if (handler_fn == NULL)
        goto construction_failed;
    handler = PyObject_CallOneArg(handler_fn, context);
    if (handler == NULL)
        goto construction_failed;
    Py_DECREF(context);
    Py_DECREF(endpoint_spec);
    Py_DECREF(handler_fn);
    Py_INCREF(request);
    Py_XSETREF(w->request, request);
    w->handler = handler;
    w->state = W_RUN;
    return worker_drive(w, NULL, 0);

construction_failed:
    Py_XDECREF(context);
    Py_XDECREF(endpoint_spec);
    Py_XDECREF(handler_fn);
    /* except Exception -> fail the request; BaseException propagates
     * (exactly the reference's try/except Exception). */
    {
        PyObject *exc = fetch_exception();
        if (exc == NULL)
            return -1;
        int is_exc = PyObject_IsInstance(exc, PyExc_Exception);
        if (is_exc <= 0) {
            if (is_exc == 0)
                PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
            Py_DECREF(exc);
            return -1;
        }
        int rv = worker_fail_request(w, request, exc, 1);
        Py_DECREF(exc);
        return rv;
    }
}

/* machine.__call__(event): the event-callback entry point. */
static PyObject *
CWorker_vectorcall(PyObject *self, PyObject *const *args, size_t nargsf,
                   PyObject *kwnames)
{
    CWorkerObject *w = (CWorkerObject *)self;
    if (PyVectorcall_NARGS(nargsf) != 1
        || (kwnames != NULL && PyTuple_GET_SIZE(kwnames) > 0)) {
        PyErr_SetString(PyExc_TypeError,
                        "worker machine expects exactly one event");
        return NULL;
    }
    PyObject *event = args[0];
    int rv;
    int state = w->state;
    if (state == W_PLAN)
        rv = plan_resume(w, event);
    else if (state == W_RUN) {
        PyObject *value = slot_get(event, M.ev_value);
        if (truthy(slot_get(event, M.ev_ok)))
            rv = worker_drive(w, value, 0);
        else {
            slot_store(event, M.ev_defused, Py_True);
            rv = worker_drive(w, value, 1);
        }
    }
    else if (!truthy(slot_get(event, M.ev_ok))) {
        /* Failed wake with no handler frame: defuse and escalate. */
        slot_store(event, M.ev_defused, Py_True);
        PyObject *exc = slot_get(event, M.ev_value);
        rv = escalate(w->sim, exc ? exc : Py_None);
    }
    else if (state == W_GET) {
        PyObject *request = slot_get(event, M.ev_value);
        Py_XINCREF(request);
        rv = request ? worker_begin(w, request) : -1;
        Py_XDECREF(request);
    }
    else if (state == W_PAUSE) {
        PyObject *request = w->request;
        w->request = NULL;
        rv = request ? worker_begin(w, request) : -1;
        if (request == NULL)
            PyErr_SetString(PyExc_SystemError,
                            "paused worker lost its request");
        Py_XDECREF(request);
    }
    else    /* W_BOOT */
        rv = worker_next_get(w);
    if (rv < 0)
        return NULL;
    Py_RETURN_NONE;
}

static void
CWorker_dealloc(CWorkerObject *w)
{
    PyObject_GC_UnTrack(w);
    Py_XDECREF(w->instance);
    Py_XDECREF(w->deployment);
    Py_XDECREF(w->sim);
    Py_XDECREF(w->rpc);
    Py_XDECREF(w->rpc_respond);
    Py_XDECREF(w->resolve);
    Py_XDECREF(w->queue_get);
    Py_XDECREF(w->queue);
    Py_XDECREF(w->core);
    Py_XDECREF(w->plans);
    Py_XDECREF(w->request);
    Py_XDECREF(w->handler);
    Py_XDECREF(w->plan);
    Py_XDECREF(w->lock);
    Py_TYPE(w)->tp_free((PyObject *)w);
}

static int
CWorker_traverse(CWorkerObject *w, visitproc visit, void *arg)
{
    Py_VISIT(w->instance);
    Py_VISIT(w->deployment);
    Py_VISIT(w->sim);
    Py_VISIT(w->rpc);
    Py_VISIT(w->rpc_respond);
    Py_VISIT(w->resolve);
    Py_VISIT(w->queue_get);
    Py_VISIT(w->queue);
    Py_VISIT(w->core);
    Py_VISIT(w->plans);
    Py_VISIT(w->request);
    Py_VISIT(w->handler);
    Py_VISIT(w->lock);
    return 0;
}

static int
CWorker_clear_impl(CWorkerObject *w)
{
    Py_CLEAR(w->instance);
    Py_CLEAR(w->deployment);
    Py_CLEAR(w->rpc);
    Py_CLEAR(w->rpc_respond);
    Py_CLEAR(w->resolve);
    Py_CLEAR(w->queue_get);
    Py_CLEAR(w->queue);
    Py_CLEAR(w->core);
    Py_CLEAR(w->plans);
    Py_CLEAR(w->request);
    Py_CLEAR(w->handler);
    Py_CLEAR(w->plan);
    Py_CLEAR(w->lock);
    return 0;
}

static PyObject *
CWorker_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *instance;
    if (!M.configured) {
        PyErr_SetString(PyExc_RuntimeError,
                        "repro.sim._cmodel.configure() has not been called");
        return NULL;
    }
    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "CWorker() takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O", &instance))
        return NULL;
    CWorkerObject *w = (CWorkerObject *)type->tp_alloc(type, 0);
    if (w == NULL)
        return NULL;
    w->vectorcall = CWorker_vectorcall;
    w->state = W_BOOT;
    Py_INCREF(instance);
    w->instance = instance;
    PyObject *deployment = slot_get(instance, M.in_deployment);
    if (deployment == NULL) {
        PyErr_SetString(PyExc_AttributeError, "deployment");
        goto fail;
    }
    Py_INCREF(deployment);
    w->deployment = deployment;
    w->sim = PyObject_GetAttr(deployment, M.str_sim);
    if (w->sim == NULL)
        goto fail;
    w->rpc = PyObject_GetAttr(deployment, M.str_rpc);
    if (w->rpc == NULL)
        goto fail;
    w->rpc_respond = PyObject_GetAttr(w->rpc, M.str_respond);
    if (w->rpc_respond == NULL)
        goto fail;
    w->fast_fabric = Py_TYPE(deployment) == (PyTypeObject *)M.deployment_type
        && Py_TYPE(w->rpc) == (PyTypeObject *)M.rpc_type
        && Py_TYPE(w->sim) == (PyTypeObject *)M.sim_type;
    w->plans = PyObject_GetAttr(instance, M.s_plans);
    if (w->plans == NULL)
        goto fail;
    if (!PyDict_CheckExact(w->plans)) {
        PyErr_SetString(PyExc_TypeError, "instance._plans must be a dict");
        goto fail;
    }
    PyObject *scheduler = PyObject_GetAttr(deployment, M.s_scheduler);
    if (scheduler == NULL)
        goto fail;
    PyObject *core = PyObject_GetAttr(scheduler, M.s_core);
    Py_DECREF(scheduler);
    if (core == NULL)
        PyErr_Clear();
    else if (Py_TYPE(core) == &SchedCore_Type)
        w->core = core;
    else
        Py_DECREF(core);
    PyObject *spec = slot_get(instance, M.in_spec);
    if (spec == NULL) {
        PyErr_SetString(PyExc_AttributeError, "spec");
        goto fail;
    }
    w->resolve = PyObject_GetAttr(spec, M.str_resolve);
    if (w->resolve == NULL)
        goto fail;
    PyObject *queue = slot_get(instance, M.in_queue);
    if (queue == NULL) {
        PyErr_SetString(PyExc_AttributeError, "queue");
        goto fail;
    }
    w->queue_get = PyObject_GetAttr(queue, M.str_get);
    if (w->queue_get == NULL)
        goto fail;
    if (Py_TYPE(queue) == (PyTypeObject *)M.store_type
        && Py_TYPE(w->sim) == (PyTypeObject *)M.sim_type) {
        PyObject *queue_sim = PyObject_GetAttr(queue, M.str_sim);
        if (queue_sim == NULL)
            goto fail;
        if (queue_sim == w->sim) {
            Py_INCREF(queue);
            w->queue = queue;
        }
        Py_DECREF(queue_sim);
    }
    /* Same bootstrap pattern (and counter consumption) as the Python
     * machine and Process: first run on the next processing slot. */
    PyObject *bootstrap = PyObject_CallOneArg(M.event_type, w->sim);
    if (bootstrap == NULL)
        goto fail;
    PyObject *callbacks = slot_get(bootstrap, M.ev_callbacks);
    if (callbacks == NULL || !PyList_Check(callbacks)
        || PyList_Append(callbacks, (PyObject *)w) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_SystemError,
                            "fresh event has no callback list");
        Py_DECREF(bootstrap);
        goto fail;
    }
    PyObject *res = PyObject_CallMethodNoArgs(bootstrap, M.str_succeed);
    Py_DECREF(bootstrap);
    if (res == NULL)
        goto fail;
    Py_DECREF(res);
    return (PyObject *)w;
fail:
    Py_DECREF(w);
    return NULL;
}

static PyTypeObject CWorker_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cmodel.CWorker",
    .tp_basicsize = sizeof(CWorkerObject),
    .tp_dealloc = (destructor)CWorker_dealloc,
    .tp_vectorcall_offset = offsetof(CWorkerObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
        | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled replica worker machine "
              "(see repro.services.instance._WorkerMachine).",
    .tp_traverse = (traverseproc)CWorker_traverse,
    .tp_clear = (inquiry)CWorker_clear_impl,
    .tp_new = CWorker_new,
};

/* ------------------------------------------------------------------ */
/* Module configuration                                                */
/* ------------------------------------------------------------------ */

static Py_ssize_t
member_offset(PyObject *type, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(type, name);
    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        PyErr_Format(PyExc_TypeError,
                     "%.200s.%s is not a slot member descriptor",
                     ((PyTypeObject *)type)->tp_name, name);
        Py_DECREF(descr);
        return -1;
    }
    Py_ssize_t offset = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    return offset;
}

static PyObject *
cmodel_configure(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *event_type, *pending, *sim_error, *sim_type;
    PyObject *burst_type, *group_type, *request_type, *instance_type;
    PyObject *context_type, *protocol_error, *sched_error, *memmodel_type;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOO", &event_type, &pending,
                          &sim_error, &sim_type, &burst_type, &group_type,
                          &request_type, &instance_type, &context_type,
                          &protocol_error, &sched_error, &memmodel_type))
        return NULL;
    if (!PyType_Check(event_type) || !PyType_Check(sim_type)
        || !PyType_Check(burst_type) || !PyType_Check(group_type)
        || !PyType_Check(request_type) || !PyType_Check(instance_type)
        || !PyType_Check(context_type) || !PyType_Check(memmodel_type)) {
        PyErr_SetString(PyExc_TypeError,
                        "configure() expects (Event, _PENDING, "
                        "SimulationError, Simulator, CpuBurst, TaskGroup, "
                        "Request, ServiceInstance, ServiceContext, "
                        "_worker_protocol_error, SchedulingError, "
                        "MemorySystemModel)");
        return NULL;
    }

    Py_ssize_t ev_sim = member_offset(event_type, "sim");
    Py_ssize_t ev_callbacks = member_offset(event_type, "callbacks");
    Py_ssize_t ev_value = member_offset(event_type, "_value");
    Py_ssize_t ev_ok = member_offset(event_type, "_ok");
    Py_ssize_t ev_defused = member_offset(event_type, "_defused");
    Py_ssize_t ev_qcounter = member_offset(event_type, "_qcounter");
    Py_ssize_t sim_now = member_offset(sim_type, "now");
    Py_ssize_t sim_push_ready = member_offset(sim_type, "_push_ready");
    Py_ssize_t b_demand = member_offset(burst_type, "demand");
    Py_ssize_t b_group = member_offset(burst_type, "group");
    Py_ssize_t b_done = member_offset(burst_type, "done");
    Py_ssize_t b_submitted = member_offset(burst_type, "submitted_at");
    Py_ssize_t b_started = member_offset(burst_type, "started_at");
    Py_ssize_t b_finished = member_offset(burst_type, "finished_at");
    Py_ssize_t b_cpu_index = member_offset(burst_type, "cpu_index");
    Py_ssize_t b_wall = member_offset(burst_type, "wall_time");
    Py_ssize_t g_group_id = member_offset(group_type, "group_id");
    Py_ssize_t g_profile = member_offset(group_type, "profile");
    Py_ssize_t g_cpu_time = member_offset(group_type, "cpu_time");
    Py_ssize_t g_last_ccx = member_offset(group_type, "last_ccx");
    Py_ssize_t g_completed = member_offset(group_type, "bursts_completed");
    Py_ssize_t rq_endpoint = member_offset(request_type, "endpoint");
    Py_ssize_t rq_done = member_offset(request_type, "done");
    Py_ssize_t rq_started = member_offset(request_type, "started_at");
    Py_ssize_t rq_completed = member_offset(request_type, "completed_at");
    Py_ssize_t rq_deadline = member_offset(request_type, "deadline");
    Py_ssize_t in_deployment = member_offset(instance_type, "deployment");
    Py_ssize_t in_spec = member_offset(instance_type, "spec");
    Py_ssize_t in_queue = member_offset(instance_type, "queue");
    Py_ssize_t in_outstanding = member_offset(instance_type, "outstanding");
    Py_ssize_t in_completed = member_offset(instance_type, "completed");
    Py_ssize_t in_pause = member_offset(instance_type, "_pause");
    Py_ssize_t in_group = member_offset(instance_type, "group");
    Py_ssize_t in_demand_factor = member_offset(instance_type,
                                                "demand_factor");
    if (ev_sim < 0 || ev_callbacks < 0 || ev_value < 0 || ev_ok < 0
        || ev_defused < 0 || ev_qcounter < 0 || sim_now < 0
        || sim_push_ready < 0
        || b_demand < 0 || b_group < 0 || b_done < 0 || b_submitted < 0
        || b_started < 0 || b_finished < 0 || b_cpu_index < 0 || b_wall < 0
        || g_group_id < 0 || g_profile < 0
        || g_cpu_time < 0 || g_last_ccx < 0 || g_completed < 0
        || rq_endpoint < 0 || rq_done < 0 || rq_started < 0
        || rq_completed < 0 || rq_deadline < 0 || in_deployment < 0
        || in_spec < 0 || in_queue < 0 || in_outstanding < 0
        || in_completed < 0 || in_pause < 0 || in_group < 0
        || in_demand_factor < 0)
        return NULL;

    if (M.str_throw == NULL) {
        M.str_throw = PyUnicode_InternFromString("throw");
        M.str_succeed = PyUnicode_InternFromString("succeed");
        M.str_fail = PyUnicode_InternFromString("fail");
        M.str_cancel = PyUnicode_InternFromString("cancel");
        M.str_value = PyUnicode_InternFromString("value");
        M.str_get = PyUnicode_InternFromString("get");
        M.str_resolve = PyUnicode_InternFromString("resolve");
        M.str_respond = PyUnicode_InternFromString("respond");
        M.str_tracer = PyUnicode_InternFromString("tracer");
        M.str_record = PyUnicode_InternFromString("record");
        M.str_handler = PyUnicode_InternFromString("handler");
        M.str_sim = PyUnicode_InternFromString("sim");
        M.str_rpc = PyUnicode_InternFromString("rpc");
        M.str_epoch = PyUnicode_InternFromString("_epoch");
        M.str_mem_load = PyUnicode_InternFromString("_running_mem_load");
        M.str_total = PyUnicode_InternFromString("total");
        M.str_intensity = PyUnicode_InternFromString("mem_intensity");
        if (M.str_throw == NULL || M.str_succeed == NULL
            || M.str_fail == NULL || M.str_cancel == NULL
            || M.str_value == NULL || M.str_get == NULL
            || M.str_resolve == NULL || M.str_respond == NULL
            || M.str_tracer == NULL || M.str_record == NULL
            || M.str_handler == NULL || M.str_sim == NULL
            || M.str_rpc == NULL || M.str_epoch == NULL
            || M.str_mem_load == NULL || M.str_total == NULL
            || M.str_intensity == NULL)
            return NULL;
    }

    Py_INCREF(event_type);
    Py_XSETREF(M.event_type, event_type);
    Py_INCREF(pending);
    Py_XSETREF(M.pending, pending);
    Py_INCREF(sim_error);
    Py_XSETREF(M.sim_error, sim_error);
    Py_INCREF(sim_type);
    Py_XSETREF(M.sim_type, sim_type);
    Py_INCREF(burst_type);
    Py_XSETREF(M.burst_type, burst_type);
    Py_INCREF(group_type);
    Py_XSETREF(M.group_type, group_type);
    Py_INCREF(request_type);
    Py_XSETREF(M.request_type, request_type);
    Py_INCREF(instance_type);
    Py_XSETREF(M.instance_type, instance_type);
    Py_INCREF(context_type);
    Py_XSETREF(M.context_type, context_type);
    Py_INCREF(protocol_error);
    Py_XSETREF(M.protocol_error, protocol_error);
    Py_INCREF(sched_error);
    Py_XSETREF(M.sched_error, sched_error);
    Py_INCREF(memmodel_type);
    Py_XSETREF(M.memmodel_type, memmodel_type);

    M.ev_sim = ev_sim;
    M.ev_callbacks = ev_callbacks;
    M.ev_value = ev_value;
    M.ev_ok = ev_ok;
    M.ev_defused = ev_defused;
    M.ev_qcounter = ev_qcounter;
    M.sim_now = sim_now;
    M.sim_push_ready = sim_push_ready;
    M.b_demand = b_demand;
    M.b_group = b_group;
    M.b_done = b_done;
    M.b_submitted = b_submitted;
    M.b_started = b_started;
    M.b_finished = b_finished;
    M.b_cpu_index = b_cpu_index;
    M.b_wall = b_wall;
    M.g_group_id = g_group_id;
    M.g_profile = g_profile;
    M.g_cpu_time = g_cpu_time;
    M.g_last_ccx = g_last_ccx;
    M.g_completed = g_completed;
    M.rq_endpoint = rq_endpoint;
    M.rq_done = rq_done;
    M.rq_started = rq_started;
    M.rq_completed = rq_completed;
    M.rq_deadline = rq_deadline;
    M.in_deployment = in_deployment;
    M.in_spec = in_spec;
    M.in_queue = in_queue;
    M.in_outstanding = in_outstanding;
    M.in_completed = in_completed;
    M.in_pause = in_pause;
    M.in_group = in_group;
    M.in_demand_factor = in_demand_factor;
    M.configured = 1;
    Py_RETURN_NONE;
}

/* configure_plans(env): wire the endpoint-plan interpreter and the
 * plain fabric to the Python side.  `env` maps the names below to the
 * classes and helpers they mirror; call after configure(). */
static PyObject *
cmodel_configure_plans(PyObject *Py_UNUSED(module), PyObject *env)
{
    if (!M.configured || !PyDict_Check(env)) {
        PyErr_SetString(PyExc_TypeError,
                        "configure_plans(dict) needs configure() first");
        return NULL;
    }
    struct { PyObject **slot; const char *key; } objects[] = {
        {&M.allof_type, "AllOf"},
        {&M.store_type, "Store"},
        {&M.resource_type, "Resource"},
        {&M.deployment_type, "Deployment"},
        {&M.rpc_type, "RpcFabric"},
        {&M.registry_type, "ServiceRegistry"},
        {&M.balancer_type, "LoadBalancer"},
        {&M.standard_normal, "standard_normal"},
        {&M.standard_uniform, "standard_uniform"},
        {&M.batch_demand, "batch_demand"},
        {&M.query_demand, "query_demand"},
        {&M.request_ids, "request_ids"},
    };
    PyObject *stream_state_type = PyDict_GetItemString(env, "_StreamState");
    if (stream_state_type == NULL) {
        PyErr_SetString(PyExc_KeyError, "_StreamState");
        return NULL;
    }
    for (size_t i = 0; i < sizeof(objects) / sizeof(objects[0]); i++) {
        PyObject *value = PyDict_GetItemString(env, objects[i].key);
        if (value == NULL) {
            PyErr_SetString(PyExc_KeyError, objects[i].key);
            return NULL;
        }
        Py_INCREF(value);
        Py_XSETREF(*objects[i].slot, value);
    }
    struct { Py_ssize_t *slot; PyObject *type; const char *name; }
    members[] = {
        {&M.sim_schedule2, M.sim_type, "schedule2"},
        {&M.ss_buffer, stream_state_type, "buffer"},
        {&M.ss_cursor, stream_state_type, "cursor"},
        {&M.rq_id, M.request_type, "request_id"},
        {&M.rq_service, M.request_type, "service_name"},
        {&M.rq_payload, M.request_type, "payload"},
        {&M.rq_parent, M.request_type, "parent"},
        {&M.rq_created, M.request_type, "created_at"},
        {&M.rq_enqueued, M.request_type, "enqueued_at"},
        {&M.rq_instance_id, M.request_type, "instance_id"},
        {&M.rq_attempt, M.request_type, "attempt"},
        {&M.in_accepting, M.instance_type, "accepting"},
        {&M.in_breaker, M.instance_type, "breaker"},
        {&M.in_instance_id, M.instance_type, "instance_id"},
        {&M.in_shared, M.instance_type, "shared"},
        {&M.in_local_id, M.instance_type, "local_id"},
    };
    for (size_t i = 0; i < sizeof(members) / sizeof(members[0]); i++) {
        Py_ssize_t offset = member_offset(members[i].type, members[i].name);
        if (offset < 0)
            return NULL;
        *members[i].slot = offset;
    }
    if (M.s_next_standard == NULL) {
        struct { PyObject **slot; const char *text; } names[] = {
            {&M.s_next_standard, "next_standard"},
            {&M.s_state, "_state"},
            {&M.s_lognormal_source, "_lognormal_source"},
            {&M.s_lognormal_params, "_lognormal_params"},
            {&M.s_lognormal_params_for, "_lognormal_params_for"},
            {&M.s_lognormal, "lognormal"},
            {&M.s_uniform, "uniform"},
            {&M.s_resilience, "resilience"},
            {&M.s_registry, "registry"},
            {&M.s_balancers, "_balancers"},
            {&M.s_lookups, "lookups"},
            {&M.s_policy, "policy"},
            {&M.s_round_robin, "round_robin"},
            {&M.s_instances, "_instances"},
            {&M.s_next, "_next"},
            {&M.s_pick, "pick"},
            {&M.s_messages_sent, "messages_sent"},
            {&M.s_hop_latency, "hop_latency"},
            {&M.s_arrive, "_arrive"},
            {&M.s_enqueue, "enqueue"},
            {&M.s_getters, "_getters"},
            {&M.s_items, "_items"},
            {&M.s_capacity, "capacity"},
            {&M.s_popleft, "popleft"},
            {&M.s_append, "append"},
            {&M.s_dispatch, "dispatch"},
            {&M.s_deployment, "deployment"},
            {&M.s_rpc, "rpc"},
            {&M.s_streams, "streams"},
            {&M.s_scheduler, "scheduler"},
            {&M.s_core, "_core"},
            {&M.s_plan, "plan"},
            {&M.s_lock, "lock"},
            {&M.s_acquire, "acquire"},
            {&M.s_release, "release"},
            {&M.s_putters, "_putters"},
            {&M.s_in_use, "_in_use"},
            {&M.s_waiters, "_waiters"},
            {&M.s_plans, "_plans"},
        };
        for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
            *names[i].slot = PyUnicode_InternFromString(names[i].text);
            if (*names[i].slot == NULL)
                return NULL;
        }
        M.zero = PyLong_FromLong(0);
        M.one = PyLong_FromLong(1);
        M.kw_payload_parent = Py_BuildValue("(ss)", "payload", "parent");
        if (M.zero == NULL || M.one == NULL || M.kw_payload_parent == NULL)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyMethodDef hop_defs[] = {
    {"_arrive", (PyCFunction)(void (*)(void))cmodel_arrive, METH_FASTCALL,
     "_arrive(request, instance): RpcFabric._arrive for the plain fabric."},
    {"_hop_succeed", (PyCFunction)(void (*)(void))cmodel_hop_succeed,
     METH_FASTCALL, "_hop_succeed(done, response): done.succeed(response)."},
};

static PyMethodDef cmodel_functions[] = {
    {"configure", cmodel_configure, METH_VARARGS,
     "configure(Event, _PENDING, SimulationError, Simulator, CpuBurst, "
     "TaskGroup, Request, ServiceInstance, ServiceContext, "
     "_worker_protocol_error)\n"
     "Wire the model layer to the Python-side simulation classes."},
    {"configure_plans", cmodel_configure_plans, METH_O,
     "configure_plans(env)\n"
     "Wire the endpoint-plan interpreter to the Python side."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef cmodel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._cmodel",
    .m_doc = "Compiled model layer: scheduler core + worker machines.",
    .m_size = -1,
    .m_methods = cmodel_functions,
};

PyMODINIT_FUNC
PyInit__cmodel(void)
{
    if (PyType_Ready(&SchedCore_Type) < 0)
        return NULL;
    if (PyType_Ready(&CCompleteCB_Type) < 0)
        return NULL;
    if (PyType_Ready(&CWorker_Type) < 0)
        return NULL;
    if (PyType_Ready(&CPlan_Type) < 0 || PyType_Ready(&Gather_Type) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&cmodel_module);
    if (module == NULL)
        return NULL;
    if (M.arrive_fn == NULL) {
        M.arrive_fn = PyCFunction_New(&hop_defs[0], NULL);
        M.hop_succeed_fn = PyCFunction_New(&hop_defs[1], NULL);
        if (M.arrive_fn == NULL || M.hop_succeed_fn == NULL) {
            Py_DECREF(module);
            return NULL;
        }
    }
    Py_INCREF(&SchedCore_Type);
    if (PyModule_AddObject(module, "SchedCore",
                           (PyObject *)&SchedCore_Type) < 0) {
        Py_DECREF(&SchedCore_Type);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&CWorker_Type);
    if (PyModule_AddObject(module, "CWorker",
                           (PyObject *)&CWorker_Type) < 0) {
        Py_DECREF(&CWorker_Type);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
