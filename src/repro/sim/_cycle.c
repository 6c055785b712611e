/*
 * Native cycle loop of the Multiscalar machine (see repro/sim/native.py).
 *
 * One call of ms_run() simulates one hook-free machine run with the
 * per-cycle semantics of MultiscalarMachine._tick in machine.py, the
 * ProcessingUnit methods in pu.py, the caches in memory.py and the
 * task predictors in repro/predict: phases A-D every cycle, in the
 * same PU order, touching the caches, the sync table and the
 * predictors in the same order, so every counter it returns equals
 * the Python engines' bit for bit.  Issue runs every cycle (no memo)
 * and no cycle is skipped.
 *
 * Plain C99 with no Python headers: the loader opens the shared
 * object with ctypes, and the input and output structs below are
 * mirrored field for field by ctypes.Structure classes there.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NEVER ((int64_t)1 << 60)

/* Dense stall-reason slots: the order of repro.sim.breakdown.REASONS. */
enum {
    R_USEFUL, R_TASK_START, R_TASK_END, R_INTRA_DEP, R_INTER_COMM,
    R_MEMORY, R_SYNC_WAIT, R_FETCH, R_LOAD_IMBALANCE, R_IDLE, N_REASONS
};

/* Successor kinds of a dynamic task (target None / BLOCK+HALT / ...). */
enum { K_NONE = 0, K_BLOCK = 1, K_CALL = 2, K_RETURN = 3 };

/* Forward policies (repro.sim.config.ForwardPolicy). */
enum { FP_SCHEDULE = 0, FP_EAGER = 1, FP_LAZY = 2 };

/* Task predictor kinds (repro.predict.taskpred). */
enum { P_PATH = 0, P_GSHARE = 1, P_HYBRID = 2 };

/* Return codes of ms_run. */
enum { MS_OK = 0, MS_MAX_CYCLES = 1, MS_LIVELOCK = 2, MS_NOMEM = 3 };

/* Predictor geometry: the defaults make_task_predictor() builds. */
#define PRED_BITS 16
#define PRED_SIZE (1 << PRED_BITS)
#define PRED_MASK (PRED_SIZE - 1)
#define MAX_TARGETS 4
#define RAS_DEPTH 64

typedef struct {
    /* sizes */
    int64_t n, n_tasks, n_pus;
    /* per trace index: single-byte flags and classes */
    const uint8_t *opcls, *is_load, *is_store, *is_mem, *is_cond_branch;
    const uint8_t *block_start, *has_write, *has_remote_consumer;
    const uint8_t *gshare_mispred, *issue_simple, *release_now;
    const uint8_t *prod_count;          /* register producers per index */
    /* per trace index: wide fields */
    const int64_t *pc, *addr;
    const int32_t *latency, *mem_producer;
    const int32_t *prod_flat;           /* the producers, concatenated */
    /* per dynamic task */
    const int32_t *task_start, *task_end, *target_kind, *target_index;
    const int32_t *next_root, *cont_root;
    const int64_t *root_pc;
    /* per PU: widths, FU budget and extra latency per opclass */
    const int32_t *pu_issue_width, *pu_fetch_width;
    const int32_t *pu_fu, *pu_lat_extra; /* n_pus x 4 each */
    /* machine configuration */
    int64_t out_of_order, rob_size, issue_list_size;
    int64_t task_start_overhead, task_end_overhead;
    int64_t branch_mispredict_penalty, task_mispredict_redirect;
    int64_t ring_bandwidth, ring_hop_latency, forward_policy, release_lag;
    int64_t arb_latency, arb_entries_per_pu, stlf_latency, sync_table_size;
    int64_t l1d_sets, l1d_assoc, l1d_hit, l1d_words_per_line;
    int64_t l1i_sets, l1i_assoc, l1i_hit, l1i_words_per_line;
    int64_t l2_sets, l2_assoc, l2_hit, memory_latency;
    int64_t max_cycles, predictor;
    /* outputs sized by the caller */
    int32_t *pu_of_seq;                 /* n_tasks */
    int64_t *pu_useful, *pu_occupied;   /* n_pus */
} ms_in;

typedef struct {
    int64_t cycles;
    int64_t retire_seq, next_seq, pending_mispredict;
    int64_t task_predictions, task_mispredictions;
    int64_t control_squashes, memory_squashes;
    int64_t reasons[N_REASONS];
    int64_t span_accum, control_penalty, memory_penalty;
    int64_t l1d_hits, l1d_misses, l1i_hits, l1i_misses, l2_hits, l2_misses;
    /* squash depths in squash order; release with ms_free() */
    int64_t *squash_depths;
    int64_t n_squash_depths;
} ms_out;

/* ------------------------------------------------------------ helpers */

static int64_t floor_div(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

static int64_t floor_mod(int64_t a, int64_t b)
{
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0)))
        r += b;
    return r;
}

/* ------------------------------------------------------------- caches */

/* Set-associative LRU cache: each set's ways in LRU order, oldest
 * first, exactly like the Python list per set (memory.Cache). */
typedef struct {
    int64_t n_sets, assoc;
    int64_t *ways;
    int32_t *count;
    int64_t hits, misses;
} cache_t;

static int cache_init(cache_t *c, int64_t n_sets, int64_t assoc)
{
    c->n_sets = n_sets;
    c->assoc = assoc;
    c->hits = c->misses = 0;
    c->ways = calloc((size_t)(n_sets * assoc), sizeof(int64_t));
    c->count = calloc((size_t)n_sets, sizeof(int32_t));
    return c->ways != NULL && c->count != NULL;
}

static void cache_free(cache_t *c)
{
    free(c->ways);
    free(c->count);
}

static int cache_access(cache_t *c, int64_t line)
{
    int64_t set = floor_mod(line, c->n_sets);
    int64_t *w = c->ways + set * c->assoc;
    int32_t n = c->count[set];
    for (int32_t i = 0; i < n; i++) {
        if (w[i] == line) {
            if (i != n - 1) {
                memmove(w + i, w + i + 1, (size_t)(n - 1 - i) * sizeof(int64_t));
                w[n - 1] = line;
            }
            c->hits++;
            return 1;
        }
    }
    c->misses++;
    if (n < c->assoc) {
        w[n] = line;
        c->count[set] = n + 1;
    } else {
        memmove(w, w + 1, (size_t)(c->assoc - 1) * sizeof(int64_t));
        w[c->assoc - 1] = line;
    }
    return 0;
}

/* ---------------------------------------------------------------- PUs */

typedef struct {
    int32_t index;
    int64_t seq;                  /* -1: no real task */
    int has_task, wrong, done, retiring;
    int64_t assign_cycle;
    int64_t start, end;           /* trace span of the task */
    int64_t fetch_ptr, fetch_resume, pending_branch;
    int64_t rob_count, remaining, arb_used;
    /* unissued window in program order: (trace idx, fetch cycle) */
    int32_t *win_idx;
    int64_t *win_fc;
    int64_t n_win;
    /* fetched memory ops; [mem_lo, mem_hi) are unissued (ring) */
    int32_t *memq;
    int64_t mem_lo, mem_hi;
    /* in-flight min-heap keyed by (complete cycle, idx) */
    int64_t *heap_cyc;
    int32_t *heap_idx;
    int64_t heap_n;
    int64_t counts[N_REASONS];
    int64_t issue_wake;
    /* per-PU profile */
    int64_t issue_width, fetch_width;
    int64_t fu[4], lat_extra[4];
    /* ring egress schedule: direct-mapped (cycle -> count) table;
     * never reset on squash, like the Python per-PU dict */
    int64_t *eg_tag;
    int32_t *eg_cnt;
    int64_t eg_cap;
} pu_t;

typedef struct {
    int64_t load, seq, gen;
    int64_t next;
} viol_t;

typedef struct {
    const ms_in *in;
    int64_t cycle;
    int64_t n_pus;
    int32_t *task_seq;            /* dynamic task of each trace index */
    int32_t *prod_off;            /* producers of i: prod_flat[off[i]..off[i+1]) */
    pu_t *pus;
    int64_t *complete, *forward, *generation;
    int32_t *inflight_pu;         /* seq -> PU index, -1 when not in flight */
    /* pending_viol: per store, a FIFO list in the entry pool */
    int64_t *viol_head, *viol_tail;
    viol_t *viol;
    int64_t viol_n, viol_cap;
    /* sync table: (store pc, load pc) pairs, LRU order oldest first */
    int64_t *sync_st, *sync_ld;
    int64_t sync_n, sync_cap;
    cache_t l1d, l1i, l2;
    /* task predictors + return address stack */
    uint8_t *p_cnt, *p_tgt, *g_cnt, *g_tgt, *chooser;
    int64_t p_hist, g_hist;
    int64_t ras[RAS_DEPTH];
    int64_t ras_n;
    /* sequencer and retire state */
    int64_t retire_seq, next_seq, next_assign_pu, resume_cycle;
    int64_t pending_mispredict;
    int64_t retiring_pu, retire_finish;
    int64_t active_span;
    /* squash depths */
    int64_t *depths;
    int64_t n_depths, depths_cap;
    /* stores completed by one drain */
    int64_t *stores;
    int nomem;
    ms_out *out;
} machine_t;

static void pu_reset(pu_t *pu)
{
    pu->seq = -1;
    pu->has_task = pu->wrong = pu->done = pu->retiring = 0;
    pu->assign_cycle = -1;
    pu->start = pu->end = 0;
    pu->fetch_ptr = pu->fetch_resume = 0;
    pu->pending_branch = -1;
    pu->rob_count = pu->remaining = pu->arb_used = 0;
    pu->n_win = 0;
    pu->mem_lo = pu->mem_hi = 0;
    pu->heap_n = 0;
    memset(pu->counts, 0, sizeof pu->counts);
    pu->issue_wake = NEVER;
}

static int pu_idle(const pu_t *pu)
{
    return !pu->has_task && !pu->wrong;
}

/* ------------------------------------------------------------- heap */

static int heap_less(const pu_t *pu, int64_t a, int64_t b)
{
    if (pu->heap_cyc[a] != pu->heap_cyc[b])
        return pu->heap_cyc[a] < pu->heap_cyc[b];
    return pu->heap_idx[a] < pu->heap_idx[b];
}

static void heap_swap(pu_t *pu, int64_t a, int64_t b)
{
    int64_t c = pu->heap_cyc[a];
    int32_t i = pu->heap_idx[a];
    pu->heap_cyc[a] = pu->heap_cyc[b];
    pu->heap_idx[a] = pu->heap_idx[b];
    pu->heap_cyc[b] = c;
    pu->heap_idx[b] = i;
}

static void heap_push(pu_t *pu, int64_t cyc, int32_t idx)
{
    int64_t k = pu->heap_n++;
    pu->heap_cyc[k] = cyc;
    pu->heap_idx[k] = idx;
    while (k > 0) {
        int64_t parent = (k - 1) / 2;
        if (!heap_less(pu, k, parent))
            break;
        heap_swap(pu, k, parent);
        k = parent;
    }
}

static int32_t heap_pop(pu_t *pu)
{
    int32_t top = pu->heap_idx[0];
    int64_t n = --pu->heap_n;
    if (n > 0) {
        pu->heap_cyc[0] = pu->heap_cyc[n];
        pu->heap_idx[0] = pu->heap_idx[n];
        int64_t k = 0;
        for (;;) {
            int64_t l = 2 * k + 1, r = l + 1, m = k;
            if (l < n && heap_less(pu, l, m))
                m = l;
            if (r < n && heap_less(pu, r, m))
                m = r;
            if (m == k)
                break;
            heap_swap(pu, k, m);
            k = m;
        }
    }
    return top;
}

/* ----------------------------------------------------------- services */

static int64_t data_access(machine_t *m, int64_t word_addr)
{
    const ms_in *in = m->in;
    int64_t line = floor_div(word_addr, in->l1d_words_per_line);
    if (cache_access(&m->l1d, line))
        return in->l1d_hit;
    if (cache_access(&m->l2, line))
        return in->l1d_hit + in->l2_hit;
    return in->l1d_hit + in->l2_hit + in->memory_latency;
}

static int64_t inst_access(machine_t *m, int64_t pc)
{
    const ms_in *in = m->in;
    int64_t line = floor_div(pc, in->l1i_words_per_line);
    if (cache_access(&m->l1i, line))
        return in->l1i_hit;
    if (cache_access(&m->l2, line))
        return in->l1i_hit + in->l2_hit;
    return in->l1i_hit + in->l2_hit + in->memory_latency;
}

static int sync_find(machine_t *m, int64_t st, int64_t ld)
{
    for (int64_t i = m->sync_n - 1; i >= 0; i--)
        if (m->sync_st[i] == st && m->sync_ld[i] == ld)
            return (int)i;
    return -1;
}

static void sync_move_to_end(machine_t *m, int64_t i)
{
    int64_t st = m->sync_st[i], ld = m->sync_ld[i];
    int64_t tail = m->sync_n - 1 - i;
    memmove(m->sync_st + i, m->sync_st + i + 1, (size_t)tail * sizeof(int64_t));
    memmove(m->sync_ld + i, m->sync_ld + i + 1, (size_t)tail * sizeof(int64_t));
    m->sync_st[m->sync_n - 1] = st;
    m->sync_ld[m->sync_n - 1] = ld;
}

static int is_synchronised(machine_t *m, int64_t store_idx, int64_t load_idx)
{
    int i = sync_find(m, m->in->pc[store_idx], m->in->pc[load_idx]);
    if (i < 0)
        return 0;
    sync_move_to_end(m, i);
    return 1;
}

static void learn_sync(machine_t *m, int64_t store_idx, int64_t load_idx)
{
    int64_t size = m->in->sync_table_size;
    if (size <= 0)
        return;
    int64_t st = m->in->pc[store_idx], ld = m->in->pc[load_idx];
    int i = sync_find(m, st, ld);
    if (i >= 0) {
        sync_move_to_end(m, i);
        return;
    }
    if (m->sync_n == m->sync_cap) {
        int64_t cap = m->sync_cap ? 2 * m->sync_cap : 16;
        int64_t *a = realloc(m->sync_st, (size_t)cap * sizeof(int64_t));
        if (a == NULL) { m->nomem = 1; return; }
        m->sync_st = a;
        int64_t *b = realloc(m->sync_ld, (size_t)cap * sizeof(int64_t));
        if (b == NULL) { m->nomem = 1; return; }
        m->sync_ld = b;
        m->sync_cap = cap;
    }
    m->sync_st[m->sync_n] = st;
    m->sync_ld[m->sync_n] = ld;
    m->sync_n++;
    if (m->sync_n > size) {
        int64_t drop = m->sync_n - size;
        memmove(m->sync_st, m->sync_st + drop, (size_t)size * sizeof(int64_t));
        memmove(m->sync_ld, m->sync_ld + drop, (size_t)size * sizeof(int64_t));
        m->sync_n = size;
    }
}

static void register_speculative_load(machine_t *m, int64_t store_idx,
                                      int64_t load_idx, int64_t seq)
{
    if (m->viol_n == m->viol_cap) {
        int64_t cap = m->viol_cap ? 2 * m->viol_cap : 256;
        viol_t *v = realloc(m->viol, (size_t)cap * sizeof(viol_t));
        if (v == NULL) { m->nomem = 1; return; }
        m->viol = v;
        m->viol_cap = cap;
    }
    int64_t e = m->viol_n++;
    m->viol[e].load = load_idx;
    m->viol[e].seq = seq;
    m->viol[e].gen = m->generation[seq];
    m->viol[e].next = -1;
    if (m->viol_head[store_idx] < 0)
        m->viol_head[store_idx] = e;
    else
        m->viol[m->viol_tail[store_idx]].next = e;
    m->viol_tail[store_idx] = e;
}

/* Ring egress slot at or after ``earliest`` (pu.machine_ring_slot).
 * Every request is at or after the current cycle, so a table entry
 * tagged with an earlier cycle is dead and may be reused. */
static int64_t eg_get(const pu_t *pu, int64_t c)
{
    int64_t s = c & (pu->eg_cap - 1);
    return pu->eg_tag[s] == c ? pu->eg_cnt[s] : 0;
}

static int eg_grow(machine_t *m, pu_t *pu)
{
    int64_t cap = pu->eg_cap * 2;
    int64_t *tag = malloc((size_t)cap * sizeof(int64_t));
    int32_t *cnt = malloc((size_t)cap * sizeof(int32_t));
    if (tag == NULL || cnt == NULL) {
        free(tag);
        free(cnt);
        m->nomem = 1;
        return 0;
    }
    for (int64_t i = 0; i < cap; i++)
        tag[i] = -1;
    for (int64_t i = 0; i < pu->eg_cap; i++) {
        int64_t t = pu->eg_tag[i];
        if (t >= m->cycle) {
            tag[t & (cap - 1)] = t;
            cnt[t & (cap - 1)] = pu->eg_cnt[i];
        }
    }
    free(pu->eg_tag);
    free(pu->eg_cnt);
    pu->eg_tag = tag;
    pu->eg_cnt = cnt;
    pu->eg_cap = cap;
    return 1;
}

static int64_t ring_slot(machine_t *m, pu_t *pu, int64_t earliest)
{
    int64_t bandwidth = m->in->ring_bandwidth;
    int64_t c = earliest;
    while (eg_get(pu, c) >= bandwidth)
        c++;
    for (;;) {
        int64_t s = c & (pu->eg_cap - 1);
        if (pu->eg_tag[s] == c) {
            pu->eg_cnt[s]++;
            return c;
        }
        if (pu->eg_tag[s] < m->cycle) {
            pu->eg_tag[s] = c;
            pu->eg_cnt[s] = 1;
            return c;
        }
        /* two live cycles share the slot: at least double the table
         * (hash collisions of live cycles resolve once cap > span) */
        if (!eg_grow(m, pu))
            return c;
    }
}

static void schedule_forward(machine_t *m, pu_t *pu, int64_t idx,
                             int64_t earliest)
{
    if (m->forward[idx] >= 0)
        return;
    if (m->in->has_remote_consumer[idx])
        m->forward[idx] = ring_slot(m, pu, earliest);
    else
        m->forward[idx] = earliest;
}

static void forward_all_writes(machine_t *m, pu_t *pu, int64_t cycle)
{
    const uint8_t *has_write = m->in->has_write;
    for (int64_t i = pu->start; i < pu->end; i++)
        if (has_write[i] && m->forward[i] < 0)
            schedule_forward(m, pu, i, cycle);
}

/* ------------------------------------------------------------- squash */

static void squash_wrong(machine_t *m, int64_t cycle)
{
    for (int64_t i = 0; i < m->n_pus; i++) {
        pu_t *pu = &m->pus[i];
        if (pu->wrong) {
            int64_t penalty = cycle - pu->assign_cycle;
            m->out->control_penalty += penalty > 0 ? penalty : 0;
            pu_reset(pu);
        }
    }
}

static void squash_from(machine_t *m, int64_t first_seq, int64_t cycle,
                        int memory)
{
    const ms_in *in = m->in;
    int64_t lo = first_seq > 0 ? first_seq : 0;
    int64_t victims = 0;
    for (int64_t s = lo; s < m->next_seq; s++)
        if (m->inflight_pu[s] >= 0)
            victims++;
    if (victims) {
        if (m->n_depths == m->depths_cap) {
            int64_t cap = m->depths_cap ? 2 * m->depths_cap : 64;
            int64_t *d = realloc(m->depths, (size_t)cap * sizeof(int64_t));
            if (d == NULL) { m->nomem = 1; return; }
            m->depths = d;
            m->depths_cap = cap;
        }
        m->depths[m->n_depths++] = victims;
    }
    if (m->retiring_pu >= 0 && m->pus[m->retiring_pu].seq >= first_seq)
        m->retiring_pu = -1;
    for (int64_t s = lo; s < m->next_seq; s++) {
        int32_t p = m->inflight_pu[s];
        if (p < 0)
            continue;
        m->inflight_pu[s] = -1;
        pu_t *pu = &m->pus[p];
        int64_t penalty = cycle - pu->assign_cycle;
        if (penalty < 0)
            penalty = 0;
        if (memory)
            m->out->memory_penalty += penalty;
        else
            m->out->control_penalty += penalty;
        int64_t start = in->task_start[s], end = in->task_end[s];
        m->active_span -= end - start;
        for (int64_t i = start; i < end; i++) {
            m->complete[i] = -1;
            m->forward[i] = -1;
        }
        m->generation[s]++;
        pu_reset(pu);
    }
    squash_wrong(m, cycle);
    if (m->pending_mispredict >= 0 && m->pending_mispredict >= first_seq)
        m->pending_mispredict = -1;
    if (first_seq < m->next_seq)
        m->next_seq = first_seq;
    if (first_seq > 0)
        m->next_assign_pu = (in->pu_of_seq[first_seq - 1] + 1) % m->n_pus;
    else
        m->next_assign_pu = 0;
    if (m->resume_cycle < cycle + 1)
        m->resume_cycle = cycle + 1;
}

static void check_store_violation(machine_t *m, int64_t store_idx,
                                  int64_t cycle)
{
    int64_t e = m->viol_head[store_idx];
    if (e < 0)
        return;
    m->viol_head[store_idx] = -1;
    int64_t victim = -1, victim_load = -1;
    for (; e >= 0; e = m->viol[e].next) {
        int64_t seq = m->viol[e].seq;
        if (m->generation[seq] != m->viol[e].gen)
            continue;
        if (seq < m->retire_seq || m->inflight_pu[seq] < 0)
            continue;
        if (victim < 0 || seq < victim) {
            victim = seq;
            victim_load = m->viol[e].load;
        }
    }
    if (victim < 0)
        return;
    m->out->memory_squashes++;
    learn_sync(m, store_idx, victim_load);
    squash_from(m, victim, cycle, 1);
}

/* ------------------------------------------------------------ predict */

static int table_update(uint8_t *cnt, uint8_t *tgt, int64_t idx,
                        int64_t actual)
{
    int representable = actual < MAX_TARGETS;
    int correct = representable && tgt[idx] == actual;
    if (correct) {
        if (cnt[idx] < 3)
            cnt[idx]++;
    } else if (cnt[idx] > 0) {
        cnt[idx]--;
    } else if (representable) {
        tgt[idx] = (uint8_t)actual;
    }
    return !correct;
}

static int path_update(machine_t *m, int64_t pc, int64_t actual)
{
    return table_update(m->p_cnt, m->p_tgt, (pc ^ m->p_hist) & PRED_MASK,
                        actual);
}

static int gshare_update(machine_t *m, int64_t pc, int64_t actual)
{
    int mis = table_update(m->g_cnt, m->g_tgt, (pc ^ m->g_hist) & PRED_MASK,
                           actual);
    m->g_hist = ((m->g_hist << 2) | (actual & (MAX_TARGETS - 1)))
                & PRED_MASK;
    return mis;
}

static int predictor_update(machine_t *m, int64_t pc, int64_t actual)
{
    switch (m->in->predictor) {
    case P_GSHARE:
        return gshare_update(m, pc, actual);
    case P_HYBRID: {
        int64_t path_pred = m->p_tgt[(pc ^ m->p_hist) & PRED_MASK];
        int64_t gshare_pred = m->g_tgt[(pc ^ m->g_hist) & PRED_MASK];
        int64_t ci = pc & PRED_MASK;
        int use_gshare = m->chooser[ci] >= 2;
        int64_t chosen = use_gshare ? gshare_pred : path_pred;
        int representable = actual < MAX_TARGETS;
        int correct = representable && chosen == actual;
        int path_right = representable && path_pred == actual;
        int gshare_right = representable && gshare_pred == actual;
        if (path_right != gshare_right) {
            if (gshare_right) {
                if (m->chooser[ci] < 3)
                    m->chooser[ci]++;
            } else if (m->chooser[ci] > 0) {
                m->chooser[ci]--;
            }
        }
        path_update(m, pc, actual);
        gshare_update(m, pc, actual);
        return !correct;
    }
    default:
        return path_update(m, pc, actual);
    }
}

static void predictor_push_history(machine_t *m, int64_t pc)
{
    if (m->in->predictor != P_GSHARE)
        m->p_hist = ((m->p_hist << 3) ^ pc) & PRED_MASK;
}

static void predict_successor(machine_t *m, int64_t seq)
{
    const ms_in *in = m->in;
    int32_t kind = in->target_kind[seq];
    if (kind == K_NONE)
        return;
    int64_t pc = in->root_pc[seq];
    int correct = !predictor_update(m, pc, in->target_index[seq]);
    if (correct && kind == K_RETURN) {
        int64_t top = m->ras_n ? m->ras[m->ras_n - 1] : -1;
        correct = top == in->next_root[seq];
    }
    if (kind == K_CALL) {
        if (m->ras_n >= RAS_DEPTH) {
            memmove(m->ras, m->ras + 1, (RAS_DEPTH - 1) * sizeof(int64_t));
            m->ras_n--;
        }
        m->ras[m->ras_n++] = in->cont_root[seq];
    } else if (kind == K_RETURN) {
        if (m->ras_n)
            m->ras_n--;
    }
    predictor_push_history(m, pc);
    m->out->task_predictions++;
    if (!correct) {
        m->out->task_mispredictions++;
        m->pending_mispredict = seq;
        m->out->control_squashes++;
    }
}

/* -------------------------------------------------------- PU actions */

/* Pop completions due at ``cycle``; returns 1 when anything popped.
 * Completed stores land in m->stores[0 .. *n_stores). */
static int drain_completions(machine_t *m, pu_t *pu, int64_t cycle,
                             int64_t *n_stores)
{
    const ms_in *in = m->in;
    int popped = 0;
    *n_stores = 0;
    if (pu->heap_n && pu->heap_cyc[0] <= cycle) {
        popped = 1;
        while (pu->heap_n && pu->heap_cyc[0] <= cycle) {
            int32_t idx = heap_pop(pu);
            m->complete[idx] = cycle;
            pu->remaining--;
            pu->rob_count--;
            if (in->has_write[idx]) {
                if (in->release_now[idx])
                    schedule_forward(m, pu, idx, cycle);
                else if (in->forward_policy == FP_SCHEDULE)
                    schedule_forward(m, pu, idx, cycle + in->release_lag);
            }
            if (in->is_store[idx])
                m->stores[(*n_stores)++] = idx;
            if (idx == pu->pending_branch) {
                pu->pending_branch = -1;
                pu->fetch_resume = cycle + in->branch_mispredict_penalty;
            }
        }
    }
    if (!pu->done && pu->has_task && pu->remaining == 0
        && pu->fetch_ptr >= pu->end) {
        pu->done = 1;
        if (in->forward_policy == FP_LAZY)
            forward_all_writes(m, pu, cycle);
    }
    return popped;
}

static int fetch(machine_t *m, pu_t *pu, int64_t cycle)
{
    const ms_in *in = m->in;
    if (!pu->has_task || pu->done)
        return 0;
    if (cycle < pu->fetch_resume || pu->pending_branch >= 0)
        return 0;
    int64_t end = pu->end, rob_size = in->rob_size;
    int64_t fetched = 0;
    while (fetched < pu->fetch_width && pu->fetch_ptr < end
           && pu->rob_count < rob_size) {
        int64_t idx = pu->fetch_ptr;
        if (in->block_start[idx]) {
            int64_t latency = inst_access(m, in->pc[idx]);
            if (latency > in->l1i_hit)
                pu->fetch_resume = cycle + (latency - in->l1i_hit);
        }
        pu->rob_count++;
        pu->win_idx[pu->n_win] = (int32_t)idx;
        pu->win_fc[pu->n_win] = cycle;
        pu->n_win++;
        if (in->is_mem[idx])
            pu->memq[pu->mem_hi++ % rob_size] = (int32_t)idx;
        pu->fetch_ptr = idx + 1;
        fetched++;
        if (in->is_cond_branch[idx] && in->gshare_mispred[idx]) {
            pu->pending_branch = idx;
            pu->fetch_resume = NEVER;
            break;
        }
        if (pu->fetch_resume > cycle)
            break;
    }
    if (!pu->done && pu->remaining == 0 && pu->fetch_ptr >= end
        && pu->rob_count == 0) {
        pu->done = 1;
        if (in->forward_policy == FP_LAZY)
            forward_all_writes(m, pu, cycle);
    }
    return fetched > 0;
}

/* Issue ready instructions (ProcessingUnit.issue without the memo).
 * Returns the number issued; *reason gets the stall slot of the
 * oldest blocked candidate, or -1. */
static int64_t issue(machine_t *m, pu_t *pu, int64_t cycle, int *reason)
{
    const ms_in *in = m->in;
    pu->issue_wake = NEVER;
    *reason = -1;
    if (!pu->has_task || pu->done || pu->n_win == 0)
        return 0;
    int64_t budget[4] = {pu->fu[0], pu->fu[1], pu->fu[2], pu->fu[3]};
    int first_block = -1;
    int64_t limit = pu->n_win;
    int ooo = (int)in->out_of_order;
    if (ooo && limit > in->issue_list_size)
        limit = in->issue_list_size;
    int64_t seq = pu->seq;
    int at_head = seq == m->retire_seq;
    int64_t rob_size = in->rob_size;
    int64_t mem_head = pu->mem_lo < pu->mem_hi
        ? pu->memq[pu->mem_lo % rob_size] : -1;
    int64_t issued = 0, issued_mem = 0;
    int64_t issue_wake = NEVER;
    int64_t n_pus = m->n_pus, my_pu = pu->index;
    int64_t arb_capacity = in->arb_entries_per_pu;
    /* issued positions are marked by setting win_fc to -1 */
    int64_t pos;
    for (pos = 0; pos < limit; pos++) {
        if (issued >= pu->issue_width)
            break;
        int64_t idx = pu->win_idx[pos];
        if (pu->win_fc[pos] >= cycle) {
            if (first_block < 0)
                first_block = R_FETCH;
            break;
        }
        int cls;
        if (in->issue_simple[idx]) {
            cls = in->opcls[idx];
            if (budget[cls] <= 0) {
                if (first_block < 0)
                    first_block = R_USEFUL;
                if (!ooo)
                    break;
                continue;
            }
            budget[cls]--;
            heap_push(pu, cycle + in->latency[idx] + pu->lat_extra[cls],
                      (int32_t)idx);
            pu->win_fc[pos] = -1;
            issued++;
            continue;
        }
        int why = -1;
        for (int32_t k = m->prod_off[idx]; k < m->prod_off[idx + 1]; k++) {
            int64_t p = in->prod_flat[k];
            int64_t pseq = m->task_seq[p];
            if (pseq == seq) {
                int64_t done = m->complete[p];
                if (done < 0 || done > cycle) {
                    why = R_INTRA_DEP;
                    break;
                }
            } else {
                int64_t fwd = m->forward[p];
                if (fwd < 0) {
                    why = R_INTER_COMM;
                    break;
                }
                int64_t prod_pu = in->pu_of_seq[pseq];
                int64_t hops = prod_pu >= 0
                    ? floor_mod(my_pu - prod_pu, n_pus) : 1;
                if (hops > 1)
                    fwd += (hops - 1) * in->ring_hop_latency;
                if (fwd > cycle) {
                    if (fwd < issue_wake)
                        issue_wake = fwd;
                    why = R_INTER_COMM;
                    break;
                }
            }
        }
        if (why < 0 && in->is_mem[idx]) {
            if (mem_head != idx)
                why = R_MEMORY;
            if (why < 0) {
                if (arb_capacity > 0 && pu->arb_used >= arb_capacity
                    && !at_head)
                    why = R_MEMORY;
                if (why < 0 && in->is_load[idx]) {
                    int64_t p = in->mem_producer[idx];
                    if (p >= 0) {
                        int64_t pseq = m->task_seq[p];
                        int64_t done = m->complete[p];
                        if (pseq == seq) {
                            if (done < 0 || done > cycle)
                                why = R_MEMORY;
                        } else if (done < 0 || done > cycle) {
                            if (is_synchronised(m, p, idx) && !at_head)
                                why = R_SYNC_WAIT;
                        }
                    }
                }
            }
        }
        if (why >= 0) {
            if (first_block < 0)
                first_block = why;
            if (!ooo)
                break;
            continue;
        }
        cls = in->opcls[idx];
        if (budget[cls] <= 0) {
            if (first_block < 0)
                first_block = R_USEFUL;
            if (!ooo)
                break;
            continue;
        }
        budget[cls]--;
        int64_t latency;
        if (in->is_load[idx]) {
            int64_t p = in->mem_producer[idx];
            if (p >= 0 && m->task_seq[p] == seq) {
                latency = in->stlf_latency;
            } else if (p >= 0 && m->complete[p] >= 0) {
                latency = in->arb_latency;
            } else {
                if (p >= 0)
                    register_speculative_load(m, p, idx, seq);
                latency = data_access(m, in->addr[idx]);
                if (latency < in->arb_latency)
                    latency = in->arb_latency;
            }
        } else {
            latency = in->latency[idx];
        }
        heap_push(pu, cycle + latency + pu->lat_extra[cls], (int32_t)idx);
        pu->win_fc[pos] = -1;
        issued++;
        if (in->is_mem[idx]) {
            issued_mem++;
            if (!at_head)
                pu->arb_used++;
        }
    }
    pu->issue_wake = issue_wake;
    if (issued) {
        pu->mem_lo += issued_mem;
        int64_t w = 0;
        for (int64_t r = 0; r < pu->n_win; r++) {
            if (r < pos && pu->win_fc[r] < 0)
                continue;
            pu->win_idx[w] = pu->win_idx[r];
            pu->win_fc[w] = pu->win_fc[r];
            w++;
        }
        pu->n_win = w;
        return issued;
    }
    *reason = first_block;
    return 0;
}

/* Earliest cycle >= t this PU could act (ProcessingUnit.next_event_cycle),
 * consulted only after a quiescent cycle, for the livelock guard. */
static int64_t pu_next_event(const machine_t *m, const pu_t *pu, int64_t t)
{
    if (pu->done)
        return NEVER;
    int64_t wake = pu->heap_n ? pu->heap_cyc[0] : NEVER;
    if (pu->pending_branch < 0 && pu->fetch_ptr < pu->end
        && pu->rob_count < m->in->rob_size) {
        int64_t resume = pu->fetch_resume < t ? t : pu->fetch_resume;
        if (resume < wake)
            wake = resume;
    }
    if (pu->issue_wake < wake)
        wake = pu->issue_wake;
    int64_t boundary = pu->assign_cycle + m->in->task_start_overhead;
    if (t < boundary && boundary < wake)
        wake = boundary;
    return wake;
}

/* -------------------------------------------------------------- phases */

static void pu_assign(machine_t *m, pu_t *pu, int64_t seq, int64_t cycle)
{
    const ms_in *in = m->in;
    pu_reset(pu);
    pu->has_task = 1;
    pu->seq = seq;
    pu->assign_cycle = cycle;
    pu->start = in->task_start[seq];
    pu->end = in->task_end[seq];
    pu->fetch_ptr = pu->start;
    pu->fetch_resume = cycle + in->task_start_overhead;
    pu->remaining = pu->end - pu->start;
    in->pu_of_seq[seq] = pu->index;
}

static int retire(machine_t *m, int64_t cycle)
{
    const ms_in *in = m->in;
    int active = 0;
    if (m->retiring_pu >= 0) {
        if (cycle < m->retire_finish)
            return 0;
        pu_t *pu = &m->pus[m->retiring_pu];
        int64_t occupied = 0;
        for (int r = 0; r < N_REASONS; r++) {
            m->out->reasons[r] += pu->counts[r];
            occupied += pu->counts[r];
        }
        in->pu_useful[pu->index] += pu->counts[R_USEFUL];
        in->pu_occupied[pu->index] += occupied;
        int64_t seq = pu->seq;
        m->active_span -= in->task_end[seq] - in->task_start[seq];
        m->inflight_pu[seq] = -1;
        pu_reset(pu);
        m->retire_seq++;
        m->retiring_pu = -1;
        active = 1;
    }
    if (m->retire_seq < in->n_tasks) {
        int32_t p = m->inflight_pu[m->retire_seq];
        if (p >= 0 && m->pus[p].done) {
            pu_t *pu = &m->pus[p];
            pu->counts[R_TASK_END] += in->task_end_overhead;
            pu->retiring = 1;
            m->retiring_pu = p;
            m->retire_finish = cycle + in->task_end_overhead;
            active = 1;
        }
    }
    return active;
}

static int assign(machine_t *m, int64_t cycle)
{
    const ms_in *in = m->in;
    pu_t *pu = &m->pus[m->next_assign_pu];
    if (m->pending_mispredict >= 0) {
        pu_reset(pu);
        pu->wrong = 1;
        pu->assign_cycle = cycle;
        m->next_assign_pu = (m->next_assign_pu + 1) % m->n_pus;
        return 1;
    }
    if (m->next_seq >= in->n_tasks)
        return 0;
    int64_t seq = m->next_seq;
    pu_assign(m, pu, seq, cycle);
    m->inflight_pu[seq] = pu->index;
    m->active_span += in->task_end[seq] - in->task_start[seq];
    m->next_seq++;
    m->next_assign_pu = (m->next_assign_pu + 1) % m->n_pus;
    predict_successor(m, seq);
    return 1;
}

/* One cycle of phases A-D; returns 1 when anything progressed. */
static int tick(machine_t *m, int64_t cycle)
{
    const ms_in *in = m->in;
    int active = 0;
    int64_t n_pus = m->n_pus;
    m->cycle = cycle;
    /* Phase A: completions, violation checks, control resolve. */
    for (int64_t i = 0; i < n_pus; i++) {
        pu_t *pu = &m->pus[i];
        if (!pu->has_task)
            continue;
        if (pu->heap_n) {
            if (pu->heap_cyc[0] > cycle)
                continue;
        } else if (pu->done || pu->remaining || pu->fetch_ptr < pu->end) {
            continue;
        }
        int64_t n_stores;
        if (drain_completions(m, pu, cycle, &n_stores))
            active = 1;
        for (int64_t k = 0; k < n_stores; k++) {
            check_store_violation(m, m->stores[k], cycle);
            if (m->nomem)
                return active;
        }
    }
    if (m->pending_mispredict >= 0) {
        int32_t p = m->inflight_pu[m->pending_mispredict];
        if (p >= 0 && m->pus[p].done) {
            active = 1;
            squash_wrong(m, cycle);
            m->next_assign_pu =
                (in->pu_of_seq[m->pending_mispredict] + 1) % n_pus;
            m->pending_mispredict = -1;
            if (m->resume_cycle < cycle + in->task_mispredict_redirect)
                m->resume_cycle = cycle + in->task_mispredict_redirect;
        }
    }
    /* Phase B: retire. */
    if (retire(m, cycle))
        active = 1;
    /* Phase C: assign. */
    if (cycle >= m->resume_cycle && pu_idle(&m->pus[m->next_assign_pu])
        && assign(m, cycle))
        active = 1;
    /* Phase D: execute + accounting. */
    int64_t idle = 0;
    for (int64_t i = 0; i < n_pus; i++) {
        pu_t *pu = &m->pus[i];
        if (pu->wrong)
            continue;
        if (!pu->has_task) {
            idle++;
            continue;
        }
        if (pu->retiring)
            continue;
        if (pu->done) {
            pu->counts[R_LOAD_IMBALANCE]++;
            continue;
        }
        int reason;
        int64_t issued = issue(m, pu, cycle, &reason);
        if (pu->pending_branch < 0 && cycle >= pu->fetch_resume
            && pu->fetch_ptr < pu->end && pu->rob_count < in->rob_size
            && fetch(m, pu, cycle))
            active = 1;
        if (issued) {
            active = 1;
            pu->counts[R_USEFUL]++;
        } else if (cycle < pu->assign_cycle + in->task_start_overhead) {
            pu->counts[R_TASK_START]++;
        } else if (reason >= 0) {
            pu->counts[reason]++;
        } else {
            pu->counts[R_FETCH]++;
        }
    }
    m->out->reasons[R_IDLE] += idle;
    m->out->span_accum += m->active_span;
    return active;
}

/* After a quiescent cycle: 1 when no unit can ever act again. */
static int livelocked(const machine_t *m, int64_t cycle)
{
    int64_t t = cycle + 1, wake = NEVER;
    if (m->retiring_pu >= 0)
        wake = m->retire_finish;
    if (pu_idle(&m->pus[m->next_assign_pu])
        && (m->pending_mispredict >= 0 || m->next_seq < m->in->n_tasks)) {
        int64_t resume = m->resume_cycle < t ? t : m->resume_cycle;
        if (resume < wake)
            wake = resume;
    }
    for (int64_t i = 0; i < m->n_pus; i++) {
        const pu_t *pu = &m->pus[i];
        if (pu->wrong || pu->retiring || !pu->has_task)
            continue;
        int64_t w = pu_next_event(m, pu, t);
        if (w < wake)
            wake = w;
    }
    return wake >= NEVER;
}

/* ------------------------------------------------------- construction */

static void machine_free(machine_t *m)
{
    if (m->pus != NULL) {
        for (int64_t i = 0; i < m->n_pus; i++) {
            pu_t *pu = &m->pus[i];
            free(pu->win_idx);
            free(pu->win_fc);
            free(pu->memq);
            free(pu->heap_cyc);
            free(pu->heap_idx);
            free(pu->eg_tag);
            free(pu->eg_cnt);
        }
        free(m->pus);
    }
    free(m->task_seq);
    free(m->prod_off);
    free(m->complete);
    free(m->forward);
    free(m->generation);
    free(m->inflight_pu);
    free(m->viol_head);
    free(m->viol_tail);
    free(m->viol);
    free(m->sync_st);
    free(m->sync_ld);
    cache_free(&m->l1d);
    cache_free(&m->l1i);
    cache_free(&m->l2);
    free(m->p_cnt);
    free(m->p_tgt);
    free(m->g_cnt);
    free(m->g_tgt);
    free(m->chooser);
    free(m->stores);
}

static int machine_init(machine_t *m, const ms_in *in, ms_out *out)
{
    int64_t n = in->n, n_tasks = in->n_tasks, rob = in->rob_size;
    size_t nn = (size_t)(n > 0 ? n : 1);
    m->in = in;
    m->out = out;
    m->n_pus = in->n_pus;
    m->retiring_pu = -1;
    m->retire_finish = -1;
    m->pending_mispredict = -1;
    m->pus = calloc((size_t)in->n_pus, sizeof(pu_t));
    m->task_seq = malloc(nn * sizeof(int32_t));
    m->prod_off = malloc((nn + 1) * sizeof(int32_t));
    m->complete = malloc(nn * sizeof(int64_t));
    m->forward = malloc(nn * sizeof(int64_t));
    m->viol_head = malloc(nn * sizeof(int64_t));
    m->viol_tail = malloc(nn * sizeof(int64_t));
    m->generation = calloc((size_t)n_tasks, sizeof(int64_t));
    m->inflight_pu = malloc((size_t)n_tasks * sizeof(int32_t));
    m->stores = malloc((size_t)rob * sizeof(int64_t));
    m->p_cnt = calloc(PRED_SIZE, 1);
    m->p_tgt = calloc(PRED_SIZE, 1);
    m->g_cnt = calloc(PRED_SIZE, 1);
    m->g_tgt = calloc(PRED_SIZE, 1);
    m->chooser = malloc(PRED_SIZE);
    if (!m->pus || !m->task_seq || !m->prod_off || !m->complete || !m->forward || !m->viol_head
        || !m->viol_tail || !m->generation || !m->inflight_pu || !m->stores
        || !m->p_cnt || !m->p_tgt || !m->g_cnt || !m->g_tgt || !m->chooser)
        return 0;
    if (!cache_init(&m->l1d, in->l1d_sets, in->l1d_assoc)
        || !cache_init(&m->l1i, in->l1i_sets, in->l1i_assoc)
        || !cache_init(&m->l2, in->l2_sets, in->l2_assoc))
        return 0;
    memset(m->chooser, 1, PRED_SIZE);
    m->prod_off[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        m->complete[i] = -1;
        m->forward[i] = -1;
        m->viol_head[i] = -1;
        m->task_seq[i] = 0;
        m->prod_off[i + 1] = m->prod_off[i] + in->prod_count[i];
    }
    for (int64_t s = 0; s < n_tasks; s++) {
        m->inflight_pu[s] = -1;
        in->pu_of_seq[s] = -1;
        for (int64_t i = in->task_start[s]; i < in->task_end[s]; i++)
            m->task_seq[i] = (int32_t)s;
    }
    for (int64_t i = 0; i < in->n_pus; i++) {
        pu_t *pu = &m->pus[i];
        pu->index = (int32_t)i;
        pu->issue_width = in->pu_issue_width[i];
        pu->fetch_width = in->pu_fetch_width[i];
        for (int c = 0; c < 4; c++) {
            pu->fu[c] = in->pu_fu[4 * i + c];
            pu->lat_extra[c] = in->pu_lat_extra[4 * i + c];
        }
        pu->win_idx = malloc((size_t)rob * sizeof(int32_t));
        pu->win_fc = malloc((size_t)rob * sizeof(int64_t));
        pu->memq = malloc((size_t)rob * sizeof(int32_t));
        pu->heap_cyc = malloc((size_t)rob * sizeof(int64_t));
        pu->heap_idx = malloc((size_t)rob * sizeof(int32_t));
        pu->eg_cap = 64;
        pu->eg_tag = malloc((size_t)pu->eg_cap * sizeof(int64_t));
        pu->eg_cnt = malloc((size_t)pu->eg_cap * sizeof(int32_t));
        if (!pu->win_idx || !pu->win_fc || !pu->memq || !pu->heap_cyc
            || !pu->heap_idx || !pu->eg_tag || !pu->eg_cnt)
            return 0;
        for (int64_t k = 0; k < pu->eg_cap; k++)
            pu->eg_tag[k] = -1;
        in->pu_useful[i] = 0;
        in->pu_occupied[i] = 0;
        pu_reset(pu);
    }
    return 1;
}

/* ----------------------------------------------------------- entry */

int64_t ms_run(const ms_in *in, ms_out *out)
{
    machine_t m;
    memset(&m, 0, sizeof m);
    memset(out, 0, sizeof *out);
    int64_t status = MS_OK;
    int64_t cycle = 0;
    if (!machine_init(&m, in, out)) {
        status = MS_NOMEM;
    } else {
        while (m.retire_seq < in->n_tasks) {
            if (cycle > in->max_cycles) {
                status = MS_MAX_CYCLES;
                break;
            }
            int active = tick(&m, cycle);
            if (m.nomem) {
                status = MS_NOMEM;
                break;
            }
            if (!active && livelocked(&m, cycle)) {
                status = MS_LIVELOCK;
                break;
            }
            cycle++;
        }
    }
    out->cycles = cycle;
    out->retire_seq = m.retire_seq;
    out->next_seq = m.next_seq;
    out->pending_mispredict = m.pending_mispredict;
    out->l1d_hits = m.l1d.hits;
    out->l1d_misses = m.l1d.misses;
    out->l1i_hits = m.l1i.hits;
    out->l1i_misses = m.l1i.misses;
    out->l2_hits = m.l2.hits;
    out->l2_misses = m.l2.misses;
    out->squash_depths = m.depths;
    out->n_squash_depths = m.n_depths;
    machine_free(&m);
    return status;
}

void ms_free(ms_out *out)
{
    free(out->squash_depths);
    out->squash_depths = NULL;
    out->n_squash_depths = 0;
}
