/* Compiled datapath kernel for the fast engine (array-state machines).
 *
 * It implements the per-line demand, prefetch, flush and non-temporal
 * chains of the reference port (CorePort in repro/memory/hierarchy.py)
 * with the stock prefetcher trio, operating on the numpy array state
 * shared with the Python side:
 *
 *   - Cache array backend (memory/cache.py): tags / dirty / stamp
 *     per (set, way), LRU as a monotone stamp; victim = smallest stamp
 *     among all-valid ways, empty ways (tag == -1) fill first.
 *   - ArrayTlb (memory/tlb.py): fully-associative page arrays with
 *     stamp-LRU replicating the dict insertion-order recency.
 *   - Array prefetcher tables (prefetch/arraystate.py).
 *   - PrefetchedSet (memory/prefetched.py): open-addressing int64 hash
 *     of line + 1, 0 empty, linear probing from the locality-preserving
 *     home slot (line + (line >> 16) * 0x9E3779B1) & mask, deletion by
 *     backward shift (no tombstones); capacity is ensured by Python
 *     before every call (and a grown table shrinks back on clear), so
 *     this side never grows the table.  A touched map, one byte per
 *     1 << PF_BLOCK_SHIFT slots, marks the blocks ever written, so
 *     Python reads only those.
 *
 * All counters are accumulated into the `out` array; the Python caller
 * applies them to BatchStats / CacheStats / TlbStats / PrefetchStats /
 * IMC counters in one step per call (BatchDatapath._apply_out).
 * Per-home DRAM traffic accumulates into ctx->homes (nnodes x 4:
 * [demand_reads, prefetch_reads, writes, remote_lines]).
 *
 * The equivalence contract (cross-engine conformance fuzz and
 * tests/engine) gates this file counter-for-counter against the
 * reference interpreter.
 */

#include <stdint.h>

/* out[] layout -- keep in sync with OUT_* in engine/ckernel.py */
enum {
    O_ACC, O_L1H, O_L2H, O_L3H, O_DRD, O_WBK, O_NTL,
    O_E1, O_E2, O_E3, O_SWP, O_HWI, O_PFR, O_PFU, O_REM, O_FLS,
    O_TLBM, O_TLBW, O_DACC,
    O_C1F, O_C1D, O_C1I, O_C2F, O_C2D, O_C2I,
    O_C3H, O_C3M, O_C3F, O_C3D, O_C3I,
    O_OCC1, O_OCC2, O_OCC3,
    O_NLI, O_SMI, O_STI, O_USEFUL,
    O_TACC, O_T1H, O_T2H, O_TWALK,
    O_COUNT
};

/* run_meta[] per-run layout -- keep in sync with engine/plan.py */
enum { RM_OP, RM_HOME, RM_REMOTE, RM_OFF, RM_N, RM_SID, RM_FIELDS };

/* nest descriptor layout -- keep in sync with NEST_* in engine/ckernel.py
 *
 * header:   NH_* scalars
 * nodes:    one NN_FIELDS row per node, in body (preorder) order
 * sites:    one row per memory site: NS_* fields, then one byte stride
 *           per enclosing induction-variable slot (NH_DEPTH of them)
 * state:    the resumable walk position (NST_*), the iv slots, then
 *           2 scratch words per site of the widest flat loop */
enum { NH_NODES, NH_DEPTH, NH_SHIFT, NH_FIELDS };
enum { NN_KIND, NN_SLOT, NN_TRIPS, NN_LINK, NN_SITE0, NN_NSITES,
       NN_BOUND, NN_FIELDS };
enum { NK_LOOP, NK_END, NK_FLAT, NK_SINGLE, NK_NOP };
enum { NS_OP, NS_SID, NS_HOME, NS_REMOTE, NS_BASE, NS_STRIDE, NS_WIDTH,
       NS_IVS };
enum { NST_PC, NST_NEED, NST_IVS };

typedef struct {
    /* caches: 0 = L1, 1 = L2, 2 = L3 */
    int64_t *tags[3];
    uint8_t *dirty[3];
    int64_t *stamp[3];
    int64_t  set_mask[3];
    int64_t  assoc[3];
    /* TLB */
    int64_t *tlb1_pages, *tlb1_stamp;
    int64_t *tlb2_pages, *tlb2_stamp;
    int64_t *tlb_regs;            /* [tick, l1_count, l2_count] */
    int64_t  tlb1_entries, tlb2_entries, walk_latency;
    /* prefetched-line hash set */
    int64_t *pf_slots;
    int64_t *pf_regs;             /* [size] */
    uint8_t *pf_touched;          /* a byte per 1 << PF_BLOCK_SHIFT slots */
    int64_t  pf_mask;
    /* stride table */
    int64_t *st_keys, *st_last, *st_strd, *st_conf, *st_lruv, *st_regs;
    int64_t  st_sites, st_deg, st_thr, st_maxs;
    /* stream table */
    int64_t *sm_keys, *sm_last, *sm_dirn, *sm_conf, *sm_front,
            *sm_lruv, *sm_regs;
    int64_t  sm_trackers, sm_deg, sm_dist, sm_thr, sm_lpp;
    /* next-line */
    int64_t  nl_lpp;
    /* port */
    int64_t  page_shift;
    /* per-call enable flags (MSR mask) */
    int64_t  nl_on, sm_on, st_on;
    /* shared scalar registers: [l1_tick, l2_tick, l3_tick, last_page] */
    int64_t *regs;
    /* per-home DRAM accumulators, nnodes x 4 */
    int64_t *homes;
} Ctx;

/* ------------------------------------------------------------------ */
/* cache primitives (array backend semantics)                          */
/* ------------------------------------------------------------------ */

static inline int64_t way_find(const Ctx *c, int l, int64_t set,
                               int64_t line) {
    const int64_t *t = c->tags[l] + set * c->assoc[l];
    int64_t a = c->assoc[l];
    for (int64_t w = 0; w < a; w++)
        if (t[w] == line)
            return w;
    return -1;
}

/* look a line up and choose its victim in one pass over the set:
 * returns the hit way, or -1 with *victim = the way a fill uses (the
 * first empty way, tag == -1, else the first way with the smallest
 * stamp) */
static inline int64_t way_probe(const Ctx *c, int l, int64_t set,
                                int64_t line, int64_t *victim) {
    int64_t a = c->assoc[l];
    const int64_t *t = c->tags[l] + set * a;
    const int64_t *s = c->stamp[l] + set * a;
    int64_t empty = -1, lru = 0;
    for (int64_t w = 0; w < a; w++) {
        int64_t v = t[w];
        if (v == line)
            return w;
        if (v == -1) {
            if (empty < 0)
                empty = w;
        } else if (s[w] < s[lru]) {
            lru = w;
        }
    }
    *victim = empty >= 0 ? empty : lru;
    return -1;
}

static inline void touch(Ctx *c, int l, int64_t set, int64_t way) {
    c->regs[l] += 1;
    c->stamp[l][set * c->assoc[l] + way] = c->regs[l];
}

/* fill an absent line into the victim way way_probe chose for it (no
 * access to that set may come between the probe and the fill); returns
 * 1 when a valid line was evicted (ev_line/ev_dirty set), 0 when the
 * way was empty (occupancy grows at the caller) */
static int fill_way(Ctx *c, int l, int64_t set, int64_t way, int64_t line,
                    int dirty, int64_t *ev_line, int *ev_dirty) {
    int64_t i = set * c->assoc[l] + way;
    int64_t old = c->tags[l][i];
    int evicted = old != -1;
    if (evicted) {
        *ev_line = old;
        *ev_dirty = c->dirty[l][i];
    }
    c->tags[l][i] = line;
    c->dirty[l][i] = (uint8_t)dirty;
    touch(c, l, set, way);
    return evicted;
}

/* drop a line; returns -1 absent, else its dirty flag (0/1) */
static int cache_invalidate(Ctx *c, int l, int64_t line) {
    int64_t set = line & c->set_mask[l];
    int64_t w = way_find(c, l, set, line);
    if (w < 0)
        return -1;
    int64_t i = set * c->assoc[l] + w;
    int dirty = c->dirty[l][i];
    c->tags[l][i] = -1;
    c->dirty[l][i] = 0;
    return dirty;
}

static inline int contains(const Ctx *c, int l, int64_t line) {
    return way_find(c, l, line & c->set_mask[l], line) >= 0;
}

/* ------------------------------------------------------------------ */
/* prefetched-line hash set                                            */
/* ------------------------------------------------------------------ */

/* slots per touched-map byte -- keep in sync with BLOCK_SHIFT in
 * memory/prefetched.py */
#define PF_BLOCK_SHIFT 9

static inline int64_t pf_home(int64_t line, int64_t mask) {
    uint64_t u = (uint64_t)line;
    return (int64_t)((u + (u >> 16) * 0x9E3779B1ULL) & (uint64_t)mask);
}

/* the slot holding `line`, or the empty slot that ends its probe */
static inline int64_t pf_find(const Ctx *c, int64_t line) {
    int64_t mask = c->pf_mask, key = line + 1;
    const int64_t *s = c->pf_slots;
    int64_t i = pf_home(line, mask);
    while (s[i] != key && s[i] != 0)
        i = (i + 1) & mask;
    return i;
}

static void pf_add(Ctx *c, int64_t line) {
    int64_t i = pf_find(c, line);
    if (c->pf_slots[i])
        return;
    c->pf_slots[i] = line + 1;
    c->pf_touched[i >> PF_BLOCK_SHIFT] = 1;
    c->pf_regs[0] += 1;
}

/* returns 1 when the line was present (and is now removed) */
static int pf_discard(Ctx *c, int64_t line) {
    int64_t mask = c->pf_mask;
    int64_t *s = c->pf_slots;
    int64_t i = pf_find(c, line);
    if (!s[i])
        return 0;
    /* backward shift (Knuth's Algorithm R): move each later member of
     * the cluster whose home slot is not cyclically in (i, j] into the
     * hole at i.  Every slot written held a line, so its block is
     * already marked touched. */
    for (int64_t j = (i + 1) & mask; s[j]; j = (j + 1) & mask) {
        int64_t v = s[j];
        if (((j - pf_home(v - 1, mask)) & mask) >= ((j - i) & mask)) {
            s[i] = v;
            i = j;
        }
    }
    s[i] = 0;
    c->pf_regs[0] -= 1;
    return 1;
}

/* ------------------------------------------------------------------ */
/* TLB (ArrayTlb semantics)                                            */
/* ------------------------------------------------------------------ */

static void tlb_fill(Ctx *c, int64_t page) {
    int64_t *r = c->tlb_regs;
    if (r[1] >= c->tlb1_entries) {
        /* L1 full -> every slot valid; smallest stamp is the dict head */
        int64_t v = 0;
        for (int64_t k = 1; k < c->tlb1_entries; k++)
            if (c->tlb1_stamp[k] < c->tlb1_stamp[v])
                v = k;
        int64_t victim = c->tlb1_pages[v];
        c->tlb1_pages[v] = -1;
        r[1] -= 1;
        if (r[2] >= c->tlb2_entries) {
            int64_t w = 0;
            for (int64_t k = 1; k < c->tlb2_entries; k++)
                if (c->tlb2_stamp[k] < c->tlb2_stamp[w])
                    w = k;
            c->tlb2_pages[w] = -1;
            r[2] -= 1;
        }
        int64_t f = 0;
        while (c->tlb2_pages[f] != -1)
            f++;
        r[0] += 1;
        c->tlb2_pages[f] = victim;
        c->tlb2_stamp[f] = r[0];
        r[2] += 1;
    }
    int64_t f = 0;
    while (c->tlb1_pages[f] != -1)
        f++;
    r[0] += 1;
    c->tlb1_pages[f] = page;
    c->tlb1_stamp[f] = r[0];
    r[1] += 1;
}

static int64_t tlb_translate(Ctx *c, int64_t page, int64_t *o) {
    o[O_TACC] += 1;
    for (int64_t k = 0; k < c->tlb1_entries; k++)
        if (c->tlb1_pages[k] == page) {
            c->tlb_regs[0] += 1;
            c->tlb1_stamp[k] = c->tlb_regs[0];
            o[O_T1H] += 1;
            return 0;
        }
    for (int64_t k = 0; k < c->tlb2_entries; k++)
        if (c->tlb2_pages[k] == page) {
            c->tlb2_pages[k] = -1;
            c->tlb_regs[2] -= 1;
            o[O_T2H] += 1;
            tlb_fill(c, page);
            return 0;
        }
    o[O_TWALK] += 1;
    tlb_fill(c, page);
    return c->walk_latency;
}

static inline void page_check(Ctx *c, int64_t line, int64_t *o) {
    int64_t page = line >> c->page_shift;
    if (page != c->regs[3]) {
        c->regs[3] = page;
        int64_t walk = tlb_translate(c, page, o);
        if (walk) {
            o[O_TLBM] += 1;
            o[O_TLBW] += walk;
        }
    }
}

/* ------------------------------------------------------------------ */
/* fill / writeback chains (CorePort._absorb_dirty inlines)            */
/* ------------------------------------------------------------------ */

/* each fill_lN takes the set and victim way of a way_probe miss */

static void fill_l3(Ctx *c, int64_t set, int64_t way, int64_t line,
                    int dirty, int64_t home, int64_t *o) {
    int64_t evl;
    int evd;
    if (fill_way(c, 2, set, way, line, dirty, &evl, &evd)) {
        o[O_E3] += 1;
        if (evd) {
            o[O_C3D] += 1;
            o[O_WBK] += 1;
            c->homes[home * 4 + 2] += 1;
        }
    } else {
        o[O_OCC3] += 1;
    }
}

static void absorb_l3(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int64_t set = line & c->set_mask[2], victim;
    int64_t w = way_probe(c, 2, set, line, &victim);
    if (w >= 0) {
        /* mark-dirty absorption: no recency touch */
        c->dirty[2][set * c->assoc[2] + w] = 1;
        return;
    }
    o[O_C3F] += 1;
    fill_l3(c, set, victim, line, 1, home, o);
}

static void fill_l2(Ctx *c, int64_t set, int64_t way, int64_t line,
                    int dirty, int64_t home, int64_t *o) {
    int64_t evl;
    int evd;
    if (fill_way(c, 1, set, way, line, dirty, &evl, &evd)) {
        o[O_E2] += 1;
        if (evd) {
            o[O_C2D] += 1;
            absorb_l3(c, evl, home, o);
        }
    } else {
        o[O_OCC2] += 1;
    }
}

static void absorb_l2(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int64_t set = line & c->set_mask[1], victim;
    int64_t w = way_probe(c, 1, set, line, &victim);
    if (w >= 0) {
        c->dirty[1][set * c->assoc[1] + w] = 1;
        return;
    }
    o[O_C2F] += 1;
    fill_l2(c, set, victim, line, 1, home, o);
}

static void fill_l1(Ctx *c, int64_t set, int64_t way, int64_t line,
                    int dirty, int64_t home, int64_t *o) {
    int64_t evl;
    int evd;
    if (fill_way(c, 0, set, way, line, dirty, &evl, &evd)) {
        o[O_E1] += 1;
        if (evd) {
            o[O_C1D] += 1;
            absorb_l2(c, evl, home, o);
        }
    } else {
        o[O_OCC1] += 1;
    }
}

/* a prefetch's L3 step: a hit is touched, a miss is read from DRAM
 * and filled clean */
static void prefetch_l3(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int64_t set3 = line & c->set_mask[2], victim;
    int64_t w = way_probe(c, 2, set3, line, &victim);
    if (w >= 0) {
        touch(c, 2, set3, w);
        o[O_C3H] += 1;
        return;
    }
    o[O_C3M] += 1;
    o[O_PFR] += 1;
    c->homes[home * 4 + 1] += 1;
    o[O_C3F] += 1;
    fill_l3(c, set3, victim, line, 0, home, o);
}

/* one hw-prefetch candidate (CorePort._hw_prefetch): skipped when
 * resident in L2 or L1, else filled through L3 into L2 and recorded as
 * prefetched */
static void hw_prefetch(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int64_t set2 = line & c->set_mask[1], victim;
    if (way_probe(c, 1, set2, line, &victim) >= 0 || contains(c, 0, line))
        return;
    o[O_HWI] += 1;
    prefetch_l3(c, line, home, o);
    o[O_C2F] += 1;
    fill_l2(c, set2, victim, line, 0, home, o);
    pf_add(c, line);
}

/* ------------------------------------------------------------------ */
/* prefetch engines (array-table semantics, identical to observe())    */
/* ------------------------------------------------------------------ */

static void nl_observe(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int64_t nxt = line + 1;
    if (nxt % c->nl_lpp == 0)
        return; /* never crosses a page */
    o[O_NLI] += 1;
    hw_prefetch(c, nxt, home, o);
}

static void sm_observe(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    c->sm_regs[0] += 1;
    int64_t page = line / c->sm_lpp;
    int64_t n = c->sm_trackers, i = -1;
    for (int64_t k = 0; k < n; k++)
        if (c->sm_keys[k] == page) { i = k; break; }
    if (i < 0) {
        if (c->sm_regs[1] >= n) {
            int64_t v = 0;
            for (int64_t k = 1; k < n; k++)
                if (c->sm_lruv[k] < c->sm_lruv[v])
                    v = k;
            c->sm_keys[v] = -1;
            c->sm_regs[1] -= 1;
        }
        int64_t f = 0;
        while (c->sm_keys[f] != -1)
            f++;
        c->sm_keys[f] = page;
        c->sm_last[f] = line;
        c->sm_dirn[f] = 0;
        c->sm_conf[f] = 0;
        c->sm_front[f] = line;
        c->sm_lruv[f] = c->sm_regs[0];
        c->sm_regs[1] += 1;
        return;
    }
    c->sm_lruv[i] = c->sm_regs[0];
    int64_t delta = line - c->sm_last[i];
    c->sm_last[i] = line;
    if (delta == 0)
        return;
    int64_t dirn = delta > 0 ? 1 : -1;
    if (dirn == c->sm_dirn[i]) {
        c->sm_conf[i] += 1;
    } else {
        c->sm_dirn[i] = dirn;
        c->sm_conf[i] = 1;
        c->sm_front[i] = line;
    }
    if (c->sm_conf[i] < c->sm_thr)
        return;
    int64_t pfirst = page * c->sm_lpp;
    if (dirn > 0) {
        int64_t start = c->sm_front[i] + 1;
        if (start < line + 1)
            start = line + 1;
        int64_t end = line + c->sm_dist;
        int64_t plast = pfirst + c->sm_lpp - 1;
        if (end > plast)
            end = plast;
        int64_t cnt = end - start + 1;
        if (cnt > 0) {
            if (cnt > c->sm_deg)
                cnt = c->sm_deg;
            end = start + cnt - 1;
            c->sm_front[i] = end;
            o[O_SMI] += cnt;
            for (int64_t p = start; p <= end; p++)
                hw_prefetch(c, p, home, o);
        }
    } else {
        int64_t start = c->sm_front[i] - 1;
        if (start > line - 1)
            start = line - 1;
        int64_t end = line - c->sm_dist;
        if (end < pfirst)
            end = pfirst;
        int64_t cnt = start - end + 1;
        if (cnt > 0) {
            if (cnt > c->sm_deg)
                cnt = c->sm_deg;
            end = start - cnt + 1;
            c->sm_front[i] = end;
            o[O_SMI] += cnt;
            for (int64_t p = start; p >= end; p--)
                hw_prefetch(c, p, home, o);
        }
    }
}

static void st_observe(Ctx *c, int64_t line, int64_t sid, int64_t home,
                       int64_t *o) {
    c->st_regs[0] += 1;
    int64_t n = c->st_sites, i = -1;
    for (int64_t k = 0; k < n; k++)
        if (c->st_keys[k] == sid) { i = k; break; }
    if (i < 0) {
        if (c->st_regs[1] >= n) {
            int64_t v = 0;
            for (int64_t k = 1; k < n; k++)
                if (c->st_lruv[k] < c->st_lruv[v])
                    v = k;
            c->st_keys[v] = -1;
            c->st_regs[1] -= 1;
        }
        int64_t f = 0;
        while (c->st_keys[f] != -1)
            f++;
        c->st_keys[f] = sid;
        c->st_last[f] = line;
        c->st_strd[f] = 0;
        c->st_conf[f] = 0;
        c->st_lruv[f] = c->st_regs[0];
        c->st_regs[1] += 1;
        return;
    }
    c->st_lruv[i] = c->st_regs[0];
    int64_t d = line - c->st_last[i];
    c->st_last[i] = line;
    if (d == 0 || d > c->st_maxs || d < -c->st_maxs) {
        c->st_conf[i] = 0;
        c->st_strd[i] = 0;
        return;
    }
    if (d == c->st_strd[i]) {
        c->st_conf[i] += 1;
    } else {
        c->st_strd[i] = d;
        c->st_conf[i] = 1;
    }
    if (c->st_conf[i] < c->st_thr)
        return;
    int64_t deg = c->st_deg;
    if (line + d * deg < 0) {
        /* some candidate underflows line 0: filtered slow path */
        for (int64_t k = 1; k <= deg; k++) {
            int64_t p = line + d * k;
            if (p < 0)
                continue;
            o[O_STI] += 1;
            hw_prefetch(c, p, home, o);
        }
        return;
    }
    o[O_STI] += deg;
    int64_t p = line;
    for (int64_t k = 0; k < deg; k++) {
        p += d;
        hw_prefetch(c, p, home, o);
    }
}

/* ------------------------------------------------------------------ */
/* per-line op bodies                                                  */
/* ------------------------------------------------------------------ */

static void demand_line(Ctx *c, int64_t line, int64_t sid, int is_write,
                        int64_t home, int remote, int64_t *o) {
    o[O_ACC] += 1;
    o[O_DACC] += 1;
    page_check(c, line, o);
    int64_t set1 = line & c->set_mask[0], v1;
    int64_t w1 = way_probe(c, 0, set1, line, &v1);
    if (w1 >= 0) {
        touch(c, 0, set1, w1);
        if (is_write)
            c->dirty[0][set1 * c->assoc[0] + w1] = 1;
        o[O_L1H] += 1;
        /* only the IP-stride engine trains on hits */
        if (c->st_on)
            st_observe(c, line, sid, home, o);
        return;
    }
    int64_t set2 = line & c->set_mask[1], v2;
    int64_t w2 = way_probe(c, 1, set2, line, &v2);
    if (w2 >= 0) {
        touch(c, 1, set2, w2);
        o[O_L2H] += 1;
        if (pf_discard(c, line)) {
            o[O_PFU] += 1;
            o[O_USEFUL] += 1; /* every enabled engine's useful++ */
        }
    } else {
        int64_t set3 = line & c->set_mask[2], v3;
        int64_t w3 = way_probe(c, 2, set3, line, &v3);
        if (w3 >= 0) {
            touch(c, 2, set3, w3);
            o[O_L3H] += 1;
            if (pf_discard(c, line))
                o[O_PFU] += 1;
        } else {
            o[O_DRD] += 1;
            c->homes[home * 4 + 0] += 1;
            if (remote) {
                o[O_REM] += 1;
                c->homes[home * 4 + 3] += 1;
            }
            fill_l3(c, set3, v3, line, 0, home, o);
        }
        fill_l2(c, set2, v2, line, 0, home, o);
    }
    fill_l1(c, set1, v1, line, is_write, home, o);
    if (c->nl_on)
        nl_observe(c, line, home, o);
    if (c->sm_on)
        sm_observe(c, line, home, o);
    if (c->st_on)
        st_observe(c, line, sid, home, o);
}

static void swpf_line(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int64_t set1 = line & c->set_mask[0], v1;
    if (way_probe(c, 0, set1, line, &v1) >= 0)
        return;
    int64_t set2 = line & c->set_mask[1], v2;
    if (way_probe(c, 1, set2, line, &v2) < 0) {
        prefetch_l3(c, line, home, o);
        o[O_C2F] += 1;
        fill_l2(c, set2, v2, line, 0, home, o);
    }
    o[O_C1F] += 1;
    fill_l1(c, set1, v1, line, 0, home, o);
    pf_add(c, line);
}

static void flush_line(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int dirty = 0, d;
    if ((d = cache_invalidate(c, 0, line)) >= 0) {
        o[O_C1I] += 1;
        o[O_OCC1] -= 1;
        dirty |= d;
    }
    if ((d = cache_invalidate(c, 1, line)) >= 0) {
        o[O_C2I] += 1;
        o[O_OCC2] -= 1;
        dirty |= d;
    }
    if ((d = cache_invalidate(c, 2, line)) >= 0) {
        o[O_C3I] += 1;
        o[O_OCC3] -= 1;
        dirty |= d;
    }
    if (dirty) {
        o[O_WBK] += 1;
        c->homes[home * 4 + 2] += 1;
    }
}

static void nt_line(Ctx *c, int64_t line, int64_t *o) {
    page_check(c, line, o);
    if (cache_invalidate(c, 0, line) >= 0) {
        o[O_C1I] += 1;
        o[O_OCC1] -= 1;
    }
    if (cache_invalidate(c, 1, line) >= 0) {
        o[O_C2I] += 1;
        o[O_OCC2] -= 1;
    }
    if (cache_invalidate(c, 2, line) >= 0) {
        o[O_C3I] += 1;
        o[O_OCC3] -= 1;
    }
}

/* ------------------------------------------------------------------ */
/* entry points                                                        */
/* ------------------------------------------------------------------ */

int64_t repro_ctx_size(void) { return (int64_t)sizeof(Ctx); }

int64_t repro_execute_plan(Ctx *c, int64_t nruns, const int64_t *meta,
                           const int64_t *lines, const int64_t *sids,
                           int64_t *o) {
    for (int64_t i = 0; i < O_COUNT; i++)
        o[i] = 0;
    for (int64_t r = 0; r < nruns; r++) {
        const int64_t *m = meta + r * RM_FIELDS;
        int64_t op = m[RM_OP];
        int64_t home = m[RM_HOME];
        int remote = (int)m[RM_REMOTE];
        int64_t off = m[RM_OFF];
        int64_t n = m[RM_N];
        int64_t sid_mode = m[RM_SID];
        const int64_t *L = lines + off;
        if (n <= 0)
            continue;
        if (op <= 1) {
            int is_write = op == 1;
            if (sid_mode >= 0) {
                for (int64_t k = 0; k < n; k++)
                    demand_line(c, L[k], sid_mode, is_write, home,
                                remote, o);
            } else {
                const int64_t *S = sids + off;
                for (int64_t k = 0; k < n; k++)
                    demand_line(c, L[k], S[k], is_write, home, remote, o);
            }
        } else if (op == 3) {
            o[O_SWP] += n;
            for (int64_t k = 0; k < n; k++)
                swpf_line(c, L[k], home, o);
        } else if (op == 4) {
            o[O_FLS] += n;
            for (int64_t k = 0; k < n; k++)
                flush_line(c, L[k], home, o);
        } else { /* op == 2: non-temporal store */
            o[O_ACC] += n;
            o[O_NTL] += n;
            c->homes[home * 4 + 2] += n;
            if (remote) {
                o[O_REM] += n;
                c->homes[home * 4 + 3] += n;
            }
            for (int64_t k = 0; k < n; k++)
                nt_line(c, L[k], o);
        }
    }
    return 0;
}

int64_t repro_execute_single(Ctx *c, int64_t line, int64_t is_write,
                             int64_t home, int64_t remote, int64_t *o) {
    for (int64_t i = 0; i < O_COUNT; i++)
        o[i] = 0;
    demand_line(c, line, 0, (int)is_write, home, (int)remote, o);
    return 0;
}


/* ------------------------------------------------------------------ */
/* whole-nest execution                                                */
/* ------------------------------------------------------------------ */

/* one line of one site, dispatched on the plan opcode (OP_* in
 * engine/plan.py); the per-run counter bumps of repro_execute_plan
 * applied per line */
static inline void nest_line(Ctx *c, int64_t op, int64_t line, int64_t sid,
                             int64_t home, int remote, int64_t *o) {
    if (op <= 1) {
        demand_line(c, line, sid, (int)op, home, remote, o);
    } else if (op == 3) {
        o[O_SWP] += 1;
        swpf_line(c, line, home, o);
    } else if (op == 4) {
        o[O_FLS] += 1;
        flush_line(c, line, home, o);
    } else { /* op == 2: non-temporal store */
        o[O_ACC] += 1;
        o[O_NTL] += 1;
        c->homes[home * 4 + 2] += 1;
        if (remote) {
            o[O_REM] += 1;
            c->homes[home * 4 + 3] += 1;
        }
        nt_line(c, line, o);
    }
}

static inline void nest_range(Ctx *c, const int64_t *s, int64_t lo,
                              int64_t hi, int64_t *o) {
    int64_t op = s[NS_OP], sid = s[NS_SID], home = s[NS_HOME];
    int remote = (int)s[NS_REMOTE];
    for (int64_t l = lo; l <= hi; l++)
        nest_line(c, op, l, sid, home, remote, o);
}

/* site base at the current outer induction-variable values */
static inline int64_t nest_base(const int64_t *s, const int64_t *iv,
                                int64_t depth) {
    int64_t b = s[NS_BASE];
    for (int64_t k = 0; k < depth; k++)
        b += iv[k] * s[NS_IVS + k];
    return b;
}

/* one flat-loop execution: Core._iter_interleaved (any number of sites
 * with non-negative own strides, closed-form skip between crossings)
 * or the descending single-site frontier of Core._site_lines */
static void nest_flat(Ctx *c, const int64_t *nd, const int64_t *sites,
                      int64_t sw, const int64_t *iv, int64_t depth,
                      int64_t shift, int64_t *scratch, int64_t *o) {
    int64_t trips = nd[NN_TRIPS], ns = nd[NN_NSITES];
    const int64_t *S0 = sites + nd[NN_SITE0] * sw;
    int64_t *base = scratch, *last = scratch + ns;
    if (ns == 1 && S0[NS_STRIDE] < 0) {
        int64_t b = nest_base(S0, iv, depth), stride = S0[NS_STRIDE];
        int64_t w = S0[NS_WIDTH], prev = 0, floor_line = 0;
        int have_floor = 0;
        for (int64_t t = 0; t < trips; t++) {
            int64_t pos = b + t * stride;
            int64_t lo = pos >> shift, hi = (pos + w - 1) >> shift;
            int crossing = t == 0 || lo < prev;
            prev = lo;
            if (!crossing)
                continue;
            if (have_floor && hi >= floor_line)
                hi = floor_line - 1;
            if (lo > hi)
                continue;
            nest_range(c, S0, lo, hi, o);
            floor_line = lo;
            have_floor = 1;
        }
        return;
    }
    for (int64_t s = 0; s < ns; s++) {
        base[s] = nest_base(S0 + s * sw, iv, depth);
        last[s] = -1;
    }
    int64_t t = 0;
    while (t < trips) {
        for (int64_t s = 0; s < ns; s++) {
            const int64_t *S = S0 + s * sw;
            int64_t pos = base[s] + t * S[NS_STRIDE];
            int64_t first = pos >> shift;
            int64_t end = (pos + S[NS_WIDTH] - 1) >> shift;
            if (end <= last[s])
                continue;
            nest_range(c, S, first > last[s] ? first : last[s] + 1, end, o);
            last[s] = end;
        }
        /* skip to the next trip at which some site's window reaches a
         * line past its frontier */
        int64_t nxt = trips;
        for (int64_t s = 0; s < ns; s++) {
            const int64_t *S = S0 + s * sw;
            int64_t stride = S[NS_STRIDE];
            if (!stride)
                continue;
            int64_t need = ((last[s] + 1) << shift) - base[s]
                - S[NS_WIDTH] + 1;
            /* no division when the crossing is the very next trip */
            int64_t cross = need <= (t + 1) * stride
                ? t + 1 : (need + stride - 1) / stride;
            if (cross < nxt)
                nxt = cross;
        }
        t = nxt > t + 1 ? nxt : t + 1;
    }
}

/* Walk a nest descriptor from state[NST_PC], executing every phase
 * (flat-loop execution, straight-line access, or memory-free phase) in
 * program order.  After each phase the cumulative counter block is
 * copied into row `r` of `rows` (O_COUNT columns) and the phase's node
 * index into row_node[r]; per-home DRAM traffic accumulates in
 * ctx->homes for the whole call.  Stops at a phase boundary when `max_rows` rows are
 * written, or when the prefetched-line set lacks room for the next
 * phase's worst case (NN_BOUND lines; state[NST_NEED] then holds the
 * inserts to reserve).  Returns the rows written; the walk is done
 * when state[NST_PC] reaches NH_NODES. */
int64_t repro_execute_nest(Ctx *c, const int64_t *hdr, const int64_t *nodes,
                           const int64_t *sites, int64_t *state,
                           int64_t *rows, int64_t *row_node,
                           int64_t max_rows, int64_t *o) {
    int64_t nnodes = hdr[NH_NODES], depth = hdr[NH_DEPTH];
    int64_t shift = hdr[NH_SHIFT], sw = NS_IVS + depth;
    int64_t *iv = state + NST_IVS, *scratch = iv + depth;
    int64_t pc = state[NST_PC], nrows = 0;
    state[NST_NEED] = 0;
    for (int64_t i = 0; i < O_COUNT; i++)
        o[i] = 0;
    while (pc < nnodes) {
        const int64_t *nd = nodes + pc * NN_FIELDS;
        int64_t kind = nd[NN_KIND];
        if (kind == NK_LOOP) {
            iv[nd[NN_SLOT]] = 0;
            pc++;
            continue;
        }
        if (kind == NK_END) {
            int64_t slot = nd[NN_SLOT];
            if (++iv[slot] < nd[NN_TRIPS])
                pc = nd[NN_LINK] + 1;
            else
                pc++;
            continue;
        }
        if (nrows == max_rows)
            break;
        if (kind != NK_NOP) {
            int64_t need = 6 * nd[NN_BOUND] + 8;
            if ((c->pf_regs[0] + need) * 2 > c->pf_mask + 1) {
                state[NST_NEED] = need;
                break;
            }
            if (kind == NK_FLAT) {
                nest_flat(c, nd, sites, sw, iv, depth, shift, scratch, o);
            } else {
                const int64_t *S = sites + nd[NN_SITE0] * sw;
                int64_t b = nest_base(S, iv, depth);
                nest_range(c, S, b >> shift, (b + S[NS_WIDTH] - 1) >> shift,
                           o);
            }
        }
        int64_t *row = rows + nrows * O_COUNT;
        for (int64_t i = 0; i < O_COUNT; i++)
            row[i] = o[i];
        row_node[nrows++] = pc++;
    }
    state[NST_PC] = pc;
    return nrows;
}
