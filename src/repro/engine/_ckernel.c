/* Compiled datapath kernel for the fast engine (array-state machines).
 *
 * It implements the per-line demand, prefetch, flush and non-temporal
 * chains of the reference port (CorePort in repro/memory/hierarchy.py)
 * with the stock prefetcher trio, operating on the numpy array state
 * shared with the Python side:
 *
 *   - Cache array backend (memory/cache.py): tags / dirty per
 *     (set, way), each set kept in recency order: way 0 holds the most
 *     recent line and the valid ways (tag != -1) form a prefix, so a
 *     fill takes the first empty way, else evicts the last (LRU) way;
 *     a hit moves its line to way 0, and an invalidation closes the
 *     hole.
 *   - ArrayTlb (memory/tlb.py): fully-associative page arrays, each a
 *     valid prefix in the dict's order reversed (L1 most recent first,
 *     L2 newest insertion first); the victim is the last valid entry.
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
 * Per-home DRAM traffic accumulates into ctx->homes (one HM_FIELDS row
 * per home node).
 *
 * The equivalence contract (cross-engine conformance fuzz and
 * tests/engine) gates this file counter-for-counter against the
 * reference interpreter.
 */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* BEGIN GENERATED INTERFACE: written from the tables in engine/ckernel.py by
 * `python -m repro.engine`; edit those tables, not this block. */

enum { PF_BLOCK_SHIFT = 9 };

enum { FF_PF_LINES = 4096 };

/* out[]: the counter block every entry point fills */
enum {
    O_ACC, O_L1H, O_L2H, O_L3H, O_DRD, O_WBK, O_NTL, O_E1, O_E2, O_E3,
    O_SWP, O_HWI, O_PFR, O_PFU, O_REM, O_FLS, O_TLBM, O_TLBW, O_DACC, O_C1F,
    O_C1D, O_C1I, O_C2F, O_C2D, O_C2I, O_C3H, O_C3M, O_C3F, O_C3D, O_C3I,
    O_OCC1, O_OCC2, O_OCC3, O_NLI, O_SMI, O_STI, O_USEFUL, O_TACC, O_T1H,
    O_T2H, O_TWALK, O_COUNT
};

/* run_meta[]: one row per run of a packed plan (AccessPlan.meta) */
enum { RM_OP, RM_HOME, RM_REMOTE, RM_OFF, RM_N, RM_SID, RM_FIELDS };

/* plan opcodes (the RM_OP and NS_OP columns) */
enum {
    OP_DEMAND_READ, OP_DEMAND_WRITE, OP_NTSTORE, OP_PREFETCH, OP_FLUSH
};

/* ctx->homes[]: a row of DRAM line counts per home node */
enum {
    HM_DEMAND_READS, HM_PREFETCH_READS, HM_WRITES, HM_REMOTE_LINES,
    HM_FIELDS
};

/* nest descriptor header */
enum { NH_NODES, NH_DEPTH, NH_SHIFT, NH_FIELDS };

/* nest nodes: a row per node, in body (preorder) order */
enum {
    NN_KIND, NN_SLOT, NN_TRIPS, NN_LINK, NN_SITE0, NN_NSITES, NN_BOUND,
    NN_FIELDS
};

/* nest node kinds (the NN_KIND column) */
enum { NK_LOOP, NK_END, NK_FLAT, NK_FLAT_GATHER, NK_SINGLE, NK_NOP };

/* nest sites: a row of NS_* fields, then a stride per iv slot */
enum {
    NS_OP, NS_SID, NS_HOME, NS_REMOTE, NS_BASE, NS_STRIDE, NS_WIDTH,
    NS_INDEX, NS_IVS
};

/* nest state: resume point, requests, lines skipped, fast-forward copies, failed comparisons and skips by the kinds of L3 way their periods filled or evicted, iv slots, scratch */
enum {
    NST_PC, NST_NEED, NST_FFWD, NST_SKIPPED, NST_COPIES, NST_MISMATCHES,
    NST_SKIPS_EMPTY, NST_SKIPS_CLEAN, NST_SKIPS_DIRTY, NST_IVS
};

typedef struct {
    /* caches: 0 = L1, 1 = L2, 2 = L3 */
    int64_t *tags[3];
    uint8_t *dirty[3];
    int64_t set_mask[3], assoc[3];
    /* TLB; tlb_regs is [l1_count, l2_count] */
    int64_t *tlb1_pages, *tlb2_pages, *tlb_regs;
    int64_t tlb1_entries, tlb2_entries, walk_latency;
    /* prefetched-line set: pf_regs is [size], pf_touched a byte a block */
    int64_t *pf_slots, *pf_regs;
    uint8_t *pf_touched;
    int64_t pf_mask;
    /* stride table */
    int64_t *st_keys, *st_last, *st_strd, *st_conf, *st_lruv, *st_regs;
    int64_t st_sites, st_deg, st_thr, st_maxs;
    /* stream table */
    int64_t *sm_keys, *sm_last, *sm_dirn, *sm_conf, *sm_front, *sm_lruv,
            *sm_regs;
    int64_t sm_trackers, sm_deg, sm_dist, sm_thr, sm_lpp;
    /* next-line prefetcher, port */
    int64_t nl_lpp, page_shift;
    /* per-call enable flags (MSR mask) */
    int64_t nl_on, sm_on, st_on;
    /* scalar registers [last_page]; per-home DRAM rows of HM_FIELDS */
    int64_t *regs, *homes;
    int64_t nhomes;
    /* fast-forward copy of the loop state, NULL until a loop is eligible */
    int64_t *ff_words;
    uint8_t *ff_dirty;
    int64_t ff_nwords, ff_nbytes;
} Ctx;

/* what the loader checks against engine/ckernel.py */
static const int64_t layout_words[] = {
    (int64_t)sizeof(Ctx),
    (int64_t)offsetof(Ctx, tags),
    (int64_t)offsetof(Ctx, dirty),
    (int64_t)offsetof(Ctx, set_mask),
    (int64_t)offsetof(Ctx, assoc),
    (int64_t)offsetof(Ctx, tlb1_pages),
    (int64_t)offsetof(Ctx, tlb2_pages),
    (int64_t)offsetof(Ctx, tlb_regs),
    (int64_t)offsetof(Ctx, tlb1_entries),
    (int64_t)offsetof(Ctx, tlb2_entries),
    (int64_t)offsetof(Ctx, walk_latency),
    (int64_t)offsetof(Ctx, pf_slots),
    (int64_t)offsetof(Ctx, pf_regs),
    (int64_t)offsetof(Ctx, pf_touched),
    (int64_t)offsetof(Ctx, pf_mask),
    (int64_t)offsetof(Ctx, st_keys),
    (int64_t)offsetof(Ctx, st_last),
    (int64_t)offsetof(Ctx, st_strd),
    (int64_t)offsetof(Ctx, st_conf),
    (int64_t)offsetof(Ctx, st_lruv),
    (int64_t)offsetof(Ctx, st_regs),
    (int64_t)offsetof(Ctx, st_sites),
    (int64_t)offsetof(Ctx, st_deg),
    (int64_t)offsetof(Ctx, st_thr),
    (int64_t)offsetof(Ctx, st_maxs),
    (int64_t)offsetof(Ctx, sm_keys),
    (int64_t)offsetof(Ctx, sm_last),
    (int64_t)offsetof(Ctx, sm_dirn),
    (int64_t)offsetof(Ctx, sm_conf),
    (int64_t)offsetof(Ctx, sm_front),
    (int64_t)offsetof(Ctx, sm_lruv),
    (int64_t)offsetof(Ctx, sm_regs),
    (int64_t)offsetof(Ctx, sm_trackers),
    (int64_t)offsetof(Ctx, sm_deg),
    (int64_t)offsetof(Ctx, sm_dist),
    (int64_t)offsetof(Ctx, sm_thr),
    (int64_t)offsetof(Ctx, sm_lpp),
    (int64_t)offsetof(Ctx, nl_lpp),
    (int64_t)offsetof(Ctx, page_shift),
    (int64_t)offsetof(Ctx, nl_on),
    (int64_t)offsetof(Ctx, sm_on),
    (int64_t)offsetof(Ctx, st_on),
    (int64_t)offsetof(Ctx, regs),
    (int64_t)offsetof(Ctx, homes),
    (int64_t)offsetof(Ctx, nhomes),
    (int64_t)offsetof(Ctx, ff_words),
    (int64_t)offsetof(Ctx, ff_dirty),
    (int64_t)offsetof(Ctx, ff_nwords),
    (int64_t)offsetof(Ctx, ff_nbytes),
    (int64_t)O_ACC,
    (int64_t)O_L1H,
    (int64_t)O_L2H,
    (int64_t)O_L3H,
    (int64_t)O_DRD,
    (int64_t)O_WBK,
    (int64_t)O_NTL,
    (int64_t)O_E1,
    (int64_t)O_E2,
    (int64_t)O_E3,
    (int64_t)O_SWP,
    (int64_t)O_HWI,
    (int64_t)O_PFR,
    (int64_t)O_PFU,
    (int64_t)O_REM,
    (int64_t)O_FLS,
    (int64_t)O_TLBM,
    (int64_t)O_TLBW,
    (int64_t)O_DACC,
    (int64_t)O_C1F,
    (int64_t)O_C1D,
    (int64_t)O_C1I,
    (int64_t)O_C2F,
    (int64_t)O_C2D,
    (int64_t)O_C2I,
    (int64_t)O_C3H,
    (int64_t)O_C3M,
    (int64_t)O_C3F,
    (int64_t)O_C3D,
    (int64_t)O_C3I,
    (int64_t)O_OCC1,
    (int64_t)O_OCC2,
    (int64_t)O_OCC3,
    (int64_t)O_NLI,
    (int64_t)O_SMI,
    (int64_t)O_STI,
    (int64_t)O_USEFUL,
    (int64_t)O_TACC,
    (int64_t)O_T1H,
    (int64_t)O_T2H,
    (int64_t)O_TWALK,
    (int64_t)O_COUNT,
    (int64_t)RM_OP,
    (int64_t)RM_HOME,
    (int64_t)RM_REMOTE,
    (int64_t)RM_OFF,
    (int64_t)RM_N,
    (int64_t)RM_SID,
    (int64_t)RM_FIELDS,
    (int64_t)OP_DEMAND_READ,
    (int64_t)OP_DEMAND_WRITE,
    (int64_t)OP_NTSTORE,
    (int64_t)OP_PREFETCH,
    (int64_t)OP_FLUSH,
    (int64_t)HM_DEMAND_READS,
    (int64_t)HM_PREFETCH_READS,
    (int64_t)HM_WRITES,
    (int64_t)HM_REMOTE_LINES,
    (int64_t)HM_FIELDS,
    (int64_t)NH_NODES,
    (int64_t)NH_DEPTH,
    (int64_t)NH_SHIFT,
    (int64_t)NH_FIELDS,
    (int64_t)NN_KIND,
    (int64_t)NN_SLOT,
    (int64_t)NN_TRIPS,
    (int64_t)NN_LINK,
    (int64_t)NN_SITE0,
    (int64_t)NN_NSITES,
    (int64_t)NN_BOUND,
    (int64_t)NN_FIELDS,
    (int64_t)NK_LOOP,
    (int64_t)NK_END,
    (int64_t)NK_FLAT,
    (int64_t)NK_FLAT_GATHER,
    (int64_t)NK_SINGLE,
    (int64_t)NK_NOP,
    (int64_t)NS_OP,
    (int64_t)NS_SID,
    (int64_t)NS_HOME,
    (int64_t)NS_REMOTE,
    (int64_t)NS_BASE,
    (int64_t)NS_STRIDE,
    (int64_t)NS_WIDTH,
    (int64_t)NS_INDEX,
    (int64_t)NS_IVS,
    (int64_t)NST_PC,
    (int64_t)NST_NEED,
    (int64_t)NST_FFWD,
    (int64_t)NST_SKIPPED,
    (int64_t)NST_COPIES,
    (int64_t)NST_MISMATCHES,
    (int64_t)NST_SKIPS_EMPTY,
    (int64_t)NST_SKIPS_CLEAN,
    (int64_t)NST_SKIPS_DIRTY,
    (int64_t)NST_IVS,
    (int64_t)PF_BLOCK_SHIFT,
    (int64_t)FF_PF_LINES,
};

const int64_t *repro_layout(int64_t *n) {
    *n = (int64_t)(sizeof layout_words / sizeof *layout_words);
    return layout_words;
}
/* END GENERATED INTERFACE */

/* bounds checks on array indices, compiled into sanitizer builds only:
 * `n` entries at `off` lie within an array of `len`.  ASan sees an index
 * past a buffer, but not one that lands in another set or slot of it */
#ifdef __SANITIZE_ADDRESS__
#include <assert.h>
#define SPAN(off, n, len) \
    assert((off) >= 0 && (n) >= 0 && (off) + (n) <= (len))
#else /* names the operands unevaluated, so none is left unused */
#define SPAN(off, n, len) ((void)sizeof((off) + (n) + (len)))
#endif

/* ------------------------------------------------------------------ */
/* cache primitives (array backend semantics)                          */
/* ------------------------------------------------------------------ */

/* look a line up and choose its victim in one pass over the set's
 * valid prefix: returns the hit way, or -1 with *victim = the way a
 * fill uses (the first empty way, else the last, least recent way) */
static inline int64_t way_probe(const Ctx *c, int l, int64_t set,
                                int64_t line, int64_t *victim) {
    int64_t a = c->assoc[l];
    SPAN(set, 1, c->set_mask[l] + 1);
    const int64_t *t = c->tags[l] + set * a;
    int64_t w = 0;
    for (; w < a; w++) {
        int64_t v = t[w];
        if (v == line)
            return w;
        if (v == -1)
            break;
    }
    *victim = w < a ? w : a - 1;
    return -1;
}

static inline int64_t way_find(const Ctx *c, int l, int64_t set,
                               int64_t line) {
    int64_t victim;
    return way_probe(c, l, set, line, &victim);
}

/* put (tag, dirty) at way 0, moving ways 0..way-1 back by one (way
 * `way` is overwritten) */
static inline void to_front(Ctx *c, int l, int64_t set, int64_t way,
                            int64_t tag, uint8_t dirty) {
    SPAN(set, 1, c->set_mask[l] + 1);
    SPAN(way, 1, c->assoc[l]);
    int64_t *t = c->tags[l] + set * c->assoc[l];
    uint8_t *d = c->dirty[l] + set * c->assoc[l];
    memmove(t + 1, t, (size_t)way * sizeof *t);
    memmove(d + 1, d, (size_t)way);
    t[0] = tag;
    d[0] = dirty;
}

/* a hit: the line moves to way 0 with its dirty bit */
static inline void touch(Ctx *c, int l, int64_t set, int64_t way) {
    if (way == 0)
        return; /* already the most recent */
    int64_t i = set * c->assoc[l] + way;
    to_front(c, l, set, way, c->tags[l][i], c->dirty[l][i]);
}

/* fill an absent line at way 0, evicting from the victim way way_probe
 * chose for it (no access to that set may come between the probe and
 * the fill); returns 1 when a valid line was evicted (ev_line/ev_dirty
 * set), 0 when the way was empty (occupancy grows at the caller) */
static int fill_way(Ctx *c, int l, int64_t set, int64_t way, int64_t line,
                    int dirty, int64_t *ev_line, int *ev_dirty) {
    SPAN(set, 1, c->set_mask[l] + 1);
    SPAN(way, 1, c->assoc[l]);
    int64_t i = set * c->assoc[l] + way;
    int64_t old = c->tags[l][i];
    int evicted = old != -1;
    if (evicted) {
        *ev_line = old;
        *ev_dirty = c->dirty[l][i];
    }
    to_front(c, l, set, way, line, (uint8_t)dirty);
    return evicted;
}

/* drop a line, closing the hole so the valid ways stay a prefix;
 * returns -1 absent, else its dirty flag (0/1) */
static int cache_invalidate(Ctx *c, int l, int64_t line) {
    int64_t set = line & c->set_mask[l], a = c->assoc[l];
    int64_t w = way_find(c, l, set, line);
    if (w < 0)
        return -1;
    SPAN(set, 1, c->set_mask[l] + 1);
    SPAN(w, 1, a);
    int64_t *t = c->tags[l] + set * a;
    uint8_t *d = c->dirty[l] + set * a;
    int dirty = d[w];
    memmove(t + w, t + w + 1, (size_t)(a - 1 - w) * sizeof *t);
    memmove(d + w, d + w + 1, (size_t)(a - 1 - w));
    t[a - 1] = -1;
    d[a - 1] = 0;
    return dirty;
}

static inline int contains(const Ctx *c, int l, int64_t line) {
    return way_find(c, l, line & c->set_mask[l], line) >= 0;
}

/* ------------------------------------------------------------------ */
/* prefetched-line hash set                                            */
/* ------------------------------------------------------------------ */

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
    SPAN(i, 1, mask + 1);
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

/* put a page at the front of a level's valid prefix, moving entries
 * 0..n-1 back by one (entry n, below the level's `entries`, is
 * overwritten) */
static inline void tlb_push(int64_t *pages, int64_t n, int64_t entries,
                            int64_t page) {
    SPAN(0, n + 1, entries);
    memmove(pages + 1, pages, (size_t)n * sizeof *pages);
    pages[0] = page;
}

static void tlb_fill(Ctx *c, int64_t page) {
    int64_t *r = c->tlb_regs;
    if (r[0] >= c->tlb1_entries) {
        /* L1 full: its last entry is the least recent; it moves to the
         * front of L2, over L2's oldest insertion when L2 is full */
        r[0] -= 1;
        if (r[1] >= c->tlb2_entries)
            r[1] -= 1;
        tlb_push(c->tlb2_pages, r[1], c->tlb2_entries,
                 c->tlb1_pages[r[0]]);
        r[1] += 1;
    }
    tlb_push(c->tlb1_pages, r[0], c->tlb1_entries, page);
    r[0] += 1;
}

static int64_t tlb_translate(Ctx *c, int64_t page, int64_t *o) {
    int64_t *r = c->tlb_regs;
    SPAN(0, r[0], c->tlb1_entries);
    SPAN(0, r[1], c->tlb2_entries);
    o[O_TACC] += 1;
    int64_t *p = c->tlb1_pages;
    for (int64_t k = 0; k < r[0]; k++)
        if (p[k] == page) {
            tlb_push(p, k, c->tlb1_entries, page);
            o[O_T1H] += 1;
            return 0;
        }
    p = c->tlb2_pages;
    for (int64_t k = 0; k < r[1]; k++)
        if (p[k] == page) {
            r[1] -= 1;
            memmove(p + k, p + k + 1, (size_t)(r[1] - k) * sizeof *p);
            p[r[1]] = -1;
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
    if (page != c->regs[0]) {
        c->regs[0] = page;
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

/* count n lines of DRAM traffic in one HM_* column of a home's row */
static inline void home_add(Ctx *c, int64_t home, int col, int64_t n) {
    c->homes[home * HM_FIELDS + col] += n;
}

static void absorb(Ctx *c, int l, int64_t line, int64_t home, int64_t *o);

/* fill a line into level l (0 = L1) at the set and victim way of a
 * way_probe miss; a dirty victim is absorbed by the next level, or
 * written back from L3 */
static void fill(Ctx *c, int l, int64_t set, int64_t way, int64_t line,
                 int dirty, int64_t home, int64_t *o) {
    static const int ev[3] = {O_E1, O_E2, O_E3};
    static const int dv[3] = {O_C1D, O_C2D, O_C3D};
    static const int occ[3] = {O_OCC1, O_OCC2, O_OCC3};
    int64_t evl;
    int evd;
    if (!fill_way(c, l, set, way, line, dirty, &evl, &evd)) {
        o[occ[l]] += 1;
        return;
    }
    o[ev[l]] += 1;
    if (!evd)
        return;
    o[dv[l]] += 1;
    if (l < 2) {
        absorb(c, l + 1, evl, home, o);
    } else {
        o[O_WBK] += 1;
        home_add(c, home, HM_WRITES, 1);
    }
}

/* a dirty victim reaching level l: marked dirty in place when resident
 * (no recency touch), else filled dirty */
static void absorb(Ctx *c, int l, int64_t line, int64_t home, int64_t *o) {
    static const int cf[3] = {O_C1F, O_C2F, O_C3F};
    int64_t set = line & c->set_mask[l], victim;
    int64_t w = way_probe(c, l, set, line, &victim);
    if (w >= 0) {
        c->dirty[l][set * c->assoc[l] + w] = 1;
        return;
    }
    o[cf[l]] += 1;
    fill(c, l, set, victim, line, 1, home, o);
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
    home_add(c, home, HM_PREFETCH_READS, 1);
    o[O_C3F] += 1;
    fill(c, 2, set3, victim, line, 0, home, o);
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
    fill(c, 1, set2, victim, line, 0, home, o);
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

/* a tracker table's slot for `key` (keys, lruv; regs = [tick, count]),
 * stamped most recent: a new key (*fresh = 1) takes the first free slot,
 * after the least recently used entry leaves a full table */
static inline int64_t tracker_slot(int64_t *keys, int64_t *lruv,
                                   int64_t *regs, int64_t n, int64_t key,
                                   int *fresh) {
    int64_t i = 0;
    regs[0] += 1;
    while (i < n && keys[i] != key)
        i++;
    *fresh = i == n;
    if (*fresh) {
        if (regs[1] >= n) {
            int64_t v = 0;
            for (int64_t k = 1; k < n; k++)
                if (lruv[k] < lruv[v])
                    v = k;
            keys[v] = -1;
            regs[1] -= 1;
        }
        for (i = 0; keys[i] != -1; i++)
            ;
        keys[i] = key;
        regs[1] += 1;
    }
    SPAN(i, 1, n);
    SPAN(0, regs[1], n);
    lruv[i] = regs[0];
    return i;
}

static void sm_observe(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int64_t page = line / c->sm_lpp;
    int fresh;
    int64_t i = tracker_slot(c->sm_keys, c->sm_lruv, c->sm_regs,
                             c->sm_trackers, page, &fresh);
    if (fresh) {
        c->sm_last[i] = line;
        c->sm_dirn[i] = 0;
        c->sm_conf[i] = 0;
        c->sm_front[i] = line;
        return;
    }
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
    int fresh;
    int64_t i = tracker_slot(c->st_keys, c->st_lruv, c->st_regs,
                             c->st_sites, sid, &fresh);
    if (fresh) {
        c->st_last[i] = line;
        c->st_strd[i] = 0;
        c->st_conf[i] = 0;
        return;
    }
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
        if (is_write) /* the line is at way 0 now */
            c->dirty[0][set1 * c->assoc[0]] = 1;
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
            home_add(c, home, HM_DEMAND_READS, 1);
            if (remote) {
                o[O_REM] += 1;
                home_add(c, home, HM_REMOTE_LINES, 1);
            }
            fill(c, 2, set3, v3, line, 0, home, o);
        }
        fill(c, 1, set2, v2, line, 0, home, o);
    }
    fill(c, 0, set1, v1, line, is_write, home, o);
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
        fill(c, 1, set2, v2, line, 0, home, o);
    }
    o[O_C1F] += 1;
    fill(c, 0, set1, v1, line, 0, home, o);
    pf_add(c, line);
}

/* drop a line from every level; returns 1 when some copy was dirty */
static int invalidate_all(Ctx *c, int64_t line, int64_t *o) {
    static const int inv[3] = {O_C1I, O_C2I, O_C3I};
    static const int occ[3] = {O_OCC1, O_OCC2, O_OCC3};
    int dirty = 0;
    for (int l = 0; l < 3; l++) {
        int d = cache_invalidate(c, l, line);
        if (d >= 0) {
            o[inv[l]] += 1;
            o[occ[l]] -= 1;
            dirty |= d;
        }
    }
    return dirty;
}

static void flush_line(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    if (invalidate_all(c, line, o)) {
        o[O_WBK] += 1;
        home_add(c, home, HM_WRITES, 1);
    }
}

static void nt_line(Ctx *c, int64_t line, int64_t *o) {
    page_check(c, line, o);
    invalidate_all(c, line, o);
}

/* one line of a plan run or nest site, dispatched on its opcode (OP_*) */
static inline void op_line(Ctx *c, int64_t op, int64_t line, int64_t sid,
                           int64_t home, int remote, int64_t *o) {
    if (op == OP_DEMAND_READ || op == OP_DEMAND_WRITE) {
        demand_line(c, line, sid, op == OP_DEMAND_WRITE, home, remote, o);
    } else if (op == OP_PREFETCH) {
        o[O_SWP] += 1;
        swpf_line(c, line, home, o);
    } else if (op == OP_FLUSH) {
        o[O_FLS] += 1;
        flush_line(c, line, home, o);
    } else { /* OP_NTSTORE */
        o[O_ACC] += 1;
        o[O_NTL] += 1;
        home_add(c, home, HM_WRITES, 1);
        if (remote) {
            o[O_REM] += 1;
            home_add(c, home, HM_REMOTE_LINES, 1);
        }
        nt_line(c, line, o);
    }
}

/* ------------------------------------------------------------------ */
/* entry points                                                        */
/* ------------------------------------------------------------------ */

int64_t repro_execute_plan(Ctx *c, int64_t nruns, const int64_t *meta,
                           const int64_t *lines, const int64_t *sids,
                           int64_t *o) {
    for (int64_t i = 0; i < O_COUNT; i++)
        o[i] = 0;
    for (int64_t r = 0; r < nruns; r++) {
        const int64_t *m = meta + r * RM_FIELDS;
        int64_t op = m[RM_OP], home = m[RM_HOME], n = m[RM_N];
        int64_t sid = m[RM_SID]; /* -1: per-line ids in sids[] */
        int remote = (int)m[RM_REMOTE];
        const int64_t *L = lines + m[RM_OFF], *S = sids + m[RM_OFF];
        for (int64_t k = 0; k < n; k++)
            op_line(c, op, L[k], sid >= 0 ? sid : S[k], home, remote, o);
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* whole-nest execution                                                */
/* ------------------------------------------------------------------ */

static inline void nest_range(Ctx *c, const int64_t *s, int64_t lo,
                              int64_t hi, int64_t *o) {
    int64_t op = s[NS_OP], sid = s[NS_SID], home = s[NS_HOME];
    int remote = (int)s[NS_REMOTE];
    for (int64_t l = lo; l <= hi; l++)
        op_line(c, op, l, sid, home, remote, o);
}

/* a site column plus its iv terms at the current outer induction-variable
 * values: an affine site's byte base (col NS_BASE) or a gather's
 * index-table position (col NS_INDEX) */
static inline int64_t nest_at(const int64_t *s, int col, const int64_t *iv,
                              int64_t depth) {
    int64_t b = s[col];
    for (int64_t k = 0; k < depth; k++)
        b += iv[k] * s[NS_IVS + k];
    return b;
}

/* an affine site's window at byte `pos` under the monotone frontier: the
 * lines past *last, which advances to the window's end */
static inline void frontier(Ctx *c, const int64_t *s, int64_t pos,
                            int64_t shift, int64_t *last, int64_t *o) {
    int64_t first = pos >> shift, end = (pos + s[NS_WIDTH] - 1) >> shift;
    if (end <= *last)
        return;
    nest_range(c, s, first > *last ? first : *last + 1, end, o);
    *last = end;
}

/* ------------------------------------------------------------------ */
/* steady-stream fast-forward                                          */
/* ------------------------------------------------------------------ */

/* A flat loop whose sites are all demand accesses at one positive byte
 * stride reaches the hierarchy only through demand_line and the
 * prefetches it issues, and every step of that path commutes with
 * shifting all lines by P: P is a multiple of every level's set count,
 * of the lines per page and of each enabled engine's page (the stream
 * engine's times its trackers), so set indices, page boundaries and
 * tracker pages stay put, and homes come from the sites.  When the
 * stride divides P lines, a period of the loop later its line stream is
 * the same stream shifted by P.  So once the state at one period
 * boundary equals the state at the one before shifted by P, every later
 * period repeats that period shifted again, and ff_skip applies whole
 * periods at once.  docs/ENGINE.md, "Steady-stream fast-forward", says
 * which parts of the state compare how and why that is exact.  The copy
 * of the state at the earlier boundary lives in ff_words, laid out as
 * FfMap says, and ff_dirty, which holds the dirty bytes at the tags'
 * offsets. */

/* a tracker table's columns in copy order; the stride table has no
 * FC_FRONT */
enum { FC_KEY, FC_LAST, FC_DIR, FC_CONF, FC_LRU, FC_FRONT };
enum { FF_SM_COLS = 6, FF_ST_COLS = 5 };

/* where each part of the copy starts in ff_words: regs holds the two
 * TLB counts and the last page; sm and st a tracker table's columns,
 * then its [tick, count]; pf the sizes of two prefetched-line lists,
 * the copy's and the live state's, then the lists */
typedef struct {
    int64_t tags[3], tlb1, tlb2, regs, out, homes, sm, st, pf, end;
} FfMap;

/* a loop that may fast-forward: the shift P in lines, the distance B in
 * lines from a demand line within which its prefetched-set accesses
 * fall, and its sites with their frontiers */
typedef struct {
    int64_t P, B, ns, sw;
    const int64_t *S0, *last;
} FfLoop;

static inline int64_t ff_ways(const Ctx *c, int l) {
    return (c->set_mask[l] + 1) * c->assoc[l];
}

static FfMap ff_map(const Ctx *c) {
    FfMap m;
    m.tags[0] = 0;
    m.tags[1] = ff_ways(c, 0);
    m.tags[2] = m.tags[1] + ff_ways(c, 1);
    m.tlb1 = m.tags[2] + ff_ways(c, 2);
    m.tlb2 = m.tlb1 + c->tlb1_entries;
    m.regs = m.tlb2 + c->tlb2_entries;
    m.out = m.regs + 3;
    m.homes = m.out + O_COUNT;
    m.sm = m.homes + c->nhomes * HM_FIELDS;
    m.st = m.sm + FF_SM_COLS * c->sm_trackers + 2;
    m.pf = m.st + FF_ST_COLS * c->st_sites + 2;
    m.end = m.pf + 2 + 2 * FF_PF_LINES;
    SPAN(0, m.end, c->ff_nwords);
    SPAN(0, m.tlb1, c->ff_nbytes);
    return m;
}

static void ff_columns(const Ctx *c, int64_t **sm, int64_t **st) {
    sm[FC_KEY] = c->sm_keys;
    sm[FC_LAST] = c->sm_last;
    sm[FC_DIR] = c->sm_dirn;
    sm[FC_CONF] = c->sm_conf;
    sm[FC_LRU] = c->sm_lruv;
    sm[FC_FRONT] = c->sm_front;
    st[FC_KEY] = c->st_keys;
    st[FC_LAST] = c->st_last;
    st[FC_DIR] = c->st_strd;
    st[FC_CONF] = c->st_conf;
    st[FC_LRU] = c->st_lruv;
}

/* the lines the sites cover together once each has advanced t lines
 * from its first line at the current ivs: a site covers the lines from
 * its own first line up to the next site's above it, at most t (sites on
 * one line count once), so k disjoint streams cover k * t lines, and one
 * stream, or sites on overlapping lines, t plus the few lines between
 * them */
static int64_t ff_cover(const int64_t *S0, int64_t ns, int64_t sw,
                        const int64_t *iv, int64_t depth, int64_t shift,
                        int64_t t) {
    int64_t cover = 0;
    for (int64_t s = 0; s < ns; s++) {
        int64_t b = nest_at(S0 + s * sw, NS_BASE, iv, depth) >> shift;
        int64_t gap = t;
        for (int64_t u = 0; u < ns; u++) {
            int64_t a = nest_at(S0 + u * sw, NS_BASE, iv, depth) >> shift;
            if ((a > b || (a == b && u > s)) && a - b < gap)
                gap = a - b;
        }
        cover += gap;
    }
    return cover;
}

/* the shift P in lines when flat node nd may fast-forward at the outer
 * ivs `iv`, else 0 (and *tp, *first untouched): the loop must run on past
 * its first period boundary at which its sites together have swept the
 * onset (ff_cover), *first, for a copy there, a comparison one period
 * (*tp trips) later and at least one period to skip.  The onset is the
 * larger of the L1 and L2 lines and the first TLB level's reach, since
 * older ways of the L3 and the second TLB level may sink (ff_split), and
 * the sites must have swept the L2's lines one period earlier.  The
 * boundary only schedules the copy; ff_steady alone decides whether
 * a period is skipped */
static int64_t ff_period(const Ctx *c, const int64_t *nd, const int64_t *S0,
                         int64_t sw, const int64_t *iv, int64_t depth,
                         int64_t shift, int64_t *tp, int64_t *first) {
    int64_t stride = S0[NS_STRIDE];
    if (stride <= 0)
        return 0;
    for (int64_t s = 0; s < nd[NN_NSITES]; s++) {
        const int64_t *S = S0 + s * sw;
        if (S[NS_STRIDE] != stride
            || (S[NS_OP] != OP_DEMAND_READ && S[NS_OP] != OP_DEMAND_WRITE))
            return 0;
        /* the stride engine's confidence rule needs a tracker per site */
        for (int64_t u = 0; c->st_on && u < s; u++)
            if (S0[u * sw + NS_SID] == S[NS_SID])
                return 0;
    }
    int64_t P = (int64_t)1 << c->page_shift;
    for (int l = 0; l < 3; l++)
        if (c->set_mask[l] + 1 > P)
            P = c->set_mask[l] + 1;
    /* a period turns the stream table over whole, so its slots repeat */
    int64_t nl = c->nl_on ? c->nl_lpp : 1;
    int64_t sm = c->sm_on ? c->sm_lpp * c->sm_trackers : 1;
    if (nl > P)
        P = nl;
    if (sm > P)
        P = sm;
    if (P % nl || P % sm || (P << shift) % stride)
        return 0;
    int64_t ns = nd[NN_NSITES], period = (P << shift) / stride;
    int64_t onset = ff_ways(c, 0) + ff_ways(c, 1);
    int64_t reach = c->tlb1_entries << c->page_shift;
    if (reach > onset)
        onset = reach;
    /* j periods move each site j * P lines; the sites cover at least
     * that and at most ns times it */
    int64_t j = (onset + ns * P - 1) / (ns * P);
    /* the copy's oldest loop lines must also have left the L2 a period
     * before it, or a period could still dirty them in the L3 */
    int64_t gone = ff_ways(c, 1);
    while ((j + 2) * period <= nd[NN_TRIPS]
           && (ff_cover(S0, ns, sw, iv, depth, shift, j * P) < onset
               || (j ? ff_cover(S0, ns, sw, iv, depth, shift, (j - 1) * P)
                     : 0) < gone))
        j++;
    if ((j + 2) * period > nd[NN_TRIPS])
        return 0;
    *tp = period;
    *first = j * period;
    return P;
}

/* the farthest a prefetched-set access lies from the demand line that
 * causes it: next-line one line up, the stream engine its distance
 * either way within a page, the stride engine degree times its largest
 * stride either way */
static int64_t ff_reach(const Ctx *c) {
    int64_t b = c->nl_on ? 1 : 0;
    if (c->sm_on && c->sm_dist > b)
        b = c->sm_dist;
    if (c->st_on && c->st_deg * c->st_maxs > b)
        b = c->st_deg * c->st_maxs;
    return b;
}

/* does `line` lie within [lo, hi] lines of some site's frontier? */
static int ff_within(const FfLoop *f, int64_t line, int64_t lo, int64_t hi) {
    for (int64_t s = 0; s < f->ns; s++)
        if (line >= f->last[s] + lo && line <= f->last[s] + hi)
            return 1;
    return 0;
}

static int ff_site_sid(const FfLoop *f, int64_t sid) {
    for (int64_t s = 0; s < f->ns; s++)
        if (f->S0[s * f->sw + NS_SID] == sid)
            return 1;
    return 0;
}

static int ff_cmp_line(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* the prefetched lines within [lo, hi] lines of some frontier, sorted
 * into buf; their count, or -1 when there are more than FF_PF_LINES.
 * Only the blocks the touched map marks are read. */
static int64_t ff_pf_collect(const Ctx *c, const FfLoop *f, int64_t lo,
                             int64_t hi, int64_t *buf) {
    int64_t size = c->pf_mask + 1, n = 0;
    int64_t nblocks = size >> PF_BLOCK_SHIFT ? size >> PF_BLOCK_SHIFT : 1;
    for (int64_t b = 0; b < nblocks && c->pf_regs[0]; b++) {
        SPAN(b, 1, nblocks);
        if (!c->pf_touched[b])
            continue;
        int64_t i = b << PF_BLOCK_SHIFT, end = (b + 1) << PF_BLOCK_SHIFT;
        if (end > size)
            end = size;
        SPAN(i, end - i, size);
        for (; i < end; i++) {
            int64_t v = c->pf_slots[i];
            if (!v || !ff_within(f, v - 1, lo, hi))
                continue;
            if (n == FF_PF_LINES)
                return -1;
            buf[n++] = v - 1;
        }
    }
    qsort(buf, (size_t)n, sizeof *buf, ff_cmp_line);
    return n;
}

/* copy the state and the counters at a period boundary, with the
 * prefetched lines the next `most` + 1 periods may reach; 0 when there
 * are more of those than the copy holds */
static int ff_save(Ctx *c, const int64_t *o, const FfLoop *f, int64_t most) {
    FfMap m = ff_map(c);
    int64_t *w = c->ff_words;
    SPAN(m.pf + 2, FF_PF_LINES, m.end);
    int64_t n = ff_pf_collect(c, f, 1 - f->B, most * f->P + f->B,
                              w + m.pf + 2);
    if (n < 0)
        return 0;
    w[m.pf] = n;
    for (int l = 0; l < 3; l++) {
        int64_t k = ff_ways(c, l);
        memcpy(w + m.tags[l], c->tags[l], (size_t)k * sizeof *w);
        memcpy(c->ff_dirty + m.tags[l], c->dirty[l], (size_t)k);
    }
    memcpy(w + m.tlb1, c->tlb1_pages, (size_t)c->tlb1_entries * sizeof *w);
    memcpy(w + m.tlb2, c->tlb2_pages, (size_t)c->tlb2_entries * sizeof *w);
    w[m.regs] = c->tlb_regs[0];
    w[m.regs + 1] = c->tlb_regs[1];
    w[m.regs + 2] = c->regs[0];
    memcpy(w + m.out, o, O_COUNT * sizeof *w);
    memcpy(w + m.homes, c->homes,
           (size_t)(c->nhomes * HM_FIELDS) * sizeof *w);
    int64_t *sm[FF_SM_COLS], *st[FF_ST_COLS];
    int64_t nsm = c->sm_trackers, nst = c->st_sites;
    ff_columns(c, sm, st);
    for (int k = 0; k < FF_SM_COLS; k++) {
        SPAN(m.sm + k * nsm, nsm, m.st);
        memcpy(w + m.sm + k * nsm, sm[k], (size_t)nsm * sizeof *w);
    }
    w[m.sm + FF_SM_COLS * nsm] = c->sm_regs[0];
    w[m.sm + FF_SM_COLS * nsm + 1] = c->sm_regs[1];
    for (int k = 0; k < FF_ST_COLS; k++) {
        SPAN(m.st + k * nst, nst, m.pf);
        memcpy(w + m.st + k * nst, st[k], (size_t)nst * sizeof *w);
    }
    w[m.st + FF_ST_COLS * nst] = c->st_regs[0];
    w[m.st + FF_ST_COLS * nst + 1] = c->st_regs[1];
    return 1;
}

static inline int ff_conf_eq(int64_t a, int64_t b, int64_t thr) {
    return a == b || (a >= thr && b >= thr);
}

/* do the valid slots' stamps (lruv) rank as the copy's (lx) do? */
static int ff_ranked(const int64_t *keys, const int64_t *lruv,
                     const int64_t *lx, int64_t n) {
    for (int64_t i = 0; i < n; i++) {
        if (keys[i] == -1)
            continue;
        for (int64_t j = i + 1; j < n; j++)
            if (keys[j] != -1 && (lruv[i] < lruv[j]) != (lx[i] < lx[j]))
                return 0;
    }
    return 1;
}

/* do the enabled engines' tracker tables equal the copy's, slot for
 * slot, under the shift?  A stream tracker moves P lines-per-page pages
 * and its lines P on; a stride tracker keeps its key and, for one of
 * the loop's sites, moves its last line P on, while any other stays as
 * it is.  Stamps compare by rank and confidences saturated at their
 * threshold, since only the smallest stamp and conf < thr are read */
static int ff_trackers_steady(const Ctx *c, const FfMap *m,
                              const FfLoop *f) {
    int64_t *sm[FF_SM_COLS], *st[FF_ST_COLS], P = f->P;
    ff_columns(c, sm, st);
    if (c->sm_on) {
        int64_t n = c->sm_trackers, dk = P / c->sm_lpp;
        const int64_t *x = c->ff_words + m->sm;
        SPAN(m->sm, FF_SM_COLS * n + 2, m->st);
        if (c->sm_regs[1] != x[FF_SM_COLS * n + 1])
            return 0;
        for (int64_t i = 0; i < n; i++) {
            int64_t key = sm[FC_KEY][i], kx = x[FC_KEY * n + i];
            if (key == -1 || kx == -1) {
                if (key != kx)
                    return 0;
                continue;
            }
            if (key != kx + dk || sm[FC_LAST][i] != x[FC_LAST * n + i] + P
                || sm[FC_FRONT][i] != x[FC_FRONT * n + i] + P
                || sm[FC_DIR][i] != x[FC_DIR * n + i]
                || !ff_conf_eq(sm[FC_CONF][i], x[FC_CONF * n + i],
                               c->sm_thr))
                return 0;
        }
        if (!ff_ranked(sm[FC_KEY], sm[FC_LRU], x + FC_LRU * n, n))
            return 0;
    }
    if (c->st_on) {
        int64_t n = c->st_sites;
        const int64_t *x = c->ff_words + m->st;
        SPAN(m->st, FF_ST_COLS * n + 2, m->pf);
        if (c->st_regs[1] != x[FF_ST_COLS * n + 1])
            return 0;
        for (int64_t i = 0; i < n; i++) {
            int64_t key = st[FC_KEY][i];
            if (key != x[FC_KEY * n + i])
                return 0;
            if (key == -1)
                continue;
            int ours = ff_site_sid(f, key);
            if (st[FC_LAST][i] != x[FC_LAST * n + i] + (ours ? P : 0)
                || st[FC_DIR][i] != x[FC_DIR * n + i])
                return 0;
            if (ours ? !ff_conf_eq(st[FC_CONF][i], x[FC_CONF * n + i],
                                   c->st_thr)
                     : (st[FC_CONF][i] != x[FC_CONF * n + i]
                        || st[FC_LRU][i] != x[FC_LRU * n + i]))
                return 0;
        }
        if (!ff_ranked(st[FC_KEY], st[FC_LRU], x + FC_LRU * n, n))
            return 0;
    }
    return 1;
}

/* is `line` in the strip the last period left behind, [1 - B - P, -B]
 * lines from some frontier, and in no frontier's zone, [1 - B, most P +
 * B]?  Later periods never reach it again */
static int ff_behind(const FfLoop *f, int64_t line, int64_t most) {
    return ff_within(f, line, 1 - f->B - f->P, -f->B)
        && !ff_within(f, line, 1 - f->B, most * f->P + f->B);
}

/* the periods, at most `most`, over which the prefetched lines the loop
 * reaches repeat the copy's shifted by P, else 0.  The live lines within
 * the zone, [1 - B, most P + B] lines of a frontier, must be the copy's
 * moved P up; a line in one list only (one an earlier loop left ahead
 * of this one) caps the periods at the last whose reach stays below it.
 * A line in the strip the last period left behind must lie outside the
 * zone.  The live list stays in the copy for ff_skip */
static int64_t ff_pf_steady(Ctx *c, const FfMap *m, const FfLoop *f,
                            int64_t most) {
    int64_t *w = c->ff_words, P = f->P, B = f->B;
    const int64_t *x = w + m->pf + 2;
    int64_t *y = w + m->pf + 2 + FF_PF_LINES;
    int64_t nx = w[m->pf];
    SPAN(m->pf + 2, nx, m->pf + 2 + FF_PF_LINES);
    SPAN(m->pf + 2 + FF_PF_LINES, FF_PF_LINES, m->end);
    int64_t ny = ff_pf_collect(c, f, 1 - B - P, most * P + B, y);
    w[m->pf + 1] = ny;
    if (ny < 0)
        return 0;
    int64_t i = 0, j = 0, periods = most;
    while (i < nx || j < ny) {
        int64_t e;
        if (j < ny && ff_within(f, y[j], 1 - B - P, -B)) {
            if (!ff_behind(f, y[j], most))
                return 0;
            j++;
            continue;
        }
        if (j == ny || (i < nx && x[i] + P < y[j])) {
            e = x[i++] + P;
        } else if (i == nx || y[j] < x[i] + P) {
            e = y[j++];
        } else {
            i++;
            j++;
            continue;
        }
        /* the skipped periods reach up to (periods P + B) past each
         * frontier: they must stop short of e */
        for (int64_t s = 0; s < f->ns; s++) {
            int64_t d = e - f->last[s] - B - 1;
            if (e >= f->last[s] + 1 - B && (d < 0 ? 0 : d / P) < periods)
                periods = d < 0 ? 0 : d / P;
        }
    }
    return periods;
}

/* The split of one recency stack, an L3 set or the second TLB level
 * (its -1 entries past the count), between the live ways y and the
 * copy's x one period back: ways [0, k) equal the copy's under the shift
 * sh (dirty bytes too, when dy is given), and ways [k, a) are the copy's
 * from k - n on, moved down by the n insertions of a period.  Those are
 * the older ways (older data, or empty), and above them the copy's
 * oldest n ways of the top, which the period retired unshifted.  Returns
 * 0 when there is no such split, 1 when n is pinned to the period's
 * insertions, by a way the stack did not fill (a -1 at its end) or by a
 * valid way of the copy's [k, a) that sank by n, and 2 when only the
 * retired ways could pin it: the caller must show the period never read
 * them.  k = a (n = 0) is the full comparison */
static int ff_split(const int64_t *y, const uint8_t *dy, const int64_t *x,
                    const uint8_t *dx, int64_t a, int64_t sh, int64_t *kp,
                    int64_t *np) {
    int64_t k = 0;
    while (k < a && y[k] == (x[k] == -1 ? -1 : x[k] + sh)
           && (!dy || dy[k] == dx[k]))
        k++;
    *kp = k;
    *np = 0;
    if (k == a)
        return 1;
    if (y[k] == -1)
        return 0;
    int64_t q = k - 1;
    while (q >= 0 && x[q] != y[k])
        q--;
    if (q < 0)
        return 0;
    int64_t n = k - q;
    int pinned = y[a - 1] == -1;
    for (int64_t p = k; p < a; p++) {
        if (y[p] != x[p - n] || (dy && dy[p] != dx[p - n]))
            return 0;
        pinned |= p - n >= k && x[p - n] != -1;
    }
    *np = n;
    return pinned ? 1 : 2;
}

/* the split of L3 set `set`, live against the copy */
static int ff_split3(const Ctx *c, const FfMap *m, const FfLoop *f,
                     int64_t set, int64_t *k, int64_t *n) {
    int64_t a = c->assoc[2], i = set * a;
    SPAN(i, a, ff_ways(c, 2));
    return ff_split(c->tags[2] + i, c->dirty[2] + i,
                    c->ff_words + m->tags[2] + i,
                    c->ff_dirty + m->tags[2] + i, a, f->P, k, n);
}

/* the first period in which some site reaches a line of [lo, hi]:
 * period j + 1 of a site reaches [last + j P + 1 - below, last + (j + 1)
 * P + above].  A large value when every site has passed the range */
static int64_t ff_reached(const FfLoop *f, int64_t lo, int64_t hi,
                          int64_t below, int64_t above) {
    int64_t first = INT64_MAX;
    for (int64_t s = 0; s < f->ns; s++) {
        int64_t last = f->last[s];
        if (hi < last + 1 - below)
            continue;
        int64_t d = lo - last - above - 1, j = d <= 0 ? 0 : d / f->P;
        if (j < first)
            first = j;
    }
    return first;
}

/* does the copy hold `line` in level l (0 = L1, 1 = L2)? */
static int ff_copied(const Ctx *c, const FfMap *m, int l, int64_t line) {
    int64_t a = c->assoc[l];
    const int64_t *t = c->ff_words + m->tags[l] + (line & c->set_mask[l]) * a;
    for (int64_t i = 0; i < a && t[i] != -1; i++)
        if (t[i] == line)
            return 1;
    return 0;
}

/* does some site's [last + from, last + to] meet [lo, hi]? */
static inline int ff_near(const FfLoop *f, int64_t lo, int64_t hi,
                          int64_t from, int64_t to) {
    for (int64_t s = 0; s < f->ns; s++)
        if (hi >= f->last[s] + from && lo <= f->last[s] + to)
            return 1;
    return 0;
}

/* the periods, at most `periods`, a stack's bottom way at position p,
 * holding [lo, hi] (a line, or a page's lines reached by demand lines
 * alone: below = above = 0), may be skipped over: it sinks n ways a
 * period out of the a ways, and the skipped periods must not reach it
 * while it is there */
static int64_t ff_sink_cap(const FfLoop *f, int64_t periods, int64_t lo,
                           int64_t hi, int64_t below, int64_t above,
                           int64_t p, int64_t n, int64_t a) {
    int64_t there = (a - p + n - 1) / n;
    if (there > periods)
        there = periods;
    if (!ff_near(f, lo, hi, 1 - below, there * f->P + above))
        return periods;
    int64_t reached = ff_reached(f, lo, hi, below, above);
    return reached < periods && p + reached * n < a ? reached : periods;
}

/* the L3 sets' and the second TLB level's part of ff_steady: each must
 * split (ff_split).  The copy's older ways must lie beyond the copied period's reach,
 * so they sank unread; the live bottom ways [k, a) must lie beyond the
 * reach of the skipped periods while they sink out of the stack (that
 * caps the periods), and no line of L1 or L2, live or copied, may sit in
 * a bottom, where a dirty eviction would reach it.  Returns the periods,
 * at most `periods`, or 0 */
static int64_t ff_sunk_steady(const Ctx *c, const FfMap *m, const FfLoop *f,
                              int64_t periods) {
    const int64_t *w = c->ff_words;
    int64_t P = f->P, B = f->B, a = c->assoc[2], sets = c->set_mask[2] + 1;
    int64_t k, n, *split = NULL;
    for (int64_t set = 0; set < sets && periods; set++) {
        int pinned = ff_split3(c, m, f, set, &k, &n);
        if (!pinned)
            goto fail;
        if (k == a)
            continue;
        /* the sets' splits, for the L1 and L2 lines below: earlier sets
         * compared in full, later ones are filled in after the loop */
        if (!split) {
            if (!(split = malloc((size_t)sets * sizeof *split)))
                return 0;
            for (int64_t s = 0; s < sets; s++)
                split[s] = s < set ? a : -1;
        }
        split[set] = k;
        const int64_t *y = c->tags[2] + set * a;
        const int64_t *x = w + m->tags[2] + set * a;
        for (int64_t p = pinned == 2 ? k - n : k; p < k; p++)
            if (ff_near(f, x[p], x[p], 1 - B - P, B)
                || ff_copied(c, m, 0, x[p]) || ff_copied(c, m, 1, x[p]))
                goto fail;
        for (int64_t p = k; p < a; p++) {
            if (x[p] != -1 && ff_near(f, x[p], x[p], 1 - B - P, B))
                goto fail;
            if (y[p] != -1)
                periods = ff_sink_cap(f, periods, y[p], y[p], B, B, p, n, a);
        }
    }
    for (int64_t set = 0; split && set < sets; set++)
        if (split[set] < 0)
            ff_split3(c, m, f, set, &split[set], &n);
    int64_t ps = c->page_shift, e = c->tlb2_entries;
    const int64_t *y = c->tlb2_pages, *x = w + m->tlb2;
    int pinned = ff_split(y, NULL, x, NULL, e, P >> ps, &k, &n);
    if (!pinned)
        goto fail;
    for (int64_t p = k < e && pinned == 2 ? k - n : k; p < e && periods; p++) {
        if (x[p] != -1 && ff_near(f, x[p] << ps, ((x[p] + 1) << ps) - 1,
                                  1 - P, 0))
            goto fail;
        if (p >= k && y[p] != -1)
            periods = ff_sink_cap(f, periods, y[p] << ps,
                                  ((y[p] + 1) << ps) - 1, 0, 0, p, n, e);
    }
    /* no L1 or L2 line, live or copied, in a set's bottom */
    for (int l = 0; l < 2 && split && periods; l++) {
        int64_t ways = ff_ways(c, l);
        for (int side = 0; side < 2; side++) {
            const int64_t *t = side ? w + m->tags[l] : c->tags[l];
            for (int64_t i = 0; i < ways; i++) {
                int64_t v = t[i], set = v & c->set_mask[2];
                if (v == -1 || split[set] == a)
                    continue;
                const int64_t *s3 = (side ? w + m->tags[2] : c->tags[2])
                    + set * a;
                for (int64_t p = split[set]; p < a; p++)
                    if (s3[p] == v)
                        goto fail;
            }
        }
    }
    free(split);
    return periods;
fail:
    free(split);
    return 0;
}

/* the whole periods, at most `most`, that may be skipped from a boundary
 * where the state is compared with the copy one period back: 0 when it
 * is not the copy shifted by P lines.  L1, L2, the first TLB level, the
 * trackers and the prefetched zone compare in full; the L3 sets and the
 * second TLB level split (ff_sunk_steady).  Invalid ways (-1) and TLB
 * slots past the counts stay as they are */
static int64_t ff_steady(Ctx *c, const FfLoop *f, int64_t most) {
    FfMap m = ff_map(c);
    const int64_t *w = c->ff_words, *r = w + m.regs;
    int64_t P = f->P, dp = P >> c->page_shift;
    if (c->tlb_regs[0] != r[0] || c->regs[0] != r[2] + dp)
        return 0;
    SPAN(0, r[0], c->tlb1_entries);
    for (int64_t k = 0; k < r[0]; k++)
        if (c->tlb1_pages[k] != w[m.tlb1 + k] + dp)
            return 0;
    if (!ff_trackers_steady(c, &m, f))
        return 0;
    for (int l = 0; l < 2; l++) {
        int64_t n = ff_ways(c, l);
        const int64_t *t = c->tags[l], *s = w + m.tags[l];
        if (memcmp(c->dirty[l], c->ff_dirty + m.tags[l], (size_t)n))
            return 0;
        for (int64_t i = 0; i < n; i++)
            if (t[i] != (s[i] == -1 ? -1 : s[i] + P))
                return 0;
    }
    /* the prefetched zone first, over all `most` periods: ff_skip puts
     * back the lines the last period left behind by the same zone */
    int64_t periods = ff_pf_steady(c, &m, f, most);
    return periods ? ff_sunk_steady(c, &m, f, periods) : 0;
}

/* apply `periods` periods to a stack split at (k, n) with k < a: the top
 * [0, k) moves by periods * sh; below it the retired block, the copy's
 * x[k - n, k), repeats once per period, newest (shifted furthest) first,
 * above the older ways y[k + n, a) sunk by periods * n.  The ways pushed
 * past the end add to ev[] by kind: empty, valid, dirty */
static void ff_sink(int64_t *y, uint8_t *dy, const int64_t *x,
                    const uint8_t *dx, int64_t a, int64_t k, int64_t n,
                    int64_t periods, int64_t sh, int64_t *ev) {
    const int64_t *r = x + k - n;
    const uint8_t *dr = dx ? dx + k - n : NULL;
    int64_t mn = periods * n, blocks = k + (periods + 1) * n;
    /* pushed out of the repeated blocks: every way valid */
    int64_t nb = (a + mn < blocks ? a + mn : blocks) - a;
    if (nb > 0) {
        ev[1] += nb;
        for (int64_t i = 0; dr && i < n; i++) {
            /* block positions a - k .. a - k + nb - 1 hold r[i] where
             * position % n == i */
            int64_t from = (a - k - i + n - 1) / n, hi = a - k + nb - 1 - i;
            if (dr[i] && hi >= 0 && hi / n >= from)
                ev[2] += hi / n - from + 1;
        }
    }
    for (int64_t p = a - mn > k + n ? a - mn : k + n; p < a; p++) {
        if (y[p] == -1)
            ev[0] += 1;
        else
            ev[1] += 1, ev[2] += dy && dy[p];
    }
    for (int64_t p = a - 1; p >= k; p--) {
        int64_t q = p - k, b = q / n;
        if (b <= periods) {
            y[p] = r[q % n] + (periods - b) * sh;
            if (dy)
                dy[p] = dr[q % n];
        } else {
            y[p] = y[p - mn];
            if (dy)
                dy[p] = dy[p - mn];
        }
    }
    for (int64_t p = 0; p < k; p++)
        if (y[p] != -1)
            y[p] += periods * sh;
}

/* run `periods` more periods at once from a steady boundary that
 * ff_steady compared over `most` periods: the counters and homes rows
 * grow by that many times the period since the copy, less the copy's
 * evictions from the L3 sets that split and plus those sets' evictions
 * over the skipped periods (ff_sink), which are all the sites' home's
 * (Machine.load places every buffer of a program on one node); every valid line, TLB page, tracker and the last page move by
 * periods * P lines, and a split stack sinks instead (ff_sink); stamps
 * set in the period move on by the ticks of that many periods, and a
 * stride confidence that grew by one a line grows on; the prefetched
 * lines the skipped periods reach leave, those within B lines of a
 * frontier return periods * P up, and each line the last period left
 * behind returns once per period up to periods * P up.  The kinds of
 * L3 way the skipped periods filled or evicted (empty, clean, dirty)
 * are set in kinds[].  Returns the lines skipped */
static int64_t ff_skip(Ctx *c, const FfLoop *f, int64_t periods,
                       int64_t most, int64_t *kinds, int64_t *o) {
    FfMap m = ff_map(c);
    const int64_t *w = c->ff_words;
    int64_t P = f->P, B = f->B;
    int64_t dl = periods * P, dp = dl >> c->page_shift;
    /* the L3's evictions by kind (empty, valid, dirty): the copied
     * period's from split sets, and the skipped periods' */
    int64_t ev0[3] = {0, 0, 0}, ev[3] = {0, 0, 0};
    int64_t a = c->assoc[2], k, n;
    for (int64_t set = 0; set <= c->set_mask[2]; set++) {
        int64_t *t = c->tags[2] + set * a;
        ff_split3(c, &m, f, set, &k, &n);
        if (k == a) {
            for (int64_t i = 0; i < a; i++)
                if (t[i] != -1)
                    t[i] += dl;
            continue;
        }
        const int64_t *x = w + m.tags[2] + set * a;
        const uint8_t *dx = c->ff_dirty + m.tags[2] + set * a;
        for (int64_t p = a - n; p < a; p++) {
            if (x[p] == -1)
                ev0[0] += 1;
            else
                ev0[1] += 1, ev0[2] += dx[p];
        }
        ff_sink(t, c->dirty[2] + set * a, x, dx, a, k, n, periods, P, ev);
    }
    int64_t skipped = periods * (o[O_ACC] - w[m.out + O_ACC]);
    for (int64_t i = 0; i < O_COUNT; i++)
        o[i] += periods * (o[i] - w[m.out + i]);
    for (int64_t i = 0; i < c->nhomes * HM_FIELDS; i++)
        c->homes[i] += periods * (c->homes[i] - w[m.homes + i]);
    int64_t grew[3];
    for (int i = 0; i < 3; i++)
        grew[i] = ev[i] - periods * ev0[i];
    o[O_OCC3] += grew[0];
    o[O_E3] += grew[1];
    o[O_C3D] += grew[2];
    o[O_WBK] += grew[2];
    home_add(c, f->S0[NS_HOME], HM_WRITES, grew[2]);
    /* what the skipped periods filled or evicted, by kind */
    int64_t occ = o[O_OCC3] - w[m.out + O_OCC3], e3 = o[O_E3] - w[m.out + O_E3];
    int64_t c3d = o[O_C3D] - w[m.out + O_C3D];
    kinds[0] = occ > 0;
    kinds[1] = e3 > c3d;
    kinds[2] = c3d > 0;
    for (int l = 0; l < 2; l++) {
        int64_t *t = c->tags[l], nw = ff_ways(c, l);
        for (int64_t i = 0; i < nw; i++)
            if (t[i] != -1)
                t[i] += dl;
    }
    for (int64_t i = 0; i < c->tlb_regs[0]; i++)
        c->tlb1_pages[i] += dp;
    int64_t e = c->tlb2_entries;
    ff_split(c->tlb2_pages, NULL, w + m.tlb2, NULL, e, P >> c->page_shift,
             &k, &n);
    if (k == e) {
        for (int64_t i = 0; i < c->tlb_regs[1]; i++)
            c->tlb2_pages[i] += dp;
    } else {
        int64_t unused[3] = {0, 0, 0};
        ff_sink(c->tlb2_pages, NULL, w + m.tlb2, NULL, e, k, n, periods,
                P >> c->page_shift, unused);
        while (c->tlb_regs[1] < e && c->tlb2_pages[c->tlb_regs[1]] != -1)
            c->tlb_regs[1] += 1;
    }
    c->regs[0] += dp;
    int64_t *sm[FF_SM_COLS], *st[FF_ST_COLS];
    ff_columns(c, sm, st);
    if (c->sm_on) {
        int64_t n = c->sm_trackers, dk = periods * (P / c->sm_lpp);
        const int64_t *x = w + m.sm;
        SPAN(m.sm, FF_SM_COLS * n + 2, m.st);
        int64_t tick = x[FF_SM_COLS * n], ticks = c->sm_regs[0] - tick;
        for (int64_t i = 0; i < n; i++) {
            if (sm[FC_KEY][i] == -1)
                continue;
            sm[FC_KEY][i] += dk;
            sm[FC_LAST][i] += dl;
            sm[FC_FRONT][i] += dl;
            if (sm[FC_LRU][i] > tick)
                sm[FC_LRU][i] += periods * ticks;
        }
        c->sm_regs[0] += periods * ticks;
    }
    if (c->st_on) {
        int64_t n = c->st_sites;
        const int64_t *x = w + m.st;
        SPAN(m.st, FF_ST_COLS * n + 2, m.pf);
        int64_t tick = x[FF_ST_COLS * n], ticks = c->st_regs[0] - tick;
        for (int64_t i = 0; i < n; i++) {
            if (st[FC_KEY][i] == -1 || !ff_site_sid(f, st[FC_KEY][i]))
                continue;
            int64_t strd = st[FC_DIR][i];
            int64_t grew = st[FC_CONF][i] - x[FC_CONF * n + i];
            st[FC_LAST][i] += dl;
            if (strd > 0 && P % strd == 0 && grew == P / strd)
                st[FC_CONF][i] += periods * grew;
            if (st[FC_LRU][i] > tick)
                st[FC_LRU][i] += periods * ticks;
        }
        c->st_regs[0] += periods * ticks;
    }
    const int64_t *y = w + m.pf + 2 + FF_PF_LINES;
    int64_t ny = w[m.pf + 1];
    SPAN(m.pf + 2 + FF_PF_LINES, ny, m.end);
    for (int64_t k = 0; k < ny; k++)
        if (ff_within(f, y[k], 1 - B, dl + B))
            pf_discard(c, y[k]);
    for (int64_t k = 0; k < ny; k++) {
        if (ff_within(f, y[k], 1 - B, B)) {
            pf_add(c, y[k] + dl);
        } else if (ff_behind(f, y[k], most)) {
            /* a line left behind: each skipped period leaves its own */
            for (int64_t j = 1; j <= periods; j++)
                pf_add(c, y[k] + j * P);
        }
    }
    return skipped;
}

/* one flat-loop execution: Core._iter_interleaved (any number of sites
 * with non-negative own strides, closed-form skip between crossings,
 * whole steady periods fast-forwarded when the copy is allocated) or the
 * descending single-site frontier of Core._site_lines; counts the lines
 * it fast-forwarded, its copies, failed comparisons and skips by the
 * kinds of L3 way they filled or evicted in the nest state `st` */
static void nest_flat(Ctx *c, const int64_t *nd, const int64_t *sites,
                      int64_t sw, const int64_t *iv, int64_t depth,
                      int64_t shift, int64_t *scratch, int64_t *st,
                      int64_t *o) {
    int64_t trips = nd[NN_TRIPS], ns = nd[NN_NSITES];
    const int64_t *S0 = sites + nd[NN_SITE0] * sw;
    int64_t *base = scratch, *last = scratch + ns;
    if (ns == 1 && S0[NS_STRIDE] < 0) {
        int64_t b = nest_at(S0, NS_BASE, iv, depth), stride = S0[NS_STRIDE];
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
        base[s] = nest_at(S0 + s * sw, NS_BASE, iv, depth);
        last[s] = -1;
    }
    /* the next period boundary to copy or compare the state at, whether
     * a copy was taken one period before it, and the periods to wait
     * after the next mismatch */
    int64_t tp = 0, boundary = trips, wait = 0;
    int64_t P = c->ff_words
        ? ff_period(c, nd, S0, sw, iv, depth, shift, &tp, &boundary) : 0;
    FfLoop f = {P, ff_reach(c), ns, sw, S0, last};
    int copied = 0;
    int64_t t = 0;
    while (t < trips) {
        if (t >= boundary) {
            /* no trip in [boundary, t) emits a line, so the state now is
             * the state at the boundary */
            if (copied) {
                int64_t most = (trips - boundary) / tp;
                int64_t periods = ff_steady(c, &f, most), kinds[3];
                copied = 0;
                if (periods) {
                    st[NST_SKIPPED] += ff_skip(c, &f, periods, most, kinds, o);
                    st[NST_SKIPS_EMPTY] += kinds[0];
                    st[NST_SKIPS_CLEAN] += kinds[1];
                    st[NST_SKIPS_DIRTY] += kinds[2];
                    for (int64_t s = 0; s < ns; s++)
                        last[s] += periods * P;
                    /* a skip that stopped short of an older line copies
                     * again at once, with the backoff reset */
                    t += periods * tp;
                    boundary += periods * tp;
                    wait = 0;
                    continue;
                }
                /* wait 0, 1, 2, 4, ... periods before the next copy, so a
                 * loop that never settles makes few comparisons */
                st[NST_MISMATCHES] += 1;
                boundary += wait * tp;
                wait = wait ? 2 * wait : 1;
            }
            if (t >= boundary) {
                if (boundary + 2 * tp <= trips
                    && ff_save(c, o, &f, (trips - boundary) / tp - 1)) {
                    copied = 1;
                    st[NST_COPIES] += 1;
                    boundary += tp;
                } else {
                    boundary = trips;
                }
            }
        }
        for (int64_t s = 0; s < ns; s++) {
            const int64_t *S = S0 + s * sw;
            frontier(c, S, base[s] + t * S[NS_STRIDE], shift, &last[s], o);
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

/* one flat-loop execution with a gather (NK_FLAT_GATHER): every trip of
 * Core._iter_interleaved.  A gather site (NS_INDEX >= 0, its strides in
 * table entries) emits its window's [first, end] line pair, less the
 * lines equal to the last one it emitted */
static void nest_flat_gather(Ctx *c, const int64_t *nd, const int64_t *sites,
                             int64_t sw, const int64_t *iv, int64_t depth,
                             int64_t shift, const int64_t *tables,
                             int64_t *scratch, int64_t *o) {
    int64_t trips = nd[NN_TRIPS], ns = nd[NN_NSITES];
    const int64_t *S0 = sites + nd[NN_SITE0] * sw;
    int64_t *at = scratch, *last = scratch + ns;
    for (int64_t s = 0; s < ns; s++) {
        const int64_t *S = S0 + s * sw;
        at[s] = nest_at(S, S[NS_INDEX] < 0 ? NS_BASE : NS_INDEX, iv, depth);
        last[s] = -1;
    }
    for (int64_t t = 0; t < trips; t++) {
        for (int64_t s = 0; s < ns; s++) {
            const int64_t *S = S0 + s * sw;
            int64_t at_t = at[s] + t * S[NS_STRIDE];
            if (S[NS_INDEX] < 0) {
                frontier(c, S, at_t, shift, &last[s], o);
                continue;
            }
            int64_t pos = S[NS_BASE] + tables[at_t];
            int64_t first = pos >> shift;
            int64_t end = (pos + S[NS_WIDTH] - 1) >> shift;
            if (first != last[s])
                nest_range(c, S, first, first, o);
            if (end != first)
                nest_range(c, S, end, end, o);
            last[s] = end;
        }
    }
}

/* Walk a nest descriptor from state[NST_PC], executing every phase
 * (flat-loop execution, straight-line access, or memory-free phase) in
 * program order; gather sites read byte offsets from `tables`, the
 * program's index tables packed back to back.  After each phase the
 * cumulative counter block is copied into row `r` of `rows` (O_COUNT
 * columns) and the phase's node index into row_node[r]; per-home DRAM
 * traffic accumulates in ctx->homes for the whole call.  Stops at a
 * phase boundary when `max_rows` rows are written, or when the
 * prefetched-line set lacks room for the next phase's worst case
 * (NN_BOUND lines; state[NST_NEED] then holds the inserts to reserve),
 * or when the next phase may fast-forward but ctx->ff_words is NULL
 * (state[NST_FFWD] = 1: allocate the copy and call again).  Lines
 * fast-forwarded add to state[NST_SKIPPED], and the fast-forward's
 * copies, failed comparisons and skips by kind to the words after it.
 * Returns the rows written;
 * the walk is done when state[NST_PC] reaches NH_NODES. */
int64_t repro_execute_nest(Ctx *c, const int64_t *hdr, const int64_t *nodes,
                           const int64_t *sites, const int64_t *tables,
                           int64_t *state, int64_t *rows, int64_t *row_node,
                           int64_t max_rows, int64_t *o) {
    int64_t nnodes = hdr[NH_NODES], depth = hdr[NH_DEPTH];
    int64_t shift = hdr[NH_SHIFT], sw = NS_IVS + depth;
    int64_t *iv = state + NST_IVS, *scratch = iv + depth;
    int64_t pc = state[NST_PC], nrows = 0;
    state[NST_NEED] = 0;
    state[NST_FFWD] = 0;
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
            if (kind == NK_FLAT && !c->ff_words) {
                int64_t tp, first;
                if (ff_period(c, nd, sites + nd[NN_SITE0] * sw, sw, iv,
                              depth, shift, &tp, &first)) {
                    state[NST_FFWD] = 1;
                    break;
                }
            }
            if (kind == NK_FLAT) {
                nest_flat(c, nd, sites, sw, iv, depth, shift, scratch,
                          state, o);
            } else if (kind == NK_FLAT_GATHER) {
                nest_flat_gather(c, nd, sites, sw, iv, depth, shift, tables,
                                 scratch, o);
            } else { /* NK_SINGLE: its full line range */
                const int64_t *S = sites + nd[NN_SITE0] * sw;
                int64_t b = S[NS_INDEX] < 0
                    ? nest_at(S, NS_BASE, iv, depth)
                    : S[NS_BASE] + tables[nest_at(S, NS_INDEX, iv, depth)];
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
