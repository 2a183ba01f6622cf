/* Six functions on machine words, each the compiled twin of a Python
   oracle that stays as the fallback.

   semiforge_count is semiforge.tree._count_into on machine words: the
   walk of _subtree, tallied as it goes, with the last genus counted by a
   popcount and a child without effective generators tallied instead of
   pushed.  Its words hold bits to 2 g_max + 1: a node's bitmap and eff,
   and rev, whose top bit is W - m <= W - 2 (W = 2 g_max + 3), as every
   task's multiplicity m is at least 2.  So the walk runs on a 64-bit
   word to g_max = 31, else on a 128-bit one to 62.  See _subtree for the
   inheritance rule.

   semiforge_hist is semiforge.tree._hist_into: the same walk, on the same
   words, tallying (genus, depth, gap intervals, odd member <= genus) in
   place of (genus, depth).

   semiforge_f_value is semiforge.closedsets._f_into: the count's walk
   to genus w, where each node of genus w adds its closed sets of size
   w + 1 that contain 0 (closed_one, the counting branch of
   semiforge.closedsets._closed_masks and _descend) and no other node
   adds anything.  Every maximum is at most 2 w and the window
   [0, 2 w + 1] must fit one word, so it runs on the 64-bit walk alone,
   to w = 31, the count's proven range.

   The three make each task of a table to g_max (w for the f-value) from
   its index i = g (g - 1) / 2 + a - g - 2, as semiforge.tree._task does:
   the ordinary semigroup of genus g < g_max less its generator a,
   g + 2 <= a <= 2 g + 1.  Its members in the window [0, 2 g + 3] are 0 and
   [g + 1, 2 g + 3] less a, bits to 2 g_max + 1 as above.  So its genus and
   multiplicity m are g + 1, its one non-zero member <= m is m (depth 1,
   and an odd member <= m exactly when m is odd), and its gaps [1, g] and
   a make n = 2 intervals (a - 1 >= m is a member).  Its Frobenius number
   is a, and sums of two non-zero members start at 2 g + 2, with 2 g + 3 =
   m + (m + 1) among them unless a = m + 1: so eff is (a, 2 g + 1], and
   2 g + 3 where a = g + 2.  rev holds the members [m, W] less a.  Index
   g_max (g_max - 1) / 2, past the last task, is the ordinary semigroup of
   genus g_max, which f_value counts and no walk expands.

   Each walks in one call per worker.  The workers of one computation
   share the counter *next and the caller's zeroed tally: each claims an
   index by an atomic fetch-and-add until it reaches `end` (*next = i and
   end = i + 1 walk task i alone), tallies into a zeroed buffer after its
   stack in its one allocation, then adds each non-zero cell to the
   caller's tally by a relaxed atomic add, read once every call returns.
   A call that cannot allocate stores `end` into *next, which stops every
   other at its next claim, adds nothing and returns -1; the others add
   what they walked, and the caller drops that tally.

   The three walks are one source text, at the end of this file, over the
   word type WORD: the file includes itself with WORD a uint64_t for
   count64, hist64 and closed64, and with it an unsigned __int128 for
   count128 and hist128; HIST or CLOSED picks what a node adds to its
   tally.  The walks stay in this one file, which keeps the name
   _kernel.c, because the library's cache is keyed on this file's CRC
   alone: a second source file could change while a stale library still
   loaded.

   semiforge_tg_level is semiforge.tree._tg_level on 64-bit words: one
   level of the breadth-first walk of the fixed-genus tree, each child
   with the effective generators it inherits by the rule in
   _tg_children_raw.  The window [0, 2 genus + 1] must fit one word, so
   genus <= 31; at 31 it is the whole word, and no shift may reach 64.
   One call counts the whole level, refusing it past the node cap `room`,
   and writes only the first `cap` children, so that the caller can size
   its buffers by a guess and call again only when the guess falls short.

   semiforge_tg_check is the per-level body of
   semiforge.analytics.verify_tree_relations with _expand_checked, on
   64-bit words.  It checks each node of a level where the walk hands it
   over, and keeps nothing: the node is a semigroup, its eff is true, and
   its (parent, multiplicity, Frobenius number) is larger than the node's
   before, so the walk repeats nothing; its children in the
   generator-removal tree are counted, which gives the size of the next
   genus, and checked.  Those children of genus + 1 must fit the window
   [0, 2 genus + 3], so it expands only while genus <= 30, and checks
   levels to genus 31.

   semiforge_tg_sweep runs both on one genus, from its root, in a buffer
   that it allocates and frees; the Python loop runs only when it fails.
   The other two take their buffers as addresses, which the caller keeps
   alive; the first writes only within the sizes it is given, the second
   only reads. */
#ifndef WORD
#include <stdint.h>
#include <stdlib.h>

typedef unsigned __int128 u128;

static int popcount128(u128 x) {
    return __builtin_popcountll((uint64_t)x) + __builtin_popcountll((uint64_t)(x >> 64));
}

/* the index of the lowest set bit of x != 0 */
static int low_index128(u128 x) {
    uint64_t low = (uint64_t)x;
    return low ? __builtin_ctzll(low) : 64 + __builtin_ctzll((uint64_t)(x >> 64));
}

/* Ways to add `left` more of the candidates j >= idx to `chosen`;
   candidate j, the gap gap[j], is admissible once its required mask
   reqs[j] is chosen.  The last choice is counted without a branch,
   never recursed into. */
static uint64_t descend(const uint64_t *reqs, const int *gap, int n, int idx, uint64_t chosen, int left) {
    uint64_t total = 0, unchosen = ~chosen;
    if (left == 1) {
        for (int j = idx; j < n; j++)
            total += !(reqs[j] & unchosen);
        return total;
    }
    for (int j = idx; j <= n - left; j++)
        if (!(reqs[j] & unchosen))
            total += descend(reqs, gap, n, j + 1, chosen | (uint64_t)1 << gap[j], left - 1);
    return total;
}

/* members: the membership window [0, 2 genus + 1] of a semigroup of genus
   `genus`.  Returns its closed sets of size genus + 1 that contain 0,
   grouped by their maximum top as in _closed_masks: the members below top
   are forced, and the free gaps below it are decided largest first. */
static uint64_t closed_one(uint64_t members, int genus) {
    uint64_t total = 0, reqs[64], nonzero = members & ~(uint64_t)1, rest = members;
    int gap[64];
    for (int k = 0; k < genus; k++) rest &= rest - 1;
    int last = __builtin_ctzll(rest);  /* the genus-th member, at most 2 genus */
    for (int top = genus; top <= last; top++) {
        uint64_t top_mask = ((uint64_t)1 << top) - 1, below = members & top_mask;
        int need = genus - __builtin_popcountll(below), nf = 0;  /* >= 0 as top <= last */
        if (!need) {
            total++;
            continue;
        }
        for (int x = top - 1; x > 0; x--)
            if (!(below >> x & 1)) {
                gap[nf] = x;
                reqs[nf++] = (nonzero << x) & top_mask & ~below;
            }
        total += descend(reqs, gap, nf, 0, below | (uint64_t)1 << top, need);
    }
    return total;
}

/* count64, hist64 and closed64 */
#define WORD uint64_t
#define SIZED(name) name##64
#define POPCOUNT __builtin_popcountll
#define LOW_INDEX __builtin_ctzll
#include "_kernel.c"
#define HIST
#include "_kernel.c"
#undef HIST
#define CLOSED
#include "_kernel.c"
#undef CLOSED
#undef WORD
#undef SIZED
#undef POPCOUNT
#undef LOW_INDEX

/* count128 and hist128 */
#define WORD u128
#define SIZED(name) name##128
#define POPCOUNT popcount128
#define LOW_INDEX low_index128
#include "_kernel.c"
#define HIST
#include "_kernel.c"

/* The tasks from *next to `end` of a table to g_max add to rows, g_max + 1
   rows of g_max / 2 + 1 cells, or to cells, laid out as the histogram's
   walk below says.  Each returns -1 when out of memory. */
int semiforge_count(int g_max, int *next, int end, uint64_t *rows) {
    return g_max <= 31 ? count64(g_max, next, end, rows) : count128(g_max, next, end, rows);
}

int semiforge_hist(int g_max, int *next, int end, uint64_t *cells) {
    return g_max <= 31 ? hist64(g_max, next, end, cells) : hist128(g_max, next, end, cells);
}

/* Adds to *total the closed sets over each semigroup of genus w <= 31
   that the tasks from *next to `end` reach, the ordinary one at index
   w (w - 1) / 2.  Returns -1 when out of memory. */
int semiforge_f_value(int w, int *next, int end, uint64_t *total) {
    return closed64(w, next, end, total);
}

/* The membership window [0, 2 genus + 1] of a genus-`genus` bitmap. */
static uint64_t window(int genus) {
    return genus >= 31 ? ~(uint64_t)0 : ((uint64_t)1 << (2 * genus + 2)) - 1;
}

/* bitmaps, effs: the n semigroups of one level of the genus-`genus` tree
   and their effective generators.  Returns the number of children, or -1
   as soon as there are more than `room`, and writes the first `cap` of
   them, ordered by parent and then by (added b, removed a), with their
   own effective generators and their parents' indices; a caller whose
   guess `cap` falls short calls again with the count.  S + b is closed
   only if b + m is in S (m the multiplicity), so b runs over those alone. */
int semiforge_tg_level(const uint64_t *bitmaps, const uint64_t *effs, int n, int genus,
                       uint64_t *children, uint64_t *child_effs, int *parents, int cap, int room) {
    uint64_t mask = window(genus);
    int count = 0;
    for (int i = 0; i < n; i++) {
        uint64_t bitmap = bitmaps[i], nonzero = bitmap & ~(uint64_t)1;
        int m = __builtin_ctzll(nonzero);
        /* b >= 2: a set holding 1 is closed only as all of N, of genus 0 */
        for (uint64_t bs = bitmap >> m & (((uint64_t)1 << m) - 4); bs; bs &= bs - 1) {
            int b = __builtin_ctzll(bs);
            uint64_t added = (uint64_t)1 << b, sums = (nonzero | added) << b;
            if (sums & mask & ~(bitmap | added))
                continue;
            for (uint64_t kept = effs[i] & ~sums; kept; kept &= kept - 1) {
                if (count == room)
                    return -1;
                if (count < cap) {
                    uint64_t low = kept & -kept, child = (bitmap ^ low) | added;
                    children[count] = child;
                    child_effs[count] = effs[i] & ~(low | (low - 1)) & ~(child << b);
                    parents[count] = i;
                }
                count++;
            }
        }
    }
    return count;
}

/* semiforge.semigroup._ordinarize_bitmap on a semigroup x of genus
   `genus`: swap the multiplicity for the Frobenius number, the identity
   on the ordinary semigroup. */
static uint64_t transform(uint64_t x, int genus) {
    int m = __builtin_ctzll(x & ~(uint64_t)1);
    if (m > genus)
        return x;
    return (x ^ (uint64_t)1 << m) | (uint64_t)1 << (63 - __builtin_clzll(~x & window(genus)));
}

/* One level of the trees check: the n nodes at depth `depth` of the
   genus-`genus` tree, with their parents' indices into the n_up nodes
   `up` of the level above (the level itself at depth 0) and their effs.
   Checks each node, its edge and its place among its siblings; with
   `expand`, also its eff and its children in the generator-removal tree,
   made one at a time.  Returns the number of those children, the
   popcount of the level's effs (0 without `expand`), or -1 as soon as a
   check in verify_tree_relations' docstring fails. */
int semiforge_tg_check(const int *parents, const uint64_t *children, const uint64_t *effs, int n,
                       const uint64_t *up, int n_up, int genus, int depth, int expand) {
    uint64_t mask = window(genus), low = ((uint64_t)2 << genus) - 2;
    long long prev = -1;
    int count = 0;
    if (2 * depth > genus || (!depth && n != 1) || (expand && genus >= 31))
        return -1;
    for (int i = 0; i < n; i++) {
        /* a semigroup of genus `genus`: 0 and genus + 2 members in the
           window, none past it, and closed there, where every sum has a
           summand <= genus */
        uint64_t node = children[i], nonzero = node & ~(uint64_t)1, sums = 0;
        if (!(node & 1) || node & ~mask || __builtin_popcountll(node) != genus + 2)
            return -1;
        for (uint64_t small = node & low; small; small &= small - 1)
            sums |= nonzero << __builtin_ctzll(small);
        if (sums & mask & ~node)
            return -1;
        /* the edge, and the depth: `depth` non-zero members <= genus */
        uint64_t t = transform(node, genus);
        if (parents[i] < 0 || parents[i] >= n_up || t != up[parents[i]] || __builtin_popcountll(node & low) != depth)
            return -1;
        /* no repeat: (parent, multiplicity, Frobenius number) strictly
           increasing, F = 0 at genus 0 */
        int frob = 63 - __builtin_clzll((~node & mask) | 1);
        long long order = (long long)parents[i] << 12 | __builtin_ctzll(nonzero) << 6 | frob;
        if (order <= prev)
            return -1;
        prev = order;
        if (!expand)
            continue;
        /* eff: the members above the Frobenius number that are no sums */
        if (effs[i] != (nonzero & ~sums & mask & -((uint64_t)2 << frob)))
            return -1;
        count += __builtin_popcountll(effs[i]);
        uint64_t extended = node | (uint64_t)3 << (2 * genus + 2), first = 0;
        for (uint64_t eff = effs[i]; eff; eff &= eff - 1) {
            uint64_t child = extended ^ (eff & -eff), child_t = transform(child, genus + 1);
            /* the ancestor line: adjoining its Frobenius number to the
               child's transform gives the node's (_raw_parent_in_T) */
            uint64_t child_frob = (uint64_t)1 << (63 - __builtin_clzll(~child_t & window(genus + 1)));
            if (((child_t | child_frob) & mask) != t)
                return -1;
            /* siblings: every non-ordinary child has the same transform */
            if (__builtin_ctzll(child & ~(uint64_t)1) <= genus + 1) {
                if (!first)
                    first = child_t;
                else if (child_t != first)
                    return -1;
            }
        }
    }
    return count;
}

/* The trees check of the genus-`genus` tree of `size` = n(genus) nodes,
   `expand` as semiforge_tg_check's: each level is made in one pass into
   one half of a buffer, where no page past it is touched, and checked
   against the level above, in the other half; a level's parents are read
   only by its own check, so one array holds them.  Returns the children
   in T (0 without `expand`), -1 as soon as a check fails or the walk's
   size is not `size`, or -2 when out of memory. */
int semiforge_tg_sweep(int genus, int expand, int size) {
    size_t s = size;  /* a half: s children, then s effs; then s parents */
    uint64_t *buffer = size > 0 ? malloc(s * (4 * sizeof(uint64_t) + sizeof(int))) : NULL;
    if (!buffer)
        return size > 0 ? -2 : -1;
    uint64_t *nodes[2] = {buffer, buffer + 2 * s}, *up = buffer;  /* up: the ordinary root, its own parent */
    int *parents = (int *)(buffer + 4 * s), n = 1, n_up = 1, walked = 1, total = 0, code;
    up[0] = window(genus) & ~(((uint64_t)2 << genus) - 2), up[s] = up[0] & ~(uint64_t)1, parents[0] = 0;
    for (int depth = 0, k = 0;; depth++, k ^= 1) {
        if ((code = semiforge_tg_check(parents, nodes[k], nodes[k] + s, n, up, n_up, genus, depth, expand)) < 0)
            break;
        total += code, up = nodes[k], n_up = n;
        int room = size - walked;  /* no level holds more than the nodes still to walk */
        n = semiforge_tg_level(up, up + s, n_up, genus, nodes[!k], nodes[!k] + s, parents, room, room);
        if (n <= 0) {
            code = n || walked != size ? -1 : total;
            break;
        }
        walked += n;
    }
    free(buffer);
    return code;
}

#else
/* The walks of semiforge_count, semiforge_hist and semiforge_f_value on
   words of type WORD, whose popcount and lowest set bit are POPCOUNT and
   LOW_INDEX.  A node adds NODE(e) to the tally; its children's cell is
   KEPT(e, g1), or CELL(e, kept, low) for the one that removes bit `low`.
   LAST(e, kept, extended) adds those of genus g_max, each `extended` less
   a bit of eff, and BARE(cell) one without effective generators, which is
   tallied instead of pushed.  START(e) is a task's cell; CELLS counts them. */
#if !defined CLOSED && !defined HIST
/* An entry: a node's bitmap, eff and rev (see _subtree), genus g and cell. */
typedef struct { WORD bitmap, eff, rev; int g, at; } SIZED(entry);

/* Task i of a table to g_max, made into *e as the header derives it, with
   its depth in `at`; its multiplicity is its genus.  The index g_max
   (g_max - 1) / 2 is the ordinary semigroup of genus g_max, at depth 0. */
static void SIZED(task)(int i, int g_max, SIZED(entry) *e) {
    int W = 2 * g_max + 3, g = 0;
    while (g < g_max && i >= g) i -= g++;  /* past the g (g - 1) / 2 tasks below genus g + 1 */
    int a = i + g + 2;
    if (g == g_max) {
        WORD ordinary = ((WORD)2 << (2 * g + 1)) - ((WORD)2 << g) + 1;
        *e = (SIZED(entry)){ordinary, ordinary & ~(WORD)1, ((WORD)2 << (W - g - 1)) - 1, g, 0};
    } else
        *e = (SIZED(entry)){(((WORD)2 << (2 * g + 3)) - ((WORD)2 << g) + 1) ^ (WORD)1 << a,
                            (((WORD)2 << (2 * g + 1)) - ((WORD)2 << a)) | (WORD)(a == g + 2) << (2 * g + 3),
                            (((WORD)2 << (W - g - 1)) - 1) ^ (WORD)1 << (W - a), g + 1, 1};
}
#endif

#define DEPTHS (g_max / 2 + 1)
#ifdef CLOSED
/* closed64: a node of genus g_max adds its closed sets to tally[0] */
#define WALK SIZED(closed)
#define CELLS 1
#define START(e) 0
#define NODE(e) (*tally += (e).g == g_max ? closed_one((e).bitmap, g_max) : 0)
#define KEPT(e, g1) 0
#define CELL(e, kept, low) (kept)
#define LAST(e, kept, extended) for (WORD l = (e).eff; l; l &= l - 1) *tally += closed_one(extended ^ (l & -l), g_max)
#define BARE(cell) (void)(cell)
#elif defined HIST
/* hist: a node adds 1 to tally[((g DEPTHS + r) (g_max + 1) + n) 2 + odd],
   as _hist_into to hist[g][r][2 n + odd]; a task has n = 2, and odd = 1
   exactly where its genus is odd.  The children of a node share its
   members <= g + 1, which fix their depth and odd, and (see _hist_into)
   keep its n, or open one interval more (+ 2) where a - 1 is a member,
   bit a of bitmap << 1; odd bits to g1 <= 62 are in the low word. */
#define WALK SIZED(hist)
#define CELLS ((g_max + 1) * DEPTHS * (g_max + 1) * 2)
#define START(e) ((((e).g * DEPTHS + 1) * (g_max + 1) + 2) * 2 + ((e).g & 1))
#define NODE(e) BARE((e).at)
#define KEPT(e, g1) (((e).at & ~1) + 2 * (g_max + 1) * (DEPTHS + (int)((e).bitmap >> (g1) & 1)) + \
                     (((uint64_t)(e).bitmap & 0xAAAAAAAAAAAAAAAAull & (((uint64_t)2 << (g1)) - 1)) != 0))
#define CELL(e, kept, low) ((kept) + 2 * (((e).bitmap << 1 & (low)) != 0))
#define LAST(e, kept, extended) \
    (tally[kept] += POPCOUNT((e).eff & ~((e).bitmap << 1)), tally[(kept) + 2] += POPCOUNT((e).eff & (e).bitmap << 1))
#define BARE(cell) (tally[cell] += 1)
#else
/* count: a node of genus g and depth r adds 1 to tally[g DEPTHS + r] */
#define WALK SIZED(count)
#define CELLS ((g_max + 1) * DEPTHS)
#define START(e) ((e).g * DEPTHS + 1)
#define NODE(e) BARE((e).at)
#define KEPT(e, g1) ((e).at + DEPTHS + (int)((e).bitmap >> (g1) & 1))
#define CELL(e, kept, low) (kept)
#define LAST(e, kept, extended) (tally[kept] += POPCOUNT((e).eff))
#define BARE(cell) (tally[cell] += 1)
#endif

/* A node of genus g has at most g + 1 effective generators, and only
   nodes of genus up to g_max - 2 push, so the stack never holds more than
   1 + 2 + ... + (g_max - 1) entries, then come the call's own CELLS cells. */
static int WALK(int g_max, int *next, int end, uint64_t *shared) {
    int W = 2 * g_max + 3, entries = g_max * (g_max - 1) / 2 + 1, cells = CELLS;
    SIZED(entry) *stack = malloc(sizeof(SIZED(entry)) * entries + sizeof(uint64_t) * cells);
    if (!stack) return __atomic_store_n(next, end, __ATOMIC_RELAXED), -1;  /* the others stop at their next claim */
    uint64_t *tally = (uint64_t *)(stack + entries);
    for (int k = 0; k < cells; k++) tally[k] = 0;
    for (int i; (i = __atomic_fetch_add(next, 1, __ATOMIC_RELAXED)) < end;) {
        SIZED(task)(i, g_max, stack);
        int m = stack->g, shift = W - m, top = 1;
        stack->at = START(*stack);
        while (top) {
            SIZED(entry) e = stack[--top];
            NODE(e);
            if (e.g == g_max || !e.eff) continue;
            int g1 = e.g + 1, kept = KEPT(e, g1), head = 2 * e.g + 2, a_max = head + 1 - m;
            WORD extended = e.bitmap | (WORD)3 << head, nonzero = extended & ~(WORD)1, eff = e.eff;
            if (g1 == g_max) {
                LAST(e, kept, extended);
                continue;
            }
            while (eff) {
                WORD low = eff & -eff;
                eff ^= low;
                int a = LOW_INDEX(low), cell = CELL(e, kept, low);
                WORD child_rev = e.rev ^ (WORD)1 << (W - a);
                if (a <= a_max && !((nonzero ^ low) & (child_rev >> (shift - a))))
                    stack[top++] = (SIZED(entry)){extended ^ low, eff | low << m, child_rev, g1, cell};
                else if (eff)
                    stack[top++] = (SIZED(entry)){extended ^ low, eff, child_rev, g1, cell};
                else
                    BARE(cell);
            }
        }
    }
    for (int k = 0; k < cells; k++) if (tally[k]) __atomic_fetch_add(shared + k, tally[k], __ATOMIC_RELAXED);
    free(stack);
    return 0;
}
#undef DEPTHS
#undef WALK
#undef CELLS
#undef START
#undef NODE
#undef KEPT
#undef CELL
#undef LAST
#undef BARE
#endif
