/* Four functions on machine words, each the compiled twin of a Python
   oracle that stays as the fallback.

   semiforge_count is semiforge.tree._count_into on 128-bit words: the
   walk of _subtree, tallied as it goes, with the last genus counted by a
   popcount and a child without effective generators tallied instead of
   pushed.  The window W = 2 g_max + 3 must fit one word, so g_max <= 62.
   See _subtree for the inheritance rule.

   semiforge_closed is the counting branch of
   semiforge.closedsets._closed_masks and _descend on 64-bit words: the
   closed sets of size genus + 1 over each semigroup of a chunk.  Every
   maximum is at most 2 genus and the window [0, 2 genus + 1] must fit one
   word, so genus <= 31.

   semiforge_tg_level is semiforge.tree._tg_level on 64-bit words: one
   level of the breadth-first walk of the fixed-genus tree, each child
   with the effective generators it inherits by the rule in
   _tg_children_raw.  The window [0, 2 genus + 1] must fit one word, so
   genus <= 31; at 31 it is the whole word, and no shift may reach 64.

   semiforge_tg_check is the per-level body of
   semiforge.analytics.verify_tree_relations with _expand_checked, on
   64-bit words: it decides pass or fail, and the Python loop writes every
   report.  Its children of genus + 1 must fit the window
   [0, 2 genus + 3], so it expands only while genus <= 30, and checks
   levels to genus 31. */
#include <stdint.h>
#include <stdlib.h>

typedef unsigned __int128 word;
typedef struct { word bitmap, eff, rev; int g, r; } entry;

static int low_index(word x) {
    uint64_t low = (uint64_t)x;
    return low ? __builtin_ctzll(low) : 64 + __builtin_ctzll((uint64_t)(x >> 64));
}

/* root: bitmap, eff and rev of a task as (low, high) word pairs;
   rows: (g_max + 1) rows of g_max / 2 + 1 tallies.  A node of genus g
   has at most g + 1 effective generators, and only nodes of genus up to
   g_max - 2 push, so the stack never holds more than
   1 + 2 + ... + (g_max - 1) entries.  Returns -1 when out of memory. */
int semiforge_count(const uint64_t *root, int g, int r, int m, int g_max, uint64_t *rows) {
    int W = 2 * g_max + 3, shift = W - m, stride = g_max / 2 + 1, top = 0;
    entry *stack = malloc(sizeof(entry) * (g_max * (g_max - 1) / 2 + 1));
    if (!stack) return -1;
    stack[top++] = (entry){(word)root[1] << 64 | root[0], (word)root[3] << 64 | root[2],
                           (word)root[5] << 64 | root[4], g, r};
    while (top) {
        entry e = stack[--top];
        rows[e.g * stride + e.r] += 1;
        if (e.g == g_max || !e.eff) continue;
        int g1 = e.g + 1, rbase = e.r + (int)((e.bitmap >> g1) & 1);
        if (g1 == g_max) {
            rows[g1 * stride + rbase] += __builtin_popcountll((uint64_t)e.eff) +
                                         __builtin_popcountll((uint64_t)(e.eff >> 64));
            continue;
        }
        int head = 2 * e.g + 2, a_max = head + 1 - m;
        word extended = e.bitmap | (word)3 << head, nonzero = extended & ~(word)1, eff = e.eff;
        while (eff) {
            word low = eff & -eff;
            eff ^= low;
            int a = low_index(low);
            word child_rev = e.rev ^ (word)1 << (W - a);
            if (a <= a_max && !((nonzero ^ low) & (child_rev >> (shift - a))))
                stack[top++] = (entry){extended ^ low, eff | low << m, child_rev, g1, rbase};
            else if (eff)
                stack[top++] = (entry){extended ^ low, eff, child_rev, g1, rbase};
            else
                rows[g1 * stride + rbase] += 1;
        }
    }
    free(stack);
    return 0;
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

/* bitmaps: n membership windows [0, 2 genus + 1] of semigroups of genus
   `genus`.  Returns the sum over them of the closed sets of size
   genus + 1 that contain 0, grouped by their maximum top as in
   _closed_masks: the members below top are forced, and the free gaps
   below it are decided largest first. */
uint64_t semiforge_closed(const uint64_t *bitmaps, int n, int genus) {
    uint64_t total = 0, reqs[64];
    int gap[64];
    for (int i = 0; i < n; i++) {
        uint64_t members = bitmaps[i], nonzero = members & ~(uint64_t)1, rest = members;
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
    }
    return total;
}

/* The membership window [0, 2 genus + 1] of a genus-`genus` bitmap. */
static uint64_t window(int genus) {
    return genus >= 31 ? ~(uint64_t)0 : ((uint64_t)1 << (2 * genus + 2)) - 1;
}

/* bitmaps, effs: the n semigroups of one level of the genus-`genus` tree
   and their effective generators.  Returns the number of children, -1 as
   soon as there are more than `cap`, and writes each child, ordered by
   parent and then by (added b, removed a), with its own effective
   generators and its parent's index, unless `children` is NULL.  S + b
   is closed only if b + m is in S (m the multiplicity), so the other
   b < m are skipped before the shift test. */
int semiforge_tg_level(const uint64_t *bitmaps, const uint64_t *effs, int n, int genus,
                       uint64_t *children, uint64_t *child_effs, int *parents, int cap) {
    uint64_t mask = window(genus);
    int count = 0;
    for (int i = 0; i < n; i++) {
        uint64_t bitmap = bitmaps[i], nonzero = bitmap & ~(uint64_t)1;
        int m = __builtin_ctzll(nonzero);
        for (int b = 1; b < m; b++) {
            if (!(bitmap >> (b + m) & 1))
                continue;
            uint64_t added = (uint64_t)1 << b, sums = (nonzero | added) << b;
            if (sums & mask & ~(bitmap | added))
                continue;
            for (uint64_t kept = effs[i] & ~sums; kept; kept &= kept - 1) {
                if (count == cap)
                    return -1;
                if (children) {
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

/* semiforge.semigroup._ordinarize_bitmap: swap the multiplicity for the
   Frobenius number, the identity on the ordinary semigroup; 0 where x
   has no non-zero member, or no gap in its window below a multiplicity
   <= genus, on which the Python transform raises.  Never 0 otherwise. */
static uint64_t transform(uint64_t x, int genus) {
    uint64_t nonzero = x & ~(uint64_t)1, gaps = ~x & window(genus);
    if (!nonzero)
        return 0;
    int m = __builtin_ctzll(nonzero);
    if (m > genus)
        return x;
    return gaps ? (x ^ (uint64_t)1 << m) | (uint64_t)1 << (63 - __builtin_clzll(gaps)) : 0;
}

static int ascending(const void *a, const void *b) {
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

/* One level of the trees check: the n nodes at depth `depth` of the
   genus-`genus` tree, with their parents' indices into the n_up nodes
   `up` of the level above (the level itself at depth 0) and their effs.
   Appends the nodes to `seen`, `filled` of whose `total` slots are
   taken; the level that fills it sorts `seen` and `expected`.  With
   `next`, which needs room for the popcount of the effs, also writes
   each node's children in the generator-removal tree.  Returns -1 as
   soon as a check in verify_tree_relations' docstring fails, else 0. */
int semiforge_tg_check(const int *parents, const uint64_t *children, const uint64_t *effs, int n,
                       const uint64_t *up, int n_up, int genus, int depth, uint64_t *seen, int filled,
                       uint64_t *expected, int total, uint64_t *next) {
    uint64_t low = ((uint64_t)2 << genus) - 2;
    if (2 * depth > genus || n > total - filled || (next && genus >= 31))
        return -1;
    for (int i = 0; i < n; i++) {
        /* the edge, and the depth: `depth` non-zero members <= genus */
        uint64_t node = children[i], t = transform(node, genus), first = 0;
        if (parents[i] < 0 || parents[i] >= n_up || !t || t != up[parents[i]] ||
            __builtin_popcountll(node & low) != depth)
            return -1;
        seen[filled + i] = node;
        if (!next)
            continue;
        uint64_t extended = node | (uint64_t)3 << (2 * genus + 2);
        for (uint64_t eff = effs[i]; eff; eff &= eff - 1) {
            uint64_t child = extended ^ (eff & -eff), child_t = transform(child, genus + 1);
            uint64_t gaps = ~child_t & window(genus + 1);
            /* the ancestor line: adjoining its Frobenius number to the
               child's transform gives the node's (_raw_parent_in_T) */
            if (!child_t || !gaps || ((child_t | (uint64_t)1 << (63 - __builtin_clzll(gaps))) & window(genus)) != t)
                return -1;
            /* siblings: every non-ordinary child has the same transform */
            if (__builtin_ctzll(child & ~(uint64_t)1) <= genus + 1) {
                if (!first)
                    first = child_t;
                else if (child_t != first)
                    return -1;
            }
            *next++ = child;
        }
    }
    if (filled + n < total)
        return 0;
    /* the same set, with no repeat on either side */
    qsort(seen, total, sizeof *seen, ascending);
    qsort(expected, total, sizeof *expected, ascending);
    for (int i = 0; i < total; i++)
        if (seen[i] != expected[i] || (i && seen[i] == seen[i - 1]))
            return -1;
    return 0;
}
