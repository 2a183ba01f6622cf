/* semiforge.tree._count_into on 128-bit words: the walk of _subtree,
   tallied as it goes, with the last genus counted by a popcount and a
   child without effective generators tallied instead of pushed.  The
   window W = 2 g_max + 3 must fit one word, so g_max <= 62.  See
   _subtree for the inheritance rule. */
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
