/* Native kernel tier: the library's inner loops as flat-array C.
 *
 * Every function replays the exact IEEE-754 double-precision operation
 * sequence of the NumPy oracle in repro/spatial/kernels/numpy_provider.py
 * (which is itself bit-pinned to the scalar reference code), so outputs
 * are bitwise identical.  That property survives compilation only under
 * the flags build.py passes:
 *
 *   -ffp-contract=off   no FMA fusion of a*a + b*b (one rounding step
 *                       per written operation, like NumPy's ufuncs);
 *   no -ffast-math      keeps IEEE semantics (NaN/inf comparisons,
 *                       signed zeros, division by zero);
 *   -fno-math-errno     safe: sqrt is correctly rounded with or without
 *                       errno, and dropping errno lets the compiler
 *                       vectorize the sqrt loops.
 *
 * The file is dependency-free (libc + libm) and compiled on demand by
 * build.py with the system compiler; see that module for cache policy.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Pairwise distance matrix: out[i, j] = sqrt(dx*dx + dy*dy) — the     */
/* library's shared distance form (geometry.primitives.dist).          */
/* ------------------------------------------------------------------ */
void repro_distance_matrix(const double *qx, const double *qy, int64_t m,
                           const double *px, const double *py, int64_t n,
                           double *out)
{
    for (int64_t i = 0; i < m; ++i) {
        const double xi = qx[i];
        const double yi = qy[i];
        double *row = out + i * n;
        for (int64_t j = 0; j < n; ++j) {
            const double dx = xi - px[j];
            const double dy = yi - py[j];
            row[j] = sqrt(dx * dx + dy * dy);
        }
    }
}

/* ------------------------------------------------------------------ */
/* The fused Eq. (2) prefix kernel (quantification/batch_exact.py).    */
/*                                                                     */
/* Input: the (r, big_n) unordered distance rows of one chunk, the     */
/* flat per-site parent / weight arrays, totals[n] the per-parent site */
/* counts.  result (r, n) must be zero-initialized by the caller.      */
/* Per row, all in one pass:                                           */
/*                                                                     */
/*   select   the width smallest (distance, flat site index) keys —    */
/*            a total order, so the selected set and its ascending     */
/*            order are exactly the stable full sort's first width     */
/*            positions (any correct select-then-sort reproduces it);  */
/*   order    a bucket scatter of the candidates by distance, a key    */
/*            sort inside the buckets reaching the prefix, then the    */
/*            parent / weight gathers (select_prefix below);           */
/*   sweep    the row-scalar step loop below;                          */
/*   widen    a row still live at the prefix end is swept again,       */
/*            4x wider, the last pass at width >= big_n being          */
/*            the full sort, which flushes the final tie group.        */
/*                                                                     */
/* *widened receives the number of row re-sweeps — the NumPy oracle's  */
/* sum of pending rows over its widening passes.                       */
/*                                                                     */
/* The step loop replays the NumPy oracle's expressions in the same    */
/* order, strictly sequential in sorted position within a row: tie     */
/* groups anchored at their first member, a full group absorbed        */
/* (phase 1) before any member contributes (phase 2), survival updated */
/* by new = old - w with the 1e-15 underflow clamp and the count-based */
/* exact zero, the running product by prod *= new/old or prod /= old   */
/* with an explicit zero counter, retirement at zero_count >= 2.  Rows */
/* retired past zero_count >= 2 only ever scatter +0.0 in the oracle,  */
/* so breaking early is exact.                                         */
/*                                                                     */
/* Scratch: survival/seen are n-sized but only the <= width parents a  */
/* row touches are reset between rows (the touched list), keeping the  */
/* per-row sweep cost O(width), not O(n).                              */
/*                                                                     */
/* Returns 0, or -1 when scratch allocation failed.                    */
/* ------------------------------------------------------------------ */

/* The sort key packs the distance's order-preserving bit image over   */
/* the flat site index into one unsigned 128-bit integer, so a key      */
/* compare is one branch-free integer compare.  The image follows       */
/* NumPy's sort order: -0.0 sorts as +0.0 and every NaN after +inf,     */
/* ties by index — a total order on any input.  (A compiler without     */
/* __int128 fails the build, and the tier falls back to NumPy.)         */
typedef unsigned __int128 sort_key;

static inline uint64_t dist_image(double d)
{
    if (d != d)
        return UINT64_MAX;
    d += 0.0;                   /* -0.0 -> +0.0 */
    uint64_t u;
    memcpy(&u, &d, sizeof u);
    return (u >> 63) ? ~u : (u | ((uint64_t)1 << 63));
}

static void sort_keys(sort_key *a, int64_t len)
{
    while (len > 16) {
        /* Median-of-three quicksort; keys are distinct (the index). */
        sort_key x = a[0], y = a[len / 2], z = a[len - 1];
        const sort_key pivot = x < y ? (y < z ? y : (x < z ? z : x))
                                     : (x < z ? x : (y < z ? z : y));
        int64_t i = 0, j = len - 1;
        for (;;) {
            while (a[i] < pivot)
                ++i;
            while (pivot < a[j])
                --j;
            if (i >= j)
                break;
            const sort_key t = a[i];
            a[i++] = a[j];
            a[j--] = t;
        }
        /* [0, j] <= pivot <= [j + 1, len); recurse on the smaller side. */
        if (j + 1 < len - j - 1) {
            sort_keys(a, j + 1);
            a += j + 1;
            len -= j + 1;
        } else {
            sort_keys(a + j + 1, len - j - 1);
            len = j + 1;
        }
    }
    for (int64_t i = 1; i < len; ++i) {
        const sort_key t = a[i];
        int64_t j = i;
        while (j > 0 && t < a[j - 1]) {
            a[j] = a[j - 1];
            --j;
        }
        a[j] = t;
    }
}

/* The width smallest keys of row[0, big_n), ascending, into keys.     */
/*                                                                     */
/* Candidates: a distance cutoff read off a strided sample keeps a few  */
/* more than width sites; every site above it is farther than all      */
/* candidates, so the width smallest keys are among them.  A cutoff    */
/* that keeps too few falls back to the whole row.                     */
/* Order: a stable scatter into equal-width distance buckets (bucket    */
/* index is monotone in the distance, and equal distances stay in      */
/* index order), then a key sort inside each bucket up to position     */
/* width — linear on the usual spread.  A non-finite candidate range    */
/* sorts all candidates by key instead.                                */
/* cand / keys / spill hold big_n entries, count big_n + 1.            */
#define PREFIX_SAMPLE 64
static void select_prefix(const double *row, int64_t big_n, int64_t width,
                          int64_t *cand, sort_key *keys, sort_key *spill,
                          int64_t *count)
{
    int64_t c = big_n;
    if (width * 2 < big_n) {
        /* The rank-th smallest of a strided sample, rank leaving a    */
        /* generous margin over width's share of the row.              */
        const int64_t s = big_n < PREFIX_SAMPLE ? big_n : PREFIX_SAMPLE;
        const int64_t rank = (2 * width * s) / big_n + 2;
        double low[PREFIX_SAMPLE];
        int64_t have = 0;
        for (int64_t k = 0; k < s && rank < s; ++k) {
            const double v = row[(k * big_n) / s];
            if (!(v == v))
                continue;
            if (have > rank && !(v < low[rank]))
                continue;
            int64_t j = have <= rank ? have++ : rank;
            while (j > 0 && v < low[j - 1]) {
                low[j] = low[j - 1];
                --j;
            }
            low[j] = v;
        }
        if (rank < s && have > rank) {
            const double cutoff = low[rank];
            int64_t kept = 0;
            for (int64_t j = 0; j < big_n; ++j) {
                cand[kept] = j;
                kept += row[j] <= cutoff;
            }
            if (kept >= width)
                c = kept;
        }
    }
    if (c == big_n)
        for (int64_t j = 0; j < big_n; ++j)
            cand[j] = j;
    double lo = INFINITY, hi = -INFINITY;
    for (int64_t k = 0; k < c; ++k) {
        const double v = row[cand[k]];
        lo = v < lo ? v : lo;
        hi = v > hi ? v : hi;
    }
    const double scale = (double)c / (hi - lo);
    if (!(isfinite(lo) && isfinite(hi) && hi > lo && isfinite(scale))) {
        for (int64_t k = 0; k < c; ++k) {
            const int64_t j = cand[k];
            keys[k] = ((sort_key)dist_image(row[j]) << 64) | (uint64_t)j;
        }
        sort_keys(keys, c);
        return;
    }
    const double top = (double)(c - 1);
    for (int64_t b = 0; b <= c; ++b)
        count[b] = 0;
    for (int64_t k = 0; k < c; ++k) {
        const double v = row[cand[k]];
        const double t = (v - lo) * scale;
        const int64_t b = t < top ? (int64_t)t : c - 1;
        spill[k] = ((sort_key)dist_image(v) << 64) | (uint64_t)cand[k];
        cand[k] = b;
        count[b + 1] += 1;
    }
    for (int64_t b = 0; b < c; ++b)
        count[b + 1] += count[b];
    for (int64_t k = 0; k < c; ++k)
        keys[count[cand[k]]++] = spill[k];
    /* count[b] is now bucket b's end; sort buckets covering [0, width). */
    for (int64_t b = 0, lo_pos = 0; lo_pos < width; lo_pos = count[b++])
        if (count[b] - lo_pos > 1)
            sort_keys(keys + lo_pos, count[b] - lo_pos);
}

static void sweep_contribute(const int64_t *par, const double *w,
                             const double *survival, double prod,
                             int64_t zero_count, int64_t lo, int64_t hi,
                             double *res)
{
    for (int64_t pos = lo; pos < hi; ++pos) {
        const int64_t ps = par[pos];
        const double f_own = survival[ps];
        double others;
        if (zero_count == 0)
            others = f_own > 0.0 ? prod / f_own : 0.0;
        else if (zero_count == 1 && f_own == 0.0)
            others = prod;
        else
            others = 0.0;
        res[ps] += w[pos] * others;
    }
}

/* One row's step loop over a sorted prefix of width sites.  Returns    */
/* whether the row's answer is complete; an incomplete row's res is     */
/* reset to zeros for the wider re-sweep.  Leaves survival / seen reset. */
static int sweep_row(const double *d, const int64_t *par, const double *w,
                     int64_t width, const int64_t *totals, double tie_tol,
                     int final_pass, double *survival, int64_t *seen,
                     int64_t *touched, double *res)
{
    int64_t n_touched = 0;
    int64_t zero_count = 0;
    double prod = 1.0;
    double anchor = 0.0;
    int64_t glen = 0;
    int retired = 0;
    for (int64_t t = 0; t < width; ++t) {
        const double dt = d[t];
        if (t == 0 || dt - anchor > tie_tol) {
            /* Phase 2 for the completed group [t - glen, t). */
            sweep_contribute(par, w, survival, prod, zero_count,
                             t - glen, t, res);
            anchor = dt;
            glen = 0;
        }
        /* Phase 1: absorb the t-th nearest site. */
        const int64_t p_t = par[t];
        const double old = survival[p_t];
        if (seen[p_t] == 0)
            touched[n_touched++] = p_t;
        const int64_t cnt = seen[p_t] + 1;
        seen[p_t] = cnt;
        double fresh = old - w[t];
        if (fresh < 1e-15)
            fresh = 0.0;
        if (cnt >= totals[p_t])
            fresh = 0.0;
        survival[p_t] = fresh;
        if (old > 0.0) {
            if (fresh > 0.0) {
                prod *= fresh / old;
            } else {
                prod /= old;
                zero_count += 1;
            }
        }
        glen += 1;
        if (zero_count >= 2) {
            /* Every further contribution is exactly zero. */
            retired = 1;
            break;
        }
    }
    if (!retired && final_pass) {
        /* The prefix is the whole site set: flush the last group. */
        sweep_contribute(par, w, survival, prod, zero_count,
                         width - glen, width, res);
    }
    const int done = retired || final_pass;
    for (int64_t k = 0; k < n_touched; ++k) {
        /* Contributions only ever land on touched parents. */
        if (!done)
            res[touched[k]] = 0.0;
        survival[touched[k]] = 1.0;
        seen[touched[k]] = 0;
    }
    return done;
}

int repro_sweep_eq2(const double *dist, int64_t r, int64_t big_n,
                    const int64_t *parent, const double *weight,
                    const int64_t *totals, int64_t n, double tie_tol,
                    int64_t start_width, double *result, int64_t *widened)
{
    const size_t nb = (size_t)big_n;
    double *survival = (double *)malloc((size_t)n * sizeof(double));
    int64_t *seen = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t *touched = (int64_t *)malloc(nb * sizeof(int64_t));
    int64_t *cand = (int64_t *)malloc(nb * sizeof(int64_t));
    sort_key *keys = (sort_key *)malloc(nb * sizeof(sort_key));
    sort_key *spill = (sort_key *)malloc(nb * sizeof(sort_key));
    int64_t *count = (int64_t *)malloc((nb + 1) * sizeof(int64_t));
    double *ds = (double *)malloc(nb * sizeof(double));
    int64_t *pp = (int64_t *)malloc(nb * sizeof(int64_t));
    double *pw = (double *)malloc(nb * sizeof(double));
    int rc = 0;
    if (survival == NULL || seen == NULL || touched == NULL || cand == NULL
            || keys == NULL || spill == NULL || count == NULL || ds == NULL
            || pp == NULL || pw == NULL) {
        rc = -1;
        goto out;
    }
    for (int64_t p = 0; p < n; ++p) {
        survival[p] = 1.0;
        seen[p] = 0;
    }
    *widened = 0;
    for (int64_t row = 0; row < r; ++row) {
        const double *d = dist + row * big_n;
        double *res = result + row * n;
        int64_t width = start_width < big_n ? start_width : big_n;
        for (;;) {
            select_prefix(d, big_n, width, cand, keys, spill, count);
            for (int64_t t = 0; t < width; ++t) {
                const int64_t j = (int64_t)(uint64_t)keys[t];
                ds[t] = d[j];
                pp[t] = parent[j];
                pw[t] = weight[j];
            }
            if (sweep_row(ds, pp, pw, width, totals, tie_tol,
                          width >= big_n, survival, seen, touched, res))
                break;
            *widened += 1;
            width = width > big_n / 4 ? big_n : width * 4;
        }
    }
out:
    free(survival);
    free(seen);
    free(touched);
    free(cand);
    free(keys);
    free(spill);
    free(count);
    free(ds);
    free(pp);
    free(pw);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Batched segment-pair intersection (geometry/segments.py).  Entries  */
/* with hit == 0 leave px/py at whatever the shared expressions        */
/* produced (possibly inf/nan from the zero-denominator division) —    */
/* unspecified by contract, exactly like the NumPy kernel.             */
/* ------------------------------------------------------------------ */
void repro_segment_intersections(const double *ax, const double *ay,
                                 const double *bx, const double *by,
                                 const int64_t *I, const int64_t *J,
                                 int64_t p, double tol,
                                 double *px, double *py, uint8_t *hit)
{
    const double slack = 1e-12;
    for (int64_t k = 0; k < p; ++k) {
        const int64_t i = I[k];
        const int64_t j = J[k];
        const double rx = bx[i] - ax[i];
        const double ry = by[i] - ay[i];
        const double sx = bx[j] - ax[j];
        const double sy = by[j] - ay[j];
        const double denom = rx * sy - ry * sx;
        double span = 1.0;
        const double ri = fabs(rx) + fabs(ry);
        if (ri > span)
            span = ri;
        const double sj = fabs(sx) + fabs(sy);
        if (sj > span)
            span = sj;
        const int ok = fabs(denom) > tol * span * span;
        const double qpx = ax[j] - ax[i];
        const double qpy = ay[j] - ay[i];
        const double t = (qpx * sy - qpy * sx) / denom;
        const double u = (qpx * ry - qpy * rx) / denom;
        hit[k] = (uint8_t)(ok && -slack <= t && t <= 1.0 + slack
                              && -slack <= u && u <= 1.0 + slack);
        px[k] = ax[i] + t * rx;
        py[k] = ay[i] + t * ry;
    }
}

/* ------------------------------------------------------------------ */
/* Batched Liang-Barsky line-to-box clip (geometry/segments.py).       */
/* Returns -1 when a coefficient row is degenerate (norm <= eps); the  */
/* Python wrapper raises the scalar kernel's ValueError.  Invalid rows */
/* still receive seg values (unspecified by contract).                 */
/* ------------------------------------------------------------------ */
int repro_line_box_clip(const double *A, const double *B, const double *C,
                        int64_t k, double xmin, double ymin, double xmax,
                        double ymax, double eps, double *segs,
                        uint8_t *valid)
{
    const double cx = 0.5 * (xmin + xmax);
    const double cy = 0.5 * (ymin + ymax);
    for (int64_t i = 0; i < k; ++i) {
        const double a = A[i];
        const double b = B[i];
        const double c = C[i];
        const double norm = sqrt(a * a + b * b);
        if (norm <= eps)
            return -1;
        const double offset = (a * cx + b * cy - c) / (norm * norm);
        const double px = cx - offset * a;
        const double py = cy - offset * b;
        const double dx = -b / norm;
        const double dy = a / norm;
        double t0 = -INFINITY;
        double t1 = INFINITY;
        int ok = 1;
        const double coords[2] = {px, py};
        const double dirs[2] = {dx, dy};
        const double los[2] = {xmin, ymin};
        const double his[2] = {xmax, ymax};
        for (int wall = 0; wall < 2; ++wall) {
            const double coord = coords[wall];
            const double d = dirs[wall];
            if (fabs(d) <= eps) {
                if (coord < los[wall] - eps || coord > his[wall] + eps)
                    ok = 0;
                continue;
            }
            double ta = (los[wall] - coord) / d;
            double tb = (his[wall] - coord) / d;
            if (ta > tb) {
                const double tmp = ta;
                ta = tb;
                tb = tmp;
            }
            if (ta > t0)
                t0 = ta;
            if (tb < t1)
                t1 = tb;
        }
        if (t0 >= t1)
            ok = 0;
        valid[i] = (uint8_t)ok;
        segs[4 * i + 0] = px + t0 * dx;
        segs[4 * i + 1] = py + t0 * dy;
        segs[4 * i + 2] = px + t1 * dx;
        segs[4 * i + 3] = py + t1 * dy;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Merged-slab tree point location (spatial/planelocate.py): per      */
/* query, an upper-bound binary search over the slab boundaries, then */
/* a leaf-to-root walk of the query slab's tree path.  Each node's    */
/* entry list is bisected for the first entry whose edge-y at qx is   */
/* >= qy (pure compares plus the shared t / y interpolation), and the */
/* best candidate minimizes the float triple (y at qx, y at the query */
/* slab's midline, slope) — slope, negated for an edge whose right   */
/* end is nearer the midline, breaking the degenerate tie where a     */
/* sliver slab's midline rounds onto qx.  The combine compares exact  */
/* values, so the answer is independent of path order and bitwise     */
/* equal to the NumPy lanes.                                          */
/* offs has 2 * leaf_base + 1 entries (heap-indexed nodes 1..2L-1).    */
/* ------------------------------------------------------------------ */
void repro_plane_locate(const double *qx, const double *qy, int64_t m,
                        const double *xs, int64_t n_xs,
                        const int64_t *offs, int64_t leaf_base,
                        const int64_t *ent_u, const int64_t *ent_v,
                        const double *vx, const double *vy,
                        int64_t *best_out, uint8_t *found)
{
    const int64_t n_slabs = n_xs - 1;
    for (int64_t i = 0; i < m; ++i) {
        const double x = qx[i];
        const double y = qy[i];
        if (!(x >= xs[0] && x <= xs[n_xs - 1])) {
            best_out[i] = 0;
            found[i] = 0;
            continue;
        }
        /* searchsorted(xs, x, side="right") - 1, clamped to a slab. */
        int64_t sl = 0;
        int64_t sh = n_xs;
        while (sl < sh) {
            const int64_t mid = (sl + sh) >> 1;
            if (xs[mid] <= x)
                sl = mid + 1;
            else
                sh = mid;
        }
        int64_t slab = sl - 1;
        if (slab > n_slabs - 1)
            slab = n_slabs - 1;
        if (slab < 0)
            slab = 0;
        const double smid = 0.5 * (xs[slab] + xs[slab + 1]);
        int64_t best = -1;
        double best_y = 0.0;
        double best_m = 0.0;
        double best_s = 0.0;
        for (int64_t node = leaf_base + slab; node >= 1; node >>= 1) {
            int64_t lo = offs[node];
            int64_t hi = offs[node + 1];
            const int64_t end = hi;
            while (lo < hi) {
                const int64_t mid = (lo + hi) >> 1;
                const int64_t u = ent_u[mid];
                const int64_t v = ent_v[mid];
                const double pux = vx[u];
                const double t = (x - pux) / (vx[v] - pux);
                const double ey = vy[u] + t * (vy[v] - vy[u]);
                if (ey < y)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            if (lo < end) {
                const int64_t u = ent_u[lo];
                const int64_t v = ent_v[lo];
                const double pux = vx[u];
                const double dx = vx[v] - pux;
                const double dy = vy[v] - vy[u];
                const double yc = vy[u] + ((x - pux) / dx) * dy;
                const double ym = vy[u] + ((smid - pux) / dx) * dy;
                const double sl2 = vx[v] - smid < smid - pux ? -(dy / dx)
                                                           : dy / dx;
                if (best < 0 || yc < best_y
                        || (yc == best_y && ym < best_m)
                        || (yc == best_y && ym == best_m && sl2 < best_s)) {
                    best = lo;
                    best_y = yc;
                    best_m = ym;
                    best_s = sl2;
                }
            }
        }
        best_out[i] = best < 0 ? 0 : best;
        found[i] = (uint8_t)(best >= 0);
    }
}
