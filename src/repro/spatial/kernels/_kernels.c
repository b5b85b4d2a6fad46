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

/* ------------------------------------------------------------------ */
/* Shortest round-trip double writer: Schubfach (R. Giulietti, "The    */
/* Schubfach way to render doubles", 2020), formatted exactly as       */
/* CPython's float.__repr__ and json.dumps write a float.              */
/*                                                                     */
/* A finite nonzero double is v = c * 2^q.  Its rounding interval R_v */
/* (both ends included when c is even, as round-half-even parsing     */
/* reads them) holds every decimal that reads back as v.  With         */
/* k = floor(log10(2^q)) (floor(log10(3/4 2^q)) when the lower gap is  */
/* half the upper), R_v is narrower than 10^(k+1) and at least 10^k    */
/* wide, so the shortest decimal in R_v is the one multiple of         */
/* 10^(k+1) inside it if there is one, else the multiple of 10^k       */
/* inside it nearest v (an even digit on an exact tie).  Both tests    */
/* compare 4 v 10^-k and the interval ends, each computed as one       */
/* 64 x 126-bit product rounded to odd (rop), which the paper proves   */
/* decides every comparison exactly.  That is CPython's own choice:   */
/* the shortest digits that read back, nearest v, ties to even.       */
/*                                                                     */
/* sf_g[2 (k - SF_K_MIN)] and the next entry are the high and low 63   */
/* bits of g(k) = floor(10^-k 2^-r) + 1, the 126-bit multiplier of     */
/* 10^-k; gen_pow10.py computes the table with exact integers.         */
/* ------------------------------------------------------------------ */
/* BEGIN GENERATED: python -m repro.spatial.kernels.gen_pow10 */
#define SF_K_MIN (-324)
#define SF_K_MAX 292
static const uint64_t sf_g[2 * (SF_K_MAX - SF_K_MIN + 1)] = {
    0x4f0cedc95a718dd4ULL, 0x5b01e8b09aa0d1b5ULL, /* -324 */
    0x7e7b160ef71c1621ULL, 0x119ca780f767b5eeULL, /* -323 */
    0x652f44d8c5b011b4ULL, 0x0e16ec672c52f7f2ULL, /* -322 */
    0x50f29d7a37c00e29ULL, 0x581256b8f0425ff5ULL, /* -321 */
    0x40c21794f96671baULL, 0x79a84560c0351991ULL, /* -320 */
    0x679cf287f570b5f7ULL, 0x75da089acd21c281ULL, /* -319 */
    0x52e3f5399126f7f9ULL, 0x44ae6d48a41b0201ULL, /* -318 */
    0x424ff76140ebf994ULL, 0x36f1f106e9af34cdULL, /* -317 */
    0x6a198bcece465c20ULL, 0x57e981a4a918547bULL, /* -316 */
    0x54e13ca571d1e34dULL, 0x2cbace1d541376c9ULL, /* -315 */
    0x43e763b78e4182a4ULL, 0x23c8a4e44342c56eULL, /* -314 */
    0x6ca56c58e39c043aULL, 0x060dd4a06b9e08b0ULL, /* -313 */
    0x56eabd13e9499cfbULL, 0x1e7176e6bc7e6d59ULL, /* -312 */
    0x458897432107b0c8ULL, 0x7ec12bebc9febde1ULL, /* -311 */
    0x6f40f20501a5e7a7ULL, 0x7e01dfdfa9979635ULL, /* -310 */
    0x5900c19d9aeb1fb9ULL, 0x4b34b319547944f7ULL, /* -309 */
    0x4733ce17af227fc7ULL, 0x55c3c27aa9fa9d93ULL, /* -308 */
    0x71ec7cf2b1d0cc72ULL, 0x560603f7765dc8eaULL, /* -307 */
    0x5b2397288e40a38eULL, 0x7804cff92b7e3a55ULL, /* -306 */
    0x48e945ba0b66e93fULL, 0x13370cc755fe9511ULL, /* -305 */
    0x74a86f90123e41feULL, 0x51f1ae0bbcca881bULL, /* -304 */
    0x5d538c7341cb67feULL, 0x74c1580963d539afULL, /* -303 */
    0x4aa93d29016f8665ULL, 0x43cde0078310faf3ULL, /* -302 */
    0x77752ea8024c0a3cULL, 0x0616333f381b2b1eULL, /* -301 */
    0x5f90f22001d66e96ULL, 0x3811c298f9af55b1ULL, /* -300 */
    0x4c73f4e667debedeULL, 0x600e35472e25de28ULL, /* -299 */
    0x7a532170a6313164ULL, 0x3349eed849d6303fULL, /* -298 */
    0x61dc1ac084f42783ULL, 0x42a18be03b11c033ULL, /* -297 */
    0x4e49af006a5cec69ULL, 0x1bb46fe695a7ccf5ULL, /* -296 */
    0x7d42b19a43c7e0a8ULL, 0x2c53e63dbc3fae55ULL, /* -295 */
    0x64355ae1cfd31a20ULL, 0x237651cafcffbeaaULL, /* -294 */
    0x502aaf1b0ca8e1b3ULL, 0x35f8416f30cc9888ULL, /* -293 */
    0x402225af3d53e7c2ULL, 0x5e603458f3d6e06dULL, /* -292 */
    0x669d0918621fd937ULL, 0x4a3386f4b957cd7bULL, /* -291 */
    0x52173a79e8197a92ULL, 0x6e8f9f2a2ddfd796ULL, /* -290 */
    0x41ac2ec7ece12edbULL, 0x720c7f54f17fdfabULL, /* -289 */
    0x69137e0cae3517c6ULL, 0x1ce0cbbb1bffcc45ULL, /* -288 */
    0x540f980a24f74638ULL, 0x171a3c95afffd69eULL, /* -287 */
    0x433facd4ea5f6b60ULL, 0x127b63aaf3331218ULL, /* -286 */
    0x6b991487dd657899ULL, 0x6a5f05de51eb5026ULL, /* -285 */
    0x5614106cb11dfa14ULL, 0x5518d17ea7ef7352ULL, /* -284 */
    0x44dcd9f08db194ddULL, 0x2a7a41321ff2c2a8ULL, /* -283 */
    0x6e2e2980e2b5bafbULL, 0x5d906850331e043fULL, /* -282 */
    0x5824ee00b55e2f2fULL, 0x647386a68f4b3699ULL, /* -281 */
    0x4683f19a2ab1bf59ULL, 0x36c2d21ed908f87bULL, /* -280 */
    0x70d31c29dde93228ULL, 0x579e1cfe280e5a5dULL, /* -279 */
    0x5a427cee4b20f4edULL, 0x2c7e7d98200b7b7eULL, /* -278 */
    0x483530bea280c3f1ULL, 0x09fecae019a2c932ULL, /* -277 */
    0x73884dfdd0ce064eULL, 0x43314499c29e0eb6ULL, /* -276 */
    0x5c6d0b3173d8050bULL, 0x4f5a9d47cee4d891ULL, /* -275 */
    0x49f0d5c129799da2ULL, 0x72aee4397250ad41ULL, /* -274 */
    0x764e22cea8c295d1ULL, 0x377e39f583b44868ULL, /* -273 */
    0x5ea4e8a553cede41ULL, 0x12cb61913629d387ULL, /* -272 */
    0x4bb72084430be500ULL, 0x756f8140f8217605ULL, /* -271 */
    0x792500d39e796e67ULL, 0x6f18cece59cf233cULL, /* -270 */
    0x60ea670fb1fabeb9ULL, 0x3f470bd847d8e8fdULL, /* -269 */
    0x4d885272f4c89894ULL, 0x329f3cad064720caULL, /* -268 */
    0x7c0d50b7ee0dc0edULL, 0x37652de1a3a50143ULL, /* -267 */
    0x633dda2cbe716724ULL, 0x2c50f1814fb73436ULL, /* -266 */
    0x4f64ae8a31f45283ULL, 0x3d0d8e010c92902bULL, /* -265 */
    0x7f077da9e986ea6bULL, 0x7b48e334e0ea8045ULL, /* -264 */
    0x659f97bb2138bb89ULL, 0x49071c2a4d88669dULL, /* -263 */
    0x514c796280fa2fa1ULL, 0x20d27ceea46d1ee4ULL, /* -262 */
    0x4109fab533fb594dULL, 0x670eca58838a7f1dULL, /* -261 */
    0x680ff788532bc216ULL, 0x0b4add5a6c10cb62ULL, /* -260 */
    0x533ff939dc2301abULL, 0x22a24aaebcda3c4eULL, /* -259 */
    0x4299942e49b59aefULL, 0x354ea22563e1c9d8ULL, /* -258 */
    0x6a8f537d42bc2b18ULL, 0x554a9d089fcfa95aULL, /* -257 */
    0x553f75fdcefcef46ULL, 0x776ee406e63fbaaeULL, /* -256 */
    0x4432c4cb0bfd8c38ULL, 0x5f8be99f1e996225ULL, /* -255 */
    0x6d1e07ab466279f4ULL, 0x327975cb64289d08ULL, /* -254 */
    0x574b3955d1e86190ULL, 0x28612b091ced4a6dULL, /* -253 */
    0x45d5c777db204e0dULL, 0x06b4226db0bdd524ULL, /* -252 */
    0x6fbc72595e9a167bULL, 0x24536a491ac95506ULL, /* -251 */
    0x59638eade54811fcULL, 0x1d0f883a7bd44405ULL, /* -250 */
    0x4782d88b1dd34196ULL, 0x4a72d361fca9d004ULL, /* -249 */
    0x726af411c952028aULL, 0x43eaebcffaa94cd3ULL, /* -248 */
    0x5b88c3416ddb353bULL, 0x4fef230cc88770a9ULL, /* -247 */
    0x493a35cdf17c2a96ULL, 0x0cbf4f3d6d3926eeULL, /* -246 */
    0x7529efafe8c6aa89ULL, 0x61321862485b717cULL, /* -245 */
    0x5dbb262653d22207ULL, 0x675b46b506af8dfdULL, /* -244 */
    0x4afc1e850fdb4e6cULL, 0x52af6bc405593e64ULL, /* -243 */
    0x77f9ca6e7fc54a47ULL, 0x377f12d33bc1fd6dULL, /* -242 */
    0x5ffb085866376e9fULL, 0x45ff42429634cabdULL, /* -241 */
    0x4cc8d379eb5f8bb2ULL, 0x6b329b68782a3bcbULL, /* -240 */
    0x7adaebf64565ac51ULL, 0x2b842bda59dd2c77ULL, /* -239 */
    0x6248bcc5045156a7ULL, 0x3c69bcaeae4a89f9ULL, /* -238 */
    0x4ea0970403744552ULL, 0x6387ca25583ba194ULL, /* -237 */
    0x7dcdbe6cd253a21eULL, 0x05a6103bc05f68edULL, /* -236 */
    0x64a498570ea94e7eULL, 0x37b80cfc99e5ed8aULL, /* -235 */
    0x5083ad1272210b98ULL, 0x2c933d96e184be08ULL, /* -234 */
    0x40695741f4e73c79ULL, 0x7075cadf1ad09807ULL, /* -233 */
    0x670ef2032171fa5cULL, 0x4d8944982ae759a4ULL, /* -232 */
    0x52725b35b45b2eb0ULL, 0x3e076a135585e150ULL, /* -231 */
    0x41f515c49048f226ULL, 0x64d2bb42aad1810dULL, /* -230 */
    0x698822d41a0e503eULL, 0x07b7920444826815ULL, /* -229 */
    0x546ce8a9ae71d9cbULL, 0x1fc60e69d0685344ULL, /* -228 */
    0x438a53baf1f4ae3cULL, 0x196b3ebb0d20429dULL, /* -227 */
    0x6c1085f7e9877d2dULL, 0x0f11fdf815006a94ULL, /* -226 */
    0x56739e5fee05fdbdULL, 0x58db319344005543ULL, /* -225 */
    0x45294b7ff19e6497ULL, 0x60af5adc3666aa9cULL, /* -224 */
    0x6ea878ccb5ca3a8cULL, 0x344bc4938a3dddc7ULL, /* -223 */
    0x5886c70a2b082ed6ULL, 0x5d096a0fa1cb17d2ULL, /* -222 */
    0x46d238d4ef39bf12ULL, 0x173abb3fb4a27975ULL, /* -221 */
    0x71505aee4b8f981dULL, 0x0b912b992103f588ULL, /* -220 */
    0x5aa6af25093face4ULL, 0x0940efadb4032ad3ULL, /* -219 */
    0x488558ea6dcc8a50ULL, 0x07672624900288a9ULL, /* -218 */
    0x74088e43e2e0dd4cULL, 0x723ea36db337410eULL, /* -217 */
    0x5cd3a5031be71770ULL, 0x5b654f8af5c5cda5ULL, /* -216 */
    0x4a42ea68e31f45f3ULL, 0x62b772d5916b0aebULL, /* -215 */
    0x76d1770e38320986ULL, 0x0458b7bc1bde77ddULL, /* -214 */
    0x5f0df8d82cf4d46bULL, 0x1d13c630164b9318ULL, /* -213 */
    0x4c0b2d79bd90a9efULL, 0x30dc9e8cdea2dc13ULL, /* -212 */
    0x79ab7bf5fc1aa97fULL, 0x0160fdae31049351ULL, /* -211 */
    0x6155fcc4c9aeedffULL, 0x1ab3fe24f403a90eULL, /* -210 */
    0x4dde63d0a158be65ULL, 0x6229981d9002eda5ULL, /* -209 */
    0x7c97061a9bc130a2ULL, 0x69dc2695b337e2a1ULL, /* -208 */
    0x63ac04e2163426e8ULL, 0x54b01ede28f9821bULL, /* -207 */
    0x4fbcd0b4de901f20ULL, 0x43c018b1ba6134e2ULL, /* -206 */
    0x7f9481216419cb67ULL, 0x1f99c11c5d68549dULL, /* -205 */
    0x6610674de9ae3c52ULL, 0x4c7b00e37ded107eULL, /* -204 */
    0x51a6b90b21583042ULL, 0x09fc00b5fe574065ULL, /* -203 */
    0x41522da2811359ceULL, 0x3b3000919845cd1dULL, /* -202 */
    0x68837c3734ebc2e3ULL, 0x784ccdb5c06fae95ULL, /* -201 */
    0x539c635f5d8968b6ULL, 0x2d0a3e2b00595877ULL, /* -200 */
    0x42e382b2b13aba2bULL, 0x3da1cb5599e11393ULL, /* -199 */
    0x6b059deab52ac378ULL, 0x629c7888f634ec1eULL, /* -198 */
    0x559e17eef755692dULL, 0x3549fa072b5d89b1ULL, /* -197 */
    0x447e798bf91120f1ULL, 0x1107fb38ef7e07c1ULL, /* -196 */
    0x6d9728dff4e834b5ULL, 0x01a65ec17f300c68ULL, /* -195 */
    0x57ac20b32a535d5dULL, 0x4e1eb23465c009edULL, /* -194 */
    0x46234d5c21dc4ab1ULL, 0x24e55b5d1e333b24ULL, /* -193 */
    0x70387bc69c93aab5ULL, 0x216ef894fd1ec506ULL, /* -192 */
    0x59c6c96bb076222aULL, 0x4df2607730e56a6cULL, /* -191 */
    0x47d23abc8d2b4e88ULL, 0x3e5b805f5a5121f0ULL, /* -190 */
    0x72e9f79415121740ULL, 0x63c59a322a1b697fULL, /* -189 */
    0x5bee5fa9aa74df67ULL, 0x03047b5b54e2baccULL, /* -188 */
    0x498b7fbaeec3e5ecULL, 0x0269fc4910b5623dULL, /* -187 */
    0x75abff917e063cacULL, 0x6a432d41b45569fbULL, /* -186 */
    0x5e2332dacb38308aULL, 0x21cf5767c37787fcULL, /* -185 */
    0x4b4f5be23c2cf3a1ULL, 0x67d912b9692c6ccaULL, /* -184 */
    0x787ef969f9e185cfULL, 0x595b5128a8471476ULL, /* -183 */
    0x60659454c7e79e3fULL, 0x6115da86ed05a9f8ULL, /* -182 */
    0x4d1e1043d31fb1ccULL, 0x4dab1538bd9e2193ULL, /* -181 */
    0x7b634d3951cc4fadULL, 0x62ab552795c9cf52ULL, /* -180 */
    0x62b5d7610e3d0c8bULL, 0x0222aa86116e3f75ULL, /* -179 */
    0x4ef7df80d830d6d5ULL, 0x4e822204dabe992aULL, /* -178 */
    0x7e59659af38157bcULL, 0x17369cd49130f510ULL, /* -177 */
    0x65145148c2cddfc9ULL, 0x5f5ee3dd40f3f740ULL, /* -176 */
    0x50dd0dd3cf0b196eULL, 0x1918b64a9a5cc5cdULL, /* -175 */
    0x40b0d7dca5a27abeULL, 0x4746f83baeb09e3eULL, /* -174 */
    0x678159610903f797ULL, 0x253e59f91780fd2fULL, /* -173 */
    0x52cde11a6d9cc612ULL, 0x50feae60df9a6426ULL, /* -172 */
    0x423e4daebe1704dbULL, 0x5a65584d7faeb685ULL, /* -171 */
    0x69fd4917968b3af9ULL, 0x10a226e265e4573bULL, /* -170 */
    0x54caa0dfaba29594ULL, 0x0d4e8581eb1d1295ULL, /* -169 */
    0x43d54d7fbc821143ULL, 0x243ed134bc174211ULL, /* -168 */
    0x6c887bff94034ed2ULL, 0x06cae85460253682ULL, /* -167 */
    0x56d396661002a574ULL, 0x6bd586a9e6842b9bULL, /* -166 */
    0x457611eb40021df7ULL, 0x09779eee52035616ULL, /* -165 */
    0x6f234fdeccd02ff1ULL, 0x5bf297e3b66bbcefULL, /* -164 */
    0x58e90cb23d73598eULL, 0x165bacb62b8963f3ULL, /* -163 */
    0x4720d6f4fdf5e13eULL, 0x451623c4efa11cc2ULL, /* -162 */
    0x71ce24bb2fefcecaULL, 0x3b569fa17f682e03ULL, /* -161 */
    0x5b0b5095bff30bd5ULL, 0x15dee61acc535803ULL, /* -160 */
    0x48d5da11665c0977ULL, 0x2b18b8157042accfULL, /* -159 */
    0x74895ce8a3c6758bULL, 0x5e8df355806aae18ULL, /* -158 */
    0x5d3ab0ba1c9ec46fULL, 0x653e5c4466bbbe7aULL, /* -157 */
    0x4a955a2e7d4bd059ULL, 0x3765169d1efc9861ULL, /* -156 */
    0x77555d172edfb3c2ULL, 0x256e8a94fe60f3cfULL, /* -155 */
    0x5f777dac257fc301ULL, 0x6abed543feb3f63fULL, /* -154 */
    0x4c5f97bceacc9c01ULL, 0x3bcbddcffef65e99ULL, /* -153 */
    0x7a328c6177adc668ULL, 0x5fac961997f0975bULL, /* -152 */
    0x61c209e792f16b86ULL, 0x7fbd44e1465a12afULL, /* -151 */
    0x4e34d4b9425abc6bULL, 0x7fca9d810514dbbfULL, /* -150 */
    0x7d21545b9d5dfa46ULL, 0x32ddc8ce6e87c5ffULL, /* -149 */
    0x641aa9e2e44b2e9eULL, 0x5be4a0a525396b32ULL, /* -148 */
    0x501554b5836f587eULL, 0x7cb6e6ea842def5cULL, /* -147 */
    0x4011109135f2ad32ULL, 0x30925255368b25e3ULL, /* -146 */
    0x6681b41b89844850ULL, 0x4db6ea21f0dea304ULL, /* -145 */
    0x52015ce2d469d373ULL, 0x57c5881b2718826aULL, /* -144 */
    0x419ab0b576bb0f8fULL, 0x5fd139af527a01efULL, /* -143 */
    0x68f781225791b27fULL, 0x4c81f5e550c3364aULL, /* -142 */
    0x53f9341b79415b99ULL, 0x239b2b1dda35c508ULL, /* -141 */
    0x432dc3492dcde2e1ULL, 0x02e288e4ae916a6dULL, /* -140 */
    0x6b7c6ba849496b01ULL, 0x516a74a1174f10aeULL, /* -139 */
    0x55fd22ed076def34ULL, 0x4121f6e745d8da25ULL, /* -138 */
    0x44ca82573924bf5dULL, 0x1a8192529e4714ebULL, /* -137 */
    0x6e10d08b8ea1322eULL, 0x5d9c1d50fd3e87ddULL, /* -136 */
    0x580d73a2d880f4f2ULL, 0x17b01773fdcb9fe4ULL, /* -135 */
    0x4671294f139a5d8eULL, 0x4626792997d61984ULL, /* -134 */
    0x70b50ee4ec2a2f4aULL, 0x3d0a5b75bfbcf59fULL, /* -133 */
    0x5a2a7250bcee8c3bULL, 0x4a6eaf916630c47fULL, /* -132 */
    0x4821f50d63f209c9ULL, 0x21f2260deb5a36ccULL, /* -131 */
    0x736988156cb6760eULL, 0x69837016455d247aULL, /* -130 */
    0x5c546cddf091f80bULL, 0x6e02c011d1175062ULL, /* -129 */
    0x49dd23e4c074c66fULL, 0x719bccdb0dac404eULL, /* -128 */
    0x762e9fd467213d7fULL, 0x68f947c4e2ad33b0ULL, /* -127 */
    0x5e8bb3105280fdffULL, 0x6d94396a4ef0f627ULL, /* -126 */
    0x4ba2f5a6a8673199ULL, 0x3e102deea58d91b9ULL, /* -125 */
    0x7904bc3dda3eb5c2ULL, 0x3019e3176f48e927ULL, /* -124 */
    0x60d09697e1cbc49bULL, 0x4014b5ac590720ecULL, /* -123 */
    0x4d73abacb4a303afULL, 0x4cdd5e237a6c1a57ULL, /* -122 */
    0x7bec45e12104d2b2ULL, 0x47c8969f2a46908aULL, /* -121 */
    0x63236b1a80d0a88eULL, 0x6ca0787f5505406fULL, /* -120 */
    0x4f4f88e200a6ed3fULL, 0x0a19f9ff773766bfULL, /* -119 */
    0x7ee5a7d0010b1531ULL, 0x5cf65ccbf1f23dfeULL, /* -118 */
    0x6584864000d5aa8eULL, 0x172b7d6ff4c1cb32ULL, /* -117 */
    0x5136d1cccd77bba4ULL, 0x78ef978cc3ce3c28ULL, /* -116 */
    0x40f8a7d70ac62fb7ULL, 0x13f2dfa3cfd83020ULL, /* -115 */
    0x67f43fbe77a37f8bULL, 0x398499061959e699ULL, /* -114 */
    0x5329cc985fb5ffa2ULL, 0x6136e0d1ade18548ULL, /* -113 */
    0x4287d6e04c91994fULL, 0x00f8b3daf181376dULL, /* -112 */
    0x6a72f166e0e8f54bULL, 0x1b27862b1c01f247ULL, /* -111 */
    0x5528c11f1a53f76fULL, 0x2f52d1bc1667f506ULL, /* -110 */
    0x44209a7f48432c59ULL, 0x0c424163451ff738ULL, /* -109 */
    0x6d00f7320d3846f4ULL, 0x7a039bd208332526ULL, /* -108 */
    0x5733f8f4d76038c3ULL, 0x7b361641a028ea85ULL, /* -107 */
    0x45c32d90ac4cfa36ULL, 0x2f5e78348020bb9eULL, /* -106 */
    0x6f9eaf4de07b29f0ULL, 0x4bca59ed99cdf8fcULL, /* -105 */
    0x594bbf71806287f3ULL, 0x563b7b247b0b2d96ULL, /* -104 */
    0x476fcc5acd1b9ff6ULL, 0x11c92f50626f57acULL, /* -103 */
    0x724c7a2ae1c5ccbdULL, 0x02db7ee703e55912ULL, /* -102 */
    0x5b7061bbe7d17097ULL, 0x1be2cbec031de0dcULL, /* -101 */
    0x4926b496530df3acULL, 0x164f09899c17e716ULL, /* -100 */
    0x750aba8a1e7cb913ULL, 0x3d4b4275c68ca4f0ULL, /*  -99 */
    0x5da22ed4e530940fULL, 0x4aa29b916ba3b726ULL, /*  -98 */
    0x4ae825771dc07672ULL, 0x6ee87c74561c9285ULL, /*  -97 */
    0x77d9d58b62cd8a51ULL, 0x3173fa53bcfa8408ULL, /*  -96 */
    0x5fe177a2b5713b74ULL, 0x278ffb7630c869a0ULL, /*  -95 */
    0x4cb45fb55df42f90ULL, 0x1fa662c4f3d387b3ULL, /*  -94 */
    0x7aba32bbc986b280ULL, 0x32a3d13b1fb8d91fULL, /*  -93 */
    0x622e8efca1388ecdULL, 0x0ee9742f4c93e0e6ULL, /*  -92 */
    0x4e8ba596e760723dULL, 0x58bac3590a0fe71eULL, /*  -91 */
    0x7dac3c24a5671d2fULL, 0x412ad228101971c9ULL, /*  -90 */
    0x6489c9b6eab8e426ULL, 0x00ef0e8673478e3bULL, /*  -89 */
    0x506e3af8bbc71cebULL, 0x1a58d86b8f6c71c9ULL, /*  -88 */
    0x40582f2d6305b0bcULL, 0x1513e0560c56c16eULL, /*  -87 */
    0x66f37eaf04d5e793ULL, 0x3b530089ad579be2ULL, /*  -86 */
    0x525c6558d0ab1fa9ULL, 0x15dc006e2446164fULL, /*  -85 */
    0x41e384470d55b2edULL, 0x5e4999f1b69e783fULL, /*  -84 */
    0x696c06d81555eb15ULL, 0x7d428fe92430c065ULL, /*  -83 */
    0x54566be0111188deULL, 0x31020cba835a3384ULL, /*  -82 */
    0x4378564cda746d7eULL, 0x5a680a2ecf7b5c69ULL, /*  -81 */
    0x6bf3bd47c3ed7bfdULL, 0x770cdd17b25efa42ULL, /*  -80 */
    0x565c976c9cbdfccbULL, 0x1270b0dfc1e59502ULL, /*  -79 */
    0x4516df8a16fe63d5ULL, 0x5b8d5a4c9b1e10ceULL, /*  -78 */
    0x6e8aff4357fd6c89ULL, 0x127bc3adc4fce7b0ULL, /*  -77 */
    0x586f329c466456d4ULL, 0x0ec96957d0ca52f3ULL, /*  -76 */
    0x46bf5bb038504576ULL, 0x3f07877973d50f29ULL, /*  -75 */
    0x71322c4d26e6d58aULL, 0x31a5a58f1fbb4b75ULL, /*  -74 */
    0x5a8e89d75252446eULL, 0x5aeaead8e62f6f91ULL, /*  -73 */
    0x487207df750e9d25ULL, 0x2f22557a51bf8c74ULL, /*  -72 */
    0x73e9a63254e42ea2ULL, 0x1836ef2a1c65ad86ULL, /*  -71 */
    0x5cbaeb5b771cf21bULL, 0x2cf8bf54e3848ad2ULL, /*  -70 */
    0x4a2f22af927d8e7cULL, 0x23fa32aa4f9d3bdbULL, /*  -69 */
    0x76b1d118ea627d93ULL, 0x5329eaaa18fb92f8ULL, /*  -68 */
    0x5ef4a74721e86476ULL, 0x0f54bbbb472fa8c6ULL, /*  -67 */
    0x4bf6ec38e7ed1d2bULL, 0x25dd62fc38f2ed6cULL, /*  -66 */
    0x798b138e3fe1c845ULL, 0x22fbd1938e517bdfULL, /*  -65 */
    0x613c0fa4ffe7d36aULL, 0x4f2fdadc71dac97fULL, /*  -64 */
    0x4dc9a61d998642bbULL, 0x58f3157d27e23accULL, /*  -63 */
    0x7c75d695c2706ac5ULL, 0x74b82261d969f7adULL, /*  -62 */
    0x63917877cec0556bULL, 0x10934eb4adee5fbeULL, /*  -61 */
    0x4fa793930bcd1122ULL, 0x4075d8908b251965ULL, /*  -60 */
    0x7f7285b812e1b504ULL, 0x00bc8db411d4f56eULL, /*  -59 */
    0x65f537c675815d9cULL, 0x66fd3e29a7dd9125ULL, /*  -58 */
    0x5190f96b91344ae3ULL, 0x6bfdcb54864ada84ULL, /*  -57 */
    0x4140c78940f6a24fULL, 0x6ffe3c439ea2486aULL, /*  -56 */
    0x6867a5a867f103b2ULL, 0x7ffd2d38fdd073dcULL, /*  -55 */
    0x53861e2053273628ULL, 0x6664242d97d9f64aULL, /*  -54 */
    0x42d1b1b375b8f820ULL, 0x51e9b68adfe191d5ULL, /*  -53 */
    0x6ae91c5255f4c034ULL, 0x1ca924116635b621ULL, /*  -52 */
    0x558749db77f70029ULL, 0x63ba83411e915e81ULL, /*  -51 */
    0x446c3b15f9926687ULL, 0x6962029a7edab201ULL, /*  -50 */
    0x6d79f82328ea3da6ULL, 0x0f03375d97c45001ULL, /*  -49 */
    0x5794c6828721caebULL, 0x259c2c4adfd04001ULL, /*  -48 */
    0x46109eced2816f22ULL, 0x5149bd08b30d0001ULL, /*  -47 */
    0x701a97b150cf1837ULL, 0x3542c80deb480001ULL, /*  -46 */
    0x59aedfc10d7279c5ULL, 0x7768a00b22a00001ULL, /*  -45 */
    0x47bf19673df52e37ULL, 0x79208008e8800001ULL, /*  -44 */
    0x72cb5bd86321e38cULL, 0x5b67334174000001ULL, /*  -43 */
    0x5bd5e313828182d6ULL, 0x7c528f6790000001ULL, /*  -42 */
    0x4977e8dc68679bdfULL, 0x16a872b940000001ULL, /*  -41 */
    0x758ca7c70d7292feULL, 0x5773eac200000001ULL, /*  -40 */
    0x5e0a1fd271287598ULL, 0x45f6556800000001ULL, /*  -39 */
    0x4b3b4ca85a86c47aULL, 0x04c5112000000001ULL, /*  -38 */
    0x785ee10d5da46d90ULL, 0x07a1b50000000001ULL, /*  -37 */
    0x604be73de4838ad9ULL, 0x52e7c40000000001ULL, /*  -36 */
    0x4d0985cb1d3608aeULL, 0x0f1fd00000000001ULL, /*  -35 */
    0x7b426fab61f00de3ULL, 0x31cc800000000001ULL, /*  -34 */
    0x629b8c891b267182ULL, 0x5b0a000000000001ULL, /*  -33 */
    0x4ee2d6d415b85aceULL, 0x7c08000000000001ULL, /*  -32 */
    0x7e37be2022c0914bULL, 0x1340000000000001ULL, /*  -31 */
    0x64f964e68233a76fULL, 0x2900000000000001ULL, /*  -30 */
    0x50c783eb9b5c85f2ULL, 0x5400000000000001ULL, /*  -29 */
    0x409f9cbc7c4a04c2ULL, 0x1000000000000001ULL, /*  -28 */
    0x6765c793fa10079dULL, 0x0000000000000001ULL, /*  -27 */
    0x52b7d2dcc80cd2e4ULL, 0x0000000000000001ULL, /*  -26 */
    0x422ca8b0a00a4250ULL, 0x0000000000000001ULL, /*  -25 */
    0x69e10de76676d080ULL, 0x0000000000000001ULL, /*  -24 */
    0x54b40b1f852bda00ULL, 0x0000000000000001ULL, /*  -23 */
    0x43c33c1937564800ULL, 0x0000000000000001ULL, /*  -22 */
    0x6c6b935b8bbd4000ULL, 0x0000000000000001ULL, /*  -21 */
    0x56bc75e2d6310000ULL, 0x0000000000000001ULL, /*  -20 */
    0x4563918244f40000ULL, 0x0000000000000001ULL, /*  -19 */
    0x6f05b59d3b200000ULL, 0x0000000000000001ULL, /*  -18 */
    0x58d15e1762800000ULL, 0x0000000000000001ULL, /*  -17 */
    0x470de4df82000000ULL, 0x0000000000000001ULL, /*  -16 */
    0x71afd498d0000000ULL, 0x0000000000000001ULL, /*  -15 */
    0x5af3107a40000000ULL, 0x0000000000000001ULL, /*  -14 */
    0x48c2739500000000ULL, 0x0000000000000001ULL, /*  -13 */
    0x746a528800000000ULL, 0x0000000000000001ULL, /*  -12 */
    0x5d21dba000000000ULL, 0x0000000000000001ULL, /*  -11 */
    0x4a817c8000000000ULL, 0x0000000000000001ULL, /*  -10 */
    0x7735940000000000ULL, 0x0000000000000001ULL, /*   -9 */
    0x5f5e100000000000ULL, 0x0000000000000001ULL, /*   -8 */
    0x4c4b400000000000ULL, 0x0000000000000001ULL, /*   -7 */
    0x7a12000000000000ULL, 0x0000000000000001ULL, /*   -6 */
    0x61a8000000000000ULL, 0x0000000000000001ULL, /*   -5 */
    0x4e20000000000000ULL, 0x0000000000000001ULL, /*   -4 */
    0x7d00000000000000ULL, 0x0000000000000001ULL, /*   -3 */
    0x6400000000000000ULL, 0x0000000000000001ULL, /*   -2 */
    0x5000000000000000ULL, 0x0000000000000001ULL, /*   -1 */
    0x4000000000000000ULL, 0x0000000000000001ULL, /*    0 */
    0x6666666666666666ULL, 0x3333333333333334ULL, /*    1 */
    0x51eb851eb851eb85ULL, 0x0f5c28f5c28f5c29ULL, /*    2 */
    0x4189374bc6a7ef9dULL, 0x5916872b020c49bbULL, /*    3 */
    0x68db8bac710cb295ULL, 0x74f0d844d013a92bULL, /*    4 */
    0x53e2d6238da3c211ULL, 0x43f3e0370cdc8755ULL, /*    5 */
    0x431bde82d7b634daULL, 0x698fe69270b06c44ULL, /*    6 */
    0x6b5fca6af2bd215eULL, 0x0f4ca41d811a46d4ULL, /*    7 */
    0x55e63b88c230e77eULL, 0x3f70834acdae9f10ULL, /*    8 */
    0x44b82fa09b5a52cbULL, 0x4c5a02a23e254c0dULL, /*    9 */
    0x6df37f675ef6eadfULL, 0x2d5cd10396a21347ULL, /*   10 */
    0x57f5ff85e592557fULL, 0x3de3da69454e75d3ULL, /*   11 */
    0x465e6604b7a84465ULL, 0x7e4fe1edd10b9175ULL, /*   12 */
    0x709709a125da0709ULL, 0x4a19697c81ac1befULL, /*   13 */
    0x5a126e1a84ae6c07ULL, 0x54e1213067bce326ULL, /*   14 */
    0x480ebe7b9d58566cULL, 0x43e74dc052fd8285ULL, /*   15 */
    0x734aca5f6226f0adULL, 0x530baf9a1e626a6dULL, /*   16 */
    0x5c3bd5191b525a24ULL, 0x426fbfae7eb521f1ULL, /*   17 */
    0x49c97747490eae83ULL, 0x4ebfcc8b9890e7f4ULL, /*   18 */
    0x760f253edb4ab0d2ULL, 0x4acc7a78f41b0cbaULL, /*   19 */
    0x5e72843249088d75ULL, 0x223d2ec729af3d62ULL, /*   20 */
    0x4b8ed0283a6d3df7ULL, 0x34fdbf05baf29781ULL, /*   21 */
    0x78e480405d7b9658ULL, 0x54c931a2c4b758cfULL, /*   22 */
    0x60b6cd004ac94513ULL, 0x5d6dc14f03c5e0a5ULL, /*   23 */
    0x4d5f0a66a23a9da9ULL, 0x31249aa59c9e4d51ULL, /*   24 */
    0x7bcb43d769f762a8ULL, 0x4ea0f76f60fd4882ULL, /*   25 */
    0x63090312bb2c4eedULL, 0x254d92bf80caa068ULL, /*   26 */
    0x4f3a68dbc8f03f24ULL, 0x1dd7a89933d54d20ULL, /*   27 */
    0x7ec3daf941806506ULL, 0x62f2a75b86221500ULL, /*   28 */
    0x65697bfa9acd1d9fULL, 0x025bb91604e810cdULL, /*   29 */
    0x51212ffbaf0a7e18ULL, 0x684960de6a5340a4ULL, /*   30 */
    0x40e7599625a1fe7aULL, 0x203ab3e521dc33b6ULL, /*   31 */
    0x67d88f56a29cca5dULL, 0x19f7863b696052bdULL, /*   32 */
    0x5313a5dee87d6eb0ULL, 0x7b2c6b62bab37564ULL, /*   33 */
    0x42761e4bed31255aULL, 0x2f56bc4efbc2c450ULL, /*   34 */
    0x6a5696dfe1e83bc3ULL, 0x655793b192d13a1aULL, /*   35 */
    0x5512124cb4b9c969ULL, 0x377942f475742e7bULL, /*   36 */
    0x440e750a2a2e3abaULL, 0x5f9435905df68b96ULL, /*   37 */
    0x6ce3ee76a9e3912aULL, 0x65b9ef4d63241289ULL, /*   38 */
    0x571cbec554b60dbbULL, 0x6afb25d782834207ULL, /*   39 */
    0x45b0989ddd5e7163ULL, 0x08c8eb12cecf6806ULL, /*   40 */
    0x6f80f42fc8971bd1ULL, 0x5adb11b7b14bd9a3ULL, /*   41 */
    0x5933f68ca078e30eULL, 0x157c0e2c8dd647b5ULL, /*   42 */
    0x475cc53d4d2d8271ULL, 0x5dfcd823a4ab6c91ULL, /*   43 */
    0x722e086215159d82ULL, 0x632e269f6ddf141bULL, /*   44 */
    0x5b5806b4ddaae468ULL, 0x4f581ee5f17f4349ULL, /*   45 */
    0x49133890b1558386ULL, 0x72ace584c1329c3bULL, /*   46 */
    0x74eb8db44eef38d7ULL, 0x6aae3c079b842d2aULL, /*   47 */
    0x5d893e29d8bf60acULL, 0x5558300616035755ULL, /*   48 */
    0x4ad431bb13cc4d56ULL, 0x7779c004de6912abULL, /*   49 */
    0x77b9e92b52e07bbeULL, 0x258f99a163db5111ULL, /*   50 */
    0x5fc7edbc424d2fcbULL, 0x37a614811caf740dULL, /*   51 */
    0x4c9ff163683dbfd5ULL, 0x7951aa00e3bf900bULL, /*   52 */
    0x7a998238a6c932efULL, 0x754f7667d2cc19abULL, /*   53 */
    0x6214682d523a8f26ULL, 0x2aa5f8530f09ae22ULL, /*   54 */
    0x4e76b9bddb620c1eULL, 0x55519375a5a1581bULL, /*   55 */
    0x7d8ac2c95f034697ULL, 0x3bb5b8bc3c3559c5ULL, /*   56 */
    0x646f023ab2690545ULL, 0x7c9160969691149eULL, /*   57 */
    0x5058ce955b87376bULL, 0x16dab3ababa743b2ULL, /*   58 */
    0x40470baaaf9f5f88ULL, 0x78aef622efb902f5ULL, /*   59 */
    0x66d812aab29898dbULL, 0x0de4bd04b2c19e54ULL, /*   60 */
    0x524675555bad4715ULL, 0x57ea30d08f014b76ULL, /*   61 */
    0x41d1f7777c8a9f44ULL, 0x4654f3da0c01092cULL, /*   62 */
    0x694ff258c7443207ULL, 0x23bb1fc346680eacULL, /*   63 */
    0x543ff513d29cf4d2ULL, 0x4fc8e635d1ecd88aULL, /*   64 */
    0x43665da9754a5d75ULL, 0x263a51c4a7f0ad3bULL, /*   65 */
    0x6bd6fc425543c8bbULL, 0x56c3b607731aaec4ULL, /*   66 */
    0x5645969b77696d62ULL, 0x789c919f8f488bd0ULL, /*   67 */
    0x4504787c5f878ab5ULL, 0x46e3a7b2d906d640ULL, /*   68 */
    0x6e6d8d93cc0c1122ULL, 0x3e390c515b3e239aULL, /*   69 */
    0x5857a4763cd6741bULL, 0x4b60d6a77c31b615ULL, /*   70 */
    0x46ac8391ca4529afULL, 0x55e7121f968e2b44ULL, /*   71 */
    0x711405b6106ea919ULL, 0x0971b698f0e3786dULL, /*   72 */
    0x5a766af80d255414ULL, 0x078e2bad8d82c6bdULL, /*   73 */
    0x485ebbf9a41ddcdcULL, 0x6c71bc8ad79bd231ULL, /*   74 */
    0x73cac65c39c96161ULL, 0x2d82c7448c2c8382ULL, /*   75 */
    0x5ca23849c7d44de7ULL, 0x3e023903a356cf9bULL, /*   76 */
    0x4a1b603b06437185ULL, 0x7e682d9c82abd949ULL, /*   77 */
    0x76923391a39f1c09ULL, 0x4a4048fa6aac8edbULL, /*   78 */
    0x5edb5c7482e5b007ULL, 0x55003a61eef07249ULL, /*   79 */
    0x4be2b05d35848cd2ULL, 0x773361e7f259f507ULL, /*   80 */
    0x796ab3c855a0e151ULL, 0x3eb89ca6508fee71ULL, /*   81 */
    0x6122296d114d810dULL, 0x7efa16eb73a6585bULL, /*   82 */
    0x4db4edf0daa4673eULL, 0x3261abef8fb846afULL, /*   83 */
    0x7c54afe7c43a3ecaULL, 0x1d691318e5f3a44bULL, /*   84 */
    0x6376f31fd02e98a1ULL, 0x64540f471e5c836fULL, /*   85 */
    0x4f925c1973587a1bULL, 0x0376729f4b7d35f3ULL, /*   86 */
    0x7f50935bebc0c35eULL, 0x38bd84321261efebULL, /*   87 */
    0x65da0f7cbc9a35e5ULL, 0x13cad0280eb4bfefULL, /*   88 */
    0x517b3f96fd482b1dULL, 0x5ca240200bc3ccbfULL, /*   89 */
    0x412f66126439bc17ULL, 0x63b50019a3030a33ULL, /*   90 */
    0x684bd683d38f9359ULL, 0x1f88002904d1a9eaULL, /*   91 */
    0x536fdecfdc72dc47ULL, 0x32d3335403daee55ULL, /*   92 */
    0x42bfe57316c249d2ULL, 0x5bdc291003158b77ULL, /*   93 */
    0x6acca251be03a951ULL, 0x12f9db4cd1bc1258ULL, /*   94 */
    0x557081dafe695440ULL, 0x7594af70a7c9a847ULL, /*   95 */
    0x445a017bfebaa9cdULL, 0x4476f2c0863aed06ULL, /*   96 */
    0x6d5ccf2ccac442e2ULL, 0x3a57eacda3917b3cULL, /*   97 */
    0x577d728a3bd03581ULL, 0x7b7988a482dac8fdULL, /*   98 */
    0x45fdf53b630cf79bULL, 0x15fad3b6cf156d97ULL, /*   99 */
    0x6ffcbb923814bf5eULL, 0x565e1f8ae4ef15beULL, /*  100 */
    0x5996fc74f9aa32b2ULL, 0x11e4e608b725aaffULL, /*  101 */
    0x47abfd2a6154f55bULL, 0x27ea51a0928488ccULL, /*  102 */
    0x72acc843ceee555eULL, 0x7310829a84074146ULL, /*  103 */
    0x5bbd6d030bf1dde5ULL, 0x42739baed005cdd2ULL, /*  104 */
    0x49645735a327e4b7ULL, 0x4ec2e2f24004a4a8ULL, /*  105 */
    0x756d5855d1d96df2ULL, 0x4ad16b1d333aa10cULL, /*  106 */
    0x5df11377db1457f5ULL, 0x2241227dc2954da3ULL, /*  107 */
    0x4b2742c648dd132aULL, 0x4e9a81fe35443e1cULL, /*  108 */
    0x783ed13d4161b844ULL, 0x175d9cc9eed39694ULL, /*  109 */
    0x603240fdcde7c69cULL, 0x7917b0a18bdc7876ULL, /*  110 */
    0x4cf500cb0b1fd217ULL, 0x1412f3b46fe39392ULL, /*  111 */
    0x7b219ade7832e9beULL, 0x535185ed7fd285b6ULL, /*  112 */
    0x628148b1f9c25498ULL, 0x42a79e57997537c5ULL, /*  113 */
    0x4ecdd3c1949b76e0ULL, 0x3552e512e12a9304ULL, /*  114 */
    0x7e161f9c20f8be33ULL, 0x6eeb081e3510eb39ULL, /*  115 */
    0x64de7fb01a609829ULL, 0x3f226ce4f740bc2eULL, /*  116 */
    0x50b1ffc0151a1354ULL, 0x3281f0b72c33c9beULL, /*  117 */
    0x408e66334414dc43ULL, 0x42018d5f568fd498ULL, /*  118 */
    0x674a3d1ed354939fULL, 0x1ccf48988a7fba8dULL, /*  119 */
    0x52a1ca7f0f76dc7fULL, 0x30a5d3ad3b99620bULL, /*  120 */
    0x421b0865a5f8b065ULL, 0x73b7dc8a96144e6fULL, /*  121 */
    0x69c4da3c3cc11a3cULL, 0x52bfc7442353b0b1ULL, /*  122 */
    0x549d7b6363cdae96ULL, 0x756639034f7626f4ULL, /*  123 */
    0x43b12f82b63e2545ULL, 0x4451c735d92b525dULL, /*  124 */
    0x6c4eb26abd303ba2ULL, 0x3a1c71efc1deea2eULL, /*  125 */
    0x56a55b889759c94eULL, 0x61b05b2634b254f2ULL, /*  126 */
    0x45511606df7b0772ULL, 0x1af37c1e908eaa5bULL, /*  127 */
    0x6ee8233e325e7250ULL, 0x2b1f2cfdb41776f8ULL, /*  128 */
    0x58b9b5cb5b7ec1d9ULL, 0x6f4c23fe29ac5f2dULL, /*  129 */
    0x46faf7d5e2cbce47ULL, 0x72a34ffe87bd18f1ULL, /*  130 */
    0x71918c896adfb073ULL, 0x04387ffda5fb5b1bULL, /*  131 */
    0x5adad6d4557fc05cULL, 0x0360666484c915afULL, /*  132 */
    0x48af1243779966b0ULL, 0x02b3851d3707448cULL, /*  133 */
    0x744b506bf28f0ab3ULL, 0x1dec082ebe720746ULL, /*  134 */
    0x5d090d2328726ef5ULL, 0x64bcd358985b3905ULL, /*  135 */
    0x4a6da41c205b8bf7ULL, 0x6a30a913ad15c738ULL, /*  136 */
    0x7715d36033c5acbfULL, 0x5d1aa81f7b560b8cULL, /*  137 */
    0x5f44a919c3048a32ULL, 0x7daeece5fc44d609ULL, /*  138 */
    0x4c36edae359d3b5bULL, 0x7e258a51969d7808ULL, /*  139 */
    0x79f17c49ef61f893ULL, 0x16a276e8f0fbf33fULL, /*  140 */
    0x618dfd07f2b4c6dcULL, 0x121b9253f3fcc299ULL, /*  141 */
    0x4e0b30d328909f16ULL, 0x41afa84329970214ULL, /*  142 */
    0x7cdeb4850db431bdULL, 0x4f7f739ea8f19cedULL, /*  143 */
    0x63e55d373e29c164ULL, 0x3f99294bba5ae3f1ULL, /*  144 */
    0x4feab0f8fe87cde9ULL, 0x7fadbaa2fb7be98dULL, /*  145 */
    0x7fdde7f4ca72e30fULL, 0x7f7c5dd1925fdc15ULL, /*  146 */
    0x664b1ff7085be8d9ULL, 0x4c637e4141e649abULL, /*  147 */
    0x51d5b32c06afed7aULL, 0x704f983434b83aefULL, /*  148 */
    0x4177c2899ef32462ULL, 0x26a6135cf6f9c8bfULL, /*  149 */
    0x68bf9da8fe51d3d0ULL, 0x3dd685618b294132ULL, /*  150 */
    0x53cc7e20cb74a973ULL, 0x4b12044e08edcdc2ULL, /*  151 */
    0x4309fe80a2c3bac2ULL, 0x6f419d0b3a57d7ceULL, /*  152 */
    0x6b4330cdd1392ad1ULL, 0x320294dec3bfbfb0ULL, /*  153 */
    0x55cf5a3e40fa88a7ULL, 0x419baa4bcfcc995aULL, /*  154 */
    0x44a5e1cb672ed3b9ULL, 0x1ae2eea30ca3ade1ULL, /*  155 */
    0x6dd636123eb152c1ULL, 0x77d17dd1add2afcfULL, /*  156 */
    0x57de91a832277567ULL, 0x797464a7be42263fULL, /*  157 */
    0x464ba7b9c1b92ab9ULL, 0x4790508631ce84ffULL, /*  158 */
    0x70790c5c6928445cULL, 0x0c1a1a704fb0d4ccULL, /*  159 */
    0x59fa7049edb9d049ULL, 0x567b4859d95a43d6ULL, /*  160 */
    0x47fb8d07f161736eULL, 0x11fc39e17aae9cabULL, /*  161 */
    0x732c14d98235857dULL, 0x032d2968c44a9445ULL, /*  162 */
    0x5c2343e134f79dfdULL, 0x4f575453d03ba9d1ULL, /*  163 */
    0x49b5cfe75d92e4caULL, 0x72ac4376402fbb0eULL, /*  164 */
    0x75efb30bc8eb07abULL, 0x0446d256cd192b49ULL, /*  165 */
    0x5e595c096d88d2efULL, 0x1d0575123dadbc3aULL, /*  166 */
    0x4b7ab0078ad3dbf2ULL, 0x4a6ac40e97be302fULL, /*  167 */
    0x78c44cd8de1fc650ULL, 0x771139b0f2c9e6b1ULL, /*  168 */
    0x609d0a4718196b73ULL, 0x78da948d8f07ebc1ULL, /*  169 */
    0x4d4a6e9f467abc5cULL, 0x60aedd3e0c065634ULL, /*  170 */
    0x7baa4a9870c46094ULL, 0x344afb9679a3bd20ULL, /*  171 */
    0x62eea2138d69e6ddULL, 0x103bfc78614fca80ULL, /*  172 */
    0x4f254e760abb1f17ULL, 0x26966393810ca200ULL, /*  173 */
    0x7ea21723445e9825ULL, 0x2423d2859b476999ULL, /*  174 */
    0x654e78e9037ee01dULL, 0x69b642047c392148ULL, /*  175 */
    0x510b93ed9c658017ULL, 0x6e2b680396941aa0ULL, /*  176 */
    0x40d60ff149eaccdfULL, 0x71bc53361210154dULL, /*  177 */
    0x67bce64edcaae166ULL, 0x1c6085235019bbaeULL, /*  178 */
    0x52fd850be3bbe784ULL, 0x7d1a041c40149625ULL, /*  179 */
    0x42646a6fe9631f9dULL, 0x4a7b367d0010781dULL, /*  180 */
    0x6a3a43e642383295ULL, 0x5d91f0c8001a59c8ULL, /*  181 */
    0x54fb698501c68edeULL, 0x17a7f3d3334847d4ULL, /*  182 */
    0x43fc546a67d20be4ULL, 0x79532975c2a03976ULL, /*  183 */
    0x6cc6ed770c83463bULL, 0x0eeb75893766c256ULL, /*  184 */
    0x57058ac5a39c382fULL, 0x25892ad42c523512ULL, /*  185 */
    0x459e089e1c7cf9bfULL, 0x37a0ef102374f742ULL, /*  186 */
    0x6f6340fcfa618f98ULL, 0x59017e8038bb2536ULL, /*  187 */
    0x591c33fd951ad946ULL, 0x7a67986693c8ea91ULL, /*  188 */
    0x4749c33144157a9fULL, 0x151fad1edca0bba8ULL, /*  189 */
    0x720f9eb539bbf765ULL, 0x0832ae97c76792a5ULL, /*  190 */
    0x5b3fb22a94965f84ULL, 0x068ef21305ec7551ULL, /*  191 */
    0x48ffc1bbaa11e603ULL, 0x1ed8c1a8d189f774ULL, /*  192 */
    0x74cc692c434fd66bULL, 0x4af4690e1c0ff253ULL, /*  193 */
    0x5d705423690cab89ULL, 0x225d20d816732843ULL, /*  194 */
    0x4ac0434f873d5607ULL, 0x35174d79ab8f5369ULL, /*  195 */
    0x779a054c0b955672ULL, 0x21bee25c45b21f0eULL, /*  196 */
    0x5fae6aa33c77785bULL, 0x3498b5169e2818d8ULL, /*  197 */
    0x4c8b888296c5f9e2ULL, 0x5d46f7454b534713ULL, /*  198 */
    0x7a78da6a8ad65c9dULL, 0x7ba4bed545520b52ULL, /*  199 */
    0x61fa48553bdeb07eULL, 0x2fb6ff110441a2a8ULL, /*  200 */
    0x4e61d37763188d31ULL, 0x72f8cc0d9d014eedULL, /*  201 */
    0x7d6952589e8daeb6ULL, 0x1e5ae015c80217e1ULL, /*  202 */
    0x645441e07ed7bef8ULL, 0x1848b344a001acb4ULL, /*  203 */
    0x504367e6cbdfcbf9ULL, 0x603a2903b3348a2aULL, /*  204 */
    0x4035ecb8a3196ffbULL, 0x002e873628f6d4eeULL, /*  205 */
    0x66bcadf43828b32bULL, 0x19e40b89db2487e3ULL, /*  206 */
    0x52308b29c686f5bcULL, 0x14b66fa17c1d3983ULL, /*  207 */
    0x41c06f549ed25e30ULL, 0x1091f2e7967dc79cULL, /*  208 */
    0x6933e554315096b3ULL, 0x341cb7d8f0c93f5fULL, /*  209 */
    0x542984435aa6def5ULL, 0x767d5fe0c0a0ff80ULL, /*  210 */
    0x435469cf7bb8b25eULL, 0x2b977fe70080cc66ULL, /*  211 */
    0x6bba42e592c11d63ULL, 0x5f58cca4cd9ae0a3ULL, /*  212 */
    0x562e9beadbcdb11cULL, 0x4c470a1d7148b3b6ULL, /*  213 */
    0x44f216557ca48db0ULL, 0x3d05a1b1276d5c92ULL, /*  214 */
    0x6e5023bbfaa0e2b3ULL, 0x7b3c35e83f1560e9ULL, /*  215 */
    0x58401c96621a4ef6ULL, 0x2f635e5365aab3edULL, /*  216 */
    0x4699b0784e7b725eULL, 0x591c4b75eaeef658ULL, /*  217 */
    0x70f5e726e3f8b6fdULL, 0x74fa125644b18a26ULL, /*  218 */
    0x5a5e5285832d5f31ULL, 0x43fb41de9d5ad4ebULL, /*  219 */
    0x484b75379c244c27ULL, 0x4ffc34b2177bdd89ULL, /*  220 */
    0x73abeebf603a1372ULL, 0x4cc6bab68bf96274ULL, /*  221 */
    0x5c898bcc4cfb42c2ULL, 0x0a38955ed6611b90ULL, /*  222 */
    0x4a07a309d72f689bULL, 0x21c6dde5784dafa7ULL, /*  223 */
    0x76729e762518a75eULL, 0x693e2fd58d49190bULL, /*  224 */
    0x5ec2185e8413b918ULL, 0x5431bfde0aa0e0d5ULL, /*  225 */
    0x4bce79e536762dadULL, 0x29c1664b3bb3e711ULL, /*  226 */
    0x794a5ca1f0bd15e2ULL, 0x0f9bd6dec5eca4e8ULL, /*  227 */
    0x61084a1b26fdab1bULL, 0x2616457f04bd50baULL, /*  228 */
    0x4da03b48ebfe227cULL, 0x1e783798d09773c8ULL, /*  229 */
    0x7c33920e46636a60ULL, 0x30c058f480f252d9ULL, /*  230 */
    0x635c74d8384f884dULL, 0x0d66ad9067284247ULL, /*  231 */
    0x4f7d2a469372d370ULL, 0x711ef14052869b6cULL, /*  232 */
    0x7f2eaa0a85848581ULL, 0x34fe4ecd50d75f14ULL, /*  233 */
    0x65beee6ed136d134ULL, 0x2a650bd773df7f43ULL, /*  234 */
    0x51658b8bda9240f6ULL, 0x551da312c319329cULL, /*  235 */
    0x411e093caedb672bULL, 0x5db14f4235adc217ULL, /*  236 */
    0x68300ec77e2bd845ULL, 0x7c4ee536bc49368aULL, /*  237 */
    0x5359a56c64efe037ULL, 0x7d0bea92303a9208ULL, /*  238 */
    0x42ae1df050bfe693ULL, 0x173cbba8269541a0ULL, /*  239 */
    0x6ab02fe6e79970ebULL, 0x3ec792a6a422029aULL, /*  240 */
    0x5559bfebec7ac0bcULL, 0x3239421ee9b4cee1ULL, /*  241 */
    0x4447ccbcbd2f0096ULL, 0x5b6101b25490a581ULL, /*  242 */
    0x6d3fadfac84b3424ULL, 0x2bce691d541aa268ULL, /*  243 */
    0x576624c8a03c29b6ULL, 0x563eba7ddce21b87ULL, /*  244 */
    0x45eb50a08030215eULL, 0x78322ecb171b4939ULL, /*  245 */
    0x6fdee76733803564ULL, 0x59e9e47824f87527ULL, /*  246 */
    0x597f1f85c2ccf783ULL, 0x6187e9f9b72d2a86ULL, /*  247 */
    0x4798e6049bd72c69ULL, 0x346cbb2e2c242205ULL, /*  248 */
    0x728e3cd42c8b7a42ULL, 0x20adf849e039d007ULL, /*  249 */
    0x5ba4fd768a092e9bULL, 0x33be603b19c7d99fULL, /*  250 */
    0x4950cac53b3a8bafULL, 0x42feb3627b0647b3ULL, /*  251 */
    0x754e113b91f745e5ULL, 0x5197856a5e7072b8ULL, /*  252 */
    0x5dd80dc941929e51ULL, 0x27ac6abb7ec05bc6ULL, /*  253 */
    0x4b133e3a9adbb1daULL, 0x52f05562cbcd1638ULL, /*  254 */
    0x781ec9f75e2c4fc4ULL, 0x1e4d556adfae89f3ULL, /*  255 */
    0x6018a192b1bd0c9cULL, 0x7ea444557fbed4c3ULL, /*  256 */
    0x4ce0814227ca707dULL, 0x4bb69d1132ff109cULL, /*  257 */
    0x7b00ced03faa4d95ULL, 0x5f8a94e851981a93ULL, /*  258 */
    0x62670bd9cc883e11ULL, 0x32d543ed0e134875ULL, /*  259 */
    0x4eb8d647d6d364daULL, 0x5bddcff0d80f6d2bULL, /*  260 */
    0x7df48a0c8aebd491ULL, 0x12fc7fe7c018aeabULL, /*  261 */
    0x64c3a1a3a25643a7ULL, 0x28c9ffec99ad5889ULL, /*  262 */
    0x509c814fb511cfb9ULL, 0x0707fff07af113a1ULL, /*  263 */
    0x407d343fc40e3fc7ULL, 0x1f39998d2f2742e7ULL, /*  264 */
    0x672eb9ffa016cc71ULL, 0x7ec28f484b7204a4ULL, /*  265 */
    0x528bc7ffb345705bULL, 0x189ba5d36f8e6a1dULL, /*  266 */
    0x42096ccc8f6ac048ULL, 0x7a161e42bfa521b1ULL, /*  267 */
    0x69a8ae1418aacd41ULL, 0x435696d132a1cf81ULL, /*  268 */
    0x5486f1a9ad557101ULL, 0x1c454574288172ceULL, /*  269 */
    0x439f27baf1112734ULL, 0x169dd129ba0128a5ULL, /*  270 */
    0x6c31d92b1b4ea520ULL, 0x242fb50f9001daa1ULL, /*  271 */
    0x568e4755af721db3ULL, 0x368c90d940017bb4ULL, /*  272 */
    0x453e9f77bf8e7e29ULL, 0x120a0d7a999ac95dULL, /*  273 */
    0x6eca98bf98e3fd0eULL, 0x50101590f5c47561ULL, /*  274 */
    0x58a213cc7a4ffda5ULL, 0x26734473f7d05de8ULL, /*  275 */
    0x46e80fd6c83ffe1dULL, 0x6b8f69f65fd9e4b9ULL, /*  276 */
    0x71734c8ad9fffcfcULL, 0x45b24323cc8fd45cULL, /*  277 */
    0x5ac2a3a247fffd96ULL, 0x6af502830a0ca9e3ULL, /*  278 */
    0x489bb61b6ccccadfULL, 0x08c402026e7087e9ULL, /*  279 */
    0x742c569247ae1164ULL, 0x746cd003e3e73fdbULL, /*  280 */
    0x5cf04541d2f1a783ULL, 0x76bd73364fec3315ULL, /*  281 */
    0x4a59d101758e1f9cULL, 0x5efdf5c50cbcf5abULL, /*  282 */
    0x76f61b3588e365c7ULL, 0x4b2fefa1adfb22abULL, /*  283 */
    0x5f2b48f7a0b5eb06ULL, 0x08f3261af195b555ULL, /*  284 */
    0x4c22a0c61a2b226bULL, 0x20c284e25ade2aabULL, /*  285 */
    0x79d1013cf6ab6a45ULL, 0x1ad0d49d5e304444ULL, /*  286 */
    0x617400fd9222bb6aULL, 0x48a7107de4f369d0ULL, /*  287 */
    0x4df6673141b562bbULL, 0x53b8d9fe50c2bb0dULL, /*  288 */
    0x7cbd71e869223792ULL, 0x52c15cca1ad12b48ULL, /*  289 */
    0x63cac186ba81c60eULL, 0x75677d6e7bda8906ULL, /*  290 */
    0x4fd5679efb9b04d8ULL, 0x5dec645863153a6cULL, /*  291 */
    0x7fbbd8fe5f5e6e27ULL, 0x497a3a2704eec3dfULL, /*  292 */
};
/* END GENERATED */

#define SF_MASK63 0x7fffffffffffffffULL
#define SF_C_MIN (1ULL << 52)
#define SF_Q_MIN (-1074)
/* Longest writer output: "-1.2345678901234567e-308". */
#define SF_MAX_LEN 24

/* floor(log10(2^e)), floor(log10(3/4 2^e)) and floor(log2(10^e)) over */
/* the exponents of doubles (gen_pow10.py checks them exactly); >> of  */
/* a negative int64_t is arithmetic on every supported compiler.       */
static inline int sf_flog10pow2(int e)
{
    return (int)(((int64_t)e * 661971961083LL) >> 41);
}

static inline int sf_flog10threequarterspow2(int e)
{
    return (int)(((int64_t)e * 661971961083LL - 274743187321LL) >> 41);
}

static inline int sf_flog2pow10(int e)
{
    return (int)(((int64_t)e * 913124641741LL) >> 38);
}

static inline uint64_t sf_mulhi(uint64_t a, uint64_t b)
{
    return (uint64_t)(((unsigned __int128)a * b) >> 64);
}

/* cp g 2^-127, rounded to odd (g = g1 2^63 + g0). */
static inline uint64_t sf_rop(uint64_t g1, uint64_t g0, uint64_t cp)
{
    const uint64_t x1 = sf_mulhi(g0, cp);
    const uint64_t y0 = g1 * cp;
    const uint64_t y1 = sf_mulhi(g1, cp);
    const uint64_t z = (y0 >> 1) + x1;
    const uint64_t vbp = y1 + (z >> 63);
    return vbp | (((z & SF_MASK63) + SF_MASK63) >> 63);
}

/* The shortest decimal f 10^e10 in the rounding interval of c 2^q. */
static void sf_decimal(int q, uint64_t c, uint64_t *f, int *e10)
{
    const uint64_t out = c & 1;
    const uint64_t cb = c << 2;
    const uint64_t cbr = cb + 2;
    uint64_t cbl;
    int k;
    if (c != SF_C_MIN || q == SF_Q_MIN) {
        cbl = cb - 2;
        k = sf_flog10pow2(q);
    } else {
        cbl = cb - 1;
        k = sf_flog10threequarterspow2(q);
    }
    const int h = q + sf_flog2pow10(-k) + 2;
    const uint64_t g1 = sf_g[2 * (k - SF_K_MIN)];
    const uint64_t g0 = sf_g[2 * (k - SF_K_MIN) + 1];
    const uint64_t vb = sf_rop(g1, g0, cb << h);
    const uint64_t vbl = sf_rop(g1, g0, cbl << h) + out;
    const uint64_t vbr = sf_rop(g1, g0, cbr << h) - out;
    const uint64_t s = vb >> 2;
    if (s >= 10) {
        const uint64_t sp = s / 10;
        const int upin = vbl <= 40 * sp;
        const int wpin = 40 * sp + 40 <= vbr;
        if (upin != wpin) {
            *f = sp + (uint64_t)wpin;
            *e10 = k + 1;
            return;
        }
    }
    const int uin = vbl <= 4 * s;
    const int win = 4 * s + 4 <= vbr;
    if (uin != win) {
        *f = s + (uint64_t)win;
    } else {
        const uint64_t mid = 4 * s + 2;
        *f = s + (uint64_t)(vb > mid || (vb == mid && (s & 1)));
    }
    *e10 = k;
}

/* "00" .. "99": the digits are written two at a time. */
static const char sf_digits2[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Writes x as float.__repr__ does (NaN / Infinity / -Infinity as      */
/* json.dumps spells them) at p; returns the end of the text.          */
static char *sf_write(double x, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t t = bits & ((1ULL << 52) - 1);
    const int bq = (int)((bits >> 52) & 0x7ff);
    if (bq == 0x7ff && t) {
        memcpy(p, "NaN", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (bq == 0x7ff) {
        memcpy(p, "Infinity", 8);
        return p + 8;
    }
    uint64_t f;
    int e10;
    if (bq == 0) {
        if (t == 0) {
            memcpy(p, "0.0", 3);
            return p + 3;
        }
        sf_decimal(SF_Q_MIN, t, &f, &e10);
    } else {
        const uint64_t c = SF_C_MIN | t;
        const int q = bq - 1075;
        if (q < 0 && q > -53 && (c & ((1ULL << -q) - 1)) == 0) {
            /* An integer below 2^53: its own digits are the shortest. */
            f = c >> -q;
            e10 = 0;
        } else {
            sf_decimal(q, c, &f, &e10);
        }
    }
    while (f % 10 == 0) {
        f /= 10;
        ++e10;
    }
    char dig[20];
    int n = 0;
    uint64_t r = f;
    while (r >= 100) {
        const uint64_t q2 = r / 100;
        memcpy(dig + 18 - n, sf_digits2 + 2 * (r - 100 * q2), 2);
        n += 2;
        r = q2;
    }
    if (r >= 10) {
        memcpy(dig + 18 - n, sf_digits2 + 2 * r, 2);
        n += 2;
    } else {
        dig[19 - n++] = (char)('0' + r);
    }
    const char *d = dig + 20 - n;
    /* v = 0.d[0..n) * 10^decpt; repr's switch to exponent notation. */
    const int decpt = e10 + n;
    if (decpt > -4 && decpt <= 16) {
        if (decpt <= 0) {
            memcpy(p, "0.000", (size_t)(2 - decpt));
            p += 2 - decpt;
            memcpy(p, d, (size_t)n);
            return p + n;
        }
        if (decpt < n) {
            memcpy(p, d, (size_t)decpt);
            p += decpt;
            *p++ = '.';
            memcpy(p, d + decpt, (size_t)(n - decpt));
            return p + (n - decpt);
        }
        memcpy(p, d, (size_t)n);
        p += n;
        memset(p, '0', (size_t)(decpt - n));
        p += decpt - n;
        memcpy(p, ".0", 2);
        return p + 2;
    }
    *p++ = d[0];
    if (n > 1) {
        *p++ = '.';
        memcpy(p, d + 1, (size_t)(n - 1));
        p += n - 1;
    }
    int e = decpt - 1;
    *p++ = 'e';
    *p++ = e < 0 ? '-' : '+';
    if (e < 0)
        e = -e;
    if (e >= 100)
        *p++ = (char)('0' + e / 100);
    *p++ = (char)('0' + e / 10 % 10);
    *p++ = (char)('0' + e % 10);
    return p;
}

/* repr(x) for each of n doubles, each written at out + i * 32, its    */
/* length in lens[i] (the test hook of the writer).                    */
void repro_write_doubles(const double *x, int64_t n, char *out,
                         int64_t *lens)
{
    for (int64_t i = 0; i < n; ++i)
        lens[i] = sf_write(x[i], out + 32 * i) - (out + 32 * i);
}

/* ------------------------------------------------------------------ */
/* The JSON of a sparse batch answer straight from its dense (m, n)    */
/* matrix: row i is {"j": v, ...} over the entries with v > 0.0        */
/* (positive) or v != 0.0 (IEEE semantics: NaN is != 0 and not > 0),   */
/* keys ascending, rows joined by ", " — byte for byte what            */
/* json.dumps(sparse_rows(mat, mask))[1:-1] writes.  Returns the       */
/* length written, or -1 when cap bytes cannot hold it.                */
/* ------------------------------------------------------------------ */
int64_t repro_emit_sparse_rows(const double *mat, int64_t m, int64_t n,
                               int positive, char *out, int64_t cap)
{
    char *p = out;
    char *const end = out + cap;
    for (int64_t i = 0; i < m; ++i) {
        const double *row = mat + i * n;
        if (end - p < 4)
            return -1;
        if (i) {
            *p++ = ',';
            *p++ = ' ';
        }
        *p++ = '{';
        int first = 1;
        for (int64_t j = 0; j < n; ++j) {
            const double v = row[j];
            if (positive ? !(v > 0.0) : !(v != 0.0))
                continue;
            char key[20];
            int nk = 0;
            int64_t r = j;
            do {
                key[19 - nk++] = (char)('0' + r % 10);
                r /= 10;
            } while (r);
            /* ", " + the quoted key + ": " + the value + the row's "}" */
            if (end - p < 2 + nk + 4 + SF_MAX_LEN + 1)
                return -1;
            if (!first) {
                *p++ = ',';
                *p++ = ' ';
            }
            first = 0;
            *p++ = '"';
            memcpy(p, key + 20 - nk, (size_t)nk);
            p += nk;
            *p++ = '"';
            *p++ = ':';
            *p++ = ' ';
            p = sf_write(v, p);
        }
        *p++ = '}';
    }
    return p - out;
}
