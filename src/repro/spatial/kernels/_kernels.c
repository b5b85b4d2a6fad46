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
/* The Eq. (2) sweep step loop (quantification/batch_exact.py).        */
/*                                                                     */
/* Inputs are the (r, width) prefix-ordered distance / parent / weight */
/* rows; totals[n] the per-parent site counts.  result (r, n) must be  */
/* zero-initialized by the caller; done[r] receives the retire flags.  */
/*                                                                     */
/* The NumPy sweep vectorizes across rows but is strictly sequential   */
/* in sorted position within a row: tie groups anchored at their first */
/* member, a full group absorbed (phase 1) before any member           */
/* contributes (phase 2), survival updated by new = old - w with the   */
/* 1e-15 underflow clamp and the count-based exact zero, the running   */
/* product by prod *= new/old or prod /= old with an explicit zero     */
/* counter, retirement at zero_count >= 2.  This scalar row loop       */
/* replays those expressions in the same order, so every row is        */
/* bitwise the NumPy row.  Rows retired past zero_count >= 2 only      */
/* ever scatter +0.0 in the oracle, so breaking early is exact.        */
/*                                                                     */
/* Scratch: survival/seen are n-sized but only the <= width parents a  */
/* row touches are reset between rows (the touched list), keeping the  */
/* per-row cost O(width), not O(n).                                    */
/*                                                                     */
/* Returns 0, or -1 when scratch allocation failed.                    */
/* ------------------------------------------------------------------ */
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

int repro_sweep_eq2(const double *ds, const int64_t *pp, const double *pw,
                    int64_t r, int64_t width, int64_t n,
                    const int64_t *totals, double tie_tol, int final_pass,
                    double *result, uint8_t *done)
{
    double *survival = (double *)malloc((size_t)n * sizeof(double));
    int64_t *seen = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t *touched = (int64_t *)malloc((size_t)width * sizeof(int64_t));
    if (survival == NULL || seen == NULL || touched == NULL) {
        free(survival);
        free(seen);
        free(touched);
        return -1;
    }
    for (int64_t p = 0; p < n; ++p) {
        survival[p] = 1.0;
        seen[p] = 0;
    }
    for (int64_t row = 0; row < r; ++row) {
        const double *d = ds + row * width;
        const int64_t *par = pp + row * width;
        const double *w = pw + row * width;
        double *res = result + row * n;
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
        done[row] = (uint8_t)(retired || final_pass);
        for (int64_t k = 0; k < n_touched; ++k) {
            survival[touched[k]] = 1.0;
            seen[touched[k]] = 0;
        }
    }
    free(survival);
    free(seen);
    free(touched);
    return 0;
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
/* slab's midline, slope) — slope breaking the degenerate tie where a */
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
                const double sl2 = dy / dx;
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
