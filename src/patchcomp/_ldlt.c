/* Interleaved LDLᵀ of a stack of symmetric positive definite tridiagonal
 * blocks, in the convention of patchcomp.operators, and the IMEX step of a
 * two-species pair on it.
 *
 * A stack of B blocks of n rows is laid end to end: d holds the B*n main
 * diagonal entries, e the B*n off-diagonal entries, e[j] coupling rows j and
 * j+1 of a block (the last entry of each block, its corner, is zero).  The
 * functions factor and solve do LAPACK dpttrf's and dpttrs's arithmetic on
 * every element, in the same order and with the same operations, but walk
 * the rows in the outer loop and the blocks (times the right-hand sides) in
 * the inner one, so that the B independent recurrences overlap instead of
 * running as one serial chain.  A zero corner makes pttrf's step from one
 * block to the next add exactly nothing to the next block's first pivot
 * (after a finite pivot), so the factor is bit for bit pttrf's; the solve
 * skips that step and keeps each block apart, which differs from pttrs only
 * in the sign of a zero, or where a right-hand side is not finite.
 *
 * step is a whole time step of patchcomp.dynamics.Stepper on a stack of two
 * blocks, one per species: one pass over the rows forms the competition
 * right-hand side, checks it and runs solve's forward sweep, and a second
 * runs the back sweep and divides by the similarity's scale.  The operations
 * on each element are those of the numpy expressions and of solve, so the
 * results are theirs bit for bit.  The two species at row i are the two
 * lanes of one vector, so that one division instruction serves both: the
 * back sweep's two divisions per element bound its time.  Runs go two at a
 * time, their sweep carries in registers, so their number is unbounded and
 * needs no allocation.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off -I<Python include>
 * (-ffp-contract=off keeps a*b - c from becoming a fused multiply-add), with
 * GCC or Clang: the two lanes are their vector extensions, and any other
 * compiler fails the build, so that patchcomp runs LAPACK's pttrf/pttrs.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* The two species at one row, lane 0 the first: each operation on both
 * lanes is one instruction. */
#if !defined(__GNUC__) && !defined(__clang__)
#error "the LDLT kernel needs the vector extensions of GCC or Clang"
#endif
typedef double pair __attribute__((vector_size(16)));
typedef long long lanes __attribute__((vector_size(16)));

static inline pair pair_of(double a, double b) { return (pair){a, b}; }
static inline double lane(pair x, int k) { return x[k]; }
static inline pair add(pair a, pair b) { return a + b; }
static inline pair sub(pair a, pair b) { return a - b; }
static inline pair mul(pair a, pair b) { return a * b; }
static inline pair quo(pair a, pair b) { return a / b; }
/* The check of t >= 0 and t < inf, lane by lane, as two accumulators that
 * start at zero: a NaN or an infinity makes t - t, and so nan, NaN, and a
 * negative t (but not -0, which t + 0 makes +0) sets the sign bit of neg.
 * Comparisons would be plainer, but GCC 12 turns the masks they give into
 * scalar conditional moves, which doubled the first pass on two runs. */
static inline void
check(pair t, pair *nan, lanes *neg)
{
    *nan += t - t;
    *neg |= (lanes)(t + pair_of(0.0, 0.0));
}
static inline int
passed(pair nan, lanes neg)
{
    return nan[0] == 0 && nan[1] == 0 && neg[0] >= 0 && neg[1] >= 0;
}

/* A C-contiguous float64 buffer of obj in view, or -1 with ValueError. */
static int
get_doubles(PyObject *obj, Py_buffer *view, int writable, const char *name)
{
    int flags = writable ? PyBUF_RECORDS : PyBUF_RECORDS_RO;
    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        if (PyErr_ExceptionMatches(PyExc_BufferError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_ValueError, "%s must be a %sbuffer", name,
                         writable ? "writable " : "");
        }
        return -1;
    }
    if (view->itemsize != sizeof(double) || view->format == NULL
        || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_ValueError, "%s must hold float64", name);
        PyBuffer_Release(view);
        return -1;
    }
    if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* The block size n (at least 1) and the d and e buffers, of one length that
 * is a multiple of n; -1 with an exception otherwise. */
static int
get_factor(PyObject *const *args, Py_ssize_t *n, Py_buffer *d, Py_buffer *e,
           int writable)
{
    *n = PyNumber_AsSsize_t(args[2], PyExc_OverflowError);
    if (*n == -1 && PyErr_Occurred())
        return -1;
    if (*n < 1) {
        PyErr_SetString(PyExc_ValueError, "block size must be at least 1");
        return -1;
    }
    if (get_doubles(args[0], d, writable, "d") < 0)
        return -1;
    if (get_doubles(args[1], e, writable, "e") < 0) {
        PyBuffer_Release(d);
        return -1;
    }
    if (e->len != d->len || (d->len / (Py_ssize_t)sizeof(double)) % *n != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "d and e must have one length, a multiple of the block size");
        PyBuffer_Release(d);
        PyBuffer_Release(e);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(factor_doc,
"factor(d, e, n) -> bool\n\n"
"pttrf in place on a stack of blocks of n rows; False when a pivot is not\n"
"positive (d and e are then partly factored).");

static PyObject *
factor(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer dv, ev;
    Py_ssize_t n, size, i, b;
    int positive = 1;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "factor takes d, e and n");
        return NULL;
    }
    if (get_factor(args, &n, &dv, &ev, 1) < 0)
        return NULL;
    double *d = dv.buf, *e = ev.buf;
    size = dv.len / (Py_ssize_t)sizeof(double);

    /* pttrf's test is d <= 0, so a NaN pivot passes, as there */
    for (i = 0; i < n - 1 && positive; i++) {
        for (b = i; b < size; b += n) {
            double di = d[b], ei = e[b];
            if (di <= 0) {
                positive = 0;
                break;
            }
            e[b] = ei / di;
            d[b + 1] = d[b + 1] - e[b] * ei;
        }
    }
    for (b = n - 1; b < size && positive; b += n) {
        if (d[b] <= 0)
            positive = 0;
        else if (b + 1 < size)  /* the corner, as pttrf leaves it */
            e[b] = e[b] / d[b];
    }
    PyBuffer_Release(&dv);
    PyBuffer_Release(&ev);
    return PyBool_FromLong(positive);
}

PyDoc_STRVAR(solve_doc,
"solve(d, e, n, b) -> None\n\n"
"pttrs in place on every row of b (each the length of d) with the factor\n"
"of a stack of blocks of n rows.");

static PyObject *
solve(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer dv, ev, bv;
    Py_ssize_t n, size, total, i, j;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "solve takes d, e, n and b");
        return NULL;
    }
    if (get_factor(args, &n, &dv, &ev, 0) < 0)
        return NULL;
    if (get_doubles(args[3], &bv, 1, "b") < 0) {
        PyBuffer_Release(&dv);
        PyBuffer_Release(&ev);
        return NULL;
    }
    size = dv.len / (Py_ssize_t)sizeof(double);
    total = bv.len / (Py_ssize_t)sizeof(double);
    if (size == 0 ? total != 0 : total % size != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "b must hold whole right-hand sides the length of d");
        PyBuffer_Release(&dv);
        PyBuffer_Release(&ev);
        PyBuffer_Release(&bv);
        return NULL;
    }
    const double *d = dv.buf, *e = ev.buf;
    double *x = bv.buf;

    /* L y = b */
    for (i = 1; i < n; i++) {
        for (double *row = x; row < x + total; row += size) {
            for (j = i; j < size; j += n)
                row[j] = row[j] - row[j - 1] * e[j - 1];
        }
    }
    /* D Lᵀ x = y */
    for (double *row = x; row < x + total; row += size) {
        for (j = n - 1; j < size; j += n)
            row[j] = row[j] / d[j];
    }
    for (i = n - 2; i >= 0; i--) {
        for (double *row = x; row < x + total; row += size) {
            for (j = i; j < size; j += n)
                row[j] = row[j] / d[j] - row[j + 1] * e[j];
        }
    }
    PyBuffer_Release(&dv);
    PyBuffer_Release(&ev);
    PyBuffer_Release(&bv);
    Py_RETURN_NONE;
}

/* step's arithmetic on RUNS (1 or 2) runs of w, each two blocks of n rows,
 * side by side.  Always inlined where RUNS is a constant, so that each run's
 * sweep carry, the row last swept, stays in a register.  0, with out partly
 * written, when an entry of the right-hand side fails the check. */
static inline __attribute__((always_inline)) int
pair_runs(const double *restrict d, const double *restrict e, Py_ssize_t n,
          const double *restrict coef, const double *restrict w, double *restrict out,
          const int RUNS)
{
    const double *sa = coef, *sb = sa + 2 * n, *sc = sb + 2 * n, *s = sc + 2 * n;
    const pair zero = pair_of(0.0, 0.0);
    pair lower = zero, nan = zero;  /* lower: e of the row above, none above row 0 */
    pair carry[2];
    lanes neg = {0};
    Py_ssize_t i;
    int r;

    /* t = (sa - (sc x + sb w)) w, as patchcomp.dynamics forms it, checked,
     * and L y = t (solve's first sweep), one row of every run at a time */
    for (r = 0; r < RUNS; r++)
        carry[r] = zero;
    for (i = 0; i < n; i++) {
        const pair a = pair_of(sa[i], sa[n + i]), b = pair_of(sb[i], sb[n + i]),
                   c = pair_of(sc[i], sc[n + i]);
        for (r = 0; r < RUNS; r++) {
            const double *wr = w + 2 * n * r;
            double *yr = out + 2 * n * r;
            pair own = pair_of(wr[i], wr[n + i]), t = mul(c, pair_of(wr[n + i], wr[i]));
            t = add(t, mul(b, own));
            t = sub(a, t);
            t = mul(t, own);
            check(t, &nan, &neg);
            t = sub(t, mul(carry[r], lower));
            carry[r] = t;
            yr[i] = lane(t, 0);
            yr[n + i] = lane(t, 1);
        }
        lower = pair_of(e[i], e[n + i]);
    }
    if (!passed(nan, neg))
        return 0;
    /* D Lᵀ x = y, then x / s */
    for (r = 0; r < RUNS; r++)
        carry[r] = zero;
    for (i = n - 1; i >= 0; i--) {
        const pair di = pair_of(d[i], d[n + i]), si = pair_of(s[i], s[n + i]),
                   upper = i == n - 1 ? zero : pair_of(e[i], e[n + i]);
        for (r = 0; r < RUNS; r++) {
            double *yr = out + 2 * n * r;
            pair x = sub(quo(pair_of(yr[i], yr[n + i]), di), mul(carry[r], upper));
            carry[r] = x;
            x = quo(x, si);
            yr[i] = lane(x, 0);
            yr[n + i] = lane(x, 1);
        }
    }
    return 1;
}

/* step's arithmetic on every run of w, two at a time. */
static int
pair_step(const double *d, const double *e, Py_ssize_t n, const double *coef,
          const double *w, double *out, Py_ssize_t runs)
{
    Py_ssize_t r, size = 2 * n;

    for (r = 0; r + 2 <= runs; r += 2) {
        if (!pair_runs(d, e, n, coef, w + size * r, out + size * r, 2))
            return 0;
    }
    return r == runs || pair_runs(d, e, n, coef, w + size * r, out + size * r, 1);
}

PyDoc_STRVAR(step_doc,
"step(d, e, n, coef, w, out) -> bool\n\n"
"One IMEX step of M runs of a two-species pair.  d and e hold the factor of\n"
"a stack of two blocks of n rows, one per species; coef holds sa, sb, sc\n"
"and s, each the length of d; w and out hold M runs the length of d.  Forms\n"
"the right-hand side t = (sa - (sc x + sb w)) w, x the other species, solves\n"
"with the factor as solve does and writes the solution over s to out; w is\n"
"only read.  False, with out partly written, when an entry of t is\n"
"negative, infinite or NaN.");

static PyObject *
step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer dv, ev, cv, wv, ov;
    Py_ssize_t n, size;
    const char *w_at, *out_at;
    PyObject *result = NULL;

    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "step takes d, e, n, coef, w and out");
        return NULL;
    }
    if (get_factor(args, &n, &dv, &ev, 0) < 0)
        return NULL;
    if (get_doubles(args[3], &cv, 0, "coef") < 0)
        goto release_factor;
    if (get_doubles(args[4], &wv, 0, "w") < 0)
        goto release_coef;
    if (get_doubles(args[5], &ov, 1, "out") < 0)
        goto release_w;
    size = dv.len / (Py_ssize_t)sizeof(double);
    w_at = wv.buf;
    out_at = ov.buf;
    if (size != 2 * n)
        PyErr_SetString(PyExc_ValueError, "d and e must hold two blocks");
    else if (cv.len != 4 * dv.len)
        PyErr_SetString(PyExc_ValueError, "coef must hold four rows the length of d");
    else if (wv.len % dv.len != 0 || ov.len != wv.len)
        PyErr_SetString(PyExc_ValueError,
                        "w and out must hold the same whole runs the length of d");
    else if (wv.len && out_at < w_at + wv.len && w_at < out_at + ov.len)
        PyErr_SetString(PyExc_ValueError, "out must not overlap w");
    else
        result = PyBool_FromLong(
            pair_step(dv.buf, ev.buf, n, cv.buf, wv.buf, ov.buf, wv.len / dv.len));
    PyBuffer_Release(&ov);
release_w:
    PyBuffer_Release(&wv);
release_coef:
    PyBuffer_Release(&cv);
release_factor:
    PyBuffer_Release(&dv);
    PyBuffer_Release(&ev);
    return result;
}

static PyMethodDef methods[] = {
    {"factor", (PyCFunction)(void (*)(void))factor, METH_FASTCALL, factor_doc},
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL, solve_doc},
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL, step_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_ldlt",
    "Interleaved pttrf/pttrs on a stack of tridiagonal blocks, and the IMEX\n"
    "step of a two-species pair on them.", -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__ldlt(void)
{
    return PyModule_Create(&module_def);
}
