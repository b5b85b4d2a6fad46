"""The native shortest-float writer and the sparse-row emitter.

Bulk ``quantify*`` replies are written from the engine's dense answer
matrix by the kernel provider's ``emit_sparse_rows``
(:func:`repro.serving.wire.encode_batch`).  The contract is byte
identity with ``json.dumps``: the C writer (Schubfach) must print every
double exactly as ``float.__repr__`` does, and the emitter must write
exactly ``json.dumps(sparse_rows(mat, mask))[1:-1]`` under both masks.
These tests pin the writer on random 64-bit patterns and the format's
edges, the emitter on random matrices holding every special value, the
wire function against the dict path for every ``quantify*`` parameter
set, and the compiled power-of-ten table against its generator.
"""

import ctypes
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.quantification.batch_exact import row_mask, sparse_rows
from repro.serving.wire import encode_batch, encode_rows
from repro.spatial.kernels import gen_pow10, get_provider, native_available

needs_native = pytest.mark.skipif(not native_available(),
                                  reason="no C compiler on this host")

#: The format's edges: the smallest subnormal, the largest subnormal,
#: the smallest normal, the largest double, both sides of the switch
#: to exponent notation at 1e16 and at 1e-4, the shortest-digit cases
#: 1e22 / 1e23, 2**53, 0.1 and the signed zero.
EDGES = [5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, 9999999999999998.0, 1e16, 0.0001, 1e-05,
         1e22, 1e23, float(2 ** 53), 0.1, -0.0]


def native_reprs(values):
    """The C writer's text of each double (its ``repro_write_doubles``
    test hook: one 32-byte slot per value)."""
    write = get_provider("native")._lib.repro_write_doubles
    write.restype = None
    write.argtypes = [ctypes.POINTER(ctypes.c_double), ctypes.c_int64,
                      ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64)]
    x = np.ascontiguousarray(values, dtype=np.float64)
    out = ctypes.create_string_buffer(32 * len(x))
    lens = np.zeros(len(x), dtype=np.int64)
    write(x.ctypes.data_as(ctypes.POINTER(ctypes.c_double)), len(x), out,
          lens.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)))
    raw = out.raw
    return [raw[32 * i:32 * i + n].decode("ascii")
            for i, n in enumerate(lens.tolist())]


def json_text(x):
    """How ``json.dumps`` writes one float (``repr`` when finite)."""
    return json.dumps(x)


# ----------------------------------------------------------------------
# The writer: float.__repr__, byte for byte.
# ----------------------------------------------------------------------
@needs_native
class TestWriter:
    @pytest.mark.parametrize("x", EDGES + [-x for x in EDGES[:-1]])
    def test_edges(self, x):
        assert native_reprs([x]) == [repr(x)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1,
                    max_size=64))
    def test_random_bit_patterns(self, patterns):
        xs = [struct.unpack("<d", struct.pack("<Q", b))[0]
              for b in patterns]
        assert native_reprs(xs) == [json_text(x) for x in xs]

    def test_many_bit_patterns(self):
        bits = np.random.default_rng(2024).integers(
            0, 2 ** 64, size=200_000, dtype=np.uint64)
        xs = bits.view(np.float64).tolist()
        assert native_reprs(xs) == [json_text(x) for x in xs]

    def test_every_power_of_two_and_ten(self):
        xs = ([2.0 ** e for e in range(-1074, 1024)]
              + [float(f"1e{e}") for e in range(-323, 309)]
              + [float(f"5e{e}") for e in range(-324, 308)])
        assert native_reprs(xs) == [repr(x) for x in xs]

    def test_subnormals_and_integers(self):
        tiny = [struct.unpack("<d", struct.pack("<Q", t))[0]
                for t in range(1, 5000)]
        ints = [float(i) for i in range(1, 5000)] \
            + [float(2 ** 53 - i) for i in range(64)]
        assert native_reprs(tiny + ints) == [repr(x) for x in tiny + ints]

    def test_non_finite_as_json_spells_them(self):
        assert native_reprs([float("nan"), -float("nan"), float("inf"),
                             -float("inf")]) == \
            ["NaN", "NaN", "Infinity", "-Infinity"]


# ----------------------------------------------------------------------
# The emitter: json.dumps(sparse_rows(mat, mask))[1:-1].
# ----------------------------------------------------------------------
SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, -2.5,
            1e16, 0.1]


def oracle(mat, positive):
    return json.dumps(sparse_rows(mat, row_mask(mat, positive)))[1:-1] \
        .encode("ascii")


def random_matrix(rng, m, n):
    mat = rng.random((m, n))
    mat[rng.random((m, n)) < 0.4] = 0.0
    special = rng.random((m, n)) < 0.25
    mat[special] = rng.choice(SPECIALS, size=int(special.sum()))
    if m:
        mat[rng.integers(0, m)] = 0.0  # an empty row under both masks
    return mat


PROVIDERS = ["numpy", pytest.param("native", marks=needs_native)]


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("positive", [True, False])
class TestEmitter:
    def test_random_matrices(self, provider, positive):
        emit = get_provider(provider).emit_sparse_rows
        rng = np.random.default_rng(11)
        for _ in range(200):
            mat = random_matrix(rng, int(rng.integers(0, 7)),
                                int(rng.integers(1, 13)))
            assert emit(mat, positive) == oracle(mat, positive)

    def test_shapes(self, provider, positive):
        emit = get_provider(provider).emit_sparse_rows
        for mat in (np.zeros((0, 3)), np.zeros((3, 1)),
                    np.array([[0.5]]), np.array(SPECIALS)[:, None],
                    np.array(SPECIALS)[None, :],
                    np.full((2, 1234), 1e-300)):
            assert emit(mat, positive) == oracle(mat, positive)

    def test_non_contiguous_input(self, provider, positive):
        mat = random_matrix(np.random.default_rng(3), 8, 10)
        view = mat[::2, 1::3]
        assert get_provider(provider).emit_sparse_rows(view, positive) \
            == oracle(np.ascontiguousarray(view), positive)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property(self, provider, positive, data):
        m = data.draw(st.integers(0, 5))
        n = data.draw(st.integers(1, 6))
        values = st.one_of(st.floats(allow_subnormal=True),
                           st.sampled_from([0.0, -0.0]))
        mat = np.array(data.draw(st.lists(values, min_size=m * n,
                                          max_size=m * n)),
                       dtype=np.float64).reshape(m, n)
        assert get_provider(provider).emit_sparse_rows(mat, positive) == \
            oracle(mat, positive)


# ----------------------------------------------------------------------
# The wire function: the matrix path writes the dict path's bytes.
# ----------------------------------------------------------------------
CASES = [("quantify_exact", {}), ("quantify_exact", {"tie_tol": 0.05}),
         ("quantify_vpr", {}), ("quantify", {}),
         ("quantify", {"method": "exact"}),
         ("quantify", {"method": "monte_carlo", "epsilon": 0.2,
                       "seed": 3}),
         ("quantify", {"method": "monte_carlo", "epsilon": 0.3,
                       "delta": 0.2, "seed": 9}),
         ("delta", {}), ("top_k", {"k": 2})]


@pytest.fixture(scope="module")
def small_index():
    index = PNNIndex(random_discrete_points(7, 3, seed=21, spread=2.0))
    index.cached_vpr()
    return index


@pytest.mark.parametrize("kind,params", CASES)
def test_encode_batch_matches_the_dict_rows(small_index, kind, params):
    q = np.random.default_rng(5).uniform(-3.0, 9.0, (300, 2))
    rows = getattr(small_index, f"batch_{kind}")(q, **params)
    assert encode_batch(small_index, kind, q, params) == \
        encode_rows(kind, rows)


def test_matrix_methods_are_none_only_row_by_row(small_index):
    q = np.zeros((2, 2))
    assert small_index.quantify_matrix(q) is None  # spiral search
    assert small_index.quantify_matrix(q, method="spiral") is None
    assert small_index.quantify_matrix(q, method="exact")[1] is True
    assert small_index.quantify_matrix(q, method="monte_carlo")[1] is False


# ----------------------------------------------------------------------
# The compiled power-of-ten table is the generator's output.
# ----------------------------------------------------------------------
def test_compiled_table_is_the_generators_output():
    assert gen_pow10.compiled_source() == gen_pow10.table_source()


def test_table_multipliers_bound_their_power_of_ten():
    # (g - 1) 2^r <= 10^-k < g 2^r, checked exactly for every k.
    for k, (g1, g0) in zip(range(gen_pow10.K_MIN, gen_pow10.K_MAX + 1),
                           gen_pow10.table()):
        g = (g1 << 63) | g0
        r = gen_pow10.flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        if r >= 0:
            den <<= r
        else:
            num <<= -r
        assert (g - 1) * den <= num < g * den
