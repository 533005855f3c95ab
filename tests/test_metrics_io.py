import csv
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdred.io import (
    TRACE_COLUMNS,
    FileFormatError,
    read_mask,
    read_tensor,
    read_trace_csv,
    write_bound_report_csv,
    write_mask,
    write_mismatch_csv,
    write_tensor,
    write_trace_csv,
)
from sdred.metrics import make_phantom, psnr, ssim
from sdred.operators import make_radial_mask
from sdred.priors import MismatchRow
from sdred.solver import IterateTrace
from sdred.theory import BoundReport

from trace_helpers import record


class TestPsnr:
    def test_identical_is_infinite(self):
        img = np.random.default_rng(0).random((8, 8))
        assert psnr(img, img, peak=1.0) == math.inf

    def test_constant_offset_20db(self):
        img = np.random.default_rng(1).random((16, 16))
        assert abs(psnr(img, img + 0.1, peak=1.0) - 20.0) <= 1e-12

    def test_overflowing_error_is_minus_infinite(self):
        with np.errstate(over="ignore"):
            assert psnr(np.zeros(4), np.full(4, 1e200), peak=1.0) == -math.inf

    def test_offset_equal_to_peak_gives_zero(self):
        img = np.random.default_rng(2).random((8, 8))
        assert abs(psnr(img, img + 1.0, peak=1.0)) <= 1e-12

    def test_shift_robustness(self):
        rng = np.random.default_rng(3)
        a = rng.random((8, 8))
        b = rng.random((8, 8))
        assert psnr(a, b, peak=1.0) == psnr(a + 0.25, b + 0.25, peak=1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)), peak=1.0)


class TestSsim:
    def test_identical_images(self):
        img = np.random.default_rng(4).random((16, 16))
        assert abs(ssim(img, img, peak=1.0) - 1.0) <= 1e-12

    def test_negation_of_zero_mean_image(self):
        # zero mean within every window, so only the anticorrelated
        # structure term drives the score
        img = (np.indices((16, 16)).sum(axis=0) % 2) * 2.0 - 1.0
        assert ssim(img, -img, peak=1.0) <= 0.0

    def test_tiny_noise_stays_near_one(self):
        rng = np.random.default_rng(6)
        img = rng.random((16, 16))
        noisy = img + 1e-6 * rng.standard_normal((16, 16))
        assert ssim(img, noisy, peak=1.0) >= 0.9999

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.random((12, 12))
        b = rng.random((12, 12))
        assert abs(ssim(a, b, peak=1.0) - ssim(b, a, peak=1.0)) <= 1e-12

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)), peak=1.0)


class TestPhantom:
    def test_values_in_unit_interval(self):
        img = make_phantom(64)
        assert img.min() >= 0.0
        assert img.max() <= 1.0

    def test_corners_are_zero(self):
        img = make_phantom(128)
        assert img[0, 0] == 0.0 and img[0, -1] == 0.0
        assert img[-1, 0] == 0.0 and img[-1, -1] == 0.0

    def test_bit_identical_across_runs(self):
        h1 = hashlib.sha256(make_phantom(128).tobytes()).hexdigest()
        h2 = hashlib.sha256(make_phantom(128).tobytes()).hexdigest()
        assert h1 == h2
        assert np.count_nonzero(make_phantom(128)) == np.count_nonzero(make_phantom(128))

    def test_size_guard(self):
        with pytest.raises(ValueError):
            make_phantom(16)

    def test_has_structure(self):
        img = make_phantom(64)
        assert np.count_nonzero(img) > 0.2 * img.size


class TestTensorFiles:
    def test_real_roundtrip_bitwise(self, tmp_path):
        arr = np.random.default_rng(8).standard_normal((3, 5, 2))
        path = tmp_path / "t.mrt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)

    def test_complex_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "t.mrt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.complex128
        assert np.array_equal(back, arr)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.mrt"
        write_tensor(path, np.ones((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FileFormatError, match="truncated"):
            read_tensor(path)

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "t.mrt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FileFormatError, match="magic"):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.mrt"
        path.write_bytes(b"MRTENSR1\x02")
        with pytest.raises(FileFormatError, match="header"):
            read_tensor(path)

    def test_nonfinite_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "t.mrt", np.array([1.0, np.nan]))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.mrt"
        write_tensor(path, np.ones(3))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError, match="trailing"):
            read_tensor(path)


class TestMaskFiles:
    def test_roundtrip(self, tmp_path):
        mask = make_radial_mask(16, 12, 5)
        path = tmp_path / "m.mrm"
        write_mask(path, mask)
        back = read_mask(path)
        assert np.array_equal(back.mask, mask.mask)
        assert back.sampling_ratio == mask.sampling_ratio

    def test_reading_tensor_as_mask_fails(self, tmp_path):
        path = tmp_path / "x.mrt"
        write_tensor(path, np.ones((4, 4)))
        with pytest.raises(FileFormatError):
            read_mask(path)


class TestTraceCsv:
    def _trace(self):
        trace = IterateTrace()
        record(trace, 0, 1.0, 2.0, 3.5, 0.25, 31.7)
        record(trace, 1, 0.5, None, None, None, None)
        record(trace, 2, 0.25, 1.0, None, 0.125, math.inf)
        return trace

    def test_roundtrip_with_empty_optionals(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, self._trace())
        back = read_trace_csv(path)
        assert back["iter"] == [0, 1, 2]
        assert back["g_norm_sq"] == [1.0, 0.5, 0.25]
        assert back["g_hat_norm_sq"] == [2.0, None, 1.0]
        assert back["objective"] == [3.5, None, None]
        assert back["dist_to_ref"] == [0.25, None, 0.125]
        assert back["psnr"] == [31.7, None, math.inf]

    def test_header_validated(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FileFormatError):
            read_trace_csv(path)

    def test_mismatch_csv_layout(self, tmp_path):
        path = tmp_path / "d.csv"
        write_mismatch_csv(path, [MismatchRow(1.0, 0.1, 0.1, 0.1)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sigma,mean_dist,max_dist,epsilon_hat"
        assert len(lines) == 2


# The row-at-a-time csv.writer formatting the column-wise writers replaced,
# kept as the byte reference.


def csv_writer_trace(path, trace):
    def fmt(value):
        return "" if value is None else repr(float(value))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in zip(trace.iters, trace.g_norm_sq, trace.g_hat_norm_sq, trace.objective,
                       trace.dist_to_ref, trace.psnr):
            writer.writerow([str(row[0])] + [fmt(v) for v in row[1:]])


def csv_writer_report(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("iter", "measured", "bound"))
        for k, m, b in zip(report.iters, report.measured, report.bounds):
            writer.writerow([str(k), repr(m), repr(b)])


_EDGE_VALUES = (math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan)
cells = st.one_of(st.floats(allow_nan=True), st.sampled_from(_EDGE_VALUES))
optional_cells = st.one_of(st.none(), cells)


@st.composite
def columns(draw, count):
    """``count`` equal-length float columns with None holes; lengths cross a write block."""
    n = draw(st.one_of(st.integers(0, 40), st.integers(1000, 2100)))
    if n <= 40:
        return [draw(st.lists(optional_cells, min_size=n, max_size=n)) for _ in range(count)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(list(_EDGE_VALUES) + [1.0, -2.5, 1e-300], dtype=object)
    cols = []
    for _ in range(count):
        col = (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
        for i in np.flatnonzero(rng.random(n) < 0.1):
            col[i] = pool[rng.integers(len(pool))]
        for i in np.flatnonzero(rng.random(n) < 0.1):
            col[i] = None
        cols.append(col)
    return cols


def _same(a, b):
    return repr(a) == repr(b)


@settings(max_examples=60, deadline=None)
@given(data=columns(5), start=st.integers(0, 10**6))
def test_trace_writer_matches_csv_writer_and_round_trips(tmp_path_factory, data, start):
    tmp = tmp_path_factory.mktemp("trace")
    trace = IterateTrace()
    trace.iters = list(range(start, start + len(data[0])))
    trace.g_norm_sq, trace.g_hat_norm_sq, trace.objective, trace.dist_to_ref, trace.psnr = data
    write_trace_csv(tmp / "got.csv", trace)
    csv_writer_trace(tmp / "want.csv", trace)
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()
    back = read_trace_csv(tmp / "got.csv")
    assert back["iter"] == trace.iters
    for name, column in zip(TRACE_COLUMNS[1:], data):
        assert _same(back[name], [None if v is None else float(v) for v in column])


@settings(max_examples=60, deadline=None)
@given(data=columns(2), start=st.integers(0, 10**6))
def test_bound_report_writer_matches_csv_writer(tmp_path_factory, data, start):
    tmp = tmp_path_factory.mktemp("report")
    measured, bounds = ([0.0 if v is None else v for v in column] for column in data)
    report = BoundReport(descriptor="d", iters=list(range(start, start + len(measured))),
                         measured=measured, bounds=bounds)
    write_bound_report_csv(tmp / "got.csv", report)
    csv_writer_report(tmp / "want.csv", report)
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


# Columns of float runs, which the writer may format once per 64-row chunk:
# runs crossing the chunk edges, 0.0 and -0.0 (equal, with different reprs),
# one NaN object repeated and distinct NaNs, infinities, and values one ulp
# apart.
_NAN = math.nan
_RUNS = {
    "nonzero-runs": [2.5] * 70 + [-7e-300] * 80,
    "zero-runs": [0.0] * 64 + [-0.0] * 64 + [0.0, -0.0] * 11,
    "nan-runs": [_NAN] * 64 + [float("nan") for _ in range(64)] + [_NAN, 1.0] * 11,
    "inf-runs": [math.inf] * 100 + [-math.inf] * 28 + [math.inf, -math.inf] * 11,
    "ulp-runs": [1.0] * 40 + [1.0 + 2.0**-52] + [1.0] * 109,
}


def _column_of(kind, n, rng):
    """A trace column of one kind; "mixed" interleaves floats, numpy scalars,
    integers and None."""
    if kind in _RUNS:
        return _RUNS[kind][:n]
    values = (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
    if kind == "floats":
        return values
    if kind == "none":
        return [None] * n
    if kind == "numpy":
        return list(np.array(values))
    if kind == "inf-nan":
        return [(math.inf, -math.inf, math.nan, -0.0)[i % 4] for i in range(n)]
    return [(v, np.float64(v), None, int(i))[i % 4] for i, v in enumerate(values)]


@pytest.mark.parametrize("n", [0, 1, 150])
@pytest.mark.parametrize("kinds", [
    ("floats",) * 5, ("none",) * 5, ("numpy",) * 5, ("inf-nan",) * 5, ("mixed",) * 5,
    ("floats", "none", "inf-nan", "numpy", "mixed"),
    ("mixed", "floats", "none", "none", "inf-nan"),
    tuple(_RUNS),
])
def test_trace_writer_matches_csv_writer_per_column_kind(tmp_path, kinds, n):
    """Each column's cell format is chosen once; the bytes stay the row-by-row
    csv.writer's for every kind of column."""
    rng = np.random.default_rng(len(set(kinds)) * 1000 + n)
    trace = IterateTrace()
    trace.iters = list(range(n))
    (trace.g_norm_sq, trace.g_hat_norm_sq, trace.objective, trace.dist_to_ref,
     trace.psnr) = (_column_of(kind, n, rng) for kind in kinds)
    write_trace_csv(tmp_path / "got.csv", trace)
    csv_writer_trace(tmp_path / "want.csv", trace)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
