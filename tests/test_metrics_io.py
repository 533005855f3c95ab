import hashlib
import math

import numpy as np
import pytest

from sdred.io import (
    FileFormatError,
    read_mask,
    read_tensor,
    read_trace_csv,
    write_mask,
    write_mismatch_csv,
    write_tensor,
    write_trace_csv,
)
from sdred.metrics import make_phantom, psnr, ssim
from sdred.operators import make_radial_mask
from sdred.priors import MismatchRow
from sdred.solver import IterateTrace


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
        trace.record(0, 1.0, 2.0, 3.5, 0.25, 31.7)
        trace.record(1, 0.5, None, None, None, None)
        trace.record(2, 0.25, 1.0, None, 0.125, math.inf)
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
