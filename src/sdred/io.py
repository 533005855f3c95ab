"""File formats: binary tensors and masks, CSV traces and report tables.

Tensor files: 8-byte magic ``MRTENSR1``, u32 rank, u32 per dimension, u8
complex flag, then little-endian f64 payload (interleaved re/im when
complex).  Mask files share the header and store a u8 payload.  All CSV
output uses '.' decimals regardless of locale.
"""

import csv
import struct

import numpy as np

from .operators import SamplingMask

MAGIC = b"MRTENSR1"
_MAX_RANK = 32


class FileFormatError(ValueError):
    """Unknown magic, malformed header, or truncated payload."""


def _write_header(fh, shape, complex_flag):
    fh.write(MAGIC)
    fh.write(struct.pack("<I", len(shape)))
    for dim in shape:
        fh.write(struct.pack("<I", dim))
    fh.write(struct.pack("<B", 1 if complex_flag else 0))


def _read_header(fh, path):
    magic = fh.read(8)
    if magic != MAGIC:
        raise FileFormatError(f"{path}: unknown magic {magic!r}")
    raw = fh.read(4)
    if len(raw) != 4:
        raise FileFormatError(f"{path}: truncated header")
    rank = struct.unpack("<I", raw)[0]
    if rank > _MAX_RANK:
        raise FileFormatError(f"{path}: implausible rank {rank}")
    shape = []
    for _ in range(rank):
        raw = fh.read(4)
        if len(raw) != 4:
            raise FileFormatError(f"{path}: truncated header")
        dim = struct.unpack("<I", raw)[0]
        if dim == 0:
            raise FileFormatError(f"{path}: zero dimension in header")
        shape.append(dim)
    raw = fh.read(1)
    if len(raw) != 1:
        raise FileFormatError(f"{path}: truncated header")
    return tuple(shape), raw[0] != 0


def write_tensor(path, arr):
    arr = np.asarray(arr)
    if not np.all(np.isfinite(arr)):
        raise ValueError("refusing to write non-finite tensor values")
    is_complex = np.iscomplexobj(arr)
    payload = np.ascontiguousarray(arr, dtype="<c16" if is_complex else "<f8")
    with open(path, "wb") as fh:
        _write_header(fh, arr.shape, is_complex)
        fh.write(payload.tobytes())


def read_tensor(path):
    with open(path, "rb") as fh:
        shape, is_complex = _read_header(fh, path)
        count = int(np.prod(shape)) if shape else 1
        itemsize = 16 if is_complex else 8
        payload = fh.read(count * itemsize + 1)
    if len(payload) < count * itemsize:
        raise FileFormatError(f"{path}: truncated payload")
    if len(payload) > count * itemsize:
        raise FileFormatError(f"{path}: trailing bytes after payload")
    arr = np.frombuffer(payload, dtype="<c16" if is_complex else "<f8").reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"{path}: non-finite values in payload")
    return arr.copy()


def write_mask(path, mask):
    arr = mask.mask if isinstance(mask, SamplingMask) else np.asarray(mask, dtype=bool)
    with open(path, "wb") as fh:
        _write_header(fh, arr.shape, False)
        fh.write(np.ascontiguousarray(arr, dtype=np.uint8).tobytes())


def read_mask(path):
    with open(path, "rb") as fh:
        shape, _ = _read_header(fh, path)
        count = int(np.prod(shape)) if shape else 1
        payload = fh.read(count + 1)
    if len(payload) < count:
        raise FileFormatError(f"{path}: truncated payload")
    if len(payload) > count:
        raise FileFormatError(f"{path}: trailing bytes after payload")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(shape)
    return SamplingMask(arr != 0)


TRACE_COLUMNS = ("iter", "g_norm_sq", "g_hat_norm_sq", "objective", "dist_to_ref", "psnr")


# Rows formatted and written per block by the CSV writers below.
_ROWS_PER_WRITE = 64


def _str_cells(values):
    return list(map(str, values))


def _repr_cells(values):
    """repr of each value of a float column.

    A chunk whose values all equal a nonzero first value, as the rows of a
    run held at a fixed point do, takes one repr: equal nonzero binary64
    values share one encoding, where 0.0 == -0.0 do not.
    """
    first = values[0] if values else 0.0
    if first and values.count(first) == len(values):
        return [repr(first)] * len(values)
    return list(map(repr, values))


def _float_cells(values):
    """repr of each value as a Python float; a blank for None."""
    if None in values:
        return ["" if v is None else repr(float(v)) for v in values]
    return list(map(repr, map(float, values)))


def _blank_cells(values):
    return [""] * len(values)


def _optional_float_format(column):
    """The cell format of a column of optional floats, chosen once per column.

    A column of Python floats needs no float() per value, and a column of
    None is blanks; anything else (numpy scalars, a mix with None) goes
    through :func:`_float_cells`.
    """
    kinds = set(map(type, column))
    if kinds <= {float}:
        return _repr_cells
    if kinds == {type(None)}:
        return _blank_cells
    return _float_cells


def _write_columns(path, header, columns, formats):
    """Write equal-length columns with csv.writer's bytes: '\r\n' line ends.

    ``formats[i]`` turns a slice of ``columns[i]`` into its cells.  No cell
    needs quoting: header names, integers and float reprs hold no comma,
    quote or line break.  Rows go out in blocks, each formatted one column
    at a time, so a long trace is never held as one string.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
            stop = start + _ROWS_PER_WRITE
            cells = [fmt(column[start:stop]) for column, fmt in zip(columns, formats)]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_trace_csv(path, trace):
    columns = (trace.iters, trace.g_norm_sq, trace.g_hat_norm_sq, trace.objective,
               trace.dist_to_ref, trace.psnr)
    formats = [_str_cells] + [_optional_float_format(column) for column in columns[1:]]
    _write_columns(path, TRACE_COLUMNS, columns, formats)


def read_trace_csv(path):
    """Parse a trace CSV back into a dict of column lists (None for blanks)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRACE_COLUMNS:
            raise FileFormatError(f"{path}: unexpected trace columns {header}")
        out = {name: [] for name in TRACE_COLUMNS}
        for row in reader:
            if len(row) != len(TRACE_COLUMNS):
                raise FileFormatError(f"{path}: malformed trace row {row}")
            out["iter"].append(int(row[0]))
            for name, cell in zip(TRACE_COLUMNS[1:], row[1:]):
                out[name].append(None if cell == "" else float(cell))
    return out


def write_mismatch_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("sigma", "mean_dist", "max_dist", "epsilon_hat"))
        for row in rows:
            writer.writerow(
                [repr(row.sigma), repr(row.mean_dist), repr(row.max_dist), repr(row.epsilon_hat)]
            )


def write_bound_report_csv(path, report):
    _write_columns(path, ("iter", "measured", "bound"),
                   (report.iters, report.measured, report.bounds),
                   (_str_cells, _repr_cells, _repr_cells))
