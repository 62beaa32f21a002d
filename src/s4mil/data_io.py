"""Bag ingestion: the SEQF binary container, manifests, corpus statistics.

SEQF layout (little-endian):

    bytes 0..3    magic "SEQF"
    4..7          version u32 = 1
    8..11         L u32 (tokens)
    12..15        D u32 (features per token)
    16..          L*D float32 values, row-major (token-major)

Trailing bytes are rejected.  Patch-label files are the same container with
D = 1 and integer-valued floats; coordinate files use D = 2, also integral.

A manifest is comma-separated text with header
``id,label,features,patch_labels,coords``; the two optional cells may be
empty.  Paths are resolved relative to the manifest's directory and bags
are returned in row order.

A manifest bag keeps the path of its feature file, not the features.
``load_manifest`` checks each feature file's header and size (the same
checks ``read_sequence_file`` makes) and reads no payload; ``Bag.features``
reads the file each time it is used and keeps nothing.  Evaluation thus
holds one bag's features at a time; training re-reads each bag once per
epoch and holds at most two bags' features.  Patch labels and coordinates
are small and are read at load.
"""

import csv
import itertools
import os
import struct
import unicodedata
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError

MAGIC = b"SEQF"
VERSION = 1
_HEADER = struct.Struct("<4sIII")
MAX_PAYLOAD_BYTES = 1 << 40  # guards L*D overflow before allocating

MANIFEST_COLUMNS = ["id", "label", "features", "patch_labels", "coords"]


class Bag:
    """One slide: its (L, D) float32 token features, slide label, and
    optional (L,) patch labels and (L, 2) coordinates.

    ``features`` is either the array itself, held in memory, or the path of
    a SEQF file together with its ``shape`` (L, D) as checked at load.  A
    file-backed bag reads the file on every access of ``.features`` and
    keeps no copy; a file that can no longer be read, or whose shape is no
    longer ``shape``, is a ParseError.
    """

    def __init__(self, id: str, features, slide_label: int,
                 patch_labels: np.ndarray | None = None, coords: np.ndarray | None = None,
                 shape: tuple[int, int] | None = None):
        self.id = id
        self.slide_label = slide_label
        if shape is None:
            self._held = np.asarray(features, dtype=np.float32)
            self._path = None
            self.shape = self._held.shape
        else:
            self._held = None
            self._path = features
            self.shape = tuple(shape)
        if len(self.shape) != 2 or self.shape[0] < 1:
            raise ContractError(f"bag {self.id}: features must be (L>=1, D), got {self.shape}")
        length = self.shape[0]
        self.patch_labels = None
        if patch_labels is not None:
            self.patch_labels = np.asarray(patch_labels, dtype=np.int64)
            if self.patch_labels.shape != (length,):
                raise ContractError(
                    f"bag {self.id}: patch labels must have length {length}, got {self.patch_labels.shape}"
                )
        self.coords = None
        if coords is not None:
            self.coords = np.asarray(coords, dtype=np.int64)
            if self.coords.shape != (length, 2):
                raise ContractError(
                    f"bag {self.id}: coords must be ({length}, 2), got {self.coords.shape}"
                )

    @property
    def features(self) -> np.ndarray:
        if self._path is None:
            return self._held
        try:
            matrix = read_sequence_file(self._path)  # the module global, so a wrapper sees each read
        except OSError as exc:
            raise ParseError(f"{self._path}: feature file cannot be read: {exc.strerror}") from None
        if matrix.shape != self.shape:
            (length, dim), (now_length, now_dim) = self.shape, matrix.shape
            raise ParseError(f"{self._path}: header now says L={now_length}, D={now_dim}, "
                             f"but the file had L={length}, D={dim} at load", offset=8)
        return matrix

    @property
    def length(self) -> int:
        return self.shape[0]


# --------------------------------------------------------------------------
# SEQF container
# --------------------------------------------------------------------------

def write_sequence_file(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype="<f4")
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ContractError(f"sequence files hold (L>=1, D>=1) matrices, got {matrix.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, matrix.shape[0], matrix.shape[1]))
        fh.write(memoryview(np.ascontiguousarray(matrix)))


def _check_size(path, size: int, length: int, dim: int) -> None:
    """ParseError unless a file of ``size`` bytes holds exactly an (L, D) payload."""
    expected_end = _HEADER.size + 4 * length * dim
    if size < expected_end:
        raise ParseError(
            f"{path}: payload truncated, expected {expected_end} bytes, have {size}",
            offset=size,
        )
    if size > expected_end:
        raise ParseError(f"{path}: {size - expected_end} trailing bytes", offset=expected_end)


def _sequence_header(fh, path) -> tuple[int, int]:
    """The (L, D) of the SEQF file open as ``fh``, positioned at its payload.

    Checks the magic, the version, that (L, D) is plausible and that the
    file's size is exactly header plus payload; each failure is a ParseError
    at its byte offset.
    """
    size = os.fstat(fh.fileno()).st_size
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise ParseError(f"{path}: file shorter than the 16-byte header", offset=len(header))
    magic, version, length, dim = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise ParseError(f"{path}: unsupported version {version}", offset=4)
    if length < 1 or dim < 1 or 4 * length * dim > MAX_PAYLOAD_BYTES:
        raise ParseError(f"{path}: implausible dimensions L={length}, D={dim}", offset=8)
    _check_size(path, size, length, dim)
    return length, dim


def read_sequence_file(path) -> np.ndarray:
    """The (L, D) float32 matrix of a SEQF file, read straight into its array."""
    with open(path, "rb") as fh:
        length, dim = _sequence_header(fh, path)
        values = np.empty((length, dim), dtype="<f4")
        # Re-measure by what the reads return, in case the file changed since the header check.
        size = _HEADER.size + fh.readinto(values) + len(fh.read())
    _check_size(path, size, length, dim)
    return values


def _read_integral_file(path, dim: int, what: str) -> np.ndarray:
    """The (L, dim) int64 values of a SEQF file; a value that is not an integer
    of magnitude below 2^63 (int64's range) is a ParseError at its offset."""
    matrix = read_sequence_file(path)
    if matrix.shape[1] != dim:
        raise ParseError(f"{path}: {what} files need D={dim}, got D={matrix.shape[1]}", offset=12)
    as_f64 = matrix.astype(np.float64)
    in_range = np.abs(as_f64) < 2.0 ** 63  # false for NaN and +-inf too
    bad = ~in_range | (as_f64 != np.round(as_f64))
    if np.any(bad):
        index = int(np.argmax(bad))
        problem = "non-integral" if in_range.flat[index] else "non-finite or beyond-int64"
        raise ParseError(f"{path}: {problem} {what} value {as_f64.flat[index]} at token {index // dim}",
                         offset=_HEADER.size + 4 * index)
    return as_f64.astype(np.int64)


def read_patch_labels(path) -> np.ndarray:
    return _read_integral_file(path, 1, "patch-label")[:, 0]


def read_coords(path) -> np.ndarray:
    return _read_integral_file(path, 2, "coordinate")


# --------------------------------------------------------------------------
# Manifests
# --------------------------------------------------------------------------

def write_manifest(path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in MANIFEST_COLUMNS})


def _listed_file(manifest: Path, lineno: int, kind: str, file_path: Path) -> Path:
    """file_path if it is a file, else a ParseError naming the manifest line.

    The OS may refuse to look the name up at all (a cell longer than a file
    name may be), which is an error of the line too.
    """
    try:
        found = file_path.is_file()
    except OSError as exc:
        raise ParseError(f"{manifest}:{lineno}: {kind} file cell cannot be checked: "
                         f"{exc.strerror}") from None
    if not found:
        raise ParseError(f"{manifest}:{lineno}: {kind} file {file_path} does not exist")
    return file_path


def load_manifest(path) -> list[Bag]:
    """The manifest's bags, in row order.

    Each feature file's header and size are checked here and its payload is
    left on disk for ``Bag.features`` to read; patch-label and coordinate
    files are read and checked against the bag's length.
    """
    path = Path(path)
    base = path.parent
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != MANIFEST_COLUMNS:
                raise ParseError(
                    f"{path}: manifest header must be {','.join(MANIFEST_COLUMNS)}, got {header}"
                )
            # (file line a record starts on, its cells): a quoted cell may span
            # lines, and a blank line is a record of no cells
            records, start = [], reader.line_num + 1
            for cells in reader:
                if cells:
                    records.append((start, cells))
                start = reader.line_num + 1
    except OSError as exc:
        raise ParseError(f"{path}: manifest cannot be read: {exc.strerror}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: manifest is not UTF-8 CSV text: {exc}") from None
    if not records:
        raise ParseError(f"{path}: manifest has no rows")
    seen: set[str] = set()
    bags = []
    for lineno, cells in records:
        if len(cells) > len(MANIFEST_COLUMNS):
            raise ParseError(f"{path}:{lineno}: row has {len(cells)} cells, "
                             f"the header {len(MANIFEST_COLUMNS)}")
        row = dict(itertools.zip_longest(MANIFEST_COLUMNS, cells))  # a missing cell is None
        bag_id = (row["id"] or "").strip()
        if not bag_id:
            raise ParseError(f"{path}:{lineno}: empty bag id")
        if any(unicodedata.category(ch) in ("Cc", "Zl", "Zp") for ch in bag_id):
            raise ParseError(f"{path}:{lineno}: bag id {bag_id!r} holds a line break or control character")
        if bag_id in seen:
            raise ParseError(f"{path}:{lineno}: duplicate bag id {bag_id!r}")
        seen.add(bag_id)
        try:
            label = int(row["label"])
        except (TypeError, ValueError):
            raise ParseError(f"{path}:{lineno}: label {row['label']!r} is not an integer") from None
        if not row["features"]:
            raise ParseError(f"{path}:{lineno}: empty features cell")
        features = _listed_file(path, lineno, "feature", base / row["features"])
        with open(features, "rb") as fh:
            shape = _sequence_header(fh, features)
        patch_labels = None
        if row.get("patch_labels"):
            patch_labels = read_patch_labels(
                _listed_file(path, lineno, "patch-label", base / row["patch_labels"]))
        coords = None
        if row.get("coords"):
            coords = read_coords(_listed_file(path, lineno, "coords", base / row["coords"]))
        try:
            # Absolute, so that a later change of working directory reads the same file.
            bags.append(Bag(id=bag_id, features=features.absolute(), shape=shape,
                            slide_label=label, patch_labels=patch_labels, coords=coords))
        except ContractError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return bags


# --------------------------------------------------------------------------
# Corpus statistics
# --------------------------------------------------------------------------

def long_sequence_split(bags: list[Bag], percentile: float = 85) -> list[Bag]:
    """Bags whose length reaches the nearest-rank percentile threshold."""
    if not bags:
        raise ContractError("long_sequence_split needs a non-empty corpus")
    if not 0 <= percentile <= 100:
        raise ContractError(f"percentile must be in [0, 100], got {percentile}")
    if percentile == 0:
        return list(bags)
    lengths = sorted(bag.length for bag in bags)
    rank = int(np.ceil(percentile / 100.0 * len(lengths)))  # 1-based nearest rank
    threshold = lengths[rank - 1]
    return [bag for bag in bags if bag.length >= threshold]


def corpus_stats(bags: list[Bag]) -> dict:
    if not bags:
        raise ContractError("corpus_stats needs a non-empty corpus")
    lengths = np.array([bag.length for bag in bags], dtype=np.int64)
    return {
        "count": int(lengths.size),
        "mean_length": round(float(lengths.mean()), 2),
        "min_length": int(lengths.min()),
        "max_length": int(lengths.max()),
    }
