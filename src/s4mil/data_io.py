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
"""

import csv
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError

MAGIC = b"SEQF"
VERSION = 1
_HEADER = struct.Struct("<4sIII")
MAX_PAYLOAD_BYTES = 1 << 40  # guards L*D overflow before allocating

MANIFEST_COLUMNS = ["id", "label", "features", "patch_labels", "coords"]


@dataclass
class Bag:
    """One slide: its token features, slide label, optional extras."""

    id: str
    features: np.ndarray  # (L, D) float32
    slide_label: int
    patch_labels: np.ndarray | None = None  # (L,) int
    coords: np.ndarray | None = None  # (L, 2) int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ContractError(f"bag {self.id}: features must be (L>=1, D), got {self.features.shape}")
        length = self.features.shape[0]
        if self.patch_labels is not None:
            self.patch_labels = np.asarray(self.patch_labels, dtype=np.int64)
            if self.patch_labels.shape != (length,):
                raise ContractError(
                    f"bag {self.id}: patch labels must have length {length}, got {self.patch_labels.shape}"
                )
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=np.int64)
            if self.coords.shape != (length, 2):
                raise ContractError(
                    f"bag {self.id}: coords must be ({length}, 2), got {self.coords.shape}"
                )

    @property
    def length(self) -> int:
        return self.features.shape[0]


# --------------------------------------------------------------------------
# SEQF container
# --------------------------------------------------------------------------

def write_sequence_file(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ContractError(f"sequence files hold (L>=1, D>=1) matrices, got {matrix.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, matrix.shape[0], matrix.shape[1]))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def read_sequence_file(path) -> np.ndarray:
    """The (L, D) float32 matrix of a SEQF file, read straight into its array."""
    with open(path, "rb") as fh:
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
        expected_end = _HEADER.size + 4 * length * dim
        if size == expected_end:
            # Re-measure by what the reads return, in case the file changed since fstat.
            values = np.empty((length, dim), dtype="<f4")
            size = _HEADER.size + fh.readinto(values) + len(fh.read())
    if size < expected_end:
        raise ParseError(
            f"{path}: payload truncated, expected {expected_end} bytes, have {size}",
            offset=size,
        )
    if size > expected_end:
        raise ParseError(f"{path}: {size - expected_end} trailing bytes", offset=expected_end)
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
    """Read every referenced file; bags come back in manifest row order."""
    path = Path(path)
    base = path.parent
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != MANIFEST_COLUMNS:
                raise ParseError(
                    f"{path}: manifest header must be {','.join(MANIFEST_COLUMNS)}, got {reader.fieldnames}"
                )
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: manifest is not UTF-8 CSV text: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: manifest has no rows")
    seen: set[str] = set()
    bags = []
    for lineno, row in enumerate(rows, start=2):
        bag_id = (row["id"] or "").strip()
        if not bag_id:
            raise ParseError(f"{path}:{lineno}: empty bag id")
        if bag_id in seen:
            raise ParseError(f"{path}:{lineno}: duplicate bag id {bag_id!r}")
        seen.add(bag_id)
        try:
            label = int(row["label"])
        except (TypeError, ValueError):
            raise ParseError(f"{path}:{lineno}: label {row['label']!r} is not an integer") from None
        if not row["features"]:
            raise ParseError(f"{path}:{lineno}: empty features cell")
        features = read_sequence_file(_listed_file(path, lineno, "feature", base / row["features"]))
        patch_labels = None
        if row.get("patch_labels"):
            patch_labels = read_patch_labels(
                _listed_file(path, lineno, "patch-label", base / row["patch_labels"]))
        coords = None
        if row.get("coords"):
            coords = read_coords(_listed_file(path, lineno, "coords", base / row["coords"]))
        try:
            bags.append(Bag(id=bag_id, features=features, slide_label=label,
                            patch_labels=patch_labels, coords=coords))
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
