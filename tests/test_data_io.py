import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from s4mil.data_io import (
    Bag,
    corpus_stats,
    load_manifest,
    long_sequence_split,
    read_patch_labels,
    read_sequence_file,
    write_manifest,
    write_sequence_file,
)
from s4mil.errors import ContractError, ParseError


def make_bag(i, length, dim=3, label=0):
    rng = np.random.default_rng(i)
    return Bag(id=f"bag{i}", features=rng.standard_normal((length, dim)).astype(np.float32),
               slide_label=label)


# --------------------------------------------------------------------------
# SEQF container
# --------------------------------------------------------------------------

def test_read_constructed_fixture(tmp_path):
    path = tmp_path / "m.seqf"
    payload = struct.pack("<4sIII", b"SEQF", 1, 2, 3) + np.arange(6, dtype="<f4").tobytes()
    path.write_bytes(payload)
    matrix = read_sequence_file(path)
    np.testing.assert_array_equal(matrix, [[0, 1, 2], [3, 4, 5]])


def test_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "m.seqf"
    # header promises 10 tokens, payload holds 9
    payload = struct.pack("<4sIII", b"SEQF", 1, 10, 2) + np.zeros(18, dtype="<f4").tobytes()
    path.write_bytes(payload)
    with pytest.raises(ParseError, match="truncated") as exc:
        read_sequence_file(path)
    assert exc.value.offset == len(payload)


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((13, 5)).astype(np.float32)
    path = tmp_path / "m.seqf"
    write_sequence_file(path, matrix)
    again = read_sequence_file(path)
    assert again.dtype == np.float32
    assert np.array_equal(matrix, again)
    assert matrix.tobytes() == again.tobytes()


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "m.seqf"
    path.write_bytes(struct.pack("<4sIII", b"NOPE", 1, 1, 1) + b"\0" * 4)
    with pytest.raises(ParseError, match="magic") as exc:
        read_sequence_file(path)
    assert exc.value.offset == 0
    path.write_bytes(struct.pack("<4sIII", b"SEQF", 9, 1, 1) + b"\0" * 4)
    with pytest.raises(ParseError, match="version"):
        read_sequence_file(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.seqf"
    write_sequence_file(path, np.zeros((2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"!")
    with pytest.raises(ParseError, match="trailing") as exc:
        read_sequence_file(path)
    assert exc.value.offset == 16 + 16


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_writer_bytes_are_the_header_and_the_little_endian_float32_payload(tmp_path, dtype, order):
    matrix = np.asarray(np.random.default_rng(5).standard_normal((7, 3)), dtype=dtype, order=order)
    path = tmp_path / "m.seqf"
    write_sequence_file(path, matrix)
    payload = np.ascontiguousarray(matrix.astype(np.float32), dtype="<f4").tobytes()
    assert path.read_bytes() == struct.pack("<4sIII", b"SEQF", 1, 7, 3) + payload


def test_patch_labels_must_be_integral(tmp_path):
    path = tmp_path / "p.seqf"
    write_sequence_file(path, np.array([[0.0], [1.0], [1.5]], dtype=np.float32))
    with pytest.raises(ParseError, match="non-integral.*token 2"):
        read_patch_labels(path)
    write_sequence_file(path, np.array([[0.0], [1.0], [1.0]], dtype=np.float32))
    np.testing.assert_array_equal(read_patch_labels(path), [0, 1, 1])


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 2.0 ** 63, -2.0 ** 63, 1e38])
def test_patch_labels_beyond_int64_are_rejected_at_their_offset(tmp_path, value):
    # Such values would cast to -2^63 with no error, not to the label stored.
    path = tmp_path / "p.seqf"
    write_sequence_file(path, np.array([[0.0], [value], [1.0]], dtype=np.float32))
    with pytest.raises(ParseError, match=r"p\.seqf: non-finite or beyond-int64 .*token 1") as exc:
        read_patch_labels(path)
    assert exc.value.offset == 16 + 4


@pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan, 2.0 ** 64])
def test_coords_beyond_int64_are_rejected_at_their_offset(tmp_path, value):
    from s4mil.data_io import read_coords

    path = tmp_path / "c.seqf"
    write_sequence_file(path, np.array([[0.0, 1.0], [2.0, 3.0], [4.0, value]], dtype=np.float32))
    with pytest.raises(ParseError, match=r"c\.seqf: non-finite or beyond-int64 .*token 2") as exc:
        read_coords(path)
    assert exc.value.offset == 16 + 4 * 5
    write_sequence_file(path, np.array([[0.0, 1.0], [-2.0 ** 62, 2.0 ** 62]], dtype=np.float32))
    np.testing.assert_array_equal(read_coords(path), [[0, 1], [-2 ** 62, 2 ** 62]])


# --------------------------------------------------------------------------
# Manifests
# --------------------------------------------------------------------------

def write_corpus(tmp_path, n=4, with_patches=False):
    rows = []
    rng = np.random.default_rng(0)
    for i in range(n):
        length = int(rng.integers(2, 9))
        write_sequence_file(tmp_path / f"feat{i}.seqf", rng.standard_normal((length, 3)))
        row = {"id": f"bag{i}", "label": i % 2, "features": f"feat{i}.seqf"}
        if with_patches:
            write_sequence_file(tmp_path / f"lab{i}.seqf",
                                rng.integers(0, 2, (length, 1)).astype(np.float32))
            row["patch_labels"] = f"lab{i}.seqf"
        rows.append(row)
    write_manifest(tmp_path / "manifest.csv", rows)
    return rows


PAYLOAD = np.arange(6, dtype="<f4").tobytes()
MALFORMED = {
    "short-header": b"SEQF\x01\x00",
    "bad-magic": struct.pack("<4sIII", b"NOPE", 1, 2, 3) + PAYLOAD,
    "bad-version": struct.pack("<4sIII", b"SEQF", 9, 2, 3) + PAYLOAD,
    "zero-length": struct.pack("<4sIII", b"SEQF", 1, 0, 3) + PAYLOAD,
    "oversized": struct.pack("<4sIII", b"SEQF", 1, 2**31, 2**31) + PAYLOAD,
    "truncated": struct.pack("<4sIII", b"SEQF", 1, 2, 3) + PAYLOAD[:-4],
    "trailing": struct.pack("<4sIII", b"SEQF", 1, 2, 3) + PAYLOAD + b"!",
}


@pytest.mark.parametrize("blob", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_feature_file_fails_at_load_as_it_fails_to_read(tmp_path, blob):
    (tmp_path / "feat.seqf").write_bytes(blob)
    write_manifest(tmp_path / "manifest.csv", [{"id": "x", "label": 0, "features": "feat.seqf"}])
    with pytest.raises(ParseError) as read:
        read_sequence_file(tmp_path / "feat.seqf")
    with pytest.raises(ParseError) as loaded:
        load_manifest(tmp_path / "manifest.csv")
    assert (str(loaded.value), loaded.value.offset) == (str(read.value), read.value.offset)


def test_load_reads_no_feature_payload_and_each_access_reads_the_file(tmp_path, monkeypatch):
    import s4mil.data_io as data_io

    rows = write_corpus(tmp_path, n=3)
    reads = []
    read = data_io.read_sequence_file

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(data_io, "read_sequence_file", counted)
    bags = load_manifest(tmp_path / "manifest.csv")
    assert reads == []
    lengths = [read(tmp_path / row["features"]).shape[0] for row in rows]
    assert [bag.length for bag in bags] == lengths and reads == []
    first, again = bags[1].features, bags[1].features
    assert first is not again and np.array_equal(first, again)
    assert first.dtype == np.float32 and first.shape == (bags[1].length, 3)
    assert reads == [tmp_path / rows[1]["features"]] * 2


def test_a_bag_from_a_relative_manifest_path_reads_its_file_from_any_directory(tmp_path,
                                                                               monkeypatch):
    rows = write_corpus(tmp_path, n=2)
    monkeypatch.chdir(tmp_path)
    bags = load_manifest("manifest.csv")
    # The same name and shape in the new working directory, other values.
    (tmp_path / "elsewhere").mkdir()
    write_sequence_file(tmp_path / "elsewhere" / rows[1]["features"], np.zeros(bags[1].shape))
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert np.array_equal(bags[1].features, read_sequence_file(tmp_path / rows[1]["features"]))
    assert np.any(bags[1].features != 0)


def _file_backed_bags(tmp_path, n=4, length=4, dim=6):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(n):
        write_sequence_file(tmp_path / f"feat{i}.seqf", rng.standard_normal((length, dim)))
        rows.append({"id": f"bag{i}", "label": i % 2, "features": f"feat{i}.seqf"})
    write_manifest(tmp_path / "manifest.csv", rows)
    return load_manifest(tmp_path / "manifest.csv")


# (change to the file after load, what the error then says)
CHANGED_AFTER_LOAD = {
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:-4]), "payload truncated"),
    # The same byte count: read as (6, 4) it would be a silent reshape.
    "reshaped": (lambda path: path.write_bytes(struct.pack("<4sIII", b"SEQF", 1, 6, 4)
                                               + path.read_bytes()[16:]),
                 "header now says L=6, D=4, but the file had L=4, D=6 at load"),
    "removed": (lambda path: path.unlink(), "feature file cannot be read: No such file or directory"),
}


@pytest.mark.parametrize("change", CHANGED_AFTER_LOAD)
@pytest.mark.parametrize("caller, prefix", [("evaluate", "bag bag1: "), ("fit", "epoch 1, bag bag1: ")])
def test_a_feature_file_changed_after_load_is_a_parse_error_naming_the_bag(tmp_path, change,
                                                                           caller, prefix):
    from s4mil.model import ModelConfig, init_parameters
    from s4mil.train import TrainConfig, evaluate_model, fit

    bags = _file_backed_bags(tmp_path)
    path = tmp_path / "feat1.seqf"
    edit, message = CHANGED_AFTER_LOAD[change]
    edit(path)
    model = init_parameters(ModelConfig(input_dim=6, hidden_dim=4, state_dim=4), seed=0)
    with pytest.raises(ParseError, match="^" + re.escape(f"{prefix}{path}: {message}")):
        if caller == "evaluate":
            evaluate_model(model, bags)
        else:
            fit(model, bags[:2], bags[2:], TrainConfig(max_epochs=1))


def test_manifest_round_trip_order_stable(tmp_path):
    rows = write_corpus(tmp_path, n=5, with_patches=True)
    bags = load_manifest(tmp_path / "manifest.csv")
    assert [b.id for b in bags] == [r["id"] for r in rows]
    assert all(b.patch_labels is not None for b in bags)
    again = load_manifest(tmp_path / "manifest.csv")
    assert [b.id for b in again] == [b.id for b in bags]


def test_manifest_duplicate_id_rejected(tmp_path):
    write_corpus(tmp_path, n=2)
    rows = [
        {"id": "x", "label": 0, "features": "feat0.seqf"},
        {"id": "x", "label": 1, "features": "feat1.seqf"},
    ]
    write_manifest(tmp_path / "manifest.csv", rows)
    with pytest.raises(ParseError, match="duplicate"):
        load_manifest(tmp_path / "manifest.csv")


def test_manifest_missing_file_rejected(tmp_path):
    write_manifest(tmp_path / "manifest.csv",
                   [{"id": "x", "label": 0, "features": "absent.seqf"}])
    with pytest.raises(ParseError, match="does not exist"):
        load_manifest(tmp_path / "manifest.csv")


@pytest.mark.parametrize("column", ["features", "patch_labels", "coords"])
def test_manifest_file_cell_the_os_cannot_look_up_is_a_parse_error(tmp_path, column):
    # A name longer than the OS allows makes the lookup itself fail
    # (ENAMETOOLONG), which must name the line like a missing file does.
    write_corpus(tmp_path, n=1)
    row = {"id": "bag0", "label": 1, "features": "feat0.seqf", column: "x" * 300}
    write_manifest(tmp_path / "manifest.csv", [row])
    with pytest.raises(ParseError, match=r"manifest.csv:2: .* cannot be checked"):
        load_manifest(tmp_path / "manifest.csv")


def test_manifest_row_that_ends_before_its_features_cell_is_rejected(tmp_path):
    write_corpus(tmp_path, n=1)
    (tmp_path / "manifest.csv").write_text("id,label,features,patch_labels,coords\nbag0,1\n")
    with pytest.raises(ParseError, match=r"manifest.csv:2: empty features cell"):
        load_manifest(tmp_path / "manifest.csv")


def test_manifest_row_with_more_cells_than_the_header_is_rejected(tmp_path):
    write_corpus(tmp_path, n=1)
    (tmp_path / "manifest.csv").write_text(
        "id,label,features,patch_labels,coords\nbag0,1,feat0.seqf,,,extra\n")
    with pytest.raises(ParseError, match=r"manifest.csv:2: row has 6 cells, the header 5"):
        load_manifest(tmp_path / "manifest.csv")


def test_manifest_errors_name_the_file_line_their_record_starts_on(tmp_path):
    # A quoted cell may hold a line break (int() reads the label "1\n"), and
    # blank lines are skipped, so records and file lines differ in number.
    write_corpus(tmp_path, n=3)
    (tmp_path / "manifest.csv").write_text(
        'id,label,features,patch_labels,coords\nbag0,"1\n",feat0.seqf,,\n\n'
        "bag1,0,feat1.seqf,,\nbag2,x,feat2.seqf,,\n")
    with pytest.raises(ParseError, match=r"manifest.csv:6: label 'x' is not an integer"):
        load_manifest(tmp_path / "manifest.csv")


@pytest.mark.parametrize("bag_id", ['"a\nb"', '"a\rb"', "a\tb", "a\x7fb", "a\u2028b"],
                         ids=["newline", "carriage-return", "tab", "delete", "line-separator"])
def test_manifest_bag_id_with_a_line_break_or_control_character_is_rejected(tmp_path, bag_id):
    write_corpus(tmp_path, n=2)
    (tmp_path / "manifest.csv").write_text(
        f"id,label,features,patch_labels,coords\nbag0,1,feat0.seqf,,\n{bag_id},0,feat1.seqf,,\n",
        newline="")
    with pytest.raises(ParseError, match=r"manifest.csv:3: bag id .* line break or control character"):
        load_manifest(tmp_path / "manifest.csv")


def test_manifest_patch_labels_of_another_bag_are_a_parse_error(tmp_path):
    write_sequence_file(tmp_path / "feat.seqf", np.zeros((4, 3), dtype=np.float32))
    write_sequence_file(tmp_path / "lab.seqf", np.zeros((5, 1), dtype=np.float32))
    write_manifest(tmp_path / "manifest.csv",
                   [{"id": "x", "label": 0, "features": "feat.seqf", "patch_labels": "lab.seqf"}])
    with pytest.raises(ParseError, match=r"manifest.csv:2: .*patch labels must have length 4"):
        load_manifest(tmp_path / "manifest.csv")


def test_manifest_that_is_not_utf8_is_a_parse_error(tmp_path):
    write_corpus(tmp_path, n=1)
    (tmp_path / "manifest.csv").write_bytes(b"id,label,features,patch_labels,coords\n\xff,0,feat0.seqf,,\n")
    with pytest.raises(ParseError, match="not UTF-8 CSV text"):
        load_manifest(tmp_path / "manifest.csv")


# --------------------------------------------------------------------------
# Corpus statistics
# --------------------------------------------------------------------------

def test_long_split_nearest_rank_hand_count():
    bags = [make_bag(i, length=i) for i in range(1, 101)]
    kept = long_sequence_split(bags, percentile=85)
    assert len(kept) == 16
    assert min(b.length for b in kept) == 85


def test_long_split_percentile_zero_keeps_all():
    bags = [make_bag(i, length=i + 1) for i in range(5)]
    assert len(long_sequence_split(bags, percentile=0)) == 5


def test_long_split_all_equal_lengths():
    bags = [make_bag(i, length=7) for i in range(6)]
    assert len(long_sequence_split(bags, percentile=85)) == 6


@given(st.integers(0, 100), st.integers(0, 100))
def test_long_split_monotone_in_percentile(p1, p2):
    lo, hi = sorted((p1, p2))
    bags = [make_bag(i, length=(i * 13) % 29 + 1) for i in range(20)]
    kept_lo = {b.id for b in long_sequence_split(bags, percentile=lo)}
    kept_hi = {b.id for b in long_sequence_split(bags, percentile=hi)}
    assert kept_hi <= kept_lo


def test_corpus_stats_two_element_case():
    stats = corpus_stats([make_bag(0, 2), make_bag(1, 4)])
    assert stats == {"count": 2, "mean_length": 3.0, "min_length": 2, "max_length": 4}


def test_corpus_stats_singleton():
    stats = corpus_stats([make_bag(0, 9)])
    assert stats["mean_length"] == stats["min_length"] == stats["max_length"] == 9


def test_corpus_stats_matches_recount():
    rng = np.random.default_rng(3)
    lengths = [int(rng.integers(1, 50)) for _ in range(10)]
    stats = corpus_stats([make_bag(i, n) for i, n in enumerate(lengths)])
    assert stats["count"] == len(lengths)
    assert stats["mean_length"] == round(sum(lengths) / len(lengths), 2)
    assert stats["min_length"] == min(lengths)
    assert stats["max_length"] == max(lengths)


def test_empty_corpus_rejected():
    with pytest.raises(ContractError):
        corpus_stats([])
    with pytest.raises(ContractError):
        long_sequence_split([], percentile=50)


def test_bag_validation():
    with pytest.raises(ContractError, match="patch labels"):
        Bag(id="b", features=np.zeros((3, 2), dtype=np.float32), slide_label=0,
            patch_labels=np.zeros(2, dtype=np.int64))
    with pytest.raises(ContractError, match="coords"):
        Bag(id="b", features=np.zeros((3, 2), dtype=np.float32), slide_label=0,
            coords=np.zeros((3, 3), dtype=np.int64))


def test_coords_round_trip_bitwise(tmp_path):
    from s4mil.data_io import read_coords

    coords = np.array([[0, 0], [0, 1], [2, 5]], dtype=np.int64)
    path = tmp_path / "c.seqf"
    write_sequence_file(path, coords.astype(np.float32))
    np.testing.assert_array_equal(read_coords(path), coords)


def test_coords_wrong_width_rejected(tmp_path):
    from s4mil.data_io import read_coords

    path = tmp_path / "c.seqf"
    write_sequence_file(path, np.zeros((3, 3), dtype=np.float32))
    with pytest.raises(ParseError, match="D=2"):
        read_coords(path)
