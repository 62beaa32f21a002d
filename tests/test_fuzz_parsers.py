"""Mutation fuzzing of the file readers: SEQF, patch labels, coordinates,
checkpoints, manifests and config JSON.

Every case starts from a valid file, overwrites some bytes or whole u32
words (the header words of a binary file most often), then cuts it short
or extends it.  A reader must either return a valid object or raise its
typed error (ParseError, or ConfigError for config files); any other
exception is a parser bug.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s4mil.checkpoint import load_checkpoint, save_checkpoint
from s4mil.cli import REGISTRY, RunSpec, resolve_config
from s4mil.data_io import (
    Bag,
    load_manifest,
    read_coords,
    read_patch_labels,
    read_sequence_file,
    write_manifest,
    write_sequence_file,
)
from s4mil.errors import ConfigError, ParseError
from s4mil.model import MilModel, ModelConfig, init_parameters

FUZZ_EXAMPLES = 300
TEXT_FUZZ_EXAMPLES = 150  # keeps the two text readers near 2 s together

WORD_VALUES = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 2**16, 2**31 - 1, 2**31, 2**32 - 1]),
                        st.integers(0, 2**32 - 1))


# Bytes that carry meaning in CSV and JSON text, offered besides arbitrary ones.
TEXT_BYTES = st.sampled_from(b',"\n\r:{}[]-.e0129 ')


def mutations(blob: bytes, header_words: int = 0):
    """Strategy over corrupted copies of a valid file; a binary file names its
    count of u32 header words, a text file has none."""
    anywhere = st.integers(0, len(blob) - 1)
    if header_words:
        byte_edit = st.tuples(st.just("byte"), st.one_of(st.integers(0, 4 * header_words - 1), anywhere),
                              st.integers(0, 255))
        word_edit = st.tuples(st.just("word"), st.integers(0, header_words - 1), WORD_VALUES)
        edit = st.one_of(byte_edit, word_edit)
    else:
        edit = st.tuples(st.just("byte"), anywhere, st.one_of(st.integers(0, 255), TEXT_BYTES))
    return st.tuples(
        st.lists(edit, max_size=4),
        st.one_of(st.none(), st.integers(0, len(blob))),
        st.binary(max_size=12),
    ).map(lambda case: _apply(blob, *case))


def _apply(blob: bytes, edits, cut, extension) -> bytes:
    out = bytearray(blob)
    for kind, where, value in edits:
        if kind == "byte":
            out[where] = value
        else:
            struct.pack_into("<I", out, 4 * where, value)
    if cut is not None:
        return bytes(out[:cut])
    return bytes(out) + extension


def test_seqf_reader_loads_or_raises_parse_error(tmp_path_factory):
    path = tmp_path_factory.mktemp("seqf") / "bag.seqf"
    write_sequence_file(path, np.arange(15, dtype=np.float32).reshape(5, 3))
    blob = path.read_bytes()

    @settings(max_examples=FUZZ_EXAMPLES)
    @given(mutations(blob, header_words=4))
    def check(data):
        path.write_bytes(data)
        try:
            matrix = read_sequence_file(path)
        except ParseError:
            return
        assert matrix.ndim == 2 and 16 + 4 * matrix.size == len(data)

    check()


@pytest.mark.parametrize("reader, dim", [(read_patch_labels, 1), (read_coords, 2)])
def test_integral_readers_load_their_payload_or_raise_parse_error(tmp_path_factory, reader, dim):
    # Word edits reach every word of the file, payload included, so that
    # NaN, +-inf and floats beyond int64 are drawn; none may load as some
    # other integer.
    path = tmp_path_factory.mktemp("integral") / "values.seqf"
    write_sequence_file(path, np.arange(5 * dim, dtype=np.float32).reshape(5, dim) - 3)
    blob = path.read_bytes()

    @settings(max_examples=FUZZ_EXAMPLES)
    @given(mutations(blob, header_words=len(blob) // 4))
    def check(data):
        path.write_bytes(data)
        try:
            values = reader(path)
        except ParseError:
            return
        payload = read_sequence_file(path).astype(np.float64)
        assert values.dtype == np.int64
        assert np.array_equal(values.reshape(payload.shape).astype(np.float64), payload)

    check()


def test_checkpoint_reader_loads_or_raises_parse_error(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.s4mc"
    config = ModelConfig(input_dim=3, hidden_dim=2, state_dim=2, num_classes=2,
                         multitask=True, num_patch_classes=3)
    save_checkpoint(path, init_parameters(config, seed=0))
    blob = path.read_bytes()

    @settings(max_examples=FUZZ_EXAMPLES)
    @given(mutations(blob, header_words=10))
    def check(data):
        path.write_bytes(data)
        try:
            model = load_checkpoint(path)
        except ParseError:
            return
        assert isinstance(model, MilModel)
        assert all(np.all(np.isfinite(v)) for v in model.params.values())

    check()


def test_manifest_reader_loads_or_raises_parse_error(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    rows = []
    for i, length in enumerate((5, 4, 6)):
        write_sequence_file(root / f"b{i}.seqf", np.full((length, 3), i, dtype=np.float32))
        row = {"id": f"b{i}", "label": i % 2, "features": f"b{i}.seqf"}
        if i < 2:
            write_sequence_file(root / f"b{i}_y.seqf", np.zeros((length, 1), dtype=np.float32))
            write_sequence_file(root / f"b{i}_xy.seqf",
                                np.arange(2 * length, dtype=np.float32).reshape(length, 2))
            row.update(patch_labels=f"b{i}_y.seqf", coords=f"b{i}_xy.seqf")
        rows.append(row)
    path = root / "manifest.csv"
    write_manifest(path, rows)
    blob = path.read_bytes()

    @settings(max_examples=TEXT_FUZZ_EXAMPLES)
    @given(mutations(blob))
    def check(data):
        path.write_bytes(data)
        try:
            bags = load_manifest(path)
        except ParseError:
            return
        assert bags and all(isinstance(bag, Bag) for bag in bags)
        assert len({bag.id for bag in bags}) == len(bags)

    check()


def test_a_feature_file_that_passes_load_reads_back_at_its_shape(tmp_path_factory):
    # load_manifest checks only the header and size of a feature file; what
    # passes those checks must read back later without error.
    root = tmp_path_factory.mktemp("features")
    for i, length in enumerate((5, 4)):
        write_sequence_file(root / f"b{i}.seqf", np.arange(3 * length, dtype=np.float32).reshape(length, 3))
    path = root / "manifest.csv"
    write_manifest(path, [{"id": f"b{i}", "label": i, "features": f"b{i}.seqf"} for i in range(2)])
    features = root / "b0.seqf"
    blob = features.read_bytes()

    @settings(max_examples=FUZZ_EXAMPLES)
    @given(mutations(blob, header_words=4))
    def check(data):
        features.write_bytes(data)
        try:
            bags = load_manifest(path)
        except ParseError:
            return
        for bag in bags:
            matrix = bag.features
            assert matrix.dtype == np.float32 and matrix.shape == (bag.length, bag.shape[1])
        assert 16 + 4 * bags[0].features.size == len(data)

    check()


def test_config_reader_resolves_or_raises_config_error(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps({
        "run.command": "train", "run.seed": 3,
        "model": {"hidden_dim": 8, "multitask": True, "num_patch_classes": None},
        "train": {"learning_rate": 0.001, "max_epochs": 3, "lambda": 0.5, "manifest": "m.csv"},
        "synth.num_bags": 12,
    }))
    blob = path.read_bytes()

    @settings(max_examples=TEXT_FUZZ_EXAMPLES)
    @given(mutations(blob))
    def check(data):
        path.write_bytes(data)
        try:
            config = resolve_config(RunSpec("train", str(path), [], path.parent), {})
        except ConfigError:
            return
        assert config.keys() == REGISTRY.keys()
        for key, value in config.items():
            default, kind = REGISTRY[key]
            if value is None:
                assert default is None, key
            else:
                assert type(value) is kind, key
                assert kind is not float or math.isfinite(value), key

    check()
