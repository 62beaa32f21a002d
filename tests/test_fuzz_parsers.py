"""Mutation fuzzing of the two binary readers.

Every case starts from a valid file, overwrites some bytes or whole u32
words (the header words most often), then cuts it short or extends it.  A
reader must either return a loaded object or raise ParseError; any other
exception is a parser bug.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from s4mil.checkpoint import load_checkpoint, save_checkpoint
from s4mil.data_io import read_sequence_file, write_sequence_file
from s4mil.errors import ParseError
from s4mil.model import MilModel, ModelConfig, init_parameters

FUZZ_EXAMPLES = 300

WORD_VALUES = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 2**16, 2**31 - 1, 2**31, 2**32 - 1]),
                        st.integers(0, 2**32 - 1))


def mutations(blob: bytes, header_words: int):
    """Strategy over corrupted copies of a valid file of header_words u32 words."""
    byte_edit = st.tuples(st.just("byte"), st.one_of(st.integers(0, 4 * header_words - 1),
                                                     st.integers(0, len(blob) - 1)),
                          st.integers(0, 255))
    word_edit = st.tuples(st.just("word"), st.integers(0, header_words - 1), WORD_VALUES)
    return st.tuples(
        st.lists(st.one_of(byte_edit, word_edit), max_size=4),
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
