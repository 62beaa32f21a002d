"""Binary model checkpoints.

Layout (all integers little-endian u32 unless noted):

    bytes 0..3   magic "S4MC"
    4..7         format version (1)
    8..39        config: input_dim, hidden_dim, state_dim, num_classes,
                 num_patch_classes, num_ssm_layers, multitask (0/1),
                 discretization (0 = bilinear, 1 = zoh)
    40..         parameter payload: the model's parameter vector (every array
                 in declaration order) as raw 32-bit IEEE little-endian values

Writer and reader round-trip bitwise.  The reader raises ParseError, with
the byte offset of the fault, for a malformed config word, a payload whose
size does not match the config, and a non-finite value.
"""

import struct
from pathlib import Path

import numpy as np

from .errors import ParseError
from .model import (DISCRETIZATIONS, MilModel, ModelConfig, ParameterVector, count_parameters,
                    parameter_shapes)

MAGIC = b"S4MC"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIIIIII")  # magic, version, 8 config words
_CONFIG_WORDS = ("input_dim", "hidden_dim", "state_dim", "num_classes", "num_patch_classes",
                 "num_ssm_layers", "multitask", "discretization")
# Words with a rule other than "a positive integer".
_WORD_CHECKS = {
    "state_dim": lambda v: v >= 2 and v % 2 == 0,
    "multitask": lambda v: v in (0, 1),
    "discretization": lambda v: v < len(DISCRETIZATIONS),
}


def save_checkpoint(path, model: MilModel) -> None:
    cfg = model.config
    header = _HEADER.pack(
        MAGIC, VERSION, cfg.input_dim, cfg.hidden_dim, cfg.state_dim,
        cfg.num_classes, cfg.patch_classes, cfg.num_ssm_layers,
        1 if cfg.multitask else 0, DISCRETIZATIONS.index(cfg.discretization),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(model.params.vector.astype("<f4", copy=False).tobytes())


def load_checkpoint(path) -> MilModel:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ParseError(f"checkpoint truncated: {len(blob)} bytes < header", offset=len(blob))
    magic, version, *words = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ParseError(f"bad checkpoint magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise ParseError(f"unsupported checkpoint version {version}", offset=4)
    fields = dict(zip(_CONFIG_WORDS, words))
    for index, (name, value) in enumerate(fields.items()):
        if not _WORD_CHECKS.get(name, lambda v: v >= 1)(value):
            raise ParseError(f"malformed checkpoint config word {name} = {value}",
                             offset=8 + 4 * index)
    config = ModelConfig(**{**fields, "multitask": bool(fields["multitask"]),
                            "discretization": DISCRETIZATIONS[fields["discretization"]]})
    # Sized from the closed-form count first, so a corrupt header cannot make
    # the reader enumerate or allocate more than the file holds.
    end = _HEADER.size + 4 * count_parameters(config)
    if end > len(blob):
        raise ParseError(f"checkpoint truncated: the config needs {end} bytes, have {len(blob)}",
                         offset=len(blob))
    if end < len(blob):
        raise ParseError(f"{len(blob) - end} trailing bytes after parameters", offset=end)
    params = ParameterVector(np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).astype(np.float32),
                             parameter_shapes(config))
    if not np.isfinite(params.vector).all():
        index = int(np.argmin(np.isfinite(params.vector)))
        raise ParseError(f"non-finite value {params.vector[index]} in {params.name_at(index)}",
                         offset=_HEADER.size + 4 * index)
    return MilModel(config=config, params=params)
