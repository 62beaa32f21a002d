"""Binary model checkpoints.

Layout (all integers little-endian u32 unless noted):

    bytes 0..3   magic "S4MC"
    4..7         format version (1)
    8..39        config: input_dim, hidden_dim, state_dim, num_classes,
                 num_patch_classes, num_ssm_layers, multitask (0/1),
                 discretization (0 = bilinear, 1 = zoh)
    40..         parameter payload: every array in declaration order as raw
                 32-bit IEEE little-endian values

Writer and reader round-trip bitwise; trailing bytes and non-finite values
are rejected.
"""

import struct
from pathlib import Path

import numpy as np

from .errors import ParseError
from .model import DISCRETIZATIONS, MilModel, ModelConfig, parameter_shapes

MAGIC = b"S4MC"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIIIIII")  # magic, version, 8 config words


def save_checkpoint(path, model: MilModel) -> None:
    cfg = model.config
    header = _HEADER.pack(
        MAGIC, VERSION, cfg.input_dim, cfg.hidden_dim, cfg.state_dim,
        cfg.num_classes, cfg.patch_classes, cfg.num_ssm_layers,
        1 if cfg.multitask else 0, DISCRETIZATIONS.index(cfg.discretization),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for name in parameter_shapes(cfg):
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f4").tobytes())


def load_checkpoint(path) -> MilModel:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ParseError(f"checkpoint truncated: {len(blob)} bytes < header", offset=len(blob))
    magic, version, d_in, hidden, state, classes, patch_classes, layers, multitask, disc = \
        _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ParseError(f"bad checkpoint magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise ParseError(f"unsupported checkpoint version {version}", offset=4)
    if disc >= len(DISCRETIZATIONS):
        raise ParseError(f"unknown discretization code {disc}", offset=36)
    config = ModelConfig(
        input_dim=d_in, hidden_dim=hidden, state_dim=state, num_classes=classes,
        num_patch_classes=patch_classes, num_ssm_layers=layers,
        multitask=bool(multitask), discretization=DISCRETIZATIONS[disc],
    )
    shapes = parameter_shapes(config)
    offset = _HEADER.size
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        count = int(np.prod(shape, dtype=np.int64))
        end = offset + 4 * count
        if end > len(blob):
            raise ParseError(
                f"checkpoint truncated inside {name}: need {end} bytes, have {len(blob)}",
                offset=len(blob),
            )
        values = np.frombuffer(blob[offset:end], dtype="<f4")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ParseError(f"non-finite value {values[bad[0]]} in {name}",
                             offset=offset + 4 * int(bad[0]))
        params[name] = values.reshape(shape).copy()
        offset = end
    if offset != len(blob):
        raise ParseError(f"{len(blob) - offset} trailing bytes after parameters", offset=offset)
    return MilModel(config=config, params=params)
