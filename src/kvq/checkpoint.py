"""Binary checkpoint container: magic "KVQ1", an 8-byte little-endian header
length, a JSON header, then a 64-byte-aligned little-endian tensor payload.

The header holds the model's config (every ModelConfig field), the
caller's meta (save_model adds nothing to it and load_model reads none of
it) and the tensor table (each tensor's dtype, shape, offset and nbytes).
The config is the one record of the model's setting: quant_mode, and the
weight bits and group size every projection's codes are read at.

A single container carries both fp and quantized models.  save_model
stores a projection as its codes and (h, z) when its codes are of the
config's (weight_bits, weight_group_size), and otherwise as its w (an
unquantized projection's weights, or the dequantization of codes of another
setting, bit for bit).  A projection in memory holds the file's stream
(model.Linear), so save_model writes its wq.codes as they are, and
load_model keeps the stream it read as the projection's wq.codes.
load_model reads a projection from codes when the config's weight_bits are
below 16 and its .wq.codes is stored, rebuilding its weights as the
dequantization of the codes unpacked for that moment, bit-identical to the
saved model's; otherwise it reads .w.  A projection is smoothed when its
.smooth.s or .smooth.delta is stored, and then both must be.  Every smoothing a Linear
carries is folded into its w and b.  Unknown tensors and meta keys are
ignored: files written when calibration still learned weight clipping carry
per-projection .gamma/.beta tensors, and files written before the config
was the one record carry a meta "quant" entry; both load.  A config whose
quant_mode is "weight_only", a former mode that ran exactly as fp, loads as
"fp".

A projection's b-bit codes (b = weight_bits, 2..8) are one uint8 stream
of ceil(C_in * C_out / 8) * b bytes (pack_codes): code i of the row-major
(C_in, C_out) matrix holds bits i * b .. i * b + b - 1 of the stream, counted
from the low bit of byte 0, so every 8 codes fill b bytes and the last group
is padded with zero codes.  Codes load only as this stream: a (C_in, C_out)
matrix of one code per byte, as files written before codes were packed
store them, fails the shape check.

A malformed file raises DataFormatError naming the first fault found: a
header, config, meta or tensor table that is not a JSON object, a table
entry that is not one or lacks a field, a table entry whose dtype, shape,
offset or nbytes cannot describe its bytes, a tensor past the end of the
file or overlapping another, a tensor that the config's layout needs and
that is missing or has another shape (a codes stream of another width, h
and z of another group count, a .w the config needs in place of codes, the
other half of a smoothing), weight codes that are not uint8, a float tensor
that is not float32, a float tensor that holds a value that is not finite
(checked once, as it is read), or a smoothing scale below S_FLOOR.  So does
a config that ModelConfig refuses: an unknown field, a layer, head, size,
length or group-size field that is not an integer >= 1 (vocab_size >= 2),
an odd head_dim, a rope_base that is not finite and positive, a poq that is
not true or false, or a kv or weight bit width that is not an integer in
2..8 or 16.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, replace

import numpy as np

from .errors import DataFormatError, KvqError
from .model import DecoderBlockWeights, Linear, Model, ModelConfig
from .quantizers import (S_FLOOR, QuantizedTensor, SmoothingParams, dequantize, packed_size,
                         unpack_codes)

MAGIC = b"KVQ1"
ALIGN = 64

_DTYPES = {"f32": np.float32, "i8": np.int8, "u8": np.uint8, "i32": np.int32}
_DTYPE_NAMES = {np.dtype(v): k for k, v in _DTYPES.items()}


def _align(n: int) -> int:
    return (n + ALIGN - 1) // ALIGN * ALIGN


def write_container(path: str, config: dict, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    entries = {}
    offset = 0  # relative to payload start; resolved after header size is known
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        dt = _DTYPE_NAMES.get(arr.dtype)
        if dt is None:
            raise DataFormatError(f"unsupported dtype {arr.dtype} for tensor {name!r}")
        entries[name] = {
            "dtype": dt,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": arr.nbytes,
        }
        blobs.append(arr.tobytes())
        offset = _align(offset + arr.nbytes)

    header = {"config": config, "meta": meta, "tensors": entries}
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload_start = _align(len(MAGIC) + 8 + len(hjson))

    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(hjson)))
        f.write(hjson)
        f.write(b"\0" * (payload_start - len(MAGIC) - 8 - len(hjson)))
        pos = 0
        for name, blob in zip(sorted(tensors), blobs):
            pad = entries[name]["offset"] - pos
            f.write(b"\0" * pad)
            f.write(blob)
            pos = entries[name]["offset"] + len(blob)


def _is_count(v) -> bool:
    """A non-negative JSON integer (true and false are not numbers here)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def read_container(path: str) -> tuple[dict, dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise DataFormatError(f"bad magic at byte 0: {data[:4]!r} != {MAGIC!r}")
    if len(data) < 12:
        raise DataFormatError(f"truncated header: file is only {len(data)} bytes")
    (hlen,) = struct.unpack("<Q", data[4:12])
    if 12 + hlen > len(data):
        raise DataFormatError(f"header length {hlen} exceeds file size at byte 12")
    try:
        header = json.loads(data[12 : 12 + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataFormatError(f"malformed JSON header at byte 12: {e}") from e
    payload_start = _align(12 + hlen)
    if not isinstance(header, dict):
        raise DataFormatError(f"header is a JSON {type(header).__name__}, not an object")
    for key in ("config", "meta", "tensors"):
        if not isinstance(header.get(key, {}), dict):
            raise DataFormatError(f"header {key!r} is a JSON "
                                  f"{type(header[key]).__name__}, not an object")
    entries = header.get("tensors", {})

    spans = []
    for name, ent in entries.items():
        if not isinstance(ent, dict):
            raise DataFormatError(f"tensor {name!r} has a table entry that is not an object")
        missing = [key for key in ("dtype", "shape", "offset", "nbytes") if key not in ent]
        if missing:
            raise DataFormatError(f"tensor {name!r} has no {', '.join(missing)} in its entry")
        dt = _DTYPES.get(ent["dtype"]) if isinstance(ent["dtype"], str) else None
        if dt is None:
            raise DataFormatError(f"tensor {name!r} has unknown dtype {ent['dtype']!r}")
        shape, offset = ent["shape"], ent["offset"]
        if not (isinstance(shape, list) and all(_is_count(n) for n in shape)):
            raise DataFormatError(f"tensor {name!r} has shape {shape}: it must be a list of "
                                  f"non-negative integers")
        if not _is_count(offset):
            raise DataFormatError(f"tensor {name!r} has offset {offset}: it must be a "
                                  f"non-negative integer")
        nbytes = math.prod(shape) * np.dtype(dt).itemsize
        if not _is_count(ent["nbytes"]) or ent["nbytes"] != nbytes:
            raise DataFormatError(f"tensor {name!r} has nbytes {ent['nbytes']!r}, expected "
                                  f"{nbytes} for shape {shape} of {ent['dtype']}")
        start = payload_start + offset
        end = start + nbytes
        if end > len(data):
            raise DataFormatError(
                f"tensor {name!r} extends to byte {end}, past end of file ({len(data)})"
            )
        spans.append((start, end, name))
    spans.sort()
    for (s1, e1, n1), (s2, e2, n2) in zip(spans, spans[1:]):
        if s2 < e1:
            raise DataFormatError(
                f"tensors {n1!r} and {n2!r} overlap at byte {s2}"
            )
    tensors = {}
    for name, ent in entries.items():
        arr = np.frombuffer(data, dtype=_DTYPES[ent["dtype"]], count=math.prod(ent["shape"]),
                            offset=payload_start + ent["offset"])
        tensors[name] = arr.reshape(ent["shape"]).copy()
    return header.get("config", {}), header.get("meta", {}), tensors


# -- model <-> container ------------------------------------------------------


def save_model(model: Model, path: str, meta: dict | None = None) -> None:
    spec = model.config.weight_spec()
    tensors: dict[str, np.ndarray] = {
        "embed": model.embed,
        "final_norm": model.final_norm,
        "head.w": model.head.w,
        "head.b": model.head.b,
    }
    for li, blk in enumerate(model.blocks):
        tensors[f"blocks.{li}.attn_norm"] = blk.attn_norm
        tensors[f"blocks.{li}.mlp_norm"] = blk.mlp_norm
        for name, lin in blk.projections().items():
            base = f"blocks.{li}.{name}"
            tensors[f"{base}.b"] = lin.b
            # codes are read at the config's width and groups, so codes of
            # another setting are stored as their dequantization, w
            if lin.holds(spec):
                tensors[f"{base}.wq.codes"] = lin.wq.codes
                tensors[f"{base}.wq.h"] = lin.wq.h
                tensors[f"{base}.wq.z"] = lin.wq.z
            else:
                tensors[f"{base}.w"] = lin.w
            if lin.smoothing is not None:
                tensors[f"{base}.smooth.s"] = lin.smoothing.s
                tensors[f"{base}.smooth.delta"] = lin.smoothing.delta
    write_container(path, asdict(model.config), meta or {}, tensors)


def load_model(path: str) -> Model:
    config, _, tensors = read_container(path)
    if config.get("quant_mode") == "weight_only":
        config = {**config, "quant_mode": "fp"}
    try:
        cfg = ModelConfig(**config)
    except (TypeError, KvqError) as e:
        raise DataFormatError(f"bad config in header: {e}") from e

    def get(name: str, *shape: int, dtype=np.float32) -> np.ndarray:
        if name not in tensors:
            raise DataFormatError(f"tensor {name!r} missing from {path}")
        found = tensors[name]
        if found.shape != shape:
            raise DataFormatError(f"tensor {name!r} has shape {list(found.shape)}, expected "
                                  f"{list(shape)} from the config")
        if found.dtype != dtype:
            raise DataFormatError(f"tensor {name!r} has dtype {found.dtype}, expected "
                                  f"{np.dtype(dtype)}")
        if found.dtype.kind == "f" and not np.isfinite(found).all():
            raise DataFormatError(f"tensor {name!r} holds a value that is not finite")
        return found

    bits, gs = cfg.weight_bits, cfg.weight_group_size

    def lin(base: str, cin: int, cout: int) -> Linear:
        wq = None
        if bits < 16 and f"{base}.wq.codes" in tensors:
            groups = -(-cin // gs)
            wq = QuantizedTensor(
                kind="weight",
                codes=get(f"{base}.wq.codes", packed_size(cin * cout, bits), dtype=np.uint8),
                bits=bits,
                group_size=gs,
                h=get(f"{base}.wq.h", groups, cout),
                z=get(f"{base}.wq.z", groups, cout),
            )
        if wq is None:
            w = get(f"{base}.w", cin, cout)
        else:  # the stream stays as read; its codes are unpacked only to form w
            w = dequantize(replace(wq, codes=unpack_codes(wq.codes, bits, (cin, cout))))
        b = get(f"{base}.b", 1, cout)
        smoothing = None
        if f"{base}.smooth.s" in tensors or f"{base}.smooth.delta" in tensors:
            s = get(f"{base}.smooth.s", cout)
            if s.min() < S_FLOOR:
                raise DataFormatError(f"tensor {base + '.smooth.s'!r} has a scale below {S_FLOOR}")
            smoothing = SmoothingParams(s, get(f"{base}.smooth.delta", cout))
        return Linear(w=w, b=b, smoothing=smoothing, wq=wq)

    c, v = cfg.hidden_size, cfg.vocab_size
    blocks = []
    for li in range(cfg.n_layers):
        kw = {name: lin(f"blocks.{li}.{name}", *shape)
              for name, shape in cfg.projection_shapes().items()}
        blocks.append(
            DecoderBlockWeights(
                attn_norm=get(f"blocks.{li}.attn_norm", c),
                mlp_norm=get(f"blocks.{li}.mlp_norm", c),
                **kw,
            )
        )
    return Model(
        config=cfg,
        embed=get("embed", v, c),
        blocks=blocks,
        final_norm=get("final_norm", c),
        head=Linear(w=get("head.w", c, v), b=get("head.b", 1, v)),
    )
