import copy
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config, word_corpus
from kvq.calibration import CalibConfig, calibrate_model
from kvq.checkpoint import (
    ALIGN,
    MAGIC,
    load_model,
    read_container,
    save_model,
    write_container,
)
from kvq.errors import DataFormatError
from kvq.evaluate import train_model
from kvq.model import Model, model_forward, quantize_model_weights, spread_kv_channels
from kvq.quantizers import init_smoothing
from kvq.model import attach_kv_smoothing

IDS = np.arange(20) % 250


class TestContainer:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.kvq")
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.normal(size=(3, 4)).astype(np.float32),
            "b": rng.integers(-8, 8, (5,)).astype(np.int8),
            "c": rng.integers(0, 16, (2, 2)).astype(np.uint8),
            "d": np.arange(6, dtype=np.int32),
        }
        write_container(path, {"x": 1}, {"y": [1, 2]}, tensors)
        config, meta, out = read_container(path)
        assert config == {"x": 1} and meta == {"y": [1, 2]}
        for name, arr in tensors.items():
            assert np.array_equal(out[name], arr)
            assert out[name].dtype == arr.dtype

    def test_payload_alignment(self, tmp_path):
        path = str(tmp_path / "t.kvq")
        write_container(path, {}, {}, {"a": np.zeros(3, np.float32),
                                       "b": np.zeros(5, np.float32)})
        data = Path(path).read_bytes()
        (hlen,) = struct.unpack("<Q", data[4:12])
        header = json.loads(data[12 : 12 + hlen])
        for ent in header["tensors"].values():
            assert ent["offset"] % ALIGN == 0

    def test_magic(self, tmp_path):
        path = str(tmp_path / "t.kvq")
        write_container(path, {}, {}, {})
        assert Path(path).read_bytes()[:4] == MAGIC

    def test_write_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.kvq"), str(tmp_path / "b.kvq")
        tensors = {"x": np.arange(7, dtype=np.float32)}
        write_container(a, {"k": 1}, {}, tensors)
        write_container(b, {"k": 1}, {}, tensors)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_container(str(tmp_path / "t.kvq"), {}, {}, {"x": np.zeros(2, np.float64)})


class TestMalformedFiles:
    def _write_good(self, path):
        write_container(path, {"v": 1}, {}, {"x": np.arange(4, dtype=np.float32)})
        return Path(path).read_bytes()

    def test_bad_magic(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        data = self._write_good(p)
        Path(p).write_bytes(b"XXXX" + data[4:])
        with pytest.raises(DataFormatError, match="byte 0"):
            read_container(p)

    def test_header_length_past_eof(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        data = self._write_good(p)
        Path(p).write_bytes(data[:4] + struct.pack("<Q", 10**9) + data[12:])
        with pytest.raises(DataFormatError, match="header length"):
            read_container(p)

    def test_malformed_json(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        data = self._write_good(p)
        (hlen,) = struct.unpack("<Q", data[4:12])
        Path(p).write_bytes(data[:12] + b"{" * hlen + data[12 + hlen :])
        with pytest.raises(DataFormatError, match="JSON"):
            read_container(p)

    def test_tensor_past_eof(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        data = self._write_good(p)
        Path(p).write_bytes(data[:-8])
        with pytest.raises(DataFormatError, match="past end of file"):
            read_container(p)

    def test_overlapping_tensors(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        write_container(p, {}, {}, {"x": np.arange(4, dtype=np.float32),
                                    "y": np.arange(4, dtype=np.float32)})
        data = Path(p).read_bytes()
        (hlen,) = struct.unpack("<Q", data[4:12])
        header = json.loads(data[12 : 12 + hlen])
        header["tensors"]["y"]["offset"] = header["tensors"]["x"]["offset"] + 4
        hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        # same header length required for the payload offsets to stay valid
        hjson = hjson + b" " * (hlen - len(hjson))
        Path(p).write_bytes(data[:12] + hjson + data[12 + hlen :])
        with pytest.raises(DataFormatError, match="overlap"):
            read_container(p)

    def test_truncated_file(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        Path(p).write_bytes(b"KVQ1\x05")
        with pytest.raises(DataFormatError):
            read_container(p)

    def _edit_header(self, path, edit):
        """Rewrite the header as edit(header) returns it, keeping the payload
        bytes (table offsets are relative to the payload's start)."""
        data = Path(path).read_bytes()
        (hlen,) = struct.unpack("<Q", data[4:12])
        header = json.loads(data[12 : 12 + hlen])
        payload = data[-(-(12 + hlen) // ALIGN) * ALIGN :]
        hjson = json.dumps(edit(header)).encode()
        pad = -(-(12 + len(hjson)) // ALIGN) * ALIGN - 12 - len(hjson)
        Path(path).write_bytes(MAGIC + struct.pack("<Q", len(hjson)) + hjson + b"\0" * pad
                               + payload)

    def _edit_table(self, path, edit):
        """Rewrite the header after edit(tensor table) changes it in place."""

        def edit_header(header):
            edit(header["tensors"])
            return header

        self._edit_header(path, edit_header)

    def _write_matrix(self, path):
        write_container(path, {}, {}, {"x": np.arange(6, dtype=np.float32).reshape(2, 3)})

    def test_table_edit_keeps_a_good_file_readable(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        self._write_matrix(p)
        self._edit_table(p, lambda table: None)
        assert np.array_equal(read_container(p)[2]["x"], np.arange(6).reshape(2, 3))

    def test_nbytes_disagreeing_with_shape(self, tmp_path):
        # a larger shape with the original nbytes asks for bytes the entry lacks
        p = str(tmp_path / "t.kvq")
        self._write_matrix(p)
        self._edit_table(p, lambda table: table["x"].update(shape=[4, 3]))
        with pytest.raises(DataFormatError, match=r"'x' has nbytes 24, expected 48"):
            read_container(p)

    def test_negative_shape_entry(self, tmp_path):
        # [-2, -3] has the right element count and nbytes
        p = str(tmp_path / "t.kvq")
        self._write_matrix(p)
        self._edit_table(p, lambda table: table["x"].update(shape=[-2, -3]))
        with pytest.raises(DataFormatError, match=r"'x' has shape \[-2, -3\]"):
            read_container(p)

    def test_negative_offset(self, tmp_path):
        # the bytes before the payload are the header's
        p = str(tmp_path / "t.kvq")
        self._write_matrix(p)
        self._edit_table(p, lambda table: table["x"].update(offset=-64))
        with pytest.raises(DataFormatError, match=r"'x' has offset -64"):
            read_container(p)


    @pytest.mark.parametrize("field", ["nbytes", "dtype", "offset", "shape"])
    def test_entry_without_field(self, tmp_path, field):
        p = str(tmp_path / "t.kvq")
        self._write_matrix(p)
        self._edit_table(p, lambda table: table["x"].pop(field))
        with pytest.raises(DataFormatError, match=f"'x' has no {field} in its entry"):
            read_container(p)

    def test_shape_that_is_a_number(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        self._write_matrix(p)
        self._edit_table(p, lambda table: table["x"].update(shape=6))
        with pytest.raises(DataFormatError, match=r"'x' has shape 6: it must be a list"):
            read_container(p)

    def test_true_is_not_a_shape_entry(self, tmp_path):
        # isinstance(True, int) holds, and [2, 3, true] has the right size
        p = str(tmp_path / "t.kvq")
        self._write_matrix(p)
        self._edit_table(p, lambda table: table["x"].update(shape=[2, 3, True]))
        with pytest.raises(DataFormatError, match=r"'x' has shape \[2, 3, True\]"):
            read_container(p)

    def test_entry_that_is_not_an_object(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        self._write_matrix(p)
        self._edit_table(p, lambda table: table.update(x=[0, 24]))
        with pytest.raises(DataFormatError, match="'x' has a table entry that is not an object"):
            read_container(p)

    def test_unhashable_dtype(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        self._write_matrix(p)
        self._edit_table(p, lambda table: table["x"].update(dtype=["f32"]))
        with pytest.raises(DataFormatError, match=r"'x' has unknown dtype \['f32'\]"):
            read_container(p)

    def test_table_that_is_a_list(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        self._write_matrix(p)
        self._edit_header(p, lambda header: dict(header, tensors=list(header["tensors"].values())))
        with pytest.raises(DataFormatError, match="header 'tensors' is a JSON list"):
            read_container(p)

    def test_header_that_is_a_list(self, tmp_path):
        p = str(tmp_path / "t.kvq")
        self._write_matrix(p)
        self._edit_header(p, lambda header: [header])
        with pytest.raises(DataFormatError, match="header is a JSON list"):
            read_container(p)


class TestModelRoundtrip:
    def make(self, quantize=False, smooth=False):
        m = Model.random(tiny_config(), seed=0)
        if smooth:
            spread_kv_channels(m, 1.5, seed=0)
            per_layer = []
            for blk in m.blocks:
                x = m.embed[IDS]
                per_layer.append(
                    (init_smoothing(x @ blk.k.w + blk.k.b), init_smoothing(x @ blk.v.w + blk.v.b))
                )
            attach_kv_smoothing(m, per_layer)
        if quantize:
            quantize_model_weights(m)
            m.config.quant_mode = "weight_kv"
        return m

    def test_fp_roundtrip_bit_exact(self, tmp_path):
        m = self.make()
        p = str(tmp_path / "m.kvq")
        save_model(m, p)
        m2 = load_model(p)
        assert np.array_equal(model_forward(m, IDS).data, model_forward(m2, IDS).data)

    def test_quantized_roundtrip_preserves_everything(self, tmp_path):
        m = self.make(quantize=True, smooth=True)
        p = str(tmp_path / "m.kvq")
        save_model(m, p)
        # a quantized projection is stored as its codes only
        _, _, tensors = read_container(p)
        assert "blocks.0.q.wq.codes" in tensors
        assert not [n for n in tensors if n.startswith("blocks.") and n.endswith(".w")]
        m2 = load_model(p)
        assert m2.config.quant_mode == "weight_kv"
        for b1, b2 in zip(m.blocks, m2.blocks):
            for name, lin in b1.projections().items():
                assert np.array_equal(lin.w, b2.projections()[name].w)
            assert np.array_equal(b1.q.wq.codes, b2.q.wq.codes)
            assert np.array_equal(b1.q.wq.h, b2.q.wq.h)
            assert np.array_equal(b1.v.smoothing.s, b2.v.smoothing.s)
            assert b2.v.smoothing.absorbed
        out1 = model_forward(m, IDS).data
        out2 = model_forward(m2, IDS).data
        assert np.array_equal(out1, out2)

    def test_old_clipping_tensors_load_to_same_codes(self, tmp_path):
        # files from when checkpoints also stored the mapped clipping carry
        # .gamma/.beta tensors and a quant.clipping list; loading ignores them
        m = self.make(quantize=True)
        p, old = str(tmp_path / "m.kvq"), str(tmp_path / "old.kvq")
        save_model(m, p)
        config, meta, tensors = read_container(p)
        gs = m.config.weight_group_size
        for li, blk in enumerate(m.blocks):
            for name, lin in blk.projections().items():
                base = f"blocks.{li}.{name}"
                shape = (-(-lin.w.shape[0] // gs), lin.w.shape[1])
                tensors[f"{base}.gamma"] = np.full(shape, 0.9, np.float32)
                tensors[f"{base}.beta"] = np.full(shape, 0.8, np.float32)
                meta["quant"].setdefault("clipping", []).append(base)
        write_container(old, config, meta, tensors)
        m1, m2 = load_model(p), load_model(old)
        assert not hasattr(m2, "clipping")
        for b1, b2 in zip(m1.blocks, m2.blocks):
            for name, lin in b1.projections().items():
                assert np.array_equal(lin.wq.codes, b2.projections()[name].wq.codes)
                assert np.array_equal(lin.w, b2.projections()[name].w)
        out1 = model_forward(m1, IDS).data
        assert np.array_equal(out1, model_forward(m2, IDS).data)

    @pytest.mark.parametrize("rewrite", ["train", "spread", "smooth", "calibrate16"])
    def test_rewritten_quantized_model_saves_new_weights(self, tmp_path, rewrite):
        # a writer that moves w off its codes drops them, so w is what is saved
        m = self.make(quantize=True)
        if rewrite == "train":
            train_model(m, word_corpus(0), steps=2, batch=1, seq_len=16)
        elif rewrite == "spread":
            spread_kv_channels(m, 1.5, seed=0)
        elif rewrite == "calibrate16":
            # kvq quantize --mode w4kv4, then kvq calibrate --bits 16: the
            # smoothing is absorbed but no new codes are made
            m.config.weight_bits = 16
            calibrate_model(m, word_corpus(0), CalibConfig(k=1, epochs=1, segments=2,
                                                           seg_len=16))
            assert all(b.k.smoothing is not None and b.v.smoothing is not None
                       for b in m.blocks)
        else:
            x = m.embed[IDS]
            attach_kv_smoothing(m, [(init_smoothing(x @ blk.k.w + blk.k.b),
                                     init_smoothing(x @ blk.v.w + blk.v.b))
                                    for blk in m.blocks])
        p = str(tmp_path / "m.kvq")
        save_model(m, p)
        m2 = load_model(p)
        for b1, b2 in zip(m.blocks, m2.blocks):
            assert b2.k.wq is None and b2.v.wq is None
            for name, lin in b1.projections().items():
                assert np.array_equal(lin.w, b2.projections()[name].w)
        assert np.array_equal(model_forward(m, IDS).data, model_forward(m2, IDS).data)

    def test_save_deterministic(self, tmp_path):
        m = self.make(quantize=True)
        a, b = str(tmp_path / "a.kvq"), str(tmp_path / "b.kvq")
        save_model(m, a)
        save_model(copy.deepcopy(m), b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize("name", [
        "embed", "final_norm", "head.w", "head.b", "blocks.0.attn_norm", "blocks.1.mlp_norm",
        "blocks.0.q.w", "blocks.1.down.w", "blocks.0.gate.b", "blocks.1.k.wq.codes",
        "blocks.0.up.wq.h", "blocks.0.o.wq.z", "blocks.1.k.smooth.s", "blocks.0.v.smooth.delta",
    ])
    def test_tensor_shape_disagreeing_with_config(self, tmp_path, name):
        quantize = ".wq." in name or ".smooth." in name
        p = str(tmp_path / "m.kvq")
        save_model(self.make(quantize=quantize, smooth=quantize), p)
        config, meta, tensors = read_container(p)
        good = tensors[name].shape
        tensors[name] = tensors[name][:-1]
        bad = tensors[name].shape
        write_container(p, config, meta, tensors)
        with pytest.raises(DataFormatError) as err:
            load_model(p)
        assert str(err.value) == (f"tensor {name!r} has shape {list(bad)}, expected "
                                  f"{list(good)} from the config")

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1e-7, np.nan, np.inf])
    def test_smoothing_scale_out_of_range(self, tmp_path, bad):
        # a decode step divides by s, so a file's s must be finite and >= S_FLOOR
        p = str(tmp_path / "m.kvq")
        save_model(self.make(quantize=True, smooth=True), p)
        config, meta, tensors = read_container(p)
        tensors["blocks.1.k.smooth.s"][3] = bad
        write_container(p, config, meta, tensors)
        with pytest.raises(DataFormatError, match=r"'blocks\.1\.k\.smooth\.s'"):
            load_model(p)

    def test_bad_config_rejected(self, tmp_path):
        p = str(tmp_path / "m.kvq")
        write_container(p, {"bogus_field": 1}, {}, {})
        with pytest.raises(DataFormatError, match="config"):
            load_model(p)
