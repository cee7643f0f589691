import copy
import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config, word_corpus
from kvq.calibration import CalibConfig, calibrate_model
from kvq.checkpoint import ALIGN, MAGIC, load_model, read_container, save_model, write_container
from kvq.cli import main
from kvq.errors import DataFormatError, KvqError
from kvq.evaluate import train_model
from kvq.model import (Model, ModelConfig, model_forward, quantize_model_weights,
                       spread_kv_channels)
from kvq.quantizers import dequantize, init_smoothing, pack_codes, packed_size, unpack_codes

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


class TestPackedCodes:
    """pack_codes writes b-bit codes as a little-endian bit stream, 8 codes
    to b bytes; unpack_codes reads them back."""

    SHAPES = [(16, 8), (3, 5), (1, 1), (7, 9), (0, 4)]

    @staticmethod
    def bitwise_stream(codes, bits):
        # code i's bit j is bit i * bits + j of the stream, low bit first
        stream_bits = (codes.reshape(-1, 1) >> np.arange(bits)) & 1
        stream = np.packbits(stream_bits.reshape(-1).astype(np.uint8), bitorder="little")
        return np.concatenate([stream, np.zeros(-(-codes.size // 8) * bits - stream.size,
                                                np.uint8)])

    @pytest.mark.parametrize("bits", range(2, 9))
    @pytest.mark.parametrize("fill", ["zero", "code_hi", "random"])
    def test_round_trip(self, bits, fill):
        rng = np.random.default_rng(bits)
        for shape in self.SHAPES:
            codes = {"zero": np.zeros(shape, np.uint8),
                     "code_hi": np.full(shape, 2**bits - 1, np.uint8),
                     "random": rng.integers(0, 2**bits, shape).astype(np.uint8)}[fill]
            stream = pack_codes(codes, bits)
            assert stream.dtype == np.uint8
            assert stream.shape == (math.ceil(codes.size / 8) * bits,)
            assert np.array_equal(stream, self.bitwise_stream(codes, bits)), shape
            back = unpack_codes(stream, bits, shape)
            assert back.dtype == np.uint8 and np.array_equal(back, codes), shape

    def test_layout_of_two_four_bit_codes(self):
        # the first code takes the low nibble of byte 0
        assert pack_codes(np.array([[1, 2]], np.uint8), 4).tolist() == [0x21, 0, 0, 0]

    def test_code_wider_than_its_bits_refused(self):
        with pytest.raises(KvqError, match="16 does not fit in 4 bits"):
            pack_codes(np.array([3, 16], np.uint8), 4)


class TestModelRoundtrip:
    def make(self, quantize=False, smooth=False):
        m = Model.random(tiny_config(), seed=0)
        if smooth:
            spread_kv_channels(m, 1.5, seed=0)
            for blk in m.blocks:
                x = m.embed[IDS]
                sp_k, sp_v = (init_smoothing(x @ lin.w + lin.b) for lin in (blk.k, blk.v))
                blk.k.absorb(sp_k)
                blk.v.absorb(sp_v)
        if quantize:
            quantize_model_weights(m)
            m.config = dataclasses.replace(m.config, quant_mode="weight_kv")
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
        out1 = model_forward(m, IDS).data
        out2 = model_forward(m2, IDS).data
        assert np.array_equal(out1, out2)

    def test_old_clipping_tensors_load_to_same_codes(self, tmp_path):
        # files written before the config was the one record of a setting
        # carry a meta "quant" entry (each projection's bits and group size,
        # and "absorbed" for each smoothing), and files from when checkpoints
        # also stored the mapped clipping carry .gamma/.beta tensors and a
        # quant.clipping list; loading reads none of them
        m = self.make(quantize=True, smooth=True)
        p, old = str(tmp_path / "m.kvq"), str(tmp_path / "old.kvq")
        save_model(m, p, meta={"seed": 3})
        config, meta, tensors = read_container(p)
        assert meta == {"seed": 3}
        gs = m.config.weight_group_size
        quant = {"projections": {}, "smoothing": {}, "clipping": []}
        for li, blk in enumerate(m.blocks):
            for name, lin in blk.projections().items():
                base = f"blocks.{li}.{name}"
                quant["projections"][base] = {"bits": lin.wq.bits, "group_size": gs}
                if lin.smoothing is not None:
                    quant["smoothing"][base] = {"absorbed": True}
                shape = (-(-lin.w.shape[0] // gs), lin.w.shape[1])
                tensors[f"{base}.gamma"] = np.full(shape, 0.9, np.float32)
                tensors[f"{base}.beta"] = np.full(shape, 0.8, np.float32)
                quant["clipping"].append(base)
        assert len(quant["projections"]) == 14 and len(quant["smoothing"]) == 4
        write_container(old, config, dict(meta, quant=quant), tensors)
        m1, m2 = load_model(p), load_model(old)
        assert not hasattr(m2, "clipping")
        for b1, b2 in zip(m1.blocks, m2.blocks):
            for name, lin in b1.projections().items():
                assert np.array_equal(lin.wq.codes, b2.projections()[name].wq.codes)
                assert np.array_equal(lin.w, b2.projections()[name].w)
            assert np.array_equal(b1.k.smoothing.s, b2.k.smoothing.s)
        out1 = model_forward(m1, IDS).data
        assert np.array_equal(out1, model_forward(m2, IDS).data)
        assert np.array_equal(out1, model_forward(m, IDS).data)

    def test_unpacked_codes_that_do_not_fit_rejected(self, tmp_path, capsys):
        # codes load only as the packed stream: a (C_in, C_out) matrix of one
        # code per byte, the layout of files written before codes were
        # packed, fails the shape check, which names the stream's shape,
        # whether its codes fit the projection's 4 bits or not (255 would
        # load as a weight off its grid)
        m = self.make(quantize=True, smooth=True)
        p = str(tmp_path / "m.kvq")
        save_model(m, p)
        config, meta, tensors = read_container(p)
        codes = unpack_codes(m.blocks[1].k.wq.codes, 4, (32, 32))
        assert codes.shape == (32, 32) and m.blocks[1].k.wq.bits == 4
        for code in (15, 16, 255):
            codes[0, 0] = code
            tensors["blocks.1.k.wq.codes"] = codes
            write_container(p, config, meta, tensors)
            with pytest.raises(DataFormatError, match=r"^tensor 'blocks\.1\.k\.wq\.codes' has "
                                                      r"shape \[32, 32\], expected \[512\] from "
                                                      r"the config$"):
                load_model(p)
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"the quick brown fox jumps over the lazy dog")
        assert main(["eval", "--model", p, "--corpus", str(corpus)]) == 3
        assert "'blocks.1.k.wq.codes' has shape [32, 32]" in capsys.readouterr().err

    @pytest.mark.parametrize("name, dtype", [
        ("embed", np.int32), ("blocks.0.q.w", np.int8), ("final_norm", np.int32),
        ("blocks.0.q.b", np.uint8), ("head.w", np.int32), ("blocks.1.mlp_norm", np.uint8),
        ("blocks.0.up.wq.h", np.int32), ("blocks.1.k.smooth.s", np.int32),
        ("blocks.0.v.smooth.delta", np.int8),
    ])
    def test_float_tensor_stored_as_integers_refused(self, tmp_path, name, dtype):
        # every float tensor is f32; one of the right shape stored as another
        # dtype is refused, naming it and its dtype, instead of loading as
        # integer weights
        quantize = ".wq." in name or ".smooth." in name
        p = str(tmp_path / "m.kvq")
        save_model(self.make(quantize=quantize, smooth=quantize), p)
        config, meta, tensors = read_container(p)
        tensors[name] = np.ones_like(tensors[name], dtype=dtype)
        write_container(p, config, meta, tensors)
        with pytest.raises(DataFormatError) as err:
            load_model(p)
        assert str(err.value) == f"tensor {name!r} has dtype {np.dtype(dtype)}, expected float32"

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_codes_take_the_bytes_the_analyzer_counts(self, tmp_path, bits):
        # the analyzer counts numel * bits / 8 bytes of codes per projection
        m = Model.random(ModelConfig(n_layers=1, weight_bits=bits), seed=0)
        quantize_model_weights(m)
        p = str(tmp_path / "m.kvq")
        save_model(m, p)
        _, _, tensors = read_container(p)
        codes = {n: a for n, a in tensors.items() if n.endswith(".wq.codes")}
        assert len(codes) == 7
        for name, shape in m.config.projection_shapes().items():
            numel = math.prod(shape)
            stream = codes[f"blocks.0.{name}.wq.codes"]
            assert stream.nbytes == math.ceil(numel / 8) * bits == numel * bits // 8, name
        m2 = load_model(p)
        for name, lin in m.blocks[0].projections().items():
            assert np.array_equal(lin.wq.codes, m2.blocks[0].projections()[name].wq.codes)

    @pytest.mark.parametrize("field, value, tensor", [
        ("weight_bits", 3, "blocks.0.q.wq.codes"), ("weight_group_size", 32, "blocks.0.q.wq.h"),
    ])
    def test_config_edited_off_its_codes_refused(self, tmp_path, field, value, tensor):
        # codes are read at the config's width and groups, so an edit of
        # either (4 -> 3 bits, 16 -> 32 rows a group) is refused naming the
        # first stream whose shape it no longer describes
        p = str(tmp_path / "m.kvq")
        save_model(self.make(quantize=True), p)
        config, meta, tensors = read_container(p)
        assert (config["weight_bits"], config["weight_group_size"]) == (4, 16)
        write_container(p, dict(config, **{field: value}), meta, tensors)
        with pytest.raises(DataFormatError, match=rf"^tensor '{tensor}' has shape "):
            load_model(p)

    @pytest.mark.parametrize("bits", [True, "4", 0, 1, 9, 16, 4.0, None])
    def test_bad_weight_bits_refused(self, tmp_path, bits):
        # the config's weight bits decide how every projection's codes are
        # read, so they must be an integer in 2..8, or 16, where a projection
        # is read from its .w, which a file of codes lacks
        p = str(tmp_path / "m.kvq")
        save_model(self.make(quantize=True), p)
        config, meta, tensors = read_container(p)
        write_container(p, dict(config, weight_bits=bits), meta, tensors)
        message = (r"^tensor 'blocks\.0\.q\.w' missing from " if bits == 16 else
                   r"^bad config in header: weight_bits must be 2\.\.8 or 16")
        with pytest.raises(DataFormatError, match=message):
            load_model(p)

    @pytest.mark.parametrize("missing", ["delta", "s"])
    def test_half_a_smoothing_refused(self, tmp_path, missing):
        # a projection is smoothed when either tensor is stored, and then
        # needs both
        p = str(tmp_path / "m.kvq")
        save_model(self.make(quantize=True, smooth=True), p)
        config, meta, tensors = read_container(p)
        del tensors[f"blocks.1.v.smooth.{missing}"]
        write_container(p, config, meta, tensors)
        with pytest.raises(DataFormatError,
                           match=rf"^tensor 'blocks\.1\.v\.smooth\.{missing}' missing from "):
            load_model(p)

    def test_weight_only_header_loads_as_fp(self, tmp_path):
        # "weight_only", the former name of the paper's W4 setting, ran
        # exactly as fp: a file whose config names it loads as fp over its
        # codes, to the model saved
        m = self.make(quantize=True)
        p = str(tmp_path / "m.kvq")
        save_model(m, p)
        config, meta, tensors = read_container(p)
        write_container(p, {**config, "quant_mode": "weight_only"}, meta, tensors)
        loaded = load_model(p)
        assert loaded.config.quant_mode == "fp"
        m.config = dataclasses.replace(m.config, quant_mode="fp")
        assert np.array_equal(model_forward(m, IDS).data, model_forward(loaded, IDS).data)
        for b1, b2 in zip(m.blocks, loaded.blocks):
            for name, lin in b1.projections().items():
                assert np.array_equal(lin.wq.codes, b2.projections()[name].wq.codes), name

    def test_meta_is_not_read(self, tmp_path):
        # the header's meta is the caller's: whatever it holds, the file
        # loads to the model saved
        m = self.make(quantize=True, smooth=True)
        p = str(tmp_path / "m.kvq")
        save_model(m, p)
        config, meta, tensors = read_container(p)
        assert meta == {}
        write_container(p, config, {"quant": [], "smoothing": 7}, tensors)
        assert np.array_equal(model_forward(m, IDS).data, model_forward(load_model(p), IDS).data)

    def test_codes_of_another_dtype_refused(self, tmp_path):
        p = str(tmp_path / "m.kvq")
        save_model(self.make(quantize=True), p)
        config, meta, tensors = read_container(p)
        tensors["blocks.0.q.wq.codes"] = tensors["blocks.0.q.wq.codes"].view(np.int8)
        write_container(p, config, meta, tensors)
        with pytest.raises(DataFormatError, match="'blocks.0.q.wq.codes' has dtype int8"):
            load_model(p)

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
            m.config = dataclasses.replace(m.config, weight_bits=16)
            calibrate_model(m, word_corpus(0), CalibConfig(k=1, epochs=1, segments=2,
                                                           seg_len=16))
            assert all(b.k.smoothing is not None and b.v.smoothing is not None
                       for b in m.blocks)
            # q, o, gate, up and down keep their 4-bit codes, which a 16-bit
            # config cannot read, so they are stored as their w
            assert all(b.q.wq is not None and b.q.wq.bits == 4 for b in m.blocks)
        else:
            x = m.embed[IDS]
            for blk in m.blocks:
                sp_k, sp_v = (init_smoothing(x @ lin.w + lin.b) for lin in (blk.k, blk.v))
                blk.k.absorb(sp_k)
                blk.v.absorb(sp_v)
        p = str(tmp_path / "m.kvq")
        save_model(m, p)
        m2 = load_model(p)
        for b1, b2 in zip(m.blocks, m2.blocks):
            assert b2.k.wq is None and b2.v.wq is None
            if rewrite == "calibrate16":
                assert all(lin.wq is None for lin in b2.projections().values())
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
        # a field of the wrong type or out of range fails at load, naming the
        # field, not at first use (or never); the rest of the file is sound
        good = str(tmp_path / "good.kvq")
        save_model(self.make(), good)
        config, meta, tensors = read_container(good)
        faults = [("n_layers", 2.5), ("max_seq_len", 8.5), ("n_layers", 0), ("n_layers", -1),
                  ("n_heads", True), ("intermediate_size", "48"), ("vocab_size", None),
                  ("hidden_size", 32.0), ("kv_group_size", 0), ("weight_group_size", -16),
                  ("kv_bits", 4.5), ("weight_bits", False), ("rope_base", 0.0),
                  ("rope_base", -1.0), ("rope_base", math.inf), ("rope_base", math.nan),
                  ("rope_base", "1e4"), ("rope_base", True), ("poq", "yes"), ("poq", 1)]
        for field, value in faults:
            write_container(p, dict(config, **{field: value}), meta, tensors)
            with pytest.raises(DataFormatError, match=f"bad config in header: {field}"):
                load_model(p)
        # an odd head_dim, even where the widths agree
        write_container(p, dict(config, hidden_size=30, n_heads=2, head_dim=15), meta, tensors)
        with pytest.raises(DataFormatError, match="head_dim must be even"):
            load_model(p)
        # integers of numpy's types and an integral rope_base are taken as they are
        assert load_model(good).config == ModelConfig(**dict(
            config, n_layers=np.int64(2), kv_group_size=np.int32(8), rope_base=10000))


class TestCodesAsStored:
    """A quantized projection holds its codes as the checkpoint's stream."""

    @pytest.mark.parametrize("bits", [4, 3])
    def test_calibrated_and_loaded_projections_hold_the_stream(self, tmp_path, bits):
        # the stream's packed_size bytes, not one code per byte; w is the
        # stream's dequantization bit for bit, and save -> load -> save
        # writes the same bytes
        m = Model.random(tiny_config(weight_bits=bits), seed=6)
        spread_kv_channels(m, 1.5, seed=6)
        calibrate_model(m, word_corpus(6), CalibConfig(k=1, epochs=1, segments=2, seg_len=16))
        first, second = str(tmp_path / "a.kvq"), str(tmp_path / "b.kvq")
        save_model(m, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert Path(first).read_bytes() == Path(second).read_bytes()
        _, _, tensors = read_container(first)
        for model in (m, loaded):
            for li, blk in enumerate(model.blocks):
                for name, lin in blk.projections().items():
                    c_in, c_out = lin.w.shape
                    assert lin.wq.codes.dtype == np.uint8
                    assert lin.wq.codes.nbytes == packed_size(c_in * c_out, bits), name
                    assert np.array_equal(lin.wq.codes, tensors[f"blocks.{li}.{name}.wq.codes"])
                    codes = unpack_codes(lin.wq.codes, bits, (c_in, c_out))
                    stream_w = dequantize(dataclasses.replace(lin.wq, codes=codes))
                    assert np.array_equal(lin.w, stream_w), name
        assert np.array_equal(model_forward(m, IDS).data, model_forward(loaded, IDS).data)
