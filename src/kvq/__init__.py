"""Post-training quantization toolkit for small decoder-only transformers:
channel-smoothed + per-token-grouped KV-cache quantization with a past-only
quantized cache, round-to-nearest group-wise weight quantization,
cross-block reconstruction calibration of the KV smoothing, and an
analytical deployment-memory model.

Set KVQ_THREADS to pin the BLAS thread count: importing kvq, as a library
too, sets every BLAS thread variable of the process to it, over inherited
values (its child processes inherit them).  That takes effect when numpy is
not loaded yet, as in the kvq command.
"""

import os

_threads = os.environ.get("KVQ_THREADS")
if _threads:
    for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[_var] = _threads
    del _var
del os, _threads

from .errors import (
    AccountingError,
    CapacityError,
    DataFormatError,
    DegenerateScaleError,
    DimensionError,
    KvqError,
    NumericError,
    UsageError,
)
from .tensor import Tensor
from .quantizers import (
    QuantizedTensor,
    SmoothingParams,
    TokenQuantSpec,
    WeightQuantSpec,
    dequantize,
    fake_quant_token,
    fake_quant_weight,
    init_smoothing,
    quantize_token,
    quantize_weight,
)
from .model import (
    Model,
    ModelConfig,
    PoqKvCache,
    decode_step,
    generate,
    model_forward,
    prefill,
    quantize_model_weights,
)
from .calibration import CalibConfig, calibrate_model
from .analyzer import ArchSpec, DeployConfig, estimate_decode_time, estimate_memory
from .checkpoint import load_model, read_container, save_model, write_container
from .evaluate import eval_report, load_corpus, perplexity, train_model

__version__ = "0.1.0"

__all__ = [
    "AccountingError",
    "ArchSpec",
    "CalibConfig",
    "CapacityError",
    "DataFormatError",
    "DegenerateScaleError",
    "DeployConfig",
    "DimensionError",
    "KvqError",
    "Model",
    "ModelConfig",
    "NumericError",
    "PoqKvCache",
    "QuantizedTensor",
    "SmoothingParams",
    "Tensor",
    "TokenQuantSpec",
    "UsageError",
    "WeightQuantSpec",
    "calibrate_model",
    "decode_step",
    "dequantize",
    "estimate_decode_time",
    "estimate_memory",
    "eval_report",
    "fake_quant_token",
    "fake_quant_weight",
    "generate",
    "init_smoothing",
    "load_corpus",
    "load_model",
    "model_forward",
    "perplexity",
    "prefill",
    "quantize_model_weights",
    "quantize_token",
    "quantize_weight",
    "read_container",
    "save_model",
    "train_model",
    "write_container",
]
