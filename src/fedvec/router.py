"""Per-shard relevance router: a small MLP trained from scratch in numpy.

Architecture (fixed): affine -> LayerNorm -> ReLU -> Dropout, twice
(widths 256 then 128), then an affine head producing one raw logit.
Training is SGD with momentum under a triangular cyclic learning rate,
minimizing binary cross-entropy with logits and a positive-class weight.
All math is float64 and fully deterministic under the config seed.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .datasets import SplitSpec, split_by_query
from .features import ScalerParams, feature_dim, fit_scaler, transform
from .rng import substream

HIDDEN1 = 256
HIDDEN2 = 128
LN_EPS = 1e-5
# Value of the normalizer on a variance-floored row; used to detect clamping.
_INV_AT_FLOOR = 1.0 / math.sqrt(LN_EPS)


class ModelFormatError(Exception):
    """Unreadable, corrupted, or wrong-version model file."""


@dataclass
class RouterParams:
    """Learnable arrays. ln_g*/ln_b* are the LayerNorm gain and bias."""

    w1: np.ndarray
    b1: np.ndarray
    ln_g1: np.ndarray
    ln_b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln_g2: np.ndarray
    ln_b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def copy(self) -> "RouterParams":
        return RouterParams(**{f.name: getattr(self, f.name).copy() for f in fields(self)})


_PARAM_ORDER = ("w1", "b1", "ln_g1", "ln_b1", "w2", "b2", "ln_g2", "ln_b2", "w3", "b3")


@dataclass(frozen=True)
class RouterModel:
    params: RouterParams
    scaler: ScalerParams
    dropout_rate: float
    threshold: float
    seed: int

    @property
    def input_dim(self) -> int:
        return self.params.w1.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    lr_min: float = 1e-3
    lr_max: float = 5e-3
    cycle_length: int | None = None  # half-cycle in steps; None = 2 epochs' worth
    epochs: int = 50
    batch_size: int = 128
    pos_weight: float | None = None  # None = train-split negatives/positives
    dropout_rate: float = 0.2
    momentum: float = 0.9
    seed: int = 0


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float
    lr_start: float
    lr_end: float


@dataclass(frozen=True)
class TrainResult:
    model: RouterModel
    history: list[EpochStats]
    best_epoch: int


def init_params(input_dim: int, rng: np.random.Generator) -> RouterParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, unit gains."""
    if input_dim < 1:
        raise ValueError("input_dim must be positive")

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return RouterParams(
        w1=glorot(input_dim, HIDDEN1),
        b1=np.zeros(HIDDEN1),
        ln_g1=np.ones(HIDDEN1),
        ln_b1=np.zeros(HIDDEN1),
        w2=glorot(HIDDEN1, HIDDEN2),
        b2=np.zeros(HIDDEN2),
        ln_g2=np.ones(HIDDEN2),
        ln_b2=np.zeros(HIDDEN2),
        w3=glorot(HIDDEN2, 1),
        b3=np.zeros(1),
    )


def _layer_norm(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise normalization; returns (xhat, 1/sqrt(max(var, eps)))."""
    mu = a.mean(axis=1, keepdims=True)
    var = a.var(axis=1, keepdims=True)
    # eps floors the variance instead of shifting it: any row with var >= eps
    # normalizes to variance exactly 1 rather than var/(var+eps), and rows
    # with var < eps (constant or nearly so) stay finite.
    inv = 1.0 / np.sqrt(np.maximum(var, LN_EPS))
    return (a - mu) * inv, inv


def _dropout_mask(
    shape: tuple[int, int], rate: float, rng: np.random.Generator
) -> np.ndarray:
    # Inverted dropout: surviving units scaled by 1/(1-rate) so eval is identity.
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


@dataclass
class ForwardCache:
    """Every intermediate the backward pass (and the LN invariant tests) needs."""

    x: np.ndarray
    a1: np.ndarray
    xh1: np.ndarray
    inv1: np.ndarray
    n1: np.ndarray
    m1: np.ndarray | None
    h1: np.ndarray
    a2: np.ndarray
    xh2: np.ndarray
    inv2: np.ndarray
    n2: np.ndarray
    m2: np.ndarray | None
    h2: np.ndarray
    logits: np.ndarray


def forward_cache(
    params: RouterParams,
    x: np.ndarray,
    *,
    dropout_rate: float = 0.0,
    train: bool = False,
    rng: np.random.Generator | None = None,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> ForwardCache:
    """Full forward pass over standardized rows x (b, f), keeping intermediates.

    In train mode with dropout_rate > 0, masks come from `masks` if given
    (gradient checking needs them pinned) or are drawn from `rng`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.w1.shape[0]:
        raise ValueError(f"expected (b, {params.w1.shape[0]}) input, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")

    use_dropout = train and dropout_rate > 0.0
    if use_dropout and masks is None:
        if rng is None:
            raise ValueError("train-mode dropout needs an rng or explicit masks")
        b = x.shape[0]
        masks = (
            _dropout_mask((b, HIDDEN1), dropout_rate, rng),
            _dropout_mask((b, HIDDEN2), dropout_rate, rng),
        )

    a1 = x @ params.w1 + params.b1
    xh1, inv1 = _layer_norm(a1)
    n1 = params.ln_g1 * xh1 + params.ln_b1
    r1 = np.maximum(n1, 0.0)
    m1 = masks[0] if use_dropout else None
    h1 = r1 * m1 if use_dropout else r1

    a2 = h1 @ params.w2 + params.b2
    xh2, inv2 = _layer_norm(a2)
    n2 = params.ln_g2 * xh2 + params.ln_b2
    r2 = np.maximum(n2, 0.0)
    m2 = masks[1] if use_dropout else None
    h2 = r2 * m2 if use_dropout else r2

    logits = (h2 @ params.w3 + params.b3)[:, 0]
    return ForwardCache(x, a1, xh1, inv1, n1, m1, h1, a2, xh2, inv2, n2, m2, h2, logits)


def forward(
    params: RouterParams,
    x: np.ndarray,
    *,
    dropout_rate: float = 0.0,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Logits for rows x (b, f). Eval mode is deterministic (dropout = identity)."""
    return forward_cache(params, x, dropout_rate=dropout_rate, train=train, rng=rng).logits


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_with_logits(
    logits: np.ndarray, labels: np.ndarray, pos_weight: float = 1.0
) -> float:
    """Mean weighted binary cross-entropy straight from logits.

    Uses softplus(x) = logaddexp(0, x) throughout, so extreme logits give
    finite loss instead of log(0).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape:
        raise ValueError("logits/labels shape mismatch")
    per = pos_weight * labels * np.logaddexp(0.0, -logits) + (1.0 - labels) * np.logaddexp(
        0.0, logits
    )
    return float(per.mean())


def _loss_grad_logits(
    logits: np.ndarray, labels: np.ndarray, pos_weight: float
) -> np.ndarray:
    # d/dz of the mean loss: ((1-y)*sigma(z) - pw*y*sigma(-z)) / b
    return ((1.0 - labels) * _sigmoid(logits) - pos_weight * labels * _sigmoid(-logits)) / (
        logits.shape[0]
    )


def _layer_norm_backward(
    dxh: np.ndarray, xh: np.ndarray, inv: np.ndarray
) -> np.ndarray:
    # d/da for xh = (a - mean(a)) * inv, population variance per row. The
    # variance term flows only where the floor is inactive; on clamped rows
    # inv is a constant w.r.t. a. inv == _INV_AT_FLOOR is exact there because
    # both sides round the same double the same way.
    live = inv < _INV_AT_FLOOR
    return inv * (
        dxh
        - dxh.mean(axis=1, keepdims=True)
        - live * xh * (dxh * xh).mean(axis=1, keepdims=True)
    )


def backward(
    params: RouterParams,
    cache: ForwardCache,
    labels: np.ndarray,
    pos_weight: float = 1.0,
) -> RouterParams:
    """Exact gradients of the mean loss w.r.t. every parameter array."""
    labels = np.asarray(labels, dtype=np.float64)
    dz = _loss_grad_logits(cache.logits, labels, pos_weight)[:, None]  # (b, 1)

    dw3 = cache.h2.T @ dz
    db3 = dz.sum(axis=0)
    dh2 = dz @ params.w3.T

    dr2 = dh2 * cache.m2 if cache.m2 is not None else dh2
    dn2 = dr2 * (cache.n2 > 0.0)
    dg2 = (dn2 * cache.xh2).sum(axis=0)
    dlnb2 = dn2.sum(axis=0)
    da2 = _layer_norm_backward(dn2 * params.ln_g2, cache.xh2, cache.inv2)

    dw2 = cache.h1.T @ da2
    db2 = da2.sum(axis=0)
    dh1 = da2 @ params.w2.T

    dr1 = dh1 * cache.m1 if cache.m1 is not None else dh1
    dn1 = dr1 * (cache.n1 > 0.0)
    dg1 = (dn1 * cache.xh1).sum(axis=0)
    dlnb1 = dn1.sum(axis=0)
    da1 = _layer_norm_backward(dn1 * params.ln_g1, cache.xh1, cache.inv1)

    dw1 = cache.x.T @ da1
    db1 = da1.sum(axis=0)

    return RouterParams(dw1, db1, dg1, dlnb1, dw2, db2, dg2, dlnb2, dw3, db3)


def cyclic_lr(step: int, lr_min: float, lr_max: float, half_cycle: int) -> float:
    """Triangular schedule: lr_min at step 0, lr_max at `half_cycle`, back down."""
    cycle = math.floor(1 + step / (2 * half_cycle))
    x = abs(step / half_cycle - 2 * cycle + 1)
    return lr_min + (lr_max - lr_min) * max(0.0, 1.0 - x)


def train(
    features: np.ndarray,
    labels: np.ndarray,
    query_ids: np.ndarray,
    split: SplitSpec,
    config: TrainConfig,
) -> TrainResult:
    """Train on the split's train questions, checkpointing on val accuracy.

    Row i is raw feature row features[i] (n, f) of question query_ids[i],
    labelled labels[i] (1 iff the shard holds part of the global top-k).
    The scaler and the default pos_weight are fit on the training split only.
    The returned model is the epoch checkpoint with the highest validation
    accuracy at threshold 0.5 (earliest epoch wins ties).
    """
    x_raw = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    qids = np.asarray(query_ids, dtype=np.int64)
    if x_raw.ndim != 2 or x_raw.shape[0] == 0:
        raise ValueError("no training examples")
    if config.epochs < 1 or config.batch_size < 1:
        raise ValueError("epochs and batch_size must be positive")
    if not 0.0 <= config.dropout_rate < 1.0:
        raise ValueError("dropout_rate must be in [0, 1)")
    if not 0.0 < config.lr_min <= config.lr_max:
        raise ValueError("need 0 < lr_min <= lr_max")

    train_q, val_q, _ = split_by_query(qids, split)
    in_train = np.isin(qids, sorted(train_q))
    in_val = np.isin(qids, sorted(val_q))
    if not in_val.any():
        raise ValueError("validation split is empty")
    y_tr = y[in_train]
    if y_tr.min() == y_tr.max():
        raise ValueError("training split has a single class")

    scaler = fit_scaler(x_raw[in_train])
    x_tr = transform(scaler, x_raw[in_train])
    x_val = transform(scaler, x_raw[in_val])
    y_val = y[in_val]

    n_pos = int(y_tr.sum())
    pos_weight = (
        config.pos_weight
        if config.pos_weight is not None
        else (y_tr.shape[0] - n_pos) / n_pos
    )

    params = init_params(x_tr.shape[1], substream(config.seed, "init"))
    shuffle_rng = substream(config.seed, "shuffle")
    dropout_rng = substream(config.seed, "dropout")
    velocity = {name: np.zeros_like(getattr(params, name)) for name in _PARAM_ORDER}

    n_tr = x_tr.shape[0]
    steps_per_epoch = math.ceil(n_tr / config.batch_size)
    half_cycle = config.cycle_length or 2 * steps_per_epoch

    history: list[EpochStats] = []
    best_acc = -1.0
    best_epoch = 0
    best_params = params.copy()
    step = 0

    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(n_tr)
        lr_start = cyclic_lr(step, config.lr_min, config.lr_max, half_cycle)
        loss_sum = 0.0
        for lo in range(0, n_tr, config.batch_size):
            batch = perm[lo : lo + config.batch_size]
            lr = cyclic_lr(step, config.lr_min, config.lr_max, half_cycle)
            cache = forward_cache(
                params,
                x_tr[batch],
                dropout_rate=config.dropout_rate,
                train=True,
                rng=dropout_rng,
            )
            loss_sum += bce_with_logits(cache.logits, y_tr[batch], pos_weight) * len(batch)
            grads = backward(params, cache, y_tr[batch], pos_weight)
            for name in _PARAM_ORDER:
                v = velocity[name]
                v *= config.momentum
                v += getattr(grads, name)
                getattr(params, name)[...] -= lr * v
            step += 1
        lr_end = cyclic_lr(step - 1, config.lr_min, config.lr_max, half_cycle)

        val_logits = forward(params, x_val)
        val_acc = float(np.mean((_sigmoid(val_logits) >= 0.5) == (y_val == 1.0)))
        history.append(EpochStats(epoch, loss_sum / n_tr, val_acc, lr_start, lr_end))
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = params.copy()

    model = RouterModel(
        params=best_params,
        scaler=scaler,
        dropout_rate=config.dropout_rate,
        threshold=0.5,
        seed=config.seed,
    )
    return TrainResult(model=model, history=history, best_epoch=best_epoch)


def predict_batch(model: RouterModel, rows: np.ndarray) -> np.ndarray:
    """Relevance probabilities for raw (unstandardized) feature rows (n, f)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.size == 0:
        return np.zeros(0)
    if rows.ndim == 1:
        rows = rows[None, :]
    x = transform(model.scaler, rows)
    return _sigmoid(forward(model.params, x))


# ---------------------------------------------------------------------------
# Model file: magic "RRM1" | u32 version | u32 input_dim | u32 d | u32 h1 |
# u32 h2 | f64 dropout | f64 threshold | i64 seed | float64 arrays (scaler
# mean, scaler std, then _PARAM_ORDER, C order) | u32 CRC32 of all prior bytes.
# ---------------------------------------------------------------------------

MODEL_MAGIC = b"RRM1"
MODEL_VERSION = 1
_MODEL_HEADER = struct.Struct("<4sIIIIIddq")


def serialize_model(model: RouterModel) -> bytes:
    """The RRM1 container bytes, CRC32 last."""
    input_dim = model.input_dim
    d = (input_dim - 3) // 2
    blob = bytearray(
        _MODEL_HEADER.pack(
            MODEL_MAGIC,
            MODEL_VERSION,
            input_dim,
            d,
            HIDDEN1,
            HIDDEN2,
            model.dropout_rate,
            model.threshold,
            model.seed,
        )
    )
    blob += np.ascontiguousarray(model.scaler.mean, dtype="<f8").tobytes()
    blob += np.ascontiguousarray(model.scaler.std, dtype="<f8").tobytes()
    for name in _PARAM_ORDER:
        blob += np.ascontiguousarray(getattr(model.params, name), dtype="<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    return bytes(blob)


def save_model(model: RouterModel, path) -> None:
    """Serialize to the RRM1 container with a trailing CRC32."""
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def load_model(path) -> RouterModel:
    """Read an RRM1 file, verifying magic, version, sizes, and checksum."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _MODEL_HEADER.size + 4:
        raise ModelFormatError(f"{path}: truncated model file")
    magic, version, input_dim, d, h1, h2, dropout, threshold, seed = _MODEL_HEADER.unpack_from(raw)
    if magic != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: bad magic {magic!r}, not a model file")
    if version != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported format version {version}")
    if (h1, h2) != (HIDDEN1, HIDDEN2):
        raise ModelFormatError(f"{path}: unexpected layer widths {(h1, h2)}")
    if input_dim != feature_dim(d):
        raise ModelFormatError(f"{path}: input_dim {input_dim} != 2 * d + 3 for stored d {d}")

    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise ModelFormatError(f"{path}: checksum mismatch, file is corrupted")

    shapes = [
        (input_dim,), (input_dim,),  # scaler mean, std
        (input_dim, h1), (h1,), (h1,), (h1,),
        (h1, h2), (h2,), (h2,), (h2,),
        (h2, 1), (1,),
    ]
    need = sum(int(np.prod(s)) for s in shapes) * 8
    body = raw[_MODEL_HEADER.size:-4]
    if len(body) != need:
        raise ModelFormatError(f"{path}: expected {need} array bytes, got {len(body)}")

    arrays = []
    off = 0
    for shape in shapes:
        n = int(np.prod(shape))
        arrays.append(np.frombuffer(body, "<f8", count=n, offset=off).reshape(shape).copy())
        off += n * 8
    scaler = ScalerParams(mean=arrays[0], std=arrays[1])
    params = RouterParams(*arrays[2:])
    return RouterModel(
        params=params,
        scaler=scaler,
        dropout_rate=dropout,
        threshold=threshold,
        seed=seed,
    )
