"""Per-shard relevance router: a small MLP trained from scratch in numpy.

Architecture (fixed): affine -> LayerNorm -> ReLU -> Dropout, twice
(widths 256 then 128), then an affine head producing one raw logit.
Training has one fixed recipe: SGD with momentum MOMENTUM on batches of
BATCH_SIZE rows under a triangular cyclic learning rate between LR_MIN and
LR_MAX, dropout DROPOUT_RATE after each hidden layer, minimizing binary
cross-entropy with logits and a positive-class weight. Only the number of
epochs is set by the caller.

The forward and backward passes run in the parameters' dtype. Training runs
its SGD steps and validation in float32 on float32 copies of the
standardized splits; the scaler is fit in float64, and the returned model's
arrays are the best epoch's float32 values upcast exactly to float64, so
stored weights and all inference are float64. Everything is deterministic
under the run seed.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .features import ScalerParams, feature_dim, fit_scaler, transform
from .rng import substream

HIDDEN1 = 256
HIDDEN2 = 128
LN_EPS = 1e-5
LR_MIN = 1e-3
LR_MAX = 5e-3
BATCH_SIZE = 128
DROPOUT_RATE = 0.2
MOMENTUM = 0.9
# Eval-mode inference runs its rows in blocks of this many, the last block
# taking the remainder (so n >= 256 rows make n // 128 blocks of 128..255).
# Blocks start at multiples of 128 because BLAS groups rows from a block's
# start: blocks of a few rows, or starting elsewhere, change logit bits.
INFER_BLOCK = 128


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


def _param_shapes(input_dim: int) -> dict[str, tuple[int, ...]]:
    """Every learnable array's shape, in layout order: the one table that
    initialization, the flat training vectors and the model file share."""
    return {
        "w1": (input_dim, HIDDEN1), "b1": (HIDDEN1,), "ln_g1": (HIDDEN1,), "ln_b1": (HIDDEN1,),
        "w2": (HIDDEN1, HIDDEN2), "b2": (HIDDEN2,), "ln_g2": (HIDDEN2,), "ln_b2": (HIDDEN2,),
        "w3": (HIDDEN2, 1), "b3": (1,),
    }


_PARAM_ORDER = tuple(_param_shapes(1))


@dataclass(frozen=True)
class RouterModel:
    params: RouterParams
    scaler: ScalerParams
    threshold: float
    seed: int

    @property
    def input_dim(self) -> int:
        return self.params.w1.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be positive")


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
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, unit gains.
    The weights are drawn in layout order: w1, w2, w3."""
    if input_dim < 1:
        raise ValueError("input_dim must be positive")

    def init(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name.startswith("w"):
            bound = math.sqrt(6.0 / sum(shape))
            return rng.uniform(-bound, bound, size=shape)
        return np.ones(shape) if name.startswith("ln_g") else np.zeros(shape)

    shapes = _param_shapes(input_dim)
    return RouterParams(**{name: init(name, shape) for name, shape in shapes.items()})


def _layer_norm(a: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Normalization over the last axis; returns (xhat, 1/sqrt(max(var, eps))),
    xhat written into `out` when given (which may be `a`).

    The ops are the ones np.mean and np.var run, so xhat has the bits of
    `(a - a.mean(-1)) * (1 / sqrt(max(a.var(-1), eps)))`, row by row
    whatever the leading axes.
    """
    h = a.shape[-1]
    xh = np.subtract(a, a.sum(axis=-1, keepdims=True) / h, out=out)
    inv = _normalizer((xh * xh).sum(axis=-1, keepdims=True) / h)
    xh *= inv
    return xh, inv


def _normalizer(var: np.ndarray) -> np.ndarray:
    """Turn row variances into 1/sqrt(max(var, eps)) in place, in var's dtype."""
    # eps floors the variance instead of shifting it: any row with var >= eps
    # normalizes to variance exactly 1 rather than var/(var+eps), and rows
    # with var < eps (constant or nearly so) stay finite.
    np.maximum(var, LN_EPS, out=var)
    np.sqrt(var, out=var)
    np.divide(1.0, var, out=var)
    return var


def _dropout_mask(
    shape: tuple[int, int],
    rate: float,
    rng: np.random.Generator,
    dtype: np.dtype = np.dtype(np.float64),
) -> np.ndarray:
    """A fresh inverted-dropout mask of `dtype`."""
    # Inverted dropout: surviving units scaled by 1/(1-rate) so eval is identity.
    mask = rng.random(shape, dtype=dtype)
    np.greater_equal(mask, rate, out=mask)
    mask /= 1.0 - rate
    return mask


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


def _checked_rows(params: RouterParams, x: np.ndarray) -> np.ndarray:
    """x as (b, f) rows or a (q, b, f) stack of row sets, in the parameters'
    dtype, checked finite after the cast: a float64 value beyond float32's
    range becomes inf."""
    with np.errstate(over="ignore"):
        x = np.asarray(x, dtype=params.w1.dtype)
    if x.ndim not in (2, 3) or x.shape[-1] != params.w1.shape[0]:
        raise ValueError(f"expected (b, {params.w1.shape[0]}) input, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    return x


def _hidden(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, g: np.ndarray, lb: np.ndarray,
    m: np.ndarray | None, keep: bool,
) -> tuple[np.ndarray, ...]:
    """One hidden layer: affine, layer norm, gain and bias, ReLU, then the
    dropout mask m unless None. Returns (a, xhat, inv, n, h). With `keep`
    False every step after the GEMM writes into the GEMM's output, in the
    same order, so a, xhat, n and h are that one array."""
    # numpy's stacked matmul makes one BLAS call per set, so no GEMM mixes two sets' rows.
    a = x @ w
    a += b
    out = None if keep else a
    xh, inv = _layer_norm(a, out)
    n = np.multiply(xh, g, out=out)
    n += lb
    h = np.maximum(n, 0.0, out=out)
    if m is not None:
        h *= m
    return a, xh, inv, n, h


def _forward(
    params: RouterParams, x: np.ndarray, m1: np.ndarray | None, m2: np.ndarray | None,
    keep: bool = True,
) -> ForwardCache:
    """The forward pass of checked rows x (b, f) or stack x (q, b, f); m1/m2
    are the dropout masks or None. Each affine layer is one `@`; every other
    step is elementwise or row-wise and runs once over all of x. With `keep`
    False each hidden layer runs in place (see _hidden), so only the cache's
    logits, inv1 and inv2 are intermediates of their own.
    """
    a1, xh1, inv1, n1, h1 = _hidden(
        x, params.w1, params.b1, params.ln_g1, params.ln_b1, m1, keep)
    a2, xh2, inv2, n2, h2 = _hidden(
        h1, params.w2, params.b2, params.ln_g2, params.ln_b2, m2, keep)
    logits = (h2 @ params.w3)[..., 0]
    logits += params.b3
    return ForwardCache(x, a1, xh1, inv1, n1, m1, h1, a2, xh2, inv2, n2, m2, h2, logits)


def forward_cache(
    params: RouterParams,
    x: np.ndarray,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> ForwardCache:
    """Full forward pass over standardized rows x (b, f), keeping intermediates.

    `masks` are the two dropout masks (b, HIDDEN1) and (b, HIDDEN2), or None
    for no dropout. The other arrays have the parameters' dtype.
    """
    x = _checked_rows(params, x)
    if x.ndim != 2:
        raise ValueError(f"expected (b, {params.w1.shape[0]}) input, got {x.shape}")
    return _forward(params, x, *(masks or (None, None)))


def forward(params: RouterParams, x: np.ndarray) -> np.ndarray:
    """Eval-mode logits, in the parameters' dtype, for rows x (n, f) or for a
    stack of row sets x (q, n, f), giving (n,) or (q, n).

    Every set's rows go through its GEMMs in blocks of INFER_BLOCK, the last
    block taking the remainder, so a set's logits have the same bits alone
    or in any stack. One block of rows of every set runs at a time, so a
    stack's memory is bounded by its caller's stack size. Each layer's steps
    run in place in its GEMM's output, in `forward_cache`'s order, so the
    logits have `forward_cache`'s bits.
    """
    x = _checked_rows(params, x)
    n = x.shape[-2]
    edges = [i * INFER_BLOCK for i in range(max(1, n // INFER_BLOCK))] + [n]
    logits = [_forward(params, x[..., lo:hi, :], None, None, keep=False).logits
              for lo, hi in zip(edges, edges[1:])]
    return logits[0] if len(logits) == 1 else np.concatenate(logits, axis=-1)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for z >= 0 and e / (1 + e) below, with e = exp(-|z|), so
    exp never overflows. -|z| is taken as a select, not abs and negation,
    which would flip the sign bit of a NaN."""
    nonneg = z >= 0
    e = np.exp(np.where(nonneg, -z, z))
    return np.where(nonneg, 1.0, e) / (1.0 + e)


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
    logits = np.asarray(logits, dtype=np.float64)
    return ((1.0 - labels) * _sigmoid(logits) - pos_weight * labels * _sigmoid(-logits)) / (
        logits.shape[0]
    )


def _layer_norm_backward(dxh: np.ndarray, xh: np.ndarray, inv: np.ndarray) -> None:
    """Turn dxh into d/da in place."""
    # d/da for xh = (a - mean(a)) * inv, population variance per row. The
    # variance term flows only where the floor is inactive; on clamped rows
    # inv is a constant w.r.t. a. The comparison is exact because both sides
    # come from _normalizer's ops in inv's dtype.
    h = dxh.shape[1]
    mean = dxh.sum(axis=1, keepdims=True) / h
    proj = (dxh * xh).sum(axis=1, keepdims=True) / h
    live = inv < _normalizer(np.zeros(1, inv.dtype))
    dxh -= mean
    dxh -= live * xh * proj
    dxh *= inv


def backward(
    params: RouterParams,
    cache: ForwardCache,
    labels: np.ndarray,
    pos_weight: float = 1.0,
    *,
    out: RouterParams | None = None,
) -> RouterParams:
    """Exact gradients of the mean loss w.r.t. every parameter array, in the
    parameters' dtype, written into `out`'s arrays when given. The logit
    gradient is taken in float64 from the batch's logits."""
    labels = np.asarray(labels, dtype=np.float64)
    if out is None:
        out = RouterParams(**{name: np.empty_like(getattr(params, name)) for name in _PARAM_ORDER})

    dz = _loss_grad_logits(cache.logits, labels, pos_weight).astype(params.w1.dtype)[:, None]
    np.matmul(cache.h2.T, dz, out=out.w3)
    np.sum(dz, axis=0, out=out.b3)
    d2 = dz @ params.w3.T

    if cache.m2 is not None:
        d2 *= cache.m2
    d2 *= cache.n2 > 0.0
    np.sum(d2 * cache.xh2, axis=0, out=out.ln_g2)
    np.sum(d2, axis=0, out=out.ln_b2)
    d2 *= params.ln_g2
    _layer_norm_backward(d2, cache.xh2, cache.inv2)

    np.matmul(cache.h1.T, d2, out=out.w2)
    np.sum(d2, axis=0, out=out.b2)
    d1 = d2 @ params.w2.T

    if cache.m1 is not None:
        d1 *= cache.m1
    d1 *= cache.n1 > 0.0
    np.sum(d1 * cache.xh1, axis=0, out=out.ln_g1)
    np.sum(d1, axis=0, out=out.ln_b1)
    d1 *= params.ln_g1
    _layer_norm_backward(d1, cache.xh1, cache.inv1)

    np.matmul(cache.x.T, d1, out=out.w1)
    np.sum(d1, axis=0, out=out.b1)
    return out


def cyclic_lr(step: int, lr_min: float, lr_max: float, half_cycle: int) -> float:
    """Triangular schedule: lr_min at step 0, lr_max at `half_cycle`, back down."""
    cycle = math.floor(1 + step / (2 * half_cycle))
    x = abs(step / half_cycle - 2 * cycle + 1)
    return lr_min + (lr_max - lr_min) * max(0.0, 1.0 - x)


def _flat_views(flat: np.ndarray, input_dim: int) -> RouterParams:
    """RouterParams whose arrays are views into `flat`, laid out as
    _param_shapes(input_dim) lists them."""
    arrays, offset = {}, 0
    for name, shape in _param_shapes(input_dim).items():
        size = math.prod(shape)
        arrays[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return RouterParams(**arrays)


def train(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    seed: int,
) -> TrainResult:
    """Train on the training rows, checkpointing on validation accuracy.

    Each split is raw feature rows (n, f), one label per row (1 iff the
    shard holds part of the query's global top-k). The scaler and the
    positive-class weight (negatives/positives) are fit on the training
    rows only; neither input is modified. Each epoch steps through the
    shuffled rows in batches of BATCH_SIZE, the last one short. The learning
    rate cycles between LR_MIN and LR_MAX with a half-cycle of two epochs'
    steps, and the momentum is MOMENTUM. Every step draws its two
    DROPOUT_RATE masks, the first layer's then the second's, from the one
    dropout stream. The returned model is the epoch checkpoint with the
    highest validation accuracy at threshold 0.5 (earliest epoch wins ties),
    its float32 parameters upcast to float64. A run whose loss or weights stop
    being finite ends in ValueError.
    """
    x_tr = np.asarray(x_train, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)
    y_tr = np.asarray(y_train, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.float64)
    if (x_tr.ndim != 2 or x_val.ndim != 2 or x_tr.shape[1] != x_val.shape[1]
            or y_tr.shape != x_tr.shape[:1] or y_val.shape != x_val.shape[:1]):
        raise ValueError("need (n, f) feature rows of one width and a label per row")
    if not np.isin(y_tr, (0.0, 1.0)).all() or not np.isin(y_val, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    if x_tr.shape[0] == 0:
        raise ValueError("training split is empty")
    if x_val.shape[0] == 0:
        raise ValueError("validation split is empty")
    if y_tr.min() == y_tr.max():
        raise ValueError("training split has a single class")

    scaler = fit_scaler(x_tr)

    # SGD and validation run in float32. The float64 initial draw is rounded
    # once, and each split is cast (then checked) right after it is
    # standardized, so no split is held in both dtypes past its cast.
    # Parameters, gradients and velocity are three flat vectors behind the
    # per-array views, so the momentum update is three flat ops.
    input_dim = x_tr.shape[1]
    init = init_params(input_dim, substream(seed, "init"))
    flat = np.concatenate([getattr(init, name).ravel() for name in _PARAM_ORDER], dtype=np.float32)
    params = _flat_views(flat, input_dim)
    x_tr = _checked_rows(params, transform(scaler, x_tr))
    x_val = _checked_rows(params, transform(scaler, x_val))

    n_pos = int(y_tr.sum())
    pos_weight = (y_tr.shape[0] - n_pos) / n_pos

    flat_grads = np.empty_like(flat)
    grads = _flat_views(flat_grads, input_dim)
    velocity = np.zeros_like(flat)
    best_flat = flat.copy()
    shuffle_rng = substream(seed, "shuffle")
    dropout_rng = substream(seed, "dropout")

    n_tr = x_tr.shape[0]
    steps_per_epoch = math.ceil(n_tr / BATCH_SIZE)
    half_cycle = 2 * steps_per_epoch

    history: list[EpochStats] = []
    best_acc = -1.0
    best_epoch = 0
    step = 0

    # A diverging run overflows: the check after each epoch ends it with an
    # error instead of numpy warnings, and no checkpoint holds a non-finite weight.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, config.epochs + 1):
            perm = shuffle_rng.permutation(n_tr)
            lr_start = cyclic_lr(step, LR_MIN, LR_MAX, half_cycle)
            loss_sum = 0.0
            for lo in range(0, n_tr, BATCH_SIZE):
                batch = perm[lo : lo + BATCH_SIZE]
                yb = y_tr[batch]
                lr = cyclic_lr(step, LR_MIN, LR_MAX, half_cycle)
                masks = tuple(
                    _dropout_mask((len(batch), h), DROPOUT_RATE, dropout_rng, flat.dtype)
                    for h in (HIDDEN1, HIDDEN2)
                )
                cache = forward_cache(params, x_tr[batch], masks)
                loss_sum += bce_with_logits(cache.logits, yb, pos_weight) * len(batch)
                backward(params, cache, yb, pos_weight, out=grads)
                velocity *= MOMENTUM
                velocity += flat_grads
                flat -= lr * velocity
                step += 1
            lr_end = cyclic_lr(step - 1, LR_MIN, LR_MAX, half_cycle)

            train_loss = loss_sum / n_tr
            if not (math.isfinite(train_loss) and np.isfinite(flat).all()):
                raise ValueError(f"training diverged at epoch {epoch} (loss {train_loss!r})")

            val_acc = float(np.mean((forward(params, x_val) >= 0.0) == (y_val == 1.0)))
            history.append(EpochStats(epoch, train_loss, val_acc, lr_start, lr_end))
            if val_acc > best_acc:
                best_acc = val_acc
                best_epoch = epoch
                np.copyto(best_flat, flat)

    model = RouterModel(
        params=_flat_views(best_flat.astype(np.float64), input_dim),
        scaler=scaler,
        threshold=0.5,
        seed=seed,
    )
    return TrainResult(model=model, history=history, best_epoch=best_epoch)


def predict_standardized(params: RouterParams, x: np.ndarray) -> np.ndarray:
    """Relevance probabilities for standardized feature rows x (n, f), or
    (q, n) of them for a stack of row sets (q, n, f), each set's bits those
    of its own call."""
    return _sigmoid(forward(params, x))


def predict_batch(model: RouterModel, rows: np.ndarray) -> np.ndarray:
    """Relevance probabilities for raw (unstandardized) feature rows (n, f),
    or (q, n) of them for a stack of row sets (q, n, f), each set's bits
    those of its own call."""
    return predict_standardized(model.params, transform(model.scaler, rows))


# ---------------------------------------------------------------------------
# Model file: magic "RRM1" | u32 version | u32 input_dim | u32 d | u32 h1 |
# u32 h2 | f64 dropout | f64 threshold | i64 seed | float64 arrays (scaler
# mean, scaler std, then _PARAM_ORDER, C order) | u32 CRC32 of all prior bytes.
# The dropout slot holds DROPOUT_RATE; inference never reads it.
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
            DROPOUT_RATE,
            model.threshold,
            model.seed,
        )
    )
    arrays = [model.scaler.mean, model.scaler.std]
    arrays += [getattr(model.params, name) for name in _PARAM_ORDER]
    blob += np.concatenate([np.ravel(a) for a in arrays], dtype="<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    return bytes(blob)


def load_model(path) -> RouterModel:
    """Read an RRM1 file, verifying magic, version, sizes, and checksum."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _MODEL_HEADER.size + 4:
        raise ValueError(f"{path}: truncated model file")
    magic, version, input_dim, d, h1, h2, dropout, threshold, seed = _MODEL_HEADER.unpack_from(raw)
    if magic != MODEL_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, not a model file")
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if (h1, h2) != (HIDDEN1, HIDDEN2):
        raise ValueError(f"{path}: unexpected layer widths {(h1, h2)}")
    if input_dim != feature_dim(d):
        raise ValueError(f"{path}: input_dim {input_dim} != 2 * d + 3 for stored d {d}")

    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise ValueError(f"{path}: checksum mismatch, file is corrupted")

    n_params = sum(math.prod(shape) for shape in _param_shapes(input_dim).values())
    need = (2 * input_dim + n_params) * 8
    body = raw[_MODEL_HEADER.size:-4]
    if len(body) != need:
        raise ValueError(f"{path}: expected {need} array bytes, got {len(body)}")

    flat = np.frombuffer(body, "<f8").astype(np.float64)
    if not (np.isfinite(flat).all() and math.isfinite(dropout) and math.isfinite(threshold)):
        raise ValueError(f"{path}: non-finite value in the model")
    scaler = ScalerParams(mean=flat[:input_dim], std=flat[input_dim : 2 * input_dim])
    scaler.mean.setflags(write=False)
    scaler.std.setflags(write=False)
    params = _flat_views(flat[2 * input_dim :], input_dim)
    return RouterModel(
        params=params,
        scaler=scaler,
        threshold=threshold,
        seed=seed,
    )
