"""Trainable per-pixel segmenters.

The segmenter contract is deliberately small: ``fit(images, labels, seed)``
trains from scratch and ``predict_logits(image)`` returns a per-site score
field whose sign is the predicted label (>= 0 means foreground). Anything
honoring that contract can drive the correction loop, including a process
living outside this package (see ExternalSegmenter).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Protocol, Sequence, runtime_checkable

import numpy as np

from . import _fanout
from .grid import as_field, as_mask

__all__ = [
    "Segmenter",
    "TrainConfig",
    "TrainingDivergedError",
    "LogisticSegmenter",
    "loss_and_grad",
    "ExternalSegmenter",
]


@runtime_checkable
class Segmenter(Protocol):
    """Anything that can be trained on masks and scored per site."""

    def fit(self, images: Sequence[np.ndarray], labels: Sequence[np.ndarray],
            seed: int | None = None) -> "Segmenter": ...

    def predict_logits(self, image: np.ndarray) -> np.ndarray: ...


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during gradient descent."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 400
    l2: float = 1e-4
    feature_radii: tuple[int, ...] = (1, 3)
    seed: int = 0

    def __post_init__(self):
        # NaN fails no comparison, so finiteness is checked first
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be >= 0 and finite, got {self.l2}")
        if any(r < 1 for r in self.feature_radii):
            raise ValueError("feature radii must be >= 1")


def _features(image: np.ndarray, radii: tuple[int, ...],
              out: np.ndarray | None = None) -> np.ndarray:
    """Per-site design matrix: constant, intensity, and box means.

    The columns are written into ``out`` (rows = sites) when given, else
    into a new column-order array; either way each column is contiguous.
    """
    from scipy import ndimage  # imported at first use: most commands never fit

    img = as_field(image)
    if out is None:
        out = np.empty((img.size, 2 + len(radii)), order="F")
    out[:, 0] = 1.0
    out[:, 1] = img.reshape(-1)
    for j, r in enumerate(radii, start=2):
        ndimage.uniform_filter(img, size=2 * r + 1, mode="nearest",
                               output=out[:, j].reshape(img.shape))
    return out


def _half_sums(X: np.ndarray, y: np.ndarray, scratch: np.ndarray, w: np.ndarray,
               lo: int, hi: int) -> np.ndarray:
    """``[Σ|f|, Σ log1p(e), Xᵀ(σ(f) − y)]`` over rows ``[lo, hi)`` of X and y,
    where ``f = Xw`` and ``e = exp(−|f|)``: one half of an epoch's sums.

    One ``e`` serves both terms: the per-site loss ``log(1 + e^f)`` is
    ``max(f, 0) + log1p(e)`` and the sigmoid is ``where(f >= 0, 1, e) / (1 + e)``,
    both stable at any magnitude of ``f``. Columns ``[lo, hi)`` of the
    ``(3, n)`` ``scratch`` are overwritten; nothing else is.
    """
    X, y = X[lo:hi], y[lo:hi]
    f, e, buf = scratch[:, lo:hi]
    out = np.empty(2 + w.size)
    np.einsum("ik,k->i", X, w, out=f)
    np.abs(f, out=e)
    out[0] = e.sum()
    np.negative(e, out=e)
    np.exp(e, out=e)
    out[1] = np.log1p(e, out=buf).sum()
    # the sigmoid's numerator where(f >= 0, 1, e) is max(f >= 0, e), as
    # 0 < e <= 1 with e = 1 at f = 0; f, e and buf are then reused in place
    np.add(e, 1.0, out=buf)
    np.greater_equal(f, 0.0, out=f)
    np.maximum(f, e, out=e)
    e /= buf
    e -= y
    np.einsum("ik,i->k", X, e, out=out[2:])
    return out


class _Split(NamedTuple):
    """What every epoch of one fit reuses: the column sums of X, ``Xᵀy``,
    and ``halves(w)``, the ``_half_sums`` of rows ``[0, n//2)`` and
    ``[n//2, n)`` (see ``_fanout.halves``)."""

    colsum: np.ndarray
    xty: np.ndarray
    halves: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _split(X: np.ndarray, y: np.ndarray, halves) -> _Split:
    return _Split(np.einsum("ik->k", X), np.einsum("ik,i->k", X, y), halves)


def loss_and_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float,
                  split: _Split | None = None) -> tuple[float, np.ndarray]:
    """Mean logistic cross-entropy with an L2 penalty on the non-bias weights.

    Returns (loss, gradient); both are exact, which makes the gradient easy
    to validate against finite differences. The rows are summed in two
    fixed halves, ``[0, n//2)`` and ``[n//2, n)``, added as first half plus
    second half. ``Σ max(f, 0)`` is ``(Σf + Σ|f|) / 2`` with ``Σf`` taken as
    ``colsum(X)·w``, and ``y·f`` is ``(Xᵀy)·w``, so neither costs a pass over
    the rows.

    The products are numpy's own ``einsum`` loops, not BLAS, so the result
    does not depend on how many threads OpenBLAS runs, and a forked helper
    spins up none. ``split`` is a fit's ``_Split`` of these same X and y; a
    fit builds it once, with its scratch and perhaps a helper process for
    the second half, and passes it to every epoch. Without it the call
    builds its own and computes both halves in turn. ``w``, ``X`` and ``y``
    are left unchanged.
    """
    n = y.size
    if split is None:
        split = _split(X, y, _fanout.halves_in_turn(_half_sums, n, X, y, np.empty((3, n))))
    first, second = split.halves(w)
    sums = first + second
    loss = float(0.5 * (np.einsum("k,k->", split.colsum, w) + sums[0]) + sums[1]
                 - np.einsum("k,k->", split.xty, w)) / n
    reg = w.copy()
    reg[0] = 0.0
    loss += 0.5 * l2 * float(np.einsum("k,k->", reg, reg))
    return loss, sums[2:] / n + l2 * reg


# the fewest rows in each half of a fit that repay a helper process for the
# second half. 800-epoch fits took, in turn and with the helper: 141 and 146 ms
# at 8,192 rows, 201 and 208 ms at 12,288, 237 and 200 ms at 16,384, 670 and
# 437 ms at 49,152. Starting and reaping the helper costs about 6 ms, which
# the threshold repays after about 130 epochs (20 at 49,152 rows)
_HALF_GRAIN = 8192


class LogisticSegmenter:
    """Per-pixel logistic regression on intensity and box-mean features.

    Trained by full-batch gradient descent from zero weights, so a fit is a
    pure function of the data and config; ``seed`` is accepted for contract
    compatibility and recorded but does not influence the result.
    """

    def __init__(self, cfg: TrainConfig | None = None):
        self.cfg = cfg or TrainConfig()
        self.weights: np.ndarray | None = None
        self.losses: list[float] = []
        self.seed: int | None = None
        self._fitted_on: tuple | None = None

    def fit(self, images, labels, seed=None):
        """Train from zero weights for ``cfg.epochs`` full-batch steps.

        Each epoch is one ``loss_and_grad`` call in this process, which sums
        the rows in two fixed halves. When each half has at least
        ``_HALF_GRAIN`` rows and there is a second CPU, one forked helper
        computes the second half of every epoch while this process computes
        the first (``_fanout.halves``); the weights and losses are the same
        bits with or without it. The helper is reaped before ``fit`` returns
        or raises.

        Refitting on the same design matrix and labels as the model's last
        fit is a no-op apart from recording ``seed``: the weights and losses
        it would compute are the ones already held. Only digests of the data
        are kept, not the data.
        """
        if len(images) != len(labels) or not images:
            raise ValueError("need equally many images and label masks, at least one")
        for i, (img, lbl) in enumerate(zip(images, labels)):
            if np.shape(img) != np.shape(lbl):
                raise ValueError(f"image {i} has shape {np.shape(img)}, "
                                 f"its label has shape {np.shape(lbl)}")
        radii = self.cfg.feature_radii
        n = sum(np.size(img) for img in images)
        X = np.empty((n, 2 + len(radii)), order="F")
        y = np.empty(n)
        lo = 0
        for img, lbl in zip(images, labels):
            hi = lo + np.size(img)
            _features(img, radii, out=X[lo:hi])
            y[lo:hi] = as_mask(lbl).reshape(-1)
            lo = hi
        fitted_on = (self.cfg, _digest(X.T), _digest(y))  # X.T is C-contiguous: no copy
        if fitted_on != self._fitted_on:
            w = np.zeros(X.shape[1])
            losses = []
            # overflow to inf is the divergence signal itself, not a stray
            # warning; the helper is forked inside, so it inherits the setting
            with (np.errstate(over="ignore", invalid="ignore"),
                  _fanout.halves(_half_sums, n, _HALF_GRAIN, w.size,
                                 X, y, np.empty((3, n))) as halves):
                split = _split(X, y, halves)
                for _ in range(self.cfg.epochs):
                    loss, grad = loss_and_grad(w, X, y, self.cfg.l2, split)
                    if not np.isfinite(loss):
                        raise TrainingDivergedError(f"loss diverged under {self.cfg}")
                    losses.append(loss)
                    w -= self.cfg.learning_rate * grad
            self.weights = w
            self.losses = losses
            self._fitted_on = fitted_on
        self.seed = self.cfg.seed if seed is None else seed
        return self

    def predict_logits(self, image):
        if self.weights is None:
            raise RuntimeError("fit() the model before predicting")
        img = as_field(image)
        X = _features(img, self.cfg.feature_radii)
        # the fit's own product, so a training image scores as during the fit
        return np.einsum("ik,k->i", X, self.weights).reshape(img.shape)

    # --- plain-JSON persistence, used by the train/predict commands ---

    def to_json(self) -> str:
        if self.weights is None:
            raise RuntimeError("fit() the model before saving")
        return json.dumps({
            "kind": "logistic",
            "weights": [float(v) for v in self.weights],
            "config": {
                "learning_rate": self.cfg.learning_rate,
                "epochs": self.cfg.epochs,
                "l2": self.cfg.l2,
                "feature_radii": list(self.cfg.feature_radii),
                "seed": self.cfg.seed,
            },
        }, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "LogisticSegmenter":
        """The model that ``to_json`` wrote. Raises ValueError, saying what is
        wrong, for any other text."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"a model file holds a JSON object, not a {type(doc).__name__}")
        if doc.get("kind") != "logistic":
            raise ValueError(f"not a logistic model file (kind={doc.get('kind')!r})")
        c = doc.get("config")
        if not isinstance(c, dict):
            raise ValueError(f"'config' must be an object, got {c!r}")
        missing = [k for k in ("learning_rate", "epochs", "l2", "feature_radii", "seed")
                   if k not in c]
        if missing:
            raise ValueError(f"'config' lacks {', '.join(map(repr, missing))}")
        for key in ("learning_rate", "l2"):
            if not _is_number(c[key]):
                raise ValueError(f"'config.{key}' must be a finite number, got {c[key]!r}")
        for key in ("epochs", "seed"):
            if not _is_int(c[key]):
                raise ValueError(f"'config.{key}' must be an integer, got {c[key]!r}")
        radii = c["feature_radii"]
        if not (isinstance(radii, list) and all(_is_int(r) for r in radii)):
            raise ValueError(f"'config.feature_radii' must be a list of integers, got {radii!r}")
        w, n = doc.get("weights"), 2 + len(radii)
        if not (isinstance(w, list) and len(w) == n and all(_is_number(v) for v in w)):
            raise ValueError(f"'weights' must be a list of {n} finite numbers "
                             f"(2 + {len(radii)} feature radii), got {w!r}")
        model = cls(TrainConfig(learning_rate=c["learning_rate"], epochs=c["epochs"],
                                l2=c["l2"], feature_radii=tuple(radii), seed=c["seed"]))
        model.weights = np.asarray(w, dtype=np.float64)
        return model


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """An int or float that float64 holds as a finite value."""
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _digest(arr: np.ndarray) -> str:
    """SHA-256 of an array's shape and bytes, hashed in place without a copy."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr.data)
    return h.hexdigest()


class ExternalSegmenter:
    """Segmenter served by an external process through a shared directory.

    Layout under ``root`` (all tensors in the GTF container format):

    * ``images/train_00000.gtf ...`` and ``images/val_00000.gtf ...`` are
      written once at construction.
    * each ``fit`` call opens ``round_000/``, ``round_001/`` ... containing
      ``labels/train_*.gtf`` (the current training labels) and, once all are
      written, an empty ``LABELS_DONE`` sentinel.
    * the external process trains on the round's labels and writes
      ``logits/train_*.gtf`` and ``logits/val_*.gtf`` (f32 fields, same
      index spaces), then an empty ``DONE`` sentinel.
    * this class polls for ``DONE`` every ``poll_interval`` seconds, loads
      the logits, and serves them from memory; ``predict_logits`` matches
      images by content hash, so it only answers for the registered images.

    Rounds are numbered from 0 in every instance, so ``root`` must not hold
    a ``round_NNN/`` directory of an earlier run: the constructor raises
    ``ValueError`` naming it before writing anything. It does the same for a
    ``poll_interval`` that is not positive and finite, and a ``timeout``
    that is neither None nor positive and finite: NaN fails every comparison,
    so a NaN timeout would never expire.
    """

    def __init__(self, root, train_images, val_images,
                 poll_interval: float = 0.5, timeout: float | None = None):
        from . import formats  # local import: formats has no model dependency

        if not (math.isfinite(poll_interval) and poll_interval > 0):
            raise ValueError(f"poll_interval must be positive and finite, got {poll_interval}")
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"timeout must be positive and finite, got {timeout}")
        self._formats = formats
        self.root = Path(root)
        used = sorted(p.name for p in self.root.glob("round_*")
                      if p.is_dir() and p.name[len("round_"):].isdigit())
        if used:
            raise ValueError(f"{self.root / used[0]} is left from an earlier run; "
                             "give the external trainer an empty directory")
        self.poll_interval = float(poll_interval)
        self.timeout = timeout
        self._train = [as_field(x) for x in train_images]
        self._val = [as_field(x) for x in val_images]
        self._round = -1
        self._logits: dict[str, np.ndarray] = {}
        img_dir = self.root / "images"
        img_dir.mkdir(parents=True, exist_ok=True)
        for i, img in enumerate(self._train):
            formats.save_field(img, img_dir / f"train_{i:05d}.gtf")
        for i, img in enumerate(self._val):
            formats.save_field(img, img_dir / f"val_{i:05d}.gtf")

    def fit(self, images, labels, seed=None):
        if len(images) != len(self._train):
            raise ValueError("fit() must receive the registered training images")
        for given, registered in zip(images, self._train):
            if _digest(as_field(given)) != _digest(registered):
                raise ValueError("fit() images differ from the registered training images")
        if len(labels) != len(self._train):
            raise ValueError("need one label mask per training image")
        self._round += 1
        rdir = self.root / f"round_{self._round:03d}"
        (rdir / "labels").mkdir(parents=True)
        for i, lbl in enumerate(labels):
            self._formats.save_mask(as_mask(lbl), rdir / "labels" / f"train_{i:05d}.gtf")
        (rdir / "LABELS_DONE").touch()
        self._wait_for(rdir / "DONE")
        self._logits = {}
        for split, imgs in (("train", self._train), ("val", self._val)):
            for i, img in enumerate(imgs):
                path = rdir / "logits" / f"{split}_{i:05d}.gtf"
                field = self._formats.load_field(path)
                if field.shape != img.shape:
                    raise ValueError(f"{path}: logits have shape {field.shape}, "
                                     f"its image has shape {img.shape}")
                self._logits[_digest(img)] = field.astype(np.float64)
        return self

    def _wait_for(self, sentinel: Path) -> None:
        start = time.monotonic()
        while not sentinel.exists():
            if self.timeout is not None and time.monotonic() - start > self.timeout:
                raise TimeoutError(f"no {sentinel.name} after {self.timeout}s in {sentinel.parent}")
            time.sleep(self.poll_interval)

    def predict_logits(self, image):
        key = _digest(as_field(image))
        if key not in self._logits:
            raise KeyError("image was not part of the registered train/val sets "
                           "or fit() has not completed a round yet")
        return self._logits[key].copy()
