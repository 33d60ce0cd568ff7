"""Likelihood-level error models for simulated Hadamard-test pairs.

A model perturbs the ideal outcome biases (cos k*theta, sin k*theta) with
additive deviations (eta1[k], eta2[k]), i.e. the +1 outcome probabilities
become (1 + cos(k theta) + eta1[k]) / 2 and (1 + sin(k theta) + eta2[k]) / 2.

Each model kind is one frozen dataclass deriving from :class:`NoiseModel`:
``Ideal``, ``Ban`` (bounded adversarial), ``Gaussian``, ``GaussianLinear``,
``Dephasing`` and ``HighCoherence``.  The class owns all of the kind's
behaviour: its deterministic deviations (``biases``), its per-run random
state and that state's scale, its bound on |eta| and its JSON form.

The deviations come in two parts.  The model's ``biases`` add the
deterministic one: an adversary's fixed choice (a built-in strategy or a
1-d :class:`DeviationTable`), dephasing's decay or a drift.  The run noise
of the Gaussian models is the plain array ``draw_run_noise`` draws once per
run, (2, n) at n times (eta1 in row 0, eta2 in row 1) or (B, 2, n) for B
runs, and :func:`biases_at` is the one place that adds it.  Both act at
whatever times they are given: the whole grid k = 0 .. K-1, or only the
distinct times a sparse run sampled.

:func:`noise_from_dict` parses the wire format.  Adding a model means one
class plus one entry in :data:`MODELS`, and a rule in
:func:`rfe.bounds.bounds_report` only if it is certifiable without an
envelope.

Biases are produced *unclamped*; probabilities outside [0, 1] (possible under
Ban/Gaussian/HighCoherence at extreme parameters) are clamped and counted by
the sampler, keeping physicality violations observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional, Union

import numpy as np


class AdversaryStrategy(str, Enum):
    """Built-in ways an adversary can spend its deviation budget."""

    ZERO = "zero"
    CONSTANT_PLUS = "constant_plus"
    CONSTANT_MINUS = "constant_minus"
    # eta1[k] = -eta_bar * sign(cos k theta), eta2[k] analogously: pushes
    # every bias toward zero, suppressing the signal magnitude.
    SIGN_FLIP = "sign_flip"


@dataclass(frozen=True, eq=False)
class DeviationTable:
    """A custom adversary's fixed deviations, eta1[k] and eta2[k] at time k.
    Immutable once built."""

    eta1: np.ndarray
    eta2: np.ndarray

    def __post_init__(self):
        eta1 = np.array(self.eta1, dtype=float)
        eta2 = np.array(self.eta2, dtype=float)
        if eta1.ndim != 1 or eta1.shape != eta2.shape:
            raise ValueError("deviation table needs two equal-length 1-d arrays")
        if not (np.all(np.isfinite(eta1)) and np.all(np.isfinite(eta2))):
            raise ValueError("deviation table entries must be finite")
        eta1.setflags(write=False)
        eta2.setflags(write=False)
        object.__setattr__(self, "eta1", eta1)
        object.__setattr__(self, "eta2", eta2)

    def __len__(self) -> int:
        return len(self.eta1)

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.eta1)), np.max(np.abs(self.eta2))))


class NoiseModel:
    """Base of the noise models.  A subclass is a frozen dataclass whose
    fields are its float parameters; it sets ``kind`` and overrides the
    defaults below where it differs."""

    def biases(self, cos_k, sin_k, ks):
        """The ideal biases ``cos_k``, ``sin_k`` at the times ``ks`` plus the
        model's unclamped deterministic deviations there; run noise is added
        by :func:`biases_at`.  The default has none."""
        return cos_k, sin_k

    def draw_run_noise(self, ks: np.ndarray, rng: np.random.Generator,
                       size: Optional[int] = None) -> Optional[np.ndarray]:
        """Random deviations fixed for one run at the 1-d times ``ks``:
        shape (2, len(ks)), eta1 then eta2, entry i at time ks[i], or
        (size, 2, len(ks)) for ``size`` runs; None when the model has none."""
        return None

    def scale(self, ks: np.ndarray):
        """Standard deviation of the run noise at the times ``ks``, which is
        independent and normal at each time and in each bias; 0 for a model
        that draws none."""
        return 0.0

    def envelope(self, grid_size: int) -> Optional[float]:
        """Bound on |eta| over times k <= grid_size; None when the
        deviations are unbounded."""
        return None

    def to_dict(self) -> dict:
        """JSON-ready description of the model."""
        return {"kind": self.kind, **{f.name: float(getattr(self, f.name)) for f in fields(self)}}

    @classmethod
    def from_dict(cls, data: dict) -> NoiseModel:
        """The model described by a wire-format dict of this kind."""
        return cls(**{f.name: _number(data[f.name]) for f in fields(cls)})


@dataclass(frozen=True)
class Ideal(NoiseModel):
    """Noise-free Hadamard tests."""

    kind = "ideal"

    def envelope(self, grid_size):
        return 0.0


@dataclass(frozen=True, eq=False)
class Ban(NoiseModel):
    """Bounded adversarial noise: |eta1[k]|, |eta2[k]| <= eta_bar for all k.

    ``strategy`` is either a built-in :class:`AdversaryStrategy` or a custom
    :class:`DeviationTable` (validated against eta_bar at construction).
    """

    eta_bar: float
    strategy: Union[AdversaryStrategy, DeviationTable] = AdversaryStrategy.SIGN_FLIP

    kind = "ban"

    def __post_init__(self):
        if not math.isfinite(self.eta_bar) or self.eta_bar < 0.0:
            raise ValueError(f"eta_bar must be finite and >= 0, got {self.eta_bar!r}")
        if isinstance(self.strategy, DeviationTable):
            if len(self.strategy) == 0:
                raise ValueError("custom deviation table must not be empty")
            if self.strategy.max_abs() > self.eta_bar:
                raise ValueError(
                    f"custom deviations exceed eta_bar={self.eta_bar}: "
                    f"max |eta| = {self.strategy.max_abs()}"
                )
        elif not isinstance(self.strategy, AdversaryStrategy):
            raise ValueError(f"unknown adversary strategy {self.strategy!r}")

    def biases(self, cos_k, sin_k, ks):
        strategy = self.strategy
        if isinstance(strategy, DeviationTable):
            if ks.size and int(ks.max()) >= len(strategy):
                raise ValueError(f"custom adversary table of length {len(strategy)} "
                                 f"does not cover time index {int(ks.max())}")
            return cos_k + strategy.eta1[ks], sin_k + strategy.eta2[ks]
        e = self.eta_bar
        if strategy is AdversaryStrategy.ZERO:
            return cos_k, sin_k
        if strategy is AdversaryStrategy.CONSTANT_PLUS:
            return cos_k + e, sin_k + e
        if strategy is AdversaryStrategy.CONSTANT_MINUS:
            return cos_k - e, sin_k - e
        return cos_k - e * np.sign(cos_k), sin_k - e * np.sign(sin_k)

    def envelope(self, grid_size):
        return float(self.eta_bar)

    def to_dict(self):
        if isinstance(self.strategy, DeviationTable):
            strategy = {
                "name": "custom",
                "eta1": [float(v) for v in self.strategy.eta1],
                "eta2": [float(v) for v in self.strategy.eta2],
            }
        else:
            strategy = self.strategy.value
        return {"kind": self.kind, "eta_bar": float(self.eta_bar), "strategy": strategy}

    @classmethod
    def from_dict(cls, data):
        raw = data.get("strategy", AdversaryStrategy.SIGN_FLIP.value)
        if isinstance(raw, dict):
            if raw.get("name") != "custom" or set(raw) - {"name", "eta1", "eta2"}:
                raise ValueError(f"unknown strategy object {raw!r}")
            strategy = DeviationTable(eta1=[_number(v) for v in raw["eta1"]],
                                      eta2=[_number(v) for v in raw["eta2"]])
        else:
            strategy = AdversaryStrategy(raw)
        return cls(eta_bar=_number(data["eta_bar"]), strategy=strategy)


@dataclass(frozen=True)
class Gaussian(NoiseModel):
    """Deviations ~ N(0, sigma^2), drawn once per run and then fixed."""

    sigma: float

    kind = "gaussian"

    def __post_init__(self):
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")

    def scale(self, ks: np.ndarray):
        """Standard deviation of the deviations at the times ks: sigma."""
        return float(self.sigma)

    def draw_run_noise(self, ks, rng, size=None):
        """Independent normal deviations at the times ``ks``, scaled by
        :meth:`scale`, in the array they are drawn into: (2, len(ks)) for one
        run, (size, 2, len(ks)) for ``size`` runs.  Normals are consumed run
        by run: eta1 at every time, then eta2."""
        ks = np.asarray(ks)
        if ks.ndim != 1:
            raise ValueError("run noise needs a 1-d array of times")
        shape = (2, ks.size) if size is None else (int(size), 2, ks.size)
        eta = rng.standard_normal(shape)
        with np.errstate(over="ignore"):  # inf, which the sampler's finiteness check refuses
            eta *= self.scale(ks)
        return eta


@dataclass(frozen=True)
class GaussianLinear(Gaussian):
    """Gaussian variant with depth-proportional scale sigma_k = k * sigma
    (error accumulating with circuit depth; no sample-count guarantee is
    claimed for it)."""

    kind = "gaussian_linear"

    def scale(self, ks):
        """Standard deviation of the deviations at the times ks: k * sigma,
        inf where it overflows, which the caller's finiteness check refuses."""
        with np.errstate(over="ignore"):
            return self.sigma * ks


@dataclass(frozen=True)
class Dephasing(NoiseModel):
    """Exponential bias decay exp(-k/T2), equivalently eta1[k] =
    (exp(-k/T2) - 1) cos(k theta); t2 counts applications of the controlled
    unitary (one unit = one power of it)."""

    t2: float

    kind = "dephasing"

    def __post_init__(self):
        if math.isnan(self.t2) or not self.t2 > 0.0:
            raise ValueError(f"t2 must be > 0, got {self.t2!r}")

    def biases(self, cos_k, sin_k, ks):
        with np.errstate(over="ignore"):  # k / T2 = inf decays to 0, its limit
            decay = np.exp(-ks / self.t2)
        return decay * cos_k, decay * sin_k

    def envelope(self, grid_size):
        """1 - exp(-K/T2), taking k = K inclusive as a conservative cap."""
        return float(-math.expm1(-grid_size / self.t2))


@dataclass(frozen=True)
class HighCoherence(NoiseModel):
    """A drift of +k/T2 on both biases at time k, whatever theta is.  It is
    not linearized dephasing, (1 - k/T2) cos(k theta); the certificate reads
    only the envelope K/T2, which bounds the drift."""

    t2: float

    kind = "high_coherence"

    def __post_init__(self):
        if math.isnan(self.t2) or not self.t2 > 0.0:
            raise ValueError(f"t2 must be > 0, got {self.t2!r}")

    def biases(self, cos_k, sin_k, ks):
        # a drift that overflows is inf, which the caller's finiteness check refuses
        with np.errstate(over="ignore"):
            drift = ks / self.t2
        return cos_k + drift, sin_k + drift

    def envelope(self, grid_size):
        return float(grid_size / self.t2)


# Wire-format kind -> model class.
MODELS = {cls.kind: cls
          for cls in (Ideal, Ban, Gaussian, GaussianLinear, Dephasing, HighCoherence)}


def biases_at(model: NoiseModel, theta, ks: np.ndarray,
              run_noise: Optional[np.ndarray] = None):
    """Unclamped biases at the 1-d times ``ks`` for the phases ``theta``,
    which broadcast against ``ks``: one phase for every time, one phase per
    time, or a column of B phases for (B, len(ks)) biases.  They are the
    model's :meth:`~NoiseModel.biases` plus ``run_noise``, an array from
    ``draw_run_noise`` at ``ks``, if given; None adds no run noise, which
    gives a Gaussian model its mean biases."""
    phase = ks * theta
    bx, by = model.biases(np.cos(phase), np.sin(phase), ks)
    if run_noise is None:
        return bx, by
    if run_noise.shape[-2:] != (2, len(ks)):
        raise ValueError(f"run noise of shape {run_noise.shape} is not aligned "
                         f"with {len(ks)} times")
    return bx + run_noise[..., 0, :], by + run_noise[..., 1, :]


# --- JSON wire format -------------------------------------------------------
#
# {"kind": "ideal"}
# {"kind": "ban", "eta_bar": 0.05, "strategy": "sign_flip"}
# {"kind": "ban", "eta_bar": 0.05,
#  "strategy": {"name": "custom", "eta1": [...], "eta2": [...]}}
# {"kind": "gaussian", "sigma": 0.1}
# {"kind": "gaussian_linear", "sigma": 0.01}
# {"kind": "dephasing", "t2": 100.0}
# {"kind": "high_coherence", "t2": 1000.0}
# Unknown keys are refused (a custom strategy has only name, eta1 and eta2),
# and so is anything but a finite int or float where a number belongs.

def _number(value) -> float:
    """A wire-format number as a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def noise_from_dict(data: dict) -> NoiseModel:
    """Parse the JSON wire format back into a noise model."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError('noise JSON must be an object with a "kind" field')
    kind = data["kind"]
    model_class = MODELS.get(kind) if isinstance(kind, str) else None
    if model_class is None:
        raise ValueError(f"unknown noise kind {kind!r}")
    if unknown := set(data) - {"kind", *(f.name for f in fields(model_class))}:
        raise ValueError(f"unknown keys for noise kind {kind!r}: {sorted(map(str, unknown))}")
    try:
        return model_class.from_dict(data)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed noise JSON for kind {kind!r}: {exc}") from exc
