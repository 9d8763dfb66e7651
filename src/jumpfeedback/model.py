"""Feedback models conditioned on the last detected jump.

A :class:`FeedbackModel` holds, for a finite channel alphabet, the
memory-conditioned Hamiltonians H(k) and jump operators L_k(q): the operator
applied when channel k fires while the memory reads q.  After a monitored
jump the memory is set to the fired channel; an optional set of *silent*
channels acts conditioned on the memory without updating it (and is never
counted).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError

HERM_TOL = 1e-12  # hermiticity tolerance of every H(q), relative to its largest entry

__all__ = [
    "FeedbackModel",
    "check_hermitian",
    "feedback_model",
    "validate",
    "no_feedback",
]


def _canonical_ops(arr, shape, name):
    """A read-only complex copy, so that the model never aliases the caller's array."""
    a = np.array(arr, dtype=complex, order="C")
    if a.shape != shape:
        raise DimensionError(f"{name} has shape {a.shape}, expected {shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FeedbackModel:
    """Jump-conditioned feedback model on a d-dimensional system.

    Construction copies the arrays into read-only complex arrays and runs
    :func:`validate`, so every instance has consistent shapes, unique
    labels and hermitian H(q), and keeps them.

    Attributes
    ----------
    dim : int
        Hilbert-space dimension.
    channels : tuple of str
        Labels of the monitored channels; the memory alphabet.
    hamiltonians : ndarray
        Shape ``(m, d, d)``; ``hamiltonians[q]`` applies while the memory
        reads channel ``q``.
    jump_ops : ndarray
        Shape ``(m, m, d, d)``; ``jump_ops[k, q]`` is L_k(q), the operator of
        channel ``k`` while the memory reads ``q``.  Zero operators are
        legitimate entries.
    silent_labels : tuple of str
        Labels of unmonitored channels (may be empty).  Silent channels fire
        conditioned on the memory but leave it unchanged and carry no
        counting weight.
    silent_ops : ndarray
        Shape ``(s, m, d, d)``; ``silent_ops[j, q]`` acts while the memory
        reads ``q``.
    """

    dim: int
    channels: tuple
    hamiltonians: np.ndarray
    jump_ops: np.ndarray
    silent_labels: tuple = ()
    silent_ops: np.ndarray = None

    def __post_init__(self):
        m, d, s = len(self.channels), self.dim, len(self.silent_labels)
        silent = np.zeros((0, m, d, d)) if self.silent_ops is None else self.silent_ops
        canonical = {
            "channels": tuple(str(c) for c in self.channels),
            "silent_labels": tuple(str(c) for c in self.silent_labels),
            "hamiltonians": _canonical_ops(self.hamiltonians, (m, d, d), "hamiltonians"),
            "jump_ops": _canonical_ops(self.jump_ops, (m, m, d, d), "jump_ops"),
            "silent_ops": _canonical_ops(silent, (s, m, d, d), "silent_ops"),
        }
        for name, value in canonical.items():
            object.__setattr__(self, name, value)
        validate(self)

    @property
    def n_channels(self):
        return len(self.channels)

    def channel_index(self, label):
        try:
            return self.channels.index(str(label))
        except ValueError:
            raise ValidationError(f"unknown channel label {label!r}") from None

    def loss_operator(self, q):
        """sum_k L_k(q)^dag L_k(q) over all channels (silent included)."""
        ops = self.jump_ops[:, q]
        w = np.einsum("kij,kil->jl", ops.conj(), ops)
        if len(self.silent_ops):
            sops = self.silent_ops[:, q]
            w = w + np.einsum("kij,kil->jl", sops.conj(), sops)
        return w


def feedback_model(dim, channels, hamiltonians, jump_ops, silent_ops=None):
    """Build a :class:`FeedbackModel` from label-keyed mappings.

    Parameters
    ----------
    dim : int
    channels : sequence of str
        Channel labels in alphabet order.
    hamiltonians : mapping or ndarray
        Either ``{memory_label: H}`` or a single H shared by all memory
        values, or an ``(m, d, d)`` array.
    jump_ops : mapping
        ``{channel_label: L}`` for memory-independent operators, or
        ``{channel_label: {memory_label: L}}`` for conditioned ones.
        Missing memory labels in the inner mapping default to the zero
        operator.
    silent_ops : mapping, optional
        Same layout as ``jump_ops`` for unmonitored channels; labels must
        not collide with ``channels``.
    """
    channels = tuple(str(c) for c in channels)
    m = len(channels)

    def by_memory(entry, what):
        """(m, d, d) from ``{memory_label: op}`` (missing labels zero) or one entry for all."""
        out = np.zeros((m, dim, dim), dtype=complex)
        if not isinstance(entry, dict):
            out[:] = entry
            return out
        table = {str(k): v for k, v in entry.items()}
        unknown = set(table) - set(channels)
        if unknown:
            raise ValidationError(f"{what} unknown labels {sorted(unknown)}")
        for q, label in enumerate(channels):
            if label in table:
                out[q] = table[label]
        return out

    shape = np.shape(hamiltonians)
    if not isinstance(hamiltonians, dict) and shape not in ((dim, dim), (m, dim, dim)):
        raise DimensionError(f"hamiltonians shape {shape} not understood")
    hams = by_memory(hamiltonians, "hamiltonians keyed by")
    if not isinstance(jump_ops, dict):
        raise ValidationError("jump_ops must be a mapping keyed by channel label")
    jump_table = {str(k): v for k, v in jump_ops.items()}
    missing = set(channels) - set(jump_table)
    if missing:
        raise ValidationError(f"jump_ops missing channels {sorted(missing)}")
    unknown = set(jump_table) - set(channels)
    if unknown:
        raise ValidationError(f"jump_ops has unknown channels {sorted(unknown)}")
    silent_table = {str(k): v for k, v in (silent_ops or {}).items()}
    silent_labels = tuple(silent_table)

    return FeedbackModel(
        dim=dim,
        channels=channels,
        hamiltonians=hams,
        jump_ops=[by_memory(jump_table[c], f"jump operator {c!r} conditioned on") for c in channels],
        silent_labels=silent_labels,
        silent_ops=[
            by_memory(silent_table[s], f"silent operator {s!r} conditioned on") for s in silent_labels
        ] or None,
    )


def validate(model):
    """Check labels and hermiticity; return the model unchanged.

    Every :class:`FeedbackModel` runs this on construction.  Requires at
    least one monitored channel, unique labels, silent labels apart from
    the channels, and every H(q) hermitian to ``HERM_TOL`` relative to its
    largest entry (at least 1).
    """
    channels, silent = model.channels, model.silent_labels
    if not channels:
        raise ValidationError("at least one monitored channel is required")
    if len(set(channels)) != len(channels):
        raise ValidationError("duplicate channel labels")
    collide = set(silent) & set(channels)
    if collide:
        raise ValidationError(f"silent labels collide with channels: {sorted(collide)}")
    if len(set(silent)) != len(silent):
        raise ValidationError("duplicate silent labels")
    check_hermitian(model.hamiltonians, channels)
    return model


def check_hermitian(h, channels):
    """Raise unless every H(q) of ``h``, one model's or a stack's ``(..., m, d, d)``, is hermitian."""
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    skew = np.abs(h - h.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    failed = skew > HERM_TOL * scale
    if failed.any():
        raise ValidationError(f"H({channels[np.argmax(failed) % len(channels)]}) is not hermitian")


def no_feedback(h, jump_ops, labels=None):
    """Wrap an ordinary Lindblad system as a (trivial) feedback model.

    Every memory value gets the same Hamiltonian and the same jump
    operators, so the hybrid construction reduces to the plain master
    equation after marginalization.
    """
    jump_ops = list(jump_ops)
    if labels is None:
        labels = tuple(f"c{k}" for k in range(len(jump_ops)))
    if len(labels) != len(jump_ops):
        raise ValidationError("labels and jump_ops differ in length")
    h = np.asarray(h, dtype=complex)
    return feedback_model(
        dim=h.shape[0],
        channels=labels,
        hamiltonians=h,
        jump_ops={str(label): op for label, op in zip(labels, jump_ops)},
    )
