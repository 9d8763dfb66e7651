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

__all__ = [
    "FeedbackModel",
    "feedback_model",
    "validate",
    "no_feedback",
]


def _canonical_ops(arr, shape, name):
    a = np.ascontiguousarray(np.asarray(arr, dtype=complex))
    if a.shape != shape:
        raise DimensionError(f"{name} has shape {a.shape}, expected {shape}")
    return a


@dataclass(frozen=True)
class FeedbackModel:
    """Jump-conditioned feedback model on a d-dimensional system.

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
        m, d = len(self.channels), self.dim
        object.__setattr__(self, "channels", tuple(str(c) for c in self.channels))
        object.__setattr__(self, "silent_labels", tuple(str(c) for c in self.silent_labels))
        object.__setattr__(
            self, "hamiltonians", _canonical_ops(self.hamiltonians, (m, d, d), "hamiltonians")
        )
        object.__setattr__(
            self, "jump_ops", _canonical_ops(self.jump_ops, (m, m, d, d), "jump_ops")
        )
        s = len(self.silent_labels)
        if self.silent_ops is None:
            object.__setattr__(self, "silent_ops", np.zeros((0, m, d, d), dtype=complex))
        else:
            object.__setattr__(
                self, "silent_ops", _canonical_ops(self.silent_ops, (s, m, d, d), "silent_ops")
            )
        if len(self.silent_ops) != s:
            raise DimensionError("silent_ops does not match silent_labels")

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
    """Build a validated :class:`FeedbackModel` from label-keyed mappings.

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
    if len(set(channels)) != m:
        raise ValidationError("duplicate channel labels")
    if m == 0:
        raise ValidationError("at least one monitored channel is required")

    hams = np.zeros((m, dim, dim), dtype=complex)
    if isinstance(hamiltonians, dict):
        unknown = set(map(str, hamiltonians)) - set(channels)
        if unknown:
            raise ValidationError(f"hamiltonians keyed by unknown labels {sorted(unknown)}")
        for q, label in enumerate(channels):
            if str(label) in {str(k) for k in hamiltonians}:
                hams[q] = np.asarray(
                    next(v for k, v in hamiltonians.items() if str(k) == label), dtype=complex
                )
    else:
        arr = np.asarray(hamiltonians, dtype=complex)
        if arr.shape == (dim, dim):
            hams[:] = arr
        elif arr.shape == (m, dim, dim):
            hams = arr.astype(complex)
        else:
            raise DimensionError(f"hamiltonians shape {arr.shape} not understood")

    def expand(table, labels, what):
        out = np.zeros((len(labels), m, dim, dim), dtype=complex)
        for i, label in enumerate(labels):
            entry = table[label]
            if isinstance(entry, dict):
                unknown = set(map(str, entry)) - set(channels)
                if unknown:
                    raise ValidationError(
                        f"{what} {label!r} conditioned on unknown labels {sorted(unknown)}"
                    )
                for q, mem in enumerate(channels):
                    for k, v in entry.items():
                        if str(k) == mem:
                            out[i, q] = np.asarray(v, dtype=complex)
            else:
                out[i, :] = np.asarray(entry, dtype=complex)
        return out

    if not isinstance(jump_ops, dict):
        raise ValidationError("jump_ops must be a mapping keyed by channel label")
    missing = set(channels) - set(map(str, jump_ops))
    if missing:
        raise ValidationError(f"jump_ops missing channels {sorted(missing)}")
    jump_table = {str(k): v for k, v in jump_ops.items()}
    unknown = set(jump_table) - set(channels)
    if unknown:
        raise ValidationError(f"jump_ops has unknown channels {sorted(unknown)}")
    jumps = expand(jump_table, channels, "jump operator")

    silent_labels = ()
    silents = None
    if silent_ops:
        silent_table = {str(k): v for k, v in silent_ops.items()}
        collide = set(silent_table) & set(channels)
        if collide:
            raise ValidationError(f"silent labels collide with channels: {sorted(collide)}")
        silent_labels = tuple(silent_table)
        silents = expand(silent_table, silent_labels, "silent operator")

    model = FeedbackModel(
        dim=dim,
        channels=channels,
        hamiltonians=hams,
        jump_ops=jumps,
        silent_labels=silent_labels,
        silent_ops=silents,
    )
    return validate(model)


def validate(model, herm_tol=1e-12):
    """Check structural consistency and return the model unchanged.

    Verifies hermiticity of every H(q), consistent dimensions and unique
    labels.
    """
    m = model.n_channels
    if len(set(model.channels)) != m:
        raise ValidationError("duplicate channel labels")
    if set(model.silent_labels) & set(model.channels):
        raise ValidationError("silent labels collide with monitored channels")
    if len(set(model.silent_labels)) != len(model.silent_labels):
        raise ValidationError("duplicate silent labels")
    for q, label in enumerate(model.channels):
        h = model.hamiltonians[q]
        scale = max(1.0, np.abs(h).max())
        if np.abs(h - h.conj().T).max() > herm_tol * scale:
            raise ValidationError(f"H({label}) is not hermitian")
    return model


def no_feedback(h, jump_ops, labels=None):
    """Wrap an ordinary Lindblad system as a (trivial) feedback model.

    Every memory value gets the same Hamiltonian and the same jump
    operators, so the hybrid construction reduces to the plain master
    equation after marginalization.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    jump_ops = [np.asarray(l, dtype=complex) for l in jump_ops]
    if labels is None:
        labels = tuple(f"c{k}" for k in range(len(jump_ops)))
    if len(labels) != len(jump_ops):
        raise ValidationError("labels and jump_ops differ in length")
    m = len(jump_ops)
    jumps = np.zeros((m, m, d, d), dtype=complex)
    for k, l in enumerate(jump_ops):
        jumps[k, :] = l
    model = FeedbackModel(
        dim=d,
        channels=tuple(labels),
        hamiltonians=np.broadcast_to(h, (m, d, d)).copy(),
        jump_ops=jumps,
    )
    return validate(model)
