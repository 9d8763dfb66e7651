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

from .errors import DimensionError, SettingError, ValidationError

HERM_TOL = 1e-12  # hermiticity tolerance of every H(q), relative to its largest entry
# a density matrix: hermitian within this relative to its largest entry (at
# least 1), trace 1 and eigenvalues down to minus this; a distribution sums to 1
DENSITY_TOL = 1e-10

__all__ = [
    "FeedbackModel",
    "check_density",
    "check_distribution",
    "check_grid",
    "check_hermitian",
    "check_positive",
    "feedback_model",
    "jump_rate_table",
    "label_table",
    "loss_matrices",
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


def loss_matrices(jump_ops, silent_ops):
    """Loss W(q) = sum_k L_k(q)^dag L_k(q) over monitored, then silent channels.

    ``jump_ops`` is ``(..., m, m, d, d)`` and ``silent_ops`` ``(..., s, m,
    d, d)``, as in :class:`FeedbackModel`, with any leading stack axes; the
    result is ``(..., m, d, d)``, indexed by the memory value q.
    """
    monitored, silent = (
        np.einsum("...kqij,...kqil->...qjl", ops.conj(), ops) for ops in (jump_ops, silent_ops)
    )
    return monitored + silent


def jump_rate_table(jump_ops, blocks):
    """Tr[L_k(q) rho(q) L_k(q)^dag] of every member of a stack, ``(P, m, m)``.

    ``jump_ops`` is ``(P, m, m, d, d)``, as in :class:`FeedbackModel` with a
    stack axis, and ``blocks`` ``(P, m, d, d)``.  Entry [z, k, q] is complex
    as computed; callers take the real part or weight and check it.
    """
    return np.einsum("zkqab,zqbc,zkqac->zkq", jump_ops, blocks, jump_ops.conj())


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

    def by_memory(entry, what):
        """(m, d, d) in memory order from a :func:`label_table` or one operator for all."""
        if not isinstance(entry, dict) and np.shape(entry) == (dim, dim):
            entry = dict.fromkeys(channels, entry)
        return label_table(entry, channels, what, (dim, dim), complex)

    hams = by_memory(hamiltonians, "hamiltonians")
    if not isinstance(jump_ops, dict):
        raise ValidationError("jump_ops must be a mapping keyed by channel label")
    jump_table = {str(k): v for k, v in jump_ops.items()}
    if set(jump_table) != set(channels):
        raise ValidationError(
            f"jump_ops keys {sorted(jump_table)} differ from the channels {sorted(channels)}"
        )
    silent_table = {str(k): v for k, v in (silent_ops or {}).items()}
    silent_labels = tuple(silent_table)

    return FeedbackModel(
        dim=dim,
        channels=channels,
        hamiltonians=hams,
        jump_ops=[by_memory(jump_table[c], f"jump operator {c!r}") for c in channels],
        silent_labels=silent_labels,
        silent_ops=[by_memory(silent_table[s], f"silent operator {s!r}") for s in silent_labels]
        or None,
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
    # written so that NaN fails too
    failed = ~(skew <= HERM_TOL * scale)
    if failed.any():
        raise ValidationError(f"H({channels[np.argmax(failed) % len(channels)]}) is not hermitian")


def label_table(table, labels, what, entry_shape=(), dtype=float):
    """``table`` as a ``(len(labels), *entry_shape)`` array in label order.

    ``table`` is either a mapping keyed by label, whose unknown keys raise
    :class:`ValidationError` and whose missing labels are zero, or an array
    already in label order.  A wrong shape raises :class:`DimensionError`;
    ``what`` names the table in messages.
    """
    shape = (len(labels), *entry_shape)
    if not isinstance(table, dict):
        out = np.array(table, dtype=dtype)
        if out.shape != shape:
            raise DimensionError(f"{what} has shape {out.shape}, expected {shape}")
        return out
    keyed = {str(k): v for k, v in table.items()}
    unknown = set(keyed) - set(labels)
    if unknown:
        raise ValidationError(f"{what} has unknown labels {sorted(unknown)}")
    out = np.zeros(shape, dtype=dtype)
    for i, label in enumerate(labels):
        if label in keyed:
            entry = np.asarray(keyed[label], dtype=dtype)
            if entry.shape != entry_shape:
                raise DimensionError(
                    f"{what} entry {label!r} has shape {entry.shape}, expected {entry_shape}"
                )
            out[i] = entry
    return out


def check_grid(values, what, non_negative=False, non_decreasing=False):
    """``values`` as a float array once it is a grid: non-empty, 1-d and finite.

    ``non_negative`` (True, or the reason the message gives in parentheses)
    and ``non_decreasing`` add the caller's bounds.  The first rule that
    fails raises :class:`ValidationError`; ``what`` names the grid.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or not len(v):
        raise ValidationError(f"{what} must be a non-empty 1-d array")
    # written so that NaN fails too
    if not np.isfinite(v).all():
        raise ValidationError(f"{what} must be finite")
    if non_negative and v.min() < 0:
        reason = f" ({non_negative})" if isinstance(non_negative, str) else ""
        raise ValidationError(f"{what} must be non-negative{reason}")
    if non_decreasing and (np.diff(v) < 0).any():
        raise ValidationError(f"{what} must be non-decreasing")
    return v


def check_positive(value, what):
    """``value`` once > 0 (else "<what> must be positive") and finite ("... must be
    finite"); the error is a :class:`SettingError` of ``what``."""
    if value <= 0:
        raise SettingError(what, "must be positive")
    # written so that NaN fails too
    if not value < np.inf:
        raise SettingError(what, "must be finite")
    return value


def check_distribution(p, what):
    """``p`` if non-negative and summing to 1 within ``DENSITY_TOL``; NaN fails."""
    if not ((p >= 0.0).all() and abs(p.sum() - 1.0) <= DENSITY_TOL):
        raise ValidationError(
            f"{what} is not a probability distribution: entries must be non-negative "
            f"and sum to 1 within {DENSITY_TOL:g}"
        )
    return p


def check_density(
    blocks, what, labels=None, eig_tol=DENSITY_TOL, error=ValidationError, computed=False
):
    """Hermitized blocks 0.5 (b + b^dag) of ``(n, m, d, d)``, n states of m blocks, once checked.

    For the first failing state, a non-finite entry or an eigenvalue below
    ``-eig_tol`` raises ``error``; so do, unless the states are ``computed``
    (evolved or stationary, whose round-off grows with the conditioning), a
    block not hermitian within ``DENSITY_TOL`` relative to max(1, its
    largest entry) or block traces not summing to 1 within ``DENSITY_TOL``,
    as :class:`ValidationError`.  ``what`` names the states, a string or a
    function of the state index, and ``labels``, if given, the blocks.
    """
    b = np.asarray(blocks, dtype=complex)
    name = what if callable(what) else (lambda i: what)
    finite = np.isfinite(b).all(axis=(1, 2, 3))
    if not finite.all():
        raise error(f"{name(np.argmin(finite))} has non-finite entries")
    bh = b.conj().swapaxes(-2, -1)
    if not computed:
        scale = np.maximum(1.0, np.abs(b).max(axis=(-2, -1)))
        hermitian = (np.abs(b - bh).max(axis=(-2, -1)) <= DENSITY_TOL * scale).all(axis=1)
        if not hermitian.all():
            raise ValidationError(f"{name(np.argmin(hermitian))} is not hermitian")
        unit = np.abs(np.einsum("nkii->n", b).real - 1.0) <= DENSITY_TOL
        if not unit.all():
            raise ValidationError(f"{name(np.argmin(unit))} is not unit trace")
    herm = 0.5 * (b + bh)
    low = np.linalg.eigvalsh(herm).min(axis=-1)
    failed = low < -eig_tol
    if failed.any():
        i, k = np.unravel_index(np.argmax(failed), failed.shape)
        detail = "" if labels is None else (
            f": block {labels[k]!r} has eigenvalue {low[i, k]:.3e} below -{eig_tol:g}"
        )
        raise error(f"{name(i)} is not positive semidefinite{detail}")
    return herm


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
