"""Delta encoding between shard checkpoints.

A :class:`~repro.cluster.shard.ShardCheckpoint` is dominated by append-only
and slowly-changing structures: the validated logs and client-operation
journals only grow at the tail, the balance maps touch a handful of keys per
epoch, and the broadcast instance tables churn a small active window.  The
structural diff here exploits exactly that:

* dicts diff per key (added / removed / changed-recursively),
* lists whose old value is a *prefix* of the new one ship only the appended
  suffix (the checkpoint streams' big win — every log is append-only),
* sets ship symmetric differences,
* dataclasses diff field-by-field,
* everything else is compared by equality and replaced wholesale.

``fold_value(old, diff_value(old, new))`` reconstructs a value *equal* to
``new``.  Container iteration order may differ from the live object's in one
corner — a dict key deleted and re-added between checkpoints sits at the end
of the live dict but keeps its old position under fold — but folding is
deterministic (independent folds of the same stream are equal, container
iteration order included) and every diff compares by equality, so
a fold-reconstructed baseline accepts exactly the same delta chain as the
live original.  The delta stream is a pure transport/measurement
optimisation: checkpoints fold to equal state whether shipped full or
incrementally, so nothing downstream of a fold can tell the difference —
the fingerprint-invariance harness pins that.

Folded values share unchanged substructure with their base.  That is safe
because checkpoints are frozen deep copies (see ``Shard.checkpoint``) and
every consumer either reads them or copies on restore; nothing mutates a
stored checkpoint in place.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.cluster.shard import ShardCheckpoint

# Delta tags.  A delta is always a tagged tuple produced here — state values
# are never handed through raw — so folding never has to guess.
_REPLACE = "replace"
_DICT = "dict"
_APPEND = "append"
_SET = "set"
_FIELDS = "fields"


def diff_value(old: Any, new: Any) -> Optional[Tuple]:
    """Structural diff turning ``old`` into ``new``; ``None`` means unchanged."""
    if old is new:
        return None
    if type(old) is not type(new):
        return (_REPLACE, new)
    if isinstance(old, dict):
        added = {key: value for key, value in new.items() if key not in old}
        removed = [key for key in old if key not in new]
        changed = {}
        for key, old_value in old.items():
            if key in new:
                delta = diff_value(old_value, new[key])
                if delta is not None:
                    changed[key] = delta
        if not added and not removed and not changed:
            return None
        return (_DICT, added, removed, changed)
    if isinstance(old, list):
        if len(new) >= len(old) and new[: len(old)] == old:
            suffix = new[len(old) :]
            if not suffix:
                return None
            return (_APPEND, suffix)
        return (_REPLACE, new)
    if isinstance(old, (set, frozenset)):
        added_items = [item for item in new if item not in old]
        removed_items = [item for item in old if item not in new]
        if not added_items and not removed_items:
            return None
        return (_SET, added_items, removed_items)
    if dataclasses.is_dataclass(old) and not isinstance(old, type):
        changed_fields = {}
        for field_ in dataclasses.fields(old):
            delta = diff_value(getattr(old, field_.name), getattr(new, field_.name))
            if delta is not None:
                changed_fields[field_.name] = delta
        if not changed_fields:
            return None
        return (_FIELDS, changed_fields)
    if old == new:
        return None
    return (_REPLACE, new)


def fold_value(old: Any, delta: Optional[Tuple]) -> Any:
    """Apply a :func:`diff_value` delta to ``old``, returning the new value."""
    if delta is None:
        return old
    tag = delta[0]
    if tag == _REPLACE:
        return delta[1]
    if tag == _DICT:
        _, added, removed, changed = delta
        result = dict(old)
        for key in removed:
            del result[key]
        for key, child in changed.items():
            result[key] = fold_value(result[key], child)
        result.update(added)
        return result
    if tag == _APPEND:
        return list(old) + list(delta[1])
    if tag == _SET:
        _, added_items, removed_items = delta
        result = set(old)
        result.difference_update(removed_items)
        result.update(added_items)
        return result
    if tag == _FIELDS:
        updates = {
            name: fold_value(getattr(old, name), child)
            for name, child in delta[1].items()
        }
        return dataclasses.replace(old, **updates)
    raise SimulationError(f"unknown checkpoint delta tag {tag!r}")


@dataclass
class CheckpointDelta:
    """One shard's checkpoint stream increment, as shipped over the pipe.

    ``base_sequence`` names the checkpoint this delta applies on top of (its
    simulator sequence counter, which strictly increases between
    checkpoints); a full checkpoint ships ``base_sequence = -1`` and a
    ``replace`` delta.  Folding onto a mismatched base is refused rather
    than silently producing a corrupt baseline.
    """

    index: int
    base_sequence: int
    sequence: int
    delta: Any


def checkpoint_delta(
    base: Optional[ShardCheckpoint], checkpoint: ShardCheckpoint
) -> CheckpointDelta:
    """Encode ``checkpoint`` as an increment over ``base`` (``None`` = full)."""
    if base is None:
        return CheckpointDelta(
            index=checkpoint.index,
            base_sequence=-1,
            sequence=checkpoint.sequence,
            delta=(_REPLACE, checkpoint),
        )
    if base.index != checkpoint.index:
        raise SimulationError(
            f"cannot delta shard {checkpoint.index} against shard {base.index}"
        )
    return CheckpointDelta(
        index=checkpoint.index,
        base_sequence=base.sequence,
        sequence=checkpoint.sequence,
        delta=diff_value(base, checkpoint),
    )


def fold_checkpoint(
    base: Optional[ShardCheckpoint], delta: CheckpointDelta
) -> ShardCheckpoint:
    """Reconstruct the full checkpoint a :func:`checkpoint_delta` described."""
    if delta.base_sequence == -1:
        folded = fold_value(None, delta.delta)
    else:
        if base is None or base.sequence != delta.base_sequence:
            have = "none" if base is None else f"sequence {base.sequence}"
            raise SimulationError(
                f"checkpoint delta for shard {delta.index} expects base sequence "
                f"{delta.base_sequence}, have {have}"
            )
        folded = fold_value(base, delta.delta)
    if folded is None or folded.index != delta.index or folded.sequence != delta.sequence:
        raise SimulationError(
            f"folded checkpoint for shard {delta.index} does not match its delta header"
        )
    return folded


def replayable_suffix(entries: List[Tuple], since: float) -> List[Tuple]:
    """The ``(kind, time, payload)`` command-log tail strictly after ``since``."""
    return [entry for entry in entries if entry[1] > since]
