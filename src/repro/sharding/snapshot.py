"""On-disk snapshot format for the sharded summary engine.

A snapshot is a directory:

.. code-block:: text

    <snapshot-dir>/
        manifest.json     # written LAST, atomically (tmp file + os.replace)
        partition.pkl     # pickled ShardPartitioner.export_state() dict
        factory.pkl       # pickled shard factory (absent if unpicklable)
        shard-0.pkl       # pickle.dumps(<shard 0's inner summary>)
        shard-1.pkl
        ...

The manifest carries a ``body`` (format version, engine configuration,
acknowledged item counts, and the file name + SHA-256 + size of every
payload) plus a checksum of the canonical JSON encoding of that body.
Because the manifest is written last and replaced atomically, a snapshot
interrupted at any point is detectable: either the manifest is missing /
torn (bad JSON, bad body checksum) or a payload it names fails its SHA-256
— both refuse to load with a typed :class:`~repro.errors.SnapshotError`
whose message names the offending file (for shard payloads, the shard).

All functions here are pure filesystem/format helpers; engine-level
orchestration (quiescing workers, serializing shard state, validating
configuration compatibility) lives in
:meth:`~repro.sharding.ShardedSummary.snapshot` and friends.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from typing import Any, Callable, Dict, List, Optional

from ..core.config import SHARD_PARTITION_MODES, ShardingConfig
from ..errors import SnapshotError

#: Name of the manifest file inside a snapshot directory.
MANIFEST_NAME = "manifest.json"

#: Name of the pickled partitioner-state file inside a snapshot directory.
PARTITION_NAME = "partition.pkl"

#: Name of the pickled shard-factory file inside a snapshot directory.
FACTORY_NAME = "factory.pkl"

#: Current snapshot format version; bumped on incompatible layout changes.
#: Version 2: HIGGS internal nodes pickle exact key maps, not a matrix.
#: Version 3: HIGGS leaves pickle exact key maps too, and internal nodes
#: drop their fingerprint and vertex widths.
FORMAT_VERSION = 3

#: A payload checksum as the manifest records it (``hexdigest()`` form).
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


def shard_payload_name(shard: int) -> str:
    """File name of shard ``shard``'s pickled summary payload."""
    return f"shard-{shard}.pkl"


def _sha256(data: bytes) -> str:
    """Hex SHA-256 of ``data``."""
    return hashlib.sha256(data).hexdigest()


def _body_checksum(body: Dict[str, Any]) -> str:
    """Checksum of the manifest body over its canonical JSON encoding."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return _sha256(canonical.encode("utf-8"))


def _write_payload(directory: str, name: str, data: bytes) -> Dict[str, Any]:
    """Write one payload file and return its manifest entry."""
    with open(os.path.join(directory, name), "wb") as handle:
        handle.write(data)
    return {"file": name, "sha256": _sha256(data), "bytes": len(data)}


def _read_payload(directory: str, entry: Dict[str, Any], *, what: str) -> bytes:
    """Read one payload named by a manifest ``entry`` and verify its hash.

    Raises
    ------
    SnapshotError
        When the file is missing or its SHA-256 does not match the
        manifest; the message names ``what`` (e.g. ``"shard 2"``).
    """
    path = os.path.join(directory, entry["file"])
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SnapshotError(
            f"snapshot payload for {what} is missing or unreadable: "
            f"{path} ({exc})") from exc
    if _sha256(data) != entry["sha256"]:
        raise SnapshotError(
            f"snapshot payload for {what} is corrupt: checksum mismatch on "
            f"{path} (expected {entry['sha256'][:12]}…, "
            f"got {_sha256(data)[:12]}…)")
    return data


def write_snapshot(directory: str, *, config: ShardingConfig,
                   partitioner_state: Dict[str, Any],
                   payloads: List[bytes], shard_items: List[int],
                   factory: Optional[Callable[[], Any]] = None
                   ) -> Dict[str, Any]:
    """Write a complete snapshot into ``directory`` and return its body.

    Payload files are written first, the manifest last (via a temporary
    file renamed with :func:`os.replace`), so a crash mid-write never
    leaves a loadable-but-wrong snapshot: either the manifest is absent /
    torn or some checksum disagrees.  An existing snapshot in the same
    directory is overwritten only once the new manifest lands, so the
    previous snapshot stays loadable until the new one is complete —
    unless a stale payload file survives with a new manifest, which the
    checksums catch.

    The ``factory`` is pickled alongside the payloads when possible so
    :meth:`~repro.sharding.ShardedSummary.restore` can rebuild workers
    without the caller re-supplying it; an unpicklable factory (lambda,
    closure) is simply omitted and restore then requires an explicit
    ``factory=``.

    Raises
    ------
    SnapshotError
        When the directory cannot be created or a file cannot be written.
    """
    try:
        os.makedirs(directory, exist_ok=True)
        shards = []
        for shard, (payload, items) in enumerate(
                zip(payloads, shard_items, strict=True)):
            entry = _write_payload(directory, shard_payload_name(shard), payload)
            try:
                entry["items"] = int(items)
            except (TypeError, ValueError) as exc:
                raise SnapshotError(
                    f"shard {shard} items count {items!r} is not an "
                    f"integer") from exc
            shards.append(entry)
        partition_entry = _write_payload(
            directory, PARTITION_NAME,
            pickle.dumps(partitioner_state, pickle.HIGHEST_PROTOCOL))
        factory_entry = None
        if factory is not None:
            try:
                factory_blob = pickle.dumps(factory, pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, AttributeError, TypeError):
                factory_blob = None
            if factory_blob is not None:
                factory_entry = _write_payload(directory, FACTORY_NAME,
                                               factory_blob)
        body = {
            "format_version": FORMAT_VERSION,
            "num_shards": config.num_shards,
            "partition_by": config.partition_by,
            "hash_seed": config.hash_seed,
            "batch_size": config.batch_size,
            "executor": config.executor,
            "items_total": int(sum(shard_items)),
            "shards": shards,
            "partition": partition_entry,
            "factory": factory_entry,
        }
        manifest = {"format_version": FORMAT_VERSION, "body": body,
                    "checksum": _body_checksum(body)}
        tmp_path = os.path.join(directory, MANIFEST_NAME + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        os.replace(tmp_path, os.path.join(directory, MANIFEST_NAME))
    except OSError as exc:
        raise SnapshotError(
            f"cannot write snapshot to {directory!r}: {exc}") from exc
    return body


def _check_payload_entry(entry: Any, what: str, path: str) -> None:
    """Raise :class:`SnapshotError` unless ``entry`` names one payload: a
    plain file name inside the snapshot directory and its SHA-256 digest."""
    if not isinstance(entry, dict):
        raise SnapshotError(
            f"snapshot manifest at {path} is torn: the entry for {what} is "
            f"{entry!r}, expected an object")
    name = entry.get("file")
    if not isinstance(name, str) or name in ("", ".", "..") \
            or os.path.basename(name) != name or "\0" in name:
        raise SnapshotError(
            f"snapshot manifest at {path} is torn: {what} names file "
            f"{name!r}, expected a plain file name")
    digest = entry.get("sha256")
    if not isinstance(digest, str) or not _SHA256_HEX.fullmatch(digest):
        raise SnapshotError(
            f"snapshot manifest at {path} is torn: {what} has sha256 "
            f"{digest!r}, expected 64 lowercase hex digits")


def read_manifest(directory: str) -> Dict[str, Any]:
    """Read, validate, and return the manifest body of a snapshot.

    Raises
    ------
    SnapshotError
        When the manifest is missing, torn (invalid JSON, a body that is
        not an object, missing keys, malformed or out-of-range integer
        fields, an unknown ``partition_by``, a payload entry without a
        plain file name and a SHA-256 digest), from an unknown format
        version, or when the body's checksum does not match (a torn or
        tampered manifest).  The recorded ``executor`` is not checked
        here: only :meth:`~repro.sharding.ShardedSummary.restore` uses it,
        and a caller may override it there.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise SnapshotError(
            f"no snapshot manifest at {path} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"snapshot manifest at {path} is torn: invalid JSON "
            f"({exc})") from exc
    if not isinstance(manifest, dict) or "body" not in manifest \
            or "checksum" not in manifest:
        raise SnapshotError(
            f"snapshot manifest at {path} is torn: missing body/checksum")
    body = manifest["body"]
    if not isinstance(body, dict):
        raise SnapshotError(
            f"snapshot manifest at {path} is torn: its body is not an "
            f"object ({type(body).__name__})")
    if _body_checksum(body) != manifest["checksum"]:
        raise SnapshotError(
            f"snapshot manifest at {path} is corrupt: body checksum mismatch")
    if body.get("format_version") != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot at {directory!r} has format version "
            f"{body.get('format_version')!r}; this build reads version "
            f"{FORMAT_VERSION}")
    shards = body.get("shards")
    if not isinstance(shards, list) or len(shards) != body.get("num_shards"):
        raise SnapshotError(
            f"snapshot manifest at {path} is torn: names "
            f"{len(shards) if isinstance(shards, list) else 0} shard "
            f"payloads for {body.get('num_shards')} shards")
    # Schema validation: the engine consumes these fields without further
    # coercion, so a checksummed-but-malformed manifest (hand-edited, or
    # written by a skewed version) must die here as SnapshotError instead
    # of surfacing from the engine as ValueError/TypeError (ERR002) or as
    # ConfigurationError, or restoring with wrong loss accounting.
    for field in ("num_shards", "batch_size", "hash_seed"):
        if not isinstance(body.get(field), int) or \
                isinstance(body.get(field), bool):
            raise SnapshotError(
                f"snapshot manifest at {path} is torn: {field!r} is "
                f"{body.get(field)!r}, expected an integer")
    for field in ("num_shards", "batch_size"):
        if body[field] < 1:
            raise SnapshotError(
                f"snapshot manifest at {path} is torn: {field!r} is "
                f"{body[field]!r}, expected at least 1")
    if body.get("partition_by") not in SHARD_PARTITION_MODES:
        raise SnapshotError(
            f"snapshot manifest at {path} is torn: 'partition_by' is "
            f"{body.get('partition_by')!r}, expected one of "
            f"{SHARD_PARTITION_MODES}")
    for shard, entry in enumerate(shards):
        _check_payload_entry(entry, f"shard {shard}", path)
        items = entry.get("items")
        if not isinstance(items, int) or isinstance(items, bool) or items < 0:
            raise SnapshotError(
                f"snapshot manifest at {path} is torn: shard {shard} has "
                f"items count {items!r}, expected a non-negative integer")
    _check_payload_entry(body.get("partition"), "the partitioner", path)
    if body.get("factory") is not None:
        _check_payload_entry(body["factory"], "the shard factory", path)
    return body


def read_shard_payload(directory: str, body: Dict[str, Any], shard: int) -> bytes:
    """Read and checksum-verify one shard's pickled payload.

    Raises
    ------
    SnapshotError
        When the payload is missing or corrupt; the message names the shard.
    """
    return _read_payload(directory, body["shards"][shard],
                         what=f"shard {shard}")


def read_partitioner_state(directory: str, body: Dict[str, Any]) -> Dict[str, Any]:
    """Read the pickled partitioner-state dict of a snapshot.

    Raises
    ------
    SnapshotError
        When the file is missing, corrupt, or not a pickled dict.
    """
    blob = _read_payload(directory, body["partition"],
                         what="the partitioner")
    try:
        state = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - re-typed as SnapshotError
        raise SnapshotError(
            f"snapshot partitioner state in {directory!r} does not "
            f"unpickle: {exc}") from exc
    if not isinstance(state, dict):
        raise SnapshotError(
            f"snapshot partitioner state in {directory!r} is not a dict")
    return state


def read_factory(directory: str, body: Dict[str, Any]) -> Optional[Callable[[], Any]]:
    """Read the pickled shard factory, or ``None`` if none was stored.

    Raises
    ------
    SnapshotError
        When a stored factory file is missing, corrupt, or fails to
        unpickle (e.g. its class moved between writer and reader).
    """
    entry = body.get("factory")
    if entry is None:
        return None
    blob = _read_payload(directory, entry, what="the shard factory")
    try:
        return pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - re-typed as SnapshotError
        raise SnapshotError(
            f"snapshot shard factory in {directory!r} does not unpickle: "
            f"{exc}") from exc
