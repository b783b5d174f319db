"""Sharded session bundles: one file holding every shard's snapshot.

A :class:`~repro.service.sharding.ShardedProtectionService` is K ordinary
sessions behind a router, and it persists as exactly that: one ``.tppsnap``
snapshot member per shard plus a JSON manifest recording the shard order,
the shared constant and the combined content hash.  The layout mirrors
session bundles (:mod:`repro.persistence.session`)::

    session.tppshards
    ├── manifest.json        {"kind": "sharded-session", "shards": [...]}
    ├── shard-0000.tppsnap   shard 0's index snapshot
    ├── shard-0001.tppsnap   ...
    └── shard-0002.tppsnap

Because each member is a self-contained snapshot, a replica can cold-start
the *whole* session (:func:`load_sharded_session`) or any *single* shard
(``load_sharded_session(path, shard=2)`` returns a plain
:class:`~repro.service.ProtectionService` over just that shard's targets)
— which is the multi-machine story: ship one bundle, each machine opens
its own shard.  Member timestamps are pinned, so saving the same session
twice produces byte-identical bundles.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional, Union

from repro.exceptions import ShardError, SnapshotFormatError, SnapshotMismatchError
from repro.persistence.snapshot import index_content_hash, save_snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.motifs.enumeration import TargetSubgraphIndex
    from repro.service.service import ProtectionService
    from repro.service.sharding import ShardedProtectionService

__all__ = [
    "SHARDED_SESSION_SUFFIX",
    "SHARDED_SESSION_VERSION",
    "combined_content_hash",
    "save_sharded_session",
    "load_sharded_session",
]

#: Conventional file suffix for sharded session bundles.
SHARDED_SESSION_SUFFIX = ".tppshards"

#: Bundle manifest format version (bump on incompatible layout changes).
SHARDED_SESSION_VERSION = 1

_MANIFEST_NAME = "manifest.json"
#: Fixed member timestamp: bundles must be byte-stable across re-saves.
_EPOCH = (1980, 1, 1, 0, 0, 0)


def combined_content_hash(indexes: Iterable["TargetSubgraphIndex"]) -> str:
    """Hash a whole shard layout: per-shard content hashes, in shard order.

    Shard order is part of the identity on purpose — the same targets
    dealt into a different layout serve different sub-requests, and a
    delta snapshot recorded against one layout must not silently apply to
    another.
    """
    digest = hashlib.sha256()
    for index in indexes:
        digest.update(index_content_hash(index).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def _write_member(archive: zipfile.ZipFile, name: str, data: bytes) -> None:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_DEFLATED
    archive.writestr(info, data)


def save_sharded_session(
    path: Union[str, Path], service: "ShardedProtectionService"
) -> Path:
    """Write a sharded session — one snapshot per shard — to a bundle.

    Parameters
    ----------
    path:
        Destination file (parent directories are created).  By convention
        sharded bundles use the ``.tppshards`` suffix.
    service:
        A live :class:`~repro.service.sharding.ShardedProtectionService`.
        Cached subset sub-sessions inside the shards are not persisted —
        they re-enumerate on demand, exactly like an unsharded session
        restored from a plain snapshot.

    Returns
    -------
    pathlib.Path
        The written path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    shards = service.shards
    with tempfile.TemporaryDirectory(prefix="tppshards-") as scratch:
        scratch_dir = Path(scratch)
        members: List[str] = []
        for position, shard in enumerate(shards):
            member = f"shard-{position:04d}.tppsnap"
            save_snapshot(
                scratch_dir / member, shard.index, shard.problem.constant
            )
            members.append(member)
        manifest = {
            "format_version": SHARDED_SESSION_VERSION,
            "kind": "sharded-session",
            "shards": members,
            "constant": service.constant,
            "content_hash": combined_content_hash(
                [shard.index for shard in shards]
            ),
            "targets_per_shard": [len(shard.targets) for shard in shards],
        }
        with zipfile.ZipFile(path, "w") as archive:
            _write_member(
                archive,
                _MANIFEST_NAME,
                json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
            )
            for member in members:
                _write_member(archive, member, (scratch_dir / member).read_bytes())
    return path


def _read_manifest(archive: zipfile.ZipFile, path: Path) -> dict:
    try:
        raw = archive.read(_MANIFEST_NAME)
    except KeyError:
        raise SnapshotFormatError(
            f"{path} is not a sharded session bundle: no {_MANIFEST_NAME} member"
        ) from None
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotFormatError(
            f"{path}: corrupted bundle manifest ({error})"
        ) from None
    if not isinstance(manifest, dict) or manifest.get("kind") != "sharded-session":
        raise SnapshotFormatError(
            f"{path}: bundle manifest does not describe a sharded session"
        )
    version = manifest.get("format_version")
    if version != SHARDED_SESSION_VERSION:
        raise SnapshotFormatError(
            f"{path}: unsupported sharded bundle version {version!r} "
            f"(this library reads version {SHARDED_SESSION_VERSION})"
        )
    return manifest


def _member_names(manifest: dict, path: Path) -> List[str]:
    members = manifest.get("shards")
    if not isinstance(members, list) or not members:
        raise SnapshotFormatError(
            f"{path}: bundle manifest names no shard members"
        )
    for name in members:
        # member names come from the manifest; refuse anything that could
        # escape the extraction directory (zip-slip) or is plainly malformed
        if not isinstance(name, str) or "/" in name or "\\" in name or name.startswith("."):
            raise SnapshotFormatError(
                f"{path}: bundle manifest names invalid member {name!r}"
            )
    return [str(name) for name in members]


def _extract_member(
    archive: zipfile.ZipFile, name: str, target_dir: Path, path: Path
) -> Path:
    try:
        data = archive.read(name)
    except KeyError:
        raise SnapshotFormatError(
            f"{path}: bundle member {name!r} named by the manifest is missing"
        ) from None
    target = target_dir / name
    target.write_bytes(data)
    return target


def load_sharded_session(
    path: Union[str, Path],
    shard: Optional[int] = None,
    allow_pickle: bool = True,
    max_cached_subsets: Optional[int] = 32,
    kernel: Optional[str] = None,
) -> Union["ShardedProtectionService", "ProtectionService"]:
    """Restore a sharded bundle — the whole session or a single shard.

    Parameters
    ----------
    path:
        A ``.tppshards`` file written by :func:`save_sharded_session`.
    shard:
        ``None`` restores the complete
        :class:`~repro.service.sharding.ShardedProtectionService`.  An
        integer restores *only* that shard as a plain
        :class:`~repro.service.ProtectionService` — the replica pays one
        shard's I/O and memory, which is how a fleet splits a session
        across machines.
    allow_pickle / max_cached_subsets / kernel:
        As in :func:`repro.persistence.load_session`, applied to every
        restored shard.

    Raises
    ------
    repro.exceptions.SnapshotFormatError
        If the file is not a sharded bundle or the manifest/members are
        corrupt.
    repro.exceptions.SnapshotMismatchError
        If the restored shards' combined content hash disagrees with the
        manifest's.
    repro.exceptions.ShardError
        If ``shard`` is out of range for the bundle.
    """
    from repro.core.model import TPPProblem
    from repro.service.service import ProtectionService
    from repro.service.sharding import ShardedProtectionService

    path = Path(path)
    if not zipfile.is_zipfile(path):
        raise SnapshotFormatError(
            f"{path} is not a sharded session bundle (not a zip archive)"
        )
    with zipfile.ZipFile(path) as archive:
        manifest = _read_manifest(archive, path)
        names = _member_names(manifest, path)
        if shard is not None:
            if not 0 <= shard < len(names):
                raise ShardError(
                    f"{path} holds shards 0..{len(names) - 1}, "
                    f"requested shard {shard}",
                    shard=shard,
                )
            names_to_load = [names[shard]]
        else:
            names_to_load = names
        with tempfile.TemporaryDirectory(prefix="tppshards-") as scratch:
            scratch_dir = Path(scratch)
            problems = [
                TPPProblem.from_snapshot(
                    _extract_member(archive, name, scratch_dir, path),
                    allow_pickle=allow_pickle,
                )
                for name in names_to_load
            ]
            if shard is not None:
                service = ProtectionService(
                    problems[0],
                    max_cached_subsets=max_cached_subsets,
                    kernel=kernel,
                )
                service._index_source = "snapshot"
                return service
            expected_hash = manifest.get("content_hash")
            actual_hash = combined_content_hash(
                [problem.build_index() for problem in problems]
            )
            if expected_hash != actual_hash:
                raise SnapshotMismatchError(
                    f"{path}: the shards' combined content hash "
                    f"{actual_hash[:12]}… does not match the bundle "
                    f"manifest's {str(expected_hash)[:12]}… — the bundle was "
                    "tampered with or assembled from mismatched files"
                )
            return ShardedProtectionService._from_problems(
                problems,
                max_cached_subsets=max_cached_subsets,
                kernel=kernel,
                index_source="snapshot",
            )
