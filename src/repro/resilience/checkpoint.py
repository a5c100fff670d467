"""Phase-level checkpoint/restore for the simulated SPMD runtime.

On-disk layout (one directory per checkpoint under the user's root)::

    <root>/
        step-000000/
            shard-00000.npz     per-rank state (arrays + JSON meta)
            shard-00001.npz
            manifest.json       written last; its presence + checksums
                                define a *valid* checkpoint
        step-000001/
            ...

Shards are written to a temp file and atomically renamed; the manifest
(rank 0 only) likewise, after a gather of every shard's SHA-256 digest.
A crash mid-save therefore never produces a half-valid checkpoint: either
the manifest exists and names checksummed shards, or the step directory
is garbage to be ignored.  Corruption after the fact (bit rot, truncated
writes, an injected ``corrupt_checkpoint_shard``) is caught by digest
verification at restore time, and restore falls back to the newest
*older* checkpoint that verifies.

Checkpoint traffic and file I/O are charged to the ``checkpoint`` trace
category so the bench harness can attribute the overhead (§V-A style).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from ..runtime.comm import Communicator

#: Version of the on-disk checkpoint format.  Bump on layout changes;
#: restore refuses manifests written by a different version.  Version 2
#: dropped the general (non-contiguous) partition layout, which also
#: changed every ``LouvainConfig.cache_key()``.
CHECKPOINT_FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"
_STEP_RE = re.compile(r"^step-(\d{6,})$")
_META_KEY = "_meta"


class CheckpointError(Exception):
    """Base class for checkpoint/restore failures."""


class ManifestError(CheckpointError):
    """A manifest is missing, unreadable, or from an unknown format."""


class CorruptShardError(CheckpointError):
    """A shard file does not match its manifest checksum."""


class NoCheckpointError(CheckpointError):
    """No valid checkpoint exists in the directory."""


@dataclass(frozen=True)
class ShardInfo:
    """Integrity record of one rank's shard within a manifest."""

    rank: int
    filename: str
    nbytes: int
    sha256: str


@dataclass(frozen=True)
class Manifest:
    """One checkpoint's metadata (contents of ``manifest.json``)."""

    seq: int
    kind: str            # "phase" (boundary) or "iteration" (mid-phase)
    phase: int
    iteration: int       # -1 for a phase-boundary checkpoint
    size: int            # world size the checkpoint was taken at
    version: int
    label: str           # free-form application tag (e.g. config label)
    shards: tuple[ShardInfo, ...]
    directory: str       # absolute path of the checkpoint directory
    #: ``LouvainConfig.cache_key()`` of the run that wrote the
    #: checkpoint ("" for pre-key manifests).  Resume refuses manifests
    #: whose key differs from the resuming config: continuing a run
    #: under different semantics would silently produce garbage.
    config_key: str = ""

    def shard_path(self, rank: int) -> str:
        for s in self.shards:
            if s.rank == rank:
                return os.path.join(self.directory, s.filename)
        raise ManifestError(
            f"manifest {self.directory} has no shard for rank {rank}"
        )

    def describe(self) -> str:
        where = (
            f"phase {self.phase}"
            if self.iteration < 0
            else f"phase {self.phase} iteration {self.iteration}"
        )
        total = sum(s.nbytes for s in self.shards)
        return (
            f"step {self.seq:06d}: {self.kind} checkpoint at {where}, "
            f"{self.size} rank(s), {total} bytes"
            + (f" [{self.label}]" if self.label else "")
        )


@dataclass
class RestoredRank:
    """Per-rank state attached to a communicator by ``restore_world``."""

    manifest: Manifest
    meta: dict[str, Any]
    arrays: dict[str, np.ndarray]
    consumed: bool = field(default=False)


# ----------------------------------------------------------------------
# Low-level helpers
# ----------------------------------------------------------------------
def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write_bytes(path: str, data: bytes) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _shard_filename(rank: int) -> str:
    return f"shard-{rank:05d}.npz"


def _step_dirname(seq: int) -> str:
    return f"step-{seq:06d}"


def _serialize_shard(meta: dict[str, Any], arrays: dict[str, np.ndarray]) -> bytes:
    if _META_KEY in arrays:
        raise ValueError(f"array key {_META_KEY!r} is reserved")
    buf = io.BytesIO()
    payload = {k: np.asarray(v) for k, v in arrays.items()}
    payload[_META_KEY] = np.array(json.dumps(meta))
    np.savez_compressed(buf, **payload)
    return buf.getvalue()


def _deserialize_shard(path: str) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data[_META_KEY]))
        arrays = {k: data[k] for k in data.files if k != _META_KEY}
    return meta, arrays


def read_manifest(step_dir: str) -> Manifest:
    """Parse ``<step_dir>/manifest.json``; raises :class:`ManifestError`."""
    path = os.path.join(step_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    try:
        version = int(raw["version"])
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ManifestError(
                f"{path}: checkpoint format version {version} is not "
                f"supported (this build reads version "
                f"{CHECKPOINT_FORMAT_VERSION})"
            )
        shards = tuple(
            ShardInfo(
                rank=int(s["rank"]),
                filename=str(s["filename"]),
                nbytes=int(s["nbytes"]),
                sha256=str(s["sha256"]),
            )
            for s in raw["shards"]
        )
        return Manifest(
            seq=int(raw["seq"]),
            kind=str(raw["kind"]),
            phase=int(raw["phase"]),
            iteration=int(raw["iteration"]),
            size=int(raw["size"]),
            version=version,
            label=str(raw.get("label", "")),
            shards=shards,
            directory=os.path.abspath(step_dir),
            config_key=str(raw.get("config_key", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"malformed manifest {path}: {exc}") from exc


def verify_manifest(manifest: Manifest) -> list[str]:
    """Return integrity problems ([] when the checkpoint is fully valid)."""
    problems: list[str] = []
    if len(manifest.shards) != manifest.size:
        problems.append(
            f"{len(manifest.shards)} shard(s) listed for world size "
            f"{manifest.size}"
        )
    for s in manifest.shards:
        path = os.path.join(manifest.directory, s.filename)
        if not os.path.exists(path):
            problems.append(f"missing shard {s.filename}")
            continue
        if os.path.getsize(path) != s.nbytes:
            problems.append(
                f"shard {s.filename}: size {os.path.getsize(path)} != "
                f"manifest {s.nbytes}"
            )
            continue
        if _sha256_file(path) != s.sha256:
            problems.append(f"shard {s.filename}: checksum mismatch")
    return problems


def scan_checkpoints(root: str) -> list[tuple[str, Manifest | None, str | None]]:
    """Every step directory under ``root`` with its manifest or error.

    Returns ``[(dirname, manifest-or-None, error-or-None)]`` ordered by
    ascending sequence number; directories whose manifest is missing or
    unreadable appear with ``manifest=None`` and the error string.
    """
    if not os.path.isdir(root):
        return []
    out = []
    for name in sorted(os.listdir(root)):
        if not _STEP_RE.match(name):
            continue
        step_dir = os.path.join(root, name)
        try:
            out.append((name, read_manifest(step_dir), None))
        except ManifestError as exc:
            out.append((name, None, str(exc)))
    return out


def latest_valid_manifest(
    root: str,
    expect_size: int | None = None,
    verify_shards: bool = True,
) -> Manifest | None:
    """Newest checkpoint that parses, matches the size, and verifies.

    Scans sequence numbers in descending order and skips invalid or
    corrupt checkpoints, so restore degrades gracefully to the last
    good state.
    """
    entries = [m for _, m, _ in scan_checkpoints(root) if m is not None]
    for manifest in sorted(entries, key=lambda m: -m.seq):
        if expect_size is not None and manifest.size != expect_size:
            continue
        if verify_shards and verify_manifest(manifest):
            continue
        return manifest
    return None


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
class CheckpointManager:
    """Collective checkpoint writer/reader for one SPMD run.

    Every rank of the run constructs its own manager over the same
    directory (managers are rank-local objects, like communicators).
    :meth:`save` and :meth:`load_latest` are collective: all ranks must
    call them together, in the same order.

    Parameters
    ----------
    directory:
        Root of the checkpoint tree (created on first save).
    every_phases:
        Take a phase-boundary checkpoint every K phases (0 disables).
    every_iterations:
        Additionally checkpoint every K Louvain iterations inside a
        phase (None/0 disables).
    keep:
        Retain at most this many newest checkpoints; older step
        directories are pruned after each successful save (0 keeps all).
    label:
        Free-form tag recorded in manifests (e.g. the config label).
    config_key:
        ``LouvainConfig.cache_key()`` of the run, recorded in every
        manifest so resume can detect cross-config mismatches.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        every_phases: int = 1,
        every_iterations: int | None = None,
        keep: int = 2,
        label: str = "",
        config_key: str = "",
    ):
        if every_phases < 0:
            raise ValueError(f"every_phases must be >= 0, got {every_phases}")
        if every_iterations is not None and every_iterations < 0:
            raise ValueError(
                f"every_iterations must be >= 0, got {every_iterations}"
            )
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        self.directory = os.fspath(directory)
        self.every_phases = every_phases
        self.every_iterations = every_iterations or 0
        self.keep = keep
        self.label = label
        self.config_key = config_key
        self._seq: int | None = None

    # -- cadence --------------------------------------------------------
    def should_checkpoint_phase(self, phase: int) -> bool:
        return self.every_phases > 0 and phase % self.every_phases == 0

    def should_checkpoint_iteration(self, iteration: int) -> bool:
        return (
            self.every_iterations > 0
            and (iteration + 1) % self.every_iterations == 0
        )

    # -- plumbing -------------------------------------------------------
    def _next_seq(self) -> int:
        """Next sequence number (continues past existing checkpoints).

        Only rank 0 calls this (inside :meth:`save`): a directory scan
        on every rank would race with rank 0 creating the new step
        directory, scattering one logical checkpoint across two seqs.
        """
        if self._seq is None:
            existing = [
                int(_STEP_RE.match(name).group(1))
                for name in (
                    os.listdir(self.directory)
                    if os.path.isdir(self.directory)
                    else []
                )
                if _STEP_RE.match(name)
            ]
            self._seq = max(existing) + 1 if existing else 0
        seq = self._seq
        self._seq = seq + 1
        return seq

    # -- save -----------------------------------------------------------
    def save(
        self,
        comm: Communicator,
        *,
        kind: str,
        phase: int,
        iteration: int,
        meta: dict[str, Any],
        arrays: dict[str, np.ndarray],
    ) -> Manifest:
        """Write one checkpoint (collective over ``comm``).

        Each rank serializes ``meta`` + ``arrays`` into its shard and
        writes it atomically; rank 0 gathers the digests, writes the
        manifest last, and prunes old checkpoints.  All time (modelled
        file I/O plus the digest gather and closing barrier) is charged
        to the ``checkpoint`` trace category.
        """
        seq = comm.bcast(
            self._next_seq() if comm.rank == 0 else None,
            root=0,
            category="checkpoint",
        )
        step_dir = os.path.join(self.directory, _step_dirname(seq))
        os.makedirs(step_dir, exist_ok=True)

        blob = _serialize_shard(meta, arrays)
        filename = _shard_filename(comm.rank)
        _atomic_write_bytes(os.path.join(step_dir, filename), blob)
        digest = hashlib.sha256(blob).hexdigest()
        comm.charge("checkpoint", comm.machine.io_cost(len(blob)))

        infos = comm.gather(
            (comm.rank, filename, len(blob), digest),
            root=0,
            category="checkpoint",
        )
        manifest: Manifest | None = None
        if comm.rank == 0:
            shards = tuple(
                ShardInfo(rank=r, filename=f, nbytes=n, sha256=d)
                for r, f, n, d in sorted(infos)
            )
            manifest = Manifest(
                seq=seq,
                kind=kind,
                phase=phase,
                iteration=iteration,
                size=comm.size,
                version=CHECKPOINT_FORMAT_VERSION,
                label=self.label,
                shards=shards,
                directory=os.path.abspath(step_dir),
                config_key=self.config_key,
            )
            _atomic_write_bytes(
                os.path.join(step_dir, MANIFEST_NAME),
                json.dumps(
                    {
                        "seq": manifest.seq,
                        "kind": manifest.kind,
                        "phase": manifest.phase,
                        "iteration": manifest.iteration,
                        "size": manifest.size,
                        "version": manifest.version,
                        "label": manifest.label,
                        "config_key": manifest.config_key,
                        "shards": [
                            {
                                "rank": s.rank,
                                "filename": s.filename,
                                "nbytes": s.nbytes,
                                "sha256": s.sha256,
                            }
                            for s in manifest.shards
                        ],
                    },
                    indent=1,
                ).encode("utf-8"),
            )
            self._prune()
        # No rank may race past the manifest write (a fault right after
        # the barrier must still find a fully valid checkpoint on disk).
        comm.barrier(category="checkpoint")
        return manifest if manifest is not None else read_manifest(step_dir)

    def _prune(self) -> None:
        if not self.keep:
            return
        steps = sorted(
            (
                name
                for name in os.listdir(self.directory)
                if _STEP_RE.match(name)
            ),
            key=lambda n: int(_STEP_RE.match(n).group(1)),
        )
        for name in steps[: max(len(steps) - self.keep, 0)]:
            shutil.rmtree(os.path.join(self.directory, name), ignore_errors=True)

    # -- load -----------------------------------------------------------
    def load_latest(
        self, comm: Communicator
    ) -> tuple[Manifest, dict[str, Any], dict[str, np.ndarray]]:
        """Restore this rank's state from the newest valid checkpoint.

        Collective: rank 0 scans for the latest manifest whose shards
        all verify, broadcasts its directory, and every rank loads (and
        re-verifies) its own shard.  Raises :class:`NoCheckpointError`
        when nothing valid exists.
        """
        step_dir: str | None = None
        if comm.rank == 0:
            manifest = latest_valid_manifest(
                self.directory, expect_size=comm.size, verify_shards=True
            )
            step_dir = manifest.directory if manifest is not None else None
        step_dir = comm.bcast(step_dir, root=0, category="checkpoint")
        if step_dir is None:
            raise NoCheckpointError(
                f"no valid checkpoint for {comm.size} rank(s) under "
                f"{self.directory!r}"
            )
        manifest = read_manifest(step_dir)
        meta, arrays = load_shard(manifest, comm.rank)
        comm.charge(
            "checkpoint",
            comm.machine.io_cost(
                next(s.nbytes for s in manifest.shards if s.rank == comm.rank)
            ),
        )
        return manifest, meta, arrays


def load_shard(
    manifest: Manifest, rank: int
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Load and integrity-check one rank's shard of a checkpoint."""
    info = next((s for s in manifest.shards if s.rank == rank), None)
    if info is None:
        raise ManifestError(
            f"checkpoint {manifest.directory} has no shard for rank {rank}"
        )
    path = os.path.join(manifest.directory, info.filename)
    if not os.path.exists(path):
        raise CorruptShardError(f"shard {path} is missing")
    if _sha256_file(path) != info.sha256:
        raise CorruptShardError(
            f"shard {path} fails its manifest checksum (corrupt or "
            "partially written)"
        )
    return _deserialize_shard(path)


def restore_world(comms: Iterable[Communicator], root: str) -> Manifest:
    """Attach restored state to every communicator of a fresh world.

    Used by ``run_spmd(..., restore_from=dir)``: finds the latest valid
    manifest for the world size, loads every shard, resumes each rank's
    virtual clock from its saved value, and sets ``comm.restored`` to a
    :class:`RestoredRank` for the SPMD program to consume.
    """
    comms = list(comms)
    manifest = latest_valid_manifest(
        root, expect_size=len(comms), verify_shards=True
    )
    if manifest is None:
        raise NoCheckpointError(
            f"no valid checkpoint for {len(comms)} rank(s) under {root!r}"
        )
    for comm in comms:
        meta, arrays = load_shard(manifest, comm.rank)
        comm.clock = float(meta.get("clock", comm.clock))
        comm.restored = RestoredRank(manifest=manifest, meta=meta, arrays=arrays)
    return manifest
