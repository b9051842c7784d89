"""Content-addressed result cache for corpus runs.

Keys hash the input payload together with every cap that affects the
computation and an algorithm-version tag, so changing the enumeration
strategy or caps invalidates old entries instead of resurrecting them.
Values are the bytes ``CoverReport.stored`` writes; an entry is a hit
exactly when it holds the bytes its report would store, so a hit is
byte-identical to the original run.  Writes go through a temp file and an
atomic rename, so concurrent readers never observe partial entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile

from .errors import InputFileError

ALGO_VERSION = "spherecover-pipeline/2"


class ResultCache:
    def __init__(self, root):
        self.root = root
        try:
            os.makedirs(root, exist_ok=True)
        except OSError as exc:
            raise InputFileError(f"cannot use cache directory: {exc}") from exc

    @staticmethod
    def key_for(payload, fmt, coset_cap):
        blob = json.dumps(
            {
                "algo": ALGO_VERSION,
                "fmt": fmt,
                "payload": payload,
                "coset_cap": coset_cap,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def path(self, key):
        return os.path.join(self.root, key + ".json")

    def get(self, key):
        """The entry's bytes, or None for an entry that cannot be read (a miss)."""
        try:
            with open(self.path(key), "rb") as fh:
                return fh.read()
        except OSError:  # missing, a directory, unreadable
            return None

    def put(self, key, data):
        """Store ``data`` under ``key``; a write that fails leaves no temp file behind."""
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, self.path(key))
            except BaseException:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            raise InputFileError(f"cannot write cache entry {self.path(key)}: {exc}") from exc
