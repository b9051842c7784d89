"""Content-addressed result cache for corpus runs.

Keys hash the input payload together with every cap that affects the
computation and an algorithm-version tag, so changing the enumeration
strategy or caps invalidates old entries instead of resurrecting them.
Values are the exact serialized report bytes; a hit is byte-identical to
the original run.  Writes go through a temp file and an atomic rename,
so concurrent readers never observe partial entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

ALGO_VERSION = "spherecover-pipeline/2"


class ResultCache:
    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)

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
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
