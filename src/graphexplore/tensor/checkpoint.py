"""Parameter checkpoints as .npz archives.

Each parameter is one array of the archive, stored under its name in the
dtype it has (float32 for a default ParamSet); the meta dict is stored as
JSON text under the reserved key META_KEY. A checkpoint loads with
np.load(path, allow_pickle=False).
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

META_KEY = "__meta__"


def save_params(path, arrays, meta=None):
    """Write a name -> ndarray map (or ParamSet snapshot) to path. `meta` is an
    optional JSON-serializable dict stored alongside the arrays."""
    with open(path, "wb") as f:  # a file handle, so np.savez appends no .npz suffix
        np.savez(f, **{name: np.asarray(arr) for name, arr in arrays.items()},
                 **{META_KEY: np.array(json.dumps(meta or {}))})


def load_params(path):
    """Read a checkpoint; returns (name -> ndarray map, each array in its
    stored dtype, meta dict).
    A file that is not a checkpoint raises ValueError naming the path."""
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an archive")
        with archive:
            meta = json.loads(archive[META_KEY].item())
            arrays = {name: archive[name] for name in archive.files if name != META_KEY}
    except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path} is not a checkpoint: {e}") from e
    return arrays, meta
