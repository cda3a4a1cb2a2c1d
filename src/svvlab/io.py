"""Artifact persistence: CSV tables, binary field frames, JSON manifests.

Frames use magic b"SVV1" followed by little-endian float64 header
(n, L, t) and the rho and m node arrays (n + 1 values each).  CSV floats
are written with %.17g so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import ConfigError, DomainError
from .solver import Grid, GridState, Trajectory

MAGIC = b"SVV1"


def fmt(v) -> str:
    """Shortest round-trippable decimal form of a float."""
    return "%.17g" % float(v)


def write_csv(path, header, rows):
    """Write rows of floats/strings; floats go through fmt for determinism."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(c if isinstance(c, str) else fmt(c) for c in row) + "\n"
            )


def write_frame(path, grid: Grid, state: GridState):
    n = grid.n
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<ddd", float(n), grid.L, state.t))
        fh.write(np.asarray(state.rho, dtype="<f8").tobytes())
        fh.write(np.asarray(state.mom, dtype="<f8").tobytes())


def read_frame(path):
    """Returns (grid, state); raises DomainError on a bad magic, header or
    size."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise DomainError(f"{path}: not a field frame (magic {magic!r})")
        header = fh.read(24)
        body = fh.read()
    if len(header) != 24:
        raise DomainError(f"{path}: truncated header ({len(header)} != 24 bytes)")
    n_f, L, t = struct.unpack("<ddd", header)
    # is_integer fails a NaN and an infinity, and so does isfinite
    if not (n_f.is_integer() and np.isfinite(t)):
        raise DomainError(f"{path}: bad header (n, L, t) = ({n_f!r}, {L!r}, {t!r})")
    try:
        grid = Grid(L=L, n=int(n_f))
    except ConfigError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    expect = 2 * (grid.n + 1) * 8
    if len(body) != expect:
        raise DomainError(f"{path}: truncated frame ({len(body)} != {expect} bytes)")
    arr = np.frombuffer(body, dtype="<f8")
    return grid, GridState(t, arr[: grid.n + 1].copy(), arr[grid.n + 1 :].copy())


def save_trajectory(traj: Trajectory, out_dir, prefix="frame"):
    """Write per-save frames plus a manifest JSON; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    frames = []
    for k, (t, (rho, m)) in enumerate(zip(traj.times, traj.save_states)):
        name = f"{prefix}_{k:04d}.svv"
        write_frame(os.path.join(out_dir, name), traj.grid, GridState(t, rho, m))
        frames.append({"file": name, "t": fmt(t)})
    manifest = {
        "format": "svvlab-trajectory-1",
        "n": traj.grid.n,
        "L": fmt(traj.grid.L),
        "epsilon": fmt(traj.config.epsilon),
        "dt": fmt(traj.config.dt),
        "T": fmt(traj.config.T),
        "sample_id": traj.sample_id,
        "frames": frames,
        "error": repr(traj.error) if traj.error is not None else None,
    }
    mpath = os.path.join(out_dir, f"{prefix}_manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return mpath


def load_trajectory_states(manifest_path):
    """Load (grid, [GridState]) back from a trajectory manifest."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    base = os.path.dirname(manifest_path)
    grid = None
    states = []
    for entry in manifest["frames"]:
        grid, state = read_frame(os.path.join(base, entry["file"]))
        states.append(state)
    return grid, states, manifest


def diagnostics_csv(path, traj: Trajectory):
    """One row per save time: t, E, D, min_rho."""
    n_steps = traj.energy.size - 1
    save_every = n_steps // max(1, len(traj.times) - 1)
    rows = []
    for k, t in enumerate(traj.times):
        i = min(k * save_every, n_steps)
        rows.append((t, traj.energy[i], traj.dissipation[i], traj.min_rho[i]))
    write_csv(path, ["t", "energy", "dissipation", "min_rho"], rows)


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=fmt)
        fh.write("\n")
