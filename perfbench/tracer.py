"""Spans around the public functions of padic_mra, recorded from outside.

`Tracer.install` wraps every public function defined in the package's layer
modules and rebinds the wrapper under each name in every loaded padic_mra
module that holds the original, so internal calls (check_mra -> shift_mask,
frame_bounds -> verify_wavelet_set) are seen as well as the benchmark's own.
Each span keeps its name, start, end, parent span, op id and, when the call
raised, the exception's class name. Spans stay in memory until the run ends.

Self time is a span's duration minus the durations of its direct children.
Calls are synchronous and single-threaded, so children never overlap and
their summed durations are exactly the time they cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# The package modules that do measurable work; config and errors do none.
LAYERS = (
    "padic_core",
    "test_functions",
    "masks",
    "mra",
    "wavelets",
    "generators",
    "serialize",
    "cli",
)

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "error")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col: list[int] = []
        self.start_col: list[float] = []
        self.end_col: list[float] = []
        self.parent_col: list[int] = []
        self.op_col: list[int] = []
        self.error_col: list[int] = []  # name id of the raised class, -1 if none
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.op = -1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.name_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.op_col.append(self.op)
        self.error_col.append(-1)
        self.end_col.append(0.0)
        self._stack.append(i)
        self.start_col.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end_col[i] = time.perf_counter()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the currently open one."""
        i = self._open(self.name_id(name))
        self.start_col[i] = start
        self._close(i)
        self.end_col[i] = end

    @contextmanager
    def span(self, name: str):
        i = self._open(self.name_id(name))
        try:
            yield i
        except BaseException as exc:
            self.error_col[i] = self.name_id(type(exc).__name__)
            raise
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.error_col[i] = self.name_id(type(exc).__name__)
                raise
            finally:
                self._close(i)

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions wherever padic_mra bound them."""
        modules = {layer: importlib.import_module(f"padic_mra.{layer}") for layer in LAYERS}
        holders = [
            m for key, m in sys.modules.items() if key == "padic_mra" or key.startswith("padic_mra.")
        ]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    if vars(holder).get(attr) is fn:
                        setattr(holder, attr, wrapped)
                        self._installed.append((holder, attr, fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._installed):
            setattr(holder, attr, fn)
        self._installed.clear()

    # ------------------------------------------------------------------
    # Export, merge and aggregation

    def export(self) -> dict:
        return {
            "names": list(self.names),
            "name": np.asarray(self.name_col, dtype=np.int32),
            "start": np.asarray(self.start_col, dtype=np.float64),
            "end": np.asarray(self.end_col, dtype=np.float64),
            "parent": np.asarray(self.parent_col, dtype=np.int64),
            "op": np.asarray(self.op_col, dtype=np.int64),
            "error": np.asarray(self.error_col, dtype=np.int32),
        }

    def merge(self, spans: dict, parent: int, op: int) -> None:
        """Append spans recorded by a child process under span `parent`."""
        # The trailing -1 makes remap[-1] == -1, so "no error" survives the remap.
        remap = np.array([self.name_id(n) for n in spans["names"]] + [-1], dtype=np.int64)
        base = len(self.name_col)
        self.name_col.extend(remap[spans["name"]].tolist())
        self.start_col.extend(spans["start"].tolist())
        self.end_col.extend(spans["end"].tolist())
        own = spans["parent"]
        self.parent_col.extend(np.where(own < 0, parent, own + base).tolist())
        self.op_col.extend([op] * len(own))
        self.error_col.extend(remap[spans["error"]].tolist())

    def save(self, path) -> None:
        data = self.export()
        names = np.array(data.pop("names"), dtype=object)
        np.savez(path, names=names.astype(str), **data)


def load_spans(path) -> dict:
    with np.load(path) as z:
        out = {key: z[key] for key in SPAN_FIELDS}
        out["names"] = [str(n) for n in z["names"]]
    return out


def aggregate(spans: dict, ops: set[int] | None = None) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, raised-exception counts.

    With `ops`, only spans whose op id is in the set count (op -1 marks
    input generation between ops).
    """
    name, start, end = spans["name"], spans["start"], spans["end"]
    parent, op, error = spans["parent"], spans["op"], spans["error"]
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    keep = np.ones(dur.shape, dtype=bool) if ops is None else np.isin(op, list(ops))
    out: dict[str, dict] = {}
    names = spans["names"]
    for nid in np.unique(name[keep]):
        sel = keep & (name == nid)
        errors = Counter(names[e] for e in error[sel] if e >= 0)
        out[names[nid]] = {
            "calls": int(sel.sum()),
            "total_s": float(dur[sel].sum()),
            "self_s": float(self_time[sel].sum()),
            "errors": dict(errors),
        }
    return out


def child_counts(spans: dict, parent_name: str, child_name: str) -> int:
    """Number of `child_name` spans opened directly under `parent_name` spans."""
    names = spans["names"]
    if parent_name not in names or child_name not in names:
        return 0
    pid, cid = names.index(parent_name), names.index(child_name)
    parent = spans["parent"]
    is_child = (spans["name"] == cid) & (parent >= 0)
    return int(np.sum(spans["name"][parent[is_child]] == pid))
