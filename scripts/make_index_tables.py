#!/usr/bin/env python3
"""Generate classification tables for a range of indices.

Writes one file per index in the requested format, plus a small manifest
with emission counts, e.g.:

    python3 scripts/make_index_tables.py --max-index 6 --format latex --out-dir build/tables
"""
from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from pathlib import Path

from dpweights.classify import classify_index
from dpweights.cli import render

_SUFFIX = {"text": "txt", "json": "json", "csv": "csv", "latex": "tex"}


@dataclass(frozen=True)
class RunConfig:
    min_index: int
    max_index: int
    fmt: str
    out_dir: Path


def parse_config() -> RunConfig:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--min-index", type=int, default=1)
    p.add_argument("--max-index", type=int, default=6)
    p.add_argument("--format", choices=sorted(_SUFFIX), default="text")
    p.add_argument("--out-dir", type=Path, default=Path("build/tables"))
    a = p.parse_args()
    if not 1 <= a.min_index <= a.max_index:
        p.error("need 1 <= min-index <= max-index")
    return RunConfig(a.min_index, a.max_index, a.format, a.out_dir)


def main() -> None:
    cfg = parse_config()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for index in range(cfg.min_index, cfg.max_index + 1):
        t0 = time.monotonic()
        c = classify_index(index)
        path = cfg.out_dir / f"index_{index:02d}.{_SUFFIX[cfg.fmt]}"
        path.write_text(render(c, cfg.fmt))
        manifest[index] = {
            "two_parameter_series": len(c.two_param),
            "one_parameter_series": len(c.one_param),
            "sporadic": len(c.sporadic),
            "seconds": round(time.monotonic() - t0, 3),
        }
        print(f"index {index}: {path} "
              f"({manifest[index]['two_parameter_series']}+{manifest[index]['one_parameter_series']}"
              f"+{manifest[index]['sporadic']} entries)")
    (cfg.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()
