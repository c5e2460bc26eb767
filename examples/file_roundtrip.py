#!/usr/bin/env python3
"""Design file I/O: save a generated design, reload it, verify timing.

Demonstrates both on-disk formats (the TAU-style ``.cppr`` text format
and JSON) and shows that a round-trip preserves every post-CPPR slack
bit-for-bit.

Run:  python examples/file_roundtrip.py
"""

import tempfile
from pathlib import Path

from repro import (CpprEngine, TimingAnalyzer, load_design, save_design,
                   save_design_json)
from repro.workloads.suite import build_design


def main():
    graph, constraints = build_design("vga_lcdv2", scale=0.3)
    analyzer = TimingAnalyzer(graph, constraints)
    original = CpprEngine(analyzer).top_slacks(10, "setup")
    print(f"original design: {graph.describe()}")
    print(f"top-10 post-CPPR setup slacks: "
          f"{[round(s, 3) for s in original]}")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        text_path = Path(tmp) / "design.cppr"
        json_path = Path(tmp) / "design.json"

        save_design(graph, constraints, text_path)
        save_design_json(graph, constraints, json_path)
        print(f"text format:  {text_path.stat().st_size:>8} bytes")
        print(f"json format:  {json_path.stat().st_size:>8} bytes")
        print()
        print("first lines of the text format:")
        for line in text_path.read_text().splitlines()[:6]:
            print(f"  {line}")
        print()

        for label, path in [("text", text_path), ("json", json_path)]:
            new_graph, new_constraints = load_design(path)
            reloaded = CpprEngine(
                TimingAnalyzer(new_graph, new_constraints)
            ).top_slacks(10, "setup")
            status = "OK" if reloaded == original else "MISMATCH"
            print(f"{label} round-trip: top-10 slacks identical: {status}")


if __name__ == "__main__":
    main()
