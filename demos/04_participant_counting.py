#!/usr/bin/env python3
"""Counting meeting participants from the metric staircases.

Avatars join every 5 seconds. Most counters step up once per join; the
four geometry counters step down instead. The per-metric step detector
votes across all 30 metrics, and the majority recovers the exact count
even at the default noise level.
"""

import os

import numpy as np

from counterscope.catalog import builtin_catalog
from counterscope.plots import line_plot
from counterscope.simulator import avatar_staircase
from counterscope.stepcount import count_participants

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

catalog = builtin_catalog()
print("participants -> estimated (default noise):")
for n in range(0, 10):
    out = avatar_staircase(n, hold_s=5, catalog=catalog, seed=40 + n)
    count, _, _ = count_participants(out.traces, catalog)
    print(f"  {n} -> {count}")

out = avatar_staircase(4, hold_s=5, catalog=catalog, seed=44)
up = out.traces.values("non_base_level_textures")
down = out.traces.values("prims_trivially_rejected")
t = np.arange(up.size)
line_plot({"non_base_level_textures (rises)": (t, up),
           "prims_trivially_rejected (falls)": (t, down)},
          os.path.join(OUT, "staircase.svg"),
          title="4 avatars joining, 5 s apart",
          x_label="seconds", y_label="normalized", normalize=True)
print(f"plot in {OUT}/staircase.svg")
