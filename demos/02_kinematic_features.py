#!/usr/bin/env python3
"""
Kinematic feature functions on tracklet windows
===============================================

Shows what the unary and pairwise penalties look like for a well-behaved
tracklet, and how a drifting box lights up the pairwise term.
"""
import numpy as np

from crftrack import Box, FeatureParams, FrameContext, HypothesisWindow
from crftrack import (aspect_ratio_change, boundary_flag, height_change_rate,
                      keep_keep_penalties, unary_feature, velocity_change)

ctx = FrameContext(image_width=1920, image_height=1080, frame_rate=5.0)
params = FeatureParams()  # published values: alpha1=1.05, alpha2=1.2, beta=10.8


def window(tid, centers, score, w=60.0, h=150.0):
    boxes = tuple(Box(cx - w / 2, cy - h / 2, w, h) for cx, cy in centers)
    return HypothesisWindow(tracklet_id=tid, boxes=boxes, score=score)


# A pedestrian walking at constant speed: every kinematic quantity is bland.
calm = window(1, [(300, 500), (303, 500), (306, 500)], score=0.97)
print("calm tracklet")
print("  aspect ratio change:", aspect_ratio_change(calm))
print("  velocity change   :", velocity_change(calm, ctx))
print("  height change rate:", height_change_rate(calm, ctx, params))
print("  unary penalty     : keep =", round(unary_feature(calm, 1, params), 4),
      " inactivate =", round(unary_feature(calm, 0, params), 4))

# The same pedestrian, but the box jumps 40 px in the last frame, the way a
# hypothesis slides onto a neighbor. The score stays high, so the unary term
# barely notices; the velocity change is what gives it away.
drifter = window(2, [(600, 500), (603, 500), (646, 500)], score=0.92)
print("\ndrifting tracklet (40 px jump, score still 0.92)")
print("  velocity change:", velocity_change(drifter, ctx))
print("  unary penalty  : keep =", round(unary_feature(drifter, 1, params), 4),
      " inactivate =", round(unary_feature(drifter, 0, params), 4))

# The pairwise penalty only exists for the keep-keep label pair: the other
# label pairs cost 0. It compares velocity changes between tracklets, so
# camera motion cancels out. keep_keep_penalties takes the pairs as index
# arrays into the windows; here there is one pair, (drifter, calm).
value = keep_keep_penalties((drifter, calm), np.array([0]), np.array([1]), params, ctx)[0]
print("\nkeep-keep penalty against the calm tracklet:", round(value, 3))

# Boxes that poke outside the image switch the height term off (the boundary
# flag), because a clipped box corrupts the height measurement.
edge_box = Box(-10, 400, 60, 150)
print("\nboundary flag for a box crossing the left edge:",
      boundary_flag(edge_box, ctx))

# High classification scores make inactivation expensive: above the 0.95 cut
# an extra penalty of alpha1 applies.
confident = window(3, [(900, 500), (903, 500), (906, 500)], score=0.99)
print("\nvery confident tracklet (score 0.99)")
print("  inactivation penalty:", round(unary_feature(confident, 0, params), 4),
      "(includes the high-score surcharge)")
