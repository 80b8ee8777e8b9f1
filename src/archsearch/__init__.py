"""Post-training architecture search over per-layer block libraries.

Takes a trained mixture-of-experts transformer, scores a library of cheaper
per-layer replacement blocks (narrower attention, fewer experts) by how much
each hurts the parent's behavior, solves an exact budgeted selection for the
best per-layer mix, assembles the child model, and optionally squeezes its
KV cache to 8-bit floating point with calibrated scales.
"""

__version__ = "0.1.0"
