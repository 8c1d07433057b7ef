"""
Branch encoders and learned attention pooling
=============================================

Each input branch (the run-up view and the kick view) is encoded by a
stack of selective state-space layers and then collapsed over time by a
single-query attention pool.  This script shows how the pool weights a
sequence and what a full branch encoder produces.
"""

import numpy as np

from kickdir.encoder import attn_pool, encode_branch_forward, init_branch_encoder

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------
# 1. Attention pooling on a hand-built sequence.
#
# Timestep scores are inner products <w, h_t>, softmaxed over time.
# With w = 0 every score ties, so the pool is an ordinary mean.
h = rng.standard_normal((6, 4))  # (time, features)
pooled, alpha = attn_pool(h, np.zeros(4))
print("zero query vector:")
print(f"  weights           {np.array2string(alpha, precision=4)}")
print(f"  matches mean      {np.allclose(pooled, h.mean(axis=0))}")

# Give one timestep a strong component along a chosen feature axis and
# query along that axis: the pool leans toward that timestep.
h[2, 0] += 3.0
w = np.array([2.0, 0.0, 0.0, 0.0])
pooled, alpha = attn_pool(h, w)
print("\nquery along the axis where timestep 2 stands out:")
print(f"  weights           {np.array2string(alpha, precision=4)}")
print(f"  heaviest timestep {int(np.argmax(alpha))}")
print(f"  weights sum to 1  {abs(float(alpha.sum()) - 1.0) < 1e-12}")

# The weighted sum interpolates inside the convex hull of the states, so
# pooled values never exceed the per-feature extremes.
print(f"  within hull       "
      f"{bool(np.all(pooled <= h.max(axis=0) + 1e-12) and np.all(pooled >= h.min(axis=0) - 1e-12))}")

# ---------------------------------------------------------------------
# 2. A full branch encoder: embed -> SSM layers -> pool.
#
# The encoder maps a (T, in_dim) clip-embedding sequence to a single
# width-H summary vector, batching transparently.
enc = init_branch_encoder(in_dim=16, width=24, state_size=4, n_layers=2,
                          rng=rng, conv_width=4)
seq = rng.standard_normal((9, 16))      # one clip sequence
batch = rng.standard_normal((5, 9, 16))  # five at once

# need_cache=False is the evaluation path: no backward-pass intermediates.
single = encode_branch_forward(seq[None], enc, need_cache=False)[0][0]
stacked, _ = encode_branch_forward(batch, enc, need_cache=False)
print("\nbranch encoder:")
print(f"  one sequence (9, 16)  -> summary {single.shape}")
print(f"  batch (5, 9, 16)      -> summaries {stacked.shape}")

# Batching is just vectorization: running the same sequence alone or
# inside a batch gives the same summary.
again, _ = encode_branch_forward(np.stack([seq, seq]), enc, need_cache=False)
print(f"  batch row == solo run {np.allclose(again[0], single)}")

# Sequence length is free: the pool always lands in the same space.
short, _ = encode_branch_forward(rng.standard_normal((1, 3, 16)), enc,
                                 need_cache=False)
print(f"  a 3-step clip pools to the same width: {short.shape[1]}")
