"""Matrix product states: exact factorization, truncation, named states."""

import math

import numpy as np

import tensornet as tn

rng = np.random.default_rng(4)

# exact factorization of a random 8-qubit state
v = rng.normal(size=256) + 1j * rng.normal(size=256)
v /= np.linalg.norm(v)
state = tn.ket(v, dims=[2] * 8)
exact, rep = tn.mps_from_dense(state)
print("exact bond dims:", exact.bond_dims)
print("round-trip error:", np.max(np.abs(tn.to_dense(exact).data - state.data)))

# truncate with an absolute cutoff; the report carries the error budget
small, rep = tn.mps_from_dense(state, tn.TrimPolicy.cutoff(1e-1))
print("truncated bond dims:", small.bond_dims)
print("  discarded weight per cut:", rep.discarded_weights)
print("  fidelity bound:", rep.fidelity_bound, "fidelity:", rep.fidelity)
print("fidelity >= bound:", rep.fidelity >= rep.fidelity_bound)

# named states: GHZ is bond 2 everywhere with entropy ln 2 at every cut
ghz = tn.ghz_mps(6)
print("GHZ bonds:", ghz.bond_dims,
      "entropy ln2 at cut 3:", abs(tn.bond_entropy(ghz, 3) - math.log(2)) < 1e-12)
w = tn.w_mps(6)
print("W amplitude of |000001>:", tn.amplitude(w, (0, 0, 0, 0, 0, 1)))

# the AKLT chain: singlets projected onto spin 1, Schmidt rank 2 everywhere
aklt = tn.aklt_chain(4)
normed = aklt * (1.0 / aklt.norm())
print("AKLT wires:", [(wire.label, wire.dim) for wire in aklt.wires])
print("AKLT Schmidt rank at middle cut:",
      tn.schmidt(normed, [w.label for w in aklt.wires[:2]]).rank)
