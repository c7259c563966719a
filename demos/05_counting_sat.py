"""#SAT by tensor contraction: the count is the value of a closed network.

Each clause becomes one clause tensor: 1 on every assignment of its
variables except the single one that falsifies it, where it is 0.  A
clause wider than 3 is split into a chain of order-3 pieces passing on a
"satisfied so far" flag.  Each variable becomes one COPY spider that
hands its value to every clause it appears in: one wire of the spider
carries a bond to each of them, which by spider fusion is the same as a
spider with one leg per clause, so no tensor in the network has more than
3 wires.  Summing over all assignments is each spider's own sum over its
index, once its wire is bonded.  Only a variable that no clause reads
keeps an unbonded spider wire; that one is closed with the unnormalized
<+|, a factor of 2.
"""

import tensornet as tn
from tensornet.counting import boolean_norm_value, formula_state_network

dimacs = """\
c (x1 or not x2) and (x2 or x3) and (not x1 or not x3)
p cnf 3 3
1 -2 0
2 3 0
-1 -3 0
"""

f = tn.parse_dimacs(dimacs)
result = tn.count_sat(f)
net = tn.formula_to_network(f)
print("network:", len(net.nodes), "tensors, largest order",
      max(len(t.wires) for t in net.nodes.values()))
print("contraction count:", result.count, " raw:", result.raw)
print("brute force:", tn.brute_force_sat(f))

# the Boolean state |f> has one basis term per satisfying assignment
net, _ = formula_state_network(f)
state = net.contract_all()
support = [idx for idx, amp in zip(
    [(a, b, c) for a in range(2) for b in range(2) for c in range(2)],
    state.data.reshape(-1)) if abs(amp) > 0.5]
print("satisfying assignments:", support)

# <f|f> contracts two mirrored copies of the network to the same count
print("<f|f> =", boolean_norm_value(f))
