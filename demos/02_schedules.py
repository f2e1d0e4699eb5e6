"""
Scheduling protocols as edge colorings
======================================

A schedule assigns each link a set of slots inside a repeating cycle.
The validator checks the orthogonality constraints that make the relay
pipeline work: disjoint first edges, disjoint last edges, half-duplex
along each path, equal activation counts.
"""

import os
import tempfile

from relaydmt import (color_kpp_general, color_kpp_three, color_kpp_two,
                      kpp_network, load_schedule, save_schedule,
                      validate_orthogonal)
from relaydmt.protocol import auto_schedule

net = kpp_network((2, 3, 4))
sched = color_kpp_three((2, 3, 4), net)
rep = validate_orthogonal(net, sched)

print("three paths, lengths (2,3,4)")
print("cycle length:", sched.cycle_length, "| rate:", rep.rate)
for pair, slots in sorted(sched.activations.items()):
    print(f"  {pair[0]:>6} -> {pair[1]:<6} active in slots {sorted(slots)}")
print("constraints:", ", ".join(k for k, v in rep.constraints.items() if v))
print("back-flow nodes:", rep.backflow_nodes or "none")
print()

# More paths: the general construction handles any K >= 4.
big = color_kpp_general((2, 5, 3, 8, 4))
print("five paths: cycle", big.cycle_length, "rate",
      validate_orthogonal(kpp_network((2, 5, 3, 8, 4)), big).rate)
print()

# Two paths are the tight spot. An even total length still colors at
# rate 1; an odd total forces one idle slot in a long super-cycle.
print("two-path rates by length pair:")
for n1, n2 in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 7)]:
    sched2 = color_kpp_two(n1, n2)
    rep2 = validate_orthogonal(kpp_network((n1, n2)), sched2)
    print(f"  ({n1},{n2}): rate {rep2.rate}  (cycle {sched2.cycle_length})")
print()

# auto_schedule dispatches on the family; schedules round-trip to JSON.
best = auto_schedule(net)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "kpp234_schedule.json")
    save_schedule(best, path)
    again = load_schedule(path)
print("auto schedule for kpp(2,3,4): cycle", again.cycle_length,
      "| delivers", again.symbols_per_cycle, "symbols per cycle")
