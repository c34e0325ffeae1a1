package main

import (
	"math/rand/v2"

	"amnesiacflood/internal/graph"
)

// workloadNames lists the workloads in the order "all" runs them.
func workloadNames() []string {
	return []string{"serve-small", "serve-dense", "sweep-shard", "flood-cold"}
}

// graphSeed builds every graph the workloads run on. The graphs are fixed
// instances; --seed draws the origins and request streams over them, so two
// seeds run the same amount of graph, differing only in where floods start.
const graphSeed int64 = 1

// newWorkload builds the named workload's seeded inputs; tr is nil unless
// the run is traced.
func newWorkload(name string, opt options, tr *tracer) (workload, error) {
	switch name {
	case "serve-small":
		return newServe(serveSmall, opt, tr), nil
	case "serve-dense":
		return newServe(serveDense, opt, tr), nil
	case "sweep-shard":
		return newSweep(opt, tr)
	case "flood-cold":
		return newFlood(opt, tr), nil
	}
	return nil, errUnknownWorkload
}

// distinctOrigins draws k distinct nodes of an n-node graph. Repeated
// origins would make repeated specs, which a sharded suite merges into one
// row.
func distinctOrigins(rng *rand.Rand, n, k int) []graph.NodeID {
	seen := map[int]bool{}
	out := make([]graph.NodeID, 0, k)
	for len(out) < k {
		if o := rng.IntN(n); !seen[o] {
			seen[o] = true
			out = append(out, graph.NodeID(o))
		}
	}
	return out
}
