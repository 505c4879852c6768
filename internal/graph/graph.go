// Package graph implements the directed social ("follow") graph substrate.
//
// The paper's RQ2 is entirely about ego networks: what fraction of a
// user's Twitter followees migrated, migrated first, or chose the same
// instance (§5, Figs. 8 and 10). To study that, the synthetic world needs
// a graph with the salient structure of a real follow graph: heavy-tailed
// in-degree (preferential attachment), strong topical communities (users
// follow within their interest community far more than across), and
// reciprocity. graph provides a deterministic generator with those knobs
// plus the followee and follower queries the analysis needs.
package graph

import (
	"fmt"
	"math"
	"slices"

	"flock/internal/randx"
)

// Graph is a directed graph over nodes 0..N-1. Edge u->v means "u follows
// v". Adjacency is kept both ways so follower and followee queries are
// O(degree). After SortAdjacency, both directions live in CSR (compressed
// sparse row) layout: one flat edge array per direction with per-node
// offset views, so whole-graph scans walk contiguous memory instead of
// chasing one heap allocation per node.
type Graph struct {
	n    int
	out  [][]int32 // out[u] = sorted followees of u (view into csrOut when packed)
	in   [][]int32 // in[v] = sorted followers of v (view into csrIn when packed)
	outS []map[int32]struct{}
	// csrOut/csrIn back the adjacency views after SortAdjacency; nil
	// while the graph is still in per-node append mode.
	csrOut []int32
	csrIn  []int32
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	return &Graph{
		n:    n,
		out:  make([][]int32, n),
		in:   make([][]int32, n),
		outS: make([]map[int32]struct{}, n),
	}
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// AddEdge inserts u->v if absent; self-loops are ignored. It reports
// whether the edge was added.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	if g.outS[u] == nil {
		g.outS[u] = make(map[int32]struct{})
	}
	if _, dup := g.outS[u][int32(v)]; dup {
		return false
	}
	g.outS[u][int32(v)] = struct{}{}
	g.out[u] = append(g.out[u], int32(v))
	g.in[v] = append(g.in[v], int32(u))
	return true
}

// Followees returns the nodes u follows. The returned slice must not be
// modified.
func (g *Graph) Followees(u int) []int32 { return g.out[u] }

// Followers returns the nodes following v. The returned slice must not be
// modified.
func (g *Graph) Followers(v int) []int32 { return g.in[v] }

// OutDegree returns len(Followees(u)).
func (g *Graph) OutDegree(u int) int { return len(g.out[u]) }

// InDegree returns len(Followers(v)).
func (g *Graph) InDegree(v int) int { return len(g.in[v]) }

// SortAdjacency sorts every adjacency list ascending and packs both
// directions into CSR layout, giving deterministic iteration order
// independent of insertion order. The per-node views keep their API:
// Followees/Followers return slices as before, now aliasing the flat
// arrays. Views are capped at their CSR segment, so a later AddEdge on a
// packed node reallocates that node's list instead of clobbering its
// neighbor's segment.
func (g *Graph) SortAdjacency() {
	pack := func(adj [][]int32) []int32 {
		total := 0
		for _, l := range adj {
			total += len(l)
		}
		flat := make([]int32, 0, total)
		for u, l := range adj {
			lo := len(flat)
			flat = append(flat, l...)
			slices.Sort(flat[lo:])
			adj[u] = flat[lo:len(flat):len(flat)]
		}
		return flat
	}
	g.csrOut = pack(g.out)
	g.csrIn = pack(g.in)
}

// Config parameterizes the social graph generator.
type Config struct {
	// N is the number of nodes.
	N int
	// Communities is the number of topical communities (>=1). Nodes are
	// assigned round-robin-with-noise so community sizes are near-equal.
	Communities int
	// MeanOut is the target mean out-degree. Individual out-degrees are
	// drawn from a lognormal around this mean, giving the heavy tail the
	// paper's median-vs-mean gap implies.
	MeanOut float64
	// IntraBias is the probability a follow edge stays inside the
	// follower's community (the rest go anywhere, preferentially).
	IntraBias float64
	// Reciprocity is the probability that adding u->v also adds v->u.
	Reciprocity float64
}

// Generate builds a graph per cfg, deterministically from rng. It also
// returns each node's community assignment.
func Generate(cfg Config, rng *randx.Source) (*Graph, []int, error) {
	if cfg.N <= 0 {
		return nil, nil, fmt.Errorf("graph: N must be positive, got %d", cfg.N)
	}
	if cfg.Communities < 1 {
		cfg.Communities = 1
	}
	if cfg.MeanOut <= 0 {
		cfg.MeanOut = 1
	}
	g := New(cfg.N)
	comm := make([]int, cfg.N)
	members := make([][]int, cfg.Communities)
	for i := 0; i < cfg.N; i++ {
		c := i % cfg.Communities
		// Small shuffle noise: 10% of nodes land in a random community,
		// so communities aren't perfectly striped.
		if rng.Bool(0.10) {
			c = rng.Intn(cfg.Communities)
		}
		comm[i] = c
		members[c] = append(members[c], i)
	}

	// Preferential attachment pool: nodes appear once plus once per
	// inbound edge, so popular nodes attract more follows. Seed with one
	// entry per node.
	prefPool := make([]int32, 0, cfg.N*4)
	for i := 0; i < cfg.N; i++ {
		prefPool = append(prefPool, int32(i))
	}
	// Per-community pools for intra-community attachment.
	commPool := make([][]int32, cfg.Communities)
	for c, ms := range members {
		for _, m := range ms {
			commPool[c] = append(commPool[c], int32(m))
		}
	}

	// Lognormal out-degrees calibrated so the mean is about MeanOut:
	// for lognormal, mean = exp(mu + sigma^2/2).
	sigma := 1.0
	mu := logMean(cfg.MeanOut) - sigma*sigma/2

	order := rng.Perm(cfg.N)
	for _, u := range order {
		target := int(rng.LogNormal(mu, sigma))
		if target < 1 {
			target = 1
		}
		if target > cfg.N-1 {
			target = cfg.N - 1
		}
		attempts := 0
		for g.OutDegree(u) < target && attempts < target*8 {
			attempts++
			var v int
			if rng.Bool(cfg.IntraBias) {
				pool := commPool[comm[u]]
				v = int(pool[rng.Intn(len(pool))])
			} else {
				v = int(prefPool[rng.Intn(len(prefPool))])
			}
			if !g.AddEdge(u, v) {
				continue
			}
			prefPool = append(prefPool, int32(v))
			commPool[comm[v]] = append(commPool[comm[v]], int32(v))
			if rng.Bool(cfg.Reciprocity) && g.AddEdge(v, u) {
				prefPool = append(prefPool, int32(u))
				commPool[comm[u]] = append(commPool[comm[u]], int32(u))
			}
		}
	}
	g.SortAdjacency()
	return g, comm, nil
}

// logMean guards log of small means.
func logMean(m float64) float64 {
	if m < 1 {
		m = 1
	}
	return math.Log(m)
}
