package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/access"
	"repro/internal/relation"
)

// vnodesPerNode is how many virtual points each node contributes to the
// ring. 64 keeps the keyspace shares within a few percent of uniform for
// small static clusters without making Owner's binary search noticeable.
const vnodesPerNode = 64

// fnv64a hash constants, matching relation.Tuple.Hash's family so the
// routing key derives from the same stable cross-process hashing.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// hash64 returns the FNV-1a hash of s.
func hash64(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer: a cheap full-avalanche mixer that
// spreads the XOR-folded (ladder, X-value) key over the whole ring, so
// groups that share a ladder or collide in low bits still land on
// well-separated ring positions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// LadderID returns the canonical wire identity of a ladder:
// "rel|x1,x2|y1,y2". Both sides of an RPC must derive the same ID for the
// same ladder, so it is built only from the ladder's declared attributes,
// never from pointers or build order.
func LadderID(l *access.Ladder) string {
	return l.RelName + "|" + strings.Join(l.X, ",") + "|" + strings.Join(l.Y, ",")
}

// RouteKey maps one ladder group to its ring position: the ladder identity
// hash folded with the group's canonical X-value hash (the same
// relation.Tuple.Hash that keys a ladder's group map), then mixed. Every
// node computes this identically, which is what makes the static ring a
// routing function rather than a directory.
func RouteKey(ladderHash uint64, x relation.Tuple) uint64 {
	return splitmix64(ladderHash ^ x.Hash())
}

// ringPoint is one virtual node position.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over a static node set. Immutable after
// NewRing; safe for concurrent use.
type Ring struct {
	points []ringPoint
	nodes  []string
}

// NewRing builds the ring over the given node IDs (order-insensitive,
// duplicates rejected).
func NewRing(ids []string) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	seen := make(map[string]bool, len(ids))
	nodes := make([]string, 0, len(ids))
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty node ID")
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", id)
		}
		seen[id] = true
		nodes = append(nodes, id)
	}
	sort.Strings(nodes)
	points := make([]ringPoint, 0, len(nodes)*vnodesPerNode)
	for _, id := range nodes {
		for i := 0; i < vnodesPerNode; i++ {
			points = append(points, ringPoint{hash: hash64(id + "#" + strconv.Itoa(i)), node: id})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].hash != points[b].hash {
			return points[a].hash < points[b].hash
		}
		// Colliding vnode hashes tie-break by node ID so every member
		// sorts the ring identically.
		return points[a].node < points[b].node
	})
	return &Ring{points: points, nodes: nodes}, nil
}

// Nodes returns the sorted member IDs.
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the node owning key: the first virtual point at or after
// key, wrapping around the top of the keyspace.
func (r *Ring) Owner(key uint64) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Shares returns each node's share of the keyspace as a fraction in [0,1],
// for the beas_cluster_ring_share series.
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64, len(r.nodes))
	if len(r.points) == 0 {
		return out
	}
	prev := uint64(0)
	for _, p := range r.points {
		out[p.node] += float64(p.hash-prev) / float64(^uint64(0))
		prev = p.hash
	}
	// The wraparound arc from the last point back to the first belongs to
	// the first point's node.
	out[r.points[0].node] += float64(^uint64(0)-prev) / float64(^uint64(0))
	return out
}
