package graph

// Morsel-driven scan partitioning. A morsel is a fixed-size slice of the
// node array underlying a scan operator; the execution engine hands morsels
// to a bounded pool of workers so that one large read query can use many
// cores (morsel-driven parallelism in the style of HyPer [Leis et al. 2014],
// applied to the paper's scan→filter→project hot path).

// DefaultMorselSize is the number of nodes per morsel when the caller does
// not configure one. Large enough to amortise per-morsel scheduling, small
// enough that a typical scan splits into many more morsels than workers,
// which keeps the pool load-balanced when per-row costs are skewed.
const DefaultMorselSize = 1024

// Morsels partitions a node slice (a scan snapshot such as Nodes() or
// NodesByLabel(), or the result of an index seek) into contiguous morsels of
// at most size nodes, preserving order. The chunks alias the input slice;
// they are never written.
func Morsels(nodes []*Node, size int) [][]*Node {
	if size <= 0 {
		size = DefaultMorselSize
	}
	if len(nodes) == 0 {
		return nil
	}
	out := make([][]*Node, 0, (len(nodes)+size-1)/size)
	for start := 0; start < len(nodes); start += size {
		end := start + size
		if end > len(nodes) {
			end = len(nodes)
		}
		out = append(out, nodes[start:end])
	}
	return out
}
