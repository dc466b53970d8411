package graph

// Weighted-graph helpers: edge labels double as integer edge weights
// (weight 0 is treated as 1, so unlabeled graphs behave as unit-weight).

// Weight returns the weight of the i-th arc of u.
func (g *Graph) Weight(u V, i int) int64 {
	w := int64(g.EdgeLabelAt(u, i))
	if w <= 0 {
		return 1
	}
	return w
}
