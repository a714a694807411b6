package stats

// JainIndex is Jain's fairness index (sum x)^2 / (n * sum x^2) over
// per-participant allocations: 1.0 when all are equal, 1/n when one
// participant gets everything. An empty or all-zero allocation is
// reported as perfectly fair (1.0).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
