package mathx

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt limits v to the closed interval [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int64) bool {
	return v > 0 && v&(v-1) == 0
}

// Log2 returns floor(log2(v)) for v > 0, and -1 for v <= 0.
func Log2(v int64) int {
	if v <= 0 {
		return -1
	}
	n := -1
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
