package stats

import (
	"strconv"
	"sync"
)

// names interns metric names, so a harvest repeated run after run
// builds each distinct name once per process: Name assembles the name
// in a stack buffer and returns the interned copy, allocating only the
// first time a name is seen. The table lives as long as the process and
// holds one string per distinct name ever built (per core, bank,
// d-group and histogram bucket of the configurations run).
var names = struct {
	mu sync.RWMutex
	m  map[string]string
}{m: make(map[string]string)}

// Name returns the metric name that concatenates parts, interned.
func Name(parts ...string) string {
	var buf [128]byte
	b := buf[:0]
	for _, p := range parts {
		b = append(b, p...)
	}
	return intern(b)
}

// Itoa returns i's decimal form, interned, for use as a part of Name.
func Itoa(i int) string {
	if 0 <= i && i < 100 {
		return strconv.Itoa(i) // a static string; no allocation
	}
	var buf [20]byte
	return intern(strconv.AppendInt(buf[:0], int64(i), 10))
}

// intern returns the interned string equal to b, adding it on first
// sight. The lookups convert b without copying it.
func intern(b []byte) string {
	names.mu.RLock()
	s, ok := names.m[string(b)]
	names.mu.RUnlock()
	if ok {
		return s
	}
	names.mu.Lock()
	defer names.mu.Unlock()
	if s, ok := names.m[string(b)]; ok {
		return s
	}
	s = string(b)
	names.m[s] = s
	return s
}
