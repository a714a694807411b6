package stats

import (
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

func TestNameJoinsAndInterns(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{Name("obs_", "hits"), "obs_hits"},
		{Name("ts", "_core", Itoa(3), "_lat"), "ts_core3_lat"},
		{Name("hit_latency", "_le_", Itoa(255)), "hit_latency_le_255"},
		{Name(), ""},
		{Itoa(0), "0"},
		{Itoa(99), "99"},
		{Itoa(100), "100"},
		{Itoa(-7), "-7"},
	} {
		if tc.got != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
	a := Name("names_test", "_", Itoa(1234))
	b := Name("names_test_", "1234")
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("one name built from different parts is two strings")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Name("names_test", "_", Itoa(1234)) }); allocs != 0 {
		t.Fatalf("building a seen name made %v allocations, want 0", allocs)
	}
}

// TestNameConcurrent has 8 goroutines build the same fresh names at
// once; under -race this checks the intern's locking, and each name
// must come back as one string.
func TestNameConcurrent(t *testing.T) {
	const workers, names = 8, 200
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				got[w] = append(got[w], Name("name_concurrent_", Itoa(i)))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, s := range got[w] {
			if s != "name_concurrent_"+strconv.Itoa(i) || unsafe.StringData(s) != unsafe.StringData(got[0][i]) {
				t.Fatalf("worker %d name %d: %q is not worker 0's %q", w, i, s, got[0][i])
			}
		}
	}
}
