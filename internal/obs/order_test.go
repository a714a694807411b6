package obs

import (
	"strings"
	"testing"
)

// stream builds a minimal event stream from kinds; CheckOrder reads
// only the kinds.
func stream(kinds ...Kind) []Event {
	out := make([]Event, len(kinds))
	for i, k := range kinds {
		out[i] = Event{Kind: k}
	}
	return out
}

// in tags one event with its group, for the inner-level cases.
func in(k Kind, g int16) Event { return Event{Kind: k, Group: g} }

// TestCheckOrder pins the grammar on hand-built streams: the shapes
// every organization emits pass, and each rule has a stream that
// breaks only it.
func TestCheckOrder(t *testing.T) {
	const (
		A, H, M, E = KindAccess, KindHit, KindMiss, KindEvict
		P, D, L, S = KindPromote, KindDemote, KindPlace, KindSwap
		Q, I, V, B = KindEnqueue, KindIssue, KindInval, KindBypass
	)
	hier := []int16{0} // uca.Hierarchy: the L2 is group 0, the L3 group 1
	ok := []struct {
		name  string
		s     []Event
		inner []int16
	}{
		{"empty", nil, nil},
		{"hit", stream(A, H), nil},
		{"miss-ripple", stream(A, M, E, D, D, L, S), nil},
		{"promotion", stream(A, H, P, D, L, S, A, H), nil},
		{"bypass", stream(A, H, B, A, M, L), nil},
		{"cmp", stream(Q, I, A, H, Q, I, A, M, E, L, V, V, Q, I, A, H, B, V), nil},
		{"hierarchy-l2-hit", []Event{in(A, -1), in(H, 0)}, hier},
		{"hierarchy-l3-hit", []Event{in(A, -1), in(E, 0), in(L, 0), in(H, 1)}, hier},
		{"hierarchy-l3-miss", []Event{in(A, -1), in(E, 0), in(L, 0), in(M, -1), in(E, 1), in(L, 1)}, hier},
		{"hierarchy-l3-miss-clean-l2", []Event{in(A, -1), in(L, 0), in(M, -1), in(L, 1)}, hier},
	}
	for _, c := range ok {
		if err := CheckOrder(c.s, c.inner...); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	bad := []struct {
		name  string
		s     []Event
		inner []int16
		want  string
	}{
		{"access-not-first", stream(H, A, M), nil, "opens with hit"},
		{"evict-before-miss", stream(A, E, M), nil, "evict (group 0) before the access's outcome"},
		{"fill-before-miss", stream(A, E, L, M), nil, "evict (group 0) before the access's outcome"},
		{"place-before-hit", stream(A, L, H), nil, "place (group 0) before the access's outcome"},
		{"place-before-demote", stream(A, M, L, D), nil, "demote after place"},
		{"swap-before-place", stream(A, H, P, S, L), nil, "place after swap"},
		{"bypass-after-miss", stream(A, M, B), nil, "bypass after miss"},
		{"two-outcomes", stream(A, H, M), nil, "miss after hit"},
		{"outcome-after-outer-place", stream(A, M, L, H), hier, "hit after place"},
		{"issue-not-after-enqueue", stream(Q, A, H), nil, "access after enqueue"},
		{"bare-issue", stream(A, H, I, A, H), nil, "issue after hit"},
		{"inval-before-outcome", stream(Q, I, A, V, H), nil, "inval after access"},
		{"inval-before-inner-outcome", []Event{in(A, -1), in(E, 0), in(V, -1)}, hier, "inval (group -1) before the access's outcome"},
		{"movement-before-outcome", stream(A, D, L, M), nil, "demote (group 0) before the access's outcome"},
		{"outer-fill-before-outcome", []Event{in(A, -1), in(E, 1), in(L, 1), in(M, -1)}, hier, "evict (group 1) before the access's outcome"},
		{"inner-place-before-evict", []Event{in(A, -1), in(L, 0), in(E, 0), in(H, 1)}, hier, "evict after place"},
		{"no-outcome", stream(A, L, A, H), hier, "before the previous access's outcome"},
		{"truncated", stream(A, H, A), nil, "ends before"},
		{"after-inval", stream(A, H, V, L), nil, "place after inval"},
		{"unknown-kind", stream(A, numKinds), nil, "unknown kind"},
	}
	for _, c := range bad {
		err := CheckOrder(c.s, c.inner...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
