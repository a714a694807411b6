package obs

import (
	"fmt"
	"slices"
)

// orderRank is the per-access order's rank ladder: within one access,
// events are rank-non-decreasing, except where allowed says otherwise.
// The queue-side kinds sit at the window's edges: Enqueue and Issue
// before the Access (rank 0, with exact-successor rules), Inval after
// everything. Bypass sits where a suppressed promotion's movement links
// would: directly after the Hit, before any trailing Inval.
var orderRank = [numKinds]int8{
	KindAccess:  0,
	KindEnqueue: 0,
	KindIssue:   0,
	KindHit:     1,
	KindMiss:    1,
	KindEvict:   2,
	KindPromote: 3,
	KindDemote:  3,
	KindBypass:  3,
	KindPlace:   4,
	KindSwap:    5,
	KindInval:   6,
}

func isOutcome(k Kind) bool { return k == KindHit || k == KindMiss }

// allowed reports whether next may directly follow prev in an event
// stream. CheckOrder adds the one cross-level exception: an outcome
// directly after an inner level's Place.
func allowed(prev, next Kind) bool {
	switch prev {
	case KindEnqueue:
		// An enqueued request's only successor is its bank grant.
		return next == KindIssue
	case KindIssue:
		// A granted request goes straight into the organization.
		return next == KindAccess
	}
	switch next {
	case KindAccess, KindEnqueue:
		// A new access may begin after any emission but a bare Access,
		// whose outcome is still pending.
		return prev != KindAccess
	case KindIssue:
		return false // Issue only directly follows its own Enqueue
	case KindInval:
		// Coherence shoot-downs trail the access's outcome.
		return orderRank[prev] >= 1
	case KindBypass:
		// A bypass is a suppressed promotion: it directly follows its
		// access's Hit and nothing else.
		return prev == KindHit
	}
	if prev == KindInval || prev == KindBypass {
		// Both close their access window: only a new window or another
		// Inval (handled above) may follow.
		return false
	}
	if isOutcome(prev) && isOutcome(next) {
		return false // two outcomes for one access
	}
	return orderRank[next] >= orderRank[prev]
}

// CheckOrder verifies a recorded event stream against the ordering
// contract in the package comment and returns the first violation. The
// stream is a sequence of access windows, each opened by an Access or
// by an Enqueue → Issue → Access triple. Consecutive events must obey
// the rank ladder and its exact-successor rules, and every window
// carries exactly one outcome (Hit or Miss). inner lists the groups
// that belong to an inner cache level (uca.Hierarchy's L2 is group 0):
// only their Evict and Place may precede the outcome, and the outcome
// may directly follow such a Place. Single-level organizations pass no
// inner groups. An empty stream is trivially ordered.
func CheckOrder(events []Event, inner ...int16) error {
	var prev Kind
	outcome := false   // the current window has seen its outcome
	innerFill := false // prev is an inner level's pre-outcome Place
	for i, e := range events {
		k := e.Kind
		if k >= numKinds {
			return fmt.Errorf("obs: event %d: unknown kind %d", i, k)
		}
		if i == 0 {
			if k != KindAccess && k != KindEnqueue {
				return fmt.Errorf("obs: event 0: stream opens with %v, want access or enqueue", k)
			}
		} else if !allowed(prev, k) && !(innerFill && isOutcome(k)) {
			return fmt.Errorf("obs: event %d: %v after %v violates the order "+
				"[enqueue → issue →] access → outcome → evict → links → place [→ swap] [→ inval]", i, k, prev)
		}
		innerFill = false
		opens := k == KindEnqueue || (k == KindAccess && prev != KindIssue)
		switch {
		case opens:
			if i > 0 && !outcome {
				return fmt.Errorf("obs: event %d: %v opens a window before the previous access's outcome", i, k)
			}
			outcome = false
		case isOutcome(k):
			if outcome {
				return fmt.Errorf("obs: event %d: second outcome %v in one access", i, k)
			}
			outcome = true
		case outcome || k == KindIssue || k == KindAccess:
		case (k == KindEvict || k == KindPlace) && slices.Contains(inner, e.Group):
			// An inner level allocates before the outer outcome is known.
			innerFill = k == KindPlace
		default:
			return fmt.Errorf("obs: event %d: %v (group %d) before the access's outcome", i, k, e.Group)
		}
		prev = k
	}
	if len(events) > 0 && !outcome {
		return fmt.Errorf("obs: stream ends before the last access's outcome")
	}
	return nil
}
