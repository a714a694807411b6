package main

import (
	"strings"
	"testing"
)

// TestPickOrg checks that every organization flag combination either
// maps to an organization or is rejected with an error before any run:
// a cache configuration the cache's constructor refuses must not reach
// the runner, where it panics.
func TestPickOrg(t *testing.T) {
	for _, c := range []struct {
		org, promotion, distance, placement, policy string
		groups, restrict                            int
		want                                        string // key, or error prefix after "!"
	}{
		{"base", "", "", "", "", 0, 0, "base"},
		{"ideal", "", "", "", "", 0, 0, "ideal"},
		{"nurapid", "next-fastest", "random", "da", "", 4, 0, "nurapid-4g-next-fastest-random"},
		{"nurapid", "fastest", "lru", "sa", "", 8, 0, "nurapid-8g-fastest-lru-sa"},
		{"nurapid", "demotion-only", "random", "da", "", 2, 64, "nurapid-2g-demotion-only-random-r64"},
		{"dnuca", "", "", "", "ss-energy", 0, 0, "dnuca-ss-energy"},
		{"nurapid", "next-fastest", "random", "da", "", 3, 0, "!nurapid: 65536 blocks do not divide into 3 d-groups"},
		{"nurapid", "next-fastest", "random", "da", "", 0, 0, "!nurapid: 65536 blocks do not divide into 0 d-groups"},
		{"nurapid", "next-fastest", "random", "da", "", 16, 0, "!nurapid: capacity 8388608 B does not split"},
		{"nurapid", "next-fastest", "random", "da", "", 4, 99999999, "!nurapid: 16384 frames per d-group not divisible"},
		{"nurapid", "next-fastest", "random", "sa", "", 4, 64, "!nurapid:"},
		{"nurapid", "sideways", "random", "da", "", 4, 0, "!unknown promotion"},
		{"nurapid", "next-fastest", "mru", "da", "", 4, 0, "!unknown distance policy"},
		{"nurapid", "next-fastest", "random", "xx", "", 4, 0, "!unknown placement"},
		{"dnuca", "", "", "", "ss-psychic", 0, 0, "!unknown search policy"},
		{"l4", "", "", "", "", 0, 0, "!unknown organization"},
	} {
		org, err := pickOrg(c.org, c.groups, c.promotion, c.distance, c.placement, c.restrict, c.policy)
		if wantErr, isErr := strings.CutPrefix(c.want, "!"); isErr {
			if err == nil || !strings.HasPrefix(err.Error(), wantErr) {
				t.Errorf("pickOrg(%+v) error = %v, want prefix %q", c, err, wantErr)
			}
			continue
		}
		if err != nil || org.Key != c.want {
			t.Errorf("pickOrg(%+v) = %q, %v; want %q", c, org.Key, err, c.want)
		}
	}
}

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want string // error text; "" for none
	}{
		{1, ""},
		{2_000_000, ""},
		{0, "-n must be at least 1, got 0"},
		{-5, "-n must be at least 1, got -5"},
	} {
		err := checkFlags(c.n)
		if (err == nil) != (c.want == "") || (err != nil && err.Error() != c.want) {
			t.Errorf("checkFlags(%d) = %v, want %q", c.n, err, c.want)
		}
	}
}
