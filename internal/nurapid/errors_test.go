package nurapid

import (
	"strings"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
)

// TestNewErrorMessages pins each validation branch of New to an error
// that names the offending quantity, so a misconfigured experiment fails
// with an actionable message rather than a generic rejection.
func TestNewErrorMessages(t *testing.T) {
	m := cacti.Default()
	mem := memsys.NewMemory(128)
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"dgroups-dont-divide", func(c *Config) { c.NumDGroups = 3 }, "d-groups"},
		{"zero-dgroups", func(c *Config) { c.NumDGroups = 0 }, "d-groups"},
		{"capacity-not-whole-mb", func(c *Config) { c.CapacityBytes = 512 << 10 }, "whole-MB"},
		{"bad-geometry", func(c *Config) { c.Assoc = 0 }, "geometry"},
		{"restriction-not-divisor", func(c *Config) { c.RestrictFrames = 1000 }, "restriction"},
		{"sa-with-restriction", func(c *Config) {
			c.Placement = SetAssociative
			c.RestrictFrames = 256
		}, "incompatible with set-associative"},
		{"sa-assoc-not-divisible", func(c *Config) {
			c.Placement = SetAssociative
			c.NumDGroups = 8
			c.CapacityBytes = 8 << 20
			c.Assoc = 12
		}, "divisible"},
		{"unknown-placement", func(c *Config) { c.Placement = Placement(9) }, "placement"},
		{"negative-trigger", func(c *Config) { c.PromoteHits = -1 }, "trigger"},
		{"huge-trigger", func(c *Config) { c.PromoteHits = 201 }, "trigger"},
		// Triggers past the uint8 range must be rejected with an error
		// naming the saturation point, not silently truncated into the
		// 8-bit per-frame hit counter (256 would wrap to a trigger of 0,
		// promoting on every hit).
		{"uint8-wrap-trigger", func(c *Config) { c.PromoteHits = 256 }, "saturates at 255"},
		{"way-past-uint8-trigger", func(c *Config) { c.PromoteHits = 1000 }, "saturates at 255"},
		// 2^31 frames, one past the largest int32 frame id + 1: frame
		// ids, the frame store's links and the tag entries' forward
		// pointers would wrap. Rejected before anything is allocated.
		{"frames-past-int32", func(c *Config) { c.CapacityBytes = 1 << 38 }, "2147483648 frames exceed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			_, err := New(cfg, m, mem)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestMustNewPanicsOnBadConfig verifies the Must* contract: same
// validation as New, converted to a panic carrying the New error.
func TestMustNewPanicsOnBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumDGroups = 3
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustNew accepted an invalid config")
		}
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), "d-groups") {
			t.Fatalf("panic %v is not the New validation error", r)
		}
	}()
	MustNew(cfg, cacti.Default(), memsys.NewMemory(128))
}

// TestMustNewReturnsWorkingCache is the happy path: MustNew must hand
// back the same cache New would.
func TestMustNewReturnsWorkingCache(t *testing.T) {
	c := MustNew(DefaultConfig(), cacti.Default(), memsys.NewMemory(128))
	if c == nil || c.Config().NumDGroups != 4 {
		t.Fatal("MustNew did not build the default cache")
	}
}

// TestEnumDefaultStrings pins the default String() branches to the
// Stringer convention "Type(value)" so unknown enum values stay
// identifiable in logs and experiment keys.
func TestEnumDefaultStrings(t *testing.T) {
	if got := Promotion(9).String(); got != "Promotion(9)" {
		t.Errorf("Promotion(9).String() = %q", got)
	}
	if got := DistancePolicy(9).String(); got != "DistancePolicy(9)" {
		t.Errorf("DistancePolicy(9).String() = %q", got)
	}
	if got := Placement(9).String(); got != "Placement(9)" {
		t.Errorf("Placement(9).String() = %q", got)
	}
}
