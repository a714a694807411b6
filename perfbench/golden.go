package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// goldenSeeds is how many simulation seeds have committed goldens.
const goldenSeeds = 16

// simSeed maps the benchmark's --seed onto the simulation seeds 1..16
// that have goldens: seed s selects 1 + (s-1) mod 16.
func simSeed(seed uint64) uint64 { return 1 + (seed+goldenSeeds-1)%goldenSeeds }

// goldens maps workload -> simulation seed -> output key -> hash. The
// output key is "render" for a rendered experiment and "app/org" for a
// replay job's ReplayResult.Fingerprint.
type goldens map[string]map[string]map[string]string

//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("parse goldens.json: %w", err)
	}
	return g, nil
}

// mismatches counts the jobs of out whose output differs from the
// golden. A rendered experiment covers all of the iteration's jobs, so a
// render mismatch fails every one of them.
func (g goldens) mismatches(workload string, seed uint64, out *iterOut) int {
	want := g[workload][strconv.FormatUint(seed, 10)]
	if len(want) == 0 {
		return out.jobs
	}
	if h, ok := out.hashes["render"]; ok {
		if h != want["render"] {
			return out.jobs
		}
		return 0
	}
	bad := 0
	for k, h := range out.hashes {
		if want[k] != h {
			bad++
		}
	}
	return bad
}

// recordGoldens runs every workload at every golden seed, untraced and
// traced, and writes the output hashes to path. It fails if the two runs
// disagree.
func recordGoldens(path string) error {
	g := goldens{}
	for _, w := range workloadNames {
		g[w] = map[string]map[string]string{}
		for s := uint64(1); s <= goldenSeeds; s++ {
			run, err := newRun(w, s, 1)
			if err != nil {
				return err
			}
			tr, un := run.iterate(traced), run.iterate(untraced)
			for k, h := range un.hashes {
				if tr.hashes[k] != h {
					return fmt.Errorf("%s seed %d: %s traced %s != untraced %s", w, s, k, tr.hashes[k], h)
				}
			}
			g[w][strconv.FormatUint(s, 10)] = un.hashes
			fmt.Fprintf(os.Stderr, "recorded %s seed %d\n", w, s)
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
