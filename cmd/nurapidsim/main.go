// Command nurapidsim runs one (application x organization) simulation and
// prints the full statistics: IPC, L2 access distribution, energy
// breakdown, and the organization's event counters.
//
// Usage:
//
//	nurapidsim -app mcf -org nurapid -groups 4 -promotion next-fastest
//	nurapidsim -app art -org dnuca -policy ss-energy
//	nurapidsim -app applu -org base
//	nurapidsim -list    # show the application roster
package main

import (
	"flag"
	"fmt"
	"os"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/sim"
	"nurapid/internal/workload"
)

func main() {
	var (
		appName   = flag.String("app", "applu", "application model (see -list)")
		orgName   = flag.String("org", "nurapid", "base | ideal | nurapid | dnuca")
		groups    = flag.Int("groups", 4, "nurapid: number of d-groups (2, 4, 8)")
		promotion = flag.String("promotion", "next-fastest", "nurapid: demotion-only | next-fastest | fastest")
		distance  = flag.String("distance", "random", "nurapid: random | lru distance replacement")
		placement = flag.String("placement", "da", "nurapid: da | sa placement")
		restrict  = flag.Int("restrict", 0, "nurapid: frames per d-group a block may use (0 = all)")
		policy    = flag.String("policy", "ss-performance", "dnuca: ss-performance | ss-energy")
		n         = flag.Int64("n", 2_000_000, "instructions to simulate")
		seed      = flag.Uint64("seed", 1, "workload seed")
		list      = flag.Bool("list", false, "list application models and exit")
	)
	flag.Parse()
	if err := checkFlags(*n); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *list {
		fmt.Printf("%-10s %-4s %-5s %8s %8s\n", "name", "type", "class", "IPC", "APKI")
		for _, a := range workload.Apps() {
			typ := "Int"
			if a.FP {
				typ = "FP"
			}
			fmt.Printf("%-10s %-4s %-5s %8.1f %8.0f\n", a.Name, typ, a.Class, a.TableIPC, a.TableAPKI)
		}
		return
	}

	app, ok := workload.ByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown application %q (use -list)\n", *appName)
		os.Exit(2)
	}

	org, err := pickOrg(*orgName, *groups, *promotion, *distance, *placement, *restrict, *policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	r := sim.NewRunner(sim.WithInstructions(*n), sim.WithSeed(*seed))
	res := r.Run(app, org)

	fmt.Printf("application: %s    organization: %s\n", res.App, res.Org)
	fmt.Printf("instructions: %d    cycles: %d    IPC: %.3f\n",
		res.CPU.Instructions, res.CPU.Cycles, res.CPU.IPC)
	fmt.Printf("L1D: %d accesses, %d misses (%.1f%%)    L1I: %d accesses, %d misses\n",
		res.CPU.L1DAccesses, res.CPU.L1DMisses,
		100*float64(res.CPU.L1DMisses)/float64(max(res.CPU.L1DAccesses, 1)),
		res.CPU.L1IAccesses, res.CPU.L1IMisses)
	fmt.Printf("L2 accesses: %d (APKI %.1f)    memory accesses: %d\n",
		res.CPU.L2Accesses, res.CPU.APKI, res.MemAccesses)
	fmt.Printf("L2 access distribution: %v\n", res.L2Dist)
	if res.L2GroupAccesses != nil {
		fmt.Printf("d-group data-array accesses: %v\n", res.L2GroupAccesses)
	}
	fmt.Printf("energy (nJ): core %.0f, L1 %.0f, L2 %.0f, memory %.0f, total %.0f\n",
		res.Energy.CoreNJ, res.Energy.L1NJ, res.Energy.L2NJ, res.Energy.MemoryNJ,
		res.Energy.TotalNJ())
	fmt.Printf("energy-delay: %.3e nJ-cycles\n", res.ED)
	fmt.Println("organization counters:")
	for _, name := range res.L2Ctrs.Names() {
		fmt.Printf("  %-24s %12d\n", name, res.L2Ctrs.Get(name))
	}
}

// checkFlags rejects flag values no run can use.
func checkFlags(n int64) error {
	if n < 1 {
		return fmt.Errorf("-n must be at least 1, got %d", n)
	}
	return nil
}

// pickOrg maps the organization flags to a Runner organization. It
// builds the cache once, so a configuration the cache rejects is an
// error here rather than a panic inside the run.
func pickOrg(name string, groups int, promotion, distance, placement string, restrict int, policy string) (sim.Organization, error) {
	switch name {
	case "base":
		return sim.Base(), nil
	case "ideal":
		return sim.Ideal(), nil
	case "nurapid":
		cfg := nurapid.DefaultConfig()
		cfg.NumDGroups = groups
		cfg.RestrictFrames = restrict
		switch promotion {
		case "demotion-only":
			cfg.Promotion = nurapid.DemotionOnly
		case "next-fastest":
			cfg.Promotion = nurapid.NextFastest
		case "fastest":
			cfg.Promotion = nurapid.Fastest
		default:
			return sim.Organization{}, fmt.Errorf("unknown promotion %q", promotion)
		}
		switch distance {
		case "random":
			cfg.Distance = nurapid.RandomDistance
		case "lru":
			cfg.Distance = nurapid.LRUDistance
		default:
			return sim.Organization{}, fmt.Errorf("unknown distance policy %q", distance)
		}
		switch placement {
		case "da":
			cfg.Placement = nurapid.DistanceAssociative
		case "sa":
			cfg.Placement = nurapid.SetAssociative
		default:
			return sim.Organization{}, fmt.Errorf("unknown placement %q", placement)
		}
		if _, err := nurapid.New(cfg, cacti.Default(), memsys.NewMemory(cfg.BlockBytes)); err != nil {
			return sim.Organization{}, err
		}
		return sim.NuRAPID(cfg), nil
	case "dnuca":
		cfg := nuca.DefaultConfig()
		switch policy {
		case "ss-performance":
			cfg.Policy = nuca.SSPerformance
		case "ss-energy":
			cfg.Policy = nuca.SSEnergy
		default:
			return sim.Organization{}, fmt.Errorf("unknown search policy %q", policy)
		}
		if _, err := nuca.New(cfg, cacti.Default(), memsys.NewMemory(nuca.BlockBytes)); err != nil {
			return sim.Organization{}, err
		}
		return sim.DNUCA(cfg), nil
	default:
		return sim.Organization{}, fmt.Errorf("unknown organization %q", name)
	}
}
