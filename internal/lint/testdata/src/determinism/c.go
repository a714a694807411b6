// c.go seeds the reporting-surface rule: Snapshot/Counters/Names
// implementations must not leak map iteration order into their
// results.
package determinismtest

import "sort"

type kv struct {
	key string
	val int64
}

type collector struct {
	counts map[string]int64
}

// Snapshot leaks map order into its result.
func (c *collector) Snapshot() []kv {
	out := make([]kv, 0, len(c.counts))
	for k, v := range c.counts { // want `Snapshot ranges over a map into a result without sorting it`
		out = append(out, kv{k, v})
	}
	return out
}

// Counters sorts after filling: the sanctioned pattern.
func (c *collector) Counters() []kv {
	out := make([]kv, 0, len(c.counts))
	for k, v := range c.counts { // ok: sorted before returning
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// SortKeys is a repo-local sorting helper; its name marks it for the
// analyzer.
func SortKeys(ks []string) { sort.Strings(ks) }

// Names fills its result, then sorts through the local helper.
func (c *collector) Names() []string {
	out := make([]string, 0, len(c.counts))
	for k := range c.counts { // ok: sorted via SortKeys before returning
		out = append(out, k)
	}
	SortKeys(out)
	return out
}

type grid struct {
	cells map[string]int64
}

// Counters sorts before the loop, which cannot launder the iteration
// order of what the loop appends afterwards.
func (t *grid) Counters() []string {
	keys := make([]string, 0, len(t.cells))
	sort.Strings(keys)
	for k := range t.cells { // want `Counters ranges over a map into a result without sorting it`
		keys = append(keys, k)
	}
	return keys
}

type gauge struct {
	levels map[string]int64
	total  int64
}

// refresh is not a snapshot method and emits nothing, so its map
// iteration is fine.
func (g *gauge) refresh() {
	for range g.levels {
		g.total++
	}
}

type insertion struct {
	order []string
	set   map[string]bool
}

// Counters here is justified out-of-band; the directive documents why
// the analyzer is silenced.
func (i *insertion) Counters() []string {
	out := make([]string, 0, len(i.set))
	//nurapidlint:ignore determinism keys mirror insertion order maintained in i.order
	for k := range i.set {
		out = append(out, k)
	}
	return out
}
