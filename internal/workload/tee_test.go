package workload

import (
	"testing"

	"nurapid/internal/mathx"
)

// TestTeeMatchesGenerator reads one to four readers of a tee at uneven
// paces, reader i reading about i+1 instructions for every one of
// reader 0's, so the readers drift thousands apart and the ring grows,
// and requires every reader to return exactly the stream of an
// independent generator with the same app and seed.
func TestTeeMatchesGenerator(t *testing.T) {
	app, _ := ByName("mcf")
	const n = 20_000
	for readers := 1; readers <= 4; readers++ {
		srcs := Tee(MustNewGenerator(app, 3), readers)
		refs := make([]*Generator, readers)
		read := make([]int, readers)
		for i := range refs {
			refs[i] = MustNewGenerator(app, 3)
		}
		rng := mathx.NewRNG(uint64(readers))
		check := func(i int) {
			got, ok := srcs[i].Next()
			want, _ := refs[i].Next()
			if !ok || got != want {
				t.Fatalf("%d readers: reader %d, instruction %d: %+v, %v; generator %+v", readers, i, read[i], got, ok, want)
			}
			read[i]++
		}
		for done := false; !done; {
			done = true
			for i := range srcs {
				for k := rng.Intn(2 * (i + 1)); k > 0 && read[i] < n; k-- {
					check(i)
				}
				done = done && read[i] == n
			}
		}
		if hw := srcs[0].(*TeeReader).HighWater(); readers > 1 && hw <= teeRing {
			t.Fatalf("%d readers: high-water mark %d: the ring never grew", readers, hw)
		}
	}
}

// TestTeeLimitEndsTogether tees a finite source and requires every
// reader, read at its own pace, to end after the same count, and to stay
// ended.
func TestTeeLimitEndsTogether(t *testing.T) {
	app, _ := ByName("art")
	for _, limit := range []int64{0, 1, teeBatch, 1000, 3*teeRing + 7} {
		srcs := Tee(Limit(MustNewGenerator(app, 1), limit), 3)
		ref := Limit(MustNewGenerator(app, 1), limit)
		var want []Instr
		for in, ok := ref.Next(); ok; in, ok = ref.Next() {
			want = append(want, in)
		}
		// Reader i reads i+1 instructions a round until it ends.
		got := make([][]Instr, len(srcs))
		ended := make([]bool, len(srcs))
		for left := len(srcs); left > 0; {
			for i, src := range srcs {
				for k := 0; k <= i && !ended[i]; k++ {
					if in, ok := src.Next(); ok {
						got[i] = append(got[i], in)
					} else {
						ended[i] = true
						left--
					}
				}
			}
		}
		for i, src := range srcs {
			if int64(len(got[i])) != limit {
				t.Fatalf("limit %d: reader %d ended after %d", limit, i, len(got[i]))
			}
			for k := range want {
				if got[i][k] != want[k] {
					t.Fatalf("limit %d: reader %d, instruction %d: %+v, want %+v", limit, i, k, got[i][k], want[k])
				}
			}
			if _, ok := src.Next(); ok {
				t.Fatalf("limit %d: reader %d yielded after its end", limit, i)
			}
		}
	}
}
