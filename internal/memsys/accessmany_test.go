package memsys_test

import (
	"testing"

	"nurapid/internal/memsys"
	"nurapid/internal/memsys/memtest"
)

// TestAccessManyChainsRequests pins AccessMany's timing rule: request i
// issues when request i-1 completes plus request i-1's Gap, each
// request's own Now is ignored, its Core is forwarded, and the return
// value is the last completion plus the last Gap.
func TestAccessManyChainsRequests(t *testing.T) {
	stub := memtest.NewStub(10)
	stub.Record = true
	reqs := []memsys.Req{
		{Now: 999, Addr: 0x100, Core: 1, Gap: 5},
		{Now: 999, Addr: 0x200, Write: true, Gap: 0},
		{Now: 999, Addr: 0x300, Core: 2, Gap: 7},
	}
	out := make([]memsys.AccessResult, len(reqs))
	end := memsys.AccessMany(stub, 100, reqs, out)

	wantIssue := []int64{100, 115, 125}
	for i, q := range stub.Reqs {
		if q.Now != wantIssue[i] || q.Addr != reqs[i].Addr || q.Write != reqs[i].Write || q.Core != reqs[i].Core {
			t.Errorf("request %d reached the lower level as %+v, want issue at %d of %+v",
				i, q, wantIssue[i], reqs[i])
		}
		if out[i].DoneAt != wantIssue[i]+10 || !out[i].Hit {
			t.Errorf("out[%d] = %+v, want a hit done at %d", i, out[i], wantIssue[i]+10)
		}
	}
	if len(stub.Reqs) != len(reqs) {
		t.Fatalf("%d requests reached the lower level, want %d", len(stub.Reqs), len(reqs))
	}
	if end != 135+7 {
		t.Fatalf("AccessMany returned %d, want %d", end, 135+7)
	}
}

func TestAccessManyNilOutAndEmpty(t *testing.T) {
	stub := memtest.NewStub(3)
	if end := memsys.AccessMany(stub, 42, nil, nil); end != 42 || stub.Accesses != 0 {
		t.Fatalf("empty batch: end %d after %d accesses, want 42 after 0", end, stub.Accesses)
	}
	reqs := []memsys.Req{{Addr: 1, Gap: 1}, {Addr: 2, Gap: 1}}
	if end := memsys.AccessMany(stub, 0, reqs, nil); end != 8 || stub.Accesses != 2 {
		t.Fatalf("nil out: end %d after %d accesses, want 8 after 2", end, stub.Accesses)
	}
}

// batcher is a lower level that takes whole batches itself.
type batcher struct {
	*memtest.Stub
	batches int
	got     []memsys.Req
}

func (b *batcher) AccessMany(now int64, reqs []memsys.Req, out []memsys.AccessResult) int64 {
	b.batches++
	b.got = reqs
	return now + 1000
}

func TestAccessManyHandsBatchToBatchAccessor(t *testing.T) {
	b := &batcher{Stub: memtest.NewStub(10)}
	reqs := []memsys.Req{{Addr: 1}, {Addr: 2}}
	if end := memsys.AccessMany(b, 5, reqs, nil); end != 1005 {
		t.Fatalf("AccessMany returned %d, want the batch accessor's 1005", end)
	}
	if b.batches != 1 || len(b.got) != 2 || &b.got[0] != &reqs[0] {
		t.Fatalf("batch not handed over unchanged: %d batches, %d requests", b.batches, len(b.got))
	}
	if b.Accesses != 0 {
		t.Fatalf("%d per-request accesses bypassed the batch accessor", b.Accesses)
	}
}
