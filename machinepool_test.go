package partree

import (
	"context"
	"sync"
	"testing"
)

// poolTestOptions returns an Options shape with a key no other test
// uses, so counter deltas are exact even when the shared pool is warm.
func poolTestOptions(grain int) Options {
	return Options{Workers: 3, Processors: 11, Grain: grain}
}

func TestMachinePoolReusesAcrossCalls(t *testing.T) {
	o := poolTestOptions(5)
	jobs := [][]float64{{1, 2, 3}, {4, 5}, {6}}

	before := MachinePoolStats()
	if _, st := HuffmanBatch(jobs, o); st.Work == 0 {
		t.Fatal("first call booked no work")
	}
	mid := MachinePoolStats()
	if d := mid.Constructed - before.Constructed; d != 1 {
		t.Fatalf("first call constructed %d machines, want 1", d)
	}
	for i := 0; i < 5; i++ {
		HuffmanBatch(jobs, o)
	}
	after := MachinePoolStats()
	if d := after.Constructed - mid.Constructed; d != 0 {
		t.Errorf("steady-state calls constructed %d machines, want 0", d)
	}
	if d := after.Reused - mid.Reused; d != 5 {
		t.Errorf("steady-state calls reused %d machines, want 5", d)
	}
}

func TestMachinePoolStatsIsolatedPerCall(t *testing.T) {
	o := poolTestOptions(6)
	jobs := [][]float64{{1, 2, 3, 4}, {5, 6}}
	_, st1 := HuffmanBatch(jobs, o)
	_, st2 := HuffmanBatch(jobs, o) // reused machine must not accumulate
	if st1.Steps != st2.Steps || st1.Work != st2.Work {
		t.Errorf("reused machine leaked stats: first %+v vs second %+v", st1, st2)
	}
}

func TestMachinePoolScrubsTracer(t *testing.T) {
	o := poolTestOptions(7)
	jobs := [][]float64{{1, 2, 3}, {4, 5}}
	tr := NewTrace(0)
	to := o
	to.Trace = tr
	HuffmanBatch(jobs, to)
	traced := len(tr.Spans())
	if traced == 0 {
		t.Fatal("traced call recorded no spans")
	}
	HuffmanBatch(jobs, o) // same key, reused machine, no trace requested
	if got := len(tr.Spans()); got != traced {
		t.Errorf("untraced call appended spans to the previous call's trace: %d -> %d", traced, got)
	}
}

func TestMachinePoolDiscardsAbortedMachines(t *testing.T) {
	o := poolTestOptions(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := MachinePoolStats()
	if _, _, err := HuffmanBatchContext(ctx, [][]float64{{1, 2}}, o); err == nil {
		t.Fatal("pre-canceled batch did not error")
	}
	after := MachinePoolStats()
	if d := after.Discarded - before.Discarded; d != 1 {
		t.Errorf("aborted call discarded %d machines, want 1", d)
	}
}

func TestDrainMachinePool(t *testing.T) {
	o := poolTestOptions(9)
	HuffmanBatch([][]float64{{1, 2, 3}}, o)
	if n := DrainMachinePool(); n < 1 {
		t.Errorf("drain dropped %d machines, want at least 1", n)
	}
	// The pool must rebuild transparently.
	if _, st := HuffmanBatch([][]float64{{1, 2, 3}}, o); st.Work == 0 {
		t.Error("post-drain call booked no work")
	}
}

func TestMachinePoolConcurrentCallers(t *testing.T) {
	o := poolTestOptions(10)
	jobs := [][]float64{{3, 1, 4, 1, 5}, {9, 2, 6}, {5, 3, 5}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				out, _ := HuffmanBatch(jobs, o)
				if len(out) != len(jobs) {
					t.Errorf("batch returned %d results, want %d", len(out), len(jobs))
					return
				}
				for j, r := range out {
					if r.Err != nil {
						t.Errorf("job %d failed: %v", j, r.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
