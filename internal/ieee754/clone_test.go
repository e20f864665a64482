package ieee754

import (
	"sync"
	"testing"
)

func TestCloneCopiesModesAndFlags(t *testing.T) {
	base := &Env{Rounding: TowardNegative, FTZ: true, DAZ: true}
	base.Flags = FlagInexact

	c := base.Clone()
	if c.Rounding != TowardNegative || !c.FTZ || !c.DAZ {
		t.Fatalf("mode controls not carried over: %+v", c)
	}
	if c.Flags != FlagInexact {
		t.Fatalf("sticky flags not carried over: %v", c.Flags)
	}

	// Mutating the clone must not touch the original.
	f := Binary64
	var scratch Env
	one := f.FromFloat64(&scratch, 1)
	zero := f.FromFloat64(&scratch, 0)
	f.Div(c, one, zero)
	if !c.TestFlags(FlagDivByZero) {
		t.Fatal("clone did not record its own flags")
	}
	if base.TestFlags(FlagDivByZero) {
		t.Fatal("clone operation leaked flags into the original Env")
	}
}

// TestCloneRace hammers cloned Envs from 8 goroutines. Under -race this
// verifies the one-Env-per-goroutine pattern: a shared template Env is
// cloned once per worker and each clone is then mutated freely with no
// shared state. Every goroutine runs the identical op sequence, so the
// results must agree bit for bit.
func TestCloneRace(t *testing.T) {
	template := &Env{Rounding: NearestEven}
	f := Binary64

	run := func(e *Env) (sum uint64, flags Flags) {
		x := f.FromFloat64(e, 1.0)
		tiny := f.FromFloat64(e, 5e-324)
		shrink := f.FromFloat64(e, 0.999999)
		third := f.Div(e, f.FromFloat64(e, 1), f.FromFloat64(e, 3))
		for i := 0; i < 5000; i++ {
			x = f.Add(e, x, third)
			x = f.Mul(e, x, shrink)
			x = f.FMA(e, x, third, tiny)
			if i%97 == 0 {
				x = f.Sqrt(e, x)
			}
		}
		return x, e.Flags
	}

	const workers = 8
	sums := make([]uint64, workers)
	flags := make([]Flags, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums[w], flags[w] = run(template.Clone())
		}(w)
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		if sums[w] != sums[0] {
			t.Fatalf("goroutine %d result %#x != goroutine 0 result %#x", w, sums[w], sums[0])
		}
		if flags[w] != flags[0] {
			t.Fatalf("goroutine %d flags %v != goroutine 0 flags %v", w, flags[w], flags[0])
		}
	}
	if template.Flags != 0 || template.LastRaised != 0 {
		t.Fatalf("workers leaked state into the template: flags=%v last=%v",
			template.Flags, template.LastRaised)
	}
}
