package fault

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestEveryNExact pins the deterministic schedule: an every=N rule fires
// on exactly the Nth, 2Nth, ... opportunities.
func TestEveryNExact(t *testing.T) {
	p := &Plan{Seed: 7, Rules: []Rule{{Kind: SSDReadError, EveryN: 3, Transient: 2}}}
	in := p.Injector(0)
	for i := 1; i <= 12; i++ {
		d := in.Check(SSDReadError)
		if want := i%3 == 0; d.Fire != want {
			t.Fatalf("opportunity %d: Fire=%v, want %v", i, d.Fire, want)
		}
		if d.Fire && d.Transient != 2 {
			t.Fatalf("opportunity %d: Transient=%d, want 2", i, d.Transient)
		}
	}
	if got := in.Opportunities(SSDReadError); got != 12 {
		t.Fatalf("Opportunities=%d, want 12", got)
	}
	if got := in.Fired(SSDReadError); got != 4 {
		t.Fatalf("Fired=%d, want 4", got)
	}
}

// TestLimit pins that limit=1 yields exactly one injection — the crash
// schedule's "crash at point k and only point k" contract.
func TestLimit(t *testing.T) {
	p := &Plan{Seed: 7, Rules: []Rule{{Kind: NVMTornFlush, EveryN: 5, Limit: 1}}}
	in := p.Injector(0)
	fired := 0
	for i := 0; i < 50; i++ {
		if in.Check(NVMTornFlush).Fire {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly 1", fired)
	}
	if got := in.Fired(NVMTornFlush); got != 1 {
		t.Fatalf("Fired=%d, want 1", got)
	}
}

// TestProbabilityDeterminism: two injectors from equal plans make
// identical draws; a different site makes an independent stream.
func TestProbabilityDeterminism(t *testing.T) {
	mk := func(site uint64) *Injector {
		return (&Plan{Seed: 42, Rules: []Rule{{Kind: SSDWriteError, Prob: 0.3, Transient: 1}}}).Injector(site)
	}
	a, b, other := mk(1), mk(1), mk(2)
	same, diff := true, false
	fired := 0
	for i := 0; i < 200; i++ {
		da, db, dc := a.Check(SSDWriteError), b.Check(SSDWriteError), other.Check(SSDWriteError)
		if da != db {
			same = false
		}
		if da != dc {
			diff = true
		}
		if da.Fire {
			fired++
		}
	}
	if !same {
		t.Fatal("equal plans at equal sites diverged")
	}
	if !diff {
		t.Fatal("different sites produced identical streams")
	}
	// 0.3 over 200 draws: anything wildly off means the hash is broken.
	if fired < 30 || fired > 90 {
		t.Fatalf("p=0.3 fired %d/200 times", fired)
	}
}

// TestProbabilityRate sanity-checks the unit draw's uniformity at a
// small p over many draws.
func TestProbabilityRate(t *testing.T) {
	in := (&Plan{Seed: 9, Rules: []Rule{{Kind: NetDrop, Prob: 0.01}}}).Injector(3)
	fired := 0
	for i := 0; i < 100000; i++ {
		if in.Check(NetDrop).Fire {
			fired++
		}
	}
	if fired < 700 || fired > 1300 {
		t.Fatalf("p=0.01 fired %d/100000 times", fired)
	}
}

// TestNilSafety: a nil plan and nil injector are inert everywhere.
func TestNilSafety(t *testing.T) {
	var p *Plan
	in := p.Injector(0)
	if in != nil {
		t.Fatal("nil plan produced a non-nil injector")
	}
	if d := in.Check(SSDReadError); d.Fire {
		t.Fatal("nil injector fired")
	}
	if in.Opportunities(SSDReadError) != 0 || in.Fired(SSDReadError) != 0 || in.FiredTotal() != 0 {
		t.Fatal("nil injector counted")
	}
	if p.String() != "" {
		t.Fatal("nil plan stringified")
	}
	if in.Summary() != "no faults armed" {
		t.Fatalf("nil summary: %q", in.Summary())
	}
}

// TestParseSpecRoundTrip: ParseSpec(p.String()) reproduces the rules.
func TestParseSpecRoundTrip(t *testing.T) {
	spec := "seed:99;ssd.read:p=0.01,transient=2;ssd.stall:p=0.005,stall=2ms;nvm.torn:every=500,limit=1;wal.append:p=0.001"
	p, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 99 {
		t.Fatalf("Seed=%d, want 99", p.Seed)
	}
	want := []Rule{
		{Kind: SSDReadError, Prob: 0.01, Transient: 2},
		{Kind: SSDStall, Prob: 0.005, Stall: 2 * time.Millisecond},
		{Kind: NVMTornFlush, EveryN: 500, Limit: 1},
		{Kind: WALAppendError, Prob: 0.001},
	}
	if len(p.Rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(p.Rules), len(want))
	}
	for i, r := range p.Rules {
		if r != want[i] {
			t.Fatalf("rule %d: got %+v, want %+v", i, r, want[i])
		}
	}
	p2, err := ParseSpec(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	for i, r := range p2.Rules {
		if r != want[i] {
			t.Fatalf("round-trip rule %d: got %+v, want %+v", i, r, want[i])
		}
	}
}

// TestParseSpecErrors: malformed specs are rejected with an error, not
// silently ignored.
func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus.kind:p=0.5",      // unknown kind
		"ssd.read",              // missing params
		"ssd.read:p",            // param without value
		"ssd.read:p=1.5",        // probability out of range
		"ssd.read:every=-1",     // non-positive period
		"ssd.read:volume=11",    // unknown parameter
		"ssd.read:transient=2",  // neither every nor p
		"seed:notanumber",       // bad seed
		"ssd.read:stall=fast",   // bad duration
		"ssd.read:p=0.1,p=zero", // bad float
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q): expected error", spec)
		}
	}
	// Empty entries are tolerated (trailing semicolons).
	if p, err := ParseSpec("ssd.read:p=0.5;;"); err != nil || len(p.Rules) != 1 {
		t.Fatalf("trailing semicolons: %v, %+v", err, p)
	}
}

// TestKindNames: every kind has a distinct spec name that parses back.
func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
		got, err := ParseKind(name)
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", name, got, err, k)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
}

// TestIsInjected pins how harnesses tell scheduled faults from real bugs:
// IsInjected accepts injected errors, wrapped or not, and AsCrash
// injected crashes; neither accepts anything else.
func TestIsInjected(t *testing.T) {
	transient := &Error{Kind: SSDReadError, Site: "ssd.read", Attempt: 1}
	permanent := &Error{Kind: SSDReadError, Site: "ssd.read", Attempt: 1, Permanent: true}
	if !IsInjected(transient) || !IsInjected(fmt.Errorf("w: %w", permanent)) {
		t.Fatal("IsInjected missed an injected error")
	}
	if IsInjected(errors.New("real bug")) {
		t.Fatal("IsInjected claimed a real error")
	}
	if c, ok := AsCrash(Crash{Kind: NVMTornFlush, Site: "nvm.flush"}); !ok || c.Kind != NVMTornFlush {
		t.Fatal("AsCrash missed a crash")
	}
	if _, ok := AsCrash("some other panic"); ok {
		t.Fatal("AsCrash claimed a foreign panic")
	}
}

// TestFracRange: torn-flush fractions stay in [0, 1) and vary.
func TestFracRange(t *testing.T) {
	in := (&Plan{Seed: 5, Rules: []Rule{{Kind: NVMTornFlush, Prob: 1}}}).Injector(0)
	seen := map[float64]bool{}
	for i := 0; i < 100; i++ {
		d := in.Check(NVMTornFlush)
		if !d.Fire {
			t.Fatal("p=1 rule did not fire")
		}
		if d.Frac < 0 || d.Frac >= 1 {
			t.Fatalf("Frac=%v out of [0,1)", d.Frac)
		}
		seen[d.Frac] = true
	}
	if len(seen) < 50 {
		t.Fatalf("Frac only took %d distinct values in 100 draws", len(seen))
	}
}

// TestConcurrentCheck exercises the atomic counters under the race
// detector and pins that total fired counts respect Limit.
func TestConcurrentCheck(t *testing.T) {
	in := (&Plan{Seed: 1, Rules: []Rule{
		{Kind: SSDReadError, EveryN: 2, Limit: 10, Transient: 1},
	}}).Injector(0)
	done := make(chan int64, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var fired int64
			for i := 0; i < 1000; i++ {
				if in.Check(SSDReadError).Fire {
					fired++
				}
			}
			done <- fired
		}()
	}
	var total int64
	for g := 0; g < 4; g++ {
		total += <-done
	}
	if total != 10 {
		t.Fatalf("fired %d times across goroutines, want Limit=10", total)
	}
	if got := in.Fired(SSDReadError); got != 10 {
		t.Fatalf("Fired=%d, want 10", got)
	}
	if in.Opportunities(SSDReadError) != 4000 {
		t.Fatalf("Opportunities=%d, want 4000", in.Opportunities(SSDReadError))
	}
}
