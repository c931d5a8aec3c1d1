// Package fault implements deterministic fault injection for the
// storage tiers and the serving path.
//
// The paper's durability argument (§4: cache-line-grained clwb+sfence
// persistence, a WAL on NVM, eviction to SSD) rests on recovery being
// correct at *arbitrary* failure points, not only at the clean crash
// points tests tend to pick. This package supplies the adversary: a
// seeded Plan schedules injections by operation count (EveryN) or
// probability (Prob), and per-site Injectors derived from the plan make
// every draw reproducible — the same seed always crashes the same flush,
// fails the same SSD access, and drops the same connection.
//
// The injection sites, threaded through the rest of the repository:
//
//   - internal/nvm — torn cache-line flushes (a crash between the clwbs
//     of one multi-line persist), clean crashes before a flush, and
//     flush stalls;
//   - internal/ssd — transient and permanent page I/O errors (with
//     retry-and-backoff in the device path) and slow-I/O stalls, on
//     reads, writes, and therefore snapshots, which use the same calls;
//   - internal/wal — append failures and torn mid-flush crashes of the
//     log tail;
//   - internal/server — connection drops mid-pipeline and partial
//     response frames.
//
// Crash-type injections panic with Crash, which harnesses recover
// before restarting the store (see AsCrash and internal/fault/harness);
// error-type injections surface as *Error, whose Permanent field says
// whether a retry can succeed. The SSD device retries a fault the plan
// marks transient (Decision.Transient) and panics on a permanent one or
// one that outlasts its retry budget; the network client retries what
// client.IsRetryable accepts.
//
// Injectors are safe for concurrent use (the server shares one across
// connections); all counters are atomic and probability draws are
// counter-hashed rather than stateful, so concurrency cannot perturb
// another site's stream.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nvmstore/internal/shard"
)

// Kind names one injection point in the storage or serving stack.
type Kind uint8

// The injection points. Spec names in parentheses.
const (
	// NVMTornFlush tears an NVM flush: only a prefix of the cache lines
	// being persisted becomes durable, then the device crashes — the
	// adversarial interleaving of clwbs and power failure ("nvm.torn").
	NVMTornFlush Kind = iota
	// NVMCrash crashes cleanly before a flush persists anything
	// ("nvm.crash").
	NVMCrash
	// NVMStall charges extra latency to a flush ("nvm.stall").
	NVMStall
	// SSDReadError fails a page read; Transient attempts fail before
	// the read succeeds, zero means a permanent medium failure
	// ("ssd.read").
	SSDReadError
	// SSDWriteError fails a page write like SSDReadError ("ssd.write").
	SSDWriteError
	// SSDStall charges extra latency to a page access ("ssd.stall").
	SSDStall
	// WALAppendError fails a log append with an error ("wal.append").
	WALAppendError
	// WALFlushCrash tears the flush of the log tail: a prefix of the
	// unflushed bytes persists, then the device crashes ("wal.flush").
	WALFlushCrash
	// NetDrop makes the server close a connection abruptly instead of
	// writing a queued response ("net.drop").
	NetDrop
	// NetPartial makes the server write only part of a response frame
	// and then close the connection ("net.partial").
	NetPartial
	// WALGroupCrash crashes between a group-commit batch's execution
	// (commit records appended, not yet flushed) and the coalesced
	// log-tail flush that would make them durable ("wal.group"). Ops in
	// the batch have not been acknowledged, so recovery must roll all of
	// them back — the ack⇒durable probe point of group commit.
	WALGroupCrash
	// CkptRound crashes at the start of an incremental-checkpoint round
	// ("ckpt.round"): some dirty pages of the fuzzy checkpoint have been
	// written back in earlier rounds, the log is not yet truncated, and
	// the power fails. Recovery must replay the intact log over the
	// partially written-back pool — the probe point of checkpoint
	// maintenance.
	CkptRound

	numKinds
)

var kindNames = [numKinds]string{
	NVMTornFlush:   "nvm.torn",
	NVMCrash:       "nvm.crash",
	NVMStall:       "nvm.stall",
	SSDReadError:   "ssd.read",
	SSDWriteError:  "ssd.write",
	SSDStall:       "ssd.stall",
	WALAppendError: "wal.append",
	WALFlushCrash:  "wal.flush",
	NetDrop:        "net.drop",
	NetPartial:     "net.partial",
	WALGroupCrash:  "wal.group",
	CkptRound:      "ckpt.round",
}

// String returns the spec name of the kind ("ssd.read", "nvm.torn", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("fault.Kind(%d)", int(k))
}

// ParseKind resolves a spec name to its Kind.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q (have %s)", name, strings.Join(kindNames[:], ", "))
}

// Rule schedules one fault kind. Exactly one of EveryN and Prob should
// be set; a rule with neither never fires.
type Rule struct {
	// Kind is the injection point the rule applies to.
	Kind Kind
	// EveryN fires the rule deterministically on every Nth opportunity
	// (the Nth flush, the Nth page read, ...). This is how crash
	// schedules pin a fault to an exact operation.
	EveryN int64
	// Prob fires the rule with this probability per opportunity, drawn
	// from the injector's seeded stream. This is how benchmarks model a
	// fault *rate*.
	Prob float64
	// Transient, for error-kind rules, is how many consecutive attempts
	// of the access fail before it succeeds; zero injects a permanent
	// failure (fatal after the device's retry budget).
	Transient int
	// Stall is the extra simulated latency charged by stall-kind rules.
	Stall time.Duration
	// Limit caps how many times the rule fires in total; zero means
	// unlimited. Crash schedules use Limit: 1 to place exactly one fault.
	Limit int64
}

// Plan is a seeded fault schedule: a set of rules plus the base seed all
// injector streams derive from. A nil *Plan is valid everywhere and
// injects nothing.
type Plan struct {
	// Seed is the base of every derived injector stream; two plans with
	// equal rules and seeds inject identically.
	Seed uint64
	// Rules lists the scheduled faults.
	Rules []Rule
}

// Injector derives the per-site injector for this plan. The site salt
// separates streams — each shard, device, or server passes a distinct
// site so probability draws are independent yet reproducible. A nil
// plan yields a nil injector, which is inert.
func (p *Plan) Injector(site uint64) *Injector {
	if p == nil {
		return nil
	}
	in := &Injector{seed: shard.Mix(p.Seed ^ shard.Mix(site+0x5851f42d4c957f2d))}
	for _, r := range p.Rules {
		if int(r.Kind) >= int(numKinds) {
			continue
		}
		in.rules[r.Kind] = append(in.rules[r.Kind], &ruleState{rule: r})
	}
	return in
}

// String renders the plan in ParseSpec's format (rules only; the seed
// travels separately).
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := make([]string, 0, len(p.Rules))
	for _, r := range p.Rules {
		var opts []string
		if r.EveryN > 0 {
			opts = append(opts, "every="+strconv.FormatInt(r.EveryN, 10))
		}
		if r.Prob > 0 {
			opts = append(opts, "p="+strconv.FormatFloat(r.Prob, 'g', -1, 64))
		}
		if r.Transient > 0 {
			opts = append(opts, "transient="+strconv.Itoa(r.Transient))
		}
		if r.Stall > 0 {
			opts = append(opts, "stall="+r.Stall.String())
		}
		if r.Limit > 0 {
			opts = append(opts, "limit="+strconv.FormatInt(r.Limit, 10))
		}
		parts = append(parts, r.Kind.String()+":"+strings.Join(opts, ","))
	}
	return strings.Join(parts, ";")
}

// ParseSpec parses the command-line fault specification used by
// nvmbench -faults and nvmserver -faults. The grammar is
//
//	spec  := entry (';' entry)*
//	entry := kind ':' param (',' param)*  |  "seed" ':' uint
//	param := "every=" n | "p=" prob | "transient=" n | "stall=" dur | "limit=" n
//
// for example
//
//	ssd.read:p=0.01,transient=2;ssd.stall:p=0.005,stall=2ms;nvm.torn:every=500,limit=1
//
// Kinds are listed on Kind's constants. A "seed:N" entry sets the plan
// seed (default 1).
func ParseSpec(spec string) (*Plan, error) {
	p := &Plan{Seed: 1}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, params, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q: want kind:param=value,...", entry)
		}
		if name == "seed" {
			seed, err := strconv.ParseUint(params, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: seed %q: %v", params, err)
			}
			p.Seed = seed
			continue
		}
		kind, err := ParseKind(name)
		if err != nil {
			return nil, err
		}
		r := Rule{Kind: kind}
		for _, param := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(param), "=")
			if !ok {
				return nil, fmt.Errorf("fault: entry %q: parameter %q: want key=value", entry, param)
			}
			switch key {
			case "every":
				if r.EveryN, err = strconv.ParseInt(val, 10, 64); err == nil && r.EveryN <= 0 {
					err = errors.New("must be positive")
				}
			case "p":
				if r.Prob, err = strconv.ParseFloat(val, 64); err == nil && (r.Prob < 0 || r.Prob > 1) {
					err = errors.New("must be in [0, 1]")
				}
			case "transient":
				r.Transient, err = strconv.Atoi(val)
			case "stall":
				r.Stall, err = time.ParseDuration(val)
			case "limit":
				r.Limit, err = strconv.ParseInt(val, 10, 64)
			default:
				err = errors.New("unknown parameter")
			}
			if err != nil {
				return nil, fmt.Errorf("fault: entry %q: parameter %q: %v", entry, param, err)
			}
		}
		if r.EveryN == 0 && r.Prob == 0 {
			return nil, fmt.Errorf("fault: entry %q: needs every=N or p=prob to ever fire", entry)
		}
		p.Rules = append(p.Rules, r)
	}
	return p, nil
}

// Decision is an injector's verdict for one opportunity.
type Decision struct {
	// Fire reports whether a fault is injected here.
	Fire bool
	// Transient, for error faults, is how many attempts fail before the
	// access succeeds; zero means a permanent failure.
	Transient int
	// StallNs is the extra simulated latency for stall faults.
	StallNs int64
	// Frac, for torn-flush faults, is the fraction of the flush that
	// persists before the crash, drawn uniformly from [0, 1).
	Frac float64
}

// ruleState is a rule plus its firing bookkeeping.
type ruleState struct {
	rule  Rule
	fired atomic.Int64
}

// Injector evaluates a plan's rules at one site. The zero opportunity
// counters make repeated runs with equal plans and workloads identical.
// A nil *Injector is inert: Check reports no faults. Safe for
// concurrent use.
type Injector struct {
	seed  uint64
	ops   [numKinds]atomic.Int64
	rules [numKinds][]*ruleState
}

// Check registers one opportunity for kind k and reports whether (and
// how) a fault fires. Instrumented code calls it at every injection
// point; with no matching rules it is a single atomic increment.
func (in *Injector) Check(k Kind) Decision {
	if in == nil || int(k) >= int(numKinds) {
		return Decision{}
	}
	n := in.ops[k].Add(1)
	for _, rs := range in.rules[k] {
		fire := false
		switch {
		case rs.rule.EveryN > 0:
			fire = n%rs.rule.EveryN == 0
		case rs.rule.Prob > 0:
			fire = unitDraw(in.seed, uint64(k), uint64(n), 0) < rs.rule.Prob
		}
		if !fire {
			continue
		}
		if fired := rs.fired.Add(1); rs.rule.Limit > 0 && fired > rs.rule.Limit {
			continue
		}
		return Decision{
			Fire:      true,
			Transient: rs.rule.Transient,
			StallNs:   int64(rs.rule.Stall),
			Frac:      unitDraw(in.seed, uint64(k), uint64(n), 1),
		}
	}
	return Decision{}
}

// Opportunities returns how many times Check(k) ran — the size of the
// schedule space a crash sweep can place EveryN faults in. Counting
// works even with no rules, so a dry run with an empty plan calibrates
// a sweep.
func (in *Injector) Opportunities(k Kind) int64 {
	if in == nil || int(k) >= int(numKinds) {
		return 0
	}
	return in.ops[k].Load()
}

// Fired returns how many times kind k actually injected.
func (in *Injector) Fired(k Kind) int64 {
	if in == nil || int(k) >= int(numKinds) {
		return 0
	}
	var total int64
	for _, rs := range in.rules[k] {
		n := rs.fired.Load()
		if rs.rule.Limit > 0 && n > rs.rule.Limit {
			n = rs.rule.Limit
		}
		total += n
	}
	return total
}

// FiredTotal sums Fired over all kinds.
func (in *Injector) FiredTotal() int64 {
	if in == nil {
		return 0
	}
	var total int64
	for k := Kind(0); k < numKinds; k++ {
		total += in.Fired(k)
	}
	return total
}

// Summary renders the nonzero fired counters, for benchmark notes.
func (in *Injector) Summary() string {
	if in == nil {
		return "no faults armed"
	}
	var parts []string
	for k := Kind(0); k < numKinds; k++ {
		if n := in.Fired(k); n > 0 {
			parts = append(parts, fmt.Sprintf("%s×%d", k, n))
		}
	}
	if len(parts) == 0 {
		return "no faults fired"
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// Injectors bundles the per-device injectors one engine armed from a
// plan — handles for reading opportunity and fired counters after a
// run. Any field may be nil (the SSD one is, on topologies without an
// SSD tier).
type Injectors struct {
	NVM *Injector
	SSD *Injector
	WAL *Injector
}

// Fired sums the fired counters of kind k across the bundle.
func (b Injectors) Fired(k Kind) int64 {
	return b.NVM.Fired(k) + b.SSD.Fired(k) + b.WAL.Fired(k)
}

// Opportunities sums Check calls of kind k across the bundle.
func (b Injectors) Opportunities(k Kind) int64 {
	return b.NVM.Opportunities(k) + b.SSD.Opportunities(k) + b.WAL.Opportunities(k)
}

// Crash is the panic value thrown at an injected crash point (torn NVM
// flush, torn WAL flush, permanent device failure). Harnesses recover
// it, power-fail the store, and restart — see AsCrash.
type Crash struct {
	// Kind is the injection point that crashed.
	Kind Kind
	// Site names the instrumented call ("nvm.flush", "ssd.write", ...).
	Site string
}

// Error implements the error interface.
func (c Crash) Error() string {
	return fmt.Sprintf("fault: injected %s crash at %s", c.Kind, c.Site)
}

// AsCrash reports whether a recovered panic value is an injected crash.
func AsCrash(r any) (Crash, bool) {
	c, ok := r.(Crash)
	return c, ok
}

// Error is an injected, non-crashing failure: a WAL append that returns
// an error instead of taking the process down. Permanent tells a caller
// whether a retry can succeed.
type Error struct {
	// Kind is the injection point.
	Kind Kind
	// Site names the instrumented call.
	Site string
	// Attempt is 1 for the first failure of an access, 2 for the first
	// retry, and so on.
	Attempt int
	// Permanent marks a failure no retry will fix.
	Permanent bool
}

// Error implements the error interface.
func (e *Error) Error() string {
	class := "transient"
	if e.Permanent {
		class = "permanent"
	}
	return fmt.Sprintf("fault: injected %s %s error at %s (attempt %d)", class, e.Kind, e.Site, e.Attempt)
}

// IsInjected reports whether err originates from this package (an
// injected *Error or Crash), so harnesses can tell scheduled faults
// from real bugs.
func IsInjected(err error) bool {
	var fe *Error
	if errors.As(err, &fe) {
		return true
	}
	var c Crash
	return errors.As(err, &c)
}

// unitDraw hashes a (seed, kind, opportunity, salt) tuple into [0, 1).
// Counter-hashing instead of a stateful generator keeps concurrent
// sites from perturbing each other's streams.
func unitDraw(seed, kind, n, salt uint64) float64 {
	h := shard.Mix(seed ^ shard.Mix(kind<<32|salt) ^ shard.Mix(n))
	return float64(h>>11) / (1 << 53)
}
