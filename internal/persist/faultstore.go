package persist

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrInjected is the base of every fault a FaultStore injects, so tests and
// operators can tell injected failures from real ones: errors.Is(err,
// ErrInjected). Specific fault classes wrap their realistic cause too
// (errors.Is(err, syscall.ENOSPC) holds for injected disk-full).
var ErrInjected = errors.New("persist: injected fault")

// FaultConfig programs the fault schedule of a FaultStore.
// Each operation rolls one value from a seeded deterministic stream, so a
// given seed always yields the same fault decision sequence (per wrapper,
// in operation order). The zero value injects nothing.
type FaultConfig struct {
	// Seed seeds the decision stream. Two wrappers built with the same seed
	// and config make identical decisions for identical operation sequences.
	Seed int64

	// WriteFail is the probability a Put fails outright (generic I/O
	// error) without touching the underlying store.
	WriteFail float64
	// WriteENOSPC is the probability a Put fails with ENOSPC (errors.Is(err,
	// syscall.ENOSPC)), simulating a full disk.
	WriteENOSPC float64
	// WriteTorn is the probability a Put persists only a truncated prefix of
	// the data to the underlying store and then fails — simulating a crash
	// mid-write on a filesystem without atomic rename. The torn bytes are
	// really stored, so readers exercise their checksum/validation paths.
	WriteTorn float64
	// ReadFail is the probability a Get fails outright.
	ReadFail float64
	// ReadCorrupt is the probability a Get returns data with one byte
	// flipped (bit rot; codec checksums must catch it).
	ReadCorrupt float64
	// Latency is fixed extra latency injected into every store operation.
	Latency time.Duration
}

func (c FaultConfig) check() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"write-fail", c.WriteFail}, {"enospc", c.WriteENOSPC}, {"torn", c.WriteTorn},
		{"read-fail", c.ReadFail}, {"read-corrupt", c.ReadCorrupt},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("persist: fault probability %s=%v outside [0,1]", p.name, p.v)
		}
	}
	if s := c.WriteFail + c.WriteENOSPC + c.WriteTorn; s > 1 {
		return fmt.Errorf("persist: write fault probabilities sum to %v > 1", s)
	}
	if s := c.ReadFail + c.ReadCorrupt; s > 1 {
		return fmt.Errorf("persist: read fault probabilities sum to %v > 1", s)
	}
	if c.Latency < 0 {
		return errors.New("persist: negative fault latency")
	}
	return nil
}

// ParseFaultConfig parses the comma-separated key=value syntax of the
// aapsmd -chaos flag, e.g.
//
//	seed=42,write-fail=0.1,enospc=0.02,torn=0.02,read-fail=0,read-corrupt=0.05,latency=2ms
//
// Keys this package does not own (e.g. panic=0.01, wired to the solver fault
// hook by the daemon) are returned in extra for the caller to interpret;
// only malformed values and out-of-range probabilities are errors here.
func ParseFaultConfig(spec string) (cfg FaultConfig, extra map[string]string, err error) {
	extra = make(map[string]string)
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, nil, fmt.Errorf("persist: fault spec %q: want key=value", kv)
		}
		var perr error
		switch k {
		case "seed":
			cfg.Seed, perr = strconv.ParseInt(v, 10, 64)
		case "write-fail":
			cfg.WriteFail, perr = strconv.ParseFloat(v, 64)
		case "enospc":
			cfg.WriteENOSPC, perr = strconv.ParseFloat(v, 64)
		case "torn":
			cfg.WriteTorn, perr = strconv.ParseFloat(v, 64)
		case "read-fail":
			cfg.ReadFail, perr = strconv.ParseFloat(v, 64)
		case "read-corrupt":
			cfg.ReadCorrupt, perr = strconv.ParseFloat(v, 64)
		case "latency":
			cfg.Latency, perr = time.ParseDuration(v)
		default:
			extra[k] = v
		}
		if perr != nil {
			return cfg, nil, fmt.Errorf("persist: fault spec %s=%q: %w", k, v, perr)
		}
	}
	if err := cfg.check(); err != nil {
		return cfg, nil, err
	}
	return cfg, extra, nil
}

// FaultStats counts what a fault wrapper has done so far.
type FaultStats struct {
	Puts, Gets                            int64
	WriteFails, ENOSPCs, TornWrites       int64
	ReadFails, ReadCorrupts, ForcedFaults int64
}

// fault decision classes.
const (
	faultNone = iota
	faultWriteFail
	faultENOSPC
	faultTorn
	faultReadFail
	faultReadCorrupt
)

// corrupt returns a copy of data with one byte flipped at a position chosen
// by frac. Empty data is returned unchanged.
func corrupt(data []byte, frac float64) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	i := int(frac * float64(len(out)))
	if i >= len(out) {
		i = len(out) - 1
	}
	out[i] ^= 0xff
	return out
}

// tearAt returns the torn-write prefix length for data under frac: at least
// 1 byte and strictly less than the full length (when possible), so the torn
// artifact is a genuinely truncated record.
func tearAt(n int, frac float64) int {
	if n <= 1 {
		return n
	}
	cut := 1 + int(frac*float64(n-1))
	if cut >= n {
		cut = n - 1
	}
	return cut
}

// FaultStore wraps a Store with seeded, deterministic fault injection: write
// failures, ENOSPC, torn partial writes, read failures, read corruption, and
// latency, on the schedule programmed by its FaultConfig. It is the test and
// -chaos harness for every persistence failure path.
//
// Each operation consumes one roll of a seeded rng under mu; an override
// queue scripts tests ahead of it (fail or tear the next N writes).
type FaultStore struct {
	inner Store

	mu        sync.Mutex
	cfg       FaultConfig
	rng       *rand.Rand
	forceN    int
	forceErr  error
	forceTorn int
	stats     FaultStats
}

// NewFaultStore wraps inner with the fault schedule cfg. cfg is validated
// with a panic on programmer error (tests construct these literally).
func NewFaultStore(inner Store, cfg FaultConfig) *FaultStore {
	if err := cfg.check(); err != nil {
		panic(err)
	}
	return &FaultStore{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// FailNextPuts scripts the next n Put calls to fail with err (a generic
// injected error when err is nil), ahead of any probabilistic schedule.
func (f *FaultStore) FailNextPuts(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.forceN, f.forceErr = n, err
}

// TearNextPuts scripts the next n Put calls to persist a truncated prefix
// and then fail — the deterministic kill-during-write primitive.
func (f *FaultStore) TearNextPuts(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.forceTorn = n
}

// SetConfig replaces the probabilistic schedule (e.g. to clear faults for a
// recovery phase).
func (f *FaultStore) SetConfig(cfg FaultConfig) {
	if err := cfg.check(); err != nil {
		panic(err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg = cfg
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultStore) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *FaultStore) Put(ref Ref, data []byte) error {
	f.sleep()
	kind, frac, forced := f.decideWrite()
	switch kind {
	case faultWriteFail:
		if forced != nil {
			return fmt.Errorf("%w: %w", ErrInjected, forced)
		}
		return fmt.Errorf("%w: write of %s failed", ErrInjected, ref.ID)
	case faultENOSPC:
		return fmt.Errorf("%w: write of %s: %w", ErrInjected, ref.ID, syscall.ENOSPC)
	case faultTorn:
		cut := tearAt(len(data), frac)
		f.inner.Put(ref, data[:cut]) // the torn artifact really lands
		return fmt.Errorf("%w: torn write of %s (%d of %d bytes persisted)", ErrInjected, ref.ID, cut, len(data))
	}
	return f.inner.Put(ref, data)
}

func (f *FaultStore) Get(ref Ref) ([]byte, error) {
	f.sleep()
	data, err := f.inner.Get(ref)
	if err != nil {
		return nil, err
	}
	switch kind, frac := f.decideRead(); kind {
	case faultReadFail:
		return nil, fmt.Errorf("%w: read of %s failed", ErrInjected, ref.ID)
	case faultReadCorrupt:
		return corrupt(data, frac), nil
	}
	return data, nil
}

func (f *FaultStore) List() ([]Ref, error) {
	f.sleep()
	return f.inner.List()
}

func (f *FaultStore) Delete(ref Ref) error {
	f.sleep()
	return f.inner.Delete(ref)
}

func (f *FaultStore) Close() error { return f.inner.Close() }

// decideWrite consumes one decision for a write op. frac parameterizes the
// torn-write cut point in (0,1).
func (f *FaultStore) decideWrite() (kind int, frac float64, forced error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Puts++
	if f.forceTorn > 0 {
		f.forceTorn--
		f.stats.ForcedFaults++
		f.stats.TornWrites++
		return faultTorn, f.rng.Float64(), nil
	}
	if f.forceN > 0 {
		f.forceN--
		f.stats.ForcedFaults++
		f.stats.WriteFails++
		return faultWriteFail, 0, f.forceErr
	}
	r := f.rng.Float64()
	switch {
	case r < f.cfg.WriteTorn:
		f.stats.TornWrites++
		return faultTorn, f.rng.Float64(), nil
	case r < f.cfg.WriteTorn+f.cfg.WriteENOSPC:
		f.stats.ENOSPCs++
		return faultENOSPC, 0, nil
	case r < f.cfg.WriteTorn+f.cfg.WriteENOSPC+f.cfg.WriteFail:
		f.stats.WriteFails++
		return faultWriteFail, 0, nil
	}
	return faultNone, 0, nil
}

// decideRead consumes one decision for a read op. frac parameterizes the
// corrupted byte position in [0,1).
func (f *FaultStore) decideRead() (kind int, frac float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Gets++
	r := f.rng.Float64()
	switch {
	case r < f.cfg.ReadFail:
		f.stats.ReadFails++
		return faultReadFail, 0
	case r < f.cfg.ReadFail+f.cfg.ReadCorrupt:
		f.stats.ReadCorrupts++
		return faultReadCorrupt, f.rng.Float64()
	}
	return faultNone, 0
}

// sleep injects the configured latency.
func (f *FaultStore) sleep() {
	f.mu.Lock()
	d := f.cfg.Latency
	f.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}
