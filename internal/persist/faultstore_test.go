package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"
)

// TestFaultStoreDeterministic: two wrappers with the same seed and config
// make identical fault decisions for identical operation sequences.
func TestFaultStoreDeterministic(t *testing.T) {
	cfg := FaultConfig{Seed: 42, WriteFail: 0.3, WriteENOSPC: 0.1, WriteTorn: 0.1, ReadFail: 0.2, ReadCorrupt: 0.2}
	run := func() ([]string, FaultStats) {
		fs := NewFaultStore(NewMemStore(), cfg)
		var outcomes []string
		data := Encode(sampleState(false))
		for i := 0; i < 200; i++ {
			ref := Ref{ID: fmt.Sprintf("s-%d", i), Hash: "aa"}
			if err := fs.Put(ref, data); err != nil {
				outcomes = append(outcomes, fmt.Sprintf("put%d:%v", i, err))
			}
			got, err := fs.Get(ref)
			switch {
			case err != nil:
				outcomes = append(outcomes, fmt.Sprintf("get%d:%v", i, err))
			case !bytes.Equal(got, data):
				outcomes = append(outcomes, fmt.Sprintf("get%d:corrupt", i))
			}
		}
		return outcomes, fs.Stats()
	}
	o1, s1 := run()
	o2, s2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", o1, o2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.WriteFails == 0 || s1.ENOSPCs == 0 || s1.TornWrites == 0 || s1.ReadFails == 0 || s1.ReadCorrupts == 0 {
		t.Fatalf("expected every fault class at these rates over 200 ops: %+v", s1)
	}
}

// TestFaultStoreErrorIdentity: injected faults are recognizable via
// ErrInjected, and ENOSPC additionally satisfies errors.Is(err, ENOSPC).
func TestFaultStoreErrorIdentity(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{Seed: 1, WriteENOSPC: 1})
	err := fs.Put(Ref{ID: "x-1", Hash: "aa"}, []byte("d"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC identity, got %v", err)
	}

	fs2 := NewFaultStore(NewMemStore(), FaultConfig{})
	sentinel := errors.New("boom")
	fs2.FailNextPuts(2, sentinel)
	for i := 0; i < 2; i++ {
		err := fs2.Put(Ref{ID: "y-1", Hash: "bb"}, []byte("d"))
		if !errors.Is(err, ErrInjected) || !errors.Is(err, sentinel) {
			t.Fatalf("forced fail %d: %v", i, err)
		}
	}
	if err := fs2.Put(Ref{ID: "y-1", Hash: "bb"}, []byte("d")); err != nil {
		t.Fatalf("after forced window: %v", err)
	}
	if st := fs2.Stats(); st.ForcedFaults != 2 {
		t.Fatalf("forced fault count: %+v", st)
	}
}

// TestFaultStoreTornWrite: a torn Put really persists a strict prefix
// through the inner store, and the codec rejects the artifact.
func TestFaultStoreTornWrite(t *testing.T) {
	inner := NewMemStore()
	fs := NewFaultStore(inner, FaultConfig{Seed: 3})
	fs.TearNextPuts(1)
	data := Encode(sampleState(true))
	ref := Ref{ID: "torn-1", Hash: "cc"}
	if err := fs.Put(ref, data); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn put: %v", err)
	}
	got, err := inner.Get(ref)
	if err != nil {
		t.Fatalf("torn artifact missing: %v", err)
	}
	if len(got) == 0 || len(got) >= len(data) || !bytes.Equal(got, data[:len(got)]) {
		t.Fatalf("torn artifact is not a strict prefix: %d of %d bytes", len(got), len(data))
	}
	if _, err := Decode(got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn artifact decoded: %v", err)
	}
	if !errors.Is(Validate(got), ErrCorrupt) {
		t.Fatal("Validate accepted a torn artifact")
	}
}

// TestFaultStoreReadCorruption: corrupted reads flip exactly one byte, and
// the codec checksum catches it.
func TestFaultStoreReadCorruption(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{Seed: 5, ReadCorrupt: 1})
	data := Encode(sampleState(false))
	ref := Ref{ID: "rc-1", Hash: "dd"}
	if err := fs.Put(ref, data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
		}
	}
	if len(got) != len(data) || diff != 1 {
		t.Fatalf("want exactly one flipped byte, got %d (len %d vs %d)", diff, len(got), len(data))
	}
	if _, err := Decode(got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted read decoded: %v", err)
	}
}

// TestFaultStoreLatency: injected latency delays operations.
func TestFaultStoreLatency(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{Latency: 30 * time.Millisecond})
	start := time.Now()
	if err := fs.Put(Ref{ID: "slow-1", Hash: "ee"}, []byte("d")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency not injected: op took %v", d)
	}
}

func TestFaultStorePassthrough(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{})
	ref := Ref{ID: "ok-1", Hash: "ff"}
	if err := fs.Put(ref, []byte("d")); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Get(ref); err != nil || string(got) != "d" {
		t.Fatalf("get: %q, %v", got, err)
	}
	refs, err := fs.List()
	if err != nil || len(refs) != 1 {
		t.Fatalf("list: %v, %v", refs, err)
	}
	if err := fs.Delete(ref); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseFaultConfig(t *testing.T) {
	cfg, extra, err := ParseFaultConfig("seed=7, write-fail=0.1,enospc=0.05,torn=0.02,read-fail=0.01,read-corrupt=0.03,latency=2ms,panic=0.2")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultConfig{Seed: 7, WriteFail: 0.1, WriteENOSPC: 0.05, WriteTorn: 0.02,
		ReadFail: 0.01, ReadCorrupt: 0.03, Latency: 2 * time.Millisecond}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if extra["panic"] != "0.2" {
		t.Fatalf("extra keys: %v", extra)
	}
	for _, bad := range []string{"write-fail=2", "seed=x", "latency=-1s", "write-fail=0.6,torn=0.6", "novalue"} {
		if _, _, err := ParseFaultConfig(bad); err == nil {
			t.Errorf("ParseFaultConfig(%q) accepted", bad)
		}
	}
}

// TestDiskStoreSweepsCrashDebris: a fresh DiskStore over a directory holding
// crash artifacts — orphaned temp files and torn snapshots — removes them,
// keeps intact and version-skewed snapshots, and leaves foreign files alone.
func TestDiskStoreSweepsCrashDebris(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := Ref{ID: "good-1", Hash: "aabb"}
	goodData := Encode(sampleState(false))
	if err := s.Put(good, goodData); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Plant crash debris next to the good snapshot.
	hashDir := filepath.Join(dir, good.Hash)
	tornDir := filepath.Join(dir, "ccdd")
	os.MkdirAll(tornDir, 0o755)
	write := func(path string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join(dir, ".tmp-123"), []byte("x"))
	write(filepath.Join(hashDir, ".tmp-456"), []byte("x"))
	write(filepath.Join(hashDir, "torn-2.p.snap"), goodData[:len(goodData)/2])
	write(filepath.Join(tornDir, "torn-3.e.snap"), []byte("short"))
	write(filepath.Join(hashDir, "NOTES.txt"), []byte("foreign"))
	skew := append([]byte(nil), goodData...)
	skew[len(snapMagic)]++ // version bump
	write(filepath.Join(hashDir, "newer-4.p.snap"), reseal(skew))

	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, gone := range []string{
		filepath.Join(dir, ".tmp-123"),
		filepath.Join(hashDir, ".tmp-456"),
		filepath.Join(hashDir, "torn-2.p.snap"),
		filepath.Join(tornDir, "torn-3.e.snap"),
		filepath.Join(tornDir), // emptied by the sweep
	} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("%s survived the sweep (%v)", gone, err)
		}
	}
	for _, kept := range []string{
		filepath.Join(hashDir, good.ID+".p.snap"),
		filepath.Join(hashDir, "NOTES.txt"),
		filepath.Join(hashDir, "newer-4.p.snap"),
	} {
		if _, err := os.Stat(kept); err != nil {
			t.Errorf("%s did not survive the sweep: %v", kept, err)
		}
	}
	if got, err := s2.Get(good); err != nil || !bytes.Equal(got, goodData) {
		t.Fatalf("good snapshot after sweep: %v", err)
	}
}

// TestCrashConsistencyTornWrites is the torture loop: repeatedly tear a
// snapshot write mid-flight (the simulated kill-during-write), reopen the
// store as a restart would, and require that every reopen yields either the
// previous intact snapshot or none — never a torn artifact.
func TestCrashConsistencyTornWrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	ref := Ref{ID: "crash-1", Hash: "abcd"}
	var lastGood []byte
	for i := 0; i < 30; i++ {
		disk, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Validate what the "restart" sees before writing anything new.
		if data, err := disk.Get(ref); err == nil {
			if verr := Validate(data); verr != nil {
				t.Fatalf("iter %d: restart saw an invalid snapshot: %v", i, verr)
			}
			if lastGood != nil && !bytes.Equal(data, lastGood) {
				t.Fatalf("iter %d: restart saw neither old nor new snapshot", i)
			}
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("iter %d: get: %v", i, err)
		}

		st := sampleState(i%2 == 0)
		st.DetectRuns = i // vary the payload per iteration
		data := Encode(st)
		fs := NewFaultStore(disk, FaultConfig{Seed: int64(i)})
		if i%3 != 0 {
			fs.TearNextPuts(1) // kill during this write
		}
		if err := fs.Put(ref, data); err == nil {
			lastGood = data
		}
		fs.Close()
	}
	if lastGood == nil {
		t.Fatal("no write ever succeeded; loop is vacuous")
	}
}
