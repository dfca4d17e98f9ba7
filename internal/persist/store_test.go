package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testStore(t *testing.T, mk func(t *testing.T) Store) {
	t.Helper()
	s := mk(t)
	defer s.Close()

	a := Ref{ID: "aaa-1", Hash: "deadbeef0001"}
	b := Ref{ID: "bbb-2", Hash: "deadbeef0001", Edited: true}
	c := Ref{ID: "ccc-3", Hash: "cafebabe0002"}

	if _, err := s.Get(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing: %v", err)
	}
	if err := s.Delete(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}

	for _, put := range []struct {
		ref  Ref
		data string
	}{{a, "snap-a"}, {b, "snap-b"}, {c, "snap-c"}} {
		if err := s.Put(put.ref, []byte(put.data)); err != nil {
			t.Fatalf("put %v: %v", put.ref, err)
		}
	}
	got, err := s.Get(b)
	if err != nil || string(got) != "snap-b" {
		t.Fatalf("get b: %q, %v", got, err)
	}
	refs, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []Ref{a, b, c}; !reflect.DeepEqual(refs, want) {
		t.Fatalf("list: %+v, want %+v", refs, want)
	}

	// Overwriting with the other flavor replaces, never duplicates: a
	// session that diverges after its pristine snapshot must not leave both
	// on disk.
	aEdited := Ref{ID: a.ID, Hash: a.Hash, Edited: true}
	if err := s.Put(aEdited, []byte("snap-a2")); err != nil {
		t.Fatal(err)
	}
	refs, err = s.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []Ref{aEdited, b, c}; !reflect.DeepEqual(refs, want) {
		t.Fatalf("list after flavor change: %+v, want %+v", refs, want)
	}
	if got, err := s.Get(aEdited); err != nil || string(got) != "snap-a2" {
		t.Fatalf("get a after flavor change: %q, %v", got, err)
	}

	if err := s.Delete(aEdited); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(b); err != nil {
		t.Fatal(err)
	}
	refs, err = s.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []Ref{c}; !reflect.DeepEqual(refs, want) {
		t.Fatalf("list after deletes: %+v, want %+v", refs, want)
	}
}

func TestMemStore(t *testing.T) {
	testStore(t, func(t *testing.T) Store { return NewMemStore() })
}

func TestDiskStore(t *testing.T) {
	testStore(t, func(t *testing.T) Store {
		s, err := NewDiskStore(filepath.Join(t.TempDir(), "snaps"))
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestDiskStoreLayoutAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref := Ref{ID: "abc123-7", Hash: "00ff00ff00ff"}
	// Valid codec bytes: the reopen sweep validates snapshot envelopes and
	// deletes torn ones, so arbitrary bytes would not survive a restart.
	snap := Encode(sampleState(false))
	if err := s.Put(ref, snap); err != nil {
		t.Fatal(err)
	}
	// Directory-per-content-hash layout, as documented.
	if _, err := os.Stat(filepath.Join(dir, ref.Hash, ref.ID+".p.snap")); err != nil {
		t.Fatalf("expected layout file: %v", err)
	}
	// Foreign files are ignored, not fatal.
	os.WriteFile(filepath.Join(dir, ref.Hash, "README"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "stray"), []byte("x"), 0o644)
	s.Close()

	// A fresh store over the same directory (process restart) sees the
	// snapshot.
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	refs, err := s2.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refs, []Ref{ref}) {
		t.Fatalf("reopened list: %+v", refs)
	}
	// Deleting the last snapshot prunes the (now otherwise empty) hash
	// directory.
	os.Remove(filepath.Join(dir, ref.Hash, "README"))
	if err := s2.Delete(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ref.Hash)); !os.IsNotExist(err) {
		t.Fatalf("hash dir not pruned: %v", err)
	}
}

func TestDiskStoreRejectsTraversal(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, ref := range []Ref{
		{ID: "../evil", Hash: "aabb"},
		{ID: "ok-1", Hash: "../../etc"},
		{ID: "", Hash: "aabb"},
		{ID: "a/b", Hash: "aabb"},
		{ID: ".hidden", Hash: "aabb"},
	} {
		if err := s.Put(ref, []byte("x")); err == nil {
			t.Errorf("Put(%+v) accepted a hostile ref", ref)
		}
		if _, err := s.Get(ref); err == nil {
			t.Errorf("Get(%+v) accepted a hostile ref", ref)
		}
	}
}
