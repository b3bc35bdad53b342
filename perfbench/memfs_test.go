package main

import (
	"bytes"
	"testing"

	"repro/internal/store"
)

// TestMemFSStore drives a store over memFS through the operations
// coord uses: put and get, claim (exactly one winner), delete and
// reopen.
func TestMemFSStore(t *testing.T) {
	fsys := newMemFS()
	st, err := store.Open("scratch/fleet-store-1", store.WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	key, err := store.Key("unit-session/v1", 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("empty store has the key")
	}
	if err := st.Put(key, []byte("result")); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(key); !ok || !bytes.Equal(got, []byte("result")) {
		t.Fatalf("Get = %q, %v; want the put data", got, ok)
	}
	lease, _ := store.Key("lease/v1", "job")
	if won, err := st.Claim(lease, []byte("a")); !won || err != nil {
		t.Fatalf("first claim won=%v err=%v", won, err)
	}
	if won, err := st.Claim(lease, []byte("b")); won || err != nil {
		t.Fatalf("second claim won=%v err=%v", won, err)
	}
	if err := st.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("deleted key still read")
	}
	again, err := store.Open("scratch/fleet-store-1", store.WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	if n := again.Len(); n != 1 {
		t.Fatalf("reopened store holds %d entries, want the lease only", n)
	}
	for name := range fsys.files {
		if bytes.Contains([]byte(name), []byte("/.")) {
			t.Errorf("temporary file %s left behind", name)
		}
	}
}
