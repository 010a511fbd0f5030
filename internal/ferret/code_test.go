package ferret

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"ironman/internal/block"
	"ironman/internal/lpn"
	"ironman/internal/transport"
)

// TestCodeShared: every endpoint on one parameter shape — both halves
// of two dealt pairs and a really initialised NewSender‖NewReceiver
// pair — resolves the same *lpn.Code instead of deriving its own.
func TestCodeShared(t *testing.T) {
	params := smallParams()
	var codes []*lpn.Code
	for i := 0; i < 2; i++ {
		a, b := transport.Pipe()
		defer a.Close()
		defer b.Close()
		s, r, err := DealPools(a, b, block.New(1, uint64(i)), params, Options{})
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, s.code, r.code)
	}
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	sCh := make(chan *Sender, 1)
	go func() {
		s, err := NewSender(a, block.New(3, 4), params, Options{})
		if err != nil {
			t.Error(err)
		}
		sCh <- s
	}()
	r, err := NewReceiver(b, params, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := <-sCh
	if s == nil {
		t.FailNow()
	}
	codes = append(codes, s.code, r.code)
	for i, c := range codes {
		if c != codes[0] {
			t.Fatalf("endpoint %d holds code %p, endpoint 0 holds %p", i, c, codes[0])
		}
	}
}

// TestCodeSharedConcurrent: eight pairs dealt at once on a shape with
// no live code wait on one derivation and all get its pointer.
func TestCodeSharedConcurrent(t *testing.T) {
	params := TestParams(560, 32, 124, 8)
	runtime.GC() // free a code an earlier run left, so the derivation races
	got := make([]*lpn.Code, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := transport.Pipe()
			defer a.Close()
			defer b.Close()
			s, r, err := DealPools(a, b, block.New(1, uint64(i)), params, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if s.code != r.code {
				t.Errorf("pair %d: halves hold different codes", i)
			}
			got[i] = s.code
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("pair %d holds code %p, pair 0 holds %p", i, c, got[0])
		}
	}
}

// TestCodeReleased: the memo holds its codes weakly, so once the last
// endpoint is dropped a collection frees the matrix.
func TestCodeReleased(t *testing.T) {
	params := TestParams(520, 32, 120, 8)
	ref := func() weak.Pointer[lpn.Code] {
		a, b := transport.Pipe()
		defer a.Close()
		defer b.Close()
		s, _, err := DealPools(a, b, block.New(1, 2), params, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(s.code)
	}()
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("code still live after every endpoint was dropped: the memo pins it")
	}
}

// TestCodeRederivedAfterCleanup: a code whose endpoints were dropped
// after an Extend is collected, and its index matrix (mapped outside
// the Go heap by lpn.New) released by its cleanup; the next pair on
// the shape derives the code again through sharedCode, and its Extend
// verifies and repeats the first one's outputs.
func TestCodeRederivedAfterCleanup(t *testing.T) {
	params := TestParams(580, 32, 126, 8)
	delta := block.New(5, 6)
	extend := func() ([]block.Block, weak.Pointer[lpn.Code]) {
		a, b := transport.Pipe()
		defer a.Close()
		defer b.Close()
		s, r, err := DealPools(a, b, delta, params, Options{Workers: 2, Seed: block.New(7, 8)})
		if err != nil {
			t.Fatal(err)
		}
		z, x, y, err := extendLockstep(s, r)
		if err == nil {
			err = Check(delta, z, x, y)
		}
		if err != nil {
			t.Fatal(err)
		}
		return z, weak.Make(s.code)
	}
	want, ref := extend()
	runtime.GC()
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("code still live after every endpoint was dropped")
	}
	got, _ := extend()
	if !slices.Equal(got, want) {
		t.Fatal("an Extend on the re-derived code differs from the first")
	}
}
