package checkpoint

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
)

func sampleState() *State {
	return &State{
		Fingerprint: []byte{0xde, 0xad, 0xbe, 0xef},
		Providers:   []string{"gdo-1", "gdo-0", "gdo-2"},
		Counts:      [][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		CaseNs:      []int64{12, 16, 20},
		Stage:       StageLD,
		PerLD:       [][]int{{0, 2}, {2}},
		Combinations: []Combination{
			{Members: []string{"gdo-0", "gdo-1", "gdo-2"}, Safe: []int{0, 2}, Power: 0.25, Order: []int{1, 2, 0}},
			{Members: []string{"gdo-0", "gdo-2"}, Safe: []int{2}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleState()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// blamedState is sampleState with every optional section present.
func blamedState() *State {
	st := sampleState()
	st.Blamed = []BlameRecord{
		{Member: "gdo-2", Phase: "LD (phase 2)", Query: "pair (1,2)", Kind: "invalid-payload"},
		{Member: "gdo-1", Phase: "summary collection", Query: "summary", Kind: "equivocation",
			Prior: []byte{1, 2, 3}, Observed: []byte{4, 5, 6}},
	}
	return st
}

// TestEncodeBytesPinned pins the record format. The digests were re-pinned
// from this encoder when Version 4 dropped L′, the per-combination L′ and L″;
// each record shrank by exactly those three sections (the full state's
// 3-SNP L′, its two per-combination L′ of 3 and 2 SNPs and its 2-SNP L″:
// 774 → 654 bytes; the zero state's three empty lengths: 112 → 88). Version 3
// had dropped the pair-statistics section the same way (934 → 774, 120 →
// 112), and the Version-2 digests before it matched the older
// append-and-copy encoder byte for byte.
func TestEncodeBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		st     *State
		length int
		sha256 string
	}{
		{"full", blamedState(), 654, "bd706511f2e000346186b656a1afde063751693c053c054aa4fb752b82776582"},
		{"zero", &State{}, 88, "3ff023ff32a84297c4f7db5c4aa3d7b2ac9e7018bd95cb374b9ed0213d39366a"},
	} {
		b := Encode(tc.st)
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != tc.length || got != tc.sha256 {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, %s", tc.name, len(b), got, tc.length, tc.sha256)
		}
	}
}

// TestEncodeAllocatesExactly holds payloadLen to Encode: the record fills the
// buffer sized from the state to the byte, so it was never regrown and has no
// slack.
func TestEncodeAllocatesExactly(t *testing.T) {
	for name, st := range map[string]*State{"zero": {}, "sample": sampleState(), "blamed": blamedState()} {
		if b := Encode(st); cap(b) != len(b) {
			t.Errorf("%s: record of %d bytes sits in a buffer of %d", name, len(b), cap(b))
		}
	}
}

func TestEncodeDecodeZeroState(t *testing.T) {
	got, err := Decode(Encode(&State{}))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Stage != StageNone || len(got.Providers) != 0 {
		t.Errorf("zero state decoded to %+v", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := Encode(sampleState())
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrCorrupt},
		{"short", func(b []byte) []byte { return b[:10] }, ErrCorrupt},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrCorrupt},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }, ErrCorrupt},
		{"flipped crc", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrCorrupt},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-8] }, ErrCorrupt},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xaa) }, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			st, err := Decode(b)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Decode error = %v, want %v", err, tc.wantErr)
			}
			if st != nil {
				t.Error("corrupt record decoded to a non-nil state")
			}
		})
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	b := Encode(sampleState())
	// Bump the version field (bytes 8..12) and re-stitch the CRC so only the
	// version check can reject it.
	b[11]++
	restitchCRC(b)
	st, err := Decode(b)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode error = %v, want ErrVersion", err)
	}
	if st != nil {
		t.Error("version-skewed record decoded to a non-nil state")
	}
}

func TestDecodeRejectsMisalignedRoster(t *testing.T) {
	st := sampleState()
	st.CaseNs = st.CaseNs[:1] // three providers, one population size
	if _, err := Decode(Encode(st)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode error = %v, want ErrCorrupt", err)
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty Load error = %v, want ErrNotFound", err)
	}
	want := sampleState()
	if err := s.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("MemStore round trip mismatch")
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if _, err := s.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-Clear Load error = %v, want ErrNotFound", err)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	if _, err := s.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty Load error = %v, want ErrNotFound", err)
	}
	want := sampleState()
	if err := s.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// A second Save must atomically replace the first.
	want.Stage = StageMAF
	want.PerLD, want.Combinations = nil, nil
	if err := s.Save(want); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Stage != StageMAF || len(got.Combinations) != 0 {
		t.Errorf("Load returned stale state: %+v", got)
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("idempotent Clear: %v", err)
	}
	if _, err := s.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-Clear Load error = %v, want ErrNotFound", err)
	}
}

// restitchCRC recomputes the trailer CRC after a deliberate header mutation.
func restitchCRC(b []byte) {
	body := b[8 : len(b)-4]
	crc := crc32.ChecksumIEEE(body)
	b[len(b)-4] = byte(crc >> 24)
	b[len(b)-3] = byte(crc >> 16)
	b[len(b)-2] = byte(crc >> 8)
	b[len(b)-1] = byte(crc)
}
