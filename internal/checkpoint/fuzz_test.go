package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// FuzzDecode drives the checkpoint codec with arbitrary bytes. The contract
// under test: Decode never panics, never returns a state alongside an error,
// and any state it does accept is internally consistent enough to re-encode
// and decode back to itself (no half-applied records).
func FuzzDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(magic))
	f.Add(Encode(&State{}))
	f.Add(Encode(&State{
		Fingerprint: []byte{1, 2, 3},
		Providers:   []string{"gdo-0", "gdo-1"},
		Counts:      [][]int64{{4, 0, 2}, {1, 1, 1}},
		CaseNs:      []int64{8, 6},
		Stage:       StageMAF,
	}))
	full := Encode(sampleState())
	f.Add(full)
	// Seed a few targeted mutations so the corpus starts near the
	// interesting branches: flipped CRC, skewed version, truncation.
	crcFlip := append([]byte(nil), full...)
	crcFlip[len(crcFlip)-2] ^= 0x40
	f.Add(crcFlip)
	verSkew := append([]byte(nil), full...)
	verSkew[11] = 0x7f
	f.Add(verSkew)
	f.Add(full[:len(full)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			if st != nil {
				t.Fatal("Decode returned both a state and an error")
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode error %v is neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		// Accepted input: the state must survive a re-encode round trip
		// bit-for-bit, proving nothing was dropped or half-applied.
		re := Encode(st)
		st2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded state failed to decode: %v", err)
		}
		if !statesEqual(st, st2) {
			t.Fatal("re-encode round trip changed the state")
		}
	})
}

// FuzzDecodeLog drives the file decoder — a state record followed by
// appended frames — with arbitrary bytes. The contract under test:
// decodeFile never panics, and returns a state exactly when the first record
// decodes; the intact prefix it reports splits at frame boundaries into
// frames that each decode, and folds on its own to the same state with
// nothing left over; and the verdict on the bytes behind that prefix is
// stable under appending bytes — a corrupt frame stays corrupt at the same
// offset, a torn tail never shortens the prefix, and behind a clean end a
// whole combinations frame adds exactly its combinations while a torn one
// adds nothing.
func FuzzDecodeLog(f *testing.F) {
	st := sampleState()
	combos := st.Combinations
	maf := &State{Fingerprint: st.Fingerprint, Providers: st.Providers, Counts: st.Counts, CaseNs: st.CaseNs, Stage: StageMAF}
	ld := *maf
	ld.Stage, ld.PerLD = StageLD, st.PerLD
	file := append(Encode(maf), Encode(&ld)...)
	file = append(append(file, encodeFrame(combos[:1])...), encodeFrame(combos[1:])...)
	blamed := append(append([]byte(nil), file...), Encode(blamedState())...)
	f.Add([]byte(nil))
	f.Add(Encode(maf))
	f.Add(file)
	f.Add(blamed)
	f.Add(file[:len(file)-3])     // a torn combinations frame
	f.Add(blamed[:len(blamed)-9]) // a torn state record
	crcFlip := append([]byte(nil), file...)
	crcFlip[len(crcFlip)-1] ^= 0x01
	f.Add(crcFlip)
	frame := encodeFrame(combos)
	huge := append(Encode(maf), frame...)
	binary.BigEndian.PutUint64(huge[len(huge)-len(frame):], 1<<62) // a huge length prefix
	f.Add(huge)
	// A frame whose CRC matches but whose count claims 2^40 combinations.
	hugeCount := append(Encode(maf), lyingFrame(frame, 1<<40)...)
	f.Add(hugeCount)

	extra := encodeFrame(combos[:1])
	f.Fuzz(func(t *testing.T, data []byte) {
		st, n, corrupt, err := decodeFile(data)
		if err != nil {
			if st != nil || n != 0 || corrupt {
				t.Fatal("decodeFile returned a state or a verdict alongside an error")
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("decodeFile error %v is neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		if n <= 0 || n > len(data) || (corrupt && n == len(data)) {
			t.Fatalf("intact prefix %d bytes of %d (corrupt %v)", n, len(data), corrupt)
		}
		for off := 0; off < n; {
			size, whole := frameSize(data[off:n])
			if !whole {
				t.Fatalf("intact prefix does not split into frames at byte %d", off)
			}
			frame := data[off : off+size]
			if isRecord(frame) {
				if _, err := Decode(frame); err != nil {
					t.Fatalf("state record at byte %d does not decode: %v", off, err)
				}
			} else if _, ok := readFrame(frame); !ok {
				t.Fatalf("combinations frame at byte %d does not decode", off)
			}
			off += size
		}
		again, m, bad, err := decodeFile(data[:n:n])
		if err != nil || m != n || bad || !statesEqual(again, st) {
			t.Fatal("the intact prefix alone folds to another state")
		}

		prefix := data[:len(data):len(data)]
		for _, cut := range []int{0, 1, 8, frameOverhead, len(extra) - 4, len(extra) - 1, len(extra)} {
			more, m, bad, err := decodeFile(append(prefix, extra[:cut]...))
			switch {
			case err != nil:
				t.Fatalf("appending %d bytes broke the first record: %v", cut, err)
			case corrupt && (m != n || !bad || !statesEqual(more, st)):
				t.Fatalf("appending %d bytes changed the corrupt verdict at byte %d", cut, n)
			case m < n:
				t.Fatalf("appending %d bytes shortened the intact prefix from %d to %d", cut, n, m)
			case n == len(data) && cut == len(extra) && (m != n+cut || len(more.Combinations) != len(st.Combinations)+1):
				t.Fatalf("a whole frame behind a clean end: %d combinations over %d bytes, want %d over %d",
					len(more.Combinations), m, len(st.Combinations)+1, n+cut)
			case n == len(data) && cut < len(extra) && (m != n || bad || !statesEqual(more, st)):
				t.Fatalf("%d torn bytes behind a clean end changed the state", cut)
			}
		}
	})
}

// lyingFrame returns frame with its combination count set to count and the
// CRC re-stitched, so only the count lies.
func lyingFrame(frame []byte, count uint64) []byte {
	out := append([]byte(nil), frame...)
	binary.BigEndian.PutUint64(out[8:], count)
	binary.BigEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestReadFrameBoundsBeforeAllocating hands the file decoder a combinations
// frame whose CRC matches but whose count claims 2^20 combinations, about
// 92 MB of Combination headers: the claim must be refused against the
// frame's 200-odd bytes before anything is allocated for it, ending the fold
// at the state record before it.
func TestReadFrameBoundsBeforeAllocating(t *testing.T) {
	record := Encode(&State{})
	file := append(append([]byte(nil), record...), lyingFrame(encodeFrame(sampleState().Combinations), 1<<20)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, n, corrupt, err := decodeFile(file)
	runtime.ReadMemStats(&after)
	if err != nil || n != len(record) || !corrupt || len(st.Combinations) != 0 {
		t.Fatalf("decodeFile = (%d combinations, %d bytes, corrupt %v, %v), want the record alone and a corrupt frame", len(st.Combinations), n, corrupt, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decoding a %d-byte file allocated %d bytes", len(file), grew)
	}
}

// statesEqual compares states field by field, treating nil and empty slices
// as equal (the codec does not distinguish them).
func statesEqual(a, b *State) bool {
	if !bytes.Equal(a.Fingerprint, b.Fingerprint) || a.Stage != b.Stage {
		return false
	}
	if len(a.Providers) != len(b.Providers) {
		return false
	}
	for i := range a.Providers {
		if a.Providers[i] != b.Providers[i] {
			return false
		}
	}
	if !int64MatrixEqual(a.Counts, b.Counts) || !int64sEqual(a.CaseNs, b.CaseNs) {
		return false
	}
	if !intMatrixEqual(a.PerLD, b.PerLD) {
		return false
	}
	if len(a.Combinations) != len(b.Combinations) {
		return false
	}
	for i := range a.Combinations {
		ca, cb := a.Combinations[i], b.Combinations[i]
		if len(ca.Members) != len(cb.Members) {
			return false
		}
		for j := range ca.Members {
			if ca.Members[j] != cb.Members[j] {
				return false
			}
		}
		if !intsEqual(ca.Safe, cb.Safe) || ca.Power != cb.Power || !intsEqual(ca.Order, cb.Order) {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intMatrixEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !intsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func int64MatrixEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !int64sEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
