package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
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
		LPrime:      []int{0, 2},
		PerMAF:      [][]int{{0, 2}},
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

// FuzzDecodeLog drives the log decoder with arbitrary bytes. The contract
// under test: decodeLog never panics; the intact prefix it reports splits
// into frames that are each exactly the encoding of the combinations read
// from them (so every returned combination comes from a frame whose CRC
// matched, and nothing of a frame is half-applied); and the bytes after that
// prefix never contribute — a whole frame appended to the prefix adds
// exactly its combinations, a torn one adds none.
func FuzzDecodeLog(f *testing.F) {
	combos := sampleState().Combinations
	frame := encodeFrame(combos)
	log := append(append([]byte(nil), frame...), encodeFrame(combos[1:])...)
	f.Add([]byte(nil))
	f.Add(log)
	f.Add(log[:len(log)-3]) // a truncated frame
	crcFlip := append([]byte(nil), log...)
	crcFlip[len(crcFlip)-1] ^= 0x01
	f.Add(crcFlip)
	huge := append([]byte(nil), frame...)
	binary.BigEndian.PutUint64(huge, 1<<62) // a huge length prefix
	f.Add(huge)
	// A frame whose CRC matches but whose count claims 2^40 combinations.
	hugeCount := append([]byte(nil), frame...)
	binary.BigEndian.PutUint64(hugeCount[8:], 1<<40)
	binary.BigEndian.PutUint32(hugeCount[len(hugeCount)-4:], crc32.ChecksumIEEE(hugeCount[:len(hugeCount)-4]))
	f.Add(hugeCount)

	extra := encodeFrame(combos[:1])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, n := decodeLog(data)
		if n < 0 || n > len(data) {
			t.Fatalf("intact prefix %d bytes of %d", n, len(data))
		}
		var walked []Combination
		for off := 0; off < n; {
			cs, size, ok := readFrame(data[off:n])
			if !ok {
				t.Fatalf("intact prefix does not split into frames at byte %d", off)
			}
			if !bytes.Equal(encodeFrame(cs), data[off:off+size]) {
				t.Fatalf("frame at byte %d is not the encoding of its combinations", off)
			}
			walked = append(walked, cs...)
			off += size
		}
		if !reflect.DeepEqual(walked, got) {
			t.Fatal("decodeLog returned combinations its frames do not hold")
		}
		prefix := data[:n:n]
		for _, cut := range []int{0, 1, 8, frameOverhead, len(extra) - 4, len(extra) - 1, len(extra)} {
			more, m := decodeLog(append(prefix, extra[:cut]...))
			wantN, wantLen := n, len(got)
			if cut == len(extra) {
				wantN, wantLen = n+len(extra), len(got)+1
			}
			if m != wantN || len(more) != wantLen {
				t.Fatalf("prefix + %d of %d frame bytes: %d combinations over %d bytes, want %d over %d",
					cut, len(extra), len(more), m, wantLen, wantN)
			}
		}
	})
}

// TestReadFrameBoundsBeforeAllocating hands the log decoder a frame whose
// CRC matches but whose count claims 2^20 combinations, about 92 MB of
// Combination headers: the claim must be refused against the frame's 200-odd
// bytes before anything is allocated for it.
func TestReadFrameBoundsBeforeAllocating(t *testing.T) {
	frame := encodeFrame(sampleState().Combinations)
	binary.BigEndian.PutUint64(frame[8:], 1<<20)
	binary.BigEndian.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(frame[:len(frame)-4]))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cs, n := decodeLog(frame)
	runtime.ReadMemStats(&after)
	if cs != nil || n != 0 {
		t.Fatalf("decoded %d combinations over %d bytes from a lying frame", len(cs), n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decoding a %d-byte frame allocated %d bytes", len(frame), grew)
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
	if !intsEqual(a.LPrime, b.LPrime) || !intMatrixEqual(a.PerMAF, b.PerMAF) {
		return false
	}
	if !intsEqual(a.LDouble, b.LDouble) || !intMatrixEqual(a.PerLD, b.PerLD) {
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
