// Package checkpoint persists assessment progress at phase boundaries so a
// re-elected leader (or a restarted one) can resume a partially completed
// GenDPR run instead of recomputing every phase from zero. A checkpoint is a
// State: what a resume cannot recompute and nothing else. That is the
// provider roster it was taken over, the collected summary statistics, the
// per-combination L″ of Phase 2, and the per-combination Phase 3 results
// (including the canonical admission order of the full-membership
// combination, which anchors every other combination on resume). Phase 1's
// outputs are not in it: they are a pure function of the summaries and the
// public reference panel, and a resuming leader recomputes them.
//
// A FileStore keeps a State as one file: a state record followed by
// appended frames, one per phase boundary. A state record is a versioned,
// length-prefixed, CRC-guarded envelope over the project's deterministic wire
// codec and is self-contained; appended as a frame, it replaces the state
// before it. A combinations frame carries the Phase 3 combinations completed
// since the previous frame, under its own length and CRC. Decoding a record
// is all-or-nothing: a truncated, corrupted, or version-skewed record yields
// an error and no partially applied state. Decoding the file is
// all-or-nothing per frame: the first torn or bad frame ends it at the
// boundary before. The fuzz targets enforce both.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"gendpr/internal/wire"
)

// Version is the current checkpoint format version. Decoders reject any
// other value: resuming from a checkpoint written by a different build is a
// correctness hazard, not a migration opportunity.
//
// Version 2 replaced the full-membership combination's wire-encoded merged
// LR-matrix (per-individual data) with the derived admission order. Version 3
// dropped the per-provider pair statistics the LD scan aggregated: a resume
// at StageLD skips Phase 2 entirely, so no resume ever read them. Version 4
// dropped L′, the per-combination L′ and L″: a resume recomputes Phase 1 from
// the counts and intersects L″ from the per-combination L″. Every record
// ends with the blame section, empty or not.
const Version = 4

// magic identifies a checkpoint record; anything else is not even parsed.
const magic = "GDPRCKPT"

var (
	// ErrNotFound is returned by Store.Load when no checkpoint exists.
	ErrNotFound = errors.New("checkpoint: not found")

	// ErrCorrupt is returned when a record fails structural validation:
	// bad magic, truncated envelope, CRC mismatch, or undecodable payload.
	ErrCorrupt = errors.New("checkpoint: corrupt record")

	// ErrVersion is returned when the record's format version is not the
	// one this build writes.
	ErrVersion = errors.New("checkpoint: unsupported version")
)

// Stage is the highest fully completed phase boundary a checkpoint covers.
type Stage uint8

const (
	// StageNone means only the collected summaries are recorded.
	StageNone Stage = iota
	// StageMAF means Phase 1 is complete. Its outputs are not recorded: a
	// resume recomputes them from Counts and CaseNs.
	StageMAF
	// StageLD means Phase 2 is complete: PerLD is valid.
	StageLD
)

func (s Stage) String() string {
	switch s {
	case StageNone:
		return "none"
	case StageMAF:
		return "maf"
	case StageLD:
		return "ld"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// Combination is the completed Phase 3 result for one collusion combination,
// identified by the member names it was evaluated over (names, not slot
// indices: a new leader enumerates providers in a different order).
type Combination struct {
	// Members are the provider identity names of the combination.
	Members []string
	// Safe is the combination's safe SNP selection.
	Safe []int
	// Power is the residual identification power (meaningful for the
	// full-membership combination only).
	Power float64
	// Order is the canonical SNP admission order (the discriminability
	// ranking). It is retained only for the full-membership combination,
	// whose order every other combination shares; a resuming leader reuses
	// it without re-fetching member matrices. The order is a derived,
	// post-aggregation statistic — the merged per-individual LR-matrix it
	// was computed from is deliberately never persisted (checkpoints
	// outlive the enclave).
	Order []int
}

// BlameRecord is one attribution of detectably-wrong member behavior —
// equivocation across retries or a payload that failed leader-side
// validation. Blame is part of the checkpoint so a re-elected leader still
// reports which member a degraded run quarantined, and why.
//
// Prior and Observed are SHA-256 digests over the canonical wire encoding of
// the two conflicting payloads (one-way hashes of aggregate statistics, the
// same class of content as Counts below).
type BlameRecord struct {
	// Member is the provider identity name (names, not slot indices: a new
	// leader enumerates providers in a different order).
	Member string
	// Phase is the protocol phase the bad contribution targeted.
	Phase string
	// Query fingerprints which request the member answered inconsistently.
	Query string
	// Kind classifies the fault: "equivocation" or "invalid-payload".
	Kind string
	// Prior and Observed are the conflicting payload digests (equivocation
	// only; empty for validation failures, which have a single bad payload).
	Prior    []byte
	Observed []byte
}

// State is one checkpoint: everything a leader needs to resume an assessment
// at the recorded stage. Per-provider arrays (Counts, CaseNs) are
// indexed like Providers; a resuming leader remaps them onto its own
// provider order by name.
type State struct {
	// Fingerprint binds the checkpoint to one run shape (configuration,
	// policy, provider name set, reference dimensions). A mismatch means
	// the checkpoint describes a different run and must be ignored.
	Fingerprint []byte
	// Providers are the identity names, in the saving leader's slot order.
	Providers []string
	// Counts holds each provider's minor-allele count vector.
	Counts [][]int64
	// CaseNs holds each provider's case-population size.
	CaseNs []int64
	// Stage is the highest completed phase boundary.
	Stage Stage
	// PerLD holds each combination's Phase 2 output L″ (valid from
	// StageLD); the run's L″ is their intersection.
	PerLD [][]int
	// Combinations lists the Phase 3 combinations completed so far.
	Combinations []Combination
	// Blamed lists the members quarantined for detectably-wrong behavior up
	// to this boundary, so attribution survives leader failover.
	Blamed []BlameRecord
}

// headerLen is the envelope ahead of the payload: magic, version, length.
const headerLen = len(magic) + 4 + 8

// Encode serializes the state into the versioned CRC-guarded envelope:
//
//	magic(8) | version u32 | payload length u64 | payload | crc32(IEEE) u32
//
// The CRC covers version, length, and payload. The record is built in one
// buffer sized up front from the state (a paper-scale record is megabytes of
// selections; growing to that by append and then copying the payload into
// the envelope cost more than the encoding itself): the payload is
// encoded behind a reserved header, which is filled in once its length is
// known.
func Encode(st *State) []byte {
	out := make([]byte, headerLen, headerLen+payloadLen(st)+4)
	copy(out, magic)
	e := wire.NewEncoderBuffer(out)
	e.Blob(st.Fingerprint)
	e.Uint64(uint64(len(st.Providers)))
	for _, name := range st.Providers {
		e.String(name)
	}
	e.Uint64(uint64(len(st.Counts)))
	for _, counts := range st.Counts {
		e.Int64s(counts)
	}
	e.Int64s(st.CaseNs)
	e.Uint64(uint64(st.Stage))
	encodePerCombination(e, st.PerLD)
	encodeCombinations(e, st.Combinations)
	e.Uint64(uint64(len(st.Blamed)))
	for _, b := range st.Blamed {
		e.String(b.Member)
		e.String(b.Phase)
		e.String(b.Query)
		e.String(b.Kind)
		e.Blob(b.Prior)
		e.Blob(b.Observed)
	}
	out = e.Bytes()
	binary.BigEndian.PutUint32(out[len(magic):], Version)
	binary.BigEndian.PutUint64(out[len(magic)+4:], uint64(len(out)-headerLen))
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[len(magic):]))
}

// payloadLen is the exact number of bytes Encode writes for the state's
// payload: 8 per fixed-width value and length prefix, plus the bytes of every
// string and blob. It mirrors Encode field for field; TestEncodeAllocatesExactly
// fails when the two drift apart.
func payloadLen(st *State) int {
	words := func(n int) int { return 8 + 8*n } // a length-prefixed slice of n 8-byte values
	n := words(0) + len(st.Fingerprint)
	n += 8
	for _, name := range st.Providers {
		n += words(0) + len(name)
	}
	n += 8
	for _, counts := range st.Counts {
		n += words(len(counts))
	}
	n += words(len(st.CaseNs))
	n += 8 + 8 // stage, PerLD length
	for _, sel := range st.PerLD {
		n += words(len(sel))
	}
	n += combinationsLen(st.Combinations)
	n += 8
	for _, b := range st.Blamed {
		n += 6*words(0) + len(b.Member) + len(b.Phase) + len(b.Query) + len(b.Kind) + len(b.Prior) + len(b.Observed)
	}
	return n
}

// combinationsLen is the exact number of bytes encodeCombinations writes.
func combinationsLen(cs []Combination) int {
	n := 8
	for _, c := range cs {
		n += 8
		for _, m := range c.Members {
			n += 8 + len(m)
		}
		n += 8 + 8*len(c.Safe) + 8 + 8 + 8*len(c.Order)
	}
	return n
}

// encodeCombinations writes a count-prefixed list of combinations; the base
// record and every log frame share it.
func encodeCombinations(e *wire.Encoder, cs []Combination) {
	e.Uint64(uint64(len(cs)))
	for _, c := range cs {
		e.Uint64(uint64(len(c.Members)))
		for _, m := range c.Members {
			e.String(m)
		}
		e.Ints(c.Safe)
		e.Float64(c.Power)
		e.Ints(c.Order)
	}
}

func encodePerCombination(e *wire.Encoder, per [][]int) {
	e.Uint64(uint64(len(per)))
	for _, sel := range per {
		e.Ints(sel)
	}
}

// Decode parses an encoded checkpoint. Any structural defect — wrong magic,
// version skew, truncation, trailing bytes, CRC mismatch, or an undecodable
// payload — yields a nil state and an error; a partially decoded state is
// never returned.
func Decode(b []byte) (*State, error) {
	if len(b) < len(magic)+16 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorrupt, len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body := b[len(magic) : len(b)-4]
	wantCRC := uint32(b[len(b)-4])<<24 | uint32(b[len(b)-3])<<16 | uint32(b[len(b)-2])<<8 | uint32(b[len(b)-1])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	version := uint32(body[0])<<24 | uint32(body[1])<<16 | uint32(body[2])<<8 | uint32(body[3])
	if version != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, version, Version)
	}
	length := uint64(0)
	for _, x := range body[4:12] {
		length = length<<8 | uint64(x)
	}
	payload := body[12:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload length %d, envelope says %d", ErrCorrupt, len(payload), length)
	}

	d := wire.NewDecoder(payload)
	st := &State{}
	st.Fingerprint = append([]byte(nil), d.Blob()...)
	var ok bool
	if st.Providers, ok = decodeStrings(d); !ok {
		return nil, fmt.Errorf("%w: provider length", ErrCorrupt)
	}
	nCounts, ok := decodeLen(d, 8)
	if !ok {
		return nil, fmt.Errorf("%w: counts length", ErrCorrupt)
	}
	st.Counts = make([][]int64, 0, nCounts)
	for i := 0; i < nCounts; i++ {
		st.Counts = append(st.Counts, d.Int64s())
	}
	st.CaseNs = d.Int64s()
	st.Stage = Stage(d.Uint64())
	if st.PerLD, ok = decodePerCombination(d); !ok {
		return nil, fmt.Errorf("%w: per-combination length", ErrCorrupt)
	}
	if st.Combinations, ok = decodeCombinations(d); !ok {
		return nil, fmt.Errorf("%w: combination length", ErrCorrupt)
	}
	nBlamed, ok := decodeLen(d, 6*8)
	if !ok {
		return nil, fmt.Errorf("%w: blame length", ErrCorrupt)
	}
	if nBlamed > 0 {
		st.Blamed = make([]BlameRecord, 0, nBlamed)
	}
	for i := 0; i < nBlamed; i++ {
		st.Blamed = append(st.Blamed, BlameRecord{
			Member:   d.String(),
			Phase:    d.String(),
			Query:    d.String(),
			Kind:     d.String(),
			Prior:    copyBytes(d.Blob()),
			Observed: copyBytes(d.Blob()),
		})
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// validate enforces the cross-field invariants a decoder cannot express:
// per-provider arrays must align with the roster, and the stage must be one
// this version defines. Saving code maintains these by construction.
func (st *State) validate() error {
	g := len(st.Providers)
	if len(st.Counts) != g || len(st.CaseNs) != g {
		return fmt.Errorf("%w: %d providers with %d count vectors and %d population sizes",
			ErrCorrupt, g, len(st.Counts), len(st.CaseNs))
	}
	if st.Stage > StageLD {
		return fmt.Errorf("%w: stage %d", ErrCorrupt, st.Stage)
	}
	for _, c := range st.Combinations {
		if !c.valid() {
			return fmt.Errorf("%w: non-finite combination power", ErrCorrupt)
		}
	}
	return nil
}

// valid reports whether the combination's power is finite, the one
// invariant of a combination the codec cannot express.
func (c *Combination) valid() bool { return !math.IsNaN(c.Power) && !math.IsInf(c.Power, 0) }

// copyBytes detaches a decoded blob from the payload buffer, keeping the
// zero value for an absent blob so encode/decode round trips compare equal.
func copyBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// decodeLen reads an element count and checks it against the bytes left, at
// minSize bytes per element, before the caller allocates for it: a hostile
// length field can claim no more elements than the input could hold.
func decodeLen(d *wire.Decoder, minSize int) (int, bool) {
	n := d.Uint64()
	if d.Err() != nil || n > uint64(d.Remaining()/minSize) {
		return 0, false
	}
	return int(n), true
}

// decodeCombinations is the inverse of encodeCombinations.
func decodeCombinations(d *wire.Decoder) ([]Combination, bool) {
	// Members, Safe, Power and Order take at least 8 bytes each.
	n, ok := decodeLen(d, 4*8)
	if !ok {
		return nil, false
	}
	out := make([]Combination, 0, n)
	for i := 0; i < n; i++ {
		members, ok := decodeStrings(d)
		if !ok {
			return nil, false
		}
		c := Combination{Members: members, Safe: d.Ints(), Power: d.Float64()}
		// Keep the zero value for an absent order so encode/decode round
		// trips compare equal (only the full-membership record carries one).
		if o := d.Ints(); len(o) > 0 {
			c.Order = o
		}
		out = append(out, c)
	}
	return out, true
}

func decodeStrings(d *wire.Decoder) ([]string, bool) {
	n, ok := decodeLen(d, 8)
	if !ok {
		return nil, false
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String())
	}
	return out, true
}

func decodePerCombination(d *wire.Decoder) ([][]int, bool) {
	n, ok := decodeLen(d, 8)
	if !ok {
		return nil, false
	}
	out := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Ints())
	}
	return out, true
}

// frameOverhead is a combinations frame's length prefix plus its CRC
// trailer.
const frameOverhead = 8 + 4

// encodeFrame serializes combinations as one combinations frame:
//
//	length u64 | count u64 | combinations | crc32(IEEE) u32
//
// length counts the bytes between itself and the CRC; the CRC covers the
// length and those bytes. The combinations use the state record's encoding.
// A frame never starts with the record magic: read as a length, the magic
// claims exabytes.
func encodeFrame(cs []Combination) []byte {
	n := combinationsLen(cs)
	out := make([]byte, 8, frameOverhead+n)
	binary.BigEndian.PutUint64(out, uint64(n))
	e := wire.NewEncoderBuffer(out)
	encodeCombinations(e, cs)
	out = e.Bytes()
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// isRecord reports whether b starts with a state record's magic.
func isRecord(b []byte) bool { return len(b) >= len(magic) && string(b[:len(magic)]) == magic }

// frameSize returns the size of the frame at the head of b, a state record
// or a combinations frame, as its length field claims it; whole is false when
// b ends before the frame does. The claim is checked against len(b) before
// anything is read or allocated for it.
func frameSize(b []byte) (size int, whole bool) {
	lengthOff, overhead := 0, frameOverhead
	if isRecord(b) {
		lengthOff, overhead = len(magic)+4, headerLen+4
	}
	if len(b) < overhead {
		return 0, false
	}
	n := binary.BigEndian.Uint64(b[lengthOff:])
	if n > uint64(len(b)-overhead) {
		return 0, false
	}
	return overhead + int(n), true
}

// readFrame decodes a whole combinations frame, as sized by frameSize. ok is
// false unless its CRC matches and its combinations decode and validate.
func readFrame(frame []byte) ([]Combination, bool) {
	body := frame[:len(frame)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(frame[len(body):]) {
		return nil, false
	}
	d := wire.NewDecoder(body[8:])
	cs, ok := decodeCombinations(d)
	if !ok || d.Finish() != nil {
		return nil, false
	}
	for i := range cs {
		if !cs[i].valid() {
			return nil, false
		}
	}
	return cs, true
}

// decodeFile folds a checkpoint file — a state record, then frames — into
// the state at its last intact boundary. intact is the number of bytes the
// records and frames folded span. The fold stops at the first frame that is
// not whole, a torn append whose bytes are dropped, or that fails its CRC or
// decode, in which case corrupt is set. A first record that is not whole, is
// not a state record or fails to decode is an error: ErrVersion when it is
// intact but of another format version, ErrCorrupt otherwise.
func decodeFile(b []byte) (st *State, intact int, corrupt bool, err error) {
	size, whole := frameSize(b)
	if !whole {
		size = len(b) // Decode names the defect
	}
	if st, err = Decode(b[:size]); err != nil {
		return nil, 0, false, err
	}
	for intact = size; intact < len(b); intact += size {
		if size, whole = frameSize(b[intact:]); !whole {
			break
		}
		frame := b[intact : intact+size]
		if isRecord(frame) {
			next, err := Decode(frame)
			if err != nil {
				return st, intact, true, nil
			}
			st = next
		} else if cs, ok := readFrame(frame); ok {
			st.Combinations = append(st.Combinations, cs...)
		} else {
			return st, intact, true, nil
		}
	}
	return st, intact, false, nil
}
