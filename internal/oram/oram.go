// Package oram implements Path ORAM (Stefanov et al.), the oblivious-memory
// scheme the paper cites as a defense against enclave access-pattern
// side channels. Every logical access reads and rewrites one full root-to-
// leaf path of a binary tree of encrypted-block buckets, so the physical
// trace is independent of which address the enclave touched.
//
// The implementation is an in-memory model of the protocol: buckets live in
// untrusted memory (a slice), the stash and position map in enclave memory.
// It is used by the oblivious processing mode and as a standalone substrate.
package oram

import (
	"errors"
	"fmt"
)

// Rand is the minimal uniform-integer source ORAM consumes for leaf
// remapping. Production code must inject a cryptographically secure
// implementation (internal/crand.Source): the Path ORAM security argument
// requires that an observer of the untrusted host cannot predict remapped
// leaves. Tests inject a seeded *math/rand.Rand, which satisfies the same
// interface, for reproducible traces. The cryptorand static analyzer keeps
// math/rand itself out of this package.
type Rand interface {
	// Intn returns a uniform value in [0, n); it may panic for n <= 0.
	Intn(n int) int
}

// BucketSize is Z, the number of block slots per tree node. Z=4 is the
// setting shown by the Path ORAM paper to keep the stash small.
const BucketSize = 4

var (
	// ErrAddressRange is returned for out-of-range addresses.
	ErrAddressRange = errors.New("oram: address out of range")

	// ErrBlockSize is returned when a written block has the wrong size.
	ErrBlockSize = errors.New("oram: wrong block size")
)

// block is one stored unit.
type block struct {
	addr int
	data []byte
}

// ORAM is a Path ORAM instance. It is not safe for concurrent use; enclave
// code serializes accesses (which is also required for obliviousness).
type ORAM struct {
	blockSize int
	capacity  int
	levels    int // tree depth; leaves = 1 << levels
	leaves    int

	buckets [][]block // heap layout, 1-based; len(buckets[i]) <= BucketSize
	pos     []int     // addr -> leaf
	stash   map[int][]byte
	rng     Rand

	accesses int64
}

// New creates an ORAM holding capacity blocks of blockSize bytes. The rng
// drives leaf remapping; pass a crand.Source in production and a fixed-seed
// math/rand source in tests.
func New(capacity, blockSize int, rng Rand) (*ORAM, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("oram: capacity %d invalid", capacity)
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("oram: block size %d invalid", blockSize)
	}
	if rng == nil {
		return nil, errors.New("oram: nil random source")
	}
	levels := 0
	for 1<<levels < capacity {
		levels++
	}
	leaves := 1 << levels
	o := &ORAM{
		blockSize: blockSize,
		capacity:  capacity,
		levels:    levels,
		leaves:    leaves,
		buckets:   make([][]block, 2*leaves),
		pos:       make([]int, capacity),
		stash:     make(map[int][]byte),
		rng:       rng,
	}
	for addr := range o.pos {
		o.pos[addr] = rng.Intn(leaves)
	}
	return o, nil
}

// Capacity returns the number of addressable blocks.
func (o *ORAM) Capacity() int { return o.capacity }

// BlockSize returns the block size in bytes.
func (o *ORAM) BlockSize() int { return o.blockSize }

// StashSize returns the number of blocks currently overflowing into the
// stash (excluding the transient path content during an access).
func (o *ORAM) StashSize() int { return len(o.stash) }

// Accesses returns the number of logical accesses performed.
func (o *ORAM) Accesses() int64 { return o.accesses }

// pathNode returns the heap index of the bucket at the given level (0 =
// root) on the path to a leaf.
func (o *ORAM) pathNode(leaf, level int) int {
	return (leaf + o.leaves) >> (o.levels - level)
}

// Read returns the block at addr, or nil if it was never written.
//
//gendpr:ordered: the stash is keyed by address; access selects blocks by lookup, so the returned bytes do not depend on map iteration order
func (o *ORAM) Read(addr int) ([]byte, error) {
	return o.access(addr, nil)
}

// Write stores data (of exactly BlockSize bytes) at addr.
//
//gendpr:ordered: write-back eviction iterates the stash, but the stored bytes are exactly the caller's data regardless of eviction order
func (o *ORAM) Write(addr int, data []byte) error {
	if len(data) != o.blockSize {
		return fmt.Errorf("%w: %d bytes, want %d", ErrBlockSize, len(data), o.blockSize)
	}
	_, err := o.access(addr, data)
	return err
}

// access performs one Path ORAM access: remap, read path into stash,
// read/update the target, write the path back greedily.
func (o *ORAM) access(addr int, write []byte) ([]byte, error) {
	if addr < 0 || addr >= o.capacity {
		return nil, fmt.Errorf("%w: %d (capacity %d)", ErrAddressRange, addr, o.capacity)
	}
	o.accesses++
	leaf := o.pos[addr]
	o.pos[addr] = o.rng.Intn(o.leaves)

	// Read the whole path into the stash.
	for level := 0; level <= o.levels; level++ {
		node := o.pathNode(leaf, level)
		for _, b := range o.buckets[node] {
			o.stash[b.addr] = b.data
		}
		o.buckets[node] = o.buckets[node][:0]
	}

	// Serve the request from the stash.
	var result []byte
	if data, ok := o.stash[addr]; ok {
		result = make([]byte, len(data))
		copy(result, data)
	}
	if write != nil {
		stored := make([]byte, len(write))
		copy(stored, write)
		o.stash[addr] = stored
	}

	// Write back, deepest level first, placing every stash block whose
	// (new) position still passes through the node.
	for level := o.levels; level >= 0; level-- {
		node := o.pathNode(leaf, level)
		for a, data := range o.stash {
			if len(o.buckets[node]) >= BucketSize {
				break
			}
			if o.pathNode(o.pos[a], level) == node {
				o.buckets[node] = append(o.buckets[node], block{addr: a, data: data})
				delete(o.stash, a)
			}
		}
	}
	return result, nil
}

// Store is a convenience ORAM-backed byte store for fixed-size records,
// initializing every address eagerly so reads never return nil.
type Store struct {
	oram *ORAM
}

// NewStore creates an ORAM store with all blocks zero-initialized.
func NewStore(capacity, blockSize int, rng Rand) (*Store, error) {
	o, err := New(capacity, blockSize, rng)
	if err != nil {
		return nil, err
	}
	zero := make([]byte, blockSize)
	for addr := 0; addr < capacity; addr++ {
		if err := o.Write(addr, zero); err != nil {
			return nil, err
		}
	}
	return &Store{oram: o}, nil
}

// Get reads a record.
//
//gendpr:ordered: delegates to ORAM.Read, whose result is address-keyed and independent of stash iteration order
func (s *Store) Get(addr int) ([]byte, error) {
	data, err := s.oram.Read(addr)
	if err != nil {
		return nil, err
	}
	if data == nil {
		// Eager initialization makes this unreachable; defend anyway.
		data = make([]byte, s.oram.blockSize)
	}
	return data, nil
}

// Put writes a record.
//
//gendpr:ordered: delegates to ORAM.Write; the stored bytes are the caller's data regardless of eviction order
func (s *Store) Put(addr int, data []byte) error {
	return s.oram.Write(addr, data)
}

// StashSize exposes the underlying stash occupancy.
func (s *Store) StashSize() int { return s.oram.StashSize() }
