package checkpoint

import "testing"

// collusionState builds a snapshot shaped like the last save of a five-member
// conservative assessment: five count vectors over snps SNPs, 31
// per-combination LD selections of afterLD SNPs, and all 31 combinations
// completed (the full membership's carrying the admission order).
func collusionState(snps, afterLD int) *State {
	names := []string{"gdo-0", "gdo-1", "gdo-2", "gdo-3", "gdo-4"}
	ramp := func(n, stride int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i * stride
		}
		return out
	}
	st := &State{
		Fingerprint: make([]byte, 32),
		Providers:   names,
		Stage:       StageLD,
	}
	for i := range names {
		counts := make([]int64, snps)
		for l := range counts {
			counts[l] = int64((l*7 + i) % 2000)
		}
		st.Counts = append(st.Counts, counts)
		st.CaseNs = append(st.CaseNs, 2607)
	}
	for mask := 31; mask >= 1; mask-- {
		var members []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				members = append(members, n)
			}
		}
		c := Combination{Members: members, Safe: ramp(afterLD*4/5, 25), Power: 0.5}
		if mask == 31 {
			c.Order = ramp(afterLD, 20)
		}
		st.PerLD = append(st.PerLD, ramp(afterLD, 20))
		st.Combinations = append(st.Combinations, c)
	}
	return st
}

// BenchmarkFileStoreSave prices one checkpoint boundary on disk at the shape
// of the last of the 33 saves of the benchmark's fed5_collusion workload (5 ×
// 10,000 counts, 31 LD selections of ~390 SNPs, 31 combinations), and at a
// tenth of it, both ways a FileStore saves one:
// a new base (encode, write, fsync, rotate, rename and directory fsync) and,
// in the "_append" sub-benchmarks, one Phase-3 combination appended to the
// log behind a StageLD base (encode a frame, write, fsync). bytes/op is the
// record's or the frame's size.
func BenchmarkFileStoreSave(b *testing.B) {
	for _, shape := range []struct {
		name          string
		snps, afterLD int
	}{{"fed5_collusion", 10000, 390}, {"tenth", 1000, 39}} {
		b.Run(shape.name, func(b *testing.B) {
			st := collusionState(shape.snps, shape.afterLD)
			s, err := NewFileStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			n := len(Encode(st))
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Save(st); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "bytes/op")
		})
		b.Run(shape.name+"_append", func(b *testing.B) {
			full := collusionState(shape.snps, shape.afterLD)
			combos := full.Combinations
			s, err := NewFileStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			st := *full
			n := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i%len(combos) + 1
				if k == 1 {
					// A new run's Phase-2 base, outside the timed appends.
					b.StopTimer()
					st.Combinations = combos[:0]
					if err := s.Save(&st); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				st.Combinations = combos[:k]
				if err := s.Save(&st); err != nil {
					b.Fatal(err)
				}
				n += len(encodeFrame(combos[k-1 : k]))
			}
			b.ReportMetric(float64(n)/float64(b.N), "bytes/op")
		})
	}
}
