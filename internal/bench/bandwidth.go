package bench

import (
	"context"
	"fmt"
	"strings"

	"gendpr/internal/core"
	"gendpr/internal/federation"
)

// BandwidthRow is one row of the Section 7.1 bandwidth analysis.
type BandwidthRow struct {
	GDOs            int
	SNPs            int
	ProtocolBytes   int64
	Messages        int64
	GenomeShipBytes int64
	Savings         float64
}

// Bandwidth runs the full middleware for each configuration and reports the
// wire traffic against the ship-the-genomes baseline — the claim of the
// paper's Section 7.1 that GDOs exchange vectors instead of variant files.
func Bandwidth(scale float64) ([]BandwidthRow, error) {
	var rows []BandwidthRow
	for _, g := range GDOGrid {
		for _, snps := range []int{1000, 10000} {
			w := Workload{SNPs: snps, Genomes: 14860, Scale: scale}
			cohort, err := Cohort(w)
			if err != nil {
				return nil, err
			}
			shards, err := cohort.Partition(g)
			if err != nil {
				return nil, err
			}
			res, err := federation.RunInProcess(context.Background(), shards, cohort.Reference, core.DefaultConfig(), core.CollusionPolicy{}, federation.RunOptions{})
			if err != nil {
				return nil, err
			}
			rows = append(rows, BandwidthRow{
				GDOs:            g,
				SNPs:            snps,
				ProtocolBytes:   res.Traffic.TotalBytes,
				Messages:        res.Traffic.TotalMessages,
				GenomeShipBytes: res.Traffic.GenomeShipBytes,
				Savings:         res.Traffic.SavingsFactor(),
			})
		}
	}
	return rows, nil
}

// FormatBandwidth renders the bandwidth rows as text.
func FormatBandwidth(rows []BandwidthRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %16s %10s %22s %10s\n",
		"Configuration", "Protocol (B)", "Messages", "Genome shipping (KB)", "Savings")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %16d %10d %22.1f %9.1fx\n",
			fmt.Sprintf("%d GDOs / %d SNPs", r.GDOs, r.SNPs),
			r.ProtocolBytes, r.Messages,
			float64(r.GenomeShipBytes)/1024, r.Savings)
	}
	return b.String()
}
