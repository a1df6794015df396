package federation

import (
	"testing"
	"time"

	"gendpr/internal/checkpoint"
)

// TestFaultTolerantPredicate pins which options leave the base protocol:
// the zero RunOptions is strict, and so are deadlines or checkpoints alone;
// each of retries, degradation and rejoin makes the run fault-tolerant.
func TestFaultTolerantPredicate(t *testing.T) {
	cases := []struct {
		name     string
		opts     RunOptions
		tolerant bool
	}{
		{"zero", RunOptions{}, false},
		{"checkpoints", RunOptions{Checkpoints: checkpoint.NewMemStore()}, false},
		{"rpc-timeout", RunOptions{RPCTimeout: time.Second}, false},
		{"max-retries", RunOptions{MaxRetries: 1}, true},
		{"min-quorum", RunOptions{MinQuorum: 2}, true},
		{"allow-rejoin", RunOptions{AllowRejoin: true}, true},
	}
	for _, tc := range cases {
		if got := tc.opts.faultTolerant(); got != tc.tolerant {
			t.Errorf("%s: faultTolerant() = %v, want %v", tc.name, got, tc.tolerant)
		}
	}
}
