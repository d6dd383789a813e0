package fleet_test

import (
	"fmt"
	"testing"

	"cloudvar/internal/fleet"
	"cloudvar/internal/testutil"
)

// BenchmarkFleetRun measures the whole simulate→summarize→aggregate
// pipeline end to end on a small matrix (2 profiles × 3 regimes × 2
// repetitions, 120 emulated seconds per cell) at the worker counts the
// determinism tests pin. This is the number the paper's methodology
// actually spends: cells per CPU-second bounds campaign density.
//
//	go test ./internal/fleet -run '^$' -bench BenchmarkFleetRun -benchmem -count 10
func BenchmarkFleetRun(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := testutil.TwoCloudSpec(b, 42, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetAdaptiveRun measures the sequential-stopping scheduler
// on the same matrix with a bound tight enough that every round
// reallocates budget — the worst case for batch-barrier overhead
// relative to the one-batch fixed campaign above.
//
//	go test ./internal/fleet -run '^$' -bench BenchmarkFleetAdaptiveRun -benchmem -count 10
func BenchmarkFleetAdaptiveRun(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := testutil.TwoCloudSpec(b, 42, workers)
			spec.Repetitions = 8
			spec.Stopping = fleet.StoppingSpec{ErrorBound: 0.001, MaxReps: 12}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
