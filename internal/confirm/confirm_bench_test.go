package confirm

import (
	"fmt"
	"testing"
)

// BenchmarkConfirmAnalyze measures one CONFIRM trace over a 100-sample
// group, the per-group analysis that campaign aggregation and drift
// run: one QuantileCI per prefix length from 2 to 100.
func BenchmarkConfirmAnalyze(b *testing.B) {
	xs := iidSample(7, 100, 100, 5)
	for _, q := range []float64{0.5, 0.9} {
		b.Run(fmt.Sprintf("q=%g", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeQuantile(xs, q, 0.95, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
