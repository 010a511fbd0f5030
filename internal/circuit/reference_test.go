package circuit

import "testing"

// BenchmarkBuild measures the first-use cost of each reference
// circuit: one build, self-check included, per iteration.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() (*Circuit, error)
	}{
		{"aes128", buildAES128},
		{"sha256", buildSHA256},
		{"div64", buildDivide64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
