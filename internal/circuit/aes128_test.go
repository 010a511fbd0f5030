package circuit

import "testing"

// BenchmarkBuild measures the first-use cost of the AES-128 circuit:
// one build, self-check included, per iteration.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := buildAES128(); err != nil {
			b.Fatal(err)
		}
	}
}
